"""Lemma 1 of the paper: Bernoulli sampling probabilities with a
per-stratum minimum-size guarantee, and the staircase CASE expression
that encodes them in pure SQL (Section 3.2).

A stratified sample must contain at least ``m`` tuples from a stratum of
``n`` tuples with probability ``1 - delta``. Lemma 1 gives the required
Bernoulli probability as ``f_m(n) = g^{-1}(m; n)`` where

    g(p; n) = sqrt(2 n p (1-p)) * erfcinv(2 (1 - delta)) + n p

is the normal approximation of the ``delta``-quantile of Binomial(n, p).
``erfcinv(2(1-delta))`` is negative for small ``delta``, so ``g`` is the
*lower* tail: requiring ``g(p; n) >= m`` guarantees at least ``m``
successes with probability ``1 - delta``.

``erfcinv`` comes from the stdlib normal quantile:
``erfc(x) = 2 (1 - Phi(x sqrt(2)))``, so
``erfcinv(y) = Phi^{-1}(1 - y/2) / sqrt(2)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

DEFAULT_DELTA = 0.001


def erfcinv(y: float) -> float:
    """Inverse of the complementary error function on (0, 2)."""
    if not 0.0 < y < 2.0:
        raise ValueError(f"erfcinv domain is (0, 2), got {y}")
    return NormalDist().inv_cdf(1.0 - y / 2.0) / math.sqrt(2.0)


def g(p: float, n: int, delta: float = DEFAULT_DELTA) -> float:
    """Lemma 1's g(p; n): approximate delta-quantile of Binomial(n, p)."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return float(n)
    return math.sqrt(2.0 * n * p * (1.0 - p)) * erfcinv(2.0 * (1.0 - delta)) + n * p


def f_m(m: float, n: int, delta: float = DEFAULT_DELTA) -> float:
    """Smallest Bernoulli probability that yields >= m of n tuples w.p. 1-delta.

    Returns 1.0 when no probability below 1 suffices (stratum smaller
    than or close to the minimum — Equation 1's ``min`` clamp).
    """
    if n <= 0 or m <= 0:
        return 0.0
    if m >= n or g(1.0 - 1e-12, n, delta) < m:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if g(mid, n, delta) < m:
            lo = mid
        else:
            hi = mid
    return min(1.0, hi)


@dataclass(frozen=True)
class Step:
    """One staircase step: strata of size >= ``threshold`` use ``prob``."""

    threshold: int
    prob: float


def staircase_steps(
    m: float, max_n: int, *, n_steps: int = 40, delta: float = DEFAULT_DELTA
) -> list[Step]:
    """Build descending-threshold steps upper-bounding f_m(n) on [1, max_n].

    Thresholds follow a geometric grid from ``max_n`` down to ``m``. For
    the interval [t_k, t_{k-1}) the probability is ``f_m(t_k)`` — f_m is
    decreasing in n, so evaluating at the interval's *lower* end
    upper-bounds f_m across the whole interval, preserving the Lemma 1
    guarantee for every stratum size in it. Strata below the last
    threshold are taken whole (prob 1), matching Equation 1's clamp.
    """
    if max_n <= m:
        return [Step(0, 1.0)]
    ratio = (max_n / m) ** (1.0 / n_steps)
    steps: list[Step] = []
    prev_t = None
    t = float(max_n)
    for _ in range(n_steps + 1):
        ti = max(int(math.ceil(t)), 1)
        if ti == prev_t:
            t /= ratio
            continue
        steps.append(Step(ti, f_m(m, ti, delta)))
        prev_t = ti
        t /= ratio
        if ti <= m:
            break
    steps.append(Step(0, 1.0))
    # thresholds strictly decreasing, probabilities non-decreasing
    return steps


def staircase_case_sql(
    steps: list[Step], size_col: str = "strata_size"
) -> str:
    """Render steps as a SQL CASE expression over ``size_col``.

    Mirrors the paper's ``case when strata_size > 2000 then 0.01 ...
    else 1 end`` form; evaluable by any engine.
    """
    clauses = [
        f"WHEN {size_col} >= {s.threshold} THEN {s.prob:.10f}"
        for s in steps
        if s.threshold > 0
    ]
    if not clauses:  # every stratum is below the minimum: take it whole
        return "(CAST(1.0 AS DOUBLE))"
    return "(CASE " + " ".join(clauses) + " ELSE 1.0 END)"
