"""Output check and accuracy metrics for one VerdictDB answer.

Pure Python over collected rows, so the check can be fed hand-made
(corrupted) results without a Spark session. An exact answer is the
list of ``dict`` rows the engine returned for the query text; a Verdict
answer is the list of ``dict`` rows of ``ApproxResult.df`` plus the
result's group and output columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

#: tolerance for "an exact passthrough equals the exact rows": the two
#: sides run the same SQL, but a rerun may sum in another order
EXACT_REL_TOL = 1e-9


@dataclass(frozen=True)
class Exact:
    """Exact answer of one query, from its first exact run."""

    columns: tuple[str, ...]
    rows: list[dict]


@dataclass(frozen=True)
class Answer:
    """What the check needs of one Verdict result."""

    columns: tuple[str, ...]
    rows: list[dict]
    group_cols: tuple[str, ...]
    #: (answer column, error column or None) per aggregate
    outputs: tuple[tuple[str, str | None], ...]
    approx: bool


@dataclass
class Accuracy:
    """Per-query accuracy counts; summed across queries by ``merge``."""

    rel_errs: list[float] = field(default_factory=list)
    covered: int = 0
    ci_cells: int = 0
    halfwidths: list[float] = field(default_factory=list)
    groups_found: int = 0
    groups_exact: int = 0

    def merge(self, other: "Accuracy") -> None:
        self.rel_errs += other.rel_errs
        self.covered += other.covered
        self.ci_cells += other.ci_cells
        self.halfwidths += other.halfwidths
        self.groups_found += other.groups_found
        self.groups_exact += other.groups_exact


def _key(row: dict, cols: tuple[str, ...]) -> tuple:
    return tuple(row[c] for c in cols)


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(float(a), float(b), rel_tol=EXACT_REL_TOL, abs_tol=1e-12)
    return a == b


def _same_rows(got: list[dict], want: list[dict], cols: tuple[str, ...]) -> bool:
    if len(got) != len(want):
        return False
    order = lambda r: tuple(repr(r[c]) for c in cols)  # noqa: E731
    return all(
        all(_close(g[c], w[c]) for c in cols)
        for g, w in zip(sorted(got, key=order), sorted(want, key=order))
    )


def check(ans: Answer, exact: Exact) -> list[str]:
    """Problems with ``ans`` against ``exact``; empty when it passes.

    - the answer columns (error columns removed) are the exact columns;
    - an exact passthrough or fallback equals the exact rows;
    - no NULL answer where the exact answer is non-NULL;
    - no group absent from the exact answer.
    """
    err_cols = {e for _, e in ans.outputs if e is not None}
    cols = tuple(c for c in ans.columns if c not in err_cols)
    if cols != exact.columns:
        return [f"columns {list(cols)} != exact {list(exact.columns)}"]
    if not ans.approx:
        if not _same_rows(ans.rows, exact.rows, cols):
            return ["exact passthrough differs from the exact rows"]
        return []
    problems = []
    gcols = ans.group_cols
    known = {_key(r, gcols): r for r in exact.rows}
    for row in ans.rows:
        ref = known.get(_key(row, gcols))
        if ref is None:
            problems.append(f"group {_key(row, gcols)!r} absent from the exact answer")
            continue
        for a, _ in ans.outputs:
            if row[a] is None and ref[a] is not None:
                problems.append(f"NULL {a} for group {_key(row, gcols)!r}")
    return problems


def accuracy(ans: Answer, exact: Exact) -> Accuracy:
    """Actual error, CI coverage and half-width over approximated cells,
    and how many exact groups the answer holds."""
    acc = Accuracy()
    gcols = ans.group_cols
    mine = {_key(r, gcols) for r in ans.rows}
    acc.groups_exact = len(exact.rows)
    acc.groups_found = sum(_key(r, gcols) in mine for r in exact.rows)
    if not ans.approx:
        return acc
    known = {_key(r, gcols): r for r in exact.rows}
    for row in ans.rows:
        ref = known.get(_key(row, gcols))
        if ref is None:
            continue
        for a, e in ans.outputs:
            if e is None:
                continue
            got, want, err = row[a], ref[a], row[e]
            if got is None or want is None:
                continue
            got, want = float(got), float(want)
            if want != 0.0:
                acc.rel_errs.append(abs(got - want) / abs(want))
            if err is not None:
                acc.ci_cells += 1
                acc.covered += abs(got - want) <= float(err)
                if got != 0.0:
                    acc.halfwidths.append(float(err) / abs(got))
    return acc
