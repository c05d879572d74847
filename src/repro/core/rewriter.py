"""AQP Rewriter (Fig. 1b): logical query x sample plan -> one rewritten
SQL string implementing the Appendix G template.

Flat and nested queries share one pipeline, all plain SQL:

1. **variational source** (``vt``): the FROM clause with base tables
   replaced by sample views; adds ``verdict_prob`` (per-tuple inclusion
   probability — a product across independently sampled relations, or
   the minimum across equi-joined universe samples) and ``verdict_sid``
   (subsample id — random per tuple, hash-of-value for count-distinct,
   composed with Theorem 4's h(i, j) when two variational tables join);
2. **per-(groups, sid) layer**: ``GROUP BY (groups, sid)`` computing,
   per subsample, its size, raw Horvitz–Thompson sums, and the b-scaled
   unbiased estimate of the true answer. A nested query (Section 5.2,
   Eq. 6 / Query 7) runs this layer twice: once for the inner query
   over ``vt`` (its per-sid HT estimates are the variational derived
   table) and once for the outer query over those estimates, where
   every outer aggregate is a plain aggregate of the estimates;
3. **combiner**: the answer — the full-sample HT sum or ratio for
   count/sum/avg, the size-weighted mean of per-subsample estimates for
   scale-free statistics and nested outers — plus the Theorem 2 error
   bound ``stddev(est_i) * sqrt(avg(sub_size)/sum(sub_size)) * z``,
   then HAVING, ORDER BY and LIMIT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .catalog import HASHED, SampleMeta
from .parser import UnsupportedQueryError, tokenize
from .query import AggCall, AggQuery, Relation, agg_sql
from .planner import PlanEntry
from .staircase import erfcinv
from .variational import (
    b_for,
    join_sid_expr,
    sid_hash_expr,
    sid_rand_expr,
)


def z_value(confidence: float) -> float:
    """Two-sided normal quantile: P(|Z| <= z) = confidence."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    return math.sqrt(2.0) * erfcinv(1.0 - confidence)


@dataclass(frozen=True)
class AggOutput:
    """One output column pair of a rewritten query."""

    alias: str
    err_alias: str | None


@dataclass(frozen=True)
class Rewritten:
    sql: str
    outputs: tuple[AggOutput, ...]
    b: int


def _plain(col: str) -> str:
    """Strip alias qualification: after the vt layer columns are unique."""
    return col.split(".")[-1]


# --------------------------------------------------------------------------
# variational source construction
# --------------------------------------------------------------------------


def _vt_sql(
    rel: Relation,
    assignment: dict[str, SampleMeta | None],
    where: str | None,
    b: int,
    *,
    columns_of: Callable[[str], list[str]],
    seed: int | None,
    hash_sid_cols: tuple[str, ...] | None = None,
) -> str:
    """SQL for the variational table of the (joined) FROM clause.

    ``hash_sid_cols``: when set (count-distinct entries), per-tuple sids
    are derived by hashing these columns so subsamples partition the
    value domain instead of the tuple space.
    """
    sub_sqls: list[str] = []
    sid_cols: list[str] = []
    hashed_sid_cols: list[str] = []
    prob_cols: list[str] = []
    hashed_prob_cols: list[str] = []
    for i, tref in enumerate(rel.tables):
        meta = assignment.get(tref.name)
        cols = ", ".join(columns_of(tref.name))
        ident = tref.ident
        if meta is None:
            sub_sqls.append(f"(SELECT {cols} FROM {tref.name}) {ident}")
            continue
        if meta.stype == HASHED:
            sid = sid_hash_expr(meta.columns, b)
            sub_sqls.append(
                f"(SELECT {cols}, verdict_prob AS verdict_prob_{i}, "
                f"{sid} AS verdict_sid_{i} FROM {meta.view}) {ident}"
            )
            hashed_sid_cols.append(f"verdict_sid_{i}")
            hashed_prob_cols.append(f"verdict_prob_{i}")
        else:
            if hash_sid_cols:
                sid = sid_hash_expr(hash_sid_cols, b)
            else:
                sid = sid_rand_expr(b, None if seed is None else seed + i)
            sub_sqls.append(
                f"(SELECT {cols}, verdict_prob AS verdict_prob_{i}, "
                f"{sid} AS verdict_sid_{i} FROM {meta.view}) {ident}"
            )
            sid_cols.append(f"verdict_sid_{i}")
            prob_cols.append(f"verdict_prob_{i}")

    # FROM clause with the original join structure
    from_parts = [sub_sqls[0]]
    for edge, sub in zip(rel.joins, sub_sqls[1:]):
        cond = " AND ".join(f"{l} = {r}" for l, r in edge.on)
        from_parts.append(f"INNER JOIN {sub} ON {cond}")
    from_sql = " ".join(from_parts)

    # probability: product of independent samples; equi-joined universe
    # samples survive together, so they contribute min(tau_i) once.
    prob_terms = [f"{c}" for c in prob_cols]
    if len(hashed_prob_cols) == 1:
        prob_terms.append(hashed_prob_cols[0])
    elif len(hashed_prob_cols) > 1:
        prob_terms.append(f"least({', '.join(hashed_prob_cols)})")
    prob_expr = " * ".join(prob_terms) if prob_terms else "CAST(1.0 AS DOUBLE)"

    # sid: equi-joined universe samples agree on sid (same hashed value),
    # so the group contributes a single sid; remaining sids fold through
    # h(i, j). No sampled relation at all means no sid (exact path —
    # callers never reach here in that case).
    sids = list(sid_cols)
    if hashed_sid_cols:
        sids.append(hashed_sid_cols[0])
    if not sids:
        raise UnsupportedQueryError("variational table without any sample")
    sid_expr = sids[0]
    for s in sids[1:]:
        sid_expr = join_sid_expr(sid_expr, s, b)

    all_cols = ", ".join(
        c for t in rel.tables for c in columns_of(t.name)
    )
    sql = (
        f"SELECT {all_cols}, {prob_expr} AS verdict_prob, "
        f"{sid_expr} AS verdict_sid FROM {from_sql}"
    )
    if where:
        sql += f" WHERE {where}"
    return sql


# --------------------------------------------------------------------------
# aggregate templates
# --------------------------------------------------------------------------


def _scale(raw: str, b: int) -> str:
    """Per-subsample estimate of a *total* (count/sum): ``b * raw``.

    Each subsample holds an expected 1/b of the sample, so scaling its
    Horvitz–Thompson sum by b makes it unbiased for the full answer,
    with variance b times the full-sample estimator's variance — which
    is precisely what the Theorem 2 ``sqrt(n_s/n)`` correction undoes.

    Note: the paper's printed Query 9 scales by a window over the group
    (``mean(1/p) * group total``); for a constant-probability sample
    that expression is *identical across subsamples*, so its stddev
    degenerates to zero (the printed query also references an undefined
    ``count_order`` column — an editing artifact). The fixed-b scaling
    here is the form Theorem 2's proof actually analyses (subsample
    aggregates of disjoint iid blocks).
    """
    return f"(({raw}) * {b})"


@dataclass
class _AggPieces:
    raw: list[str]  # per-subsample columns the answer is computed from
    est: str  # per-subsample estimate of the answer
    final: str
    err: str

    def per_sid_cols(self, k: int) -> list[str]:
        return self.raw + [f"{self.est} AS est_{k}"]


def _theorem2_err(k: int, alias: str, z: float) -> str:
    return (
        f"(stddev_samp(est_{k}) * sqrt(avg(verdict_sub_size)) "
        f"/ sqrt(sum(verdict_sub_size))) * {z!r} AS {alias}_err"
    )


def _plain_agg(agg: AggCall) -> str:
    """``agg`` evaluated as-is on one subsample."""
    e = agg.expr if agg.expr not in ("*", "") else "1"
    if agg.fn == "count":
        return "count(*)"
    if agg.fn in ("sum", "avg", "min", "max"):
        return f"{agg.fn}({e})"
    if agg.fn in ("var", "stddev"):
        return f"{'var_samp' if agg.fn == 'var' else 'stddev_samp'}({e})"
    if agg.fn == "quantile":
        return f"percentile({e}, {agg.q if agg.q is not None else 0.5})"
    raise UnsupportedQueryError(f"cannot approximate aggregate {agg.fn!r}")


def _size_weighted(agg: AggCall, k: int, z: float) -> _AggPieces:
    """Each subsample's plain aggregate estimates the answer (scale-free
    statistics, and every nested outer aggregate over per-sid inner
    estimates); the answer is their subsample-size-weighted mean."""
    return _AggPieces(
        [],
        _plain_agg(agg),
        f"sum(est_{k} * verdict_sub_size) / sum(verdict_sub_size) "
        f"AS {agg.alias}",
        _theorem2_err(k, agg.alias, z),
    )


def _pieces(
    agg: AggCall, k: int, *, b: int, domain_tau: float | None, z: float
) -> _AggPieces:
    """Per-sid columns and combiner of ``agg`` over the variational table."""
    e = agg.expr if agg.expr not in ("*", "") else "1"
    ht_cnt = "sum(1.0 / verdict_prob)"
    ht_sum = f"sum(({e}) / verdict_prob)"
    err = _theorem2_err(k, agg.alias, z)
    if agg.fn in ("count", "sum"):
        ht = ht_cnt if agg.fn == "count" else ht_sum
        return _AggPieces(
            [f"{ht} AS raw_{k}"], _scale(ht, b), f"sum(raw_{k}) AS {agg.alias}", err
        )
    if agg.fn == "avg":
        return _AggPieces(
            [f"{ht_sum} AS num_{k}", f"{ht_cnt} AS den_{k}"],
            f"({ht_sum}) / ({ht_cnt})",
            f"sum(num_{k}) / sum(den_{k}) AS {agg.alias}",
            err,
        )
    if agg.fn in ("var", "stddev", "quantile"):
        return _size_weighted(agg, k, z)
    if agg.fn == "count_distinct":
        if domain_tau is None or domain_tau <= 0:
            raise UnsupportedQueryError(
                "count-distinct needs a hashed sample on the counted column"
            )
        # subsamples partition the sampled value domain: each holds a
        # tau/b slice, so d_i * b / tau estimates the full distinct count
        # independently; the plain mean recovers distinct(sample)/tau.
        return _AggPieces(
            [],
            f"count(DISTINCT {e}) * {b} / {domain_tau!r}",
            f"avg(est_{k}) AS {agg.alias}",
            f"(stddev_samp(est_{k}) / sqrt(count(*))) * {z!r} "
            f"AS {agg.alias}_err",
        )
    raise UnsupportedQueryError(f"cannot approximate aggregate {agg.fn!r}")


def _substitute_having(having: str, aggs: tuple[AggCall, ...]) -> str:
    """Replace raw aggregate expressions in HAVING with their aliases
    so the clause can run against the rewritten (combined) output."""
    out = having
    for a in aggs:
        rendered = agg_sql(a)
        raw = rendered[: rendered.upper().rfind(" AS ")]
        out = out.replace(raw, a.alias)
        # the parser re-emits expressions space-joined ("count ( * )");
        # normalise the rendered form the same way so it matches
        out = out.replace(" ".join(tokenize(raw)), a.alias)
    return out


# --------------------------------------------------------------------------
# the shared pipeline: vt -> per-(groups, sid) layer -> combine
# --------------------------------------------------------------------------


def _per_sid(
    src: str,
    name: str,
    groups: tuple[str, ...],
    size: str,
    cols: list[str],
    where: str | None = None,
) -> str:
    """One ``GROUP BY (groups, sid)`` layer over the subquery ``src``."""
    select = list(groups) + ["verdict_sid", size] + cols
    sql = f"SELECT {', '.join(select)} FROM ({src}) {name}"
    if where:
        sql += f" WHERE {where}"
    return sql + f" GROUP BY {', '.join(list(groups) + ['verdict_sid'])}"


def _rewrite(
    query: AggQuery,
    entry: PlanEntry,
    *,
    columns_of: Callable[[str], list[str]],
    confidence: float,
    seed: int | None,
    b: int | None,
) -> Rewritten:
    """Rewrite ``query`` (flat, or one level of nesting) per Appendix G."""
    base = query.source if query.nested else query  # aggregates over vt
    assignment = entry.tables
    sampled = [m for m in assignment.values() if m is not None]
    if not sampled:
        raise UnsupportedQueryError("no sampled relation in plan entry")
    if b is None:
        b = b_for(min(m.rows for m in sampled))
    z = z_value(confidence)

    distinct_aggs = [a for a in entry.aggs if a.fn == "count_distinct"]
    hash_sid_cols: tuple[str, ...] | None = None
    domain_tau: float | None = None
    if distinct_aggs:
        col = _plain(distinct_aggs[0].expr)
        hash_sid_cols = (col,)
        for m in sampled:
            if m.stype == HASHED and tuple(m.columns) == (col,):
                domain_tau = m.ratio
                break

    vt = _vt_sql(
        base.source,
        assignment,
        base.where,
        b,
        columns_of=columns_of,
        seed=seed,
        hash_sid_cols=hash_sid_cols,
    )
    groups = tuple(_plain(g) for g in query.groups)
    if query.nested:
        # Query 7: the inner query's per-sid HT estimates, under their
        # own aliases, form the variational derived table t_v ...
        tv_cols = []
        for k, a in enumerate(base.aggs):
            if a.fn not in ("count", "sum", "avg"):
                raise UnsupportedQueryError(
                    f"inner aggregate {a.fn!r} unsupported in nested queries"
                )
            est = _pieces(a, k, b=b, domain_tau=None, z=z).est
            tv_cols.append(f"{est} AS {a.alias}")
        tv = _per_sid(
            vt,
            "verdict_vt",
            tuple(_plain(g) for g in base.groups),
            "count(*) AS verdict_tuples",
            tv_cols,
        )
        # ... over which every outer aggregate is a per-sid estimate
        aggs = query.aggs
        pieces = [_size_weighted(a, k, z) for k, a in enumerate(aggs)]
        src, name, size = tv, "verdict_tv", "sum(verdict_tuples) AS verdict_sub_size"
        where = query.where
    else:
        aggs = entry.aggs
        pieces = [
            _pieces(a, k, b=b, domain_tau=domain_tau, z=z)
            for k, a in enumerate(aggs)
        ]
        src, name, size = vt, "verdict_vt", "count(*) AS verdict_sub_size"
        where = None  # already applied in vt
    per_sid = _per_sid(
        src,
        name,
        groups,
        size,
        [c for k, p in enumerate(pieces) for c in p.per_sid_cols(k)],
        where,
    )

    select = list(groups) + [p.final for p in pieces] + [p.err for p in pieces]
    sql = f"SELECT {', '.join(select)} FROM ({per_sid}) verdict_sub"
    if groups:
        sql += f" GROUP BY {', '.join(groups)}"
    if query.having:
        hv = _substitute_having(query.having, aggs)
        sql = f"SELECT * FROM ({sql}) verdict_hv WHERE {hv}"
    if query.order_by:
        sql += f" ORDER BY {query.order_by}"
    if query.limit is not None:
        sql += f" LIMIT {query.limit}"

    outputs = tuple(AggOutput(a.alias, f"{a.alias}_err") for a in aggs)
    return Rewritten(sql=sql, outputs=outputs, b=b)


def rewrite_flat(
    query: AggQuery,
    entry: PlanEntry,
    *,
    columns_of: Callable[[str], list[str]],
    confidence: float = 0.95,
    seed: int | None = None,
    b: int | None = None,
) -> Rewritten:
    """Rewrite a flat aggregate query per the Appendix G template."""
    if not isinstance(query.source, Relation):
        raise UnsupportedQueryError("rewrite_flat requires a flat query")
    return _rewrite(
        query, entry, columns_of=columns_of, confidence=confidence, seed=seed, b=b
    )


def rewrite_nested(
    query: AggQuery,
    entry: PlanEntry,
    *,
    columns_of: Callable[[str], list[str]],
    confidence: float = 0.95,
    seed: int | None = None,
    b: int | None = None,
) -> Rewritten:
    """Rewrite an aggregate-over-aggregate query (Section 5.2, Query 5).

    The inner query's GROUP BY gains ``sid`` (Eq. 6 / Query 7); each
    per-sid outer aggregate is then an unbiased estimate of the final
    answer, combined exactly like the flat template's scale-free
    statistics. One chain vt -> t_v -> per-sid -> combine; no second
    pass over the sample (Spark inlines CTEs, so a separate sid-free
    answer path would re-execute the variational source).
    """
    inner = query.source
    if not isinstance(inner, AggQuery) or not isinstance(inner.source, Relation):
        raise UnsupportedQueryError("rewrite_nested requires one nesting level")
    return _rewrite(
        query, entry, columns_of=columns_of, confidence=confidence, seed=seed, b=b
    )
