"""E4 — runtime overhead of error-estimation methods (Figure 7, §6.4).

Three query shapes (flat, join, nested) are run:
  1. without any error estimation (plain Horvitz-Thompson aggregation
     over the sample),
  2. with variational subsampling (the O(n) single-pass rewrite),
  3. with traditional subsampling in SQL (O(b*n) fan-out),
  4. with consolidated bootstrap in SQL (O(b*n) fan-out + Poisson
     multiplicities).

Overhead = latency minus the no-error latency; the paper reports
variational subsampling 348x faster than traditional subsampling and
239x faster than consolidated bootstrap on these shapes.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from ..core.parser import parse
from ..core.planner import PlanEntry
from ..core.rewriter import rewrite_flat, rewrite_nested
from ..errbaselines.bootstrap_sql import poisson1_case_sql


def _time(spark: SparkSession, sql: str) -> float:
    t0 = time.perf_counter()
    spark.sql(sql).collect()
    return time.perf_counter() - t0


def _time_with_materialised_table(
    spark: SparkSession, build_sql: str, view: str, agg_sql: str
) -> float:
    """Traditional subsampling as the paper's Query 1 runs it: first
    CREATE the subsamples table (a fan-out scanning O(b*n) input rows),
    then aggregate it. Both steps count; a streamed filter that never
    materialises the table would under-charge the construction cost."""
    t0 = time.perf_counter()
    df = spark.sql(build_sql).cache()
    df.count()
    df.createOrReplaceTempView(view)
    try:
        spark.sql(agg_sql).collect()
        return time.perf_counter() - t0
    finally:
        df.unpersist()
        spark.catalog.dropTempView(view)


def _fanout(view: str, b: int) -> str:
    # verdict_r is drawn in the projection: Spark (correctly) rejects a
    # bare rand() inside an aggregate argument, so the per-(tuple,
    # resample) randomness must be a materialised column.
    return (
        f"SELECT s.*, vb.rsid, rand() AS verdict_r FROM {view} s "
        f"LATERAL VIEW explode(sequence(1, {b})) vb AS rsid"
    )


def run_error_estimation(
    spark: SparkSession,
    *,
    sample_ratio: float = 0.5,
    hash_ratio: float = 0.3,
    b: int = 100,
    seed: int = 505,
) -> list[dict]:
    """Requires the TPC-H views (lineitem/orders) to be registered.

    Uses dedicated *large* samples (hundreds of thousands of rows, like
    the paper's 1% of 500 GB): the O(b*n) vs O(n) separation only
    emerges once b*n dwarfs the per-query scheduling floor.
    """
    from ..core import sampling

    uni = sampling.create_uniform_sample(
        spark, "lineitem", ratio=sample_ratio, seed=seed
    )
    hl = sampling.create_hashed_sample(
        spark, "lineitem", ("l_orderkey",), ratio=hash_ratio
    )
    ho = sampling.create_hashed_sample(
        spark, "orders", ("o_orderkey",), ratio=hash_ratio
    )
    cols = lambda t: spark.table(t).columns  # noqa: E731
    # Query 1 proportions: b subsamples of n_s = n/b tuples each, so the
    # materialised subsamples table is ~n rows while its construction
    # scans b*n (tuple, sid) pairs — the O(b*n) the paper charges.
    keep = 1.0 / b
    mult = poisson1_case_sql("verdict_r")

    shapes: dict[str, dict] = {}

    # ---- flat: sum(price) group by returnflag over the uniform sample
    flat_q = parse(
        "select l_returnflag, sum(l_extendedprice) as s "
        "from lineitem group by l_returnflag"
    )
    flat_entry = PlanEntry(aggs=flat_q.aggs, assignment=(("lineitem", uni),))
    shapes["flat"] = {
        "none": (
            f"SELECT l_returnflag, sum(l_extendedprice / verdict_prob) AS s "
            f"FROM {uni.view} GROUP BY l_returnflag"
        ),
        "variational": rewrite_flat(
            flat_q, flat_entry, columns_of=cols, seed=seed
        ).sql,
        "traditional": (
            f"SELECT * FROM ({_fanout(uni.view, b)}) f "
            f"WHERE verdict_r < {keep!r}",
            "verdict_subsamples_flat",
            f"SELECT l_returnflag, avg(est) AS s FROM ("
            f"  SELECT l_returnflag, rsid, "
            f"  sum(l_extendedprice / verdict_prob) / {keep!r} AS est "
            f"  FROM verdict_subsamples_flat "
            f"  GROUP BY l_returnflag, rsid) e GROUP BY l_returnflag",
        ),
        "bootstrap": (
            f"SELECT l_returnflag, avg(est) AS s, "
            f"percentile(est, 0.025) AS lo, percentile(est, 0.975) AS hi "
            f"FROM ("
            f"  SELECT l_returnflag, rsid, "
            f"  sum({mult} * l_extendedprice / verdict_prob) AS est "
            f"  FROM ({_fanout(uni.view, b)}) f GROUP BY l_returnflag, rsid"
            f") e GROUP BY l_returnflag"
        ),
    }

    # ---- join: count over lineitem x orders via the universe pair
    join_q = parse(
        "select o_orderpriority, count(*) as c "
        "from orders inner join lineitem on o_orderkey = l_orderkey "
        "group by o_orderpriority"
    )
    join_entry = PlanEntry(
        aggs=join_q.aggs,
        assignment=(("lineitem", hl), ("orders", ho)),
    )
    join_src = (
        f"{ho.view} o INNER JOIN (SELECT * FROM {hl.view}) l "
        f"ON o.o_orderkey = l.l_orderkey"
    )
    shapes["join"] = {
        "none": (
            f"SELECT o_orderpriority, "
            f"sum(1.0 / least(o.verdict_prob, l.verdict_prob)) AS c "
            f"FROM {join_src} GROUP BY o_orderpriority"
        ),
        "variational": rewrite_flat(
            join_q, join_entry, columns_of=cols, seed=seed
        ).sql,
        "traditional": (
            f"SELECT * FROM ({_fanout(hl.view, b)}) f "
            f"WHERE verdict_r < {keep!r}",
            "verdict_subsamples_join",
            f"SELECT o_orderpriority, avg(est) AS c FROM ("
            f"  SELECT o_orderpriority, rsid, "
            f"  sum(1.0 / least(o.verdict_prob, l.verdict_prob)) / {keep!r} AS est "
            f"  FROM {ho.view} o "
            f"  INNER JOIN verdict_subsamples_join l "
            f"  ON o.o_orderkey = l.l_orderkey "
            f"  GROUP BY o_orderpriority, rsid) e GROUP BY o_orderpriority",
        ),
        "bootstrap": (
            f"SELECT o_orderpriority, avg(est) AS c, "
            f"percentile(est, 0.025) AS lo, percentile(est, 0.975) AS hi "
            f"FROM ("
            f"  SELECT o_orderpriority, rsid, "
            f"  sum({mult} / least(o.verdict_prob, l.verdict_prob)) AS est "
            f"  FROM {ho.view} o "
            f"  INNER JOIN (SELECT s.*, vb.rsid, rand() AS verdict_r "
            f"    FROM {hl.view} s "
            f"    LATERAL VIEW explode(sequence(1, {b})) vb AS rsid) l "
            f"  ON o.o_orderkey = l.l_orderkey "
            f"  GROUP BY o_orderpriority, rsid) e GROUP BY o_orderpriority"
        ),
    }

    # ---- nested: avg of per-group sums (Query 5 shape)
    nested_q = parse(
        "select avg(sales) as a from "
        "(select l_returnflag, sum(l_extendedprice) as sales "
        "from lineitem group by l_returnflag) t"
    )
    nested_entry = PlanEntry(
        aggs=nested_q.source.aggs, assignment=(("lineitem", uni),)
    )
    shapes["nested"] = {
        "none": (
            f"SELECT avg(sales) AS a FROM ("
            f"  SELECT l_returnflag, sum(l_extendedprice / verdict_prob) AS sales "
            f"  FROM {uni.view} GROUP BY l_returnflag) t"
        ),
        "variational": rewrite_nested(
            nested_q, nested_entry, columns_of=cols, seed=seed
        ).sql,
        "traditional": (
            f"SELECT * FROM ({_fanout(uni.view, b)}) f "
            f"WHERE verdict_r < {keep!r}",
            "verdict_subsamples_nested",
            f"SELECT avg(a) AS a FROM ("
            f"  SELECT rsid, avg(sales) AS a FROM ("
            f"    SELECT rsid, l_returnflag, "
            f"    sum(l_extendedprice / verdict_prob) / {keep!r} AS sales "
            f"    FROM verdict_subsamples_nested "
            f"    GROUP BY rsid, l_returnflag) t GROUP BY rsid) e",
        ),
        "bootstrap": (
            f"SELECT avg(a) AS a, percentile(a, 0.025) AS lo, "
            f"percentile(a, 0.975) AS hi FROM ("
            f"  SELECT rsid, avg(sales) AS a FROM ("
            f"    SELECT rsid, l_returnflag, "
            f"    sum({mult} * l_extendedprice / verdict_prob) AS sales "
            f"    FROM ({_fanout(uni.view, b)}) f "
            f"    GROUP BY rsid, l_returnflag) t GROUP BY rsid) e"
        ),
    }

    rows: list[dict] = []
    for shape, variants in shapes.items():
        t_none = _time(spark, variants["none"])
        for method in ("variational", "traditional", "bootstrap"):
            spec = variants[method]
            if isinstance(spec, tuple):
                build_sql, view, agg_sql = spec
                t = _time_with_materialised_table(
                    spark, build_sql, view, agg_sql
                )
            else:
                t = _time(spark, spec)
            rows.append(
                {
                    "shape": shape,
                    "method": method,
                    "total_s": t,
                    "no_error_s": t_none,
                    "overhead_s": t - t_none,
                }
            )
    for m in (uni, hl, ho):
        sampling.drop_sample(spark, m)
    # derived comparison: overhead ratios per shape; undefined (None)
    # when the variational overhead is lost in run-to-run noise (<= 0)
    for shape in shapes:
        sub = {r["method"]: r for r in rows if r["shape"] == shape}
        var = sub["variational"]["overhead_s"]

        def ratio(method: str) -> float | None:
            return sub[method]["overhead_s"] / var if var > 0 else None

        rows.append(
            {
                "shape": shape,
                "method": "ratio trad/var | boot/var",
                "total_s": ratio("traditional"),
                "no_error_s": ratio("bootstrap"),
                "overhead_s": 0.0,
            }
        )
    return rows
