"""Sample-table construction in pure SQL (Sections 3.1–3.2).

Each sample table is the base table plus one extra column,
``verdict_prob`` — the per-tuple inclusion probability (Section 3.1).
That single column is what lets one Horvitz–Thompson rewrite template
serve all sample types.

Every builder issues two ``spark.sql`` SELECTs — the middleware
constraint of the paper: one metadata query (the base-table row count
plus whatever fixes the probabilities), then the sample itself, which
``_materialise`` caches and counts (the local stand-in for ``CREATE
TABLE ... AS SELECT``; a lazy view over ``rand()`` would re-draw the
sample on every use) and registers as the sample's one temp view, named
in its :class:`~repro.core.catalog.SampleMeta`. :func:`drop_sample`
frees both.

Randomness: ``seed`` is forwarded to SQL ``rand(seed)``, so uniform and
stratified samples are reproducible for a fixed session/partitioning;
hashed samples are deterministic.
"""
from __future__ import annotations

import itertools

from pyspark.sql import SparkSession

from .catalog import HASHED, STRATIFIED, UNIFORM, SampleCatalog, SampleMeta
from .staircase import DEFAULT_DELTA, staircase_case_sql, staircase_steps

_view_counter = itertools.count()

# Denominator for the hash-to-[0,1) trick used by hashed samples; any
# engine with an integer hash and pmod can evaluate it.
_HASH_BUCKETS = 1_000_000


def _materialise(
    spark: SparkSession,
    sql: str,
    catalog: SampleCatalog | None,
    table: str,
    stype: str,
    columns: tuple[str, ...],
    ratio: float,
    base_rows: int,
) -> SampleMeta:
    # Samples are small by construction (a few % of the base table);
    # coalescing avoids dragging the base table's partition count — and
    # its per-task scheduling overhead — into every rewritten query.
    df = spark.sql(sql).coalesce(4).cache()
    rows = df.count()
    view = f"{table}__{stype}_{next(_view_counter)}"
    df.createOrReplaceTempView(view)
    meta = SampleMeta(table, view, stype, tuple(columns), ratio, rows, base_rows)
    if catalog is not None:
        catalog.add(meta)
    return meta


def hash01_expr(cols: tuple[str, ...], salt: int = 0) -> str:
    """SQL expression hashing a column set into [0, 1) uniformly.

    The +0.5 centres each bucket so the comparison against tau is
    unbiased at any bucket granularity.
    """
    args = ", ".join(cols) + (f", {salt}" if salt else "")
    return f"((pmod(hash({args}), {_HASH_BUCKETS}) + 0.5) / {_HASH_BUCKETS}.0)"


def create_uniform_sample(
    spark: SparkSession,
    table: str,
    *,
    ratio: float = 0.01,
    seed: int | None = None,
    catalog: SampleCatalog | None = None,
) -> SampleMeta:
    """Bernoulli sample: every tuple kept independently with prob ``ratio``."""
    base_rows = spark.sql(f"SELECT count(*) AS n FROM {table}").collect()[0]["n"]
    rand = f"rand({seed})" if seed is not None else "rand()"
    sql = (
        f"SELECT *, CAST({ratio!r} AS DOUBLE) AS verdict_prob "
        f"FROM {table} WHERE {rand} < {ratio!r}"
    )
    return _materialise(spark, sql, catalog, table, UNIFORM, (), ratio, base_rows)


def create_hashed_sample(
    spark: SparkSession,
    table: str,
    columns: tuple[str, ...],
    *,
    ratio: float = 0.01,
    catalog: SampleCatalog | None = None,
) -> SampleMeta:
    """Universe sample on ``columns``: keep tuples whose hash falls below tau.

    All tuples sharing a value of ``columns`` survive or die together,
    which is what makes sample–sample equi-joins on these columns
    recover the full join density (Section 5.1). Per Section 3.1 the
    stored probability is the realised ratio |T_s|/|T| (constant per
    tuple). The hash is deterministic, so one metadata query counts both
    |T| and |T_s| before the sample is built with that ratio as a
    literal column.
    """
    keep = f"{hash01_expr(columns)} < {ratio!r}"
    stats = spark.sql(
        f"SELECT count(*) AS n, count_if({keep}) AS k FROM {table}"
    ).collect()[0]
    base_rows = stats["n"]
    prob = stats["k"] / base_rows if base_rows else 0.0
    sql = (
        f"SELECT *, CAST({prob!r} AS DOUBLE) AS verdict_prob "
        f"FROM {table} WHERE {keep}"
    )
    return _materialise(spark, sql, catalog, table, HASHED, columns, ratio, base_rows)


def create_stratified_sample(
    spark: SparkSession,
    table: str,
    columns: tuple[str, ...],
    *,
    ratio: float = 0.01,
    min_per_stratum: int | None = None,
    delta: float = DEFAULT_DELTA,
    seed: int | None = None,
    catalog: SampleCatalog | None = None,
) -> SampleMeta:
    """Two-pass probabilistic stratified sample (Section 3.2).

    Pass 1 aggregates the per-stratum sizes (their sum |T|, their count
    d and their maximum); pass 2 joins the same GROUP BY back inline and
    Bernoulli-samples each tuple with the staircase probability that
    guarantees (w.p. 1-delta) at least
    ``m = min(|T| * ratio / d, strata_size)`` tuples per stratum
    (Equation 1 / Lemma 1). Both passes are single standard SELECTs —
    no procedural SQL, fully parallelisable.
    """
    cols = ", ".join(columns)
    strata = f"SELECT {cols}, count(*) AS strata_size FROM {table} GROUP BY {cols}"
    stats = spark.sql(
        f"SELECT sum(strata_size) AS n, count(*) AS d, "
        f"max(strata_size) AS mx FROM ({strata})"
    ).collect()[0]
    base_rows, d = stats["n"], stats["d"]
    if min_per_stratum is None:
        m = max(1.0, base_rows * ratio / max(d, 1))
    else:
        m = float(min_per_stratum)
    case = staircase_case_sql(
        staircase_steps(m, int(stats["mx"]), delta=delta), "t2.strata_size"
    )
    on = " AND ".join(f"t1.{c} = t2.{c}" for c in columns)
    rand = f"rand({seed})" if seed is not None else "rand()"
    sql = (
        f"SELECT * FROM ("
        f"  SELECT t1.*, {case} AS verdict_prob"
        f"  FROM {table} t1 INNER JOIN ({strata}) t2 ON {on}"
        f") WHERE {rand} < verdict_prob"
    )
    return _materialise(
        spark, sql, catalog, table, STRATIFIED, columns, ratio, base_rows
    )


def drop_sample(spark: SparkSession, meta: SampleMeta) -> None:
    """Unpersist and deregister a sample view (test hygiene)."""
    try:
        spark.table(meta.view).unpersist()
    except Exception:
        pass
    spark.catalog.dropTempView(meta.view)
