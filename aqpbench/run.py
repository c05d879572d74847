"""The AQP benchmark: one workload of VerdictDB-on-Spark per process.

    python3 aqpbench/run.py --workload tq-mem --seed 1 --seconds 10 --trace 0

One closed-loop client issues the workload's queries one at a time
against the unmodified ``repro`` stack, on a fresh local-mode Spark
session configured like ``conftest.py`` (64 shuffle partitions,
broadcast joins off, Arrow on). A run:

1. generates the base tables from ``--seed`` and caches them in memory;
2. builds a first sample draw and runs one warm-up pass through
   Verdict on it, reported apart;
3. builds a second sample draw (``setup_s`` is the median of the two
   builds) and measures passes for ``--seconds`` on a fresh context:
   each query runs exact, then through ``VerdictContext.sql`` up to
   ``collect()`` of its rows. Every Verdict answer, warm-up included,
   is checked against the exact one.

With ``--trace 1`` the run then rebuilds the second draw and makes one
traced pass, and prints per-layer metrics instead (see ``tracing``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
provenance, one row per query, and every end-to-end figure. The full
record is also written under ``.aqpbench/results``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".aqpbench"

RATIO = 0.01  # sample ratio of every sample (the paper's §6.1 setting)
BUDGET = 0.02  # I/O budget per query
DRIVER_MEMORY = "2g"
TASK_THREADS = 2
SHUFFLE_PARTITIONS = "64"


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str  # "tpch" or "insta"
    sf: float
    accuracy: float | None  # HAC contract carried by every query
    #: the suite's queries this workload runs, one of each shape and
    #: layer path, so that a run fits the benchmark's time per run
    queries: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # engine-floor regime: cheap exact queries, so middleware stages
        # and Spark's fixed per-query cost dominate Verdict latency
        Workload(
            "tq-mem", "tpch", 0.01, accuracy=None,
            queries=(
                "tq-1", "tq-5", "tq-corr", "tq-minmax", "tq-nested",
            ),
        ),
        # HAC check (which collects the result) and exact rerun on
        # violation, and a join to an unsampled dimension table. At 0.2
        # the estimated max relative error of iq-9 stays above 0.8 (1.0 to
        # 1.2 over the seeds tried) and that of the others below it (at
        # most 0.67), so the split is the same for every seed
        Workload(
            "iq-hac", "insta", 0.05, accuracy=0.2,
            queries=(
                "iq-1", "iq-5", "iq-9", "iq-14",
            ),
        ),
    )
}

def seeds_from(seed: int) -> dict[str, int]:
    g = random.Random(seed)
    return {k: g.randrange(1 << 30) for k in ("data", "sample", "query")}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


# ---- Spark session -------------------------------------------------------
def start_spark(run_dir: Path):
    """Local-mode session with the repository's settings; all temporary
    files (Spark local dirs, JVM and Python temp files) in ``run_dir``."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    threads = min(TASK_THREADS, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{threads}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(run_dir / 'spark-local'))}",
            f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + str(tmp))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("aqpbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(run_dir / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = SparkContext._jvm = None


def storage_bytes(spark) -> int:
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(i.memSize() for i in infos)


# ---- workload pieces -----------------------------------------------------
def queries_of(wl: Workload):
    from repro.workloads.insta import INSTA_QUERIES
    from repro.workloads.tpch_lite import TPCH_QUERIES

    suite = {q.name: q for q in (TPCH_QUERIES if wl.suite == "tpch" else INSTA_QUERIES)}
    return tuple(suite[n] for n in wl.queries)


def register(spark, wl: Workload, seed: int) -> dict:
    """Register the base tables, cached in memory; returns rows and
    cached bytes per table, read from the cache's statistics."""
    from repro.workloads.insta import register_insta
    from repro.workloads.tpch_lite import register_tpch

    fn = register_tpch if wl.suite == "tpch" else register_insta
    out = {}
    for name, df in fn(spark, sf=wl.sf, seed=seed).items():
        stats = df._jdf.queryExecution().optimizedPlan().stats()
        out[name] = {
            "rows": int(stats.rowCount().get()),
            "cached_bytes": int(stats.sizeInBytes()),
        }
    return out


def build_samples(spark, wl: Workload, seed: int):
    from repro.core.verdict import VerdictContext
    from repro.workloads.insta import prepare_insta_samples
    from repro.workloads.tpch_lite import prepare_tpch_samples

    v = VerdictContext(spark, budget=BUDGET, seed=seed)
    prepare = prepare_tpch_samples if wl.suite == "tpch" else prepare_insta_samples
    t0 = time.perf_counter()
    prepare(v, ratio=RATIO)
    return v, time.perf_counter() - t0


def drop_views(spark, keep: set[str]) -> None:
    """Uncache and drop every temp view not in ``keep`` (earlier samples,
    their helper views and derived views)."""
    for t in spark.catalog.listTables():
        if t.isTemporary and t.name not in keep:
            if spark.catalog.isCached(t.name):
                spark.catalog.uncacheTable(t.name)
            spark.catalog.dropTempView(t.name)


def exact_answer(spark, q):
    """(seconds, Exact) of one exact query run directly on the engine."""
    from checks import Exact

    t0 = time.perf_counter()
    df = spark.sql(q.sql)
    rows = df.collect()
    dt = time.perf_counter() - t0
    return dt, Exact(tuple(df.columns), [r.asDict() for r in rows])


@dataclass
class Outcome:
    """One Verdict query: latency, result and collected answer, or the
    error it raised."""

    seconds: float
    res: object = None
    ans: object = None
    error: str | None = None


class VerdictRun:
    """Runs and times Verdict queries, and checks their answers."""

    def __init__(self, wl: Workload, query_seed: int):
        self.wl, self.seed = wl, query_seed
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, v, q, tracer=None) -> Outcome:
        from checks import Answer
        from tracing import ROOT

        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = v.sql(q.sql, accuracy=self.wl.accuracy, seed=self.seed)
                rows = res.df.collect()
            else:
                with tracer.span(ROOT):
                    res = v.sql(q.sql, accuracy=self.wl.accuracy, seed=self.seed)
                    kind = "engine.execute" if res.approx else "engine.exact"
                    with tracer.span(kind, count=False):
                        rows = res.df.collect()
        except Exception as e:  # a failing query is a measured outcome
            return Outcome(time.perf_counter() - t0, error=f"{type(e).__name__}: {e}")
        dt = time.perf_counter() - t0
        ans = Answer(
            columns=tuple(res.df.columns),
            rows=[r.asDict() for r in rows],
            group_cols=tuple(res.group_cols),
            outputs=tuple((o.alias, o.err_alias) for o in res.outputs),
            approx=res.approx,
        )
        return Outcome(dt, res, ans)

    def check(self, q, out: Outcome, exact) -> None:
        """Count the outcome; record, never drop, a failed check."""
        from checks import check

        self.attempted += 1
        problems = [f"raised {out.error}"] if out.error else check(out.ans, exact)
        if problems:
            self.failures.append({"query": q.name, "problems": problems[:5]})


def views_of(res) -> list[str]:
    if res is None or res.plan is None:
        return []
    return sorted(
        {m.view for e in res.plan.entries for m in e.tables.values() if m is not None}
    )


# ---- the run -------------------------------------------------------------
def run(wl: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    seeds = seeds_from(seed)
    queries = queries_of(wl)
    spark = start_spark(run_dir)
    try:
        t0 = time.perf_counter()
        tables = register(spark, wl, seeds["data"])
        data_s = time.perf_counter() - t0
        keep = {t.name for t in spark.catalog.listTables() if t.isTemporary}
        base_storage = storage_bytes(spark)

        def setup(draw: int):
            """Drop the previous samples, build sample draw ``draw``."""
            drop_views(spark, keep)
            return build_samples(spark, wl, seeds["sample"] + draw)

        vr = VerdictRun(wl, seeds["query"])
        # Two sample draws: the warm-up pass runs on the first, the
        # measured passes on a fresh context over the second. Accuracy is
        # taken over both draws; setup_s is the median of both builds.
        v, setup0 = setup(0)
        cache_mb = (storage_bytes(spark) - base_storage) / (1 << 20)
        t0 = time.perf_counter()
        warmup = [vr.run(v, q) for q in queries]
        warmup_s = time.perf_counter() - t0
        v, setup1 = setup(1)
        samples = {
            m.view: m.rows for t in v.catalog.tables() for m in v.catalog.for_table(t)
        }

        # Exact answers come from the first measured pass: each exact
        # query's first run after the warm-up is timed like any other
        # (a first exact pass is no slower than later ones once the
        # Verdict warm-up has run), so no separate exact pass is paid.
        exact: dict = {}
        per_q = {q.name: {"exact": [], "verdict": []} for q in queries}
        last: dict = {}
        passes: list[float] = []
        t_start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            suite = 0.0
            for q in queries:
                dt, answer = exact_answer(spark, q)
                exact.setdefault(q.name, answer)
                per_q[q.name]["exact"].append(dt)
                out = vr.run(v, q)
                vr.check(q, out, exact[q.name])
                per_q[q.name]["verdict"].append(out.seconds)
                suite += out.seconds
                last[q.name] = out
            passes.append(suite)
            elapsed = time.perf_counter() - t_start
            if elapsed + (time.perf_counter() - p0) > seconds:
                break
        measured_s = time.perf_counter() - t_start
        for q, out in zip(queries, warmup):
            vr.check(q, out, exact[q.name])

        result = summarise(queries, exact, per_q, last, dict(zip(
            (q.name for q in queries), warmup)), passes, vr)
        result["provenance"] = provenance(spark, wl, seed, seeds, tables, samples)
        result["phases_s"] = {
            "data": data_s,
            "setups": [setup0, setup1],
            "warmup_pass": warmup_s,
            "measured": measured_s,
        }
        result["e2e"]["setup_s"] = statistics.median([setup0, setup1])
        result["e2e"]["sample_cache_mb"] = cache_mb
        if trace:
            traced = traced_pass(spark, lambda: setup(1), vr, queries, exact)
            overhead = traced["suite_s"] - statistics.median(passes)
            result["per_layer"] = {**traced.pop("metrics"), "trace.overhead_s": overhead}
            for row, t in zip(result["queries"], traced.pop("queries")):
                row.update(jobs=t["jobs"], tasks=t["tasks"], self_ms=t["self_ms"])
            result["traced"] = traced
        return result
    finally:
        stop_spark(spark)


def traced_pass(spark, setup, vr: VerdictRun, queries, exact) -> dict:
    """Rebuild the measured sample draw and run one pass over a fresh
    context, as the measured pass did, with every layer wrapped.

    Returns the per-layer metrics (per Verdict query, sampling per
    build), the traced suite time, per-query rows and the largest gap
    between a query's summed span self times and its root span."""
    from tracing import ROOT, Instrumentation, Tracer, job_counts

    tracer = Tracer()
    inst = Instrumentation(spark, tracer).install()
    sc = spark.sparkContext
    rows, suite, worst_gap, hac_reruns = [], 0.0, 0.0, 0
    try:
        sc.setJobGroup("aqpbench-setup", "sample build")
        v, _ = setup()
        built = sum(tracer.calls[f"sampling.{k}"] for k in ("uniform", "hashed", "stratified"))
        for i, q in enumerate(queries):
            sc.setJobGroup(f"aqpbench-q{i}", q.name)
            tracer.new_query()
            out = vr.run(v, q, tracer)
            vr.check(q, out, exact[q.name])
            suite += out.seconds
            gap = abs(sum(tracer.query_self_s.values()) - tracer.root_s)
            worst_gap = max(worst_gap, gap)
            if out.res is not None and (out.res.fallback_reason or "").startswith("HAC violation"):
                hac_reruns += 1
            rows.append({"query": q.name, "self_ms": {k: 1e3 * s for k, s in tracer.query_self_s.items()}})
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        inst.uninstall()
    setup_jobs, _ = job_counts(sc, "aqpbench-setup")
    jobs = tasks = 0
    for i, row in enumerate(rows):
        row["jobs"], row["tasks"] = job_counts(sc, f"aqpbench-q{i}")
        jobs += row["jobs"]
        tasks += row["tasks"]
    n = len(queries)
    ms = lambda name: 1e3 * tracer.self_s.get(name, 0.0) / n  # noqa: E731
    calls = lambda name: tracer.calls.get(name, 0) / n  # noqa: E731
    ratios = [cost / base for cost, base in inst.plans if base > 0]
    out = {
        "parser.parse.ms": ms("parser.parse"),
        "flatten.flatten.ms": ms("flatten.flatten"),
        "flatten.derived_sql.ms": ms("flatten.derived_sql"),
        "flatten.derived_sql.calls": calls("flatten.derived_sql"),
        "planner.plan_query.ms": ms("planner.plan_query"),
        "planner.rows_read_ratio": statistics.mean(ratios) if ratios else 0.0,
        "rewriter.rewrite.ms": ms("rewriter.rewrite"),
        "verdict.table_meta.ms": ms("verdict.table_meta"),
        "verdict.table_meta.calls": calls("verdict.table_meta"),
        "verdict.card_probe.ms": ms("verdict.card_probe"),
        "verdict.card_probe.calls": calls("verdict.card_probe"),
        "verdict.base_count.calls": calls("verdict.base_count"),
        "verdict.self.ms": ms(ROOT),
        "engine.analyze.ms": ms("engine.analyze"),
        "engine.execute.ms": ms("engine.execute"),
        "engine.exact.ms": ms("engine.exact"),
        "engine.exact.calls": calls("engine.exact"),
        "engine.jobs": jobs / n,
        "engine.tasks": tasks / n,
        "estimators.hac_check.ms": ms("estimators.hac_check"),
        "estimators.hac_rerun_share": hac_reruns / n,
        "sampling.uniform.s": tracer.self_s.get("sampling.uniform", 0.0),
        "sampling.hashed.s": tracer.self_s.get("sampling.hashed", 0.0),
        "sampling.stratified.s": tracer.self_s.get("sampling.stratified", 0.0),
        "sampling.engine_calls": inst.sampling_sql_calls / built,
        "sampling.jobs": setup_jobs / built,
    }
    return {"metrics": out, "suite_s": suite, "queries": rows, "span_sum_gap_ms": 1e3 * worst_gap}


def summarise(queries, exact, per_q, last, warmup, passes, vr) -> dict:
    """End-to-end metrics with their bases, and one row per query.
    Timings come from the measured passes; accuracy from the answers
    of both sample draws (warm-up and last measured pass)."""
    import checks

    lat = [t for q in queries for t in per_q[q.name]["verdict"]]
    ex = [t for q in queries for t in per_q[q.name]["exact"]]
    acc = checks.Accuracy()
    rows, logs = [], []
    approx_n = 0
    for q in queries:
        res = last[q.name].res
        e_q = quartiles(per_q[q.name]["exact"])
        v_q = quartiles(per_q[q.name]["verdict"])
        approx = res is not None and res.approx
        approx_n += approx
        q_acc = checks.Accuracy()
        for out in (warmup[q.name], last[q.name]):
            if out.ans is not None:
                q_acc.merge(checks.accuracy(out.ans, exact[q.name]))
        acc.merge(q_acc)
        if approx:
            logs.append(math.log(e_q[1] / v_q[1]))
        rows.append(
            {
                "query": q.name,
                "exact_s": e_q,
                "verdict_s": v_q,
                "approx": approx,
                "fallback_reason": None if res is None else res.fallback_reason,
                "samples": views_of(res),
                "rel_errs": q_acc.rel_errs,
                "halfwidths": q_acc.halfwidths,
                "ci_covered": [q_acc.covered, q_acc.ci_cells],
                "groups": [q_acc.groups_found, q_acc.groups_exact],
            }
        )
    # inclusive: with a handful of samples the default method extrapolates
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) >= 2 else lat[0]
    e2e = {
        "verdict_p50_s": statistics.median(lat),
        "verdict_p90_s": p90,
        "verdict_suite_s": statistics.median(passes),
        "exact_p50_s": statistics.median(ex),
        "speedup_geomean": math.exp(statistics.mean(logs)) if logs else float("nan"),
        "rel_err_pct": 100 * statistics.mean(acc.rel_errs) if acc.rel_errs else float("nan"),
        "ci_coverage": acc.covered / acc.ci_cells if acc.ci_cells else float("nan"),
        # median, not mean: a few cells with a near-zero estimate carry
        # half-widths of several times the answer and would dominate a mean
        "ci_halfwidth_pct": 100 * statistics.median(acc.halfwidths) if acc.halfwidths else float("nan"),
        "group_recall": acc.groups_found / acc.groups_exact if acc.groups_exact else float("nan"),
        "approx_share": approx_n / len(queries),
        "failed_share": len(vr.failures) / vr.attempted,
    }
    bases = {
        "verdict_samples": len(lat),
        "verdict_samples_above_p90": sum(t > p90 for t in lat),
        "exact_samples": len(ex),
        "passes": len(passes),
        "approx_queries": approx_n,
        "queries": len(queries),
        "error_cells": len(acc.rel_errs),
        "ci_cells": acc.ci_cells,
        "exact_groups": acc.groups_exact,
        "checked": vr.attempted,
        "failed": len(vr.failures),
    }
    return {"e2e": e2e, "bases": bases, "queries": rows, "failures": vr.failures}


def provenance(spark, wl, seed, seeds, tables, samples) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or None
    conf = spark.sparkContext.getConf()
    return {
        "workload": wl.name,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "spark": spark.version,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": conf.get("spark.driver.memory"),
        "seed": seed,
        "seeds": seeds,
        "scale_factor": wl.sf,
        "sample_ratio": RATIO,
        "io_budget": BUDGET,
        "accuracy": wl.accuracy,
        "tables": tables,
        "sample_rows": samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "core" / "verdict.py").is_file():
        print(f"aqpbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else result["e2e"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    detail = {k: v for k, v in result.items() if k != "per_layer"}
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), **detail, "metrics": metrics}
    path = out / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for key in ("provenance", "bases", "phases_s"):
        print(json.dumps({key: detail[key]}, default=str))
    for row in detail["queries"]:
        print(json.dumps(row, default=str))
    print(json.dumps({"e2e": detail["e2e"]}))
    failed = detail["bases"]["failed"]
    final = {
        "correct": failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": detail["bases"]["checked"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
