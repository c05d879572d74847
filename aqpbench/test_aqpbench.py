"""Tests of the benchmark itself: the output check, the span arithmetic,
and one traced run per workload.

    python3 -m pytest aqpbench -q
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import Answer, Exact, accuracy, check  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT = Exact(columns=("g", "s"), rows=[{"g": "a", "s": 10.0}, {"g": "b", "s": 20.0}])


def approx(rows, columns=("g", "s", "s_err")) -> Answer:
    return Answer(columns, rows, ("g",), (("s", "s_err"),), approx=True)


def passthrough(rows) -> Answer:
    return Answer(("g", "s"), rows, ("g",), (("s", None),), approx=False)


def test_good_answers_pass():
    assert check(approx([{"g": "a", "s": 11.0, "s_err": 2.0}]), EXACT) == []
    assert check(passthrough(list(reversed(EXACT.rows))), EXACT) == []


def test_wrong_value_in_passthrough_fires():
    rows = [{"g": "a", "s": 10.0}, {"g": "b", "s": 21.0}]
    assert check(passthrough(rows), EXACT) == ["exact passthrough differs from the exact rows"]


def test_extra_group_fires():
    rows = [{"g": "a", "s": 10.0, "s_err": 1.0}, {"g": "zz", "s": 5.0, "s_err": 1.0}]
    (problem,) = check(approx(rows), EXACT)
    assert "absent from the exact answer" in problem


def test_null_answer_fires():
    (problem,) = check(approx([{"g": "b", "s": None, "s_err": None}]), EXACT)
    assert problem.startswith("NULL s")


def test_wrong_columns_fire():
    rows = [{"g": "a", "t": 10.0, "s_err": 1.0}]
    assert check(approx(rows, ("g", "t", "s_err")), EXACT)


def test_accuracy_counts():
    acc = accuracy(approx([{"g": "a", "s": 11.0, "s_err": 2.0}, {"g": "b", "s": 30.0, "s_err": 5.0}]), EXACT)
    assert acc.rel_errs == [pytest.approx(0.1), pytest.approx(0.5)]
    assert (acc.covered, acc.ci_cells) == (1, 2)
    assert acc.halfwidths == [pytest.approx(2 / 11), pytest.approx(5 / 30)]
    assert (acc.groups_found, acc.groups_exact) == (2, 2)


def test_span_self_times_sum_to_root():
    t = Tracer()
    t.new_query()
    with t.span("verdict.self"):
        with t.span("parser.parse"):
            pass
        with t.span("engine.analyze"):
            with t.span("verdict.table_meta"):
                pass
    assert math.isclose(sum(t.query_self_s.values()), t.root_s, rel_tol=1e-9)
    assert t.calls["verdict.table_meta"] == 1


#: per-layer metrics whose layer runs on the workload, so each must be > 0
RUNS_ON = {
    "tq-mem": {"flatten.derived_sql.ms", "flatten.derived_sql.calls", "sampling.stratified.s"},
    "iq-hac": {"estimators.hac_rerun_share"},
}
RUNS_ON_BOTH = {
    "parser.parse.ms", "flatten.flatten.ms", "planner.plan_query.ms",
    "planner.rows_read_ratio", "rewriter.rewrite.ms", "verdict.table_meta.ms",
    "verdict.table_meta.calls", "verdict.card_probe.ms", "verdict.card_probe.calls",
    "verdict.self.ms", "engine.analyze.ms",
    "engine.execute.ms", "engine.exact.ms", "engine.exact.calls", "engine.jobs",
    "engine.tasks", "estimators.hac_check.ms", "sampling.uniform.s",
    "sampling.hashed.s", "sampling.engine_calls", "sampling.jobs",
}


@pytest.mark.parametrize("workload", sorted(RUNS_ON))
def test_traced_run(workload):
    """One traced run: the output check passes, every named per-layer
    metric is printed (and non-zero where its layer runs), the tracing
    overhead is reported, and each query's span self times add up to
    its root span."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    final = json.loads(p.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    names = {m["name"] for m in spec["per_layer"]}
    assert set(final["metrics"]) == names
    assert "trace.overhead_s" in names
    for name in RUNS_ON_BOTH | RUNS_ON[workload]:
        assert final["metrics"][name]["value"] > 0, name
    record = json.loads(
        (HERE.parent / ".aqpbench" / "results" / f"{workload}_seed5_trace1.json").read_text()
    )
    assert record["traced"]["span_sum_gap_ms"] < 1e-3
