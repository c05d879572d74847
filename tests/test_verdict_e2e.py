"""End-to-end VerdictContext over the tq-*/iq-* workloads (Figure 2's
whole pipeline: parse -> flatten -> plan -> rewrite -> execute ->
assemble). Exact-path results are validated against the DuckDB oracle;
approximate results against exact answers with sampling-aware
tolerances."""
import pytest

from repro.core.estimators import ApproxResult
from repro.workloads.insta import INSTA_QUERIES
from repro.workloads.tpch_lite import TPCH_QUERIES

# queries whose smallest per-group sample support at SF=0.01 makes a
# tight relative check meaningless; they still must run and be covered
_LOOSE = {"tq-4", "tq-5", "tq-10", "tq-corr", "tq-14", "iq-3", "iq-6", "iq-9", "iq-14", "iq-15"}
_REL_TOL = 0.30
_LOOSE_TOL = 0.80


def _check_against_exact(res: ApproxResult, exact_df, loose: bool):
    tol = _LOOSE_TOL if loose else _REL_TOL
    keys = list(res.group_cols)
    exact = {
        tuple(r[k] for k in keys): r for r in exact_df.collect()
    }
    got = {tuple(r[k] for k in keys) for r in res.df.collect()}
    # sampled group-bys may miss tiny groups; they must find >= 80%
    assert len(got & set(exact)) >= 0.8 * len(exact)
    for row in res.df.collect():
        key = tuple(row[k] for k in keys)
        if key not in exact:
            continue
        for o in res.outputs:
            want = exact[key][o.alias]
            gotv = row[o.alias]
            if want is None or gotv is None:
                continue
            if want == 0:
                continue
            rel = abs((gotv - want) / want)
            assert rel < tol, (key, o.alias, gotv, want, rel)


class TestTpchSuite:
    @pytest.mark.parametrize(
        "wq", [pytest.param(w, id=w.name) for w in TPCH_QUERIES]
    )
    def test_query(self, spark, verdict, wq):
        res = verdict.sql(wq.sql, seed=21)
        if wq.expect_approx:
            assert res.approx, f"{wq.name} fell back: {res.fallback_reason}"
            _check_against_exact(
                res, verdict.exact(wq.sql), wq.name in _LOOSE
            )
        else:
            assert not res.approx
            # exact passthrough must match the engine bit-for-bit
            a = sorted(map(tuple, res.df.collect()))
            b = sorted(map(tuple, spark.sql(wq.sql).collect()))
            assert a == b


class TestInstaSuite:
    @pytest.mark.parametrize(
        "wq", [pytest.param(w, id=w.name) for w in INSTA_QUERIES]
    )
    def test_query(self, spark, verdict_insta, wq):
        res = verdict_insta.sql(wq.sql, seed=22)
        if wq.expect_approx:
            assert res.approx, f"{wq.name} fell back: {res.fallback_reason}"
            _check_against_exact(
                res, verdict_insta.exact(wq.sql), wq.name in _LOOSE
            )
        else:
            assert not res.approx


class TestFacadeBehaviour:
    def test_unsupported_passthrough(self, spark, verdict):
        """Queries outside Table 1 run unchanged on the engine."""
        res = verdict.sql("select l_returnflag from lineitem limit 3")
        assert not res.approx
        assert "unsupported" in res.fallback_reason
        assert res.df.count() == 3

    def test_nested_outer_having_applied(self, spark, verdict):
        """An outer HAVING on a nested query filters the approximate
        answer like the exact one (no group's average reaches 1e15)."""
        sql = (
            "select l_returnflag, avg(sales) as a from "
            "(select l_returnflag, l_linestatus, sum(l_extendedprice) as sales "
            "from lineitem group by l_returnflag, l_linestatus) t "
            "group by l_returnflag having avg(sales) > 1e15"
        )
        res = verdict.sql(sql, seed=1)
        assert res.approx, res.fallback_reason
        assert res.df.count() == spark.sql(sql).count() == 0

    def test_nested_inner_having_runs_exact(self, spark, verdict):
        sql = (
            "select avg(sales) as a from "
            "(select l_returnflag, sum(l_extendedprice) as sales from lineitem "
            "group by l_returnflag having sum(l_extendedprice) > 0) t"
        )
        res = verdict.sql(sql, seed=1)
        assert not res.approx
        assert res.df.collect() == spark.sql(sql).collect()

    def test_error_columns_present_when_approx(self, verdict):
        res = verdict.sql(
            "select count(*) as c from lineitem", seed=1
        )
        assert res.approx
        assert res.outputs[0].err_alias == "c_err"
        assert "c_err" in res.df.columns

    def test_answer_df_hides_errors(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        assert res.answer_df().columns == ["c"]

    def test_latency_recorded(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        assert res.latency_sec is not None and res.latency_sec > 0

    def test_hac_violation_reruns_exact(self, spark, verdict):
        """Section 2.4: an unmeetable accuracy requirement must trigger
        an exact rerun (estimated error > 1 - accuracy)."""
        res = verdict.sql(
            "select count(*) as c from lineitem",
            accuracy=0.999999, seed=1,
        )
        assert not res.approx
        assert "HAC" in res.fallback_reason
        exact = spark.sql("select count(*) as c from lineitem").collect()[0]["c"]
        assert res.df.collect()[0]["c"] == exact

    def test_hac_satisfied_keeps_approx(self, verdict):
        res = verdict.sql(
            "select count(*) as c from lineitem", accuracy=0.5, seed=1
        )
        assert res.approx

    def test_minmax_decomposition(self, spark, verdict):
        """min/max exact, mean-like approximate, assembled in order."""
        res = verdict.sql(
            "select max(l_extendedprice) as mx, avg(l_extendedprice) as av "
            "from lineitem", seed=2,
        )
        assert res.approx
        row = res.df.collect()[0]
        exact_mx = spark.sql(
            "select max(l_extendedprice) as mx from lineitem"
        ).collect()[0]["mx"]
        assert row["mx"] == exact_mx  # extreme statistic is exact
        assert [o.alias for o in res.outputs] == ["mx", "av"]
        assert res.outputs[0].err_alias is None

    def test_assembly_keeps_null_group(self, spark):
        """Joining the min/max part to the approximate part must keep a
        NULL group key: all four exact groups come back, max exact."""
        from repro.core.sampling import drop_sample
        from repro.core.verdict import VerdictContext

        spark.range(20_000).selectExpr(
            "CASE WHEN id % 4 = 0 THEN NULL ELSE id % 3 END AS g",
            "CAST(id % 97 AS DOUBLE) AS x",
        ).createOrReplaceTempView("null_groups")
        v = VerdictContext(spark, budget=0.25, seed=7)
        meta = v.create_uniform_sample("null_groups", ratio=0.1)
        sql = "select g, avg(x) as a, max(x) as mx from null_groups group by g"
        try:
            res = v.sql(sql, seed=1)
            assert res.approx, res.fallback_reason
            got = {r["g"]: r["mx"] for r in res.df.collect()}
            want = {r["g"]: r["mx"] for r in spark.sql(sql).collect()}
            assert len(want) == 4 and None in want
            assert got == want
        finally:
            drop_sample(spark, meta)
            spark.catalog.dropTempView("null_groups")

    def test_budget_override_forces_exact(self, verdict):
        """A per-query budget below every sample's ratio -> exact."""
        res = verdict.sql(
            "select count(*) as c from lineitem", budget=0.001, seed=1
        )
        assert not res.approx

    def test_confidence_widens_interval(self, verdict):
        lo = verdict.sql(
            "select count(*) as c from lineitem", confidence=0.80, seed=5
        ).df.collect()[0]["c_err"]
        hi = verdict.sql(
            "select count(*) as c from lineitem", confidence=0.99, seed=5
        ).df.collect()[0]["c_err"]
        assert hi > lo

    def test_plan_exposed(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        assert res.plan is not None and res.plan.uses_sampling

    def test_max_relative_error(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        worst = res.max_relative_error()
        assert worst is not None and 0 < worst < 0.5


class TestRecommendedSamples:
    def test_appendix_f_policy(self, spark, verdict_insta):
        """Appendix F: always uniform; hashed on high-cardinality
        columns; stratified on low-cardinality ones."""
        from repro.core.catalog import HASHED, STRATIFIED, UNIFORM
        from repro.core.verdict import VerdictContext

        v = VerdictContext(spark, seed=3)
        created = v.create_recommended_samples("orders_i", target_rows=500)
        types = [m.stype for m in created]
        assert types[0] == UNIFORM
        assert HASHED in types
        assert STRATIFIED in types
        hashed_cols = {
            m.columns[0] for m in created if m.stype == HASHED
        }
        # order_id/user_id are high-cardinality -> hashed candidates
        assert hashed_cols & {"order_id", "user_id"}
        strat_cols = {
            m.columns[0] for m in created if m.stype == STRATIFIED
        }
        # dow/hour are low-cardinality -> stratified candidates
        assert strat_cols & {"order_dow", "order_hour"}
