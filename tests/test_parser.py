"""Query Parser coverage: the Table 1 query class."""
import pytest

from repro.core.parser import UnsupportedQueryError, parse, tokenize
from repro.core.query import AggQuery, Relation


class TestTokenizer:
    def test_basic(self):
        assert tokenize("select a, b from t") == ["select", "a", ",", "b", "from", "t"]

    def test_string_literal(self):
        assert tokenize("x = 'PROMO'") == ["x", "=", "'PROMO'"]

    def test_string_with_escaped_quote(self):
        assert tokenize("x = 'it''s'") == ["x", "=", "'it''s'"]

    def test_numbers(self):
        assert tokenize("1.5 + .25 - 3") == ["1.5", "+", ".25", "-", "3"]

    def test_scientific_numbers(self):
        # one token each, so re-emitted predicates stay valid SQL
        assert tokenize("a > 1e15 and b < 2.5E-3") == [
            "a", ">", "1e15", "and", "b", "<", "2.5E-3"
        ]

    def test_operators(self):
        assert tokenize("a >= 1 and b <> 2") == ["a", ">=", "1", "and", "b", "<>", "2"]

    def test_unknown_char_raises(self):
        with pytest.raises(UnsupportedQueryError):
            tokenize("select ~ from t")


class TestSelectList:
    def test_count_star(self):
        q = parse("select count(*) as c from t")
        assert q.aggs[0].fn == "count" and q.aggs[0].expr == "*"

    def test_simple_aggs(self):
        q = parse("select count(*) as c, sum(x) as s, avg(y) as a from t")
        assert [(a.fn, a.alias) for a in q.aggs] == [
            ("count", "c"), ("sum", "s"), ("avg", "a"),
        ]

    def test_count_distinct(self):
        q = parse("select count(distinct user_id) as u from t")
        assert q.aggs[0].fn == "count_distinct"
        assert q.aggs[0].expr == "user_id"

    def test_percentile(self):
        q = parse("select percentile(x, 0.9) as p from t")
        assert q.aggs[0].fn == "quantile"
        assert q.aggs[0].q == 0.9

    def test_median_defaults_to_half(self):
        q = parse("select median(x) as m from t")
        assert q.aggs[0].fn == "quantile" and q.aggs[0].q == 0.5

    def test_stddev_var_canonical(self):
        q = parse("select stddev_samp(x) as s, var_samp(x) as v from t")
        assert q.aggs[0].fn == "stddev"
        assert q.aggs[1].fn == "var"

    def test_alias_without_as(self):
        q = parse("select sum(x) total from t")
        assert q.aggs[0].alias == "total"

    def test_auto_alias(self):
        q = parse("select sum(x) from t")
        assert q.aggs[0].alias == "agg0"

    def test_expression_argument(self):
        q = parse("select sum(l_extendedprice * (1 - l_discount)) as rev from t")
        assert "l_extendedprice" in q.aggs[0].expr
        assert "(" in q.aggs[0].expr

    def test_case_when_argument(self):
        q = parse(
            "select sum(case when p_type = 'PROMO' then price else 0 end) as p "
            "from t"
        )
        assert q.aggs[0].expr.startswith("case when")

    def test_group_columns(self):
        q = parse("select city, state, count(*) as c from t group by city, state")
        assert q.groups == ("city", "state")

    def test_min_max_parsed(self):
        q = parse("select max(x) as mx, min(x) as mn, avg(x) as a from t")
        assert [a.fn for a in q.aggs] == ["max", "min", "avg"]


class TestFromClause:
    def test_single_table(self):
        q = parse("select count(*) as c from orders")
        assert isinstance(q.source, Relation)
        assert q.source.first.name == "orders"

    def test_table_alias(self):
        q = parse("select count(*) as c from orders o")
        assert q.source.first.alias == "o"

    def test_inner_join(self):
        q = parse(
            "select count(*) as c from orders inner join lineitem "
            "on o_orderkey = l_orderkey"
        )
        assert len(q.source.joins) == 1
        assert q.source.joins[0].on == (("o_orderkey", "l_orderkey"),)

    def test_join_keyword_only(self):
        q = parse("select count(*) as c from a join b on x = y")
        assert len(q.source.joins) == 1

    def test_multi_join(self):
        q = parse(
            "select count(*) as c from a join b on x = y join c on u = v"
        )
        assert len(q.source.joins) == 2

    def test_compound_join_condition(self):
        q = parse("select count(*) as c from a join b on x = y and p = q")
        assert q.source.joins[0].on == (("x", "y"), ("p", "q"))

    def test_qualified_join_condition(self):
        q = parse(
            "select count(*) as c from a t1 join b t2 on t1.x = t2.y"
        )
        assert q.source.joins[0].on == (("x", "y"),)

    def test_nested_derived(self):
        q = parse(
            "select avg(sales) as a from "
            "(select city, sum(price) as sales from orders group by city) t"
        )
        assert q.nested
        assert isinstance(q.source, AggQuery)
        assert q.source.groups == ("city",)


class TestWhere:
    def test_simple(self):
        q = parse("select count(*) as c from t where x > 5")
        assert q.where == "x > 5"

    def test_and_conjuncts(self):
        q = parse("select count(*) as c from t where x > 5 and y < 2")
        assert q.where == "x > 5 AND y < 2"

    def test_between_keeps_and(self):
        q = parse(
            "select count(*) as c from t "
            "where d between 0.05 and 0.07 and q < 24"
        )
        assert "between 0.05 and 0.07" in q.where
        assert "q < 24" in q.where

    def test_in_list(self):
        q = parse("select count(*) as c from t where x in ( 1 , 2 , 3 )")
        assert "in" in q.where

    def test_like(self):
        q = parse("select count(*) as c from t where name like 'a%'")
        assert "like" in q.where

    def test_date_literal(self):
        q = parse(
            "select count(*) as c from t where d >= date '1994-01-01'"
        )
        assert "date '1994-01-01'" in q.where

    def test_uncorrelated_subquery(self):
        q = parse(
            "select count(*) as c from t "
            "where price > (select avg(price) as ap from t)"
        )
        assert len(q.subquery_filters) == 1
        cs = q.subquery_filters[0]
        assert cs.op == ">" and cs.corr is None
        assert cs.subquery.aggs[0].fn == "avg"

    def test_correlated_subquery(self):
        q = parse(
            "select count(*) as c from orders o "
            "where price > (select avg(price) as ap from orders i "
            "where i.city = o.city)"
        )
        cs = q.subquery_filters[0]
        assert cs.corr == ("city", "city")
        assert cs.subquery.where is None

    def test_subquery_plus_plain_predicate(self):
        q = parse(
            "select count(*) as c from t "
            "where x > 1 and price > (select avg(price) as ap from t)"
        )
        assert q.where == "x > 1"
        assert len(q.subquery_filters) == 1


class TestTrailingClauses:
    def test_having(self):
        q = parse(
            "select city, count(*) as c from t group by city having c > 10"
        )
        assert q.having == "c > 10"

    def test_order_by(self):
        q = parse(
            "select city, count(*) as c from t group by city order by c desc"
        )
        assert q.order_by == "c desc"

    def test_limit(self):
        q = parse("select city, count(*) as c from t group by city limit 5")
        assert q.limit == 5

    def test_trailing_semicolon(self):
        assert parse("select count(*) as c from t;").aggs[0].fn == "count"


class TestUnsupported:
    @pytest.mark.parametrize(
        "sql",
        [
            "select a, b from t",  # no aggregates
            "select a from t where x in (select y from s)",  # IN subquery
            "select count(*) from",  # truncated
            "insert into t values (1)",
            "select sum(distinct x) as s from t",  # DISTINCT inside sum
            "select a, count(*) as c from t",  # non-agg item, no group by
        ],
    )
    def test_raises(self, sql):
        with pytest.raises(UnsupportedQueryError):
            parse(sql)


class TestWorkloadQueriesParse:
    """Every supported workload query must parse (Table 1 coverage)."""

    @pytest.mark.parametrize(
        "wq",
        [
            pytest.param(w, id=w.name)
            for suite in ("TPCH_QUERIES", "INSTA_QUERIES")
            for w in __import__(
                "repro.workloads.tpch_lite"
                if suite == "TPCH_QUERIES"
                else "repro.workloads.insta",
                fromlist=[suite],
            ).__dict__[suite]
        ],
    )
    def test_parses(self, wq):
        q = parse(wq.sql)
        assert q.aggs
