"""SQL-subset parser: query text -> :class:`~repro.core.query.AggQuery`.

Implements the Query Parser box of Figure 1b for the query class of
Table 1: aggregate select lists, base tables joined by inner equi-joins,
one level of aggregate derived table in FROM, scalar predicates, and a
comparison subquery in WHERE (recorded for Section 2.2 flattening).

The grammar is deliberately clause-structural: expressions inside
predicates and aggregate arguments are re-emitted verbatim (a
middleware does not need to understand them — the backend does).
Queries outside the subset raise :class:`UnsupportedQueryError`; the
facade then passes them to the engine unchanged, reproducing the
paper's "unsupported queries observe no speedup" behaviour.
"""
from __future__ import annotations

import re

from .query import (
    AggCall,
    AggQuery,
    ComparisonSubquery,
    JoinEdge,
    Relation,
    TableRef,
)


class UnsupportedQueryError(Exception):
    """Raised for SQL outside the supported class (passed through)."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<str>'(?:[^']|'')*')
  | (?P<num>(?:\d+\.\d+|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|!=|>=|<=|[=<>])
  | (?P<punct>[(),.*+\-/%])
    """,
    re.VERBOSE,
)

_AGG_FNS = {
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "stddev",
    "stddev_samp",
    "var_samp",
    "variance",
    "percentile",
    "quantile",
    "median",
}

_CANON = {
    "stddev_samp": "stddev",
    "variance": "var",
    "var_samp": "var",
    "percentile": "quantile",
    "median": "quantile",
}


def tokenize(sql: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            raise UnsupportedQueryError(f"cannot tokenize at: {sql[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append(m.group())
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    # ---- token helpers -------------------------------------------------
    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def peek_kw(self, kw: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t is not None and t.lower() == kw

    def next(self) -> str:
        if self.i >= len(self.toks):
            raise UnsupportedQueryError("unexpected end of query")
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_kw(self, kw: str) -> None:
        t = self.next()
        if t.lower() != kw:
            raise UnsupportedQueryError(f"expected {kw!r}, got {t!r}")

    def accept_kw(self, kw: str) -> bool:
        if self.peek_kw(kw):
            self.i += 1
            return True
        return False

    # ---- grammar -------------------------------------------------------
    def parse_query(self) -> AggQuery:
        self.expect_kw("select")
        groups_sel: list[str] = []
        aggs: list[AggCall] = []
        auto = 0
        while True:
            item, is_agg = self.parse_select_item(auto)
            if is_agg:
                aggs.append(item)
                auto += 1
            else:
                groups_sel.append(item)
            if not self.accept_kw(","):
                break
        if not aggs:
            raise UnsupportedQueryError("no aggregate functions in select list")
        self.expect_kw("from")
        source = self.parse_source()
        where, subfilters = (None, ())
        if self.accept_kw("where"):
            where, subfilters = self.parse_where()
        groups: tuple[str, ...] = ()
        if self.accept_kw("group"):
            self.expect_kw("by")
            groups = tuple(self.parse_ident_list())
        having = None
        if self.accept_kw("having"):
            having = self.raw_until({"order", "limit"})
        order_by = None
        if self.accept_kw("order"):
            self.expect_kw("by")
            order_by = self.raw_until({"limit"})
        limit = None
        if self.accept_kw("limit"):
            limit = int(self.next())
        if groups_sel and not groups:
            raise UnsupportedQueryError(
                "non-aggregate select items without GROUP BY"
            )
        return AggQuery(
            aggs=tuple(aggs),
            groups=groups or tuple(groups_sel),
            source=source,
            where=where,
            having=having,
            order_by=order_by,
            limit=limit,
            subquery_filters=tuple(subfilters),
        )

    def parse_select_item(self, auto_idx: int) -> tuple[AggCall | str, bool]:
        t = self.peek()
        if t is not None and t.lower() in _AGG_FNS and self.peek_kw("(", 1):
            call = self.parse_agg_call(auto_idx)
            return call, True
        # non-aggregate item: a (possibly qualified) column reference
        expr = self.parse_column_ref()
        if self.accept_kw("as"):
            self.next()  # alias of a plain group column: keep source name
        return expr, False

    def parse_agg_call(self, auto_idx: int) -> AggCall:
        fn = self.next().lower()
        self.expect_kw("(")
        distinct = self.accept_kw("distinct")
        if self.peek_kw("*"):
            self.next()
            expr = "*"
        else:
            expr = self.raw_expr_until({",", ")"})
        q = None
        if self.accept_kw(","):
            q = float(self.next())
        self.expect_kw(")")
        if fn == "count" and distinct:
            fn = "count_distinct"
        elif distinct:
            raise UnsupportedQueryError(f"DISTINCT inside {fn} not supported")
        fn = _CANON.get(fn, fn)
        if fn == "quantile" and q is None:
            q = 0.5  # median
        alias = f"agg{auto_idx}"
        if self.accept_kw("as"):
            alias = self.next()
        elif (t := self.peek()) is not None and re.fullmatch(
            r"[A-Za-z_][A-Za-z_0-9]*", t
        ) and t.lower() not in {"from", "as"}:
            alias = self.next()
        return AggCall(fn=fn, expr=expr, alias=alias, q=q)

    def parse_column_ref(self) -> str:
        parts = [self.next()]
        while self.peek_kw("."):
            self.next()
            parts.append(self.next())
        return ".".join(parts)

    def parse_source(self) -> Relation | AggQuery:
        if self.peek_kw("("):
            self.next()
            inner = self.parse_query()
            self.expect_kw(")")
            if self.peek() is not None and re.fullmatch(
                r"[A-Za-z_][A-Za-z_0-9]*", self.peek() or ""
            ) and not self.peek_kw("where") and not self.peek_kw("group"):
                self.accept_kw("as")
                self.next()  # derived-table alias — columns are unique, drop it
            return inner
        first = self.parse_table_ref()
        joins: list[JoinEdge] = []
        while self.peek_kw("inner") or self.peek_kw("join"):
            self.accept_kw("inner")
            self.expect_kw("join")
            right = self.parse_table_ref()
            self.expect_kw("on")
            on: list[tuple[str, str]] = []
            while True:
                l = self.parse_column_ref()
                self.expect_kw("=")
                r = self.parse_column_ref()
                on.append((l.split(".")[-1], r.split(".")[-1]))
                if not self.accept_kw("and"):
                    break
            joins.append(JoinEdge(right=right, on=tuple(on)))
        return Relation(first=first, joins=tuple(joins))

    def parse_table_ref(self) -> TableRef:
        name = self.next()
        alias = None
        if self.accept_kw("as"):
            alias = self.next()
        elif (t := self.peek()) is not None and re.fullmatch(
            r"[A-Za-z_][A-Za-z_0-9]*", t
        ) and t.lower() not in {
            "inner", "join", "on", "where", "group", "having", "order", "limit",
        }:
            alias = self.next()
        return TableRef(name=name, alias=alias)

    def parse_where(self) -> tuple[str | None, list[ComparisonSubquery]]:
        """Parse WHERE as raw predicate text, extracting comparison
        subqueries (``expr op (SELECT ...)``) as structured objects."""
        parts: list[str] = []
        subs: list[ComparisonSubquery] = []
        pending: list[str] = []  # tokens of the current AND-conjunct
        depth = 0
        between_open = 0  # BETWEEN seen, its AND not yet consumed

        def flush() -> None:
            if pending:
                parts.append(" ".join(pending))
                pending.clear()

        while self.peek() is not None:
            t = self.peek()
            if depth == 0 and (t or "").lower() in {
                "group", "having", "order", "limit",
            }:
                break
            if depth == 0 and self.peek_kw("(") and self.peek_kw("select", 1):
                # comparison subquery: pending holds "expr op"
                if len(pending) < 2 or pending[-1] not in {
                    "<", ">", "<=", ">=", "=", "<>", "!=",
                }:
                    raise UnsupportedQueryError(
                        "subquery in WHERE must follow a comparison operator"
                    )
                op = pending.pop()
                left = " ".join(pending)
                pending.clear()
                self.next()  # (
                inner = self.parse_query()
                self.expect_kw(")")
                corr = _extract_correlation(inner)
                subs.append(
                    ComparisonSubquery(
                        left_expr=left, op=op, subquery=corr[0], corr=corr[1]
                    )
                )
                continue
            if t == "(":
                depth += 1
            elif t == ")":
                if depth == 0:
                    break
                depth -= 1
            if (t or "").lower() == "between":
                between_open += 1
            if depth == 0 and self.peek_kw("and"):
                if between_open > 0:
                    # the AND belongs to BETWEEN, keep it in-expression
                    between_open -= 1
                    pending.append(self.next())
                    continue
                self.next()
                flush()
                continue
            pending.append(self.next())
        flush()
        where = " AND ".join(p for p in parts if p) or None
        return where, subs

    def parse_ident_list(self) -> list[str]:
        out = [self.parse_column_ref()]
        while self.accept_kw(","):
            out.append(self.parse_column_ref())
        return out

    def raw_until(self, stop_kws: set[str]) -> str:
        out: list[str] = []
        while self.peek() is not None and (self.peek() or "").lower() not in stop_kws:
            out.append(self.next())
        return " ".join(out)

    def raw_expr_until(self, stop: set[str]) -> str:
        """Raw expression tokens up to an unparenthesised stop token."""
        out: list[str] = []
        depth = 0
        while True:
            t = self.peek()
            if t is None:
                break
            if depth == 0 and t in stop:
                break
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            out.append(self.next())
        if not out:
            raise UnsupportedQueryError("empty expression")
        return " ".join(out)


def _extract_correlation(
    inner: AggQuery,
) -> tuple[AggQuery, tuple[str, str] | None]:
    """Detect the correlated-equality pattern in a subquery's WHERE.

    Recognises one conjunct of the form ``a.col1 = b.col2`` (either
    order); returns the subquery without that conjunct plus the
    (outer column, inner column) pair. Which side is "outer" is decided
    later by the flattener, which knows the outer query's tables —
    here we just capture the equality's column names.
    """
    if not inner.where:
        return inner, None
    conjuncts = [c.strip() for c in re.split(r"\bAND\b", inner.where, flags=re.I)]
    corr = None
    kept = []
    for c in conjuncts:
        m = re.fullmatch(
            r"([A-Za-z_][\w]*)\s*\.\s*([A-Za-z_][\w]*)\s*=\s*"
            r"([A-Za-z_][\w]*)\s*\.\s*([A-Za-z_][\w]*)",
            c,
        )
        if m and corr is None:
            corr = (m.group(2), m.group(4))
            continue
        kept.append(c)
    new_where = " AND ".join(kept) or None
    inner2 = AggQuery(
        aggs=inner.aggs,
        groups=inner.groups,
        source=inner.source,
        where=new_where,
        having=inner.having,
        order_by=inner.order_by,
        limit=inner.limit,
        subquery_filters=inner.subquery_filters,
    )
    return inner2, corr


def parse(sql: str) -> AggQuery:
    """Parse ``sql`` into an AggQuery or raise UnsupportedQueryError."""
    sql = sql.strip().rstrip(";")
    p = _Parser(tokenize(sql))
    q = p.parse_query()
    if p.i != len(p.toks):
        raise UnsupportedQueryError(
            f"trailing tokens: {' '.join(p.toks[p.i:p.i + 8])!r}"
        )
    return q
