"""Per-layer spans for the traced run, recorded from outside the program.

``Instrumentation.install`` wraps the public entry points of each layer — the names
``repro.core.verdict`` imports, ``VerdictContext.create_*_sample``,
``ApproxResult.violates`` and the session's ``sql`` and ``table`` —
and ``uninstall`` restores them. Engine calls are classified by their
SQL text. A span's self time is its duration minus that of its child
spans, so the self times of one query's spans add up to its root span.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import repro.core.verdict as verdict_mod
from repro.core.estimators import ApproxResult
from repro.core.query import exact_sql
from repro.core.verdict import VerdictContext

ROOT = "verdict.self"
CARD_PROBE_PREFIX = "SELECT approx_count_distinct(struct("
BASE_COUNT_PREFIX = "SELECT count(*) AS n FROM "
_KIND = "_aqpbench_kind"


class Tracer:
    """Span stack with self time and call counts per span name."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.query_self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0

    @property
    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def span(self, name: str, *, count: bool = True):
        start = time.perf_counter()
        self._stack.append([name, 0.0])
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            _, child = self._stack.pop()
            self.self_s[name] += dur - child
            self.query_self_s[name] += dur - child
            if count:
                self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur
            else:
                self.root_s = dur

    def new_query(self) -> None:
        """Reset the per-query record (``query_self_s``, ``root_s``)."""
        self.query_self_s = defaultdict(float)
        self.root_s = 0.0


class Instrumentation:
    """Installs the wrappers on one session; ``uninstall`` undoes them."""

    def __init__(self, spark, tracer: Tracer):
        self.spark = spark
        self.t = tracer
        self.rewritten: set[str] = set()
        self.derived: set[str] = set()
        #: (chosen plan cost, base rows of the query's tables) per plan
        self.plans: list[tuple[int, int]] = []
        self.sampling_sql_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, new) -> None:
        self._restore.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, new)

    def install(self) -> "Instrumentation":
        t = self.t

        def spanned(name, fn, after=None):
            def wrapper(*a, **kw):
                with t.span(name):
                    out = fn(*a, **kw)
                if after is not None:
                    after(out, *a, **kw)
                return out
            return wrapper

        def note_derived(out, *a, **kw):
            self.derived.update(exact_sql(dv.query) for dv in out[1])

        def note_rewrite(out, *a, **kw):
            self.rewritten.add(out.sql)

        def note_plan(out, query, catalog, base_rows, **kw):
            self.plans.append((out.cost, sum(base_rows.values())))

        m = verdict_mod
        self._patch(m, "parse", spanned("parser.parse", m.parse))
        self._patch(m, "flatten", spanned("flatten.flatten", m.flatten, note_derived))
        self._patch(m, "plan_query", spanned("planner.plan_query", m.plan_query, note_plan))
        self._patch(m, "rewrite_flat", spanned("rewriter.rewrite", m.rewrite_flat, note_rewrite))
        self._patch(m, "rewrite_nested", spanned("rewriter.rewrite", m.rewrite_nested, note_rewrite))
        for kind in ("uniform", "hashed", "stratified"):
            name = f"create_{kind}_sample"
            self._patch(VerdictContext, name, spanned(f"sampling.{kind}", getattr(VerdictContext, name)))
        self._patch(ApproxResult, "violates", spanned("estimators.hac_check", ApproxResult.violates))

        # the session's own DataFrame class (the classic one overrides collect)
        frame = type(self.spark.range(0))
        sql, table, collect = self.spark.sql, self.spark.table, frame.collect

        def traced_sql(text, *a, **kw):
            if (t.current or "").startswith("sampling."):
                self.sampling_sql_calls += 1
                return sql(text, *a, **kw)
            kind = self.classify(text)
            with t.span(kind):
                df = sql(text, *a, **kw)
            setattr(df, _KIND, kind)
            return df

        def traced_table(name):
            with t.span("verdict.table_meta"):
                df = table(name)
                df.schema  # cached on the DataFrame: ``.columns`` is then free
            return df

        def traced_collect(df):
            kind = getattr(df, _KIND, None)
            if kind in ("verdict.card_probe", "verdict.base_count"):
                with t.span(kind, count=False):
                    return collect(df)
            return collect(df)

        self._patch(self.spark, "sql", traced_sql)
        self._patch(self.spark, "table", traced_table)
        self._patch(frame, "collect", traced_collect)
        return self

    def classify(self, text: str) -> str:
        if text in self.rewritten:
            return "engine.analyze"
        if text in self.derived:
            return "flatten.derived_sql"
        if text.startswith(CARD_PROBE_PREFIX):
            return "verdict.card_probe"
        if text.startswith(BASE_COUNT_PREFIX):
            return "verdict.base_count"
        return "engine.exact"

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._restore.clear()


def job_counts(sc, group: str, timeout_s: float = 5.0) -> tuple[int, int]:
    """(jobs, completed tasks) of a job group, read from the status
    tracker once the listener has seen every job of the group end."""
    tracker = sc.statusTracker()
    deadline = time.monotonic() + timeout_s
    while True:
        ids = tracker.getJobIdsForGroup(group)
        infos = [tracker.getJobInfo(j) for j in ids]
        done = all(i is not None and i.status in ("SUCCEEDED", "FAILED") for i in infos)
        stages = [tracker.getStageInfo(s) for i in infos if i for s in i.stageIds]
        active = any(s is not None and s.numActiveTasks for s in stages)
        if (done and not active) or time.monotonic() > deadline:
            tasks = sum(s.numCompletedTasks for s in stages if s is not None)
            return len(ids), tasks
        time.sleep(0.05)
