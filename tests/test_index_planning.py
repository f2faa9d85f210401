"""Index-aware planning: range scans, index-only scans, sort elimination,
and the WAL asynchronous-commit window those query savings pair with.

The planner rules under test (see planner.py):

* equality + range conjuncts on a key prefix become ``IndexRangeScan``
  (full-width pure equality stays ``IndexSeek``/``PointLookup``);
* a query that touches only indexed columns runs *index-only* — rows are
  synthesized from B-tree keys and the heap is never read;
* ``ORDER BY`` matching the scan's key order (after any equality-pinned
  prefix) drops the ``Sort`` operator outright.

Asynchronous commit lives in ``wal/log.py``: a commit force arriving
inside the open window is acked without flushing (bounded durability
loss, documented in ``TransactionManager.commit``); the window is
virtual time, so everything here is deterministic.
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import CostModel
from repro.sim.meter import Meter


@pytest.fixture
def world():
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=0)
    session = EngineSession(session_id=1)

    def run(sql):
        result = engine.execute(sql, session)
        if result.kind == "rows":
            return result.fetch_all()
        if result.kind == "rowcount":
            return result.rowcount
        return None

    run("CREATE TABLE ev (w INT NOT NULL, d INT NOT NULL, "
        "id INT NOT NULL, v INT, note VARCHAR(12), "
        "PRIMARY KEY (w, d, id))")
    # Shuffled insert order so heap order differs from key order.
    rows = [(w, d, i) for w in (2, 1) for d in (2, 1) for i in (3, 1, 2)]
    run("INSERT INTO ev VALUES " + ", ".join(
        f"({w}, {d}, {i}, {w * 100 + d * 10 + i}, 'n{i}')"
        for w, d, i in rows))
    return engine, run


def plan_of(run, sql):
    return [line for (line,) in run("EXPLAIN " + sql)]


# ---------------------------------------------------------------------------
# Access-path selection
# ---------------------------------------------------------------------------


class TestAccessPaths:
    def test_range_on_key_suffix_is_index_range_scan(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "AND id >= 2")
        assert any("IndexRangeScan" in line and "prefix=2" in line
                   and "lo>=" in line for line in plan)

    def test_partial_equality_prefix_is_range_scan(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2")
        assert any("IndexRangeScan" in line for line in plan)

    def test_full_width_equality_stays_point_lookup(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "AND id = 3")
        assert plan[0].startswith("PointLookup")

    def test_range_scan_rows_match_seq_scan(self, world):
        _engine, run = world
        indexed = run("SELECT w, d, id, v FROM ev "
                      "WHERE w = 1 AND d = 2 AND id >= 2")
        # Same predicate forced through a full scan (OR defeats the
        # index-sargable conjunct analysis).
        scanned = run("SELECT w, d, id, v FROM ev "
                      "WHERE (w = 1 OR w = -1) AND d = 2 AND id >= 2")
        assert sorted(indexed) == sorted(scanned)
        assert len(indexed) == 2

    def test_exclusive_bounds(self, world):
        _engine, run = world
        assert run("SELECT id FROM ev WHERE w = 1 AND d = 1 "
                   "AND id > 1 AND id < 3") == [(2,)]


# ---------------------------------------------------------------------------
# Index-only scans
# ---------------------------------------------------------------------------


class TestIndexOnly:
    def test_covering_projection_marks_index_only(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT id, d FROM ev WHERE w = 1 AND d = 2")
        assert any("index-only" in line for line in plan)

    def test_non_covering_reads_heap(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2")
        assert not any("index-only" in line for line in plan)

    def test_index_only_rows_and_counter(self, world):
        engine, run = world
        before = engine.meter.executor_stats.get("index_only_scans", 0)
        assert run("SELECT id FROM ev WHERE w = 2 AND d = 1 "
                   "ORDER BY id") == [(1,), (2,), (3,)]
        after = engine.meter.executor_stats.get("index_only_scans", 0)
        assert after == before + 1

    def test_covering_aggregate_is_index_only(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT count(*) FROM ev WHERE w = 1")
        assert any("index-only" in line for line in plan)
        assert run("SELECT count(*) FROM ev WHERE w = 1") == [(6,)]


# ---------------------------------------------------------------------------
# Sort elimination
# ---------------------------------------------------------------------------


class TestSortElimination:
    def test_order_by_key_suffix_drops_sort(self, world):
        engine, run = world
        sql = "SELECT v FROM ev WHERE w = 1 AND d = 2 ORDER BY id"
        plan = plan_of(run, sql)
        assert not any("Sort" in line for line in plan)
        # The stat is execution-time (EXPLAIN alone must not tick it).
        before = engine.meter.executor_stats.get("sort_eliminations", 0)
        assert run(sql) == [(121,), (122,), (123,)]
        assert engine.meter.executor_stats["sort_eliminations"] == before + 1

    def test_sort_elimination_counts_per_execution_from_plan_cache(self):
        # Unlike the shared fixture, this engine caches plans — the
        # counter must tick on cache hits too, in step with the
        # executor's other per-execution scan counters.
        engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=16)
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE pc (a INT NOT NULL, b INT NOT NULL, "
                       "PRIMARY KEY (a, b))", session)
        engine.execute("INSERT INTO pc VALUES (1, 2), (1, 1)", session)
        sql = "SELECT b FROM pc WHERE a = 1 ORDER BY b"
        for expected in (1, 2, 3):
            rows = engine.execute(sql, session).fetch_all()
            assert rows == [(1,), (2,)]
            assert engine.meter.executor_stats["sort_eliminations"] \
                == expected
        assert engine.meter.counters.get("plan_cache_hits", 0) >= 2

    def test_equality_pinned_columns_may_appear_anywhere(self, world):
        _engine, run = world
        # d and w are single-valued under the equality prefix, so
        # ORDER BY d, id, w is still satisfied by the scan.
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "ORDER BY d, id, w")
        assert not any("Sort" in line for line in plan)

    def test_descending_keeps_sort(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "ORDER BY id DESC")
        assert any("Sort" in line for line in plan)

    def test_order_mismatch_keeps_sort(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 ORDER BY id")
        assert any("Sort" in line for line in plan)

    def test_eliminated_sort_rows_are_ordered(self, world):
        _engine, run = world
        assert run("SELECT id, v FROM ev WHERE w = 2 AND d = 2 "
                   "ORDER BY id") == [(1, 221), (2, 222), (3, 223)]

    def test_alias_shadowing_keeps_sort(self, world):
        _engine, run = world
        # ``id`` in ORDER BY resolves to the output alias (v AS id), so
        # the scan's key order does NOT satisfy it.
        sql = ("SELECT v AS id FROM ev WHERE w = 1 AND d = 2 "
               "ORDER BY id")
        plan = plan_of(run, sql)
        assert any("Sort" in line for line in plan)
        assert run(sql) == [(121,), (122,), (123,)]


# ---------------------------------------------------------------------------
# NULL in indexed columns (non-unique indexes store a NULL sentinel)
# ---------------------------------------------------------------------------


class TestNullIndexKeys:
    @pytest.fixture
    def nworld(self):
        engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=0)
        session = EngineSession(session_id=1)

        def run(sql):
            result = engine.execute(sql, session)
            if result.kind == "rows":
                return result.fetch_all()
            if result.kind == "rowcount":
                return result.rowcount
            return None

        run("CREATE TABLE nx (id INT NOT NULL, grp INT, "
            "PRIMARY KEY (id))")
        run("INSERT INTO nx VALUES (1, 5), (2, NULL), (3, 5)")
        return engine, run

    def test_create_index_over_null_rows(self, nworld):
        _engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")  # used to TypeError
        assert sorted(run("SELECT id FROM nx WHERE grp = 5")) \
            == [(1,), (3,)]

    def test_insert_null_into_indexed_column(self, nworld):
        _engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")
        assert run("INSERT INTO nx VALUES (4, NULL)") == 1
        assert sorted(run("SELECT id FROM nx WHERE grp IS NULL")) \
            == [(2,), (4,)]

    def test_upper_bounded_range_excludes_null(self, nworld):
        # `grp <= 10` is consumed by the range scan (no residual
        # filter), so the scan itself must not leak the NULL-sentinel
        # keys that sort below every value.
        engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")
        assert sorted(run("SELECT id FROM nx WHERE grp <= 10")) \
            == [(1,), (3,)]
        assert run("SELECT id FROM nx WHERE grp >= 0 AND grp <= 10 "
                   "ORDER BY grp") == [(1,), (3,)]
        # Same property asserted on the operator directly, independent
        # of whether the planner picks the index for a bare upper bound.
        from repro.sql.executor import IndexSeek, run_plan

        table = engine._tables["nx"]
        hi_only = IndexSeek(table, "ix_nx", prefix_fns=[],
                            hi_fn=lambda ctx: 10)
        assert sorted(row[0] for row in run_plan(hi_only, None)) == [1, 3]

    def test_seek_binding_null_matches_nothing(self, nworld):
        # SQL three-valued logic: a seek whose prefix or bound value
        # evaluates to NULL short-circuits to zero matches.
        from repro.sql.executor import IndexSeek, run_plan

        engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")
        table = engine._tables["nx"]
        eq_null = IndexSeek(table, "ix_nx", prefix_fns=[lambda ctx: None])
        assert run_plan(eq_null, None) == []
        lt_null = IndexSeek(table, "ix_nx", prefix_fns=[],
                            hi_fn=lambda ctx: None)
        assert run_plan(lt_null, None) == []

    def test_unique_index_still_rejects_null(self, nworld):
        from repro.errors import ConstraintError

        _engine, run = nworld
        run("CREATE TABLE ux (id INT NOT NULL, tag INT, "
            "PRIMARY KEY (id))")
        run("CREATE UNIQUE INDEX ux_tag ON ux (tag)")
        with pytest.raises(ConstraintError):
            run("INSERT INTO ux VALUES (1, NULL)")


# ---------------------------------------------------------------------------
# Asynchronous commit
# ---------------------------------------------------------------------------


def _commit_burst(window: float, commits: int = 10):
    engine = DatabaseEngine(
        meter=Meter(CostModel(async_commit_window_seconds=window)))
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE gc (a INT)", session)
    base = dict(engine.meter.counters)
    for i in range(commits):
        engine.execute(f"INSERT INTO gc VALUES ({i})", session)
    delta = {k: v - base.get(k, 0)
             for k, v in engine.meter.counters.items()
             if v != base.get(k, 0)}
    return engine, session, delta


class TestAsyncCommit:
    def test_window_zero_forces_every_commit(self):
        _engine, _session, delta = _commit_burst(0.0)
        assert delta.get("log_forces", 0) >= 10
        assert "async_commit_deferrals" not in delta
        assert "async_commit_windows" not in delta

    def test_window_defers_commit_forces(self):
        # The CREATE TABLE commit (before the snapshot) opens the first
        # window, so with a huge window every insert commit is deferred.
        _engine, _session, delta = _commit_burst(10.0)
        deferrals = delta.get("async_commit_deferrals", 0)
        windows = delta.get("async_commit_windows", 0)
        assert deferrals + windows == 10
        assert deferrals >= 9
        assert delta.get("log_forces", 0) <= 1

    def test_deferred_commits_still_readable_and_durable_later(self):
        engine, session, _delta = _commit_burst(10.0)
        # Deferred commits ride the volatile tail until any real force
        # (here: a checkpoint's page flushes) lands them.
        engine.checkpoint()
        assert engine.wal.flushed_lsn == engine.wal.last_lsn
        rows = engine.execute("SELECT count(*) FROM gc",
                              session).fetch_all()
        assert rows == [(10,)]

    def test_crash_inside_window_loses_acked_commits(self):
        # The documented durability bound: a crash inside the window
        # discards commits that were already acknowledged, and closes
        # the open deferral window.
        engine, _session, _delta = _commit_burst(10.0)
        lost = engine.wal.crash()
        assert lost > 0
        assert engine.wal._async_deadline == 0.0

    def test_sys_executor_exposes_async_commit(self):
        engine, session, _delta = _commit_burst(10.0)
        stats = dict(engine.execute(
            "SELECT metric, value FROM sys_executor", session).fetch_all())
        assert stats.get("async_commit_deferrals", 0) >= 9


# ---------------------------------------------------------------------------
# sys_indexes entries column
# ---------------------------------------------------------------------------


def test_sys_indexes_reports_entry_counts(world):
    _engine, run = world
    rows = {name: (cols, entries)
            for name, _t, cols, _u, entries in run(
                "SELECT name, table_name, column_names, is_unique, "
                "entries FROM sys_indexes")}
    assert rows["__pk_ev"][1] == 12
