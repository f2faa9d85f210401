"""Crash/restart recovery tests at the engine level.

These drive the core durability contract Phoenix depends on: committed
tables survive any crash, uncommitted work never does, and recovery is
idempotent.
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.server.server import DatabaseServer
from repro.sim.meter import Meter


class CrashHarness:
    """Owns the durable parts (disk + log) across engine incarnations."""

    def __init__(self):
        self.meter = Meter()
        self.engine = DatabaseEngine(meter=self.meter)
        self.disk = self.engine.disk
        self.wal = self.engine.wal
        self.session = EngineSession(session_id=1)

    def run(self, sql, params=None):
        result = self.engine.execute(sql, self.session, params)
        if result.kind == "rows":
            return result.fetch_all()
        if result.kind == "rowcount":
            return result.rowcount
        return None

    def crash(self):
        """Power-cut: volatile state dies, disk and forced log survive."""
        self.wal.crash()
        self.engine.buffer_pool.crash()
        self.engine = None
        self.session = EngineSession(session_id=self.session.session_id + 1)

    def restart(self):
        self.engine = DatabaseEngine.restart(self.disk, self.wal,
                                             meter=self.meter)
        return self.engine.last_recovery


@pytest.fixture
def harness():
    return CrashHarness()


class TestCrashRecovery:
    def test_committed_insert_survives(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1), (2)")
        harness.crash()
        harness.restart()
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_committed_without_checkpoint_survives(self, harness):
        """No checkpoint ever taken: redo must replay from the log start."""
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (7)")
        assert harness.engine.buffer_pool.dirty_pages > 0  # nothing flushed
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM t") == [(7,)]

    def test_uncommitted_insert_lost(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO t VALUES (99)")
        # Force so the loser's records are durable (otherwise they simply
        # vanish with the un-forced log tail — also a correct outcome,
        # covered by test_unforced_tail_is_lost).
        harness.engine.wal.force()
        harness.crash()
        report = harness.restart()
        assert harness.run("SELECT * FROM t") == []
        assert len(report.losers) == 1

    def test_uncommitted_update_rolled_back(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.run("BEGIN TRANSACTION")
        harness.run("UPDATE t SET a = 2")
        # Force the log so the loser's records are durable, then flush the
        # dirty page so the uncommitted value is physically on disk (steal).
        harness.engine.wal.force()
        harness.engine.buffer_pool.flush_all()
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM t") == [(1,)]

    def test_uncommitted_delete_rolled_back(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1), (2)")
        harness.run("BEGIN TRANSACTION")
        harness.run("DELETE FROM t WHERE a = 1")
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_checkpoint_then_more_work(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.engine.checkpoint()
        harness.run("INSERT INTO t VALUES (2)")
        harness.crash()
        report = harness.restart()
        assert report.checkpoint_lsn > 0
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_table_created_after_checkpoint_survives(self, harness):
        harness.run("CREATE TABLE a (x INT)")
        harness.engine.checkpoint()
        harness.run("CREATE TABLE b (y INT)")
        harness.run("INSERT INTO b VALUES (5)")
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM b") == [(5,)]

    def test_dropped_table_stays_dropped(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.engine.checkpoint()
        harness.run("DROP TABLE t")
        harness.crash()
        harness.restart()
        from repro.errors import TableNotFoundError

        with pytest.raises(TableNotFoundError):
            harness.run("SELECT * FROM t")

    def test_unforced_tail_is_lost(self, harness):
        """Work whose commit never forced the log does not survive.

        (Commits always force, so build the scenario manually: append a
        record without forcing.)"""
        harness.run("CREATE TABLE t (a INT)")
        harness.engine.wal.force()
        flushed = harness.engine.wal.flushed_lsn
        from repro.wal.records import BeginRecord

        harness.engine.wal.append(BeginRecord(txn_id=12345))
        lost = harness.wal.crash()
        assert lost == 1
        assert harness.wal.last_lsn == flushed

    def test_temp_tables_do_not_survive(self, harness):
        harness.run("CREATE TABLE #probe (a INT)")
        harness.run("INSERT INTO #probe VALUES (1)")
        harness.crash()
        harness.restart()
        from repro.errors import TableNotFoundError

        with pytest.raises(TableNotFoundError):
            harness.run("SELECT * FROM #probe")

    def test_procedures_survive(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("CREATE PROCEDURE fill (@v INT) AS "
                    "INSERT INTO t VALUES (@v)")
        harness.crash()
        harness.restart()
        harness.run("EXEC fill 3")
        assert harness.run("SELECT * FROM t") == [(3,)]

    def test_secondary_index_rebuilt(self, harness):
        harness.run("CREATE TABLE t (a INT, b INT)")
        harness.run("CREATE INDEX ix_b ON t (b)")
        harness.run("INSERT INTO t VALUES (1, 10), (2, 20)")
        harness.crash()
        harness.restart()
        assert harness.run("SELECT a FROM t WHERE b = 20") == [(2,)]

    def test_pk_index_rebuilt_and_enforced(self, harness):
        harness.run("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        harness.run("INSERT INTO t VALUES (1)")
        harness.crash()
        harness.restart()
        from repro.errors import ConstraintError

        with pytest.raises(ConstraintError):
            harness.run("INSERT INTO t VALUES (1)")

    def test_recovery_is_idempotent(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO t VALUES (2)")
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        # Crash immediately after recovery and recover again.
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM t") == [(1,)]

    def test_double_crash_with_new_work_between(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.crash()
        harness.restart()
        harness.run("INSERT INTO t VALUES (2)")
        harness.crash()
        harness.restart()
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_txn_ids_not_reused_after_crash(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO t VALUES (1)")
        loser_id = harness.session.current_txn.txn_id
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        new_txn = harness.engine.txns.begin()
        assert new_txn.txn_id > loser_id
        harness.engine.txns.commit(new_txn)

    def test_many_rows_across_checkpoint(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        for i in range(50):
            harness.run(f"INSERT INTO t VALUES ({i})")
            if i == 25:
                harness.engine.checkpoint()
        harness.crash()
        harness.restart()
        rows = harness.run("SELECT count(*) FROM t")
        assert rows == [(50,)]


@pytest.mark.xfail(strict=True, reason=(
    "known gap: DatabaseEngine.restart builds a default 4096-page "
    "BufferPool, so a configured pool capacity is lost at the first "
    "crash; fixing it moves crash-recover's virtual numbers"))
def test_restart_keeps_configured_pool_capacity():
    server = DatabaseServer(meter=Meter())
    server.engine.buffer_pool.capacity_pages = 48
    server.crash()
    server.restart()
    assert server.engine.buffer_pool.capacity_pages == 48
