"""Hierarchical row-level locking: modes, deadlocks, escalation, TPC-C.

Covers the lock manager in isolation (compatibility matrix, the update
mode U, conflict reporting, wait-for-graph cycle detection, escalation),
the engine integration under ``lock_granularity="row"`` (two-phase row
locking, update-intent reads, deadlock-victim sessions, the
``sys_locks`` view), and the interleaved multi-session TPC-C mix (row
locking must beat no-wait table locking in virtual-time makespan while
committing the exact same final state; parked sessions wake only when
their blockers end).
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import DeadlockError, LockWaitError
from repro.obs.latency import COMPONENTS, classify
from repro.sim.costs import SERVER_CPU, CostModel
from repro.sim.meter import Meter
from repro.txn.locks import LockManager, LockMode

IS = LockMode.INTENT_SHARED
IX = LockMode.INTENT_EXCLUSIVE
S = LockMode.SHARED
U = LockMode.UPDATE
X = LockMode.EXCLUSIVE


def row_lock_manager(threshold: int = 0) -> LockManager:
    costs = CostModel(lock_granularity="row",
                      lock_escalation_threshold=threshold)
    return LockManager(meter=Meter(costs))


class TestModeAlgebra:
    def test_intent_modes_coexist_with_row_activity(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IS)
        locks.acquire(2, "t", IX)
        locks.acquire(3, "t", IS)
        # Row locks under the intent modes: disjoint rows never touch.
        locks.acquire_row(2, "t", (1,), X)
        locks.acquire_row(3, "t", (2,), S)
        assert locks.held(1, "t") is IS
        assert locks.held(2, "t") is IX

    def test_shared_table_lock_blocks_intent_exclusive(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", S)
        with pytest.raises(LockWaitError):
            locks.acquire(2, "t", IX)

    def test_same_txn_upgrade_merges_to_supremum(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", S)
        locks.acquire(1, "t", IX)  # {S, IX} -> X
        assert locks.held(1, "t") is X

    def test_table_exclusive_subsumes_row_requests(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", X)
        locks.acquire_row(1, "t", (7,), X)
        # Subsumed by the table lock: no separate row lock recorded.
        assert locks.row_lock_count(1, "t") == 0

    def test_row_writers_on_distinct_rows_do_not_conflict(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", (1,), X)
        locks.acquire_row(2, "t", (2,), X)
        assert locks.row_holders("t", (1,)) == {1: X}
        assert locks.row_holders("t", (2,)) == {2: X}


class TestUpdateMode:
    """U: a read that intends to write.  Shares rows with readers, but
    only one transaction at a time may hold it."""

    @staticmethod
    def holding(held: LockMode) -> LockManager:
        locks = row_lock_manager()
        locks.acquire(1, "t", IS)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("r",), held)
        return locks

    @pytest.mark.parametrize("held, requested, granted", [
        (S, U, True), (U, S, True),
        (U, U, False), (U, X, False), (X, U, False)])
    def test_compatibility_both_directions(self, held, requested,
                                           granted):
        locks = self.holding(held)
        if granted:
            locks.acquire_row(2, "t", ("r",), requested)
            assert locks.row_holders("t", ("r",)) == {1: held,
                                                      2: requested}
        else:
            with pytest.raises(LockWaitError):
                locks.acquire_row(2, "t", ("r",), requested)
            assert locks.waiting_for(2) == frozenset({1})

    def test_same_txn_shared_to_update_to_exclusive(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IX)
        locks.acquire_row(1, "t", ("r",), S)
        locks.acquire_row(1, "t", ("r",), U)
        assert locks.row_holders("t", ("r",)) == {1: U}
        locks.acquire_row(1, "t", ("r",), S)  # covered: stays U
        assert locks.row_holders("t", ("r",)) == {1: U}
        locks.acquire_row(1, "t", ("r",), X)
        assert locks.row_holders("t", ("r",)) == {1: X}
        locks.acquire_row(1, "t", ("r",), U)  # covered: stays X
        assert locks.row_holders("t", ("r",)) == {1: X}
        assert locks.row_lock_count(1, "t") == 1

    def test_update_rows_escalate_to_table_exclusive(self):
        """A U row counts as an X row: escalating to table S would bring
        back the S->X conversion U exists to avoid."""
        locks = row_lock_manager(threshold=2)
        locks.acquire(1, "t", IS)
        locks.acquire_row(1, "t", (0,), S)
        for key in (1, 2):
            locks.acquire_row(1, "t", (key,), U)
        assert locks.held(1, "t") is X
        assert locks.row_lock_count(1, "t") == 0


class TestConflictReporting:
    """The seed's conflict message always claimed an X blocker — wrong
    whenever the holder blocks with a *shared* lock (S vs X upgrade)."""

    def test_shared_holder_is_reported_as_shared(self):
        locks = LockManager()  # table granularity, seed no-wait
        locks.acquire(1, "t", S)
        with pytest.raises(DeadlockError) as info:
            locks.acquire(2, "t", X)
        message = str(info.value)
        assert "S lock" in message
        assert "txn 1" in message
        assert "X lock" not in message

    def test_multiple_holders_list_all_modes_and_txns(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IS)
        locks.acquire(2, "t", S)
        with pytest.raises(LockWaitError) as info:
            locks.acquire(3, "t", X)
        message = str(info.value)
        assert "IS,S locks held by" in message
        assert "txns 1, 2" in message


class TestDeadlockDetection:
    def test_two_cycle_aborts_youngest(self):
        aborted = []
        locks = row_lock_manager()
        locks.on_victim = lambda txn_id: (aborted.append(txn_id),
                                          locks.release_all(txn_id))
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        locks.acquire_row(2, "t", ("b",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("a",), X)  # 2 waits on 1
        with pytest.raises(LockWaitError) as info:
            locks.acquire_row(1, "t", ("b",), X)  # closes the cycle
        # Youngest (largest txn id) dies; the requester just retries.
        assert aborted == [2]
        assert "aborting txn 2" in str(info.value)
        locks.acquire_row(1, "t", ("b",), X)  # victim's locks are gone

    def test_requester_as_youngest_gets_deadlock_error(self):
        locks = row_lock_manager()
        locks.on_victim = lambda txn_id: locks.release_all(txn_id)
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        locks.acquire_row(2, "t", ("b",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(1, "t", ("b",), X)  # 1 waits on 2
        with pytest.raises(DeadlockError) as info:
            locks.acquire_row(2, "t", ("a",), X)  # requester is youngest
        assert "deadlock victim" in str(info.value)
        # The victim's own wait is deregistered; txn 1 still waits.
        assert locks.waiting_for(2) is None
        assert locks.waiting_for(1) == frozenset({2})

    def test_three_cycle_detected(self):
        aborted = []
        locks = row_lock_manager()
        locks.on_victim = lambda txn_id: (aborted.append(txn_id),
                                          locks.release_all(txn_id))
        for txn, row in ((1, "a"), (2, "b"), (3, "c")):
            locks.acquire(txn, "t", IX)
            locks.acquire_row(txn, "t", (row,), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("a",), X)  # 2 -> 1
        with pytest.raises(LockWaitError):
            locks.acquire_row(3, "t", ("b",), X)  # 3 -> 2
        with pytest.raises(LockWaitError):
            locks.acquire_row(1, "t", ("c",), X)  # 1 -> 3: cycle, kill 3
        assert aborted == [3]

    def test_pure_shared_load_never_detects_deadlocks(self):
        locks = row_lock_manager()
        meter = locks._meter
        for txn in (1, 2, 3):
            locks.acquire(txn, "t", IS)
            locks.acquire_row(txn, "t", ("hot",), S)
        # A writer waiting on shared holders is a plain wait, no cycle.
        locks.acquire(4, "t", IX)
        with pytest.raises(LockWaitError):
            locks.acquire_row(4, "t", ("hot",), X)
        assert meter.counters.get("locks.deadlocks_detected", 0) == 0

    def test_wait_is_over_once_every_blocker_ends(self):
        locks = row_lock_manager()
        for txn in (1, 2):
            locks.acquire(txn, "t", IS)
            locks.acquire_row(txn, "t", ("hot",), S)
        locks.acquire(3, "t", IX)
        with pytest.raises(LockWaitError):
            locks.acquire_row(3, "t", ("hot",), X)
        assert not locks.wait_over(3)
        locks.release_all(1)
        assert not locks.wait_over(3)  # txn 2 still holds its S
        locks.release_all(2)
        assert locks.wait_over(3)
        locks.acquire(4, "t", IX)
        locks.acquire_row(4, "t", ("hot",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(3, "t", ("hot",), X)
        locks.release_all(3)  # the waiter itself ends (victim abort)
        assert locks.wait_over(3)

    def test_finished_blockers_are_dead_ends_not_cycles(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("a",), X)  # 2 waits on 1
        locks.release_all(1)  # 1 finishes; 2's wait entry goes stale
        # A new conflict whose DFS crosses the stale edge finds no cycle.
        locks.acquire(3, "t", IX)
        locks.acquire_row(3, "t", ("b",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("b",), X)
        assert locks._meter.counters.get("locks.deadlocks_detected",
                                         0) == 0


class TestEscalation:
    def test_row_locks_escalate_past_threshold(self):
        locks = row_lock_manager(threshold=4)
        locks.acquire(1, "t", IX)
        for key in range(4):
            locks.acquire_row(1, "t", (key,), X)
        assert locks.held(1, "t") is IX  # at the threshold: not yet
        locks.acquire_row(1, "t", (4,), X)  # past it: trade up
        assert locks.held(1, "t") is X
        assert locks.row_lock_count(1, "t") == 0
        assert locks._meter.counters["locks.escalations"] == 1.0

    def test_shared_only_rows_escalate_to_shared(self):
        locks = row_lock_manager(threshold=2)
        locks.acquire(1, "t", IS)
        for key in range(3):
            locks.acquire_row(1, "t", (key,), S)
        assert locks.held(1, "t") is S

    def test_escalation_skipped_while_other_txn_holds_intent(self):
        locks = row_lock_manager(threshold=2)
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)  # would conflict with an escalated X
        locks.acquire_row(2, "t", (99,), X)
        for key in range(3):
            locks.acquire_row(1, "t", (key,), X)
        assert locks.held(1, "t") is IX  # escalation deferred
        assert locks.row_lock_count(1, "t") == 3


def row_world():
    costs = CostModel(lock_granularity="row")
    engine = DatabaseEngine(meter=Meter(costs))
    alice = EngineSession(session_id=1)
    bob = EngineSession(session_id=2)
    engine.execute("CREATE TABLE acct (id INT NOT NULL, bal INT, "
                   "PRIMARY KEY (id))", alice)
    engine.execute("INSERT INTO acct VALUES (1, 100), (2, 200), "
                   "(3, 300)", alice)
    return engine, alice, bob


def run(engine, session, sql):
    result = engine.execute(sql, session)
    if result.kind == "rows":
        return result.fetch_all()
    if result.kind == "rowcount":
        return result.rowcount
    return None


class TestRowModeEngine:
    def test_writers_on_distinct_rows_proceed(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        # Under the seed's table locks this raised DeadlockError.
        assert run(engine, bob,
                   "UPDATE acct SET bal = 5 WHERE id = 2") == 1
        run(engine, alice, "COMMIT")
        run(engine, bob, "COMMIT")
        assert run(engine, alice,
                   "SELECT bal FROM acct ORDER BY id") == \
            [(0,), (5,), (300,)]

    def test_writers_on_same_row_wait(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 5 WHERE id = 1")
        # The waiter keeps its transaction and retries after commit.
        run(engine, alice, "COMMIT")
        assert run(engine, bob,
                   "UPDATE acct SET bal = 5 WHERE id = 1") == 1
        run(engine, bob, "COMMIT")
        assert run(engine, alice,
                   "SELECT bal FROM acct WHERE id = 1") == [(5,)]

    def test_update_locks_all_rows_before_mutating_any(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 3")
        run(engine, bob, "BEGIN TRANSACTION")
        # Bob's multi-row update overlaps alice's locked row: it must
        # wait *without* applying the non-conflicting rows first, so the
        # eventual retry is not a double-application.
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = bal + 7")
        run(engine, alice, "COMMIT")
        assert run(engine, bob, "UPDATE acct SET bal = bal + 7") == 3
        run(engine, bob, "COMMIT")
        assert run(engine, alice,
                   "SELECT bal FROM acct ORDER BY id") == \
            [(107,), (207,), (7,)]

    def test_victim_session_fails_until_rollback(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")  # older txn
        run(engine, bob, "BEGIN TRANSACTION")    # younger: the victim
        run(engine, alice, "UPDATE acct SET bal = 1 WHERE id = 1")
        run(engine, bob, "UPDATE acct SET bal = 2 WHERE id = 2")
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 3 WHERE id = 1")
        # Alice closes the cycle; the detector aborts bob (younger) and
        # alice unwinds with a retryable wait.
        with pytest.raises(LockWaitError):
            run(engine, alice, "UPDATE acct SET bal = 4 WHERE id = 2")
        assert run(engine, alice,
                   "UPDATE acct SET bal = 4 WHERE id = 2") == 1
        # Bob's session is doomed until it acknowledges with ROLLBACK —
        # including for *cached* DML plans, which must not slip into a
        # fresh autocommit transaction.
        with pytest.raises(DeadlockError):
            run(engine, bob, "UPDATE acct SET bal = 9 WHERE id = 3")
        with pytest.raises(DeadlockError):
            run(engine, bob, "SELECT * FROM acct")
        run(engine, bob, "ROLLBACK")
        run(engine, alice, "COMMIT")
        # Bob's writes are gone; alice's survived.
        assert run(engine, bob,
                   "SELECT bal FROM acct ORDER BY id") == \
            [(1,), (4,), (300,)]

    def test_transactional_readers_take_row_shares(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        rows = run(engine, alice, "SELECT * FROM acct WHERE id = 1")
        assert rows == [(1, 100)]
        txn = alice.current_txn
        assert engine.locks.row_holders("acct", (1,)) == \
            {txn.txn_id: S}
        # A shared row blocks a writer on that row but not on others.
        run(engine, bob, "BEGIN TRANSACTION")
        assert run(engine, bob,
                   "UPDATE acct SET bal = 9 WHERE id = 2") == 1
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 9 WHERE id = 1")
        run(engine, alice, "COMMIT")
        run(engine, bob, "ROLLBACK")

    def test_writer_reads_with_update_intent(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        assert run(engine, alice, "SELECT bal FROM acct WHERE id = 2") \
            == [(200,)]
        txn = alice.current_txn
        assert engine.locks.row_holders("acct", (2,)) == {txn.txn_id: S}
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, alice, "SELECT bal FROM acct WHERE id = 3")
        assert engine.locks.row_holders("acct", (3,)) == {txn.txn_id: U}
        rows = run(engine, bob, "SELECT table_name, granularity, "
                                "lock_key, mode, txn_id FROM sys_locks")
        assert ("acct", "row", "(3,)", "U", txn.txn_id) in rows
        run(engine, alice, "ROLLBACK")

    def test_read_only_reader_shares_an_update_locked_row(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, alice, "SELECT bal FROM acct WHERE id = 2")
        run(engine, bob, "BEGIN TRANSACTION")
        assert run(engine, bob, "SELECT bal FROM acct WHERE id = 2") == \
            [(200,)]
        assert engine.locks.row_holders("acct", (2,)) == {
            alice.current_txn.txn_id: U, bob.current_txn.txn_id: S}
        run(engine, bob, "COMMIT")
        # The U holder still converts to X once the reader is gone.
        assert run(engine, alice,
                   "UPDATE acct SET bal = 7 WHERE id = 2") == 1
        run(engine, alice, "COMMIT")

    def test_read_then_update_of_a_shared_row_queues_not_deadlocks(self):
        """Two writers read a shared row, then update it.  With S reads
        both would hold S and deadlock converting to X (the younger got
        40001); with U reads the second reader waits (HYT00) and both
        commit."""
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, bob, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
        run(engine, bob, "UPDATE acct SET bal = bal + 2 WHERE id = 2")
        assert run(engine, alice,
                   "SELECT bal FROM acct WHERE id = 3") == [(300,)]
        with pytest.raises(LockWaitError):
            run(engine, bob, "SELECT bal FROM acct WHERE id = 3")
        assert run(engine, alice,
                   "UPDATE acct SET bal = 301 WHERE id = 3") == 1
        run(engine, alice, "COMMIT")
        assert run(engine, bob,
                   "SELECT bal FROM acct WHERE id = 3") == [(301,)]
        assert run(engine, bob,
                   "UPDATE acct SET bal = 302 WHERE id = 3") == 1
        run(engine, bob, "COMMIT")
        assert run(engine, alice, "SELECT bal FROM acct ORDER BY id") == \
            [(101,), (202,), (302,)]
        assert engine.meter.counters.get("locks.deadlocks_detected",
                                         0) == 0

    def test_sys_locks_view_lists_table_and_row_locks(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 2")
        txn_id = alice.current_txn.txn_id
        rows = run(engine, bob, "SELECT table_name, granularity, "
                                "lock_key, mode, txn_id FROM sys_locks")
        assert ("acct", "table", "", "IX", txn_id) in rows
        assert ("acct", "row", "(2,)", "X", txn_id) in rows
        run(engine, alice, "ROLLBACK")
        assert run(engine, bob, "SELECT count(*) FROM sys_locks") == \
            [(0,)]

    def test_lock_counters_tick(self):
        engine, alice, _bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, alice, "COMMIT")
        assert engine.meter.counters["locks.row_locks_acquired"] >= 1


class TestTableModeUnchanged:
    def test_default_granularity_still_no_waits(self):
        engine = DatabaseEngine(meter=Meter())
        alice = EngineSession(session_id=1)
        bob = EngineSession(session_id=2)
        engine.execute("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY "
                       "(k))", alice)
        engine.execute("INSERT INTO t VALUES (1), (2)", alice)
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE t SET k = 3 WHERE k = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        with pytest.raises(DeadlockError):
            run(engine, bob, "UPDATE t SET k = 4 WHERE k = 2")
        run(engine, bob, "ROLLBACK")
        run(engine, alice, "ROLLBACK")
        # No row-lock machinery ticked on the default path.
        for counter in ("locks.row_locks_acquired", "locks.escalations",
                        "locks.deadlocks_detected",
                        "locks.lock_wait_seconds"):
            assert engine.meter.counters.get(counter, 0) == 0


class TestLatencyComponent:
    def test_lock_wait_is_a_ledger_component(self):
        assert "lock_wait" in COMPONENTS

    def test_scheduler_wait_charge_classifies_as_lock_wait(self):
        assert classify(SERVER_CPU, "lock wait") == "lock_wait"
        # Ordinary engine work is untouched.
        assert classify(SERVER_CPU, "row scan") == "engine_execute"


class TestConcurrentTpcc:
    @pytest.fixture(scope="class")
    def mixes(self):
        from repro.workloads.tpcc.concurrent import (
            ConcurrentMix, build_concurrent_world, digest_database)

        out = {}
        for leg, granularity, interleave in (
                ("serial", "table", False),
                ("table", "table", True),
                ("row", "row", True)):
            server, apps, plans, scale = build_concurrent_world(
                8, granularity, txns_per_session=2, items=60,
                customers_per_district=8, initial_orders_per_district=4)
            mix = ConcurrentMix(server, apps, plans, scale)
            result = (mix.run_interleaved() if interleave
                      else mix.run_serial())
            out[leg] = (result, digest_database(server.engine),
                        dict(server.meter.counters))
        return out

    def test_row_locking_beats_table_locking(self, mixes):
        table = mixes["table"][0]
        row = mixes["row"][0]
        assert row.makespan_seconds < table.makespan_seconds
        # The win comes from waiting instead of abort-and-retry.
        assert table.txn_retries > row.txn_retries
        assert row.lock_waits > 0

    def test_all_legs_commit_identical_final_state(self, mixes):
        serial_digest = mixes["serial"][1]
        assert mixes["table"][1] == serial_digest
        assert mixes["row"][1] == serial_digest
        # And everything actually committed.
        serial = mixes["serial"][0]
        assert serial.committed + serial.rolled_back == 16
        for leg in ("table", "row"):
            assert mixes[leg][0].committed == serial.committed

    def test_row_leg_counters_recorded(self, mixes):
        counters = mixes["row"][2]
        assert counters.get("locks.row_locks_acquired", 0) > 0
        assert counters.get("locks.lock_wait_seconds", 0) > 0
        serial_counters = mixes["serial"][2]
        assert serial_counters.get("locks.row_locks_acquired", 0) == 0

    def test_interleaved_runs_are_reproducible(self, mixes):
        from repro.workloads.tpcc.concurrent import (
            ConcurrentMix, build_concurrent_world, digest_database)

        server, apps, plans, scale = build_concurrent_world(
            8, "row", txns_per_session=2, items=60,
            customers_per_district=8, initial_orders_per_district=4)
        mix = ConcurrentMix(server, apps, plans, scale)
        result = mix.run_interleaved()
        reference = mixes["row"][0]
        assert result.makespan_seconds == reference.makespan_seconds
        assert digest_database(server.engine) == mixes["row"][1]


def scripted_mix(monkeypatch, scripts, granularity="row"):
    """A ConcurrentMix over the TPC-C world whose sessions each run one
    scripted transaction: ``scripts[i]`` is session i's statement list
    (all ``("stmt", sql)``)."""
    from repro.workloads.tpcc import concurrent

    def body(desc, w, d, scale):
        for statement in desc["statements"]:
            yield statement
        return "committed"

    monkeypatch.setitem(concurrent._BODIES, "script", body)
    server, apps, _plans, scale = concurrent.build_concurrent_world(
        len(scripts), granularity, txns_per_session=1, items=20,
        customers_per_district=4, initial_orders_per_district=2)
    plans = [[{"kind": "script",
               "statements": [("stmt", sql) for sql in script]}]
             for script in scripts]
    mix = concurrent.ConcurrentMix(server, apps, plans, scale)
    attempts = []
    execute = mix._execute

    def counting_execute(app, kind, sql):
        attempts.append((apps.index(app), sql))
        return execute(app, kind, sql)

    monkeypatch.setattr(mix, "_execute", counting_execute)
    return mix, attempts


class TestWakeOnRelease:
    BUMP_W1 = "UPDATE warehouse SET w_ytd = w_ytd + {} WHERE w_id = 1"
    READ_ITEM = "SELECT i_price FROM item WHERE i_id = 1"

    def test_waiter_sleeps_through_unrelated_commits(self, monkeypatch):
        """B waits on A's warehouse row; C commits twice meanwhile.  B
        retries its update only once A has ended."""
        a = ["BEGIN TRANSACTION", self.BUMP_W1.format(1)] \
            + [self.READ_ITEM] * 4 + ["COMMIT"]
        b = ["BEGIN TRANSACTION", self.BUMP_W1.format(2), "COMMIT"]
        c = ["BEGIN TRANSACTION",
             "UPDATE district SET d_ytd = d_ytd + 1 "
             "WHERE d_w_id = 1 AND d_id = 3", "COMMIT"]
        mix, attempts = scripted_mix(monkeypatch, [a, b, c])
        result = mix.run_interleaved()
        assert result.committed == 3
        assert result.lock_waits == 1
        assert result.forced_wakes == 0 and result.deadlocks == 0
        b_update = [i for i, (session, sql) in enumerate(attempts)
                    if session == 1 and sql == self.BUMP_W1.format(2)]
        assert len(b_update) == 2  # the wait, then one retry
        a_commit = attempts.index((0, "COMMIT"))
        c_commit = attempts.index((2, "COMMIT"))
        assert b_update[0] < c_commit < a_commit < b_update[1]

    def test_forced_wake_recovers_a_missed_wakeup(self, monkeypatch):
        """Sessions parked with no transaction left to end them are woken
        by the stall breaker, once, and then finish."""
        mix, _attempts = scripted_mix(
            monkeypatch, [["BEGIN TRANSACTION", self.READ_ITEM, "COMMIT"],
                          ["BEGIN TRANSACTION", "COMMIT"]])
        for session in mix.sessions:
            mix._park(session)
        result = mix.run_interleaved()
        assert result.forced_wakes == 1
        assert result.committed == 2

    def test_wait_on_a_blocker_that_never_ends_stalls(self, monkeypatch):
        """A blocker outside the mix never ends: forced wakes retry the
        waiter a bounded number of times, then the mix reports a stall."""
        mix, attempts = scripted_mix(
            monkeypatch, [["BEGIN TRANSACTION", self.BUMP_W1.format(1),
                           "COMMIT"]])
        outsider = EngineSession(session_id=99)
        engine = mix.server.engine
        run(engine, outsider, "BEGIN TRANSACTION")
        run(engine, outsider, self.BUMP_W1.format(5))
        with pytest.raises(RuntimeError, match="stalled"):
            mix.run_interleaved()
        assert mix.result.forced_wakes == 3
        assert attempts.count((0, self.BUMP_W1.format(1))) == 4
        run(engine, outsider, "ROLLBACK")

    def test_tpccbench_widths_need_no_forced_wakes(self):
        from repro.bench.__main__ import TPCCBENCH_LEGS, TPCCBENCH_SCALE
        from repro.workloads.tpcc.concurrent import (
            ConcurrentMix, build_concurrent_world)

        for sessions, txns in TPCCBENCH_LEGS:
            server, apps, plans, scale = build_concurrent_world(
                sessions, "row", txns_per_session=txns, **TPCCBENCH_SCALE)
            result = ConcurrentMix(server, apps, plans,
                                   scale).run_interleaved()
            assert result.forced_wakes == 0, sessions
            assert result.deadlocks == 0, sessions
            assert result.committed + result.rolled_back == sessions * txns
