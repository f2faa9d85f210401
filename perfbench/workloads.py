"""The benchmark's four workloads.

Each workload is a closed loop driven by one host thread: the client sends
its next statement only when the previous one has completed.  A workload
builds a fresh world from the seed (:meth:`setup`, timed as ``setup_s``),
runs its fixed input through the application driver managers (:meth:`run`,
the measured region), and then reads its outputs (:meth:`outputs`,
untimed), which must equal :meth:`reference` — the same input replayed
outside the timed region through a path that does not use the mechanism
under test.  Every world runs with the request latency ledger on.
"""

from __future__ import annotations

import hashlib
import random

from repro.bench.__main__ import TPCCBENCH_SCALE
from repro.bench.experiments import (
    _WALLCLOCK_PERSIST_QUERY as PERSIST_QUERY,
    _WALLCLOCK_POINT_QUERIES as POINT_QUERIES,
    DEFAULT_TPCC_SCALE,
    TARGET_SCALE,
    WALLCLOCK_ASYNC_COMMIT_WINDOW,
    tpcc_cost_model,
)
from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpcc.concurrent import (
    ConcurrentMix,
    build_concurrent_world,
    build_plans,
    digest_database,
    transaction_statements,
)
from repro.workloads.tpcc.datagen import generate_tpcc
from repro.workloads.tpcc.driver import choose_transaction
from repro.workloads.tpcc.schema import setup_tpcc_server
from repro.workloads.tpcc.transactions import TRANSACTIONS
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.queries import QUERIES
from repro.workloads.tpch.refresh import run_rf1, run_rf2
from repro.workloads.tpch.schema import setup_tpch_server


class WorkloadError(Exception):
    """A statement failed in a way the workload does not retry."""


class World:
    """One simulated world: a server and the application's connections."""

    def __init__(self, server: DatabaseServer, apps: list[BenchmarkApp],
                 **extra):
        self.server = server
        self.meter = server.meter
        self.apps = apps
        self.__dict__.update(extra)
        #: Buffer-pool hits/misses of engines lost to crashes.
        self.pool_hits = 0
        self.pool_misses = 0

    @property
    def managers(self):
        return [app.manager for app in self.apps]

    def pool_totals(self) -> tuple[int, int]:
        pool = self.server.engine.buffer_pool
        return self.pool_hits + pool.hits, self.pool_misses + pool.misses


def _rows_digest(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(repr(chunk).encode())
    return digest.hexdigest()


def _durable_digest(server: DatabaseServer) -> dict[str, str]:
    """Per-table content digests of the application's tables (Phoenix's
    own bookkeeping tables exist only in the Phoenix world)."""
    return {name: value for name, value
            in digest_database(server.engine).items()
            if not name.startswith(PhoenixConfig.table_prefix)}


def _execute(manager, conn, kind: str, sql: str):
    """One statement: exec_direct, fetch every row, free.  Returns the
    rows (queries) or ``()``; raises :class:`WorkloadError` carrying the
    SQLSTATE on failure."""
    statement = manager.alloc_statement(conn)
    state = None
    rows = []
    if manager.exec_direct(statement, sql) != SQL_SUCCESS:
        state = manager.get_diag(statement)[-1].sqlstate
    elif kind == "query":
        while True:
            rc, row = manager.fetch(statement)
            if rc == SQL_NO_DATA:
                break
            if rc != SQL_SUCCESS:
                state = manager.get_diag(statement)[-1].sqlstate
                break
            rows.append(row)
    manager.free_statement(statement)
    if state is not None:
        raise WorkloadError(state, sql[:120])
    return rows if kind == "query" else ()


def _reseed_values(plans: list[list[dict]], seed: int) -> None:
    """Redraw the descriptor values that do not decide which rows a
    transaction touches: payment amounts, order-line quantities, delivery
    carriers and stock-level thresholds."""
    rng = random.Random(seed)
    for desc in (desc for plan in plans for desc in plan):
        kind = desc["kind"]
        if kind == "new_order":
            desc["items"] = [(item, rng.randint(1, 10))
                             for item, _qty in desc["items"]]
        elif kind == "payment":
            desc["amount"] = rng.randint(1, 5000)
        elif kind == "delivery":
            desc["carrier"] = rng.randint(1, 10)
        elif kind == "stock_level":
            desc["threshold"] = rng.randint(10, 20)


def _native_reference(workload, seed: int) -> dict:
    """The same input through the native driver manager."""
    world = workload.setup(seed, phoenix=False)
    workload.run(world, seed, None)
    return workload.outputs(world)


# ---------------------------------------------------------------------------
# oltp-phoenix
# ---------------------------------------------------------------------------


class OltpPhoenix:
    """TPC-C transactions, then point selects, then persisted reports,
    all through Phoenix with the client, plan and metadata caches on and
    a 0.25 s async-commit window; 83 data pages against a 48-page pool."""

    name = "oltp-phoenix"
    scale = DEFAULT_TPCC_SCALE

    def __init__(self, txns: int = 240, point_reads: int = 4000,
                 persists: int = 16):
        self.txns = txns
        self.point_reads = point_reads
        self.persists = persists

    def setup(self, seed: int, phoenix: bool = True) -> World:
        costs = tpcc_cost_model(6.0)
        costs.async_commit_window_seconds = WALLCLOCK_ASYNC_COMMIT_WINDOW
        meter = Meter(costs)
        meter.enable_latency_ledger()
        server = DatabaseServer(meter=meter, plan_cache_capacity=128)
        server.engine.buffer_pool.capacity_pages = 48
        setup_tpcc_server(server, generate_tpcc(self.scale, seed=seed))
        if not phoenix:
            app = BenchmarkApp(server)
            return World(server, [app], persist_app=app)
        app = BenchmarkApp(server, use_phoenix=True,
                           phoenix_config=PhoenixConfig(
                               client_cache_rows=200,
                               metadata_cache_entries=256))
        # Client cache off: every report takes the full persistence path.
        persist_app = BenchmarkApp(server, use_phoenix=True,
                                   phoenix_config=PhoenixConfig(
                                       client_cache_rows=0,
                                       metadata_cache_entries=256))
        return World(server, [app, persist_app], persist_app=persist_app)

    def run(self, world: World, seed: int, clock) -> None:
        app, scale = world.apps[0], self.scale
        rng = random.Random(seed + 1)
        plan = [(choose_transaction(rng), rng.randint(1, scale.warehouses))
                for _ in range(self.txns)]
        for name, w_id in plan:
            TRANSACTIONS[name](app, rng, scale, w_id)
        digest = hashlib.sha256()
        for _ in range(self.point_reads):
            w = rng.randint(1, scale.warehouses)
            d = rng.randint(1, scale.districts_per_warehouse)
            c = rng.randint(1, scale.customers_per_district)
            i = rng.randint(1, scale.items)
            for template in POINT_QUERIES:
                digest.update(repr(app.query_rows(
                    template.format(w=w, d=d, c=c, i=i))).encode())
        for _ in range(self.persists):
            world.persist_app.run_query(PERSIST_QUERY, label="persist",
                                        fetch=False)
        world.point_rows = digest.hexdigest()

    def outputs(self, world: World) -> dict:
        return {"point_rows": world.point_rows,
                "database": _durable_digest(world.server)}

    reference = _native_reference


# ---------------------------------------------------------------------------
# olap-scan
# ---------------------------------------------------------------------------


class OlapScan:
    """The TPC-H power test through Phoenix: RF1, the 22 queries (every
    result persisted server-side), RF2.  SF 0.005 is about 620 data pages
    against a 256-page pool.

    The database is the repository's calibrated TPC-H world (data seed
    7, as in Table 1 and optbench); the workload seed draws the refresh
    set, which the queries then read.  Most other data seeds put parts
    under Q20's ``p_name LIKE 'standard%'`` filter, and the planner then
    re-runs Q20's correlated ``sum(l_quantity)`` subquery over lineitem
    for every qualifying partsupp row: minutes per query at this scale.
    """

    name = "olap-scan"
    scale = 0.005
    pool_pages = 256
    data_seed = 7

    def setup(self, seed: int, phoenix: bool = True) -> World:
        meter = Meter(CostModel(work_amplification=TARGET_SCALE
                                / self.scale))
        meter.enable_latency_ledger()
        server = DatabaseServer(meter=meter)
        # Shrunk before loading: eviction only happens on admission.
        server.engine.buffer_pool.capacity_pages = self.pool_pages
        data = generate(scale=self.scale, seed=self.data_seed)
        setup_tpch_server(server, data)
        app = BenchmarkApp(server, use_phoenix=phoenix)
        return World(server, [app], data=data)

    def run(self, world: World, seed: int, clock) -> None:
        app = world.apps[0]
        _timing, key_range = run_rf1(app, world.data, seed=seed + 1)
        world.query_rows = [app.query_rows(QUERIES[number])
                            for number in sorted(QUERIES)]
        run_rf2(app, key_range)

    def outputs(self, world: World) -> dict:
        # Compared by value, not by repr: Phoenix returns Q12's integer
        # sums from its persisted table as floats (35.0 for 35).
        return {"query_rows": world.query_rows,
                "database": _durable_digest(world.server)}

    reference = _native_reference


# ---------------------------------------------------------------------------
# crash-recover
# ---------------------------------------------------------------------------

#: Wider than the client cache, so Phoenix persists it server-side.
REPORT_QUERY = ("SELECT c_w_id, c_d_id, c_id, c_balance FROM customer "
                "ORDER BY c_w_id, c_d_id, c_id")
#: Report rows fetched after each transaction.
REPORT_PIECE = 8


class CrashRecover:
    """One Phoenix session replays TPC-C descriptors with synchronous
    commit while a persisted report is fetched in pieces alongside.

    The database and the descriptors are fixed (data seed 11, plan seed
    12); the workload seed redraws the descriptor values (see
    :func:`_reseed_values`) and picks the crashed transactions.

    The server is crashed and restarted at seeded request indices: the
    request after the ``UPDATE district`` of one seeded payment
    transaction in each of ``crashes`` equal slots of the run.  Every
    crash therefore aborts one transaction after the same three
    statements (``BEGIN`` and two updates, which restart recovery undoes;
    the transaction is replayed from its descriptor) and forces Phoenix
    to reopen and reposition the open report.  Crashes at arbitrary
    requests make the mean statement latency swing by +-40% between
    seeds, and crashes at a payment's ``COMMIT`` by +-12%: each replayed
    statement's latency includes the pause, so it depends on how many
    statements the aborted attempt had run.
    """

    name = "crash-recover"
    scale = DEFAULT_TPCC_SCALE
    data_seed = 11
    plan_seed = 12

    def __init__(self, txns: int = 240, crashes: int = 16):
        self.txns = txns
        self.crashes = crashes

    def setup(self, seed: int, crashes: bool = True) -> World:
        meter = Meter(tpcc_cost_model(6.0))   # synchronous commit
        meter.enable_latency_ledger()
        server = DatabaseServer(meter=meter, plan_cache_capacity=128)
        server.engine.buffer_pool.capacity_pages = 48
        setup_tpcc_server(server, generate_tpcc(self.scale,
                                                seed=self.data_seed))
        app = BenchmarkApp(server, use_phoenix=True,
                           phoenix_config=PhoenixConfig(
                               client_cache_rows=200))
        plans = build_plans(1, self.txns, self.scale, seed=self.plan_seed)
        _reseed_values(plans, seed)
        plan = plans[0]
        return World(server, [app], plan=plan,
                     crash_txns=self.crash_txns(seed, plan) if crashes
                     else set())

    def crash_txns(self, seed: int, plan: list[dict]) -> set[int]:
        """One seeded payment transaction in each of ``crashes`` slots."""
        rng = random.Random(seed * 7919 + 1)
        width = len(plan) // self.crashes
        chosen = set()
        for k in range(self.crashes):
            slot = range(k * width, (k + 1) * width)
            payments = [i for i in slot if plan[i]["kind"] == "payment"]
            if not payments:
                raise WorkloadError("crash", f"no payment in slot {k}")
            chosen.add(rng.choice(payments))
        return chosen

    def run(self, world: World, seed: int, clock) -> None:
        app, server = world.apps[0], world.server
        manager, conn = app.manager, app.conn
        pending = set(world.crash_txns)
        current = [-1]
        armed = [False]

        def injector(request):
            if current[0] not in pending:
                return
            if not armed[0]:
                armed[0] = getattr(request, "sql", "").startswith(
                    "UPDATE district")
            else:
                armed[0] = False
                pending.discard(current[0])
                pool = server.engine.buffer_pool
                world.pool_hits += pool.hits
                world.pool_misses += pool.misses
                if clock is not None:
                    clock.crashed()
                # A write-behind flush of the log tail just before the
                # crash: the loser's updates are durable, so restart
                # recovery must undo them.
                server.engine.wal.force(sync=False)
                server.crash()
                server.restart()
        app.network.fault_injector = injector
        seen = []
        report = None
        w_id, d_id = 1, 1
        for index, desc in enumerate(world.plan):
            current[0] = index
            while True:
                try:
                    seen.append(self._transaction(manager, conn, desc,
                                                  w_id, d_id))
                    break
                except WorkloadError as error:
                    if error.args[0] != "40001":
                        raise
                    # Aborted by the crash: roll back, replay.
                    statement = manager.alloc_statement(conn)
                    manager.exec_direct(statement, "ROLLBACK")
                    manager.free_statement(statement)
            report = self._report_piece(manager, conn, report, clock, seen)
        if report is not None:
            manager.free_statement(report)
        app.network.fault_injector = None
        if pending:
            raise WorkloadError("crash", f"{len(pending)} crashes missed")
        world.seen = seen

    def _transaction(self, manager, conn, desc, w_id, d_id):
        body = transaction_statements(desc, w_id, d_id, self.scale)
        seen = []
        reply = None
        while True:
            try:
                kind, sql = body.send(reply)
            except StopIteration as stop:
                return stop.value, seen
            reply = _execute(manager, conn, kind, sql)
            seen.append(reply)

    def _report_piece(self, manager, conn, report, clock, seen):
        if report is None:
            report = manager.alloc_statement(conn)
            if clock is not None:
                clock.ignore(report)
            if manager.exec_direct(report, REPORT_QUERY) != SQL_SUCCESS:
                raise WorkloadError(
                    manager.get_diag(report)[-1].sqlstate, REPORT_QUERY)
        piece = []
        for _ in range(REPORT_PIECE):
            rc, row = manager.fetch(report)
            if rc == SQL_NO_DATA:
                manager.free_statement(report)
                report = None
                break
            if rc != SQL_SUCCESS:
                raise WorkloadError(
                    manager.get_diag(report)[-1].sqlstate, REPORT_QUERY)
            piece.append(row)
        seen.append(("report", piece))
        return report

    def outputs(self, world: World) -> dict:
        return {"seen": _rows_digest(world.seen),
                "database": _durable_digest(world.server)}

    def reference(self, seed: int) -> dict:
        """The crash-free run (also the durability check: every
        acknowledged commit must survive the crashes)."""
        world = self.setup(seed, crashes=False)
        self.run(world, seed, None)
        return self.outputs(world)


# ---------------------------------------------------------------------------
# contended-rowlock
# ---------------------------------------------------------------------------

class ContendedRowlock:
    """The interleaved TPC-C mix: 32 in-process ODBC sessions stepped
    round-robin under row locking, in tpccbench's world.

    The world and the transaction descriptors are tpccbench's (data seed
    42, which also seeds the descriptors), so every seed runs the same conflict structure;
    the workload seed redraws the values that do not decide which rows a
    transaction touches: payment amounts, order-line quantities, delivery
    carriers and stock-level thresholds.  Across descriptor sets the
    deadlock-retry storm alone moves the makespan by about +-40% (at six
    transactions per session, 600 to 1150 retries for the same 192
    commits), and across databases by about 7%: more than a regression
    bound can absorb.
    """

    name = "contended-rowlock"
    data_seed = 42

    def __init__(self, sessions: int = 32, txns: int = 2):
        self.sessions = sessions
        self.txns = txns

    def setup(self, seed: int, granularity: str = "row") -> World:
        server, apps, plans, scale = build_concurrent_world(
            self.sessions, granularity, txns_per_session=self.txns,
            seed=self.data_seed, **TPCCBENCH_SCALE)
        server.meter.enable_latency_ledger()
        _reseed_values(plans, seed)
        return World(server, apps, plans=plans, scale=scale)

    def run(self, world: World, seed: int, clock) -> None:
        mix = ConcurrentMix(world.server, world.apps, world.plans,
                            world.scale)
        world.mix = mix.run_interleaved()

    def outputs(self, world: World) -> dict:
        return {"committed": world.mix.committed,
                "rolled_back": world.mix.rolled_back,
                "database": _durable_digest(world.server)}

    def reference(self, seed: int) -> dict:
        """A serial replay of the same descriptors under table locks."""
        world = self.setup(seed, granularity="table")
        mix = ConcurrentMix(world.server, world.apps, world.plans,
                            world.scale)
        world.mix = mix.run_serial()
        return self.outputs(world)


WORKLOADS = {workload.name: workload for workload in (
    OltpPhoenix(), OlapScan(), CrashRecover(), ContendedRowlock())}
