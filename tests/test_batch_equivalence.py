"""Batch executor vs. the recorded row-at-a-time engine: pinned goldens.

The executor runs batch-at-a-time; its row-at-a-time twin was deleted
once the two were proven equal.  ``executor_goldens.json`` holds the
virtual outputs both engines produced, bit for bit, at the last commit
that carried both: row streams (sha256 of their ``repr``), the virtual
clock (``float.hex``) and the meter's counters.  Every test here runs a
workload once and requires *exact* equality with that record, so any
drift means the batch engine charges differently from the row loop it
replaced.  A deliberate change to the virtual-time model re-records the
file from these same functions and says so in EXPERIMENTS.md.
"""

import hashlib
import json
import pathlib

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import PlanningError
from repro.sim.meter import Meter

GOLDENS = json.loads(
    (pathlib.Path(__file__).with_name("executor_goldens.json")).read_text())


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _virtual_outputs(rows, meter) -> dict:
    return {"rows": _digest(rows), "clock": meter.now.hex(),
            "counters": dict(meter.counters)}


# ---------------------------------------------------------------------------
# TPC-H power run
# ---------------------------------------------------------------------------


def _tpch_power_outputs(cost_mode: bool = False) -> dict:
    """Per-query row digests, final clock and counters of a small power
    run (SF 0.0005, seed 11, default pool)."""
    from repro.workloads.tpch.datagen import generate
    from repro.workloads.tpch.queries import QUERIES
    from repro.workloads.tpch.schema import create_schema, load

    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    create_schema(engine, session)
    load(engine, session, generate(scale=0.0005, seed=11))
    if cost_mode:
        engine.execute("ANALYZE", session)
        engine.meter.costs.optimizer_mode = "cost"
    rows = {f"Q{number:02d}": _digest(
        engine.execute(QUERIES[number], session).fetch_all())
        for number in sorted(QUERIES)}
    return {"rows": rows, "clock": engine.meter.now.hex(),
            "counters": dict(engine.meter.counters)}


@pytest.mark.parametrize("cost_mode", [False, True],
                         ids=["heuristic", "cost"])
def test_tpch_power_batch_vs_row_bit_identical(cost_mode):
    """Holds under the cost-based optimizer too: TopNHeapSort,
    SortMergeJoin and reordered joins charge what the row engine did."""
    got = _tpch_power_outputs(cost_mode)
    want = GOLDENS["tpch"]["cost" if cost_mode else "heuristic"]
    for query, digest in want["rows"].items():
        assert got["rows"][query] == digest, \
            f"rows diverged on TPC-H {query}"
    assert got["clock"] == want["clock"]
    assert got["counters"] == want["counters"]
    if cost_mode:
        assert got["counters"].get("optimizer.plans_costed", 0) > 0


# ---------------------------------------------------------------------------
# Phoenix crash fuzzer workload
# ---------------------------------------------------------------------------


def _crash_run(crash_at: int | None, prefetch: bool = False,
               result_cache: bool = False, cost_mode: bool = False) -> dict:
    """Observed app outputs, clock and counters of one crash-injected
    run."""
    from tests.test_phoenix_crash_fuzz import build_world, workload

    # The shared result cache admits via the §4 client cache, so the
    # cache-on variant turns both on — hits then bypass the server, and
    # the result_cache.* counters are pinned too.
    server, app = build_world(cache_rows=100 if result_cache else 0,
                              prefetch=prefetch,
                              result_cache=result_cache,
                              cost_mode=cost_mode)
    if crash_at is not None:
        fired = {"count": 0, "done": False}

        def injector(request):
            fired["count"] += 1
            if fired["count"] == crash_at and not fired["done"]:
                fired["done"] = True
                server.crash()
                server.restart()

        app.network.fault_injector = injector
    return _virtual_outputs(workload(app), app.meter)


@pytest.mark.parametrize("prefetch,result_cache,cost_mode",
                         [(False, False, False), (True, False, False),
                          (False, True, False), (False, False, True)],
                         ids=["seed", "prefetch", "shared-cache",
                              "cost"])
@pytest.mark.parametrize("crash_at", [None, 3, 7, 11])
def test_phoenix_crash_workload_batch_vs_row(request, crash_at, prefetch,
                                             result_cache, cost_mode):
    """Pinned with pipelined result delivery on (the overlap windows
    charge the recorded seconds), with the shared result cache (a hit
    skips the server) and with the cost-based optimizer."""
    key = request.node.callspec.id
    got = _crash_run(crash_at, prefetch, result_cache, cost_mode)
    want = GOLDENS["crash"][key]
    assert got["rows"] == want["rows"], f"observed outputs diverged ({key})"
    assert got["clock"] == want["clock"], f"virtual clock diverged ({key})"
    assert got["counters"] == want["counters"], f"counters diverged ({key})"


# ---------------------------------------------------------------------------
# Mixed DML + join workload on the bare engine
# ---------------------------------------------------------------------------


def _mixed_dml_outputs() -> dict:
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    run = lambda sql: engine.execute(sql, session)
    run("CREATE TABLE acct (id INT NOT NULL, owner VARCHAR(10), "
        "balance INT, PRIMARY KEY (id))")
    run("CREATE TABLE movement (acct_id INT, delta INT)")
    run("CREATE INDEX ix_move ON movement (acct_id)")
    run("INSERT INTO acct VALUES " + ", ".join(
        f"({i}, 'own{i % 3}', {i * 100})" for i in range(1, 21)))
    run("INSERT INTO movement VALUES " + ", ".join(
        f"({1 + (i * 7) % 20}, {(-1) ** i * i})" for i in range(40)))
    outputs = []
    for _ in range(3):  # repeat so the plan cache's hot path is exercised
        run("UPDATE acct SET balance = balance + 1 "
            "WHERE id IN (2, 4, 6, 8)")
        run("DELETE FROM movement WHERE delta = 0")
        run("INSERT INTO movement VALUES (3, 5), (9, -2)")
        outputs.append(run(
            "SELECT a.owner, count(*), sum(m.delta) "
            "FROM acct a, movement m WHERE a.id = m.acct_id "
            "GROUP BY a.owner ORDER BY a.owner").fetch_all())
        outputs.append(run(
            "SELECT id, balance FROM acct WHERE balance > 500 "
            "ORDER BY balance DESC").fetch_all())
    return _virtual_outputs(outputs, engine.meter)


def test_mixed_dml_batch_vs_row_bit_identical():
    assert _mixed_dml_outputs() == GOLDENS["mixed_dml"]


# ---------------------------------------------------------------------------
# Subqueries: operators that read their input one row at a time
# ---------------------------------------------------------------------------

#: One shape per place a subquery can sit.  Project, HashAggregate and
#: Filter read their input through ``_one_row_batches``; Sort and
#: TopNHeapSort evaluate keys after draining their input.
SUBQUERY_SHAPES = {
    "select-uncorrelated":
        "SELECT id, (SELECT max(v) FROM s) FROM s",
    "select-uncorrelated-where":
        "SELECT id, (SELECT max(v) FROM s) FROM s WHERE grp = 3",
    "select-correlated":
        "SELECT id, (SELECT count(*) FROM s s2 "
        "WHERE s2.grp = s.grp AND s2.v > s.v) FROM s",
    "select-correlated-where":
        "SELECT id, (SELECT max(s2.v) FROM s s2 WHERE s2.grp = s.grp) "
        "FROM s WHERE v > 600",
    "sum-subquery":
        "SELECT sum((SELECT max(s2.v) FROM s s2 WHERE s2.grp = s.grp)) "
        "FROM s",
    "sum-subquery-group-by":
        "SELECT grp, sum((SELECT min(s2.v) FROM s s2 "
        "WHERE s2.grp = s.grp)) FROM s GROUP BY grp ORDER BY grp",
    "order-by-subquery":
        "SELECT id FROM s ORDER BY (SELECT count(*) FROM s s2 "
        "WHERE s2.grp = s.grp AND s2.v < s.v), id",
    "order-by-subquery-top":
        "SELECT TOP 7 id, v FROM s ORDER BY (SELECT max(s2.v) FROM s s2 "
        "WHERE s2.grp = s.grp) DESC, id",
    "having-subquery":
        "SELECT grp, count(*) FROM s GROUP BY grp "
        "HAVING max(v) > (SELECT avg(v) FROM s) ORDER BY grp",
    "distinct-correlated-in":
        "SELECT DISTINCT (SELECT max(s2.v) FROM s s2 "
        "WHERE s2.grp = s.grp) FROM s "
        "WHERE id IN (SELECT id FROM s WHERE v < 300)",
}

#: The 400-row table spans 4 heap pages (a 4-page pool would never
#: fault); with 2 pages, subquery scans fault pages in the middle of the
#: outer scan.
SMALL_POOL_PAGES = 2


def _subquery_outputs(sql: str, pool_pages: int | None) -> dict:
    engine = DatabaseEngine(meter=Meter())
    if pool_pages is not None:
        engine.buffer_pool.capacity_pages = pool_pages
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE s (id INT NOT NULL, grp INT, v INT, "
                   "pad VARCHAR(100), PRIMARY KEY (id))", session)
    pad = "x" * 100
    for start in range(0, 400, 100):
        engine.execute("INSERT INTO s VALUES " + ", ".join(
            f"({i}, {i % 10}, {(i * 37) % 1000}, '{pad}')"
            for i in range(start, start + 100)), session)
    rows = engine.execute(sql, session).fetch_all()
    return _virtual_outputs(rows, engine.meter)


@pytest.mark.parametrize("pool_pages", [None, SMALL_POOL_PAGES],
                         ids=["default-pool", "small-pool"])
@pytest.mark.parametrize("shape", sorted(SUBQUERY_SHAPES))
def test_subquery_shapes_pinned(shape, pool_pages):
    got = _subquery_outputs(SUBQUERY_SHAPES[shape], pool_pages)
    assert got == GOLDENS["subquery"][f"{shape}-{pool_pages or 'default'}"]
    if pool_pages is not None:
        assert got["counters"]["disk_io"] > 0


# ---------------------------------------------------------------------------
# Joins never see subqueries (why they need no one-row input path)
# ---------------------------------------------------------------------------


@pytest.fixture
def join_world():
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE a (id INT NOT NULL, x INT, "
                   "PRIMARY KEY (id))", session)
    engine.execute("CREATE TABLE b (id INT NOT NULL, y INT, "
                   "PRIMARY KEY (id))", session)
    engine.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)",
                   session)
    engine.execute("INSERT INTO b VALUES (1, 5), (2, 6), (3, 7)", session)
    return lambda sql: engine.execute(sql, session).fetch_all()


@pytest.mark.parametrize("on_clause", [
    "a.id = b.id AND b.y > (SELECT min(x) FROM a)",
    "a.id = (SELECT min(id) FROM b)",
    "a.id = b.id AND EXISTS (SELECT 1 FROM a)",
])
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_subquery_in_on_clause_is_rejected(join_world, kind, on_clause):
    with pytest.raises(PlanningError, match="subqueries in ON"):
        join_world(f"SELECT a.id FROM a {kind} b ON {on_clause}")


@pytest.mark.parametrize("from_where,join_op", [
    ("a JOIN b ON a.id = b.id WHERE", "HashJoin(inner"),
    ("a LEFT JOIN b ON a.id = b.id WHERE", "HashJoin(left"),
    ("a, b WHERE a.id = b.id AND", "HashJoin(inner"),
    ("a, b WHERE a.x > b.y AND", "NestedLoopJoin"),
])
def test_where_subquery_lands_in_filter_above_join(join_world, from_where,
                                                   join_op):
    sql = (f"SELECT a.id, b.y FROM {from_where} "
           "a.x > (SELECT min(y) FROM b)")
    plan = [row[0] for row in join_world("EXPLAIN " + sql)]
    at = next(i for i, line in enumerate(plan)
              if line.strip().startswith(join_op))
    indent = lambda line: len(line) - len(line.lstrip())
    # The join's parent — one line up, one level out — is the Filter.
    assert plan[at - 1].strip() == "Filter", plan
    assert indent(plan[at]) == indent(plan[at - 1]) + 2, plan
    assert join_world(sql)


# ---------------------------------------------------------------------------
# sys_executor view
# ---------------------------------------------------------------------------


def test_sys_executor_view_reports_batch_activity():
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT, b VARCHAR(4))", session)
    engine.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, 'v{i % 5}')" for i in range(50)), session)
    for _ in range(3):
        engine.execute("SELECT b, count(*) FROM t WHERE a > 10 "
                       "GROUP BY b ORDER BY b", session).fetch_all()
    stats = dict(engine.execute(
        "SELECT metric, value FROM sys_executor", session).fetch_all())
    assert stats, "sys_executor returned no rows"
    batch_totals = [v for k, v in stats.items() if k.startswith("batches.")]
    assert batch_totals and sum(batch_totals) > 0
    assert all(isinstance(v, int) and v >= 0 for v in stats.values())


def test_sys_executor_counts_stay_out_of_meter_counters():
    """Executor diagnostics must not leak into the fidelity counters."""
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT)", session)
    engine.execute("INSERT INTO t VALUES (1), (2), (3)", session)
    engine.execute("SELECT a FROM t WHERE a > 1", session).fetch_all()
    assert engine.meter.executor_stats  # diagnostics were recorded
    assert not any(key.startswith("batches.")
                   for key in engine.meter.counters)
