"""All 22 TPC-H queries parse, plan and execute on generated data."""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter
from repro.workloads.tpch.datagen import generate, generate_refresh_orders
from repro.workloads.tpch.queries import QUERIES, q11, top_n_lineitem
from repro.workloads.tpch.schema import create_schema, load
from repro.workloads.tpcc.concurrent import digest_database


@pytest.fixture(scope="module")
def tpch_engine():
    meter = Meter()
    engine = DatabaseEngine(meter=meter)
    session = EngineSession(session_id=1)
    create_schema(engine, session)
    load(engine, session, generate(scale=0.0005, seed=11))
    return engine, session


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_executes(tpch_engine, number):
    engine, session = tpch_engine
    result = engine.execute(QUERIES[number], session)
    rows = result.fetch_all()
    assert isinstance(rows, list)
    for row in rows:
        assert isinstance(row, tuple)


def test_q1_aggregates_are_consistent(tpch_engine):
    engine, session = tpch_engine
    rows = engine.execute(QUERIES[1], session).fetch_all()
    assert rows, "Q1 must produce groups"
    total = sum(r[-1] for r in rows)  # count_order per group
    scan = engine.execute(
        "SELECT count(*) FROM lineitem "
        "WHERE l_shipdate <= date '1998-12-01' - interval '90' day",
        session).fetch_all()
    assert total == scan[0][0]
    # Groups arrive ordered by (returnflag, linestatus).
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)

    for row in rows:
        count = row[-1]
        assert row[6] == pytest.approx(row[2] / count)  # avg_qty
        assert row[7] == pytest.approx(row[3] / count)  # avg_price


def test_q6_matches_manual_computation(tpch_engine):
    engine, session = tpch_engine
    rows = engine.execute(
        "SELECT l_extendedprice, l_discount, l_quantity, l_shipdate "
        "FROM lineitem", session).fetch_all()
    import datetime

    lo = datetime.date(1994, 1, 1)
    hi = datetime.date(1995, 1, 1)
    expected = sum(
        price * disc
        for price, disc, qty, ship in rows
        if lo <= ship < hi and 0.05 <= disc <= 0.07 and qty < 24)
    got = engine.execute(QUERIES[6], session).fetch_all()[0][0]
    if expected == 0:
        assert got is None or got == 0
    else:
        assert got == pytest.approx(expected)


def test_q11_fraction_controls_result_size(tpch_engine):
    engine, session = tpch_engine
    small = engine.execute(q11(fraction=0.05), session).fetch_all()
    large = engine.execute(q11(fraction=0.0), session).fetch_all()
    assert len(small) <= len(large)
    # Descending by value.
    values = [r[1] for r in large]
    assert values == sorted(values, reverse=True)


def test_q13_counts_customers_without_orders(tpch_engine):
    engine, session = tpch_engine
    rows = engine.execute(QUERIES[13], session).fetch_all()
    total_customers = sum(r[1] for r in rows)
    count = engine.execute("SELECT count(*) FROM customer",
                           session).fetch_all()[0][0]
    assert total_customers == count


def test_top_n_lineitem(tpch_engine):
    engine, session = tpch_engine
    rows = engine.execute(top_n_lineitem(7), session).fetch_all()
    assert len(rows) == 7


def test_refresh_generator_continues_keys(tpch_engine):
    data = generate(scale=0.0005, seed=11)
    before = data.max_orderkey
    orders, lineitems = generate_refresh_orders(data, count=10)
    assert len(orders) == 10
    assert all(o[0] > before for o in orders)
    assert data.max_orderkey == max(o[0] for o in orders)
    order_keys = {o[0] for o in orders}
    assert {l[0] for l in lineitems} == order_keys


# -- page residency never changes answers -------------------------------------

#: Smaller than lineitem (179 pages at SF 0.002), larger than every
#: other table, so lineitem scans run cold and the rest stay plain LRU.
SMALL_POOL_PAGES = 64

POOL_EQUIVALENCE_STATEMENTS = (
    QUERIES[6], QUERIES[14], QUERIES[19],
    "UPDATE lineitem SET l_comment = 'cold' WHERE l_quantity > 45",
    "DELETE FROM lineitem WHERE l_quantity < 3",
    QUERIES[6], QUERIES[14], QUERIES[19],
)


def _pool_equivalence_run(pool_pages):
    engine = DatabaseEngine(meter=Meter())
    if pool_pages is not None:
        # Shrunk before loading: eviction only happens on admission.
        engine.buffer_pool.capacity_pages = pool_pages
    session = EngineSession(session_id=1)
    create_schema(engine, session)
    load(engine, session, generate(scale=0.002, seed=7))
    results = []
    for sql in POOL_EQUIVALENCE_STATEMENTS:
        result = engine.execute(sql, session)
        results.append(result.fetch_all() if result.returns_rows
                       else result.rowcount)
    return engine, results, digest_database(engine)


def test_small_pool_changes_no_answer_or_table():
    small, small_results, small_digest = \
        _pool_equivalence_run(SMALL_POOL_PAGES)
    assert small.table("lineitem").heap.page_count > SMALL_POOL_PAGES
    assert small.buffer_pool.cold_admissions > 0
    big, big_results, big_digest = _pool_equivalence_run(None)
    assert big.buffer_pool.cold_admissions == 0
    assert small_results == big_results
    assert small_digest == big_digest
