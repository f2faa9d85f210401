"""Property-based test: the engine agrees with a naive reference evaluator.

Hypothesis generates random small tables and random simple queries
(filters, projections, aggregates, order, joins); the engine's answer is
compared against a straightforward in-Python evaluation of the same
semantics.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter

COLUMNS = ("a", "b", "c")


@st.composite
def table_rows(draw):
    n = draw(st.integers(0, 25))
    return [
        (draw(st.integers(-5, 5)),
         draw(st.one_of(st.none(), st.integers(-3, 3))),
         draw(st.sampled_from(["x", "y", "z"])))
        for _ in range(n)
    ]


def make_engine(rows):
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT, b INT, c VARCHAR(2))", session)
    if rows:
        values = ", ".join(
            f"({a}, {'NULL' if b is None else b}, '{c}')"
            for a, b, c in rows)
        engine.execute(f"INSERT INTO t VALUES {values}", session)
    return engine, session


def run(engine, session, sql):
    return engine.execute(sql, session).fetch_all()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), threshold=st.integers(-5, 5))
def test_filter_matches_reference(rows, threshold):
    engine, session = make_engine(rows)
    got = run(engine, session,
              f"SELECT a FROM t WHERE a > {threshold} ORDER BY a")
    expected = sorted(a for a, _b, _c in rows if a > threshold)
    assert [r[0] for r in got] == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_null_aware_filter_matches_reference(rows):
    engine, session = make_engine(rows)
    got = run(engine, session, "SELECT b FROM t WHERE b <> 1 ORDER BY b")
    # SQL: NULLs never satisfy <>.
    expected = sorted(b for _a, b, _c in rows
                      if b is not None and b != 1)
    assert [r[0] for r in got] == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_aggregates_match_reference(rows):
    engine, session = make_engine(rows)
    got = run(engine, session,
              "SELECT count(*), count(b), sum(a), min(a), max(a) FROM t")
    count_star, count_b, total, lo, hi = got[0]
    assert count_star == len(rows)
    assert count_b == sum(1 for _a, b, _c in rows if b is not None)
    if rows:
        assert total == sum(a for a, _b, _c in rows)
        assert lo == min(a for a, _b, _c in rows)
        assert hi == max(a for a, _b, _c in rows)
    else:
        assert total is None and lo is None and hi is None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_group_by_matches_reference(rows):
    engine, session = make_engine(rows)
    got = run(engine, session,
              "SELECT c, count(*), sum(a) FROM t GROUP BY c ORDER BY c")
    expected = {}
    for a, _b, c in rows:
        count, total = expected.get(c, (0, 0))
        expected[c] = (count + 1, total + a)
    assert [(c, n, s) for c, n, s in got] == [
        (c, expected[c][0], expected[c][1]) for c in sorted(expected)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), other=table_rows())
def test_join_matches_reference(rows, other):
    engine, session = make_engine(rows)
    engine.execute("CREATE TABLE u (x INT, y INT, z VARCHAR(2))", session)
    if other:
        values = ", ".join(
            f"({x}, {'NULL' if y is None else y}, '{z}')"
            for x, y, z in other)
        engine.execute(f"INSERT INTO u VALUES {values}", session)
    got = run(engine, session,
              "SELECT a, x FROM t, u WHERE a = x ORDER BY a, x")
    expected = sorted((a, x) for a, _b, _c in rows
                      for x, _y, _z in other if a == x)
    assert got == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), n=st.integers(0, 10))
def test_top_and_distinct_match_reference(rows, n):
    engine, session = make_engine(rows)
    got = run(engine, session,
              f"SELECT TOP {n} DISTINCT a FROM t ORDER BY a")
    expected = sorted(set(a for a, _b, _c in rows))[:n]
    assert [r[0] for r in got] == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_update_matches_reference(rows):
    engine, session = make_engine(rows)
    engine.execute("UPDATE t SET a = a * 2 WHERE c = 'x'", session)
    got = run(engine, session, "SELECT a FROM t ORDER BY a")
    expected = sorted(a * 2 if c == "x" else a for a, _b, c in rows)
    assert [r[0] for r in got] == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_delete_matches_reference(rows):
    engine, session = make_engine(rows)
    engine.execute("DELETE FROM t WHERE b IS NULL", session)
    got = run(engine, session, "SELECT count(*) FROM t")
    assert got[0][0] == sum(1 for _a, b, _c in rows if b is not None)
