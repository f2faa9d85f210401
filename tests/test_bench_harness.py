"""Tests for the benchmark harness plumbing: reporting, orderings, CLI."""

import pytest

from repro.bench.reporting import format_table
from repro.workloads.tpch.throughput import STREAM_ORDERINGS


class TestReporting:
    def test_basic_table(self):
        text = format_table("Title", ["A", "B"],
                            [["x", 1.5], ["yy", 22.0]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "====="
        assert "A" in lines[2] and "B" in lines[2]
        assert "x" in lines[4]

    def test_footers_separated(self):
        text = format_table("T", ["A"], [["r1"]], footers=[["total"]])
        lines = text.splitlines()
        dashes = [i for i, line in enumerate(lines)
                  if set(line.strip()) == {"-"} or "-" in line
                  and set(line.replace(" ", "")) == {"-"}]
        assert len(dashes) >= 2  # header rule and footer rule

    def test_number_formatting(self):
        text = format_table("T", ["V"],
                            [[1234.5678], [0.00012], [3.14159], [0.0]])
        assert "1234.6" in text
        assert "0.0001" in text
        assert "3.142" in text
        assert "0.000" in text

    def test_alignment_widths(self):
        text = format_table("T", ["Name", "N"],
                            [["a-very-long-label", 1]])
        header, rule, row = text.splitlines()[2:5]
        assert len(rule) >= len("a-very-long-label")


class TestStreamOrderings:
    def test_each_is_a_permutation_of_22(self):
        for ordering in STREAM_ORDERINGS:
            assert sorted(ordering) == list(range(1, 23))

    def test_orderings_differ(self):
        assert len({tuple(o) for o in STREAM_ORDERINGS}) \
            == len(STREAM_ORDERINGS)


class TestCli:
    def test_micro_via_cli(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        rc = main(["micro", "--scale", "0.001", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Micro overheads" in out
        assert (tmp_path / "micro.txt").exists()

    def test_tpccbench_gates_row_aborts_per_commit(self, tmp_path,
                                                   capsys, monkeypatch):
        from repro.bench import __main__ as bench

        monkeypatch.setattr(bench, "TPCCBENCH_LEGS", ((8, 1),))
        assert bench.main(["tpccbench", "--out", str(tmp_path)]) == 0
        assert "aborts/commit" in capsys.readouterr().out
        # A negative limit fails even a leg with no aborts.
        monkeypatch.setattr(bench, "TPCCBENCH_MAX_ABORTS_PER_COMMIT", -1.0)
        assert bench.main(["tpccbench", "--out", str(tmp_path)]) == 1
        assert "FAIL: at 8 sessions the row leg aborted 0.00" \
            in capsys.readouterr().out

    def test_optbench_gates_per_query_regressions(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.bench import __main__ as bench
        from repro.bench.experiments import OptbenchLeg, OptbenchResult

        def result(cost_q02):
            heuristic = OptbenchLeg(mode="heuristic", topn_seconds=2.0,
                                    topn_plan=["Sort", "Limit"])
            cost = OptbenchLeg(mode="cost", topn_seconds=1.0,
                               topn_plan=["TopNHeapSort(n=10)"])
            for number, (h, c) in enumerate(
                    [(5.0, 4.0), (5.0, cost_q02), (5.0, 4.0), (5.0, 4.0)],
                    start=1):
                heuristic.query_seconds[number] = h
                cost.query_seconds[number] = c
                heuristic.query_rows[number] = cost.query_rows[number] = []
            return OptbenchResult(scale=0.005, heuristic=heuristic,
                                  cost=cost)

        run = ["optbench", "--out", str(tmp_path)]
        monkeypatch.setattr(bench.experiments, "run_optbench",
                            lambda scale: result(4.0))
        assert bench.main(run) == 0
        assert bench.main(run) == 0  # same seconds as the last entry
        monkeypatch.setattr(bench.experiments, "run_optbench",
                            lambda scale: result(4.5))
        capsys.readouterr()
        assert bench.main(run) == 1
        assert "FAIL: cost leg slower than its last history entry on Q02" \
            in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestRefreshSplitting:
    def test_halves_partition_key_range(self):
        from repro.workloads.tpch.datagen import (
            generate,
            generate_refresh_orders,
        )
        from repro.workloads.tpch.refresh import _split_by_order_key

        data = generate(scale=0.0005, seed=2)
        orders, lines = generate_refresh_orders(data, count=11, seed=3)
        halves = _split_by_order_key(orders, lines)
        assert len(halves) == 2
        all_orders = [o for half in halves for o in half[0]]
        assert sorted(o[0] for o in all_orders) == \
            sorted(o[0] for o in orders)
        first_keys = {o[0] for o in halves[0][0]}
        second_keys = {o[0] for o in halves[1][0]}
        assert max(first_keys) < min(second_keys)
        # Lineitems follow their orders.
        for order_half, line_half in halves:
            keys = {o[0] for o in order_half}
            assert {l[0] for l in line_half} == keys


class TestNotNullEnforcement:
    def test_explicit_null_rejected(self, run):
        from repro.errors import EngineError

        run("CREATE TABLE t (a INT NOT NULL, b INT)")
        with pytest.raises(EngineError):
            run("INSERT INTO t VALUES (NULL, 1)")

    def test_update_to_null_rejected(self, run):
        from repro.errors import EngineError

        run("CREATE TABLE t (a INT NOT NULL, b INT)")
        run("INSERT INTO t VALUES (1, 2)")
        with pytest.raises(EngineError):
            run("UPDATE t SET a = NULL")
        # Nullable columns still accept NULL.
        run("UPDATE t SET b = NULL")
        assert run("SELECT a, b FROM t") == [(1, None)]


class TestOptbenchCounting:
    """Wins and losses must beat float summation noise."""

    @staticmethod
    def _result(pairs):
        from repro.bench.experiments import (OptbenchLeg, OptbenchResult)

        heuristic = OptbenchLeg(mode="heuristic", topn_seconds=2.0)
        cost = OptbenchLeg(mode="cost", topn_seconds=1.0)
        for number, (h, c) in enumerate(pairs, start=1):
            heuristic.query_seconds[number] = h
            cost.query_seconds[number] = c
        return OptbenchResult(scale=0.005, heuristic=heuristic, cost=cost)

    def test_noise_is_neither_win_nor_loss(self):
        result = self._result([
            (84.379, 84.379 - 1e-14),     # summation noise: no win
            (109.795, 109.741),           # real win
            (255.857, 255.857 * (1 - 5e-10)),  # below 1e-9: no win
            (146.134, 155.352),           # real loss
            (13.733, 13.733 + 1e-12),     # noise: no loss
            (3.0, 3.0),
        ])
        assert result.faster_queries() == [2]
        assert result.slower_queries() == [4]

    def test_seconds_by_query_uses_table_labels(self):
        result = self._result([(20.0, 19.0), (100.0, 106.3)])
        assert result.cost.seconds_by_query() == {
            "Q01": 19.0, "Q02": 106.3, "TOP-N": 1.0}

    def test_query_regressions_beat_noise_against_last_entry(self):
        from repro.bench.experiments import optbench_query_regressions

        previous = {"Q01": 84.379, "Q02": 146.134, "Q03": 3.0}
        current = {"Q01": 84.379 + 1e-12,     # noise: no regression
                   "Q02": 146.134 * 1.01,     # real regression
                   "Q03": 2.5,                # faster: fine
                   "Q04": 99.0}               # new query: skipped
        assert optbench_query_regressions(previous, current) == ["Q02"]
        assert optbench_query_regressions({}, current) == []

    def test_last_query_seconds_per_leg(self, tmp_path):
        import json

        from repro.bench.__main__ import _last_query_seconds

        history = tmp_path / "optbench_history.jsonl"
        history.write_text("\n".join([
            json.dumps({"leg": "cost", "query_seconds": {"Q01": 1.0}}),
            json.dumps({"leg": "cost", "query_seconds": {"Q01": 2.0}}),
            json.dumps({"leg": "heuristic", "virtual_seconds": 5.0}),
            "not json",
            json.dumps({"leg": "cost", "virtual_seconds": 3.0}),
        ]) + "\n")
        assert _last_query_seconds(history) == {"cost": {"Q01": 2.0}}
        assert _last_query_seconds(tmp_path / "missing.jsonl") == {}

    def test_format_prints_wins_and_losses(self):
        text = self._result([(20.0, 19.0), (100.0, 106.3),
                             (50.0, 50.0 - 1e-14)]).format()
        assert "cost leg faster on 1 table-1 queries: Q01" in text
        assert "cost leg slower on 1 table-1 queries: Q02 (+6.3%)" in text
