"""The benchmark's own short-run self-test.

    python3 perfbench/selftest.py

Runs every workload at reduced sizes, untraced and traced, and checks:

* every metric named in ``BENCHMARK.json`` is emitted, and every
  end-to-end metric is non-zero;
* outputs match the reference, and the traced run's virtual outputs equal
  the untraced run's;
* the same seed gives identical virtual metrics and digests, a different
  seed gives different inputs;
* each workload shows the split it was chosen for;
* ``oltp-phoenix`` at seed 11 and the tracked sizes (120 transactions,
  2 000 point reads, 8 persists) replays the wallclock bench's cached
  leg: 6 222 requests and a virtual clock of 28.38217574 s.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def small_workloads() -> dict:
    from workloads import (
        ContendedRowlock,
        CrashRecover,
        OlapScan,
        OltpPhoenix,
    )

    olap = OlapScan()
    olap.scale = 0.002
    olap.pool_pages = 64
    return {w.name: w for w in (
        OltpPhoenix(txns=30, point_reads=200, persists=2), olap,
        CrashRecover(txns=40, crashes=3), ContendedRowlock(sessions=8,
                                                           txns=3))}


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    if not (run.SRC / "repro").is_dir():
        print(f"selftest: program sources not found in {run.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from tracer import Tracer

    from workloads import OltpPhoenix

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}

    layers = {}
    for name, workload in small_workloads().items():
        seed = 5
        expected = workload.reference(seed)
        plain = run.run_once(workload, seed)
        again = run.run_once(workload, seed)
        traced = run.run_once(workload, seed, Tracer())
        check(plain.virtual["outputs"] == expected,
              f"{name}: outputs match the reference")
        check(again.virtual == plain.virtual,
              f"{name}: same seed, identical virtual metrics and digests")
        check(traced.virtual == plain.virtual,
              f"{name}: tracing leaves virtual outputs bit-identical")
        e2e = run.end_to_end([plain, again])
        check(set(e2e) == e2e_names and all(e2e.values()),
              f"{name}: every end-to-end metric emitted and non-zero")
        per_layer = run.per_layer([traced], [plain])
        check(set(per_layer) == layer_names,
              f"{name}: every per-layer metric emitted")
        layers[name] = per_layer
        other = workload.reference(seed + 1)
        check(other != expected, f"{name}: another seed, other inputs")

    def only(metric: str, workload: str) -> bool:
        return all((values[metric] > 0) == (name == workload)
                   for name, values in layers.items())

    def highest(metric: str, workload: str) -> bool:
        return max(layers, key=lambda name: layers[name][metric]) \
            == workload

    check(only("wal.redo_applied", "crash-recover"),
          "wal.redo_applied > 0 only on crash-recover")
    check(only("wal.undo_applied", "crash-recover"),
          "wal.undo_applied > 0 only on crash-recover")
    check(only("txn.lock_waits", "contended-rowlock"),
          "txn.lock_waits > 0 only on contended-rowlock")
    check(highest("storage.disk_reads_per_stmt", "olap-scan"),
          "disk reads per statement highest on olap-scan")
    check(highest("obs.ledger_share", "oltp-phoenix"),
          "ledger share of host time highest on oltp-phoenix")

    tracked = OltpPhoenix(txns=120, point_reads=2000, persists=8)
    world = tracked.setup(11)
    tracked.run(world, 11, None)
    meter = world.meter
    check(meter.counters["net.requests_sent"] == 6222
          and round(meter.now, 8) == 28.38217574,
          "oltp-phoenix at the tracked sizes replays the wallclock leg "
          f"({meter.counters['net.requests_sent']:.0f} requests, "
          f"{meter.now!r} virtual s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
