"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload oltp-phoenix --seed 1 \\
        --seconds 10 --trace 0

Each run computes the workload's reference outputs for the seed (outside
the timed region), then repeats *set up a fresh world, run the fixed
input, check the outputs* until ``--seconds`` have passed.  With
``--trace 0`` it prints the end-to-end metrics: virtual statement latency
and makespan, set-up time and peak memory.  With ``--trace 1`` every
repetition is an untraced run followed by a traced one (see
``tracer.py``), and it prints the per-layer metrics, including host
statement throughput and latency from the untraced runs and
``trace.overhead_ratio``.  Host figures are medians over repetitions.
Virtual outputs must be bit-identical across every repetition, traced or
not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fewest repetitions a run makes, however short ``--seconds`` is (a
#: traced run makes at least one untraced + traced pair).
MIN_REPS = 2

#: Host seconds of set-up each repetition measures at least.  A short
#: set-up is repeated on fresh worlds (the last one is run), so that
#: ``setup_s`` is the median of many samples spread over the whole run.
SETUP_SAMPLE_S = 0.5


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * q
    low = int(k)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (k - low)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass
class Rep:
    """What one repetition measured (the world itself is not kept)."""

    #: Host seconds of each set-up of a fresh world.
    setup_s: list
    host_s: float
    #: Host nanoseconds of each input statement, first attempt to success.
    host_ns: list
    #: Host nanoseconds from each crash to the next statement's success.
    pause_host_ns: list
    failed: int
    #: Virtual outputs and counts: must repeat bit-for-bit for the seed.
    virtual: dict
    tracer: object = None


def run_once(workload, seed: int, tracer=None) -> Rep:
    """Set up a fresh world, run the input once, read its outputs."""
    from stmts import StatementClock

    setup_s = []
    while sum(setup_s) < SETUP_SAMPLE_S:
        world = None
        gc.collect()
        start = time.perf_counter()
        world = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
    meter = world.meter
    clock = StatementClock(meter)
    for manager in world.managers:
        clock.attach(manager)
    virt_start = meter.peek_now()
    disk_start = world.server.disk.page_reads
    counters_start = dict(meter.counters)
    pool_start = world.pool_totals()
    if tracer is not None:
        tracer.request_id = lambda: clock.current_id
        tracer.install()
    try:
        start = time.perf_counter()
        workload.run(world, seed, clock)
        host_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.request_id = None
    phoenix = [m.stats for m in world.managers if hasattr(m, "stats")]
    virtual = {
        "virt_makespan_s": meter.peek_now() - virt_start,
        "virt_stmt_mean_ms": statistics.fmean(clock.virt_s) * 1e3,
        "virt_stmt_p99_ms": percentile(clock.virt_s, 0.99) * 1e3,
        "statements": clock.statements,
        "counters": {name: value - counters_start.get(name, 0)
                     for name, value in meter.counters.items()},
        "components": meter.obs.latency.component_totals(),
        "identity_violations": len(meter.obs.latency.identity_violations),
        "pauses": list(clock.pause_virt_s),
        "disk_reads": world.server.disk.page_reads - disk_start,
        "pool": [end - begin for end, begin
                 in zip(world.pool_totals(), pool_start)],
        "client_cache": [sum(s["cached_results"] for s in phoenix),
                         sum(s["cache_overflows"] for s in phoenix)],
        "aborts_surfaced": clock.errors["40001"] if phoenix else 0,
    }
    # Read after the timed region and after every counter above: reading
    # table contents pages data through the buffer pool.
    virtual["outputs"] = workload.outputs(world)
    return Rep(setup_s, host_s, clock.host_ns, clock.pause_host_ns,
               clock.failed, virtual, tracer)


def host_metrics(reps: list[Rep]) -> dict[str, float]:
    """Statement throughput and median latency in host time: medians over
    the repetitions."""
    return {
        "host.stmt_per_s": statistics.median(
            len(rep.host_ns) / rep.host_s for rep in reps),
        "host.stmt_p50_us": statistics.median(
            percentile(rep.host_ns, 0.50) / 1e3 for rep in reps),
    }


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    first = reps[0].virtual
    return {
        "virt_stmt_mean_ms": first["virt_stmt_mean_ms"],
        "virt_stmt_p99_ms": first["virt_stmt_p99_ms"],
        "virt_makespan_s": first["virt_makespan_s"],
        "setup_s": statistics.median(sample for rep in reps
                                     for sample in rep.setup_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict:
    """Per-layer metrics of the traced repetitions (host seconds are
    medians over them; counts repeat exactly)."""
    from repro.obs.latency import COMPONENTS

    def host(read) -> float:
        return statistics.median(read(rep.tracer) for rep in traced)

    rep = traced[-1]
    tracer, virtual = rep.tracer, rep.virtual
    counters = virtual["counters"]
    stmts = virtual["statements"]
    cached, overflows = virtual["client_cache"]
    hits, misses = virtual["pool"]
    commits = tracer.calls("txn.commit")
    requests = counters.get("net.requests_sent", 0)
    plan_hits = counters.get("plan_cache_hits", 0)
    plan_misses = counters.get("plan_cache_misses", 0)
    disk_reads = virtual["disk_reads"]
    pauses_host = [statistics.median(r.pause_host_ns) / 1e6
                   for r in untraced if r.pause_host_ns]
    pauses_virt = virtual["pauses"]
    metrics = {
        **host_metrics(untraced),
        "obs.ledger_s": host(lambda t: t.layer_self_s("obs")),
        "obs.ledger_adds": tracer.calls("obs.ledger_add"),
        "obs.ledger_adds_per_stmt": _ratio(
            tracer.calls("obs.ledger_add"), stmts),
        "obs.ledger_share": statistics.median(
            r.tracer.layer_self_s("obs") / r.host_s for r in traced),
        "obs.identity_violations": virtual["identity_violations"],
        "sim.charge_s": host(lambda t: t.layer_self_s("sim")),
        "sim.charges": tracer.calls("sim.charge"),
        "phoenix.self_s": host(lambda t: t.layer_self_s("phoenix")),
        "phoenix.client_cache_hit_ratio": _ratio(cached,
                                                 cached + overflows),
        "phoenix.persist_s": host(lambda t: t.incl_s("phoenix.persist")),
        "phoenix.persists": tracer.calls("phoenix.persist"),
        "phoenix.recover_s": host(lambda t: t.incl_s("phoenix.recover")),
        "phoenix.txn_aborts_surfaced": virtual["aborts_surfaced"],
        "phoenix.recovery_pause_virt_s": (
            statistics.median(pauses_virt) if pauses_virt else 0.0),
        "phoenix.recovery_pause_host_ms": (
            statistics.median(pauses_host) if pauses_host else 0.0),
        "odbc.self_s": host(lambda t: t.layer_self_s("odbc")),
        "odbc.fetch_round_trips": counters.get(
            "net.requests.FetchRequest", 0),
        "server.self_s": host(lambda t: t.layer_self_s("server")),
        "server.requests": requests,
        "server.requests_per_stmt": _ratio(requests, stmts),
        "server.wire_bytes": counters.get("net.wire_bytes_up", 0)
        + counters.get("net.wire_bytes_down", 0),
        "server.restart_s": host(lambda t: t.incl_s("server.restart")),
        "server.restart_virt_s": tracer.restart_virt_s,
        "engine.executes": tracer.calls("engine.execute"),
        "engine.self_s": host(lambda t: t.layer_self_s("engine")),
        "sql.parses": tracer.calls("sql.parse"),
        "sql.parse_s": host(lambda t: t.self_s("sql.parse")),
        "sql.normalize_s": host(lambda t: t.self_s("sql.normalize")),
        "sql.plan_s": host(lambda t: t.self_s("sql.plan")),
        "sql.plan_cache_hit_ratio": _ratio(plan_hits,
                                           plan_hits + plan_misses),
        "storage.page_gets": tracer.calls("storage.get_page"),
        "storage.buffer_hit_ratio": _ratio(hits, hits + misses),
        "storage.disk_reads": disk_reads,
        "storage.disk_reads_per_stmt": _ratio(disk_reads, stmts),
        "storage.scan_pages": tracer.items("storage.scan_pages"),
        "storage.btree_searches": tracer.calls("storage.btree_search")
        + tracer.calls("storage.btree_range"),
        "storage.btree_s": host(lambda t: t.self_s("storage.btree_search")
                                + t.self_s("storage.btree_range")
                                + t.self_s("storage.btree_insert")),
        "wal.appends": tracer.calls("wal.append"),
        "wal.append_s": host(lambda t: t.self_s("wal.append")),
        "wal.forces": counters.get("log_forces", 0),
        "wal.forces_per_commit": _ratio(counters.get("log_forces", 0),
                                        commits),
        "wal.recover_s": host(lambda t: t.incl_s("wal.recover")),
        "wal.redo_applied": tracer.redo_applied,
        "wal.undo_applied": tracer.undo_applied,
        "txn.lock_acquires": tracer.calls("txn.acquire"),
        "txn.lock_s": host(lambda t: t.self_s("txn.acquire")
                           + t.self_s("txn.release")),
        "txn.lock_waits": tracer.errors("txn.", "LockWaitError"),
        "txn.lock_wait_virt_s": counters.get("locks.lock_wait_seconds", 0),
        "txn.deadlocks": counters.get("locks.deadlocks_detected", 0),
        "txn.commits": commits,
        "txn.aborts_per_commit": _ratio(tracer.calls("txn.abort"),
                                        commits),
    }
    components = virtual["components"]
    for component in COMPONENTS:
        metrics[f"virt.{component}_s"] = components.get(component, 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(
        t.host_s / u.host_s for t, u in zip(traced, untraced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found in {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result = measure(workload, args.seed, args.seconds, args.trace)
    except Exception:  # a failed statement or check ends the run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    problems, attempted, failed, metrics = result
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not "
                         f"match BENCHMARK.json {sorted(units)}")
    for line in problems:
        print(f"FAIL: {line}")
    print(f"{workload.name}: seed {args.seed}, "
          f"failed_share {_ratio(failed, attempted):.4f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


def measure(workload, seed: int, seconds: float, trace: bool):
    """Reference, then repetitions until ``seconds`` have passed.
    Returns (problems, attempted, failed, metrics)."""
    from tracer import Tracer

    expected = workload.reference(seed)
    untraced: list[Rep] = []
    traced: list[Rep] = []
    deadline = time.perf_counter() + seconds
    least = 1 if trace else MIN_REPS
    while len(untraced) < least or time.perf_counter() < deadline:
        untraced.append(run_once(workload, seed))
        if trace:
            traced.append(run_once(workload, seed, Tracer()))

    reps = untraced + traced
    problems = []
    for index, rep in enumerate(reps):
        if rep.virtual["outputs"] != expected:
            problems.append(f"repetition {index}: outputs differ from "
                            f"the reference")
        if rep.virtual != reps[0].virtual:
            problems.append(f"repetition {index}: virtual outputs differ "
                            f"from repetition 0")
        if rep.virtual["identity_violations"]:
            problems.append(f"repetition {index}: latency-ledger "
                            f"identity violated")
    attempted = sum(len(rep.host_ns) + rep.failed for rep in reps)
    failed = attempted if problems else sum(rep.failed for rep in reps)
    if traced:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        traced[-1].tracer.write_spans(out / f"spans-{workload.name}.jsonl")
    print(f"{workload.name}: {len(untraced)} runs"
          f"{f' + {len(traced)} traced' if traced else ''}, "
          f"{len(reps[0].host_ns)} statements each; host seconds "
          + " ".join(f"{rep.host_s:.3f}" for rep in untraced))
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced)
    return problems, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
