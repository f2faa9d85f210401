"""Outside-in tracing of the program's layers.

:class:`Tracer` installs wrappers around each layer's public functions —
from this file, never inside the program — runs a workload, and removes
them again.  Every wrapped call is timed with ``perf_counter_ns`` on a
span stack, so a span's *self* time is its duration minus the time of the
wrapped calls it made.  A layer's self time is the sum over its keys.

Three kinds of target:

* ``span`` — every call is kept in memory as a span record
  ``(request id, key, start ns, duration ns, self ns, depth)`` and the
  records are written out when the run ends;
* ``hot`` — the busiest functions (``Meter.charge*``,
  ``BufferPool.get_page``, ``LedgerEntry.add`` ...) only aggregate count
  and time, because a record per call would distort the run;
* ``gen`` — functions that return a lazy iterator; each step of the
  iterator is timed under the key (aggregated), and items are counted.

``DatabaseEngine.execute`` is a span whose lazy result rows are also
stepped under ``engine.rows``, so executor operators that run when the
server pulls rows land in the engine layer.  Module-level functions are
patched where their caller looks the name up.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

_ns = time.perf_counter_ns

#: (module, class or None, attribute, key, kind).  The layer is the key's
#: prefix before the first dot.
TARGETS: tuple[tuple[str, str | None, str, str, str], ...] = (
    ("repro.obs.latency", "LatencyLedger", "open", "obs.ledger", "hot"),
    ("repro.obs.latency", "LatencyLedger", "close", "obs.ledger", "hot"),
    ("repro.obs.latency", "LedgerEntry", "add", "obs.ledger_add", "hot"),
    ("repro.sim.meter", "Meter", "charge", "sim.charge", "hot"),
    ("repro.sim.meter", "Meter", "charge_batched", "sim.charge", "hot"),
    ("repro.sim.meter", "Meter", "charge_rows", "sim.charge", "hot"),
    ("repro.sim.meter", "Meter", "charge_run_list", "sim.charge", "hot"),
    ("repro.phoenix.driver_manager", "PhoenixDriverManager", "exec_direct",
     "phoenix.exec_direct", "span"),
    ("repro.phoenix.driver_manager", "PhoenixDriverManager", "fetch",
     "phoenix.fetch", "span"),
    ("repro.phoenix.driver_manager", "PhoenixDriverManager", "fetch_block",
     "phoenix.fetch", "span"),
    ("repro.phoenix.driver_manager", "PhoenixDriverManager", "fetch_scroll",
     "phoenix.fetch", "span"),
    ("repro.phoenix.persistence", "ResultPersistor", "persist",
     "phoenix.persist", "span"),
    ("repro.phoenix.recovery", "SessionRecovery", "recover_connection",
     "phoenix.recover", "span"),
    ("repro.odbc.driver", "NativeDriver", "execute", "odbc.execute", "span"),
    ("repro.odbc.driver", "NativeDriver", "execute_pipelined",
     "odbc.execute", "span"),
    ("repro.odbc.driver", "NativeDriver", "fetch_one", "odbc.fetch", "span"),
    ("repro.odbc.driver", "NativeDriver", "fetch_scroll", "odbc.fetch",
     "span"),
    ("repro.odbc.driver", "NativeDriver", "fetch_block", "odbc.fetch",
     "span"),
    ("repro.odbc.driver", "NativeDriver", "advance", "odbc.advance", "span"),
    ("repro.server.network", "SimulatedNetwork", "call", "server.call",
     "span"),
    ("repro.server.network", "SimulatedNetwork", "call_overlapped",
     "server.call", "span"),
    ("repro.server.server", "DatabaseServer", "handle", "server.handle",
     "span"),
    ("repro.server.server", "DatabaseServer", "restart", "server.restart",
     "span"),
    ("repro.engine.database", "DatabaseEngine", "execute",
     "engine.execute", "span"),
    ("repro.engine.database", "DatabaseEngine", "restart",
     "engine.restart", "span"),
    ("repro.engine.database", None, "parse_statement", "sql.parse", "span"),
    ("repro.sql.parser", None, "parse_statement", "sql.parse", "span"),
    ("repro.engine.database", None, "normalize_statement", "sql.normalize",
     "span"),
    ("repro.sql.planner", "Planner", "plan_select", "sql.plan", "span"),
    ("repro.sql.planner", "Planner", "plan_dml_source", "sql.plan", "span"),
    ("repro.storage.buffer_pool", "BufferPool", "get_page",
     "storage.get_page", "hot"),
    ("repro.storage.buffer_pool", "BufferPool", "flush_page",
     "storage.flush_page", "hot"),
    ("repro.storage.btree", "BTree", "search", "storage.btree_search",
     "hot"),
    ("repro.storage.btree", "BTree", "range", "storage.btree_range", "gen"),
    ("repro.storage.btree", "BTree", "insert", "storage.btree_insert",
     "hot"),
    ("repro.storage.heap", "HeapFile", "scan_pages", "storage.scan_pages",
     "gen"),
    ("repro.wal.log", "WriteAheadLog", "append", "wal.append", "hot"),
    ("repro.wal.log", "WriteAheadLog", "force", "wal.force", "span"),
    ("repro.wal.recovery", "RecoveryManager", "recover", "wal.recover",
     "span"),
    ("repro.txn.locks", "LockManager", "acquire", "txn.acquire", "span"),
    ("repro.txn.locks", "LockManager", "acquire_row", "txn.acquire",
     "span"),
    ("repro.txn.locks", "LockManager", "release_all", "txn.release",
     "span"),
    ("repro.txn.manager", "TransactionManager", "commit", "txn.commit",
     "span"),
    ("repro.txn.manager", "TransactionManager", "abort", "txn.abort",
     "span"),
)


class _Key:
    """Aggregates of one key: calls, inclusive and self nanoseconds."""

    __slots__ = ("calls", "incl", "own", "items", "errors")

    def __init__(self):
        self.calls = 0
        self.incl = 0
        self.own = 0
        self.items = 0
        self.errors: Counter = Counter()


class Tracer:
    """Installs the layer wrappers; collects spans and aggregates."""

    def __init__(self):
        #: Returns the id of the statement in flight; spans carry it.
        self.request_id = lambda: 0
        self._stack: list[list[int]] = [[0]]
        self.keys: dict[str, _Key] = {}
        self.spans: list[tuple] = []
        #: Virtual seconds spent inside ``DatabaseServer.restart``.
        self.restart_virt_s = 0.0
        self.redo_applied = 0
        self.undo_applied = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        hooks = self._post_hooks()
        for module_name, owner_name, attr, key, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(fn, key, kind, hooks.get(key))
            setattr(owner, attr,
                    classmethod(wrapped) if is_classmethod else wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- wrappers -----------------------------------------------------------

    def _key(self, key: str) -> _Key:
        acc = self.keys.get(key)
        if acc is None:
            acc = self.keys[key] = _Key()
        return acc

    def _wrap(self, fn, key: str, kind: str, post=None):
        acc = self._key(key)
        stack = self._stack
        if kind == "gen":
            step = self._stepper(acc)

            def wrapper(*args, **kwargs):
                acc.calls += 1
                return step(fn(*args, **kwargs))
            return wrapper
        spans = self.spans if kind == "span" else None
        request_id = self.request_id

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = _ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                acc.errors[type(error).__name__] += 1
                raise
            finally:
                duration = _ns() - start
                stack.pop()
                stack[-1][0] += duration
                own = duration - frame[0]
                acc.calls += 1
                acc.incl += duration
                acc.own += own
                if spans is not None:
                    spans.append((request_id(), key, start, duration, own,
                                  len(stack)))
            if post is not None:
                result = post(args, result)
            return result
        if key == "server.restart":
            return self._virt_timed(wrapper)
        return wrapper

    def _stepper(self, acc: _Key):
        """Wrap a lazy iterator so each step is timed under ``acc``."""
        stack = self._stack

        def stepped(iterable):
            iterator = iter(iterable)
            try:
                while True:
                    frame = [0]
                    stack.append(frame)
                    start = _ns()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        duration = _ns() - start
                        stack.pop()
                        stack[-1][0] += duration
                        acc.incl += duration
                        acc.own += duration - frame[0]
                    acc.items += 1
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()
        return stepped

    def _post_hooks(self) -> dict:
        rows = self._stepper(self._key("engine.rows"))

        def engine_rows(_args, result):
            if result.kind == "rows":
                result.rows = rows(result.rows)
            return result

        def recovered(_args, report):
            self.redo_applied += report.redo_applied
            self.undo_applied += report.undo_applied
            return report

        return {"engine.execute": engine_rows, "wal.recover": recovered}

    def _virt_timed(self, wrapper):
        """Also book the virtual seconds a server restart takes."""
        def timed(server, *args, **kwargs):
            before = server.meter.peek_now()
            try:
                return wrapper(server, *args, **kwargs)
            finally:
                self.restart_virt_s += server.meter.peek_now() - before
        return timed

    # -- reading ------------------------------------------------------------

    def calls(self, key: str) -> int:
        acc = self.keys.get(key)
        return acc.calls if acc is not None else 0

    def items(self, key: str) -> int:
        acc = self.keys.get(key)
        return acc.items if acc is not None else 0

    def errors(self, prefix: str, error: str) -> int:
        return sum(acc.errors[error] for key, acc in self.keys.items()
                   if key.startswith(prefix))

    def incl_s(self, key: str) -> float:
        acc = self.keys.get(key)
        return acc.incl / 1e9 if acc is not None else 0.0

    def self_s(self, key: str) -> float:
        acc = self.keys.get(key)
        return acc.own / 1e9 if acc is not None else 0.0

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every key of ``layer``."""
        return sum(acc.own for key, acc in self.keys.items()
                   if key.split(".", 1)[0] == layer) / 1e9

    def write_spans(self, path) -> None:
        """Write every kept span, one JSON array per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
