"""Per-statement timing at the driver-manager surface.

A *statement* is one application call: ``exec_direct``, then fetch every
row, then ``free_statement``.  :class:`StatementClock` wraps those three
methods on each application driver manager it is attached to (instance
attributes only, so the program's classes are untouched) and records, for
every input statement, the host and virtual time from its first attempt
to its success.

Retries follow the client protocol of the TPC-C drivers:

* ``HYT00`` (lock wait): the same statement is attempted again later;
* ``40001`` (deadlock victim, or a transaction aborted by a server
  crash): the client issues ``ROLLBACK`` (not input work) and replays the
  transaction from ``BEGIN``, so a replayed statement's latency starts at
  its attempt in the aborted run.

Any other error is a failed statement.  Virtual timestamps use
``Meter.peek_now`` — a pure read — so timing never moves the clock.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS

_ns = time.perf_counter_ns


class _Session:
    __slots__ = ("pos", "in_txn", "after_abort", "first", "done")

    def __init__(self):
        self.pos = 0
        self.in_txn = False
        self.after_abort = False
        self.first: dict[int, tuple[int, float]] = {}
        self.done: dict[int, tuple[int, float]] = {}


class _Attempt:
    __slots__ = ("session", "verb", "ok", "host", "virt")

    def __init__(self, session: _Session, verb: str, host: int,
                 virt: float):
        self.session = session
        self.verb = verb
        self.ok = True
        self.host = host
        self.virt = virt


def _verb(sql: str) -> str:
    head = sql.lstrip()[:5].upper()
    if head == "BEGIN":
        return "begin"
    if head == "COMMI":
        return "commit"
    if head == "ROLLB":
        return "rollback"
    return ""


class StatementClock:
    """First-attempt-to-success latency of every input statement."""

    def __init__(self, meter):
        self._peek = meter.peek_now
        self.host_ns: list[int] = []
        self.virt_s: list[float] = []
        self.errors: Counter = Counter()
        #: Errors a workload does not retry (count towards failed_share).
        self.failed = 0
        #: Request id of the statement in flight; spans carry it.
        self.current_id = 0
        self._crash: tuple[int, float] | None = None
        self.pause_host_ns: list[int] = []
        self.pause_virt_s: list[float] = []
        self._ignored: set[int] = set()

    # -- wiring ---------------------------------------------------------------

    def attach(self, manager) -> None:
        """Wrap ``manager``'s statement calls (one session per manager)."""
        session = _Session()
        inflight: dict[int, _Attempt] = {}
        # Looked up on the class at call time, so wrappers a tracer
        # installs there later still see every call.
        cls = type(manager)
        peek = self._peek

        def exec_direct(statement, sql, *args, **kwargs):
            self.current_id += 1
            if id(statement) in self._ignored:
                return cls.exec_direct(manager, statement, sql, *args,
                                       **kwargs)
            attempt = _Attempt(session, _verb(sql), _ns(), peek())
            inflight[id(statement)] = attempt
            self._start(attempt)
            rc = cls.exec_direct(manager, statement, sql, *args, **kwargs)
            if rc != SQL_SUCCESS:
                attempt.ok = False
            return rc

        def fetch(statement):
            rc, row = cls.fetch(manager, statement)
            if rc != SQL_SUCCESS and rc != SQL_NO_DATA:
                attempt = inflight.get(id(statement))
                if attempt is not None:
                    attempt.ok = False
            return rc, row

        def free_statement(statement):
            attempt = inflight.pop(id(statement), None)
            state = None
            if attempt is not None and not attempt.ok:
                diags = manager.get_diag(statement)
                state = diags[-1].sqlstate if diags else "HY000"
            rc = cls.free_statement(manager, statement)
            if attempt is not None:
                self._finish(attempt, state, _ns(), peek())
            else:
                self._ignored.discard(id(statement))
            return rc

        manager.exec_direct = exec_direct
        manager.fetch = fetch
        manager.free_statement = free_statement

    def ignore(self, statement) -> None:
        """Leave ``statement`` out of the input work (e.g. a report that
        is fetched in pieces alongside the transactions)."""
        self._ignored.add(id(statement))

    def crashed(self) -> None:
        """Mark a server crash; the next input statement to succeed
        closes the recovery pause."""
        if self._crash is None:
            self._crash = (_ns(), self._peek())

    # -- bookkeeping ----------------------------------------------------------

    def _start(self, attempt: _Attempt) -> None:
        session = attempt.session
        if session.after_abort:
            return
        if attempt.verb == "begin":
            session.pos = 0
        session.first.setdefault(session.pos, (attempt.host, attempt.virt))

    def _finish(self, attempt: _Attempt, state: str | None, host: int,
                virt: float) -> None:
        session = attempt.session
        if session.after_abort:
            # The client's cleanup ROLLBACK after an abort: not input.
            if attempt.verb == "rollback":
                session.after_abort = False
            return
        if state is not None:
            self.errors[state] += 1
            if state == "HYT00":
                return                   # same statement retried later
            if state == "40001":
                session.in_txn = False   # transaction replayed from BEGIN
                session.after_abort = True
                session.done.clear()
                return
            self.failed += 1
            session.first.clear()
            session.done.clear()
            session.pos = 0
            return
        session.done[session.pos] = (host, virt)
        session.pos += 1
        if attempt.verb == "begin":
            session.in_txn = True
        elif not session.in_txn or attempt.verb in ("commit", "rollback"):
            self._settle(session)
        if self._crash is not None:
            crash_host, crash_virt = self._crash
            self._crash = None
            self.pause_host_ns.append(host - crash_host)
            self.pause_virt_s.append(virt - crash_virt)

    def _settle(self, session: _Session) -> None:
        """A transaction (or autocommit statement) ended: book its
        statements' first-attempt-to-success latencies."""
        first = session.first
        for pos, (host, virt) in sorted(session.done.items()):
            host0, virt0 = first[pos]
            self.host_ns.append(host - host0)
            self.virt_s.append(virt - virt0)
        first.clear()
        session.done.clear()
        session.in_txn = False
        session.pos = 0

    @property
    def statements(self) -> int:
        """Input statements completed."""
        return len(self.host_ns)
