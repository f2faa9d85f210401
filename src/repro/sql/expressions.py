"""Expression compilation and evaluation.

Expressions are compiled once per plan into Python closures that evaluate
against an :class:`EvalContext` (the current row plus the chain of outer
rows for correlated subqueries).  SQL semantics implemented here:

* three-valued logic — comparisons with NULL yield unknown (``None``);
  AND/OR/NOT follow Kleene logic; WHERE/HAVING treat unknown as false;
* aggregates (SUM/AVG/COUNT/MIN/MAX, with DISTINCT) skip NULLs; SUM/AVG
  over an empty input are NULL, COUNT is 0;
* ``LIKE`` with ``%``/``_`` wildcards (compiled to cached regexes);
* date arithmetic with ``INTERVAL`` literals and ``EXTRACT``;
* scalar subqueries / IN / EXISTS evaluated through a planner-supplied
  callback, memoized on the outer values they actually reference.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass, field

from repro.errors import ColumnNotFoundError, PlanningError, TypeMismatchError
from repro.sql import ast

#: Process-wide compiler diagnostics, surfaced through the ``sys_executor``
#: system view.  Counts compilations, not evaluations, so steady-state
#: workloads running from the plan cache leave these flat.
EXPR_STATS: dict[str, int] = {
    "exprs_compiled": 0,
    "consts_folded": 0,
    "slot_refs": 0,
}


def slot_of(fn) -> int | None:
    """The level-0 row index a compiled closure reads, if it is a bare
    column (or replacement-slot) reference — the batch executor uses this
    to index tuples directly instead of allocating an :class:`EvalContext`
    per row."""
    return getattr(fn, "_slot", None)


def is_impure(fn) -> bool:
    """True when evaluating ``fn`` can have side effects on the meter
    (the expression contains a subquery, whose execution charges virtual
    time).  Operators read their input one row at a time when an
    expression is impure, so each row's deferred charges are realized
    before the subquery charges."""
    return getattr(fn, "_impure", False)


@dataclass
class EvalContext:
    """Runtime context: the current row and the outer-row chain."""

    row: tuple
    outer: "EvalContext | None" = None

    def at_level(self, level: int) -> "EvalContext":
        ctx = self
        for _ in range(level):
            if ctx.outer is None:
                raise PlanningError("correlation level out of range")
            ctx = ctx.outer
        return ctx


class Scope:
    """Name resolution scope: column bindings of one query level.

    ``bindings`` is an ordered list of ``(table_binding, column_name)``
    pairs, matching the executor's row layout at that level.
    """

    def __init__(self, bindings: list[tuple[str, str]],
                 outer: "Scope | None" = None):
        self.bindings = bindings
        self.outer = outer
        #: (level, index) pairs for outer columns referenced from within
        #: this scope's subqueries — used for correlation memo keys.
        self.outer_refs: list[tuple[int, int]] = []

    def resolve(self, table: str | None, name: str,
                record: bool = True) -> tuple[int, int]:
        """Return (level, index); level 0 is this scope.

        Outer references are recorded on *every* scope they cross (with
        the level re-based to that scope) so a query boundary can ask
        "which outer values does anything inside me read?" — the planner
        uses this for correlated-subquery memoization keys.  Pass
        ``record=False`` for metadata-only resolution (type inference,
        structural keys), which must not count as a runtime correlation.
        """
        scope: Scope | None = self
        level = 0
        crossed: list[Scope] = []
        while scope is not None:
            index = scope._lookup(table, name)
            if index is not None:
                if record:
                    for distance, inner in enumerate(crossed):
                        inner._record_outer_ref(level - distance, index)
                return level, index
            crossed.append(scope)
            scope = scope.outer
            level += 1
        qualified = f"{table}.{name}" if table else name
        raise ColumnNotFoundError(f"unknown column {qualified!r}")

    def _lookup(self, table: str | None, name: str) -> int | None:
        name = name.lower()
        matches = []
        for i, (binding, column) in enumerate(self.bindings):
            if column.lower() != name:
                continue
            if table is not None and binding.lower() != table.lower():
                continue
            matches.append(i)
        if not matches:
            return None
        if len(matches) > 1:
            qualified = f"{table}.{name}" if table else name
            raise ColumnNotFoundError(f"ambiguous column {qualified!r}")
        return matches[0]

    def _record_outer_ref(self, level: int, index: int) -> None:
        ref = (level, index)
        if ref not in self.outer_refs:
            self.outer_refs.append(ref)


# ---------------------------------------------------------------------------
# Three-valued logic helpers
# ---------------------------------------------------------------------------


def sql_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def sql_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sql_not(a):
    if a is None:
        return None
    return not a


def is_true(value) -> bool:
    """WHERE semantics: unknown is not true."""
    return value is True


_COMPARES = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def sql_compare(op: str, a, b):
    if a is None or b is None:
        return None
    # Branches ordered by frequency (numbers dominate key comparisons);
    # the guards are mutually exclusive so order never changes the result.
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _COMPARES[op](a, b)
    if isinstance(a, str) and isinstance(b, str):
        return _COMPARES[op](a, b)
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return _COMPARES[op](a, b)
    # Mixed string/number comparisons: coerce string to number if possible.
    if isinstance(a, str) and isinstance(b, (int, float)):
        try:
            return _COMPARES[op](float(a), float(b))
        except ValueError:
            pass
    if isinstance(b, str) and isinstance(a, (int, float)):
        try:
            return _COMPARES[op](float(a), float(b))
        except ValueError:
            pass
    raise TypeMismatchError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}")


def _add(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, datetime.date) and isinstance(b, _IntervalValue):
        return b.add_to(a)
    if isinstance(b, datetime.date) and isinstance(a, _IntervalValue):
        return a.add_to(b)
    return a + b


def _sub(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, datetime.date) and isinstance(b, _IntervalValue):
        return b.subtract_from(a)
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return (a - b).days
    return a - b


def _mul(a, b):
    if a is None or b is None:
        return None
    return a * b


def _div(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        return None  # SQL engines raise; returning NULL keeps queries total
    return a / b


def _concat(a, b):
    if a is None or b is None:
        return None
    return str(a) + str(b)


_ARITH = {"+": _add, "-": _sub, "*": _mul, "/": _div, "||": _concat}


@dataclass(frozen=True)
class _IntervalValue:
    """Runtime value of an INTERVAL literal."""

    amount: int
    unit: str  # 'year' | 'month' | 'day'

    def add_to(self, date: datetime.date) -> datetime.date:
        return _shift_date(date, self.amount, self.unit)

    def subtract_from(self, date: datetime.date) -> datetime.date:
        return _shift_date(date, -self.amount, self.unit)


def _shift_date(date: datetime.date, amount: int, unit: str) -> datetime.date:
    if unit == "day":
        return date + datetime.timedelta(days=amount)
    months = amount * (12 if unit == "year" else 1)
    total = date.year * 12 + (date.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    day = min(date.day, _days_in_month(year, month))
    return datetime.date(year, month, day)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    first_next = datetime.date(year, month + 1, 1)
    return (first_next - datetime.timedelta(days=1)).day


_LIKE_CACHE: dict[str, re.Pattern] = {}


def like_match(value, pattern) -> bool | None:
    if value is None or pattern is None:
        return None
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        regex = re.compile("^" + "".join(parts) + "$", re.DOTALL)
        _LIKE_CACHE[pattern] = regex
    return regex.match(str(value)) is not None


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_substring(args):
    text, start = args[0], args[1]
    if text is None or start is None:
        return None
    start_index = max(0, int(start) - 1)
    if len(args) > 2 and args[2] is not None:
        return str(text)[start_index:start_index + int(args[2])]
    return str(text)[start_index:]


def _fn_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


_SCALAR_FUNCS = {
    "substring": _fn_substring,
    "coalesce": _fn_coalesce,
    "upper": lambda a: None if a[0] is None else str(a[0]).upper(),
    "lower": lambda a: None if a[0] is None else str(a[0]).lower(),
    "abs": lambda a: None if a[0] is None else abs(a[0]),
    "round": lambda a: None if a[0] is None else round(
        a[0], int(a[1]) if len(a) > 1 and a[1] is not None else 0),
    "length": lambda a: None if a[0] is None else len(str(a[0])),
    "mod": lambda a: None if (a[0] is None or a[1] is None) else a[0] % a[1],
}

AGGREGATE_NAMES = frozenset({"sum", "avg", "count", "min", "max"})


def is_aggregate_call(node: ast.Expr) -> bool:
    return isinstance(node, ast.FuncCall) and node.name in AGGREGATE_NAMES


def find_aggregates(node: ast.Expr | None) -> list[ast.FuncCall]:
    """Collect aggregate calls in ``node`` (not descending into subqueries)."""
    found: list[ast.FuncCall] = []
    _walk_for_aggregates(node, found)
    return found


def _walk_for_aggregates(node, found: list) -> None:
    if node is None or not isinstance(node, ast.Expr):
        return
    if is_aggregate_call(node):
        found.append(node)
        return  # nested aggregates are invalid; args handled by the agg
    for child in _children(node):
        _walk_for_aggregates(child, found)


def expr_has_subquery(node) -> bool:
    """True when ``node``'s subtree contains any subquery expression."""
    if node is None or not isinstance(node, ast.Expr):
        return False
    if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
        return True
    return any(expr_has_subquery(child) for child in _children(node))


_CONST_LEAVES = (ast.Literal, ast.Interval)
_NONCONST_NODES = (ast.ColumnRef, ast.Param, ast.ScalarSubquery,
                   ast.Exists, ast.InSubquery)
#: Context handed to constant subtrees when folding; they never read it.
_CONST_CTX = EvalContext(row=())


def _is_constant(node: ast.Expr) -> bool:
    """True when ``node`` evaluates to the same value on every row:
    literal leaves combined by deterministic operators/functions, with no
    column refs, parameters, or subqueries anywhere in the subtree."""
    if isinstance(node, _NONCONST_NODES):
        return False
    if isinstance(node, ast.FuncCall) and node.name in AGGREGATE_NAMES:
        return False
    children = _children(node)
    if not children:
        # Unknown childless node types are conservatively non-constant.
        return isinstance(node, _CONST_LEAVES)
    return all(_is_constant(child) for child in children)


def _children(node: ast.Expr):
    if isinstance(node, ast.Unary):
        return [node.operand]
    if isinstance(node, ast.Binary):
        return [node.left, node.right]
    if isinstance(node, ast.IsNull):
        return [node.operand]
    if isinstance(node, ast.Between):
        return [node.operand, node.low, node.high]
    if isinstance(node, ast.InList):
        return [node.operand] + list(node.items)
    if isinstance(node, ast.InSubquery):
        return [node.operand]
    if isinstance(node, ast.Like):
        return [node.operand, node.pattern]
    if isinstance(node, ast.CaseWhen):
        children = []
        for cond, result in node.whens:
            children.extend([cond, result])
        if node.else_result is not None:
            children.append(node.else_result)
        return children
    if isinstance(node, ast.FuncCall):
        return list(node.args)
    if isinstance(node, ast.Extract):
        return [node.operand]
    return []


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


@dataclass
class CompiledSubquery:
    """A planned subquery plus its correlation bookkeeping."""

    plan: object  # repro.sql.planner.Plan (kept loose to avoid a cycle)
    outer_refs: list[tuple[int, int]] = field(default_factory=list)
    memo: dict = field(default_factory=dict)


class ExprCompiler:
    """Compiles AST expressions into evaluator closures.

    ``subquery_planner(select, scope)`` is provided by the planner and
    returns a plan object; ``subquery_runner(plan, ctx)`` is provided by
    the executor at run time through the context — here we receive it at
    construction to keep closures self-contained.

    ``replacements`` maps ``id(ast_node)`` to an output slot index — the
    planner uses it to make post-aggregation expressions read aggregate
    results (and GROUP BY keys) from the aggregated row.
    """

    def __init__(self, scope: Scope, subquery_planner=None,
                 subquery_runner=None, params: dict | None = None,
                 replacements: dict[int, int] | None = None,
                 subquery_log: list | None = None):
        self._scope = scope
        self._plan_subquery = subquery_planner
        self._run_subquery = subquery_runner
        self._params = params or {}
        self._replacements = replacements or {}
        self._subquery_log = subquery_log

    def compile(self, node: ast.Expr):
        """Return ``fn(ctx: EvalContext) -> value``.

        Compiled closures carry two advisory attributes read through
        :func:`slot_of` / :func:`is_impure`: ``_slot`` (the closure is a
        bare level-0 column read of that tuple index — eligible for the
        batch executor's direct-indexing fast paths) and ``_impure`` (the
        subtree contains a subquery, so evaluation charges the meter and
        the operator must read its input one row at a time).  Constant
        subtrees are folded to their value at compile time; a fold that
        raises falls back to the runtime closure so errors still surface
        during execution, exactly as before.
        """
        slot = self._replacements.get(id(node))
        if slot is not None:
            fn = lambda ctx, s=slot: ctx.row[s]  # noqa: E731
            fn._slot = slot
            EXPR_STATS["slot_refs"] += 1
            return fn
        method = getattr(self, "_compile_" + type(node).__name__.lower(),
                         None)
        if method is None:
            raise PlanningError(
                f"cannot compile expression node {type(node).__name__}")
        fn = method(node)
        EXPR_STATS["exprs_compiled"] += 1
        if expr_has_subquery(node):
            fn._impure = True
            return fn
        if not isinstance(node, _CONST_LEAVES) and _is_constant(node):
            try:
                value = fn(_CONST_CTX)
            except Exception:
                return fn
            EXPR_STATS["consts_folded"] += 1
            return lambda ctx, v=value: v
        return fn

    # -- leaves ---------------------------------------------------------------

    def _compile_literal(self, node: ast.Literal):
        value = node.value
        return lambda ctx: value

    def _compile_interval(self, node: ast.Interval):
        value = _IntervalValue(node.amount, node.unit)
        return lambda ctx: value

    def _compile_param(self, node: ast.Param):
        if node.name not in self._params:
            raise PlanningError(f"unbound parameter @{node.name}")
        # Look the value up at eval time: cached plans are re-executed with
        # the same (mutable) params dict rebound to new values.
        params = self._params
        name = node.name
        return lambda ctx: params[name]

    def _compile_columnref(self, node: ast.ColumnRef):
        level, index = self._scope.resolve(node.table, node.name)
        if level == 0:
            fn = lambda ctx, i=index: ctx.row[i]  # noqa: E731
            fn._slot = index
            EXPR_STATS["slot_refs"] += 1
            return fn
        return lambda ctx, l=level, i=index: ctx.at_level(l).row[i]

    # -- operators ---------------------------------------------------------

    def _compile_unary(self, node: ast.Unary):
        operand = self.compile(node.operand)
        if node.op == "NOT":
            return lambda ctx: sql_not(operand(ctx))
        if node.op == "-":
            return lambda ctx: None if operand(ctx) is None else -operand(ctx)
        return operand

    def _compile_binary(self, node: ast.Binary):
        left = self.compile(node.left)
        right = self.compile(node.right)
        op = node.op
        if op == "AND":
            return lambda ctx: sql_and(left(ctx), right(ctx))
        if op == "OR":
            return lambda ctx: sql_or(left(ctx), right(ctx))
        if op in _COMPARES:
            return lambda ctx: sql_compare(op, left(ctx), right(ctx))
        if op in _ARITH:
            fn = _ARITH[op]
            return lambda ctx: fn(left(ctx), right(ctx))
        raise PlanningError(f"unknown binary operator {op!r}")

    def _compile_isnull(self, node: ast.IsNull):
        operand = self.compile(node.operand)
        if node.negated:
            return lambda ctx: operand(ctx) is not None
        return lambda ctx: operand(ctx) is None

    def _compile_between(self, node: ast.Between):
        operand = self.compile(node.operand)
        low = self.compile(node.low)
        high = self.compile(node.high)

        def evaluate(ctx):
            value = operand(ctx)
            result = sql_and(sql_compare(">=", value, low(ctx)),
                             sql_compare("<=", value, high(ctx)))
            return sql_not(result) if node.negated else result

        return evaluate

    def _compile_inlist(self, node: ast.InList):
        operand = self.compile(node.operand)
        items = [self.compile(item) for item in node.items]
        negated = node.negated

        def evaluate(ctx):
            value = operand(ctx)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(ctx)
                if candidate is None:
                    saw_null = True
                    continue
                if sql_compare("=", value, candidate) is True:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        # Fast path: every list item is a numeric literal.  A frozenset
        # probe matches sql_compare's numeric ``=`` exactly (int/float
        # hash equality), and the NULL bookkeeping vanishes because no
        # candidate is NULL.  Non-numeric operand values (a string
        # compared against numbers, a date mismatch) fall back to the
        # general loop so coercion and error behavior stay identical.
        if items and all(isinstance(item, ast.Literal)
                         and type(item.value) in (int, float)
                         for item in node.items):
            candidates = frozenset(item.value for item in node.items)

            def evaluate_fast(ctx):
                value = operand(ctx)
                if value is None:
                    return None
                if type(value) is int or type(value) is float:
                    hit = value in candidates
                    return (not hit) if negated else hit
                return evaluate(ctx)

            return evaluate_fast

        return evaluate

    def _compile_like(self, node: ast.Like):
        operand = self.compile(node.operand)
        pattern = self.compile(node.pattern)

        def evaluate(ctx):
            result = like_match(operand(ctx), pattern(ctx))
            return sql_not(result) if node.negated else result

        return evaluate

    def _compile_casewhen(self, node: ast.CaseWhen):
        whens = [(self.compile(cond), self.compile(result))
                 for cond, result in node.whens]
        else_fn = (self.compile(node.else_result)
                   if node.else_result is not None else None)

        def evaluate(ctx):
            for cond, result in whens:
                if is_true(cond(ctx)):
                    return result(ctx)
            return else_fn(ctx) if else_fn is not None else None

        return evaluate

    def _compile_extract(self, node: ast.Extract):
        operand = self.compile(node.operand)
        attr = node.field_name

        def evaluate(ctx):
            value = operand(ctx)
            if value is None:
                return None
            if not isinstance(value, datetime.date):
                raise TypeMismatchError(
                    f"EXTRACT expects a date, got {type(value).__name__}")
            return getattr(value, attr)

        return evaluate

    def _compile_funccall(self, node: ast.FuncCall):
        if node.name in AGGREGATE_NAMES:
            raise PlanningError(
                f"aggregate {node.name.upper()} used outside an "
                f"aggregating context")
        fn = _SCALAR_FUNCS.get(node.name)
        if fn is None:
            raise PlanningError(f"unknown function {node.name!r}")
        args = [self.compile(arg) for arg in node.args]
        return lambda ctx: fn([arg(ctx) for arg in args])

    # -- subqueries ----------------------------------------------------------

    def _compile_scalarsubquery(self, node: ast.ScalarSubquery):
        compiled = self._prepare_subquery(node.subquery)

        def evaluate(ctx):
            rows = self._execute_subquery(compiled, ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise PlanningError("scalar subquery returned multiple rows")
            if len(rows[0]) != 1:
                raise PlanningError(
                    "scalar subquery must return one column")
            return rows[0][0]

        return evaluate

    def _compile_exists(self, node: ast.Exists):
        compiled = self._prepare_subquery(node.subquery, limit_one=True)

        def evaluate(ctx):
            rows = self._execute_subquery(compiled, ctx)
            result = bool(rows)
            return (not result) if node.negated else result

        return evaluate

    def _compile_insubquery(self, node: ast.InSubquery):
        operand = self.compile(node.operand)
        compiled = self._prepare_subquery(node.subquery)

        def evaluate(ctx):
            value = operand(ctx)
            if value is None:
                return None
            rows = self._execute_subquery(compiled, ctx)
            saw_null = False
            for row in rows:
                candidate = row[0]
                if candidate is None:
                    saw_null = True
                    continue
                if sql_compare("=", value, candidate) is True:
                    return False if node.negated else True
            if saw_null:
                return None
            return True if node.negated else False

        return evaluate

    def _prepare_subquery(self, select: ast.SelectStatement,
                          limit_one: bool = False) -> CompiledSubquery:
        if self._plan_subquery is None:
            raise PlanningError("subqueries are not allowed in this context")
        plan, outer_refs = self._plan_subquery(select, self._scope,
                                               limit_one)
        compiled = CompiledSubquery(plan=plan, outer_refs=outer_refs)
        if self._subquery_log is not None:
            self._subquery_log.append(compiled)
        return compiled

    def _execute_subquery(self, compiled: CompiledSubquery,
                          ctx: EvalContext) -> list[tuple]:
        key = tuple(ctx.at_level(level - 1).row[index] if level > 0 else None
                    for level, index in compiled.outer_refs)
        cached = compiled.memo.get(key)
        if cached is not None:
            return cached
        rows = self._run_subquery(compiled.plan, ctx)
        compiled.memo[key] = rows
        return rows
