"""The config expression grammar: the one module that parses, checks, compiles
and differentiates (``jacobian``) the ``rhs``, ``drift``, ``gain`` and
``components`` expressions of a config, and decides what a config may hold as one."""

from __future__ import annotations

import ast

import numpy as np

from .errors import FINITE, ConfigError, ExpressionError, ModelEvaluationError, read_number

_ALLOWED_CALLS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "arctan": np.arctan,
    "pow": np.power,
}
_ALLOWED_NODES = (
    ast.Expression, ast.Load, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
)


def read_expressions(table: dict, key: str, rows: int, cols: int | None = None) -> list:
    """Read ``table[key]`` as one expression per state, or with ``cols`` as
    one row of ``cols`` expressions per state; a missing key raises KeyError.

    An expression is a string or a number other than a bool. Any other
    value, or a list of the wrong length, raises a ConfigError that names
    the key and the shape it must have.
    """
    value = table[key]

    def is_list(item, length):
        return isinstance(item, (list, tuple)) and len(item) == length

    def is_expression(item):
        return isinstance(item, (str, int, float)) and not isinstance(item, bool)

    if cols is None:
        ok = is_list(value, rows) and all(map(is_expression, value))
        shape = f"one {key} expression per state: a list of {rows} strings or numbers"
    else:
        ok = is_list(value, rows) and all(
            is_list(row, cols) and all(map(is_expression, row)) for row in value
        )
        shape = f"one {key} row per state: a list of {rows} rows of {cols} strings or numbers"
    if not ok:
        raise ConfigError(f"{key!r} must be {shape}, got {value!r}")
    return list(value)


def _names(node) -> set:
    """The names read anywhere in an expression's syntax tree."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _checked(expr: str, labels: tuple) -> ast.Expression:
    """The syntax tree of one expression, checked against the grammar."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc.msg}") from None
    variables = {"t"} | set(labels)
    for node in ast.walk(tree):
        # ast.walk visits every operator node too, so an operator outside
        # the grammar is caught on its own.
        if isinstance(node, _ALLOWED_NODES):
            continue
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_CALLS
                or node.keywords
                # numpy takes one more positional argument as ``out``.
                or len(node.args) != (2 if node.func.id == "pow" else 1)
            ):
                raise ExpressionError(
                    f"{expr!r}: only calls to {sorted(_ALLOWED_CALLS)} allowed, "
                    "pow with two arguments and the others with one"
                )
            continue
        if isinstance(node, ast.Name):
            if node.id in _ALLOWED_CALLS or node.id in variables:
                continue
            raise ExpressionError(f"{expr!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant):
            try:
                read_number(node.value, float, FINITE)
            except ValueError:
                raise ExpressionError(f"{expr!r}: only finite float constants allowed") from None
            continue
        raise ExpressionError(f"{expr!r}: disallowed syntax {type(node).__name__}")
    return tree


def _compiled(tree: ast.Expression, labels: tuple) -> tuple:
    """(function of ``(t, *labels)``, whether it reads ``t``, whether it
    has a time pole) of one checked tree."""
    params = [ast.arg(name) for name in ("t",) + labels]
    lam = ast.Lambda(ast.arguments([], params, None, [], [], None, []), tree.body)
    code = compile(ast.fix_missing_locations(ast.Expression(lam)), "<expression>", "eval")
    # ``sign`` appears only in derivative trees: the grammar check refuses it.
    function = eval(code, {"__builtins__": {}, **_ALLOWED_CALLS, "sign": np.sign})  # noqa: S307
    # Python float arithmetic raises only in / and ** on terms of t and
    # constants alone; every term that reads a coordinate is numpy's, which
    # warns and returns inf or NaN for a float time and a numpy time alike.
    time_poles = any(
        isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Div, ast.Pow))
        and "t" in _names(node)
        and not _names(node) & set(labels)
        for node in ast.walk(tree)
    )
    return function, "t" in _names(tree), time_poles


def _value(expr: str, function, t, columns, out: np.ndarray) -> np.ndarray:
    """``out`` set to the compiled expression at ``t`` plus 0.0; a float
    error or a complex value raises ModelEvaluationError naming it and ``t``."""
    try:
        value = function(t, *columns)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ModelEvaluationError(f"{expr!r} cannot be evaluated at t={t}: {exc}") from None
    try:
        return np.add(value, 0.0, out=out)
    except TypeError:  # float ** of a negative number to a fractional power is complex
        raise ModelEvaluationError(f"{expr!r} is not real at t={t}") from None


def _at_each_time(expr: str, function, t, columns, shape: tuple) -> np.ndarray:
    """The value over a batch of ``shape``, the rows of each distinct time
    evaluated at its float time, in increasing order. On a term of t alone,
    float arithmetic raises where numpy's warns, and its ** may differ by an
    ulp: so a numpy time gives each row bitwise what a float time gives it."""
    times = np.broadcast_to(np.asarray(t, dtype=float), shape).ravel()
    rows = [np.broadcast_to(column, shape).ravel() for column in columns]
    out = np.empty(times.size)
    order = np.argsort(times, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(times[order])) + 1):
        if group.size:
            at, part = float(times[group[0]]), [row[group] for row in rows]
            out[group] = _value(expr, function, at, part, np.empty(group.size))
    return out.reshape(shape)


def compile_expressions(exprs, **sizes):
    """Compile one expression, a list, or a list of rows to ``f(t, *arrays)``,
    with ``f.reads_time`` set when any expression reads ``t``.

    ``sizes`` names the arrays in order: ``x=2, u=2`` reads ``x1, x2, u1,
    u2`` off the last axes of ``f(t, x, u)``. The value has the first
    array's batch shape, broadcast with a numpy ``t`` of another shape,
    then the shape of ``exprs``; each entry is its expression plus 0.0,
    which broadcasts a constant and reads -0.0 as 0.0. Syntax outside the
    grammar raises ExpressionError. A division by zero, an overflow or a
    complex value in Python float arithmetic on ``t`` raises
    ModelEvaluationError naming the expression and ``t``, and a numpy ``t``
    raises for the same times (``_at_each_time``).
    """
    table = np.array(exprs, dtype=object)
    labels = tuple(f"{name}{i + 1}" for name, size in sizes.items() for i in range(size))
    entries = []
    for expr, index in zip(table.ravel().tolist(), np.ndindex(table.shape)):
        # A derivative tree comes checked, and is named by its text.
        tree = expr if isinstance(expr, ast.Expression) else _checked(str(expr), labels)
        text = ast.unparse(tree) if tree is expr else str(expr)
        entries.append((text, (...,) + index, *_compiled(tree, labels)))
    counts = tuple(sizes.values())

    def evaluate(t, *arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        columns = [a[..., i] for a, n in zip(arrays, counts) for i in range(n)]
        batch = arrays[0].shape[:-1]
        if isinstance(t, np.ndarray) and t.ndim and t.shape != batch:
            batch = np.broadcast_shapes(t.shape, batch)
        out = np.empty(batch + table.shape)
        for expr, slot, function, _, time_poles in entries:
            if time_poles and isinstance(t, (np.ndarray, np.generic)):
                out[slot] = _at_each_time(expr, function, t, columns, batch)
            else:
                _value(expr, function, t, columns, out[slot])
        return out

    evaluate.reads_time = any(entry[3] for entry in entries)
    return evaluate


# d f(a)/da of each call but pow, over the text of a: abs takes sign, a
# Clarke element that is 0 at 0, and sqrt's rule divides by zero at 0.
_SLOPES = {"abs": "sign({})", "sqrt": "0.5 / sqrt({})", "sin": "cos({})", "cos": "-sin({})"}
_SLOPES["arctan"] = "1.0 / (1.0 + {0} * {0})"


def _bin(a, op: str, b):
    """The text of ``a op b``, with None read as 0 and a factor 1.0 dropped."""
    if op in "*/" and (a is None or b is None):
        return None
    if op == "*" and "1.0" in (a, b):
        return b if a == "1.0" else a
    if a is None or b is None:
        return a if b is None else b if op == "+" else f"-({b})"
    return f"({a}) {op} ({b})"


def _derivative(node, v: str):
    """The text of d(node)/dv, or None where it is 0: where ``node`` does
    not read ``v``. A power whose exponent reads ``v`` needs log, which the
    grammar lacks, and raises ExpressionError."""
    if isinstance(node, (ast.Name, ast.Constant)):
        return "1.0" if isinstance(node, ast.Name) and node.id == v else None
    if isinstance(node, ast.UnaryOp):
        inner = _derivative(node.operand, v)
        return _bin(None, "-", inner) if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Call) and node.func.id != "pow":
        a, da = node.args[0], _derivative(node.args[0], v)
        return da and _bin(_SLOPES[node.func.id].format(f"({ast.unparse(a)})"), "*", da)
    a, b = node.args if isinstance(node, ast.Call) else (node.left, node.right)
    da, db = _derivative(a, v), _derivative(b, v)
    if da is None and db is None:
        return None
    ta, tb = ast.unparse(a), ast.unparse(b)
    if isinstance(node, ast.Call) or isinstance(node.op, ast.Pow):
        if db is not None:
            raise ExpressionError(f"{ast.unparse(node)!r}: a power whose exponent reads {v} "
                                  "has a derivative that needs log, which the grammar lacks")
        if not isinstance(b, ast.Constant):
            return _bin(_bin(tb, "*", f"({ta}) ** (({tb}) - 1.0)"), "*", da)
        power = ta if b.value == 2 else f"({ta}) ** {b.value - 1!r}"
        return _bin(_bin(tb, "*", power), "*", da) if b.value else None  # a ** 0 is 1
    op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}[type(node.op)]
    if op in "+-":
        return _bin(da, op, db)
    if op == "*":
        return _bin(_bin(da, "*", tb), "+", _bin(ta, "*", db))
    # (a/b)' = a'/b - (a/b)·b'/b
    return _bin(_bin(da, "/", tb), "-", _bin(ast.unparse(node), "*", _bin(db, "/", tb)))


def jacobian(exprs, wrt: str, count: int, **sizes):
    """``compile_expressions`` of the derivatives of ``exprs`` by ``{wrt}1``
    .. ``{wrt}{count}``, which ``exprs`` may read, over the arrays of
    ``sizes``: the value's shape ends with ``count``. None when a derivative
    reads a ``wrt`` name outside ``sizes`` (d(u1*u1)/du1 does) or needs log.
    A float error, as ``sqrt``'s rule meets at 0, is a ModelEvaluationError."""
    table = np.array(exprs, dtype=object)
    names = [f"{wrt}{k + 1}" for k in range(count)]
    known = [f"{name}{i + 1}" for name, size in sizes.items() for i in range(size)]
    others = set(names) - set(known)
    try:
        bodies = [_checked(str(e), (*known, *others)).body for e in table.ravel()]
        texts = [_derivative(body, v) or "0.0" for body in bodies for v in names]
    except ExpressionError:
        return None
    trees = [ast.parse(text, mode="eval") for text in texts]  # calls sign: no grammar check
    if any(_names(tree) & others for tree in trees):
        return None
    trees = np.array(trees, dtype=object).reshape(table.shape + (count,)).tolist()
    compiled = []  # at the first call: a model or field may never be asked

    def evaluate(t, *arrays):
        if not compiled:
            compiled.append(compile_expressions(trees, **sizes))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                return compiled[0](t, *arrays)
            except FloatingPointError as exc:
                where = f"{wrt}-derivatives of {table.tolist()!r}"
                raise ModelEvaluationError(f"{where} are undefined at t={t}: {exc}") from None

    return evaluate
