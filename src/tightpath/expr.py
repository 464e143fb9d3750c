"""The config expression grammar: the one module that parses, checks and
compiles the ``rhs``, ``drift``, ``gain`` and ``components`` expressions of a
config, and that decides what a config may hold as one."""

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


def _compiled(expr: str, labels: tuple) -> tuple:
    """(function of ``(t, *labels)``, whether it reads ``t``, whether it
    has a time pole) of one expression, checked against the grammar."""
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
    params = [ast.arg(name) for name in ("t",) + labels]
    lam = ast.Lambda(ast.arguments([], params, None, [], [], None, []), tree.body)
    code = compile(ast.fix_missing_locations(ast.Expression(lam)), "<expression>", "eval")
    function = eval(code, {"__builtins__": {}, **_ALLOWED_CALLS})  # noqa: S307
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
    entries = [
        (str(expr), (...,) + index, *_compiled(str(expr), labels))
        for expr, index in zip(table.ravel().tolist(), np.ndindex(table.shape))
    ]
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
