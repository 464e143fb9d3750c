"""Exception taxonomy shared across the package."""

from __future__ import annotations

import numpy as np


class TightpathError(Exception):
    """Base class for all package errors."""


class DomainError(TightpathError, ValueError):
    """A query fell outside the domain an object was built on."""


class ShapeError(TightpathError, ValueError):
    """Array dimensions are inconsistent with the declared sizes."""


class ConfigError(TightpathError, ValueError):
    """A scenario configuration failed validation; message names the field."""


def config_number(table: dict, key: str, default, kind):
    """Read ``table[key]`` as ``kind``, or ``default`` when the key is absent.

    A ConfigError names the key. A bool is rejected rather than read as 0
    or 1, and for ``kind=int`` so is a float with a fractional part rather
    than truncated.
    """
    if key not in table:
        return default
    value = table[key]
    if kind is int and (
        isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    if isinstance(value, bool):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be a number, got {value!r}") from None


def config_flag(table: dict, key: str, default: bool) -> bool:
    """Read ``table[key]`` as a JSON boolean, or ``default`` when the key is
    absent. Anything else, such as the string ``"false"``, raises a
    ConfigError that names the key."""
    value = table.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def config_array(table: dict, key: str) -> np.ndarray:
    """Read ``table[key]`` as a float array; a missing key raises KeyError.

    A value that does not convert, such as a string or a ragged list, raises
    a ConfigError that names the key.
    """
    value = table[key]
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be an array of numbers, got {value!r}") from None


def config_expressions(table: dict, key: str, rows: int, cols: int | None = None) -> list:
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


class ExpressionError(TightpathError, ValueError):
    """A constraint expression uses syntax outside the supported grammar."""


class ModelEvaluationError(TightpathError):
    """The dynamics returned a non-finite or misshapen value."""


class PropagationError(TightpathError):
    """Integration produced a non-finite state.

    Carries the node time where the blow-up was detected.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class AccuracyError(TightpathError):
    """Half-step cross-check disagreed beyond ``HALF_STEP_TOLERANCE``."""


class SelectionError(TightpathError):
    """No admissible control shift was found within the declared budgets."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InfeasibleTighteningError(TightpathError):
    """A tightened feasible set came up empty inside the sampling box."""

    def __init__(self, message: str, eps: float | None = None, t: float | None = None):
        super().__init__(message)
        self.eps = eps
        self.t = t


class CertificationError(TightpathError):
    """A hypothesis certifier failed; carries the worst witness found."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class InwardPointingError(CertificationError):
    """No admissible inward control schedule exists at some collar sample."""


class BundleError(TightpathError):
    """A certificate bundle is incomplete or does not match the scenario."""


class ScheduleError(TightpathError):
    """Constant scheduling failed.

    ``kind`` is one of ``delta-infeasible``, ``eps-infeasible``,
    ``initial-condition``; ``detail`` names the violated condition.
    """

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class IntervalRepairError(TightpathError):
    """A repaired interval failed its grid interiority check."""

    def __init__(self, message: str, interval: int, margin: float):
        super().__init__(message)
        self.interval = interval
        self.margin = margin


class RepairError(TightpathError):
    """Repair aborted; carries the stage name and the partial report."""

    def __init__(self, message: str, stage: str, report=None):
        super().__init__(message)
        self.stage = stage
        self.report = report
