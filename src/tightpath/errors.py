"""Exception taxonomy shared across the package, and the one reader of
the config and bundle files and of the numbers and arrays they hold."""

from __future__ import annotations

import itertools
import json

import numpy as np


class TightpathError(Exception):
    """Base class for all package errors."""


class DomainError(TightpathError, ValueError):
    """A query fell outside the domain an object was built on."""


class ShapeError(TightpathError, ValueError):
    """Array dimensions are inconsistent with the declared sizes."""


class ConfigError(TightpathError, ValueError):
    """A scenario configuration failed validation; message names the field."""


# Rules for read_number: what a number must be, and the test it must pass.
FINITE = ("a finite number", lambda v: -np.inf < v < np.inf)
POSITIVE = ("positive and finite", lambda v: 0 < v < np.inf)
NONNEGATIVE = ("finite and >= 0", lambda v: 0 <= v < np.inf)
COUNT = ("a positive integer", lambda v: v >= 1)
SEED = ("a non-negative integer", lambda v: v >= 0)


def read_number(value, kind, rule):
    """``value`` as ``kind`` (float or int) if it passes ``rule``, a (what
    it must be, test) pair, else ValueError saying what it must be: so for
    a bool, a string, an integer too large for a float, and for ``kind=int``
    a float with a fractional part, which is not truncated."""
    if kind is int and (
        isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"must be an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        float(value)  # an integer too large for a float, of either kind
    except OverflowError:
        raise ValueError(f"must be a number, got {value!r}") from None
    number = kind(value)
    if not rule[1](number):
        raise ValueError(f"must be {rule[0]}, got {value!r}")
    return number


def read_array(value) -> np.ndarray:
    """``value``, a number or a regular nested list of numbers, as a float
    array, else ValueError: so for a ragged list, and for a string, a bool,
    null or an integer too large for a float anywhere in it."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("must be an array of numbers") from None
    # numpy read the value as a regular nested list: each level above the last holds lists.
    leaves = [value]
    for _ in range(array.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise ValueError("must be an array of numbers")
    return array


def read_json(path, role: str) -> dict:
    """The JSON object in the ``role`` file at ``path``; ConfigError naming
    it for what read_text refuses, for bad JSON and for another top level."""
    try:
        data = json.loads(read_text(path, role))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object, got {type(data).__name__}")
    return data


def config_number(table: dict, key: str, default, kind, rule):
    """``read_number`` of ``table[key]``, or ``default`` (unchecked) when
    absent; a ConfigError names the key and the value."""
    if key not in table:
        return default
    try:
        return read_number(table[key], kind, rule)
    except ValueError as exc:
        raise ConfigError(f"{key!r} {exc}") from None


def config_array(table: dict, key: str) -> np.ndarray:
    """``read_array`` of ``table[key]``: KeyError when it is missing, and a
    ConfigError naming the key when it is malformed."""
    value = table[key]
    try:
        return read_array(value)
    except ValueError:
        raise ConfigError(f"{key!r} must be an array of numbers, got {value!r}") from None


def read_text(path, role: str) -> str:
    """The UTF-8 text of the input file at ``path``, which ``role`` names
    (config, bundle or CSV). A file that is missing, a directory, not
    UTF-8 or otherwise unreadable raises ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{role} file {str(path)!r} does not exist") from None
    except IsADirectoryError:
        raise ConfigError(f"{role} file {str(path)!r} is a directory") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ConfigError(f"{role} file {str(path)!r} cannot be read: {exc.strerror}") from None


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
