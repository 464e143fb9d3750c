"""Exception taxonomy shared across the package, with the readers of
config values and input files that raise its ConfigError."""

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


# Rules for config_number: what a number must be, and the test it must pass.
FINITE = ("a finite number", lambda v: -np.inf < v < np.inf)
POSITIVE = ("positive and finite", lambda v: 0 < v < np.inf)
NONNEGATIVE = ("finite and >= 0", lambda v: 0 <= v < np.inf)
COUNT = ("a positive integer", lambda v: v >= 1)


def config_number(table: dict, key: str, default, kind, rule):
    """Read ``table[key]`` as ``kind``, or ``default`` (unchecked) when absent.

    ``rule`` pairs what the number must be with its test. A ConfigError names
    the key and the raw value. A bool is rejected, not read as 0 or 1, so
    is a string, even one that spells a number, and for ``kind=int`` so is
    a float with a fractional part, not truncated.
    """
    if key not in table:
        return default
    value = table[key]
    if kind is int and (
        isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be a number, got {value!r}") from None
    if not rule[1](number):
        raise ConfigError(f"{key!r} must be {rule[0]}, got {value!r}")
    return number


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
