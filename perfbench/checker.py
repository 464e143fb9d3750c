"""Independent checks of one repair run's artifacts.

Nothing here calls into ``tightpath``. The right-hand sides and the exact
constraint distances are written from each model's formula, the CSVs are
parsed by hand, and the trajectory is re-integrated with SciPy's DOP853.
The checks are:

* the three guarantees: an exact margin above 0 at every node of
  ``x_eps`` (with ``eps`` read from ``report.txt``), a sup gap to the
  reference of at most ``lam``, and a piecewise-constant L2 cost gap of at
  most ``lam``;
* ``x_eps`` is a trajectory of the system under ``u_eps``: each cell is
  re-integrated from its left node, the right node must agree within
  ``tol``, and the exact margin must stay above 0 at points inside every
  cell (interiority in continuous time, not only at the nodes);
* repetitions of one workload leave byte-identical artifacts.

Any violation raises :class:`CheckFailure`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

CERTIFY_ARTIFACTS = ("bundle.json",)
REPAIR_ARTIFACTS = ("x_eps.csv", "u_eps.csv", "report.txt")

# Re-integration tolerance: the program's integrator promises 1e-6.
NODE_TOLERANCE = 1e-6
# Fractions of each cell at which the between-node margin is evaluated.
CELL_PROBES = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)

_RTOL = 1e-12
_ATOL = 1e-13


class CheckFailure(Exception):
    """An artifact fails an independent check."""


def _motor_drift(x):
    return 0.2 * np.cos(x)


def surge_rhs(t, x, u):
    """motor_surge: 0.2 cos x + g(t) u, with g = 1 up to t = 1, then (t - 1)^(-1/4)."""
    late = t > 1.0
    gain = np.where(late, np.where(late, t - 1.0, 1.0) ** -0.25, 1.0)
    return _motor_drift(x) + gain * u


def decline_rhs(t, x, u):
    """motor_decline: 0.2 cos x + d(t) arctan u, with d = 1 up to t = 1, then 1 - sqrt(t - 1)/2."""
    late = t > 1.0
    decay = np.where(late, 1.0 - 0.5 * np.sqrt(np.where(late, t - 1.0, 0.0)), 1.0)
    return _motor_drift(x) + decay * np.arctan(u)


def single_integrator_rhs(t, x, u):
    """x' = u."""
    return u + 0.0 * x


@dataclass(frozen=True)
class System:
    """Dynamics and constraint of one workload, from their formulas.

    ``rhs(t, x, u)`` takes ``t`` of shape (n, 1) and ``x``, ``u`` of shape
    (n, d) and (n, m). The constraint is the complement of the unit ball
    around ``centre_speed * t`` along the first axis, so the exact margin
    of ``x`` at tightening ``eps`` is ``|x - c(t)| - (1 + eps)``.
    ``breakpoints`` are times where ``rhs`` is singular or kinked in t.
    """

    rhs: object
    centre_speed: float = 0.0
    breakpoints: tuple = ()

    def margin(self, t, x, eps: float) -> np.ndarray:
        t = np.asarray(t, dtype=float).reshape(-1)
        x = np.asarray(x, dtype=float).reshape(t.size, -1)
        offset = x.copy()
        offset[:, 0] -= self.centre_speed * t
        return np.linalg.norm(offset, axis=1) - (1.0 + eps)


@dataclass(frozen=True)
class Reference:
    """The reference pair handed to the program, one row per grid node."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray


@dataclass(frozen=True)
class Findings:
    """What the checks measured on one set of artifacts."""

    eps: float
    margin_min: float
    between_margin_min: float
    node_gap: float
    sup_gap: float
    cost_gap: float


def read_csv(path, prefix: str, width: int):
    """Parse a ``t,<prefix>1..`` CSV strictly; returns (times, values)."""
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise CheckFailure(f"{path}: cannot read ({exc})") from None
    if lines[-1] != "":
        raise CheckFailure(f"{path}: does not end with a newline")
    header = ["t"] + [f"{prefix}{j + 1}" for j in range(width)]
    if lines[0].split(",") != header:
        raise CheckFailure(f"{path}: header {lines[0]!r} is not {','.join(header)!r}")
    rows = []
    for number, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        if len(fields) != width + 1:
            raise CheckFailure(f"{path}:{number}: {len(fields)} fields, expected {width + 1}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise CheckFailure(f"{path}:{number}: not a number in {line!r}") from None
    data = np.asarray(rows, dtype=float).reshape(-1, width + 1)
    if not np.all(np.isfinite(data)):
        raise CheckFailure(f"{path}: non-finite entries")
    return data[:, 0], data[:, 1:]


def read_eps(path) -> float:
    """The scheduled tightening: ``eps`` in the ``[constants]`` block of report.txt."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailure(f"{path}: cannot read ({exc})") from None
    section = None
    for line in lines:
        if line.startswith("["):
            section = line
        elif section == "[constants]" and line.startswith("eps = "):
            try:
                return float(line[len("eps = "):])
            except ValueError:
                break
    raise CheckFailure(f"{path}: no 'eps = <number>' line in [constants]")


def _singular_cells(times: np.ndarray, breakpoints) -> np.ndarray:
    cells = np.zeros(times.size - 1, dtype=bool)
    for b in breakpoints:
        cells |= (times[:-1] <= b) & (b < times[1:])
    return cells


def reintegrate(system: System, times, states, controls, eps: float):
    """Re-integrate every cell from its left node under its control value.

    Returns ``(node_gap, between_margin_min)``: the largest distance
    between a re-integrated right end and the stored right node, and the
    smallest exact margin at the interior probe points of all cells.
    Smooth cells are integrated together as one stacked system on the
    unit time of each cell; cells that touch a breakpoint get their own
    solve, so that step control sees the singularity.
    """
    times = np.asarray(times, dtype=float)
    h = np.diff(times)
    n, d = h.size, states.shape[1]
    x0 = states[:-1]
    u = controls[:-1]
    probes = np.asarray(CELL_PROBES)
    ends = np.empty((n, d))
    inner = np.empty((n, probes.size, d))

    smooth = np.flatnonzero(~_singular_cells(times, system.breakpoints))
    if smooth.size:
        t0 = times[smooth][:, None]
        hs = h[smooth][:, None]
        us = u[smooth]

        def stacked(tau, y):
            x = y.reshape(-1, d)
            return (hs * system.rhs(t0 + tau * hs, x, us)).reshape(-1)

        sol = solve_ivp(
            stacked, (0.0, 1.0), x0[smooth].reshape(-1), method="DOP853",
            rtol=_RTOL, atol=_ATOL, dense_output=True,
        )
        if not sol.success:
            raise CheckFailure(f"re-integration failed: {sol.message}")
        ends[smooth] = sol.y[:, -1].reshape(-1, d)
        inner[smooth] = sol.sol(probes).T.reshape(probes.size, -1, d).transpose(1, 0, 2)
    for i in np.flatnonzero(_singular_cells(times, system.breakpoints)):
        ui = u[i : i + 1]

        def single(t, y):
            return system.rhs(np.array([[t]]), y.reshape(1, d), ui).reshape(-1)

        sol = solve_ivp(
            single, (times[i], times[i + 1]), x0[i], method="DOP853",
            rtol=_RTOL, atol=_ATOL, dense_output=True,
        )
        if not sol.success:
            raise CheckFailure(f"re-integration of cell {i} failed: {sol.message}")
        ends[i] = sol.y[:, -1]
        inner[i] = sol.sol(times[i] + probes * h[i]).T
    node_gap = float(np.max(np.linalg.norm(ends - states[1:], axis=1)))
    probe_times = times[:-1, None] + probes[None, :] * h[:, None]
    between = system.margin(probe_times.reshape(-1), inner.reshape(-1, d), eps)
    return node_gap, float(between.min())


def _cost(times, controls) -> float:
    return float(np.sum(np.diff(times) * np.sum(controls[:-1] ** 2, axis=1)))


def check_reference(system: System, reference: Reference, tol: float = NODE_TOLERANCE) -> None:
    """The reference must be feasible and a trajectory of its own control."""
    margins = system.margin(reference.times, reference.states, 0.0)
    if margins.min() < 0:
        raise CheckFailure(f"reference leaves the constraint (margin {margins.min():.3e})")
    gap, _ = reintegrate(system, reference.times, reference.states, reference.controls, 0.0)
    if gap > tol:
        raise CheckFailure(f"reference is not a trajectory of its control (gap {gap:.3e})")


def check_artifacts(
    out_dir, system: System, reference: Reference, lam: float, tol: float = NODE_TOLERANCE
) -> Findings:
    """Run every check on the artifacts in ``out_dir``; raise on a failure."""
    d = reference.states.shape[1]
    m = reference.controls.shape[1]
    eps = read_eps(os.path.join(out_dir, "report.txt"))
    tx, x = read_csv(os.path.join(out_dir, "x_eps.csv"), "x", d)
    tu, u = read_csv(os.path.join(out_dir, "u_eps.csv"), "u", m)
    for name, times in (("x_eps.csv", tx), ("u_eps.csv", tu)):
        if not np.array_equal(times, reference.times):
            raise CheckFailure(
                f"{name}: {times.size} time rows do not match the "
                f"{reference.times.size}-node reference grid"
            )
    if eps <= 0:
        raise CheckFailure(f"report.txt: eps = {eps} is not a tightening")

    margins = system.margin(tx, x, eps)
    margin_min = float(margins.min())
    if margin_min <= 0:
        j = int(np.argmin(margins))
        raise CheckFailure(f"x_eps margin {margin_min:.3e} <= 0 at t = {float(tx[j])!r}")
    sup_gap = float(np.max(np.linalg.norm(x - reference.states, axis=1)))
    if sup_gap > lam:
        raise CheckFailure(f"sup gap {sup_gap:.6g} exceeds lambda {lam}")
    cost_gap = abs(_cost(tu, u) - _cost(reference.times, reference.controls))
    if cost_gap > lam:
        raise CheckFailure(f"cost gap {cost_gap:.6g} exceeds lambda {lam}")

    node_gap, between = reintegrate(system, tx, x, u, eps)
    if node_gap > tol:
        raise CheckFailure(
            f"x_eps is not a trajectory of u_eps: re-integration gap {node_gap:.3e} > {tol:.0e}"
        )
    if between <= 0:
        raise CheckFailure(f"margin {between:.3e} <= 0 between grid nodes")
    return Findings(eps, margin_min, between, node_gap, sup_gap, cost_gap)


def digest(out_dir, names) -> dict:
    """SHA-256 of each named artifact in ``out_dir``."""
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            raise CheckFailure(f"{path}: cannot read ({exc})") from None
    return out


def check_identical(out_dirs, names) -> None:
    """Every directory must hold byte-identical copies of the named artifacts."""
    out_dirs = list(out_dirs)
    if not out_dirs:
        return
    first = digest(out_dirs[0], names)
    for other in out_dirs[1:]:
        for name, value in digest(other, names).items():
            if value != first[name]:
                raise CheckFailure(f"{name} differs between {out_dirs[0]} and {other}")
