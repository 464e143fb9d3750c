"""Fixed-step RK4 propagation with breakpoint alignment and envelope checks.

The integration grid is rebuilt from the control signal: sub-steps tile
each span between control breakpoints, so a step never straddles a
control jump. Spans that touch a declared model breakpoint (where the
field is kinked or singular in time) are refined geometrically toward
that endpoint, which restores the fine-step accuracy the fixed-step
scheme loses there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, PropagationError, ShapeError
from .dynamics import DynamicsModel
from .signals import ControlSignal, TimeGrid, Trajectory

_REL_TOL = 1e-9
# Geometric refinement of a singular zone: halving levels and uniform RK4
# sub-steps per level. 48 levels push the unresolved remainder below the
# double-precision noise floor of the zone width.
_REFINE_LEVELS = 48
_REFINE_SUBSTEPS = 8


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    ``step`` is an upper bound: integrate subdivides each inter-breakpoint
    span uniformly, so the effective step divides the span exactly.
    ``richardson_check`` re-runs at half the step and compares shared
    nodes against ``tolerance``. The check does not change the returned
    trajectory, so callers that re-integrate repeatedly may switch it off
    for intermediate runs and check the final one: ``repair`` does so,
    checking once the suffix it returns.
    """

    step: float = 0.001
    richardson_check: bool = True
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.step <= 0:
            raise DomainError("integrator step must be positive")
        if self.tolerance < 0:
            raise DomainError("integrator tolerance must be nonnegative")


def _rk4_step(model: DynamicsModel, t: float, h: float, x: np.ndarray, u: np.ndarray):
    k1 = np.asarray(model.rhs(t, x, u), dtype=float)
    k2 = np.asarray(model.rhs(t + 0.5 * h, x + 0.5 * h * k1, u), dtype=float)
    k3 = np.asarray(model.rhs(t + 0.5 * h, x + 0.5 * h * k2, u), dtype=float)
    k4 = np.asarray(model.rhs(t + h, x + h * k3, u), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance_uniform(model, a, b, x, u, m):
    width = b - a
    for i in range(m):
        x = _rk4_step(model, a + width * (i / m), width / m, x, u)
    return x


def _advance_zone(model, a, b, x, u, q, toward_start):
    """Cross [a, b] when the field is singular at one endpoint.

    Geometric halving toward the singular endpoint keeps each piece's
    distance-to-singularity comparable to its width, which caps the local
    RK4 error at every level; the innermost sliver is one plain step.
    """
    width = b - a
    halves = [2.0 ** -j for j in range(1, _REFINE_LEVELS + 1)]
    if toward_start:
        cuts = [a] + [a + width * f for f in reversed(halves)] + [b]
        x = _rk4_step(model, cuts[0], cuts[1] - cuts[0], x, u)
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            x = _advance_uniform(model, lo, hi, x, u, q)
    else:
        cuts = [a] + [b - width * f for f in halves] + [b]
        for lo, hi in zip(cuts[:-2], cuts[1:-1]):
            x = _advance_uniform(model, lo, hi, x, u, q)
        x = _rk4_step(model, cuts[-2], cuts[-1] - cuts[-2], x, u)
    return x


def _anchors(u: ControlSignal, window, breakpoints) -> np.ndarray:
    t0, t1 = float(window[0]), float(window[1])
    grid = u.grid
    slack = max(grid.span, t1 - t0) * _REL_TOL
    if t1 <= t0:
        raise DomainError("integration window must have positive length")
    if t0 < grid.t0 - slack or t1 > grid.t1 + slack:
        raise DomainError(
            f"window [{t0}, {t1}] exceeds the control domain [{grid.t0}, {grid.t1}]"
        )
    inner = [float(t) for t in grid.nodes if t0 + slack < t < t1 - slack]
    inner += [float(b) for b in breakpoints if t0 + slack < b < t1 - slack]
    anchors = [t0]
    for t in sorted(inner):
        if t - anchors[-1] > slack:
            anchors.append(t)
    anchors.append(t1)
    return np.asarray(anchors)


def _run(model, u, x0, anchors, step, q, breakpoints):
    slack = (anchors[-1] - anchors[0]) * _REL_TOL

    def at_breakpoint(t):
        return any(abs(t - b) <= slack for b in breakpoints)

    nodes = [anchors[0]]
    states = [np.asarray(x0, dtype=float)]

    def emit(t, x):
        nodes.append(t)
        states.append(x)
        if not np.all(np.isfinite(x)):
            raise PropagationError(f"state not finite at t={t}", t=t)

    for a, b in zip(anchors[:-1], anchors[1:]):
        u_val = u.eval(a)
        x = states[-1]
        zone = min(step, b - a)
        if at_breakpoint(a):
            end = b if b - a <= zone + slack else a + zone
            x = _advance_zone(model, a, end, x, u_val, q, toward_start=True)
            emit(end, x)
            if b - end > slack:
                m = max(1, int(np.ceil((b - end) / step - _REL_TOL)))
                width = b - end
                for i in range(1, m + 1):
                    x = _rk4_step(model, end + width * ((i - 1) / m), width / m, x, u_val)
                    emit(b if i == m else end + width * (i / m), x)
        elif at_breakpoint(b):
            if b - a > zone + slack:
                m = max(1, int(np.ceil((b - a - zone) / step - _REL_TOL)))
                width = (b - zone) - a
                for i in range(1, m + 1):
                    x = _rk4_step(model, a + width * ((i - 1) / m), width / m, x, u_val)
                    emit(a + width * (i / m), x)
            x = _advance_zone(model, b - zone, b, x, u_val, q, toward_start=False)
            emit(b, x)
        else:
            m = max(1, int(np.ceil((b - a) / step - _REL_TOL)))
            width = b - a
            for i in range(1, m + 1):
                x = _rk4_step(model, a + width * ((i - 1) / m), width / m, x, u_val)
                emit(b if i == m else a + width * (i / m), x)
    return np.asarray(nodes), np.vstack(states)


def integrate(
    model: DynamicsModel,
    u: ControlSignal,
    x0,
    window,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Propagate x' = f(t, x, u(t)) across the window from x0.

    Returns the trajectory on the breakpoint-aligned integration grid. A
    non-finite state raises with the first bad node; with the Richardson
    check on, a half-step rerun must agree at shared nodes within the
    configured tolerance.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise ShapeError(f"x0 must have shape ({model.state_dim},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise DomainError("x0 must be finite")
    if u.dim != model.control_dim:
        raise ShapeError(
            f"control dimension {u.dim} does not match the model ({model.control_dim})"
        )
    breakpoints = tuple(model.time_breakpoints)
    anchors = _anchors(u, window, breakpoints)
    nodes, states = _run(model, u, x0, anchors, cfg.step, _REFINE_SUBSTEPS, breakpoints)
    if cfg.richardson_check:
        fine_nodes, fine_states = _run(
            model, u, x0, anchors, cfg.step / 2.0, 2 * _REFINE_SUBSTEPS, breakpoints
        )
        index = {round(t, 12): i for i, t in enumerate(fine_nodes)}
        worst, worst_t = 0.0, nodes[0]
        for t, x in zip(nodes, states):
            i = index.get(round(t, 12))
            if i is None:
                continue
            gap = float(np.linalg.norm(x - fine_states[i]))
            if gap > worst:
                worst, worst_t = gap, t
        if worst > cfg.tolerance:
            raise AccuracyError(
                f"half-step disagreement {worst:.3e} at t={worst_t} exceeds "
                f"tolerance {cfg.tolerance:.3e}"
            )
    return Trajectory(TimeGrid(nodes), states)


def gronwall_radius(
    theta_L1: float,
    theta_L2: float,
    xbar_linf: float,
    M_u: float,
    ubar_L2: float,
    betau_L2: float,
) -> float:
    """A priori sup-norm envelope for every trajectory handled in a repair.

    Combines the growth envelope's integral with the reference magnitude
    and the control budget; downstream checks assert states stay within
    this radius minus one.
    """
    values = (theta_L1, theta_L2, xbar_linf, M_u, ubar_L2, betau_L2)
    if any(v < 0 for v in values):
        raise DomainError("gronwall_radius inputs must be nonnegative")
    return float(
        np.exp(theta_L1)
        * (1.0 + xbar_linf + (1.0 + M_u) * theta_L1 + theta_L2 * (ubar_L2 + betau_L2))
    )
