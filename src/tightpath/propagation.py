"""Fixed-step RK4 propagation with breakpoint alignment and envelope checks.

The integration grid is rebuilt from the control signal: sub-steps tile
each span between control breakpoints, so a step never straddles a
control jump. Spans that touch a declared model breakpoint (where the
field is kinked or singular in time) are refined geometrically toward
that endpoint, which restores the fine-step accuracy the fixed-step
scheme loses there. Every step runs in one RK4 stage loop, with one control
object for every stage of a span: on floats, for a ``float_rhs`` model.
"""

from __future__ import annotations

import itertools
import math

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
# Largest state gap the half-step rerun may show at a shared node.
HALF_STEP_TOLERANCE = 1e-6

_HALVES = tuple(2.0 ** -j for j in range(1, _REFINE_LEVELS + 1))


def _initial_state(model: DynamicsModel, x0) -> np.ndarray:
    """x0 as a float array, checked to be one finite state of the model."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise ShapeError(f"x0 must have shape ({model.state_dim},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise DomainError("x0 must be finite")
    return x0


def _check_finite(t: float, x) -> None:
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise PropagationError(f"state not finite at t={t}", t=t)


def _advance(rhs, x, spans, nodes=None, states=None):
    """Classical RK4 of x' = rhs(t, x, u) across an iterable of consecutive spans.

    Each span ``(a, width, m, u, last)`` takes m uniform steps across
    [a, a + width] under the control u. The state x is a float array, or,
    for a model that declares ``float_rhs``, a float, whose control u is
    then a float too. Both forms run the same IEEE operations in the same
    order. With ``nodes`` and ``states``, each step records its end node
    (``last`` for a span's final one) and its state, checked finite.
    """
    for a, width, m, u, last in spans:
        h = width / m
        half = 0.5 * h
        for i in range(m):
            t = a + width * (i / m)
            mid = t + half
            k1 = rhs(t, x, u)
            k2 = rhs(mid, x + half * k1, u)
            k3 = rhs(mid, x + half * k2, u)
            k4 = rhs(t + h, x + h * k3, u)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if nodes is not None:
                node = last if i == m - 1 else a + width * ((i + 1) / m)
                nodes.append(node)
                states.append(x)
                _check_finite(node, x)
    return x


def _advance_zone(rhs, a, b, x, u, q, toward_start, nodes, states):
    """Cross [a, b] when the field is singular at one endpoint, and record
    the node b and its state, checked finite.

    Geometric halving toward the singular endpoint keeps each piece's
    distance-to-singularity comparable to its width, which caps the local
    RK4 error at every level; the innermost sliver is one plain step.
    """
    width = b - a
    if toward_start:
        cuts = [a] + [a + width * f for f in reversed(_HALVES)] + [b]
    else:
        cuts = [a] + [b - width * f for f in _HALVES] + [b]
    steps = [q] * (len(cuts) - 1)
    steps[0 if toward_start else -1] = 1
    x = _advance(rhs, x, [(lo, hi - lo, m, u, None) for lo, hi, m in zip(cuts, cuts[1:], steps)])
    nodes.append(b)
    states.append(x)
    _check_finite(b, x)
    return x


def _steps(lengths, step: float):
    """Equal steps no longer than ``step`` (up to a relative 1e-9), one at
    least, across each length: an int for a float, a list for an array."""
    return np.maximum(1, np.ceil(np.asarray(lengths) / step - _REL_TOL)).astype(int).tolist()


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
    inner = [t for t in grid.nodes.tolist() if t0 + slack < t < t1 - slack]
    inner += [float(b) for b in breakpoints if t0 + slack < b < t1 - slack]
    anchors = [t0]
    for t in sorted(inner):
        if t - anchors[-1] > slack:
            anchors.append(t)
    anchors.append(t1)
    return np.asarray(anchors)


def _run(model, u, x0, anchors, step, q, breakpoints):
    """Nodes and states of one fixed-step pass across the anchors.

    What is fixed for the run is looked up once: the control on each
    anchor span (one vectorised left-endpoint lookup), which anchors sit
    on a model breakpoint, and, for a model that declares ``float_rhs``,
    the float form of the state and the controls. Each run of consecutive
    plain spans, neither end near a breakpoint, is crossed in one
    ``_advance`` call.
    """
    rhs = model.rhs
    x = x0
    controls = u.values[u.grid.indices_left(anchors[:-1])]
    if model.float_rhs:
        x, controls = x0.item(), controls[:, 0].tolist()
    slack = float(anchors[-1] - anchors[0]) * _REL_TOL
    near = np.zeros(anchors.shape, dtype=bool)
    for b in breakpoints:
        near |= np.abs(anchors - b) <= slack
    near = near.tolist()
    times = anchors.tolist()
    nodes = [times[0]]
    states = [x]
    cells = zip(near, near[1:], times, times[1:], controls, _steps(np.diff(anchors), step))
    for plain, run in itertools.groupby(cells, key=lambda cell: not (cell[0] or cell[1])):
        if plain:
            spans = ((a, b - a, m, u_val, b) for _, _, a, b, u_val, m in run)
            x = _advance(rhs, x, spans, nodes, states)
            continue
        for starts_near, _, a, b, u_val, _ in run:
            zone = min(step, b - a)
            if starts_near:
                end = b if b - a <= zone + slack else a + zone
                x = _advance_zone(rhs, a, end, x, u_val, q, True, nodes, states)
                if b - end > slack:
                    spans = [(end, b - end, _steps(b - end, step), u_val, b)]
                    x = _advance(rhs, x, spans, nodes, states)
            else:
                if b - a > zone + slack:
                    width = (b - zone) - a
                    spans = [(a, width, _steps(b - a - zone, step), u_val, a + width)]
                    x = _advance(rhs, x, spans, nodes, states)
                x = _advance_zone(rhs, b - zone, b, x, u_val, q, False, nodes, states)
    return np.array(nodes), np.array(states).reshape(len(states), -1)


def _half_step_gap(nodes, states, fine_nodes, fine_states):
    """Largest state gap between the two runs at their shared nodes, and
    the first node where it occurs ((0.0, nodes[0]) when none is positive).

    Nodes pair up when they agree after rounding to 12 decimals; a key
    shared by several fine nodes pairs with the last of them.
    """
    keys = np.round(nodes, 12)
    fine_keys = np.round(fine_nodes, 12)
    match = np.searchsorted(fine_keys, keys, side="right") - 1
    shared = match >= 0
    shared[shared] = fine_keys[match[shared]] == keys[shared]
    gaps = np.linalg.norm(states[shared] - fine_states[match[shared]], axis=1)
    if gaps.size == 0 or not gaps.max() > 0.0:
        return 0.0, float(nodes[0])
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), float(nodes[shared][worst])


def integrate(
    model: DynamicsModel,
    u: ControlSignal,
    x0,
    window,
    step: float,
    check: bool = True,
) -> Trajectory:
    """Propagate x' = f(t, x, u(t)) across the window from x0.

    Returns the trajectory on the breakpoint-aligned integration grid.
    ``step`` is an upper bound on the RK4 step: each span between anchors
    (control nodes and model breakpoints) is cut into equal steps no
    longer than it. A non-finite state raises PropagationError naming the
    first bad node. With ``check`` on, the run is repeated at half the
    step and the two must agree within ``HALF_STEP_TOLERANCE`` (1e-6) at
    every shared node, else AccuracyError. The check never changes the
    returned trajectory, so a caller that re-integrates many times may
    switch it off and check the run it keeps: ``repair`` does so.
    """
    if step <= 0:
        raise DomainError("integrator step must be positive")
    x0 = _initial_state(model, x0)
    if u.dim != model.control_dim:
        raise ShapeError(
            f"control dimension {u.dim} does not match the model ({model.control_dim})"
        )
    breakpoints = tuple(model.time_breakpoints)
    anchors = _anchors(u, window, breakpoints)
    nodes, states = _run(model, u, x0, anchors, step, _REFINE_SUBSTEPS, breakpoints)
    if check:
        fine_nodes, fine_states = _run(
            model, u, x0, anchors, step / 2.0, 2 * _REFINE_SUBSTEPS, breakpoints
        )
        worst, worst_t = _half_step_gap(nodes, states, fine_nodes, fine_states)
        if worst > HALF_STEP_TOLERANCE:
            raise AccuracyError(
                f"half-step disagreement {worst:.3e} at t={worst_t} exceeds "
                f"tolerance {HALF_STEP_TOLERANCE:.3e}"
            )
    return Trajectory(TimeGrid(nodes), states)


def integrate_feedback(model: DynamicsModel, grid: TimeGrid, x0, law):
    """Close a feedback loop on the grid with one RK4 step per cell.

    The control held across cell j, [t_j, t_{j+1}], is ``law(j, x_j)``: a
    (control_dim,) array chosen from the state at the cell's left node.
    Returns the node states (n, state_dim) and the cell controls
    (n - 1, control_dim). A non-finite state raises PropagationError
    naming its node. A model that declares ``float_rhs`` is stepped on a
    float state and control; the law still sees a (1,) state.
    """
    x = _initial_state(model, x0)
    rhs = model.rhs
    floats = model.float_rhs
    if floats:
        x = x.item()
    times = grid.nodes.tolist()
    states = [x]
    controls = []
    for j in range(len(times) - 1):
        u = np.asarray(law(j, np.array([x]) if floats else x), dtype=float)
        if u.shape != (model.control_dim,):
            raise ShapeError(
                f"feedback control must have shape ({model.control_dim},), got {u.shape}"
            )
        controls.append(u)
        span = (times[j], times[j + 1] - times[j], 1, u.item() if floats else u, None)
        x = _advance(rhs, x, [span])
        states.append(x)
        _check_finite(times[j + 1], x)
    return np.vstack(states), np.vstack(controls)


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
    this radius minus one. An overflowing radius is inf, unwarned.
    """
    values = (theta_L1, theta_L2, xbar_linf, M_u, ubar_L2, betau_L2)
    if any(v < 0 for v in values):
        raise DomainError("gronwall_radius inputs must be nonnegative")
    with np.errstate(over="ignore"):
        return float(
            np.exp(theta_L1)
            * (1.0 + xbar_linf + (1.0 + M_u) * theta_L1 + theta_L2 * (ubar_L2 + betau_L2))
        )
