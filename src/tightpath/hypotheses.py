"""Sampling-based certification of the regularity constants.

Each certifier extracts one group of constants (growth envelope,
state-Lipschitz modulus, inward-pointing geometry, time regularity of the
control transport) from model evaluations on seeded sample sets, or
validates the model's declared values when present. Certificates are
one-sided: function envelopes dominate every sampled quantity, geometric
slacks are dominated by every sampled quantity. The assembled bundle is
the sole input contract of the repair schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DynamicsModel,
    ball_points,
    box_points,
    drift_budget,
    rhs_batch,
    rhs_outer,
    shift_selection,
)
from .errors import (
    FINITE,
    SEED,
    BundleError,
    CertificationError,
    ConfigError,
    DomainError,
    InwardPointingError,
    ShapeError,
    read_array,
    read_json,
    read_number,
)
from .geometry import (
    BOUNDARY_MODULUS_PROBES,
    ConstraintField,
    build_boundary_modulus,
)
from .propagation import gronwall_radius
from .signals import (
    ControlSignal,
    ModulusTable,
    TimeGrid,
    Trajectory,
    subsample,
    trapezoid_prefix,
    weighted_l2_cost,
)

_SAFETY = 1.1
_VALIDATE_SLACK = 1.01  # declared constants may be undershot by sampling only

# Forward-cone margins within this distance of the best one count as tied.
INWARD_TIE_TOL = 1e-12

# Sample counts of the certifiers; bundle.json records them.
GROWTH_SAMPLES = 256
LIPSCHITZ_SAMPLES = 192
TIME_REGULARITY_SAMPLES = 24
COLLAR_TIMES = 21
COLLAR_POINTS = 16
CONTROL_CANDIDATES = 17
STABILITY_GROWTH_SAMPLES = 512
STABILITY_LIPSCHITZ_SAMPLES = 384

_SAMPLE_COUNTS = {
    "growth_envelope": GROWTH_SAMPLES,
    "state_lipschitz": LIPSCHITZ_SAMPLES,
    "time_regularity": TIME_REGULARITY_SAMPLES,
    "boundary_modulus_probes": BOUNDARY_MODULUS_PROBES,
    "collar_times": COLLAR_TIMES,
    "collar_points": COLLAR_POINTS,
    "control_candidates": CONTROL_CANDIDATES,
    "stability_resample": {
        "growth_envelope": STABILITY_GROWTH_SAMPLES,
        "state_lipschitz": STABILITY_LIPSCHITZ_SAMPLES,
    },
}

# The search grids of certify_all: tightening levels, collar widths,
# control bounds and inward slacks, the last in order of preference.
EPS_LIST = (0.05, 0.1, 0.2)
COLLAR_ETA_GRID = (0.05, 0.1, 0.2, 0.4)
CONTROL_BOUNDS = (0.5, 1.0, 2.0, 4.0)
XI_CANDIDATES = (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)

# Push times (and base points) of the forward-cone grid in inclusion_margins.
INCLUSION_GRID_POINTS = 16
# At most this many reference nodes are time-regularity base times.
TIME_REGULARITY_NODES = 81


@dataclass(frozen=True)
class SampledFunction:
    """Scalar function tabulated on a time grid, with trapezoid norms."""

    grid: TimeGrid
    values: np.ndarray
    name: str = field(default="", compare=False)  # a bundle function's, named on error

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.grid),):
            raise ShapeError("sampled function needs one value per grid node")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            what = f"bundle function {self.name!r}" if self.name else "sampled function"
            t, value = float(self.grid.nodes[bad[0]]), float(values[bad[0]])
            raise DomainError(f"{what} values must be finite, got {value!r} at t={t!r}")
        object.__setattr__(self, "values", values)

    def l1(self) -> float:
        with np.errstate(over="ignore"):  # inf, which the Gronwall checks name
            return float(trapezoid_prefix(self.grid, np.abs(self.values))[-1])

    def l2(self) -> float:
        with np.errstate(over="ignore"):  # inf, which the Gronwall checks name
            return float(np.sqrt(trapezoid_prefix(self.grid, self.values**2)[-1]))


@dataclass(frozen=True)
class OperatingBox:
    """State and control ranges the certificates are sampled on."""

    states: np.ndarray  # (N, 2) rows of lo <= hi
    controls: np.ndarray  # (M, 2)

    def __post_init__(self):
        for name in ("states", "controls"):
            box = np.asarray(getattr(self, name), dtype=float)
            if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 1] < box[:, 0]):
                raise ShapeError(f"{name} box must be (dim, 2) rows of lo <= hi")
            object.__setattr__(self, name, box)

    @classmethod
    def from_radii(cls, state_radius: float, control_radius: float, n: int, m: int):
        return cls(
            np.tile([-state_radius, state_radius], (n, 1)),
            np.tile([-control_radius, control_radius], (m, 1)),
        )

    def sample_states(self, rng, count: int) -> np.ndarray:
        return box_points(rng, count, self.states)

    def sample_controls(self, rng, count: int) -> np.ndarray:
        return box_points(rng, count, self.controls)


def _envelope(name: str, time_grid: TimeGrid, raw, declared, undershoot: str) -> SampledFunction:
    """The bundle function ``name``: the declared envelope checked against the
    sampled maxima ``raw`` at each node, or without one, ``raw`` inflated by
    the safety factor."""
    if declared is None:
        return SampledFunction(time_grid, _SAFETY * raw, name)
    nodes = time_grid.nodes
    bound = np.array([float(declared(t)) for t in nodes])
    bad = raw > bound * _VALIDATE_SLACK + 1e-12
    if bad.any():
        t_bad = float(nodes[int(np.argmax(bad))])
        raise CertificationError(f"declared {undershoot} at t={t_bad}", witness={"t": t_bad})
    return SampledFunction(time_grid, bound, name)


def _ratio_maxima(model, times, states, controls) -> np.ndarray:
    """Largest growth ratio |f| / (1 + |x| + |u|) over the samples at each of ``times``."""
    scale = 1.0 + np.linalg.norm(states, axis=1) + np.linalg.norm(controls, axis=1)
    return rhs_outer(
        model, times, states, controls, lambda f: (np.linalg.norm(f, axis=2) / scale).max(axis=1)
    )


def certify_sublinear(
    model: DynamicsModel,
    box: OperatingBox,
    time_grid: TimeGrid,
    n_samples: int = GROWTH_SAMPLES,
    seed: int = 0,
) -> SampledFunction:
    """Per-node envelope theta with |f(t,x,u)| <= theta(t)(1 + |x| + |u|).

    A declared envelope is validated against the sampled ratios and
    returned as-is; otherwise the sampled maximum is inflated by the
    safety factor. Ratios that keep growing when the control box is
    scaled up flag super-linear growth.
    """
    rng = np.random.default_rng(seed)
    states = box.sample_states(rng, n_samples)
    controls = box.sample_controls(rng, n_samples)
    declared = model.metadata.growth_envelope
    nodes = time_grid.nodes
    raw = _ratio_maxima(model, nodes, states, controls)
    if declared is None:
        # Super-linear probe: growth must saturate as the control box scales.
        probe_times = nodes[:: max(1, nodes.size // 8)]
        last = _ratio_maxima(model, probe_times, states, 4.0 * controls)
        final = _ratio_maxima(model, probe_times, states, 8.0 * controls)
        growth = final / np.maximum(last, 1e-12)
        if float(growth.max()) > 1.5:
            j = int(np.argmax(growth))
            raise CertificationError(
                "field grows super-linearly in the control: no integrable envelope exists",
                witness={"t": float(probe_times[j]), "ratio_growth": float(growth[j])},
            )
    undershoot = "growth envelope undershoots sampled ratio"
    return _envelope("growth_envelope", time_grid, raw, declared, undershoot)


def certify_lipschitz(
    model: DynamicsModel,
    radius_R: float,
    control_box: np.ndarray,
    time_grid: TimeGrid,
    n_samples: int = LIPSCHITZ_SAMPLES,
    seed: int = 0,
) -> SampledFunction:
    """Per-node state-Lipschitz envelope of f on the radius_R ball.

    Sampled difference quotients at mixed pair separations; quotients that
    keep growing as the separation shrinks flag a non-Lipschitz field.
    """
    rng = np.random.default_rng(seed)
    control_box = np.asarray(control_box, dtype=float)
    n = model.state_dim
    base = ball_points(rng, n_samples, n, radius_R)
    controls = box_points(rng, n_samples, control_box)
    directions = rng.standard_normal((n_samples, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    # Non-Lipschitz probe: zoom toward the worst difference quotients;
    # on a Lipschitz field they saturate, on a kink they keep growing.
    probe_times = time_grid.nodes[:: max(1, time_grid.nodes.size // 4)]
    for t in probe_times:
        t = float(t)
        first = last = None
        centers = None
        for sep in radius_R * np.array([0.04, 4e-3, 4e-4, 4e-5]):
            pts = ball_points(rng, 96, n, radius_R)
            if centers is not None:
                cluster = np.repeat(centers, 12, axis=0)
                pts = np.vstack([pts, cluster + ball_points(rng, len(cluster), n, 8 * sep)])
            pts = pts[: len(base)]
            # Difference quotients against the pair partners at separation sep.
            fa = rhs_batch(model, t, pts, controls[: len(pts)])
            other = pts + sep * directions[: len(pts)]
            fb = rhs_batch(model, t, other, controls[: len(pts)])
            q = np.linalg.norm(fa - fb, axis=1) / sep
            order = np.argsort(q)[::-1]
            i = int(order[0])
            last, witness = float(q[i]), (pts[i].copy(), other[i].copy())
            centers = 0.5 * (pts[order[:8]] + other[order[:8]])
            if first is None:
                first = last
        if last > 5.0 * max(first, 1e-12) and last > first + 1.0:
            raise CertificationError(
                f"difference quotients diverge at t={t}: field is not Lipschitz in x",
                witness={"t": t, "pair": witness},
            )
    # Each node's field at the base points stacked over their partners.
    seps = np.array([0.4 * radius_R, 1e-2 * radius_R, 1e-4 * radius_R])
    stacked = np.vstack([base] + [base + sep * directions for sep in seps])
    stacked_controls = np.tile(controls, (len(seps) + 1, 1))

    def quotient_maxima(f):
        f = f.reshape(len(f), len(seps) + 1, n_samples, n)
        return (np.linalg.norm(f[:, :1] - f[:, 1:], axis=3) / seps[:, None]).max(axis=(1, 2))

    raw = rhs_outer(model, time_grid.nodes, stacked, stacked_controls, quotient_maxima)
    declared = model.metadata.state_lipschitz
    undershoot = "Lipschitz modulus undershoots sampled quotient"
    return _envelope("state_lipschitz", time_grid, raw, declared, undershoot)


def control_candidates(seed: int, m: int, bound: float) -> np.ndarray:
    """The controls of norm at most ``bound`` that the forward-cone search
    tries under the certifier seed ``seed``: an even grid in 1-D, else zero
    plus ball samples drawn from ``seed + 1``."""
    if m == 1:
        return bound * np.linspace(-1.0, 1.0, CONTROL_CANDIDATES)[:, None]
    pts = ball_points(np.random.default_rng(seed + 1), CONTROL_CANDIDATES * 4, m, bound)
    return np.vstack([np.zeros((1, m)), pts])


def inclusion_margins(
    field: ConstraintField,
    model: DynamicsModel,
    eps: float,
    t: float,
    rows: np.ndarray,
    candidates: np.ndarray,
    xi: float,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Worst forward-cone slack per base point and control candidate.

    Checks, on a fixed grid of push times delta and base points y near x,
    that the ball of radius delta*xi around y + delta*v stays inside the
    tightened set at time t + delta, where v = f(t, x, u). A negative
    margin means the inclusion fails on the sample grid. The delta and y
    grids are deterministic, so repeated calls agree bitwise.

    ``rows`` holds P base points x, shape (P, dim); the margins are
    (P, n_candidates) and the velocities (P, n_candidates, N). Each row is
    bitwise what a one-row call on it gives: each margin comes from
    elementwise arithmetic and per-point distance queries, and the running
    minimum is exact. Before the horizon, a row none of whose base points
    is in the tightened set gets margin -inf for every candidate; at the
    horizon there is no push time and every finite velocity gets +inf.

    The search is a branch-and-bound for ``best_inward_candidate``, run
    row by row: the leaders after the first push time are evaluated at
    every later push time, all in one distance query, and a candidate
    stops being evaluated once its running minimum falls below the
    leader's exact margin minus ``INWARD_TIE_TOL``. So every candidate
    that wins or ties has its exact margin; every other entry is an upper
    bound on its margin that lies more than ``INWARD_TIE_TOL`` below the
    best margin of its row.

    The distances come from ``ConstraintField.ball_slacks``: on the
    KD-tree fallback a push queries only the base points that can set a
    pair's minimum, and every entry, exact or bound, is bitwise what a
    query of every point gives.
    """
    rows = np.asarray(rows, dtype=float)
    n_rows, n_cand = len(rows), len(candidates)
    velocities = rhs_batch(
        model, float(t), np.repeat(rows, n_cand, axis=0), np.tile(candidates, (n_rows, 1))
    ).reshape(n_rows, n_cand, -1)
    margins = np.where(np.all(np.isfinite(velocities), axis=2), np.inf, -np.inf)
    delta_cap = min(xi, max(horizon - t, 0.0))
    if delta_cap > 0:
        _push_forward_cone(field, eps, t, rows, velocities, margins, xi, delta_cap)
    return margins, velocities


def _push_forward_cone(field, eps, t, rows, velocities, margins, xi, delta_cap) -> None:
    """The branch-and-bound of ``inclusion_margins``; lowers ``margins`` in place.

    Every live pair is pushed at the first push time. Then the row leaders
    are pushed at all later push times in one ``ConstraintField.ball_slacks``
    call with a time per pair. Then the pairs still in contention are
    pushed one push time at a time; a row's pairs are consecutive, the
    first its anchor, which a single-time query may stage on.
    """
    rng = np.random.default_rng(12)
    deltas = np.linspace(0.0, delta_cap, INCLUSION_GRID_POINTS)[1:]
    offsets = ball_points(rng, INCLUSION_GRID_POINTS, field.dim, xi)
    ys = np.concatenate([rows[:, None, :], rows[:, None, :] + offsets[None, :, :]], axis=1)
    base_ok = (field.margin(t, ys.reshape(-1, field.dim), eps) >= 0).reshape(ys.shape[:2])
    margins[~base_ok.any(axis=1)] = -np.inf

    def push(delta, pairs: tuple) -> None:
        """Lower the margins of ``pairs`` to their worst slack at push time
        ``delta``, a float, or at one push time per pair, an array; there a
        pair may recur at other times."""
        r, c = pairs
        steps = np.reshape(delta, (-1, 1)) * velocities[r, c]
        # np.nonzero lists the pairs of a row together; the first is its anchor.
        first = np.concatenate(([True], r[1:] != r[:-1]))
        centers = ys[r] + steps[:, None, :]
        slack = field.ball_slacks(eps, t + delta, centers, delta * xi, base_ok[r], first, steps)
        # Unbuffered, so a recurring pair takes the minimum over its times.
        np.minimum.at(margins, (r, c), slack.min(axis=1))

    # A running minimum only decreases, so a candidate already below its
    # row leader's exact margin minus the tie tolerance can neither win nor tie.
    live = margins > -np.inf
    led = np.flatnonzero(live.any(axis=1))
    if led.size == 0:
        return
    push(deltas[0], np.nonzero(live))
    # Each row's leader is the first live candidate attaining its live maximum.
    top = np.where(live, margins, -np.inf).max(axis=1)
    leader = np.argmax(live & (margins == top[:, None]), axis=1)[led]
    # Every leader at every later push time, in one query.
    later = len(deltas) - 1
    push(np.repeat(deltas[1:], len(led)), (np.tile(led, later), np.tile(leader, later)))
    floor = np.full(len(rows), np.inf)
    floor[led] = margins[led, leader] - INWARD_TIE_TOL
    live[led, leader] = False
    for delta in deltas[1:]:
        live &= margins >= floor[:, None]
        if not live.any():
            break
        push(delta, np.nonzero(live))


def best_inward_candidate(margins: np.ndarray, candidates: np.ndarray):
    """Index of the max-margin candidate in each row of (P, C) margins;
    ties go to the smaller control, and among equal norms to the first."""
    top = margins.max(axis=1, keepdims=True)
    tied = margins >= top - INWARD_TIE_TOL
    norms = np.linalg.norm(candidates, axis=1)
    return np.argmin(np.where(tied, norms, np.inf), axis=1)


def certify_inward_pointing(
    field: ConstraintField,
    model: DynamicsModel,
    eps_list,
    collar_eta_grid,
    time_grid: TimeGrid,
    box_radius: float,
    control_bounds=CONTROL_BOUNDS,
    seed: int = 0,
) -> tuple[float, float, float, float]:
    """Search (control bound, inward slack, collar width) certifying the
    forward-cone condition on collar samples; returns (M_u, M_v, xi, eta).

    The schedule prefers the largest inward slack, then the smallest
    control bound; the collar width is taken as large as certifiable.
    An empty collar (constraint inactive in the box) passes vacuously at
    the caps. Failure carries the witness (eps, t, x).
    """
    times = subsample(time_grid.nodes, COLLAR_TIMES)
    horizon = float(time_grid.t1)
    etas = sorted(float(e) for e in collar_eta_grid)[::-1]
    rng = np.random.default_rng(seed)
    collars = {}  # (eps, t) -> (collar points, their depths)
    for eps in eps_list:
        shared = None
        for t in times:
            if field.time_varying or shared is None:
                shared = field.collar_points(
                    float(eps), float(t), etas[0], COLLAR_POINTS, rng, box_radius
                )
            collars[(float(eps), float(t))] = shared
    if all(len(pts) == 0 for pts, _ in collars.values()):
        return float(min(control_bounds)), 0.0, float(max(XI_CANDIDATES)), float(etas[0])

    eta_min = etas[-1]
    last_witness = None
    for xi in XI_CANDIDATES:
        for m_u in sorted(control_bounds):
            candidates = control_candidates(seed, model.control_dim, m_u)
            rows = []
            aborted = False
            for (eps, t), (pts, depths) in collars.items():
                if len(pts) == 0:
                    continue
                group_margins, group_velocities = inclusion_margins(
                    field, model, eps, t, pts, candidates, xi, horizon
                )
                group_best = best_inward_candidate(group_margins, candidates)
                for x, depth, margins, velocities, best in zip(
                    pts, depths, group_margins, group_velocities, group_best
                ):
                    speed = (
                        float(np.linalg.norm(velocities[best]))
                        if np.isfinite(margins[best])
                        else 0.0
                    )
                    rows.append((float(depth), float(margins[best]), speed, (eps, t, x)))
                    if margins[best] < 0:
                        last_witness = (eps, t, x.copy())
                        if depth <= eta_min * (1 + 1e-9):
                            aborted = True  # fails inside every candidate collar
                            break
                if aborted:
                    break
            if aborted:
                continue
            for eta in etas:
                active = [row for row in rows if row[0] <= eta * (1 + 1e-9)]
                if all(row[1] >= 0 for row in active):
                    velocity = max((row[2] for row in active), default=0.0)
                    return float(m_u), float(velocity), float(xi), float(eta)
                last_witness = next(row[3] for row in active if row[1] < 0)
    raise InwardPointingError(
        "no sampled control pushes the collar inward: forward-cone condition fails "
        f"(witness eps={last_witness[0]}, t={last_witness[1]}, x={last_witness[2].tolist()})",
        witness={"eps": last_witness[0], "t": last_witness[1], "x": last_witness[2]},
    )


def _drift_fields(model: DynamicsModel, s: float, drawn: list):
    """(f(s, x, u_s), f(t, x, u_t)) of each drawn (t, x, u_s, u_t): from one
    call at s and one with a time per row, or if either raises, lazily from
    two calls per sample, so the first error in sample order is raised."""
    if not drawn:
        return ()
    ts, xs, us, uts = (np.array(column) for column in zip(*drawn))
    try:
        return zip(rhs_batch(model, s, xs, us), rhs_batch(model, ts, xs, uts))
    except Exception:
        pairs = ((model.rhs(s, x, u_s), model.rhs(t, x, u_t)) for t, x, u_s, u_t in drawn)
        return ((np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in pairs)


def certify_time_regularity(
    model: DynamicsModel,
    ubar: ControlSignal,
    box: OperatingBox,
    time_grid: TimeGrid,
    control_bound: float,
    seed: int = 0,
) -> tuple[SampledFunction, SampledFunction, float, SampledFunction]:
    """Certify the control-transport regularity: (gamma, beta_u, alpha, ku).

    For sampled (s, t, x, u_s) the transported control u_t must keep the
    field drift within the integral of the drift density gamma; beta_u(s)
    records the largest observed transport distance per node, and the
    Hölder data (alpha, ku) is validated when declared. Failures carry
    the witness tuple.
    """
    rng = np.random.default_rng(seed)
    sub = TimeGrid(subsample(time_grid.nodes, TIME_REGULARITY_NODES))
    horizon = float(time_grid.t1)
    meta = model.metadata

    def control_radius(s: float) -> float:
        return control_bound + float(np.linalg.norm(ubar.eval(s)))

    beta_vals = np.zeros(len(sub))
    drift_quot = np.zeros(len(sub))
    holder_quot = np.zeros(len(sub))
    for i, s in enumerate(sub.nodes):
        s = float(s)
        if s >= horizon:
            continue
        radius = control_radius(s)
        # Draw and transport one sample at a time, in the RNG stream's order;
        # a failed transport is raised after the checks of the samples before it.
        drawn, failed = [], None
        for _ in range(TIME_REGULARITY_SAMPLES):
            t = float(rng.uniform(s, horizon))
            if t <= s:
                continue
            x = box.sample_states(rng, 1)[0]
            u_s = ball_points(rng, 1, model.control_dim, radius)[0]
            try:
                drawn.append((t, x, u_s, shift_selection(model, s, t, x, u_s, seed=seed)))
            except Exception as exc:
                failed = exc
                break
        rate = float(meta.holder_rate_scale(s)) if meta.holder_exponent is not None else None
        for (t, x, u_s, u_t), (f_s, f_t) in zip(drawn, _drift_fields(model, s, drawn)):
            moved = float(np.linalg.norm(u_t - u_s))
            beta_vals[i] = max(beta_vals[i], moved)
            residual = float(np.linalg.norm(f_t - f_s))
            budget = drift_budget(model, s, t)
            if budget is not None:
                if residual > budget * _VALIDATE_SLACK + 1e-9:
                    raise CertificationError(
                        f"field drift {residual:.3e} exceeds the declared budget "
                        f"{budget:.3e} on (s={s}, t={t})",
                        witness={"s": s, "t": t, "x": x.copy(), "u": u_s.copy()},
                    )
            elif t - s <= 4 * sub.step:
                drift_quot[i] = max(drift_quot[i], residual / (t - s))
            if meta.holder_exponent is not None:
                if np.isfinite(rate):
                    cap = (t - s) ** meta.holder_exponent * rate * radius
                    if moved > cap * _VALIDATE_SLACK + 1e-12:
                        raise CertificationError(
                            f"transport distance {moved:.3e} breaks the declared "
                            f"Hölder rate on (s={s}, t={t})",
                            witness={"s": s, "t": t, "x": x.copy(), "u": u_s.copy()},
                        )
            else:
                holder_quot[i] = max(holder_quot[i], moved / (t - s))
        if failed is not None:
            raise failed
        if meta.shift_radius_scale is not None:
            declared_radius = float(meta.shift_radius_scale(s)) * radius
            if beta_vals[i] > declared_radius * _VALIDATE_SLACK + 1e-12:
                raise CertificationError(
                    f"transport distance {beta_vals[i]:.3e} exceeds the declared "
                    f"shift radius {declared_radius:.3e} at s={s}",
                    witness={"s": s},
                )

    if meta.time_drift is not None:
        nodes = time_grid.nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.array([float(meta.time_drift(t)) for t in nodes])
        vals[~np.isfinite(vals)] = 0.0
        # Around integrable poles of the density, which lie at the model's
        # breakpoints, the trapezoid rule can undershoot: inflate the node
        # beyond the pole until each cell's trapezoid dominates the declared
        # integral, an upper bound on the exact one.
        for sigma in model.time_breakpoints:
            j = int(np.searchsorted(nodes, sigma))
            for i in range(max(j - 2, 0), min(j + 2, len(nodes) - 1)):
                a, b = float(nodes[i]), float(nodes[i + 1])
                budget = drift_budget(model, a, b)
                trap = 0.5 * (vals[i] + vals[i + 1]) * (b - a)
                if budget > trap:
                    grow = i + 1 if abs(b - sigma) >= abs(a - sigma) else i
                    other = i if grow == i + 1 else i + 1
                    vals[grow] = 2.0 * budget / (b - a) - vals[other]
    else:
        # On the reference grid, as a declared density is: the schedule
        # tabulates it there.
        vals = np.interp(time_grid.nodes, sub.nodes, _SAFETY * drift_quot)
    gamma = SampledFunction(time_grid, vals, "time_drift")

    beta_u = SampledFunction(sub, beta_vals, "shift_radius")

    if meta.holder_exponent is not None:
        alpha = float(meta.holder_exponent)
        rates = np.array(
            [float(meta.holder_rate_scale(s)) * control_radius(float(s)) for s in sub.nodes]
        )
        if not np.all(np.isfinite(rates)):
            # A pole right on a node: clamp to the rate half a cell away,
            # which still dominates every same-node sample pair.
            half = 0.5 * sub.step
            for i, s in enumerate(sub.nodes):
                if not np.isfinite(rates[i]):
                    rates[i] = float(meta.holder_rate_scale(float(s) + half)) * control_radius(
                        float(s)
                    )
        ku = SampledFunction(sub, rates, "holder_rate")
    else:
        alpha = 1.0
        ku = SampledFunction(sub, _SAFETY * holder_quot, "holder_rate")
    return gamma, beta_u, alpha, ku


_BUNDLE_FUNCTIONS = (
    "growth_envelope",
    "state_lipschitz",
    "time_drift",
    "shift_radius",
    "holder_rate",
)
_BUNDLE_SCALARS = (
    "control_bound",
    "velocity_bound",
    "inward_slack",
    "collar_width",
    "eps_cap",
    "window_cap",
    "holder_exponent",
)


@dataclass(frozen=True)
class HypothesisBundle:
    """Certified constants consumed by the repair schedule. Construction
    is the completeness gate: a missing, negative (the functions bound
    norms) or non-finite entry raises a BundleError naming it."""

    growth_envelope: SampledFunction
    state_lipschitz: SampledFunction
    time_drift: SampledFunction
    shift_radius: SampledFunction
    control_bound: float
    velocity_bound: float
    inward_slack: float
    collar_width: float
    eps_cap: float
    window_cap: float
    boundary_drift: ModulusTable
    holder_exponent: float
    holder_rate: SampledFunction
    provenance: dict = field(default_factory=dict)
    reference_sup: float = 0.0
    config_hash: str = ""
    seed: int = 0

    def __post_init__(self):
        for name in _BUNDLE_FUNCTIONS:
            fn = getattr(self, name)
            if not isinstance(fn, SampledFunction):
                raise BundleError(f"bundle is missing the sampled function {name!r}")
            if np.any(fn.values < 0):
                t = float(fn.grid.nodes[int(np.argmax(fn.values < 0))])
                raise BundleError(f"bundle function {name!r} is negative at t={t:g}")
        for name in _BUNDLE_SCALARS:
            value = getattr(self, name)
            if value is None or not np.isfinite(value):
                raise BundleError(f"bundle constant {name!r} must be finite, got {value!r}")
        if not isinstance(self.boundary_drift, ModulusTable):
            raise BundleError("bundle is missing the boundary drift table")
        if not (0.0 < self.holder_exponent <= 1.0):
            raise BundleError(
                f"'holder_exponent', the Hölder exponent, must lie in (0, 1], "
                f"got {self.holder_exponent!r}"
            )
        for name in ("inward_slack", "collar_width", "eps_cap", "window_cap"):
            if not getattr(self, name) > 0:
                raise BundleError(f"{name!r} must be positive, got {getattr(self, name)!r}")
        for name in ("control_bound", "velocity_bound"):
            if not getattr(self, name) >= 0:
                raise BundleError(f"{name!r} must be nonnegative, got {getattr(self, name)!r}")


def reference_norm(xbar: Trajectory) -> float:
    """Largest state norm of ``xbar``; ConfigError when the operating box of
    radius 1 + 2 x that norm, which the certifiers draw states from, overflows."""
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = xbar.max_norm()
    if not np.isfinite(2.0 * (1.0 + 2.0 * norm)):
        raise ConfigError(
            f"reference 'states' reach norm {norm:g}: the operating box "
            "of radius 1 + 2 x that norm cannot be sampled"
        )
    return norm


def certify_all(
    model: DynamicsModel,
    constraint: ConstraintField,
    ubar: ControlSignal,
    xbar: Trajectory,
    seed: int = 0,
    config_hash: str = "",
) -> HypothesisBundle:
    """Run every certifier against one reference pair and assemble the bundle.

    The search runs over the module's grids (``EPS_LIST``,
    ``COLLAR_ETA_GRID``, ``CONTROL_BOUNDS``, ``XI_CANDIDATES``) with the
    sample counts that bundle.json records. Declared constants are
    validated and marked ``declared``; sampled ones are marked
    ``certified``. A failed 2x-resample stability check inflates the
    constant and demotes it to ``declared-only``. When the time regularity
    certificate fails at the chosen control bound (declared drift
    densities are often valid only on a bounded control box), the inward
    search is retried with the bound candidates narrowed below it. The
    window cap is the horizon, or a quarter of it for a time-varying
    constraint. A reference whose operating box of radius 1 + 2 x its
    largest state norm overflows raises ConfigError, and a growth envelope
    whose Gronwall radius overflows raises CertificationError.
    """
    grid = ubar.grid
    reference_sup = reference_norm(xbar)
    operating_radius = 1.0 + 2.0 * reference_sup
    bounds = CONTROL_BOUNDS
    while True:
        m_u, m_v, xi, eta = certify_inward_pointing(
            constraint,
            model,
            EPS_LIST,
            COLLAR_ETA_GRID,
            grid,
            control_bounds=bounds,
            box_radius=operating_radius,
            seed=seed,
        )
        control_radius = m_u + float(np.linalg.norm(ubar.values, axis=1).max())
        box = OperatingBox.from_radii(
            operating_radius, control_radius, model.state_dim, model.control_dim
        )
        try:
            gamma, beta_u, alpha, ku = certify_time_regularity(
                model, ubar, box, grid, control_bound=m_u, seed=seed
            )
            break
        except CertificationError:
            narrowed = tuple(b for b in bounds if b < m_u)
            if not narrowed:
                raise
            bounds = narrowed
    meta = model.metadata
    provenance = {
        "inward": "certified",
        "growth_envelope": "declared" if meta.growth_envelope is not None else "certified",
        "state_lipschitz": "declared" if meta.state_lipschitz is not None else "certified",
        "time_drift": "declared" if meta.time_drift is not None else "certified",
        "shift_radius": "certified",
        "holder_rate": "declared" if meta.holder_exponent is not None else "certified",
    }

    def resampled(name: str, certify, *args) -> SampledFunction:
        """The certificate, checked against a 2x resample on ``seed + 1``."""
        coarse = certify(*args, seed=seed)
        fine = certify(*args, n_samples=_SAMPLE_COUNTS["stability_resample"][name], seed=seed + 1)
        if np.any(fine.values > coarse.values * _SAFETY + 1e-12):
            provenance[name] = "declared-only"
            return SampledFunction(grid, np.maximum(coarse.values, _SAFETY * fine.values), name)
        return coarse

    # The Lipschitz modulus is certified on the ball the schedule derives
    # from the resampled envelope.
    theta = resampled("growth_envelope", certify_sublinear, model, box, grid)
    radius = gronwall_radius(
        theta.l1(),
        theta.l2(),
        reference_sup,
        m_u,
        float(np.sqrt(weighted_l2_cost(ubar))),
        beta_u.l2(),
    )
    if not np.isfinite(radius):
        raise CertificationError(
            f"the growth envelope's integral {theta.l1():g} overflows the Gronwall radius"
        )
    kf = resampled("state_lipschitz", certify_lipschitz, model, radius, box.controls, grid)
    window_cap = grid.span / 4.0 if constraint.time_varying else grid.span
    omega_a = build_boundary_modulus(
        constraint, grid, EPS_LIST, delta0=window_cap, box_radius=operating_radius, seed=seed
    )
    return HypothesisBundle(
        growth_envelope=theta,
        state_lipschitz=kf,
        time_drift=gamma,
        shift_radius=beta_u,
        control_bound=m_u,
        velocity_bound=m_v,
        inward_slack=xi,
        collar_width=eta,
        eps_cap=float(max(EPS_LIST)),
        window_cap=float(window_cap),
        boundary_drift=omega_a,
        holder_exponent=alpha,
        holder_rate=ku,
        provenance=provenance,
        reference_sup=reference_sup,
        config_hash=config_hash,
        seed=seed,
    )


def _function_to_dict(fn: SampledFunction) -> dict:
    return {"nodes": fn.grid.nodes.tolist(), "values": fn.values.tolist()}


def _function_from_dict(data) -> SampledFunction:
    return SampledFunction(TimeGrid(read_array(data["nodes"])), read_array(data["values"]))


def _string_table(value) -> dict:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise TypeError(f"expected a table of strings, got {value!r}")
    return dict(value)


def _modulus_table(value) -> ModulusTable:
    return ModulusTable(read_array(value["deltas"]), read_array(value["values"]))


def bundle_to_dict(bundle: HypothesisBundle) -> dict:
    out = {name: _function_to_dict(getattr(bundle, name)) for name in _BUNDLE_FUNCTIONS}
    out.update({name: float(getattr(bundle, name)) for name in _BUNDLE_SCALARS})
    out["boundary_drift"] = {
        "deltas": bundle.boundary_drift.deltas.tolist(),
        "values": bundle.boundary_drift.values.tolist(),
    }
    out["provenance"] = dict(bundle.provenance)
    out["reference_sup"] = bundle.reference_sup
    out["config_hash"] = bundle.config_hash
    out["seed"] = bundle.seed
    return out


_MISSING = object()


def bundle_from_dict(data: dict) -> HypothesisBundle:
    """The bundle of a ``bundle_to_dict`` record. A missing key, or a value
    of the wrong type, shape or range, raises a BundleError naming the key."""

    def read(name: str, parse, *rule, default=_MISSING):
        value = data.get(name, default)
        if value is _MISSING:
            raise BundleError(f"bundle file is missing {name!r}")
        try:
            if parse is str and not isinstance(value, str):
                raise TypeError(f"expected a string, got {value!r}")
            return parse(value, *rule)
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"no {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise BundleError(f"bundle value {name!r} is malformed: {detail}") from None

    kwargs = {name: read(name, _function_from_dict) for name in _BUNDLE_FUNCTIONS}
    kwargs.update({name: read(name, read_number, float, FINITE) for name in _BUNDLE_SCALARS})
    kwargs["boundary_drift"] = read("boundary_drift", _modulus_table)
    kwargs["provenance"] = read("provenance", _string_table, default={})
    kwargs["reference_sup"] = read("reference_sup", read_number, float, FINITE, default=0.0)
    kwargs["config_hash"] = read("config_hash", str, default="")
    kwargs["seed"] = read("seed", read_number, int, SEED, default=0)
    return HypothesisBundle(**kwargs)


def _binding_samples(bundle: HypothesisBundle) -> dict:
    """Worst witness per certified function: the sample where it binds."""
    out = {}
    for name in _BUNDLE_FUNCTIONS:
        fn = getattr(bundle, name)
        j = int(np.argmax(fn.values))
        out[name] = {"t": float(fn.grid.nodes[j]), "value": float(fn.values[j])}
    return out


def save_bundle(path, bundle: HypothesisBundle) -> None:
    """Write the bundle with a ``certification`` block: the tightening grid
    and sample counts it was certified with, and the sample where each
    function binds. The block is never read back."""
    record = bundle_to_dict(bundle)
    record["certification"] = {
        "eps_list": list(EPS_LIST),
        "sample_counts": _SAMPLE_COUNTS,
        "binding_samples": _binding_samples(bundle),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bundle(path) -> HypothesisBundle:
    return bundle_from_dict(read_json(path, "bundle"))
