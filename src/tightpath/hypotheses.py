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

from .dynamics import DynamicsModel, ball_points, drift_budget, rhs_batch, shift_selection
from .errors import (
    BundleError,
    CertificationError,
    ConfigError,
    DomainError,
    InfeasibleTighteningError,
    InwardPointingError,
    ShapeError,
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
# Rounding allowance of the staged push's distance bounds, per unit of the
# largest coordinate they involve; their rounding error is a few ulps of it.
_PUSH_BOUND_SLACK = 1e-9
# At most this many reference nodes are time-regularity base times.
TIME_REGULARITY_NODES = 81


@dataclass(frozen=True)
class SampledFunction:
    """Scalar function tabulated on a time grid, with trapezoid norms."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.grid),):
            raise ShapeError("sampled function needs one value per grid node")
        if not np.all(np.isfinite(values)):
            raise DomainError("sampled function values must be finite")
        object.__setattr__(self, "values", values)

    def value_at(self, t: float) -> float:
        return float(np.interp(t, self.grid.nodes, self.values))

    def l1(self) -> float:
        return float(trapezoid_prefix(self.grid, np.abs(self.values))[-1])

    def l2(self) -> float:
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
        return rng.uniform(self.states[:, 0], self.states[:, 1], size=(count, self.states.shape[0]))

    def sample_controls(self, rng, count: int) -> np.ndarray:
        return rng.uniform(
            self.controls[:, 0], self.controls[:, 1], size=(count, self.controls.shape[0])
        )


def _envelope(time_grid: TimeGrid, raw: np.ndarray, declared, undershoot: str) -> SampledFunction:
    """The declared envelope checked against the sampled maxima ``raw`` at
    each node, or without one, ``raw`` inflated by the safety factor."""
    if declared is None:
        return SampledFunction(time_grid, _SAFETY * raw)
    nodes = time_grid.nodes
    bound = np.array([float(declared(t)) for t in nodes])
    bad = raw > bound * _VALIDATE_SLACK + 1e-12
    if bad.any():
        t_bad = float(nodes[int(np.argmax(bad))])
        raise CertificationError(f"declared {undershoot} at t={t_bad}", witness={"t": t_bad})
    return SampledFunction(time_grid, bound)


def _ratio_max(model, t, states, controls) -> float:
    values = rhs_batch(model, t, states, controls)
    scale = 1.0 + np.linalg.norm(states, axis=1) + np.linalg.norm(controls, axis=1)
    return float((np.linalg.norm(values, axis=1) / scale).max())


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
    raw = np.array([_ratio_max(model, t, states, controls) for t in nodes])
    if declared is None:
        # Super-linear probe: growth must saturate as the control box scales.
        probe_times = nodes[:: max(1, nodes.size // 8)]
        last = np.array([_ratio_max(model, t, states, 4.0 * controls) for t in probe_times])
        final = np.array([_ratio_max(model, t, states, 8.0 * controls) for t in probe_times])
        growth = final / np.maximum(last, 1e-12)
        if float(growth.max()) > 1.5:
            j = int(np.argmax(growth))
            raise CertificationError(
                "field grows super-linearly in the control: no integrable envelope exists",
                witness={"t": float(probe_times[j]), "ratio_growth": float(growth[j])},
            )
    return _envelope(time_grid, raw, declared, "growth envelope undershoots sampled ratio")


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
    controls = rng.uniform(
        control_box[:, 0], control_box[:, 1], size=(n_samples, control_box.shape[0])
    )
    directions = rng.standard_normal((n_samples, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    def quotients(t: float, separation: float, xs: np.ndarray, fa: np.ndarray):
        """Difference quotients against the pair partners at ``separation``,
        given ``fa``, the field at ``xs``; also returns the partners."""
        other = xs + separation * directions[: len(xs)]
        fb = rhs_batch(model, t, other, controls[: len(xs)])
        return np.linalg.norm(fa - fb, axis=1) / separation, other

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
            fa = rhs_batch(model, t, pts, controls[: len(pts)])
            q, other = quotients(t, float(sep), pts, fa)
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
    scales = (0.4 * radius_R, 1e-2 * radius_R, 1e-4 * radius_R)
    declared = model.metadata.state_lipschitz
    nodes = time_grid.nodes
    raw = np.empty(len(nodes))
    for k, t in enumerate(nodes):
        fa = rhs_batch(model, float(t), base, controls)  # shared by every scale
        raw[k] = max(float(quotients(float(t), sep, base, fa)[0].max()) for sep in scales)
    return _envelope(time_grid, raw, declared, "Lipschitz modulus undershoots sampled quotient")


def _collar_samples(
    field: ConstraintField,
    eps: float,
    t: float,
    eta: float,
    count: int,
    rng,
    box_radius: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Feasible points within eta of the tightened boundary at time t,
    and their distances to it, the depths.

    Lattice crossings nudged just inside cover every boundary sheet at
    near-zero depth (the hard cases for the forward cone); bisecting
    random feasible-infeasible pairs adds points deeper in the collar.
    Returns empty arrays when the box contains no boundary (vacuous
    condition).
    """
    box = field.sampling_box
    dim = field.dim
    try:
        lattice = field.boundary_cloud(t, eps)
    except InfeasibleTighteningError:
        lattice = np.empty((0, dim))
    if not len(lattice):
        return np.empty((0, dim)), np.empty(0)
    hug = []
    for b in subsample(lattice, count):
        ring = b + 0.02 * eta * ball_points(rng, 24, dim, 1.0)
        margins = field.margin(t, ring, eps)
        if (margins >= 0).any():
            hug.append(ring[int(np.argmax(margins))])
    hug = np.asarray(hug).reshape(-1, dim)

    draws = rng.uniform(box[:, 0], box[:, 1], size=(64 * count, dim))
    margins = field.margin(t, draws, eps)
    feasible = draws[margins >= 0]
    infeasible = draws[margins < 0]
    deep = np.empty((0, dim))
    if len(feasible) and len(infeasible):
        pairs = min(count * 4, len(feasible), len(infeasible))
        lo = feasible[:pairs].copy()
        hi = infeasible[:pairs].copy()
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            inside = field.margin(t, mid, eps) >= 0
            lo[inside] = mid[inside]
            hi[~inside] = mid[~inside]
        depths = eta * rng.uniform(0.05, 1.0, size=(pairs, 1))
        # Step back inside along the direction that came from the feasible draw.
        inward = feasible[:pairs] - lo
        norms = np.linalg.norm(inward, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        deep = (lo + depths * inward / norms)[:count]
    points = np.vstack([hug, deep])
    points = points[field.margin(t, points, eps) >= 0]
    to_boundary = field._distances(eps, t, points)[1]
    keep = to_boundary <= eta * (1 + 1e-9)
    if box_radius is not None:
        keep &= np.linalg.norm(points, axis=1) <= box_radius
    return points[keep][: 2 * count], to_boundary[keep][: 2 * count]


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
    x: np.ndarray,
    candidates: np.ndarray,
    xi: float,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Worst slack of the forward-cone inclusion per control candidate.

    Checks, on a fixed grid of push times delta and base points y near x,
    that the ball of radius delta*xi around y + delta*v stays inside the
    tightened set at time t + delta, where v = f(t, x, u). A negative
    margin means the inclusion fails on the sample grid. The delta and y
    grids are deterministic, so repeated calls agree bitwise.

    ``x`` is one base point of shape (dim,), giving (n_candidates,)
    margins and (n_candidates, N) velocities, or a batch of shape
    (P, dim), giving (P, n_candidates) margins and (P, n_candidates, N)
    velocities. Every row of a batch is bitwise equal to the call on that
    row alone: each margin comes from elementwise arithmetic and per-point
    distance queries, and the running minimum is exact. Before the
    horizon, a row none of whose base points is in the tightened set gets
    margin -inf for every candidate; at the horizon there is no push time
    and every finite velocity gets +inf.

    The search is a branch-and-bound for ``best_inward_candidate``, run
    row by row: the leader after the first push time is evaluated at every
    push time, and a candidate stops being evaluated once its running
    minimum falls below the leader's exact margin minus
    ``INWARD_TIE_TOL``. So every candidate that wins or ties has its exact
    margin; every other entry is an upper bound on its margin that lies
    more than ``INWARD_TIE_TOL`` below the best margin of its row.

    On the KD-tree fallback a push of several candidates in a row is
    staged: the row's first candidate queries all its base points, and
    the others only the points whose 1-Lipschitz lower bound from it can
    reach their minimum, plus every point outside the set. A skipped
    point is provably farther than a queried one and rounding is
    monotone, so every entry, exact or bound, is bitwise the value a
    query of every point gives (see ``_staged_queries``).
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    n_rows, n_cand = len(rows), len(candidates)
    velocities = rhs_batch(
        model, float(t), np.repeat(rows, n_cand, axis=0), np.tile(candidates, (n_rows, 1))
    ).reshape(n_rows, n_cand, -1)
    margins = np.where(np.all(np.isfinite(velocities), axis=2), np.inf, -np.inf)
    delta_cap = min(xi, max(horizon - t, 0.0))
    if delta_cap > 0:
        _push_forward_cone(field, eps, t, rows, velocities, margins, xi, delta_cap)
    if x.ndim == 1:
        return margins[0], velocities[0]
    return margins, velocities


def _push_forward_cone(field, eps, t, rows, velocities, margins, xi, delta_cap) -> None:
    """The branch-and-bound of ``inclusion_margins``; lowers ``margins`` in place.

    On the KD-tree fallback, a push with more than one pair in some row
    queries only the base points that can set a pair's minimum (see
    ``_staged_queries``), and every pair's minimum comes out bitwise as a
    query of all its base points gives it. An analytic oracle answers all
    points in one vectorised call, so there every push queries them all.
    """
    rng = np.random.default_rng(12)
    deltas = np.linspace(0.0, delta_cap, INCLUSION_GRID_POINTS)[1:]
    offsets = ball_points(rng, INCLUSION_GRID_POINTS, field.dim, xi)
    ys = np.concatenate([rows[:, None, :], rows[:, None, :] + offsets[None, :, :]], axis=1)
    base_ok = (field.margin(t, ys.reshape(-1, field.dim), eps) >= 0).reshape(ys.shape[:2])
    margins[~base_ok.any(axis=1)] = -np.inf

    def push(delta: float, pairs: tuple) -> None:
        r, c = pairs
        keep = base_ok[r]
        steps = delta * velocities[r, c]
        centers = ys[r] + steps[:, None, :]
        slack = np.full(keep.shape, np.inf)

        def query(mask: np.ndarray) -> np.ndarray:
            d_set, d_bdry = field._distances(eps, t + delta, centers[mask])
            slack[mask] = np.where(d_set > 0, -np.inf, d_bdry - delta * xi)
            return d_bdry

        # np.nonzero lists the pairs of a row together; the first is its anchor.
        first = np.concatenate(([True], r[1:] != r[:-1]))
        if field.analytic_distance is None and not first.all():
            _staged_queries(field, eps, t + delta, query, first, steps, keep, centers)
        else:
            query(keep)
        margins[r, c] = np.minimum(margins[r, c], slack.min(axis=1))

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
    for delta in deltas[1:]:
        push(delta, (led, leader))
    floor = np.full(len(rows), np.inf)
    floor[led] = margins[led, leader] - INWARD_TIE_TOL
    live[led, leader] = False
    for delta in deltas[1:]:
        live &= margins >= floor[:, None]
        if not live.any():
            break
        push(delta, np.nonzero(live))


def _staged_queries(field, eps, t, query, first, steps, keep, centers) -> None:
    """Query the pushed base points that can set a pair's minimum slack.

    ``centers`` is (pairs, base points, dim): each base point moved by its
    pair's ``steps`` entry, delta * v. ``keep`` marks the feasible base
    points, and ``first`` the first pair of each row, its anchor; a row's
    pairs are consecutive. ``query(mask)`` makes one ``_distances`` call at
    time ``t`` over the masked centers, records their slacks and returns
    their boundary distances.

    1. Each anchor queries all its kept base points.
    2. The boundary distance is 1-Lipschitz, and a pair's center lies
       |step - step_anchor| from its anchor's center of the same base
       point, so the anchor's distance minus that shift bounds the pair's
       distance from below, less ``_PUSH_BOUND_SLACK`` times the
       coordinate scale for rounding.
    3. The base point with the lowest bound, the anchor's nearest, is
       queried exactly.
    4. So is every point whose bound does not exceed that exact distance,
    5. and every point whose margin is not ``>= 0`` (NaN included), which
       may make its pair -inf whatever its distance.

    A skipped point is then inside the set and provably farther than the
    exactly queried one. Rounding is monotone, so its slack
    ``d - delta * xi`` is no lower than that point's, and each queried
    point gets the value an unstaged push's query gives it: the pair's
    minimum is bitwise unchanged, for winners and losers alike.
    """
    anchor = np.flatnonzero(first)[np.cumsum(first) - 1]
    head = keep & first[:, None]
    d_anchor = np.full(keep.shape, np.inf)
    d_anchor[head] = query(head)
    d_anchor = d_anchor[anchor]
    rest = np.flatnonzero(~first)
    nearest = np.argmin(d_anchor[rest], axis=1)
    # With no boundary in the box every distance is inf: take a kept point.
    nearest = np.where(keep[rest, nearest], nearest, np.argmax(keep[rest], axis=1))
    pick = np.zeros(keep.shape, dtype=bool)
    pick[rest, nearest] = True
    exact = np.full(len(anchor), np.inf)
    exact[rest] = query(pick)
    scale = 1.0 + max(centers.max(), -centers.min()) + float(np.abs(field.sampling_box).max())
    shift = np.linalg.norm(steps - steps[anchor], axis=1)
    bound = d_anchor - (shift + _PUSH_BOUND_SLACK * scale)[:, None]
    open_ = keep & ~first[:, None] & ~pick
    todo = open_ & ~(bound > exact[:, None])
    maybe = open_ & ~todo
    if maybe.any():
        todo[maybe] = ~(field.margin(t, centers[maybe], eps) >= 0)
    if todo.any():
        query(todo)


def best_inward_candidate(margins: np.ndarray, candidates: np.ndarray) -> int:
    """Index of the max-margin candidate; ties go to the smaller control."""
    top = float(margins.max())
    tied = np.flatnonzero(margins >= top - INWARD_TIE_TOL)
    return int(tied[np.argmin(np.linalg.norm(candidates[tied], axis=1))])


def certify_inward_pointing(
    field: ConstraintField,
    model: DynamicsModel,
    eps_list,
    collar_eta_grid,
    time_grid: TimeGrid,
    control_bounds=CONTROL_BOUNDS,
    box_radius: float | None = None,
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
                shared = _collar_samples(
                    field, float(eps), float(t), etas[0], COLLAR_POINTS, rng, box_radius
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
                for x, depth, margins, velocities in zip(
                    pts, depths, group_margins, group_velocities
                ):
                    best = best_inward_candidate(margins, candidates)
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


def _declares_holder(meta) -> bool:
    """Whether the declared Hölder data is used: it needs both parts."""
    return meta.holder_exponent is not None and meta.holder_rate_scale is not None


def certify_time_regularity(
    model: DynamicsModel,
    ubar: ControlSignal,
    box: OperatingBox,
    time_grid: TimeGrid,
    control_bound: float = 0.0,
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
    s_nodes = subsample(time_grid.nodes, TIME_REGULARITY_NODES)
    sub = TimeGrid(s_nodes) if s_nodes.size >= 2 else time_grid
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
        for _ in range(TIME_REGULARITY_SAMPLES):
            t = float(rng.uniform(s, horizon))
            if t <= s:
                continue
            x = box.sample_states(rng, 1)[0]
            u_s = ball_points(rng, 1, model.control_dim, radius)[0]
            u_t = shift_selection(model, s, t, x, u_s, seed=seed)
            moved = float(np.linalg.norm(u_t - u_s))
            beta_vals[i] = max(beta_vals[i], moved)
            f_s = np.asarray(model.rhs(s, x, u_s), dtype=float)
            f_t = np.asarray(model.rhs(t, x, u_t), dtype=float)
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
            if _declares_holder(meta):
                rate = float(meta.holder_rate_scale(s))
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
        gamma = SampledFunction(time_grid, vals)
    else:
        gamma = SampledFunction(sub, _SAFETY * drift_quot)

    beta_u = SampledFunction(sub, beta_vals)

    if _declares_holder(meta):
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
        ku = SampledFunction(sub, rates)
    else:
        alpha = 1.0
        ku = SampledFunction(sub, _SAFETY * holder_quot)
    return gamma, beta_u, alpha, ku


@dataclass(frozen=True)
class HypothesisBundle:
    """Certified constants consumed by the repair schedule."""

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
    eps_list: tuple = ()
    config_hash: str = ""
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.holder_exponent <= 1.0):
            raise BundleError("the Hölder exponent must lie in (0, 1]")
        if self.inward_slack <= 0 or self.collar_width <= 0:
            raise BundleError("inward slack and collar width must be positive")
        if self.control_bound < 0 or self.velocity_bound < 0:
            raise BundleError("control and velocity bounds must be nonnegative")
        if self.eps_cap <= 0 or self.window_cap <= 0:
            raise BundleError("eps cap and window cap must be positive")
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))


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


def validate_bundle(bundle: HypothesisBundle, reference_sup: float | None = None) -> None:
    """Completeness gate: every scheduled constant present and usable.

    The certified functions are bounds on norms, so a negative value is
    rejected by name.
    """
    for name in _BUNDLE_FUNCTIONS:
        fn = getattr(bundle, name, None)
        if not isinstance(fn, SampledFunction):
            raise BundleError(f"bundle is missing the sampled function {name!r}")
        if np.any(fn.values < 0):
            t = float(fn.grid.nodes[int(np.argmax(fn.values < 0))])
            raise BundleError(f"bundle function {name!r} is negative at t={t:g}")
    for name in _BUNDLE_SCALARS:
        value = getattr(bundle, name, None)
        if value is None or not np.isfinite(value):
            raise BundleError(f"bundle is missing the constant {name!r}")
    if not isinstance(bundle.boundary_drift, ModulusTable):
        raise BundleError("bundle is missing the boundary drift table")
    if reference_sup is not None and reference_sup > bundle.reference_sup * (1 + 1e-9):
        raise BundleError(
            f"bundle was certified for references up to {bundle.reference_sup}, "
            f"got {reference_sup}"
        )


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
    largest state norm overflows raises ConfigError.
    """
    grid = ubar.grid
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        reference_sup = xbar.max_norm()
    operating_radius = 1.0 + 2.0 * reference_sup
    if not np.isfinite(2.0 * operating_radius):
        # The certifiers draw states uniformly across the operating box.
        raise ConfigError(
            f"reference 'states' reach norm {reference_sup:g}: the operating box "
            "of radius 1 + 2 x that norm cannot be sampled"
        )
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
        "holder_rate": "declared" if _declares_holder(meta) else "certified",
    }

    def resampled(name: str, certify, *args) -> SampledFunction:
        """The certificate, checked against a 2x resample on ``seed + 1``."""
        coarse = certify(*args, seed=seed)
        fine = certify(*args, n_samples=_SAMPLE_COUNTS["stability_resample"][name], seed=seed + 1)
        if np.any(fine.values > coarse.values * _SAFETY + 1e-12):
            provenance[name] = "declared-only"
            return SampledFunction(grid, np.maximum(coarse.values, _SAFETY * fine.values))
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
        eps_list=EPS_LIST,
        config_hash=config_hash,
        seed=seed,
    )


def _function_to_dict(fn: SampledFunction) -> dict:
    return {"nodes": fn.grid.nodes.tolist(), "values": fn.values.tolist()}


def _function_from_dict(data: dict) -> SampledFunction:
    return SampledFunction(TimeGrid(np.asarray(data["nodes"])), np.asarray(data["values"]))


def bundle_to_dict(bundle: HypothesisBundle) -> dict:
    out = {name: _function_to_dict(getattr(bundle, name)) for name in _BUNDLE_FUNCTIONS}
    out.update({name: float(getattr(bundle, name)) for name in _BUNDLE_SCALARS})
    out["boundary_drift"] = {
        "deltas": bundle.boundary_drift.deltas.tolist(),
        "values": bundle.boundary_drift.values.tolist(),
    }
    out["provenance"] = dict(bundle.provenance)
    out["reference_sup"] = bundle.reference_sup
    out["eps_list"] = list(bundle.eps_list)
    out["config_hash"] = bundle.config_hash
    out["seed"] = bundle.seed
    return out


def bundle_from_dict(data: dict) -> HypothesisBundle:
    try:
        kwargs = {name: _function_from_dict(data[name]) for name in _BUNDLE_FUNCTIONS}
        kwargs.update({name: float(data[name]) for name in _BUNDLE_SCALARS})
        drift = data["boundary_drift"]
        kwargs["boundary_drift"] = ModulusTable(
            np.asarray(drift["deltas"]), np.asarray(drift["values"])
        )
        kwargs["provenance"] = dict(data.get("provenance", {}))
        kwargs["reference_sup"] = float(data.get("reference_sup", 0.0))
        kwargs["eps_list"] = tuple(data.get("eps_list", ()))
        kwargs["config_hash"] = str(data.get("config_hash", ""))
        kwargs["seed"] = int(data.get("seed", 0))
    except KeyError as exc:
        raise BundleError(f"bundle file is missing {exc.args[0]!r}") from None
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
    """Write the bundle with a ``certification`` block: the sample counts
    it was certified with and the sample where each function binds."""
    record = bundle_to_dict(bundle)
    record["certification"] = {
        "sample_counts": _SAMPLE_COUNTS,
        "binding_samples": _binding_samples(bundle),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bundle(path) -> HypothesisBundle:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BundleError(f"{path}: not a valid bundle file ({exc})") from None
    return bundle_from_dict(data)
