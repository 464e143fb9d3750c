"""Constraint fields, tightened-set geometry, and perturbation certificates.

A constraint field is a finite family of scalar functions h_j(t, x); the
feasible set at tightening eps and time t collects the states with
max_j h_j(t, x) + eps <= 0, so raising eps shrinks the set. Distance
queries cover both the set itself and its boundary; fields without a
closed-form hook fall back to lattice boundary crossings: a key caches
only the KD-tree over its whole scan, and a question about one state at a
key without a tree reads lattice windows around it, bitwise alike. An
empty tree puts the boundary at infinite distance; a tightened set that
misses the box raises InfeasibleTighteningError, the one emptiness test.
The field answers the certifiers' distance questions itself, collar
points and forward-cone ball slacks, so no other module asks the oracle.
A config's expression components and their gradients are compiled by ``expr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ball_points, box_points
from .errors import (
    COUNT,
    POSITIVE,
    ConfigError,
    DomainError,
    InfeasibleTighteningError,
    ShapeError,
    config_array,
    config_number,
)
from .expr import compile_expressions, jacobian
from .signals import ModulusTable, TimeGrid, Trajectory, subsample

_MAX_TREE_CACHE = 64
# Rounding allowance of ball_slacks' staged distance bounds, per unit of the
# largest coordinate they involve; their rounding error is a few ulps of it.
_PUSH_BOUND_SLACK = 1e-9
# Most points a scan lattice may have: 2048 x 2048 in 2-D, 161 per axis in
# 3-D. The default resolutions stay well below it.
_MAX_LATTICE_POINTS = 2048 * 2048

# Feasible probes per tightening in the boundary modulus.
BOUNDARY_MODULUS_PROBES = 128


@dataclass
class ConstraintField:
    """Time-indexed feasible sets cut out by scalar inequality components.

    ``value``, ``margin`` and ``_distances`` take the time ``t`` either as a
    scalar or, for an (n, dim) batch, as an (n,) array with one time per
    row. A static field evaluates every row at the first of those times.
    ``value`` and ``margin`` evaluate a single (dim,) state as a one-row
    batch, so its margin is bitwise the same alone and inside a batch.

    Parameters
    ----------
    components : tuple of callables
        Each maps (t, x) to h_j(t, x), broadcasting over a leading batch
        axis of x and, for time-varying fields, over a matching axis of t.
    sampling_box : ndarray, shape (dim, 2)
        Coordinate bounds used by lattice fallbacks and certificates.
    time_varying : bool
        Whether any component depends on t. Static fields get a zero
        boundary-drift modulus and share distance caches across times.
    analytic_distance : callable, optional
        (eps, t, x) -> (distance to the tightened set, distance to its
        boundary), broadcasting like the components. When absent, both
        distances come from lattice boundary crossings (see
        ``_distances``). Their KD-tree is the only use of scipy:
        ``scipy.spatial`` is imported when the first one is built, so a
        field with this hook never loads it.
    resolution : float
        Lattice spacing of the fallback; defaults to the longest box edge
        over 2048 (dim 1), 1024 (dim 2), or 128.
    gradients : tuple of callables, optional
        Per component, (t, x) -> its (n, dim) gradient in x at a float time.
    """

    components: tuple
    sampling_box: np.ndarray
    time_varying: bool = False
    analytic_distance: object = None
    resolution: float = 0.0
    gradients: tuple = ()
    _tree_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # (1-D axes, flat (n, dim) points, grid shape) of the scan lattice.
    _lattice: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        box = np.asarray(self.sampling_box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 1] <= box[:, 0]):
            raise ShapeError("sampling_box must be (dim, 2) rows of lo < hi")
        self.sampling_box = box
        self.components = tuple(self.components)
        if not self.components:
            raise ShapeError("a constraint field needs at least one component")
        if not self.resolution:
            edge = float((box[:, 1] - box[:, 0]).max())
            divisor = {1: 2048, 2: 1024}.get(box.shape[0], 128)
            self.resolution = edge / divisor

    @property
    def dim(self) -> int:
        return int(self.sampling_box.shape[0])

    def _times(self, t):
        """A scalar ``t`` as given; per-row times as an array, or as their
        first entry for a static field, which ignores time."""
        if isinstance(t, (float, int)):
            return t
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return float(t)
        return t if self.time_varying else float(t[0])

    def value(self, t, x):
        """max_j h_j(t, x); a float for a single state, (n,) for a batch."""
        x = np.asarray(x, dtype=float)
        batch = np.atleast_2d(x)
        t = self._times(t)
        out = np.asarray(self.components[0](t, batch), dtype=float)
        for comp in self.components[1:]:
            out = np.maximum(out, np.asarray(comp(t, batch), dtype=float))
        return float(out[0]) if x.ndim == 1 else out

    def margin(self, t, x, eps: float):
        """-(value + eps): nonnegative exactly on the tightened set."""
        x = np.asarray(x, dtype=float)
        out = -(self.value(t, np.atleast_2d(x)) + eps)
        return float(out[0]) if x.ndim == 1 else out

    def gradient(self, t: float, x: np.ndarray):
        """The gradient of the active component, the first attaining the max,
        at each row of the (n, dim) states x at time t; None without gradients."""
        if not self.gradients:
            return None
        grads = np.stack([grad(t, x) for grad in self.gradients], axis=1)
        active = np.argmax(np.stack([comp(t, x) for comp in self.components], axis=1), axis=1)
        return grads[np.arange(len(x)), active]

    def _key(self, t: float, eps: float) -> tuple:
        return (round(t, 9) if self.time_varying else 0.0, round(eps, 12), self.resolution)

    def _tree(self, t: float, eps: float):
        """The KD-tree over the whole lattice scan of (t, eps), built at the
        key's first use; an empty scan's tree answers inf to every query,
        unless the box is entirely infeasible: then InfeasibleTighteningError
        is raised, judged by the margin at the box centre."""
        key = self._key(t, eps)
        if key not in self._tree_cache:
            scan = boundary_points(self, t, eps)
            if not len(scan) and not self.margin(t, self.sampling_box.mean(axis=1), eps) >= 0:
                raise InfeasibleTighteningError(
                    f"tightened set at eps={eps}, t={t} misses the sampling box", eps=eps, t=t
                )
            if len(self._tree_cache) >= _MAX_TREE_CACHE:
                self._tree_cache.pop(next(iter(self._tree_cache)))
            self._tree_cache[key] = _kd_tree(scan)
        return self._tree_cache[key]

    def boundary_cloud(self, t: float, eps: float) -> np.ndarray:
        """Lattice crossings of the tightened boundary at time t, (0, dim)
        without any: the data of the key's KD-tree, or a fresh scan for an
        analytic field, which builds no tree."""
        if self.analytic_distance is not None:
            return boundary_points(self, t, eps)
        return self._tree(t, eps).data

    def _distances(self, eps: float, t, points: np.ndarray):
        """(d_set, d_boundary) arrays for a (n, dim) batch.

        The lattice fallback answers each distinct time on its own: a lone
        point at a key without a tree from lattice windows
        (``_lone_distance``), anything else from the key's tree, bitwise alike.
        """
        t = self._times(t)
        if self.analytic_distance is not None:
            d_set, d_bdry = self.analytic_distance(eps, t, points)
            return np.asarray(d_set, dtype=float), np.asarray(d_bdry, dtype=float)
        if isinstance(t, np.ndarray):
            order = np.argsort(t, kind="stable")
            splits = np.split(order, np.flatnonzero(np.diff(t[order])) + 1)
            groups = [(float(t[rows[0]]), rows) for rows in splits]
        else:
            groups = [(t, slice(None))]
        d_bdry = np.empty(points.shape[0])
        for at, rows in groups:
            x, d = points[rows], None
            if len(x) == 1 and self._key(at, eps) not in self._tree_cache:
                d = _lone_distance(self, at, eps, x[0], 4.0 * self.resolution)
            d_bdry[rows] = self._tree(at, eps).query(x)[0] if d is None else d
        # An infinite boundary distance marks a time whose box is all feasible.
        inside = np.isinf(d_bdry) | (self.margin(t, points, eps) >= 0)
        return np.where(inside, 0.0, d_bdry), d_bdry

    def boundary_within(self, eps: float, t: float, x, r: float) -> bool:
        """Whether the tightened boundary at time t comes within ``r`` of
        the (dim,) state x: whether its boundary distance from
        ``_distances`` is at most ``r``.

        The lattice fallback queries the key's KD-tree when one is cached,
        and otherwise the nearest crossing of one window at reach ``r``
        (``_window_nearest``). A window with neither a crossing nor a feasible
        node resumes ``_lone_distance``'s growth at reach 2r, one that is the
        whole lattice or empty asks ``_distances``: a tightened set that
        misses the box still ends in the whole scan, which raises.
        """
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if self.analytic_distance is None and self._key(t, eps) not in self._tree_cache:
            near = _window_nearest(self, t, eps, x[0], r)
            if near is not None:
                if near[1] < np.inf:
                    return bool(near[1] <= r)
                if np.any(self.margin(t, _lattice_nodes(self, near[0])[1], eps) >= 0):
                    return False
                d = _lone_distance(self, t, eps, x[0], 2.0 * r)
                return bool((self._tree(t, eps).query(x)[0][0] if d is None else d) <= r)
        return bool(self._distances(eps, t, x)[1][0] <= r)

    def collar_points(self, eps: float, t: float, eta: float, count: int, rng, box_radius: float):
        """``collar_sets`` of the one key (eps, t)."""
        return self.collar_sets([(eps, t)], eta, count, rng, box_radius)[0]

    def collar_sets(self, keys, eta: float, count: int, rng, box_radius: float) -> list:
        """For each (eps, t) of ``keys``, the feasible points of norm at most
        ``box_radius`` within eta of the tightened boundary at time t, and
        their distances to it, the depths.

        Lattice crossings nudged just inside cover every boundary sheet at
        near-zero depth (the hard cases for the forward cone); bisecting
        random feasible-infeasible pairs adds points deeper in the collar.
        The keys draw from ``rng`` in order, and all their pairs are
        bisected together, one ``margin`` call per step with a time and an
        eps per row, so each key gets bitwise what it gets alone. A key
        whose box contains no boundary draws nothing and gets empty arrays
        (vacuous condition).
        """
        dim = self.dim
        none = np.empty((0, dim))
        drawn = []  # per key: hug points, bisection ends, depths; None without a boundary
        for eps, t in keys:
            try:
                lattice = self.boundary_cloud(t, eps)
            except InfeasibleTighteningError:
                lattice = none
            if not len(lattice):
                drawn.append(None)
                continue
            rings = np.stack(
                [b + 0.02 * eta * ball_points(rng, 24, dim, 1.0) for b in subsample(lattice, count)]
            )
            margins = self.margin(t, rings.reshape(-1, dim), eps).reshape(rings.shape[:2])
            hug = rings[np.arange(len(rings)), np.argmax(margins, axis=1)][(margins >= 0).any(axis=1)]
            draws = box_points(rng, 64 * count, self.sampling_box)
            margins = self.margin(t, draws, eps)
            feasible, infeasible = draws[margins >= 0], draws[margins < 0]
            pairs = min(count * 4, len(feasible), len(infeasible))
            depths = eta * rng.uniform(0.05, 1.0, size=(pairs, 1)) if pairs else None
            drawn.append((hug, feasible[:pairs], infeasible[:pairs], depths))

        sizes = [0 if got is None else len(got[1]) for got in drawn]
        lo = np.concatenate([none] + [got[1] for got in drawn if got is not None])
        hi = np.concatenate([none] + [got[2] for got in drawn if got is not None])
        times = np.repeat([float(t) for _, t in keys], sizes)
        epss = np.repeat([float(eps) for eps, _ in keys], sizes)
        for _ in range(48 if len(lo) else 0):
            mid = 0.5 * (lo + hi)
            inside = self.margin(times, mid, epss) >= 0
            lo[inside] = mid[inside]
            hi[~inside] = mid[~inside]
        out = []
        for (eps, t), got, ends in zip(keys, drawn, np.split(lo, np.cumsum(sizes)[:-1])):
            if got is None:
                out.append((none, np.empty(0)))
                continue
            hug, feasible, _, depths = got
            deep = none
            if len(ends):
                # Step back inside along the direction that came from the feasible draw.
                inward = feasible - ends
                norms = np.linalg.norm(inward, axis=1, keepdims=True)
                norms[norms == 0] = 1.0
                deep = (ends + depths * inward / norms)[:count]
            points = np.vstack([hug, deep])
            points = points[self.margin(t, points, eps) >= 0]
            to_boundary = self._distances(eps, t, points)[1]
            keep = (to_boundary <= eta * (1 + 1e-9)) & (
                np.linalg.norm(points, axis=1) <= box_radius
            )
            out.append((points[keep][: 2 * count], to_boundary[keep][: 2 * count]))
        return out

    def ball_slacks(self, eps: float, t, centers, radii, keep, first=None, shifts=None):
        """How far each ball stays inside the tightened set at time t.

        ``centers`` is (pairs, points, dim), and ``t`` and ``radii`` are
        floats or hold one entry per pair. Each point that ``keep`` marks
        gets d_boundary - radius, or -inf when its center is outside the
        set; every other point gets +inf.

        ``first`` marks the first pair of each group of consecutive pairs,
        its anchor, and ``shifts`` (pairs, dim) moves every point of a pair
        alike. With both, a single-time query on the lattice fallback asks
        only for the points that can set a pair's least slack; an analytic
        oracle answers all points in one vectorised call, so there every
        query asks for them all.

        1. Each anchor queries all its kept points.
        2. The boundary distance is 1-Lipschitz, and a pair's center lies
           |shift - shift_anchor| from its anchor's center of the same
           point, so the anchor's distance minus that shift bounds the
           pair's distance from below, less ``_PUSH_BOUND_SLACK`` times the
           coordinate scale for rounding.
        3. The point with the lowest bound, the anchor's nearest, is
           queried exactly.
        4. So is every point whose bound does not exceed that exact distance,
        5. and every point whose margin is not ``>= 0`` (NaN included),
           which may make its pair -inf whatever its distance.

        A skipped point is then inside the set and provably farther than
        the exactly queried one. Rounding is monotone, so its slack
        ``d - radius`` is no lower than that point's, and each queried
        point gets the value a query of every point gives it: the pair's
        least slack is bitwise unchanged.
        """
        slack = np.full(keep.shape, np.inf)

        def per_point(value, mask: np.ndarray):
            """A float as it is; one entry per pair, repeated for each masked point."""
            return value if np.ndim(value) == 0 else np.repeat(value, keep.shape[1])[mask.ravel()]

        def query(mask: np.ndarray) -> np.ndarray:
            """Record the slacks of the masked points, from one
            ``_distances`` call; returns their boundary distances."""
            d_set, d_bdry = self._distances(eps, per_point(t, mask), centers[mask])
            slack[mask] = np.where(d_set > 0, -np.inf, d_bdry - per_point(radii, mask))
            return d_bdry

        staged = first is not None and np.ndim(t) == 0 and self.analytic_distance is None
        if not staged or first.all():
            query(keep)
            return slack
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
        scale = 1.0 + max(centers.max(), -centers.min()) + float(np.abs(self.sampling_box).max())
        shift = np.linalg.norm(shifts - shifts[anchor], axis=1)
        bound = d_anchor - (shift + _PUSH_BOUND_SLACK * scale)[:, None]
        open_ = keep & ~first[:, None] & ~pick
        todo = open_ & ~(bound > exact[:, None])
        maybe = open_ & ~todo
        if maybe.any():
            todo[maybe] = ~(self.margin(t, centers[maybe], eps) >= 0)
        if todo.any():
            query(todo)
        return slack


def _kd_tree(points: np.ndarray):
    """A KD-tree over (n, dim) points; scipy.spatial is imported at the first."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _window_nearest(field: ConstraintField, t: float, eps: float, x: np.ndarray, r: float):
    """(window, distance): the lattice nodes within r plus two spacings of
    the (dim,) state x on every axis, one slice of indices per axis, and
    the distance from x to their nearest crossing, inf without one; None
    when the window is the whole lattice or empty, as for a non-finite x.
    The window holds both ends of every edge crossing within r of x, so a
    distance <= r is bitwise the whole scan's KD-tree answer: the root of
    the least sum of squares, added axis by axis."""
    axes = _lattice_nodes(field)[0]
    window = []
    for axis, centre in zip(axes, x):
        reach = r + 2.0 * (axis[1] - axis[0])
        lo = int(axis.searchsorted(centre - reach, side="left"))
        window.append(slice(lo, int(axis.searchsorted(centre + reach, side="right"))))
    sizes = [part.stop - part.start for part in window]
    if 0 in sizes or sizes == [axis.size for axis in axes]:
        return None
    crossings = boundary_points(field, t, eps, tuple(window))
    return tuple(window), float(np.sqrt(((crossings - x) ** 2).sum(axis=1)).min(initial=np.inf))


def _lone_distance(field: ConstraintField, t: float, eps: float, x: np.ndarray, r: float):
    """Distance from the (dim,) state x to the nearest crossing of growing
    windows (``_window_nearest``), or None once a window is the whole
    lattice or empty. The reach starts at ``r`` and doubles while the
    window has no crossing; a crossing d beyond it takes a rescan at d."""
    near = _window_nearest(field, t, eps, x, r)
    while near is not None and near[1] > r:
        r = 2.0 * r if near[1] == np.inf else near[1]
        near = _window_nearest(field, t, eps, x, r)
    return None if near is None else near[1]


def node_violations(
    field: ConstraintField, eps: float, traj: Trajectory, start: int = 0
) -> np.ndarray:
    """Distance to the tightened set of each node's state from node
    ``start`` on, 0 where the state is feasible: the per-node values that
    ``violation_sup`` takes the max of. Each entry depends on its own node
    alone, so a slice of the result equals the result on that slice.

    Only the rows whose margin is not >= 0 (NaN included) ask the oracle,
    in one ``_distances`` call: a time whose rows are all feasible needs
    no scan, and an infeasible row alone at its time reads windows."""
    times, states = traj.grid.nodes[start:], traj.states[start:]
    out = np.zeros(states.shape[0])
    rows = np.flatnonzero(~(field.margin(times, states, eps) >= 0))
    if rows.size:
        out[rows] = field._distances(eps, times[rows], states[rows])[0]
    return out


def violation_sup(field: ConstraintField, eps: float, traj: Trajectory) -> float:
    """Largest node distance to the tightened set: the maximal constraint
    violation of the trajectory, 0 for a feasible one."""
    return float(node_violations(field, eps, traj).max())


def unit_ball_complement(dim: int = 1, box_radius: float = 2.0) -> ConstraintField:
    """Feasible set {|x| >= 1 + eps}: the complement of an open ball.

    Distances are exact: the tightened boundary is the sphere of radius
    1 + eps.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")

    def component(t, x):
        x = np.asarray(x, dtype=float)
        return 1.0 - np.linalg.norm(x, axis=-1)

    def distance(eps, t, x):
        radii = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        gap = radii - (1.0 + eps)
        return np.maximum(-gap, 0.0), np.abs(gap)

    box = np.tile([-box_radius, box_radius], (dim, 1))
    return ConstraintField(
        components=(component,),
        sampling_box=box,
        analytic_distance=distance,
    )


def _lattice_counts(box: np.ndarray, resolution: float) -> list:
    """Points per axis of the scan lattice of a (dim, 2) box at a spacing.

    Raises DomainError when the size cannot be computed or the lattice
    would have more than ``_MAX_LATTICE_POINTS`` points, before anything
    is allocated.
    """
    where = f"box {box.tolist()}, resolution {resolution!r}"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        spans = np.ceil((box[:, 1] - box[:, 0]) / resolution)
    if not np.isfinite(spans).all():
        raise DomainError(f"the scan lattice size cannot be computed ({where})")
    counts = [max(int(span) + 1, 2) for span in spans]
    if math.prod(counts) > _MAX_LATTICE_POINTS:
        raise DomainError(
            f"the scan lattice would have {math.prod(counts)} points, more than "
            f"{_MAX_LATTICE_POINTS} ({where})"
        )
    return counts


def _build_lattice(box: np.ndarray, resolution: float) -> tuple:
    counts = _lattice_counts(box, resolution)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes, np.stack([m.ravel() for m in mesh], axis=-1), mesh[0].shape


def _lattice_nodes(field: ConstraintField, nodes: tuple | None = None) -> tuple:
    """(1-D axes, flat (n, dim) points, grid shape) of the sub-box ``nodes``
    of the field's scan lattice, one slice of node indices per axis; the
    whole lattice, built once per field, when ``nodes`` is None."""
    if field._lattice is None:
        field._lattice = _build_lattice(field.sampling_box, field.resolution)
    if nodes is None:
        return field._lattice
    axes, flat, shape = field._lattice
    sub = [axis[part] for axis, part in zip(axes, nodes)]
    points = flat.reshape(*shape, len(axes))[nodes].reshape(-1, len(axes))
    return sub, points, tuple(axis.size for axis in sub)


def boundary_points(
    field: ConstraintField, t: float, eps: float, nodes: tuple | None = None
) -> np.ndarray:
    """Point cloud on the tightened boundary inside the sampling box.

    Scans every edge of the field's lattice, which is built once per field,
    for a sign change of value + eps and places a linearly interpolated
    crossing point on it. An edge with a NaN end never crosses. ``nodes``,
    one slice of node indices per axis, scans only that sub-box: its
    crossings are bitwise those of the whole scan whose edges have both
    ends in it. With no crossing, the cloud is a (0, dim) array.
    """
    # A crossing steps off its lower end by the whole lattice's spacing,
    # which a sub-box's first two nodes need not reproduce.
    spacings = [axis[1] - axis[0] for axis in _lattice_nodes(field)[0]]
    axes, flat, shape = _lattice_nodes(field, nodes)
    values = field.value(t, flat).reshape(shape) + eps
    pos = values > 0
    nonpos = values <= 0
    dim = len(axes)
    crossings = []
    for a in range(dim):
        lo = tuple(slice(0, -1) if k == a else slice(None) for k in range(dim))
        hi = tuple(slice(1, None) if k == a else slice(None) for k in range(dim))
        mask = (nonpos[lo] & pos[hi]) | (pos[lo] & nonpos[hi])
        # The C-order indices of np.nonzero, which is about 7x slower on a 2-D mask.
        ends = np.unravel_index(mask.ravel().nonzero()[0], mask.shape)
        f_lo = values[lo][ends]
        frac = f_lo / (f_lo - values[hi][ends])
        pts = np.array([ax[index] for ax, index in zip(axes, ends)]).T
        pts[:, a] += frac * spacings[a]
        crossings.append(pts)
    return np.concatenate(crossings, axis=0)


def _feasible_samples(
    field: ConstraintField, t: float, n_samples: int, rng, box_radius: float
) -> np.ndarray:
    collected = []
    total = 0
    for _ in range(64):
        draw = box_points(rng, 4 * n_samples, field.sampling_box)
        keep = (field.value(t, draw) <= 0.0) & (np.linalg.norm(draw, axis=1) <= box_radius)
        kept = draw[keep]
        if kept.size:
            collected.append(kept)
            total += kept.shape[0]
        if total >= n_samples:
            break
    if not collected:
        raise DomainError(f"feasible set at t={t} misses the sampling region entirely")
    return np.concatenate(collected, axis=0)[:n_samples]


def build_boundary_modulus(
    field: ConstraintField,
    grid: TimeGrid,
    eps_list,
    delta0: float,
    box_radius: float,
    seed: int = 0,
) -> ModulusTable:
    """Tabulated bound on the time drift of the boundary-distance field.

    For fixed feasible probes x with |x| <= box_radius the table records,
    per window width up to delta0, the largest observed
    |d_boundary(eps, t + delta, x) - d_boundary(eps, t, x)| across
    tightening levels, skipping probes whose distance is not finite at some
    time. Static fields return the zero table.
    """
    if not field.time_varying:
        return ModulusTable.zero(grid.span)
    grid.uniform_step()
    times = subsample(grid.nodes, 41)
    gap = float(times[1] - times[0])
    j_cap = min(times.size - 1, int(np.ceil(delta0 / gap)))
    rng = np.random.default_rng(seed)
    profiles = [np.empty((times.size, 0))]
    for eps in eps_list:
        probes = _feasible_samples(
            field, float(times[0]), BOUNDARY_MODULUS_PROBES, rng, box_radius
        )
        profile = np.stack(
            [field._distances(float(eps), float(t), probes)[1] for t in times]
        )
        profiles.append(profile[:, np.isfinite(profile).all(axis=0)])
    columns = np.concatenate(profiles, axis=1)
    return ModulusTable.from_windows(
        gap * np.arange(j_cap + 1), lambda j: np.abs(columns[j:] - columns[:-j])
    )


def field_from_config(config: dict) -> ConstraintField:
    """Build a field from a config mapping (builtin name or expressions);
    an expression field is time-varying when one of its components reads t."""
    if "builtin" in config:
        name = config["builtin"]
        if name != "unit_ball_complement":
            raise DomainError(f"'builtin' must be 'unit_ball_complement', got {name!r}")
        dim = config_number(config, "dim", 1, int, COUNT)
        box_radius = config_number(config, "box_radius", 2.0, float, POSITIVE)
        return unit_ball_complement(dim=dim, box_radius=box_radius)
    try:
        box = config_array(config, "box")
        expressions = config["components"]
    except KeyError as exc:
        raise ConfigError(f"constraint config needs {exc.args[0]!r}") from None
    if box.ndim != 2:
        raise ConfigError("constraint box must be a list of [lo, hi] pairs")
    if not np.isfinite(box).all():
        raise ConfigError(f"'box' must hold finite numbers, got {config['box']!r}")
    # 0, like no key at all, selects the default spacing, so the test admits it.
    resolution = config_number(
        config, "resolution", 0.0, float, ("positive and finite", lambda v: 0 <= v < math.inf)
    )
    if (
        not isinstance(expressions, (list, tuple))
        or not expressions
        or not all(isinstance(expr, str) for expr in expressions)
    ):
        raise ConfigError(
            f"'components' must be a non-empty list of expression strings, got {expressions!r}"
        )
    components = tuple(compile_expressions(expr, x=box.shape[0]) for expr in expressions)
    gradients = tuple(jacobian(expr, "x", box.shape[0], x=box.shape[0]) for expr in expressions)
    field = ConstraintField(
        components=components,
        sampling_box=box,
        time_varying=any(comp.reads_time for comp in components),
        resolution=resolution,
        gradients=gradients if None not in gradients else (),
    )
    try:
        _lattice_counts(field.sampling_box, field.resolution)
    except DomainError as exc:
        raise ConfigError(f"'box' and 'resolution' do not fit: {exc}") from None
    return field
