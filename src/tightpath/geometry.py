"""Constraint fields, tightened-set geometry, and perturbation certificates.

A constraint field is a finite family of scalar functions h_j(t, x); the
feasible set at tightening eps and time t collects the states with
max_j h_j(t, x) + eps <= 0, so raising eps shrinks the set. Distance
queries cover both the set itself and its boundary; fields without a
closed-form hook fall back to a KD-tree over lattice boundary crossings.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ExpressionError,
    InfeasibleTighteningError,
    ModelEvaluationError,
    ShapeError,
    config_array,
    config_flag,
    config_number,
)
from .signals import ModulusTable, TimeGrid, Trajectory, subsample

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

_MAX_TREE_CACHE = 64
# Most points a scan lattice may have: 2048 x 2048 in 2-D, 161 per axis in
# 3-D. The default resolutions stay well below it.
_MAX_LATTICE_POINTS = 2048 * 2048

# Feasible probes per tightening in the boundary modulus.
BOUNDARY_MODULUS_PROBES = 128

# Marker for "the whole sampling box is feasible": boundary out of reach.
_NO_BOUNDARY = "no-boundary"


def _names(node) -> set:
    """The names read anywhere in an expression's syntax tree."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def compile_expression(expr: str, dim: int, names: tuple = ()):
    """Compile a constraint expression over ``t, x1..x<dim>`` to a callable.

    The grammar is arithmetic (+, -, *, /, **) plus abs, sqrt, sin, cos,
    arctan, and pow; anything else is rejected before evaluation. The
    returned callable maps (t, x) with x of shape (dim,) or (n, dim) to a
    scalar or an (n,) array. A division by zero or an overflow in Python
    float arithmetic on ``t`` raises ModelEvaluationError naming the
    expression and ``t``. A numpy time (a scalar, or one per row) raises
    for exactly the times a Python float time raises for: when a / or **
    acts on a term of ``t`` alone, the only place a float time can raise,
    one row per distinct time is evaluated again at its float time, and
    the vectorised pass gives no numpy warning.
    ``names`` relabels the coordinates (one name per component) so callers
    can expose mixed variable sets.
    """
    if names and len(names) != dim:
        raise ExpressionError(f"{expr!r}: need one name per coordinate, got {names}")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc.msg}") from None
    labels = tuple(names) or tuple(f"x{i + 1}" for i in range(dim))
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
            ):
                raise ExpressionError(f"{expr!r}: only calls to {sorted(_ALLOWED_CALLS)} allowed")
            continue
        if isinstance(node, ast.Name):
            if node.id in _ALLOWED_CALLS or node.id in variables:
                continue
            raise ExpressionError(f"{expr!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                continue
            raise ExpressionError(f"{expr!r}: only numeric constants allowed")
        raise ExpressionError(f"{expr!r}: disallowed syntax {type(node).__name__}")
    code = compile(tree, "<constraint>", "eval")
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

    def evaluate(t, x):
        namespace = dict(_ALLOWED_CALLS)
        namespace["t"] = t
        for i, label in enumerate(labels):
            namespace[label] = x[..., i]
        try:
            return eval(code, {"__builtins__": {}}, namespace)  # noqa: S307
        except (ZeroDivisionError, OverflowError) as exc:
            raise ModelEvaluationError(f"{expr!r} cannot be evaluated at t={t}: {exc}") from None

    def component(t, x):
        x = np.asarray(x, dtype=float)
        if not (time_poles and isinstance(t, (np.ndarray, np.generic))):
            return np.asarray(evaluate(t, x), dtype=float) + np.zeros(x.shape[:-1])
        # A numpy time gives inf, NaN or even a finite value where a Python
        # float time raises, and whether a float time raises does not depend
        # on x: probe one row per distinct time at its float time, a
        # non-finite row where there is one, so that it raises or warns as a
        # float time does and this pass stays silent. Every row keeps the
        # vectorised value.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.asarray(evaluate(t, x), dtype=float) + np.zeros(x.shape[:-1])
        times = np.broadcast_to(np.asarray(t, dtype=float), out.shape).ravel()
        rows = np.broadcast_to(x, out.shape + x.shape[-1:]).reshape(-1, x.shape[-1])
        order = np.lexsort((np.isfinite(out).ravel(), times))
        for row in order[np.unique(times[order], return_index=True)[1]]:
            evaluate(float(times[row]), rows[row])
        return out

    component.dim = dim
    component.source = expr
    component.reads_time = "t" in _names(tree)
    return component


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
        distances come from a KD-tree over lattice boundary crossings.
        That tree is the only use of scipy: ``scipy.spatial`` is imported
        on the first such query, so a field with this hook never loads it.
    resolution : float
        Lattice spacing of the fallback; defaults to the longest box edge
        over 2048 (dim 1), 1024 (dim 2), or 128.
    """

    components: tuple
    sampling_box: np.ndarray
    time_varying: bool = False
    analytic_distance: object = None
    name: str = ""
    resolution: float = 0.0
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

    def _tree(self, t: float, eps: float, query: bool = True):
        """The cache entry of (t, eps): its boundary scan, _NO_BOUNDARY or,
        once ``query`` asks for one, a KD-tree over the scan. The upgrade
        keeps the key's place in the FIFO order and imports scipy.spatial."""
        key = (round(t, 9) if self.time_varying else 0.0, round(eps, 12), self.resolution)
        tree = self._tree_cache.get(key)
        if tree is None:
            try:
                tree = boundary_points(self, t, eps)
            except DomainError:
                # No crossings: either the box is entirely feasible (the
                # boundary is out of reach) or entirely infeasible.
                probe = self.sampling_box.mean(axis=1)
                if self.margin(t, probe, eps) >= 0:
                    tree = _NO_BOUNDARY
                else:
                    raise InfeasibleTighteningError(
                        f"tightened set at eps={eps}, t={t} misses the sampling box",
                        eps=eps,
                        t=t,
                    ) from None
            if len(self._tree_cache) >= _MAX_TREE_CACHE:
                self._tree_cache.pop(next(iter(self._tree_cache)))
            self._tree_cache[key] = tree
        if query and isinstance(tree, np.ndarray):
            from scipy.spatial import cKDTree

            tree = self._tree_cache[key] = cKDTree(tree)
        return tree

    def boundary_cloud(self, t: float, eps: float) -> np.ndarray:
        """Lattice crossings of the tightened boundary at time t: the key's
        cached scan, also the data of a KD-tree once a distance query built
        one. Each key costs one scan, and reading it builds no tree; (0, dim)
        when the whole box is feasible. Raises InfeasibleTighteningError
        when the tightened set misses the box."""
        tree = self._tree(t, eps, query=False)
        if tree is _NO_BOUNDARY:
            return np.empty((0, self.dim))
        return tree if isinstance(tree, np.ndarray) else tree.data

    def _distances(self, eps: float, t, points: np.ndarray):
        """(d_set, d_boundary) arrays for a (n, dim) batch.

        The lattice fallback queries one boundary tree per distinct time.
        """
        t = self._times(t)
        if self.analytic_distance is not None:
            d_set, d_bdry = self.analytic_distance(eps, t, points)
            return np.asarray(d_set, dtype=float), np.asarray(d_bdry, dtype=float)
        if not isinstance(t, np.ndarray):
            tree = self._tree(t, eps)
            if tree is _NO_BOUNDARY:
                n = points.shape[0]
                return np.zeros(n), np.full(n, np.inf)
            d_bdry = np.asarray(tree.query(points)[0], dtype=float)
            inside = self.margin(t, points, eps) >= 0
            return np.where(inside, 0.0, d_bdry), d_bdry
        order = np.argsort(t, kind="stable")
        d_bdry = np.full(points.shape[0], np.inf)
        for rows in np.split(order, np.flatnonzero(np.diff(t[order])) + 1):
            tree = self._tree(float(t[rows[0]]), eps)
            if tree is not _NO_BOUNDARY:
                d_bdry[rows] = tree.query(points[rows])[0]
        # An infinite boundary distance marks a time whose box is all feasible.
        inside = np.isinf(d_bdry) | (self.margin(t, points, eps) >= 0)
        return np.where(inside, 0.0, d_bdry), d_bdry


def dist_to_boundary(field: ConstraintField, eps: float, t: float, x) -> float:
    """Euclidean distance from x to the tightened set's boundary."""
    x = np.asarray(x, dtype=float)
    return float(field._distances(eps, t, x.reshape(1, -1))[1][0])


def node_violations(
    field: ConstraintField, eps: float, traj: Trajectory, start: int = 0
) -> np.ndarray:
    """Distance to the tightened set of each node's state from node
    ``start`` on, 0 where the state is feasible: the per-node values that
    ``violation_sup`` takes the max of. Each entry depends on its own node
    alone, so a slice of the result equals the result on that slice."""
    return field._distances(eps, traj.grid.nodes[start:], traj.states[start:])[0]


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
        time_varying=False,
        analytic_distance=distance,
        name="unit_ball_complement",
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


def boundary_points(field: ConstraintField, t: float, eps: float) -> np.ndarray:
    """Point cloud on the tightened boundary inside the sampling box.

    Scans every edge of the field's lattice, which is built once per field,
    for a sign change of value + eps and places a linearly interpolated
    crossing point on it. An edge with a NaN end never crosses.
    """
    if field._lattice is None:
        field._lattice = _build_lattice(field.sampling_box, field.resolution)
    axes, flat, shape = field._lattice
    values = field.value(t, flat).reshape(shape) + eps
    pos = values > 0
    nonpos = values <= 0
    dim = len(axes)
    crossings = []
    for a, axis in enumerate(axes):
        lo = tuple(slice(0, -1) if k == a else slice(None) for k in range(dim))
        hi = tuple(slice(1, None) if k == a else slice(None) for k in range(dim))
        mask = (nonpos[lo] & pos[hi]) | (pos[lo] & nonpos[hi])
        # The C-order indices of np.nonzero, which is about 7x slower on a 2-D mask.
        ends = np.unravel_index(np.flatnonzero(mask), mask.shape)
        if not ends[0].size:
            continue
        f_lo = values[lo][ends]
        frac = f_lo / (f_lo - values[hi][ends])
        pts = np.stack([ax[index] for ax, index in zip(axes, ends)], axis=-1)
        pts[:, a] += frac * (axis[1] - axis[0])
        crossings.append(pts)
    if not crossings:
        raise DomainError(
            f"no boundary of the eps={eps} set inside the sampling box at t={t}"
        )
    return np.concatenate(crossings, axis=0)


def _feasible_samples(
    field: ConstraintField, t: float, n_samples: int, rng, box_radius: float | None = None
) -> np.ndarray:
    box = field.sampling_box
    collected = []
    total = 0
    for _ in range(64):
        draw = rng.uniform(box[:, 0], box[:, 1], size=(4 * n_samples, field.dim))
        keep = field.value(t, draw) <= 0.0
        if box_radius is not None:
            keep &= np.linalg.norm(draw, axis=1) <= box_radius
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
    delta0: float | None = None,
    box_radius: float | None = None,
    seed: int = 0,
) -> ModulusTable:
    """Tabulated bound on the time drift of the boundary-distance field.

    For fixed feasible probes x the table records, per window width, the
    largest observed |d_boundary(eps, t + delta, x) - d_boundary(eps, t, x)|
    across tightening levels. Static fields return the zero table.
    """
    if not field.time_varying:
        return ModulusTable.zero(grid.span)
    grid.uniform_step()
    times = subsample(grid.nodes, 41)
    n_t = times.size
    gap = float(times[1] - times[0]) if n_t > 1 else grid.span
    j_cap = n_t - 1 if delta0 is None else min(n_t - 1, int(np.ceil(delta0 / gap)))
    rng = np.random.default_rng(seed)
    worst_per_width = np.zeros(j_cap + 1)
    for eps in eps_list:
        probes = _feasible_samples(
            field, float(times[0]), BOUNDARY_MODULUS_PROBES, rng, box_radius
        )
        profile = np.stack(
            [field._distances(float(eps), float(t), probes)[1] for t in times]
        )
        finite = np.isfinite(profile).all(axis=0)
        profile = profile[:, finite]
        for j in range(1, j_cap + 1):
            drift = np.abs(profile[j:] - profile[:-j]).max() if profile.size else 0.0
            worst_per_width[j] = max(worst_per_width[j], float(drift))
    return ModulusTable(gap * np.arange(j_cap + 1), np.maximum.accumulate(worst_per_width))


def field_from_config(config: dict) -> ConstraintField:
    """Build a field from a config mapping (builtin name or expressions)."""
    if "builtin" in config:
        name = config["builtin"]
        if name != "unit_ball_complement":
            raise DomainError(f"unknown builtin constraint {name!r}")
        return unit_ball_complement(
            dim=config_number(config, "dim", 1, int),
            box_radius=config_number(config, "box_radius", 2.0, float),
        )
    try:
        box = config_array(config, "box")
        expressions = config["components"]
    except KeyError as exc:
        raise ConfigError(f"constraint config needs {exc.args[0]!r}") from None
    if box.ndim != 2:
        raise ConfigError("constraint box must be a list of [lo, hi] pairs")
    if not np.isfinite(box).all():
        raise ConfigError(f"'box' must hold finite numbers, got {config['box']!r}")
    resolution = config_number(config, "resolution", 0.0, float)
    if not np.isfinite(resolution) or resolution < 0:
        raise ConfigError(
            f"'resolution' must be positive and finite, got {config['resolution']!r}"
        )
    if (
        not isinstance(expressions, (list, tuple))
        or not expressions
        or not all(isinstance(expr, str) for expr in expressions)
    ):
        raise ConfigError(
            f"'components' must be a non-empty list of expression strings, got {expressions!r}"
        )
    time_varying = config_flag(config, "time_varying", False)
    components = tuple(compile_expression(expr, box.shape[0]) for expr in expressions)
    timed = [comp.source for comp in components if comp.reads_time]
    if timed and not time_varying:
        # A static field evaluates every time as the first one and shares
        # one distance cache across times, which a t-dependent set breaks.
        raise ConfigError(
            f"component {timed[0]!r} reads 't', so 'time_varying' must be true"
        )
    field = ConstraintField(
        components=components,
        sampling_box=box,
        time_varying=time_varying,
        resolution=resolution,
        name=str(config.get("name", "")),
    )
    try:
        _lattice_counts(field.sampling_box, field.resolution)
    except DomainError as exc:
        raise ConfigError(f"'box' and 'resolution' do not fit: {exc}") from None
    return field
