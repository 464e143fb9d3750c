"""Time grids, sampled controls/trajectories, window moduli, and costs.

Controls are piecewise constant with the left-endpoint rule: the value
stored at a node applies on the half-open interval up to the next node.
Trajectories are node samples of an absolutely continuous path and are
interpolated linearly when two objects must share a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

_REL_TOL = 1e-9


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times with a declared maximum gap.

    Parameters
    ----------
    nodes : array_like
        Sample times, strictly increasing.
    step : float, optional
        Declared upper bound on consecutive gaps. Defaults to the largest
        observed gap.
    """

    nodes: np.ndarray
    step: float = 0.0

    def __post_init__(self):
        nodes = _as_float_array(self.nodes, "nodes")
        if nodes.ndim != 1 or nodes.size < 2:
            raise ShapeError("a time grid needs at least two 1-d nodes")
        gaps = np.diff(nodes)
        if np.any(gaps <= 0):
            raise DomainError("grid nodes must be strictly increasing")
        step = float(self.step) if self.step else float(gaps.max())
        if gaps.max() > step * (1 + _REL_TOL):
            raise DomainError(
                f"declared step {step} smaller than largest gap {gaps.max()}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "step", step)

    @classmethod
    def uniform(cls, t0: float, t1: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1 or t1 <= t0:
            raise DomainError("uniform grid needs t1 > t0 and n_steps >= 1")
        return cls(np.linspace(t0, t1, n_steps + 1), step=(t1 - t0) / n_steps)

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def t1(self) -> float:
        return float(self.nodes[-1])

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    def __len__(self) -> int:
        return self.nodes.size

    def _check_domain(self, t: float) -> None:
        slack = self.span * _REL_TOL
        if t < self.t0 - slack or t > self.t1 + slack:
            raise DomainError(f"time {t} outside grid [{self.t0}, {self.t1}]")

    def uniform_step(self) -> float:
        """The largest gap, which every gap matches to a relative 1e-6 on a
        uniform grid; raises DomainError on any other grid."""
        gaps = np.diff(self.nodes)
        step = float(gaps.max())
        if gaps.min() < step * (1 - 1e-6):
            raise DomainError(
                f"a uniform grid is required, got gaps from {gaps.min():g} to {step:g}"
            )
        return step

    def indices_left(self, times: np.ndarray) -> np.ndarray:
        """Index of the greatest node <= t for each time t in a nonempty 1-d
        array, in one lookup; the endpoint maps to the last node."""
        self._check_domain(float(times.min()))
        self._check_domain(float(times.max()))
        idx = np.searchsorted(self.nodes, np.clip(times, self.t0, self.t1), side="right") - 1
        return np.clip(idx, 0, self.nodes.size - 1)


def _check_samples(grid: TimeGrid, values: np.ndarray, name: str) -> np.ndarray:
    values = _as_float_array(values, name)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise ShapeError(
            f"{name} must be a list of rows, one per grid node, got shape {values.shape}"
        )
    if values.shape[0] != len(grid):
        raise ShapeError(
            f"{name} must have one row per grid node "
            f"({values.shape[0]} rows, {len(grid)} nodes)"
        )
    return values


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control samples, one row per grid node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_samples(self.grid, self.values, "control values"))

    @classmethod
    def constant(cls, grid: TimeGrid, value) -> "ControlSignal":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(value, (len(grid), 1)))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval(self, t: float) -> np.ndarray:
        """Value driving the dynamics at time t (left-endpoint rule)."""
        return self.values[self.grid.indices_left(np.array([t]))[0]]


@dataclass(frozen=True)
class Trajectory:
    """State samples of a continuous path, one row per grid node."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _check_samples(self.grid, self.states, "states"))

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def resample(self, times) -> np.ndarray:
        """(len(times), dim) states interpolated linearly at ``times``."""
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, self.dim))
        for j in range(self.dim):
            out[:, j] = np.interp(times, self.grid.nodes, self.states[:, j])
        return out

    def max_norm(self) -> float:
        return float(np.linalg.norm(self.states, axis=1).max())


@dataclass(frozen=True)
class ModulusTable:
    """Nondecreasing modulus values tabulated at ascending window widths.

    Lookups round the width up to the next tabulated entry, so a table
    evaluation never understates the tabulated modulus.
    """

    deltas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        deltas = _as_float_array(self.deltas, "deltas")
        values = _as_float_array(self.values, "modulus values")
        if deltas.ndim != 1 or values.shape != deltas.shape:
            raise ShapeError("deltas and values must be matching 1-d arrays")
        if deltas[0] != 0.0 or values[0] != 0.0:
            raise DomainError("a modulus table must start at (0, 0)")
        if np.any(np.diff(deltas) <= 0):
            raise DomainError("table deltas must be strictly increasing")
        if np.any(np.diff(values) < -_REL_TOL * max(1.0, float(np.abs(values).max()))):
            raise DomainError("modulus values must be nondecreasing")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "values", np.maximum.accumulate(values))

    @classmethod
    def zero(cls, max_delta: float) -> "ModulusTable":
        return cls(np.array([0.0, max_delta]), np.zeros(2))

    def value_at(self, delta: float) -> float:
        if delta < 0:
            raise DomainError("window width must be nonnegative")
        if delta == 0:
            return 0.0
        idx = int(np.searchsorted(self.deltas, delta * (1 - _REL_TOL), side="left"))
        idx = min(idx, self.deltas.size - 1)
        return float(self.values[idx])


def trapezoid_prefix(grid: TimeGrid, samples: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integrals of node samples, starting at 0."""
    gaps = np.diff(grid.nodes)
    pieces = 0.5 * (samples[:-1] + samples[1:]) * gaps
    return np.concatenate([[0.0], np.cumsum(pieces)])


def subsample(values, limit: int) -> np.ndarray:
    """At most ``limit`` entries of ``values``, evenly spread, both ends kept."""
    values = np.asarray(values)
    if len(values) <= limit:
        return values
    return values[np.unique(np.linspace(0, len(values) - 1, limit).round().astype(int))]


def build_modulus_table(grid: TimeGrid, samples: np.ndarray) -> ModulusTable:
    """Tabulate the window-integral modulus at every multiple of the grid step.

    Only meaningful on uniform grids. The entry at width j * step is the
    largest trapezoid integral of the samples over j consecutive cells,
    accumulated to be monotone.
    """
    n = len(grid) - 1
    step = grid.uniform_step()
    deltas = step * np.arange(n + 1)
    values = np.zeros(n + 1)
    prefix = trapezoid_prefix(grid, _as_float_array(samples, "samples"))
    for j in range(1, n + 1):
        values[j] = float(np.max(prefix[j:] - prefix[:-j]))
    return ModulusTable(deltas, np.maximum.accumulate(values))


def linf_distance(a: Trajectory, b: Trajectory) -> float:
    """Max Euclidean state distance over nodes, after resampling to the
    union grid when the two trajectories disagree on nodes."""
    if a.dim != b.dim:
        raise ShapeError(f"state dimensions differ ({a.dim} vs {b.dim})")
    if a.grid.nodes.shape == b.grid.nodes.shape and np.array_equal(a.grid.nodes, b.grid.nodes):
        diff = a.states - b.states
    else:
        lo = max(a.grid.t0, b.grid.t0)
        hi = min(a.grid.t1, b.grid.t1)
        if hi <= lo:
            raise DomainError("trajectories do not overlap in time")
        union = np.union1d(a.grid.nodes, b.grid.nodes)
        union = union[(union >= lo) & (union <= hi)]
        diff = a.resample(union) - b.resample(union)
    return float(np.linalg.norm(diff, axis=1).max())


def weighted_l2_cost(signal: ControlSignal, weight=None) -> float:
    """Integral of u(t)' W(t) u(t) over the signal's span.

    ``weight`` is None (identity), a constant PSD matrix, or a callable
    t -> PSD matrix. Piecewise-constant controls make the u-part exact per
    piece; the scalar weight factor is integrated with Simpson's rule,
    exact for weights constant or linear in t.
    """
    m = signal.dim
    if weight is None:
        weight_fn = None
    elif callable(weight):
        weight_fn = weight
    else:
        const = np.asarray(weight, dtype=float)
        if const.shape != (m, m):
            raise ShapeError(f"weight matrix must be {m}x{m}")
        weight_fn = lambda t: const  # noqa: E731

    nodes = signal.grid.nodes
    total = 0.0
    checked = False
    for i in range(nodes.size - 1):
        h = nodes[i + 1] - nodes[i]
        u = signal.values[i]
        if weight_fn is None:
            total += h * float(u @ u)
            continue
        quads = []
        for t in (nodes[i], 0.5 * (nodes[i] + nodes[i + 1]), nodes[i + 1]):
            mat = np.asarray(weight_fn(t), dtype=float)
            if mat.shape != (m, m):
                raise ShapeError(f"weight at t={t} must be {m}x{m}")
            if not checked:
                sym = 0.5 * (mat + mat.T)
                if np.linalg.eigvalsh(sym).min() < -1e-10 * max(1.0, abs(sym).max()):
                    raise DomainError(f"weight at t={t} is not positive semidefinite")
                checked = True
            quads.append(float(u @ mat @ u))
        total += h * (quads[0] + 4 * quads[1] + quads[2]) / 6.0
    return total


def save_csv(path, obj: ControlSignal | Trajectory) -> None:
    """Write ``t,x1..xN`` or ``t,u1..uM`` rows with round-trip precision."""
    if isinstance(obj, Trajectory):
        prefix, data = "x", obj.states
    elif isinstance(obj, ControlSignal):
        prefix, data = "u", obj.values
    else:
        raise ShapeError("save_csv expects a Trajectory or ControlSignal")
    header = "t," + ",".join(f"{prefix}{j + 1}" for j in range(data.shape[1]))
    lines = [header]
    for t, row in zip(obj.grid.nodes, data):
        lines.append(",".join(format(float(v), ".17g") for v in (t, *row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> tuple[np.ndarray, np.ndarray, str]:
    """Read a CSV written by :func:`save_csv`.

    Returns (times, columns, kind) where kind is ``"x"`` or ``"u"``.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not header or header[0] != "t" or len(header) < 2:
        raise DomainError(f"{path}: expected a 't,<x1|u1>...' header")
    kind = header[1][0]
    if kind not in ("x", "u"):
        raise DomainError(f"{path}: unknown column prefix {header[1]!r}")
    data = np.array([[float(v) for v in row] for row in rows])
    if data.shape[1] != len(header):
        raise ShapeError(f"{path}: ragged rows")
    return data[:, 0], data[:, 1:], kind


def load_trajectory(path) -> Trajectory:
    times, cols, kind = load_csv(path)
    if kind != "x":
        raise DomainError(f"{path}: holds control columns, not states")
    return Trajectory(TimeGrid(times), cols)


def load_control(path) -> ControlSignal:
    times, cols, kind = load_csv(path)
    if kind != "u":
        raise DomainError(f"{path}: holds state columns, not controls")
    return ControlSignal(TimeGrid(times), cols)
