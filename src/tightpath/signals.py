"""Time grids, sampled controls/trajectories, window moduli, and costs.

Controls are piecewise constant with the left-endpoint rule: the value
stored at a node applies on the half-open interval up to the next node.
Trajectories are node samples of an absolutely continuous path and are
interpolated linearly when two objects must share a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, read_text

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

    def at_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """The states at ``nodes``, else DomainError naming one that is no node
        of the grid: a run of ``integrate`` keeps a control grid's nodes, and
        one more at each model breakpoint between them."""
        own = self.grid.nodes
        if np.array_equal(own, nodes):
            return self.states
        index = np.minimum(np.searchsorted(own, nodes), own.size - 1)
        off = own[index] != nodes
        if off.any():
            raise DomainError(f"the trajectory has no node at t={float(nodes[off][0])!r}")
        return self.states[index]


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
    def from_windows(cls, deltas: np.ndarray, spread) -> "ModulusTable":
        """The table whose entry j > 0 is the largest entry of ``spread(j)``,
        one value per window of j cells, or of any narrower width's; entry 0
        is 0. An empty spread adds nothing, and a NaN window reaches the
        finite check."""
        values = np.zeros(len(deltas))
        for j in range(1, len(deltas)):
            values[j] = spread(j).max(initial=0.0)
        return cls(deltas, np.maximum.accumulate(values))

    @classmethod
    def zero(cls, max_delta: float) -> "ModulusTable":
        return cls(np.array([0.0, max_delta]), np.zeros(2))

    def value_at(self, delta: float) -> float:
        if delta < 0:
            raise DomainError("window width must be nonnegative")
        if delta == 0:
            return 0.0
        idx = int(self.deltas.searchsorted(delta * (1 - _REL_TOL), side="left"))
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
    largest trapezoid integral of the samples over j or fewer consecutive
    cells, through :meth:`ModulusTable.from_windows`.
    """
    deltas = grid.uniform_step() * np.arange(len(grid))
    prefix = trapezoid_prefix(grid, _as_float_array(samples, "samples"))
    return ModulusTable.from_windows(deltas, lambda j: prefix[j:] - prefix[:-j])


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


def positive_semidefinite(mat: np.ndarray) -> bool:
    """Whether the square ``mat`` is finite and its symmetric part has no
    eigenvalue below -1e-10 times its largest entry (or 1, if larger)."""
    if not np.isfinite(mat).all():
        return False
    sym = 0.5 * (mat + mat.T)
    return bool(np.linalg.eigvalsh(sym).min() >= -1e-10 * max(1.0, abs(sym).max()))


def weighted_l2_cost(signal: ControlSignal, weight=None) -> float:
    """Integral of u(t)' W(t) u(t) over the signal's span.

    ``weight`` is None (identity) or a callable t -> PSD matrix.
    Piecewise-constant controls make the u-part exact per piece; the
    scalar weight factor is integrated with Simpson's rule, exact for
    weights constant or linear in t.
    """
    m = signal.dim
    nodes = signal.grid.nodes
    if weight is None:
        # vecdot runs u @ u's dot kernel on each row, and cumsum adds the
        # cells left to right: the bits of a per-cell loop.
        u = signal.values[:-1]
        return float(np.cumsum(np.diff(nodes) * np.vecdot(u, u))[-1])
    total = 0.0
    checked = False
    for i in range(nodes.size - 1):
        h = nodes[i + 1] - nodes[i]
        u = signal.values[i]
        quads = []
        for t in (nodes[i], 0.5 * (nodes[i] + nodes[i + 1]), nodes[i + 1]):
            mat = np.asarray(weight(t), dtype=float)
            if mat.shape != (m, m):
                raise ShapeError(f"weight at t={t} must be {m}x{m}")
            if not checked and not positive_semidefinite(mat):
                raise DomainError(f"weight at t={t} is not finite and positive semidefinite")
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
    rows = np.column_stack([obj.grid.nodes, data]).tolist()
    lines = [header] + [",".join(format(v, ".17g") for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> tuple[np.ndarray, np.ndarray, str]:
    """Read a CSV written by :func:`save_csv`.

    Returns (times, columns, kind) where kind is ``"x"`` or ``"u"``. A file
    that is not such a CSV raises ConfigError naming it, and the line of a
    non-numeric cell or a ragged row.
    """
    first, *rest = read_text(path, "CSV").split("\n")
    header = first.strip().split(",")
    lines = [(number, line.strip()) for number, line in enumerate(rest, 2) if line.strip()]
    if header[0] != "t" or len(header) < 2:
        raise ConfigError(f"{path}: expected a 't,<x1|u1>...' header")
    kind = header[1][:1]
    if kind not in ("x", "u"):
        raise ConfigError(f"{path}: unknown column prefix {header[1]!r}")
    if not lines:
        raise ConfigError(f"{path}: no data rows after the header")
    rows = []
    for number, line in lines:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(
                f"{path}, line {number}: {len(cells)} cells, the header has {len(header)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise ConfigError(f"{path}, line {number}: a cell is not a number: {line!r}") from None
    data = np.array(rows)
    return data[:, 0], data[:, 1:], kind


def _load_signal(path, kind: str, build):
    """``build(grid, columns)`` from the CSV at ``path``, which must hold
    ``kind`` columns; a grid or sample error raises ConfigError naming it."""
    times, cols, found = load_csv(path)
    if found != kind:
        held = {"x": "state", "u": "control"}
        raise ConfigError(f"{path}: holds {held[found]} columns, not {held[kind]}s")
    try:
        return build(TimeGrid(times), cols)
    except (DomainError, ShapeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_trajectory(path) -> Trajectory:
    return _load_signal(path, "x", Trajectory)


def load_control(path) -> ControlSignal:
    return _load_signal(path, "u", ControlSignal)
