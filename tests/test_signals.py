import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath.errors import ConfigError, DomainError, ShapeError
from tightpath.signals import (
    ControlSignal,
    ModulusTable,
    TimeGrid,
    Trajectory,
    build_modulus_table,
    linf_distance,
    load_control,
    load_trajectory,
    save_csv,
    subsample,
    weighted_l2_cost,
)


def brute_force_window_integral(nodes, samples, delta):
    # Independent oracle: scan every window start, trapezoid sum directly.
    best = 0.0
    for i in range(len(nodes)):
        acc = 0.0
        for j in range(i, len(nodes) - 1):
            if nodes[j + 1] > nodes[i] + delta * (1 + 1e-12):
                break
            acc += 0.5 * (samples[j] + samples[j + 1]) * (nodes[j + 1] - nodes[j])
        best = max(best, acc)
    return best


class TestTimeGrid:
    def test_uniform_endpoints(self):
        grid = TimeGrid.uniform(0.0, 2.0, 400)
        assert grid.t0 == 0.0
        assert grid.t1 == 2.0
        assert len(grid) == 401
        assert grid.step == pytest.approx(0.005)

    def test_rejects_non_monotone(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 1.0, 1.0, 2.0]))

    def test_rejects_understated_step(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 0.5, 1.0]), step=0.25)

    def test_index_left_interior_and_endpoint(self):
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        assert grid.indices_left(np.array([0.3, 0.25, 1.0])).tolist() == [1, 1, 4]

    def test_domain_check(self):
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            ControlSignal(grid, np.zeros((len(grid), 1))).eval(1.5)
        with pytest.raises(DomainError):
            grid.indices_left(np.array([0.5, 1.5]))

    def test_indices_left_is_index_left_per_time(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.4, 0.9, 1.0]))
        slack = 0.5e-9
        times = np.r_[grid.nodes, grid.nodes[1:] - 1e-13, -slack, 1.0 + slack, 0.2, 0.95]
        # Reference: clamp each time into the grid, then take the last node
        # at or before it.
        nodes = grid.nodes.tolist()
        clamped = [min(max(t, nodes[0]), nodes[-1]) for t in times.tolist()]
        want = [max(i for i, node in enumerate(nodes) if node <= t) for t in clamped]
        assert grid.indices_left(times).tolist() == want


class TestControlSignal:
    def test_left_rule_on_nodes_and_interior(self):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        sig = ControlSignal(grid, np.array([[1.0], [2.0], [3.0]]))
        assert sig.eval(0.0) == pytest.approx(1.0)
        assert sig.eval(0.49) == pytest.approx(1.0)
        assert sig.eval(0.5) == pytest.approx(2.0)
        # Final node value applies at the right endpoint only.
        assert sig.eval(1.0) == pytest.approx(3.0)

    @given(
        values=st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=3, max_size=12
        ),
        frac=st.floats(0, 1, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_left_rule_property(self, values, frac):
        grid = TimeGrid.uniform(0.0, 1.0, len(values) - 1)
        sig = ControlSignal(grid, np.array(values))
        h = grid.step
        i = len(values) // 2
        t = grid.nodes[i] + frac * h
        expect = values[i] if t < grid.nodes[i + 1] else values[i + 1]
        assert sig.eval(t)[0] == expect

    def test_shape_mismatch(self):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(ShapeError):
            ControlSignal(grid, np.zeros((2, 1)))


class TestTrajectory:
    def test_linear_interpolation(self):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        traj = Trajectory(grid, np.array([[0.0, 0.0], [1.0, -1.0], [0.0, 0.0]]))
        assert traj.resample([0.25])[0] == pytest.approx([0.5, -0.5])
        assert traj.max_norm() == pytest.approx(np.sqrt(2.0))


@pytest.mark.float_path
class TestWindowModulus:
    """``build_modulus_table`` against brute-force window integrals."""

    def test_decline_drift_window_quarter(self):
        # gamma(s) = 1/(4 sqrt(s-1)) on (1, 2], zero before the kink.
        # Analytic sup over quarter-width windows is the window at the kink:
        # integral over [1, 1.25] = sqrt(0.25)/2 = 0.25.
        grid = TimeGrid.uniform(0.0, 2.0, 20000)
        s = grid.nodes
        gamma = np.where(s > 1.0, 1.0 / (4.0 * np.sqrt(np.maximum(s - 1.0, 1e-300))), 0.0)
        got = build_modulus_table(grid, gamma).value_at(0.25)
        oracle = brute_force_window_integral(s[9000:13001], gamma[9000:13001], 0.25)
        assert got == pytest.approx(oracle, abs=1e-12)
        # Trapezoid under-resolves the inverse-sqrt singularity from above;
        # the first-cell defect is about 0.375 * sqrt(step).
        assert got == pytest.approx(0.25, abs=5e-3)

    def test_integral_sup_matches_brute_force_random(self):
        rng = np.random.default_rng(7)
        grid = TimeGrid.uniform(0.0, 3.0, 39)
        samples = rng.uniform(0, 2, len(grid))
        table = build_modulus_table(grid, samples)
        for cells in (1, 2, 9, 20, 39):
            delta = cells * grid.step
            want = brute_force_window_integral(grid.nodes, samples, delta)
            assert table.value_at(delta) == pytest.approx(want, abs=1e-12)

    @given(delta_pair=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_width(self, delta_pair):
        lo, hi = sorted(delta_pair)
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        table = build_modulus_table(grid, np.abs(np.sin(17 * grid.nodes)))
        assert table.value_at(lo) <= table.value_at(hi)


class TestSubsample:
    def test_matches_spread_indices_at_every_size(self):
        # The collar sampler picked lattice rows with this formula at any
        # size; the certifiers only applied it above the limit.
        for n in range(1, 60):
            values = np.arange(n) * 0.5
            for limit in range(1, 25):
                idx = np.unique(np.linspace(0, n - 1, limit).round().astype(int))
                assert np.array_equal(subsample(values, limit), values[idx])

    def test_keeps_ends_and_limit(self):
        values = np.linspace(0.0, 2.0, 2001)
        picked = subsample(values, 21)
        assert picked.size == 21
        assert picked[0] == 0.0 and picked[-1] == 2.0


@pytest.mark.float_path
class TestModulusTable:
    def test_ceil_lookup(self):
        table = ModulusTable(np.array([0.0, 0.1, 0.2, 0.4]), np.array([0.0, 1.0, 1.5, 2.0]))
        assert table.value_at(0.0) == 0.0
        assert table.value_at(0.05) == 1.0
        assert table.value_at(0.1) == 1.0
        assert table.value_at(0.15) == 1.5
        assert table.value_at(0.4) == 2.0
        # Beyond the tabulated range the last value applies.
        assert table.value_at(0.9) == 2.0

    def test_requires_zero_anchor(self):
        with pytest.raises(DomainError):
            ModulusTable(np.array([0.1, 0.2]), np.array([0.0, 1.0]))

    def test_build_table_dominates_direct_modulus(self):
        grid = TimeGrid.uniform(0.0, 1.0, 100)
        samples = 1.0 + np.cos(5 * grid.nodes) ** 2
        table = build_modulus_table(grid, samples)
        for delta in (0.013, 0.27, 0.5, 1.0):
            direct = brute_force_window_integral(grid.nodes, samples, delta)
            assert table.value_at(delta) >= direct - 1e-12

    def test_zero_table(self):
        table = ModulusTable.zero(2.0)
        assert table.value_at(1.7) == 0.0

    def test_lookup_is_the_searchsorted_lookup(self):
        # The method call gives the index the np.searchsorted wrapper gives:
        # at 0, at every tabulated width and between them, past the last
        # width, and for NaN, which sorts last and reads the last entry.
        rng = np.random.default_rng(4)
        deltas = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 0.2, 200))])
        table = ModulusTable(deltas, np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.0, 200))]))
        widths = [0.0, 1e-300, np.nan, deltas[-1] * 2, 1e300, np.inf]
        widths += deltas.tolist() + (deltas * (1 - 1e-9)).tolist() + (deltas * (1 + 1e-12)).tolist()
        widths += rng.uniform(0.0, deltas[-1] * 1.1, 2000).tolist()
        for delta in widths:
            if delta == 0:
                want = 0.0
            else:
                idx = int(np.searchsorted(table.deltas, delta * (1 - 1e-9), side="left"))
                want = float(table.values[min(idx, table.deltas.size - 1)])
            got = table.value_at(delta)
            assert type(got) is float
            assert got == want, delta
        assert table.value_at(np.nan) == table.values[-1]

    @pytest.mark.parametrize("steps", [1, 2, 57, 400])
    def test_build_table_matches_the_wrapped_reductions_bitwise(self, steps):
        grid = TimeGrid.uniform(0.0, 2.0, steps)
        samples = np.random.default_rng(steps).uniform(0.0, 3.0, steps + 1) ** 3
        prefix = np.concatenate(
            [[0.0], np.cumsum(0.5 * (samples[:-1] + samples[1:]) * np.diff(grid.nodes))]
        )
        values = np.zeros(steps + 1)
        for j in range(1, steps + 1):
            values[j] = float(np.max(prefix[j:] - prefix[:-j]))
        table = build_modulus_table(grid, samples)
        assert table.values.tobytes() == np.maximum.accumulate(values).tobytes()

    def test_from_windows_is_the_per_width_loop_bitwise(self):
        # The loop the window moduli ran before they shared one scan: each
        # width's largest window (0 when it has none), then a running max
        # from the 0 at width 0, so negative maxima read 0.
        def per_width(n, spread):
            values = np.zeros(n)
            for j in range(1, n):
                window = spread(j)
                values[j] = float(np.max(window)) if window.size else 0.0
            return np.maximum.accumulate(values)

        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 40, 201):
            deltas = 0.01 * np.arange(n)
            rows = rng.normal(0.0, 1.0, (n, 3))
            spreads = {
                "random": lambda j: np.abs(rows[j:] - rows[:-j]),
                "sums": lambda j: rows[j:, 0] - rows[:-j, 0] + 0.5 * rows[j:, 1],
                "empty": lambda j: rows[j:, :0],
                "negative": lambda j: -1.0 - np.abs(rows[j:, 0]),
                "empty-then-random": lambda j: rows[j:, :0] if j % 2 else np.abs(rows[j:, 2]),
            }
            for name, spread in spreads.items():
                table = ModulusTable.from_windows(deltas, spread)
                assert table.deltas.tobytes() == deltas.tobytes(), (n, name)
                assert table.values.tobytes() == per_width(n, spread).tobytes(), (n, name)
        assert not ModulusTable.from_windows(deltas, spreads["negative"]).values.any()

    def test_a_nan_window_reaches_the_finite_check(self):
        # Python's max(best, nan) is best; the table must not drop the NaN.
        deltas = 0.1 * np.arange(5)
        with pytest.raises(ShapeError, match="non-finite"):
            ModulusTable.from_windows(
                deltas, lambda j: np.array([1.0, np.nan]) if j == 3 else np.ones(2)
            )
        # A prefix that overflows gives inf - inf windows.
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ShapeError):
            build_modulus_table(grid, np.array([1e308, 1e308, 1e308, 0.0, 0.0]))


class TestLinfDistance:
    def test_shared_grid(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        a = Trajectory(grid, np.zeros((11, 2)))
        states = np.zeros((11, 2))
        states[4] = [0.3, -0.4]
        b = Trajectory(grid, states)
        assert linf_distance(a, b) == pytest.approx(0.5)

    def test_union_grid_resampling(self):
        # Identical paths sampled on different grids must read as distance 0.
        line = lambda t: np.column_stack([t, 2 * t])  # noqa: E731
        ga = TimeGrid.uniform(0.0, 1.0, 7)
        gb = TimeGrid.uniform(0.0, 1.0, 13)
        a = Trajectory(ga, line(ga.nodes))
        b = Trajectory(gb, line(gb.nodes))
        assert linf_distance(a, b) == pytest.approx(0.0, abs=1e-15)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid.uniform(0.0, 1.0, 12)
        trajs = [Trajectory(grid, rng.normal(size=(13, 2))) for _ in range(3)]
        a, b, c = trajs
        assert linf_distance(a, c) <= linf_distance(a, b) + linf_distance(b, c) + 1e-12


class TestWeightedCost:
    def test_identity_weight_unit_control(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        sig = ControlSignal(grid, np.ones((11, 1)))
        assert weighted_l2_cost(sig) == pytest.approx(1.0)

    def test_linear_time_weight_frozen_value(self):
        # W(t) = (1+t) I, u = 1 on [0, 1]: integral of (1+t) is exactly 3/2.
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        sig = ControlSignal(grid, np.ones((11, 1)))
        weight = lambda t: np.array([[1.0 + t]])  # noqa: E731
        assert weighted_l2_cost(sig, weight) == pytest.approx(1.5, abs=1e-14)

    def test_constant_matrix_weight(self):
        grid = TimeGrid.uniform(0.0, 2.0, 4)
        sig = ControlSignal(grid, np.tile([1.0, 2.0], (5, 1)))
        weight = np.array([[2.0, 0.0], [0.0, 1.0]])
        # u' W u = 2 + 4 = 6 on a span of 2.
        assert weighted_l2_cost(sig, lambda t: weight) == pytest.approx(12.0)

    def test_rejects_indefinite_weight(self):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        sig = ControlSignal(grid, np.ones((3, 1)))
        with pytest.raises(DomainError):
            weighted_l2_cost(sig, lambda t: np.array([[-1.0]]))

    @given(scale=st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_quadratic_scaling(self, scale):
        grid = TimeGrid.uniform(0.0, 1.0, 6)
        rng = np.random.default_rng(3)
        base = rng.normal(size=(7, 2))
        lo = weighted_l2_cost(ControlSignal(grid, base))
        hi = weighted_l2_cost(ControlSignal(grid, scale * base))
        assert hi == pytest.approx(scale**2 * lo, rel=1e-9)


@pytest.mark.float_path
class TestIdentityCostBits:
    """The identity-weight cost runs whole-array; its bits are those of a
    per-cell loop over u @ u, whose dot kernel np.vecdot shares."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_per_cell_loop(self, dim):
        rng = np.random.default_rng(dim)
        for grid in (
            TimeGrid.uniform(0.0, 2.0, 400),
            TimeGrid(np.sort(np.r_[0.0, rng.uniform(0.0, 3.0, 250), 3.0])),
        ):
            values = rng.normal(size=(len(grid), dim)) * rng.uniform(1e-3, 1e3, (len(grid), 1))
            values[::7] = 0.0
            nodes = grid.nodes
            want = 0.0
            for i in range(nodes.size - 1):
                want += (nodes[i + 1] - nodes[i]) * float(values[i] @ values[i])
            got = weighted_l2_cost(ControlSignal(grid, values))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestCsvRoundTrip:
    def test_trajectory_round_trip(self, tmp_path):
        grid = TimeGrid.uniform(0.0, 2.0, 17)
        rng = np.random.default_rng(5)
        traj = Trajectory(grid, rng.normal(size=(18, 3)))
        path = tmp_path / "x_eps.csv"
        save_csv(path, traj)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3"
        loaded = load_trajectory(path)
        assert np.array_equal(loaded.grid.nodes, grid.nodes)
        assert np.array_equal(loaded.states, traj.states)

    def test_control_round_trip(self, tmp_path):
        grid = TimeGrid.uniform(0.0, 1.0, 9)
        sig = ControlSignal(grid, np.linspace(-1, 1, 10)[:, None] / 3.0)
        path = tmp_path / "u_eps.csv"
        save_csv(path, sig)
        assert path.read_text().splitlines()[0] == "t,u1"
        loaded = load_control(path)
        assert np.array_equal(loaded.values, sig.values)

    def test_kind_mixup_rejected(self, tmp_path):
        grid = TimeGrid.uniform(0.0, 1.0, 3)
        save_csv(tmp_path / "u.csv", ControlSignal(grid, np.ones(4)))
        with pytest.raises(ConfigError, match="u.csv: holds control columns, not states"):
            load_trajectory(tmp_path / "u.csv")

    def test_rows_are_the_per_element_format(self, tmp_path):
        grid = TimeGrid(np.sort(np.r_[0.0, np.random.default_rng(2).uniform(0.0, 1.0, 40), 1.0]))
        rng = np.random.default_rng(4)
        scales = 10.0 ** rng.integers(-9, 9, (len(grid), 3))
        traj = Trajectory(grid, rng.normal(size=(len(grid), 3)) * scales)
        save_csv(tmp_path / "x.csv", traj)
        rows = [
            ",".join(format(float(v), ".17g") for v in (t, *row))
            for t, row in zip(grid.nodes, traj.states)
        ]
        assert (tmp_path / "x.csv").read_text() == "\n".join(["t,x1,x2,x3", *rows]) + "\n"

    def test_deterministic_bytes(self, tmp_path):
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        rng = np.random.default_rng(9)
        traj = Trajectory(grid, rng.normal(size=(51, 2)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(p1, traj)
        save_csv(p2, traj)
        assert p1.read_bytes() == p2.read_bytes()
