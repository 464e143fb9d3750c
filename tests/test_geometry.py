import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath import geometry
from tightpath.dynamics import expression_model
from tightpath.errors import ConfigError, DomainError, ExpressionError, ModelEvaluationError
from tightpath.geometry import (
    ConstraintField,
    boundary_points,
    build_boundary_modulus,
    compile_expression,
    dist_to_boundary,
    field_from_config,
    _lattice_counts,
    node_violations,
    unit_ball_complement,
    violation_sup,
)
from tightpath.signals import TimeGrid, Trajectory


def set_distance(field, eps, t, x):
    """Distance from one state to the tightened set, as a one-row query."""
    return float(field._distances(eps, t, np.reshape(x, (1, -1)))[0][0])


def circle_projection_oracle(x, radius, n_angles=200_000):
    # Dense parametrization of the circle, brute-force nearest point.
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    boundary = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return float(np.linalg.norm(boundary - x, axis=1).min())


class TestUnitBallComplement:
    def test_membership_and_margin(self):
        field = unit_ball_complement(dim=1)
        # Inside the tightened set: |x| >= 1 + eps.
        assert field.margin(0.0, np.array([1.3]), eps=0.1) >= 0
        assert field.margin(0.0, np.array([1.05]), eps=0.1) < 0
        assert field.margin(0.0, np.array([1.3]), eps=0.1) == pytest.approx(0.2)
        assert field.margin(0.0, np.array([-1.3]), eps=0.1) == pytest.approx(0.2)

    def test_set_and_boundary_distances(self):
        field = unit_ball_complement(dim=1)
        # Feasible point: set distance 0, boundary distance |x| - (1+eps).
        assert set_distance(field, 0.0, 0.0, np.array([2.0])) == 0.0
        assert dist_to_boundary(field, 0.1, 0.0, np.array([2.0])) == pytest.approx(0.9)
        # Center of the excluded ball: both distances reach the sphere.
        assert set_distance(field, 0.1, 0.0, np.array([0.0])) == pytest.approx(1.1)
        assert dist_to_boundary(field, 0.0, 0.0, np.array([1.0])) == 0.0
        # Infeasible shell point.
        assert set_distance(field, 0.1, 0.0, np.array([0.9])) == pytest.approx(0.2)

    def test_2d_distance_against_projection_oracle(self):
        field = unit_ball_complement(dim=2)
        x = np.array([1.7, 0.4])
        want = circle_projection_oracle(x, 1.1)
        assert dist_to_boundary(field, 0.1, 0.0, x) == pytest.approx(want, abs=1e-4)

    @given(r=st.floats(0.2, 1.9), eps=st.floats(0.0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_margin_is_boundary_distance_inside(self, r, eps):
        field = unit_ball_complement(dim=1)
        x = np.array([r])
        margin = field.margin(0.0, x, eps)
        if margin >= 0:
            assert dist_to_boundary(field, eps, 0.0, x) == pytest.approx(margin, abs=1e-12)
            assert set_distance(field, eps, 0.0, x) == 0.0

    @given(r=st.floats(0.0, 1.9), pair=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)))
    @settings(max_examples=50, deadline=None)
    def test_set_distance_monotone_in_eps(self, r, pair):
        lo, hi = sorted(pair)
        field = unit_ball_complement(dim=1)
        x = np.array([r])
        assert set_distance(field, lo, 0.0, x) <= set_distance(field, hi, 0.0, x) + 1e-12


class TestExpressions:
    def test_matches_builtin(self):
        h = compile_expression("1 - abs(x1)", dim=1)
        field = unit_ball_complement(dim=1)
        for r in (-1.7, -0.2, 0.0, 0.4, 1.05, 1.9):
            assert h(0.3, np.array([r])) == pytest.approx(field.value(0.3, np.array([r])))

    def test_vectorized_and_time_dependent(self):
        h = compile_expression("1 + 0.1 * t - sqrt(x1 * x1 + x2 * x2)", dim=2)
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        got = h(2.0, pts)
        want = 1.2 - np.array([1.0, 2.0, np.sqrt(2.0)])
        assert got == pytest.approx(want)

    def test_whitelisted_functions(self):
        h = compile_expression("sin(t) + cos(x1) + arctan(x1) + pow(x1, 2) / 2", dim=1)
        x = np.array([0.5])
        want = np.sin(1.0) + np.cos(0.5) + np.arctan(0.5) + 0.125
        assert h(1.0, x) == pytest.approx(want)

    @pytest.mark.parametrize(
        "bad",
        [
            "__import__('os').system('true')",
            "x1.real",
            "exp(x1)",
            "x3",
            "[v for v in (1,)][0]",
            "lambda: 1",
            "x1 if t > 0 else 0",
        ],
    )
    def test_rejects_unsafe_or_unknown(self, bad):
        with pytest.raises(ExpressionError):
            compile_expression(bad, dim=2)


class TestNumericDistance:
    def test_1d_matches_analytic(self):
        # Same set, no analytic hook: the lattice fallback must agree.
        numeric = ConstraintField(
            components=(compile_expression("1 - abs(x1)", dim=1),),
            sampling_box=np.array([[-2.0, 2.0]]),
        )
        analytic = unit_ball_complement(dim=1)
        res = numeric.resolution
        for r in (1.8, 1.2, 1.11, 0.3, -1.5):
            x = np.array([r])
            assert abs(
                dist_to_boundary(numeric, 0.1, 0.0, x) - dist_to_boundary(analytic, 0.1, 0.0, x)
            ) <= 2 * res
            assert abs(
                set_distance(numeric, 0.1, 0.0, x) - set_distance(analytic, 0.1, 0.0, x)
            ) <= 2 * res

    def test_2d_against_projection_oracle(self):
        numeric = ConstraintField(
            components=(compile_expression("1 - sqrt(x1 * x1 + x2 * x2)", dim=2),),
            sampling_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        )
        rng = np.random.default_rng(42)
        res = numeric.resolution
        probes = rng.uniform(-1.9, 1.9, size=(50, 2))
        for x in probes:
            got = dist_to_boundary(numeric, 0.05, 0.0, x)
            want = circle_projection_oracle(x, 1.05, n_angles=40_000)
            assert abs(got - want) <= 2 * res

    def test_halfplane_frozen_value(self):
        # h = x1 + x2 - 0.5 <= -eps keeps x1 + x2 <= 0.3; from (1, 1) the
        # distance to that halfplane is (2 - 0.3) / sqrt(2).
        halfplane = ConstraintField(
            components=(compile_expression("x1 + x2 - 0.5", dim=2),),
            sampling_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        )
        got = set_distance(halfplane, 0.2, 0.0, np.array([1.0, 1.0]))
        assert got == pytest.approx(1.7 / np.sqrt(2.0), abs=2 * halfplane.resolution)

    def test_two_component_slab(self):
        # max(x - 1, -x - 1) + eps <= 0 keeps |x| <= 1 - eps.
        slab = ConstraintField(
            components=(
                compile_expression("x1 - 1", dim=1),
                compile_expression("0 - x1 - 1", dim=1),
            ),
            sampling_box=np.array([[-2.0, 2.0]]),
        )
        assert slab.margin(0.0, np.array([0.85]), eps=0.1) >= 0
        assert slab.margin(0.0, np.array([0.95]), eps=0.1) < 0
        got = dist_to_boundary(slab, 0.1, 0.0, np.array([0.0]))
        assert abs(got - 0.9) <= 2 * slab.resolution

    def test_boundary_points_on_sphere(self):
        numeric = ConstraintField(
            components=(compile_expression("1 - sqrt(x1 * x1 + x2 * x2)", dim=2),),
            sampling_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        )
        pts = boundary_points(numeric, 0.0, eps=0.2)
        radii = np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(radii - 1.2) <= 2 * numeric.resolution)

    def test_all_feasible_box_has_far_boundary(self):
        # Feasible everywhere in the box: set distance 0, boundary out of
        # reach.
        always = ConstraintField(
            components=(compile_expression("0 - 10 - x1 * 0", dim=1),),
            sampling_box=np.array([[-2.0, 2.0]]),
        )
        assert set_distance(always, 0.1, 0.0, np.array([0.5])) == 0.0
        assert dist_to_boundary(always, 0.1, 0.0, np.array([0.5])) == np.inf

    def test_empty_boundary_raises(self):
        field = unit_ball_complement(dim=1)
        with pytest.raises(DomainError):
            boundary_points(field, 0.0, eps=5.0)


def reference_boundary_points(field, t, eps):
    """Reference lattice scan: a fresh meshgrid per call and boolean
    indexing of full mesh copies."""
    axes = [
        np.linspace(lo, hi, max(int(np.ceil((hi - lo) / field.resolution)) + 1, 2))
        for lo, hi in field.sampling_box
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    values = field.value(t, flat).reshape(mesh[0].shape) + eps
    dim = len(axes)
    crossings = []
    for a in range(dim):
        lo_slice = [slice(None)] * dim
        hi_slice = [slice(None)] * dim
        lo_slice[a] = slice(0, -1)
        hi_slice[a] = slice(1, None)
        f_lo = values[tuple(lo_slice)]
        f_hi = values[tuple(hi_slice)]
        mask = ((f_lo <= 0) & (f_hi > 0)) | ((f_lo > 0) & (f_hi <= 0))
        if not mask.any():
            continue
        frac = f_lo[mask] / (f_lo[mask] - f_hi[mask])
        pts = np.stack([m[tuple(lo_slice)][mask] for m in mesh], axis=-1)
        pts[:, a] += frac * (axes[a][1] - axes[a][0])
        crossings.append(pts)
    if not crossings:
        raise DomainError("no crossings")
    return np.concatenate(crossings, axis=0)


# (components, box, resolution): every case is scanned at several t and eps.
SCAN_CASES = {
    "moving-disk": (["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"], [[-2.0, 2.0], [-2.0, 2.0]], 0.025),
    "1d-default": (["1 - abs(x1) + 0.2*t"], [[-2.0, 2.0]], 0.0),
    "3d-ball": (["1 - sqrt(x1*x1 + x2*x2 + x3*x3)"], [[-2.0, 2.0], [-1.5, 2.0], [-2.0, 1.1]], 0.1),
    # NaN outside the unit disk, positive just inside its rim: an edge with
    # a NaN end must never count as a crossing.
    "nan-region-2d": (["0.5 - sqrt(1 - x1*x1 - x2*x2)"], [[-2.0, 2.0], [-2.0, 2.0]], 0.05),
    "nan-region-1d": (["0.5 - sqrt(x1) + 0*t"], [[-1.0, 2.0]], 0.0),
    "two-components": (["x1 + x2 - 0.5", "x1*x1 - x2 - 1"], [[-2.0, 2.0], [-2.0, 2.0]], 0.04),
    "slab": (["x1 - 1", "0 - x1 - 1"], [[-2.0, 2.0]], 0.0),
    "all-feasible": (["0 - 10 - x1*0"], [[-2.0, 2.0]], 0.0),
    "all-infeasible": (["10 + 0*x1 + 0*x2"], [[-2.0, 2.0], [-2.0, 2.0]], 0.1),
}


class TestLatticeScan:
    """The scan over the field's cached lattice against the reference scan."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_matches_reference_bitwise(self, case):
        components, box, resolution = SCAN_CASES[case]
        field = field_from_config(
            {
                "components": components,
                "box": box,
                "resolution": resolution,
                "time_varying": True,
            }
        )
        for t in (0.0, 0.7, 2.0):
            for eps in (0.0, 0.003125, 0.05, 0.4):
                try:
                    want = reference_boundary_points(field, t, eps)
                except DomainError:
                    with pytest.raises(DomainError):
                        boundary_points(field, t, eps)
                    continue
                got = boundary_points(field, t, eps)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (t, eps)
                if case.startswith("nan-region"):
                    assert np.isfinite(got).all()

    def test_lattice_is_built_once(self):
        field = field_from_config(MOVING_DISK)
        boundary_points(field, 0.0, 0.05)
        lattice = field._lattice
        boundary_points(field, 1.0, 0.1)
        assert field._lattice is lattice
        assert lattice[1].shape == (161 * 161, 2) and lattice[2] == (161, 161)

    def test_boundary_cloud_is_the_scan(self):
        field = field_from_config(MOVING_DISK)
        cloud = field.boundary_cloud(0.7, 0.05)
        assert cloud.tobytes() == reference_boundary_points(field, 0.7, 0.05).tobytes()
        wide = field_from_config(WIDE_SLAB)
        assert wide.boundary_cloud(0.0, 0.05).shape == (0, 2)


def kd_trees(field) -> int:
    """Cache entries that hold a KD-tree rather than a scan or a marker."""
    return sum(hasattr(entry, "query") for entry in field._tree_cache.values())


class TestTreeCache:
    """A cache entry holds its key's scan until the first distance query
    builds a KD-tree over it."""

    def test_cloud_is_the_scan_before_and_after_the_first_query(self):
        field = field_from_config(MOVING_DISK)
        want = reference_boundary_points(field, 0.7, 0.05).tobytes()
        assert field.boundary_cloud(0.7, 0.05).tobytes() == want
        assert kd_trees(field) == 0
        field._distances(0.05, 0.7, np.array([[0.3, 0.2]]))
        assert kd_trees(field) == 1 and len(field._tree_cache) == 1
        assert field.boundary_cloud(0.7, 0.05).tobytes() == want

    def test_distances_after_clouds_match_a_fresh_field(self):
        clouds, fresh = field_from_config(MOVING_DISK), field_from_config(MOVING_DISK)
        times = np.array([0.0, 0.7, 0.7, 1.4])
        for t in np.unique(times):
            clouds.boundary_cloud(float(t), 0.05)
        points = np.array([[0.3, 0.2], [1.5, -0.4], [-1.1, 0.0], [0.9, 0.9]])
        for t in (0.7, times):
            got, want = clouds._distances(0.05, t, points), fresh._distances(0.05, t, points)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_an_analytic_field_builds_no_tree(self):
        field = unit_ball_complement(dim=2)
        cloud = field.boundary_cloud(0.0, 0.05)
        assert len(cloud) and len(field._tree_cache) == 1 and kd_trees(field) == 0
        field._distances(0.05, 0.0, cloud[:3])
        assert kd_trees(field) == 0

    def test_a_key_counts_once_against_the_bound(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_TREE_CACHE", 3)
        field = field_from_config(MOVING_DISK)
        for t in (0.0, 0.5, 1.0):
            field.boundary_cloud(t, 0.05)
        keys = list(field._tree_cache)
        field._distances(0.05, 0.0, np.array([[0.3, 0.2]]))
        # The upgrade keeps the key and its place in the FIFO order.
        assert list(field._tree_cache) == keys and kd_trees(field) == 1
        field.boundary_cloud(1.5, 0.05)
        assert list(field._tree_cache) == keys[1:] + [(1.5, 0.05, field.resolution)]
        assert kd_trees(field) == 0


class TestViolationSup:
    def test_feasible_trajectory_scores_zero(self):
        field = unit_ball_complement(dim=1)
        grid = TimeGrid.uniform(0.0, 2.0, 40)
        traj = Trajectory(grid, np.full((41, 1), 1.5))
        assert violation_sup(field, 0.1, traj) == 0.0

    def test_constant_graze_scores_eps(self):
        field = unit_ball_complement(dim=1)
        grid = TimeGrid.uniform(0.0, 2.0, 40)
        traj = Trajectory(grid, np.ones((41, 1)))
        assert violation_sup(field, 0.05, traj) == pytest.approx(0.05)

    def test_window_restriction_and_refinement(self):
        field = unit_ball_complement(dim=1)
        coarse = TimeGrid.uniform(0.0, 2.0, 100)
        fine = TimeGrid.uniform(0.0, 2.0, 1000)
        path = lambda t: 1.2 - 0.3 * np.sin(np.pi * t)  # noqa: E731
        t_c = Trajectory(coarse, path(coarse.nodes)[:, None])
        t_f = Trajectory(fine, path(fine.nodes)[:, None])
        # The window [0, 1] is a prefix of each node vector, [1, 2] a suffix.
        first_half = [int(np.searchsorted(g.nodes, 1.0 + 1e-12)) for g in (coarse, fine)]
        got = float(node_violations(field, 0.05, t_c)[: first_half[0]].max())
        want = float(node_violations(field, 0.05, t_f)[: first_half[1]].max())
        # Coarse and fine sups differ by at most one grid cell's variation.
        cell_var = 0.3 * np.pi * coarse.step
        assert abs(got - want) <= cell_var
        second_half = int(np.searchsorted(coarse.nodes, 1.0 - 1e-12))
        assert float(node_violations(field, 0.05, t_c, start=second_half).max()) == 0.0


MOVING_DISK = {
    "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
    "box": [[-2.0, 2.0], [-2.0, 2.0]],
    "time_varying": True,
    "resolution": 0.025,
}
DISK = "1 - sqrt(x1*x1 + x2*x2)"
# Radius 1 - 2t: after t = 0.5 the whole box is feasible and the lattice
# oracle has no boundary to query.
SHRINKING_DISK = dict(MOVING_DISK, components=["1 - 2*t - sqrt(x1*x1 + x2*x2)"])
# |x1| <= 3 + t holds on the whole box at every time, but not at every state.
WIDE_SLAB = dict(MOVING_DISK, components=["abs(x1) - 3 - t"])


def per_row_batch(n):
    """n times with repeats, states near the moving unit circle, and three
    states outside the sampling box."""
    rng = np.random.default_rng(5)
    times = rng.choice(np.linspace(0.0, 1.0, 7), size=n)
    angles = rng.uniform(0.0, 2 * np.pi, size=n)
    radii = 1.0 + rng.uniform(-0.2, 0.2, size=n)
    states = np.column_stack([0.1 * times + radii * np.cos(angles), radii * np.sin(angles)])
    far = np.array([[4.5, 0.0], [-4.2, 1.0], [0.0, 5.0]])
    return np.concatenate([times, [1.0, 0.0, 0.5]]), np.vstack([states, far])


class TestPerRowTimes:
    """One call with one time per row against the per-node loop it replaces."""

    @pytest.mark.parametrize("config", [MOVING_DISK, SHRINKING_DISK, WIDE_SLAB])
    def test_margin_and_distances_match_per_node_loop(self, config):
        field = field_from_config(config)
        times, states = per_row_batch(240)
        for eps in (0.0, 0.05, 0.003125):
            margins = field.margin(times, states, eps)
            d_set, d_bdry = field._distances(eps, times, states)
            for i, t in enumerate(times):
                row = states[i : i + 1]
                assert margins[i].tobytes() == field.margin(float(t), row, eps).tobytes()
                want_set, want_bdry = field._distances(eps, float(t), row)
                assert d_set[i].tobytes() == want_set[0].tobytes()
                assert d_bdry[i].tobytes() == want_bdry[0].tobytes()
        if config is SHRINKING_DISK:
            late = times > 0.5
            assert late.any() and np.all(d_bdry[late] == np.inf) and np.all(d_set[late] == 0.0)
        if config is WIDE_SLAB:
            # No boundary in the box: every set distance reads 0, even at
            # the infeasible state outside it.
            assert margins[-3] < 0 and np.all(d_set == 0.0) and np.all(d_bdry == np.inf)

    def test_single_state_margin_equals_batched_bitwise(self):
        # A single (dim,) state goes through the batched evaluation, so the
        # interior-start check agrees with every batched check.
        field = field_from_config(MOVING_DISK)
        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 2.0, size=20_000)
        states = rng.uniform(-2.0, 2.0, size=(20_000, 2))
        batched = field.margin(times, states, 0.05)
        single = np.array([field.margin(float(t), x, 0.05) for t, x in zip(times, states)])
        assert single.tobytes() == batched.tobytes()
        assert isinstance(field.margin(0.0, states[0], 0.05), float)

    def test_violation_sup_matches_per_node_loop(self):
        field = field_from_config(MOVING_DISK)
        grid = TimeGrid.uniform(0.0, 2.0, 60)
        t = grid.nodes
        traj = Trajectory(grid, np.column_stack([-1.5 + 1.5 * t, np.full(t.size, 1.0005)]))
        for eps in (0.05, 0.025, 0.0125, 0.00625):
            want = max(
                float(field._distances(eps, float(s), x.reshape(1, -1))[0][0])
                for s, x in zip(t, traj.states)
            )
            assert violation_sup(field, eps, traj) == want
        assert want > 0

    def test_a_time_pole_raises_for_per_row_times_as_for_a_float_time(self):
        # 0*t**-0.5 is NaN for a numpy t = 0 but raises for a float t = 0;
        # a row at t = 0 must raise in a batch too, not come back NaN.
        field = field_from_config(
            dict(MOVING_DISK, components=["1 - sqrt(x1*x1 + x2*x2) + 0*t**-0.5"])
        )
        x = np.array([[0.3, 0.2], [0.3, 0.2]])
        with pytest.raises(ModelEvaluationError, match="t=0.0"):
            field.margin(0.0, x, 0.05)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ModelEvaluationError, match="t=0.0"):
                field.margin(np.array([0.0, 0.5]), x, 0.05)
            with pytest.raises(ModelEvaluationError, match="t=0.0"):
                field.margin(np.float64(0.0), x, 0.05)
        margins = field.margin(np.array([0.25, 0.5]), x, 0.05)
        assert margins.tobytes() == field.margin(0.25, x, 0.05).tobytes()

    @pytest.mark.parametrize("pole", ["0*t**-0.5", "0/(t - 0.0)", "x1*t**-1"])
    def test_a_time_pole_raises_without_numpy_warnings(self, pole):
        # The vectorised pass over numpy times is silent; the float-time
        # re-evaluation raises. A NaN region of x still warns.
        field = field_from_config(
            dict(MOVING_DISK, components=[f"1 - sqrt(x1*x1 + x2*x2) + {pole}"])
        )
        x = np.array([[0.3, 0.2], [0.3, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelEvaluationError, match="t=0.0"):
                field.margin(np.array([0.0, 0.5]), x, 0.05)
        field = field_from_config(dict(MOVING_DISK, components=["sqrt(x1) - 1 + 0.1*t"]))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            field.margin(np.array([0.0, 0.5]), np.array([[-1.0, 0.0], [0.25, 0.0]]), 0.05)

    def test_a_time_pole_mapped_to_a_finite_value_raises_as_for_a_float_time(self):
        # x1/(1 + t**-1) is 0 for a numpy t = 0 but raises for a float t = 0.
        field = field_from_config(
            dict(MOVING_DISK, components=["1 - sqrt(x1*x1 + x2*x2) + x1/(1 + t**-1)"])
        )
        x = np.array([[0.3, 0.2], [0.4, -0.1], [0.3, 0.2]])
        for t in (0.0, np.float64(0.0), np.array([0.5, 0.0, 0.25])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ModelEvaluationError, match="t=0.0"):
                    field.margin(t, x, 0.05)
        times = np.array([0.5, 0.25, 0.5])
        want = [field.margin(float(s), row, 0.05) for s, row in zip(times, x)]
        assert field.margin(times, x, 0.05).tolist() == want

    def test_nan_regions_of_x_stay_nan_for_per_row_times(self):
        field = field_from_config(dict(MOVING_DISK, components=["sqrt(x1) - 1 + 0.1*t"]))
        x = np.array([[-1.0, 0.0], [0.25, 0.0], [-0.5, 1.0]])
        with np.errstate(invalid="ignore"):
            margins = field.margin(np.array([0.0, 0.5, 1.0]), x, 0.05)
        assert np.isnan(margins[[0, 2]]).all()
        assert margins[1] == pytest.approx(0.5 - 0.05 - 0.05)

    def test_static_field_evaluates_at_the_first_time(self):
        # A static field ignores time, so per-row times collapse to one.
        for field in (
            unit_ball_complement(dim=2),
            field_from_config(dict(MOVING_DISK, components=[DISK], time_varying=False)),
        ):
            times, states = per_row_batch(50)
            want = field._distances(0.05, float(times[0]), states)
            got = field._distances(0.05, times, states)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert field.margin(times, states, 0.05).tobytes() == field.margin(
                float(times[0]), states, 0.05
            ).tobytes()


class TestBoundaryModulus:
    def test_static_field_is_zero(self):
        field = unit_ball_complement(dim=1)
        grid = TimeGrid.uniform(0.0, 2.0, 40)
        table = build_boundary_modulus(field, grid, eps_list=[0.1])
        assert table.value_at(1.3) == 0.0

    def test_drifting_ball_linear_modulus(self):
        # Boundary radius grows as 1 + eps + 0.1 t: a fixed probe's
        # boundary distance drifts at rate 0.1, so the modulus is 0.1 * delta.
        field = ConstraintField(
            components=(compile_expression("1 + 0.1 * t - abs(x1)", dim=1),),
            sampling_box=np.array([[-3.0, 3.0]]),
            time_varying=True,
        )
        grid = TimeGrid.uniform(0.0, 1.0, 20)
        table = build_boundary_modulus(field, grid, eps_list=[0.1])
        slack = 4 * field.resolution
        assert table.value_at(0.2) == pytest.approx(0.02, abs=slack)
        assert table.value_at(0.5) == pytest.approx(0.05, abs=slack)


class TestFieldConfig:
    def test_builtin_config(self):
        field = field_from_config({"builtin": "unit_ball_complement", "dim": 2})
        assert field.dim == 2
        assert field.analytic_distance is not None

    def test_expression_config(self):
        field = field_from_config(
            {
                "components": ["1 - abs(x1)"],
                "box": [[-2.0, 2.0]],
                "time_varying": False,
            }
        )
        assert field.dim == 1
        assert field.value(0.0, np.array([1.4])) == pytest.approx(-0.4)

    def test_absent_or_zero_resolution_keeps_the_default(self):
        disk = {"components": [DISK], "box": [[-2.0, 2.0], [-2.0, 3.0]]}
        assert field_from_config(disk).resolution == 5.0 / 1024
        assert field_from_config({**disk, "resolution": 0}).resolution == 5.0 / 1024

    def test_lattice_is_bounded_before_it_is_built(self):
        # A direct field skips the config check: its first scan must refuse
        # the lattice with a named error before allocating anything.
        field = ConstraintField(
            components=(compile_expression(DISK, 2),),
            sampling_box=np.array([[-2.0, 1e308], [-2.0, 2.0]]),
            resolution=0.05,
        )
        with pytest.raises(DomainError, match="scan lattice"):
            boundary_points(field, 0.0, 0.1)
        assert field._lattice is None
        assert _lattice_counts(np.array([[-2.0, 2.0], [-2.0, 2.0]]), 0.025) == [161, 161]

    def test_unknown_builtin(self):
        with pytest.raises(DomainError):
            field_from_config({"builtin": "halfspace"})

    def test_reads_t_is_the_rule_of_model_autonomy(self):
        for expr in ("1 - x1", "sqrt(x1) - t", "cos(t)*x1", "pow(x1, 2)", "t", "1 - 2*x1"):
            static_ok = True
            try:
                field_from_config({"components": [expr], "box": [[0.0, 2.0]]})
            except ConfigError:
                static_ok = False
            autonomous = expression_model([expr], 1, 1).shift_hook is not None
            assert static_ok == autonomous, expr
