import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath import geometry
from tightpath.dynamics import expression_model
from tightpath.errors import (
    ConfigError,
    DomainError,
    ExpressionError,
    InfeasibleTighteningError,
    ModelEvaluationError,
)
from tightpath.geometry import (
    ConstraintField,
    boundary_points,
    build_boundary_modulus,
    compile_expression,
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


def dist_to_boundary(field, eps, t, x):
    """Distance from one state to the tightened boundary, as a one-row query."""
    return float(field._distances(eps, t, np.reshape(x, (1, -1)))[1][0])


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

    def test_empty_boundary_is_an_empty_cloud(self):
        field = unit_ball_complement(dim=1)
        assert boundary_points(field, 0.0, eps=5.0).shape == (0, 1)


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
        return np.empty((0, dim))
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
                want = reference_boundary_points(field, t, eps)
                got = boundary_points(field, t, eps)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (t, eps)
                if case.startswith("all-"):
                    assert got.shape == (0, field.dim)
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


class TestTreeCache:
    """A lattice key caches one thing, the KD-tree over its whole scan,
    built at its first use; an analytic field caches nothing."""

    def test_cloud_is_the_scan_before_and_after_the_first_query(self):
        field = field_from_config(MOVING_DISK)
        want = reference_boundary_points(field, 0.7, 0.05).tobytes()
        assert field.boundary_cloud(0.7, 0.05).tobytes() == want
        assert list(field._tree_cache) == [(0.7, 0.05, field.resolution)]
        field._distances(0.05, 0.7, np.array([[0.3, 0.2], [1.5, -0.4]]))
        assert len(field._tree_cache) == 1
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
        assert len(cloud) and field._tree_cache == {}
        assert field.boundary_cloud(0.0, 0.05).tobytes() == cloud.tobytes()
        field._distances(0.05, 0.0, cloud[:3])
        assert field._tree_cache == {}

    def test_a_key_counts_once_against_the_bound(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_TREE_CACHE", 3)
        field = field_from_config(MOVING_DISK)
        for t in (0.0, 0.5, 1.0):
            field.boundary_cloud(t, 0.05)
        keys = list(field._tree_cache)
        trees = list(field._tree_cache.values())
        field._distances(0.05, 0.0, np.array([[0.3, 0.2], [1.5, -0.4]]))
        # A query at a cached key reads its tree and keeps its FIFO place.
        assert list(field._tree_cache) == keys and list(field._tree_cache.values()) == trees
        field.boundary_cloud(1.5, 0.05)
        assert list(field._tree_cache) == keys[1:] + [(1.5, 0.05, field.resolution)]


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


def full_tree_distance(field, eps, t, x) -> float:
    """Boundary distance of x from a KD-tree over the reference scan of the
    whole lattice."""
    from scipy.spatial import cKDTree

    tree = cKDTree(reference_boundary_points(field, t, eps))
    return float(tree.query(np.reshape(x, (1, -1)))[0][0])


def recorded_scans(monkeypatch) -> list:
    """Record every boundary_points call as (t, nodes): nodes is None for a
    whole scan and one slice per axis for a window."""
    scans = []
    scan = geometry.boundary_points

    def counted(field, t, eps, nodes=None):
        scans.append((t, nodes))
        return scan(field, t, eps, nodes)

    monkeypatch.setattr(geometry, "boundary_points", counted)
    return scans


WITHIN_CASES = {
    name: SCAN_CASES[name]
    for name in ("moving-disk", "3d-ball", "two-components", "nan-region-2d")
}
WITHIN_CASES["static-disk"] = ([DISK], [[-2.0, 2.0], [-2.0, 2.0]], 0.025)


class TestBoundaryWithin:
    """The window predicate against a KD-tree over the whole lattice."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(WITHIN_CASES))
    def test_matches_a_full_tree_bitwise(self, case):
        components, box, resolution = WITHIN_CASES[case]
        field = field_from_config({"components": components, "box": box, "resolution": resolution})
        box = np.asarray(box)
        edge = float((box[:, 1] - box[:, 0]).max())
        rng = np.random.default_rng(7)
        for t, eps in ((0.0, 0.05), (0.7, 0.003125)):
            crossings = reference_boundary_points(field, t, eps)
            near = crossings[rng.choice(len(crossings), 10)]
            near = near + rng.normal(scale=0.1, size=near.shape)
            # Some of these fall outside the box, and the last far outside.
            spread = rng.uniform(box[:, 0] - 0.5, box[:, 1] + 0.5, size=(10, len(box)))
            far = box[:, 1] + 3.0
            for x in np.vstack([near, spread, far]):
                d = full_tree_distance(field, eps, t, x)
                for r in (0.2, d, np.nextafter(d, -np.inf), 2.0 * edge):
                    field._tree_cache.clear()
                    got = field.boundary_within(eps, t, x, r)
                    assert got is bool(d <= r), (t, eps, x, r, d)
            # A cached tree answers the same. A one-point query would read
            # windows, so two points build it.
            field._tree_cache.clear()
            field._distances(eps, t, crossings[:2])
            assert len(field._tree_cache) == 1
            for x in np.vstack([near, spread]):
                d = full_tree_distance(field, eps, t, x)
                for r in (0.2, d, np.nextafter(d, -np.inf)):
                    assert field.boundary_within(eps, t, x, r) is bool(d <= r)
            assert len(field._tree_cache) == 1

    def test_a_near_state_scans_only_its_window(self, monkeypatch):
        field = field_from_config(MOVING_DISK)
        scans = recorded_scans(monkeypatch)
        assert field.boundary_within(0.05, 0.7, np.array([0.07, 1.1]), 0.2)
        assert not field.boundary_within(0.05, 0.7, np.array([1.9, -1.9]), 0.2)
        # Neither answer took the full scan, and neither built a tree.
        windows = [nodes for _, nodes in scans]
        assert len(windows) == 2 and None not in windows and field._tree_cache == {}
        for nodes in windows:
            assert all(part.stop - part.start <= 21 for part in nodes)

    def test_an_infeasible_window_falls_back_to_distances(self, monkeypatch):
        # No crossing and no feasible node within 0.2 of the disk's centre:
        # the windows grow from there until one holds the boundary, 1.05
        # away, and no tree is built.
        field = field_from_config(MOVING_DISK)
        scans = recorded_scans(monkeypatch)
        assert not field.boundary_within(0.05, 0.0, np.array([0.0, 0.0]), 0.2)
        assert len(scans) > 2 and all(nodes is not None for _, nodes in scans)
        assert field._tree_cache == {}
        # In an all-infeasible box the windows grow to the whole scan.
        blocked = field_from_config(dict(MOVING_DISK, components=SCAN_CASES["all-infeasible"][0]))
        scans.clear()
        with pytest.raises(InfeasibleTighteningError):
            blocked.boundary_within(0.05, 0.0, np.array([0.3, 0.2]), 0.2)
        assert scans[-1] == (0.0, None)

    def test_an_infeasible_window_resumes_growth_at_its_reach(self, monkeypatch):
        # Within 0.2 of the disk's centre there is neither a crossing nor a
        # feasible node. The growth resumes at reach 0.4 and doubles to 0.8,
        # whose window holds the boundary 1.05 away, then rescans at that
        # distance: four windows, where a restart at four spacings took six.
        field = field_from_config(MOVING_DISK)
        states = np.array([[0.0, 0.0], [0.1, -0.2]])
        distances = [full_tree_distance(field, 0.05, 0.0, x) for x in states]
        scans = recorded_scans(monkeypatch)
        assert not field.boundary_within(0.05, 0.0, states[0], 0.2)
        sizes = [tuple(part.stop - part.start for part in nodes) for _, nodes in scans]
        assert sizes == [(19, 19), (35, 35), (68, 68), (87, 87)]
        assert field._tree_cache == {}
        for x, d in zip(states, distances):
            for r in (0.2, 0.5, np.nextafter(d, -np.inf), d):
                assert field.boundary_within(0.05, 0.0, x, r) is bool(d <= r), (x, r)
        assert field._tree_cache == {}

    def test_analytic_field_answers_from_its_hook(self):
        field = unit_ball_complement(dim=2)
        x = np.array([1.5, 0.0])
        d = dist_to_boundary(field, 0.1, 0.0, x)
        assert d == pytest.approx(0.4) and field.boundary_within(0.1, 0.0, x, d)
        assert not field.boundary_within(0.1, 0.0, x, np.nextafter(d, 0.0))
        assert field._tree_cache == {}


class TestLoneDistances:
    """A lone _distances row reads lattice windows at a key without a tree
    and the tree at a key with one, with bitwise a whole-lattice tree's
    answer either way."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(WITHIN_CASES))
    def test_matches_a_whole_lattice_tree_bitwise(self, monkeypatch, case):
        from scipy.spatial import cKDTree

        components, box, resolution = WITHIN_CASES[case]
        field = field_from_config({"components": components, "box": box, "resolution": resolution})
        box = np.asarray(box)
        rng = np.random.default_rng(11)
        scans = recorded_scans(monkeypatch)
        for t, eps in ((0.0, 0.05), (0.7, 0.003125)):
            crossings = reference_boundary_points(field, t, eps)
            whole = cKDTree(crossings)
            near = crossings[rng.choice(len(crossings), 10)]
            near = near + rng.normal(scale=0.1, size=near.shape)
            spread = rng.uniform(box[:, 0] - 0.5, box[:, 1] + 0.5, size=(10, len(box)))
            states = np.vstack([near, spread, box[:, 1] + 3.0])
            d_bdry = whole.query(states)[0]
            inside = np.isinf(d_bdry) | (field.margin(t, states, eps) >= 0)
            d_set = np.where(inside, 0.0, d_bdry)
            for cached in (False, True):
                field._tree_cache.clear()
                if cached:
                    field._distances(eps, t, crossings[:2])
                scans.clear()
                for i, x in enumerate(states):
                    got = field._distances(eps, t, x[None, :])
                    assert got[0].tobytes() == d_set[i : i + 1].tobytes(), (t, eps, x, cached)
                    assert got[1].tobytes() == d_bdry[i : i + 1].tobytes(), (t, eps, x, cached)
                    if not cached and i < len(near):
                        # A state near the boundary never grows to the whole scan.
                        assert field._tree_cache == {}
                if cached:
                    assert scans == [] and len(field._tree_cache) == 1


def lazy_trajectory():
    """A trajectory on [0, 2] whose states sit near the unit circle, some
    feasible and some not, with a few outside the sampling box."""
    rng = np.random.default_rng(3)
    grid = TimeGrid.uniform(0.0, 2.0, 120)
    angles = rng.uniform(0.0, 2 * np.pi, size=121)
    radii = 1.0 + rng.uniform(-0.3, 0.3, size=121)
    states = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    states[::17] *= 2.5
    return Trajectory(grid, states)


class TestLazyNodeViolations:
    """node_violations asks the oracle only at rows whose margin is not
    >= 0, with bitwise the entries of the full query."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "config",
        [
            MOVING_DISK,
            WIDE_SLAB,
            SHRINKING_DISK,
            dict(MOVING_DISK, components=SCAN_CASES["nan-region-2d"][0]),
        ],
        ids=["moving-disk", "wide-slab", "shrinking-disk", "nan-region"],
    )
    def test_matches_the_full_query_bitwise(self, config):
        # The NaN region's trajectory has NaN-margin rows, which are queried.
        traj = lazy_trajectory()
        lazy, full = field_from_config(config), field_from_config(config)
        for eps in (0.0, 0.05):
            for start in (0, 50, len(traj.grid) - 1):
                got = node_violations(lazy, eps, traj, start=start)
                want = full._distances(eps, traj.grid.nodes[start:], traj.states[start:])[0]
                assert got.tobytes() == want.tobytes(), (eps, start)

    def test_all_feasible_box_scans_nothing(self):
        field = field_from_config(WIDE_SLAB)
        grid = TimeGrid.uniform(0.0, 2.0, 40)
        traj = Trajectory(grid, np.column_stack([np.linspace(-1.9, 1.9, 41), np.zeros(41)]))
        got = node_violations(field, 0.05, traj)
        assert got.tobytes() == np.zeros(41).tobytes() and field._tree_cache == {}

    def test_all_infeasible_box_raises_as_before(self):
        config = dict(MOVING_DISK, components=SCAN_CASES["all-infeasible"][0])
        traj = lazy_trajectory()
        x = np.array([0.3, 0.2])
        for query in (
            lambda field: node_violations(field, 0.05, traj),
            lambda field: field._distances(0.05, traj.grid.nodes, traj.states),
            lambda field: field._distances(0.05, 0.7, traj.states),
            lambda field: field.boundary_within(0.05, 0.7, x, 0.2),
            lambda field: field.boundary_cloud(0.7, 0.05),
        ):
            with pytest.raises(InfeasibleTighteningError):
                query(field_from_config(config))


MOVING_BALL = {
    "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2*x2 + x3*x3)"],
    "box": [[-2.0, 2.0], [-1.5, 2.0], [-2.0, 1.1]],
    "resolution": 0.05,
}
MOVING_TWO_COMPONENTS = dict(
    MOVING_DISK, components=["x1 + x2 - 0.5 + 0.1*t", "x1*x1 - x2 - 1"], resolution=0.04
)


def one_row_per_time(field, eps, deep, n=41):
    """States at n distinct times on [0, 2], each near a crossing of its own
    time's tightened boundary, ending with the state ``deep`` far from it."""
    rng = np.random.default_rng(17)
    times = np.linspace(0.0, 2.0, n)
    states = []
    for t in times[:-1]:
        crossings = reference_boundary_points(field, t, eps)
        near = crossings[rng.integers(len(crossings))]
        states.append(near + rng.normal(scale=0.08, size=field.dim))
    return Trajectory(TimeGrid(times), np.vstack(states + [deep]))


class TestWindowedNodeViolations:
    """An infeasible row alone at its key reads a lattice window around its
    state, with bitwise the entry of the whole scan's KD-tree."""

    @pytest.mark.parametrize(
        "config, deep",
        [
            (MOVING_DISK, [0.2, 0.0]),
            (MOVING_BALL, [0.2, 0.0, 0.0]),
            (MOVING_TWO_COMPONENTS, [1.9, 1.9]),
        ],
        ids=["moving-disk", "moving-ball", "two-components"],
    )
    def test_matches_the_whole_scan_bitwise(self, monkeypatch, config, deep):
        windowed, whole = field_from_config(config), field_from_config(config)
        traj = one_row_per_time(whole, 0.05, np.array(deep))
        scans = recorded_scans(monkeypatch)
        for eps in (0.05, 0.003125):
            for start in (0, len(traj.grid) - 1):
                want = whole._distances(eps, traj.grid.nodes[start:], traj.states[start:])[0]
                scans.clear()
                got = node_violations(windowed, eps, traj, start=start)
                assert got.tobytes() == want.tobytes(), (eps, start)
                assert np.count_nonzero(got) > 0 and windowed._tree_cache == {}
                assert all(nodes is not None for _, nodes in scans)
            # The deep state is far from every crossing: its reach grew at
            # least twice before the window held one.
            assert len(scans) >= 3, scans

    def test_a_key_with_a_cached_tree_reads_the_tree(self, monkeypatch):
        field, fresh = field_from_config(MOVING_DISK), field_from_config(MOVING_DISK)
        traj = one_row_per_time(fresh, 0.05, np.array([0.2, 0.0]))
        infeasible = np.flatnonzero(field.margin(traj.grid.nodes, traj.states, 0.05) < 0)
        row = infeasible[0]
        cached = float(traj.grid.nodes[row])
        # Two points build the tree; one would read windows.
        field._distances(0.05, cached, traj.states[row : row + 2])
        assert len(field._tree_cache) == 1
        want = fresh._distances(0.05, traj.grid.nodes, traj.states)[0]
        scans = recorded_scans(monkeypatch)
        got = node_violations(field, 0.05, traj)
        assert got.tobytes() == want.tobytes()
        assert cached not in [t for t, _ in scans]
        assert len(scans) > len(infeasible) - 1 and all(nodes is not None for _, nodes in scans)

    def test_a_static_field_keeps_one_whole_scan(self, monkeypatch):
        # Every row of a static field has the same key: one whole scan and
        # one KD-tree serve them all.
        config = dict(MOVING_DISK, components=[DISK])
        field, fresh = field_from_config(config), field_from_config(config)
        assert not field.time_varying
        traj = one_row_per_time(fresh, 0.05, np.array([0.0, 0.0]))
        assert np.count_nonzero(field.margin(0.0, traj.states, 0.05) < 0) > 5
        want = fresh._distances(0.05, traj.grid.nodes, traj.states)[0]
        scans = recorded_scans(monkeypatch)
        got = node_violations(field, 0.05, traj)
        assert [nodes for _, nodes in scans] == [None] and len(field._tree_cache) == 1
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_a_nan_margin_row_reads_its_window(self, monkeypatch):
        # NaN outside the unit disk: rows there are infeasible, and their
        # windows hold the crossings inside its rim that the whole scan has.
        config = dict(MOVING_DISK, components=["0.5 - sqrt(1 - x1*x1 - x2*x2) + 0*t"])
        field, fresh = field_from_config(config), field_from_config(config)
        traj = Trajectory(
            TimeGrid(np.array([0.0, 0.5, 1.0])), np.array([[1.05, 0.0], [0.0, -1.2], [0.5, 0.5]])
        )
        assert np.isnan(field.margin(traj.grid.nodes, traj.states, 0.05)[:2]).all()
        want = fresh._distances(0.05, traj.grid.nodes, traj.states)[0]
        scans = recorded_scans(monkeypatch)
        got = node_violations(field, 0.05, traj)
        assert got.tobytes() == want.tobytes() and got[0] > 0 and got[1] > 0
        assert scans and all(nodes is not None for _, nodes in scans)

    def test_a_lone_row_in_an_infeasible_box_raises(self, monkeypatch):
        config = dict(MOVING_DISK, components=SCAN_CASES["all-infeasible"][0])
        traj = Trajectory(TimeGrid(np.array([0.0, 0.7])), np.array([[0.3, 0.2], [0.3, 0.2]]))
        scans = recorded_scans(monkeypatch)
        with pytest.raises(InfeasibleTighteningError):
            node_violations(field_from_config(config), 0.05, traj, start=1)
        # The window grew until it was the whole lattice.
        assert scans[-1] == (0.7, None) and len(scans) > 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_window_distance_is_the_kd_tree_query_bitwise(self, monkeypatch, dim):
        from scipy.spatial import cKDTree

        field = field_from_config(
            {"components": [DISK if dim == 2 else MOVING_BALL["components"][0]],
             "box": [[-2.0, 2.0]] * dim, "resolution": 0.1}
        )
        rng = np.random.default_rng(dim)
        cloud = np.empty((0, dim))
        monkeypatch.setattr(geometry, "boundary_points", lambda *args: cloud)
        for count in [1] * 200 + list(rng.integers(2, 300, size=800)):
            x = rng.uniform(-1.5, 1.5, size=dim)
            cloud = x + rng.normal(scale=10.0 ** rng.uniform(-6, 0), size=(count, dim))
            got = geometry._window_nearest(field, 0.0, 0.0, x, 0.3)[1]
            want = cKDTree(cloud).query(x)[0]
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (count, x)


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

    def test_times_with_and_without_a_boundary_in_one_batch(self):
        # The shrinking disk has crossings up to t = 0.5 and none after:
        # rows at later times read d_set 0 and d_bdry inf, and the others
        # read a KD-tree over their time's reference scan.
        from scipy.spatial import cKDTree

        field = field_from_config(SHRINKING_DISK)
        times, states = per_row_batch(120)
        late = times > 0.5
        assert late.any() and not late.all()
        for eps in (0.0, 0.05):
            d_set, d_bdry = field._distances(eps, times, states)
            want_bdry = np.full(len(times), np.inf)
            for t in np.unique(times[~late]):
                rows = times == t
                tree = cKDTree(reference_boundary_points(field, t, eps))
                want_bdry[rows] = tree.query(states[rows])[0]
            inside = late | (field.margin(times, states, eps) >= 0)
            assert d_bdry.tobytes() == want_bdry.tobytes()
            assert d_set.tobytes() == np.where(inside, 0.0, want_bdry).tobytes()
            assert np.all(d_set[late] == 0.0) and np.all(d_bdry[late] == np.inf)

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
        table = build_boundary_modulus(field, grid, [0.1], delta0=grid.span, box_radius=2.0)
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
        # Every width, and every probe of the box.
        table = build_boundary_modulus(field, grid, [0.1], delta0=grid.span, box_radius=3.0)
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
            field = field_from_config({"components": [expr], "box": [[0.0, 2.0]]})
            model = expression_model([expr], 1, 1)
            assert field.time_varying == (model.shift_hook is None), expr
