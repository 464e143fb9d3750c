"""Certifier tests.

Frozen oracle values, derived independently of the implementation:

* Surge input scale at t = 1.5 is (t - 1)^(-1/4) = 0.5**-0.25
  = 1.189207115002721, so the declared growth envelope evaluates to
  1.389207115002721 there and to 1.2 on [0, 1].
* For f = sin(x) + cos(x) u with |u| <= 2 the exact Lipschitz constant in
  x is max_x |cos x - u sin x| = sqrt(1 + 4) = 2.2360679774997896; sampled
  certificates must land within [2.0, 1.1 * sqrt(5)].
* The decline drift density is 0.25 / sqrt(s - 1) for s > 1, so its value
  at s = 1.5 is 0.3535533905932738 and its exact integral over (1, 2] is
  0.5; the tabulated version must dominate every window integral.
* Trapezoid quadrature of values (0, 1, 2) on nodes (0, 1, 2):
  L1 = 2.0, L2 = sqrt(3.0) (cells 0.5 and 2.5).
* Pushing the inner boundary point x = 1 + eps of the motor constraint
  with |u| <= 1 gives field speed at least 1 - 0.2 = 0.8 toward the
  interior for t <= 1, so an inward slack of 0.4 must certify; |u| <= 0.5
  cannot beat the 0.2 drift by more than 0.5 - 0.1 on the negative side
  and must fail at slack 0.5.
* The position row of the double integrator is x2 regardless of u, so any
  collar sample with x2 < 0 defeats every candidate control.
"""

import collections
import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest

from tightpath import (
    BundleError,
    CertificationError,
    ControlSignal,
    InwardPointingError,
    OperatingBox,
    SampledFunction,
    TimeGrid,
    best_inward_candidate,
    bundle_from_dict,
    bundle_to_dict,
    certify_all,
    certify_inward_pointing,
    certify_lipschitz,
    certify_sublinear,
    certify_time_regularity,
    double_integrator,
    field_from_config,
    inclusion_margins,
    gronwall_radius,
    integrate,
    load_bundle,
    model_from_config,
    motor_decline,
    motor_scenario,
    motor_surge,
    save_bundle,
    unit_ball_complement,
    validate_bundle,
)
from tightpath import geometry, hypotheses
from tightpath.cli import load_problem
from tightpath.dynamics import DynamicsModel, ball_points, rhs_batch
from tightpath.hypotheses import (
    COLLAR_ETA_GRID,
    CONTROL_BOUNDS,
    EPS_LIST,
    INCLUSION_GRID_POINTS,
    INWARD_TIE_TOL,
    _collar_samples,
    control_candidates,
)
from tightpath.signals import trapezoid_prefix, weighted_l2_cost

GRID = TimeGrid.uniform(0.0, 2.0, 400)
BALL = unit_ball_complement(dim=1, box_radius=2.0)
CONTROL_BOX = np.array([[-2.0, 2.0]])


def pure_control_model(power: int = 1) -> DynamicsModel:
    def rhs(t, x, u):
        u = np.asarray(u, dtype=float)
        return u**power + 0.0 * np.asarray(x, dtype=float)

    return DynamicsModel(state_dim=1, control_dim=1, rhs=rhs, name=f"u^{power}")


class TestSublinear:
    def test_linear_field_certifies_near_one(self):
        box = OperatingBox.from_radii(2.0, 4.0, 1, 1)
        theta = certify_sublinear(pure_control_model(), box, GRID, seed=3)
        assert theta.values.min() == theta.values.max()
        assert 0.6 <= theta.values[0] <= 1.1

    def test_certified_envelope_dominates_fresh_samples(self):
        box = OperatingBox.from_radii(2.0, 1.5, 1, 1)
        model = motor_decline()
        theta = certify_sublinear(model, box, GRID, seed=0)
        rng = np.random.default_rng(99)
        for t in (0.0, 0.5, 1.25, 2.0):
            xs = box.sample_states(rng, 100)
            us = box.sample_controls(rng, 100)
            from tightpath.dynamics import rhs_batch

            ratios = np.linalg.norm(rhs_batch(model, t, xs, us), axis=1) / (
                1.0 + np.abs(xs[:, 0]) + np.abs(us[:, 0])
            )
            assert ratios.max() <= theta.value_at(t)

    def test_quadratic_field_fails(self):
        box = OperatingBox.from_radii(2.0, 2.0, 1, 1)
        with pytest.raises(CertificationError, match="super-linear"):
            certify_sublinear(pure_control_model(power=2), box, GRID)

    def test_surge_declared_envelope_is_validated_and_returned(self):
        box = OperatingBox.from_radii(3.0, 1.5, 1, 1)
        theta = certify_sublinear(motor_surge(), box, GRID, seed=1)
        assert theta.value_at(0.3) == pytest.approx(1.2, abs=1e-12)
        assert theta.value_at(1.5) == pytest.approx(1.389207115002721, abs=1e-12)

    def test_undershooting_declaration_is_rejected(self):
        bad = dataclasses.replace(
            motor_surge(),
            metadata=dataclasses.replace(
                motor_surge().metadata, growth_envelope=lambda t: 0.01
            ),
        )
        box = OperatingBox.from_radii(3.0, 1.5, 1, 1)
        with pytest.raises(CertificationError, match="undershoots") as info:
            certify_sublinear(bad, box, GRID)
        assert "t" in info.value.witness


class TestLipschitz:
    def test_control_only_field_has_zero_modulus(self):
        kf = certify_lipschitz(pure_control_model(), 1.0, CONTROL_BOX, GRID)
        assert kf.values.max() == 0.0

    def test_control_affine_bound(self):
        def rhs(t, x, u):
            x = np.asarray(x, dtype=float)
            return np.sin(x) + np.cos(x) * np.asarray(u, dtype=float)

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        kf = certify_lipschitz(model, 1.5, CONTROL_BOX, GRID, seed=2)
        assert kf.values.min() == kf.values.max()
        assert 2.0 <= kf.values[0] <= 1.1 * np.sqrt(5.0) + 1e-9

    def test_motor_drift_matches_declaration(self):
        kf = certify_lipschitz(motor_surge(), 5.0, CONTROL_BOX, GRID)
        assert np.all(kf.values == 0.2)

    def test_square_root_kink_is_rejected_with_pair(self):
        def rhs(t, x, u):
            return np.sqrt(np.abs(np.asarray(x, dtype=float)))

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        with pytest.raises(CertificationError, match="not Lipschitz") as info:
            certify_lipschitz(model, 1.0, CONTROL_BOX, GRID)
        a, b = info.value.witness["pair"]
        assert abs(a[0]) < 1e-3 and abs(b[0]) < 1e-3


class TestInwardPointing:
    def test_motor_surge_certificate(self):
        m_u, m_v, xi, eta = certify_inward_pointing(
            BALL, motor_surge(), [0.05, 0.1, 0.2], [0.05, 0.1, 0.2, 0.4], GRID,
            box_radius=3.2, seed=0,
        )
        assert m_u == 1.0
        assert xi >= 0.4
        assert eta == 0.4
        assert 1.0 <= m_v <= 2.5

    def test_strong_control_verifies_at_larger_slack(self):
        m_u, _, xi, _ = certify_inward_pointing(
            BALL, motor_surge(), [0.1], [0.2], GRID,
            control_bounds=(2.0,), seed=0,
        )
        assert m_u == 2.0
        assert xi >= 0.4

    def test_inactive_constraint_passes_vacuously_at_caps(self):
        slack = field_from_config({"components": ["x1 - 10"], "box": [[-2.0, 2.0]]})
        m_u, m_v, xi, eta = certify_inward_pointing(
            slack, motor_surge(), [0.1], [0.1, 0.3], GRID
        )
        assert (m_u, m_v) == (0.5, 0.0)
        assert xi == 0.5
        assert eta == 0.3

    def test_double_integrator_fails_with_witness(self):
        position = field_from_config(
            {"components": ["1 - x1"], "box": [[0.0, 2.0], [-1.0, 1.0]]}
        )
        with pytest.raises(InwardPointingError) as info:
            certify_inward_pointing(
                position, double_integrator(), [0.05], [0.1, 0.2], GRID, seed=0
            )
        witness = info.value.witness
        assert witness["x"][1] < 0.0

    def test_margins_are_deterministic(self):
        x = np.array([1.08])
        cands = np.linspace(-1.0, 1.0, 9)[:, None]
        first = inclusion_margins(BALL, motor_surge(), 0.05, 0.3, x, cands, 0.4, 2.0)
        second = inclusion_margins(BALL, motor_surge(), 0.05, 0.3, x, cands, 0.4, 2.0)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_tie_break_prefers_smaller_control(self):
        margins = np.array([1.0, 1.0, 0.5])
        cands = np.array([[-0.8], [0.2], [0.0]])
        assert best_inward_candidate(margins, cands) == 1


MOVING_DISK = field_from_config(
    {
        "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "time_varying": True,
        "resolution": 0.025,
    }
)
PLANAR = model_from_config(
    {"model": "expression", "state_dim": 2, "control_dim": 2, "rhs": ["u1", "u2"]}
)


def unpruned_margins(field, model, eps, t, x, candidates, xi, horizon):
    """Reference: every candidate evaluated at every push time."""
    velocities = rhs_batch(model, float(t), np.tile(x, (len(candidates), 1)), candidates)
    margins = np.where(np.all(np.isfinite(velocities), axis=1), np.inf, -np.inf)
    delta_cap = min(xi, max(horizon - t, 0.0))
    if delta_cap <= 0:
        return margins, velocities
    rng = np.random.default_rng(12)
    deltas = np.linspace(0.0, delta_cap, INCLUSION_GRID_POINTS)[1:]
    ys = np.vstack([x[None, :], x + ball_points(rng, INCLUSION_GRID_POINTS, field.dim, xi)])
    ys = ys[field.margin(t, ys, eps) >= 0]
    safe_v = np.where(np.isfinite(velocities), velocities, 0.0)
    for delta in deltas:
        centers = (ys[None, :, :] + delta * safe_v[:, None, :]).reshape(-1, field.dim)
        d_set, d_bdry = field._distances(eps, t + delta, centers)
        slack = np.where(d_set > 0, -np.inf, d_bdry - delta * xi)
        margins = np.minimum(margins, slack.reshape(len(candidates), -1).min(axis=1))
    return margins, velocities


def check_against_unpruned(field, model, eps, t, x, candidates, xi, horizon=2.0) -> int:
    """Assert the pruned search picks the same winner bitwise; returns the
    number of loser margins that came back as bounds rather than exact."""
    x = np.asarray(x, dtype=float)
    margins, velocities = inclusion_margins(field, model, eps, t, x, candidates, xi, horizon)
    ref_margins, ref_velocities = unpruned_margins(field, model, eps, t, x, candidates, xi, horizon)
    best = best_inward_candidate(margins, candidates)
    assert best == best_inward_candidate(ref_margins, candidates)
    assert margins[best].tobytes() == ref_margins[best].tobytes()
    assert velocities.tobytes() == ref_velocities.tobytes()
    exact = margins == ref_margins
    assert np.all(exact | (margins < margins[best] - INWARD_TIE_TOL))
    assert np.all(margins >= ref_margins)  # a pruned margin is an upper bound
    return int(np.count_nonzero(~exact))


class TestPrunedInclusionMargins:
    """The pruned search against the unpruned loop it replaces."""

    def test_moving_disk_lattice_field(self):
        eps = 0.05
        pruned = 0
        for bound in (0.5, 2.0):
            cands = control_candidates(0, 2, bound)
            for t in (0.0, 0.9, 1.95):
                for angle in (0.4, 1.6, 2.9):
                    for depth in (0.002, 0.03):
                        radius = 1.0 + eps + depth
                        x = np.array([0.1 * t + radius * np.cos(angle), radius * np.sin(angle)])
                        for xi in (0.5, 0.15, 0.05):
                            pruned += check_against_unpruned(
                                MOVING_DISK, PLANAR, eps, t, x, cands, xi
                            )
        assert pruned > 0

    def test_unit_ball_complement(self):
        pruned = 0
        for model in (motor_surge(), motor_decline()):
            for bound in (0.5, 1.0, 4.0):
                cands = control_candidates(0, 1, bound)
                for t in (0.3, 1.2, 1.9):
                    for x in (1.0501, 1.08, 1.3, -1.06):
                        for xi in (0.5, 0.25, 0.05):
                            pruned += check_against_unpruned(
                                BALL, model, 0.05, t, [x], cands, xi
                            )
        assert pruned > 0

    def test_planar_unit_ball_complement(self):
        ball = unit_ball_complement(dim=2, box_radius=2.0)
        cands = control_candidates(0, 2, 1.0)
        pruned = 0
        for x in ([1.06, 0.0], [0.5, 0.9], [-0.8, -0.8]):
            for xi in (0.4, 0.1):
                pruned += check_against_unpruned(ball, PLANAR, 0.02, 0.5, x, cands, xi)
        assert pruned > 0

    def test_exact_tie_goes_to_smaller_control(self):
        def rhs(t, x, u):
            return np.minimum(np.abs(np.asarray(u, dtype=float)), 0.5)

        saturating = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs, name="sat")
        cands = np.array([[1.0], [-0.3], [0.7], [0.5], [-0.5]])
        check_against_unpruned(BALL, saturating, 0.05, 0.4, [1.06], cands, 0.3)
        margins, _ = inclusion_margins(BALL, saturating, 0.05, 0.4, np.array([1.06]), cands, 0.3, 2.0)
        assert best_inward_candidate(margins, cands) == 3

    def test_near_tie_within_tolerance_stays_exact(self):
        # At v = xi the leader's slack is flat in the push time; the smaller
        # control's slack sinks by under the tie tolerance after the first
        # push. It ties, wins on its norm, and its margin must be exact.
        cands = np.array([[0.3], [0.3 - 1e-13], [0.1]])
        check_against_unpruned(BALL, pure_control_model(), 0.05, 0.4, [1.06], cands, 0.3)
        margins, _ = inclusion_margins(
            BALL, pure_control_model(), 0.05, 0.4, np.array([1.06]), cands, 0.3, 2.0
        )
        assert margins[0] > margins[1] >= margins[0] - INWARD_TIE_TOL
        assert best_inward_candidate(margins, cands) == 1


def check_batch_against_rows(field, model, eps, t, xs, candidates, xi, horizon=2.0):
    """Assert a (P, dim) batch equals each 1-row call bitwise and, where the
    base point is feasible, the unpruned reference; returns the batch."""
    xs = np.asarray(xs, dtype=float)
    margins, velocities = inclusion_margins(field, model, eps, t, xs, candidates, xi, horizon)
    assert margins.shape == (len(xs), len(candidates))
    assert velocities.shape == (len(xs), len(candidates), model.state_dim)
    for row, x in enumerate(xs):
        for one in (x, x[None, :]):
            m, v = inclusion_margins(field, model, eps, t, one, candidates, xi, horizon)
            assert m.reshape(-1).tobytes() == margins[row].tobytes()
            assert v.reshape(velocities[row].shape).tobytes() == velocities[row].tobytes()
        if field.margin(t, x, eps) >= 0:
            check_against_unpruned(field, model, eps, t, x, candidates, xi, horizon)
    return margins, velocities


class TestBatchedInclusionMargins:
    """A batch of base points against one call per row."""

    def test_moving_disk_lattice_field(self):
        eps = 0.05
        for bound in (0.5, 2.0):
            cands = control_candidates(0, 2, bound)
            for t in (0.0, 0.9, 1.95, 2.0):
                xs = [
                    [0.1 * t + r * np.cos(angle), r * np.sin(angle)]
                    for angle in (0.4, 1.6, 2.9)
                    for r in (1.0 + eps + 0.002, 1.0 + eps + 0.03, 1.0 + eps - 0.01, 0.2)
                ]
                for xi in (0.5, 0.05):
                    check_batch_against_rows(MOVING_DISK, PLANAR, eps, t, xs, cands, xi)

    def test_static_lattice_disk(self):
        disk = field_from_config(
            {
                "components": ["1 - sqrt(x1*x1 + x2*x2)"],
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "resolution": 0.025,
            }
        )
        cands = control_candidates(0, 2, 1.0)
        xs = [[1.06, 0.0], [0.6, 0.85], [-0.75, -0.75], [0.0, 0.0]]
        for t in (0.0, 1.5):
            for xi in (0.4, 0.1):
                check_batch_against_rows(disk, PLANAR, 0.05, t, xs, cands, xi)

    def test_unit_ball_complement(self):
        for model in (motor_surge(), motor_decline()):
            cands = control_candidates(0, 1, 1.0)
            xs = [[1.0501], [1.08], [1.3], [-1.06], [1.04], [0.0]]
            for t in (0.3, 1.2, 1.9, 2.0):
                for xi in (0.5, 0.05):
                    check_batch_against_rows(BALL, model, 0.05, t, xs, cands, xi)
        ball = unit_ball_complement(dim=2, box_radius=2.0)
        cands = control_candidates(0, 2, 1.0)
        xs = [[1.06, 0.0], [0.5, 0.9], [-0.8, -0.8], [0.1, 0.1]]
        check_batch_against_rows(ball, PLANAR, 0.02, 0.5, xs, cands, 0.4)

    def test_horizon_gives_no_push_time(self):
        cands = control_candidates(0, 1, 1.0)
        margins, _ = check_batch_against_rows(
            BALL, motor_surge(), 0.05, 2.0, [[1.06], [1.5]], cands, 0.3
        )
        assert np.all(margins == np.inf)

    def test_rows_without_a_feasible_base_point_are_minus_inf(self):
        cands = control_candidates(0, 1, 1.0)
        margins, _ = check_batch_against_rows(
            BALL, motor_surge(), 0.05, 0.4, [[1.06], [0.0], [1.3]], cands, 0.3
        )
        assert np.all(margins[1] == -np.inf)
        assert np.isfinite(margins[[0, 2]]).any()

    def test_non_finite_velocity_never_leads_an_all_minus_inf_row(self):
        # Candidate 0 has a NaN velocity; the other two push x = 1.06 out of
        # the set at the first push time, so every live margin is -inf. The
        # leader must be a live candidate: the first one attaining the row's
        # live maximum, not the row's plain argmax.
        def rhs(t, x, u):
            u = np.asarray(u, dtype=float)
            return np.where(u > 0.5, np.nan, -np.abs(u)) + 0.0 * np.asarray(x, dtype=float)

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs, name="nan-at-one")
        cands = np.array([[1.0], [-1.0], [-0.5]])
        margins, velocities = check_batch_against_rows(
            BALL, model, 0.05, 0.4, [[1.06], [1.5], [1.0501]], cands, 0.3
        )
        assert np.isnan(velocities[:, 0]).all()
        assert np.all(margins[0] == -np.inf)
        assert not np.isnan(margins).any()

    def test_ties_inside_a_batch(self):
        def rhs(t, x, u):
            return np.minimum(np.abs(np.asarray(u, dtype=float)), 0.5)

        saturating = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs, name="sat")
        cands = np.array([[1.0], [-0.3], [0.7], [0.5], [-0.5]])
        margins, _ = check_batch_against_rows(
            BALL, saturating, 0.05, 0.4, [[1.06], [1.2], [1.06]], cands, 0.3
        )
        assert best_inward_candidate(margins[0], cands) == 3
        cands = np.array([[0.3], [0.3 - 1e-13], [0.1]])
        margins, _ = check_batch_against_rows(
            BALL, pure_control_model(), 0.05, 0.4, [[1.3], [1.06], [1.06]], cands, 0.3
        )
        for row in (1, 2):
            assert margins[row, 0] > margins[row, 1] >= margins[row, 0] - INWARD_TIE_TOL
            assert best_inward_candidate(margins[row], cands) == 1


def unstaged_push(field, eps, t, rows, velocities, margins, xi, delta_cap) -> None:
    """Reference: the forward-cone push before staging, which queries every
    kept base point of every pair at each push time."""
    rng = np.random.default_rng(12)
    deltas = np.linspace(0.0, delta_cap, INCLUSION_GRID_POINTS)[1:]
    offsets = ball_points(rng, INCLUSION_GRID_POINTS, field.dim, xi)
    ys = np.concatenate([rows[:, None, :], rows[:, None, :] + offsets[None, :, :]], axis=1)
    base_ok = (field.margin(t, ys.reshape(-1, field.dim), eps) >= 0).reshape(ys.shape[:2])
    margins[~base_ok.any(axis=1)] = -np.inf

    def push(delta, pairs):
        r, c = pairs
        keep = base_ok[r]
        centers = ys[r] + delta * velocities[r, c][:, None, :]
        d_set, d_bdry = field._distances(eps, t + delta, centers[keep])
        slack = np.full(keep.shape, np.inf)
        slack[keep] = np.where(d_set > 0, -np.inf, d_bdry - delta * xi)
        margins[r, c] = np.minimum(margins[r, c], slack.min(axis=1))

    live = margins > -np.inf
    led = np.flatnonzero(live.any(axis=1))
    if led.size == 0:
        return
    push(deltas[0], np.nonzero(live))
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


def counting_points(run):
    """(result of run(), points passed to ``_distances`` during it)."""
    seen = []
    real = geometry.ConstraintField._distances

    def counted(self, eps, t, points):
        seen.append(len(points))
        return real(self, eps, t, points)

    with mock.patch.object(geometry.ConstraintField, "_distances", counted):
        out = run()
    return out, sum(seen)


def check_staged_push(field, model, eps, t, xs, candidates, xi, horizon=2.0):
    """Assert inclusion_margins equals the unstaged push bitwise, margins and
    velocities; returns (margins, points queried, points the reference queried)."""
    xs = np.asarray(xs, dtype=float)

    def run():
        return inclusion_margins(field, model, eps, t, xs, candidates, xi, horizon)

    (margins, velocities), points = counting_points(run)
    with mock.patch.object(hypotheses, "_push_forward_cone", unstaged_push):
        (want_margins, want_velocities), want_points = counting_points(run)
    assert margins.tobytes() == want_margins.tobytes()
    assert velocities.tobytes() == want_velocities.tobytes()
    return margins, points, want_points


def first_push_view(field, eps, t, x, v_anchor, v, xi, horizon=2.0):
    """One pair's kept base points at the first push time, read from the
    oracle directly: the anchor's distances less delta * |v - v_anchor|
    (the staged lower bounds without their rounding allowance), the exact
    distances, the exact distance at the anchor's nearest point, and the
    margins."""
    delta = np.linspace(0.0, min(xi, horizon - t), INCLUSION_GRID_POINTS)[1]
    offsets = ball_points(np.random.default_rng(12), INCLUSION_GRID_POINTS, field.dim, xi)
    ys = np.vstack([x, x + offsets])
    ys = ys[field.margin(t, ys, eps) >= 0]
    d_anchor = field._distances(eps, t + delta, ys + delta * v_anchor)[1]
    pushed = ys + delta * v
    d = field._distances(eps, t + delta, pushed)[1]
    bound = d_anchor - delta * np.linalg.norm(v - v_anchor)
    return bound, d, d[np.argmin(d_anchor)], field.margin(t + delta, pushed, eps)


def lattice_copy(field):
    """The same constraint answered by the KD-tree fallback."""
    return dataclasses.replace(field, analytic_distance=None, _tree_cache={}, _lattice=None)


class TestStagedPush:
    """The staged forward-cone push against the push that queries every point."""

    def test_moving_disk_lattice_field(self):
        eps = 0.05
        for bound in (0.5, 2.0):
            cands = control_candidates(0, 2, bound)
            for t in (0.0, 0.9, 1.95, 2.0):
                xs = [
                    [0.1 * t + r * np.cos(angle), r * np.sin(angle)]
                    for angle in (0.4, 1.6, 2.9)
                    for r in (1.0 + eps + 0.002, 1.0 + eps + 0.03, 1.0 + eps - 0.01, 1.4)
                ]
                for xi in (0.5, 0.05):
                    _, points, want = check_staged_push(MOVING_DISK, PLANAR, eps, t, xs, cands, xi)
                    assert points < want if t < 2.0 else points == want == 0

    def test_static_lattice_disk(self):
        disk = field_from_config(
            {
                "components": ["1 - sqrt(x1*x1 + x2*x2)"],
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "resolution": 0.025,
            }
        )
        cands = control_candidates(0, 2, 1.0)
        xs = [[1.06, 0.0], [0.6, 0.85], [-0.75, -0.75], [0.0, 0.0]]
        for t in (0.0, 1.5, 2.0):
            for xi in (0.4, 0.1):
                _, points, want = check_staged_push(disk, PLANAR, 0.05, t, xs, cands, xi)
                assert points < want if t < 2.0 else points == want == 0

    def test_unit_ball_complement_analytic_and_lattice(self):
        planar_ball = unit_ball_complement(dim=2, box_radius=2.0)
        cases = [
            (BALL, motor_surge(), 1, [[1.0501], [1.08], [1.3], [-1.06], [1.04]], 0.05),
            (BALL, motor_decline(), 1, [[1.0501], [1.08], [1.3], [-1.06], [1.04]], 0.05),
            (planar_ball, PLANAR, 2, [[1.06, 0.0], [0.5, 0.9], [-0.8, -0.8], [0.1, 0.1]], 0.02),
        ]
        for field, model, dim, xs, eps in cases:
            cands = control_candidates(0, dim, 1.0)
            for t in (0.3, 1.9, 2.0):
                for xi in (0.5, 0.05):
                    # An analytic oracle answers every point in one call: no staging.
                    _, points, want = check_staged_push(field, model, eps, t, xs, cands, xi)
                    assert points == want
                    _, points, want = check_staged_push(
                        lattice_copy(field), model, eps, t, xs, cands, xi
                    )
                    assert points < want if t < 2.0 else points == want == 0

    def test_rounding_near_a_tie_is_absorbed_by_the_slack(self):
        # Far from the origin, positions round at 1e-13 and distances do
        # not. Pair 1's minimum lies 3e-14 below the exact distance at its
        # anchor's nearest point, and the Lipschitz bound of that minimum
        # rounds 2e-14 above it: without a rounding allowance the staged
        # push would skip the minimum. Pair 1 moves away from the disk, so
        # its margin is set at the first push time.
        disk = field_from_config(
            {
                "components": ["1 - sqrt((x1 - 1000.0)**2 + x2**2)"],
                "box": [[998.0, 1002.0], [-2.0, 2.0]],
            }
        )
        x = np.array([1001.3, -0.34493318878826473])
        cands = np.array([[30.0, 0.0], [10.78077461753235, 0.0]])
        bound, d, exact, _ = first_push_view(disk, 0.05, 0.0, x, cands[0], cands[1], 0.5)
        nearest = np.argmin(d)
        assert d[nearest] < exact < bound[nearest]
        margins, points, want = check_staged_push(disk, PLANAR, 0.05, 0.0, [x], cands, 0.5)
        assert np.isfinite(margins).all() and points < want

    # In the next two tests the anchor moves away from the boundary line
    # x2 = 0.9 and leads, while pair 1 moves towards it, so a pair 1 that
    # came out finite would be pruned with that value and never pushed again.

    def test_a_point_outside_the_set_is_queried_whatever_its_bound(self):
        # x1 >= -2.45 bounds the set outside the box, so the boundary cloud
        # is the line x2 = 0.9 alone. Pair 1 pushes base points past
        # x1 = -2.45, far from the cloud: their bounds exceed the exact
        # distance at the anchor's nearest point, and the pair is -inf only
        # through them.
        field = field_from_config(
            {"components": ["x2 - 0.95", "-x1 - 2.5"], "box": [[-2.0, 2.0], [-2.0, 2.0]]}
        )
        cands = np.array([[0.0, -3.0], [-15.0, 1.0]])
        x = np.array([-1.7, 0.2])
        bound, _, exact, margin = first_push_view(field, 0.05, 0.0, x, cands[0], cands[1], 0.5)
        outside = ~(margin >= 0)
        assert outside.any() and np.all(bound[outside] > exact)
        margins, _, _ = check_staged_push(field, PLANAR, 0.05, 0.0, [x], cands, 0.5)
        assert np.isfinite(margins[0, 0]) and margins[0, 1] == -np.inf

    def test_a_nan_margin_point_counts_as_outside(self):
        # sqrt(x1) is NaN for x1 < 0, and a lattice edge with a NaN end
        # never crosses: the cloud is the line x2 = 0.9 for x1 >= 0. Pair 1
        # pushes a base point to x1 < 0, where its margin is NaN.
        field = field_from_config(
            {"components": ["x2 - 0.95", "sqrt(x1) - 10"], "box": [[-2.0, 2.0], [-2.0, 2.0]]}
        )
        cands = np.array([[0.0, -3.0], [-3.0, 1.0]])
        with np.errstate(invalid="ignore"):
            for x in ([0.35, 0.1], [0.4, 0.3]):
                bound, _, exact, margin = first_push_view(
                    field, 0.05, 0.0, np.array(x), cands[0], cands[1], 0.5
                )
                outside = ~(margin >= 0)
                assert outside.any() and np.isnan(margin[outside]).all()
                assert np.all(bound[outside] > exact)
                margins, _, _ = check_staged_push(
                    field, PLANAR, 0.05, 0.0, [x], cands, 0.5
                )
                assert np.isfinite(margins[0, 0]) and margins[0, 1] == -np.inf

    def test_push_times_with_no_boundary_in_the_box(self):
        # The disk's radius 1 - 2t leaves the box empty of boundary from
        # t = 0.475 at eps = 0.05, so later push times read every distance
        # inf, and from t = 0.6 on every push time does.
        shrinking = field_from_config(
            {
                "components": ["1 - 2*t - sqrt(x1*x1 + x2*x2)"],
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "time_varying": True,
                "resolution": 0.025,
            }
        )
        cands = control_candidates(0, 2, 1.0)
        xs = [[0.2, 0.1], [0.5, -0.4], [-1.5, 1.0]]
        for t in (0.3, 0.45, 0.6):
            margins, _, _ = check_staged_push(shrinking, PLANAR, 0.05, t, xs, cands, 0.5)
        assert np.all(margins == np.inf)


def _decline_config():
    return {
        "model": "motor_decline",
        "constraint": {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0},
        "reference": {
            "kind": "boundary-tracking",
            "variant": "decline",
            "clearance": 0.0005,
            "x_start": 1.08,
            "finish": 1.06,
        },
        "horizon": 2.0,
        "steps": 2000,
    }


def _moving_disk_config():
    times = np.linspace(0.0, 2.0, 61).tolist()
    return {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["u1", "u2"],
        "constraint": {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
            "time_varying": True,
            "resolution": 0.025,
        },
        "reference": {
            "kind": "inline",
            "times": times,
            "states": [[-1.5 + 1.5 * t, 1.0005] for t in times],
            "controls": [[1.5, 0.0]] * len(times),
        },
    }


class TestPinnedInwardCertificate:
    """certify_inward_pointing on the benchmark's gated configs returns the
    tuples the one-point-per-call search returned."""

    @pytest.mark.parametrize(
        "config, bounds, seed, expected",
        [
            (_decline_config(), None, 1, (2.0, 1.2053846667889647, 0.5, 0.4)),
            (_decline_config(), (0.5, 1.0), 1, (1.0, 0.8836341123923226, 0.3, 0.4)),
            (_moving_disk_config(), None, 0, (1.0, 0.9995128224910061, 0.5, 0.4)),
        ],
        ids=["decline", "decline-narrowed", "moving-disk"],
    )
    def test_benchmark_config(self, config, bounds, seed, expected):
        model, field, xbar, ubar = load_problem(config)
        result = certify_inward_pointing(
            field,
            model,
            EPS_LIST,
            COLLAR_ETA_GRID,
            ubar.grid,
            control_bounds=bounds or CONTROL_BOUNDS,
            box_radius=1.0 + 2.0 * xbar.max_norm(),
            seed=seed,
        )
        assert result == expected

    def test_moving_disk_queries_at_most_a_third_of_the_unstaged_points(self):
        # The unstaged push passed 1,929,834 points to _distances in this
        # certificate; the staged push needs 564,774.
        model, field, xbar, ubar = load_problem(_moving_disk_config())

        def run():
            return certify_inward_pointing(
                field,
                model,
                EPS_LIST,
                COLLAR_ETA_GRID,
                ubar.grid,
                box_radius=1.0 + 2.0 * xbar.max_norm(),
                seed=0,
            )

        result, points = counting_points(run)
        assert result == (1.0, 0.9995128224910061, 0.5, 0.4)
        assert points <= 0.35 * 1_929_834


class TestCollarScans:
    def test_moving_disk_scans_each_key_once(self, monkeypatch):
        # With no eviction every key stays cached, so a second scan of a
        # key would be waste: a collar reads the cloud its distance tree holds.
        model, field, xbar, ubar = load_problem(_moving_disk_config())
        scans = collections.Counter()
        scan = geometry.boundary_points

        def counted(field, t, eps):
            scans[round(t, 9), round(eps, 12)] += 1
            return scan(field, t, eps)

        # Count the scan wherever a module binds it, as the benchmark's tracer does.
        for module in list(sys.modules.values()):
            if module.__name__.startswith("tightpath") and vars(module).get(
                "boundary_points"
            ) is scan:
                monkeypatch.setattr(module, "boundary_points", counted)
        monkeypatch.setattr(geometry, "_MAX_TREE_CACHE", 10**6)
        result = certify_inward_pointing(
            field,
            model,
            EPS_LIST,
            COLLAR_ETA_GRID,
            ubar.grid,
            box_radius=1.0 + 2.0 * xbar.max_norm(),
            seed=0,
        )
        assert result == (1.0, 0.9995128224910061, 0.5, 0.4)
        assert scans and max(scans.values()) == 1

    def test_box_without_boundary_gives_an_empty_collar(self):
        # |x1| <= 1 - 3t - eps: a boundary at t = 0, an empty set at t = 1.
        shrinking = field_from_config(
            {"components": ["abs(x1) - 1 + 3*t"], "box": [[-2.0, 2.0]], "time_varying": True}
        )
        wide = field_from_config(
            {"components": ["abs(x1) - 3 - t"], "box": [[-2.0, 2.0]], "time_varying": True}
        )
        rng = np.random.default_rng(0)
        assert len(_collar_samples(shrinking, 0.1, 0.0, 0.4, 16, rng, None)[0]) > 0
        for field, t in ((shrinking, 1.0), (wide, 0.0)):
            collar, depths = _collar_samples(field, 0.1, t, 0.4, 16, rng, None)
            assert collar.shape == (0, 1) and depths.shape == (0,)

    @pytest.mark.parametrize("config", [_decline_config(), _moving_disk_config()])
    def test_depths_are_the_boundary_distances_of_the_points(self, config):
        # The depths filter the collar, then rank it against each eta: they
        # must be bitwise what a query of the returned points gives.
        model, field, xbar, ubar = load_problem(config)
        rng = np.random.default_rng(0)
        box_radius = 1.0 + 2.0 * xbar.max_norm()
        for t in (0.0, 0.7):
            pts, depths = _collar_samples(field, 0.05, t, 0.4, 16, rng, box_radius)
            assert len(pts) and depths.shape == (len(pts),)
            assert depths.tobytes() == field._distances(0.05, t, pts)[1].tobytes()
            assert (depths <= 0.4 * (1 + 1e-9)).all()


class TestTimeRegularity:
    def test_time_invariant_model_is_all_zero(self):
        box = OperatingBox.from_radii(2.0, 1.0, 2, 1)
        gamma, beta_u, alpha, ku = certify_time_regularity(
            double_integrator(), ControlSignal.constant(GRID, [0.0]), box, GRID,
            control_bound=1.0,
        )
        assert gamma.values.max() == 0.0
        assert beta_u.values.max() == 0.0
        assert alpha == 1.0
        assert ku.values.max() == 0.0

    def test_surge_holder_data(self):
        box = OperatingBox.from_radii(2.0, 1.3, 1, 1)
        ubar = ControlSignal.constant(GRID, [0.3])
        gamma, beta_u, alpha, ku = certify_time_regularity(
            motor_surge(), ubar, box, GRID, control_bound=1.0, seed=0
        )
        assert alpha == 0.25
        assert gamma.values.max() == 0.0
        i = int(np.argmin(np.abs(ku.grid.nodes - 0.5)))
        assert ku.grid.nodes[i] == pytest.approx(0.5, abs=1e-12)
        assert ku.values[i] == pytest.approx(1.3 * 0.5**-0.25, rel=1e-12)
        assert np.all(np.isfinite(ku.values))
        # transport distances never exceed the declared per-node radius cap
        s = beta_u.grid.nodes
        late = np.maximum(s - 1.0, 1e-300) ** -0.25 - 1.0
        scale = np.where(s <= 1.0, 1.0, np.maximum(late, 0.0))
        assert np.all(beta_u.values <= scale * 1.3 * 1.01 + 1e-9)
        assert beta_u.values.max() > 0.2

    def test_decline_density_is_validated_and_tabulated(self):
        box = OperatingBox.from_radii(2.0, 1.45, 1, 1)
        ubar = ControlSignal.constant(GRID, [0.45])
        gamma, beta_u, alpha, ku = certify_time_regularity(
            motor_decline(), ubar, box, GRID, control_bound=1.0, seed=0
        )
        assert beta_u.values.max() == 0.0
        assert ku.values.max() == 0.0
        assert alpha == 1.0
        i = int(np.argmin(np.abs(gamma.grid.nodes - 1.5)))
        assert gamma.values[i] == pytest.approx(0.3535533905932738, rel=1e-12)
        # tabulated windows dominate the exact integral 0.5 sqrt(t - 1)
        nodes = gamma.grid.nodes
        left = int(np.argmin(np.abs(nodes - 1.0)))
        assert nodes[left] == pytest.approx(1.0, abs=1e-12)
        prefix = trapezoid_prefix(gamma.grid, np.abs(gamma.values))
        for j in (left + 1, left + 40, len(nodes) - 1):
            exact = 0.5 * np.sqrt(nodes[j] - 1.0)
            assert prefix[j] - prefix[left] >= exact - 1e-12

    def test_drift_budget_violation_carries_witness(self):
        base = motor_decline()
        starved = dataclasses.replace(
            base,
            metadata=dataclasses.replace(
                base.metadata,
                time_drift=lambda s: 0.025 / np.sqrt(s - 1.0) if s > 1.0 else 0.0,
                drift_integral=lambda s, t: 0.1 * base.metadata.drift_integral(s, t),
            ),
        )
        box = OperatingBox.from_radii(2.0, 1.45, 1, 1)
        ubar = ControlSignal.constant(GRID, [0.45])
        with pytest.raises(CertificationError, match="exceeds the declared budget") as info:
            certify_time_regularity(starved, ubar, box, GRID, control_bound=1.0, seed=0)
        assert info.value.witness["t"] > info.value.witness["s"]


class TestSampledFunction:
    def test_trapezoid_quadrature_oracle(self):
        fn = SampledFunction(TimeGrid(np.array([0.0, 1.0, 2.0])), np.array([0.0, 1.0, 2.0]))
        assert fn.l1() == pytest.approx(2.0, abs=1e-15)
        assert fn.l2() == pytest.approx(np.sqrt(3.0), rel=1e-15)
        assert fn.value_at(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_non_finite_and_misshapen(self):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(Exception):
            SampledFunction(grid, np.array([0.0, np.inf, 1.0]))
        with pytest.raises(Exception):
            SampledFunction(grid, np.array([1.0, 2.0]))


@pytest.fixture(scope="module")
def surge_bundle():
    grid = TimeGrid.uniform(0.0, 2.0, 800)
    ubar = ControlSignal(grid, (0.25 * np.sin(0.7 * np.pi * grid.nodes))[:, None])
    xbar = integrate(motor_surge(), ubar, np.array([1.08]), (0.0, 2.0), 0.0025, check=False)
    return certify_all(motor_surge(), BALL, ubar, xbar, seed=0), ubar, xbar


class TestBundle:
    def test_surge_bundle_provenance_and_shape(self, surge_bundle):
        bundle, _, xbar = surge_bundle
        assert bundle.provenance["growth_envelope"] == "declared"
        assert bundle.provenance["state_lipschitz"] == "declared"
        assert bundle.provenance["time_drift"] == "declared"
        assert bundle.provenance["shift_radius"] == "certified"
        assert bundle.control_bound == 1.0
        assert bundle.inward_slack >= 0.4
        assert bundle.holder_exponent == 0.25
        assert bundle.eps_cap == 0.2
        assert bundle.reference_sup == pytest.approx(xbar.max_norm())
        validate_bundle(bundle, reference_sup=xbar.max_norm())

    def test_decline_narrows_control_bound_to_declared_validity(self):
        grid = TimeGrid.uniform(0.0, 2.0, 800)
        ubar = ControlSignal(grid, (0.25 * np.sin(0.7 * np.pi * grid.nodes))[:, None])
        xbar = integrate(motor_decline(), ubar, np.array([1.08]), (0.0, 2.0), 0.0025, check=False)
        bundle = certify_all(motor_decline(), BALL, ubar, xbar, seed=0)
        # arctan drift equality only holds up to |u| = tan(1) ~ 1.557, so
        # the 2.0 and 4.0 candidates must have been discarded
        assert bundle.control_bound == 1.0
        assert bundle.provenance["growth_envelope"] == "certified"
        assert bundle.time_drift.l1() >= 0.5

    def test_lipschitz_is_certified_on_the_ball_the_schedule_uses(self, monkeypatch):
        # A stability resample that inflates the growth envelope also
        # enlarges the radius R that the schedule derives from it; both
        # Lipschitz passes must sample that ball, not the one of the
        # envelope before the resample.
        real_sublinear, real_lipschitz = certify_sublinear, certify_lipschitz
        radii = []

        def inflated(*args, n_samples=hypotheses.GROWTH_SAMPLES, seed=0):
            out = real_sublinear(*args, n_samples=n_samples, seed=seed)
            if n_samples == hypotheses.STABILITY_GROWTH_SAMPLES:
                return SampledFunction(out.grid, 2.0 * out.values)
            return out

        def recording(model, radius_R, *args, **kwargs):
            radii.append(radius_R)
            return real_lipschitz(model, radius_R, *args, **kwargs)

        monkeypatch.setattr(hypotheses, "certify_sublinear", inflated)
        monkeypatch.setattr(hypotheses, "certify_lipschitz", recording)
        sc = motor_scenario("decline", steps=400)
        bundle = certify_all(sc.model, sc.field, sc.ubar, sc.xbar, seed=1)
        assert bundle.provenance["growth_envelope"] == "declared-only"
        theta = bundle.growth_envelope
        # The radius of schedule_constants, from the bundle's constants.
        radius = gronwall_radius(
            theta.l1(),
            theta.l2(),
            sc.xbar.max_norm(),
            bundle.control_bound,
            float(np.sqrt(weighted_l2_cost(sc.ubar))),
            bundle.shift_radius.l2(),
        )
        assert radii == [radius, radius]

    def test_holder_rate_without_exponent_is_certified(self):
        # The certifier uses a declared rate only with its exponent, and
        # the provenance label must say what the certifier did.
        base = motor_surge()
        model = dataclasses.replace(
            base, metadata=dataclasses.replace(base.metadata, holder_exponent=None)
        )
        grid = TimeGrid.uniform(0.0, 2.0, 100)
        ubar = ControlSignal(grid, (0.25 * np.sin(0.7 * np.pi * grid.nodes))[:, None])
        xbar = integrate(model, ubar, np.array([1.08]), (0.0, 2.0), 0.02, check=False)
        bundle = certify_all(model, BALL, ubar, xbar, seed=0)
        assert bundle.provenance["holder_rate"] == "certified"
        assert bundle.holder_exponent == 1.0

    def test_bundle_roundtrip_is_exact(self, surge_bundle, tmp_path):
        bundle = surge_bundle[0]
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        assert np.array_equal(loaded.growth_envelope.values, bundle.growth_envelope.values)
        assert np.array_equal(loaded.holder_rate.values, bundle.holder_rate.values)
        assert loaded.control_bound == bundle.control_bound
        assert loaded.provenance == bundle.provenance
        assert loaded.eps_list == bundle.eps_list

    def test_missing_record_is_reported(self, surge_bundle):
        data = bundle_to_dict(surge_bundle[0])
        del data["inward_slack"]
        with pytest.raises(BundleError, match="inward_slack"):
            bundle_from_dict(data)

    def test_invariants_rejected(self, surge_bundle):
        bundle = surge_bundle[0]
        with pytest.raises(BundleError, match="Hölder"):
            dataclasses.replace(bundle, holder_exponent=1.5)
        with pytest.raises(BundleError, match="slack"):
            dataclasses.replace(bundle, inward_slack=0.0)

    @pytest.mark.parametrize(
        "name", ["growth_envelope", "state_lipschitz", "time_drift", "shift_radius", "holder_rate"]
    )
    def test_negative_function_is_rejected(self, surge_bundle, name):
        data = bundle_to_dict(surge_bundle[0])
        data[name]["values"][len(data[name]["values"]) // 2] = -1e-9
        bundle = bundle_from_dict(data)
        with pytest.raises(BundleError, match=f"{name!r} is negative"):
            validate_bundle(bundle)

    def test_reference_growth_invalidates(self, surge_bundle):
        bundle = surge_bundle[0]
        with pytest.raises(BundleError, match="certified for references"):
            validate_bundle(bundle, reference_sup=bundle.reference_sup * 3.0)
