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

import ast
import collections
import dataclasses
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tightpath import (
    BundleError,
    CertificationError,
    ControlSignal,
    InwardPointingError,
    TimeGrid,
    Trajectory,
    bundle_from_dict,
    bundle_to_dict,
    certify_all,
    field_from_config,
    load_bundle,
    motor_scenario,
    save_bundle,
)
from tightpath import dynamics, geometry, hypotheses
from tightpath.cli import load_problem
from tightpath.dynamics import (
    DeclaredRegularity,
    DynamicsModel,
    _identity_transport,
    ball_points,
    drift_budget,
    model_from_config,
    motor_decline,
    motor_surge,
    rhs_batch,
    rhs_outer,
    shift_selection,
)
from tightpath.errors import DomainError, ModelEvaluationError, SelectionError
from tightpath.geometry import unit_ball_complement
from tightpath.hypotheses import (
    COLLAR_ETA_GRID,
    CONTROL_BOUNDS,
    EPS_LIST,
    INCLUSION_GRID_POINTS,
    INWARD_TIE_TOL,
    HypothesisBundle,
    OperatingBox,
    SampledFunction,
    best_inward_candidate,
    certify_inward_pointing,
    certify_lipschitz,
    certify_sublinear,
    certify_time_regularity,
    control_candidates,
    inclusion_margins,
)
from tightpath.propagation import gronwall_radius, integrate
from tightpath.repair import schedule_constants
from tightpath.signals import subsample, trapezoid_prefix, weighted_l2_cost
from test_dynamics import DOUBLE_INTEGRATOR

GRID = TimeGrid.uniform(0.0, 2.0, 400)
BALL = unit_ball_complement(dim=1, box_radius=2.0)
CONTROL_BOX = np.array([[-2.0, 2.0]])


def pure_control_model(power: int = 1) -> DynamicsModel:
    def rhs(t, x, u):
        u = np.asarray(u, dtype=float)
        return u**power + 0.0 * np.asarray(x, dtype=float)

    return DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)


class TestBoxDraws:
    @pytest.mark.parametrize(
        "states",
        [[[-3.2, 3.2]], [[-3.2, 3.2]] * 3, [[-1.0, 2.0], [-1.0, 2.5]], [[0.0, 1.0], [-1.0, 1.0]]],
        ids=["cube-1", "cube-3", "uneven-high", "uneven-low"],
    )
    def test_draws_are_the_column_draws_bitwise(self, states):
        # A box whose axes share one range is drawn from two floats; numpy
        # must give the bits and leave the stream where the columns do.
        box = OperatingBox(np.array(states), np.array([[-1.5, 1.5]]))
        for count in (1, 5, 300):
            ours, theirs = np.random.default_rng(count), np.random.default_rng(count)
            for _ in range(50):
                got = box.sample_states(ours, count)
                want = theirs.uniform(box.states[:, 0], box.states[:, 1], size=got.shape)
                assert got.shape == (count, len(states)) and got.tobytes() == want.tobytes()
                want = theirs.uniform(box.controls[:, 0], box.controls[:, 1], size=(1, 1))
                assert box.sample_controls(ours, 1).tobytes() == want.tobytes()
            assert ours.random() == theirs.random()


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
            assert ratios.max() <= np.interp(t, theta.grid.nodes, theta.values)

    def test_quadratic_field_fails(self):
        box = OperatingBox.from_radii(2.0, 2.0, 1, 1)
        with pytest.raises(CertificationError, match="super-linear"):
            certify_sublinear(pure_control_model(power=2), box, GRID)

    def test_surge_declared_envelope_is_validated_and_returned(self):
        box = OperatingBox.from_radii(3.0, 1.5, 1, 1)
        theta = certify_sublinear(motor_surge(), box, GRID, seed=1)
        assert np.interp(0.3, theta.grid.nodes, theta.values) == pytest.approx(1.2, abs=1e-12)
        assert np.interp(1.5, theta.grid.nodes, theta.values) == pytest.approx(
            1.389207115002721, abs=1e-12
        )

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
            control_bounds=(2.0,), box_radius=2.0, seed=0,
        )
        assert m_u == 2.0
        assert xi >= 0.4

    def test_inactive_constraint_passes_vacuously_at_caps(self):
        slack = field_from_config({"components": ["x1 - 10"], "box": [[-2.0, 2.0]]})
        m_u, m_v, xi, eta = certify_inward_pointing(
            slack, motor_surge(), [0.1], [0.1, 0.3], GRID, box_radius=2.0
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
                position,
                model_from_config(DOUBLE_INTEGRATOR),
                [0.05],
                [0.1, 0.2],
                GRID,
                box_radius=3.0,
                seed=0,
            )
        witness = info.value.witness
        assert witness["x"][1] < 0.0

    def test_margins_are_deterministic(self):
        x = np.array([[1.08]])
        cands = np.linspace(-1.0, 1.0, 9)[:, None]
        first = inclusion_margins(BALL, motor_surge(), 0.05, 0.3, x, cands, 0.4, 2.0)
        second = inclusion_margins(BALL, motor_surge(), 0.05, 0.3, x, cands, 0.4, 2.0)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_tie_break_prefers_smaller_control(self):
        margins = np.array([[1.0, 1.0, 0.5]])
        cands = np.array([[-0.8], [0.2], [0.0]])
        assert best_inward_candidate(margins, cands).tolist() == [1]


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


def margins_at(field, model, eps, t, x, candidates, xi, horizon=2.0):
    """Row 0 of the margins and velocities of the one-row batch holding x."""
    x = np.asarray(x, dtype=float)
    margins, velocities = inclusion_margins(field, model, eps, t, x[None, :], candidates, xi, horizon)
    return margins[0], velocities[0]


def best_of(margins, candidates) -> int:
    """The best candidate of one row of margins."""
    return int(best_inward_candidate(margins[None, :], candidates)[0])


def check_against_unpruned(field, model, eps, t, x, candidates, xi, horizon=2.0) -> int:
    """Assert the pruned search picks the same winner bitwise; returns the
    number of loser margins that came back as bounds rather than exact."""
    x = np.asarray(x, dtype=float)
    margins, velocities = margins_at(field, model, eps, t, x, candidates, xi, horizon)
    ref_margins, ref_velocities = unpruned_margins(field, model, eps, t, x, candidates, xi, horizon)
    best = best_of(margins, candidates)
    assert best == best_of(ref_margins, candidates)
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

        saturating = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        cands = np.array([[1.0], [-0.3], [0.7], [0.5], [-0.5]])
        check_against_unpruned(BALL, saturating, 0.05, 0.4, [1.06], cands, 0.3)
        margins, _ = margins_at(BALL, saturating, 0.05, 0.4, [1.06], cands, 0.3)
        assert best_of(margins, cands) == 3

    def test_near_tie_within_tolerance_stays_exact(self):
        # At v = xi the leader's slack is flat in the push time; the smaller
        # control's slack sinks by under the tie tolerance after the first
        # push. It ties, wins on its norm, and its margin must be exact.
        cands = np.array([[0.3], [0.3 - 1e-13], [0.1]])
        check_against_unpruned(BALL, pure_control_model(), 0.05, 0.4, [1.06], cands, 0.3)
        margins, _ = margins_at(BALL, pure_control_model(), 0.05, 0.4, [1.06], cands, 0.3)
        assert margins[0] > margins[1] >= margins[0] - INWARD_TIE_TOL
        assert best_of(margins, cands) == 1


def check_batch_against_rows(field, model, eps, t, xs, candidates, xi, horizon=2.0):
    """Assert a (P, dim) batch equals each 1-row call bitwise and, where the
    base point is feasible, the unpruned reference; returns the batch."""
    xs = np.asarray(xs, dtype=float)
    margins, velocities = inclusion_margins(field, model, eps, t, xs, candidates, xi, horizon)
    assert margins.shape == (len(xs), len(candidates))
    assert velocities.shape == (len(xs), len(candidates), model.state_dim)
    for row, x in enumerate(xs):
        m, v = margins_at(field, model, eps, t, x, candidates, xi, horizon)
        assert m.tobytes() == margins[row].tobytes()
        assert v.tobytes() == velocities[row].tobytes()
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

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
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

        saturating = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        cands = np.array([[1.0], [-0.3], [0.7], [0.5], [-0.5]])
        margins, _ = check_batch_against_rows(
            BALL, saturating, 0.05, 0.4, [[1.06], [1.2], [1.06]], cands, 0.3
        )
        assert best_of(margins[0], cands) == 3
        cands = np.array([[0.3], [0.3 - 1e-13], [0.1]])
        margins, _ = check_batch_against_rows(
            BALL, pure_control_model(), 0.05, 0.4, [[1.3], [1.06], [1.06]], cands, 0.3
        )
        for row in (1, 2):
            assert margins[row, 0] > margins[row, 1] >= margins[row, 0] - INWARD_TIE_TOL
            assert best_of(margins[row], cands) == 1


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


def counting_queries(run):
    """(result of run(), ``_distances`` calls during it, points they queried)."""
    seen = []
    real = geometry.ConstraintField._distances

    def counted(self, eps, t, points):
        seen.append(len(points))
        return real(self, eps, t, points)

    with mock.patch.object(geometry.ConstraintField, "_distances", counted):
        out = run()
    return out, len(seen), sum(seen)


def check_staged_push(field, model, eps, t, xs, candidates, xi, horizon=2.0):
    """Assert inclusion_margins equals the unstaged push bitwise, margins and
    velocities; returns (margins, points queried, points the reference queried)."""
    xs = np.asarray(xs, dtype=float)

    def run():
        return inclusion_margins(field, model, eps, t, xs, candidates, xi, horizon)

    (margins, velocities), _, points = counting_queries(run)
    with mock.patch.object(hypotheses, "_push_forward_cone", unstaged_push):
        (want_margins, want_velocities), _, want_points = counting_queries(run)
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


def per_time_push(field, eps, t, rows, velocities, margins, xi, delta_cap) -> None:
    """Reference: the staged forward-cone push that pushes the row leaders
    once per later push time, one distance query each."""
    rng = np.random.default_rng(12)
    deltas = np.linspace(0.0, delta_cap, INCLUSION_GRID_POINTS)[1:]
    offsets = ball_points(rng, INCLUSION_GRID_POINTS, field.dim, xi)
    ys = np.concatenate([rows[:, None, :], rows[:, None, :] + offsets[None, :, :]], axis=1)
    base_ok = (field.margin(t, ys.reshape(-1, field.dim), eps) >= 0).reshape(ys.shape[:2])
    margins[~base_ok.any(axis=1)] = -np.inf

    def push(delta, pairs):
        r, c = pairs
        keep = base_ok[r]
        steps = delta * velocities[r, c]
        centers = ys[r] + steps[:, None, :]
        first = np.concatenate(([True], r[1:] != r[:-1]))
        slack = field.ball_slacks(eps, t + delta, centers, delta * xi, keep, first, steps)
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


# Push times after the first: one query for all of them instead of one each.
SAVED_CALLS = INCLUSION_GRID_POINTS - 3


def check_leader_push(field, model, eps, t, xs, candidates, xi, horizon=2.0):
    """Assert inclusion_margins equals the per-time leader push bitwise and
    queries the same points; returns the margins and the number of distance
    calls saved, 0 without leaders and ``SAVED_CALLS`` with them."""
    xs = np.asarray(xs, dtype=float)

    def run():
        return inclusion_margins(field, model, eps, t, xs, candidates, xi, horizon)

    (margins, velocities), calls, points = counting_queries(run)
    with mock.patch.object(hypotheses, "_push_forward_cone", per_time_push):
        (want_margins, want_velocities), want_calls, want_points = counting_queries(run)
    assert margins.tobytes() == want_margins.tobytes()
    assert velocities.tobytes() == want_velocities.tobytes()
    assert points == want_points
    assert want_calls - calls in (0, SAVED_CALLS)
    return margins, want_calls - calls


class TestBatchedLeaderPush:
    """The leaders' later push times in one query, against one query per time."""

    def test_moving_lattice_disk(self):
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
                    _, saved = check_leader_push(MOVING_DISK, PLANAR, eps, t, xs, cands, xi)
                    assert saved == (SAVED_CALLS if t < 2.0 else 0)

    def test_static_lattice_disk(self):
        disk = field_from_config(
            {
                "components": ["1 - sqrt(x1*x1 + x2*x2)"],
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "resolution": 0.025,
            }
        )
        cands = control_candidates(0, 2, 1.0)
        xs = [[1.06, 0.0], [0.6, 0.85], [-0.75, -0.75], [1.3, 0.4]]
        for t in (0.0, 1.5, 2.0):
            for xi in (0.4, 0.1):
                _, saved = check_leader_push(disk, PLANAR, 0.05, t, xs, cands, xi)
                assert saved == (SAVED_CALLS if t < 2.0 else 0)

    def test_unit_ball_complement_in_one_and_two_dimensions(self):
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
                    for oracle in (field, lattice_copy(field)):
                        _, saved = check_leader_push(oracle, model, eps, t, xs, cands, xi)
                        assert saved == (SAVED_CALLS if t < 2.0 else 0)

    def test_rows_without_a_feasible_base_point_stay_minus_inf(self):
        cands = control_candidates(0, 1, 1.0)
        xs = [[1.06], [0.0], [1.3], [0.2]]
        for field in (BALL, lattice_copy(BALL)):
            margins, saved = check_leader_push(field, motor_surge(), 0.05, 0.4, xs, cands, 0.3)
            assert np.all(margins[[1, 3]] == -np.inf)
            assert np.isfinite(margins[[0, 2]]).any()
            assert saved == SAVED_CALLS
        # No row has a feasible base point: there is no leader to push.
        margins, saved = check_leader_push(BALL, motor_surge(), 0.05, 0.4, [[0.0], [0.5]], cands, 0.3)
        assert np.all(margins == -np.inf) and saved == 0

    def test_push_times_with_and_without_a_boundary(self):
        # The disk's radius 1 - 2t leaves the box empty of boundary from
        # t = 0.475 at eps = 0.05: from t = 0.3 with xi = 0.5 the leaders'
        # later push times straddle that time. The origin is infeasible
        # until then.
        shrinking = field_from_config(
            {
                "components": ["1 - 2*t - sqrt(x1*x1 + x2*x2)"],
                "box": [[-2.0, 2.0], [-2.0, 2.0]],
                "time_varying": True,
                "resolution": 0.025,
            }
        )
        cands = control_candidates(0, 2, 1.0)
        xs = [[0.2, 0.1], [0.5, -0.4], [-1.5, 1.0], [0.0, 0.0]]
        for t in (0.3, 0.45, 0.6):
            margins, saved = check_leader_push(shrinking, PLANAR, 0.05, t, xs, cands, 0.5)
            assert saved == SAVED_CALLS
        assert np.all(margins == np.inf)


def scalar_best_inward_candidate(margins, candidates) -> int:
    """Reference: the one-row form, its own tie set and norms per call."""
    top = float(margins.max())
    tied = np.flatnonzero(margins >= top - INWARD_TIE_TOL)
    return int(tied[np.argmin(np.linalg.norm(candidates[tied], axis=1))])


class TestBestInwardCandidateRows:
    """One index per row of a (P, C) margin array, against the one-row form."""

    def check(self, margins, candidates):
        margins = np.asarray(margins, dtype=float)
        best = best_inward_candidate(margins, candidates)
        assert best.shape == (len(margins),)
        for row, index in zip(margins, best):
            assert index == scalar_best_inward_candidate(row, candidates)
            assert best_inward_candidate(row[None, :], candidates).tolist() == [index]
        return best

    def test_exact_ties_go_to_the_smaller_control_then_the_first(self):
        cands = np.array([[-0.8], [0.2], [0.0], [-0.2], [0.0]])
        best = self.check(
            [
                [1.0, 1.0, 0.5, 1.0, 0.5],
                [0.3, 0.3, 0.3, 0.3, 0.3],
                [0.1, 0.2, 0.2 - 1e-13, 0.0, 0.2 - 1e-13],
                [0.1, 0.2, 0.2 - 1e-11, 0.0, 0.2],
            ],
            cands,
        )
        assert best.tolist() == [1, 2, 2, 4]

    def test_rows_of_minus_inf_and_inf(self):
        cands = control_candidates(0, 2, 1.0)
        rng = np.random.default_rng(5)
        margins = rng.choice([-np.inf, -0.1, 0.0, 0.25, np.inf], size=(40, len(cands)))
        margins[0] = -np.inf
        margins[1] = np.inf
        margins[2, ::3] = -np.inf
        best = self.check(margins, cands)
        assert best[0] == best[1] == 0  # the zero control is the smallest

    def test_inward_certificate_rows_are_unchanged(self):
        cands = control_candidates(0, 2, 1.0)
        xs = [
            [0.1 * 0.9 + r * np.cos(angle), r * np.sin(angle)]
            for angle in (0.4, 1.6, 2.9)
            for r in (1.052, 1.08, 1.04, 1.4)
        ]
        margins, _ = inclusion_margins(MOVING_DISK, PLANAR, 0.05, 0.9, np.array(xs), cands, 0.3, 2.0)
        self.check(margins, cands)


def non_broadcasting_model() -> DynamicsModel:
    """A 2-D model whose rhs takes one state at a time: ``rhs_batch`` loops."""

    def rhs(t, x, u):
        if np.ndim(x) != 1:
            raise TypeError("one state at a time")
        return np.array([np.sin(x[1]) * u[0] + 0.3 * x[0], np.cos(t + x[0]) - u[0] * x[1]])

    return DynamicsModel(state_dim=2, control_dim=1, rhs=rhs)


PLANAR_DRIFT = model_from_config(
    {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["sin(x2)*u1 + 0.5*x1 + t", "cos(x1) - u2*x2 + arctan(x1*x2)"],
    }
)


# Python's ** on a float time and numpy's on row times differ by an ulp on
# some inputs; the rows of each time must read as at a float time.
TIME_POWER_DRIFT = model_from_config(
    {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["x1*(t + 0.5)**0.25 + u1", "u2*x2 - (3*t + 1)**1.5 + 2**t"],
    }
)


def envelope_raw(certify, *args, **kwargs) -> np.ndarray:
    """The per-node sampled maxima a certifier hands to ``_envelope``."""
    seen = []
    real = hypotheses._envelope

    def capture(name, time_grid, raw, declared, undershoot):
        seen.append(np.array(raw))
        return real(name, time_grid, raw, declared, undershoot)

    with mock.patch.object(hypotheses, "_envelope", capture):
        certify(*args, **kwargs)
    return seen[0]


def per_node_lipschitz_raw(model, radius_R, control_box, time_grid, n_samples, seed):
    """Reference: four ``rhs_batch`` calls per node, one per separation and
    one for the base points, and one quotient norm per separation."""
    rng = np.random.default_rng(seed)
    control_box = np.asarray(control_box, dtype=float)
    n = model.state_dim
    base = ball_points(rng, n_samples, n, radius_R)
    controls = rng.uniform(
        control_box[:, 0], control_box[:, 1], size=(n_samples, control_box.shape[0])
    )
    directions = rng.standard_normal((n_samples, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    raw = np.empty(len(time_grid.nodes))
    for k, t in enumerate(time_grid.nodes):
        fa = rhs_batch(model, float(t), base, controls)
        quotients = []
        for sep in (0.4 * radius_R, 1e-2 * radius_R, 1e-4 * radius_R):
            fb = rhs_batch(model, float(t), base + sep * directions, controls)
            quotients.append(float((np.linalg.norm(fa - fb, axis=1) / sep).max()))
        raw[k] = max(quotients)
    return raw


def per_node_ratio_max(model, t, states, controls) -> float:
    """Reference: the growth ratio's scale recomputed on every call."""
    values = rhs_batch(model, t, states, controls)
    scale = 1.0 + np.linalg.norm(states, axis=1) + np.linalg.norm(controls, axis=1)
    return float((np.linalg.norm(values, axis=1) / scale).max())


def per_node_sublinear_raw(model, box, time_grid, n_samples, seed):
    rng = np.random.default_rng(seed)
    states = box.sample_states(rng, n_samples)
    controls = box.sample_controls(rng, n_samples)
    return np.array([per_node_ratio_max(model, t, states, controls) for t in time_grid.nodes])


# A control-affine field with two controls whose gain reads t: the gain is
# (nodes, rows, 2, 2) and the control (1, rows, 2) in the node x row call.
TIME_GAIN_AFFINE = model_from_config(
    {
        "model": "control_affine",
        "state_dim": 2,
        "control_dim": 2,
        "drift": ["sin(x2) + 0.1*t", "cos(x1)*x2"],
        "gain": [["1 + 0.5*sin(t)", "x1"], [0.3, "cos(2*t)*x2"]],
    }
)


def autonomous_model() -> DynamicsModel:
    """A 2-D field that never reads t: the node x row call returns (1, rows, 2)."""

    def rhs(t, x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        first = np.sin(x[..., 1]) * u[..., 0]
        return np.stack([first, np.cos(x[..., 0]) - u[..., 0] * x[..., 1]], axis=-1)

    return DynamicsModel(state_dim=2, control_dim=1, rhs=rhs)


def axis_one_model(scale) -> DynamicsModel:
    """A 2-D field right under the one-axis contract, where axis 1 is the
    state axis, and wrong in the node x row call, where it is the sample
    axis; its shape is right there, so only the check finds it. The wrong
    term is scaled by scale(t): sin(t) is 0 at the first node of a grid
    from 0, and t(2 - t) also at the last node of a grid to 2."""

    def rhs(t, x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        factor = np.asarray(scale(np.asarray(t, dtype=float)))[..., None]
        return 0.5 * x + factor * np.sum(x, axis=1, keepdims=True) * u[..., :1]

    return DynamicsModel(state_dim=2, control_dim=1, rhs=rhs)


BATCHED_MODELS = [
    pytest.param(motor_decline(), 1, id="motor_decline-"),
    pytest.param(motor_surge(), 1, id="motor_surge-"),
    pytest.param(PLANAR_DRIFT, 2, id="expression-"),
    pytest.param(TIME_POWER_DRIFT, 2, id="expression-time-power-"),
    pytest.param(TIME_GAIN_AFFINE, 2, id="control-affine-time-gain-"),
    pytest.param(autonomous_model(), 1, id="autonomous-"),
    pytest.param(axis_one_model(np.sin), 1, id="axis-one-"),
    pytest.param(axis_one_model(lambda t: t * (2.0 - t)), 1, id="axis-one-inner-"),
    pytest.param(non_broadcasting_model(), 1, id="per-row-"),
]


@pytest.mark.float_path
class TestBatchedSampleLoops:
    """The certifiers' node x row calls against the per-node loops."""

    SMALL_GRID = TimeGrid.uniform(0.0, 2.0, 40)

    @pytest.mark.parametrize("model, m", BATCHED_MODELS)
    def test_lipschitz_raw_is_bitwise(self, model, m):
        box = np.tile([-1.5, 1.5], (m, 1))
        for radius, n_samples, seed in ((2.5, 64, 0), (0.7, 33, 4)):
            got = envelope_raw(
                certify_lipschitz, model, radius, box, self.SMALL_GRID, n_samples=n_samples, seed=seed
            )
            want = per_node_lipschitz_raw(model, radius, box, self.SMALL_GRID, n_samples, seed)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model, m", BATCHED_MODELS)
    def test_sublinear_raw_is_bitwise(self, model, m):
        # 300 samples split the 41 nodes into two chunks.
        for n_samples, seed in ((64, 0), (33, 4), (300, 1)):
            box = OperatingBox.from_radii(2.5, 1.5, model.state_dim, m)
            got = envelope_raw(
                certify_sublinear, model, box, self.SMALL_GRID, n_samples=n_samples, seed=seed
            )
            want = per_node_sublinear_raw(model, box, self.SMALL_GRID, n_samples, seed)
            assert got.tobytes() == want.tobytes()

    def test_superlinear_probe_witness_is_bitwise(self):
        box = OperatingBox.from_radii(2.0, 2.0, 1, 1)
        model = pure_control_model(power=2)
        with pytest.raises(CertificationError, match="super-linear") as info:
            certify_sublinear(model, box, self.SMALL_GRID, n_samples=50, seed=2)
        rng = np.random.default_rng(2)
        states, controls = box.sample_states(rng, 50), box.sample_controls(rng, 50)
        nodes = self.SMALL_GRID.nodes
        probe_times = nodes[:: max(1, nodes.size // 8)]
        growth = np.array(
            [
                per_node_ratio_max(model, t, states, 8.0 * controls)
                / max(per_node_ratio_max(model, t, states, 4.0 * controls), 1e-12)
                for t in probe_times
            ]
        )
        j = int(np.argmax(growth))
        assert info.value.witness == {"t": float(probe_times[j]), "ratio_growth": float(growth[j])}

    @pytest.mark.parametrize("certify", ["lipschitz", "sublinear"])
    @pytest.mark.parametrize("bad", [3, 33], ids=["first-chunk", "later-chunk"])
    def test_failing_node_keeps_its_message(self, certify, bad):
        # 300 samples make chunks of 6 nodes in the Lipschitz loop and of 27
        # in the growth loop; the zoom probe's times (every 10th node) and
        # the super-linear probe, which runs after the loop, miss both nodes.
        t_bad = float(self.SMALL_GRID.nodes[bad])

        def rhs(t, x, u):
            if np.any(np.asarray(t) == t_bad):
                raise ModelEvaluationError(f"no field at t={t!r}")
            return np.sin(np.asarray(x, dtype=float)) * np.asarray(u, dtype=float) + t

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        message = f"^no field at t={t_bad!r}$"
        with pytest.raises(ModelEvaluationError, match=message):
            if certify == "lipschitz":
                certify_lipschitz(model, 1.0, CONTROL_BOX, self.SMALL_GRID, n_samples=300)
            else:
                box = OperatingBox.from_radii(1.0, 1.0, 1, 1)
                certify_sublinear(model, box, self.SMALL_GRID, n_samples=300)

    def test_the_check_reaches_every_sample(self):
        # Three nodes and ten samples: the samples taken in turn are the
        # first three, so only the check's every sample at the last node
        # meets the wrong term, which sums over the samples where x > 5.
        def rhs(t, x, u):
            x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
            wrong = np.where(x > 5.0, np.sum(x, axis=1, keepdims=True), 0.0)
            return x * u + np.asarray(t, dtype=float)[..., None] * wrong

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        times, x, u = np.array([0.5, 1.0, 1.5]), np.arange(10.0)[:, None], np.full((10, 1), 0.5)
        got = rhs_outer(model, times, x, u, lambda f: f.max(axis=(1, 2)))
        want = [rhs_batch(model, float(t), x, u).max() for t in times]
        assert got.tobytes() == np.array(want).tobytes()

    def test_one_rhs_call_per_chunk_of_nodes(self):
        calls = []

        def rhs(t, x, u):
            calls.append((np.shape(x), np.array(t, dtype=float)))
            return np.sin(np.asarray(x, dtype=float)) * np.asarray(u, dtype=float)

        def chunked(times, rows):
            """(shape, times) of each call over ``times`` at ``rows`` rows per
            node: first the check's plain call, one row at each time and
            every row at the last time, then one node x row call per chunk,
            with the times as a column."""
            per = dynamics._CHUNK_ROWS // rows
            parts = np.split(times, np.arange(per, len(times), per))
            first = ((len(times) + rows, 1), np.concatenate([times, np.full(rows, times[-1])]))
            return [first] + [((1, rows, 1), part[:, None]) for part in parts]

        def check(want):
            assert [shape for shape, _ in calls] == [shape for shape, _ in want]
            for (_, t), (_, want_t) in zip(calls, want):
                assert t.shape == want_t.shape and t.tobytes() == want_t.tobytes()
            calls.clear()

        model = DynamicsModel(state_dim=1, control_dim=1, rhs=rhs)
        nodes = self.SMALL_GRID.nodes
        certify_lipschitz(model, 1.0, CONTROL_BOX, self.SMALL_GRID, n_samples=32)
        # The zoom probe makes two calls per separation at each probe time,
        # at that one time. Then the 4 x 32 stacked rows of all 41 nodes
        # take the check's call of 41 + 128 rows and one call of 41 x 128
        # node-row pairs.
        zoom = [((32, 1), np.array(t)) for t in nodes[:: max(1, nodes.size // 4)] for _ in range(8)]
        want = zoom + chunked(nodes, 4 * 32)
        assert [t.shape for _, t in want[len(zoom) :]] == [(169,), (41, 1)]
        check(want)
        certify_sublinear(model, OperatingBox.from_radii(1.0, 1.0, 1, 1), self.SMALL_GRID)
        # 256 samples: 32 nodes per call, then the super-linear probe's 9
        # times in one call per control box, each after its check.
        probes = nodes[:: max(1, nodes.size // 8)]
        want = chunked(nodes, 256) + 2 * chunked(probes, 256)
        shapes = [(297,), (32, 1), (9, 1), (265,), (9, 1), (265,), (9, 1)]
        assert [t.shape for _, t in want] == shapes
        check(want)


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


# The moving disk's certified velocity bound: 1 + 2**-52, one ulp above the
# control bound 1.0 (see TestPinnedInwardCertificate.test_benchmark_config).
MOVING_DISK_VELOCITY = 1.0000000000000002
assert MOVING_DISK_VELOCITY == 1.0 + 2.0**-52


class TestPinnedInwardCertificate:
    """certify_inward_pointing on the benchmark's gated configs returns the
    tuples the one-point-per-call search returned."""

    @pytest.mark.parametrize(
        "config, bounds, seed, expected",
        [
            (_decline_config(), None, 1, (2.0, 1.2053846667889647, 0.5, 0.4)),
            (_decline_config(), (0.5, 1.0), 1, (1.0, 0.8836341123923226, 0.3, 0.4)),
            # Re-pinned when the search began trying u* = -M·Bᵀn/|Bᵀn| first.
            # The rhs ["u1", "u2"] has B = I, so a collar point won by u*
            # moves at |u*| = M = 1 up to rounding, and the largest of
            # those speeds is 1 + 2**-52: that is the new velocity bound,
            # where the largest winning sampled candidate had norm
            # 0.9995128224910061. The bound 1.0, the slack 0.5 and the
            # width 0.4 did not change.
            (_moving_disk_config(), None, 0, (1.0, MOVING_DISK_VELOCITY, 0.5, 0.4)),
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

        result, _, points = counting_queries(run)
        # Re-pinned with the closed-form control: see test_benchmark_config.
        assert result == (1.0, MOVING_DISK_VELOCITY, 0.5, 0.4)
        assert points <= 0.35 * 1_929_834


def test_forward_cone_offsets_are_drawn_once_and_read_only():
    offsets = hypotheses._cone_offsets(2, 0.3)
    fresh = ball_points(np.random.default_rng(12), INCLUSION_GRID_POINTS, 2, 0.3)
    assert offsets.tobytes() == fresh.tobytes() and not offsets.flags.writeable
    assert hypotheses._cone_offsets(2, 0.3) is offsets


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
        # Re-pinned with the closed-form control: see
        # TestPinnedInwardCertificate.test_benchmark_config.
        assert result == (1.0, MOVING_DISK_VELOCITY, 0.5, 0.4)
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
        assert len(shrinking.collar_points(0.1, 0.0, 0.4, 16, rng, 2.0)[0]) > 0
        for field, t in ((shrinking, 1.0), (wide, 0.0)):
            collar, depths = field.collar_points(0.1, t, 0.4, 16, rng, 2.0)
            assert collar.shape == (0, 1) and depths.shape == (0,)

    @pytest.mark.parametrize("config", [_decline_config(), _moving_disk_config()])
    def test_keys_drawn_together_get_what_each_gets_alone(self, config):
        # One batched bisection for all keys: each key's points and depths,
        # and the stream left behind, are bitwise those of drawing the keys
        # one by one, across two tightenings too.
        model, field, xbar, ubar = load_problem(config)
        box_radius = 1.0 + 2.0 * xbar.max_norm()
        keys = [(0.05, t) for t in (0.0, 0.35, 0.7, 1.4)] + [(0.2, 1.9)]
        together, alone = np.random.default_rng(3), np.random.default_rng(3)
        drawn = field.collar_sets(keys, 0.4, 16, together, box_radius)
        for (eps, t), (pts, depths) in zip(keys, drawn):
            want_pts, want_depths = field.collar_points(eps, t, 0.4, 16, alone, box_radius)
            assert pts.tobytes() == want_pts.tobytes() and len(pts)
            assert depths.tobytes() == want_depths.tobytes()
        assert together.random() == alone.random()

    @pytest.mark.parametrize("config", [_decline_config(), _moving_disk_config()])
    def test_depths_are_the_boundary_distances_of_the_points(self, config):
        # The depths filter the collar, then rank it against each eta: they
        # must be bitwise what a query of the returned points gives.
        model, field, xbar, ubar = load_problem(config)
        rng = np.random.default_rng(0)
        box_radius = 1.0 + 2.0 * xbar.max_norm()
        for t in (0.0, 0.7):
            pts, depths = field.collar_points(0.05, t, 0.4, 16, rng, box_radius)
            assert len(pts) and depths.shape == (len(pts),)
            assert depths.tobytes() == field._distances(0.05, t, pts)[1].tobytes()
            assert (depths <= 0.4 * (1 + 1e-9)).all()


def constant_control(value: float) -> ControlSignal:
    """The one-control signal holding ``value`` at every node of GRID."""
    return ControlSignal(GRID, np.full((len(GRID), 1), value))


class TestTimeRegularity:
    def test_time_invariant_model_is_all_zero(self):
        box = OperatingBox.from_radii(2.0, 1.0, 2, 1)
        gamma, beta_u, alpha, ku = certify_time_regularity(
            model_from_config(DOUBLE_INTEGRATOR), constant_control(0.0), box, GRID,
            control_bound=1.0,
        )
        assert gamma.values.max() == 0.0
        assert beta_u.values.max() == 0.0
        assert alpha == 1.0
        assert ku.values.max() == 0.0

    def test_surge_holder_data(self):
        box = OperatingBox.from_radii(2.0, 1.3, 1, 1)
        ubar = constant_control(0.3)
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
        ubar = constant_control(0.45)
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
        ubar = constant_control(0.45)
        with pytest.raises(CertificationError, match="exceeds the declared budget") as info:
            certify_time_regularity(starved, ubar, box, GRID, control_bound=1.0, seed=0)
        assert info.value.witness["t"] > info.value.witness["s"]


def per_sample_time_regularity(model, ubar, box, time_grid, control_bound, seed=0):
    """Reference: certify_time_regularity as it was before each base
    node's samples shared two model calls, with two single-state calls and
    their checks per sample, one sample at a time."""
    rng = np.random.default_rng(seed)
    sub = TimeGrid(subsample(time_grid.nodes, hypotheses.TIME_REGULARITY_NODES))
    horizon = float(time_grid.t1)
    meta = model.metadata
    slack = hypotheses._VALIDATE_SLACK

    def control_radius(s):
        return control_bound + float(np.linalg.norm(ubar.eval(s)))

    beta_vals, drift_quot, holder_quot = np.zeros((3, len(sub)))
    for i, s in enumerate(sub.nodes):
        s = float(s)
        if s >= horizon:
            continue
        radius = control_radius(s)
        for _ in range(hypotheses.TIME_REGULARITY_SAMPLES):
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
            witness = {"s": s, "t": t, "x": x.copy(), "u": u_s.copy()}
            if budget is not None:
                if residual > budget * slack + 1e-9:
                    raise CertificationError("drift", witness=witness)
            elif t - s <= 4 * sub.step:
                drift_quot[i] = max(drift_quot[i], residual / (t - s))
            if meta.holder_exponent is not None:
                rate = float(meta.holder_rate_scale(s))
                if np.isfinite(rate):
                    cap = (t - s) ** meta.holder_exponent * rate * radius
                    if moved > cap * slack + 1e-12:
                        raise CertificationError("holder", witness=witness)
            else:
                holder_quot[i] = max(holder_quot[i], moved / (t - s))
        if meta.shift_radius_scale is not None:
            if beta_vals[i] > float(meta.shift_radius_scale(s)) * radius * slack + 1e-12:
                raise CertificationError("radius", witness={"s": s})
    if meta.time_drift is not None:
        nodes = time_grid.nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.array([float(meta.time_drift(t)) for t in nodes])
        vals[~np.isfinite(vals)] = 0.0
        for sigma in model.time_breakpoints:
            j = int(np.searchsorted(nodes, sigma))
            for i in range(max(j - 2, 0), min(j + 2, len(nodes) - 1)):
                a, b = float(nodes[i]), float(nodes[i + 1])
                budget = drift_budget(model, a, b)
                if budget > 0.5 * (vals[i] + vals[i + 1]) * (b - a):
                    grow = i + 1 if abs(b - sigma) >= abs(a - sigma) else i
                    other = i if grow == i + 1 else i + 1
                    vals[grow] = 2.0 * budget / (b - a) - vals[other]
    else:
        vals = np.interp(time_grid.nodes, sub.nodes, hypotheses._SAFETY * drift_quot)
    if meta.holder_exponent is None:
        return vals, beta_vals, 1.0, hypotheses._SAFETY * holder_quot
    rates = np.array(
        [float(meta.holder_rate_scale(s)) * control_radius(float(s)) for s in sub.nodes]
    )
    for i, s in enumerate(sub.nodes):
        if not np.isfinite(rates[i]):
            half = float(meta.holder_rate_scale(float(s) + 0.5 * sub.step))
            rates[i] = half * control_radius(float(s))
    return vals, beta_vals, float(meta.holder_exponent), rates


def hooked_model(rhs, hook, state_dim=1, control_dim=1, **regularity) -> DynamicsModel:
    return DynamicsModel(
        state_dim=state_dim,
        control_dim=control_dim,
        rhs=rhs,
        shift_hook=hook,
        metadata=DeclaredRegularity(**regularity),
    )


def late_failing_rhs(t, x, u):
    """u + t, or ModelEvaluationError naming the latest time past 1.7 it
    was asked for: a batch names another time than its first late row."""
    late = np.asarray(t, dtype=float) > 1.7
    if late.any():
        raise ModelEvaluationError(f"no field at t={float(np.max(np.asarray(t)[late]))}")
    column = np.reshape(t, np.shape(t) + (1,) * (np.ndim(u) - np.ndim(t)))
    return np.asarray(u, dtype=float) + column


class TestTwoCallsPerBaseNode:
    """certify_time_regularity against the per-sample loop it replaced."""

    SMALL_GRID = TimeGrid.uniform(0.0, 2.0, 40)

    MODELS = {
        "motor_decline": (motor_decline(), 1),
        "motor_surge": (motor_surge(), 1),
        "expression-reads-t": (
            model_from_config(
                {
                    "model": "expression",
                    "state_dim": 2,
                    "control_dim": 2,
                    "rhs": ["sin(x2)*u1 + 0.5*x1 + t", "cos(3*t)*u2 - x1*(t + 1)**0.25"],
                    "shift_radius": 0.5,
                }
            ),
            2,
        ),
        "control-affine-reads-t": (
            model_from_config(
                {**DOUBLE_INTEGRATOR, "drift": ["x2", "0.05*sin(3*t)"], "shift_radius": 0.5}
            ),
            1,
        ),
        "per-row": (
            dataclasses.replace(non_broadcasting_model(), shift_hook=_identity_transport),
            1,
        ),
    }

    def run_both(self, model, m, **kwargs):
        grid = self.SMALL_GRID
        ubar = ControlSignal(grid, np.full((len(grid), m), 0.3))
        box = OperatingBox.from_radii(2.0, 1.3, model.state_dim, m)
        args = (model, ubar, box, grid, 1.0)
        outcomes = []
        for certify in (certify_time_regularity, per_sample_time_regularity):
            try:
                outcomes.append(certify(*args, **kwargs))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_certificate_is_bitwise(self, name):
        model, m = self.MODELS[name]
        for seed in (0, 3):
            (gamma, beta_u, alpha, ku), want = self.run_both(model, m, seed=seed)
            got = (gamma.values, beta_u.values, alpha, ku.values)
            assert got[2] == want[2]
            for a, b in zip(got[:2] + got[3:], want[:2] + want[3:]):
                assert a.tobytes() == b.tobytes(), name

    def test_two_model_calls_per_base_node(self):
        calls = []

        def rhs(t, x, u):
            calls.append(np.shape(t))
            return np.asarray(u, dtype=float) * np.cos(np.asarray(x, dtype=float))

        model = hooked_model(rhs, _identity_transport)
        self.run_both(model, 1)
        # 40 base nodes before the horizon, one call at s and one with
        # 24 row times each; then the reference's two calls per sample.
        assert calls == [(), (24,)] * 40 + [()] * 2 * 24 * 40

    def test_first_budget_witness_is_the_per_sample_one(self):
        base = motor_decline()
        starved = dataclasses.replace(
            base,
            metadata=dataclasses.replace(
                base.metadata,
                drift_integral=lambda s, t: 0.1 * base.metadata.drift_integral(s, t),
            ),
        )
        got, want = self.run_both(starved, 1, seed=0)
        assert isinstance(got, CertificationError) and isinstance(want, CertificationError)
        assert "exceeds the declared budget" in str(got) and str(want) == "drift"
        assert got.witness.keys() == want.witness.keys()
        for key in got.witness:
            assert np.asarray(got.witness[key]).tobytes() == np.asarray(want.witness[key]).tobytes()

    def test_a_raising_call_reports_the_first_error_in_sample_order(self):
        # The first base node draws samples past t = 1.7, where the field
        # raises. Alone, the first of them raises; under a Hölder rate that
        # the node's first sample breaks, that check comes first.
        def shifting(s, t, x, u_s):
            return np.asarray(u_s, dtype=float) + (t - s)

        got, want = self.run_both(hooked_model(late_failing_rhs, _identity_transport), 1)
        assert isinstance(got, ModelEvaluationError) and str(got) == str(want)
        strict = {"holder_exponent": 1.0, "holder_rate_scale": lambda s: 0.01}
        got, want = self.run_both(hooked_model(late_failing_rhs, shifting, **strict), 1)
        assert isinstance(got, CertificationError) and "Hölder" in str(got)
        assert str(want) == "holder" and got.witness["t"] == want.witness["t"]

    def test_a_failed_transport_waits_for_the_checks_before_it(self):
        def counting_hook():
            seen = []

            def hook(s, t, x, u_s):
                seen.append(t)
                if len(seen) == 3:
                    raise SelectionError("third transport")
                return np.asarray(u_s, dtype=float) + (t - s)

            return hook

        def model():
            # The hook moves u by t - s, which the declared Hölder rate
            # 0.01 forbids at the first sample.
            return hooked_model(
                lambda t, x, u: np.asarray(u, dtype=float),
                counting_hook(),
                holder_exponent=1.0,
                holder_rate_scale=lambda s: 0.01,
            )

        grid = self.SMALL_GRID
        ubar = ControlSignal(grid, np.full((len(grid), 1), 0.3))
        box = OperatingBox.from_radii(2.0, 1.3, 1, 1)
        with pytest.raises(CertificationError, match="Hölder") as got:
            certify_time_regularity(model(), ubar, box, grid, 1.0)
        with pytest.raises(CertificationError, match="holder") as want:
            per_sample_time_regularity(model(), ubar, box, grid, 1.0)
        assert got.value.witness["t"] == want.value.witness["t"]


class TestSampledFunction:
    def test_trapezoid_quadrature_oracle(self):
        fn = SampledFunction(TimeGrid(np.array([0.0, 1.0, 2.0])), np.array([0.0, 1.0, 2.0]))
        assert fn.l1() == pytest.approx(2.0, abs=1e-15)
        assert fn.l2() == pytest.approx(np.sqrt(3.0), rel=1e-15)
        assert np.interp(0.5, fn.grid.nodes, fn.values) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_non_finite_and_misshapen(self):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(Exception):
            SampledFunction(grid, np.array([0.0, np.inf, 1.0]))
        with pytest.raises(Exception):
            SampledFunction(grid, np.array([1.0, 2.0]))

    def test_a_non_finite_value_names_its_first_node(self):
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        with pytest.raises(DomainError, match=r"got nan at t=0\.5$"):
            SampledFunction(grid, np.array([0.0, 1.0, np.nan, np.inf, 2.0]))
        # A bundle function is named.
        with pytest.raises(DomainError, match=r"^bundle function 'holder_rate' .* got inf at t=0\.25$"):
            SampledFunction(grid, np.array([0.0, np.inf, 1.0, 1.0, 1.0]), "holder_rate")


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
        # Construction is the completeness gate: the bundle builds again.
        dataclasses.replace(bundle)

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

    def test_bundle_roundtrip_is_exact(self, surge_bundle, tmp_path):
        bundle = surge_bundle[0]
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        assert np.array_equal(loaded.growth_envelope.values, bundle.growth_envelope.values)
        assert np.array_equal(loaded.holder_rate.values, bundle.holder_rate.values)
        assert loaded.control_bound == bundle.control_bound
        assert loaded.provenance == bundle.provenance

    def test_the_tightening_grid_is_written_and_not_read(self, surge_bundle, tmp_path):
        # Bundles written before the grid moved into the certification
        # block carry it at the top level, where nothing reads it.
        bundle = surge_bundle[0]
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        record = json.loads(path.read_text())
        assert "eps_list" not in record
        assert record["certification"]["eps_list"] == list(hypotheses.EPS_LIST)
        old = {**record, "eps_list": [0.05, 0.1, 0.2]}
        assert bundle_to_dict(bundle_from_dict(old)) == bundle_to_dict(bundle)

    def test_every_bundle_field_but_holder_rate_has_a_reader(self):
        # A field that neither repair.py nor cli.py reads, as bundle.<field>
        # or as a string naming it, is dead weight in every bundle.json.
        # holder_rate waits for its wiring into the schedule; once it has a
        # reader, this set is empty.
        package = Path(hypotheses.__file__).parent
        read = set()
        for name in ("repair.py", "cli.py"):
            for node in ast.walk(ast.parse((package / name).read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id == "bundle":
                        read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
        fields = {f.name for f in dataclasses.fields(HypothesisBundle)}
        assert fields - read == {"holder_rate"}

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
        with pytest.raises(BundleError, match="'window_cap' must be finite"):
            dataclasses.replace(bundle, window_cap=np.inf)
        with pytest.raises(BundleError, match="sampled function 'holder_rate'"):
            dataclasses.replace(bundle, holder_rate=None)
        with pytest.raises(BundleError, match="boundary drift table"):
            dataclasses.replace(bundle, boundary_drift=None)

    @pytest.mark.parametrize(
        "name", ["growth_envelope", "state_lipschitz", "time_drift", "shift_radius", "holder_rate"]
    )
    def test_negative_function_is_rejected(self, surge_bundle, name):
        data = bundle_to_dict(surge_bundle[0])
        data[name]["values"][len(data[name]["values"]) // 2] = -1e-9
        with pytest.raises(BundleError, match=f"{name!r} is negative"):
            bundle_from_dict(data)

    def test_reference_growth_invalidates(self, surge_bundle):
        bundle, ubar, xbar = surge_bundle
        grown = Trajectory(xbar.grid, 3.0 * xbar.states)
        with pytest.raises(BundleError, match="certified for references"):
            schedule_constants(bundle, BALL, grown, ubar, 0.1)
