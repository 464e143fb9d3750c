"""Integrator and envelope-radius tests.

The motor endpoint oracle 1.4366352816953678 was computed independently
of the integrator under test: the smooth phase on [0, 1] ran through an
adaptive solver at rtol 1e-12, and the singular phase on [1, 2] was
first regularized by the substitution t = 1 + tau^4, which turns
x' = 0.2 cos(x) + 0.5 (t-1)^(-1/4) into the polynomial-coefficient
equation dx/dtau = 0.8 tau^3 cos(x) + 2 tau^2 on tau in [0, 1].
"""

import numpy as np
import pytest

from tightpath.dynamics import DynamicsModel, control_affine, motor_decline, motor_surge
from tightpath.errors import AccuracyError, DomainError, PropagationError, ShapeError
from tightpath.propagation import IntegratorConfig, gronwall_radius, integrate
from tightpath.signals import ControlSignal, TimeGrid

SURGE_ENDPOINT_ORACLE = 1.4366352816953678


def constant_control(value, t0=0.0, t1=1.0, dim=1):
    grid = TimeGrid(np.array([t0, t1]))
    return ControlSignal(grid, np.tile(np.atleast_1d(value), (2, 1)).reshape(2, dim))


def scalar_affine(drift_fn, lipschitz=None):
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return drift_fn(t, x)

    def gain(t, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (1, 1))

    return control_affine(drift, gain, 1, 1)


class TestIntegrate:
    def test_zero_field_is_constant(self):
        model = DynamicsModel(state_dim=1, control_dim=1, rhs=lambda t, x, u: np.zeros(1))
        traj = integrate(
            model, constant_control(0.0), [0.7], (0.0, 1.0), IntegratorConfig(step=0.1)
        )
        assert np.all(traj.states == 0.7)

    def test_pure_control_integral_is_exact(self):
        model = scalar_affine(lambda t, x: np.zeros(x.shape[:-1] + (1,)))
        cfg = IntegratorConfig(step=1.0 / 1024.0, richardson_check=False)
        traj = integrate(model, constant_control(1.0), [0.0], (0.0, 1.0), cfg)
        # Dyadic steps accumulate without rounding: the endpoint is exact.
        assert traj.states[-1, 0] == 1.0

    def test_surge_endpoint_matches_fine_step_oracle(self):
        model = motor_surge()
        u = constant_control(0.5, 0.0, 2.0)
        coarse = integrate(
            model, u, [0.0], (0.0, 2.0), IntegratorConfig(step=1e-3, richardson_check=False)
        )
        fine = integrate(
            model, u, [0.0], (0.0, 2.0), IntegratorConfig(step=1e-4, richardson_check=False)
        )
        assert abs(coarse.states[-1, 0] - fine.states[-1, 0]) <= 1e-6
        assert coarse.states[-1, 0] == pytest.approx(SURGE_ENDPOINT_ORACLE, abs=1e-6)
        assert fine.states[-1, 0] == pytest.approx(SURGE_ENDPOINT_ORACLE, abs=1e-6)

    def test_model_breakpoint_becomes_node(self):
        model = motor_surge()
        grid = TimeGrid.uniform(0.0, 2.0, 3)  # nodes miss t = 1
        u = ControlSignal(grid, np.full((4, 1), 0.2))
        cfg = IntegratorConfig(step=0.05, richardson_check=False)
        traj = integrate(model, u, [0.0], (0.0, 2.0), cfg)
        assert 1.0 in traj.grid.nodes

    def test_control_jump_never_straddled(self):
        model = scalar_affine(lambda t, x: np.zeros(x.shape[:-1] + (1,)))
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        u = ControlSignal(grid, np.array([[0.0], [1.0], [1.0]]))
        # 0.3 does not divide 0.5: the spans must still align to the jump.
        cfg = IntegratorConfig(step=0.3, richardson_check=False)
        traj = integrate(model, u, [0.0], (0.0, 1.0), cfg)
        assert 0.5 in traj.grid.nodes
        assert traj.states[-1, 0] == 0.5

    def test_richardson_passes_on_smooth_field(self):
        model = scalar_affine(lambda t, x: -x)
        cfg = IntegratorConfig(step=0.01, richardson_check=True, tolerance=1e-8)
        traj = integrate(model, constant_control(0.0), [1.0], (0.0, 1.0), cfg)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_richardson_flags_unstable_step(self):
        model = scalar_affine(lambda t, x: -50.0 * x)
        cfg = IntegratorConfig(step=0.1, richardson_check=True, tolerance=1e-6)
        with pytest.raises(AccuracyError):
            integrate(model, constant_control(0.0), [1.0], (0.0, 1.0), cfg)

    def test_blowup_reports_first_bad_node(self):
        model = scalar_affine(lambda t, x: x * x)
        cfg = IntegratorConfig(step=0.01, richardson_check=False)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PropagationError) as err:
                integrate(model, constant_control(0.0), [1.5], (0.0, 1.0), cfg)
        assert err.value.t is not None
        assert 0.0 < err.value.t <= 1.0

    def test_halving_step_cuts_endpoint_error_eightfold(self):
        model = scalar_affine(lambda t, x: -x)
        u = constant_control(0.0)
        errors = []
        for step in (0.1, 0.05):
            cfg = IntegratorConfig(step=step, richardson_check=False)
            traj = integrate(model, u, [1.0], (0.0, 1.0), cfg)
            errors.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        assert errors[0] / errors[1] >= 8.0

    def test_window_and_shape_validation(self):
        model = motor_surge()
        u = constant_control(0.0, 0.0, 1.0)
        cfg = IntegratorConfig(step=0.1)
        with pytest.raises(DomainError):
            integrate(model, u, [0.0], (0.0, 2.0), cfg)
        with pytest.raises(DomainError):
            integrate(model, u, [0.0], (0.5, 0.5), cfg)
        with pytest.raises(ShapeError):
            integrate(model, u, [0.0, 0.0], (0.0, 1.0), cfg)
        with pytest.raises(DomainError):
            integrate(model, u, [np.nan], (0.0, 1.0), cfg)
        wide = ControlSignal(TimeGrid(np.array([0.0, 1.0])), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            integrate(model, wide, [0.0], (0.0, 1.0), cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(step=0.0)
        with pytest.raises(DomainError):
            IntegratorConfig(tolerance=-1.0)


class TestGronwallRadius:
    def test_zero_envelope(self):
        assert gronwall_radius(0.0, 0.0, 2.5, 1.0, 3.0, 0.5) == pytest.approx(3.5)

    def test_unit_inputs_frozen(self):
        got = gronwall_radius(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert got == pytest.approx(13.591409142295225, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            gronwall_radius(-0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
