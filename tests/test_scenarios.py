"""Boundary-tracking scenario tests.

Oracle facts, computed independently of the builder:

* The target path starts at 1.08, descends to 1 + clearance over
  [0.2, 0.75], holds through the actuator breakpoint, then climbs to the
  finish level by 1.85. With clearance 5e-4 the graze level is 1.0005.
* The untightened margin of a state x > 1 for h(x) = 1 - |x| is x - 1, so
  the reference's worst margin must sit between 0.4 * clearance (builder
  gate) and clearance plus the feedback overshoot allowance.
* Feedback inversion is capped at |u| <= 0.45, well inside both motors'
  certified control bound of 1 and the saturating motor's validity range
  |u| < tan(1) ~ 1.557.
"""

import numpy as np
import pytest

from test_propagation import assert_bitwise, ref_run
from tightpath import (
    ConfigError,
    DomainError,
    boundary_tracking_reference,
    eval_rhs,
    integrate,
    motor_scenario,
    scenario_from_config,
    unit_ball_complement,
)
from tightpath.propagation import _REFINE_SUBSTEPS, _anchors
from tightpath.scenarios import (
    _CONTROL_CAP,
    _FEEDBACK_GAIN,
    _decline_decay_mean,
    _surge_gain_mean,
    _target_path,
)


@pytest.fixture(params=["surge", "decline"])
def scenario(request, surge_scenario, decline_scenario):
    return surge_scenario if request.param == "surge" else decline_scenario


def test_reference_shares_the_grid(scenario):
    assert np.array_equal(scenario.grid.nodes, scenario.xbar.grid.nodes)
    assert np.array_equal(scenario.grid.nodes, scenario.ubar.grid.nodes)
    assert scenario.grid.nodes.size == 2001


def test_reference_hugs_the_boundary(scenario):
    margins = scenario.field.margin(0.0, scenario.xbar.states, 0.0)
    worst = float(np.min(margins))
    assert 0.4 * scenario.clearance <= worst <= 2.0 * scenario.clearance
    # The graze segment straddles the actuator breakpoint at t = 1.
    nodes = scenario.grid.nodes
    graze = (nodes >= 0.8) & (nodes <= 1.25)
    assert float(np.max(margins[graze])) < 5.0 * scenario.clearance


def test_reference_endpoints(scenario):
    assert scenario.xbar.states[0, 0] == pytest.approx(1.08)
    assert scenario.xbar.states[-1, 0] == pytest.approx(1.06, abs=5e-3)


def test_control_stays_capped(scenario):
    assert float(np.max(np.abs(scenario.ubar.values))) <= 0.45


def test_reference_reintegrates_bitwise(scenario):
    redo = integrate(
        scenario.model,
        scenario.ubar,
        scenario.x0,
        (float(scenario.grid.t0), float(scenario.grid.t1)),
        scenario.grid.step,
    )
    assert np.array_equal(redo.states, scenario.xbar.states)


def reference_builder_controls(sc, variant, finish=1.06, drift_amplitude=0.2):
    """The builder's feedback loop as it was with its own RK4 stepper,
    which went through eval_rhs: the reference the built controls must
    equal bit for bit."""

    def rk4(t, x, u, h):
        k1 = eval_rhs(sc.model, t, x, u)
        k2 = eval_rhs(sc.model, t + 0.5 * h, x + 0.5 * h * k1, u)
        k3 = eval_rhs(sc.model, t + 0.5 * h, x + 0.5 * h * k2, u)
        k4 = eval_rhs(sc.model, t + h, x + h * k3, u)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    nodes = sc.grid.nodes
    level, rate = _target_path(nodes, float(sc.x0[0]), 1.0 + sc.clearance, finish)
    controls = np.zeros((nodes.size, 1))
    x = sc.x0.copy()
    for j in range(nodes.size - 1):
        a, b = float(nodes[j]), float(nodes[j + 1])
        demand = float(rate[j]) + _FEEDBACK_GAIN * (float(level[j]) - float(x[0]))
        demand -= drift_amplitude * float(np.cos(x[0]))
        if variant == "surge":
            u = demand / _surge_gain_mean(a, b)
        else:
            arg = demand / _decline_decay_mean(a, b)
            u = float(np.tan(np.clip(arg, -1.3, 1.3)))
        u = float(np.clip(u, -_CONTROL_CAP, _CONTROL_CAP))
        controls[j, 0] = u
        x = rk4(a, x, np.array([u]), b - a)
    controls[-1] = controls[-2]
    return controls


@pytest.mark.parametrize("variant", ["surge", "decline"])
def test_built_reference_equals_the_reference_loop(variant, surge_scenario, decline_scenario):
    sc = surge_scenario if variant == "surge" else decline_scenario
    assert_bitwise(sc.ubar.values, reference_builder_controls(sc, variant))
    breakpoints = tuple(sc.model.time_breakpoints)
    anchors = _anchors(sc.ubar, (sc.grid.t0, sc.grid.t1), breakpoints)
    nodes, states = ref_run(
        sc.model, sc.ubar, sc.x0, anchors, sc.grid.step, _REFINE_SUBSTEPS, breakpoints
    )
    assert_bitwise(sc.xbar.grid.nodes, nodes)
    assert_bitwise(sc.xbar.states, states)


def test_config_round_trip(scenario):
    rebuilt = scenario_from_config(scenario.config)
    assert np.array_equal(rebuilt.xbar.states, scenario.xbar.states)
    assert np.array_equal(rebuilt.ubar.values, scenario.ubar.values)


def test_config_drift_amplitude_reaches_model_and_reference(scenario):
    rebuilt = scenario_from_config({**scenario.config, "drift_amplitude": 0.5})
    assert rebuilt.model.rhs(0.0, np.array([0.0]), np.array([0.0]))[0] == 0.5
    assert not np.array_equal(rebuilt.ubar.values, scenario.ubar.values)
    margins = rebuilt.field.margin(0.0, rebuilt.xbar.states, 0.0)
    assert float(np.min(margins)) > 0


def test_config_rejects_mismatched_model(surge_scenario):
    config = dict(surge_scenario.config)
    config["model"] = "motor_decline"
    with pytest.raises(ConfigError):
        scenario_from_config(config)


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        scenario_from_config({"reference": {"variant": "coast"}})


def test_unknown_variant_rejected():
    with pytest.raises(DomainError):
        motor_scenario("coast")


def test_negative_clearance_rejected():
    with pytest.raises(DomainError):
        motor_scenario("surge", clearance=-1e-3)


def test_infeasible_target_rejected(surge_scenario):
    # A finish level inside the unit ball forces the tracker through the
    # constraint; the builder must refuse rather than hand back an
    # infeasible reference.
    field = unit_ball_complement(dim=1, box_radius=2.0)
    with pytest.raises(DomainError):
        boundary_tracking_reference(
            surge_scenario.model,
            field,
            surge_scenario.grid,
            np.array([1.08]),
            clearance=5e-4,
            finish=0.5,
            variant="surge",
        )


def test_interior_scenario_for_identity_repairs():
    sc = motor_scenario("surge", clearance=0.5, x_start=1.5, finish=1.5)
    margins = sc.field.margin(0.0, sc.xbar.states, 0.0)
    assert float(np.min(margins)) > 0.4
