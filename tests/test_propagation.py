"""Integrator and envelope-radius tests.

The motor endpoint oracle 1.4366352816953678 was computed independently
of the integrator under test: the smooth phase on [0, 1] ran through an
adaptive solver at rtol 1e-12, and the singular phase on [1, 2] was
first regularized by the substitution t = 1 + tau^4, which turns
x' = 0.2 cos(x) + 0.5 (t-1)^(-1/4) into the polynomial-coefficient
equation dx/dtau = 0.8 tau^3 cos(x) + 2 tau^2 on tau in [0, 1].
"""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from tightpath.dynamics import (
    DynamicsModel,
    control_affine,
    expression_model,
    motor_decline,
    motor_surge,
)
from tightpath.errors import AccuracyError, DomainError, PropagationError, ShapeError
from tightpath.propagation import (
    _REFINE_SUBSTEPS,
    _advance,
    _advance_zone,
    _anchors,
    _half_step_gap,
    _run,
    _steps,
    gronwall_radius,
    integrate,
    integrate_feedback,
)
from tightpath.signals import ControlSignal, TimeGrid

SURGE_ENDPOINT_ORACLE = 1.4366352816953678

propagation = importlib.import_module("tightpath.propagation")


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


# Reference code: a plain stepper, run loop and half-step comparison that
# make every lookup per step and step every state as an array. Every node
# and state the program computes must equal theirs bit for bit.


def ref_rk4_step(model, t, h, x, u):
    k1 = np.asarray(model.rhs(t, x, u), dtype=float)
    k2 = np.asarray(model.rhs(t + 0.5 * h, x + 0.5 * h * k1, u), dtype=float)
    k3 = np.asarray(model.rhs(t + 0.5 * h, x + 0.5 * h * k2, u), dtype=float)
    k4 = np.asarray(model.rhs(t + h, x + h * k3, u), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_advance_uniform(model, a, b, x, u, m):
    width = b - a
    for i in range(m):
        x = ref_rk4_step(model, a + width * (i / m), width / m, x, u)
    return x


def ref_advance_zone(model, a, b, x, u, q, toward_start):
    width = b - a
    halves = [2.0 ** -j for j in range(1, 49)]
    if toward_start:
        cuts = [a] + [a + width * f for f in reversed(halves)] + [b]
        x = ref_rk4_step(model, cuts[0], cuts[1] - cuts[0], x, u)
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            x = ref_advance_uniform(model, lo, hi, x, u, q)
    else:
        cuts = [a] + [b - width * f for f in halves] + [b]
        for lo, hi in zip(cuts[:-2], cuts[1:-1]):
            x = ref_advance_uniform(model, lo, hi, x, u, q)
        x = ref_rk4_step(model, cuts[-2], cuts[-1] - cuts[-2], x, u)
    return x


def ref_run(model, u, x0, anchors, step, q, breakpoints):
    slack = (anchors[-1] - anchors[0]) * 1e-9

    def at_breakpoint(t):
        return any(abs(t - b) <= slack for b in breakpoints)

    nodes = [anchors[0]]
    states = [np.asarray(x0, dtype=float)]

    def emit(t, x):
        nodes.append(t)
        states.append(x)
        if not np.all(np.isfinite(x)):
            raise PropagationError(f"state not finite at t={t}", t=t)

    for a, b in zip(anchors[:-1], anchors[1:]):
        u_val = u.eval(a)
        x = states[-1]
        zone = min(step, b - a)
        if at_breakpoint(a):
            end = b if b - a <= zone + slack else a + zone
            x = ref_advance_zone(model, a, end, x, u_val, q, toward_start=True)
            emit(end, x)
            if b - end > slack:
                m = max(1, int(np.ceil((b - end) / step - 1e-9)))
                width = b - end
                for i in range(1, m + 1):
                    x = ref_rk4_step(model, end + width * ((i - 1) / m), width / m, x, u_val)
                    emit(b if i == m else end + width * (i / m), x)
        elif at_breakpoint(b):
            if b - a > zone + slack:
                m = max(1, int(np.ceil((b - a - zone) / step - 1e-9)))
                width = (b - zone) - a
                for i in range(1, m + 1):
                    x = ref_rk4_step(model, a + width * ((i - 1) / m), width / m, x, u_val)
                    emit(a + width * (i / m), x)
            x = ref_advance_zone(model, b - zone, b, x, u_val, q, toward_start=False)
            emit(b, x)
        else:
            m = max(1, int(np.ceil((b - a) / step - 1e-9)))
            width = b - a
            for i in range(1, m + 1):
                x = ref_rk4_step(model, a + width * ((i - 1) / m), width / m, x, u_val)
                emit(b if i == m else a + width * (i / m), x)
    return np.asarray(nodes), np.vstack(states)


def ref_half_step_gap(nodes, states, fine_nodes, fine_states):
    index = {round(t, 12): i for i, t in enumerate(fine_nodes)}
    worst, worst_t = 0.0, nodes[0]
    for t, x in zip(nodes, states):
        i = index.get(round(t, 12))
        if i is None:
            continue
        gap = float(np.linalg.norm(x - fine_states[i]))
        if gap > worst:
            worst, worst_t = gap, t
    return worst, worst_t


def both_runs(model, u, x0, window, step):
    """(program, reference) results of both passes of a checked integrate."""
    x0 = np.asarray(x0, dtype=float)
    breakpoints = tuple(model.time_breakpoints)
    anchors = _anchors(u, window, breakpoints)
    out = []
    for run in (_run, ref_run):
        coarse = run(model, u, x0, anchors, step, _REFINE_SUBSTEPS, breakpoints)
        fine = run(model, u, x0, anchors, step / 2.0, 2 * _REFINE_SUBSTEPS, breakpoints)
        out.append((coarse, fine))
    return out


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def varied_control(grid, dim, seed=0):
    rng = np.random.default_rng(seed)
    return ControlSignal(grid, rng.uniform(-0.45, 0.45, (len(grid), dim)))


def affine_2d():
    def drift(t, x):
        return np.stack([x[..., 1], -np.sin(x[..., 0]) + 0.1 * np.cos(3.0 * t)], axis=-1)

    def gain(t, x):
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0 + 0.5 * np.cos(x[..., 0])
        return g

    return control_affine(drift, gain, 2, 2)


def expression_2d():
    return expression_model(["x2 + 0.5*u1", "-x1 + sin(t)*u2 + t**2/4"], 2, 2)


FINE = TimeGrid.uniform(0.0, 2.0, 400)
# Seven cells: t = 1 falls inside one, so the breakpoint is not a node.
COARSE = TimeGrid.uniform(0.0, 2.0, 7)
RAMP = TimeGrid(np.cumsum(np.r_[0.0, np.linspace(0.002, 0.02, 150)]))
SCATTERED = TimeGrid(np.sort(np.r_[0.0, np.random.default_rng(3).uniform(0.0, 2.0, 80), 2.0]))

# One span each, wider than twice its start, so that a + (b - a) is not b and
# the step's times a + w (i / m) are not a + i (w / m): the last node and the
# stage times must be formed as the stepper forms them.
WIDE = TimeGrid(np.array([0.0, 0.18425705117643626, 0.9983376340047266, 2.0]))
LATE = TimeGrid(np.array([0.0, 1.4733476466796607, 3.698779285393091, 4.0]))

# name: (model, grid, control dim, x0, window, step)
BITWISE_CASES = {
    "decline-full": (motor_decline(), FINE, 1, [1.08], (0.0, 2.0), 0.005),
    "surge-full": (motor_surge(), FINE, 1, [1.08], (0.0, 2.0), 0.005),
    "decline-mid-window": (motor_decline(), FINE, 1, [1.02], (0.715, 1.6), 0.005),
    "surge-mid-window": (motor_surge(), FINE, 1, [1.02], (0.4, 1.9), 0.005),
    "surge-breakpoint-off-grid": (motor_surge(), COARSE, 1, [1.1], (0.0, 2.0), 0.05),
    "decline-window-ends-at-breakpoint": (motor_decline(), FINE, 1, [1.1], (0.3, 1.0), 0.005),
    "surge-window-ends-at-breakpoint": (motor_surge(), COARSE, 1, [1.1], (0.0, 1.0), 0.05),
    "decline-non-uniform": (motor_decline(), RAMP, 1, [1.05], (0.0, RAMP.t1), 0.007),
    "expression-1d": (
        expression_model(["-x1 + u1*cos(t)"], 1, 1), SCATTERED, 1, [0.4], (0.0, 2.0), 0.01
    ),
    "affine-2d": (affine_2d(), TimeGrid.uniform(0.0, 2.0, 120), 2, [0.3, -0.2], (0.0, 2.0), 0.01),
    "expression-2d": (expression_2d(), SCATTERED, 2, [0.3, -0.2], (0.25, 2.0), 0.01),
    "expression-wide-span": (
        expression_model(["-x1 + u1*cos(t)"], 1, 1), WIDE, 1, [0.4],
        (WIDE.nodes[1], WIDE.nodes[2]), (WIDE.nodes[2] - WIDE.nodes[1]) / 10.5,
    ),
    "decline-wide-span": (
        motor_decline(), LATE, 1, [1.05],
        (LATE.nodes[1], LATE.nodes[2]), (LATE.nodes[2] - LATE.nodes[1]) / 9.5,
    ),
}


@pytest.mark.float_path
class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("case", sorted(BITWISE_CASES))
    def test_nodes_states_and_half_step_gap(self, case):
        model, grid, dim, x0, window, step = BITWISE_CASES[case]
        u = varied_control(grid, dim)
        (coarse, fine), (ref_coarse, ref_fine) = both_runs(model, u, x0, window, step)
        for got, want in ((coarse, ref_coarse), (fine, ref_fine)):
            assert_bitwise(got[0], want[0])
            assert_bitwise(got[1], want[1])
        worst, worst_t = _half_step_gap(*coarse, *fine)
        assert (worst, worst_t) == ref_half_step_gap(*ref_coarse, *ref_fine)

    def test_cases_cover_breakpoint_spans(self):
        assert 1.0 not in COARSE.nodes
        assert BITWISE_CASES["decline-window-ends-at-breakpoint"][4][1] == 1.0
        assert np.ptp(np.diff(RAMP.nodes)) > 0.01

    def test_integrate_returns_the_reference_run(self):
        model, grid, dim, x0, window, step = BITWISE_CASES["decline-mid-window"]
        u = varied_control(grid, dim)
        traj = integrate(model, u, x0, window, step)
        _, (ref_coarse, _) = both_runs(model, u, x0, window, step)
        assert_bitwise(traj.grid.nodes, ref_coarse[0])
        assert_bitwise(traj.states, ref_coarse[1])


# Times at and just past the motors' break at t = 1, where their time
# factors switch on, and (state, control) pairs across the clipped range.
# The last four controls are inputs where math.atan and numpy's arctan
# differed by an ulp under numpy 2.4 on x86-64.
FLOAT_TIMES = [0.0, 0.5, 1.0] + [1.0 + 2.0 ** -k for k in range(1, 53)] + [2.0]
FLOAT_POINTS = [
    (1.08, 0.3),
    (1.0005, -1.4),
    (0.0, 0.0),
    (-2.5, 7.0),
    (1.2, -0.01),
    (1.01, 0.07823302013086852),
    (0.9, -0.03220863182918521),
    (1.3, 1.2033492301122077),
    (-0.4, 2.130297032547201),
]


def without_float_rhs(model):
    """The model with its ``float_rhs`` declaration withdrawn, so that the
    integrators step it as an undeclared model."""
    return dataclasses.replace(model, float_rhs=False)


def counting(rhs, calls):
    """rhs wrapped to count its calls and whether the state came as a float,
    as a tracer that swaps ``model.rhs`` does."""

    def counted(t, x, u):
        calls[isinstance(x, float)] += 1
        return rhs(t, x, u)

    return counted


@pytest.mark.float_path
class TestFloatField:
    @pytest.mark.parametrize("make", [motor_surge, motor_decline])
    def test_float_rhs_equals_the_adaptor_bitwise(self, make):
        # The float form against the entry of the one-element-array form,
        # which a model without the declaration is stepped on.
        model = make()
        assert model.float_rhs
        for t in FLOAT_TIMES:
            for x, u in FLOAT_POINTS:
                got = model.rhs(t, x, u)
                want = model.rhs(t, np.array([x]), np.array([u])).item()
                assert type(got) is float
                assert got.hex() == want.hex(), (t, x, u)

    @pytest.mark.parametrize("variant", ["surge", "decline"])
    def test_reference_integrates_as_without_the_declaration(
        self, variant, surge_scenario, decline_scenario
    ):
        sc = surge_scenario if variant == "surge" else decline_scenario
        grid, x0 = sc.xbar.grid, sc.xbar.states[0]
        window = (float(grid.t0), float(grid.t1))
        got = integrate(sc.model, sc.ubar, x0, window, grid.step, check=True)
        want = integrate(without_float_rhs(sc.model), sc.ubar, x0, window, grid.step, check=True)
        assert_bitwise(got.grid.nodes, want.grid.nodes)
        assert_bitwise(got.states, want.states)

    @pytest.mark.parametrize("make", [motor_surge, motor_decline])
    def test_feedback_loop_steps_as_without_the_declaration(self, make):
        model = make()
        grid = TimeGrid.uniform(0.0, 2.0, 50)

        def law(j, x):
            assert x.shape == (1,)
            return np.array([0.3 - 0.2 * x[0]])

        got = integrate_feedback(model, grid, [1.05], law)
        want = integrate_feedback(without_float_rhs(model), grid, [1.05], law)
        for g, w in zip(got, want):
            assert_bitwise(g, w)

    @pytest.mark.parametrize("make", [motor_surge, motor_decline])
    def test_float_path_makes_as_many_rhs_calls(self, make):
        # A counter that swaps model.rhs sees every call on either path.
        model = make()
        u = varied_control(FINE, 1)
        grid = TimeGrid.uniform(0.0, 2.0, 50)
        counts = {}
        for declared in (True, False):
            calls = [0, 0]  # array states, float states
            counted = dataclasses.replace(
                model, rhs=counting(model.rhs, calls), float_rhs=declared
            )
            integrate(counted, u, [1.08], (0.0, 2.0), 0.005)
            integrate_feedback(counted, grid, [1.05], lambda j, x: np.array([0.1]))
            counts[declared] = calls
        assert counts[True][0] == 0 and counts[False][1] == 0
        assert counts[True][1] == counts[False][0] > 0

    def test_only_a_one_state_one_control_model_declares_it(self):
        with pytest.raises(ShapeError):
            dataclasses.replace(affine_2d(), float_rhs=True)


@pytest.mark.float_path
class TestFeedbackLoop:
    def test_one_step_per_cell_with_the_law_of_the_left_state(self):
        model = motor_decline()
        grid = TimeGrid.uniform(0.0, 2.0, 50)
        seen = []

        def law(j, x):
            seen.append(j)
            return np.array([0.3 - 0.2 * x[0]])

        states, controls = integrate_feedback(model, grid, [1.05], law)
        assert seen == list(range(50))
        assert states.shape == (51, 1) and controls.shape == (50, 1)
        x = np.array([1.05])
        for j in range(50):
            a, b = float(grid.nodes[j]), float(grid.nodes[j + 1])
            u = np.array([0.3 - 0.2 * x[0]])
            assert controls[j].tobytes() == u.tobytes()
            x = ref_rk4_step(model, a, b - a, x, u)
            assert states[j + 1].tobytes() == x.tobytes()

    def test_rejects_misshapen_input(self):
        model = motor_decline()
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        with pytest.raises(ShapeError):
            integrate_feedback(model, grid, [1.0, 2.0], lambda j, x: np.zeros(1))
        with pytest.raises(ShapeError):
            integrate_feedback(model, grid, [1.0], lambda j, x: np.zeros(2))

    def test_blowup_names_the_node(self):
        model = scalar_affine(lambda t, x: x * x)
        grid = TimeGrid.uniform(0.0, 1.0, 100)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PropagationError) as err:
                integrate_feedback(model, grid, [1.5], lambda j, x: np.zeros(1))
        assert err.value.t == grid.nodes[69]


class TestIntegrate:
    def test_zero_field_is_constant(self):
        model = DynamicsModel(state_dim=1, control_dim=1, rhs=lambda t, x, u: np.zeros(1))
        traj = integrate(model, constant_control(0.0), [0.7], (0.0, 1.0), 0.1)
        assert np.all(traj.states == 0.7)

    def test_pure_control_integral_is_exact(self):
        model = scalar_affine(lambda t, x: np.zeros(x.shape[:-1] + (1,)))
        traj = integrate(model, constant_control(1.0), [0.0], (0.0, 1.0), 1.0 / 1024.0, check=False)
        # Dyadic steps accumulate without rounding: the endpoint is exact.
        assert traj.states[-1, 0] == 1.0

    def test_surge_endpoint_matches_fine_step_oracle(self):
        model = motor_surge()
        u = constant_control(0.5, 0.0, 2.0)
        coarse = integrate(model, u, [0.0], (0.0, 2.0), 1e-3, check=False)
        fine = integrate(model, u, [0.0], (0.0, 2.0), 1e-4, check=False)
        assert abs(coarse.states[-1, 0] - fine.states[-1, 0]) <= 1e-6
        assert coarse.states[-1, 0] == pytest.approx(SURGE_ENDPOINT_ORACLE, abs=1e-6)
        assert fine.states[-1, 0] == pytest.approx(SURGE_ENDPOINT_ORACLE, abs=1e-6)

    def test_model_breakpoint_becomes_node(self):
        model = motor_surge()
        grid = TimeGrid.uniform(0.0, 2.0, 3)  # nodes miss t = 1
        u = ControlSignal(grid, np.full((4, 1), 0.2))
        traj = integrate(model, u, [0.0], (0.0, 2.0), 0.05, check=False)
        assert 1.0 in traj.grid.nodes

    def test_control_jump_never_straddled(self):
        model = scalar_affine(lambda t, x: np.zeros(x.shape[:-1] + (1,)))
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        u = ControlSignal(grid, np.array([[0.0], [1.0], [1.0]]))
        # 0.3 does not divide 0.5: the spans must still align to the jump.
        traj = integrate(model, u, [0.0], (0.0, 1.0), 0.3, check=False)
        assert 0.5 in traj.grid.nodes
        assert traj.states[-1, 0] == 0.5

    def test_richardson_passes_on_smooth_field(self, monkeypatch):
        model = scalar_affine(lambda t, x: -x)
        monkeypatch.setattr(propagation, "HALF_STEP_TOLERANCE", 1e-8)
        traj = integrate(model, constant_control(0.0), [1.0], (0.0, 1.0), 0.01)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_richardson_flags_unstable_step(self):
        model = scalar_affine(lambda t, x: -50.0 * x)
        assert propagation.HALF_STEP_TOLERANCE == 1e-6
        with pytest.raises(AccuracyError):
            integrate(model, constant_control(0.0), [1.0], (0.0, 1.0), 0.1)

    def test_blowup_reports_first_bad_node(self):
        model = scalar_affine(lambda t, x: x * x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PropagationError) as err:
                integrate(model, constant_control(0.0), [1.5], (0.0, 1.0), 0.01, check=False)
        # x' = x^2 from 1.5 blows up at t = 2/3; the step ending at 0.69
        # is the first whose state overflows.
        assert err.value.t == 0.69

    def test_halving_step_cuts_endpoint_error_eightfold(self):
        model = scalar_affine(lambda t, x: -x)
        u = constant_control(0.0)
        errors = []
        for step in (0.1, 0.05):
            traj = integrate(model, u, [1.0], (0.0, 1.0), step, check=False)
            errors.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        assert errors[0] / errors[1] >= 8.0

    def test_window_and_shape_validation(self):
        model = motor_surge()
        u = constant_control(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate(model, u, [0.0], (0.0, 2.0), 0.1)
        with pytest.raises(DomainError):
            integrate(model, u, [0.0], (0.5, 0.5), 0.1)
        with pytest.raises(ShapeError):
            integrate(model, u, [0.0, 0.0], (0.0, 1.0), 0.1)
        with pytest.raises(DomainError):
            integrate(model, u, [np.nan], (0.0, 1.0), 0.1)
        wide = ControlSignal(TimeGrid(np.array([0.0, 1.0])), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            integrate(model, wide, [0.0], (0.0, 1.0), 0.1)

    def test_config_validation(self):
        u = constant_control(0.0)
        for step in (0.0, -0.1):
            with pytest.raises(DomainError, match="step must be positive"):
                integrate(motor_surge(), u, [0.0], (0.0, 1.0), step)


# The per-step stepper the integrators used before their stage loop was
# merged into one: one call per RK4 step, a tile loop that records nodes,
# a uniform loop that does not, and a float state and control for a model
# that declares ``float_rhs``. Kept here as it was, so that the merged loop
# is held to its bits.


def old_rk4_step(rhs, t, h, x, u):
    half = 0.5 * h
    mid = t + half
    k1 = rhs(t, x, u)
    k2 = rhs(mid, x + half * k1, u)
    k3 = rhs(mid, x + half * k2, u)
    k4 = rhs(t + h, x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def old_check_finite(t, x):
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise PropagationError(f"state not finite at t={t}", t=t)


def old_advance_uniform(rhs, a, b, x, u, m):
    width = b - a
    h = width / m
    for i in range(m):
        x = old_rk4_step(rhs, a + width * (i / m), h, x, u)
    return x


def old_advance_zone(rhs, a, b, x, u, q, toward_start):
    width = b - a
    halves = tuple(2.0 ** -j for j in range(1, 49))
    if toward_start:
        cuts = [a] + [a + width * f for f in reversed(halves)] + [b]
        x = old_rk4_step(rhs, cuts[0], cuts[1] - cuts[0], x, u)
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            x = old_advance_uniform(rhs, lo, hi, x, u, q)
    else:
        cuts = [a] + [b - width * f for f in halves] + [b]
        for lo, hi in zip(cuts[:-2], cuts[1:-1]):
            x = old_advance_uniform(rhs, lo, hi, x, u, q)
        x = old_rk4_step(rhs, cuts[-2], cuts[-1] - cuts[-2], x, u)
    return x


def old_tile(rhs, a, width, m, x, u, last, nodes, states):
    h = width / m
    for i in range(1, m + 1):
        x = old_rk4_step(rhs, a + width * ((i - 1) / m), h, x, u)
        node = last if i == m else a + width * (i / m)
        nodes.append(node)
        states.append(x)
        old_check_finite(node, x)
    return x


def old_steps(length, step):
    return max(1, math.ceil(length / step - 1e-9))


def old_run(model, u, x0, anchors, step, q, breakpoints):
    rhs = model.rhs
    x = x0
    controls = u.values[u.grid.indices_left(anchors[:-1])]
    if model.float_rhs:
        x, controls = x0.item(), controls[:, 0].tolist()
    slack = float(anchors[-1] - anchors[0]) * 1e-9
    near = np.zeros(anchors.shape, dtype=bool)
    for b in breakpoints:
        near |= np.abs(anchors - b) <= slack
    times = anchors.tolist()
    nodes, states = [times[0]], [x]
    for k in range(len(times) - 1):
        a, b = times[k], times[k + 1]
        u_val = controls[k]
        zone = min(step, b - a)
        if near[k]:
            end = b if b - a <= zone + slack else a + zone
            x = old_advance_zone(rhs, a, end, x, u_val, q, toward_start=True)
            nodes.append(end)
            states.append(x)
            old_check_finite(end, x)
            if b - end > slack:
                x = old_tile(rhs, end, b - end, old_steps(b - end, step), x, u_val, b, nodes, states)
        elif near[k + 1]:
            if b - a > zone + slack:
                width = (b - zone) - a
                m = old_steps(b - a - zone, step)
                x = old_tile(rhs, a, width, m, x, u_val, a + width, nodes, states)
            x = old_advance_zone(rhs, b - zone, b, x, u_val, q, toward_start=False)
            nodes.append(b)
            states.append(x)
            old_check_finite(b, x)
        else:
            x = old_tile(rhs, a, b - a, old_steps(b - a, step), x, u_val, b, nodes, states)
    return np.array(nodes), np.array(states).reshape(len(states), -1)


def old_feedback(model, grid, x0, law):
    x = np.asarray(x0, dtype=float)
    floats = model.float_rhs
    if floats:
        x = x.item()
    times = grid.nodes.tolist()
    states, controls = [x], []
    for j in range(len(times) - 1):
        u = np.asarray(law(j, np.array([x]) if floats else x), dtype=float)
        controls.append(u)
        x = old_rk4_step(model.rhs, times[j], times[j + 1] - times[j], x, u.item() if floats else u)
        states.append(x)
        old_check_finite(times[j + 1], x)
    return np.vstack(states), np.vstack(controls)


@pytest.mark.float_path
class TestOneStageLoop:
    """integrate and integrate_feedback against the old per-step stepper."""

    @pytest.mark.parametrize("case", sorted(BITWISE_CASES))
    def test_both_passes_and_the_checked_run(self, case):
        model, grid, dim, x0, window, step = BITWISE_CASES[case]
        u = varied_control(grid, dim)
        x0 = np.asarray(x0, dtype=float)
        breakpoints = tuple(model.time_breakpoints)
        anchors = _anchors(u, window, breakpoints)
        runs = {}
        for name, run in (("new", _run), ("old", old_run)):
            runs[name] = [
                run(model, u, x0, anchors, step, _REFINE_SUBSTEPS, breakpoints),
                run(model, u, x0, anchors, step / 2.0, 2 * _REFINE_SUBSTEPS, breakpoints),
            ]
        for (nodes, states), (old_nodes, old_states) in zip(runs["new"], runs["old"]):
            assert_bitwise(nodes, old_nodes)
            assert_bitwise(states, old_states)
        # The checked run returns the old coarse pass, or raises where the
        # old passes disagree by more than the tolerance.
        worst, _ = _half_step_gap(*runs["old"][0], *runs["old"][1])
        if worst > propagation.HALF_STEP_TOLERANCE:
            with pytest.raises(AccuracyError):
                integrate(model, u, x0, window, step, check=True)
        traj = integrate(model, u, x0, window, step, check=worst <= propagation.HALF_STEP_TOLERANCE)
        assert_bitwise(traj.grid.nodes, runs["old"][0][0])
        assert_bitwise(traj.states, runs["old"][0][1])

    @pytest.mark.parametrize("make", [motor_surge, motor_decline])
    def test_float_models_hit_both_zone_directions(self, make):
        # A window across the break steps into the zone toward its start
        # and out of the zone toward its end, on floats.
        model = make()
        assert model.float_rhs
        case = BITWISE_CASES[f"{'surge' if make is motor_surge else 'decline'}-full"]
        grid, step = case[1], case[5]
        u = varied_control(grid, 1, seed=4)
        for window in ((0.0, 2.0), (0.5, 1.0), (1.0, 1.5), (0.3, 1.7)):
            anchors = _anchors(u, window, (1.0,))
            for q, h in ((_REFINE_SUBSTEPS, step), (2 * _REFINE_SUBSTEPS, step / 2.0)):
                got = _run(model, u, np.array([1.05]), anchors, h, q, (1.0,))
                want = old_run(model, u, np.array([1.05]), anchors, h, q, (1.0,))
                assert_bitwise(got[0], want[0])
                assert_bitwise(got[1], want[1])

    @pytest.mark.parametrize(
        "model, x0, law",
        [
            (motor_decline(), [1.05], lambda j, x: np.array([0.3 - 0.2 * x[0]])),
            (motor_surge(), [1.05], lambda j, x: np.array([0.1 * math.sin(j) - 0.2 * x[0]])),
            (
                expression_model(["-x1 + u1*cos(t)"], 1, 1),
                [0.4],
                lambda j, x: np.array([0.3 - 0.5 * x[0]]),
            ),
            (affine_2d(), [0.3, -0.2], lambda j, x: np.array([-x[1], 0.2 * x[0]])),
        ],
        ids=["decline", "surge", "expression", "affine-2d"],
    )
    def test_feedback_loop(self, model, x0, law):
        for grid in (TimeGrid.uniform(0.0, 2.0, 150), SCATTERED):
            got = integrate_feedback(model, grid, x0, law)
            want = old_feedback(model, grid, x0, law)
            for g, w in zip(got, want):
                assert_bitwise(g, w)

    def test_an_infinite_stage_state_of_a_float_model_names_its_node(self):
        # Controls of 1e308 past the break overflow a stage of the first
        # step after t = 1.0 to inf. math.cos raises there, where numpy's cos
        # gave nan: the float form reads nan, and the step names its node.
        grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        u = ControlSignal(grid, np.array([[0.0], [0.0], [1e308], [1e308], [1e308]]))
        for model in (motor_surge(), without_float_rhs(motor_surge())):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(PropagationError) as err:
                    integrate(model, u, [1.2], (0.0, 2.0), 0.5, check=False)
            assert err.value.t == 1.5
        for make in (motor_surge, motor_decline):
            for x in (math.inf, -math.inf, math.nan):
                assert math.isnan(make().rhs(1.5, x, 0.3))

    def test_feedback_rejects_a_non_finite_start(self):
        for x0 in ([math.inf], [math.nan]):
            with pytest.raises(DomainError, match="x0 must be finite"):
                integrate_feedback(motor_decline(), FINE, x0, lambda j, x: np.array([0.1]))

    def test_a_non_finite_state_names_the_same_node(self):
        model = scalar_affine(lambda t, x: x * x)
        u = constant_control(0.0)
        anchors = _anchors(u, (0.0, 1.0), ())
        errors = []
        for run in (_run, old_run):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(PropagationError) as err:
                    run(model, u, np.array([1.5]), anchors, 0.01, _REFINE_SUBSTEPS, ())
            errors.append(err.value.t)
        assert errors[0] == errors[1] == 0.69


def per_cell_run(model, u, x0, anchors, step, q, breakpoints):
    """_run with one ``_advance`` call per anchor span: the grouping of
    plain spans into runs left out."""
    rhs = model.rhs
    x = x0
    controls = u.values[u.grid.indices_left(anchors[:-1])]
    if model.float_rhs:
        x, controls = x0.item(), controls[:, 0].tolist()
    slack = float(anchors[-1] - anchors[0]) * 1e-9
    near = [any(abs(t - b) <= slack for b in breakpoints) for t in anchors.tolist()]
    times = anchors.tolist()
    nodes, states = [times[0]], [x]
    for k in range(len(times) - 1):
        a, b, u_val = times[k], times[k + 1], controls[k]
        zone = min(step, b - a)
        if near[k]:
            end = b if b - a <= zone + slack else a + zone
            x = _advance_zone(rhs, a, end, x, u_val, q, True, nodes, states)
            if b - end > slack:
                m = _steps(b - end, step)
                x = _advance(rhs, x, [(end, b - end, m, u_val, b)], nodes, states)
        elif near[k + 1]:
            if b - a > zone + slack:
                width = (b - zone) - a
                m = _steps(b - a - zone, step)
                x = _advance(rhs, x, [(a, width, m, u_val, a + width)], nodes, states)
            x = _advance_zone(rhs, b - zone, b, x, u_val, q, False, nodes, states)
        else:
            x = _advance(rhs, x, [(a, b - a, _steps(b - a, step), u_val, b)], nodes, states)
    return np.array(nodes), np.array(states).reshape(len(states), -1)


@pytest.mark.float_path
class TestPlainRuns:
    """_run crosses each run of plain spans in one ``_advance`` call, and
    its nodes and states equal one call per span, on both sides of a
    breakpoint zone inside the window."""

    @pytest.mark.parametrize(
        "model, grid, dim, x0, breakpoint",
        [
            (motor_decline(), FINE, 1, [1.08], 1.0),
            (without_float_rhs(motor_decline()), FINE, 1, [1.08], 1.0),
            (motor_surge(), RAMP, 1, [1.05], 1.0),
            (affine_2d(), SCATTERED, 2, [0.3, -0.2], 0.7),
        ],
        ids=["decline-float", "decline-array", "surge-non-uniform", "affine-2d"],
    )
    def test_runs_equal_one_call_per_span(self, model, grid, dim, x0, breakpoint):
        u = varied_control(grid, dim, seed=5)
        x0 = np.asarray(x0, dtype=float)
        for window in ((grid.t0, grid.t1), (0.3, 1.6)):
            anchors = _anchors(u, window, (breakpoint,))
            for step, q in ((0.01, _REFINE_SUBSTEPS), (0.005, 2 * _REFINE_SUBSTEPS)):
                got = _run(model, u, x0, anchors, step, q, (breakpoint,))
                want = per_cell_run(model, u, x0, anchors, step, q, (breakpoint,))
                assert_bitwise(got[0], want[0])
                assert_bitwise(got[1], want[1])


class TestGronwallRadius:
    def test_zero_envelope(self):
        assert gronwall_radius(0.0, 0.0, 2.5, 1.0, 3.0, 0.5) == pytest.approx(3.5)

    def test_unit_inputs_frozen(self):
        got = gronwall_radius(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert got == pytest.approx(13.591409142295225, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            gronwall_radius(-0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
