"""Schedule and repair tests.

Frozen oracle values, derived independently of the implementation:

* Linear growth recursion: with zero Lipschitz modulus, window modulus of
  exact slope 1/2, burst rate k = 2, and speed constants summing to 1/2,
  one interval grows a violation rho by g(rho) = 2 rho, so the next level
  is 3 rho. Starting from 1/4 the composed levels are 3/4, 9/4, 27/4 and
  the accumulated sums are 3/4, 3, 39/4; every product is a dyadic
  rational, so the equalities are exact in floating point.
* Inward sign argument: for the affine motor at x = 1.05, the field is
  0.2 cos(1.05) + u, increasing in u, so the best of any symmetric
  candidate set is u = +1 with speed 0.2 cos(1.05) + 1 > 0; at x = -1.05
  the symmetric argument gives u = -1.
* The double integrator moves its position coordinate at rate x2
  regardless of the control, so no control can push the state (1.05, 0)
  away from the tightened boundary of the planar ring at any rate: the
  inward search must fail there.
"""

import dataclasses
import importlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath import (
    AccuracyError,
    ControlSignal,
    InfeasibleTighteningError,
    IntervalRepairError,
    InwardPointingError,
    RepairError,
    ScheduleError,
    TimeGrid,
    Trajectory,
    certify_all,
    expression_model,
    field_from_config,
    motor_scenario,
    render_report,
    repair,
)
from tightpath.dynamics import eval_rhs, model_from_config
from tightpath.geometry import node_violations, unit_ball_complement, violation_sup
from tightpath.hypotheses import HypothesisBundle, SampledFunction
from tightpath.propagation import integrate
from tightpath.repair import (
    RepairConstants,
    growth_maps,
    inward_control_at,
    repair_interval,
    schedule_constants,
)
from tightpath.signals import ModulusTable, weighted_l2_cost

from test_dynamics import DOUBLE_INTEGRATOR

GATE_WINDOW = "window-modulus"
GATE_OSC = "state-oscillation"


def linear_constants() -> RepairConstants:
    """Constants with an exactly linear growth map (see module docstring)."""
    flat = ModulusTable(np.array([0.0, 8.0]), np.array([0.0, 0.0]))
    ramp_d = np.array([0.0, 0.5, 1.5, 4.5, 8.0])
    ramp = ModulusTable(ramp_d, 0.5 * ramp_d)
    return RepairConstants(
        k=2.0,
        rho_hat=1.0,
        partition=np.array([0, 1, 2, 3]),
        M_Delta=0.25,
        C_vDelta=0.25,
        R=2.0,
        omega_gamma=flat,
        omega_f=flat,
        omega_bar=ramp,
        stride=1,
        step=0.5,
        oscillation_gate=GATE_WINDOW,
        eps_trail=((0.1, 0.25, True),),
        horizon=1.5,
    )


class TestGrowthMaps:
    def test_zero_is_a_fixed_point(self):
        c = linear_constants()
        assert c.gap_growth(0.0) == 0.0
        assert np.array_equal(growth_maps(0.0, c), np.zeros(3))

    def test_linear_recursion_closed_form(self):
        c = linear_constants()
        assert c.gap_growth(0.25) == 0.5
        assert np.array_equal(growth_maps(0.25, c), np.array([0.75, 3.0, 9.75]))

    def test_negative_violation_rejected(self):
        from tightpath import DomainError

        with pytest.raises(DomainError):
            growth_maps(-0.1, linear_constants())

    def test_naive_loop_oracle_matches_exactly(self, surge_run, decline_run):
        for _, _, c, _ in (surge_run, decline_run):
            g = c.gap_growth(c.rho_bar_eps)
            d_tilde = growth_maps(c.rho_bar_eps, c)
            e_total = float(np.exp(c.omega_f.value_at(c.horizon)))
            slope = c.C_vDelta + c.M_Delta * float(np.exp(2.0 * c.omega_f.value_at(c.Delta)))

            def g_ref(r):
                if r == 0.0:
                    return 0.0
                return e_total * (c.omega_bar.value_at(c.k * r) + c.k * r * slope)

            assert g == g_ref(c.rho_bar_eps)
            with np.errstate(over="ignore"):
                r = c.rho_bar_eps
                acc = 0.0
                for n in range(c.N0):
                    r = r + g_ref(r)
                    acc += r
                    assert d_tilde[n] == acc
            assert np.isfinite(d_tilde[0])

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.0, 0.05), b=st.floats(0.0, 0.05))
    def test_monotone_in_violation(self, a, b):
        c = linear_constants()
        if a > b:
            a, b = b, a
        assert c.gap_growth(a) <= c.gap_growth(b)
        assert a + c.gap_growth(a) <= b + c.gap_growth(b)
        assert np.all(growth_maps(a, c) <= growth_maps(b, c))


def window_integral(nodes, values, width):
    """Independent sup of window integrals at widths up to ``width``."""
    pref = np.concatenate(
        [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(nodes))]
    )
    j = int(round(width / float(nodes[1] - nodes[0])))
    return float(np.max(pref[j:] - pref[:-j]))


def combined_window_sup(scenario, bundle, c, width):
    """Independent brute-force evaluation of the window modulus."""
    nodes = scenario.xbar.grid.nodes
    states = scenario.xbar.states
    theta = bundle.growth_envelope.values
    gaps = np.diff(nodes)
    p1 = np.concatenate([[0.0], np.cumsum(0.5 * (theta[1:] + theta[:-1]) * gaps)])
    p2 = np.concatenate([[0.0], np.cumsum(0.5 * (theta[1:] ** 2 + theta[:-1] ** 2) * gaps)])
    ubar_l2 = float(np.sqrt(weighted_l2_cost(scenario.ubar)))
    coef = c.R + bundle.control_bound
    f_l2 = ubar_l2 + bundle.shift_radius.l2()
    j_max = int(round(width / float(gaps[0])))
    best = 0.0
    for j in range(1, j_max + 1):
        osc = np.linalg.norm(states[j:] - states[:-j], axis=1)
        win = osc + coef * (p1[j:] - p1[:-j]) + f_l2 * np.sqrt(p2[j:] - p2[:-j])
        best = max(best, float(np.max(win)))
    return best


class TestSchedule:
    @pytest.fixture(params=["surge", "decline"])
    def bundle_case(self, request, surge_scenario, decline_scenario, surge_bundle, decline_bundle):
        if request.param == "surge":
            return surge_scenario, surge_bundle
        return decline_scenario, decline_bundle

    def test_inequalities_by_direct_substitution(self, bundle_case):
        sc, bundle = bundle_case
        c = schedule_constants(bundle, sc.field, sc.xbar, sc.ubar, 0.1)
        xi = bundle.inward_slack
        eta = bundle.collar_width
        assert c.Delta <= min(xi, bundle.window_cap)
        assert bundle.boundary_drift.value_at(c.Delta) <= eta / 4
        assert c.k == 4.0 / xi
        assert 2.0 < c.k * xi
        assert c.k * c.rho_hat * bundle.velocity_bound <= 1.0
        assert c.rho_hat == min(
            1.0 / (c.k * bundle.velocity_bound), xi / c.k, 1.0 / c.k
        )
        om_g = window_integral(sc.xbar.grid.nodes, bundle.time_drift.values, c.Delta)
        om_f = window_integral(sc.xbar.grid.nodes, bundle.state_lipschitz.values, c.Delta)
        assert c.M_Delta == pytest.approx(om_g + bundle.velocity_bound * om_f, rel=1e-12)
        e_f = np.exp(om_f)
        assert c.M_Delta * e_f <= xi / 2
        assert 1.0 + c.k * c.M_Delta * (1.0 + e_f) * e_f <= c.k * xi / 2
        assert c.C_vDelta == pytest.approx(
            bundle.velocity_bound + c.M_Delta * e_f, rel=1e-12
        )
        widths = np.diff(sc.xbar.grid.nodes[c.partition])
        assert np.all(widths > 0)
        assert np.all(widths <= c.Delta * (1 + 1e-12))
        assert c.partition.dtype.kind == "i"
        assert c.partition[0] == 0
        assert c.partition[-1] == sc.xbar.grid.nodes.size - 1
        assert c.N0 == len(c.partition) - 1

    def test_zero_velocity_bound_drops_the_burst_cap(self, surge_scenario, surge_bundle):
        # With m_v = 0 a burst moves nothing, so 1 / (k m_v) is +inf.
        sc = surge_scenario
        bundle = dataclasses.replace(surge_bundle, velocity_bound=0.0)
        c = schedule_constants(bundle, sc.field, sc.xbar, sc.ubar, 0.1)
        xi = bundle.inward_slack
        assert c.rho_hat == min(xi / c.k, 1.0 / c.k)

    def test_oscillation_gate_inequality(self, bundle_case):
        sc, bundle = bundle_case
        c = schedule_constants(bundle, sc.field, sc.xbar, sc.ubar, 0.1)
        eta = bundle.collar_width
        if c.oscillation_gate == GATE_WINDOW:
            assert c.omega_bar.value_at(c.Delta) <= eta / 4
            brute = combined_window_sup(sc, bundle, c, c.Delta)
            assert c.omega_bar.value_at(c.Delta) == pytest.approx(brute, rel=1e-9)
        else:
            states = sc.xbar.states
            stride = c.stride
            osc = 0.0
            for j in range(1, stride + 1):
                osc = max(osc, float(np.max(np.abs(states[j:] - states[:-j]))))
            assert osc + bundle.boundary_drift.value_at(c.Delta) <= eta / 4

    def test_gate_selection_per_variant(self, surge_scenario, surge_bundle, decline_scenario, decline_bundle):
        c_s = schedule_constants(
            surge_bundle, surge_scenario.field,
            surge_scenario.xbar, surge_scenario.ubar, 0.1,
        )
        c_d = schedule_constants(
            decline_bundle, decline_scenario.field,
            decline_scenario.xbar, decline_scenario.ubar, 0.1,
        )
        # The affine motor's certified envelope is too large for the full
        # window modulus to fit under a quarter collar at any width; the
        # saturating motor's fits at a two-cell window.
        assert c_s.oscillation_gate == GATE_OSC
        assert c_d.oscillation_gate == GATE_WINDOW

    @pytest.mark.parametrize("case", ["surge", "decline"])
    def test_tightening_gates(self, case, request):
        sc = request.getfixturevalue(f"{case}_scenario")
        bundle = request.getfixturevalue(f"{case}_bundle")
        _, _, c, _ = request.getfixturevalue(f"{case}_run")
        assert c.rho_bar_eps <= c.rho_hat
        assert sc.field.margin(0.0, sc.xbar.states[0], c.eps) > 0
        eps_values = [e for e, _, _ in c.eps_trail]
        assert eps_values[0] == bundle.eps_cap
        for prev, nxt in zip(eps_values[:-1], eps_values[1:]):
            assert nxt == prev / 2.0
        assert all(not ok for _, _, ok in c.eps_trail[:-1])
        assert c.eps_trail[-1][2]
        assert c.eps == c.eps_trail[-1][0]

    def test_initial_condition_failure(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        shift = sc.xbar.states[0, 0] - 1.0
        grounded = Trajectory(grid=sc.xbar.grid, states=sc.xbar.states - shift)
        with pytest.raises(ScheduleError) as err:
            schedule_constants(surge_bundle, sc.field, grounded, sc.ubar, 0.1)
        assert err.value.kind == "initial-condition"

    def test_delta_infeasible(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        cramped = dataclasses.replace(surge_bundle, inward_slack=1e-6)
        with pytest.raises(ScheduleError) as err:
            schedule_constants(cramped, sc.field, sc.xbar, sc.ubar, 0.1)
        assert err.value.kind == "delta-infeasible"

    def test_eps_infeasible(self, monkeypatch, surge_scenario, surge_bundle):
        # A violation of 0.125 at every rung is above the cap 0.0625 at
        # every tightening level, so no rung is admitted and none is swept.
        def above_cap(field, eps, traj):
            return 0.125

        def forbidden(*args):
            raise AssertionError("a rung above the cap is not swept")

        module = importlib.import_module("tightpath.repair")
        monkeypatch.setattr(module, "violation_sup", above_cap)
        monkeypatch.setattr(module, "_sweep", forbidden)
        sc = surge_scenario
        with pytest.raises(ScheduleError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.kind == "eps-infeasible"
        assert err.value.detail == (
            f"violation 0.125 still above the cap 0.0625 at eps={surge_bundle.eps_cap / 2**60:g}"
        )

    def test_an_empty_set_at_every_rung_names_itself(
        self, monkeypatch, surge_scenario, surge_bundle
    ):
        # Each rung the oracle finds empty is rejected at violation inf, and
        # the detail says the set is empty, not that the start is outside it.
        def empty(field, eps, traj):
            raise InfeasibleTighteningError("empty", eps=eps)

        monkeypatch.setattr(importlib.import_module("tightpath.repair"), "violation_sup", empty)
        sc = surge_scenario
        with pytest.raises(ScheduleError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.kind == "eps-infeasible"
        assert err.value.detail.startswith("the tightened set is still empty at eps=")

    def test_no_interior_start_names_itself(self, monkeypatch, surge_scenario, surge_bundle):
        # The reference fits under the cap at every rung, but its start lies
        # inside the untightened set only.
        sc = surge_scenario
        shy = SimpleNamespace(
            margin=lambda t, x, eps: sc.field.margin(t, x, eps) if eps == 0.0 else -1.0
        )
        module = importlib.import_module("tightpath.repair")
        monkeypatch.setattr(module, "violation_sup", lambda field, eps, traj: 0.0)
        with pytest.raises(ScheduleError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, shy, sc.model)
        assert err.value.kind == "eps-infeasible"
        assert err.value.detail == f"no interior start down to eps={surge_bundle.eps_cap / 2**60:g}"

    def test_rejects_nonpositive_tolerance(self, surge_scenario, surge_bundle):
        from tightpath import DomainError

        sc = surge_scenario
        for lam in (0.0, -1.0, np.nan):  # NaN too, which fails every comparison
            with pytest.raises(DomainError, match="must be positive"):
                schedule_constants(surge_bundle, sc.field, sc.xbar, sc.ubar, lam)


class TestInwardControl:
    def test_outer_boundary_sign(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        u0, v0 = inward_control_at(surge_bundle, sc.field, sc.model, 0.05, 0.5, [1.05])
        assert u0[0] == 1.0
        assert v0[0] == eval_rhs(sc.model, 0.5, np.array([1.05]), np.array([1.0]))[0]
        assert v0[0] > 0

    def test_symmetric_boundary_sign(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        u0, v0 = inward_control_at(surge_bundle, sc.field, sc.model, 0.05, 0.5, [-1.05])
        assert u0[0] == -1.0
        assert v0[0] < 0

    def test_total_on_interior_points(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        u0, v0 = inward_control_at(surge_bundle, sc.field, sc.model, 0.05, 0.5, [1.5])
        assert np.all(np.isfinite(u0))
        assert np.all(np.isfinite(v0))

    def test_deterministic(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        first = inward_control_at(surge_bundle, sc.field, sc.model, 0.05, 0.5, [1.05])
        second = inward_control_at(surge_bundle, sc.field, sc.model, 0.05, 0.5, [1.05])
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_failure_carries_witness(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        ones = SampledFunction(grid, np.ones(len(grid)))
        zeros = SampledFunction(grid, np.zeros(len(grid)))
        bundle = HypothesisBundle(
            growth_envelope=ones,
            state_lipschitz=ones,
            time_drift=zeros,
            shift_radius=zeros,
            control_bound=1.0,
            velocity_bound=2.0,
            inward_slack=0.3,
            collar_width=0.4,
            eps_cap=0.2,
            window_cap=1.0,
            boundary_drift=ModulusTable(np.array([0.0, 1.0]), np.array([0.0, 0.0])),
            holder_exponent=1.0,
            holder_rate=zeros,
            reference_sup=2.0,
        )
        field = unit_ball_complement(dim=2, box_radius=2.0)
        with pytest.raises(InwardPointingError) as err:
            inward_control_at(
                bundle, field, model_from_config(DOUBLE_INTEGRATOR), 0.05, 0.0, [1.05, 0.0]
            )
        witness = err.value.witness
        assert witness["t"] == 0.0
        assert witness["margin"] < 0


class TestRepairInterval:
    def test_far_interval_is_identity(self, surge_scenario, surge_bundle, surge_run):
        sc = surge_scenario
        _, _, c, _ = surge_run
        n = sc.xbar.grid.nodes.size
        deep = Trajectory(grid=sc.xbar.grid, states=np.full((n, 1), 1.5))
        violations = node_violations(sc.field, c.eps, deep)
        traj, control, record = repair_interval(
            0, deep, sc.ubar, c, surge_bundle, sc.field, sc.model, violations
        )
        assert record.case == "case-1"
        assert traj is deep
        assert control is sc.ubar
        assert record.rho == 0.0
        assert record.margin_min == pytest.approx(1.5 - 1.0 - c.eps)

    def test_near_clean_interval_is_identity(self, surge_scenario, surge_bundle, surge_run):
        sc = surge_scenario
        _, _, c, _ = surge_run
        n = sc.xbar.grid.nodes.size
        level = 1.0 + c.eps + 0.01
        near = Trajectory(grid=sc.xbar.grid, states=np.full((n, 1), level))
        violations = node_violations(sc.field, c.eps, near)
        traj, control, record = repair_interval(
            0, near, sc.ubar, c, surge_bundle, sc.field, sc.model, violations
        )
        assert record.case == "case-2-identity"
        assert traj is near
        assert record.margin_min == pytest.approx(0.01)

    def test_spanning_burst_on_narrow_windows(self, decline_run):
        _, _, c, report = decline_run
        first = report.records[0]
        assert first.case == "case-2"
        assert first.delay >= first.t_end - first.t_start
        assert first.burst_end == first.t_end
        assert first.delay_gap_excess == -np.inf

    def test_split_burst_on_wide_windows(self, surge_run):
        _, _, c, report = surge_run
        first = report.records[0]
        assert first.case == "case-2"
        assert first.burst_end < first.t_end
        assert np.isfinite(first.delay_gap_excess)

    def test_gap_bound_and_margins_hold(self, surge_run, decline_run):
        for _, _, c, report in (surge_run, decline_run):
            for record in report.records:
                assert record.margin_min > 0
                if record.case == "case-2":
                    assert record.gap_to_previous <= record.gap_bound


class TestRepair:
    def test_theorem_contract(self, surge_run, decline_run):
        for lam, run in ((0.1, surge_run), (0.1, decline_run)):
            _, _, c, report = run
            assert report.interiority_margin > 0
            assert report.final_linf_gap <= lam
            assert report.final_cost_gap <= lam

    def test_recursion_and_accumulation_bounds(self, surge_run, decline_run):
        for _, _, c, report in (surge_run, decline_run):
            assert report.iter_rho_excess <= 0
            assert report.d_bound_excess <= 0
            assert report.window_excess <= 0
            assert report.envelope_sup <= c.R - 1.0

    def test_interior_reference_repairs_to_itself(self, monkeypatch):
        sc = motor_scenario("surge", clearance=0.5, x_start=1.5, finish=1.5)
        bundle = certify_all(sc.model, sc.field, sc.ubar, sc.xbar)

        def forbidden(*args):
            raise AssertionError("a pair without a burst is not re-integrated")

        monkeypatch.setattr(importlib.import_module("tightpath.repair"), "integrate", forbidden)
        x_eps, u_eps, c, report = repair(sc.xbar, sc.ubar, 0.1, bundle, sc.field, sc.model)
        assert all(r.case == "case-1" for r in report.records)
        assert np.array_equal(x_eps.states, sc.xbar.states)
        assert np.array_equal(u_eps.values, sc.ubar.values)
        assert report.final_linf_gap == 0.0
        assert report.final_cost_gap == 0.0
        assert len(c.eps_trail) == 1

    def test_infeasible_reference_rejected(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        sunk = sc.xbar.states.copy()
        sunk[500] = 0.5
        broken = Trajectory(grid=sc.xbar.grid, states=sunk)
        with pytest.raises(RepairError) as err:
            repair(broken, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.stage == "precondition"

    def test_bitwise_deterministic(self, surge_scenario, surge_bundle, surge_run):
        sc = surge_scenario
        x1, u1, c1, r1 = surge_run
        x2, u2, c2, r2 = repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert np.array_equal(x1.states, x2.states)
        assert np.array_equal(u1.values, u2.values)
        assert render_report(c1, r1, 0.1) == render_report(c2, r2, 0.1)

    def test_trail_marks_retried_sweeps_rejected(self, monkeypatch, surge_scenario, surge_bundle):
        sc = surge_scenario
        swept = record_sweeps(monkeypatch)
        _, _, c, report = repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        first_swept = [e for e, _, _ in c.eps_trail].index(swept[0])  # the first admitted eps
        assert len(swept) > 1 and len(c.eps_trail) > first_swept + 1  # but its sweep was retried
        assert [ok for *_, ok in c.eps_trail] == [False] * (len(c.eps_trail) - 1) + [True]
        text = render_report(c, report, 0.1)
        trail = text.split("[tightening trail]\n")[1].split("\n\n")[0].splitlines()
        assert len(trail) == len(c.eps_trail)
        assert trail[first_swept].endswith("  rejected")
        assert trail[-1].endswith("  kept")

    def test_report_sections_and_no_nan(self, surge_run, decline_run):
        for _, _, c, report in (surge_run, decline_run):
            text = render_report(c, report, 0.1)
            assert "nan" not in text
            headers = [line for line in text.splitlines() if line.startswith("[")]
            assert headers == ["[constants]", "[tightening trail]", "[intervals]", "[checks]"]

    def test_tightening_monotone_under_lambda_sweep(self, surge_scenario, surge_bundle):
        sc = surge_scenario
        chosen = []
        for lam in (0.4, 0.2):
            _, _, c, report = repair(sc.xbar, sc.ubar, lam, surge_bundle, sc.field, sc.model)
            assert report.final_linf_gap <= lam
            assert report.final_cost_gap <= lam
            chosen.append(c.eps)
        assert chosen[0] >= chosen[1]


def record_sweeps(monkeypatch, outcome=None):
    """Patch ``_sweep`` to record the eps of each call; the n-th call
    returns (or raises) ``outcome(n)``, or runs the real sweep."""
    module = importlib.import_module("tightpath.repair")
    real, swept = module._sweep, []

    def recording(xbar, ubar, c, *rest):
        swept.append(c.eps)
        if outcome is None:
            return real(xbar, ubar, c, *rest)
        return outcome(len(swept) - 1)

    monkeypatch.setattr(module, "_sweep", recording)
    return swept


class TestLadder:
    """``repair`` walks eps_cap * 2**-j for j = 0..60 and sweeps each rung
    whose violation fits under the cap with an interior start. On the surge
    scenario eps_cap is 0.2, the first admitted rung is 0.05, and the sweeps
    at 0.05, 0.025 and 0.0125 fail the contract."""

    module = importlib.import_module("tightpath.repair")

    def patch_violation(self, monkeypatch, value_at):
        """Patch ``violation_sup`` to return ``value_at(eps)`` where that is
        not None, inf meaning an empty tightened set."""
        real = self.module.violation_sup

        def patched(field, eps, traj):
            value = value_at(eps)
            if value is None:
                return real(field, eps, traj)
            if value == np.inf:
                raise InfeasibleTighteningError("empty", eps=eps)
            return value

        monkeypatch.setattr(self.module, "violation_sup", patched)

    def test_the_ladder_runs_out_by_contract(
        self, monkeypatch, surge_scenario, surge_bundle, surge_run
    ):
        sc = surge_scenario
        failed = dataclasses.replace(surge_run[3], interiority_margin=-1.0)
        swept = record_sweeps(monkeypatch, lambda n: (sc.xbar, sc.ubar, failed))
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.stage == "contract"
        assert err.value.report is failed
        assert swept == [surge_bundle.eps_cap / 2.0**j for j in range(2, 61)]
        assert swept[0] == 0.05 and swept[-1] == surge_bundle.eps_cap / 2**60

    def test_one_failed_interval_moves_to_the_next_rung(
        self, monkeypatch, surge_scenario, surge_bundle, surge_run
    ):
        sc = surge_scenario
        x_eps, u_eps, _, report = surge_run

        def outcome(n):
            if n == 0:
                raise IntervalRepairError("interval 4", interval=4, margin=-1e-3)
            return x_eps, u_eps, report

        swept = record_sweeps(monkeypatch, outcome)
        _, _, c, got = repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert swept == [0.05, 0.025]
        assert got is report and c.eps == 0.025
        assert [ok for *_, ok in c.eps_trail] == [False, False, False, True]

    def test_a_second_failed_interval_ends_the_run(self, monkeypatch, surge_scenario, surge_bundle):
        sc = surge_scenario

        def outcome(n):
            raise IntervalRepairError(f"interval {3 + n}", interval=3 + n, margin=-1e-3)

        swept = record_sweeps(monkeypatch, outcome)
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.stage == "interval"
        assert str(err.value).startswith("interval 4 failed its interiority check twice")
        assert err.value.report is None
        assert swept == [0.05, 0.025]

    def test_a_second_failed_interval_names_its_rung(self, monkeypatch, surge_scenario, surge_bundle):
        sc = surge_scenario

        def outcome(n):
            raise IntervalRepairError(f"interval {3 + n}", interval=3 + n, margin=-1e-3)

        record_sweeps(monkeypatch, outcome)
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert str(err.value) == (
            "interval 4 failed its interiority check twice, the second time at eps=0.025 "
            "(worst margin -0.001)"
        )

    def test_an_empty_set_after_a_failed_sweep_is_not_swept(
        self, monkeypatch, surge_scenario, surge_bundle, surge_run
    ):
        # Every rung below 0.05 is empty: each is rejected at violation inf,
        # and the run ends on the contract of the one sweep it made.
        sc = surge_scenario
        failed = dataclasses.replace(surge_run[3], interiority_margin=-1.0)
        self.patch_violation(monkeypatch, lambda eps: np.inf if eps < 0.05 else None)
        swept = record_sweeps(monkeypatch, lambda n: (sc.xbar, sc.ubar, failed))
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.stage == "contract"
        assert err.value.report is failed and swept == [0.05]

    def test_a_contract_failure_names_the_rung_its_report_comes_from(
        self, monkeypatch, surge_scenario, surge_bundle, surge_run
    ):
        # The ladder runs on to eps_cap / 2**60 after its one sweep at 0.05.
        sc = surge_scenario
        failed = dataclasses.replace(surge_run[3], interiority_margin=-1.0)
        self.patch_violation(monkeypatch, lambda eps: np.inf if eps < 0.05 else None)
        record_sweeps(monkeypatch, lambda n: (sc.xbar, sc.ubar, failed))
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.stage == "contract" and err.value.report is failed
        assert str(err.value).startswith("contract not met at eps=0.05, ")

    def test_one_failed_interval_at_the_last_swept_rung_is_not_called_twice(
        self, monkeypatch, surge_scenario, surge_bundle
    ):
        sc = surge_scenario
        self.patch_violation(monkeypatch, lambda eps: np.inf if eps < 0.05 else None)

        def outcome(n):
            raise IntervalRepairError("interval 3", interval=3, margin=-1e-3)

        swept = record_sweeps(monkeypatch, outcome)
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert err.value.stage == "interval" and err.value.report is None
        assert str(err.value) == (
            "interval 3 failed its interiority check at eps=0.05 (worst margin -0.001)"
        )
        assert swept == [0.05]

    @pytest.mark.parametrize("violation", [0.125, np.inf], ids=["above-cap", "empty"])
    def test_a_rung_after_a_failed_sweep_is_admitted_before_it_is_swept(
        self, monkeypatch, violation, surge_scenario, surge_bundle, surge_run
    ):
        sc = surge_scenario
        self.patch_violation(monkeypatch, lambda eps: violation if eps == 0.025 else None)
        swept = record_sweeps(monkeypatch)
        x_eps, u_eps, c, report = repair(sc.xbar, sc.ubar, 0.1, surge_bundle, sc.field, sc.model)
        assert swept == [0.05, 0.0125, 0.00625]
        assert x_eps.states.tobytes() == surge_run[0].states.tobytes()
        assert u_eps.values.tobytes() == surge_run[1].values.tobytes()
        line = f"eps = {0.025:.17g}  violation = {violation:.17g}  rejected"
        assert line in render_report(c, report, 0.1).splitlines()


class TestSuffixVerification:
    """The sweep re-integrates without the half-step check; the returned
    suffix is checked once and must equal that checked run bit for bit."""

    # The package-level name ``repair`` is the function, not the module.
    module = importlib.import_module("tightpath.repair")

    def test_stitched_suffix_equals_one_checked_run(
        self, surge_scenario, surge_run, decline_scenario, decline_run
    ):
        for sc, (x_eps, u_eps, c, report) in (
            (surge_scenario, surge_run),
            (decline_scenario, decline_run),
        ):
            t_start = next(r.t_start for r in report.records if r.case == "case-2")
            lo = int(np.searchsorted(x_eps.grid.nodes, t_start * (1 - 1e-12)))
            fresh = integrate(
                sc.model,
                u_eps,
                x_eps.states[lo],
                (t_start, float(x_eps.grid.t1)),
                c.step,
            )
            assert np.array_equal(fresh.grid.nodes, x_eps.grid.nodes[lo:])
            assert np.array_equal(fresh.states, x_eps.states[lo:])
            assert np.array_equal(x_eps.states[: lo + 1], sc.xbar.states[: lo + 1])

    def test_corrupted_suffix_state_fails_verification(
        self, monkeypatch, decline_scenario, decline_bundle
    ):
        sc = decline_scenario
        real = self.module.integrate

        def corrupted(model, u, x0, window, step, check=True):
            traj = real(model, u, x0, window, step, check)
            if check:
                return traj
            states = traj.states.copy()
            states[states.shape[0] // 2] += 1e-12
            return Trajectory(grid=traj.grid, states=states)

        monkeypatch.setattr(self.module, "integrate", corrupted)
        with pytest.raises(RepairError) as err:
            repair(sc.xbar, sc.ubar, 0.1, decline_bundle, sc.field, sc.model)
        assert err.value.stage == "verify"
        assert err.value.report is not None

    def test_tight_tolerance_fails_the_one_checked_run(
        self, monkeypatch, decline_scenario, decline_bundle
    ):
        sc = decline_scenario
        real = self.module.integrate
        checked = []

        def recording(model, u, x0, window, step, check=True):
            checked.append(check)
            return real(model, u, x0, window, step, check)

        monkeypatch.setattr(self.module, "integrate", recording)
        monkeypatch.setattr(
            importlib.import_module("tightpath.propagation"), "HALF_STEP_TOLERANCE", 0.0
        )
        with pytest.raises(AccuracyError):
            repair(sc.xbar, sc.ubar, 0.1, decline_bundle, sc.field, sc.model)
        assert len(checked) > 1
        assert checked.count(True) == 1 and checked[-1]


def replay_rho(xbar, ubar, c, bundle, field, model):
    """Suffix violation of every interval, from scratch: the sweep of the
    accepted constants replayed, with each interval's violation recomputed
    over the current iterate's nodes from the interval start on. Each
    record's ``rho`` must equal it."""
    xcur, ucur = xbar, ubar
    rhos = []
    for i in range(c.N0):
        start = int(c.partition[i])
        rhos.append(float(node_violations(field, c.eps, xcur, start=start).max()))
        violations = node_violations(field, c.eps, xcur)
        xcur, ucur, _ = repair_interval(i, xcur, ucur, c, bundle, field, model, violations)
    return rhos


@pytest.fixture(scope="module")
def moving_disk_run():
    times = np.linspace(0.0, 2.0, 61)
    model = expression_model(["u1", "u2"], 2, 2)
    field = field_from_config(
        {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
            "time_varying": True,
            "resolution": 0.025,
        }
    )
    grid = TimeGrid(times)
    xbar = Trajectory(grid, np.column_stack([-1.5 + 1.5 * times, np.full(times.size, 1.0005)]))
    ubar = ControlSignal(grid, np.tile([1.5, 0.0], (times.size, 1)))
    bundle = certify_all(model, field, ubar, xbar)
    x_eps, u_eps, c, report = repair(xbar, ubar, 0.1, bundle, field, model)
    return xbar, ubar, c, report, bundle, field, model, x_eps


def full_window_excess(states, omega_bar, step):
    """Reference: the window-modulus excess read at every width."""
    worst = -np.inf
    for j in range(1, len(states)):
        osc = float(np.max(np.linalg.norm(states[j:] - states[:-j], axis=1)))
        worst = max(worst, osc - omega_bar.value_at(j * step))
    return worst


def raw_table(deltas, values):
    """A ModulusTable holding ``values`` unchecked: entries the constructor
    refuses, such as inf, reach the scan only this way."""
    table = object.__new__(ModulusTable)
    object.__setattr__(table, "deltas", np.asarray(deltas, dtype=float))
    object.__setattr__(table, "values", np.asarray(values, dtype=float))
    return table


def counting_lookups(table, calls):
    """The table with its value_at wrapped to count the widths it reads."""
    lookup = table.value_at

    def value_at(delta):
        calls.append(delta)
        return lookup(delta)

    object.__setattr__(table, "value_at", value_at)
    return table


@pytest.mark.float_path
class TestWindowScans:
    """The window-excess scan and the window tables keep the full passes' bits."""

    @staticmethod
    def moduli(n, step, seed):
        rng = np.random.default_rng(seed)
        deltas = step * np.arange(n)
        ramp = np.maximum.accumulate(rng.uniform(0.0, 1.0, n)) * deltas
        short = ModulusTable(deltas[: n // 3], 0.02 * deltas[: n // 3])
        inf_tail = np.where(np.arange(n) > n // 2, np.inf, 0.01 * deltas)
        return {
            "flat": ModulusTable.zero(deltas[-1]),
            "gentle": ModulusTable(deltas, 0.05 * deltas),
            "steep": ModulusTable(deltas, 40.0 * deltas),
            "random": ModulusTable(deltas, ramp),
            "short": short,
            "inf-tail": raw_table(deltas, inf_tail),
            "inf-early": raw_table(deltas, np.where(deltas > 0, np.inf, 0.0)),
        }

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_excess_equals_the_full_per_width_loop(self, dim):
        repair_module = importlib.import_module("tightpath.repair")
        for seed in range(5):
            rng = np.random.default_rng(100 * dim + seed)
            n = int(rng.integers(2, 160))
            step = float(rng.uniform(0.001, 0.1))
            walk = np.cumsum(rng.normal(0.0, 0.05, (n, dim)), axis=0)
            if seed == 3:
                walk = np.tile(walk[:1], (n, 1))  # a constant trajectory
            if seed == 4:
                # Steps of 1e-9: each wider window oscillates a little more,
                # up to the reach at the full width, so a scan that stops
                # a hair early reads less.
                n = 150
                walk = np.cumsum(np.full((n, dim), 1e-9), axis=0)
            traj = Trajectory(TimeGrid.uniform(0.0, step * (n - 1), n - 1), walk)
            for name, table in self.moduli(n, step, seed).items():
                c = SimpleNamespace(omega_bar=table, step=step)
                want = full_window_excess(walk, table, step)
                got = repair_module._window_bound_excess(traj, c)
                assert type(got) is float
                assert np.array([got]).tobytes() == np.array([want]).tobytes(), (seed, name)

    def test_a_steep_modulus_stops_the_scan_early(self):
        repair_module = importlib.import_module("tightpath.repair")
        n, step = 400, 0.005
        walk = np.cumsum(np.random.default_rng(2).normal(0.0, 0.01, (n, 2)), axis=0)
        traj = Trajectory(TimeGrid.uniform(0.0, step * (n - 1), n - 1), walk)
        calls = []
        table = counting_lookups(ModulusTable(step * np.arange(n), 40.0 * step * np.arange(n)), calls)
        got = repair_module._window_bound_excess(traj, SimpleNamespace(omega_bar=table, step=step))
        assert got == full_window_excess(walk, table, step)
        assert 1 <= len(calls) - (n - 1) < 40  # the full loop read n - 1 widths after the scan

    def test_decline_repair_reads_few_widths(self, decline_run):
        repair_module = importlib.import_module("tightpath.repair")
        x_eps, _, c, report = decline_run
        calls = []
        table = counting_lookups(
            ModulusTable(c.omega_bar.deltas, c.omega_bar.values), calls
        )
        got = repair_module._window_bound_excess(x_eps, SimpleNamespace(omega_bar=table, step=c.step))
        assert got == report.window_excess == full_window_excess(x_eps.states, c.omega_bar, c.step)
        assert len(x_eps.states) == 2001 and len(calls) < 20

    @pytest.mark.parametrize("case", ["surge", "decline", "moving-disk"])
    def test_window_tables_match_the_brute_force_loops_bitwise(self, case, request, monkeypatch):
        # omega_bar on every width, and the oscillation table on the proxy
        # gate alone: decline keeps the window-modulus gate, so it never
        # builds one.
        if case == "moving-disk":
            xbar, ubar, _, _, bundle, field, _, _ = request.getfixturevalue("moving_disk_run")
        else:
            sc = request.getfixturevalue(f"{case}_scenario")
            xbar, ubar, field = sc.xbar, sc.ubar, sc.field
            bundle = request.getfixturevalue(f"{case}_bundle")
        built = []
        from_windows = ModulusTable.from_windows.__func__

        def recording(cls, deltas, spread):
            built.append(from_windows(cls, deltas, spread))
            return built[-1]

        monkeypatch.setattr(ModulusTable, "from_windows", classmethod(recording))
        c = schedule_constants(bundle, field, xbar, ubar, 0.1)
        nodes, states = xbar.grid.nodes, xbar.states
        n = nodes.size
        theta = np.abs(bundle.growth_envelope.values)
        gaps = np.diff(nodes)
        p1 = np.concatenate([[0.0], np.cumsum(0.5 * (theta[:-1] + theta[1:]) * gaps)])
        sq = theta**2
        p2 = np.concatenate([[0.0], np.cumsum(0.5 * (sq[:-1] + sq[1:]) * gaps)])
        osc_coef = c.R + bundle.control_bound
        l2_coef = float(np.sqrt(weighted_l2_cost(ubar))) + bundle.shift_radius.l2()
        combined, osc_only = np.zeros(n), np.zeros(n)
        best_c = best_o = 0.0
        for j in range(1, n):
            osc = np.linalg.norm(states[j:] - states[:-j], axis=1)
            l2 = np.sqrt(np.maximum(p2[j:] - p2[:-j], 0.0))
            best_c = max(best_c, float(np.max(osc + osc_coef * (p1[j:] - p1[:-j]) + l2_coef * l2)))
            best_o = max(best_o, float(np.max(osc)))
            combined[j], osc_only[j] = best_c, best_o
        assert c.omega_bar is built[2]
        assert c.omega_bar.values.tobytes() == combined.tobytes()
        for table in built:
            assert table.deltas.tobytes() == (xbar.grid.uniform_step() * np.arange(n)).tobytes()
        if case == "decline":
            assert c.oscillation_gate == GATE_WINDOW and len(built) == 3
        else:
            assert c.oscillation_gate == GATE_OSC and len(built) == 4
            assert built[3].values.tobytes() == osc_only.tobytes()

    def test_gap_growth_reads_the_constants_of_its_own_instance(self):
        # The slope and the exp(omega_f(T)) factor are read once per
        # constants; a replaced copy reads its own.
        c = linear_constants()
        assert c.gap_growth(0.25) == 0.5
        # Slope 0.75 + 0.25: g(1/4) = omega_bar(1/2) + (1/2) 1 = 3/4.
        steeper = dataclasses.replace(c, C_vDelta=0.75)
        assert steeper.gap_growth(0.25) == 0.75
        # exp(omega_f(T)) = e on a Lipschitz modulus of 1 over T = 1.5.
        ramp_f = ModulusTable(np.array([0.0, 0.5, 1.5]), np.array([0.0, 0.5, 1.0]))
        lipschitz = dataclasses.replace(c, omega_f=ramp_f)
        slope = 0.25 + 0.25 * float(np.exp(2.0 * 0.5))
        assert lipschitz.gap_growth(0.25) == float(np.exp(1.0)) * (0.25 + 0.5 * slope)
        assert c.gap_growth(0.25) == 0.5


class TestNodeViolations:
    """The sweep keeps each iterate's node violations and recomputes them
    only from a burst's interval start on."""

    @pytest.mark.parametrize("case", ["decline", "moving-disk"])
    def test_sweep_passes_the_violations_of_each_iterate(
        self, monkeypatch, case, decline_scenario, decline_bundle, decline_run, moving_disk_run
    ):
        if case == "decline":
            sc = decline_scenario
            xbar, ubar, field, model = sc.xbar, sc.ubar, sc.field, sc.model
            c, bundle = decline_run[2], decline_bundle
        else:
            xbar, ubar, c, _, bundle, field, model, _ = moving_disk_run
        module = importlib.import_module("tightpath.repair")
        real = module.repair_interval
        checked = []

        def checking(index, xcur, ucur, c, bundle, field, model, violations):
            fresh = node_violations(field, c.eps, xcur)
            checked.append(violations.tobytes() == fresh.tobytes())
            return real(index, xcur, ucur, c, bundle, field, model, violations)

        monkeypatch.setattr(module, "repair_interval", checking)
        _, _, report = module._sweep(xbar, ubar, c, bundle, field, model, None)
        assert any(r.case == "case-2" for r in report.records)
        assert len(checked) == c.N0 and all(checked)

    def test_rho_is_the_max_from_the_interval_start_on(
        self, surge_scenario, surge_bundle, surge_run
    ):
        # A far interval returns at once: its record carries the rho read
        # from the given vector, over the nodes from t_i on and no earlier.
        sc = surge_scenario
        _, _, c, _ = surge_run
        n = sc.xbar.grid.nodes.size
        deep = Trajectory(grid=sc.xbar.grid, states=np.full((n, 1), 1.5))
        lo = int(c.partition[3])
        violations = np.zeros(n)
        violations[lo - 1] = 0.75
        violations[lo] = 0.5
        violations[lo + 1 :] = 0.25
        _, _, record = repair_interval(
            3, deep, sc.ubar, c, surge_bundle, sc.field, sc.model, violations
        )
        assert record.case == "case-1"
        assert record.rho == 0.5

    def test_record_rho_equals_a_full_violation_sup(
        self, decline_scenario, decline_bundle, decline_run
    ):
        sc = decline_scenario
        _, _, c, report = decline_run
        want = replay_rho(sc.xbar, sc.ubar, c, decline_bundle, sc.field, sc.model)
        got = [r.rho for r in report.records]
        assert any(r.case == "case-2" for r in report.records)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_record_rho_on_a_time_varying_lattice_field(self, moving_disk_run):
        xbar, ubar, c, report, bundle, field, model, _ = moving_disk_run
        want = replay_rho(xbar, ubar, c, bundle, field, model)
        got = [r.rho for r in report.records]
        assert any(r.case == "case-2" for r in report.records)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("case", ["decline", "moving-disk"])
    def test_rho_final_is_the_violation_of_the_last_node(
        self, case, decline_scenario, decline_run, moving_disk_run
    ):
        if case == "decline":
            field, (x_eps, _, c, report) = decline_scenario.field, decline_run
        else:
            _, _, c, report, _, field, _, x_eps = moving_disk_run
        last = node_violations(field, c.eps, x_eps, start=len(x_eps.grid) - 1)
        assert last.shape == (1,)
        assert np.float64(report.rho_final).tobytes() == last.tobytes()

    def test_slices_equal_the_vector_of_the_slice(self, moving_disk_run):
        xbar, _, c, _, _, field, _, _ = moving_disk_run
        full = node_violations(field, c.eps, xbar)
        assert full.shape == (len(xbar.grid),)
        for start in (0, 1, 17, len(xbar.grid) - 2):
            part = node_violations(field, c.eps, xbar, start=start)
            assert part.tobytes() == full[start:].tobytes()
        assert float(full.max()) == violation_sup(field, c.eps, xbar)
