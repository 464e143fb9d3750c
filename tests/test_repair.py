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
* A reference dipped smoothly 0.18 below its floor sinks at least 0.12
  inside every tightened ring, which exceeds the violation cap at every
  tightening level, so no tightening passes the schedule gate.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath import (
    AccuracyError,
    ControlSignal,
    HypothesisBundle,
    InwardPointingError,
    ModulusTable,
    RepairConstants,
    RepairError,
    SampledFunction,
    ScheduleError,
    TimeGrid,
    Trajectory,
    certify_all,
    double_integrator,
    eval_rhs,
    expression_model,
    field_from_config,
    growth_maps,
    integrate,
    inward_control_at,
    motor_scenario,
    node_violations,
    render_report,
    repair,
    repair_interval,
    schedule_constants,
    unit_ball_complement,
    violation_sup,
    weighted_l2_cost,
)

GATE_WINDOW = "window-modulus"
GATE_OSC = "state-oscillation"


def linear_constants() -> RepairConstants:
    """Constants with an exactly linear growth map (see module docstring)."""
    flat = ModulusTable(np.array([0.0, 8.0]), np.array([0.0, 0.0]))
    ramp_d = np.array([0.0, 0.5, 1.5, 4.5, 8.0])
    ramp = ModulusTable(ramp_d, 0.5 * ramp_d)
    return RepairConstants(
        Delta=0.5,
        k=2.0,
        rho_hat=1.0,
        eps=0.1,
        N0=3,
        partition=np.array([0, 1, 2, 3]),
        M_Delta=0.25,
        C_vDelta=0.25,
        R=2.0,
        omega_gamma=flat,
        omega_f=flat,
        omega_bar=ramp,
        rho_bar_eps=0.25,
        stride=1,
        step=0.5,
        oscillation_gate=GATE_WINDOW,
        eps_trail=((0.1, 0.25, True),),
        horizon=1.5,
    )


class TestGrowthMaps:
    def test_zero_is_a_fixed_point(self):
        g, g_tilde, d_tilde = growth_maps(0.0, linear_constants())
        assert g == 0.0
        assert g_tilde == 0.0
        assert np.array_equal(d_tilde, np.zeros(3))

    def test_linear_recursion_closed_form(self):
        g, g_tilde, d_tilde = growth_maps(0.25, linear_constants())
        assert g == 0.5
        assert g_tilde == 0.75
        assert np.array_equal(d_tilde, np.array([0.75, 3.0, 9.75]))

    def test_negative_violation_rejected(self):
        from tightpath import DomainError

        with pytest.raises(DomainError):
            growth_maps(-0.1, linear_constants())

    def test_naive_loop_oracle_matches_exactly(self, surge_run, decline_run):
        for _, _, c, _ in (surge_run, decline_run):
            g, g_tilde, d_tilde = growth_maps(c.rho_bar_eps, c)
            e_total = float(np.exp(c.omega_f.value_at(c.horizon)))
            slope = c.C_vDelta + c.M_Delta * float(np.exp(2.0 * c.omega_f.value_at(c.Delta)))

            def g_ref(r):
                if r == 0.0:
                    return 0.0
                return e_total * (c.omega_bar.value_at(c.k * r) + c.k * r * slope)

            assert g == g_ref(c.rho_bar_eps)
            assert g_tilde == c.rho_bar_eps + g_ref(c.rho_bar_eps)
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
        ga, gta, da = growth_maps(a, c)
        gb, gtb, db = growth_maps(b, c)
        assert ga <= gb
        assert gta <= gtb
        assert np.all(da <= db)


def window_integral(nodes, values, width):
    """Independent sup of window integrals at widths up to ``width``."""
    pref = np.concatenate(
        [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(nodes))]
    )
    j = int(round(width / float(nodes[1] - nodes[0])))
    return float(np.max(pref[j:] - pref[:-j]))


def combined_window_sup(scenario, bundle, c, width):
    """Independent brute-force evaluation of the window modulus."""
    nodes = scenario.grid.nodes
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
        om_g = window_integral(sc.grid.nodes, bundle.time_drift.values, c.Delta)
        om_f = window_integral(sc.grid.nodes, bundle.state_lipschitz.values, c.Delta)
        assert c.M_Delta == pytest.approx(om_g + bundle.velocity_bound * om_f, rel=1e-12)
        e_f = np.exp(om_f)
        assert c.M_Delta * e_f <= xi / 2
        assert 1.0 + c.k * c.M_Delta * (1.0 + e_f) * e_f <= c.k * xi / 2
        assert c.C_vDelta == pytest.approx(
            bundle.velocity_bound + c.M_Delta * e_f, rel=1e-12
        )
        widths = np.diff(sc.grid.nodes[c.partition])
        assert np.all(widths > 0)
        assert np.all(widths <= c.Delta * (1 + 1e-12))
        assert c.partition.dtype.kind == "i"
        assert c.partition[0] == 0
        assert c.partition[-1] == sc.grid.nodes.size - 1
        assert c.N0 == len(c.partition) - 1

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

    def test_tightening_gates(self, bundle_case):
        sc, bundle = bundle_case
        c = schedule_constants(bundle, sc.field, sc.xbar, sc.ubar, 0.1)
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

    def test_eps_infeasible(self, surge_scenario, surge_bundle):
        # A slow dip keeps window oscillation under the collar gate while
        # sinking 0.12 past the untightened boundary, which exceeds the
        # violation cap at every tightening level.
        sc = surge_scenario
        t = sc.grid.nodes
        bump = np.where(
            (t >= 0.5) & (t <= 1.0), np.sin(np.pi * (t - 0.5) / 0.5) ** 2, 0.0
        )
        dipped = sc.xbar.states - 0.18 * bump[:, None]
        broken = Trajectory(grid=sc.xbar.grid, states=dipped)
        with pytest.raises(ScheduleError) as err:
            schedule_constants(surge_bundle, sc.field, broken, sc.ubar, 0.1)
        assert err.value.kind == "eps-infeasible"

    def test_rejects_nonpositive_tolerance(self, surge_scenario, surge_bundle):
        from tightpath import DomainError

        sc = surge_scenario
        with pytest.raises(DomainError):
            schedule_constants(surge_bundle, sc.field, sc.xbar, sc.ubar, 0.0)


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
            inward_control_at(bundle, field, double_integrator(), 0.05, 0.0, [1.05, 0.0])
        witness = err.value.witness
        assert witness["t"] == 0.0
        assert witness["margin"] < 0


class TestRepairInterval:
    def test_far_interval_is_identity(self, surge_scenario, surge_bundle, surge_run):
        sc = surge_scenario
        _, _, c, _ = surge_run
        n = sc.grid.nodes.size
        deep = Trajectory(grid=sc.grid, states=np.full((n, 1), 1.5))
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
        n = sc.grid.nodes.size
        level = 1.0 + c.eps + 0.01
        near = Trajectory(grid=sc.grid, states=np.full((n, 1), level))
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

    def test_trail_marks_retried_sweeps_rejected(self, surge_scenario, surge_bundle, surge_run):
        sc = surge_scenario
        _, _, c, report = surge_run
        scheduled = schedule_constants(surge_bundle, sc.field, sc.xbar, sc.ubar, 0.1)
        first_swept = len(scheduled.eps_trail) - 1
        assert scheduled.eps_trail[first_swept][2]  # the schedule kept this eps
        assert len(c.eps_trail) > len(scheduled.eps_trail)  # but its sweep was retried
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
        n = sc.grid.nodes.size
        deep = Trajectory(grid=sc.grid, states=np.full((n, 1), 1.5))
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
