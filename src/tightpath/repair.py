"""Constant scheduling and interior repair of boundary-hugging references.

Given a feasible reference pair and a certificate bundle, this module
derives the window width, burst rate, violation cap, and tightening that
make the two-step construction go through, then rebuilds the trajectory
interval by interval: a short inward burst wherever the suffix violates
the tightened constraint, a delayed replay of the previous control for
the rest of the interval, and the untouched control beyond it. The result
is strictly interior for the tightened set while staying close to the
reference in both sup distance and quadratic control cost.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsModel, shift_selection
from .errors import (
    DomainError,
    IntervalRepairError,
    InwardPointingError,
    RepairError,
    ScheduleError,
)
from .geometry import ConstraintField, dist_to_boundary, node_violations, violation_sup
from .hypotheses import (
    HypothesisBundle,
    best_inward_candidate,
    control_candidates,
    inclusion_margins,
    validate_bundle,
)
from .propagation import gronwall_radius, integrate
from .signals import (
    ControlSignal,
    ModulusTable,
    Trajectory,
    build_modulus_table,
    linf_distance,
    trapezoid_prefix,
    weighted_l2_cost,
)

_MAX_HALVINGS = 60

# Names for the window-width gate that bounded the reference oscillation:
# the full window modulus when it fits under the collar quarter, otherwise
# the observed state oscillation plus boundary drift as a proxy.
GATE_WINDOW_MODULUS = "window-modulus"
GATE_STATE_OSCILLATION = "state-oscillation"


@dataclass(frozen=True)
class RepairConstants:
    """The scheduled constants consumed by the interval loop."""

    Delta: float
    k: float
    rho_hat: float
    eps: float
    N0: int
    partition: np.ndarray  # grid node indices of the interval ends
    M_Delta: float
    C_vDelta: float
    R: float
    omega_gamma: ModulusTable
    omega_f: ModulusTable
    omega_bar: ModulusTable
    rho_bar_eps: float
    stride: int
    step: float
    oscillation_gate: str
    eps_trail: tuple
    horizon: float

    def exp_omega_f(self, width: float) -> float:
        return float(np.exp(self.omega_f.value_at(width)))

    def gap_growth(self, rho: float) -> float:
        """The gap-growth map g: the sup gap one repaired interval can
        introduce at violation level ``rho``. Monotone, 0 at 0, and it may
        overflow to inf once ``k * rho`` leaves the modulus table."""
        if rho == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            e_delta = float(np.exp(2.0 * self.omega_f.value_at(self.Delta)))
            slope = self.C_vDelta + self.M_Delta * e_delta
            return self.exp_omega_f(self.horizon) * (
                self.omega_bar.value_at(self.k * rho) + self.k * rho * slope
            )


@dataclass(frozen=True)
class IterationRecord:
    """One interval of the repair loop, with its verification data.

    ``cone_excess`` and ``delay_gap_excess`` are signed: the worst amount
    by which the burst cone and delayed-comparison bounds were exceeded at
    a grid node (negative means the bound held with room). ``margin_min``
    is the worst interiority margin over the interval's grid nodes.
    """

    index: int
    t_start: float
    t_end: float
    case: str
    rho: float
    d_sup: float
    margin_min: float
    u0: tuple | None = None
    delay: float = 0.0
    burst_end: float = 0.0
    cone_excess: float = -np.inf
    delay_gap_excess: float = -np.inf
    gap_to_previous: float = 0.0
    gap_bound: float = 0.0


@dataclass(frozen=True)
class RepairReport:
    """Everything the repair run measured, for auditing the guarantees."""

    records: tuple
    final_linf_gap: float
    final_cost_gap: float
    interiority_margin: float
    cost_reference: float
    cost_repaired: float
    envelope_sup: float
    rho_final: float
    iter_rho_excess: float
    d_bound_excess: float
    window_excess: float


def growth_maps(rho: float, c: RepairConstants):
    """Evaluate the interval growth map and its compositions at ``rho``.

    Returns ``(g, g_tilde, d_tilde)`` where ``g = c.gap_growth(rho)`` bounds
    the sup gap one repaired interval can introduce, ``g_tilde = rho +
    g(rho)`` bounds the next violation level, and ``d_tilde[n-1]`` is the
    sum of the first n compositions of ``g_tilde`` (the accumulated-distance
    bound after n intervals). All three are monotone in ``rho``;
    compositions that leave the modulus table saturate and may overflow to
    inf.
    """
    if rho < 0:
        raise DomainError("growth maps take a nonnegative violation level")
    g_val = c.gap_growth(rho)
    compositions = np.empty(c.N0)
    r = rho
    with np.errstate(over="ignore"):
        for n in range(c.N0):
            r = r + c.gap_growth(r)
            compositions[n] = r
        d_tilde = np.cumsum(compositions)
    return g_val, rho + g_val, d_tilde


def _window_tables(grid, states, theta_values, osc_coef: float, l2_coef: float):
    """Tabulate the combined window modulus and the bare state oscillation.

    For every window width the combined value is the sup over same-width
    windows of (state oscillation + osc_coef * envelope L1 + l2_coef *
    envelope L2), the quantity bounding how far an iterate can move across
    the window. The oscillation-only table backs the proxy gate.
    """
    p1 = trapezoid_prefix(grid, np.abs(theta_values))
    p2 = trapezoid_prefix(grid, theta_values**2)
    n = grid.nodes.size
    combined = np.zeros(n)
    osc_only = np.zeros(n)
    best_c = 0.0
    best_o = 0.0
    for j in range(1, n):
        osc = np.linalg.norm(states[j:] - states[:-j], axis=1)
        l1 = p1[j:] - p1[:-j]
        l2 = np.sqrt(np.maximum(p2[j:] - p2[:-j], 0.0))
        best_c = max(best_c, float(np.max(osc + osc_coef * l1 + l2_coef * l2)))
        best_o = max(best_o, float(np.max(osc)))
        combined[j] = best_c
        osc_only[j] = best_o
    widths = np.concatenate([[0.0], np.cumsum(np.diff(grid.nodes))])
    return ModulusTable(widths, combined), ModulusTable(widths, osc_only)


def _tightened_nonempty(field: ConstraintField, eps: float, times) -> bool:
    """Probe a box lattice for at least one feasible state at each time."""
    box = field.sampling_box
    axes = [np.linspace(lo, hi, 13) for lo, hi in box]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, field.dim)
    for t in times:
        if not np.any(field.margin(float(t), lattice, eps) >= 0):
            return False
    return True


def schedule_constants(
    bundle: HypothesisBundle,
    field: ConstraintField,
    xbar: Trajectory,
    ubar: ControlSignal,
    lam: float,
) -> RepairConstants:
    """Derive the repair constants by deterministic backtracking.

    The window width starts at min(inward slack, certified window cap) and
    halves until the boundary-drift, oscillation, and drift-versus-slack
    inequalities all hold; the burst rate is 4 over the inward slack; the
    violation cap is the smallest of the three proof caps; the tightening
    halves from the certified cap until the reference's violation fits
    under the cap with a strictly interior start. When the full window
    modulus cannot fit under a quarter collar at any representable width
    (references with large certified envelopes), the gate falls back to
    the observed state oscillation and records that choice.
    """
    if lam <= 0:
        raise DomainError("the closeness tolerance must be positive")
    validate_bundle(bundle, reference_sup=xbar.max_norm())
    grid = ubar.grid
    if not np.array_equal(grid.nodes, xbar.grid.nodes):
        raise DomainError("reference control and trajectory must share a grid")
    t0, t1 = float(grid.t0), float(grid.t1)
    horizon = t1 - t0
    step = float(grid.step)

    if field.margin(t0, xbar.states[0], 0.0) <= 0:
        raise ScheduleError(
            "initial-condition",
            "the reference starts on the untightened boundary; no tightening "
            "leaves an interior start",
        )

    omega_gamma = build_modulus_table(grid, bundle.time_drift.values)
    omega_f = build_modulus_table(grid, bundle.state_lipschitz.values)
    ubar_l2 = float(np.sqrt(weighted_l2_cost(ubar)))
    beta_l2 = bundle.shift_radius.l2()
    theta = bundle.growth_envelope
    radius = gronwall_radius(
        theta.l1(), theta.l2(), xbar.max_norm(), bundle.control_bound, ubar_l2, beta_l2
    )
    omega_bar, osc_table = _window_tables(
        grid, xbar.states, theta.values, radius + bundle.control_bound, ubar_l2 + beta_l2
    )

    xi = bundle.inward_slack
    eta = bundle.collar_width
    m_v = bundle.velocity_bound
    k = 4.0 / xi
    rho_hat = min(1.0 / (k * m_v), xi / k, 1.0 / k)

    modulus_check = "window modulus <= eta/4"

    def window_checks(width: float, gate: str):
        drift = omega_gamma.value_at(width) + m_v * omega_f.value_at(width)
        e_w = float(np.exp(omega_f.value_at(width)))
        checks = {
            "boundary drift <= eta/4": bundle.boundary_drift.value_at(width) <= eta / 4,
            "interval drift x exp <= xi/2": drift * e_w <= xi / 2,
            "composite growth <= k xi/2": 1.0 + k * drift * (1.0 + e_w) * e_w
            <= k * xi / 2,
        }
        if gate == GATE_WINDOW_MODULUS:
            checks[modulus_check] = omega_bar.value_at(width) <= eta / 4
        else:
            checks["state oscillation + boundary drift <= eta/4"] = (
                osc_table.value_at(width) + bundle.boundary_drift.value_at(width)
                <= eta / 4
            )
        return drift, checks

    def ladder(gate: str):
        """((stride, width, drift) of the widest passing window, []), or
        (None, the checks that still fail at one grid step per window)."""
        width = min(xi, bundle.window_cap, horizon)
        while True:
            stride = max(1, int(width / step * (1.0 + 1e-9)))
            drift, checks = window_checks(stride * step, gate)
            if all(checks.values()):
                return (stride, stride * step, drift), []
            if stride == 1:
                return None, [name for name, good in checks.items() if not good]
            width /= 2.0

    gate = GATE_WINDOW_MODULUS
    window, failed = ladder(gate)
    if modulus_check in failed:
        gate = GATE_STATE_OSCILLATION
        window, failed = ladder(gate)
    if failed:
        raise ScheduleError(
            "delta-infeasible",
            f"at one grid step per window ({step:g}) still violated: {', '.join(failed)}",
        )
    stride, delta, m_delta = window

    c_v_delta = m_v + m_delta * float(np.exp(omega_f.value_at(delta)))
    indices = list(range(0, grid.nodes.size, stride))
    if indices[-1] != grid.nodes.size - 1:
        indices.append(grid.nodes.size - 1)
    partition = np.asarray(indices)
    n0 = len(partition) - 1

    probe_times = grid.nodes[partition[:: max(1, n0 // 8)]]
    eps = bundle.eps_cap
    trail = []
    chosen = None
    for _ in range(_MAX_HALVINGS + 1):
        rho_bar = violation_sup(field, eps, xbar)
        interior = float(field.margin(t0, xbar.states[0], eps)) > 0
        nonempty = _tightened_nonempty(field, eps, probe_times)
        ok = rho_bar <= rho_hat and interior and nonempty
        trail.append((float(eps), float(rho_bar), bool(ok)))
        if ok:
            chosen = (eps, rho_bar)
            break
        eps /= 2.0
    if chosen is None:
        last_eps, last_rho, _ = trail[-1]
        if last_rho > rho_hat:
            detail = f"violation {last_rho:g} still above the cap {rho_hat:g} at eps={last_eps:g}"
        else:
            detail = f"no interior start or empty tightened set down to eps={last_eps:g}"
        raise ScheduleError("eps-infeasible", detail)

    return RepairConstants(
        Delta=float(delta),
        k=float(k),
        rho_hat=float(rho_hat),
        eps=float(chosen[0]),
        N0=int(n0),
        partition=partition,
        M_Delta=float(m_delta),
        C_vDelta=float(c_v_delta),
        R=float(radius),
        omega_gamma=omega_gamma,
        omega_f=omega_f,
        omega_bar=omega_bar,
        rho_bar_eps=float(chosen[1]),
        stride=int(stride),
        step=step,
        oscillation_gate=gate,
        eps_trail=tuple(trail),
        horizon=float(horizon),
    )


def inward_control_at(
    bundle: HypothesisBundle,
    field: ConstraintField,
    model: DynamicsModel,
    eps: float,
    t: float,
    x,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the control with the best sampled forward-cone margin at (t, x).

    The candidate set is the same one the inward-pointing certificate was
    sampled on; the winner maximizes the worst-case inclusion margin, with
    ties going to the smaller control. A negative best margin means the
    certificate does not cover this point and is reported as a failure
    with the witness attached. Interior points far from the boundary are
    fine: the margin is simply generous there.
    """
    x = np.asarray(x, dtype=float)
    candidates = control_candidates(bundle.seed, model.control_dim, bundle.control_bound)
    horizon = float(bundle.growth_envelope.grid.t1)
    margins, velocities = inclusion_margins(
        field, model, eps, float(t), x, candidates, bundle.inward_slack, horizon
    )
    best = best_inward_candidate(margins, candidates)
    if margins[best] < 0:
        raise InwardPointingError(
            f"no candidate control points inward at t={t:g}",
            witness={"eps": float(eps), "t": float(t), "x": x.copy(), "margin": float(margins[best])},
        )
    return candidates[best].copy(), velocities[best].copy()


def repair_interval(
    index: int,
    xcur: Trajectory,
    ucur: ControlSignal,
    c: RepairConstants,
    bundle: HypothesisBundle,
    field: ConstraintField,
    model: DynamicsModel,
    violations: np.ndarray,
):
    """Repair one partition interval.

    Returns ``(traj, control, record)``: the next iterate and the
    interval's record. ``violations`` is ``node_violations`` of ``xcur``
    at ``c.eps``, which the sweep keeps; the suffix violation is its max
    over the nodes from the interval start on.

    Far from the boundary the interval is left untouched. Near it, the
    suffix violation level sets the burst length: the inward control is
    transported across the burst, the current control replays with that
    delay across the rest of the interval, and everything past the
    interval end is kept; the trajectory is re-integrated from the
    interval start and the interval's grid margins must come out strictly
    positive. The sup gap to the incoming iterate is recorded against its
    growth-map bound. The re-integration runs without the half-step
    check, because a later burst may overwrite the suffix; ``repair``
    checks the suffix it returns once, in one run.
    """
    grid = xcur.grid
    nodes = grid.nodes
    lo, hi = int(c.partition[index]), int(c.partition[index + 1])
    t_i, t_next = float(nodes[lo]), float(nodes[hi])
    x_ti = xcur.states[lo]

    rho_i = float(violations[lo:].max())
    boundary_gap = dist_to_boundary(field, c.eps, t_i, x_ti)

    def finish(traj, case, record_kw):
        margin_min = float(field.margin(nodes[lo : hi + 1], traj.states[lo : hi + 1], c.eps).min())
        if margin_min <= 0:
            raise IntervalRepairError(
                f"interval {index} margin {margin_min:g} at a grid node "
                f"(case {case}, rho={rho_i:g})",
                interval=index,
                margin=margin_min,
            )
        return IterationRecord(
            index=index,
            t_start=t_i,
            t_end=t_next,
            case=case,
            rho=float(rho_i),
            d_sup=0.0,
            margin_min=margin_min,
            **record_kw,
        )

    if boundary_gap > bundle.collar_width / 2.0:
        return xcur, ucur, finish(xcur, "case-1", {})
    if rho_i == 0.0:
        return xcur, ucur, finish(xcur, "case-2-identity", {})

    u0, v0 = inward_control_at(bundle, field, model, c.eps, t_i, x_ti)
    delay = c.k * rho_i
    burst_end = min(t_i + delay, t_next)

    values = ucur.values.copy()
    for j in range(lo, hi):
        t_j = float(nodes[j])
        if t_j < burst_end:
            values[j] = u0 if t_j == t_i else shift_selection(model, t_i, t_j, x_ti, u0)
        else:
            target = ucur.eval(t_j - delay)
            values[j] = shift_selection(model, t_j - delay, t_j, x_ti, target)
    control = ControlSignal(grid=grid, values=values)

    segment = integrate(model, control, x_ti, (t_i, float(nodes[-1])), c.step, check=False)
    if not np.array_equal(segment.grid.nodes, nodes[lo:]):
        raise RepairError(
            "re-integrated suffix landed off the reference grid",
            stage="interval",
        )
    states = np.vstack([xcur.states[:lo], segment.states])
    traj = Trajectory(grid=grid, states=states)

    gap = float(np.max(np.linalg.norm(states[lo:] - xcur.states[lo:], axis=1)))
    g_val = c.gap_growth(rho_i)

    burst_sel = (nodes >= t_i) & (nodes <= burst_end + 1e-12)
    dt = nodes[burst_sel] - t_i
    cone = np.linalg.norm(states[burst_sel] - x_ti - dt[:, None] * v0[None, :], axis=1)
    cone_excess = float(np.max(cone - dt * (bundle.inward_slack / 2.0)))

    delay_gap_excess = -np.inf
    if burst_end < t_next:
        tail_sel = (nodes >= burst_end) & (nodes <= t_next + 1e-12)
        tail_t = nodes[tail_sel]
        y = xcur.resample(tail_t - delay) + delay * v0[None, :]
        bound = delay * c.M_Delta * (1.0 + c.exp_omega_f(c.Delta)) * c.exp_omega_f(c.Delta)
        delay_gap_excess = float(
            np.max(np.linalg.norm(states[tail_sel] - y, axis=1) - bound)
        )

    record_kw = dict(
        u0=tuple(float(v) for v in u0),
        delay=float(delay),
        burst_end=float(burst_end),
        cone_excess=cone_excess,
        delay_gap_excess=delay_gap_excess,
        gap_to_previous=gap,
        gap_bound=float(g_val),
    )
    return traj, control, finish(traj, "case-2", record_kw)


def repair(
    xbar: Trajectory,
    ubar: ControlSignal,
    lam: float,
    bundle: HypothesisBundle,
    field: ConstraintField,
    model: DynamicsModel,
    weight=None,
):
    """Produce a strictly interior neighbor of the reference pair.

    Schedules the constants, then sweeps the partition left to right,
    repairing each interval against the current suffix violation. After
    the sweep the three guarantees are measured outright: positive grid
    margins for the tightened constraint, sup distance to the reference at
    most ``lam``, and weighted quadratic control cost within ``lam`` of
    the reference cost. If any of them fails, the tightening is halved and
    the sweep rerun (the analytic schedule guarantees existence of a small
    enough tightening; halving finds one deterministically).

    The sweeps re-integrate without the half-step check. An accepted pair
    is re-integrated once from the start of its first burst interval to
    the horizon with the check on, and that run must reproduce the
    stitched states bit for bit: a disagreement raises ``AccuracyError``,
    a mismatch raises ``RepairError`` at stage ``verify``. A pair without
    a burst is the reference itself and is not re-integrated. Returns
    ``(x_eps, u_eps, constants, report)``.
    """
    base_margins = field.margin(xbar.grid.nodes, xbar.states, 0.0)
    if float(base_margins.min()) < 0:
        raise RepairError(
            f"reference violates the untightened constraint by {-base_margins.min():g}",
            stage="precondition",
        )
    if not np.all(np.isfinite(ubar.values)):
        raise RepairError("reference control is not essentially bounded", stage="precondition")

    c = schedule_constants(bundle, field, xbar, ubar, lam)
    interval_retry_used = False
    last_report = None

    while True:
        # Every entry after the first of the trail is one halving.
        exhausted = len(c.eps_trail) > _MAX_HALVINGS
        try:
            x_eps, u_eps, report = _sweep(xbar, ubar, c, bundle, field, model, weight)
        except IntervalRepairError as exc:
            if interval_retry_used or exhausted:
                raise RepairError(
                    f"interval {exc.interval} failed its interiority check twice "
                    f"(worst margin {exc.margin:g})",
                    stage="interval",
                    report=last_report,
                ) from exc
            interval_retry_used = True
        else:
            last_report = report
            ok = (
                report.interiority_margin > 0
                and report.final_linf_gap <= lam
                and report.final_cost_gap <= lam
            )
            if ok:
                _verify_suffix(x_eps, u_eps, c, report, model)
                return x_eps, u_eps, c, report
            if exhausted:
                raise RepairError(
                    f"contract not met at the smallest tightening tried: margin "
                    f"{report.interiority_margin:g}, sup gap {report.final_linf_gap:g}, "
                    f"cost gap {report.final_cost_gap:g} vs lambda {lam:g}",
                    stage="contract",
                    report=report,
                )
        c = _retighten(c, field, xbar)


def _verify_suffix(x_eps: Trajectory, u_eps: ControlSignal, c, report, model) -> None:
    """Half-step check the returned suffix, and tie the stitched states to it."""
    bursts = [r.index for r in report.records if r.case == "case-2"]
    if not bursts:
        return
    nodes = x_eps.grid.nodes
    lo = int(c.partition[bursts[0]])
    fresh = integrate(model, u_eps, x_eps.states[lo], (float(nodes[lo]), float(nodes[-1])), c.step)
    if not np.array_equal(fresh.grid.nodes, nodes[lo:]):
        raise RepairError(
            "the verifying run of the repaired suffix landed off the reference grid",
            stage="verify",
            report=report,
        )
    if not np.array_equal(fresh.states, x_eps.states[lo:]):
        bad = int(np.flatnonzero(np.any(fresh.states != x_eps.states[lo:], axis=1))[0])
        raise RepairError(
            f"the stitched trajectory differs from one run over the repaired suffix "
            f"at t={float(nodes[lo + bad])!r}",
            stage="verify",
            report=report,
        )


def _retighten(c: RepairConstants, field, xbar) -> RepairConstants:
    """Halve eps after a failed sweep: the failed eps is marked rejected."""
    *earlier, (failed_eps, failed_rho, _) = c.eps_trail
    eps = c.eps / 2.0
    rho_bar = violation_sup(field, eps, xbar)
    trail = (*earlier, (failed_eps, failed_rho, False), (float(eps), float(rho_bar), True))
    return dataclasses.replace(c, eps=float(eps), rho_bar_eps=float(rho_bar), eps_trail=trail)


def _sweep(xbar, ubar, c, bundle, field, model, weight):
    xcur, ucur = xbar, ubar
    records = []
    envelope = float(np.max(np.abs(xbar.states)))
    # Node violations of the current iterate. A burst changes the states
    # from its interval start on, and only those entries are recomputed.
    violations = node_violations(field, c.eps, xcur)
    for i in range(c.N0):
        xcur, ucur, record = repair_interval(i, xcur, ucur, c, bundle, field, model, violations)
        if record.case == "case-2":
            lo = int(c.partition[i])
            violations = np.concatenate(
                [violations[:lo], node_violations(field, c.eps, xcur, start=lo)]
            )
            d_sup = float(linf_distance(xcur, xbar))
            envelope = max(envelope, float(np.max(np.abs(xcur.states))))
        else:
            d_sup = records[-1].d_sup if records else 0.0
        records.append(dataclasses.replace(record, d_sup=d_sup))

    margins = field.margin(xcur.grid.nodes, xcur.states, c.eps)
    cost_ref = float(weighted_l2_cost(ubar, weight))
    cost_out = float(weighted_l2_cost(ucur, weight))
    rho_final = float(violations[-1])  # at the horizon node
    linf_gap = records[-1].d_sup if records else 0.0

    iter_excess = -np.inf
    for prev, nxt in zip(records[:-1], records[1:]):
        iter_excess = max(iter_excess, nxt.rho - (prev.rho + c.gap_growth(prev.rho)))
    last = records[-1].rho
    iter_excess = max(iter_excess, rho_final - (last + c.gap_growth(last)))

    _, _, d_tilde = growth_maps(c.rho_bar_eps, c)
    with np.errstate(invalid="ignore"):
        d_excess = linf_gap - float(d_tilde[-1])
        if np.isnan(d_excess):
            d_excess = -np.inf

    window_excess = _window_bound_excess(xcur, c)
    report = RepairReport(
        records=tuple(records),
        final_linf_gap=linf_gap,
        final_cost_gap=abs(cost_out - cost_ref),
        interiority_margin=float(margins.min()),
        cost_reference=cost_ref,
        cost_repaired=cost_out,
        envelope_sup=envelope,
        rho_final=float(rho_final),
        iter_rho_excess=float(iter_excess),
        d_bound_excess=float(d_excess),
        window_excess=window_excess,
    )
    return xcur, ucur, report


def _window_bound_excess(traj: Trajectory, c: RepairConstants) -> float:
    """Worst violation of the window modulus by the final trajectory."""
    states = traj.states
    n = states.shape[0]
    worst = -np.inf
    for j in range(1, n):
        osc = float(np.max(np.linalg.norm(states[j:] - states[:-j], axis=1)))
        worst = max(worst, osc - c.omega_bar.value_at(j * c.step))
    return worst


def _fmt(value) -> str:
    return format(float(value), ".17g")


def render_report(c: RepairConstants, report: RepairReport, lam: float) -> str:
    """Render the run as deterministic structured text.

    Identical runs produce byte-identical output: every number is printed
    with repr-exact precision and nothing time- or path-dependent goes in.
    """
    lines = []
    push = lines.append
    push("interior repair report")
    push("")
    push("[constants]")
    for name in (
        "Delta",
        "k",
        "rho_hat",
        "eps",
        "rho_bar_eps",
        "M_Delta",
        "C_vDelta",
        "R",
        "step",
    ):
        push(f"{name} = {_fmt(getattr(c, name))}")
    push(f"N0 = {c.N0}")
    push(f"stride = {c.stride}")
    push(f"oscillation_gate = {c.oscillation_gate}")
    push(f"lambda = {_fmt(lam)}")
    push(f"omega_gamma(Delta) = {_fmt(c.omega_gamma.value_at(c.Delta))}")
    push(f"omega_f(Delta) = {_fmt(c.omega_f.value_at(c.Delta))}")
    push(f"omega_bar(Delta) = {_fmt(c.omega_bar.value_at(c.Delta))}")
    push(f"omega_bar(step) = {_fmt(c.omega_bar.value_at(c.step))}")
    push("")
    push("[tightening trail]")
    for eps, rho_bar, ok in c.eps_trail:
        push(f"eps = {_fmt(eps)}  violation = {_fmt(rho_bar)}  {'kept' if ok else 'rejected'}")
    push("")
    push("[intervals]")
    push("index t_start t_end case rho d_sup margin_min delay cone_excess delay_gap_excess gap gap_bound")
    for r in report.records:
        u0 = "-" if r.u0 is None else ",".join(_fmt(v) for v in r.u0)
        push(
            " ".join(
                [
                    str(r.index),
                    _fmt(r.t_start),
                    _fmt(r.t_end),
                    r.case,
                    _fmt(r.rho),
                    _fmt(r.d_sup),
                    _fmt(r.margin_min),
                    _fmt(r.delay),
                    _fmt(r.cone_excess),
                    _fmt(r.delay_gap_excess),
                    _fmt(r.gap_to_previous),
                    _fmt(r.gap_bound),
                    f"u0={u0}",
                ]
            )
        )
    push("")
    push("[checks]")
    push(f"interiority margin = {_fmt(report.interiority_margin)} (> 0 required)")
    push(f"sup gap = {_fmt(report.final_linf_gap)} (<= {_fmt(lam)} required)")
    push(f"cost reference = {_fmt(report.cost_reference)}")
    push(f"cost repaired = {_fmt(report.cost_repaired)}")
    push(f"cost gap = {_fmt(report.final_cost_gap)} (<= {_fmt(lam)} required)")
    push(f"violation recursion excess = {_fmt(report.iter_rho_excess)} (<= 0 required)")
    push(f"accumulated distance excess = {_fmt(report.d_bound_excess)} (<= 0 required)")
    push(f"envelope sup = {_fmt(report.envelope_sup)} (<= {_fmt(c.R - 1.0)} required)")
    push(f"window modulus excess = {_fmt(report.window_excess)} (<= 0 required)")
    push(f"final node violation = {_fmt(report.rho_final)}")
    push("")
    return "\n".join(lines)
