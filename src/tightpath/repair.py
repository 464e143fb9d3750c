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
import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsModel, shift_selection
from .errors import (
    BundleError,
    DomainError,
    IntervalRepairError,
    InfeasibleTighteningError,
    InwardPointingError,
    RepairError,
    ScheduleError,
)
from .geometry import ConstraintField, node_violations, violation_sup
from .hypotheses import (
    HypothesisBundle,
    best_inward_candidate,
    control_candidates,
    inclusion_margins,
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


def _exp(value: float) -> float:
    """exp(value), inf where it overflows: the checks fail by name, unwarned."""
    with np.errstate(over="ignore"):
        return float(np.exp(value))


@dataclass(frozen=True)
class RepairConstants:
    """The scheduled constants consumed by the interval loop.

    ``eps_trail`` lists every tightening ``repair`` tried, as (eps,
    violation, kept); its last entry, the one in force, gives ``eps`` and
    ``rho_bar_eps``. ``schedule_constants`` leaves it empty.
    """

    k: float
    rho_hat: float
    partition: np.ndarray  # grid node indices of the interval ends
    M_Delta: float
    C_vDelta: float
    R: float
    omega_gamma: ModulusTable
    omega_f: ModulusTable
    omega_bar: ModulusTable
    stride: int
    step: float
    oscillation_gate: str
    eps_trail: tuple
    horizon: float

    @property
    def Delta(self) -> float:
        return self.stride * self.step

    @property
    def N0(self) -> int:
        return len(self.partition) - 1

    @property
    def eps(self) -> float:
        return self.eps_trail[-1][0]

    @property
    def rho_bar_eps(self) -> float:
        return self.eps_trail[-1][1]

    def exp_omega_f(self, width: float) -> float:
        return _exp(self.omega_f.value_at(width))

    @functools.cached_property
    def _gap_slope_and_scale(self) -> tuple:
        slope = self.C_vDelta + self.M_Delta * _exp(2.0 * self.omega_f.value_at(self.Delta))
        return slope, self.exp_omega_f(self.horizon)

    def gap_growth(self, rho: float) -> float:
        """The gap-growth map g: the sup gap one repaired interval can
        introduce at violation level ``rho``. Monotone, 0 at 0, and it may
        overflow to inf once ``k * rho`` leaves the modulus table."""
        if rho == 0.0:
            return 0.0
        slope, scale = self._gap_slope_and_scale
        return scale * (self.omega_bar.value_at(self.k * rho) + self.k * rho * slope)


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


def _suffix_max(values: np.ndarray) -> np.ndarray:
    """Entry j is the max of ``values`` from j on."""
    return np.maximum.accumulate(values[::-1])[::-1]


@dataclass(frozen=True)
class IterateFacts:
    """What the sweep keeps of one iterate at the tightening in force.

    ``violations`` and ``margins`` are its node violations and node
    margins, ``rho`` the reversed running max of the violations (entry j
    is the suffix violation from node j on), and ``d_sup`` its sup
    distance to ``reference``. Each node's entries depend on that node
    alone, so a burst recomputes them from its interval start on.
    """

    reference: Trajectory
    violations: np.ndarray
    rho: np.ndarray
    margins: np.ndarray
    d_sup: float

    @classmethod
    def of(cls, field: ConstraintField, eps: float, traj: Trajectory, reference: Trajectory):
        violations = node_violations(field, eps, traj)
        margins = field.margin(traj.grid.nodes, traj.states, eps)
        d_sup = float(linf_distance(traj, reference))
        return cls(reference, violations, _suffix_max(violations), margins, d_sup)


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


def growth_maps(rho: float, c: RepairConstants) -> np.ndarray:
    """Accumulated-distance bounds at violation level ``rho``: entry n-1
    sums the first n compositions at ``rho`` of r -> r + c.gap_growth(r),
    the next violation level's bound. Monotone in ``rho``; compositions
    that leave the modulus table saturate and may overflow to inf."""
    if rho < 0:
        raise DomainError("growth maps take a nonnegative violation level")
    compositions = np.empty(c.N0)
    r = rho
    with np.errstate(over="ignore"):
        for n in range(c.N0):
            r = r + c.gap_growth(r)
            compositions[n] = r
        return np.cumsum(compositions)


def _norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1) without its wrapper: the same bits."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


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
    violation cap is the smallest of the three proof caps. None of them
    depends on the tightening, which ``repair`` picks. A reference larger
    than the bundle was certified for, a bundle function off the reference
    grid, or a growth envelope whose Gronwall radius overflows raises
    BundleError. The window modulus omega_bar is, at each multiple of the
    grid step, the largest state oscillation + (R + control bound) * envelope
    L1 + (reference L2 + shift L2) * envelope L2 over windows of that many
    cells or fewer. When it cannot fit under a quarter collar at any
    representable width (references with large certified envelopes), the
    gate falls back to the observed state oscillation, tabulated only then,
    and records that choice. A tolerance ``lam`` that is not positive,
    NaN included, raises DomainError.
    """
    if not lam > 0:
        raise DomainError("the closeness tolerance must be positive")
    reference_sup = xbar.max_norm()
    if reference_sup > bundle.reference_sup * (1 + 1e-9):
        raise BundleError(
            f"bundle was certified for references up to {bundle.reference_sup}, "
            f"got {reference_sup}"
        )
    grid = ubar.grid
    if not np.array_equal(grid.nodes, xbar.grid.nodes):
        raise DomainError("reference control and trajectory must share a grid")
    for name in ("growth_envelope", "state_lipschitz", "time_drift"):
        if not np.array_equal(getattr(bundle, name).grid.nodes, grid.nodes):
            raise BundleError(f"bundle function {name!r} is not tabulated on the reference grid")
    t0, t1 = float(grid.t0), float(grid.t1)
    horizon = t1 - t0
    step = float(grid.step)

    if field.margin(t0, xbar.states[0], 0.0) <= 0:
        raise ScheduleError(
            "initial-condition",
            "the reference starts on the untightened boundary; no tightening "
            "leaves an interior start",
        )

    ubar_l2 = float(np.sqrt(weighted_l2_cost(ubar)))
    beta_l2 = bundle.shift_radius.l2()
    theta = bundle.growth_envelope
    radius = gronwall_radius(
        theta.l1(), theta.l2(), reference_sup, bundle.control_bound, ubar_l2, beta_l2
    )
    if not np.isfinite(radius):
        raise BundleError(
            f"the Gronwall radius overflows: bundle function 'growth_envelope' integrates "
            f"to {theta.l1():g}, and 'shift_radius' has L2 norm {beta_l2:g}"
        )
    omega_gamma = build_modulus_table(grid, bundle.time_drift.values)
    omega_f = build_modulus_table(grid, bundle.state_lipschitz.values)
    deltas = grid.uniform_step() * np.arange(len(grid))
    p1 = trapezoid_prefix(grid, np.abs(theta.values))
    p2 = trapezoid_prefix(grid, theta.values**2)
    osc_coef, l2_coef = radius + bundle.control_bound, ubar_l2 + beta_l2

    def oscillation(j: int) -> np.ndarray:
        return _norms(xbar.states[j:] - xbar.states[:-j])

    omega_bar = ModulusTable.from_windows(
        deltas,
        lambda j: oscillation(j)
        + osc_coef * (p1[j:] - p1[:-j])
        + l2_coef * np.sqrt(np.maximum(p2[j:] - p2[:-j], 0.0)),
    )

    xi = bundle.inward_slack
    eta = bundle.collar_width
    m_v = bundle.velocity_bound
    k = 4.0 / xi
    # The first cap keeps k rho m_v <= 1. With k m_v = 0 (m_v = 0, or an
    # underflow) a burst moves nothing, and that cap is +inf.
    burst = k * m_v
    rho_hat = min(1.0 / burst if burst else np.inf, xi / k, 1.0 / k)

    modulus_check = "window modulus <= eta/4"

    def window_checks(width: float, gate: str):
        drift = omega_gamma.value_at(width) + m_v * omega_f.value_at(width)
        e_w = _exp(omega_f.value_at(width))
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
        osc_table = ModulusTable.from_windows(deltas, oscillation)
        window, failed = ladder(gate)
    if failed:
        raise ScheduleError(
            "delta-infeasible",
            f"at one grid step per window ({step:g}) still violated: {', '.join(failed)}",
        )
    stride, delta, m_delta = window

    c_v_delta = m_v + m_delta * _exp(omega_f.value_at(delta))
    indices = list(range(0, grid.nodes.size, stride))
    if indices[-1] != grid.nodes.size - 1:
        indices.append(grid.nodes.size - 1)
    partition = np.asarray(indices)

    return RepairConstants(
        k=float(k),
        rho_hat=float(rho_hat),
        partition=partition,
        M_Delta=float(m_delta),
        C_vDelta=float(c_v_delta),
        R=float(radius),
        omega_gamma=omega_gamma,
        omega_f=omega_f,
        omega_bar=omega_bar,
        stride=int(stride),
        step=step,
        oscillation_gate=gate,
        eps_trail=(),
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
        field, model, eps, float(t), x[None, :], candidates, bundle.inward_slack, horizon
    )
    best = int(best_inward_candidate(margins, candidates)[0])
    margins, velocities = margins[0], velocities[0]
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
    facts: IterateFacts,
):
    """Repair one partition interval.

    Returns ``(traj, control, record, facts)``: the next iterate, the
    interval's record and the next iterate's facts. ``facts`` are the
    ``IterateFacts`` of ``xcur`` at ``c.eps``, which the sweep keeps: the
    suffix violation is their ``rho`` at the interval start, and an
    interval left untouched reads its worst grid margin and its ``d_sup``
    off them. A burst recomputes them from the interval start on.

    An interval that starts more than half a collar width from the
    tightened boundary is left untouched. Otherwise the suffix violation
    level sets the burst length: the inward control is transported
    across the burst, the current control replays with that delay
    across the rest of the interval, and everything past the
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

    rho_i = float(facts.rho[lo])
    near = field.boundary_within(c.eps, t_i, x_ti, bundle.collar_width / 2.0)

    def record(case, margins, d_sup, **measured):
        margin_min = float(margins[lo : hi + 1].min())
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
            rho=rho_i,
            d_sup=d_sup,
            margin_min=margin_min,
            **measured,
        )

    if not near:
        return xcur, ucur, record("case-1", facts.margins, facts.d_sup), facts
    if rho_i == 0.0:
        return xcur, ucur, record("case-2-identity", facts.margins, facts.d_sup), facts

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
    states = np.vstack([xcur.states[:lo], segment.at_nodes(nodes[lo:])])
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

    margins = np.concatenate([facts.margins[:lo], field.margin(nodes[lo:], states[lo:], c.eps)])
    d_sup = float(linf_distance(traj, facts.reference))
    burst_record = record(
        "case-2",
        margins,
        d_sup,
        u0=tuple(float(v) for v in u0),
        delay=float(delay),
        burst_end=float(burst_end),
        cone_excess=cone_excess,
        delay_gap_excess=delay_gap_excess,
        gap_to_previous=gap,
        gap_bound=float(g_val),
    )
    # After the margin check: a burst that fails it asks the oracle nothing.
    violations = np.concatenate(
        [facts.violations[:lo], node_violations(field, c.eps, traj, start=lo)]
    )
    facts = IterateFacts(facts.reference, violations, _suffix_max(violations), margins, d_sup)
    return traj, control, burst_record, facts


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

    Schedules the constants, then walks the tightening ladder eps_cap *
    2**-j, j = 0..60. A rung whose reference violation (inf where the set
    is empty) is at most ``rho_hat``, with a strictly interior start, gets
    one left-to-right sweep of the partition, and is kept if the result
    has positive grid margins and sup and weighted quadratic cost gaps of
    at most ``lam``; else it is marked rejected. A second failed interval
    check raises ``RepairError`` at stage ``interval``. A ladder that runs
    out raises ``ScheduleError`` ``eps-infeasible`` if it admitted no rung,
    else ``RepairError`` with the last sweep's failure.

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
    t0, x0 = float(xbar.grid.t0), xbar.states[0]
    trail, last_report, failed_interval, interval_failures = [], None, None, 0
    eps = bundle.eps_cap
    for _ in range(_MAX_HALVINGS + 1):
        try:
            rho_bar = violation_sup(field, eps, xbar)
        except InfeasibleTighteningError:
            rho_bar = np.inf  # the distance to an empty set
        admitted = rho_bar <= c.rho_hat and float(field.margin(t0, x0, eps)) > 0
        trail.append((float(eps), float(rho_bar), bool(admitted)))
        if admitted:
            c = dataclasses.replace(c, eps_trail=tuple(trail))
            try:
                x_eps, u_eps, report = _sweep(xbar, ubar, c, bundle, field, model, weight)
            except IntervalRepairError as exc:
                failed_interval, interval_failures = exc, interval_failures + 1
                if interval_failures == 2:
                    break
            else:
                gaps_ok = report.final_linf_gap <= lam and report.final_cost_gap <= lam
                if gaps_ok and report.interiority_margin > 0:
                    _verify_suffix(x_eps, u_eps, c, report, model)
                    return x_eps, u_eps, c, report
                last_report, failed_interval = report, None
            trail[-1] = (float(eps), float(rho_bar), False)
        eps /= 2.0
    if failed_interval is not None:
        when = "twice, the second time at" if interval_failures == 2 else "at"
        raise RepairError(
            f"interval {failed_interval.interval} failed its interiority check {when} "
            f"eps={c.eps:g} (worst margin {failed_interval.margin:g})",
            stage="interval",
            report=last_report,
        ) from failed_interval
    if last_report is not None:
        raise RepairError(
            f"contract not met at eps={c.eps:g}, the last tightening swept: margin "
            f"{last_report.interiority_margin:g}, sup gap {last_report.final_linf_gap:g}, "
            f"cost gap {last_report.final_cost_gap:g} vs lambda {lam:g}",
            stage="contract",
            report=last_report,
        )
    last_eps, last_rho, _ = trail[-1]
    if last_rho == np.inf:
        detail = f"the tightened set is still empty at eps={last_eps:g}"
    elif last_rho > c.rho_hat:
        detail = f"violation {last_rho:g} still above the cap {c.rho_hat:g} at eps={last_eps:g}"
    else:
        detail = f"no interior start down to eps={last_eps:g}"
    raise ScheduleError("eps-infeasible", detail)


def _verify_suffix(x_eps: Trajectory, u_eps: ControlSignal, c, report, model) -> None:
    """Half-step check the returned suffix, and tie the stitched states to it."""
    bursts = [r.index for r in report.records if r.case == "case-2"]
    if not bursts:
        return
    nodes = x_eps.grid.nodes
    lo = int(c.partition[bursts[0]])
    run = integrate(model, u_eps, x_eps.states[lo], (float(nodes[lo]), float(nodes[-1])), c.step)
    fresh = run.at_nodes(nodes[lo:])
    if not np.array_equal(fresh, x_eps.states[lo:]):
        bad = int(np.flatnonzero(np.any(fresh != x_eps.states[lo:], axis=1))[0])
        raise RepairError(
            f"the stitched trajectory differs from one run over the repaired suffix "
            f"at t={float(nodes[lo + bad])!r}",
            stage="verify",
            report=report,
        )


def _sweep(xbar, ubar, c, bundle, field, model, weight):
    xcur, ucur = xbar, ubar
    records = []
    envelope = float(np.max(np.abs(xbar.states)))
    facts = IterateFacts.of(field, c.eps, xbar, xbar)
    for i in range(c.N0):
        xcur, ucur, record, facts = repair_interval(i, xcur, ucur, c, bundle, field, model, facts)
        records.append(record)
        if record.case == "case-2":
            envelope = max(envelope, float(np.max(np.abs(xcur.states))))

    cost_ref = float(weighted_l2_cost(ubar, weight))
    cost_out = float(weighted_l2_cost(ucur, weight))
    rho_final = float(facts.violations[-1])  # at the horizon node
    linf_gap = facts.d_sup

    iter_excess = -np.inf
    for prev, nxt in zip(records[:-1], records[1:]):
        iter_excess = max(iter_excess, nxt.rho - (prev.rho + c.gap_growth(prev.rho)))
    last = records[-1].rho
    iter_excess = max(iter_excess, rho_final - (last + c.gap_growth(last)))

    d_tilde = growth_maps(c.rho_bar_eps, c)
    with np.errstate(invalid="ignore"):
        d_excess = linf_gap - float(d_tilde[-1])
        if np.isnan(d_excess):
            d_excess = -np.inf

    window_excess = _window_bound_excess(xcur, c)
    report = RepairReport(
        records=tuple(records),
        final_linf_gap=linf_gap,
        final_cost_gap=abs(cost_out - cost_ref),
        interiority_margin=float(facts.margins.min()),
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
    """Worst violation of the window modulus by the final trajectory.

    No oscillation exceeds ``reach``, the norm of the per-axis state ranges,
    and the modulus does not fall with the width: once ``reach`` less the
    modulus is at most the worst excess so far, no wider window raises it.
    """
    states = traj.states
    # Rounding is monotone; the 1e-9 covers numpy summing a row of 8 or more
    # squares in an order that can depend on the array's shape.
    reach = float(_norms((states.max(axis=0) - states.min(axis=0))[None, :])[0]) * (1.0 + 1e-9)
    worst = -np.inf
    for j in range(1, states.shape[0]):
        bound = c.omega_bar.value_at(j * c.step)
        if reach - bound <= worst:
            break
        worst = max(worst, float(_norms(states[j:] - states[:-j]).max()) - bound)
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
