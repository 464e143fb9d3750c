"""Controlled vector fields and time-shift control selection.

A dynamics model packages the field f(t, x, u) with its dimensions, an
optional exact rule that transports a control from one time to another
while (nearly) preserving the field value, and whatever regularity
constants are known in closed form. Models whose constants are not
declared get them measured by the certification routines instead.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ModelEvaluationError,
    SelectionError,
    ShapeError,
    config_expressions,
    config_number,
)
from .geometry import compile_expression

_BREAK_TIME = 1.0  # both motor variants switch behaviour here
# Factor that rounds a closed-form drift integral up. Its 2e-15 relative
# margin is four times the worst rounding error of the formula below
# (about 5e-16), so the budget never falls under the exact integral.
_ROUND_UP = 1.0 + 2e-15
# Rounds of local refinement in the sampled control transport, each on a
# ball a quarter the size of the last.
_REFINE_ROUNDS = 2


@dataclass(frozen=True)
class DeclaredRegularity:
    """Closed-form regularity data a model may carry.

    Every field is optional; absent entries are certified numerically.
    Each declared function is called with one float time (``drift_integral``
    with two) and returns a float; none is called with an array.
    ``shift_radius_scale`` and ``holder_rate_scale`` are per-unit-control
    factors: the certified radius at time s is scale(s) times the control
    magnitude cap there. The declared rate is used only together with
    ``holder_exponent``.

    ``time_drift`` and ``drift_integral`` are declared both or neither:
    the density tabulates the drift budget, and its integral
    ``(s, t) -> upper bound on the integral of time_drift over [s, t]``,
    for s <= t, is the budget the sampled transports are checked against.
    A density alone would switch that check off, so it raises ConfigError.
    The density may blow up only at the model's ``time_breakpoints``: the
    certified drift table is inflated around those times, so that each
    cell's trapezoid dominates the declared integral.
    """

    growth_envelope: object = None  # t -> envelope in |f| <= env(t)(1+|x|+|u|)
    state_lipschitz: object = None  # t -> Lipschitz constant of f(t, ., u)
    time_drift: object = None  # s -> integrable density bounding |f(t,x,u_t)-f(s,x,u_s)|
    drift_integral: object = None  # (s, t) -> upper bound on the integral of time_drift
    shift_radius_scale: object = None  # s -> sup_t |u_t - u_s| / control scale
    holder_exponent: float | None = None
    holder_rate_scale: object = None  # s -> rate in |u_t - u_s| <= (t-s)^alpha rate(s)

    def __post_init__(self):
        if (self.time_drift is None) != (self.drift_integral is None):
            declared, missing = (
                ("time_drift", "drift_integral")
                if self.drift_integral is None
                else ("drift_integral", "time_drift")
            )
            raise ConfigError(f"{declared} is declared without {missing}; declare both or neither")


@dataclass(frozen=True)
class DynamicsModel:
    """A controlled field x' = rhs(t, x, u).

    ``rhs`` maps (t, x, u) with x of shape (state_dim,) and u of shape
    (control_dim,) to the state derivative, a float array of shape
    (state_dim,); builtin models broadcast over a leading batch axis. The
    RK4 stepper calls it four times per step, at float times and with
    float arrays, and does arithmetic on what it returns without
    converting or checking it.
    ``shift_hook`` (s, t, x, u_s) -> u_t, when present, is the exact
    control transport used instead of the sampled search. ``rhs`` and the
    functions in ``metadata`` (see DeclaredRegularity) take the time as
    one float, never as an array.

    ``float_rhs`` declares that ``rhs`` of a one-state, one-control model
    also takes the state and the control as floats and returns the
    derivative as a float (a Python or numpy float), bitwise equal to the
    entry its one-element-array form returns. The integrators then step
    on floats and call ``rhs`` with them directly. A model that does not
    declare it, as every custom model by default, is stepped as before.
    """

    state_dim: int
    control_dim: int
    rhs: object
    shift_hook: object = None
    metadata: DeclaredRegularity = field(default_factory=DeclaredRegularity)
    name: str = ""
    # Times where t -> rhs(t, x, u) is kinked or singular: integrators must
    # place a node there and refine the adjacent spans, and the certified
    # drift table is inflated around them.
    time_breakpoints: tuple = ()
    float_rhs: bool = False

    def __post_init__(self):
        if self.float_rhs and (self.state_dim, self.control_dim) != (1, 1):
            raise ShapeError(
                "float_rhs is declared only by a model with one state and one control, "
                f"not ({self.state_dim}, {self.control_dim})"
            )


def eval_rhs(model: DynamicsModel, t: float, x, u) -> np.ndarray:
    """Evaluate the field at a single point with shape and finiteness checks."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (model.state_dim,):
        raise ShapeError(f"state must have shape ({model.state_dim},), got {x.shape}")
    if u.shape != (model.control_dim,):
        raise ShapeError(f"control must have shape ({model.control_dim},), got {u.shape}")
    out = np.asarray(model.rhs(float(t), x, u), dtype=float)
    if out.shape != (model.state_dim,):
        raise ShapeError(f"rhs returned shape {out.shape}, expected ({model.state_dim},)")
    if not np.all(np.isfinite(out)):
        raise ModelEvaluationError(f"rhs not finite at t={t}, x={x.tolist()}, u={u.tolist()}")
    return out


def rhs_batch(model: DynamicsModel, t: float, x_batch: np.ndarray, u_batch: np.ndarray):
    """Field values for (n, N) states and (n, M) controls; loops if the
    model's rhs does not broadcast."""
    x_batch = np.asarray(x_batch, dtype=float)
    u_batch = np.asarray(u_batch, dtype=float)
    try:
        out = np.asarray(model.rhs(float(t), x_batch, u_batch), dtype=float)
        if out.shape == x_batch.shape:
            return out
    except Exception:
        pass
    return np.stack(
        [np.asarray(model.rhs(float(t), xi, ui), dtype=float) for xi, ui in zip(x_batch, u_batch)]
    )


def drift_budget(model: DynamicsModel, s: float, t: float) -> float | None:
    """Upper bound on the integral of the declared time-drift density over
    [s, t], from the declared ``drift_integral``; None without a density."""
    integral = model.metadata.drift_integral
    if integral is None:
        return None
    if t <= s:
        return 0.0
    return float(integral(s, t))


def ball_points(rng, count: int, dim: int, radius: float) -> np.ndarray:
    """``count`` points drawn uniformly from the radius ball around 0 in R^dim."""
    directions = rng.standard_normal((count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dim)
    return directions / norms * radii


def _ball_candidates(center: np.ndarray, radius: float, n: int, dim: int, rng) -> np.ndarray:
    if dim == 1:
        return center + radius * np.linspace(-1.0, 1.0, n)[:, None]
    return center + ball_points(rng, n, dim, radius)


def shift_selection(
    model: DynamicsModel,
    s: float,
    t: float,
    x,
    u_s,
    radius: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Transport the control u_s from time s to time t near the state x.

    With a declared hook the hook's value is returned directly. Otherwise
    the search minimizes |f(t, x, .) - f(s, x, u_s)| over the ball of the
    given radius around u_s (declared shift radius by default), sampling
    64^min(control_dim, 2) candidates plus local refinement. When the model
    declares a drift density, a residual above its drift budget over
    [s, t] is an error carrying that residual.
    """
    if not 0 <= s < t:
        raise DomainError(f"need 0 <= s < t, got s={s}, t={t}")
    x = np.asarray(x, dtype=float)
    u_s = np.asarray(u_s, dtype=float)
    if model.shift_hook is not None:
        u_t = np.asarray(model.shift_hook(s, t, x, u_s), dtype=float).reshape(model.control_dim)
        if not np.all(np.isfinite(u_t)):
            raise ModelEvaluationError(f"shift hook not finite at s={s}, t={t}")
        return u_t
    if radius is None:
        scale = model.metadata.shift_radius_scale
        if scale is None:
            raise DomainError("model declares no shift radius; pass radius explicitly")
        radius = float(scale(s)) * float(np.linalg.norm(u_s))
    budget = drift_budget(model, s, t)
    f_s = eval_rhs(model, s, x, u_s)
    rng = np.random.default_rng(seed)
    n = 64 ** min(model.control_dim, 2)

    def best_of(candidates: np.ndarray) -> tuple[np.ndarray, float]:
        # Keep every candidate inside the allowed ball around u_s.
        offset = candidates - u_s
        norms = np.linalg.norm(offset, axis=1, keepdims=True)
        over = norms[:, 0] > radius
        if radius > 0 and over.any():
            candidates = np.where(over[:, None], u_s + offset * (radius / norms), candidates)
        states = np.broadcast_to(x, (candidates.shape[0], model.state_dim))
        values = rhs_batch(model, t, states, candidates)
        residuals = np.linalg.norm(values - f_s, axis=1)
        residuals = np.where(np.isfinite(residuals), residuals, np.inf)
        i = int(np.argmin(residuals))
        return candidates[i].copy(), float(residuals[i])

    best_u, best_res = best_of(np.vstack([u_s[None, :], _ball_candidates(u_s, radius, n, model.control_dim, rng)]))
    local = radius
    for _ in range(_REFINE_ROUNDS):
        local /= 4.0
        cand, res = best_of(
            _ball_candidates(best_u, local, max(n // 4, 9), model.control_dim, rng)
        )
        if res < best_res:
            best_u, best_res = cand, res
    if budget is not None and best_res > budget + 1e-12:
        raise SelectionError(
            f"no control within radius {radius:.6g} of u_s keeps the field drift "
            f"under {budget:.6g} (best residual {best_res:.6g})",
            residual=best_res,
        )
    return best_u


def _surge_scale(t: float) -> float:
    # numpy's power ufunc, not Python's ** or np.float64's **, which can
    # differ from it by an ulp: the certified values were made with it.
    return float(np.power(t - _BREAK_TIME, -0.25)) if t > _BREAK_TIME else 1.0


def _decline_decay(t: float) -> float:
    # Scalar only: motor_decline's rhs is its one caller. sqrt is correctly
    # rounded in both math and numpy, so this matches the array formula.
    return 1.0 - 0.5 * math.sqrt(t - _BREAK_TIME) if t > _BREAK_TIME else 1.0


def _constant(value: float):
    """t -> value."""

    def fn(t):
        return value

    return fn


def _no_drift(s, t):
    """Integral of a zero drift density."""
    return 0.0


def _identity_transport(s, t, x, u_s):
    """Shift hook of a field that does not depend on t through the control."""
    return np.asarray(u_s, dtype=float)


def _cosine_drift(amplitude: float, x):
    """The motors' state drift amplitude * cos(x), in the shape of x: a
    float for a float state, an array for a (1,) state or an (n, 1) batch.

    numpy's cos on a float runs the same loop as on a one-element array,
    so both forms agree bitwise; math.cos is another library and may not.
    """
    return amplitude * np.cos(x)


def motor_surge(drift_amplitude: float = 0.2) -> DynamicsModel:
    """Motor with control gain 1 up to the break time, then (t-1)^(-1/4).

    The gain grows without bound just past t = 1, but transporting a
    control as u_t = gain(s)/gain(t) * u_s keeps the control term of the
    field constant, so the field drifts not at all under the hook.
    """
    amp = float(drift_amplitude)

    def rhs(t, x, u):
        return _cosine_drift(amp, x) + _surge_scale(t) * u

    def hook(s, t, x, u_s):
        if t <= _BREAK_TIME:
            return np.asarray(u_s, dtype=float)
        if s <= _BREAK_TIME:
            return (t - _BREAK_TIME) ** 0.25 * np.asarray(u_s, dtype=float)
        return ((t - _BREAK_TIME) / (s - _BREAK_TIME)) ** 0.25 * np.asarray(u_s, dtype=float)

    # Each scale keeps the power it was certified with, bit for bit: numpy's
    # power ufunc in radius_scale, the C library's pow behind ** in rate_scale.
    def radius_scale(s):
        if s <= _BREAK_TIME:
            return 1.0
        return max(float(np.power(s - _BREAK_TIME, -0.25)) - 1.0, 0.0)

    def rate_scale(s):
        return abs(s - _BREAK_TIME) ** -0.25 if s != _BREAK_TIME else math.inf

    def envelope(t):
        return _surge_scale(t) + amp

    metadata = DeclaredRegularity(
        growth_envelope=envelope,
        state_lipschitz=_constant(amp),
        time_drift=_constant(0.0),
        drift_integral=_no_drift,
        shift_radius_scale=radius_scale,
        holder_exponent=0.25,
        holder_rate_scale=rate_scale,
    )
    return DynamicsModel(
        state_dim=1,
        control_dim=1,
        rhs=rhs,
        shift_hook=hook,
        metadata=metadata,
        name="motor_surge",
        time_breakpoints=(_BREAK_TIME,),
        float_rhs=True,
    )


def motor_decline(drift_amplitude: float = 0.2) -> DynamicsModel:
    """Motor with saturating control response that decays past the break.

    Keeping the control fixed, the field drifts by |decay(t) - decay(s)|
    times the saturated control value; the declared drift density matches
    that exactly whenever the saturated value stays within 1, i.e. on
    control boxes inside |u| <= tan(1).
    """
    amp = float(drift_amplitude)

    def rhs(t, x, u):
        # numpy's arctan, not math.atan, which differs from it by an ulp
        # on some inputs: the float and array forms must agree bitwise.
        return _cosine_drift(amp, x) + _decline_decay(t) * np.arctan(u)

    def drift_density(s):
        # sqrt is correctly rounded in math and numpy alike.
        return 0.25 / math.sqrt(s - _BREAK_TIME) if s > _BREAK_TIME else 0.0

    def drift_integral(s, t):
        # 0.5 (sqrt(t-1) - sqrt(lo-1)), written without the cancellation.
        lo = max(s, _BREAK_TIME)
        if t <= lo:
            return 0.0
        root = math.sqrt(t - _BREAK_TIME) + math.sqrt(lo - _BREAK_TIME)
        return 0.5 * (t - lo) / root * _ROUND_UP

    metadata = DeclaredRegularity(
        growth_envelope=None,
        state_lipschitz=_constant(amp),
        time_drift=drift_density,
        drift_integral=drift_integral,
        shift_radius_scale=_constant(0.0),
        holder_exponent=1.0,
        holder_rate_scale=_constant(0.0),
    )
    return DynamicsModel(
        state_dim=1,
        control_dim=1,
        rhs=rhs,
        shift_hook=_identity_transport,
        metadata=metadata,
        name="motor_decline",
        time_breakpoints=(_BREAK_TIME,),
        float_rhs=True,
    )


def control_affine(
    drift,
    gain,
    state_dim: int,
    control_dim: int,
    metadata: DeclaredRegularity | None = None,
    name: str = "control_affine",
) -> DynamicsModel:
    """Field drift(t, x) + gain(t, x) @ u with drift (.., N), gain (.., N, M)."""

    def rhs(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        a = np.asarray(drift(t, x), dtype=float)
        b = np.asarray(gain(t, x), dtype=float)
        return a + np.einsum("...nm,...m->...n", b, u)

    return DynamicsModel(
        state_dim=state_dim,
        control_dim=control_dim,
        rhs=rhs,
        metadata=metadata or DeclaredRegularity(),
        name=name,
    )


def double_integrator() -> DynamicsModel:
    """Position-velocity chain x1' = x2, x2' = u."""

    def rhs(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.stack([x[..., 1], u[..., 0]], axis=-1)

    metadata = DeclaredRegularity(
        growth_envelope=_constant(1.0),
        state_lipschitz=_constant(1.0),
        time_drift=_constant(0.0),
        drift_integral=_no_drift,
        shift_radius_scale=_constant(0.0),
        holder_exponent=1.0,
        holder_rate_scale=_constant(0.0),
    )
    return DynamicsModel(
        state_dim=2,
        control_dim=1,
        rhs=rhs,
        shift_hook=_identity_transport,
        metadata=metadata,
        name="double_integrator",
    )


def _stacked_expressions(expressions, dim: int, names: tuple = ()):
    """(t, x) -> the compiled expressions stacked along a last axis, with
    ``reads_time`` set when any of them reads ``t``."""
    compiled = [compile_expression(str(e), dim, names) for e in expressions]

    def stacked(t, x):
        return np.stack([c(t, x) for c in compiled], axis=-1)

    stacked.reads_time = any(c.reads_time for c in compiled)
    return stacked


def _autonomy(reads_time: bool) -> tuple:
    """(shift hook, declared regularity entries) of a field built from
    expressions, which read ``t`` or not.

    A field whose expressions never mention ``t`` transports controls by
    the identity, exactly: it has no time drift and a zero shift radius.
    Any other field gets no hook and no entries.
    """
    if reads_time:
        return None, {}
    return _identity_transport, {
        "time_drift": _constant(0.0),
        "drift_integral": _no_drift,
        "shift_radius_scale": _constant(0.0),
        "holder_exponent": 1.0,
        "holder_rate_scale": _constant(0.0),
    }


def expression_model(
    equations,
    state_dim: int,
    control_dim: int,
    name: str = "expression",
    shift_radius: float | None = None,
) -> DynamicsModel:
    """Field with one expression per state over ``t, x1..xN, u1..uM``.

    A field whose expressions never mention ``t`` transports controls by
    the identity, exactly. Time-dependent expressions must declare a
    ``shift_radius`` scale for the generic transport search.
    """
    if len(equations) != state_dim:
        raise ConfigError("need one rhs expression per state")
    labels = tuple(f"x{i + 1}" for i in range(state_dim)) + tuple(
        f"u{j + 1}" for j in range(control_dim)
    )
    stacked = _stacked_expressions(equations, state_dim + control_dim, labels)

    def rhs(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return stacked(t, np.concatenate([x, u], axis=-1))

    hook, regularity = _autonomy(stacked.reads_time)
    if hook is None and shift_radius is not None:
        regularity = {"shift_radius_scale": _constant(float(shift_radius))}
    metadata = DeclaredRegularity(**regularity)
    return DynamicsModel(
        state_dim=state_dim,
        control_dim=control_dim,
        rhs=rhs,
        shift_hook=hook,
        metadata=metadata,
        name=name,
    )


def model_from_config(config: dict) -> DynamicsModel:
    """Build a model from a config mapping.

    Recognized kinds: ``motor_surge``, ``motor_decline`` (optional
    ``drift_amplitude``), ``expression`` with ``state_dim``,
    ``control_dim``, and ``rhs`` (one expression per state over
    ``t, x1.., u1..``), and ``control_affine`` with ``state_dim``,
    ``control_dim``, ``drift`` (one expression per state), and ``gain``
    (rows of expressions or numbers, one row per state).
    """
    try:
        kind = config["model"]
    except KeyError:
        raise ConfigError("model config needs a 'model' key") from None
    if kind == "motor_surge":
        return motor_surge(config_number(config, "drift_amplitude", 0.2, float))
    if kind == "motor_decline":
        return motor_decline(config_number(config, "drift_amplitude", 0.2, float))
    if kind not in ("expression", "control_affine"):
        raise ConfigError(f"unknown model kind {kind!r}")
    required = ("rhs",) if kind == "expression" else ("drift", "gain")
    for key in required + ("state_dim", "control_dim"):
        if key not in config:
            raise ConfigError(f"{kind} model config needs {key!r}")
    state_dim = config_number(config, "state_dim", None, int)
    control_dim = config_number(config, "control_dim", None, int)
    if kind == "expression":
        return expression_model(
            config_expressions(config, "rhs", state_dim),
            state_dim,
            control_dim,
            name=str(config.get("name", "expression")),
            shift_radius=config_number(config, "shift_radius", None, float),
        )
    drift_exprs = config_expressions(config, "drift", state_dim)
    gain_rows = config_expressions(config, "gain", state_dim, control_dim)
    drift = _stacked_expressions(drift_exprs, state_dim)
    rows = [_stacked_expressions(row, state_dim) for row in gain_rows]

    def gain(t, x):
        return np.stack([row(t, x) for row in rows], axis=-2)

    hook, regularity = _autonomy(drift.reads_time or any(row.reads_time for row in rows))
    for name in ("growth_envelope", "state_lipschitz"):
        if name in config:
            regularity[name] = _constant(config_number(config, name, None, float))
    model = control_affine(
        drift,
        gain,
        state_dim,
        control_dim,
        metadata=DeclaredRegularity(**regularity),
        name=str(config.get("name", "control_affine")),
    )
    return dataclasses.replace(model, shift_hook=hook)
