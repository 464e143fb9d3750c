"""Controlled vector fields and time-shift control selection.

A dynamics model packages the field f(t, x, u) with its dimensions, an
optional exact rule that transports a control from one time to another
while (nearly) preserving the field value, and whatever regularity
constants are known in closed form. Models whose constants are not
declared get them measured by the certification routines instead.
Expression and control-affine config models compile through ``expr.compile_expressions``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    COUNT,
    FINITE,
    NONNEGATIVE,
    ConfigError,
    DomainError,
    ModelEvaluationError,
    SelectionError,
    ShapeError,
    config_number,
)
from .expr import compile_expressions, jacobian, read_expressions

_BREAK_TIME = 1.0  # both motor variants switch behaviour here
# Factor that rounds a closed-form drift integral up. Its 2e-15 relative
# margin is four times the worst rounding error of the formula below
# (about 5e-16), so the budget never falls under the exact integral.
_ROUND_UP = 1.0 + 2e-15
# Rounds of local refinement in the sampled control transport, each on a
# ball a quarter the size of the last.
_REFINE_ROUNDS = 2
# Time-row pairs per model call of rhs_outer, which evaluates its rows at a
# chunk of times: larger chunks ran slower and raise peak memory.
_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class DeclaredRegularity:
    """Closed-form regularity data a model may carry.

    Every field is optional; absent entries are certified numerically.
    Each declared function is called with one float time (``drift_integral``
    with two) and returns a float; none is called with an array.
    ``shift_radius_scale`` and ``holder_rate_scale`` are per-unit-control
    factors: the certified radius at time s is scale(s) times the control
    magnitude cap there.

    ``time_drift`` and ``drift_integral`` are declared both or neither, and
    so are ``holder_exponent`` and ``holder_rate_scale``; a pair declared
    by half raises ConfigError. The density tabulates the drift budget,
    and its integral
    ``(s, t) -> upper bound on the integral of time_drift over [s, t]``,
    for s <= t, is the budget the sampled transports are checked against.
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
        for pair in (("time_drift", "drift_integral"), ("holder_exponent", "holder_rate_scale")):
            declared, missing = sorted(pair, key=lambda name: getattr(self, name) is None)
            if getattr(self, declared) is not None and getattr(self, missing) is None:
                raise ConfigError(f"{declared} is declared without {missing}; declare both or neither")


@dataclass(frozen=True)
class DynamicsModel:
    """A controlled field x' = rhs(t, x, u).

    ``rhs`` maps (t, x, u) with x of shape (state_dim,) and u of shape
    (control_dim,) to the state derivative, a float array of shape
    (state_dim,); builtin models broadcast over a leading batch axis. A
    broadcasting ``rhs`` computes each row from that row alone: the
    certifiers stack rows from different sample sets into one call
    (``rhs_batch``), and a row must come out bitwise the same whichever
    rows share its call. A batch call passes the time as one float or as
    an (n,) array with one time per row, which a broadcasting ``rhs``
    broadcasts over. An ``rhs`` that does not broadcast is called one row
    at a time, with that row's time as a float. The growth and Lipschitz
    certifiers also call it on a time x sample outer product
    (``rhs_outer``): t a (k, 1) column of times, x (1, r, N) and u (1, r, M),
    which a broadcasting ``rhs`` answers with (k, r, N), or with (1, r, N)
    when it does not read t. One batch call checks that answer bitwise, at
    every time one sample row, taken in turn, and at the last time every
    row; if it differs, or the call raises or returns another shape, they
    fall back to batch calls over the rows repeated once per time, with one
    time per row. The check does not cover every pair, so an ``rhs`` that
    answers the outer product with the right shape must answer it with the
    right values, or raise. The RK4 stepper calls it
    four times per step, at float times and with float arrays, and does
    arithmetic on what it returns without converting or checking it.
    ``shift_hook`` (s, t, x, u_s) -> u_t, when present, is the exact
    control transport used instead of the sampled search. It and the
    functions in ``metadata`` (see DeclaredRegularity) take each time as
    one float, never as an array.

    ``float_rhs`` declares that ``rhs`` of a one-state, one-control model
    also takes the state and the control as floats and returns the
    derivative as a Python float, bitwise equal to the entry its
    one-element-array form returns. The integrators then step on floats and
    call ``rhs`` with them directly, handing one control object to every
    stage of a span, so the float form may keep work that depends on the
    control alone, keyed by the object's identity: ``motor_decline`` keeps
    its arctan. The motors' float forms take ``math.cos``, because numpy's
    float64 cos calls the C library's cos, as ``math.cos`` does, so both
    forms agree bitwise; their arctan and power stay numpy's, which
    ``math`` differs from by an ulp on some inputs. A model that does not
    declare it, as every custom model by default, is stepped on arrays.

    ``gain`` (t, x) -> B, (n, N, M) or one (N, M) at a float time and (n, N)
    states, declares the field affine, f = a(t, x) + B(t, x) u; the inward
    search reads it (``closed_form_controls``).

    ``reads_time`` False declares that ``rhs`` does not depend on t: the
    growth and Lipschitz certificates then sample it at one time. Models
    built from expressions set it from whether they mention ``t``.
    """

    state_dim: int
    control_dim: int
    rhs: object
    shift_hook: object = None
    metadata: DeclaredRegularity = field(default_factory=DeclaredRegularity)
    # Times where t -> rhs(t, x, u) is kinked or singular: integrators must
    # place a node there and refine the adjacent spans, and the certified
    # drift table is inflated around them.
    time_breakpoints: tuple = ()
    float_rhs: bool = False
    gain: object = None
    reads_time: bool = True

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


def rhs_batch(model: DynamicsModel, t, x_batch: np.ndarray, u_batch: np.ndarray):
    """Field values for (n, N) states and (n, M) controls at a float time t or (n,)
    row times; loops, with a float time per row, if the model's rhs does not broadcast."""
    x_batch = np.asarray(x_batch, dtype=float)
    u_batch = np.asarray(u_batch, dtype=float)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    try:
        out = np.asarray(model.rhs(t, x_batch, u_batch), dtype=float)
        if out.shape == x_batch.shape:
            return out
    except Exception:
        pass
    rows = zip(np.broadcast_to(t, len(x_batch)).tolist(), x_batch, u_batch)
    return np.stack([np.asarray(model.rhs(ti, xi, ui), dtype=float) for ti, xi, ui in rows])


def rhs_outer(model: DynamicsModel, times, x_rows: np.ndarray, u_rows: np.ndarray, reduce):
    """``reduce`` of the field at every pair of a time and a row: the times
    are cut into chunks of at most ``_CHUNK_ROWS`` time-row pairs, unless
    one time alone has more rows, and for each chunk of k times ``reduce``
    maps the (k, r, N) field over the r rows of (r, N) states and (r, M)
    controls to k values; the values of all chunks are returned
    concatenated, one per time.

    Each chunk is one call ``rhs(t[:, None], x[None], u[None])``, which an
    rhs that does not read t may answer with (1, r, N), so a term of the
    rows alone is computed once per chunk and a term of t once per time.
    One ``rhs_batch`` call over the times and rows checks these blocks bit
    for bit: at every time one row, the rows taken in turn, and at the last
    time every row, which the turn alone misses when there are fewer times
    than rows. If a block differs there, or a call raises or returns
    another shape, every chunk is instead one ``rhs_batch`` call over its
    k·r tiled rows, with one time per row: the same IEEE operations.
    """
    x_rows = np.asarray(x_rows, dtype=float)
    u_rows = np.asarray(u_rows, dtype=float)
    times = np.asarray(times, dtype=float)
    per = max(1, _CHUNK_ROWS // len(x_rows))
    chunks = [times[start : start + per] for start in range(0, len(times), per)]
    values = _outer_values(model, chunks, x_rows, u_rows, reduce)
    if values is not None:
        return values
    values = []
    for times in chunks:
        tiles = (len(times), 1)
        rows = (np.repeat(times, len(x_rows)), np.tile(x_rows, tiles), np.tile(u_rows, tiles))
        values.append(reduce(rhs_batch(model, *rows).reshape(len(times), len(x_rows), -1)))
    return np.concatenate(values)


def _outer_values(model: DynamicsModel, chunks, x_rows, u_rows, reduce):
    """``rhs_outer``'s values from the two-axis calls, or None if a call
    raises, returns another shape or differs from the check. Each block is
    C-ordered as the tiled call's rows are."""
    times = np.concatenate(chunks)
    turn = np.arange(len(times)) % len(x_rows)
    check_t = np.concatenate([times, np.full(len(x_rows), times[-1])])
    try:
        want = rhs_batch(
            model, check_t, np.vstack([x_rows[turn], x_rows]), np.vstack([u_rows[turn], u_rows])
        )
    except Exception:
        return None
    values, got, start = [], [], 0
    for chunk in chunks:
        try:
            block = np.asarray(model.rhs(chunk[:, None], x_rows[None], u_rows[None]), dtype=float)
        except Exception:
            return None
        if block.shape[1:] != x_rows.shape or block.shape[0] not in (1, len(chunk)):
            return None
        block = np.ascontiguousarray(np.broadcast_to(block, (len(chunk),) + x_rows.shape))
        got.append(block[np.arange(len(chunk)), turn[start : start + len(chunk)]])
        start += len(chunk)
        values.append(reduce(block))
    if np.vstack(got + [block[-1]]).tobytes() != want.tobytes():
        return None
    return np.concatenate(values)


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


def box_points(rng, count: int, box: np.ndarray) -> np.ndarray:
    """``count`` points drawn uniformly from a (dim, 2) box; axes that share one range
    pass it as floats, which numpy draws the same numbers from, without a broadcast."""
    rows = box.tolist()
    lo, hi = rows[0] if rows.count(rows[0]) == len(rows) else (box[:, 0], box[:, 1])
    return rng.uniform(lo, hi, size=(count, len(rows)))


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
    seed: int = 0,
) -> np.ndarray:
    """Transport the control u_s from time s to time t near the state x.

    With a declared hook the hook's value is returned directly. Otherwise
    the search minimizes |f(t, x, .) - f(s, x, u_s)| over the ball around
    u_s of the declared shift radius, scale(s) times |u_s|, sampling
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
    scale = model.metadata.shift_radius_scale
    if scale is None:
        raise DomainError("model declares neither a shift hook nor a shift radius")
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
            # Only the rows outside: a row at u_s has norm 0.
            candidates[over] = u_s + offset[over] * (radius / norms[over])
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


def _since_break(t) -> np.ndarray:
    """Time past the break, 0 before it, of a float time or of row times,
    as a column that scales (1,) or (n, 1) controls row by row."""
    return np.maximum(np.asarray(t, dtype=float)[..., None] - _BREAK_TIME, 0.0)


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


def motor_surge(drift_amplitude: float = 0.2) -> DynamicsModel:
    """Motor with control gain 1 up to the break time, then (t-1)^(-1/4).

    The gain grows without bound just past t = 1, but transporting a
    control as u_t = gain(s)/gain(t) * u_s keeps the control term of the
    field constant, so the field drifts not at all under the hook.
    """
    amp = float(drift_amplitude)

    # One dispatch: the float RK4 path does no numpy-scalar arithmetic. A
    # ufunc runs the same loop on a float as on an array: both agree bitwise.
    # math.cos raises at +-inf (x - x is not 0), where numpy's cos gives nan.
    def rhs(t, x, u):
        if isinstance(x, float):
            drift = amp * (math.cos(x) if x - x == 0.0 else math.nan)
            return drift + _surge_scale(t) * u
        gap = _since_break(t)  # power(1, -1/4) is exactly 1
        return amp * np.cos(x) + np.power(np.where(gap > 0, gap, 1.0), -0.25) * u

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

    # The float form's last control object and its arctan, held by identity:
    # equality would take arctan(0.0), which is 0.0, for arctan(-0.0).
    held = [None, 0.0]

    def rhs(t, x, u):
        # numpy's arctan, not math.atan, which differs from it by an ulp on
        # some inputs; cos as in motor_surge; sqrt is correctly rounded.
        if isinstance(x, float):
            if u is not held[0]:
                held[:] = u, float(np.arctan(u))
            decay = 1.0 - 0.5 * math.sqrt(t - _BREAK_TIME) if t > _BREAK_TIME else 1.0
            drift = amp * (math.cos(x) if x - x == 0.0 else math.nan)
            return drift + decay * held[1]
        return amp * np.cos(x) + (1.0 - 0.5 * np.sqrt(_since_break(t))) * np.arctan(u)

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
        time_breakpoints=(_BREAK_TIME,),
        float_rhs=True,
    )


def control_affine(
    drift,
    gain,
    state_dim: int,
    control_dim: int,
    metadata: DeclaredRegularity | None = None,
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
        gain=gain,
    )


def _autonomy(reads_time: bool, shift_radius: float | None = None) -> tuple:
    """(shift hook, declared regularity entries) of a field built from
    expressions, which read ``t`` or not.

    A field whose expressions never mention ``t`` transports controls by
    the identity, exactly: it has no time drift and a zero shift radius.
    Any other field gets no hook, and only the declared ``shift_radius``
    scale for the generic transport search, when there is one.
    """
    if reads_time:
        if shift_radius is None:
            return None, {}
        return None, {"shift_radius_scale": _constant(float(shift_radius))}
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
    shift_radius: float | None = None,
) -> DynamicsModel:
    """Field with one expression per state over ``t, x1..xN, u1..uM``.

    A field whose expressions never mention ``t`` transports controls by
    the identity, exactly. Time-dependent expressions must declare a
    ``shift_radius`` scale for the generic transport search. Derivatives by
    the controls that read no control are the ``gain`` of an affine field.
    """
    if len(equations) != state_dim:
        raise ConfigError("need one rhs expression per state")
    rhs = compile_expressions(equations, x=state_dim, u=control_dim)
    hook, regularity = _autonomy(rhs.reads_time, shift_radius)
    metadata = DeclaredRegularity(**regularity)
    return DynamicsModel(
        state_dim=state_dim,
        control_dim=control_dim,
        rhs=rhs,
        shift_hook=hook,
        metadata=metadata,
        gain=jacobian(equations, "u", control_dim, x=state_dim),
        reads_time=rhs.reads_time,
    )


def model_from_config(config: dict) -> DynamicsModel:
    """Build a model from a config mapping.

    Recognized kinds: ``motor_surge``, ``motor_decline`` (optional
    ``drift_amplitude``), ``expression`` with ``state_dim``,
    ``control_dim``, and ``rhs`` (one expression per state over
    ``t, x1.., u1..``), and ``control_affine`` with ``state_dim``,
    ``control_dim``, ``drift`` (one expression per state), and ``gain``
    (rows of expressions or numbers, one row per state). Either kind
    takes an optional ``shift_radius`` scale, which a field that reads
    ``t`` needs for the generic transport search.
    """
    try:
        kind = config["model"]
    except KeyError:
        raise ConfigError("model config needs a 'model' key") from None
    if kind in ("motor_surge", "motor_decline"):
        amplitude = config_number(config, "drift_amplitude", 0.2, float, FINITE)
        return (motor_surge if kind == "motor_surge" else motor_decline)(amplitude)
    if kind not in ("expression", "control_affine"):
        raise ConfigError(f"unknown model kind {kind!r}")
    required = ("rhs",) if kind == "expression" else ("drift", "gain")
    for key in required + ("state_dim", "control_dim"):
        if key not in config:
            raise ConfigError(f"{kind} model config needs {key!r}")
    state_dim = config_number(config, "state_dim", None, int, COUNT)
    control_dim = config_number(config, "control_dim", None, int, COUNT)
    shift_radius = config_number(config, "shift_radius", None, float, NONNEGATIVE)
    if kind == "expression":
        rhs = read_expressions(config, "rhs", state_dim)
        return expression_model(rhs, state_dim, control_dim, shift_radius=shift_radius)
    drift = compile_expressions(read_expressions(config, "drift", state_dim), x=state_dim)
    gain_rows = read_expressions(config, "gain", state_dim, control_dim)
    gain = compile_expressions(gain_rows, x=state_dim)
    reads_time = drift.reads_time or gain.reads_time
    hook, regularity = _autonomy(reads_time, shift_radius)
    for name in ("growth_envelope", "state_lipschitz"):
        if name in config:
            regularity[name] = _constant(config_number(config, name, None, float, NONNEGATIVE))
    model = control_affine(
        drift,
        gain,
        state_dim,
        control_dim,
        metadata=DeclaredRegularity(**regularity),
    )
    return dataclasses.replace(model, shift_hook=hook, reads_time=reads_time)
