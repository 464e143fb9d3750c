import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tightpath.dynamics import (
    DeclaredRegularity,
    DynamicsModel,
    control_affine,
    drift_budget,
    eval_rhs,
    expression_model,
    model_from_config,
    motor_decline,
    motor_surge,
    rhs_batch,
    shift_selection,
)
from tightpath.errors import (
    ConfigError,
    DomainError,
    ModelEvaluationError,
    SelectionError,
    ShapeError,
)
from tightpath.expr import compile_expressions


def decline_drift_integral(s, t):
    # Closed form of the decline drift density integrated over [s, t].
    lo, hi = max(s, 1.0), max(t, 1.0)
    return 0.5 * (np.sqrt(hi - 1.0) - np.sqrt(lo - 1.0))


AUTONOMOUS_EXPRESSION = {"model": "expression", "state_dim": 1, "control_dim": 1, "rhs": ["u1"]}

# The position-velocity chain x1' = x2, x2' = u as a config model: an
# autonomous control-affine field with unit growth and Lipschitz constants.
DOUBLE_INTEGRATOR = {
    "model": "control_affine",
    "state_dim": 2,
    "control_dim": 1,
    "drift": ["x2", 0],
    "gain": [[0], [1]],
    "growth_envelope": 1,
    "state_lipschitz": 1,
}


def ramp_model(rate=None, radius_scale=None):
    # f(t, x, u) = t + u: the field drifts linearly in time and any shift
    # must be absorbed by the control. ``rate`` declares a constant drift
    # density and its integral, ``radius_scale`` a constant shift radius
    # per unit of control.
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return float(t) + np.zeros(x.shape[:-1] + (1,))

    def gain(t, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (1, 1))

    regularity = {}
    if rate is not None:
        regularity.update(time_drift=lambda s: rate, drift_integral=lambda s, t: rate * (t - s))
    if radius_scale is not None:
        regularity.update(shift_radius_scale=lambda s: radius_scale)
    metadata = DeclaredRegularity(**regularity)
    return control_affine(drift, gain, 1, 1, metadata=metadata)


class TestEvalRhs:
    def test_surge_frozen_value(self):
        model = motor_surge(drift_amplitude=0.0)
        got = eval_rhs(model, 1.5, [0.0], [1.0])[0]
        assert got == pytest.approx(1.189207115002721, abs=1e-15)

    def test_decline_saturation_frozen_value(self):
        model = motor_decline(drift_amplitude=0.0)
        got = eval_rhs(model, 2.0, [0.0], [1e12])[0]
        assert got == pytest.approx(np.pi / 4, abs=1e-9)

    def test_zero_control_leaves_drift(self):
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return np.sin(x)

        def gain(t, x):
            x = np.asarray(x, dtype=float)
            return np.ones(x.shape[:-1] + (1, 1))

        model = control_affine(drift, gain, 1, 1)
        x = np.array([0.7])
        assert eval_rhs(model, 0.3, x, [0.0]) == pytest.approx(np.sin(x))

    def test_motor_defaults_frozen(self):
        assert eval_rhs(motor_surge(), 0.5, [0.4], [0.3])[0] == pytest.approx(
            0.48421219880057703, abs=1e-15
        )
        assert eval_rhs(motor_decline(), 1.5, [0.2], [1.0])[0] == pytest.approx(
            0.7037312953307987, abs=1e-15
        )

    def test_double_integrator(self):
        model = model_from_config(DOUBLE_INTEGRATOR)
        assert eval_rhs(model, 0.0, [0.3, -0.5], [2.0]) == pytest.approx([-0.5, 2.0])

    def test_non_finite_output_reports_point(self):
        model = DynamicsModel(
            state_dim=1, control_dim=1, rhs=lambda t, x, u: np.array([np.inf])
        )
        with pytest.raises(ModelEvaluationError, match="t=0.5"):
            eval_rhs(model, 0.5, [1.0], [0.0])

    def test_shape_validation(self):
        model = motor_surge()
        with pytest.raises(ShapeError):
            eval_rhs(model, 0.0, [1.0, 2.0], [0.0])
        with pytest.raises(ShapeError):
            eval_rhs(model, 0.0, [1.0], [0.0, 0.0])

    def test_batch_matches_loop(self):
        model = motor_decline()
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1.0, 1.0, size=(40, 1))
        us = rng.uniform(-1.5, 1.5, size=(40, 1))
        batch = rhs_batch(model, 1.3, xs, us)
        rows = np.stack([eval_rhs(model, 1.3, x, u) for x, u in zip(xs, us)])
        assert batch == pytest.approx(rows, abs=0)


def non_broadcasting(rhs):
    """A one-state, one-control model whose rhs takes one row and one
    float time at a time."""

    def one_row(t, x, u):
        if np.ndim(x) != 1 or not isinstance(t, float):
            raise TypeError("one row and one float time at a time")
        return rhs(t, x, u)

    return DynamicsModel(state_dim=1, control_dim=1, rhs=one_row)


# Times before, at and after the motors' break at 1.0, each on several rows.
ROW_TIMES = np.repeat(
    [0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.3, 2.0, 3.7], 7
)

ROW_TIME_MODELS = {
    "motor_surge": motor_surge(),
    "motor_decline": motor_decline(),
    "expression": expression_model(
        ["sin(x2)*u1 + 0.5*x1 + t", "cos(3*t)*u2 - x1*(t + 1)**0.25 + 2**t"], 2, 2
    ),
    "control_affine": model_from_config(
        {**DOUBLE_INTEGRATOR, "drift": ["x2", "0.05*sin(3*t)"], "gain": [["2"], ["x2*t**1.5"]]}
    ),
    "non-broadcasting": non_broadcasting(lambda t, x, u: np.sin(x) * u + np.cos(t) * t**0.5),
}


@pytest.mark.float_path
class TestRowTimes:
    """rhs_batch with one time per row against row-by-row calls at float times."""

    @pytest.mark.parametrize("name", sorted(ROW_TIME_MODELS))
    def test_matches_float_time_rows_bitwise(self, name):
        model = ROW_TIME_MODELS[name]
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2.0, 2.0, size=(len(ROW_TIMES), model.state_dim))
        us = rng.uniform(-2.0, 2.0, size=(len(ROW_TIMES), model.control_dim))
        got = rhs_batch(model, ROW_TIMES, xs, us)
        want = np.stack([model.rhs(float(t), x, u) for t, x, u in zip(ROW_TIMES, xs, us)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if model.float_rhs:
            rows = zip(ROW_TIMES.tolist(), xs[:, 0].tolist(), us[:, 0].tolist())
            floats = np.array([model.rhs(t, x, u) for t, x, u in rows])
            assert got[:, 0].tobytes() == floats.tobytes()

    def test_a_time_pole_raises_at_the_time_of_the_per_node_loop(self):
        model = expression_model(["u1 + x1/(t - 1.3)"], 1, 1)
        pole = expression_model(["u1 + 1/(t - 1.3)"], 1, 1)
        xs = np.linspace(-1.0, 1.0, len(ROW_TIMES))[:, None]
        us = np.full((len(ROW_TIMES), 1), 0.5)
        # A pole that reads x is numpy's: inf with a warning, both ways.
        with np.errstate(divide="ignore"):
            rows = zip(ROW_TIMES, xs, us)
            want = np.stack([rhs_batch(model, float(t), x[None], u[None])[0] for t, x, u in rows])
            assert rhs_batch(model, ROW_TIMES, xs, us).tobytes() == want.tobytes()
        for times in (ROW_TIMES, ROW_TIMES[::-1]):
            with pytest.raises(ModelEvaluationError) as per_node:
                for t in np.unique(times):
                    rhs_batch(pole, float(t), xs, us)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ModelEvaluationError) as per_row:
                    rhs_batch(pole, times, xs, us)
            assert str(per_row.value) == str(per_node.value)
            assert "at t=1.3:" in str(per_row.value)


@pytest.mark.float_path
class TestDeclineDecay:
    @staticmethod
    def array_decay(t):
        # The 0-d numpy formula the scalar decay replaced.
        t = np.asarray(t, dtype=float)
        late = t > 1.0
        safe = np.where(late, t - 1.0, 0.0)
        return float(np.where(late, 1.0 - 0.5 * np.sqrt(safe), 1.0))

    def test_scalar_matches_array_formula_bitwise(self):
        # The float form of the decline field computes the decay inline. With
        # no drift, at x = 0 and a control whose arctan is exactly 1, it
        # returns 0.0 + decay(t), which is the decay itself.
        model = motor_decline(0.0)
        u = math.tan(1.0)
        while float(np.arctan(u)) != 1.0:
            u = float(np.nextafter(u, 2.0 if float(np.arctan(u)) < 1.0 else 1.0))
        near = [1.0]
        for direction in (0.0, 2.0):
            t = 1.0
            for _ in range(64):
                t = float(np.nextafter(t, direction))
                near.append(t)
        dense = np.linspace(0.0, 3.0, 30001).tolist()
        drawn = np.random.default_rng(7).uniform(0.0, 3.0, 20000).tolist()
        for t in near + dense + drawn + [1.0 + 1e-300, 1.5, 2.0]:
            got = model.rhs(t, 0.0, u)
            assert type(got) is float
            assert got == self.array_decay(t), t
        assert model.rhs(1.0, 0.0, u) == 1.0
        assert model.rhs(float(np.nextafter(1.0, 2.0)), 0.0, u) < 1.0


# Times on both sides of the motors' break at t = 1.
def random_points(seed: int, n: int):
    """n random (t, x, u) float triples: a third of the times within 1e-3
    of the break, the rest across [0, 3]; states and controls across and
    beyond the certified boxes."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 3.0, n)
    t[: n // 3] = 1.0 + rng.uniform(-1e-3, 1e-3, n // 3)
    x = rng.uniform(-4.0, 4.0, n)
    u = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.integers(-3, 2, n)
    return t, x, u


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.float_path
class TestFloatBranch:
    """Each motor's float form equals its array form, bit for bit."""

    @pytest.mark.parametrize("make", [motor_surge, motor_decline])
    def test_float_form_equals_array_form_on_random_points(self, make):
        model = make()
        t, x, u = random_points(1, 100_000)
        assert (t < 1.0).any() and (t > 1.0).any()
        want = model.rhs(t, x[:, None], u[:, None])[:, 0]
        got = [model.rhs(*point) for point in zip(t.tolist(), x.tolist(), u.tolist())]
        assert all(type(v) is float for v in got[:100])
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("amp", [0.2, 0.0])
    def test_held_arctan_follows_every_control_object(self, amp):
        # Interleaved controls, equal values in distinct objects, both
        # zeros, NaN and the infinities: every call must return what the
        # array form returns, whichever control object came before it.
        # With no drift at a state whose cos is negative, the field is
        # -0.0 + decay * arctan(u), whose sign tells arctan(-0.0) from
        # arctan(0.0).
        model = motor_decline(amp)
        values = [0.3, -0.3, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.5]
        copies = [float.fromhex(v.hex()) if math.isfinite(v) else float(str(v)) for v in values]
        assert all(a is not b for a, b in zip(values, copies))
        sequence = []
        for a, b in zip(values, copies):
            sequence += [a, b, a, a, b]
        sequence += values[::-1] + copies + [values[3], values[2], values[3]]
        rng = np.random.default_rng(5)
        sequence += [values[i] for i in rng.integers(0, len(values), 500)]
        for k, u in enumerate(sequence):
            t = (0.5, 1.0, 1.25, 2.0)[k % 4]
            x = (1.08, 2.0, -2.5, 0.3, 1.0005)[k % 5]
            got = model.rhs(t, x, u)
            want = model.rhs(t, np.array([x]), np.array([u])).item()
            assert bits(got) == bits(want), (k, t, x, u)

    def test_math_cos_is_numpy_cos(self):
        # The float forms take math.cos for numpy's cos: both call the C
        # library's cos. Dense over [-4, 4], on numpy's array and scalar paths.
        xs = np.linspace(-4.0, 4.0, 2_000_001)
        want = np.cos(xs)
        assert bits([math.cos(x) for x in xs.tolist()]) == bits(want)
        sparse = xs[::97].tolist()
        assert bits([float(np.cos(x)) for x in sparse]) == bits(want[::97])


class TestDeclaredTimeFunctions:
    """The declared time functions take one float and return a float.

    Reference code: the formulas each had while it also accepted arrays.
    The pipeline called them with one time, so each ran on a 0-d array;
    the scalar forms must give the same bits on every input.
    """

    @staticmethod
    def ref_surge_scale(t):
        t = np.asarray(t, dtype=float)
        late = t > 1.0
        safe = np.where(late, t - 1.0, 1.0)
        out = np.where(late, safe**-0.25, 1.0)
        return out if out.ndim else float(out)

    @staticmethod
    def ref_constant(value, t):
        return value + np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else value

    @staticmethod
    def ref_radius_scale(s):
        s = np.asarray(s, dtype=float)
        late = s > 1.0
        safe = np.where(late, s - 1.0, 1.0)
        out = np.where(late, np.maximum(safe**-0.25 - 1.0, 0.0), 1.0)
        return out if out.ndim else float(out)

    @staticmethod
    def ref_rate_scale(s):
        s = np.asarray(s, dtype=float)
        gap = np.abs(s - 1.0)
        with np.errstate(divide="ignore"):
            out = gap**-0.25
        return out if out.ndim else float(out)

    @staticmethod
    def ref_drift_density(s):
        s = np.asarray(s, dtype=float)
        late = s > 1.0
        safe = np.where(late, s - 1.0, 1.0)
        out = np.where(late, 0.25 / np.sqrt(safe), 0.0)
        return out if out.ndim else float(out)

    @pytest.fixture(scope="class")
    def times(self):
        # Uniform draws, 1 +- 2^-k up to the last bit, the decline grid and
        # the break itself: 204,106 floats.
        drawn = np.random.default_rng(12).uniform(0.0, 3.0, 200_000).tolist()
        powers = [1.0 + sign * 2.0**-k for k in range(1, 53) for sign in (1.0, -1.0)]
        return drawn + powers + np.linspace(0.0, 2.0, 4001).tolist() + [1.0]

    def pairs(self):
        """(scalar form, reference, whether the reference may run on the
        whole input array at once). rate_scale's may not: on an array its
        ** is numpy's power ufunc, on one time it was the C library's pow."""
        from tightpath.dynamics import _constant, _surge_scale

        surge, decline = motor_surge().metadata, motor_decline().metadata
        return [
            (_surge_scale, self.ref_surge_scale, True),
            (_constant(0.2), lambda t: self.ref_constant(0.2, t), True),
            (surge.shift_radius_scale, self.ref_radius_scale, True),
            (surge.holder_rate_scale, self.ref_rate_scale, False),
            (decline.time_drift, self.ref_drift_density, True),
        ]

    def test_scalar_forms_match_the_array_formulas_bitwise(self, times):
        assert len(times) == 204_106
        for fn, ref, whole in self.pairs():
            got = np.array([fn(t) for t in times])
            want = ref(np.array(times)) if whole else np.array([ref(t) for t in times])
            assert got.tobytes() == want.tobytes(), fn
            assert all(type(fn(t)) is float for t in (0.5, 1.0, 1.5))

    def test_one_time_at_a_time_as_certification_passes_them(self):
        # Grid nodes arrive as numpy floats, one call per node.
        nodes = np.linspace(0.0, 2.0, 4001)
        for fn, ref, _ in self.pairs():
            got = np.array([float(fn(t)) for t in nodes])
            want = np.array([float(ref(t)) for t in nodes])
            assert got.tobytes() == want.tobytes(), fn


class TestBallSampler:
    """The one ball sampler draws what the two it replaced drew."""

    @staticmethod
    def old_ball_candidates(center, radius, n, dim, rng):
        # The multi-dimensional branch of the shift search's old sampler.
        directions = rng.standard_normal((n, dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = radius * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
        offsets = directions / norms * radii
        return center + offsets

    @pytest.mark.parametrize("dim", [2, 3])
    def test_draws_match_old_sampler_bitwise(self, dim):
        from tightpath.dynamics import _ball_candidates, ball_points

        center = np.linspace(-0.3, 0.4, dim)
        for seed, radius, n in ((0, 1.0, 64), (3, 0.25, 9), (11, 4.0, 4096)):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = self.old_ball_candidates(center, radius, n, dim, want_rng)
            got = _ball_candidates(center, radius, n, dim, got_rng)
            assert got.tobytes() == want.tobytes()
            # Both generators end in the same state.
            assert got_rng.standard_normal() == want_rng.standard_normal()
            offsets = ball_points(np.random.default_rng(seed), n, dim, radius)
            assert (center + offsets).tobytes() == want.tobytes()
            assert np.all(np.linalg.norm(offsets, axis=1) <= radius)

    def test_zero_direction_keeps_the_zero_point(self):
        # A direction of norm 0 is divided by 1, for one point or several.
        from tightpath.dynamics import ball_points

        class ZeroNormal:
            def standard_normal(self, size):
                return np.zeros(size)

            def uniform(self, lo, hi, size=None):
                return np.full(size, 0.25) if size is not None else 0.25

        for count in (1, 3):
            got = ball_points(ZeroNormal(), count, 2, 1.5)
            assert got.shape == (count, 2)
            assert not np.signbit(got).any() and np.all(got == 0.0)


class TestShiftHooks:
    def test_surge_identity_before_break(self):
        model = motor_surge()
        got = shift_selection(model, 0.2, 0.9, [0.0], [0.7])
        assert got == pytest.approx([0.7], abs=0)

    def test_surge_scaling_across_break(self):
        model = motor_surge()
        got = shift_selection(model, 0.9, 1.5, [0.0], [0.7])
        assert got[0] == pytest.approx(0.5 ** 0.25 * 0.7, abs=1e-15)

    def test_surge_ratio_after_break(self):
        model = motor_surge()
        got = shift_selection(model, 1.2, 1.8, [0.0], [0.7])
        assert got[0] == pytest.approx((0.8 / 0.2) ** 0.25 * 0.7, abs=1e-15)

    @given(
        s=st.floats(0.0, 1.999),
        gap=st.floats(1e-6, 2.0),
        x=st.floats(-1.2, 1.2),
        u=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_surge_hook_freezes_field(self, s, gap, x, u):
        t = min(s + gap, 2.0)
        assume(t > s)
        model = motor_surge()
        xv, uv = np.array([x]), np.array([u])
        u_t = shift_selection(model, s, t, xv, uv)
        drift = abs(eval_rhs(model, t, xv, u_t)[0] - eval_rhs(model, s, xv, uv)[0])
        assert drift <= 1e-12

    @given(
        s=st.floats(0.0, 1.999),
        gap=st.floats(1e-6, 2.0),
        u=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_surge_hook_obeys_holder_rate(self, s, gap, u):
        assume(abs(s - 1.0) > 1e-6)
        t = min(s + gap, 2.0)
        assume(t > s)
        model = motor_surge()
        u_t = shift_selection(model, s, t, np.array([0.0]), np.array([u]))
        rate = model.metadata.holder_rate_scale(s) * abs(u)
        assert abs(u_t[0] - u) <= (t - s) ** 0.25 * rate + 1e-12

    @given(s=st.floats(0.0, 1.999), gap=st.floats(1e-6, 2.0), u=st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_surge_hook_within_declared_radius(self, s, gap, u):
        t = min(s + gap, 2.0)
        assume(t > s)
        model = motor_surge()
        u_t = shift_selection(model, s, t, np.array([0.0]), np.array([u]))
        radius = model.metadata.shift_radius_scale(s) * abs(u)
        assert abs(u_t[0] - u) <= radius + 1e-12

    @given(
        s=st.floats(0.0, 1.999),
        gap=st.floats(1e-6, 2.0),
        x=st.floats(-1.0, 1.0),
        u=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_decline_identity_hook_within_drift_budget(self, s, gap, x, u):
        t = min(s + gap, 2.0)
        assume(t > s)
        model = motor_decline()
        xv, uv = np.array([x]), np.array([u])
        u_t = shift_selection(model, s, t, xv, uv)
        assert u_t == pytest.approx(uv, abs=0)
        drift = abs(eval_rhs(model, t, xv, u_t)[0] - eval_rhs(model, s, xv, uv)[0])
        assert drift <= decline_drift_integral(s, t) + 1e-12

    def test_drift_budget_matches_closed_form(self):
        model = motor_decline()
        for s, t in [(1.0, 2.0), (1.2, 1.9), (0.5, 1.7), (0.2, 0.9)]:
            assert drift_budget(model, s, t) == pytest.approx(
                decline_drift_integral(s, t), abs=1e-10
            )


class TestDriftIntegral:
    @staticmethod
    def exact_decline(s, t):
        # 0.5 (sqrt(hi - 1) - sqrt(lo - 1)) on the float endpoints, at 50 digits.
        with mpmath.workdps(50):
            lo = max(mpmath.mpf(s), 1)
            hi = max(mpmath.mpf(t), 1)
            return 0.5 * (mpmath.sqrt(hi - 1) - mpmath.sqrt(lo - 1)) if hi > lo else mpmath.mpf(0)

    def assert_one_sided(self, model, s, t):
        got = drift_budget(model, s, t)
        exact = self.exact_decline(s, t)
        with mpmath.workdps(50):
            assert mpmath.mpf(got) >= exact, (s, t, got, exact)
            assert mpmath.mpf(got) <= exact * (1 + mpmath.mpf(1e-14)), (s, t, got, exact)

    def test_decline_integral_bounds_exact_on_random_intervals(self):
        model = motor_decline()
        rng = np.random.default_rng(7)
        for _ in range(300):
            s, t = sorted(float(v) for v in rng.uniform(0.0, 2.0, size=2))
            self.assert_one_sided(model, s, t)

    def test_decline_integral_bounds_exact_near_the_pole(self):
        model = motor_decline()
        nodes = np.linspace(0.0, 2.0, 2001)  # the decline workload's grid
        cells = [(float(nodes[i]), float(nodes[i + 1])) for i in range(995, 1005)]
        tiny = [
            (1.0, float(np.nextafter(1.0, 2.0))),
            (1.0, 1.0 + 2.0**-40),
            (1.0 + 1e-12, 1.0 + 2e-12),
        ]
        for s, t in cells + tiny + [(0.5, 1.0), (0.999, 1.0), (1.0, 1.5), (1.3, 1.7)]:
            self.assert_one_sided(model, s, t)

    def test_decline_integral_is_zero_where_it_must_be(self):
        model = motor_decline()
        for s, t in [(0.2, 0.9), (0.5, 1.0), (1.0, 1.0), (1.4, 1.4)]:
            assert model.metadata.drift_integral(s, t) == 0.0
            assert drift_budget(model, s, t) == 0.0
        assert drift_budget(model, 1.7, 1.2) == 0.0

    @pytest.mark.parametrize(
        "factory",
        [
            motor_surge,
            lambda: model_from_config(DOUBLE_INTEGRATOR),
            lambda: model_from_config(AUTONOMOUS_EXPRESSION),
        ],
        ids=["motor_surge", "double_integrator", "autonomous-expression"],
    )
    def test_zero_density_models_declare_zero_integral(self, factory):
        model = factory()
        assert float(model.metadata.time_drift(1.5)) == 0.0
        assert drift_budget(model, 0.2, 1.7) == 0.0

    @pytest.mark.parametrize(
        "declared, missing", [("time_drift", "drift_integral"), ("drift_integral", "time_drift")]
    )
    def test_density_and_integral_are_declared_together(self, declared, missing):
        with pytest.raises(ConfigError, match=f"{declared} is declared without {missing}"):
            DeclaredRegularity(**{declared: lambda *times: 0.1})

    @pytest.mark.parametrize(
        "declared, value, missing",
        [("holder_exponent", 0.25, "holder_rate_scale"), ("holder_rate_scale", abs, "holder_exponent")],
        ids=["exponent", "rate"],
    )
    def test_holder_exponent_and_rate_are_declared_together(self, declared, value, missing):
        # Half a Hölder pair would otherwise be dropped and the pair sampled.
        with pytest.raises(ConfigError, match=f"{declared} is declared without {missing}"):
            DeclaredRegularity(**{declared: value})

    def test_no_density_means_no_budget(self):
        assert drift_budget(ramp_model(), 0.2, 0.9) is None


class TestShiftSearch:
    def test_autonomous_field_keeps_control(self):
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return np.sin(x)

        def gain(t, x):
            x = np.asarray(x, dtype=float)
            return np.ones(x.shape[:-1] + (1, 1))

        # A shift radius of 0.5 around u_s.
        metadata = DeclaredRegularity(shift_radius_scale=lambda s: 1.25)
        model = control_affine(drift, gain, 1, 1, metadata=metadata)
        u_s = np.array([0.4])
        got = shift_selection(model, 0.3, 0.8, np.array([0.1]), u_s)
        assert got == pytest.approx(u_s, abs=0)

    def test_search_absorbs_time_ramp(self):
        # Radius 1.2 x 0.5 = 0.6 around u_s = 0.5.
        model = ramp_model(rate=0.1, radius_scale=1.2)
        got = shift_selection(model, 0.5, 1.0, np.array([0.0]), np.array([0.5]))
        assert got[0] == pytest.approx(0.0, abs=0.01)

    def test_small_radius_raises_with_residual(self):
        # Radius 0.2 x 0.5 = 0.1 around u_s = 0.5.
        model = ramp_model(rate=0.1, radius_scale=0.2)
        with pytest.raises(SelectionError) as err:
            shift_selection(model, 0.5, 1.0, np.array([0.0]), np.array([0.5]))
        assert err.value.residual == pytest.approx(0.4, abs=1e-12)

    def test_no_radius_available(self):
        model = ramp_model()
        with pytest.raises(DomainError):
            shift_selection(model, 0.5, 1.0, np.array([0.0]), np.array([0.0]))

    def test_rejects_bad_times(self):
        model = motor_surge()
        with pytest.raises(DomainError):
            shift_selection(model, 1.0, 1.0, np.array([0.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            shift_selection(model, -0.1, 0.5, np.array([0.0]), np.array([0.0]))

    def test_multidim_search_reduces_residual(self):
        # Planar ramp: f = (t, -t) + u; the shift must move u by ~(-.3, .3).
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            base = np.zeros(x.shape[:-1] + (2,))
            base[..., 0] = t
            base[..., 1] = -t
            return base

        def gain(t, x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))

        # Radius sqrt(2) x |u_s| = 0.6 around u_s = (0.3, -0.3).
        metadata = DeclaredRegularity(shift_radius_scale=lambda s: np.sqrt(2.0))
        model = control_affine(drift, gain, 2, 2, metadata=metadata)
        got = shift_selection(model, 0.2, 0.5, np.zeros(2), np.array([0.3, -0.3]), seed=1)
        assert got == pytest.approx([0.0, 0.0], abs=0.02)

    def test_search_is_deterministic(self):
        model = ramp_model(radius_scale=1.2)
        args = (0.5, 1.0, np.array([0.0]), np.array([0.5]))
        a = shift_selection(model, *args)
        b = shift_selection(model, *args)
        assert np.array_equal(a, b)


class TestDeclaredLipschitz:
    def test_sampled_quotient_within_declared(self):
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return np.sin(x)

        def gain(t, x):
            x = np.asarray(x, dtype=float)
            return np.ones(x.shape[:-1] + (1, 1))

        metadata = DeclaredRegularity(state_lipschitz=lambda t: 1.0)
        model = control_affine(drift, gain, 1, 1, metadata=metadata)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(500):
            t = rng.uniform(0.0, 2.0)
            x, y = rng.uniform(-2.0, 2.0, size=(2, 1))
            if abs(x[0] - y[0]) < 1e-9:
                continue
            u = rng.uniform(-1.0, 1.0, size=1)
            quotient = abs(
                eval_rhs(model, t, x, u)[0] - eval_rhs(model, t, y, u)[0]
            ) / abs(x[0] - y[0])
            worst = max(worst, quotient)
        assert worst <= 1.01 * model.metadata.state_lipschitz(0.0)

    def test_motor_lipschitz_declared_as_drift_slope(self):
        model = motor_surge(drift_amplitude=0.3)
        assert model.metadata.state_lipschitz(1.7) == pytest.approx(0.3)


class TestModelConfig:
    def test_motor_kinds(self):
        surge = model_from_config({"model": "motor_surge", "drift_amplitude": 0.1})
        # At x = 0 and u = 0 the field is the drift amplitude times cos(0).
        assert eval_rhs(surge, 0.5, [0.0], [0.0])[0] == pytest.approx(0.1)
        decline = model_from_config({"model": "motor_decline"})
        assert eval_rhs(decline, 0.5, [0.0], [0.0])[0] == pytest.approx(0.2)
        assert decline.metadata.time_drift is not None

    def test_control_affine_expressions(self):
        model = model_from_config(
            {
                "model": "control_affine",
                "state_dim": 1,
                "control_dim": 1,
                "drift": ["sin(t)"],
                "gain": [["2"]],
                "state_lipschitz": 0.0,
            }
        )
        got = eval_rhs(model, 0.5, [0.3], [0.25])[0]
        assert got == pytest.approx(np.sin(0.5) + 0.5)
        assert model.metadata.state_lipschitz(0.0) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            model_from_config({"model": "pendulum"})

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            model_from_config({})
        with pytest.raises(ConfigError):
            model_from_config({"model": "control_affine", "state_dim": 1})


# Every expression of the benchmark workloads, the tests' configs and the
# README, with labels, beside the same formula written in numpy.
X12 = ("x1", "x2")
XU = ("x1", "x2", "u1", "u2")
EXPRESSIONS = {
    "1 - sqrt((x1 - 0.1*t)**2 + x2**2)": (
        X12, lambda t, x1, x2: 1 - np.sqrt((x1 - 0.1 * t) ** 2 + x2**2)
    ),
    "1 - sqrt(x1*x1 + x2*x2)": (X12, lambda t, x1, x2: 1 - np.sqrt(x1 * x1 + x2 * x2)),
    "1 - 2*t - sqrt(x1*x1 + x2*x2)": (
        X12, lambda t, x1, x2: 1 - 2 * t - np.sqrt(x1 * x1 + x2 * x2)
    ),
    "1 - sqrt((x1 - 1000.0)**2 + x2**2)": (
        X12, lambda t, x1, x2: 1 - np.sqrt((x1 - 1000.0) ** 2 + x2**2)
    ),
    "0.5 - sqrt(1 - x1*x1 - x2*x2)": (X12, lambda t, x1, x2: 0.5 - np.sqrt(1 - x1 * x1 - x2 * x2)),
    "x1 + x2 - 0.5": (X12, lambda t, x1, x2: x1 + x2 - 0.5),
    "x1*x1 - x2 - 1": (X12, lambda t, x1, x2: x1 * x1 - x2 - 1),
    "x2 - 0.95": (X12, lambda t, x1, x2: x2 - 0.95),
    "-x1 - 2.5": (X12, lambda t, x1, x2: -x1 - 2.5),
    "sqrt(x1) - 10": (X12, lambda t, x1, x2: np.sqrt(x1) - 10),
    "abs(x1) - 3 - t": (X12, lambda t, x1, x2: np.abs(x1) - 3 - t),
    "1 - sqrt(x1*x1 + x2*x2) + 0*t**-0.5": (
        X12, lambda t, x1, x2: 1 - np.sqrt(x1 * x1 + x2 * x2) + 0 * t**-0.5
    ),
    "1 - x1": (("x1",), lambda t, x1: 1 - x1),
    "x1 - 10": (("x1",), lambda t, x1: x1 - 10),
    "1 - abs(x1) + 0.2*t": (("x1",), lambda t, x1: 1 - np.abs(x1) + 0.2 * t),
    "u1": (XU, lambda t, x1, x2, u1, u2: u1),
    "u2": (XU, lambda t, x1, x2, u1, u2: u2),
    "u1 + 0.05*sin(3*t)": (XU, lambda t, x1, x2, u1, u2: u1 + 0.05 * np.sin(3 * t)),
    "u1 + 0*t**-0.5": (XU, lambda t, x1, x2, u1, u2: u1 + 0 * t**-0.5),
    "sin(x2)*u1 + 0.5*x1 + t": (XU, lambda t, x1, x2, u1, u2: np.sin(x2) * u1 + 0.5 * x1 + t),
    "cos(x1) - u2*x2 + arctan(x1*x2)": (
        XU, lambda t, x1, x2, u1, u2: np.cos(x1) - u2 * x2 + np.arctan(x1 * x2)
    ),
    "pow(x1, 3)/x2": (X12, lambda t, x1, x2: np.power(x1, 3) / x2),
    "0.05*sin(3*t)": (X12, lambda t, x1, x2: 0.05 * np.sin(3 * t)),
    "sin(t)": (("x1",), lambda t, x1: np.sin(t)),
    "u1*u1": (("x1", "u1"), lambda t, x1, u1: u1 * u1),
    "x2": (X12, lambda t, x1, x2: x2),
    "0": (X12, lambda t, x1, x2: 0),
    "2": (("x1",), lambda t, x1: 2),
}


def compiled(expr):
    """``expr`` compiled over its labels, x1.. then u1.., as a function of
    (t, x) with x holding the labels' columns."""
    labels = EXPRESSIONS[expr][0]
    states = sum(label.startswith("x") for label in labels)
    f = compile_expressions(expr, x=states, u=len(labels) - states)
    return lambda t, x: f(t, x[..., :states], x[..., states:])


def written(expr, t, x):
    """The test's numpy formula of ``expr`` on column views of x, broadcast
    to a batch as a component's value is."""
    labels, formula = EXPRESSIONS[expr]
    value = formula(t, *(x[..., i] for i in range(len(labels))))
    return np.asarray(value, dtype=float) + np.zeros(x.shape[:-1])


@pytest.mark.float_path
class TestCompiledExpressions:
    """A compiled expression computes what the same formula written in
    numpy computes, bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("expr", sorted(EXPRESSIONS))
    def test_component_matches_numpy_bitwise(self, expr):
        labels = EXPRESSIONS[expr][0]
        component = compiled(expr)
        rng = np.random.default_rng(len(expr))
        batch = rng.uniform(-2.0, 2.0, size=(64, len(labels)))
        times = rng.uniform(0.1, 2.0, size=64)
        for t, x in ((0.7, batch), (0.7, batch[3]), (times, batch), (np.float64(1.3), batch)):
            got = component(t, x)
            want = written(expr, t, x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (t, x)

    def test_constant_broadcasts_and_negative_zero_reads_zero(self):
        batch = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
        assert compile_expressions("0", x=2)(0.5, batch).tobytes() == np.zeros(5).tobytes()
        for expr in ("-0.0", "0*x1", "-(0*x2)"):
            got = compile_expressions(expr, x=2)(0.5, batch)
            assert got.shape == (5,) and not np.signbit(got).any(), expr
        assert compile_expressions("-0.0", x=2)(0.5, batch[0]).shape == ()

    def test_shape_is_the_batch_then_the_expressions(self):
        # The sizes name the arrays in order; a numpy t of another shape
        # broadcasts with the batch.
        f = compile_expressions([["x1", "u1"], ["x2", "2*u2 + t"]], x=2, u=2)
        rng = np.random.default_rng(3)
        x, u = rng.uniform(-1.0, 1.0, size=(2, 6, 2))
        want = np.stack(
            [np.stack([x[:, 0], u[:, 0]], -1), np.stack([x[:, 1], 2 * u[:, 1] + 0.25], -1)], -2
        )
        got = f(0.25, x, u)
        assert got.shape == (6, 2, 2) and got.tobytes() == want.tobytes()
        assert f(0.25, x[0], u[0]).tobytes() == want[0].tobytes() and f.reads_time
        assert not compile_expressions(["x1", "u1"], x=1, u=1).reads_time
        shifted = compile_expressions("x1 + t", x=1)(np.array([0.0, 1.0]), np.array([2.0]))
        assert shifted.tolist() == [2.0, 3.0]

    def test_a_float_error_names_its_own_expression(self):
        f = compile_expressions(["u1", "1/(t - 0.5)"], x=1, u=1)
        with pytest.raises(ModelEvaluationError) as error:
            f(0.5, np.zeros(1), np.zeros(1))
        assert str(error.value).startswith("'1/(t - 0.5)' cannot be evaluated at t=0.5: ")

    def test_a_complex_value_names_its_expression(self):
        # Python's float ** gives a negative number a complex fractional
        # power, where numpy's gives NaN.
        f = compile_expressions(["x1", "x1 + (t - 5)**0.5"], x=1)
        for t in (0.5, np.array([0.7, 0.5])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ModelEvaluationError) as error:
                    f(t, np.zeros((2, 1)))
            assert str(error.value) == "'x1 + (t - 5)**0.5' is not real at t=0.5"

    @pytest.mark.parametrize(
        "rhs",
        [
            ["u1", "u2"],
            ["u1 + 0.05*sin(3*t)", "u2"],
            ["sin(x2)*u1 + 0.5*x1 + t", "cos(x1) - u2*x2 + arctan(x1*x2)"],
        ],
        ids=repr,
    )
    def test_stacked_rhs_matches_numpy_bitwise(self, rhs):
        model = expression_model(rhs, 2, 2)
        rng = np.random.default_rng(1)
        x, u = rng.uniform(-2.0, 2.0, size=(2, 50, 2))
        xu = np.concatenate([x, u], axis=-1)
        for rows in (slice(None), 7):
            got = model.rhs(0.9, x[rows], u[rows])
            want = np.stack([written(expr, 0.9, xu[rows]) for expr in rhs], axis=-1)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_control_affine_config_matches_numpy_bitwise(self):
        model = model_from_config(
            {**DOUBLE_INTEGRATOR, "drift": ["x2", "0.05*sin(3*t)"], "gain": [["2"], ["x2"]],
             "shift_radius": 0.5}
        )
        rng = np.random.default_rng(2)
        x, u = rng.uniform(-2.0, 2.0, size=(40, 2)), rng.uniform(-1.0, 1.0, size=(40, 1))
        drift = np.stack([written("x2", 0.4, x), written("0.05*sin(3*t)", 0.4, x)], axis=-1)
        gain = np.stack([written("2", 0.4, x[:, :1]), written("x2", 0.4, x)], axis=-1)
        want = drift + np.einsum("...nm,...m->...n", gain[..., None], u)
        assert model.rhs(0.4, x, u).tobytes() == want.tobytes()
