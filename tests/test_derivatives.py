"""Derivative trees of config expressions, the affine models and
constraint gradients they give, and the closed-form inward control u*.

Frozen oracle values, derived independently of the implementation:

* mpmath's ``diff`` at 50 digits differentiates each random expression
  numerically; the derivative trees must agree with it, evaluated both at
  50 digits and in float64.
* ``1 - sqrt(x1*x1 + x2*x2)`` has gradient -x/|x|; at (0.6, 0.8) that is
  (-0.6, -0.8), so with B = I and M = 2 the inward control is
  u* = -2·(-0.6, -0.8)/1 = (1.2, 1.6).
"""

import ast
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tightpath.dynamics import control_affine, expression_model, model_from_config
from tightpath.errors import ExpressionError, InwardPointingError, ModelEvaluationError
from tightpath.expr import _ALLOWED_CALLS, _checked, _derivative, compile_expressions, jacobian
from tightpath.geometry import field_from_config, unit_ball_complement
from tightpath.hypotheses import (
    _collar_rows,
    best_inward_candidate,
    closed_form_controls,
    control_candidates,
    inclusion_margins,
)
from tightpath.repair import inward_control_at
from tightpath.signals import TimeGrid

LABELS = ("x1", "x2")


def derivative_tree(expr: str, v: str, labels: tuple) -> ast.Expression:
    """The tree of d(expr)/dv that ``jacobian`` compiles."""
    return ast.parse(_derivative(_checked(expr, labels).body, v) or "0.0", mode="eval")
# Arguments of abs, sqrt, a division or a power's base closer than this to
# a kink or pole make an example invalid.
KINK_CLEARANCE = 1e-3

_MP_CALLS = {
    "abs": abs,
    "sqrt": mpmath.sqrt,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "arctan": mpmath.atan,
    "sign": mpmath.sign,
}


def mp_value(node, env: dict, kinks: list):
    """The value of a checked tree at 50 digits, appending to ``kinks`` the
    distance of every abs, sqrt, divisor and fractional power base from its
    kink or pole; a negative distance marks a point outside the domain."""
    if isinstance(node, ast.Expression):
        return mp_value(node.body, env, kinks)
    if isinstance(node, ast.Constant):
        return mpmath.mpf(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        value = mp_value(node.operand, env, kinks)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Call):
        args = [mp_value(arg, env, kinks) for arg in node.args]
        name = node.func.id
        if name == "pow":
            return mp_power(*args, kinks)
        if name == "abs":
            kinks.append(abs(args[0]))
        if name == "sqrt":
            kinks.append(args[0])
        return _MP_CALLS[name](args[0])
    a, b = mp_value(node.left, env, kinks), mp_value(node.right, env, kinks)
    if isinstance(node.op, ast.Add):
        return a + b
    if isinstance(node.op, ast.Sub):
        return a - b
    if isinstance(node.op, ast.Mult):
        return a * b
    if isinstance(node.op, ast.Div):
        kinks.append(abs(b))
        return a / b if b else mpmath.mpf(0)
    return mp_power(a, b, kinks)


def mp_power(base, exponent, kinks: list):
    if exponent != int(exponent):
        kinks.append(base)
    elif exponent < 0:
        kinks.append(abs(base))
    if base <= 0 and exponent != int(exponent) or (base == 0 and exponent < 0):
        return mpmath.mpf(0)
    return mpmath.power(base, exponent)


def leaves():
    constants = st.sampled_from(["0.5", "1.5", "2", "3", "0.25", "1"])
    return st.one_of(st.sampled_from(["x1", "x2", "t"]), constants)


def extend(inner):
    unary = st.tuples(st.sampled_from(["-({})", "+({})", "abs({})", "sqrt({})", "sin({})",
                                       "cos({})", "arctan({})", "({}) ** 2", "({}) ** 3",
                                       "({}) ** 0.5", "({}) ** -1", "pow({}, 1.5)",
                                       "({}) ** 0"]), inner)
    binary = st.tuples(st.sampled_from(["({}) + ({})", "({}) - ({})", "({}) * ({})",
                                        "({}) / ({})"]), inner, inner)
    return st.one_of(
        unary.map(lambda p: p[0].format(p[1])), binary.map(lambda p: p[0].format(p[1], p[2]))
    )


EXPRESSIONS = st.recursive(leaves(), extend, max_leaves=6)
COORDINATE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


class TestDerivativeTrees:
    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(EXPRESSIONS, COORDINATE, COORDINATE, st.floats(0.0, 2.0))
    def test_trees_match_mpmath_diff(self, expr, x1, x2, t):
        # One (expression, point) pair per example, 1,000 valid examples:
        # each tree at 50 digits must match mpmath's diff to 1e-30, and in
        # float64 to 1e-8 of the derivative's size plus one.
        tree = ast.parse(expr, mode="eval")
        point = {"x1": mpmath.mpf(x1), "x2": mpmath.mpf(x2), "t": mpmath.mpf(t)}
        with mpmath.workdps(50):
            kinks = []
            value = mp_value(tree, point, kinks)
            assume(min(kinks, default=1) > KINK_CLEARANCE and abs(value) < 1e6)
            floats = jacobian(expr, "x", 2, x=2)(t, np.array([[x1, x2]]))[0]
            for k, v in enumerate(LABELS):

                def along(s, v=v):
                    return mp_value(tree, {**point, v: s}, [])

                exact = mpmath.diff(along, point[v])
                formula = mp_value(derivative_tree(expr, v, LABELS), point, [])
                assert abs(formula - exact) <= mpmath.mpf(10) ** -30 * (1 + abs(exact)), (expr, v)
                assert abs(floats[k] - exact) <= 1e-8 * (1 + abs(exact)), (expr, v, floats[k])

    @pytest.mark.parametrize(
        "expr, want",
        [
            ("x1", "1.0"),
            ("-x1", "-1.0"),
            ("+x1", "1.0"),
            ("x1 + t", "1.0"),
            ("t - x1", "-1.0"),
            ("x1 * t", "t"),
            ("t / x1", "-(t / x1 * (1.0 / x1))"),
            ("x1 ** 3", "3 * x1 ** 2"),
            ("pow(x1, 2)", "2 * x1"),
            ("abs(x1)", "sign(x1)"),
            ("sqrt(x1)", "0.5 / sqrt(x1)"),
            ("sin(x1)", "cos(x1)"),
            ("cos(x1)", "-sin(x1)"),
            ("arctan(x1)", "1.0 / (1.0 + x1 * x1)"),
            ("t * 2.5", "0.0"),
        ],
    )
    def test_every_grammar_node_has_a_rule(self, expr, want):
        assert ast.unparse(derivative_tree(expr, "x1", ("x1",))) == want

    def test_the_rules_cover_every_call_of_the_grammar(self):
        for name in _ALLOWED_CALLS:
            call = f"{name}(x1, 2)" if name == "pow" else f"{name}(x1)"
            assert "x1" in ast.unparse(derivative_tree(call, "x1", ("x1",))), name

    def test_abs_takes_sign_a_clarke_element_that_is_zero_at_zero(self):
        slope = jacobian(["abs(x1)"], "x", 1, x=1)
        assert slope(0.0, np.array([[-2.0], [0.0], [3.0]]))[:, 0, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_sqrt_at_zero_is_a_named_error(self):
        slope = jacobian("1 - sqrt(x1*x1 + x2*x2)", "x", 2, x=2)
        with pytest.raises(ModelEvaluationError, match="undefined at t=0.0"):
            slope(0.0, np.zeros((1, 2)))

    @pytest.mark.parametrize("expr", ["2 ** x1", "pow(t, x1)", "x1 ** x1"])
    def test_a_variable_exponent_is_a_named_error(self, expr):
        with pytest.raises(ExpressionError, match="needs log, which the grammar lacks"):
            derivative_tree(expr, "x1", ("x1",))
        assert jacobian(expr, "x", 1, x=1) is None
        # The exponent is constant for another variable.
        assert jacobian(expr.replace("x1", "x2"), "x", 1, x=2) is not None

    def test_trees_compile_through_the_same_path_as_the_expressions(self):
        # A time pole in a derivative raises as the expression's own does.
        slope = jacobian("x1 / t", "x", 1, x=1)
        with pytest.raises(ModelEvaluationError, match="cannot be evaluated at t=0"):
            slope(0.0, np.ones((2, 1)))
        times = np.array([0.5, 2.0])
        got = slope(times, np.ones((2, 1)))
        want = compile_expressions("1.0 / t", x=1)(times, np.ones((2, 1)))
        assert got[:, 0].tobytes() == want.tobytes()


class TestAffineRecognition:
    @pytest.mark.parametrize(
        "rhs, gain",
        [
            (["u1 + 0.05*sin(3*t)"], [[1.0]]),
            (["u1", "u2"], [[1.0, 0.0], [0.0, 1.0]]),
            (["x2", "-sin(x1) + cos(x1)*u1 - 2*u2"], None),
        ],
        ids=["time-term", "single-integrator", "pendulum"],
    )
    def test_an_affine_expression_model_gets_its_gain(self, rhs, gain):
        model = expression_model(rhs, len(rhs), 1 if len(rhs) == 1 else 2)
        x = np.array([[0.3, -0.7], [1.2, 0.4]])[:, : len(rhs)]
        got = model.gain(0.25, x)
        if gain is None:
            gain = [[[0.0, 0.0], [np.cos(row[0]), -2.0]] for row in x]
        assert np.array_equal(got, np.broadcast_to(gain, got.shape))

    @pytest.mark.parametrize("rhs", [["u1*u1"], ["sin(u1)"], ["abs(u1)"], ["x1 ** u1"]])
    def test_a_model_that_is_not_affine_gets_no_gain(self, rhs):
        assert expression_model(rhs, 1, 1).gain is None

    def test_a_control_affine_config_takes_its_gain(self):
        model = model_from_config(
            {
                "model": "control_affine",
                "state_dim": 2,
                "control_dim": 1,
                "drift": ["x2", "0"],
                "gain": [["0"], ["1 + x1*x1"]],
            }
        )
        x = np.array([[2.0, 0.0], [0.5, 1.0]])
        assert model.gain(0.0, x).tolist() == [[[0.0], [5.0]], [[0.0], [1.25]]]

    def test_motors_and_the_builtin_ball_get_no_derivatives(self):
        assert model_from_config({"model": "motor_surge"}).gain is None
        assert unit_ball_complement(2).gradient(0.0, np.ones((1, 2))) is None


DISK = field_from_config({"components": ["1 - sqrt(x1*x1 + x2*x2)"], "box": [[-2.0, 2.0]] * 2})
PLANAR = expression_model(["u1", "u2"], 2, 2)


def todays_rows(field, model, eps, t, pts, candidates, xi, horizon=2.0):
    """(margin, speed) per row from the sampled candidates alone."""
    margins, velocities = inclusion_margins(field, model, eps, t, pts, candidates, xi, horizon)
    best = best_inward_candidate(margins, candidates)
    top = margins[np.arange(len(pts)), best]
    speeds = [float(np.linalg.norm(v[b])) if np.isfinite(m) else 0.0
              for v, b, m in zip(velocities, best, top)]
    return top, np.array(speeds)


class TestClosedFormControl:
    def test_u_star_is_the_normalised_pushback(self):
        u = closed_form_controls(DISK, PLANAR, 0.0, np.array([[0.6, 0.8]]), 2.0)
        assert np.allclose(u, [[1.2, 1.6]], rtol=0, atol=1e-15)

    def test_a_gain_that_does_not_broadcast_is_read_as_one_matrix(self):
        # control_affine's field broadcasts an (N, M) gain over the states; so does u*.
        model = control_affine(lambda t, x: np.zeros(np.shape(x)), lambda t, x: np.eye(2), 2, 2)
        u = closed_form_controls(DISK, model, 0.0, np.array([[0.6, 0.8], [0.0, -1.5]]), 2.0)
        assert np.allclose(u, [[1.2, 1.6], [0.0, -2.0]], rtol=0, atol=1e-15)

    def test_the_disk_centre_gets_todays_margins_bitwise(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.08]])
        assert closed_form_controls(DISK, PLANAR, 0.0, pts, 1.0) is None
        cands = control_candidates(0, 2, 1.0)
        got = _collar_rows(DISK, PLANAR, 0.05, 0.0, pts, cands, 1.0, 0.3, 2.0)
        want = todays_rows(DISK, PLANAR, 0.05, 0.0, pts, cands, 0.3)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_a_gain_that_zeroes_the_pushback_gets_todays_margins_bitwise(self):
        # B moves x1 only, and the normal at (0, 1.06) is along x2: Bᵀn = 0.
        def gain(t, x):
            return np.broadcast_to([[1.0, 0.0], [0.0, 0.0]], np.shape(x)[:-1] + (2, 2))

        model = control_affine(lambda t, x: np.zeros(np.shape(x)), gain, 2, 2)
        pts = np.array([[0.0, 1.06], [0.8, 0.8]])
        u = closed_form_controls(DISK, model, 0.0, pts, 1.0)
        assert np.isnan(u[0]).all() and np.isfinite(u[1]).all()
        cands = control_candidates(0, 2, 1.0)
        got = _collar_rows(DISK, model, 0.05, 0.0, pts[:1], cands, 1.0, 0.3, 2.0)
        want = todays_rows(DISK, model, 0.05, 0.0, pts[:1], cands, 0.3)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_a_row_passing_on_the_candidates_passes(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(0, 2 * np.pi, 40)
        radii = 1.05 + rng.uniform(0.0, 0.3, 40)
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        cands = control_candidates(0, 2, 1.0)
        got, _ = _collar_rows(DISK, PLANAR, 0.05, 0.0, pts, cands, 1.0, 0.3, 2.0)
        want, _ = todays_rows(DISK, PLANAR, 0.05, 0.0, pts, cands, 0.3)
        assert (want >= 0).any()
        assert ((got >= 0) | (want < 0)).all()
        assert np.array_equal(got[got < 0], want[got < 0])


class TestRepairControl:
    @pytest.mark.parametrize("seed, slack", [(0, 0.5), (1, 0.5), (0, 0.9), (2, 0.9)])
    def test_todays_pick_is_kept_when_its_margin_is_not_negative(self, seed, slack):
        # At slack 0.9 some sampled picks fail, and u* is tried there.
        bundle = SimpleNamespace(
            seed=seed,
            control_bound=1.0,
            inward_slack=slack,
            growth_envelope=SimpleNamespace(grid=TimeGrid.uniform(0.0, 2.0, 10)),
        )
        cands = control_candidates(seed, 2, 1.0)
        rng = np.random.default_rng(seed)
        kept = burst = 0
        for _ in range(30):
            angle, radius = rng.uniform(0, 2 * np.pi), 1.05 + rng.uniform(0.0, 0.05)
            x = radius * np.array([np.cos(angle), np.sin(angle)])
            margins, velocities = inclusion_margins(DISK, PLANAR, 0.05, 0.5, x[None], cands, slack, 2.0)
            best = int(best_inward_candidate(margins, cands)[0])
            try:
                u, v = inward_control_at(bundle, DISK, PLANAR, 0.05, 0.5, x)
            except InwardPointingError:
                assert margins[0, best] < 0
                continue
            if margins[0, best] >= 0:
                assert u.tobytes() == cands[best].tobytes()
                assert v.tobytes() == velocities[0, best].tobytes()
                kept += 1
            else:
                again, _ = inclusion_margins(DISK, PLANAR, 0.05, 0.5, x[None], u[None], slack, 2.0)
                assert again[0, 0] >= 0
                burst += 1
        assert kept and (burst or slack == 0.5)
