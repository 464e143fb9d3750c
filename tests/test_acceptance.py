"""Acceptance suite: one test per criterion, end to end.

Every check recomputes its quantity independently of the library path
under test (margins from raw states, costs from the piecewise-constant
sum, growth factors from the certified modulus tables) and each test
prints a single pass line with the measured numbers.
"""

import time

import numpy as np
import pytest

from tightpath import (
    CertificationError,
    ControlSignal,
    TimeGrid,
    certify_all,
    cli,
    field_from_config,
    motor_scenario,
    repair,
)
from tightpath.dynamics import model_from_config, motor_surge
from tightpath.hypotheses import certify_inward_pointing
from tightpath.propagation import integrate
from test_dynamics import DOUBLE_INTEGRATOR

RUNTIME_BUDGET = 30.0
INTEGRATOR_TOL = 1e-6


def ball_margin_min(states: np.ndarray, eps: float) -> float:
    """min over grid of -(eps + h) for h(x) = 1 - |x|, recomputed raw."""
    return float(np.min(np.linalg.norm(states, axis=1) - 1.0 - eps))


def control_cost(control: ControlSignal) -> float:
    """Unweighted squared L2 cost of a piecewise-constant control."""
    widths = np.diff(control.grid.nodes)
    return float(np.sum(widths * np.sum(control.values[:-1] ** 2, axis=1)))


def run_pipeline(variant: str, lam: float):
    start = time.monotonic()
    sc = motor_scenario(variant)
    bundle = certify_all(sc.model, sc.field, sc.ubar, sc.xbar)
    x_eps, u_eps, c, report = repair(sc.xbar, sc.ubar, lam, bundle, sc.field, sc.model)
    elapsed = time.monotonic() - start
    return sc, bundle, x_eps, u_eps, c, report, elapsed


def check_theorem_contract(sc, x_eps, u_eps, c, lam: float):
    margin = ball_margin_min(x_eps.states, c.eps)
    linf = float(np.max(np.abs(sc.xbar.states - x_eps.states)))
    cost_gap = abs(control_cost(sc.ubar) - control_cost(u_eps))
    assert margin > 0
    assert linf <= lam
    assert cost_gap <= lam
    return margin, linf, cost_gap


@pytest.fixture(scope="module")
def sweep_runs(surge_scenario, surge_bundle):
    sc = surge_scenario
    runs = {}
    for lam in (0.4, 0.2, 0.1, 0.05):
        runs[lam] = repair(sc.xbar, sc.ubar, lam, surge_bundle, sc.field, sc.model)
    return runs


def test_criterion_1_motor_surge_end_to_end():
    sc, bundle, x_eps, u_eps, c, report, elapsed = run_pipeline("surge", 0.1)
    assert sc.xbar.grid.nodes.size == 2001
    margin, linf, cost_gap = check_theorem_contract(sc, x_eps, u_eps, c, 0.1)
    assert elapsed <= RUNTIME_BUDGET
    print(
        f"[acceptance] criterion 1: PASS margin={margin:.4g} linf={linf:.4g} "
        f"cost_gap={cost_gap:.4g} runtime={elapsed:.2f}s"
    )


def test_criterion_2_motor_decline_end_to_end():
    sc, bundle, x_eps, u_eps, c, report, elapsed = run_pipeline("decline", 0.1)
    # The declared drift density of the decaying actuator is 1/(4 sqrt(s-1))
    # after the breakpoint; spot-check it away from the pole cells.
    nodes = bundle.time_drift.grid.nodes
    vals = bundle.time_drift.values
    away = nodes > 1.01
    expected = 0.25 / np.sqrt(nodes[away] - 1.0)
    assert np.allclose(vals[away], expected, rtol=1e-9)
    margin, linf, cost_gap = check_theorem_contract(sc, x_eps, u_eps, c, 0.1)
    assert elapsed <= RUNTIME_BUDGET
    print(
        f"[acceptance] criterion 2: PASS margin={margin:.4g} linf={linf:.4g} "
        f"cost_gap={cost_gap:.4g} runtime={elapsed:.2f}s"
    )


def test_criterion_3_lambda_sweep(surge_scenario, sweep_runs):
    sc = surge_scenario
    chosen = []
    for lam in (0.4, 0.2, 0.1, 0.05):
        x_eps, u_eps, c, report = sweep_runs[lam]
        check_theorem_contract(sc, x_eps, u_eps, c, lam)
        chosen.append(c.eps)
    assert all(a >= b for a, b in zip(chosen[:-1], chosen[1:]))
    print(f"[acceptance] criterion 3: PASS eps by lambda={chosen}")


def test_criterion_4_recursion_bounds(surge_run, decline_run, sweep_runs):
    runs = [surge_run, decline_run, *sweep_runs.values()]
    for _, _, c, report in runs:
        assert report.iter_rho_excess <= 0
        assert report.d_bound_excess <= 0
        assert report.envelope_sup <= c.R - 1.0
        for record in report.records:
            assert record.margin_min > 0
    print(f"[acceptance] criterion 4: PASS over {len(runs)} runs, zero violations")


def test_criterion_5_case2_invariants(surge_run, decline_run):
    checked = 0
    for _, _, c, report in (surge_run, decline_run):
        slack = INTEGRATOR_TOL + c.omega_bar.value_at(c.step)
        for record in report.records:
            if record.case != "case-2":
                continue
            checked += 1
            assert record.cone_excess <= slack
            assert record.delay_gap_excess <= slack
    assert checked > 0
    print(f"[acceptance] criterion 5: PASS on {checked} burst intervals")


@pytest.mark.parametrize("variant", ["surge", "decline"])
def test_criterion_6_filippov_gap(variant, surge_run, decline_run):
    _, _, c, _ = surge_run if variant == "surge" else decline_run
    factor = float(np.exp(c.omega_f.value_at(c.horizon)))
    # A coarse grid keeps 100 propagations cheap; the graze tightness is
    # irrelevant to the growth bound, so the clearance is relaxed to keep
    # the tracking reference feasible at this resolution.
    sc = motor_scenario(variant, steps=250, clearance=5e-3)
    grid, x0 = sc.xbar.grid, sc.xbar.states[0]
    window = (grid.t0, grid.t1)
    base = integrate(sc.model, sc.ubar, x0, window, grid.step, check=False)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        gap0 = float(rng.uniform(1e-3, 0.05)) * float(rng.choice([-1.0, 1.0]))
        shifted = integrate(sc.model, sc.ubar, x0 + gap0, window, grid.step, check=False)
        observed = float(np.max(np.abs(shifted.states - base.states)))
        assert observed <= factor * abs(gap0)
        worst = max(worst, observed / (factor * abs(gap0)))
    print(f"[acceptance] criterion 6: PASS {variant} worst ratio={worst:.3f} factor={factor:.3f}")


def test_criterion_7_certifier_fidelity(surge_scenario, surge_bundle):
    sc, bundle = surge_scenario, surge_bundle
    assert bundle.holder_exponent == 0.25
    assert bundle.provenance["holder_rate"] == "declared"
    rate = bundle.holder_rate
    checked = 0
    for s, value in zip(rate.grid.nodes, rate.values):
        if s == 1.0:
            continue
        checked += 1
        cap = 1.1 * (bundle.control_bound + abs(float(sc.ubar.eval(float(s))[0])))
        cap /= abs(1.0 - float(s)) ** 0.25
        assert value <= cap + 1e-12
    assert checked > 50
    # Order-2 scenario: the constraint reads the position only, so no
    # bounded control can produce an inward normal velocity at collar
    # points whose velocity component is adverse.
    order2 = field_from_config(
        {"box": [[-2.0, 2.0], [-2.0, 2.0]], "components": ["1 - x1"]}
    )
    with pytest.raises(CertificationError):
        certify_inward_pointing(
            order2,
            model_from_config(DOUBLE_INTEGRATOR),
            eps_list=(0.05, 0.1),
            collar_eta_grid=(0.05, 0.1, 0.2, 0.4),
            time_grid=TimeGrid.uniform(0.0, 1.0, 10),
            box_radius=3.0,  # the whole box
        )
    print(f"[acceptance] criterion 7: PASS alpha=1/4, {checked} rate samples, order-2 rejected")


def test_criterion_8_oracle_equivalence():
    # Integrator endpoints against a tenfold-refined run on smooth fields.
    grid = TimeGrid.uniform(0.0, 2.0, 100)
    wave = ControlSignal(grid, np.sin(grid.nodes)[:, None])
    endpoint_gaps = []
    # The surge window stops short of the gain's singularity at t = 1.
    cases = (
        (model_from_config(DOUBLE_INTEGRATOR), [0.0, 0.0], (0.0, 2.0)),
        (motor_surge(), [1.2], (0.0, 0.9)),
    )
    for model, x0, window in cases:
        coarse = integrate(model, wave, x0, window, grid.step)
        fine = integrate(model, wave, x0, window, grid.step / 10.0)
        gap = float(np.max(np.abs(coarse.states[-1] - fine.states[-1])))
        endpoint_gaps.append(gap)
        assert gap <= INTEGRATOR_TOL
    # Numeric distance field against a dense boundary-sampling oracle.
    field = field_from_config(
        {"box": [[-2.0, 2.0], [-2.0, 2.0]], "components": ["1 - sqrt(x1*x1 + x2*x2)"]}
    )
    eps = 0.1
    rng = np.random.default_rng(7)
    probes = rng.uniform(-2.0, 2.0, size=(1000, 2))
    numeric = field._distances(eps, 0.0, probes)[0]
    radii = np.linalg.norm(probes, axis=1)
    exact = np.maximum(1.0 + eps - radii, 0.0)
    worst = float(np.max(np.abs(numeric - exact)))
    assert worst <= 2.0 * field.resolution
    print(
        f"[acceptance] criterion 8: PASS endpoint gaps={[f'{g:.2e}' for g in endpoint_gaps]} "
        f"distance error={worst:.2e} vs cap={2.0 * field.resolution:.2e}"
    )


def test_criterion_9_determinism(tmp_path):
    config = {
        "model": "motor_surge",
        "constraint": {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0},
        "reference": {
            "kind": "boundary-tracking",
            "variant": "surge",
            "clearance": 0.0005,
            "x_start": 1.08,
            "finish": 1.06,
        },
        "horizon": 2.0,
        "steps": 2000,
        "lambda": 0.1,
        "seed": 0,
    }
    import json

    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli.main(["certify", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (
            cli.main(
                [
                    "repair",
                    "--config",
                    str(cfg_path),
                    "--bundle",
                    str(out / "bundle.json"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outputs.append(out)
    first, second = outputs
    for name in ("bundle.json", "x_eps.csv", "u_eps.csv", "report.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print("[acceptance] criterion 9: PASS bitwise-identical artifacts")


def test_time_varying_moving_disk_end_to_end(tmp_path, capsys):
    """A disk whose centre moves at speed 0.1 along x1, grazed by the
    2-D single integrator on the line x = (-1.5 + 1.5 t, 1.0005): certify,
    repair and evaluate through the CLI on a time-varying lattice field."""
    import json

    lam = 0.1
    times = np.linspace(0.0, 2.0, 61)
    config = {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["u1", "u2"],
        "constraint": {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
            "time_varying": True,
            "resolution": 0.025,
        },
        "reference": {
            "kind": "inline",
            "times": times.tolist(),
            "states": [[-1.5 + 1.5 * t, 1.0005] for t in times.tolist()],
            "controls": [[1.5, 0.0]] * times.size,
        },
        "lambda": lam,
        "seed": 0,
    }
    cfg_path = tmp_path / "moving-disk.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(out)]) == 0
    bundle = str(out / "bundle.json")
    assert cli.main(["repair", "--config", str(cfg_path), "--bundle", bundle, "--out", str(out)]) == 0
    eps = float(capsys.readouterr().out.split("eps = ", 1)[1].split()[0])

    config["eps"] = eps
    cfg_path.write_text(json.dumps(config))
    code = cli.main(
        ["evaluate", str(out / "x_eps.csv"), str(out / "u_eps.csv"), "--config", str(cfg_path)]
    )
    printed = dict(line.rsplit(" = ", 1) for line in capsys.readouterr().out.splitlines())
    printed = {key.split(" (")[0]: float(value) for key, value in printed.items()}
    assert code == 0
    margin = printed["interiority margin"]
    assert margin > 0
    assert printed["sup gap"] <= lam
    assert printed["cost gap"] <= lam

    # The one-call margin equals the per-node loop, and the raw formula.
    x_eps = np.loadtxt(out / "x_eps.csv", delimiter=",", skiprows=1)
    field = field_from_config(config["constraint"])
    per_node = min(
        float(field.margin(float(row[0]), row[None, 1:], eps)[0]) for row in x_eps
    )
    assert margin == per_node
    raw = np.hypot(x_eps[:, 1] - 0.1 * x_eps[:, 0], x_eps[:, 2]) - 1.0 - eps
    assert margin == pytest.approx(float(raw.min()), abs=1e-12)
    print(
        f"[acceptance] moving disk: PASS eps={eps} margin={margin:.3e} "
        f"sup gap={printed['sup gap']:.3e} cost gap={printed['cost gap']:.3e}"
    )
