"""The independent checker accepts sound artifacts and rejects corrupted ones.

Artifacts are written by hand for the 2-D single integrator x' = u next
to the unit disk, where every trajectory is exact: a reference grazing
the disk along x2 = 1.0005 and a repaired pair lifted by a constant
upward control.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil

import numpy as np
import pytest

import checker

LAM = 0.1
EPS = 0.01
DISK = checker.System(checker.single_integrator_rhs)
MOVING = checker.System(checker.single_integrator_rhs, centre_speed=0.1)


def _reference(steps=40):
    times = np.linspace(0.0, 2.0, steps + 1)
    states = np.stack([-1.5 + 1.5 * times, np.full(times.size, 1.0005)], axis=1)
    controls = np.tile([1.5, 0.0], (times.size, 1))
    return checker.Reference(times, states, controls)


def _integrate(times, x0, controls):
    steps = np.diff(times)[:, None] * controls[:-1]
    return np.vstack([x0, x0 + np.cumsum(steps, axis=0)])


def _write_csv(path, prefix, times, values):
    header = "t," + ",".join(f"{prefix}{j + 1}" for j in range(values.shape[1]))
    rows = [",".join(format(float(v), ".17g") for v in (t, *row)) for t, row in zip(times, values)]
    with open(path, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")


def _write_artifacts(out, times, states, controls, eps=EPS):
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "x_eps.csv"), "x", times, states)
    _write_csv(os.path.join(out, "u_eps.csv"), "u", times, controls)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(f"interior repair report\n\n[constants]\neps = {eps!r}\n\n"
                 "[tightening trail]\neps = 0.5  violation = 1  rejected\n")
    with open(os.path.join(out, "bundle.json"), "w") as fh:
        json.dump({"seed": 0}, fh)
    return str(out)


def _lifted(reference, lift=0.02):
    controls = reference.controls + np.array([0.0, lift])
    states = _integrate(reference.times, reference.states[0], controls)
    return states, controls


@pytest.fixture
def sound(tmp_path):
    reference = _reference()
    states, controls = _lifted(reference)
    return reference, _write_artifacts(tmp_path / "sound", reference.times, states, controls)


def test_sound_artifacts_pass(sound):
    reference, out = sound
    findings = checker.check_artifacts(out, DISK, reference, LAM)
    assert findings.eps == EPS
    assert findings.margin_min > 0 and findings.between_margin_min > 0
    assert findings.node_gap < 1e-12
    assert findings.sup_gap == pytest.approx(0.04)
    assert findings.cost_gap == pytest.approx(2.0 * 0.02**2)


def test_reference_checks(sound):
    reference, _ = sound
    checker.check_reference(DISK, reference)
    states = reference.states.copy()
    states[20:, 1] += 1e-3
    bent = checker.Reference(reference.times, states, reference.controls)
    with pytest.raises(checker.CheckFailure, match="not a trajectory"):
        checker.check_reference(DISK, bent)


def test_rejects_state_moved_inside_tightened_set(sound, tmp_path):
    reference, _ = sound
    states, controls = _lifted(reference)
    states[20] = [0.0, 1.0 + EPS / 2]  # inside the disk of radius 1 + eps
    out = _write_artifacts(tmp_path / "moved", reference.times, states, controls)
    with pytest.raises(checker.CheckFailure, match=r"margin .* <= 0 at t = 1\.0"):
        checker.check_artifacts(out, DISK, reference, LAM)


def test_rejects_control_that_reintegration_disagrees_with(sound, tmp_path):
    reference, _ = sound
    states, controls = _lifted(reference)
    controls[7, 1] += 1e-3  # moves the cell's right end by 5e-5
    out = _write_artifacts(tmp_path / "control", reference.times, states, controls)
    with pytest.raises(checker.CheckFailure, match="not a trajectory of u_eps"):
        checker.check_artifacts(out, DISK, reference, LAM)


@pytest.mark.parametrize("keep", [0.5, 0.999])
def test_rejects_truncated_csv(sound, keep):
    reference, out = sound
    path = os.path.join(out, "x_eps.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: int(len(text) * keep)])
    with pytest.raises(checker.CheckFailure, match="x_eps.csv"):
        checker.check_artifacts(out, DISK, reference, LAM)


def test_rejects_truncated_csv_at_a_row_boundary(sound):
    reference, out = sound
    path = os.path.join(out, "u_eps.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-3])
    with pytest.raises(checker.CheckFailure, match="do not match the 41-node reference grid"):
        checker.check_artifacts(out, DISK, reference, LAM)


def test_rejects_differing_bytes_between_repetitions(sound, tmp_path):
    _, out = sound
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    names = checker.CERTIFY_ARTIFACTS + checker.REPAIR_ARTIFACTS
    checker.check_identical([out, again], names)
    with open(os.path.join(again, "report.txt"), "a") as fh:
        fh.write(" ")
    with pytest.raises(checker.CheckFailure, match="report.txt differs"):
        checker.check_identical([out, again], names)


def test_rejects_excursion_between_nodes(tmp_path):
    # Two nodes outside the tightened disk whose chord cuts through it: a
    # node-only check passes, the between-node check does not.
    times = np.array([0.0, 1.0])
    states = np.array([[-0.3, 1.02], [0.3, 1.02]])
    controls = np.array([[0.6, 0.0], [0.6, 0.0]])
    reference = checker.Reference(times, states, controls)
    out = _write_artifacts(tmp_path / "chord", times, states, controls, eps=0.03)
    assert DISK.margin(times, states, 0.03).min() > 0
    with pytest.raises(checker.CheckFailure, match="between grid nodes"):
        checker.check_artifacts(out, DISK, reference, LAM)


def test_sup_and_cost_gaps_are_bounded_by_lambda(tmp_path):
    reference = _reference()
    states, controls = _lifted(reference, lift=0.1)  # sup gap 0.2
    out = _write_artifacts(tmp_path / "far", reference.times, states, controls)
    with pytest.raises(checker.CheckFailure, match="sup gap"):
        checker.check_artifacts(out, DISK, reference, LAM)


def test_moving_centre_margin():
    t = np.array([0.0, 10.0])
    x = np.array([[2.0, 0.0], [2.0, 0.0]])
    np.testing.assert_allclose(MOVING.margin(t, x, 0.0), [1.0, 0.0], atol=1e-15)


def test_report_eps_comes_from_the_constants_block(sound):
    _, out = sound
    assert checker.read_eps(os.path.join(out, "report.txt")) == EPS


@pytest.mark.parametrize(
    "formula, builder",
    [(checker.surge_rhs, "motor_surge"), (checker.decline_rhs, "motor_decline")],
)
def test_motor_formulas_match_the_program(formula, builder):
    dynamics = pytest.importorskip("tightpath.dynamics")
    model = getattr(dynamics, builder)()
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2.0, size=(64, 1))
    x = rng.uniform(-2.0, 2.0, size=(64, 1))
    u = rng.uniform(-3.0, 3.0, size=(64, 1))
    expected = np.array([model.rhs(float(ti), xi, ui) for ti, xi, ui in zip(t[:, 0], x, u)])
    np.testing.assert_allclose(formula(t, x, u), expected, rtol=1e-13, atol=1e-15)
