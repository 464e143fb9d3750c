"""Known defects, one strict xfail each: an executable ledger of ROADMAP items.

Each test runs one recipe from ROADMAP.md through the command line and
asserts the correct behaviour. While the defect stands the assertion
fails, and the test is marked ``xfail(strict=True, raises=AssertionError)``
with the item it belongs to. A fix makes it pass, which fails the run
until the change that fixed it removes the marker; a crash does not
count as the expected failure.

The dense judge shares no code with tightpath. For x' = u under
piecewise-constant controls, the state minus the disk's centre is linear
on each cell, so the least distance to the centre over a cell is the
distance from the origin to a segment, and the judge's margin is exact.
"""

import csv
import json
import re

import numpy as np
import pytest

from tightpath import cli

HORIZON = 2.0


def disk_config(component: str, steps: int, resolution: float, time_varying: bool) -> dict:
    """The benchmark's 2-D single integrator, with the reference on the
    line x2 = 1.0, which grazes the unit disk."""
    times = np.linspace(0.0, HORIZON, steps + 1).tolist()
    return {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["u1", "u2"],
        "constraint": {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": [component],
            "time_varying": time_varying,
            "resolution": resolution,
        },
        "reference": {
            "kind": "inline",
            "times": times,
            "states": [[-1.5 + 1.5 * t, 1.0] for t in times],
            "controls": [[1.5, 0.0]] * len(times),
        },
    }


def run(argv, capsys) -> tuple:
    """(exit code, {name: value} of the ``name = value`` lines it printed,
    everything it printed)."""
    code = cli.main(argv)
    text = capsys.readouterr().out
    printed = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return code, printed, text


def certify_and_repair(tmp_path, capsys, config: dict, seed: int, lam: float) -> tuple:
    """Certify at ``seed`` and repair at ``lam``; what ``run`` gives for the repair."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "lambda": lam}))
    out = str(tmp_path / "out")
    certify = ["certify", "--config", str(path), "--out", out, "--seed", str(seed)]
    code, _, text = run(certify, capsys)
    if code not in (0, 2):
        pytest.fail(f"certify exited {code}, so the recipe did not run:\n{text}")
    bundle = str(tmp_path / "out" / "bundle.json")
    return run(["repair", "--config", str(path), "--bundle", bundle, "--out", out], capsys)


def read_states(path) -> tuple:
    with open(path) as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    table = np.array(rows)
    return table[:, 0], table[:, 1:]


def least_disk_margin(times, states, eps: float, centre_speed: float) -> tuple:
    """(least margin, time where it occurs) of the piecewise-linear path
    through the node states against the unit disk centred at
    (centre_speed t, 0), tightened by eps: |x - c(t)| - (1 + eps)."""
    offsets = states - np.outer(times, [centre_speed, 0.0])
    start, chord = offsets[:-1], offsets[1:] - offsets[:-1]
    length2 = (chord * chord).sum(axis=1)
    safe = np.where(length2 > 0, length2, 1.0)
    share = np.clip(np.where(length2 > 0, -(start * chord).sum(axis=1) / safe, 0.0), 0.0, 1.0)
    radii = np.linalg.norm(start + share[:, None] * chord, axis=1)
    cell = int(np.argmin(radii))
    t = times[cell] + share[cell] * (times[cell + 1] - times[cell])
    return float(radii[cell] - (1.0 + eps)), float(t)


class TestDenseJudge:
    """The judge itself, on paths whose least margin is known."""

    def test_a_chord_through_the_disk_is_caught_between_nodes(self):
        times = np.array([0.0, 1.0])
        states = np.array([[-2.0, 0.5], [2.0, 0.5]])
        margin, t = least_disk_margin(times, states, 0.0, 0.0)
        assert margin == pytest.approx(-0.5) and t == pytest.approx(0.5)

    def test_the_moving_centre_is_subtracted(self):
        # The state rests at (1.5, 0) while the centre moves from 0 to 2.
        times = np.array([0.0, 2.0])
        states = np.array([[1.5, 0.0], [1.5, 0.0]])
        margin, t = least_disk_margin(times, states, 0.1, 1.0)
        assert margin == pytest.approx(-1.1) and t == pytest.approx(1.5)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: repair checks the margin at nodes only, and the grazing "
    "moving disk leaves the tightened set between nodes",
)
def test_item_1_grazing_moving_disk_stays_inside_between_nodes(tmp_path, capsys):
    config = disk_config("1 - sqrt((x1 - 0.1*t)**2 + x2**2)", 60, 0.025, True)
    code, printed, _ = certify_and_repair(tmp_path, capsys, config, seed=0, lam=0.05)
    if code == 0:
        times, states = read_states(tmp_path / "out" / "x_eps.csv")
        margin, t = least_disk_margin(times, states, float(printed["eps"]), 0.1)
        reported = printed["interiority margin"]
        assert margin >= 0, f"exit 0 with margin {reported}, but {margin:.4g} at t={t:.4f}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: a burst lasts a whole grid step, so the grazing disk "
    "lattice repair cannot get under a sup gap of about 0.025",
)
def test_item_2_grazing_disk_lattice_meets_lambda_0_01(tmp_path, capsys):
    config = disk_config("1 - sqrt(x1*x1 + x2*x2)", 200, 0.0075, False)
    code, printed, text = certify_and_repair(tmp_path, capsys, config, seed=0, lam=0.01)
    assert code == 0, f"exit {code}:\n{text}"
    assert 0 < float(printed["sup gap"]) <= 0.01


ARCTAN_CONFIG = {
    "model": "expression",
    "state_dim": 1,
    "control_dim": 1,
    "rhs": ["u1 + 0.0001*arctan(9000*(x1 - 1.3))"],
    "constraint": {"box": [[0.0, 3.0]], "components": ["1 - x1"], "resolution": 0.01},
    "reference": {
        "kind": "inline",
        "times": [0.0, 0.25, 0.5, 0.75, 1.0],
        "states": [[1.2]] * 5,
        "controls": [[0.0001 * float(np.arctan(900.0))]] * 5,
    },
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: a sampled Lipschitz constant can miss a steep arctan "
    "and still be labelled certified",
)
def test_item_9_certified_lipschitz_constant_covers_the_arctan(tmp_path, capsys):
    # The field's state-Lipschitz constant is 0.0001 * 9000 = 0.9, at x1 = 1.3.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ARCTAN_CONFIG))
    undershoots = {}
    for seed in range(4):
        out = tmp_path / f"seed-{seed}"
        argv = ["certify", "--config", str(path), "--out", str(out), "--seed", str(seed)]
        if run(argv, capsys)[0] in (0, 2):
            bundle = json.loads((out / "bundle.json").read_text())
            largest = max(bundle["state_lipschitz"]["values"])
            if bundle["provenance"]["state_lipschitz"] == "certified" and largest < 0.9:
                undershoots[seed] = largest
    assert not undershoots, f"certified state_lipschitz below 0.9 by seed: {undershoots}"


DECLINE_WORKLOAD_CONFIG = {
    "model": "motor_decline",
    "constraint": {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0},
    "reference": {
        "kind": "boundary-tracking",
        "variant": "decline",
        "clearance": 0.0005,
        "x_start": 1.08,
        "finish": 1.06,
    },
    "horizon": HORIZON,
    "steps": 2000,
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: the a-priori bounds are vacuous, and report.txt prints "
    "them as -inf",
)
def test_item_4_the_decline_report_prints_no_inf_or_nan(tmp_path, capsys):
    # The benchmark's decline workload at seed 1.
    code, _, text = certify_and_repair(tmp_path, capsys, DECLINE_WORKLOAD_CONFIG, seed=1, lam=0.1)
    if code != 0:
        pytest.fail(f"repair exited {code}, so the recipe did not run:\n{text}")
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
    bad = [line for line in lines if re.search(r"\b(inf|nan)\b", line)]
    assert not bad, f"{len(bad)} of {len(lines)} lines hold inf or nan, the first: {bad[0]}"


def affine_disk_config(**changes) -> dict:
    """Item 8's setup: x' = u as a control_affine model on the static unit
    disk's complement, 20 steps, with the reference a true trajectory."""
    times = np.linspace(0.0, HORIZON, 21).tolist()
    config = {
        "model": "control_affine",
        "state_dim": 2,
        "control_dim": 2,
        "drift": ["0", "0"],
        "gain": [["1", "0"], ["0", "1"]],
        "constraint": {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": ["1 - sqrt(x1*x1 + x2*x2)"],
            "resolution": 0.05,
        },
        "reference": {
            "kind": "inline",
            "times": times,
            "states": [[-1.5 + 1.5 * t, 1.0005] for t in times],
            "controls": [[1.5, 0.0]] * len(times),
        },
    }
    return {**config, **changes}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8: a compiled expression that overflows or leaves its "
    "domain raises a stray numpy RuntimeWarning, not a diagnostic naming its key",
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "key, changes",
    [
        ("gain", {"gain": [["1", "0"], ["0", "1e308"]]}),
        ("gain", {"gain": [["1", "0"], ["0", "1 + x1**1000"]]}),
        (
            "components",
            {"constraint": {**affine_disk_config()["constraint"], "components": ["sqrt(x1)"]}},
        ),
    ],
    ids=["gain-1e308", "gain-power", "component-sqrt"],
)
def test_item_8_a_stray_warning_ends_in_a_named_diagnostic(tmp_path, capsys, key, changes):
    # The gain cases change the control that the reference holds at 0.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(affine_disk_config(**changes)))
    try:
        code = cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "out")])
    except RuntimeWarning as exc:
        raise AssertionError(f"a RuntimeWarning escaped certify: {exc}") from None
    err = capsys.readouterr().err
    assert code in (1, 64) and repr(key) in err, f"exit {code}: {err}"
