"""Command line front end tests.

The heavy certify/repair paths run once against the surge scenario inside
a session-scoped artifact directory; exit-code and config-rejection paths
use small fabricated configs.
"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from tightpath import ControlSignal, TimeGrid, cli, expression_model, integrate
from tightpath.hypotheses import bundle_to_dict, save_bundle
from tightpath.errors import ConfigError, config_number

SURGE_CONFIG = {
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

SUPERLINEAR_CONFIG = {
    "model": "expression",
    "state_dim": 1,
    "control_dim": 1,
    "rhs": ["u1*u1"],
    "constraint": {"box": [[0.0, 3.0]], "components": ["1 - x1"]},
    "reference": {
        "kind": "inline",
        "times": [0.0, 0.25, 0.5, 0.75, 1.0],
        "states": [[1.2]] * 5,
        "controls": [[0.0]] * 5,
    },
    "lambda": 0.1,
}

_DISK_TIMES = np.linspace(0.0, 2.0, 41).tolist()

# An autonomous control-affine field, x' = u, on the static unit disk's
# complement, with a reference that grazes the disk along x2 = 1.0005.
CONTROL_AFFINE_CONFIG = {
    "model": "control_affine",
    "state_dim": 2,
    "control_dim": 2,
    "drift": ["0", "0"],
    "gain": [[1, 0], [0, 1]],
    "constraint": {
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "components": ["1 - sqrt(x1*x1 + x2*x2)"],
        "resolution": 0.05,
    },
    "reference": {
        "kind": "inline",
        "times": _DISK_TIMES,
        "states": [[-1.5 + 1.5 * t, 1.0005] for t in _DISK_TIMES],
        "controls": [[1.5, 0.0]] * len(_DISK_TIMES),
    },
    "lambda": 0.1,
}


# The moving-disk scenario: x' = u as an expression model, on the
# complement of a disk whose centre moves along x1.
MOVING_DISK_CONFIG = {
    "model": "expression",
    "state_dim": 2,
    "control_dim": 2,
    "rhs": ["u1", "u2"],
    "constraint": {
        **CONTROL_AFFINE_CONFIG["constraint"],
        "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
        "time_varying": True,
    },
    "reference": CONTROL_AFFINE_CONFIG["reference"],
    "lambda": 0.1,
}


def printed_numbers(text):
    """``name = value`` lines of a command's output, as floats by name."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.rpartition(" = ")
        if sep:
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


def write_config(path, config):
    with open(path, "w") as fh:
        json.dump(config, fh)
    return str(path)


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="session")
def surge_config_path(workdir):
    return write_config(workdir / "surge.json", SURGE_CONFIG)


@pytest.fixture(scope="session")
def certified(workdir, surge_config_path):
    out = workdir / "artifacts"
    code = cli.main(["certify", "--config", surge_config_path, "--out", str(out)])
    assert code == 0
    return out / "bundle.json"


@pytest.fixture(scope="session")
def repaired(workdir, surge_config_path, certified):
    out = workdir / "artifacts"
    code = cli.main(
        ["repair", "--config", surge_config_path, "--bundle", str(certified), "--out", str(out), "--svg"]
    )
    assert code == 0
    return out


class TestCertify:
    def test_bundle_record_contents(self, certified):
        with open(certified) as fh:
            record = json.load(fh)
        assert record["provenance"]["inward"] == "certified"
        assert record["provenance"]["growth_envelope"] == "declared"
        assert record["holder_exponent"] == 0.25
        assert record["seed"] == 0
        assert record["config_hash"]
        cert = record["certification"]
        assert cert["sample_counts"] == {
            "growth_envelope": 256,
            "state_lipschitz": 192,
            "time_regularity": 24,
            "boundary_modulus_probes": 128,
            "collar_times": 21,
            "collar_points": 16,
            "control_candidates": 17,
            "stability_resample": {"growth_envelope": 512, "state_lipschitz": 384},
        }
        assert set(cert["binding_samples"]) == {
            "growth_envelope",
            "state_lipschitz",
            "time_drift",
            "shift_radius",
            "holder_rate",
        }
        for entry in cert["binding_samples"].values():
            assert np.isfinite(entry["t"]) and np.isfinite(entry["value"])

    def test_superlinear_model_fails_with_witness(self, workdir, capsys):
        path = write_config(workdir / "superlinear.json", SUPERLINEAR_CONFIG)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "sl")])
        assert code == 1
        out = capsys.readouterr().out
        assert "super-linear" in out
        assert "witness ratio_growth" in out

    def test_partial_certification_exit(self, workdir, surge_config_path, monkeypatch, surge_bundle):
        demoted = dataclasses.replace(
            surge_bundle,
            provenance={**surge_bundle.provenance, "growth_envelope": "declared-only"},
        )
        monkeypatch.setattr(cli, "certify_all", lambda *a, **k: demoted)
        code = cli.main(
            ["certify", "--config", surge_config_path, "--out", str(workdir / "partial")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "expression, overrides",
        [
            ("u1 + 0*t**-0.5", {"rhs": ["u1 + 0*t**-0.5", "u2"], "shift_radius": 0.1}),
            ("1 - sqrt(x1*x1 + x2*x2) + 0*t**-0.5", {}),
            ("u1 + 0*(t+2.0)**2000.5", {"rhs": ["u1 + 0*(t+2.0)**2000.5", "u2"]}),
        ],
        ids=["pole-in-rhs", "pole-in-component", "overflow-in-rhs"],
    )
    def test_pole_or_overflow_at_a_float_time_is_an_error(
        self, workdir, capsys, expression, overrides
    ):
        # A scalar t reaches the expression as a Python float, whose
        # arithmetic raises where numpy's would give inf.
        config = json.loads(json.dumps({**MOVING_DISK_CONFIG, **overrides}))
        if not overrides:
            config["constraint"]["components"] = [expression]
        path = write_config(workdir / "pole.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "pole"), "--seed", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expression!r} cannot be evaluated at t="), err

    def test_parse_error_names_position(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"model": "motor_surge",\n  "steps": }\n')
        code = cli.main(["certify", "--config", str(bad), "--out", str(workdir)])
        assert code == 64
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_config_file(self, workdir):
        code = cli.main(["certify", "--config", str(workdir / "absent.json")])
        assert code == 64

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 64


class TestRepair:
    def test_artifacts_written(self, repaired):
        for name in ("x_eps.csv", "u_eps.csv", "report.txt", "overlay.svg"):
            assert (repaired / name).exists(), name
        header = (repaired / "x_eps.csv").read_text().splitlines()[0]
        assert header == "t,x1"
        report = (repaired / "report.txt").read_text()
        assert "interiority margin" in report
        assert "(> 0 required)" in report

    def test_report_matches_library_run(self, repaired, surge_run):
        _, _, c, report = surge_run
        from tightpath import render_report

        assert (repaired / "report.txt").read_text() == render_report(c, report, 0.1)

    def test_svg_is_wellformed(self, repaired):
        import xml.dom.minidom

        doc = xml.dom.minidom.parse(str(repaired / "overlay.svg"))
        assert doc.documentElement.tagName == "svg"
        assert doc.getElementsByTagName("polyline")

    def test_rerun_is_bitwise_identical(self, workdir, surge_config_path, certified, repaired):
        out = workdir / "again"
        code = cli.main(
            ["repair", "--config", surge_config_path, "--bundle", str(certified), "--out", str(out), "--svg"]
        )
        assert code == 0
        for name in ("x_eps.csv", "u_eps.csv", "report.txt", "overlay.svg"):
            assert (out / name).read_bytes() == (repaired / name).read_bytes(), name

    def test_hash_mismatch(self, workdir, certified, capsys):
        other = dict(SURGE_CONFIG)
        other["steps"] = 1000
        path = write_config(workdir / "other.json", other)
        code = cli.main(
            ["repair", "--config", path, "--bundle", str(certified), "--out", str(workdir / "m")]
        )
        assert code == 65
        assert "does not match" in capsys.readouterr().out

    def test_negative_bundle_function_exits_64(self, workdir, surge_config_path, certified, capsys):
        data = json.loads(Path(certified).read_text())
        data["state_lipschitz"]["values"] = [-v for v in data["state_lipschitz"]["values"]]
        path = workdir / "negative-bundle.json"
        path.write_text(json.dumps(data))
        code = cli.main(
            ["repair", "--config", surge_config_path, "--bundle", str(path), "--out", str(workdir / "neg-b")]
        )
        assert code == 64
        assert "'state_lipschitz' is negative" in capsys.readouterr().err

    def test_lambda_and_weight_do_not_change_hash(self):
        other = dict(SURGE_CONFIG)
        other["lambda"] = 0.4
        other["weight"] = {"kind": "one-plus-t"}
        assert cli.config_identity_hash(other) == cli.config_identity_hash(SURGE_CONFIG)

    def test_missing_lambda_rejected(self, workdir, certified, capsys):
        config = {k: v for k, v in SURGE_CONFIG.items() if k != "lambda"}
        path = write_config(workdir / "nolam.json", config)
        code = cli.main(
            ["repair", "--config", path, "--bundle", str(certified), "--out", str(workdir / "n")]
        )
        assert code == 64
        assert "lambda" in capsys.readouterr().err

    def test_unattainable_tolerance_fails_contract(self, workdir, certified, monkeypatch, capsys):
        # The boundary-riding reference cannot be matched to 1e-9 within
        # the tightening budget; the command must report the best attempt
        # and exit with the contract-failure code.
        config = dict(SURGE_CONFIG)
        config["lambda"] = 1e-9
        path = write_config(workdir / "tight.json", config)
        monkeypatch.setattr(cli, "repair", _raise_contract_failure)
        code = cli.main(
            ["repair", "--config", path, "--bundle", str(certified), "--out", str(workdir / "t")]
        )
        assert code == 1
        assert "repair failed" in capsys.readouterr().out


def _raise_contract_failure(*args, **kwargs):
    from tightpath import RepairError

    raise RepairError("no tightening satisfied the contract", stage="contract")


class TestEvaluate:
    def test_repair_output_cross_checks(self, repaired, surge_config_path, surge_run, capsys):
        _, _, c, report = surge_run
        config = json.loads(open(surge_config_path).read())
        config["eps"] = c.eps
        path = write_config(repaired / "eval.json", config)
        code = cli.main(
            [
                "evaluate",
                str(repaired / "x_eps.csv"),
                str(repaired / "u_eps.csv"),
                "--config",
                path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        fmt = cli._fmt
        assert f"interiority margin (eps = {fmt(c.eps)}) = {fmt(report.interiority_margin)}" in out
        assert f"sup gap = {fmt(report.final_linf_gap)}" in out
        assert f"cost reference = {fmt(report.cost_reference)}" in out
        assert f"cost evaluated = {fmt(report.cost_repaired)}" in out
        assert f"cost gap = {fmt(report.final_cost_gap)}" in out

    def test_reference_against_itself(self, workdir, surge_config_path, surge_scenario, capsys):
        from tightpath import save_csv

        sc = surge_scenario
        xp, up = workdir / "xbar.csv", workdir / "ubar.csv"
        save_csv(xp, sc.xbar)
        save_csv(up, sc.ubar)
        code = cli.main(["evaluate", str(xp), str(up), "--config", surge_config_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "sup gap = 0\n" in out
        assert "cost gap = 0\n" in out

    def test_infeasible_trajectory_exits_one(self, workdir, surge_config_path, surge_scenario, capsys):
        from tightpath import Trajectory, save_csv

        sc = surge_scenario
        sunk = Trajectory(grid=sc.xbar.grid, states=sc.xbar.states - 0.5)
        xp, up = workdir / "sunk.csv", workdir / "u_any.csv"
        save_csv(xp, sunk)
        save_csv(up, sc.ubar)
        code = cli.main(["evaluate", str(xp), str(up), "--config", surge_config_path])
        assert code == 1
        out = capsys.readouterr().out
        margin_line = next(line for line in out.splitlines() if "interiority margin" in line)
        assert float(margin_line.split(" = ")[-1]) < 0

    def test_dimension_mismatch(self, workdir, surge_config_path, capsys):
        bad_x = workdir / "bad_x.csv"
        bad_x.write_text("t,x1,x2\n0,1.2,0\n1,1.2,0\n2,1.2,0\n")
        bad_u = workdir / "bad_u.csv"
        bad_u.write_text("t,u1\n0,0\n1,0\n2,0\n")
        code = cli.main(["evaluate", str(bad_x), str(bad_u), "--config", surge_config_path])
        assert code == 64
        assert "dimension" in capsys.readouterr().err


def certify_repair_evaluate(workdir, capsys, name, config):
    """Run certify, repair and evaluate on ``config`` and check that each
    succeeds and the repaired pair meets the contract; returns what
    certify printed and the numbers repair printed."""
    path = write_config(workdir / f"{name}.json", config)
    out = workdir / name
    code = cli.main(["certify", "--config", path, "--out", str(out)])
    certified = capsys.readouterr()
    assert code == 0, certified
    bundle = str(out / "bundle.json")
    code = cli.main(["repair", "--config", path, "--bundle", bundle, "--out", str(out)])
    assert code == 0, capsys.readouterr()
    repaired = printed_numbers(capsys.readouterr().out)
    lam = config["lambda"]
    assert repaired["interiority margin"] > 0
    assert repaired["sup gap"] <= lam and repaired["cost gap"] <= lam
    # Evaluate the repaired pair at the tightening repair chose.
    scored = write_config(workdir / f"{name}_eps.json", {**config, "eps": repaired["eps"]})
    code = cli.main(
        ["evaluate", str(out / "x_eps.csv"), str(out / "u_eps.csv"), "--config", scored]
    )
    assert code == 0
    evaluated = printed_numbers(capsys.readouterr().out)
    assert evaluated[f"interiority margin (eps = {cli._fmt(repaired['eps'])})"] > 0
    assert evaluated["sup gap"] <= lam and evaluated["cost gap"] <= lam
    return certified.out, repaired


class TestControlAffine:
    def test_autonomous_config_certifies_repairs_and_evaluates(self, workdir, capsys):
        certify_repair_evaluate(workdir, capsys, "control_affine", CONTROL_AFFINE_CONFIG)


def time_dependent_config() -> dict:
    """The moving-disk config with x1' = u1 + 0.05 sin(3t), a model that
    reads t: the transport search and the sampled drift and Hölder
    certificates run. The program does not check that a reference solves
    its model, so this one is integrated from it."""
    rhs = ["u1 + 0.05*sin(3*t)", "u2"]
    grid = TimeGrid(np.array(_DISK_TIMES))
    ubar = ControlSignal(grid, MOVING_DISK_CONFIG["reference"]["controls"])
    model = expression_model(rhs, 2, 2, shift_radius=0.5)
    xbar = integrate(model, ubar, np.array([-1.5, 1.0005]), (grid.t0, grid.t1), grid.step)
    assert np.array_equal(xbar.grid.nodes, grid.nodes)
    reference = {**MOVING_DISK_CONFIG["reference"], "states": xbar.states.tolist()}
    return {**MOVING_DISK_CONFIG, "rhs": rhs, "shift_radius": 0.5, "reference": reference}


class TestTimeDependentExpression:
    def test_config_certifies_repairs_and_evaluates(self, workdir, capsys):
        printed, repaired = certify_repair_evaluate(
            workdir, capsys, "time_dependent", time_dependent_config()
        )
        provenance = dict(
            line.split(": ", 1) for line in printed.splitlines() if line.count(": ") == 1
        )
        # The drift and Hölder rate included: both were sampled.
        assert len(provenance) == 6 and set(provenance.values()) == {"certified"}, provenance
        assert repaired["sup gap"] > 0  # a real repair, not the reference handed back


class TestConfigRejection:
    def test_every_malformed_field_names_itself(self, workdir, capsys):
        cases = [
            ({**SUPERLINEAR_CONFIG, "rhs": ["u1*u1", "x1"]}, "rhs expression per state"),
            ({**SUPERLINEAR_CONFIG, "reference": {"kind": "nope"}}, "reference kind"),
            ({**SUPERLINEAR_CONFIG, "constraint": 3}, "'constraint' table"),
            ({**SUPERLINEAR_CONFIG, "weight": {"kind": "warp"}}, "weight kind"),
            ({**SUPERLINEAR_CONFIG, "x0": [9.0]}, "x0"),
            ({k: v for k, v in SUPERLINEAR_CONFIG.items() if k != "reference"}, "'reference' table"),
            ([SUPERLINEAR_CONFIG], "top level must be a JSON object, got list"),
            (None, "top level must be a JSON object, got NoneType"),
        ]
        for idx, (config, needle) in enumerate(cases):
            path = write_config(workdir / f"reject{idx}.json", config)
            code = cli.main(["certify", "--config", path, "--out", str(workdir / "r")])
            assert code == 64, needle
            err = capsys.readouterr().err
            assert needle in err, (needle, err)

    @pytest.mark.parametrize("name", ["steps", "horizon", "clearance", "x_start", "finish"])
    def test_non_numeric_scenario_field_names_itself(self, workdir, capsys, name):
        for idx, bad in enumerate(("abc", [2.0], None)):
            config = json.loads(json.dumps(SURGE_CONFIG))
            table = config if name in ("steps", "horizon") else config["reference"]
            table[name] = bad
            path = write_config(workdir / f"number-{name}-{idx}.json", config)
            code = cli.main(["certify", "--config", path, "--out", str(workdir / "num")])
            assert code == 64, (name, bad)
            err = capsys.readouterr().err
            assert f"{name!r} must be a number" in err, err

    @pytest.mark.parametrize(
        "command, name",
        [("certify", "seed"), ("repair", "lambda"), ("evaluate", "eps")],
    )
    def test_non_numeric_command_field_names_itself(self, workdir, capsys, command, name):
        # The superlinear config is cheap to load, and every command reads
        # its number before doing any work that needs it to be valid.
        xp, up = workdir / "flat_x.csv", workdir / "flat_u.csv"
        xp.write_text("t,x1\n0,1.2\n0.5,1.2\n1,1.2\n")
        up.write_text("t,u1\n0,0\n0.5,0\n1,0\n")
        out = ["--out", str(workdir / "cmd")]
        argv = {
            "certify": ["certify", *out],
            "repair": ["repair", "--bundle", str(workdir / "unread.json"), *out],
            "evaluate": ["evaluate", str(xp), str(up)],
        }[command]
        for idx, bad in enumerate(("abc", [0.1], None)):
            path = write_config(
                workdir / f"command-{name}-{idx}.json", {**SUPERLINEAR_CONFIG, name: bad}
            )
            code = cli.main(argv + ["--config", path])
            assert code == 64, (name, bad)
            err = capsys.readouterr().err
            assert f"{name!r} must be a number" in err, err

    @pytest.mark.parametrize(
        "name, bad", [("seed", 1.5), ("seed", True), ("steps", 2000.9), ("steps", False)]
    )
    def test_non_integer_field_names_itself(self, workdir, capsys, name, bad):
        base = SURGE_CONFIG if name == "steps" else SUPERLINEAR_CONFIG
        path = write_config(workdir / f"integer-{name}-{bad}.json", {**base, name: bad})
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "int")])
        assert code == 64
        assert f"{name!r} must be an integer, got {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad, needle",
        [
            ("states", 1.0, "states must be a list of rows, one per grid node, got shape ()"),
            (
                "controls",
                1.0,
                "control values must be a list of rows, one per grid node, got shape ()",
            ),
            (
                "states",
                [[[1.2]]] * 5,
                "states must be a list of rows, one per grid node, got shape (5, 1, 1)",
            ),
        ],
        ids=["scalar-states", "scalar-controls", "3d-states"],
    )
    def test_inline_samples_that_are_not_rows_name_their_shape(
        self, workdir, capsys, key, bad, needle
    ):
        config = json.loads(json.dumps(SUPERLINEAR_CONFIG))
        config["reference"][key] = bad
        path = write_config(workdir / f"samples-{key}.json", config)
        xp, up = workdir / "samples_x.csv", workdir / "samples_u.csv"
        xp.write_text("t,x1\n0,1.2\n0.5,1.2\n1,1.2\n")
        up.write_text("t,u1\n0,0\n0.5,0\n1,0\n")
        for argv in (
            ["certify", "--config", path, "--out", str(workdir / "samples")],
            ["evaluate", str(xp), str(up), "--config", path],
        ):
            assert cli.main(argv) == 64, argv[0]
            assert needle in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, name",
        [
            (
                "certify",
                {**SUPERLINEAR_CONFIG, "constraint": {"builtin": "unit_ball_complement", "dim": "abc"}},
                "dim",
            ),
            ("certify", {**SUPERLINEAR_CONFIG, "state_dim": "x"}, "state_dim"),
            (
                "certify",
                {
                    **SUPERLINEAR_CONFIG,
                    "model": "motor_surge",
                    "drift_amplitude": True,
                    "constraint": {"builtin": "unit_ball_complement", "dim": 1},
                },
                "drift_amplitude",
            ),
            ("repair", {**SUPERLINEAR_CONFIG, "lambda": True}, "lambda"),
        ],
        ids=["dim", "state_dim", "drift_amplitude", "lambda"],
    )
    def test_malformed_model_field_and_command_numbers(
        self, workdir, capsys, command, config, name
    ):
        path = write_config(workdir / f"malformed-{name}.json", config)
        out = ["--out", str(workdir / "malformed")]
        extra = ["--bundle", str(workdir / "unread.json")] if command == "repair" else []
        code = cli.main([command, "--config", path, *extra, *out])
        assert code == 64
        assert f"{name!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["box", "times", "states", "controls", "x0", "matrix"])
    def test_non_numeric_array_field_names_itself(self, workdir, capsys, name):
        config = json.loads(json.dumps(SUPERLINEAR_CONFIG))
        if name == "matrix":
            config["weight"] = {"kind": "constant", "matrix": "abc"}
        else:
            table = {"box": config["constraint"], "x0": config}.get(name, config["reference"])
            table[name] = "abc"
        path = write_config(workdir / f"array-{name}.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "array")])
        assert code == 64
        assert f"{name!r} must be an array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "x0, needle",
        [
            ([5.0], "does not match the first reference state"),
            ([1.08, 1.08], "does not match the first reference state"),
            ("abc", "'x0' must be an array of numbers"),
        ],
        ids=["far", "wrong-size", "non-numeric"],
    )
    def test_boundary_tracking_x0_is_checked(self, workdir, capsys, x0, needle):
        path = write_config(workdir / "tracking-x0.json", {**SURGE_CONFIG, "x0": x0})
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "x0")])
        assert code == 64
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [5, [], ["1 - x1", 3], "1 - x1"], ids=repr)
    def test_malformed_components_name_the_key(self, workdir, capsys, bad):
        config = json.loads(json.dumps(SUPERLINEAR_CONFIG))
        config["constraint"]["components"] = bad
        path = write_config(workdir / "components.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "comp")])
        assert code == 64
        assert "'components' must be a non-empty list of expression strings" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "name, bad, needle",
        [
            ("resolution", "nan", "'resolution' must be positive and finite"),
            ("resolution", "inf", "'resolution' must be positive and finite"),
            ("resolution", -0.025, "'resolution' must be positive and finite"),
            ("box", [["-inf", 2.0], [-2.0, 2.0]], "'box' must hold finite numbers"),
            ("box", [[-2.0, 2.0], [-2.0, "nan"]], "'box' must hold finite numbers"),
        ],
        ids=["nan-resolution", "inf-resolution", "negative-resolution", "inf-box", "nan-box"],
    )
    def test_bad_lattice_input_names_the_key(self, workdir, capsys, name, bad, needle):
        config = json.loads(json.dumps(CONTROL_AFFINE_CONFIG))
        config["constraint"][name] = bad
        path = write_config(workdir / "lattice.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "lattice")])
        assert code == 64
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize(
        "resolution, corner",
        [(0.05, 1e308), (1e-4, 2.0), (1e-300, 2.0)],
        ids=["size-not-computable", "lattice-too-large", "tiny-resolution"],
    )
    def test_oversized_lattice_names_box_and_resolution(
        self, workdir, capsys, resolution, corner
    ):
        config = json.loads(json.dumps(CONTROL_AFFINE_CONFIG))
        config["constraint"]["resolution"] = resolution
        config["constraint"]["box"][0][1] = corner
        path = write_config(workdir / "lattice-size.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "size")])
        assert code == 64
        assert "'box' and 'resolution'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("drift", 5),
            ("drift", ["0"]),
            ("drift", ["0", None]),
            ("gain", [1, [0, 1]]),
            ("gain", [[1, 0], [0]]),
            ("gain", [[1, 0], [0, True]]),
            ("gain", "eye"),
        ],
        ids=repr,
    )
    def test_malformed_control_affine_field_names_the_key(self, workdir, capsys, key, bad):
        path = write_config(workdir / "affine-shape.json", {**CONTROL_AFFINE_CONFIG, key: bad})
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "shape")])
        assert code == 64
        assert f"{key!r} must be one {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [5, "u1*u1", [["u1"]], [False]], ids=repr)
    def test_malformed_rhs_names_the_key(self, workdir, capsys, bad):
        path = write_config(workdir / "rhs-shape.json", {**SUPERLINEAR_CONFIG, "rhs": bad})
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "shape")])
        assert code == 64
        assert "'rhs' must be one rhs expression per state" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None], ids=repr)
    def test_time_varying_must_be_a_json_boolean(self, workdir, capsys, bad):
        config = json.loads(json.dumps(CONTROL_AFFINE_CONFIG))
        config["constraint"]["time_varying"] = bad
        path = write_config(workdir / "time-varying.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "tv")])
        assert code == 64
        assert "'time_varying' must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [False, None], ids=["false", "absent"])
    def test_component_reading_t_needs_time_varying(self, workdir, capsys, flag):
        config = json.loads(json.dumps(CONTROL_AFFINE_CONFIG))
        config["constraint"]["components"] = ["1 - sqrt((x1 - 0.5*t)**2 + x2**2)"]
        if flag is None:
            config["constraint"].pop("time_varying", None)
        else:
            config["constraint"]["time_varying"] = flag
        path = write_config(workdir / "static-t.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "st")])
        assert code == 64
        err = capsys.readouterr().err
        assert "reads 't'" in err and "'time_varying' must be true" in err, err

    @pytest.mark.parametrize("big", [1e308, 1e200], ids=["range", "norm"])
    def test_reference_too_large_to_sample_names_the_key(self, workdir, capsys, big):
        # 1e308 overflows the sampling range of the operating box, and
        # 1e200 already the state norm it is derived from.
        config = json.loads(json.dumps(MOVING_DISK_CONFIG))
        config["reference"]["states"][3] = [-big, 1.0005]
        path = write_config(workdir / "huge-state.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "huge")])
        assert code == 64
        err = capsys.readouterr().err
        assert "reference 'states'" in err and "cannot be sampled" in err, err

    def test_bool_is_not_a_float(self):
        with pytest.raises(ConfigError, match="'lambda' must be a number, got True"):
            config_number({"lambda": True}, "lambda", None, float)

    def test_integral_values_still_accepted(self):
        for value in (3, 3.0, "3", -2.0):
            assert config_number({"steps": value}, "steps", 0, int) == int(float(value))
        assert config_number({}, "steps", 2000, int) == 2000

    def test_negative_seed_names_itself(self, workdir, capsys):
        path = write_config(workdir / "negative-seed.json", {**SUPERLINEAR_CONFIG, "seed": -1})
        for extra in ([], ["--seed", "-3"]):
            code = cli.main(["certify", "--config", path, "--out", str(workdir / "neg"), *extra])
            assert code == 64, extra
            assert "'seed' must be a non-negative integer" in capsys.readouterr().err

    def test_readme_example_config_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("A boundary tracking config names a built-in profile:", 1)[1]
        config = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        model, field, xbar, ubar = cli.load_problem(config)
        assert model.name == "motor_surge"
        assert xbar.states[0, 0] == config["x0"][0]

    def test_inline_reference_grid_mismatch(self, workdir, capsys):
        config = dict(SUPERLINEAR_CONFIG)
        config["reference"] = {
            "kind": "inline",
            "times": [0.0, 0.5, 1.0],
            "states": [[1.2]] * 3,
            "controls": [[0.0]] * 2,
        }
        path = write_config(workdir / "ragged.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "rg")])
        assert code == 64

    def test_constant_weight_shape_checked(self, workdir, capsys):
        config = dict(SUPERLINEAR_CONFIG)
        config["weight"] = {"kind": "constant", "matrix": [[1.0, 0.0]]}
        path = write_config(workdir / "wshape.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "w")])
        assert code == 64
        assert "matrix" in capsys.readouterr().err
