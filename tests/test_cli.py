"""Command line front end tests.

The heavy certify/repair paths run once against the surge scenario inside
a session-scoped artifact directory; exit-code and config-rejection paths
use small fabricated configs.
"""

import contextlib
import dataclasses
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tightpath import ControlSignal, TimeGrid, cli, expression_model, motor_scenario
from tightpath import geometry
from tightpath.dynamics import model_from_config, motor_surge
from tightpath.geometry import field_from_config
from tightpath.hypotheses import bundle_from_dict, bundle_to_dict, load_bundle, save_bundle
from tightpath.errors import FINITE, POSITIVE, BundleError, ConfigError, DomainError, config_number
from tightpath.propagation import integrate
from tightpath.signals import weighted_l2_cost

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


_BALL_CONFIG = {**SUPERLINEAR_CONFIG, "constraint": {"builtin": "unit_ball_complement", "dim": 1}}
_NO_CONTROLS_CONFIG = {
    **SUPERLINEAR_CONFIG,
    "rhs": ["0*x1"],
    "reference": {**SUPERLINEAR_CONFIG["reference"], "controls": [[]] * 5},
}
# Every number a config sets: the command that reads it, the config, the
# table it sits in (None for the top level), the key, and a value outside
# the key's range.
NUMBER_KEYS = {
    "seed": ("certify", SUPERLINEAR_CONFIG, None, "seed", -1),
    "lambda": ("repair", SUPERLINEAR_CONFIG, None, "lambda", 0.0),
    "eps": ("evaluate", SUPERLINEAR_CONFIG, None, "eps", -1.0),
    "drift_amplitude-model": (
        "certify",
        {**SUPERLINEAR_CONFIG, "model": "motor_decline"},
        None,
        "drift_amplitude",
        float("inf"),
    ),
    "drift_amplitude-scenario": ("certify", SURGE_CONFIG, None, "drift_amplitude", -float("inf")),
    "shift_radius": ("certify", CONTROL_AFFINE_CONFIG, None, "shift_radius", -1.0),
    "state_dim": ("certify", SUPERLINEAR_CONFIG, None, "state_dim", 0),
    "control_dim": ("certify", _NO_CONTROLS_CONFIG, None, "control_dim", 0),
    "growth_envelope": ("certify", CONTROL_AFFINE_CONFIG, None, "growth_envelope", -1.0),
    "state_lipschitz": ("certify", CONTROL_AFFINE_CONFIG, None, "state_lipschitz", -1.0),
    "dim": ("certify", _BALL_CONFIG, "constraint", "dim", 0),
    "box_radius": ("certify", _BALL_CONFIG, "constraint", "box_radius", 0.0),
    "resolution": ("certify", CONTROL_AFFINE_CONFIG, "constraint", "resolution", -0.025),
    "clearance": ("certify", SURGE_CONFIG, "reference", "clearance", -0.1),
    "x_start": ("certify", SURGE_CONFIG, "reference", "x_start", float("inf")),
    "finish": ("certify", SURGE_CONFIG, "reference", "finish", -float("inf")),
    "steps": ("certify", SURGE_CONFIG, None, "steps", 1),
    "horizon": ("certify", SURGE_CONFIG, None, "horizon", -1.0),
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


class TestTimeVarying:
    """Whether a constraint moves is read off its components, whatever a
    config's 'time_varying' key says."""

    @pytest.mark.parametrize("flag", [False, None], ids=["false", "absent"])
    def test_component_reading_t_makes_the_field_time_varying(self, workdir, flag):
        config = json.loads(json.dumps(MOVING_DISK_CONFIG))
        if flag is None:
            del config["constraint"]["time_varying"]
        else:
            config["constraint"]["time_varying"] = flag
        assert field_from_config(config["constraint"]).time_varying
        path = write_config(workdir / "moving.json", config)
        out = workdir / "moving"
        assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
        bundle = load_bundle(out / "bundle.json")
        assert bundle.window_cap == _DISK_TIMES[-1] / 4.0
        assert bundle.boundary_drift.values.max() > 0.0

    @pytest.mark.parametrize("flag", [True, "true", "false", 0, 1, None], ids=repr)
    def test_time_varying_key_is_not_read(self, flag):
        config = json.loads(json.dumps(CONTROL_AFFINE_CONFIG))
        config["constraint"]["time_varying"] = flag
        assert not field_from_config(config["constraint"]).time_varying


def test_moving_disk_repair_scans_the_whole_lattice_at_most_80_times(tmp_path, monkeypatch):
    # The benchmark's moving-disk workload. Repair asks the lattice oracle
    # only what it reads: no scan for a time whose nodes are all feasible,
    # and window scans for the far-from-boundary test and for a node
    # violation alone at its time. Scanning every node time of every
    # tightening tried takes 366 whole scans; with node violations from
    # whole scans, 120.
    times = np.linspace(0.0, 2.0, 61).tolist()
    config = {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["u1", "u2"],
        "constraint": {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": ["1 - sqrt((x1 - 0.1*t)**2 + x2**2)"],
            "resolution": 0.025,
        },
        "reference": {
            "kind": "inline",
            "times": times,
            "states": [[-1.5 + 1.5 * t, 1.0005] for t in times],
            "controls": [[1.5, 0.0]] * len(times),
        },
        "lambda": 0.1,
    }
    path = write_config(tmp_path / "moving-disk.json", config)
    assert cli.main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
    scans = {"whole": 0, "window": 0}
    scan = geometry.boundary_points

    def counted(field, t, eps, nodes=None):
        scans["whole" if nodes is None else "window"] += 1
        return scan(field, t, eps, nodes)

    monkeypatch.setattr(geometry, "boundary_points", counted)
    bundle = str(tmp_path / "bundle.json")
    assert cli.main(["repair", "--config", path, "--bundle", bundle, "--out", str(tmp_path)]) == 0
    assert 0 < scans["whole"] <= 80 and 0 < scans["window"] <= 330, scans


def test_an_empty_tightened_set_is_a_rejected_rung(tmp_path, capsys):
    # The certified cap eps = 0.2 leaves x1 <= 0.9, outside the box: the
    # oracle finds that set empty, and the ladder halves past it to 0.1,
    # where the reference is 0.03 inside. Before, repair exited 1 with
    # "misses the sampling box".
    config = {
        **SUPERLINEAR_CONFIG,
        "rhs": ["u1"],
        "constraint": {"box": [[0.95, 3.0]], "components": ["x1 - 1.1"]},
        "reference": {**SUPERLINEAR_CONFIG["reference"], "states": [[0.97]] * 5},
    }
    path = write_config(tmp_path / "empty-rung.json", config)
    assert cli.main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
    bundle = str(tmp_path / "bundle.json")
    assert cli.main(["repair", "--config", path, "--bundle", bundle, "--out", str(tmp_path)]) == 0
    assert "eps = 0.10000000000000001\n" in capsys.readouterr().out
    report = (tmp_path / "report.txt").read_text().split("[tightening trail]\n", 1)[1]
    assert report.splitlines()[:2] == [
        "eps = 0.20000000000000001  violation = inf  rejected",
        "eps = 0.10000000000000001  violation = 0  kept",
    ]


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


# (state CSV, the line it is rejected at, a message fragment): each must
# exit 64 naming the file, through evaluate and through a csv reference.
MALFORMED_CSVS = {
    "header-only": ("t,x1\n", None, "no data rows"),
    "non-numeric": ("t,x1\n0,1.2\n0.5,abc\n1,1.2\n", 3, "not a number"),
    "ragged": ("t,x1\n0,1.2\n0.5,1.2,7\n1,1.2\n", 3, "3 cells, the header has 2"),
    "unknown-prefix": ("t,y1\n0,1.2\n0.5,1.2\n1,1.2\n", None, "unknown column prefix"),
    "non-increasing": ("t,x1\n0,1.2\n0.5,1.2\n0.5,1.2\n", None, "strictly increasing"),
    "not-utf-8": ("t,x1\n0,\xff\n", None, "not a text file"),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CSVS))
    def test_a_malformed_csv_exits_64_naming_the_file(self, tmp_path, capsys, case):
        text, line, needle = MALFORMED_CSVS[case]
        xp, up = tmp_path / f"{case}.csv", tmp_path / "u.csv"
        xp.write_bytes(text.encode("latin-1"))
        up.write_text("t,u1\n0,0\n0.5,0\n1,0\n")
        config = write_config(tmp_path / "config.json", SUPERLINEAR_CONFIG)
        reference = {"kind": "csv", "states": str(xp), "controls": str(up)}
        by_csv = write_config(
            tmp_path / "csv.json", {**SUPERLINEAR_CONFIG, "reference": reference}
        )
        for argv in (
            ["evaluate", str(xp), str(up), "--config", config],
            ["certify", "--config", by_csv, "--out", str(tmp_path / "out")],
        ):
            assert cli.main(argv) == 64, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and str(xp) in err and needle in err, err
            if line is not None:
                assert f"line {line}:" in err, err

    def test_inline_times_that_do_not_increase_exit_64_naming_times(self, tmp_path, capsys):
        # Before, TimeGrid's DomainError reached the user as exit 1.
        reference = {**SUPERLINEAR_CONFIG["reference"], "times": [0.0, 0.25, 0.25, 0.75, 1.0]}
        path = write_config(tmp_path / "times.json", {**SUPERLINEAR_CONFIG, "reference": reference})
        assert cli.main(["certify", "--config", path, "--out", str(tmp_path / "out")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error: inline reference 'times'")
        assert "strictly increasing" in err

    def test_a_reference_before_t_0_exits_64_naming_times_or_the_file(self, tmp_path, capsys):
        # Before, certify reached shift_selection and exited 1 with
        # "need 0 <= s < t, got s=-2.0, ...".
        times = [t - 2.0 for t in _DISK_TIMES]
        reference = {**CONTROL_AFFINE_CONFIG["reference"], "times": times}
        inline = write_config(
            tmp_path / "inline.json", {**CONTROL_AFFINE_CONFIG, "reference": reference}
        )
        xp, up = tmp_path / "x.csv", tmp_path / "u.csv"
        rows = zip(times, reference["states"], reference["controls"])
        xp.write_text("t,x1,x2\n" + "".join(f"{t!r},{x!r},{y!r}\n" for t, (x, y), _ in rows))
        up.write_text("t,u1,u2\n" + "".join(f"{t!r},1.5,0\n" for t in times))
        by_csv = {"kind": "csv", "states": str(xp), "controls": str(up)}
        by_csv = write_config(
            tmp_path / "csv.json", {**CONTROL_AFFINE_CONFIG, "reference": by_csv}
        )
        for path, needle in ((inline, "inline reference 'times'"), (by_csv, str(xp))):
            assert cli.main(["certify", "--config", path, "--out", str(tmp_path / "out")]) == 64
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {needle}") and "t >= 0, got -2" in err, err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=repr)
    def test_a_bad_eps_in_evaluate_names_the_key(self, tmp_path, capsys, bad):
        # Before, NaN and Infinity exited 1, and -1 scored against an
        # enlarged set with exit 0.
        xp, up = tmp_path / "x.csv", tmp_path / "u.csv"
        xp.write_text("t,x1\n0,1.2\n0.5,1.2\n1,1.2\n")
        up.write_text("t,u1\n0,0\n0.5,0\n1,0\n")
        for eps, code in ((bad, 64), (0, 0)):
            path = write_config(tmp_path / "eps.json", {**SUPERLINEAR_CONFIG, "eps": eps})
            assert cli.main(["evaluate", str(xp), str(up), "--config", path]) == code, eps
            if code == 64:
                assert "'eps' must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "times", [[-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.25, 0.5]], ids=["from-minus-1", "half"]
    )
    @pytest.mark.parametrize("moved", ["both", "states", "controls"])
    def test_a_pair_off_the_reference_span_exits_64(self, tmp_path, capsys, times, moved):
        # Before, both spans exited 0: on [-1, 1] with sup gap 0, as the gap
        # compared only the overlap, and on [0, 0.5] scored on half the
        # horizon; the margin and the cost ran over the pair's own span.
        full = SUPERLINEAR_CONFIG["reference"]["times"]
        xp, up = tmp_path / "x.csv", tmp_path / "u.csv"
        x_times = full if moved == "controls" else times
        u_times = full if moved == "states" else times
        xp.write_text("t,x1\n" + "".join(f"{t!r},1.2\n" for t in x_times))
        up.write_text("t,u1\n" + "".join(f"{t!r},0\n" for t in u_times))
        config = write_config(tmp_path / "config.json", SUPERLINEAR_CONFIG)
        assert cli.main(["evaluate", str(xp), str(up), "--config", config]) == 64
        named = up if moved == "controls" else xp
        spans = f"[{cli._fmt(times[0])}, {cli._fmt(times[-1])}]"
        assert capsys.readouterr().err == (
            f"config error: {named}: spans {spans}, but the reference spans [0, 1]; "
            "a pair is scored on the reference's span\n"
        )


class TestUnreadableInputs:
    """A config, bundle or CSV that cannot be read as text exits 64 naming
    the file. Before, each of these cases ended in a traceback, exit 1."""

    @pytest.fixture
    def files(self, tmp_path, surge_config_path, certified):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "latin-1.json").write_bytes(b'{"lambda": "\xff"}')
        return tmp_path, surge_config_path, str(certified)

    @pytest.mark.parametrize(
        "name, needle",
        [
            ("missing.json", "does not exist"),
            ("a-directory", "is a directory"),
            ("latin-1.json", "not a text file"),
        ],
    )
    def test_a_bundle_or_config(self, files, capsys, name, needle):
        tmp_path, config, bundle = files
        bad = str(tmp_path / name)
        for argv in (
            ["repair", "--config", config, "--bundle", bad, "--out", str(tmp_path / "out")],
            ["certify", "--config", bad, "--out", str(tmp_path / "out")],
        ):
            assert cli.main(argv) == 64, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and bad in err and needle in err, err

    def test_a_directory_as_a_csv(self, files, capsys):
        tmp_path, config, _ = files
        folder, up = str(tmp_path / "a-directory"), tmp_path / "u.csv"
        up.write_text("t,u1\n0,0\n0.5,0\n1,0\n")
        reference = {"kind": "csv", "states": folder, "controls": str(up)}
        by_csv = write_config(tmp_path / "csv.json", {**SUPERLINEAR_CONFIG, "reference": reference})
        for argv in (
            ["evaluate", folder, str(up), "--config", config],
            ["certify", "--config", by_csv, "--out", str(tmp_path / "out")],
        ):
            assert cli.main(argv) == 64, argv
            err = capsys.readouterr().err
            assert err == f"config error: CSV file {folder!r} is a directory\n", err

    def test_a_missing_csv_keeps_its_exit(self, files, capsys):
        tmp_path, config, _ = files
        absent = str(tmp_path / "absent.csv")
        assert cli.main(["evaluate", absent, absent, "--config", config]) == 64
        assert capsys.readouterr().err == f"config error: CSV file {absent!r} does not exist\n"


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

    def test_time_dependent_config_reads_its_shift_radius(self, workdir, capsys):
        # x' = (0.05 sin(3t), 0) + u on the static disk: a drift that reads
        # t needs the declared shift radius, as the expression form does.
        config = {
            **CONTROL_AFFINE_CONFIG,
            "drift": ["0.05*sin(3*t)", "0"],
            "shift_radius": 0.5,
            "reference": time_dependent_config()["reference"],
        }
        certify_repair_evaluate(workdir, capsys, "control_affine_t", config)

    def test_a_non_finite_sampled_constant_names_its_function_and_time(self, workdir, capsys):
        # A gain of 1e308 on u2, which the reference holds at 0: the sampled
        # controls overflow the growth envelope to inf at every node. Exit 1
        # names the bundle function and the first node time. numpy warns on
        # the overflow (ROADMAP item 8), so the warning is silenced here.
        config = {**CONTROL_AFFINE_CONFIG, "gain": [["1", "0"], ["0", "1e308"]]}
        path = write_config(workdir / "affine-overflow.json", config)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["certify", "--config", path, "--out", str(workdir / "overflow")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bundle function 'growth_envelope'" in err, err
        assert "got inf at t=0.0" in err, err


def time_dependent_config(steps: int = 40) -> dict:
    """The moving-disk config with x1' = u1 + 0.05 sin(3t), a model that
    reads t, on ``steps`` uniform steps over [0, 2]: the transport search
    and the sampled drift and Hölder certificates run. The reference is
    integrated from the model."""
    rhs = ["u1 + 0.05*sin(3*t)", "u2"]
    grid = TimeGrid(np.linspace(0.0, 2.0, steps + 1))
    ubar = ControlSignal(grid, [[1.5, 0.0]] * len(grid))
    model = expression_model(rhs, 2, 2, shift_radius=0.5)
    xbar = integrate(model, ubar, np.array([-1.5, 1.0005]), (grid.t0, grid.t1), grid.step)
    assert np.array_equal(xbar.grid.nodes, grid.nodes)
    reference = {
        "kind": "inline",
        "times": grid.nodes.tolist(),
        "states": xbar.states.tolist(),
        "controls": ubar.values.tolist(),
    }
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_more_nodes_than_the_time_regularity_subgrid_repair(self, tmp_path):
        # 101 nodes: the sampled drift density is certified on an 81-node
        # subgrid and must reach the schedule tabulated on the 101.
        config = write_config(tmp_path / "fine.json", time_dependent_config(steps=100))
        bundle = str(tmp_path / "bundle.json")
        assert cli.main(["certify", "--config", config, "--out", str(tmp_path)]) == 0
        assert len(load_bundle(bundle).time_drift.grid) == 101
        code = cli.main(["repair", "--config", config, "--bundle", bundle, "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reference_that_is_not_a_trajectory_names_states(self, tmp_path, capsys):
        # The straight line solves x' = u, not this model, which drifts in x1.
        config = {**MOVING_DISK_CONFIG, "rhs": ["u1 + 0.05*sin(3*t)", "u2"], "shift_radius": 0.5}
        path = write_config(tmp_path / "not-a-trajectory.json", config)
        for argv in (
            ["certify", "--config", path, "--out", str(tmp_path)],
            ["evaluate", "x.csv", "u.csv", "--config", path],
        ):
            assert cli.main(argv) == 64
            err = capsys.readouterr().err
            assert "reference 'states' are not a trajectory of the model" in err, err


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
        "name, bad",
        [
            ("steps", 1e308),
            ("steps", 1e8),
            ("steps", 1),
            ("horizon", 1e308),
            ("horizon", -1.0),
            ("horizon", float("nan")),
        ],
    )
    def test_grid_that_cannot_be_built_names_its_key(self, workdir, capsys, name, bad):
        # Checked before the grid's nodes are allocated or the reference's
        # actuator integrals overflow.
        config = {
            **SURGE_CONFIG,
            "model": "motor_decline",
            "reference": {**SURGE_CONFIG["reference"], "variant": "decline"},
            name: bad,
        }
        path = write_config(workdir / f"grid-{name}-{bad}.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "grid")])
        assert code == 64
        assert f"config error: {name!r} must be" in capsys.readouterr().err

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    @pytest.mark.parametrize("key", ["clearance", "x_start", "finish", "drift_amplitude"])
    def test_non_finite_boundary_tracking_number_names_the_key(self, workdir, capsys, key, bad):
        # Checked before the grid is built. Before, an infinite finish or
        # x_start ended in a numpy RuntimeWarning, a NaN clearance in a
        # state that is not finite, and a non-finite x_start in "x0 must be
        # finite", all with exit 1.
        config = json.loads(json.dumps(SURGE_CONFIG))
        (config if key == "drift_amplitude" else config["reference"])[key] = bad
        path = write_config(workdir / f"tracking-{key}.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "tracking")])
        assert code == 64
        assert f"config error: {key!r} must be a finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=repr)
    def test_non_finite_motor_drift_amplitude_names_the_key(self, workdir, capsys, bad):
        config = {**SUPERLINEAR_CONFIG, "model": "motor_decline", "drift_amplitude": bad}
        path = write_config(workdir / "motor-amplitude.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "amplitude")])
        assert code == 64
        assert "'drift_amplitude' must be a finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "key, bad, needle",
        [
            ("box_radius", float("nan"), "'box_radius' must be positive and finite"),
            ("box_radius", float("inf"), "'box_radius' must be positive and finite"),
            ("box_radius", 0.0, "'box_radius' must be positive and finite"),
            ("dim", 0, "'dim' must be a positive integer"),
            ("dim", -1, "'dim' must be a positive integer"),
        ],
        ids=["nan-radius", "inf-radius", "zero-radius", "zero-dim", "negative-dim"],
    )
    def test_bad_builtin_constraint_number_names_the_key(self, workdir, capsys, key, bad, needle):
        # Before, these exited 1 with a lattice or dimension error, or 64
        # with a sampling-box message that named no key.
        config = json.loads(json.dumps(SUPERLINEAR_CONFIG))
        config["constraint"] = {"builtin": "unit_ball_complement", "dim": 1, key: bad}
        path = write_config(workdir / f"builtin-{key}.json", config)
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "builtin")])
        assert code == 64
        assert needle in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "config, dims",
        [
            (
                {**MOVING_DISK_CONFIG, "constraint": {"builtin": "unit_ball_complement", "dim": 3}},
                (3, 2),
            ),
            (
                {
                    **SUPERLINEAR_CONFIG,
                    "rhs": ["u1"],
                    "constraint": {"builtin": "unit_ball_complement", "dim": 3},
                },
                (3, 1),
            ),
            (
                {
                    **SUPERLINEAR_CONFIG,
                    "rhs": ["u1"],
                    "constraint": {"box": [[0.0, 3.0], [0.0, 3.0]], "components": ["1 - x1 + 0*x2"]},
                },
                (2, 1),
            ),
        ],
        ids=["moving-disk-3d-ball", "one-state-3d-ball", "one-state-2d-box"],
    )
    def test_constraint_of_another_dimension_names_both(self, workdir, capsys, config, dims):
        # Before, the first ended in a broadcasting traceback from the
        # forward-cone search, and the other two certified with exit 0.
        path = write_config(workdir / f"constraint-dim-{dims}.json", config)
        xp, up = workdir / "dim_x.csv", workdir / "dim_u.csv"
        xp.write_text("t,x1\n0,1.2\n1,1.2\n")
        up.write_text("t,u1\n0,0\n1,0\n")
        for argv in (
            ["certify", "--config", path, "--out", str(workdir / "constraint-dim")],
            ["repair", "--config", path, "--bundle", str(workdir / "unread.json")],
            ["evaluate", str(xp), str(up), "--config", path],
        ):
            assert cli.main(argv) == 64, argv[0]
            err = capsys.readouterr().err
            assert f"'constraint' has dimension {dims[0]}, model expects {dims[1]}" in err, err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, 0.0, float("inf"), -float("inf")], ids=repr)
    def test_lambda_that_is_not_positive_and_finite_names_the_key(self, workdir, capsys, bad):
        # Checked before the bundle is read. Before, NaN ran 60 eps halvings
        # into "contract not met", -1 ended in an error naming no key (both
        # exit 1), and Infinity repaired against a vacuous contract.
        path = write_config(workdir / f"lambda-{bad}.json", {**SUPERLINEAR_CONFIG, "lambda": bad})
        argv = ["repair", "--config", path, "--bundle", str(workdir / "unread.json")]
        code = cli.main(argv + ["--out", str(workdir / "lambda")])
        assert code == 64
        assert f"'lambda' must be positive and finite, got {bad!r}" in capsys.readouterr().err

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
            ("resolution", float("nan"), "'resolution' must be positive and finite"),
            ("resolution", float("inf"), "'resolution' must be positive and finite"),
            ("resolution", -0.025, "'resolution' must be positive and finite"),
            ("box", [[-float("inf"), 2.0], [-2.0, 2.0]], "'box' must hold finite numbers"),
            ("box", [[-2.0, 2.0], [-2.0, float("nan")]], "'box' must hold finite numbers"),
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

    @pytest.mark.parametrize("kind", ["expression", "control_affine"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=repr)
    def test_malformed_shift_radius_names_the_key(self, workdir, capsys, kind, bad):
        # Before it was checked, NaN and Infinity certified with exit 0 and
        # -1 failed certification with a witness (exit 1).
        config = time_dependent_config() if kind == "expression" else CONTROL_AFFINE_CONFIG
        path = write_config(workdir / "shift-radius.json", {**config, "shift_radius": bad})
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "radius")])
        assert code == 64
        assert "'shift_radius' must be finite and >= 0" in capsys.readouterr().err

    def test_zero_shift_radius_is_valid(self):
        for config in (time_dependent_config(), CONTROL_AFFINE_CONFIG):
            model = model_from_config({**config, "shift_radius": 0})
            assert model.metadata.shift_radius_scale(0.5) == 0.0

    @pytest.mark.parametrize("bad", [5, "u1*u1", [["u1"]], [False]], ids=repr)
    def test_malformed_rhs_names_the_key(self, workdir, capsys, bad):
        path = write_config(workdir / "rhs-shape.json", {**SUPERLINEAR_CONFIG, "rhs": bad})
        code = cli.main(["certify", "--config", path, "--out", str(workdir / "shape")])
        assert code == 64
        assert "'rhs' must be one rhs expression per state" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command, name, bad", [("certify", "steps", "2000"), ("repair", "lambda", "0.1")]
    )
    def test_number_given_as_a_string_names_itself(self, workdir, capsys, command, name, bad):
        # JSON strings are not numbers, even when they spell one.
        path = write_config(workdir / f"string-{name}.json", {**SURGE_CONFIG, name: bad})
        argv = [command, "--config", path, "--out", str(workdir / "string")]
        if command == "repair":
            argv += ["--bundle", str(workdir / "unread.json")]
        assert cli.main(argv) == 64
        assert f"{name!r} must be a number, got {bad!r}" in capsys.readouterr().err

    def test_bool_is_not_a_float(self):
        with pytest.raises(ConfigError, match="'lambda' must be a number, got True"):
            config_number({"lambda": True}, "lambda", None, float, POSITIVE)

    def test_integral_values_still_accepted(self):
        for value in (3, 3.0, -2.0):
            assert config_number({"steps": value}, "steps", 0, int, FINITE) == int(value)
        assert config_number({}, "steps", 2000, int, FINITE) == 2000

    def test_negative_seed_names_itself(self, workdir, capsys):
        path = write_config(workdir / "negative-seed.json", {**SUPERLINEAR_CONFIG, "seed": -1})
        for extra in ([], ["--seed", "-3"]):
            code = cli.main(["certify", "--config", path, "--out", str(workdir / "neg"), *extra])
            assert code == 64, extra
            assert "'seed' must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "bool", "out-of-range"])
    @pytest.mark.parametrize(
        "command, config, table, key, outside", NUMBER_KEYS.values(), ids=list(NUMBER_KEYS)
    )
    def test_every_config_number_is_range_checked_by_key(
        self, workdir, capsys, command, config, table, key, outside, bad
    ):
        # Before, the rows for state_dim, control_dim, growth_envelope,
        # state_lipschitz and clearance got past the reader: control_dim 0
        # with empty controls ended in a ZeroDivisionError traceback, a NaN
        # or infinite declared constant in an exit-1 bundle-function error,
        # and a negative clearance in an exit-1 error naming no key.
        config = json.loads(json.dumps(config))
        (config[table] if table else config)[key] = {
            "nan": float("nan"), "bool": True, "out-of-range": outside
        }[bad]
        path = write_config(workdir / f"number-range-{key}-{bad}.json", config)
        xp, up = workdir / "range_x.csv", workdir / "range_u.csv"
        xp.write_text("t,x1\n0,1.2\n1,1.2\n")
        up.write_text("t,u1\n0,0\n1,0\n")
        argv = {
            "certify": ["certify", "--out", str(workdir / "range")],
            "repair": ["repair", "--bundle", str(workdir / "unread.json")],
            "evaluate": ["evaluate", str(xp), str(up)],
        }[command]
        assert cli.main(argv + ["--config", path]) == 64
        err = capsys.readouterr().err
        assert f"config error: {key!r} must be" in err, err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "matrix",
        [[[float("nan"), 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, float("inf")]], [[-1.0, 0.0], [0.0, 1.0]]],
        ids=["nan", "inf", "indefinite"],
    )
    def test_weight_matrix_must_be_finite_and_positive_semidefinite(
        self, workdir, capsys, matrix
    ):
        # Before, certify exited 0 on all three, and evaluate printed a NaN
        # cost gap with exit 0 on the first two and, on the third, exited 1
        # with an error that named no key.
        config = {**CONTROL_AFFINE_CONFIG, "weight": {"kind": "constant", "matrix": matrix}}
        path = write_config(workdir / "weight-matrix.json", config)
        xp, up = workdir / "weight_x.csv", workdir / "weight_u.csv"
        xp.write_text("t,x1,x2\n0,-1.5,1.0005\n2,1.5,1.0005\n")
        up.write_text("t,u1,u2\n0,1.5,0\n2,1.5,0\n")
        for argv in (
            ["certify", "--config", path, "--out", str(workdir / "weight")],
            ["evaluate", str(xp), str(up), "--config", path],
        ):
            assert cli.main(argv) == 64, argv[0]
            err = capsys.readouterr().err
            assert "'matrix' must be finite and positive semidefinite" in err, err

    @pytest.mark.parametrize(
        "matrix",
        [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]],
         [[float("nan"), 0.0], [0.0, 1.0]], [[-1e-12, 0.0], [0.0, 1.0]], [[-1e-9, 0.0], [0.0, 1.0]]],
        ids=["singular", "indefinite", "skew", "nan", "within-tolerance", "beyond-tolerance"],
    )
    def test_config_and_cost_weight_checks_agree(self, matrix):
        control = ControlSignal(TimeGrid.uniform(0.0, 1.0, 4), np.ones((5, 2)))
        config = {"weight": {"kind": "constant", "matrix": matrix}}
        accepted = []
        for check in (
            lambda: cli.weight_from_config(config, 2),
            lambda: weighted_l2_cost(control, lambda t: np.array(matrix)),
        ):
            try:
                check()
                accepted.append(True)
            except (ConfigError, DomainError):
                accepted.append(False)
        assert accepted[0] == accepted[1], accepted

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"control_dim": 10**9}, "reference controls have dimension 1, model expects 1000000000"),
            ({"state_dim": 10**9}, "reference states have dimension 1, model expects 1000000000"),
            (
                {"constraint": {"builtin": "unit_ball_complement", "dim": 10**9}},
                "'constraint' has dimension 1000000000, model expects 1",
            ),
        ],
        ids=["control_dim", "state_dim", "ball-dim"],
    )
    def test_declared_dimensions_are_checked_before_anything_is_built(
        self, workdir, capsys, monkeypatch, change, needle
    ):
        # Before, compiling the model built 10**9 argument names and the
        # ball allocated a 10**9-row box, both ending in MemoryError.
        def refuse(*args, **kwargs):
            raise AssertionError("built before its dimension was checked")

        monkeypatch.setattr("tightpath.dynamics.compile_expressions", refuse)
        monkeypatch.setattr("tightpath.geometry.unit_ball_complement", refuse)
        path = write_config(workdir / "huge-dim.json", {**SUPERLINEAR_CONFIG, **change})
        assert cli.main(["certify", "--config", path, "--out", str(workdir / "huge-dim")]) == 64
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad", [("out", 5), ("out", ["a"]), ("builtin", "ball"), ("builtin", 5)], ids=repr
    )
    def test_malformed_out_or_builtin_names_the_key(self, workdir, capsys, key, bad):
        # Before, an 'out' that is not a string ended in a TypeError
        # traceback once certification passed, and an unknown builtin
        # exited 1 naming no key.
        config = json.loads(json.dumps(SUPERLINEAR_CONFIG))
        if key == "out":
            config["out"] = bad
        else:
            config["constraint"] = {"builtin": bad, "dim": 1}
        path = write_config(workdir / f"malformed-{key}.json", config)
        assert cli.main(["certify", "--config", path]) == 64
        assert f"config error: {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["states", "controls"])
    @pytest.mark.parametrize("bad", [0, 5, ["a"], None], ids=repr)
    def test_csv_reference_path_that_is_not_a_string_names_the_key(self, workdir, capsys, key, bad):
        # Before, 0 read the process's standard input as the CSV, 5 ended in
        # an OSError traceback and a list or null in a TypeError traceback.
        reference = {"kind": "csv", "states": "x.csv", "controls": "u.csv", key: bad}
        path = write_config(workdir / "csv-path.json", {**SUPERLINEAR_CONFIG, "reference": reference})
        assert cli.main(["certify", "--config", path, "--out", str(workdir / "csv-path")]) == 64
        assert f"config error: {key!r} must be a file name, got {bad!r}" in capsys.readouterr().err

    def test_readme_example_config_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("A boundary tracking config names a built-in profile:", 1)[1]
        config = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        model, field, xbar, ubar = cli.load_problem(config)
        # The surge motor: its gain past the break, and its Hölder exponent.
        assert model.rhs(1.5, 0.0, 1.0) == motor_surge().rhs(1.5, 0.0, 1.0)
        assert model.metadata.holder_exponent == 0.25
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


@pytest.fixture(scope="module")
def decline_400(tmp_path_factory):
    """(config path, bundle record, output directory) of the certified
    400-step decline scenario, with its reference inline so that a command
    reads it rather than integrating it; its repair fails fast at
    scheduling."""
    sc = motor_scenario("decline", steps=400)
    reference = {
        "kind": "inline",
        "times": sc.xbar.grid.nodes.tolist(),
        "states": sc.xbar.states.tolist(),
        "controls": sc.ubar.values.tolist(),
    }
    out = tmp_path_factory.mktemp("decline-400")
    config = write_config(
        out / "decline.json",
        {**SURGE_CONFIG, "model": "motor_decline", "reference": reference},
    )
    assert cli.main(["certify", "--config", config, "--out", str(out)]) == 0
    return config, json.loads((out / "bundle.json").read_text()), out


_DELETED = object()


def mutated(record: dict, path: tuple, value) -> dict:
    """A deep copy of ``record`` with the entry at ``path`` set to
    ``value``, or removed for ``_DELETED``."""
    record = json.loads(json.dumps(record))
    target = record
    for key in path[:-1]:
        target = target[key]
    if value is _DELETED:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return record


def repair_with_bundle(config: str, record: dict, out) -> tuple:
    """(exit code, printed text) of ``repair`` on the bundle ``record``."""
    bundle = out / "mutated.json"
    bundle.write_text(json.dumps(record))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = cli.main(
            ["repair", "--config", config, "--bundle", str(bundle), "--out", str(out / "r")]
        )
    return code, printed.getvalue()


def bundle_paths(record, prefix=()):
    """Every key of the record, nested ones included, and the first, middle
    and last entry of every list."""
    if isinstance(record, dict):
        for key, value in record.items():
            yield prefix + (key,)
            yield from bundle_paths(value, prefix + (key,))
    elif isinstance(record, list) and record:
        for index in sorted({0, len(record) // 2, len(record) - 1}):
            yield prefix + (index,)
            yield from bundle_paths(record[index], prefix + (index,))


class TestMalformedBundle:
    """A malformed bundle value is a named diagnostic (exit 64), never a
    traceback."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("seed",), float("nan")),
            (("seed",), -1),
            (("seed",), 1.5),
            (("holder_rate",), [1.0]),
            (("holder_rate", "values"), "x"),
            (("boundary_drift",), "x"),
            (("boundary_drift", "deltas"), None),
            (("growth_envelope", "nodes", 0), [1.0]),
            (("state_lipschitz", "values", 0), 10**400),
            (("control_bound",), True),
            (("inward_slack",), float("nan")),
            (("reference_sup",), float("inf")),
            (("provenance",), ["certified"]),
            (("config_hash",), {"a": 1}),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else repr(v)[:12],
    )
    def test_malformed_value_names_its_key(self, decline_400, path, value):
        config, record, out = decline_400
        bad = mutated(record, path, value)
        with pytest.raises(BundleError, match=repr(path[0])):
            bundle_from_dict(bad)
        code, printed = repair_with_bundle(config, bad, out)
        assert code == 64
        assert f"config error: bundle value {path[0]!r} is malformed" in printed

    def test_missing_key_and_non_object_name_themselves(self, decline_400):
        config, record, out = decline_400
        code, printed = repair_with_bundle(config, mutated(record, ("window_cap",), _DELETED), out)
        assert code == 64 and "missing 'window_cap'" in printed
        code, printed = repair_with_bundle(config, [record], out)
        assert code == 64 and "must be a JSON object, got list" in printed

    def test_range_violations_name_their_key(self, decline_400):
        config, record, out = decline_400
        for name, value in (("holder_exponent", 1.5), ("collar_width", 0.0), ("velocity_bound", -1)):
            code, printed = repair_with_bundle(config, mutated(record, (name,), value), out)
            assert code == 64 and repr(name) in printed

    def test_zero_velocity_bound_reaches_the_schedule(self, decline_400):
        # With m_v = 0 a burst moves nothing: the cap 1 / (k m_v) is +inf,
        # and the schedule fails by name as for the unchanged record.
        config, record, out = decline_400
        code, printed = repair_with_bundle(config, mutated(record, ("velocity_bound",), 0.0), out)
        assert code == 1 and "repair failed: delta-infeasible" in printed, printed

    def test_unchanged_record_loads(self, decline_400):
        config, record, out = decline_400
        bundle = bundle_from_dict(record)
        assert bundle.seed == 0
        assert repair_with_bundle(config, record, out)[0] == 1  # the schedule fails

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_one_key_mutation_ends_in_an_exit_code(self, decline_400, data):
        config, record, out = decline_400
        path = data.draw(st.sampled_from(sorted(bundle_paths(record), key=repr)), label="path")
        scalar = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(10**400), max_value=10**400),
            st.floats(allow_nan=True, allow_infinity=True),
            st.just(0.0),
            st.text(max_size=4),
        )
        value = data.draw(
            st.one_of(
                st.just(_DELETED),
                scalar,
                st.lists(scalar, max_size=3),
                st.lists(st.lists(st.floats(), max_size=2), max_size=2),
                st.dictionaries(st.text(max_size=3), scalar, max_size=2),
            ),
            label="value",
        )
        code, printed = repair_with_bundle(config, mutated(record, path, value), out)
        assert code in (0, 1, 2, 64, 65)
        assert printed.strip()


@pytest.fixture(scope="module")
def surge_400(tmp_path_factory):
    """(config path, bundle record, output directory) of the certified
    400-step surge scenario."""
    out = tmp_path_factory.mktemp("surge-400")
    config = write_config(out / "surge.json", {**SURGE_CONFIG, "steps": 400})
    assert cli.main(["certify", "--config", config, "--out", str(out)]) == 0
    return config, json.loads((out / "bundle.json").read_text()), out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_lipschitz_bound_fails_by_name_without_a_warning(surge_400):
    # exp of the Lipschitz modulus overflows in the schedule; the failure
    # must be the named diagnostic alone, with no numpy warning on stderr.
    config, record, out = surge_400
    middle = len(record["state_lipschitz"]["values"]) // 2
    bad = mutated(record, ("state_lipschitz", "values", middle), 1e308)
    code, printed = repair_with_bundle(config, bad, out)
    assert code == 1
    assert "repair failed: delta-infeasible" in printed, printed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gronwall_radius_names_the_growth_envelope(surge_400, tmp_path, capsys):
    # In repair: one bundle value of 1e6 makes exp of the envelope's
    # integral overflow, and one of 1e200 its square as well.
    config, record, out = surge_400
    for value in (1e6, 1e200):
        code, printed = repair_with_bundle(
            config, mutated(record, ("growth_envelope", "values", 200), value), out
        )
        assert code == 64
        assert "'growth_envelope'" in printed and "Gronwall radius overflows" in printed, printed
    # In certify: a declared envelope of 1000 over a unit horizon.
    affine = {
        "model": "control_affine",
        "state_dim": 1,
        "control_dim": 1,
        "drift": ["0"],
        "gain": [["1"]],
        "growth_envelope": 1000,
        "constraint": {"box": [[0.0, 3.0]], "components": ["1 - x1"]},
        "reference": {
            "kind": "inline",
            "times": [0.0, 0.5, 1.0],
            "states": [[1.2]] * 3,
            "controls": [[0.0]] * 3,
        },
    }
    path = write_config(tmp_path / "steep.json", affine)
    assert cli.main(["certify", "--config", path, "--out", str(tmp_path)]) == 1
    assert "growth envelope" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_adjacent_huge_envelope_values_name_the_growth_envelope_alone(surge_400):
    # Two adjacent values of 1e308 overflow the sum of the envelope's
    # first trapezoid; the overflow must reach the user as the named
    # Gronwall error, with no numpy warning before it.
    config, record, out = surge_400
    bad = mutated(record, ("growth_envelope", "values", 200), 1e308)
    bad = mutated(bad, ("growth_envelope", "values", 201), 1e308)
    code, printed = repair_with_bundle(config, bad, out)
    assert code == 64
    assert "'growth_envelope'" in printed and "Gronwall radius overflows" in printed, printed
    assert "RuntimeWarning" not in printed, printed


def test_bundle_function_off_the_reference_grid_names_itself(surge_400):
    # Unchecked, two nodes would broadcast across the 400 cells unnoticed.
    config, record, out = surge_400
    for name in ("growth_envelope", "state_lipschitz", "time_drift"):
        bad = mutated(record, (name,), {"nodes": [0, 2], "values": [0.2, 0.2]})
        code, printed = repair_with_bundle(config, bad, out)
        assert code == 64
        assert f"bundle function {name!r} is not tabulated on the reference grid" in printed


@pytest.mark.parametrize("grid", [{"steps": 2001}, {"horizon": 1.5}], ids=["steps-2001", "horizon-1.5"])
def test_a_motor_grid_without_a_node_at_the_break_repairs(tmp_path, capsys, grid):
    # The motors' break at t = 1 falls inside a cell, which the reference's
    # feedback law steps across with the cell's mean actuator scale. Each
    # integrator run holds one node more, at the break, and the reference
    # and the repaired runs keep the grid's nodes. Before, certify exited 0
    # and repair 1: "reference control and trajectory must share a grid".
    reference = {**SURGE_CONFIG["reference"], "variant": "decline"}
    config = {**SURGE_CONFIG, "model": "motor_decline", "reference": reference, **grid}
    path = write_config(tmp_path / "decline.json", config)
    out = str(tmp_path / "out")
    assert cli.main(["certify", "--config", path, "--out", out]) == 0
    code = cli.main(["repair", "--config", path, "--bundle", f"{out}/bundle.json", "--out", out])
    assert code == 0, capsys.readouterr()
    rows = (tmp_path / "out" / "x_eps.csv").read_text().splitlines()
    assert len(rows) == 1 + config["steps"] + 1


@pytest.fixture(scope="module")
def affine_repaired(tmp_path_factory):
    """Directory in which CONTROL_AFFINE_CONFIG, with its inline reference,
    was certified and repaired."""
    out = tmp_path_factory.mktemp("affine")
    path = write_config(out / "inline.json", CONTROL_AFFINE_CONFIG)
    assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
    bundle = str(out / "bundle.json")
    assert cli.main(["repair", "--config", path, "--bundle", bundle, "--out", str(out)]) == 0
    return out


class TestReferenceAndWeightKinds:
    """The documented reference and weight kinds that no other test runs."""

    def test_a_csv_reference_repairs_as_its_inline_form(self, affine_repaired, tmp_path, capsys):
        reference = CONTROL_AFFINE_CONFIG["reference"]
        rows = list(zip(reference["times"], reference["states"], reference["controls"]))
        xp, up = tmp_path / "x.csv", tmp_path / "u.csv"
        xp.write_text("t,x1,x2\n" + "".join(f"{t!r},{x!r},{y!r}\n" for t, (x, y), _ in rows))
        up.write_text("t,u1,u2\n" + "".join(f"{t!r},{a!r},{b!r}\n" for t, _, (a, b) in rows))
        by_csv = {"kind": "csv", "states": str(xp), "controls": str(up)}
        path = write_config(tmp_path / "csv.json", {**CONTROL_AFFINE_CONFIG, "reference": by_csv})
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
        bundle = str(out / "bundle.json")
        assert cli.main(["repair", "--config", path, "--bundle", bundle, "--out", str(out)]) == 0
        for artifact in ("x_eps.csv", "u_eps.csv", "report.txt"):
            assert (out / artifact).read_bytes() == (affine_repaired / artifact).read_bytes()

    def test_the_identity_weight_is_no_weight(self, affine_repaired, capsys):
        config = {**CONTROL_AFFINE_CONFIG, "weight": {"kind": "identity"}}
        path = write_config(affine_repaired / "identity.json", config)
        out = affine_repaired / "identity"
        bundle = str(affine_repaired / "bundle.json")
        assert cli.main(["repair", "--config", path, "--bundle", bundle, "--out", str(out)]) == 0
        assert (out / "report.txt").read_bytes() == (affine_repaired / "report.txt").read_bytes()

    def test_the_one_plus_t_cost_is_its_closed_form(self):
        # Over a cell [a, b] a constant u costs |u|^2 (b - a + (b^2 - a^2) / 2).
        weight = cli.weight_from_config({"weight": {"kind": "one-plus-t"}}, 2)
        nodes = np.array([0.0, 0.3, 0.5, 1.25, 2.0])
        values = np.array([[1.0, -2.0], [0.5, 0.0], [-1.5, 3.0], [2.0, 1.0], [0.0, 0.0]])
        cells = zip(nodes[:-1], nodes[1:], values[:-1])
        exact = sum((b - a + (b * b - a * a) / 2.0) * float(u @ u) for a, b, u in cells)
        cost = weighted_l2_cost(ControlSignal(TimeGrid(nodes), values), weight)
        assert cost == pytest.approx(exact, rel=1e-14)


# A small config that certifies and holds each kind of number a config
# may: counts, a lattice box and resolution, an inline reference, x0, a
# weight matrix, lambda, seed and eps.
LEAF_CONFIG = {
    "model": "expression",
    "state_dim": 1,
    "control_dim": 1,
    "rhs": ["u1"],
    "constraint": {"box": [[0.0, 3.0]], "components": ["1 - x1"], "resolution": 0.01},
    "reference": {
        "kind": "inline",
        "times": [0.0, 0.5, 1.0],
        "states": [[1.2], [1.2], [1.2]],
        "controls": [[0.0], [0.0], [0.0]],
    },
    "x0": [1.2],
    "weight": {"kind": "constant", "matrix": [[1.0]]},
    "lambda": 0.1,
    "seed": 0,
    "eps": 0.0,
}


def leaf_mutations(value, path=()):
    """(path, replacement) for every number in a JSON value, a bool aside:
    its string form, true, null and an integer too large for a float."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaf_mutations(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaf_mutations(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        for replacement in (str(value), True, None, 10**400):
            yield path, replacement


@pytest.fixture(scope="module")
def leaf_bundle(tmp_path_factory):
    """(directory, bundle record) of LEAF_CONFIG certified, with a state and
    a control CSV on its reference's span."""
    out = tmp_path_factory.mktemp("leaves")
    config = write_config(out / "leaves.json", LEAF_CONFIG)
    assert cli.main(["certify", "--config", config, "--out", str(out)]) == 0
    (out / "x.csv").write_text("t,x1\n0,1.2\n1,1.2\n")
    (out / "u.csv").write_text("t,u1\n0,0\n1,0\n")
    return out, json.loads((out / "bundle.json").read_text())


class TestEveryNumericLeaf:
    """A number that is quoted, true, null or too large for a float is
    malformed wherever it sits in a config or a bundle, and the command
    exits 64 naming its key. Before, a quoted, true or null array entry of
    either exited 0, and a huge integer in 'box' or 'x0' ended in an
    OverflowError traceback."""

    def test_in_a_config(self, leaf_bundle, capsys):
        out, _ = leaf_bundle
        # Each key is read by the command that uses it.
        commands = {
            "lambda": ["repair", "--bundle", str(out / "bundle.json")],
            "eps": ["evaluate", str(out / "x.csv"), str(out / "u.csv")],
        }
        failures = []
        for path, value in leaf_mutations(LEAF_CONFIG):
            key = [name for name in path if isinstance(name, str)][-1]
            config = write_config(out / "mutated-config.json", mutated(LEAF_CONFIG, path, value))
            argv = commands.get(key, ["certify", "--out", str(out / "mutated")])
            try:
                code = cli.main(argv + ["--config", config])
            except Exception as exc:  # a traceback: listed with the other failures
                code = repr(exc)
            err = capsys.readouterr().err
            if code != 64 or f"config error: {key!r}" not in err:
                failures.append((path, repr(value)[:12], code, err))
        assert not failures

    def test_in_a_bundle(self, leaf_bundle):
        out, record = leaf_bundle
        config = str(out / "leaves.json")
        # The certification block is never read back.
        read = {key: value for key, value in record.items() if key != "certification"}
        failures = []
        for path, value in leaf_mutations(read):
            try:
                code, printed = repair_with_bundle(config, mutated(record, path, value), out)
            except Exception as exc:  # a traceback: listed with the other failures
                code, printed = repr(exc), ""
            if code != 64 or f"bundle value {path[0]!r} is malformed" not in printed:
                failures.append((path, repr(value)[:12], code, printed))
        assert not failures

    @pytest.mark.parametrize(
        "rhs", ["1" + "0" * 400, "1e999", 10**400], ids=["400-digits", "1e999", "400-digit-number"]
    )
    def test_an_expression_constant_that_is_no_finite_float(self, tmp_path, capsys, rhs):
        path = write_config(tmp_path / "rhs.json", {**LEAF_CONFIG, "rhs": [rhs]})
        assert cli.main(["certify", "--config", path, "--out", str(tmp_path)]) == 64
        assert "only finite float constants" in capsys.readouterr().err
