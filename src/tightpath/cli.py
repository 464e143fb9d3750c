"""Batch front end: the certify, repair, and evaluate commands.

One JSON config describes one scenario: the model, the constraint, the
reference (named closed form, CSV paths, or inline samples), the closeness
tolerance, and an optional cost weight. ``certify`` writes a constant
bundle, ``repair`` consumes a config plus bundle and writes the repaired
pair with a full report, ``evaluate`` scores any trajectory/control pair
against the config's reference.

Exit codes: 0 success, 1 contract failure, 2 partial certification,
64 usage or parse error, 65 artifact mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .dynamics import model_from_config
from .errors import (
    COUNT,
    NONNEGATIVE,
    POSITIVE,
    BundleError,
    CertificationError,
    ConfigError,
    DomainError,
    ExpressionError,
    PropagationError,
    RepairError,
    ScheduleError,
    ShapeError,
    TightpathError,
    config_array,
    config_number,
    read_text,
)
from .geometry import field_from_config
from .hypotheses import certify_all, load_bundle, reference_norm, save_bundle
from .propagation import HALF_STEP_TOLERANCE, integrate
from .repair import render_report, repair
from .scenarios import scenario_from_config
from .signals import (
    ControlSignal,
    TimeGrid,
    Trajectory,
    linf_distance,
    load_control,
    load_trajectory,
    positive_semidefinite,
    save_csv,
    weighted_l2_cost,
)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_MISMATCH = 65

# Keys that do not change the certified system; the bundle hash covers the
# rest so a bundle stays valid across tolerance and weight sweeps.
_NON_IDENTITY_KEYS = ("lambda", "weight", "seed", "out", "eps")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    return format(float(value), ".17g")


def load_config(path) -> dict:
    text = read_text(path, "config")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(config, dict):
        raise ConfigError(
            f"{path}: the top level must be a JSON object, got {type(config).__name__}"
        )
    return config


def config_identity_hash(config: dict) -> str:
    """Hash of the scenario-identifying part of a config."""
    identity = {k: v for k, v in config.items() if k not in _NON_IDENTITY_KEYS}
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _inline_reference(ref: dict):
    try:
        times = config_array(ref, "times")
        states = config_array(ref, "states")
        controls = config_array(ref, "controls")
    except KeyError as exc:
        raise ConfigError(f"inline reference needs {exc.args[0]!r}") from None
    try:
        grid = TimeGrid(times)
    except (DomainError, ShapeError) as exc:
        raise ConfigError(f"inline reference 'times': {exc}") from None
    if grid.t0 < 0:
        raise ConfigError(f"inline reference 'times' must start at t >= 0, got {grid.t0:g}")
    return Trajectory(grid, states), ControlSignal(grid, controls)


def _csv_reference(ref: dict):
    for key in ("states", "controls"):
        if not isinstance(ref.get(key, ""), str):
            raise ConfigError(f"{key!r} must be a file name, got {ref[key]!r}")
    try:
        xbar = load_trajectory(ref["states"])
        ubar = load_control(ref["controls"])
    except KeyError as exc:
        raise ConfigError(f"csv reference needs {exc.args[0]!r}") from None
    for path, signal in ((ref["states"], xbar), (ref["controls"], ubar)):
        if signal.grid.t0 < 0:
            raise ConfigError(f"{path}: times must start at t >= 0, got {signal.grid.t0:g}")
    return xbar, ubar


def load_problem(config: dict):
    """Resolve a config into (model, field, xbar, ubar)."""
    ref = config.get("reference")
    if not isinstance(ref, dict):
        raise ConfigError("scenario config needs a 'reference' table")
    kind = ref.get("kind", "boundary-tracking")
    if kind == "boundary-tracking":
        sc = scenario_from_config(config)
        model, field, xbar, ubar = sc.model, sc.field, sc.xbar, sc.ubar
    else:
        model, field, xbar, ubar = _sampled_problem(config, ref, kind)
    if "x0" in config:
        x0 = config_array(config, "x0")
        if x0.size != xbar.dim or not np.allclose(x0.ravel(), xbar.states[0]):
            raise ConfigError(
                f"x0 {x0.tolist()} does not match the first reference state "
                f"{xbar.states[0].tolist()}"
            )
    return model, field, xbar, ubar


def _sampled_problem(config: dict, ref: dict, kind: str):
    """(model, field, xbar, ubar) of a CSV or inline reference config."""
    if kind == "csv":
        xbar, ubar = _csv_reference(ref)
    elif kind == "inline":
        xbar, ubar = _inline_reference(ref)
    else:
        raise ConfigError(f"unknown reference kind {kind!r}")
    constraint = config.get("constraint")
    if not isinstance(constraint, dict):
        raise ConfigError("scenario config needs a 'constraint' table")
    # Declared sizes first: the model and the field are built in proportion to them.
    dims = [config_number(config, key, None, int, COUNT) for key in ("state_dim", "control_dim")]
    ball = config_number(constraint, "dim", None, int, COUNT) if "builtin" in constraint else None
    _match_dims(xbar, ubar, ball, *dims)
    model = model_from_config(config)
    try:
        field = field_from_config(constraint)
    except DomainError as exc:  # the one it raises once 'dim' is checked: an unknown builtin
        raise ConfigError(str(exc)) from None
    _match_dims(xbar, ubar, field.dim, model.state_dim, model.control_dim)
    if not np.array_equal(xbar.grid.nodes, ubar.grid.nodes):
        raise ConfigError("reference states and controls live on different grids")
    reference_norm(xbar)  # a reference too large to sample is named as such first
    _check_trajectory(model, xbar, ubar)
    return model, field, xbar, ubar


def _match_dims(xbar: Trajectory, ubar: ControlSignal, field_dim, state_dim, control_dim) -> None:
    """ConfigError unless the constraint and reference have the model's dimensions (or None)."""
    for found, expected, what in (
        (field_dim, state_dim, "'constraint' has"),
        (xbar.dim, state_dim, "reference states have"),
        (ubar.dim, control_dim, "reference controls have"),
    ):
        if None not in (found, expected) and found != expected:
            raise ConfigError(f"{what} dimension {found}, model expects {expected}")


def _check_trajectory(model, xbar: Trajectory, ubar: ControlSignal) -> None:
    """ConfigError naming 'states' unless the reference states lie within
    HALF_STEP_TOLERANCE, at every node, of one run of the model under the
    reference controls from the first state at the grid's step."""
    grid = xbar.grid
    with np.errstate(all="ignore"):  # a run that blows up is named below
        try:
            run = integrate(model, ubar, xbar.states[0], (grid.t0, grid.t1), grid.step, check=False)
            gaps = np.linalg.norm(run.resample(grid.nodes) - xbar.states, axis=1)
        except PropagationError as exc:
            gaps = np.where(grid.nodes < exc.t, 0.0, np.inf)
    bad = np.flatnonzero(~(gaps <= HALF_STEP_TOLERANCE))
    if bad.size:
        raise ConfigError(
            "reference 'states' are not a trajectory of the model under 'controls': the run "
            f"from the first state is {gaps[bad[0]]:.3g} away at t={grid.nodes[bad[0]]:g}, "
            f"more than {HALF_STEP_TOLERANCE:g}"
        )


def weight_from_config(config: dict, control_dim: int):
    """Resolve the cost weight spec to a matrix-valued callable (or None)."""
    spec = config.get("weight")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("'weight' must be a table")
    kind = spec.get("kind", "constant")
    if kind == "identity":
        return None
    if kind == "constant":
        try:
            mat = config_array(spec, "matrix")
        except KeyError:
            raise ConfigError("constant weight needs 'matrix'") from None
        if mat.shape != (control_dim, control_dim):
            raise ConfigError(
                f"weight matrix must be {control_dim}x{control_dim}, got {mat.shape}"
            )
        if not positive_semidefinite(mat):
            raise ConfigError(
                f"'matrix' must be finite and positive semidefinite, got {spec['matrix']!r}"
            )
        return lambda t: mat
    if kind == "one-plus-t":
        eye = np.eye(control_dim)
        return lambda t: (1.0 + t) * eye
    raise ConfigError(f"unknown weight kind {kind!r}")


def _out_dir(args, config: dict) -> str:
    out = args.out or config.get("out") or "."
    if not isinstance(out, str):
        raise ConfigError(f"'out' must be a directory name, got {out!r}")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_certify(args) -> int:
    config = load_config(args.config)
    model, field, xbar, ubar = load_problem(config)
    weight_from_config(config, model.control_dim)
    seeds = config if args.seed is None else {"seed": args.seed}
    seed = config_number(seeds, "seed", 0, int, ("a non-negative integer", lambda v: v >= 0))
    out = _out_dir(args, config)
    try:
        bundle = certify_all(
            model,
            field,
            ubar,
            xbar,
            seed=seed,
            config_hash=config_identity_hash(config),
        )
    except CertificationError as exc:
        print(f"certification failed: {exc}")
        for key, value in sorted(exc.witness.items()):
            value = value.tolist() if hasattr(value, "tolist") else value
            print(f"  witness {key} = {value}")
        return EXIT_CONTRACT
    path = os.path.join(out, "bundle.json")
    save_bundle(path, bundle)
    for name in sorted(bundle.provenance):
        print(f"{name}: {bundle.provenance[name]}")
    for name in ("control_bound", "velocity_bound", "inward_slack", "collar_width", "holder_exponent"):
        print(f"{name} = {_fmt(getattr(bundle, name))}")
    print(f"bundle written to {path}")
    partial = any(tag == "declared-only" for tag in bundle.provenance.values())
    if partial:
        print("partial certification: some constants are declared-only")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_repair(args) -> int:
    config = load_config(args.config)
    model, field, xbar, ubar = load_problem(config)
    if "lambda" not in config:
        raise ConfigError("repair config needs 'lambda'")
    lam = config_number(config, "lambda", None, float, POSITIVE)
    bundle = load_bundle(args.bundle)
    expected = config_identity_hash(config)
    if bundle.config_hash != expected:
        print(
            f"bundle hash {bundle.config_hash or '(unset)'} does not match "
            f"config hash {expected}; re-run certify on this config"
        )
        return EXIT_MISMATCH
    weight = weight_from_config(config, model.control_dim)
    out = _out_dir(args, config)
    try:
        x_eps, u_eps, constants, report = repair(
            xbar, ubar, lam, bundle, field, model, weight=weight
        )
    except (ScheduleError, RepairError) as exc:
        print(f"repair failed: {exc}")
        report = getattr(exc, "report", None)
        if report is not None:
            print(f"  best margin {_fmt(report.interiority_margin)}")
            print(f"  best sup gap {_fmt(report.final_linf_gap)}")
            print(f"  best cost gap {_fmt(report.final_cost_gap)}")
        return EXIT_CONTRACT
    x_path = os.path.join(out, "x_eps.csv")
    u_path = os.path.join(out, "u_eps.csv")
    save_csv(x_path, x_eps)
    save_csv(u_path, u_eps)
    text = render_report(constants, report, lam)
    report_path = os.path.join(out, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(text)
    written = [x_path, u_path, report_path]
    if args.svg:
        svg_path = os.path.join(out, "overlay.svg")
        band = constants.eps if _has_unit_ball(config) else None
        write_overlay_svg(svg_path, xbar, x_eps, band)
        written.append(svg_path)
    print(f"eps = {_fmt(constants.eps)}")
    print(f"interiority margin = {_fmt(report.interiority_margin)}")
    print(f"sup gap = {_fmt(report.final_linf_gap)}")
    print(f"cost gap = {_fmt(report.final_cost_gap)}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _has_unit_ball(config: dict) -> bool:
    constraint = config.get("constraint", {})
    return constraint.get("builtin") == "unit_ball_complement"


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    model, field, xbar, ubar = load_problem(config)
    traj = load_trajectory(args.trajectory)
    control = load_control(args.control)
    if traj.dim != model.state_dim:
        raise ConfigError(
            f"trajectory has dimension {traj.dim}, model expects {model.state_dim}"
        )
    if control.dim != model.control_dim:
        raise ConfigError(
            f"control has dimension {control.dim}, model expects {model.control_dim}"
        )
    # The sup gap compares only where the two grids overlap, so a pair on
    # other times than the reference's would be scored over part of them.
    span = (xbar.grid.t0, xbar.grid.t1)
    for path, grid in ((args.trajectory, traj.grid), (args.control, control.grid)):
        if (grid.t0, grid.t1) != span:
            raise ConfigError(
                f"{path}: spans [{_fmt(grid.t0)}, {_fmt(grid.t1)}], but the reference spans "
                f"[{_fmt(span[0])}, {_fmt(span[1])}]; a pair is scored on the reference's span"
            )
    eps = config_number(config, "eps", 0.0, float, NONNEGATIVE)
    margin = float(np.min(field.margin(traj.grid.nodes, traj.states, eps)))
    weight = weight_from_config(config, model.control_dim)
    cost_ref = float(weighted_l2_cost(ubar, weight))
    cost_eval = float(weighted_l2_cost(control, weight))
    print(f"interiority margin (eps = {_fmt(eps)}) = {_fmt(margin)}")
    print(f"sup gap = {_fmt(linf_distance(traj, xbar))}")
    print(f"cost reference = {_fmt(cost_ref)}")
    print(f"cost evaluated = {_fmt(cost_eval)}")
    print(f"cost gap = {_fmt(abs(cost_eval - cost_ref))}")
    return EXIT_OK if margin >= 0 else EXIT_CONTRACT


def write_overlay_svg(path, xbar: Trajectory, x_eps: Trajectory, band: float | None) -> None:
    """Static overlay: reference and repaired states over time, with the
    tightened-boundary band shaded when the constraint is the unit ball."""
    width, height = 800, 480
    ml, mr, mt, mb = 60.0, 20.0, 20.0, 40.0
    t = xbar.grid.nodes
    t0, t1 = float(t[0]), float(t[-1])
    levels = [xbar.states, x_eps.states]
    ylo = min(float(np.min(a)) for a in levels)
    yhi = max(float(np.max(a)) for a in levels)
    if band is not None:
        ylo = min(ylo, 1.0 - 0.05)
        yhi = max(yhi, 1.0 + band + 0.05)
    pad = 0.05 * (yhi - ylo) or 1.0
    ylo, yhi = ylo - pad, yhi + pad

    def sx(value):
        return ml + (value - t0) / (t1 - t0) * (width - ml - mr)

    def sy(value):
        return height - mb - (value - ylo) / (yhi - ylo) * (height - mt - mb)

    def polyline(times, values, color, dash):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(times, values))
        dash_attr = ' stroke-dasharray="6,4"' if dash else ""
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{pts}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if band is not None:
        for lo, hi in ((1.0, 1.0 + band), (-1.0 - band, -1.0)):
            if hi < ylo or lo > yhi:
                continue
            top, bottom = sy(min(hi, yhi)), sy(max(lo, ylo))
            parts.append(
                f'<rect x="{ml:.2f}" y="{top:.2f}" width="{width - ml - mr:.2f}" '
                f'height="{bottom - top:.2f}" fill="#f4c7c3" fill-opacity="0.6"/>'
            )
    parts.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>'
    )
    palette = ("#555555", "#1a6fb4", "#2e8b57", "#b08000")
    for dim in range(xbar.dim):
        parts.append(polyline(t, xbar.states[:, dim], palette[0], dash=True))
    for dim in range(x_eps.dim):
        color = palette[1 + dim % (len(palette) - 1)]
        parts.append(polyline(x_eps.grid.nodes, x_eps.states[:, dim], color, dash=False))
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 10}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">time</text>'
    )
    parts.append(
        f'<text x="15" y="{(mt + height - mb) / 2:.0f}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 15 {(mt + height - mb) / 2:.0f})">state</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="tightpath", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="certify constants and write a bundle")
    certify.add_argument("--config", required=True, help="scenario config (JSON)")
    certify.add_argument("--out", default=None, help="output directory")
    certify.add_argument("--seed", type=int, default=None, help="sampling seed")
    certify.set_defaults(func=cmd_certify)

    rep = sub.add_parser("repair", help="synthesize the interior pair")
    rep.add_argument("--config", required=True, help="scenario config (JSON)")
    rep.add_argument("--bundle", required=True, help="bundle from certify")
    rep.add_argument("--out", default=None, help="output directory")
    rep.add_argument("--svg", action="store_true", help="also write an overlay plot")
    rep.set_defaults(func=cmd_repair)

    ev = sub.add_parser("evaluate", help="score a trajectory/control pair")
    ev.add_argument("trajectory", help="state CSV")
    ev.add_argument("control", help="control CSV")
    ev.add_argument("--config", required=True, help="scenario config (JSON)")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ExpressionError, BundleError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TightpathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
