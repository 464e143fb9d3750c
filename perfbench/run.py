"""Benchmark of the tightpath user path: certify, then repair, then artifacts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surge-fine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run is one process with one thread. It times the import of
``tightpath`` from the checkout's ``src`` directory in three fresh
interpreters and builds the workload's problem three times (set-up), then
repeats whole rounds of ``tightpath certify`` commands followed by
``tightpath repair`` commands, all through ``tightpath.cli.main``, until
``--seconds`` have passed. Outside the timed
region it checks the artifacts independently (see checker.py) and prints
the metrics; the last line of standard output is one JSON object.

With ``--trace 1`` the run alternates untraced and traced rounds of one
certify and one repair, writes ``perfbench/out/<workload>/trace.json`` and
prints the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# One thread per run: BLAS pools must be sized before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The workload names again, so that parsing arguments imports nothing that
# would pull numpy in before the timed import of tightpath.
NAMES = ("surge-fine", "decline", "disk-lattice", "moving-disk")
SETUP_REPEATS = 3  # imports and problem builds per run; set-up reports medians
CERTIFY_OK = (0, 2)  # 2: bundle written with some constants declared-only
REPAIR_OK = (0,)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(src):
    """Median time to import ``tightpath.cli`` in a fresh interpreter.

    The import is what every ``tightpath`` command pays before it starts,
    so it is timed in child processes, as a user's shell would start them.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "start = time.perf_counter()\n"
        "import tightpath.cli\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, check=True, timeout=60)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_program():
    """Import tightpath from ./src of the checkout; return (cli, import seconds)."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tightpath", "__init__.py")):
        raise SystemExit(f"no tightpath sources under {src}; run from the root of a checkout")
    elapsed = import_seconds(src)
    sys.path.insert(0, src)
    from tightpath import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"tightpath was imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def run_command(cli, argv, log_path, ok_codes):
    """Time one CLI command; returns (seconds, succeeded)."""
    buffer = io.StringIO()
    code = None
    # Every command starts from a collected heap, as in a fresh process.
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
    elapsed = time.perf_counter() - start
    with open(log_path, "w") as fh:
        fh.write(f"$ tightpath {' '.join(argv)}\n{buffer.getvalue()}exit {code}\n")
    return elapsed, code in ok_codes


def run_round(cli, config_path, round_dir, seed, plan):
    """One round: the commands of ``plan`` in order, each into its own
    directory. ``c`` is a certify, ``r`` a repair from the latest bundle.

    Returns the round's record: every command's directory and outcome, and
    the mean time per certify and per repair command.
    """
    record = {"c": [], "r": []}
    seconds = {"c": [], "r": []}
    bundle = None
    for j, step in enumerate(plan):
        if step == "c":
            out = os.path.join(round_dir, f"certify-{j}")
            argv = ["certify", "--config", config_path, "--out", out, "--seed", str(seed)]
            bundle = os.path.join(out, "bundle.json")
        else:
            out = os.path.join(round_dir, f"repair-{j}")
            argv = ["repair", "--config", config_path, "--bundle", bundle, "--out", out]
        os.makedirs(out)
        elapsed, ok = run_command(cli, argv, os.path.join(out, "command.log"),
                                  CERTIFY_OK if step == "c" else REPAIR_OK)
        record[step].append((out, ok))
        seconds[step].append(elapsed)
    return {
        "certify": record["c"],
        "repair": record["r"],
        "certify_s": statistics.fmean(seconds["c"]),
        "repair_s": statistics.fmean(seconds["r"]),
    }


def run_rounds(cli, config_path, out_root, seed, seconds, plan):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_dir = os.path.join(out_root, f"round-{len(rounds)}")
        rounds.append(run_round(cli, config_path, round_dir, seed, plan))
    return rounds


def trace_rounds(cli, tracer, config_path, out_root, seed, seconds):
    """Untraced and traced rounds in turn, starting untraced, until
    ``seconds`` have passed and at least one of each has run.

    Rounds here are one certify and one repair, so that per-layer figures
    are per command pair. Returns (untraced rounds, traced rounds).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        index = len(untraced) + len(traced)
        round_dir = os.path.join(out_root, f"round-{index}")
        if index % 2 == 0:
            untraced.append(run_round(cli, config_path, round_dir, seed, "cr"))
            continue
        tracer.start_round(index)
        tracer.install()
        try:
            traced.append(run_round(cli, config_path, round_dir, seed, "cr"))
        finally:
            tracer.uninstall()
    return untraced, traced


def check(workload, problem, rounds):
    """Independent checks; returns (correct, interior margin)."""
    import checker

    _, _, xbar, ubar = problem
    reference = checker.Reference(xbar.grid.nodes.copy(), xbar.states.copy(), ubar.values.copy())
    bundles = [out for r in rounds for out, ok in r["certify"] if ok]
    repairs = [out for r in rounds for out, ok in r["repair"] if ok]
    try:
        checker.check_reference(workload.system, reference)
        checker.check_identical(bundles, checker.CERTIFY_ARTIFACTS)
        checker.check_identical(repairs, checker.REPAIR_ARTIFACTS)
        if not repairs:
            return True, 0.0
        findings = checker.check_artifacts(repairs[0], workload.system, reference, workload.config["lambda"])
    except checker.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False, 0.0
    return True, findings.margin_min


def run_one(args) -> int:
    cli, import_s = import_program()
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_root = os.path.join(BENCH_DIR, "out", workload.name)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    config_path = os.path.join(out_root, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config, fh, indent=1)
        fh.write("\n")

    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        problem = cli.load_problem(workload.config)
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    seed = workload.certifier_seed(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced = trace_rounds(cli, tracer, config_path, out_root, seed, args.seconds)
        rounds = untraced + traced
    else:
        rounds = run_rounds(cli, config_path, out_root, seed, args.seconds, workload.plan)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct, margin = check(workload, problem, rounds)
    outcomes = [ok for r in rounds for _, ok in r["certify"] + r["repair"]]
    attempted = len(outcomes)
    failed = outcomes.count(False)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "certify_s": (statistics.median(r["certify_s"] for r in rounds), "s"),
            "repair_s": (statistics.median(r["repair_s"] for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "interior_margin": (margin, "state"),
        }
    else:
        from tracer import PER_LAYER, unit_of

        per_round = tracer.per_round()
        metrics = {
            name: (statistics.median(values[name] for values in per_round), unit_of(name))
            for name in PER_LAYER
        }

        def total(r):
            return r["certify_s"] + r["repair_s"]

        traced_s = statistics.median(total(r) for r in traced)
        untraced_s = statistics.median(total(r) for r in untraced)
        overhead_s = traced_s - untraced_s
        tracer.write(
            os.path.join(out_root, "trace.json"),
            {
                "workload": workload.name,
                "seed": args.seed,
                "untraced_round_s": [total(r) for r in untraced],
                "traced_round_s": [total(r) for r in traced],
                "overhead_s": overhead_s,
            },
        )
        print(f"tracing overhead: {overhead_s:.3f} s per round "
              f"(traced {traced_s:.3f} s, untraced {untraced_s:.3f} s)")

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} operations attempted = {attempted}, failed = {failed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
