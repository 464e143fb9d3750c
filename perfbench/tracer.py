"""Spans and counters around the calls into each ``tightpath`` module.

Tracing happens from outside the program: :meth:`Tracer.install` replaces
each module's public functions with timing wrappers wherever the name is
bound (modules import each other's functions into their own namespaces),
and :meth:`Tracer.uninstall` puts the originals back. Spans record
``(name, start, end, parent, round)``; counters record work the spans do
not show, such as every ``model.rhs`` call.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("signals", "geometry", "dynamics", "hypotheses", "propagation", "repair", "scenarios", "cli")

# Not traced, so that their time counts as the command's own: bundle
# (de)serialisation and report rendering. The single-point RHS helpers are
# left out as well; every call they make reaches ``model.rhs``, which is
# counted instead.
_UNTRACED = {
    "hypotheses": {"bundle_from_dict", "bundle_to_dict", "load_bundle", "save_bundle"},
    "repair": {"render_report"},
    "dynamics": {"eval_rhs", "rhs_batch"},
}
# Functions traced although private, or although their module is otherwise
# left alone: the CLI is traced only at its commands, whose self time is
# config loading, hashing, bundle reading and writing, and rendering.
_EXTRA = {"repair": {"_sweep"}, "cli": {"cmd_certify", "cmd_repair"}}


def _traced_names(short: str, module) -> list:
    names = []
    for attr, value in vars(module).items():
        if not inspect.isfunction(value) or value.__module__ != module.__name__:
            continue
        public = not attr.startswith("_") and short != "cli"
        if (public and attr not in _UNTRACED.get(short, ())) or attr in _EXTRA.get(short, ()):
            names.append(attr)
    return names


# Per-layer metric -> how to read it from the trace, per traced round.
# ("time", span) sums span durations, ("calls", span) counts spans,
# ("self", span) sums span durations less their direct children's,
# ("count", counter) reads a counter and ("ratio", (counter, span)) divides
# a counter by a span count.
PER_LAYER = {
    "scenarios.build_s": ("time", "scenarios.scenario_from_config"),
    "hypotheses.inward_s": ("time", "hypotheses.certify_inward_pointing"),
    "hypotheses.inward_calls": ("calls", "hypotheses.certify_inward_pointing"),
    "hypotheses.inclusion_margins_calls": ("calls", "hypotheses.inclusion_margins"),
    "hypotheses.time_regularity_s": ("time", "hypotheses.certify_time_regularity"),
    "hypotheses.sublinear_s": ("time", "hypotheses.certify_sublinear"),
    "hypotheses.lipschitz_s": ("time", "hypotheses.certify_lipschitz"),
    "geometry.distance_calls": ("calls", "geometry.ConstraintField._distances"),
    "geometry.distance_points": ("count", "geometry.distance_points"),
    "geometry.distance_s": ("time", "geometry.ConstraintField._distances"),
    "geometry.lattice_scans": ("calls", "geometry.boundary_points"),
    "geometry.lattice_scan_s": ("time", "geometry.boundary_points"),
    "geometry.violation_sup_calls": ("calls", "geometry.violation_sup"),
    "geometry.violation_sup_s": ("time", "geometry.violation_sup"),
    "geometry.boundary_modulus_s": ("time", "geometry.build_boundary_modulus"),
    "dynamics.rhs_calls": ("count", "dynamics.rhs_calls"),
    "dynamics.drift_budget_calls": ("calls", "dynamics.drift_budget"),
    "dynamics.drift_budget_s": ("time", "dynamics.drift_budget"),
    "dynamics.shift_selection_calls": ("calls", "dynamics.shift_selection"),
    "dynamics.shift_selection_s": ("time", "dynamics.shift_selection"),
    "propagation.integrate_calls": ("calls", "propagation.integrate"),
    "propagation.integrate_s": ("time", "propagation.integrate"),
    "propagation.rhs_calls": ("count", "propagation.rhs_calls"),
    "repair.schedule_s": ("time", "repair.schedule_constants"),
    "repair.sweeps": ("calls", "repair._sweep"),
    "repair.sweep_yield": ("ratio", ("repair.accepted_sweeps", "repair._sweep")),
    "repair.eps_tried": ("count", "repair.eps_tried"),
    "repair.intervals": ("calls", "repair.repair_interval"),
    "repair.burst_intervals": ("count", "repair.burst_intervals"),
    "signals.modulus_table_s": ("time", "signals.build_modulus_table"),
    "signals.csv_write_s": ("time", "signals.save_csv"),
    "signals.csv_bytes": ("count", "signals.csv_bytes"),
    "cli.certify_self_s": ("self", "cli.cmd_certify"),
    "cli.repair_self_s": ("self", "cli.cmd_repair"),
    "cli.bundle_bytes": ("count", "cli.bundle_bytes"),
}

UNITS = {"_s": "s", "_calls": "count", "_bytes": "bytes", "_yield": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Collects spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, round]
        self.counters = defaultdict(lambda: defaultdict(int))  # round -> name -> value
        self.round = -1
        self._stack = []
        self._active = defaultdict(int)
        self._rhs = [0, 0]  # model.rhs calls: all, and inside integrate
        self._restore = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount=1) -> None:
        self.counters[self.round][name] += amount

    def start_round(self, index: int) -> None:
        """Attribute what follows to round ``index``."""
        self._flush_rhs()
        self.round = index

    def _flush_rhs(self) -> None:
        # model.rhs is the hottest call; its counts are kept in a plain
        # list and moved into the round's counters at round boundaries.
        if self._rhs[0]:
            self.count("dynamics.rhs_calls", self._rhs[0])
            self.count("propagation.rhs_calls", self._rhs[1])
        self._rhs[:] = [0, 0]

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.round]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_rhs(self, model):
        """Swap a fresh model's rhs for one that counts its calls."""
        rhs = model.rhs
        if getattr(rhs, "__counted__", False):
            return
        calls = self._rhs
        active = self._active

        def counted(*args, **kwargs):
            calls[0] += 1
            if active["propagation.integrate"]:
                calls[1] += 1
            return rhs(*args, **kwargs)

        counted.__counted__ = True
        # Models are frozen dataclasses; tracing edits the instance only.
        object.__setattr__(model, "rhs", counted)

    def _after(self, qualname: str):
        """Hook that reads work counts off a traced call's arguments or result."""
        dynamics = sys.modules["tightpath.dynamics"]

        def models(args, result):
            model = getattr(result, "model", result)
            if isinstance(model, dynamics.DynamicsModel):
                self._count_rhs(model)

        def distances(args, result):
            self.count("geometry.distance_points", int(args[3].shape[0]))

        def csv_bytes(args, result):
            self.count("signals.csv_bytes", os.path.getsize(args[0]))

        def bundle_bytes(args, result):
            path = os.path.join(args[0].out, "bundle.json")
            if result in (0, 2) and os.path.exists(path):
                self.count("cli.bundle_bytes", os.path.getsize(path))

        def interval(args, result):
            record = result[2][0] if isinstance(result[2], tuple) else result[2]
            if record.case == "case-2":
                self.count("repair.burst_intervals")

        def accepted(args, result):
            self.count("repair.accepted_sweeps")
            self.count("repair.eps_tried", len(result[2].eps_trail))

        hooks = {
            "geometry.ConstraintField._distances": distances,
            "signals.save_csv": csv_bytes,
            "cli.cmd_certify": bundle_bytes,
            "repair.repair_interval": interval,
            "repair.repair": accepted,
        }
        if qualname in hooks:
            return hooks[qualname]
        if qualname.startswith(("dynamics.", "scenarios.")):
            return models
        return None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every module where they are bound."""
        modules = {name: sys.modules[f"tightpath.{name}"] for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr in _traced_names(short, module):
                qualname = f"{short}.{attr}"
                original = getattr(module, attr)
                wrappers[original] = self._wrap(qualname, original, self._after(qualname))
        # Rebind every name that points at a wrapped function, in every
        # module and in the package namespace.
        for namespace in list(modules.values()) + [sys.modules["tightpath"]]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])
        field_cls = modules["geometry"].ConstraintField
        original = field_cls._distances
        qualname = "geometry.ConstraintField._distances"
        self._restore.append((field_cls, "_distances", original))
        field_cls._distances = self._wrap(qualname, original, self._after(qualname))

    def uninstall(self) -> None:
        self._flush_rhs()
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def per_round(self) -> dict:
        """Every per-layer metric for each traced round."""
        rounds = sorted({span[4] for span in self.spans if span[4] >= 0} | set(self.counters))
        time_by = defaultdict(float)
        calls_by = defaultdict(int)
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, rnd = span
            time_by[rnd, name] += end - start
            calls_by[rnd, name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_by = defaultdict(float)
        for index, (name, start, end, parent, rnd) in enumerate(self.spans):
            self_by[rnd, name] += (end - start) - child_time[index]
        out = []
        for rnd in rounds:
            values = {}
            for metric, (kind, key) in PER_LAYER.items():
                if kind == "time":
                    values[metric] = time_by[rnd, key]
                elif kind == "calls":
                    values[metric] = calls_by[rnd, key]
                elif kind == "self":
                    values[metric] = self_by[rnd, key]
                elif kind == "count":
                    values[metric] = self.counters[rnd][key]
                else:
                    num, den = key
                    count = self.counters[rnd][num]
                    values[metric] = count / calls_by[rnd, den] if calls_by[rnd, den] else 0.0
            out.append(values)
        return out

    def write(self, path, extra: dict) -> None:
        """Write spans, counters and per-round metrics as JSON."""
        record = dict(extra)
        record["per_round"] = self.per_round()
        record["counters"] = {str(k): dict(v) for k, v in self.counters.items()}
        record["span_fields"] = ["name", "start", "end", "parent", "round"]
        record["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
            fh.write("\n")
