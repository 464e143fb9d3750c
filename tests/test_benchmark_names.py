"""The program names the benchmark's tracer binds still resolve.

``perfbench/tracer.py`` wraps program functions by qualified name,
private ones included. A rename would surface only as a crash or a
silent zero in a traced benchmark run, or as a helper traced under its
new name, so this reads the tracer's tables (without installing it) and
resolves every span it times or counts, every call it reads a counter
off, and every name it traces or leaves untraced by exception.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    module_name, *attrs = dotted.split(".")
    target = importlib.import_module(f"tightpath.{module_name}")
    for attr in attrs:
        target = getattr(target, attr)
    return target


def unresolved(names) -> list:
    """The names that are not program functions."""
    missing = []
    for name in sorted(names):
        try:
            if not inspect.isfunction(resolve(name)):
                missing.append(name)
        except AttributeError:
            missing.append(name)
    return missing


def counter_hooks() -> list:
    """The keys of the ``hooks`` table in ``Tracer._after``, read from the
    tracer's source: the calls whose arguments or results give counters."""
    for node in ast.walk(ast.parse(TRACER.read_text())):
        targets = [getattr(target, "id", "") for target in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["hooks"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("the tracer has no hooks table")


def spans_read(per_layer: dict) -> set:
    spans = set()
    for kind, key in per_layer.values():
        if kind in ("time", "calls", "self"):
            spans.add(key)
        elif kind == "ratio":
            spans.add(key[1])
    return spans


def test_every_traced_span_is_a_program_function():
    spans = spans_read(load_tracer().PER_LAYER)
    assert "repair._sweep" in spans
    assert unresolved(spans) == []


def test_every_counter_hook_is_a_program_function():
    hooks = counter_hooks()
    assert {"repair.repair", "repair.repair_interval", "cli.cmd_certify"} <= set(hooks)
    assert unresolved(hooks) == []


def test_every_name_traced_or_untraced_by_exception_is_a_program_function():
    tracer = load_tracer()
    names = [
        f"{short}.{attr}"
        for table in (tracer._UNTRACED, tracer._EXTRA)
        for short, attrs in table.items()
        for attr in attrs
    ]
    assert "repair.render_report" in names and "repair._sweep" in names
    assert unresolved(names) == []


def test_distance_oracle_signature():
    distances = resolve("geometry.ConstraintField._distances")
    assert list(inspect.signature(distances).parameters) == ["self", "eps", "t", "points"]


def test_repair_returns_constants_with_a_trail(decline_run):
    assert isinstance(decline_run[2].eps_trail, tuple)
