"""The program names the benchmark's tracer binds still resolve.

``perfbench/tracer.py`` wraps program functions by qualified name,
private ones included. A rename would surface only as a crash or a
silent zero in a traced benchmark run, so this reads the tracer's metric
table (without installing it) and resolves every span it times or counts.
"""

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
    missing = [name for name in sorted(spans) if not inspect.isfunction(resolve(name))]
    assert missing == []


def test_distance_oracle_signature():
    distances = resolve("geometry.ConstraintField._distances")
    assert list(inspect.signature(distances).parameters) == ["self", "eps", "t", "points"]


def test_repair_returns_constants_with_a_trail(decline_run):
    assert isinstance(decline_run[2].eps_trail, tuple)
