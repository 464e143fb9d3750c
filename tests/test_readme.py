"""README as written: its Python quick start runs, and its "Python API"
section lists exactly the names the package exports."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import tightpath

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    """The text under ``## title``, up to the next second-level heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_start_runs_as_written_and_meets_its_comments():
    block = section("Quick start").split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("import tightpath as tp\n")
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.interiority_margin > 0
    assert report.final_linf_gap <= 0.1
    assert abs(report.final_cost_gap) <= 0.1


def test_python_api_section_lists_every_export():
    # The prose comes first; the names are the backticked words of the list.
    listed = section("Python API").split("\n- ", 1)[1]
    documented = re.findall(r"`([^`]+)`", listed)
    exported = [
        name
        for name, value in vars(tightpath).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(exported)
