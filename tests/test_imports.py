"""Module boundaries: no module imports another module's private name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tightpath

PACKAGE = Path(tightpath.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """``from .x import _name`` (or ``from tightpath.x import _name``) lines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "tightpath"
        for alias in node.names:
            if internal and alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = [line for path in sources for line in private_imports(path)]
    assert offenders == []


def test_cli_import_leaves_scipy_integrate_unloaded():
    # Drift budgets are closed forms: the command line never needs quadrature.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), *sys.path]))
    probe = "import sys, tightpath.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
