"""Module boundaries: no module imports another module's private name."""

import ast
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
