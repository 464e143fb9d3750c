"""Module boundaries: no module imports another module's private name, only
geometry asks the distance oracle, only the expression engine parses
expressions, only errors.py reads JSON, and the command line loads scipy
only for a lattice field's KD-tree."""

import ast
import json
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


def distance_oracle_reads(path: Path) -> list:
    """Each ``._distances`` or ``.analytic_distance`` a module reads, calls included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("_distances", "analytic_distance"):
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    return found


def test_only_geometry_asks_the_distance_oracle():
    # The constraint field answers its own distance questions, so whether a
    # field's distances are analytic or come from the lattice is decided in
    # geometry.py alone.
    assert distance_oracle_reads(PACKAGE / "geometry.py")
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "geometry.py"]
    offenders = [line for path in sources for line in distance_oracle_reads(path)]
    assert offenders == []


def parses_or_compiles(path: Path) -> bool:
    """Whether a module imports ``ast`` or calls ``compile`` or ``eval``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) and any(a.name == "ast" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "ast":
            return True
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("compile", "eval"):
            return True
    return False


def test_only_the_expression_engine_parses_expressions():
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in sources if parses_or_compiles(path)] == ["expr.py"]


def reads_json(path: Path) -> bool:
    """Whether a module calls ``json.loads`` or ``json.load``, or imports either."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in ("load", "loads") for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads"):
            if getattr(node.value, "id", None) == "json":
                return True
    return False


def test_only_errors_reads_json():
    # One reader of config and bundle files, whose numbers and arrays follow
    # one set of rules: errors.read_json.
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in sources if reads_json(path)] == ["errors.py"]


def fresh_interpreter(probe: str, cwd=None) -> str:
    """Standard output of ``probe`` run in a new Python process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), *sys.path]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # Drift budgets are closed forms: the command line never needs quadrature.
    probe = "import sys, tightpath.cli; print('scipy.integrate' in sys.modules)"
    assert fresh_interpreter(probe) == "False"


def test_cli_import_loads_no_scipy():
    assert fresh_interpreter("import sys, tightpath.cli; " + SCIPY_MODULES) == "[]"


def test_a_motor_pipeline_on_the_analytic_ball_loads_no_scipy(tmp_path):
    # The unit ball answers distances in closed form: no KD-tree, no scipy.
    config = {
        "model": "motor_surge",
        "constraint": {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0},
        "reference": {
            "kind": "boundary-tracking",
            "variant": "surge",
            "clearance": 0.005,
            "x_start": 1.08,
            "finish": 1.06,
        },
        "horizon": 2.0,
        "steps": 200,
        "lambda": 0.1,
        "seed": 0,
    }
    (tmp_path / "scenario.json").write_text(json.dumps(config))
    probe = (
        "import contextlib, io, sys\n"
        "from tightpath import cli\n"
        "commands = [\n"
        "    ['certify', '--config', 'scenario.json', '--out', 'out'],\n"
        "    ['repair', '--config', 'scenario.json', '--bundle', 'out/bundle.json',\n"
        "     '--out', 'out'],\n"
        "    ['evaluate', 'out/x_eps.csv', 'out/u_eps.csv', '--config', 'scenario.json'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in commands]\n"
        "print(codes)\n" + SCIPY_MODULES
    )
    codes, modules = fresh_interpreter(probe, cwd=tmp_path).splitlines()
    assert codes == "[0, 0, 0]" and modules == "[]"


def test_a_lattice_distance_query_loads_scipy_spatial():
    # A lone state reads lattice windows and builds no KD-tree; a query of
    # two states builds one, and so does a lattice field's first cloud.
    field = (
        "import sys, numpy as np\n"
        "from tightpath.geometry import field_from_config\n"
        "field = field_from_config({'components': ['1 - sqrt(x1*x1 + x2*x2)'],\n"
        "                           'box': [[-2.0, 2.0], [-2.0, 2.0]]})\n"
    )
    query = (
        "field._distances(0.05, 0.0, np.array([[1.5, 0.0]]))\n"
        "print('scipy.spatial' in sys.modules)\n"
        "field._distances(0.05, 0.0, np.array([[1.5, 0.0], [0.0, 1.5]]))\n"
        "print('scipy.spatial' in sys.modules)"
    )
    assert fresh_interpreter(field + query).splitlines() == ["False", "True"]
    cloud = "field.boundary_cloud(0.0, 0.05)\nprint('scipy.spatial' in sys.modules)"
    assert fresh_interpreter(field + cloud).splitlines() == ["True"]

