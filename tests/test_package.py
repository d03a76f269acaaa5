"""The package namespace holds only the names its documented users import."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracstefan
from fracstefan import fronttrack

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter on this checkout's sources."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout


def imported_names(source: str) -> set:
    """Names that source takes by `from fracstefan import ...`, submodules left out."""
    names = {alias.name for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ImportFrom) and node.module == "fracstefan"
             for alias in node.names}
    return {name for name in names if importlib.util.find_spec(f"fracstefan.{name}") is None}


def test_namespace_is_what_the_readme_example_and_the_gate_import():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = "\n".join(re.findall(r"```python\n(.*?)```", readme, flags=re.S))
    gate = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    used = imported_names(example) | imported_names(gate)
    assert {"MeshConfig", "bisection_solve", "trap_weights"} <= used
    # __version__ is the package's own, which run.txt records
    assert sorted(fracstefan.__all__) == sorted(used | {"__version__"})
    assert all(hasattr(fracstefan, name) for name in fracstefan.__all__)


def test_closed_form_route_imports_only_the_standard_library():
    # analytic and specfun run on math alone; numpy serves the grid route
    for module in ("analytic", "specfun"):
        path = ROOT / "src" / "fracstefan" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            assert all(top in sys.stdlib_module_names for top in tops), (module, tops)


def test_balance_takes_no_private_name_of_the_stepper():
    # each phase's time rule and the balance's flux live in scheme
    # (_step_weights, flux_terms); fronttrack reaches them by public names
    # and builds no weight table of its own
    path = ROOT / "src" / "fracstefan" / "fronttrack.py"
    taken = [(node.module.rpartition(".")[2], alias.name)
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert ("scheme", "flux_terms") in taken
    assert not [name for module, name in taken if module == "scheme" and name.startswith("_")]
    assert "lag_table" not in [name for _, name in taken]


@pytest.mark.parametrize("code", [
    "import fracstefan.analytic",
    "import fracstefan.cli as cli; cli.build_parser()",
    "import fracstefan.cli as cli; assert cli.main(['exact', '--alpha', '0.5']) == 0",
])
def test_closed_form_route_loads_no_numpy(code):
    # numpy loads with the first grid module, when a grid name is first used;
    # nothing else outside the standard library loads either
    out = run_fresh(f"import sys; before = set(sys.modules); {code}; "
                    "print('numpy' in sys.modules, sorted({name.partition('.')[0] for name in "
                    "set(sys.modules) - before} - set(sys.stdlib_module_names) - {'fracstefan'}))")
    assert out.splitlines()[-1] == "False []"


def test_grid_bindings_resolve_before_any_command():
    # perfbench's tracer wraps these names of cli, and its workloads patch
    # cli.bisection_solve before main runs
    resolve = """
import importlib
import fracstefan.cli as cli
homes = {"bisection_solve": "fronttrack", "front_series": "fronttrack",
         "advance_phase": "scheme", "recover_physical": "scheme",
         "solve_p_exact": "analytic", "u1_exact": "analytic", "u2_exact": "analytic"}
print(all(getattr(cli, name) is getattr(importlib.import_module("fracstefan." + home), name)
          for name, home in homes.items()))
"""
    assert run_fresh(resolve).splitlines()[-1] == "True"
    # a binding set before the grid names load is the one main calls
    patch = """
import fracstefan.cli as cli
from fracstefan import fronttrack
calls = []
def recorded(*args, **kwargs):
    calls.append(args)
    return fronttrack.bisection_solve(*args, **kwargs)
cli.bisection_solve = recorded
assert cli.main(["numeric", "--m1", "4", "--m2", "8", "--n", "6"]) == 0
print(len(calls), cli.front_series is fronttrack.front_series)
"""
    assert run_fresh(patch).splitlines()[-1] == "1 True"
    assert fracstefan.bisection_solve is fronttrack.bisection_solve
