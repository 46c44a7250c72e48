"""sympy, numpy, dataclasses, inspect and traceback stay off the import path.

No fixture's command loads sympy: the plane fixtures' Jacobians are monomials
c * x^a * y^b, and discgeom classifies every Jacobian factor of degree 1 (the
axes x and y, and a cofactor R of degree 1 in J = c * x^a * y^b * R) on
core's store.  Only a plane Jacobian whose cofactor R has degree >= 2 loads
sympy, to factor R and to classify its factors of degree >= 2.
No module of the package imports numpy; a check on the source enforces it.
The suite itself imports both as references, so each runtime check runs in
a fresh interpreter and reads sys.modules there.

The package's value types subclass core.Record, which generates no code, so
no command imports dataclasses (nor inspect, which it loads), and cli
imports traceback only to print an internal fault.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

FIXTURES = ("polar-k2", "polar-k3", "separate-x2-y3", "shear-x-xy2", "x2zy2-ybar",
            "xy-xbar", "xz2y-xbar")
# the fixtures with a plane pair: their Jacobians are 6*x*y^2, 2*y and -x
PLANE = ("separate-x2-y3", "shear-x-xy2", "xy-xbar")


# stdlib modules no command needs
STDLIB_LEFT_OUT = ("dataclasses", "inspect", "traceback")


def loaded(code: str, *modules: str) -> set[str]:
    """Which of modules are in sys.modules after code runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    script = f"{code}\nimport sys\nprint('loaded:', *[m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    last = out.splitlines()[-1].split()
    assert last[0] == "loaded:", out
    return set(last[1:])


def loads(package: str, code: str) -> bool:
    """Whether package is in sys.modules after code runs in a fresh interpreter."""
    return package in loaded(code, package)


def cli_code(*argv: str) -> str:
    return f"from mixedsing.cli import main\nassert main({list(argv)!r}) == 0"


def cli_loads(package: str, *argv: str) -> bool:
    return loads(package, cli_code(*argv))


@pytest.mark.parametrize("module", ["mixedsing", "mixedsing.cli"])
def test_import_leaves_sympy_out(module):
    assert not loads("sympy", f"import {module}")


@pytest.mark.parametrize("module", ["mixedsing", "mixedsing.cli"])
def test_import_leaves_numpy_out(module):
    assert not loads("numpy", f"import {module}")


@pytest.mark.parametrize("fixture", [f for f in FIXTURES if f not in PLANE])
def test_analyze_without_a_plane_jacobian_leaves_sympy_out(fixture):
    assert not cli_loads("sympy", "analyze", fixture)


@pytest.mark.parametrize("command", ["analyze", "disc"])
@pytest.mark.parametrize("fixture", PLANE)
def test_monomial_plane_jacobian_leaves_sympy_out(command, fixture):
    """The axis factors of a monomial Jacobian are classified on core's
    store, and a degree-1 line form's slope is read off it."""
    assert not cli_loads("sympy", command, fixture)


def test_groebner_route_leaves_sympy_out():
    """disc on a three-variable pair runs the containment check and
    sing_decomposition, both on the in-package Groebner kernel."""
    assert not cli_loads("sympy", "disc", "x2zy2-ybar")


# J = -4*y*(x - y) and J = 2*x - 4*y: each factor has degree 1
LINEAR_COFACTOR_PAIRS = (("y^2", "2*y^2 + (x-y)^2"), ("x^2+y^2", "x+2*y"))


@pytest.mark.parametrize("command", ["analyze", "disc"])
@pytest.mark.parametrize("f,g", LINEAR_COFACTOR_PAIRS)
def test_linear_jacobian_factors_leave_sympy_out(command, f, g):
    """A cofactor R of degree 1 is classified on core's store, like x and y."""
    assert not cli_loads("sympy", command, "--pair", f, g, "--vars", "x,y")


def test_plane_discriminant_loads_sympy():
    """The lazy boundary is reached, and the plane route still works: the
    Jacobian x*(3*x - 8*y^3) has the cubic cofactor 3*x - 8*y^3."""
    assert cli_loads("sympy", "disc", "--pair", "x^3+y^4", "y+x^2", "--vars", "x,y")


@pytest.mark.parametrize("fixture", FIXTURES)
def test_analyze_leaves_numpy_out(fixture):
    assert not cli_loads("numpy", "analyze", fixture)


@pytest.mark.parametrize("argv", [("disc", "x2zy2-ybar"), ("polar", "polar-k2"),
                                  ("thom-probe", "xy-xbar")])
def test_exact_commands_leave_numpy_out(argv):
    assert not cli_loads("numpy", *argv)


def test_no_module_imports_numpy():
    """Read off the source, so an import inside a function counts too."""
    sources = sorted(Path(SRC, "mixedsing").rglob("*.py"))
    assert Path(SRC, "mixedsing", "core.py") in sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.partition(".")[0] == "numpy"]
    assert not found


@pytest.mark.parametrize("module", ["mixedsing", "mixedsing.cli"])
def test_import_leaves_dataclasses_inspect_traceback_out(module):
    assert loaded(f"import {module}", *STDLIB_LEFT_OUT) == set()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_analyze_leaves_dataclasses_inspect_traceback_out(fixture):
    assert loaded(cli_code("analyze", fixture), *STDLIB_LEFT_OUT) == set()
