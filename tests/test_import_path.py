"""sympy stays off the import path: only the plane route loads it.

The suite itself imports sympy as its reference, so each check runs in a
fresh interpreter and reads sys.modules there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the fixtures whose analyze factors no plane Jacobian
SYMPY_FREE = ("polar-k2", "polar-k3", "x2zy2-ybar", "xz2y-xbar")


def loads_sympy(code: str) -> bool:
    """Whether sympy is in sys.modules after code runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    script = f"{code}\nimport sys\nprint('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return {"True": True, "False": False}[out.split()[-1]]


def cli_loads_sympy(*argv: str) -> bool:
    return loads_sympy(f"from mixedsing.cli import main\nassert main({list(argv)!r}) == 0")


@pytest.mark.parametrize("module", ["mixedsing", "mixedsing.cli"])
def test_import_leaves_sympy_out(module):
    assert not loads_sympy(f"import {module}")


@pytest.mark.parametrize("fixture", SYMPY_FREE)
def test_analyze_without_a_plane_jacobian_leaves_sympy_out(fixture):
    assert not cli_loads_sympy("analyze", fixture)


def test_groebner_route_leaves_sympy_out():
    """disc on a three-variable pair runs the containment check and
    sing_decomposition, both on the in-package Groebner kernel."""
    assert not cli_loads_sympy("disc", "x2zy2-ybar")


def test_plane_discriminant_loads_sympy():
    """The lazy boundary is reached, and the plane route still works."""
    assert cli_loads_sympy("analyze", "separate-x2-y3")
