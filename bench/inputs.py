"""Seeded inputs and the known-answer table for the three workloads.

Every generator takes a ``random.Random`` built from the benchmark seed, so
the same seed gives the same inputs.  Inputs are plain strings in the
package's syntax; the package only ever sees those strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from math import comb

XY = ("x", "y")
XYZ = ("x", "y", "z")


@dataclass(frozen=True)
class ExactInput:
    """One exact-routes input: a holomorphic pair (f, g) or a mixed expr."""

    name: str
    variables: tuple[str, ...]
    f: str | None = None
    g: str | None = None
    expr: str | None = None
    # known answers by question ("polar" found/none, "isolated",
    # "tube" yes/no), each with the source that establishes it
    known: dict = field(default_factory=dict)
    source: str = ""

    @property
    def is_pair(self) -> bool:
        return self.expr is None

    def as_dict(self) -> dict:
        return {
            "name": self.name, "variables": list(self.variables), "f": self.f,
            "g": self.g, "expr": self.expr, "known": self.known, "source": self.source,
        }


def _pair(name, f, g, variables, known=None, source=""):
    return ExactInput(name, variables, f=f, g=g, known=known or {}, source=source)


def _expr(name, expr, variables, known=None, source=""):
    return ExactInput(name, variables, expr=expr, known=known or {}, source=source)


# Hand-listed inputs.  Known answers name where they come from; the seeded
# pairs and these inputs are also checked against bench/oracle.py.
HAND_INPUTS = (
    _pair("x2-y3", "x^2", "y^3", XY, {"isolated": "isolated"},
          "test_04; fixture separate-x2-y3"),
    _pair("x-xy2", "x", "x+y^2", XY,
          {"isolated": "not-isolated", "tube": "no", "polar": "none"},
          "test_04; fixture shear-x-xy2"),
    _pair("xy-x", "x*y", "x", XY, {"isolated": "isolated", "tube": "yes", "polar": "found"},
          "test_04; fixture xy-xbar"),
    _pair("x2zy2-y", "x^2 - z*y^2", "y", XYZ,
          {"isolated": "isolated", "tube": "yes", "polar": "found"},
          "test_04; fixture x2zy2-ybar"),
    _pair("yxz2-x", "y*(x+z^2)", "x", XYZ, {"tube": "yes", "polar": "found"},
          "fixture xz2y-xbar"),
    _expr("polar-k2", "x~*y*(x+z^2)", XYZ, {"polar": "found", "tube": "yes"},
          "fixture polar-k2"),
    _expr("polar-k3", "x~*y*(x+z^3)", XYZ, {"polar": "found", "tube": "yes"},
          "fixture polar-k3"),
    # f = x, g has Jacobian 1 at the origin: F is locally u*conj(v), so the
    # critical value 0 is isolated and a tube exists
    _pair("item1-local-diffeo", "x", "x*((y-1)^2+2) + y*(y-1)^2", XY,
          {"isolated": "isolated", "tube": "yes"}, "ROADMAP item 1"),
    # rank-1 weight lattice spanned by p = (35, 11, -73), k = 139
    _expr("item5-rank1", "x^7*y~^3*z + x~^5*y^2*z~^4 + y^6*z~", XYZ,
          {"polar": "found"}, "ROADMAP item 5"),
    # slow plane pairs: about 0.8 s, about 17 s twice, and two that hang
    _pair("slow-x3y4-yx2", "x^3+y^4", "y+x^2", XY, source="ROADMAP baseline"),
    _pair("slow-x4y5-xy2", "x^4+y^5", "x+y^2", XY, source="ROADMAP baseline"),
    _pair("slow-x2y3-xyy3", "x^2+y^3", "x*y+y^3", XY, source="ROADMAP baseline"),
    _pair("hang-x3y4-xyy2", "x^3+y^4", "x*y+y^2", XY, source="ROADMAP item 1"),
    _pair("hang-x3y4-xyy3", "x^3+y^4", "x*y+y^3", XY, source="ROADMAP item 1"),
)

# Coefficients of the seeded pairs: small rationals and Gaussian rationals.
REAL_COEFFS = ("1", "2", "3", "-1", "-2", "1/2")
GAUSS_COEFFS = ("i", "2*i", "(1+i)", "(1-2*i)")

# The seeded draw is narrowed so that no input comes near the 3 s limit at
# the commit that introduced this benchmark: plane pairs are binomials of
# degree <= 2 (random degree-3 plane binomial pairs hang in the lex
# elimination or raise DegenerateEliminationError), 3-variable pairs are
# binomials of degree <= 3.  Measured on 300 draws each: max 0.34 s and
# 0.26 s.
#
# Per-input time spreads over two decades and depends mostly on which
# monomials appear, so a median over a few dozen freshly drawn supports
# moves by a quarter from seed to seed.  It also triples when a coefficient
# is not real (sympy then works over QQ<I>).  The supports, and for each
# coefficient whether it is real or Gaussian (Gaussian with probability
# GAUSS_SHARE), are therefore drawn once, from DESIGN_SEED; the run seed
# draws each coefficient from its class (and redraws them when the pair's
# Jacobian has rank < 2 everywhere).  The ladder's atoms are fixed the same
# way.
DESIGN_SEED = 20261017
SEEDED_SHAPES = ((XY, 2), (XYZ, 3))
SEEDED_PER_SHAPE = 48
GAUSS_SHARE = 0.4


def _monomial(rng: random.Random, variables, max_deg: int) -> str:
    while True:
        e = [rng.randint(0, max_deg) for _ in variables]
        if 1 <= sum(e) <= max_deg:
            return "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(variables, e) if k)


@cache
def _supports() -> list[tuple[tuple[str, ...], list, list]]:
    """Monomial supports (two monomials each) of f and g, each monomial with
    the class its coefficient is drawn from, fixed by DESIGN_SEED."""
    from oracle import jacobian_rank_two

    rng = random.Random(DESIGN_SEED)
    out = []
    for variables, max_deg in SEEDED_SHAPES:
        while sum(v == variables for v, _, _ in out) < SEEDED_PER_SHAPE:
            f, g = (sorted({_monomial(rng, variables, max_deg) for _ in range(2)})
                    for _ in range(2))
            if len(f) == len(g) == 2 and jacobian_rank_two(
                    " + ".join(f), " + ".join(g), variables):
                f, g = ([(mono, GAUSS_COEFFS if rng.random() < GAUSS_SHARE else REAL_COEFFS)
                         for mono in monos] for monos in (f, g))
                out.append((variables, f, g))
    return out


def seeded_pairs(rng: random.Random, start: int) -> list[ExactInput]:
    """One batch: every support with coefficients drawn from rng."""
    from oracle import jacobian_rank_two

    out = []
    for variables, f_monos, g_monos in _supports():
        while True:
            f = " + ".join(f"{rng.choice(cls)}*{m}" for m, cls in f_monos)
            g = " + ".join(f"{rng.choice(cls)}*{m}" for m, cls in g_monos)
            if jacobian_rank_two(f, g, variables):
                break
        out.append(_pair(f"seeded-{start + len(out)}", f, g, variables, source="seeded"))
    return out


# expand-ladder ---------------------------------------------------------------

ATOMS = ("x", "x~", "y", "y~", "z", "z~", "1")
HOLO_ATOMS = ("x", "y", "z", "1")
LADDER_EXPONENTS = tuple(range(6, 15))
LADDER_SUMMANDS = (3, 4)


@dataclass(frozen=True)
class Rung:
    """A powered sum (c1*u1 + ... + cm*um)^k of m distinct atoms, plus a
    holomorphic pair f, g whose product f*conj(g) is formed."""

    expr: str
    atoms: tuple[str, ...]
    coeffs: tuple[tuple[int, int, int, int], ...]  # (re_num, re_den, im_num, im_den)
    k: int
    f: str
    g: str
    f_terms: int
    g_terms: int

    @property
    def terms(self) -> int:
        """Distinct atoms never merge, so the expansion has C(k+m-1, m-1) terms."""
        return comb(self.k + len(self.atoms) - 1, len(self.atoms) - 1)

    def as_dict(self) -> dict:
        return {"expr": self.expr, "f": self.f, "g": self.g, "k": self.k,
                "terms": self.terms, "pair_terms": self.f_terms * self.g_terms}


def _gauss(rng: random.Random) -> tuple[int, int, int, int]:
    re_n, im_n = rng.randint(-9, 9), rng.randint(-9, 9)
    if re_n == 0 and im_n == 0:
        re_n = 1
    return re_n, rng.randint(1, 9), im_n, rng.randint(1, 9)


def _coeff_text(c) -> str:
    re_n, re_d, im_n, im_d = c
    return f"({re_n}/{re_d} + {im_n}/{im_d}*i)"


def _sum_text(atoms, coeffs) -> str:
    return " + ".join(
        _coeff_text(c) if a == "1" else f"{_coeff_text(c)}*{a}" for a, c in zip(atoms, coeffs)
    )


def _design_atoms() -> dict[tuple[int, int], tuple[tuple[str, ...], ...]]:
    """Atoms of each rung's powered sum and of its f and g, by (m, k).

    Rungs alternate between 3 and 4 summands, so the cheap rungs, which set
    the median, are timed throughout a pass rather than in one stretch."""
    rng = random.Random(DESIGN_SEED)
    return {(m, k): (tuple(rng.sample(ATOMS, m)), tuple(rng.sample(HOLO_ATOMS, 3)),
                     tuple(rng.sample(HOLO_ATOMS, 3)))
            for k in LADDER_EXPONENTS for m in LADDER_SUMMANDS}


LADDER_ATOMS = _design_atoms()


def _power(rng: random.Random, atoms, k: int) -> tuple[str, tuple]:
    coeffs = tuple(_gauss(rng) for _ in atoms)
    return f"({_sum_text(atoms, coeffs)})^{k}", coeffs


def ladder(rng: random.Random) -> list[Rung]:
    """One pass: every exponent 6..14 with 3 and with 4 summands; the run
    seed draws the coefficients."""
    rungs = []
    for (m, k), (atoms, f_atoms, g_atoms) in LADDER_ATOMS.items():
        expr, coeffs = _power(rng, atoms, k)
        f, _ = _power(rng, f_atoms, k // 2)
        g, _ = _power(rng, g_atoms, k - k // 2)
        rungs.append(Rung(expr, atoms, coeffs, k, f, g,
                          comb(k // 2 + 2, 2), comb(k - k // 2 + 2, 2)))
    return rungs
