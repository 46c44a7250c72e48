"""Answers computed with sympy alone, never through mixedsing.

The benchmark checks the package's verdicts against these.  Inputs use the
package's surface syntax restricted to what the benchmark generates:
variables x, y, z, postfix ``~`` on a variable for its conjugate, ``i`` for
the imaginary unit, ``^`` for powers and integer fractions ``a/b``.
"""

from __future__ import annotations

import re
from functools import lru_cache

import sympy as sp

HOLO = sp.symbols("x y z")
CONJ = sp.symbols("xb yb zb")
_CONJ_OF = dict(zip(HOLO, CONJ))


def to_sympy(text: str, variables) -> sp.Expr:
    """Translate benchmark syntax into a sympy expression."""
    names = {str(s): s for s in (*HOLO, *CONJ)}
    src = re.sub(r"\b([xyz])~", r"\1b", text).replace("^", "**")
    src = re.sub(r"\bi\b", "I", src)
    for v in variables:
        if v not in ("x", "y", "z"):
            raise ValueError(f"unsupported variable {v!r}")
    return sp.expand(sp.sympify(src, locals={**names, "I": sp.I}))


def conjugate(expr: sp.Expr) -> sp.Expr:
    swap = {**_CONJ_OF, **{b: h for h, b in _CONJ_OF.items()}}
    return sp.expand(expr.xreplace(swap).xreplace({sp.I: -sp.I}))


def pair_product(f_text: str, g_text: str, variables) -> sp.Expr:
    """f * conj(g) for a holomorphic pair."""
    return sp.expand(to_sympy(f_text, variables) * conjugate(to_sympy(g_text, variables)))


def exponent_pairs(expr: sp.Expr, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    gens = (*HOLO[:n], *CONJ[:n])
    poly = sp.Poly(expr, *gens)
    return [(m[:n], m[n:]) for m in poly.monoms()]


def polar_weights_exist(terms, n: int) -> bool:
    """Do integer weights p (all nonzero) and degree k != 0 exist?

    The solutions (p, k) of p . (nu - mu) = k over all terms form a lattice.
    A vector with every coordinate nonzero exists exactly when no coordinate
    vanishes on the whole lattice (a lattice is not a finite union of
    proper sublattices of infinite index).
    """
    rows = [[a - b for a, b in zip(nu, mu)] + [-1] for nu, mu in terms]
    basis = sp.Matrix(rows).nullspace()
    if not basis:
        return False
    return all(any(v[j] != 0 for v in basis) for j in range(n + 1))


def weights_valid(terms, p, k) -> bool:
    if k == 0 or any(x == 0 for x in p):
        return False
    return all(sum(pj * (a - b) for pj, a, b in zip(p, nu, mu)) == k for nu, mu in terms)


def _jac(a, b, x, y):
    return sp.expand(sp.diff(a, x) * sp.diff(b, y) - sp.diff(a, y) * sp.diff(b, x))


def _divides(p, q, gens) -> bool:
    _, r = sp.div(q, p, *gens, domain="QQ_I")
    return sp.expand(r) == 0


@lru_cache(maxsize=None)
def plane_isolated(f_text: str, g_text: str) -> bool:
    """Is 0 an isolated critical value of f * conj(g) for a plane pair?

    Germ-local line test: a Q(i)-irreducible Jacobian factor P through the
    origin maps onto a non-axis line exactly when P divides
    f*Jac(g, P) - g*Jac(f, P) and divides neither f nor g.  The value is
    isolated exactly when no such factor exists (Pichon-Seade).
    """
    x, y = HOLO[:2]
    f = to_sympy(f_text, ("x", "y"))
    g = to_sympy(g_text, ("x", "y"))
    J = _jac(f, g, x, y)
    if J == 0:
        raise ValueError("pair Jacobian vanishes identically")
    _, factors = sp.factor_list(J, x, y, extension=sp.I)
    for P, _mult in factors:
        if P.free_symbols.isdisjoint({x, y}) or P.subs({x: 0, y: 0}) != 0:
            continue
        if _divides(P, f, (x, y)) or _divides(P, g, (x, y)):
            continue
        if _divides(P, sp.expand(f * _jac(g, P, x, y) - g * _jac(f, P, x, y)), (x, y)):
            return False
    return True


def jacobian_rank_two(f_text: str, g_text: str, variables) -> bool:
    """Some 2x2 minor of the pair's Jacobian is not identically zero."""
    gens = HOLO[: len(variables)]
    f, g = to_sympy(f_text, variables), to_sympy(g_text, variables)
    return any(
        _jac(f, g, gens[i], gens[j]) != 0
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
