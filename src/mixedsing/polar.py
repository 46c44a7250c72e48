"""Polar weighted-homogeneity: exact detection of S^1-symmetry weights.

A mixed polynomial F is polar weighted-homogeneous for nonzero integer
weights p_1..p_n and nonzero degree k when every term satisfies

    sum_j p_j * (nu_j - mu_j) = k,       gcd(|p_1|, ..., |p_n|) = 1.

Then the circle action  lam . z = (lam^{p_1} z_1, ..., lam^{p_n} z_n)
multiplies F by lam^k, which is what makes the Milnor tube fibration work.
The degree k is always required to be nonzero, as in Oka's definition
(Topology of polar weighted homogeneous hypersurfaces, Kodai Math. J. 31
(2008)): with k = 0 the action fixes F, which then need not fibre at all
(|x|^2 + |y|^2 is invariant and real-valued).  No argument relaxes this.

Detection is exact: the admissible (p, k) form a sublattice of Z^{n+1}
(kernel of the term-difference matrix), computed by unimodular integer row
reduction.  A coordinate vanishing on the whole lattice certifies "none";
otherwise weights exist, and the canonical one is searched in the balls
sum|p_j| <= S, S = 1, 2, 4, ...  Each ball is covered by a box of lattice
coefficients, walked on Python ints (never floats); a box over the fixed
budget answers "unknown".
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

from .core import MixedPolynomial, Record, _cleared, _inverse, _matmul

__all__ = ["PolarWeights", "PolarSolution", "solve_polar", "integer_kernel"]

_ENUM_CAP = 5_000_000


class PolarWeights(Record):
    """Validated weight vector p (all nonzero, gcd 1) with nonzero polar degree k."""

    p: tuple[int, ...]
    k: int

    def __post_init__(self):
        p = tuple(int(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if not p:
            raise ValueError("empty weight vector")
        if any(x == 0 for x in p):
            raise ValueError(f"weights must be nonzero: {p}")
        g = 0
        for x in p:
            g = gcd(g, abs(x))
        if g != 1:
            raise ValueError(f"weights must have gcd 1: {p}")
        if not isinstance(self.k, int):
            raise ValueError("polar degree k must be an integer")
        if self.k == 0:
            raise ValueError("polar degree k must be nonzero")


class PolarSolution(Record):
    """Outcome of solve_polar.

    status is "found", "none" (certified absence) or "unknown" (the search
    outgrew its budget; weights exist but were not pinned down).
    lattice_basis spans every integer solution (p, k) of the linear system,
    before the nonzero/gcd side conditions.
    """

    canonical: PolarWeights | None
    lattice_basis: tuple[tuple[int, ...], ...]
    status: str
    reason: str = ""

    def as_report(self) -> dict:
        """The polar section of a report."""
        out = {
            "polar": {"found": "yes", "none": "no", "unknown": "unknown"}[self.status],
            "status": self.status,
            "p": list(self.canonical.p) if self.canonical else None,
            "k": self.canonical.k if self.canonical else None,
            "lattice_basis": [list(v) for v in self.lattice_basis],
        }
        if self.reason:
            out["reason"] = self.reason
        return out


def integer_kernel(rows: list[list[int]], width: int) -> list[list[int]]:
    """Saturated basis of {x in Z^width : M x = 0} for integer matrix M.

    Row-reduces M^T with unimodular row operations while tracking them in
    an identity block; tracker rows matching zeroed rows of the echelon
    form span the kernel.
    """
    m = len(rows)
    # T = [M^T | I], width rows of length m + width
    T = [[rows[r][c] for r in range(m)] + [1 if j == c else 0 for j in range(width)]
         for c in range(width)]
    row = 0
    for col in range(m):
        while True:
            pivots = [r for r in range(row, width) if T[r][col] != 0]
            if not pivots:
                break
            best = min(pivots, key=lambda r: abs(T[r][col]))
            T[row], T[best] = T[best], T[row]
            done = True
            for r in range(row + 1, width):
                if T[r][col] != 0:
                    q = T[r][col] // T[row][col]
                    if q:
                        T[r] = [a - q * b for a, b in zip(T[r], T[row])]
                    if T[r][col] != 0:
                        done = False
            if done:
                row += 1
                break
        if row == width:
            break
    kernel = []
    for r in range(width):
        if all(T[r][c] == 0 for c in range(m)):
            kernel.append(T[r][m:])
    return kernel


def _pinv_colmax(basis: list[list[int]]) -> list[Fraction]:
    """Column maxima of |B^T (B B^T)^{-1}|, exact; used to bound coefficients."""
    Bt = list(zip(*basis))
    P = _matmul(Bt, _inverse(_matmul(basis, Bt)))
    return [max(abs(x) for x in col) for col in zip(*P)]


def _candidate_key(p: tuple[int, ...], k: int):
    # minimize sum|p|, then |k|, prefer k > 0, then lexicographically largest p
    return (sum(abs(x) for x in p), abs(k), 0 if k > 0 else 1, tuple(-x for x in p))


def _search_box(basis, boxes, n: int, bound: int):
    """Canonical (p, k) among sum_i c_i * basis[i], |c_i| <= boxes[i], or None.

    A point is admissible when every p_j != 0, k != 0 and
    sum|p| <= bound; it is then divided by the gcd of its entries and ranked
    by _candidate_key.  The walk is on Python ints.  itertools.product runs
    over the first r - 1 coefficients; each p_j the last row leaves fixed
    must then be nonzero, and what their sum|p| leaves of the bound, the
    slack, caps every other |p_j|.  Those p_j are linear in the last
    coefficient, so it runs over one exact integer interval only.
    """
    *head, last = basis
    rows = [[tuple(c * x for x in v) for c in range(-b, b + 1)]
            for v, b in zip(head, boxes)]
    fixed = [j for j in range(n) if not last[j]]
    moving = [(j, last[j]) for j in range(n) if last[j]]
    best: tuple | None = None
    best_pk: tuple[tuple[int, ...], int] | None = None
    for vecs in itertools.product(*rows):
        acc = [sum(col) for col in zip(*vecs)] if vecs else [0] * (n + 1)
        slack = bound - sum(abs(acc[j]) for j in fixed)
        if slack < 0 or not all(acc[j] for j in fixed):
            continue
        c_lo, c_hi = -boxes[-1], boxes[-1]
        for j, b in moving:
            # -slack <= acc[j] + c * b <= slack
            a = acc[j]
            if b > 0:
                c_lo, c_hi = max(c_lo, -((slack + a) // b)), min(c_hi, (slack - a) // b)
            else:
                c_lo, c_hi = max(c_lo, -((slack - a) // -b)), min(c_hi, (slack + a) // -b)
        pairs = list(zip(acc, last[:n]))
        for c in range(c_lo, c_hi + 1):
            k = acc[n] + c * last[n]
            p = [a + c * b for a, b in pairs]
            s = sum(map(abs, p))
            if not k or s > bound or not all(p):
                continue
            g = gcd(*p, k)
            # sum|p| after the division, the key's first entry, settles most points
            if best is not None and s // g > best[0]:
                continue
            pk = (tuple(x // g for x in p), k // g)
            key = _candidate_key(*pk)
            if best is None or key < best:
                best, best_pk = key, pk
    return best_pk


def solve_polar(F: MixedPolynomial) -> PolarSolution:
    """Find the canonical polar weights of F, or certify their absence.

    The solutions (p, k) form the saturated lattice L spanned by the rows
    (p_i | k_i) of the kernel basis.  If a coordinate vanishes on all of L,
    no admissible weights exist: "none".  Otherwise each coordinate vanishes
    on a proper sublattice only, finitely many of which cannot cover L, so
    admissible weights exist and the search below terminates.

    Why the first ball that holds a candidate gives the global canonical:
    k = p . d for any term difference d, so a lattice vector with p = 0 is
    zero, and the p block P (rows p_i) has full row rank.  A lattice vector
    sum_i c_i (p_i | k_i) thus has c = p P^T (P P^T)^-1, and
    |c_i| <= sum|p| * c_i', where c_i' is column i's largest entry of that
    pseudo-inverse in absolute value (_pinv_colmax).  So the box
    |c_i| <= floor(S * c_i') holds every lattice vector with sum|p| <= S;
    dividing a kept vector by its gcd keeps it in L (L is saturated) and in
    the ball.  _candidate_key ranks by sum|p| first, so once some candidate
    has sum|p| <= S, the canonical one, of least sum|p|, is among those
    searched.  S doubles from 1 until a candidate appears; a box of more
    than _ENUM_CAP points answers "unknown".
    """
    if F.is_zero:
        raise ValueError("the zero polynomial has no meaningful polar weights")
    n = F.n_vars
    diffs = sorted({tuple(a - b for a, b in zip(m[:n], m[n:])) for m in _cleared(F)[1]})
    rows = [list(d) + [-1] for d in diffs]
    basis = integer_kernel(rows, n + 1)
    basis_t = tuple(tuple(v) for v in basis)
    if not basis:
        return PolarSolution(None, basis_t, "none", "solution lattice is trivial")
    for j in range(n):
        if all(v[j] == 0 for v in basis):
            return PolarSolution(None, basis_t, "none", f"weight p_{j+1} is forced to zero")
    if all(v[n] == 0 for v in basis):
        return PolarSolution(None, basis_t, "none", "polar degree k is forced to zero")

    colmax = _pinv_colmax([v[:n] for v in basis])
    S = 1
    while True:
        boxes = [int(S * c) for c in colmax]
        if prod(2 * b + 1 for b in boxes) > _ENUM_CAP:
            return PolarSolution(
                None, basis_t, "unknown",
                f"the coefficient box for sum|p| <= {S} exceeds {_ENUM_CAP} points",
            )
        best_pk = _search_box(basis, boxes, n, S)
        if best_pk is not None:
            return PolarSolution(PolarWeights(*best_pk), basis_t, "found")
        S *= 2
