"""Exact limits of normal planes along curves, and stratified Thom probes.

At a regular point z of a mixed polynomial F the fibre's normal space is
the real 2-plane

    n_mu(z) = mu * conj(dF)(z) + conj(mu) * dbarF(z),   |mu| = 1,

spanned over R by the frame n_1 = a + b and n_i = i(a - b), where
a = conj(dF)(z), b = dbarF(z) (Oka's mixed normal frame).  A stratum S is
Thom-compatible with a family of curves approaching it when limits of these
normal planes annihilate the stratum tangents.

Along a polynomial curve z(t), t >= 0 real, with Gaussian rational
coefficients, the frame is polynomial in t: substituting the curve into the
exact halves a, b in QQ_I[t] and realifying gives rows A = a+b, B = i(a-b)
in Q[t]^(2n).  The Plucker coordinates p_ij = A_i B_j - A_j B_i of the plane
are then polynomials too, and the limit plane's Plucker vector L is their
lowest-order nonzero coefficient; it exists unless every p_ij vanishes, in
which case the curve lies in the critical locus.  A stratum tangent tau
fails exactly when the contraction iota_tau L is nonzero.

So a per-curve verdict ("compatible", "fail-witness", "inconclusive") is
decided by exact algebra, and a fail witness is a proof of Thom
irregularity along that curve.  "compatible" over a finite battery of
curves is still only evidence.  The witness's mu and the reported limit
plane basis and projection are floats, derived from the exact data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from ._numeric import compile_vector, real_span_basis, unrealify
from .core import ComplexRational, MixedPolynomial, _check_holomorphic_pair, _coerce_scalar
from .core import complex_point
from .parsing import format_scalar

__all__ = [
    "NormalFamily",
    "NormalFrame",
    "CurveGerm",
    "Stratum",
    "ProbeResult",
    "normal_family_symbolic",
    "pair_normal_family",
    "normal_family",
    "default_curve_battery",
    "limit_normal_plane",
    "thom_test",
]

DEFAULT_SEED = 2026  # seeds the curve battery here and the Milnor scan

_TI = ring("t", QQ_I)[0]  # a curve and the frame halves along it
_TQ = ring("t", QQ)[0]  # the realified frame and its Plucker coordinates


@dataclass(frozen=True)
class NormalFamily:
    """Symbolic halves of the normal family: n_mu = mu*a + conj(mu)*b."""

    a: tuple[MixedPolynomial, ...]  # conj of the z-gradient, as polynomials
    b: tuple[MixedPolynomial, ...]  # the zbar-gradient

    @property
    def n_vars(self) -> int:
        return len(self.a)

    @cached_property
    def _evaluate(self):
        """Compiled evaluator z -> (a(z), b(z)), built on first use."""
        a_ev, b_ev = compile_vector(self.a), compile_vector(self.b)
        return lambda Z: (a_ev(Z), b_ev(Z))

    def frame_at(self, z) -> "NormalFrame":
        pt = complex_point(z, self.n_vars)
        av, bv = self._evaluate(pt)
        return NormalFrame(
            point=pt,
            n_one=tuple(av + bv),
            n_i=tuple(1j * (av - bv)),
        )

    def n_mu_at(self, z, mu: complex) -> tuple[complex, ...]:
        mu = complex(mu)
        if abs(abs(mu) - 1.0) > 1e-12:
            raise ValueError("mu must lie on the unit circle")
        av, bv = self._evaluate(complex_point(z, self.n_vars))
        return tuple(mu * av + np.conj(mu) * bv)


@dataclass(frozen=True)
class NormalFrame:
    """The two frame vectors spanning the normal 2-plane at a point."""

    point: tuple[complex, ...]
    n_one: tuple[complex, ...]
    n_i: tuple[complex, ...]


def normal_family_symbolic(F: MixedPolynomial) -> NormalFamily:
    """Exact normal family of any mixed polynomial."""
    grad = F.wirtinger()
    return NormalFamily(
        a=tuple(p.conjugate() for p in grad.dF),
        b=grad.dbarF,
    )


def pair_normal_family(f: MixedPolynomial, g: MixedPolynomial) -> NormalFamily:
    """Normal family of f * conj(g) computed the pair way.

    a = g * conj(df) and b = f * conj(dg); agrees exactly with
    normal_family_symbolic(from_pair(f, g)).
    """
    _check_holomorphic_pair(f, g)
    df = f.wirtinger().dF
    dg = g.wirtinger().dF
    return NormalFamily(
        a=tuple(g * p.conjugate() for p in df),
        b=tuple(f * p.conjugate() for p in dg),
    )


def normal_family(F: MixedPolynomial, z) -> NormalFrame:
    """Numeric frame of the normal 2-plane of F at z."""
    return normal_family_symbolic(F).frame_at(z)


def _exact(x) -> ComplexRational:
    """x as a ComplexRational; a float or complex converts to its exact value."""
    c = _coerce_scalar(x)
    if c is NotImplemented:
        (w,) = complex_point((x,))
        c = ComplexRational(Fraction(w.real), Fraction(w.imag))
    return c


def _realify_exact(v) -> list[Fraction]:
    """An exact vector of C^n in Q^(2n): real parts, then imaginary parts."""
    return [c.re for c in v] + [c.im for c in v]


@dataclass(frozen=True)
class CurveGerm:
    """Polynomial probe curve t -> C^n in a real parameter t >= 0.

    Each component is a tuple of (coefficient, exponent) pairs; coefficients
    are kept exact (ints, Fractions and floats convert to ComplexRational).
    """

    components: tuple[tuple[tuple[ComplexRational, int], ...], ...]
    label: str = ""

    def __post_init__(self):
        comps = tuple(tuple((_exact(c), e) for c, e in comp) for comp in self.components)
        if any(not isinstance(e, int) or e < 0 for comp in comps for _, e in comp):
            raise ValueError("curve exponents must be nonnegative integers")
        object.__setattr__(self, "components", comps)

    @property
    def n_vars(self) -> int:
        return len(self.components)

    def base_point(self) -> tuple[ComplexRational, ...]:
        """The exact point at t = 0."""
        return tuple(
            sum((c for c, e in comp if e == 0), ComplexRational()) for comp in self.components
        )

    @classmethod
    def from_polynomials(cls, polys, label: str = "") -> "CurveGerm":
        """Build from univariate MixedPolynomial components in one variable t."""
        comps = []
        for p in polys:
            if p.n_vars != 1 or not p.is_holomorphic:
                raise ValueError("curve components must be holomorphic in a single variable t")
            comps.append(tuple((c, pair.nu[0]) for pair, c in p.sorted_terms()))
        return cls(tuple(comps), label=label)


@dataclass(frozen=True)
class Stratum:
    """A candidate stratum germ: exact base point plus real-independent tangents."""

    base_point: tuple[ComplexRational, ...]
    tangent: tuple[tuple[ComplexRational, ...], ...]
    label: str = ""

    def __post_init__(self):
        base = tuple(_exact(w) for w in self.base_point)
        tang = tuple(tuple(_exact(w) for w in v) for v in self.tangent)
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "tangent", tang)
        if not tang:
            raise ValueError("stratum needs at least one tangent vector")
        if any(len(v) != len(base) for v in tang):
            raise ValueError(f"tangent vectors must have {len(base)} coordinates")
        rows = [[QQ(q.numerator, q.denominator) for q in _realify_exact(v)] for v in tang]
        if DomainMatrix(rows, (len(rows), 2 * len(base)), QQ).rank() != len(tang):
            raise ValueError("tangent vectors must be linearly independent over R")

    def tangent_basis(self) -> np.ndarray:
        return real_span_basis([[complex(w) for w in v] for v in self.tangent])


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a limit normal plane probe (optionally against a stratum).

    verdict is "compatible", "fail-witness" or "inconclusive".  plucker is
    the exact Plucker vector L of the limit plane, one coordinate per pair
    i < j of realified coordinates (lexicographic), and limit_plane a float
    orthonormal basis of the same plane; plane_dims is (2,) when a limit
    plane exists and () when the curve lies in the critical locus.  For a
    stratified test, witness carries the offending curve label, the unit mu
    selecting the failing normal direction, and that direction itself.
    """

    verdict: str
    limit_plane: tuple[tuple[complex, ...], ...] | None
    plane_dims: tuple[int, ...]
    reason: str = ""
    witness: dict | None = None
    per_curve: tuple["ProbeResult", ...] = field(default=())
    projection: float | None = None
    plucker: tuple[Fraction, ...] | None = None


def _check_curve_arity(F: MixedPolynomial, curve: CurveGerm) -> None:
    if curve.n_vars != F.n_vars:
        raise ValueError("curve arity does not match the polynomial")


def _frame_along(family: NormalFamily, curve: CurveGerm):
    """Realified frame rows A = a+b and B = i(a-b) along the curve, in Q[t]^(2n)."""
    zs = [sum((_TI({(e,): QQ_I(c.re, c.im)}) for c, e in comp), _TI.zero)
          for comp in curve.components]
    # t is real, so conj(z(t)) conjugates the coefficients only
    gens = zs + [_TI.from_dict({m: c.new(c.x, -c.y) for m, c in z.items()}) for z in zs]

    def along(p: MixedPolynomial):
        return sum((prod((g ** e for g, e in zip(gens, m) if e), start=_TI.ground_new(c))
                    for m, c in p._poly.items()), _TI.zero)

    def parts(p):
        return (_TQ.from_dict({m: c.x for m, c in p.items()}),
                _TQ.from_dict({m: c.y for m, c in p.items()}))

    a, b = [along(p) for p in family.a], [along(p) for p in family.b]
    n_one = [parts(x + y) for x, y in zip(a, b)]
    diff = [parts(x - y) for x, y in zip(a, b)]
    return ([re for re, _ in n_one] + [im for _, im in n_one],
            [-im for _, im in diff] + [re for re, _ in diff])


def _lowest_order(polys):
    """The lowest t-order among the nonzero polynomials, or None if all are 0."""
    return min((min(p.itermonoms())[0] for p in polys if p), default=None)


def _contract(L, v) -> list[Fraction]:
    """iota_v L, with iota_v (e_i ^ e_j) = v_i e_j - v_j e_i."""
    out = [Fraction(0)] * len(v)
    for (i, j), c in zip(itertools.combinations(range(len(v)), 2), L):
        out[j] += v[i] * c
        out[i] -= v[j] * c
    return out


def _limit_mu(A, B, d) -> complex:
    """Limit of the unit least-squares mu with d = mu*a + conj(mu)*b.

    The fit is (alpha, beta) = G^-1 (A.d, B.d) with G the Gram matrix of A
    and B; det G > 0 for small t > 0, so alpha + i*beta points along
    adj(G) (A.d, B.d), whose lowest-order coefficient gives the limit.
    """
    d = [QQ(q.numerator, q.denominator) for q in d]
    Ad, Bd = (sum((x.mul_ground(c) for x, c in zip(X, d) if c), _TQ.zero) for X in (A, B))
    AA, AB, BB = (sum((x * y for x, y in zip(X, Y)), _TQ.zero) for X, Y in ((A, A), (A, B), (B, B)))
    alpha, beta = BB * Ad - AB * Bd, AA * Bd - AB * Ad
    m = (_lowest_order((alpha, beta)),)
    mu = complex(float(alpha.get(m, QQ.zero)), float(beta.get(m, QQ.zero)))
    return mu / abs(mu)


def _probe_curve(family, curve, label, tangents=(), T=None) -> ProbeResult:
    """Exact limit plane along one curve, checked against realified stratum
    tangents: the first tau with iota_tau L != 0 makes a fail witness."""
    A, B = _frame_along(family, curve)
    P = [A[i] * B[j] - A[j] * B[i] for i, j in itertools.combinations(range(len(A)), 2)]
    m = _lowest_order(P)
    if m is None:
        return ProbeResult("inconclusive", None, (), reason="frame degenerate along the "
                           "whole curve: every Plucker coordinate vanishes, so the curve "
                           "lies in the critical locus")
    L = tuple(Fraction(int(c.numerator), int(c.denominator))
              for c in (p.get((m,), QQ.zero) for p in P))
    M = np.zeros((len(A), len(A)))
    for (i, j), c in zip(itertools.combinations(range(len(A)), 2), L):
        M[i, j], M[j, i] = c, -c
    Q = np.linalg.svd(M)[2][:2]  # an orthonormal basis of the row space of L
    result = ProbeResult("compatible", tuple(map(tuple, unrealify(Q))), (2,), plucker=L,
                         reason=f"limit plane from t^{m}", projection=0.0)
    w = next((w for w in (_contract(L, tau) for tau in tangents) if any(w)), None)
    if w is None:
        return result
    # -iota_w L / |L|^2 is the orthogonal projection of tau onto the limit plane
    norm2 = sum(c * c for c in L)
    d = [-c / norm2 for c in _contract(L, w)]
    proj = float(np.linalg.norm(Q @ T.T, 2))
    witness = {
        "curve": label,
        "mu": _limit_mu(A, B, d),
        "direction": tuple(complex(x) for x in unrealify(np.array(d, dtype=float))),
        "projection": proj,
    }
    return replace(result, verdict="fail-witness", witness=witness, projection=proj,
                   reason=f"limit plane from t^{m} meets the stratum tangent")


def limit_normal_plane(F: MixedPolynomial, curve: CurveGerm) -> ProbeResult:
    """The exact limit of the normal 2-plane of F along a curve as t -> 0+.

    "compatible", with the limit plane, when some Plucker coordinate of the
    frame is nonzero along the curve; "inconclusive" when the curve lies in
    the critical locus.
    """
    _check_curve_arity(F, curve)
    return _probe_curve(normal_family_symbolic(F), curve, curve.label)


def default_curve_battery(base_point, *, seed: int = DEFAULT_SEED) -> tuple[CurveGerm, ...]:
    """Monomial curves base + (w_1 t^{a_1}, ..., w_n t^{a_n}), a in {1, 2, 3}^n.

    Each direction w = ((1 - s^2) + 2is) / (1 + s^2) is an exact point of
    the unit circle, with s = p/q, p in [-9, 9] and q in [1, 9] drawn from a
    seeded generator.  The battery is the whole exponent grid when it has at
    most 27 points (n <= 3).  Otherwise it is 27 distinct grid points in
    lexicographic order: the diagonal (e, ..., e), so that every coordinate
    takes every exponent, and a seeded sample of the rest.
    """
    base = tuple(_exact(w) for w in base_point)
    n = len(base)
    rng = np.random.default_rng(seed)
    if 3 ** n <= 27:
        grids = list(itertools.product((1, 2, 3), repeat=n))
    else:
        chosen = {(e,) * n for e in (1, 2, 3)}
        while len(chosen) < 27:
            chosen.add(tuple(int(e) for e in rng.integers(1, 4, size=n)))
        grids = sorted(chosen)
    curves = []
    for exps in grids:
        ps, qs = rng.integers(-9, 10, size=n), rng.integers(1, 10, size=n)
        comps = []
        for j in range(n):
            s = Fraction(int(ps[j]), int(qs[j]))
            w = ComplexRational(1 - s * s, 2 * s) / (1 + s * s)
            comps.append(((w, exps[j]),) + (((base[j], 0),) if base[j] else ()))
        curves.append(CurveGerm(tuple(comps), label="t^" + ",".join(map(str, exps))))
    return tuple(curves)


def thom_test(F: MixedPolynomial, stratum: Stratum, curves=None, *,
              seed: int = DEFAULT_SEED) -> ProbeResult:
    """Probe whether limit normal planes along curves annihilate a stratum.

    Every curve must start at the stratum's base point (ValueError
    otherwise).  A curve is a "fail-witness" when its exact limit plane L
    has iota_tau L != 0 for some stratum tangent tau, "compatible" when
    iota_tau L = 0 for every tangent, and "inconclusive" when it lies in the
    critical locus.  The stratum is "fail-witness" when some curve is,
    "compatible" (evidence only) when every curve is, and "inconclusive"
    otherwise.  projection is the largest projection norm of a unit stratum
    tangent onto a limit plane (None when no curve has one).
    """
    if len(stratum.base_point) != F.n_vars:
        raise ValueError("stratum arity does not match the polynomial")
    if curves is None:
        curves = default_curve_battery(stratum.base_point, seed=seed)
    family = normal_family_symbolic(F)
    tangents = [_realify_exact(v) for v in stratum.tangent]
    T = stratum.tangent_basis()
    per: list[ProbeResult] = []
    for idx, curve in enumerate(curves):
        _check_curve_arity(F, curve)
        label = curve.label or f"curve[{idx}]"
        if curve.base_point() != stratum.base_point:
            start, base = (", ".join(map(format_scalar, p))
                           for p in (curve.base_point(), stratum.base_point))
            raise ValueError(f"curve {label!r} starts at ({start}), not at the "
                             f"stratum base point ({base})")
        per.append(_probe_curve(family, curve, label, tangents, T))
    witness = next((p.witness for p in per if p.witness is not None), None)
    critical = sum(p.verdict == "inconclusive" for p in per)
    if witness is not None:
        verdict, reason = "fail-witness", "a limit normal direction lies in the stratum tangent"
    elif per and not critical:
        verdict, reason = "compatible", "all limit planes annihilate the stratum tangent"
    else:
        verdict = "inconclusive"
        reason = f"{critical} of {len(per)} curves lie in the critical locus" if per \
            else "no probe curves"
    return ProbeResult(
        verdict=verdict,
        limit_plane=None,
        plane_dims=(),
        reason=reason,
        witness=witness,
        per_curve=tuple(per),
        projection=max((p.projection for p in per if p.projection is not None), default=None),
    )
