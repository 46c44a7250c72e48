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
exact halves a, b in Q(i)[t] and realifying gives rows A = a+b, B = i(a-b)
in Q[t]^(2n).  The Plucker coordinates p_ij = A_i B_j - A_j B_i of the plane
are then polynomials too, and the limit plane's Plucker vector L is their
lowest-order nonzero coefficient; it exists unless every p_ij vanishes, in
which case the curve lies in the critical locus.  A stratum tangent tau
fails exactly when the contraction iota_tau L is nonzero.

So a per-curve verdict ("compatible", "fail-witness", "inconclusive") is
decided by exact algebra, and a fail witness is a proof of Thom
irregularity along that curve.  "compatible" over a finite battery of
curves is still only evidence.  The limit plane is reported exactly; the
witness's mu and direction and the projection norms are floats from it.

Polynomials in t are one-variable MixedPolynomials on core's cleared
store, so substitution, the frame's realification and the Gram products of
the witness's mu run on its Gaussian-integer arithmetic.  Curve
coefficients and stratum tangents are ComplexRational values; L, its
contractions, the plane's basis (core._rref) and the projection's 2x2
matrix are Fractions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import sqrt

from .core import (
    CR_I, ComplexRational, MixedPolynomial, Record, _cleared, _from_cleared, _gaussian, _inverse,
    _matmul, _rref, complex_point,
)
from .parsing import format_scalar

__all__ = [
    "NormalFamily",
    "CurveGerm",
    "Stratum",
    "CurveProbe",
    "ProbeResult",
    "normal_family_symbolic",
    "default_curve_battery",
    "limit_normal_plane",
    "thom_test",
]

DEFAULT_SEED = 2026  # seeds the curve battery here and the Milnor scan


class NormalFamily(Record):
    """Exact halves of the normal family n_mu = mu*a + conj(mu)*b."""

    a: tuple[MixedPolynomial, ...]  # conj of the z-gradient, as polynomials
    b: tuple[MixedPolynomial, ...]  # the zbar-gradient


def normal_family_symbolic(F: MixedPolynomial) -> NormalFamily:
    """Exact normal family of any mixed polynomial."""
    grad = F.wirtinger()
    return NormalFamily(
        a=tuple(p.conjugate() for p in grad.dF),
        b=grad.dbarF,
    )


def _exact(x) -> ComplexRational:
    """x as a ComplexRational; a float or complex converts to its exact
    binary value (0.1 does not become 1/10)."""
    try:
        return _gaussian(x)
    except TypeError:
        (w,) = complex_point((x,))
        return ComplexRational(Fraction(w.real), Fraction(w.imag))


def _realify_exact(v) -> list[Fraction]:
    """A vector of ComplexRational values in Q^(2n): real parts, then
    imaginary parts."""
    return [c.re for c in v] + [c.im for c in v]


def _unrealify_exact(r) -> tuple[ComplexRational, ...]:
    """Inverse of _realify_exact."""
    n = len(r) // 2
    return tuple(ComplexRational(x, y) for x, y in zip(r[:n], r[n:]))


class CurveGerm(Record):
    """Polynomial probe curve t -> C^n in a real parameter t >= 0.

    Each component is a tuple of (coefficient, exponent) pairs; coefficients
    are kept exact (ints, Fractions, floats and complex numbers convert to
    ComplexRational by their exact binary value).
    """

    components: tuple[tuple[tuple[ComplexRational, int], ...], ...]
    label: str = ""

    def __post_init__(self):
        comps = tuple(
            tuple((_exact(c), e) for c, e in comp) for comp in self.components
        )
        if any(not isinstance(e, int) or e < 0 for comp in comps for _, e in comp):
            raise ValueError("curve exponents must be nonnegative integers")
        object.__setattr__(self, "components", comps)

    @property
    def n_vars(self) -> int:
        return len(self.components)

    def base_point(self) -> tuple[ComplexRational, ...]:
        """The exact point at t = 0."""
        return tuple(
            ComplexRational(sum(c.re for c, e in comp if e == 0), sum(c.im for c, e in comp if e == 0))
            for comp in self.components
        )

    @classmethod
    def from_polynomials(cls, polys, label: str = "") -> "CurveGerm":
        """Build from univariate MixedPolynomial components in one variable t."""
        comps = []
        for p in polys:
            if p.n_vars != 1 or not p.is_holomorphic:
                raise ValueError("curve components must be holomorphic in a single variable t")
            comps.append(tuple((c, pair.nu[0]) for pair, c in p.terms.items()))
        return cls(tuple(comps), label=label)


class Stratum(Record):
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
        if len(_rref([_realify_exact(v) for v in tang])[1]) != len(tang):
            raise ValueError("tangent vectors must be linearly independent over R")


class CurveProbe(Record):
    """The exact limit normal plane along one curve, checked against a stratum.

    plucker is the plane's Plucker vector L, one coordinate per pair i < j
    of realified coordinates (lexicographic); limit_plane its unique reduced
    row echelon basis over Q, each realified row as n Gaussian rationals.
    verdict is "fail-witness" when iota_tau L != 0 for a stratum tangent
    tau, else "compatible"; "inconclusive", with no plane, when the curve
    lies in the critical locus.  projection is the spectral norm of the
    orthogonal projection of the stratum's real tangent space onto the
    plane.  witness holds the curve label, the unit mu selecting the failing
    normal direction, that direction and projection.
    """

    curve: str
    verdict: str
    reason: str
    plucker: tuple[Fraction, ...] | None = None
    limit_plane: tuple[tuple[ComplexRational, ...], ...] | None = None
    projection: float | None = None
    witness: dict | None = None

    @property
    def plane_dims(self) -> tuple[int, ...]:
        """(2,) when a limit plane exists, () when the curve is critical."""
        return () if self.limit_plane is None else (2,)


class ProbeResult(Record):
    """A stratified Thom test: the stratum, its verdict and each curve's probe.

    verdict is "fail-witness" when some curve is, "compatible" (evidence
    only) when every curve is, and "inconclusive" otherwise.  projection is
    the largest projection over the curves (None when no curve has a limit
    plane), and witness the first fail-witness curve's witness.
    """

    stratum: Stratum
    verdict: str
    reason: str
    projection: float | None
    witness: dict | None
    per_curve: tuple[CurveProbe, ...]


def _check_curve_arity(F: MixedPolynomial, curve: CurveGerm) -> None:
    if curve.n_vars != F.n_vars:
        raise ValueError("curve arity does not match the polynomial")


def _frame_along(family: NormalFamily, curve: CurveGerm):
    """Realified frame rows A = a+b and B = i(a-b) along the curve: 2n real
    polynomials in t each, as one-variable MixedPolynomials."""
    # a component may repeat an exponent, so its terms accumulate
    zs = [MixedPolynomial(1, [(((e,), (0,)), c) for c, e in comp]) for comp in curve.components]
    # t is real, so conj(z(t)) conjugates the stored coefficients only
    gens = zs + [_from_cleared(1, d, {m: (x, -y) for m, (x, y) in p.items()})
                 for d, p in map(_cleared, zs)]
    powers, zero = {}, MixedPolynomial.zero(1)

    def along(F: MixedPolynomial) -> MixedPolynomial:
        d, pairs = _cleared(F)
        out = zero
        for m, c in pairs.items():
            mono = _from_cleared(1, d, {(0, 0): c})
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = gens[i] ** e
                    mono = mono * powers[i, e]
            out = out + mono
        return out

    def realify(polys) -> list[MixedPolynomial]:
        """The polys along the curve, realified: the real parts, then the
        imaginary parts, each split off a store over its denominator."""
        stores = [_cleared(along(F)) for F in polys]
        return [_from_cleared(1, d, {m: (c[k], 0) for m, c in p.items() if c[k]})
                for k in (0, 1) for d, p in stores]

    pairs, unit = list(zip(family.a, family.b)), MixedPolynomial.constant(CR_I, curve.n_vars)
    return realify(a + b for a, b in pairs), realify(unit * (a - b) for a, b in pairs)


def _orders(X) -> list[int]:
    """The t-exponents of every term of the polynomials X."""
    return [m[0] for x in X for m in _cleared(x)[1]]


def _coefficient(p, q, k) -> Fraction:
    """The t^k coefficient of p * q, from the cleared stores p and q of two
    real polynomials in t."""
    (dp, P), (dq, Q) = p, q
    return Fraction(sum(x * Q[k - e, 0][0] for (e, _), (x, _) in P.items() if (k - e, 0) in Q),
                    dp * dq)


def _plucker_limit(A, B):
    """(m, L): the lowest t-order m at which some Plucker coordinate
    p_ij = A_i B_j - A_j B_i is nonzero, and the t^m coefficients L of all
    p_ij; None when every p_ij vanishes.  Only the orders up to m are
    computed, not the whole products."""
    oa, ob = _orders(A), _orders(B)
    if not oa or not ob:
        return None
    A, B = [_cleared(x) for x in A], [_cleared(y) for y in B]
    pairs = list(itertools.combinations(range(len(A)), 2))
    for m in range(min(oa) + min(ob), max(oa) + max(ob) + 1):
        L = [_coefficient(A[i], B[j], m) - _coefficient(A[j], B[i], m) for i, j in pairs]
        if any(L):
            return m, L
    return None


def _contract(L, v) -> list:
    """iota_v L over Q, with iota_v (e_i ^ e_j) = v_i e_j - v_j e_i."""
    out = [Fraction(0)] * len(v)
    for (i, j), c in zip(itertools.combinations(range(len(v)), 2), L):
        if c:
            if v[i]:
                out[j] += v[i] * c
            if v[j]:
                out[i] -= v[j] * c
    return out


def _limit_mu(A, B, d) -> complex:
    """Limit of the unit least-squares mu with d = mu*a + conj(mu)*b.

    The fit is (alpha, beta) = G^-1 (A.d, B.d) with G the Gram matrix of A
    and B; det G > 0 for small t > 0, so alpha + i*beta points along
    adj(G) (A.d, B.d), whose lowest-order coefficient gives the limit.  G's
    entries and adj(G) (A.d, B.d) are polynomials in t like A and B.
    """
    zero = MixedPolynomial.zero(1)
    Ad, Bd = (sum((x * c for x, c in zip(X, d) if c), zero) for X in (A, B))
    AA, AB, BB = (sum((x * y for x, y in zip(X, Y)), zero) for X, Y in ((A, A), (A, B), (B, B)))
    alpha, beta = BB * Ad - AB * Bd, AA * Bd - AB * Ad
    m = min(_orders((alpha, beta)))
    mu = complex(*(float(p.coefficient((m,), (0,)).re) for p in (alpha, beta)))
    return mu / abs(mu)


def _plane_basis(L, dim) -> list[list[Fraction]]:
    """The unique reduced row echelon basis over Q of the plane with
    Plucker vector L.  L = u ^ v is decomposable, so iota_{e_r} L is
    u_r v - v_r u; at L's first nonzero coordinate (i, j) the rows for
    r = i, j span the plane, since their wedge is L_ij L."""
    i, j = next(ij for ij, c in zip(itertools.combinations(range(dim), 2), L) if c)
    return _rref([_contract(L, [int(k == r) for k in range(dim)]) for r in (i, j)])[0]


def _projection(B, tangents) -> float:
    """Spectral norm of the orthogonal projection of the span of the real
    tangent rows T onto the span of the rows of B; only the last step is float.

    With G = B B^T, H = T T^T and the orthonormal bases Q = G^(-1/2) B and
    P = H^(-1/2) T, the norm squared is the largest eigenvalue of
    Q P^T P Q^T = YX for X = G^(-1/2), Y = G^(-1/2) (B T^T) H^-1 (T B^T).
    XY and YX have the same eigenvalues, so W = XY, 2x2 over Q, has real
    nonnegative ones, and the largest is (tr W + sqrt(tr^2 - 4 det W)) / 2.
    """
    T = tangents
    BT = _matmul(B, list(zip(*T)))
    G_inv, H_inv = (_inverse(_matmul(X, list(zip(*X)))) for X in (B, T))
    (w00, w01), (w10, w11) = _matmul(_matmul(_matmul(G_inv, BT), H_inv), list(zip(*BT)))
    tr, det = w00 + w11, w00 * w11 - w01 * w10
    return sqrt((float(tr) + sqrt(float(tr * tr - 4 * det))) / 2)


def _probe_curve(family, curve, label, tangents=()) -> CurveProbe:
    """Exact limit plane along one curve, checked against realified stratum
    tangents: the first tau with iota_tau L != 0 makes a fail witness."""
    A, B = _frame_along(family, curve)
    limit = _plucker_limit(A, B)
    if limit is None:
        return CurveProbe(label, "inconclusive", "frame degenerate along the whole curve: "
                          "every Plucker coordinate vanishes, so the curve lies in the "
                          "critical locus")
    m, L = limit
    basis = _plane_basis(L, len(A))
    result = CurveProbe(label, "compatible", f"limit plane from t^{m}", plucker=tuple(L),
                        limit_plane=tuple(map(_unrealify_exact, basis)), projection=0.0)
    w = next((w for w in (_contract(L, tau) for tau in tangents) if any(w)), None)
    if w is None:
        return result
    # -iota_w L / |L|^2 is the orthogonal projection of tau onto the limit plane
    norm2 = sum(c * c for c in L)
    d = [-c / norm2 for c in _contract(L, w)]
    proj = _projection(basis, tangents)
    witness = {
        "curve": label,
        "mu": _limit_mu(A, B, d),
        "direction": tuple(map(complex, _unrealify_exact(d))),
        "projection": proj,
    }
    return result._replace(verdict="fail-witness", witness=witness, projection=proj,
                           reason=f"limit plane from t^{m} meets the stratum tangent")


def limit_normal_plane(F: MixedPolynomial, curve: CurveGerm) -> CurveProbe:
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
    the unit circle, with s = p/q, p in [-9, 9] and q in [1, 9] drawn from
    random.Random(seed); seed must be a non-negative int (ValueError
    otherwise).  The battery is the whole exponent grid when it has at
    most 27 points (n <= 3).  Otherwise it is 27 distinct grid points in
    lexicographic order: the diagonal (e, ..., e), so that every coordinate
    takes every exponent, and a seeded sample of the rest.
    """
    # random.Random seeds from abs(seed) and hashes other objects, so -5
    # would draw the battery of 5 and 1.5 some unrelated one
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"the battery seed must be a non-negative integer, got {seed!r}")
    base = tuple(_exact(w) for w in base_point)
    n = len(base)
    rng = random.Random(seed)
    if 3 ** n <= 27:
        grids = list(itertools.product((1, 2, 3), repeat=n))
    else:
        chosen = {(e,) * n for e in (1, 2, 3)}
        while len(chosen) < 27:
            chosen.add(tuple(rng.randint(1, 3) for _ in range(n)))
        grids = sorted(chosen)
    curves = []
    for exps in grids:
        comps = []
        for j in range(n):
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            r = 1 + s * s
            w = ComplexRational((1 - s * s) / r, 2 * s / r)
            comps.append(((w, exps[j]),) + (((base[j], 0),) if base[j] else ()))
        curves.append(CurveGerm(tuple(comps), label="t^" + ",".join(map(str, exps))))
    return tuple(curves)


def thom_test(F: MixedPolynomial, stratum: Stratum, curves=None) -> ProbeResult:
    """Probe whether limit normal planes along curves annihilate a stratum.

    curves defaults to the battery seeded with DEFAULT_SEED; a caller that
    wants another seed passes default_curve_battery(base, seed=...).  Every
    curve must start at the stratum's base point (ValueError otherwise).
    See CurveProbe and ProbeResult for the verdicts.
    """
    if len(stratum.base_point) != F.n_vars:
        raise ValueError("stratum arity does not match the polynomial")
    if curves is None:
        curves = default_curve_battery(stratum.base_point)
    family = normal_family_symbolic(F)
    tangents = [_realify_exact(v) for v in stratum.tangent]
    per: list[CurveProbe] = []
    for idx, curve in enumerate(curves):
        _check_curve_arity(F, curve)
        label = curve.label or f"curve[{idx}]"
        if curve.base_point() != stratum.base_point:
            start, base = (", ".join(map(format_scalar, p))
                           for p in (curve.base_point(), stratum.base_point))
            raise ValueError(f"curve {label!r} starts at ({start}), not at the "
                             f"stratum base point ({base})")
        per.append(_probe_curve(family, curve, label, tangents))
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
    projection = max((p.projection for p in per if p.projection is not None), default=None)
    return ProbeResult(stratum, verdict, reason, projection, witness, tuple(per))
