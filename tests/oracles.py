"""Independent oracles for the test suite.

Everything here recomputes answers through a mechanism different from the
package internals: sympy calculus on independent conjugate symbols,
brute-force lattice enumeration, pointwise finite differences, numeric
rank sampling.  Agreement with these is what the tests mean by "correct".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import sympy as sp

from mixedsing.core import ComplexRational, MixedPolynomial


# ---- symbolic mixed calculus on independent symbols ----------------------------
#
# A mixed polynomial is a polynomial in z_1..z_n and their conjugates; for
# differentiation purposes the conjugates are independent symbols w_j.

def mixed_symbols(n: int):
    zs = sp.symbols(f"z1:{n + 1}")
    ws = sp.symbols(f"w1:{n + 1}")
    return zs, ws


def to_sympy(F: MixedPolynomial, zs, ws):
    total = sp.Integer(0)
    for pair, c in F.terms.items():
        coeff = sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
            c.im.numerator, c.im.denominator
        )
        mon = sp.Integer(1)
        for j in range(F.n_vars):
            if pair.nu[j]:
                mon *= zs[j] ** pair.nu[j]
            if pair.mu[j]:
                mon *= ws[j] ** pair.mu[j]
        total += coeff * mon
    return sp.expand(total)


def expr_to_dict(expr, zs, ws):
    """{(nu, mu): (re, im)} with exact Fractions; empty dict for zero."""
    n = len(zs)
    expr = sp.expand(expr)
    if expr == 0:
        return {}
    poly = sp.Poly(expr, *zs, *ws, domain="QQ_I")
    out = {}
    for monom, coeff in poly.terms():
        nu = tuple(int(e) for e in monom[:n])
        mu = tuple(int(e) for e in monom[n:])
        re_q, im_q = sp.sympify(coeff).as_real_imag()
        re_q, im_q = sp.Rational(re_q), sp.Rational(im_q)
        out[(nu, mu)] = (
            Fraction(int(re_q.p), int(re_q.q)),
            Fraction(int(im_q.p), int(im_q.q)),
        )
    return out


def poly_to_dict(F: MixedPolynomial):
    return {
        (pair.nu, pair.mu): (c.re, c.im)
        for pair, c in F.terms.items()
    }


def oracle_wirtinger(F: MixedPolynomial):
    """Both gradients as tuples of term dicts, via sympy differentiation."""
    zs, ws = mixed_symbols(F.n_vars)
    expr = to_sympy(F, zs, ws)
    dF = tuple(expr_to_dict(sp.diff(expr, z), zs, ws) for z in zs)
    dbarF = tuple(expr_to_dict(sp.diff(expr, w), zs, ws) for w in ws)
    return dF, dbarF


def oracle_evaluate(F: MixedPolynomial, point) -> complex:
    zs, ws = mixed_symbols(F.n_vars)
    expr = to_sympy(F, zs, ws)
    subs = {}
    for j, v in enumerate(point):
        subs[zs[j]] = complex(v)
        subs[ws[j]] = complex(v).conjugate()
    return complex(expr.evalf(subs=subs, n=30))


def oracle_conjugate(F: MixedPolynomial, point) -> complex:
    """conj(F)(z) must equal conj(F(z)); evaluated through sympy."""
    return oracle_evaluate(F, point).conjugate()


# ---- finite-difference real Jacobian -------------------------------------------


def fd_real_gradients(F: MixedPolynomial, point, h: float = 1e-5):
    """Numeric d/dx_j and d/dy_j of F at point, by central differences.

    The Wirtinger identities give dF_j + dbarF_j for the x-derivative and
    i*(dF_j - dbarF_j) for the y-derivative.
    """
    z = np.array([complex(v) for v in point], dtype=complex)
    n = z.size
    dx = np.zeros(n, dtype=complex)
    dy = np.zeros(n, dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = h
        dx[j] = (F.evaluate(tuple(z + e)) - F.evaluate(tuple(z - e))) / (2 * h)
        e[j] = 1j * h
        dy[j] = (F.evaluate(tuple(z + e)) - F.evaluate(tuple(z - e))) / (2 * h)
    return dx, dy


# ---- brute-force polar enumeration ----------------------------------------------


def polar_rows(F: MixedPolynomial):
    return sorted({tuple(n - m for n, m in zip(p.nu, p.mu)) for p in F.terms})


def brute_polar_solutions(F: MixedPolynomial, bound: int, *, require_nonzero_k=True):
    """All admissible (p, k) with every |p_j| <= bound, by raw enumeration."""
    rows = polar_rows(F)
    n = F.n_vars
    sols = []
    values = [v for v in range(-bound, bound + 1) if v != 0]
    for p in product(values, repeat=n):
        g = 0
        for x in p:
            g = np.gcd(g, abs(x))
        if g != 1:
            continue
        ks = {sum(pi * di for pi, di in zip(p, row)) for row in rows}
        if len(ks) != 1:
            continue
        k = ks.pop()
        if require_nonzero_k and k == 0:
            continue
        sols.append((p, k))
    return sols


def canonical_key(p, k):
    """The documented tie-break: fewest total weight, smallest |k|,
    positive k preferred, then lexicographically largest p."""
    return (sum(abs(x) for x in p), abs(k), 0 if k > 0 else 1, tuple(-x for x in p))


# ---- numeric rank oracle for branch restrictions --------------------------------


def numeric_branch_singular(p: int, terms, *, radii=(0.35, 0.2), angles=16,
                            tol: float = 1e-6) -> bool:
    """Is phi(t) = t^p * conj(v(t)) rank-deficient near 0, by sampling?

    For a map C -> C the real Jacobian is singular iff |phi_t| == |phi_tbar|;
    the germ is non-submersive iff that holds at every sample point.  The
    line case is an exact identity at any radius, while a second branch
    term deviates at relative order |t|^gap, so the radii sit where that
    deviation clears the tolerance instead of deep in the germ.
    """
    coeffs = [(complex(c), int(e)) for c, e in terms]

    def v(t):
        return sum(c * t ** e for c, e in coeffs)

    def dv(t):
        return sum(c * e * t ** (e - 1) for c, e in coeffs)

    for r in radii:
        for a in range(angles):
            t = r * np.exp(2j * np.pi * (a + 0.37) / angles)
            phi_t = p * t ** (p - 1) * np.conj(v(t))
            phi_tbar = t ** p * np.conj(dv(t))
            m = max(abs(phi_t), abs(phi_tbar))
            if m == 0:
                continue
            if abs(abs(phi_t) - abs(phi_tbar)) / m > tol:
                return False
    return True


# ---- random polynomial generator -------------------------------------------------


def random_mixed(rng: np.random.Generator, *, n_vars=None, max_terms=4,
                 max_degree=3, allow_zero=False) -> MixedPolynomial:
    """Small random mixed polynomial with rational coefficients."""
    from mixedsing.core import ExponentPair

    n = int(n_vars if n_vars is not None else rng.integers(1, 4))
    n_terms = int(rng.integers(0 if allow_zero else 1, max_terms + 1))
    terms = {}
    for _ in range(n_terms):
        nu = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
        mu = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
        re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        im = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        if re == 0 and im == 0:
            re = Fraction(1)
        terms[ExponentPair(nu, mu)] = ComplexRational(re, im)
    return MixedPolynomial(n, terms)


def recursive_box_search(basis, boxes, n, bound, require_nonzero_k):
    """Canonical (p, k) in the coefficient box, by recursive Python-int walk.

    The reference for polar._search_box: visits every c with |c_i| <= boxes[i],
    keeps sum_i c_i * basis[i] when every p_j != 0, k != 0 (if required) and
    sum|p| <= bound, divides by the gcd and keeps the least canonical_key.
    """
    best = None
    best_pk = None
    r = len(basis)

    def rec(i, acc):
        nonlocal best, best_pk
        if i == r:
            p = tuple(acc[:n])
            k = acc[n]
            if any(x == 0 for x in p):
                return
            if k == 0 and require_nonzero_k:
                return
            if sum(abs(x) for x in p) > bound:
                return
            g = 0
            for x in p:
                g = gcd(g, abs(x))
            g = gcd(g, abs(k))
            if g > 1:
                p = tuple(x // g for x in p)
                k //= g
            key = canonical_key(p, k)
            if best is None or key < best:
                best, best_pk = key, (p, k)
            return
        for c in range(-boxes[i], boxes[i] + 1):
            nxt = [a + c * b for a, b in zip(acc, basis[i])] if i else [c * b for b in basis[i]]
            rec(i + 1, nxt)

    rec(0, [0] * (n + 1))
    return best_pk


# ---- germ-local elimination reference for plane discriminants -------------------


def elimination_discriminant(f: MixedPolynomial, g: MixedPolynomial):
    """The discriminant germ at 0 of a plane pair, by lex elimination.

    Each Gaussian-irreducible Jacobian factor P with P(0, 0) = 0 gives the
    prime ideal (P, f - u, g - v).  Its elimination ideal in (u, v) is
    principal when P maps onto a curve (the generator is kept) and maximal
    when P maps to a point (the origin, which adds nothing to the germ).
    The product of the kept curves comes back as a PlaneCurve, so that
    line_components can read its lines.
    """
    from mixedsing import PlaneCurve
    from mixedsing.core import ExponentPair

    zs, ws = mixed_symbols(2)
    x, y = zs
    u, v = sp.symbols("u v")
    fs, gs = to_sympy(f, zs, ws), to_sympy(g, zs, ws)
    jac = sp.expand(sp.diff(fs, x) * sp.diff(gs, y) - sp.diff(fs, y) * sp.diff(gs, x))
    _, factors = sp.factor_list(jac, x, y, gaussian=True)
    h = sp.Integer(1)
    for P, _mult in factors:
        if not P.free_symbols & {x, y} or P.subs({x: 0, y: 0}) != 0:
            continue
        G = sp.groebner([fs - u, gs - v, P], x, y, u, v, order="lex", domain="QQ_I")
        elim = [e for e in G.exprs if not e.free_symbols & {x, y}]
        if len(elim) == 1:
            h *= elim[0]
    if h == 1:
        return PlaneCurve(h=None, origin_only=True)
    terms = expr_to_dict(h, (u, v), ws)
    hp = MixedPolynomial(
        2, {ExponentPair(nu, mu): ComplexRational(*c) for (nu, mu), c in terms.items()}
    )
    return PlaneCurve(h=hp, origin_only=False, components=(hp,))


# ---- float normal-plane tracker for limit planes along curves -------------------


def grassmann_distance(Q1: np.ndarray, Q2: np.ndarray) -> float:
    """Geodesic distance on the Grassmannian: l2 norm of principal angles.

    Both arguments must be orthonormal row bases of equal dimension; planes
    of different dimension are incomparable and raise ValueError.
    """
    Q1 = np.asarray(Q1, dtype=float)
    Q2 = np.asarray(Q2, dtype=float)
    if Q1.shape != Q2.shape:
        raise ValueError(f"incomparable subspace dimensions {Q1.shape[0]} != {Q2.shape[0]}")
    if Q1.shape[0] == 0:
        return 0.0
    M = Q1 @ Q2.T
    # cosines alone lose ~sqrt(eps) accuracy near angle 0 (arccos of 1 - eps),
    # so pair them with sines of the projection residual and use atan2
    cos = np.sort(np.clip(np.linalg.svd(M, compute_uv=False), 0.0, 1.0))[::-1]
    resid = Q2 - M.T @ Q1
    sin = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0))
    return float(np.linalg.norm(np.arctan2(sin, cos)))


def curve_at(curve, t: float) -> np.ndarray:
    """Float value of a CurveGerm at the real parameter t."""
    return np.array(
        [sum(complex(c) * t ** e for c, e in comp) for comp in curve.components], dtype=complex
    )


def least_squares_mu(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> complex:
    """Least-squares mu with w = mu*a + conj(mu)*b at one float frame (a, b).

    Realified, w = alpha (a+b) + beta i(a-b) with mu = alpha + i*beta.
    """
    from mixedsing._numeric import realify

    M = np.stack([realify(a + b), realify(1j * (a - b))], axis=-1)
    (alpha, beta), *_ = np.linalg.lstsq(M, realify(w), rcond=None)
    return complex(alpha, beta)


def track_normal_plane(F: MixedPolynomial, curve, *, t0=0.1, rho=0.5, max_shells=60,
                       conv_tol=1e-9, conv_run=3):
    """Float limit of the normal plane of F along a curve, shell by shell.

    Evaluates the frame at t_j = t0 * rho^j and declares convergence when the
    Grassmann distance between consecutive rank-2 shell planes stays below
    conv_tol for conv_run steps.  Returns (Q, ratios): the last orthonormal
    row basis in R^(2n), or None without convergence, and s_1 / s_0 of the
    frame at every shell visited.  Rounding moves the plane by about
    eps / (s_1 / s_0), so Q is only as good as the smallest ratio allows.
    """
    from mixedsing._numeric import compile_frame, normal_plane

    frame = compile_frame(F)
    prev, run, ratios = None, 0, []
    for t in t0 * rho ** np.arange(max_shells):
        plane = normal_plane(*frame(curve_at(curve, float(t))))
        ratios.append(float(plane.s[1] / plane.s[0]) if plane.rank else 0.0)
        if plane.rank < 2:
            return None, ratios
        Q = plane.Vt[:2]
        run = run + 1 if prev is not None and grassmann_distance(prev, Q) < conv_tol else 0
        prev = Q
        if run >= conv_run:
            return Q, ratios
    return None, ratios
