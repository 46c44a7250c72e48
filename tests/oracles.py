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

from mixedsing._numeric import realify
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


# ---- pointwise singularity, Milnor and orbit residuals ----------------------------
#
# Scalar float references for the Milnor scan's certificate and the polar
# circle action.  Frames come from the exact normal family evaluated term by
# term (MixedPolynomial.evaluate); nothing here goes through _numeric.


def _frame(F: MixedPolynomial, point):
    """(a, b) = (conj(dF), dbarF) at point, from normal_family_symbolic."""
    from mixedsing import normal_family_symbolic

    fam = normal_family_symbolic(F)
    a = np.array([p.evaluate(point) for p in fam.a], dtype=complex)
    b = np.array([p.evaluate(point) for p in fam.b], dtype=complex)
    return a, b


def _real(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def sing_residual(F: MixedPolynomial, point) -> float:
    """(|a||b| - |<a,b>|) + (|a| - |b|)^2: zero exactly when a = lam*b for
    some unimodular lam (a = b = 0 included), i.e. at singular points."""
    a, b = _frame(F, point)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    # Cauchy-Schwarz gives na*nb >= |<a,b>|; rounding can dip below by ~eps
    return max(0.0, na * nb - abs(complex(np.vdot(b, a)))) + (na - nb) ** 2


def milnor_residual(F: MixedPolynomial, point) -> float:
    """Distance from z/|z| to the real span of (a+b, i(a-b)), by least squares;
    2.0 when that span has rank < 2 (s_1 <= s_0 * 1e-13)."""
    a, b = _frame(F, point)
    M = np.stack([_real(a + b), _real(1j * (a - b))], axis=-1)
    r = _real(np.array([complex(v) for v in point]))
    r = r / np.linalg.norm(r)
    c, _, rank, _ = np.linalg.lstsq(M, r, rcond=1e-13)
    if rank < 2:
        return 2.0
    return float(np.linalg.norm(r - M @ c))


def orbit_residual(F: MixedPolynomial, weights, lam: complex, point) -> float:
    """|F(lam . z) - lam^k F(z)| for the weighted circle action of weights."""
    pt = tuple(complex(v) for v in point)
    moved = tuple(lam ** w * zj for w, zj in zip(weights.p, pt))
    return abs(F.evaluate(moved) - lam ** weights.k * F.evaluate(pt))


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


# ---- Fraction Gauss-Jordan reference for the polar search box --------------------


def rational_pinv_colmax(basis):
    """Column maxima of |B^T (B B^T)^{-1}|, by Gauss-Jordan over Fraction.

    The reference for polar._pinv_colmax.  B B^T is positive definite for a
    full-rank basis B, so every pivot exists.
    """
    r, w = len(basis), len(basis[0])
    G = [[Fraction(sum(basis[i][t] * basis[j][t] for t in range(w))) for j in range(r)]
         for i in range(r)]
    inv = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for col in range(r):
        piv = next(i for i in range(col, r) if G[i][col] != 0)
        G[col], G[piv] = G[piv], G[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        s = G[col][col]
        G[col] = [x / s for x in G[col]]
        inv[col] = [x / s for x in inv[col]]
        for i in range(r):
            if i != col and G[i][col]:
                f = G[i][col]
                G[i] = [a - f * b for a, b in zip(G[i], G[col])]
                inv[i] = [a - f * b for a, b in zip(inv[i], inv[col])]
    return [max(abs(sum(basis[t][j] * inv[t][i] for t in range(r))) for j in range(w))
            for i in range(r)]


# ---- sympy-expression references for line reading and Groebner checks -----------


def expr_line_components(h: MixedPolynomial):
    """The lines through 0 in the plane curve {h = 0}, as line_components
    reports them, read on sympy expressions.

    The axes are the variables dividing h.  The slopes are the common roots
    of the coefficients c_j(a) of u^j in h(u, a*u); their gcd and its
    factorisation over QQ(i) come from sp.gcd and sp.factor_list.
    """
    from mixedsing.discgeom import LineComponent, LineReport

    def halfline(slope):
        w = slope.conjugate() / abs(slope)
        return complex(w.real + 0.0, w.imag + 0.0)  # no signed zero parts

    comps = []
    if all(p.nu[1] > 0 for p in h.terms):
        comps.append(LineComponent(kind="axis-u"))
    if all(p.nu[0] > 0 for p in h.terms):
        comps.append(LineComponent(kind="axis-v"))
    a = sp.Symbol("a")
    by_total = {}
    for pair, c in h.terms.items():
        term = (sp.Rational(c.re.numerator, c.re.denominator)
                + sp.I * sp.Rational(c.im.numerator, c.im.denominator)) * a ** pair.nu[1]
        by_total[sum(pair.nu)] = by_total.get(sum(pair.nu), sp.Integer(0)) + term
    g = sp.Integer(0)
    for c in by_total.values():
        g = sp.gcd(g, sp.expand(c), gaussian=True) if g != 0 else sp.expand(c)
    g = sp.expand(g)
    has_slopes, unresolved, slope_comps = False, [], []
    if g.free_symbols:
        for fac, _mult in sp.factor_list(g, a, gaussian=True)[1]:
            p = sp.Poly(fac, a, domain="QQ_I")
            if p.degree() == 1:
                c1, c0 = p.rep.to_list()
                q = sp.QQ_I.quo(-c0, c1)
                cr = ComplexRational(Fraction(q.x.numerator, q.x.denominator),
                                     Fraction(q.y.numerator, q.y.denominator))
                if cr.is_zero:
                    continue
                has_slopes = True
                slope_comps.append(LineComponent(
                    kind="slope", slope=complex(cr), slope_exact=cr, exact=True,
                    halfline_direction=halfline(complex(cr))))
            elif p.degree() <= 4:
                has_slopes = True
                for root in p.nroots(n=20):
                    slope_comps.append(LineComponent(
                        kind="slope", slope=complex(root), exact=False, minpoly=str(fac),
                        halfline_direction=halfline(complex(root))))
            else:
                has_slopes = True
                unresolved.append(str(fac))
        slope_comps.sort(key=lambda c: (c.slope.real, c.slope.imag))
        comps.extend(slope_comps)
    return LineReport(components=tuple(comps), has_slope_lines=has_slopes,
                      unresolved_slope_factors=tuple(unresolved))


def _holomorphic_expr(F: MixedPolynomial, xs):
    zs, ws = mixed_symbols(F.n_vars)
    return to_sympy(F, zs, ws).subs(dict(zip(zs, xs)))


def expr_vanishes_on_critical_set(target: MixedPolynomial, minors) -> bool:
    """Radical membership by the Rabinowitsch trick and sp.groebner."""
    xs = sp.symbols(f"x1:{target.n_vars + 1}")
    w = sp.Symbol("w")
    gens = [_holomorphic_expr(m, xs) for m in minors]
    G = sp.groebner([*gens, 1 - w * _holomorphic_expr(target, xs)], *xs, w,
                    order="grevlex", domain="QQ_I")
    return list(G.exprs) == [sp.Integer(1)]


def expr_reduced_basis(gens) -> list[str]:
    """The reduced grevlex basis of the ideal of gens by sp.groebner, each
    element made monic in graded-lex order, formatted and sorted as in
    sing_decomposition(...).simplified."""
    from mixedsing.core import ExponentPair
    from mixedsing.parsing import format_mixed

    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        return []
    n = nonzero[0].n_vars
    xs = sp.symbols(f"x1:{n + 1}")
    G = sp.groebner([_holomorphic_expr(g, xs) for g in nonzero], *xs,
                    order="grevlex", domain="QQ_I")
    out = []
    for e in G.exprs:
        p = sp.Poly(e, *xs, domain="QQ_I")
        terms = {
            ExponentPair(tuple(int(k) for k in monom), (0,) * n): coeff
            for monom, coeff in p.terms()
        }
        lead = max(terms, key=lambda pair: pair.key())
        c0 = terms[lead]
        h = MixedPolynomial(n, {pair: _cr(c / c0) for pair, c in terms.items()})
        if h.total_degree() == 0:
            return ["1"]
        out.append(format_mixed(h))
    return sorted(out)


def _cr(c) -> ComplexRational:
    re_q, im_q = (sp.Rational(x) for x in sp.sympify(c).as_real_imag())
    return ComplexRational(Fraction(int(re_q.p), int(re_q.q)), Fraction(int(im_q.p), int(im_q.q)))


# ---- random polynomial generator -------------------------------------------------


def random_mixed(rng: np.random.Generator, *, n_vars=None, max_terms=4,
                 max_degree=3, allow_zero=False, holomorphic=False) -> MixedPolynomial:
    """Small random mixed polynomial with rational coefficients; with
    holomorphic=True every conjugate exponent is 0 (and is not drawn)."""
    from mixedsing.core import ExponentPair

    n = int(n_vars if n_vars is not None else rng.integers(1, 4))
    n_terms = int(rng.integers(0 if allow_zero else 1, max_terms + 1))
    terms = {}
    for _ in range(n_terms):
        nu = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
        mu = (0,) * n if holomorphic else tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
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


def _jacobian_factor_images(f: MixedPolynomial, g: MixedPolynomial):
    """(P, elim) for each Gaussian-irreducible factor P of the plane pair's
    Jacobian, by sp.factor_list: elim is the reduced basis, in (u, v) alone,
    of the lex elimination ideal of (P, f - u, g - v), or None when P
    misses the source origin.  Both are sympy expressions, in the symbols
    z1, z2 of mixed_symbols(2) and in u, v."""
    zs, ws = mixed_symbols(2)
    x, y = zs
    u, v = sp.symbols("u v")
    fs, gs = to_sympy(f, zs, ws), to_sympy(g, zs, ws)
    jac = sp.expand(sp.diff(fs, x) * sp.diff(gs, y) - sp.diff(fs, y) * sp.diff(gs, x))
    _, factors = sp.factor_list(jac, x, y, gaussian=True)
    for P, _mult in factors:
        if not P.free_symbols & {x, y}:
            continue
        if P.subs({x: 0, y: 0}) != 0:
            yield P, None
            continue
        G = sp.groebner([fs - u, gs - v, P], x, y, u, v, order="lex", domain="QQ_I")
        yield P, [e for e in G.exprs if not e.free_symbols & {x, y}]


def elimination_discriminant(f: MixedPolynomial, g: MixedPolynomial) -> MixedPolynomial:
    """The discriminant germ at 0 of a plane pair, by lex elimination.

    Each Gaussian-irreducible Jacobian factor P with P(0, 0) = 0 gives the
    prime ideal (P, f - u, g - v).  Its elimination ideal in (u, v) is
    principal when P maps onto a curve (the generator is kept) and maximal
    when P maps to a point (the origin, which adds nothing to the germ).
    Returns h, the product of the kept curves in (u, v) = (z1, z2): 1 when
    there is none.
    """
    h = sp.Integer(1)
    for _P, elim in _jacobian_factor_images(f, g):
        if elim is not None and len(elim) == 1:
            h *= elim[0]
    return _from_expr(h, sp.symbols("u v"), mixed_symbols(2)[1])


def jacobian_factor_classes(f: MixedPolynomial, g: MixedPolynomial) -> dict:
    """The Jacobian factors of a plane pair by class, each divided by its
    graded-lex leading coefficient as discriminant_curve reports them:
    "off-origin" misses the source origin; through it, "origin" maps to the
    point 0, "axis" onto {u = 0} or {v = 0}, "slope" onto lines through 0
    other than the axes, and "non-line" onto a curve holding no line.

    The image of {P = 0} is the curve of the elimination ideal's generator,
    which is irreducible (the ideal is prime, as Q(i)[x, y, u, v] modulo
    (P, f - u, g - v) is Q(i)[x, y]/(P)); an irreducible plane curve is a
    union of lines through 0 exactly when its equation is homogeneous.
    """
    zs, ws = mixed_symbols(2)
    u, v = sp.symbols("u v")
    classes = {k: [] for k in ("off-origin", "origin", "axis", "slope", "non-line")}
    for P, elim in _jacobian_factor_images(f, g):
        if elim is None:
            kind = "off-origin"
        elif len(elim) != 1:
            kind = "origin"
        else:
            image = sp.Poly(elim[0], u, v)
            if not image.is_homogeneous:
                kind = "non-line"
            else:
                kind = "axis" if image.monoms() in ([(1, 0)], [(0, 1)]) else "slope"
        p = sp.Poly(P, *zs, domain="QQ_I")
        classes[kind].append(_from_expr(sp.expand(P / p.LC(order="grlex")), zs, ws))
    return classes


def line_forms(h: MixedPolynomial) -> tuple[MixedPolynomial, ...]:
    """The distinct Q(i)-irreducible homogeneous factors of a plane h, each
    divided by its leading coefficient, by sp.factor_list.

    They are the line forms of the lines through 0 in {h = 0}: a line
    through 0 is a homogeneous linear factor, an irreducible homogeneous
    factor is a union of such lines, and any other irreducible factor holds
    none.  Lex on (z1, z2) and grlex agree on a homogeneous form, so each is
    normalised as discriminant_curve normalises its forms.
    """
    zs, ws = mixed_symbols(2)
    forms = []
    for fac, _mult in sp.factor_list(to_sympy(h, zs, ws), *zs, gaussian=True)[1]:
        p = sp.Poly(fac, *zs, domain="QQ_I")
        if p.is_homogeneous:
            forms.append(_from_expr(p.monic().as_expr(), zs, ws))
    return tuple(forms)


def _from_expr(expr, zs, ws) -> MixedPolynomial:
    from mixedsing.core import ExponentPair

    terms = expr_to_dict(expr, zs, ws)
    return MixedPolynomial(
        len(zs), {ExponentPair(nu, mu): ComplexRational(*c) for (nu, mu), c in terms.items()}
    )


# ---- float normal-plane tracker for limit planes along curves -------------------


def real_span_basis(vectors, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (rows, R^{2n}) of the real span of complex vectors.

    Rank is decided by singular values relative to the largest; an all-zero
    input yields a (0, 2n) basis.  The reference for _numeric.normal_plane,
    and the float basis the exact limit planes are checked against.
    """
    M = np.stack([realify(np.asarray(v, dtype=complex)) for v in vectors])
    scale = np.abs(M).max()
    if scale == 0.0 or not np.isfinite(scale):
        return np.zeros((0, M.shape[1]))
    _, s, vt = np.linalg.svd(M / scale, full_matrices=False)
    rank = int((s > s[0] * rtol).sum()) if s.size and s[0] > 0 else 0
    return vt[:rank]


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
