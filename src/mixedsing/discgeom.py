"""Discriminant geometry for holomorphic pairs (f, g).

A line through 0 other than the axes in the discriminant germ at 0 of
(f, g): (C^2, 0) -> (C^2, 0) makes 0 a non-isolated critical value of
f * conj(g): the line gives a half-line of critical values (Pichon-Seade,
Fibred multilinks and singularities f g-bar, Math. Ann. 342 (2008)).  The
converse does not hold: a branch only tangent to such a line also puts
critical values next to 0, as for (x, x + x^2 + y^2), so the plane verdict's
"isolated" (no such line) can be wrong.

That germ is the image of {J = 0} near the source origin, so only the
Q(i)-irreducible Jacobian factors P with P(0, 0) = 0 count; the others are
reported and dropped.  A test on the whole factor is germ-local: conjugate
branches of P meet the rational origin together or not at all, and an
irreducible curve maps into a line as soon as one of its germs does.  With
Jac(h, P) = h_x P_y - h_y P_x, the derivative of h along {P = 0}, each P is
one of, by exact division in QQ_I[x, y]:

- origin: P | f and P | g;
- axis: P divides only one of f, g, so its image is {u = 0} or {v = 0};
- slope: P | f*Jac(g, P) - g*Jac(f, P), so g/f is constant on each branch;
  the slopes are the roots of m(a), the squarefree part of
  Res_t(P, g - a*f) with its content in the other variable removed;
- not a line: none of these.  An irreducible curve that is not a line
  contains no line germ, so P adds no line.

line_components reads the lines off each irreducible line form alone (u,
v, u^d * m(v/u)).  The module also decides the branch criterion (u * conj(v)
is critical along the whole of a curve germ iff the germ is a line, and a
line makes 0 a non-isolated critical value) and provides the shear
(f + g^k, g).  The shear can remove non-axis lines from the discriminant,
but it does not repair isolation: Jac(f + g^k, g) = Jac(f, g), so Sigma, the
critical set of the pair, does not change (see shear_search).

Everything here is exact; floats never decide a verdict.  The Jacobian
splits on core's store as J = c * x^a * y^b * R with x, y not dividing R,
and every factor of degree 1 (x, y, an R of degree 1 and the linear factors
of a larger R) is classified there in closed form (_on_line, _line_form), as
are the slopes of degree-1 line forms.  Only an R, a factor through the
source origin or a line form of degree >= 2 needs sympy, which _sympy
imports on first use (never at import): R's factorisation goes through the
norm over Q (_factor_gaussian): one factorisation over QQ and one gcd per
rational factor, with Trager's algorithm over QQ<i> only for a rational
factor that may split into a conjugate pair dividing it; the division
tests, slope forms and numeric slope roots of factors of degree >= 2 run on
sympy's sparse rings over QQ_I too.  _to_ring and _from_ring convert at
that one boundary.  The Groebner bases of the n >= 3 verdict and of
sing_decomposition (grevlex, with the Rabinowitsch variable w last) come
from the in-package Buchberger kernel _groebner, which computes on core's
cleared Gaussian-integer pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from types import SimpleNamespace

from .core import ComplexRational, MixedPolynomial, Record, _check_holomorphic_pair, _gaussian
from .core import _ZERO, _cleared, _from_cleared, _monic, _monomial_ops
from .parsing import format_mixed, parse

__all__ = [
    "DegreeBoundError",
    "DegenerateEliminationError",
    "ShearSearchExhausted",
    "PlaneCurve",
    "LineComponent",
    "LineReport",
    "PuiseuxBranch",
    "SingDecomposition",
    "IsolatedVerdict",
    "ShearResult",
    "jacobian_det",
    "discriminant_curve",
    "line_components",
    "branch_restriction_singular",
    "isolated_value_verdict",
    "sing_decomposition",
    "axis_shear",
    "shear_search",
    "parse_branch",
]

DEGREE_BOUND = 8

# the line forms u and v of the axes {u = 0} and {v = 0}, in (u, v) = (z1, z2)
_U, _V = (MixedPolynomial.variable(j, 2) for j in range(2))


class DegreeBoundError(ValueError):
    """Input degree beyond the desk-scale bound."""


class DegenerateEliminationError(RuntimeError):
    """The pair is degenerate (e.g. identically singular Jacobian)."""


class ShearSearchExhausted(RuntimeError):
    """No shear exponent in the searched range produced an isolated value."""


# sympy, for the plane route only -------------------------------------------------


@cache
def _sympy() -> SimpleNamespace:
    """sympy's polys layer, imported on first use (about 0.3 s): the domains
    QQ and QQ_I, Poly, QQ_I[x, y, a] and QQ_I[y, x, a] (a resultant
    eliminates the first generator), and QQ_I[a] for the slopes a of the
    lines {v = a*u}."""
    import sympy
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.rings import ring

    return SimpleNamespace(
        QQ=QQ, QQ_I=QQ_I, Poly=sympy.Poly,
        XYA=ring("x y a", QQ_I)[0], YXA=ring("y x a", QQ_I)[0], A=ring("a", QQ_I)[0],
    )


@cache
def _qq_i_field():
    """QQ<i>, the field sympy runs Trager's algorithm over for QQ_I; built on
    first use (about 0.04 s), not with the rings."""
    return _sympy().QQ_I.as_AlgebraicField()


def _to_ring(F: MixedPolynomial, R):
    """A holomorphic F in z1..zn as an element of the sympy ring R over QQ_I,
    whose first n generators stand for z1..zn and whose others get exponent 0."""
    sp = _sympy()
    new, q = sp.QQ_I.dtype.new, sp.QQ.dtype
    n = F.n_vars
    pad = (0,) * (R.ngens - n)
    d, pairs = _cleared(F)
    return R.from_dict({m[:n] + pad: new(q(x, d), q(y, d)) for m, (x, y) in pairs.items()})


def _from_ring(p) -> MixedPolynomial:
    """A nonzero element of a sympy ring over QQ_I in its first two
    generators only, as a holomorphic polynomial in z1, z2 divided by its
    leading coefficient."""
    d = math.lcm(*(int(q.denominator) for c in p.values() for q in (c.x, c.y)))
    pairs = {
        e[:2] + (0, 0): (int(c.x.numerator) * (d // int(c.x.denominator)),
                         int(c.y.numerator) * (d // int(c.y.denominator)))
        for e, c in p.items()
    }
    return _monic(_from_cleared(2, d, pairs))


def _lex_monic(p):
    """p divided by its lex-leading coefficient, as factor_list normalises."""
    return p.quo_ground(p[max(p)])


def _split_over_qq_i(r) -> list:
    """The QQ_I-irreducible factors of r, by Trager's algorithm over QQ<i>.

    x + y*i maps straight to [y, x] in QQ<i> and back, which skips sympy's
    per-coefficient conversion through expressions.
    """
    K, QQ_I = _qq_i_field(), _sympy().QQ_I
    over_k = r.ring.clone(domain=K).from_dict({m: K.new([c.y, c.x]) for m, c in r.items()})
    return [
        r.ring.from_dict({m: QQ_I(*reversed(c.to_list())) for m, c in fac.items()})
        for fac, _ in over_k.factor_list()[1]
    ]


def _factor_gaussian(p) -> list:
    """p.factor_list()[1] for a ring element p over QQ_I, through the norm
    of p over Q (Trager, SYMSAC 1976; Landau, SIAM J. Comput. 14 (1985)).

    Drop the generators p does not use, let q be p made monic and factor
    N = q * conj(q), which lies in Q[X], over QQ.  For each Q-irreducible
    factor r of N, s = gcd(q, r) is a QQ_I-irreducible factor of q unless
    s = r and r has an even degree in every variable; only such an r goes
    to Trager's algorithm over QQ<i>.  Multiplicities come from repeated
    exact division of q.  The factors are monic in the lex order and sorted
    by sympy's key over QQ_I (dense length, multiplicity, dense
    coefficients), as factor_list returns them.

    Proof: let t be a QQ_I-irreducible factor of r.  lcm(t, conj t) is fixed
    by conjugation, so it is rational up to a unit and divides r; as r is
    Q-irreducible, r is t up to a unit (when t ~ conj t) or r = c*t*conj(t).
    So t determines r, and r is QQ_I-irreducible or the product of two
    conjugate irreducibles.  Each QQ_I-irreducible factor of r divides q or
    conj(q), hence it or its conjugate divides q.  If r is irreducible, then
    r | q and s = r.  If r = c*t*conj(t), then s is t or conj(t) when only
    one of them divides q, and s = r when both do; then r has twice the
    degree of t in every variable.  s = r exactly when r | q, so one exact
    division runs before the gcd and spares it in that case.
    """
    R, sp = p.ring, _sympy()
    used = [sym for sym, d in zip(R.symbols, p.degrees()) if d > 0]
    if not used:
        return []
    S = R.clone(symbols=used)
    q = _lex_monic(p.set_ring(S))
    norm = q * S.from_dict({m: sp.QQ_I(c.x, -c.y) for m, c in q.items()})
    irreducible = []
    for r, _ in norm.set_ring(S.clone(domain=sp.QQ)).factor_list()[1]:
        r = _lex_monic(r.set_ring(S))
        s = _lex_monic(q.gcd(r)) if q.rem(r) else r
        if s != r or any(d % 2 for d in r.degrees()):
            irreducible.append(s)
        else:
            irreducible.extend(_split_over_qq_i(r))
    factors = []
    for t in irreducible:
        mult = 0
        quo, rem = divmod(q, t)
        while not rem:
            q, mult = quo, mult + 1
            quo, rem = divmod(q, t)
        factors.append((t.set_ring(R), mult))
    return sorted(factors, key=lambda fm: (len(d := fm[0].to_dense()), fm[1], d))


def _grevlex(m: tuple[int, ...]) -> tuple:
    """The graded reverse-lex key of an exponent tuple, as sympy's grevlex."""
    return sum(m), tuple(-e for e in reversed(m))


def _groebner(polys) -> list:
    """The reduced grevlex Groebner basis of the ideal of polys, sorted by
    leading monomial, greatest first.

    Each input is a {monom: (re, im)} dict of Gaussian integers over
    exponent tuples of one length (any Q(i)-multiple of a polynomial, such
    as core's cleared store); each basis element is a pair (n, p), the
    monic polynomial p / n with p primitive and n its positive integer
    leading coefficient.  The unit ideal gives [(1, {0: (1, 0)})], 0 the
    constant monomial.

    It is the basis sympy's groebner(polys, R) returns over QQ_I in
    grevlex, and follows the same algorithm step for step: interreduce the
    input, admit each element through update with the Gebauer-Moeller
    criteria (Becker-Weispfenning, Groebner Bases (1993), p. 232,
    GROEBNERNEWS2), reduce the S-polynomial of the pair with the least lcm,
    then interreduce the basis.  Only the arithmetic and the monomial
    operations differ.  Each element is kept primitive (integer content
    1) with a positive integer leading coefficient n; any two Q(i)-multiples
    of one polynomial get the same dict, so the interreduction's fixed-point
    test compares dicts.  Reduction is fraction-free,
    p <- (n/d)*p - (c/d)*(m/lm)*g with d = gcd(n, c), and divides out the
    content after each step that scaled p.  Leading monomials and
    coefficients are cached, and each monomial's order key is computed
    once.

    Equal to sympy's: an ideal has exactly one reduced Groebner basis for a
    fixed order (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    Thm. 2.7.5), and both return it sorted by its distinct leading
    monomials.  An ideal holding a nonzero constant is the unit ideal, with
    basis [1], so the kernel answers it as soon as one appears.  So
    verdicts and report bytes do not depend on which of the two runs.
    """
    polys = [p for p in polys if p]
    if not polys:
        return []
    const = (0,) * len(next(iter(polys[0])))
    unit = [(1, {const: (1, 0)})]
    key = cache(_grevlex)
    mul, div, lcm = _monomial_ops(len(const))
    gcd = math.gcd

    def primitive(p):
        """(lm, n, u*p) for the u in Q(i) that makes u*p primitive with
        leading coefficient n > 0."""
        lm = max(p, key=key)
        a, b = p[lm]
        if b:
            p = {m: (x * a + y * b, y * a - x * b) for m, (x, y) in p.items()}
        elif a < 0:
            p = {m: (-x, -y) for m, (x, y) in p.items()}
        c = gcd(*(v for xy in p.values() for v in xy))
        if c > 1:
            p = {m: (x // c, y // c) for m, (x, y) in p.items()}
        return lm, p[lm][0], p

    def sub(h, a, b, q, g):
        """h - (a + b*i) * x^q * g, in place."""
        for m, (x, y) in g.items():
            k = mul(m, q)
            u, v = h.get(k, _ZERO)
            u, v = u - a * x + b * y, v - a * y - b * x
            if u or v:
                h[k] = (u, v)
            else:
                del h[k]
        return h

    def rem(p, G):
        """A positive rational multiple of the full remainder of p on
        division by G (a list of (lm, n, g)), trying the divisors in G's
        order as PolyElement.rem does."""
        f, r = dict(p), {}
        while f:
            m = max(f, key=key)
            for lm, n, g in G:
                q = div(m, lm)
                if q is not None:
                    break
            else:
                r[m] = f.pop(m)
                continue
            a, b = f[m]
            d = gcd(n, a, b)
            s, a, b = n // d, a // d, b // d
            if s > 1:
                f = {k: (s * x, s * y) for k, (x, y) in f.items()}
                r = {k: (s * x, s * y) for k, (x, y) in r.items()}
            sub(f, a, b, q, g)
            if s > 1:
                c = gcd(*(v for h in (f, r) for xy in h.values() for v in xy))
                if c > 1:
                    f = {k: (x // c, y // c) for k, (x, y) in f.items()}
                    r = {k: (x // c, y // c) for k, (x, y) in r.items()}
        return r

    def spoly(i, j):
        """A positive integer multiple of the S-polynomial of f[i], f[j]."""
        (lm1, n1, p1), (lm2, n2, p2) = f[i], f[j]
        L = lcm(lm1, lm2)
        q1, q2 = div(L, lm1), div(L, lm2)
        c = gcd(n1, n2)
        s1, s2 = n2 // c, n1 // c
        return sub({mul(m, q1): (s1 * x, s1 * y) for m, (x, y) in p1.items()}, s2, 0, q2, p2)

    def update(G, B, ih):
        """[BW] p. 230: admit f[ih] to G and its critical pairs to B."""
        mh = f[ih][0]
        C, D = set(G), set()
        while C:
            ig = C.pop()
            mg = f[ig][0]
            LCMhg = lcm(mh, mg)

            def lcm_divides(ip):
                return div(LCMhg, lcm(mh, f[ip][0]))

            if mul(mh, mg) == LCMhg or (
                not any(lcm_divides(ipx) for ipx in C) and not any(lcm_divides(pr[1]) for pr in D)
            ):
                D.add((ih, ig))
        E = {pr for pr in D if mul(mh, f[pr[1]][0]) != lcm(mh, f[pr[1]][0])}
        B_new = set()
        for ig1, ig2 in B:
            mg1, mg2 = f[ig1][0], f[ig2][0]
            LCM12 = lcm(mg1, mg2)
            if not div(LCM12, mh) or lcm(mg1, mh) == LCM12 or lcm(mg2, mh) == LCM12:
                B_new.add((ig1, ig2))
        B_new |= E
        G_new = {ig for ig in G if not div(f[ig][0], mh)}
        G_new.add(ih)
        return G_new, B_new

    f1 = [primitive(p) for p in polys]
    while True:  # interreduce the input, [BW] p. 203
        f, f1 = f1, []
        for i, (_, _, p) in enumerate(f):
            r = rem(p, f[:i])
            if r:
                f1.append(primitive(r))
                if f1[-1][0] == const:
                    return unit
        if f == f1:
            break

    G, CP = set(), set()
    for ih in sorted(range(len(f)), key=lambda i: key(f[i][0])):
        G, CP = update(G, CP, ih)
    while CP:
        pair = min(CP, key=lambda pr: key(lcm(f[pr[0]][0], f[pr[1]][0])))
        CP.remove(pair)
        r = rem(spoly(*pair), [f[i] for i in sorted(G, key=lambda i: key(f[i][0]))])
        if r:
            f.append(primitive(r))
            if f[-1][0] == const:
                return unit
            G, CP = update(G, CP, len(f) - 1)

    # an element whose leading monomial another one divides reduces to 0
    remainders = (rem(f[i][2], [f[j] for j in G if j != i]) for i in G)
    basis = [primitive(r) for r in remainders if r]
    basis.sort(key=lambda t: key(t[0]), reverse=True)
    return [(n, p) for _, n, p in basis]


# jacobian and discriminant ------------------------------------------------------


def jacobian_det(f: MixedPolynomial, g: MixedPolynomial) -> MixedPolynomial:
    """Holomorphic Jacobian determinant of a plane pair, exact."""
    _check_holomorphic_pair(f, g, "jacobian_det")
    if f.n_vars != 2:
        raise ValueError(f"jacobian_det needs exactly 2 variables, got {f.n_vars}")
    df = f.wirtinger().dF
    dg = g.wirtinger().dF
    return df[0] * dg[1] - df[1] * dg[0]


class PlaneCurve(Record):
    """The lines through 0 of a plane pair's discriminant germ at 0.

    Each of components is one distinct irreducible line form in (u, v) =
    (z1, z2): u, v, or u^d * m(v/u) (see _slope_form).  non_line_factors
    and off_origin_components are the Jacobian factors in (x, y) = (z1, z2)
    through the source origin whose image is not a line, and those that
    miss the source origin.  origin_only: the germ is the point 0.
    """

    origin_only: bool
    components: tuple[MixedPolynomial, ...] = ()
    off_origin_components: tuple[MixedPolynomial, ...] = ()
    non_line_factors: tuple[MixedPolynomial, ...] = ()

    def __post_init__(self):
        if self.origin_only != (not self.components and not self.non_line_factors):
            raise ValueError("origin_only must hold exactly without line forms and non-line factors")


def _jac(h, P):
    """Jac(h, P): the derivative of h along the curve {P = 0}."""
    x, y, _ = _sympy().XYA.gens
    return h.diff(x) * P.diff(y) - h.diff(y) * P.diff(x)


def _slope_form(P, f, g) -> MixedPolynomial:
    """u^d * m(v/u) for a slope factor P: the lines {v = a*u} of its image.

    m is the minimal polynomial over Q(i) of the slope of any one component
    of {P = 0}, so line_components can read the form alone.

    Proof: P is Q(i)-irreducible, divides neither f nor g, and g/f is
    constant on each branch of {P = 0}.  Its absolutely irreducible factors
    P_1..P_r form one orbit of G = Gal(Qbar/Q(i)), and g = a_j * f on the
    irreducible {P_j = 0} for a constant a_j.  As f, g have coefficients in
    Q(i), P_j | g - a_j*f gives sigma(P_j) | g - sigma(a_j)*f: sigma in G
    maps the slope of a component to that of its image.  With t the
    eliminated variable (P involves it) and s the other, each root t_k(s)
    of P lies on some {P_j = 0}, where g - a*f = (a_j - a) * f, so
    Res_t(P, g - a*f) = C(s) * prod_j (a_j - a)^(n_j), n_j the t-degree of
    P_j; C(s) = lc_t(P)^e * prod_k f(t_k(s), s) is not 0, as P_j | f gives
    P | f (apply G).  G permutes the P_j and keeps n_j, so the product is
    in Q(i)[a] and the content in s is C(s) up to a unit.  Its roots are
    the sigma(a_1), so its square-free part m is the minimal polynomial of
    a_1: irreducible, and m(0) != 0, as a_1 = 0 gives P_1 | g, so P | g.
    Hence the form is irreducible, divisible by neither u nor v, and slope
    factors that share a slope give one monic form, kept once.
    """
    sp = _sympy()
    a = sp.XYA.gens[2]
    R = sp.XYA if P.degree(0) > 0 else sp.YXA  # eliminate a variable P involves
    res = P.set_ring(R).resultant((g - a * f).set_ring(R))  # in QQ_I[s, a]
    coeffs = (res.coeff_wrt(1, k) for k in range(res.degree(1) + 1))
    m = res.exquo(reduce(lambda p, q: p.gcd(q), coeffs)).sqf_part()
    d = m.degree(1)
    return _from_ring(sp.XYA.from_dict({(d - e[1], e[1], 0): c for e, c in m.items()}))


def _on_line(h: MixedPolynomial, P: MixedPolynomial) -> MixedPolynomial:
    """A plane h on the source line {P = 0}, P = alpha*x + beta*y: h(beta*t,
    -alpha*t) in one variable t, on the cleared stores.  alpha and beta are
    the integer parts of P's store, which only rescales t."""
    pairs = _cleared(P)[1]
    (ax, ay), beta = pairs.get((1, 0, 0, 0), _ZERO), pairs.get((0, 1, 0, 0), _ZERO)
    d, hp = _cleared(h)
    out: dict = {}
    for (i, j, _, _), (x, y) in hp.items():
        for u, v in [beta] * i + [(-ax, -ay)] * j:  # times beta^i * (-alpha)^j
            x, y = x * u - y * v, x * v + y * u
        p, q = out.get((i + j, 0), _ZERO)
        out[i + j, 0] = (p + x, q + y)
    return _from_cleared(1, d, {k: c for k, c in out.items() if c != _ZERO})


def _line_form(f0: MixedPolynomial, g0: MixedPolynomial) -> MixedPolynomial | None:
    """The line form of a Jacobian factor P = alpha*x + beta*y that is a
    slope factor, None when it is not one; f0 and g0 are f and g on
    {P = 0} (_on_line), both nonzero, so P divides neither f nor g.

    This is _slope_form's form in closed form.  Proof: pick c, e with
    alpha*c + beta*e = 1.  The change of source coordinates (x, y) =
    (beta*t + c*w, -alpha*t + e*w) has determinant 1, so it keeps the
    Jacobian and the image of each curve, and it takes P to w, on whose
    zero set f and g are f0(t) and g0(t); so P's class and line form are
    those of the factor w of the pair in (t, w).  P | h exactly when h
    vanishes on {w = 0}, that is h(beta*t, -alpha*t) = 0.  Jac(h, w) = h_t
    and restricting to w = 0 commutes with d/dt, so P | f*Jac(g, P) -
    g*Jac(f, P) says f0*g0' - g0*f0' = 0, that is (g0/f0)' = 0: g0 = a0*f0
    for a constant a0, not 0 as g0 is not.  Then Res_w(w, g - a*f) =
    g0 - a*f0 = f0 * (a0 - a), whose content in t is f0 up to a unit, so
    m(a) = a - a0 and the form is u * m(v/u) = v - a0*u, made monic as
    _slope_form makes its forms.  f0 and g0 are proportional exactly when
    they agree made monic, and then a0 = cg / cf, the ratio of their
    leading coefficients, so cf*v - cg*u is the form up to the unit cf.
    """
    if _monic(f0) != _monic(g0):
        return None
    cf, cg = (next(iter(h.terms.values())) for h in (f0, g0))
    return _monic(cf * _V - cg * _U)


def discriminant_curve(f: MixedPolynomial, g: MixedPolynomial) -> PlaneCurve:
    """The lines through 0 in the discriminant germ of (f, g): (C^2, 0) -> (C^2, 0).

    The Jacobian splits on core's store as J = c * x^a * y^b * R, where
    neither x nor y divides R.  Its factors are x and y (when a, b > 0) and
    R when it has degree 1, else sympy's factors of R.  Each is classified
    once; one of degree 1 in closed form (_on_line, _line_form), so only a
    factor of degree >= 2 through the source origin needs sympy's rings.
    """
    _check_holomorphic_pair(f, g, "discriminant_curve")
    if f.n_vars != 2:
        raise ValueError("discriminant_curve handles plane pairs (n = 2) only")
    if max(f.total_degree(), g.total_degree()) > DEGREE_BOUND:
        raise DegreeBoundError(f"total degree beyond the desk-scale bound {DEGREE_BOUND}")
    J = jacobian_det(f, g)
    if J.is_zero:
        raise DegenerateEliminationError(
            "jacobian determinant vanishes identically; the pair has generic rank < 2"
        )

    forms: list[MixedPolynomial] = []
    off_origin: list[MixedPolynomial] = []
    non_line: list[MixedPolynomial] = []

    def record(P, on_u, on_v, slope_form):
        """File P, a factor through the source origin: on_u and on_v say
        whether f and g vanish on {P = 0}, and slope_form() is P's line form
        when P is a slope factor, None when it is not one."""
        if on_u and on_v:
            return  # the factor maps to the origin
        form = _U if on_u else _V if on_v else slope_form()  # {u = 0}, {v = 0}, a slope
        if form is None:
            non_line.append(P)
        elif form not in forms:
            forms.append(form)

    d, pairs = _cleared(J)
    a, b = (min(m[j] for m in pairs) for j in (0, 1))  # J = c * x^a * y^b * R
    factors = [P for P, e in ((_U, a), (_V, b)) if e]  # the axes x and y, monic
    if len(pairs) > 1:  # R is not constant
        R = _from_cleared(2, d, {(m[0] - a, m[1] - b, 0, 0): c for m, c in pairs.items()})
        if R.total_degree() == 1:  # irreducible as it stands
            factors.append(_monic(R))
        else:
            factors += [_from_ring(P) for P, _mult in _factor_gaussian(_to_ring(R, _sympy().XYA))]

    rings = ()  # f and g in sympy's ring, made for the first factor of degree >= 2
    for P in factors:
        if P.constant_term():
            off_origin.append(P)
        elif P.total_degree() == 1:
            f0, g0 = _on_line(f, P), _on_line(g, P)
            record(P, f0.is_zero, g0.is_zero, lambda: _line_form(f0, g0))
        else:
            XYA = _sympy().XYA
            fp, gp = rings = rings or (_to_ring(f, XYA), _to_ring(g, XYA))
            Pr = _to_ring(P, XYA)
            record(P, not fp.rem(Pr), not gp.rem(Pr),
                   lambda: None if (fp * _jac(gp, Pr) - gp * _jac(fp, Pr)).rem(Pr)
                   else _slope_form(Pr, fp, gp))

    forms.sort(key=format_mixed)
    return PlaneCurve(
        origin_only=not forms and not non_line,
        components=tuple(forms),
        off_origin_components=tuple(sorted(off_origin, key=format_mixed)),
        non_line_factors=tuple(sorted(non_line, key=format_mixed)),
    )


# line components -----------------------------------------------------------------


class LineComponent(Record):
    """A line through the origin contained in the discriminant curve.

    kind "axis-u" is the line {v = 0}, "axis-v" is {u = 0}, "slope" is
    {v = a*u} with a != 0.  Slopes from linear factors are exact Gaussian
    rationals; degree 2..4 factors get deterministic numeric roots with
    their minimal polynomial recorded.  halfline_direction is the direction
    of the critical-value half-line the component contributes.
    """

    kind: str
    slope: complex | None = None
    slope_exact: ComplexRational | None = None
    exact: bool = True
    minpoly: str | None = None
    halfline_direction: complex | None = None

    def __post_init__(self):
        if self.kind not in ("axis-u", "axis-v", "slope"):
            raise ValueError(f"unknown line kind {self.kind!r}")
        if (self.kind == "slope") != (self.slope is not None):
            raise ValueError("slope value present exactly for slope components")


class LineReport(Record):
    """All line components plus exact existence data for slope lines.

    has_slope_lines is decided exactly (a line form other than u and v),
    independent of root isolation; unresolved_slope_factors lists degree > 4
    slope polynomials whose individual roots were not isolated.
    """

    components: tuple[LineComponent, ...]
    has_slope_lines: bool
    unresolved_slope_factors: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


def line_components(curve: PlaneCurve) -> LineReport:
    """The lines of a discriminant curve, read off its line forms one at a time.

    u is {u = 0} (axis-v) and v is {v = 0} (axis-u).  Any other form
    u^d * m(v/u) is the lines {v = a*u} for the roots of the monic
    m(a) = form(1, a), irreducible with m(0) != 0 (see _slope_form): an
    exact slope for degree 1, read off core's store (_linear_slope), and
    through sympy numeric roots and the minimal polynomial for degrees 2..4,
    and an unresolved slope factor above.
    """
    axes = [LineComponent(kind=kind) for kind, form in (("axis-u", _V), ("axis-v", _U))
            if form in curve.components]
    slopes, unresolved = [], []
    for form in curve.components:
        if form in (_U, _V):
            continue
        if form.total_degree() == 1:
            cr = _linear_slope(form)
            slopes.append(_slope_line(complex(cr), slope_exact=cr))
            continue
        sp = _sympy()
        m = sp.A.from_dict({(e[1],): c for e, c in _to_ring(form, sp.XYA).items()}).monic()
        if m.degree() <= 4:
            minpoly = m.as_expr()
            slopes.extend(_slope_line(complex(root), exact=False, minpoly=str(minpoly))
                          for root in sp.Poly(minpoly, domain=sp.QQ_I).nroots(n=20))
        else:
            unresolved.append(m)
    slopes.sort(key=lambda c: (c.slope.real, c.slope.imag))
    unresolved.sort(key=lambda m: (len(d := m.to_dense()), d))  # sympy's factor order
    return LineReport(
        components=tuple(axes + slopes),
        has_slope_lines=bool(slopes or unresolved),
        unresolved_slope_factors=tuple(str(m.as_expr()) for m in unresolved),
    )


def _linear_slope(form: MixedPolynomial) -> ComplexRational:
    """The slope -alpha/beta of the line {alpha*u + beta*v = 0}, both
    coefficients nonzero, read off the cleared store (the denominator
    cancels): -alpha * conj(beta) / |beta|^2."""
    pairs = _cleared(form)[1]
    (ax, ay), (bx, by) = pairs[1, 0, 0, 0], pairs[0, 1, 0, 0]
    n = bx * bx + by * by
    return ComplexRational(Fraction(-(ax * bx + ay * by), n), Fraction(ax * by - ay * bx, n))


def _slope_line(slope: complex, **exactness) -> LineComponent:
    """The line {v = slope*u}.  Critical values along it sweep the half-line
    R+ * conj(slope); + 0.0 turns a signed zero part (conj of a real slope)
    into 0.0."""
    w = slope.conjugate() / abs(slope)
    return LineComponent(kind="slope", slope=slope, **exactness,
                         halfline_direction=complex(w.real + 0.0, w.imag + 0.0))


# branch criterion -----------------------------------------------------------------


class PuiseuxBranch(Record):
    """Parametrized curve germ u = t^p, v = sum a_i t^{q_i} in target space."""

    p: int
    terms: tuple[tuple[ComplexRational, int], ...]

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValueError("p must be a positive integer")
        terms = tuple((_gaussian(c), e) for c, e in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("branch needs at least one v-term")
        exps = [e for _, e in terms]
        if any(e < 1 for e in exps) or sorted(set(exps)) != exps:
            raise ValueError("exponents must be strictly increasing positive integers")
        if any(c.is_zero for c, _ in terms):
            raise ValueError("branch coefficients must be nonzero")


def branch_restriction_singular(branch: PuiseuxBranch) -> bool:
    """Is u * conj(v) restricted to this branch critical at every point near 0?

    True exactly when the branch is a line: a single v-term with the same
    exponent as u (leading-order balance forces equal exponents, and any
    second term breaks the required identity).  True makes 0 a non-isolated
    critical value; False does not make it isolated, since critical points
    of the restriction can still accumulate at 0: on u = t, v = t + t^2 they
    lie along a real curve through 0.
    """
    return len(branch.terms) == 1 and branch.terms[0][1] == branch.p


def parse_branch(text: str) -> PuiseuxBranch:
    """Parse 'u = t^p; v = a1*t^q1 + a2*t^q2 + ...' into a branch."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 2:
        raise ValueError(f"branch must have exactly two clauses: {text!r}")
    u_side, v_side = parts
    if not u_side.replace(" ", "").startswith("u="):
        raise ValueError(f"first clause must define u: {u_side!r}")
    if not v_side.replace(" ", "").startswith("v="):
        raise ValueError(f"second clause must define v: {v_side!r}")
    u_rhs = u_side.split("=", 1)[1].strip()
    u_poly = parse(u_rhs, ("t",))
    u_terms = list(u_poly.terms.items())
    if len(u_terms) != 1 or u_terms[0][1] != ComplexRational(1):
        raise ValueError(f"u must be a plain power t^p: {u_rhs!r}")
    p = u_terms[0][0].nu[0]
    v_poly = parse(v_side.split("=", 1)[1].strip(), ("t",))
    terms = sorted(
        ((c, pair.nu[0]) for pair, c in v_poly.terms.items()), key=lambda t: t[1]
    )
    return PuiseuxBranch(p=p, terms=tuple(terms))


# verdicts -------------------------------------------------------------------------


class IsolatedVerdict(Record):
    """Whether 0 is an isolated critical value of f * conj(g)."""

    status: str  # "isolated" | "not-isolated" | "unknown"
    route: str  # "discriminant-curve" (n = 2) | "containment" (n >= 3) | "none"
    witnesses: tuple[LineComponent, ...] = ()
    discriminant: PlaneCurve | None = None
    notes: tuple[str, ...] = ()
    lines: LineReport | None = None  # line_components(discriminant) for plane pairs


def _jacobian_minors(
    df: tuple[MixedPolynomial, ...], dg: tuple[MixedPolynomial, ...]
) -> list[MixedPolynomial]:
    """The nonzero 2x2 minors of the pair Jacobian, from the holomorphic
    gradients df, dg of f and g."""
    n = len(df)
    minors = []
    for i in range(n):
        for j in range(i + 1, n):
            m = df[i] * dg[j] - df[j] * dg[i]
            if not m.is_zero:
                minors.append(m)
    return minors


def _vanishes_on_critical_set(target: MixedPolynomial, minors) -> bool:
    """Radical membership: does target vanish wherever all minors do?

    By the Rabinowitsch trick: exactly when the minors and 1 - w*target
    generate the unit ideal, whose reduced basis from _groebner is [1].
    """
    n = target.n_vars
    polys = [{m[:n] + (0,): c for m, c in _cleared(p)[1].items()} for p in minors]
    d, t = _cleared(target)  # 1 - w*target is a multiple of d - w*t
    const = (0,) * (n + 1)
    polys.append({const: (d, 0), **{m[:n] + (1,): (-x, -y) for m, (x, y) in t.items()}})
    return _groebner(polys) == [(1, {const: (1, 0)})]


def isolated_value_verdict(f: MixedPolynomial, g: MixedPolynomial) -> IsolatedVerdict:
    """Decide isolation of the critical value 0 of f * conj(g).

    Plane pairs get the exact discriminant route.  In higher dimension the
    exact containment check asks whether f*g vanishes on the critical set
    Sigma of the pair map (f, g), the common zeros of its 2x2 minors; if it
    does, the value is isolated, and otherwise the verdict is unknown.

    Proof: u * conj(v) is a submersion C^2 -> C off the origin (its
    derivative v-bar du + u d(v-bar) is onto unless u = v = 0).  So off
    Sigma, where (f, g) is a submersion, F = (u * conj(v)) o (f, g) is
    either a submersion or has f = g = 0, and F = 0 there.  On Sigma,
    F = f * conj(g) is 0 wherever f*g is.  Hence if f*g = 0 on Sigma, every
    critical value of F is 0.  If f and g both vanish on Sigma, so does
    f*g, so this check decides every pair that separate checks on f and on
    g would.
    """
    _check_holomorphic_pair(f, g, "isolated_value_verdict")
    if f.n_vars == 2:
        disc = discriminant_curve(f, g)
        report = line_components(disc)
        if not report.has_slope_lines:  # in particular when disc.origin_only
            return IsolatedVerdict(
                status="isolated", route="discriminant-curve", discriminant=disc,
                lines=report,
            )
        return IsolatedVerdict(
            status="not-isolated",
            route="discriminant-curve",
            witnesses=tuple(c for c in report if c.kind == "slope"),
            discriminant=disc,
            notes=("each non-axis line yields a half-line of critical values",),
            lines=report,
        )
    minors = _jacobian_minors(f.wirtinger().dF, g.wirtinger().dF)
    if not minors:
        raise DegenerateEliminationError(
            "pair Jacobian has rank < 2 everywhere; no meaningful discriminant"
        )
    if _vanishes_on_critical_set(f * g, minors):
        return IsolatedVerdict(
            status="isolated",
            route="containment",
            notes=("critical set of the pair lies in {f*g = 0}",),
        )
    return IsolatedVerdict(status="unknown", route="none")


# singular locus decomposition ------------------------------------------------------


class SingDecomposition(Record):
    """Generators describing Sing(f * conj(g)) inside the zero fibre V.

    On V the singular set is {f = g = 0} union Sing f union Sing g; off V
    it embeds into the critical set of the pair map, witnessed by the
    Jacobian minors (off_v_minors).
    """

    common_zero: tuple[MixedPolynomial, ...]
    sing_f: tuple[MixedPolynomial, ...]
    sing_g: tuple[MixedPolynomial, ...]
    off_v_minors: tuple[MixedPolynomial, ...]
    simplified: dict = {}


def _reduced_basis(gens) -> list[str]:
    """The reduced grevlex basis from _groebner of the ideal of the nonzero
    gens, monic, as sorted format_mixed text; ["1"] for the unit ideal."""
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        return []
    n = nonzero[0].n_vars
    pad = (0,) * n
    out = []
    for d, p in _groebner([{m[:n]: c for m, c in _cleared(g)[1].items()} for g in nonzero]):
        h = _monic(_from_cleared(n, d, {m + pad: c for m, c in p.items()}))
        if h.total_degree() == 0:
            return ["1"]  # unit ideal: empty set
        out.append(format_mixed(h))
    return sorted(out)


def sing_decomposition(f: MixedPolynomial, g: MixedPolynomial) -> SingDecomposition:
    """Symbolic decomposition of the singular set of f * conj(g) on V."""
    _check_holomorphic_pair(f, g, "sing_decomposition")
    df = f.wirtinger().dF
    dg = g.wirtinger().dF
    common = (f, g)
    minors = tuple(_jacobian_minors(df, dg))
    simplified = {
        "common_zero": _reduced_basis(common),
        "sing_f": _reduced_basis(df),
        "sing_g": _reduced_basis(dg),
        "off_v_minors": _reduced_basis(minors),
    }
    return SingDecomposition(
        common_zero=common,
        sing_f=df,
        sing_g=dg,
        off_v_minors=minors,
        simplified=simplified,
    )


# shear -----------------------------------------------------------------------------


class ShearResult(Record):
    f_sheared: MixedPolynomial
    g: MixedPolynomial
    k: int
    verdict: IsolatedVerdict


def axis_shear(f: MixedPolynomial, g: MixedPolynomial, k: int):
    """The sheared pair (f + g^k, g)."""
    _check_holomorphic_pair(f, g, "axis_shear")
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("shear exponent k must be a positive integer")
    return (f + g ** k, g)


def shear_search(
    f: MixedPolynomial, g: MixedPolynomial, *, k_min: int = 2, k_max: int = 8
) -> ShearResult:
    """The least k in [k_min, k_max] whose sheared pair
    isolated_value_verdict calls isolated.

    That is the verdict's answer, not a repair of the germ: the shear keeps
    the critical set (Jac(f + g^k, g) = Jac(f, g)), so critical values that
    pile up at 0 before the shear still do after it.  For a plane pair the
    answer inherits the line-only rule's defect (see the module docstring).
    For (x, x + y^2) it returns k = 2, yet (x + (x + y^2)^2, x + y^2) is
    still singular on |x + 1/3| = 1/3 in {y = 0}, where |F| ~ |x|^2,
    although the line-only verdict calls it isolated.
    """
    for k in range(k_min, k_max + 1):
        fs, gs = axis_shear(f, g, k)
        verdict = isolated_value_verdict(fs, gs)
        if verdict.status == "isolated":
            return ShearResult(f_sheared=fs, g=gs, k=k, verdict=verdict)
    raise ShearSearchExhausted(
        f"no shear exponent in [{k_min}, {k_max}] yields an isolated critical value"
    )
