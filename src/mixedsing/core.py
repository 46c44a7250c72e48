"""Exact arithmetic for mixed polynomials in z and conj(z).

A mixed polynomial in n complex variables is a finite sum

    F(z, zbar) = sum_{(nu, mu)} c_{nu,mu} * z^nu * zbar^mu

with complex-rational coefficients and multi-indices nu, mu of length n.
Treating z and zbar as independent coordinates makes F a polynomial map
R^{2n} -> R^2, and the two Wirtinger gradients (d/dz_j and d/dzbar_j)
carry all first-order real information.

Polynomials live in sympy's sparse polynomial ring over the Gaussian
rationals QQ_I, in 2n generators z1..zn, z1~..zn~, and ring arithmetic does
the symbolic work.  The three hot operations avoid sympy's per-coefficient
conversions: powers clear denominators once and follow sympy's own power
dispatch on plain (re, im) integer pairs, Wirtinger gradients scale
coefficient parts by exponents directly, and f * conj(g) is an outer product
of cleared-denominator integer pairs.  Each returns exactly the element
sympy's generic path would.

Scalars are ring elements too.  ComplexRational is the public exact value
and carries no arithmetic: _gaussian maps an int, Fraction or
ComplexRational into QQ_I, and _from_gaussian maps a QQ_I element back out.
The ExponentPair/ComplexRational term view is built through it on demand.

All values here are immutable; arithmetic returns fresh objects in
canonical form (zero coefficients dropped, exponents validated).  Exact
coefficients survive every symbolic operation; floats only appear when
`evaluate` is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import sympy as sp
from sympy.ntheory.multinomial import multinomial_coefficients
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing, ring

__all__ = [
    "ComplexRational",
    "ExponentPair",
    "MixedPolynomial",
    "WirtingerGradient",
    "complex_point",
    "from_pair",
]

@dataclass(frozen=True, slots=True)
class ComplexRational:
    """A Gaussian rational re + im*i with auto-reduced Fraction parts: a
    plain value with no arithmetic (exact scalar work runs in QQ_I)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("re", "im"):
            x = getattr(self, name)
            if isinstance(x, int):
                object.__setattr__(self, name, Fraction(x))
            elif not isinstance(x, Fraction):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")

    @classmethod
    def _trusted(cls, re: Fraction, im: Fraction) -> "ComplexRational":
        """A value from two Fractions, skipping the constructor's checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!s}, {self.im!s})"


CR_I = ComplexRational(Fraction(0), Fraction(1))


def _gaussian(x):
    """An int, Fraction or ComplexRational as an element of QQ_I."""
    if isinstance(x, ComplexRational):
        re, im = x.re, x.im
        q = QQ.dtype
        return QQ_I.dtype.new(q(re.numerator, re.denominator), q(im.numerator, im.denominator))
    if isinstance(x, (int, Fraction)):
        return QQ_I.dtype.new(QQ.dtype(x.numerator, x.denominator), QQ.zero)
    raise TypeError(f"expected int, Fraction or ComplexRational, got {type(x).__name__}")


def _from_gaussian(c) -> ComplexRational:
    """A QQ_I element as a ComplexRational."""
    return ComplexRational._trusted(
        Fraction(int(c.x.numerator), int(c.x.denominator)),
        Fraction(int(c.y.numerator), int(c.y.denominator)),
    )


@cache
def _ring(n_vars: int) -> PolyRing:
    """QQ_I[z1..zn, z1~..zn~] in graded-lex order, the canonical term order."""
    names = [f"z{j + 1}" for j in range(n_vars)] + [f"z{j + 1}~" for j in range(n_vars)]
    return ring([sp.Symbol(s) for s in names], QQ_I, order=grlex)[0]


def _cleared(poly) -> tuple[int, dict]:
    """(d, {monom: (re, im)}): d is the lcm of every coefficient part's
    denominator and re + im*i = d * c is a Gaussian integer, in the
    element's own order."""
    d = math.lcm(*(q.denominator for c in poly.values() for q in (c.x, c.y)))
    return d, {
        m: (c.x.numerator * (d // c.x.denominator), c.y.numerator * (d // c.y.denominator))
        for m, c in poly.items()
    }


def _uncleared(ring, d: int, pairs: dict):
    """The inverse of _cleared: the element of ring with coefficient
    (re + im*i) / d at each monomial of {monom: (re, im)}."""
    new, q = QQ_I.dtype.new, QQ.dtype
    return ring.dtype({m: new(q(x, d), q(y, d)) for m, (x, y) in pairs.items()})


# Gaussian-integer kernels on {monom: (re, im)} dicts.  Each mirrors the sympy
# PolyElement routine it replaces, loop for loop, so the result has the same
# terms in the same dict order; only the coefficient type differs.

_ZERO = (0, 0)


def _mul_pairs(ring, p: dict, q: dict) -> dict:
    """p * q, as PolyElement.__mul__."""
    mul = ring.monomial_mul
    out: dict = {}
    get = out.get
    q_items = list(q.items())
    for m1, (a, b) in p.items():
        for m2, (c, d) in q_items:
            m = mul(m1, m2)
            x, y = get(m, _ZERO)
            out[m] = (x + a * c - b * d, y + a * d + b * c)
    return {m: v for m, v in out.items() if v != _ZERO}


def _square_pairs(ring, p: dict) -> dict:
    """p * p, as PolyElement.square: cross terms once and doubled, then the
    squares of the terms."""
    mul = ring.monomial_mul
    items = list(p.items())
    out: dict = {}
    get = out.get
    for i, (m1, (a, b)) in enumerate(items):
        for m2, (c, d) in items[:i]:
            m = mul(m1, m2)
            x, y = get(m, _ZERO)
            out[m] = (x + a * c - b * d, y + a * d + b * c)
    out = {m: (2 * x, 2 * y) for m, (x, y) in out.items()}
    get = out.get
    for m, (a, b) in items:
        m2 = mul(m, m)
        x, y = get(m2, _ZERO)
        out[m2] = (x + a * a - b * b, y + 2 * a * b)
    return {m: v for m, v in out.items() if v != _ZERO}


def _multinomial_pairs(ring, p: dict, e: int) -> dict:
    """p ** e for 2..5 terms, as PolyElement._pow_multinomial: one term per
    multinomial coefficient, from a table of each base term's powers."""
    tables = []
    for m, (x, y) in p.items():
        row, a, b = [(ring.zero_monom, 1, 0)], 1, 0
        for k in range(1, e + 1):
            a, b = a * x - b * y, a * y + b * x
            row.append((ring.monomial_pow(m, k), a, b))
        tables.append(row)
    mul = ring.monomial_mul
    out: dict = {}
    for exps, coeff in multinomial_coefficients(len(tables), e).items():
        m, a, b = ring.zero_monom, coeff, 0
        for k, row in zip(exps, tables):
            if k:
                mk, x, y = row[k]
                m = mul(m, mk)
                a, b = a * x - b * y, a * y + b * x
        x, y = out.get(m, _ZERO)
        a, b = a + x, b + y
        if a or b:
            out[m] = (a, b)
        elif m in out:
            del out[m]
    return out


def _power_pairs(ring, p: dict, e: int) -> dict:
    """p ** e for e >= 2, with PolyElement.__pow__'s dispatch: square, cube,
    multinomial up to five terms, else square-and-multiply."""
    if e == 2:
        return _square_pairs(ring, p)
    if e == 3:
        return _mul_pairs(ring, p, _square_pairs(ring, p))
    if len(p) <= 5:
        return _multinomial_pairs(ring, p, e)
    acc = None
    while True:
        if e & 1:
            acc = p if acc is None else _mul_pairs(ring, acc, p)
            e -= 1
            if not e:
                return acc
        p = _square_pairs(ring, p)
        e //= 2


@dataclass(frozen=True, slots=True)
class ExponentPair:
    """Multi-index pair (nu, mu): exponents of z and of conj(z)."""

    nu: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        nu, mu = tuple(self.nu), tuple(self.mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        if len(nu) != len(mu):
            raise ValueError(f"nu and mu must have equal length, got {len(nu)} != {len(mu)}")
        if any(not isinstance(e, int) or e < 0 for e in nu + mu):
            raise ValueError(f"exponents must be nonnegative integers: nu={nu} mu={mu}")

    @property
    def n_vars(self) -> int:
        return len(self.nu)

    @classmethod
    def _trusted(cls, nu: tuple[int, ...], mu: tuple[int, ...]) -> "ExponentPair":
        """A pair from tuples already known to be valid (a ring monomial's
        halves), skipping the constructor's checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        return self

    @property
    def degree(self) -> int:
        return sum(self.nu) + sum(self.mu)

    def key(self) -> tuple:
        # graded lexicographic on the concatenated (nu, mu)
        return (self.degree, self.nu + self.mu)


@dataclass(frozen=True)
class WirtingerGradient:
    """Both Wirtinger gradients of a mixed polynomial, componentwise."""

    dF: tuple["MixedPolynomial", ...]
    dbarF: tuple["MixedPolynomial", ...]

    @property
    def n_vars(self) -> int:
        return len(self.dF)


class MixedPolynomial:
    """Immutable sparse mixed polynomial.

    The polynomial is one element of sympy's sparse ring over Q(i) in 2n
    generators, z1..zn then z1~..zn~, so the ring monomial m is the exponent
    pair (m[:n], m[n:]).  The ring never stores a zero coefficient; the zero
    polynomial is the empty element, and n_vars is the ring's half rank.
    """

    __slots__ = ("_poly", "_terms")

    def __init__(self, n_vars: int, terms: Mapping[ExponentPair, ComplexRational] | Iterable = ()):
        if not isinstance(n_vars, int) or n_vars < 1:
            raise ValueError(f"n_vars must be a positive integer, got {n_vars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], object] = {}
        for pair, coeff in items:
            if not isinstance(pair, ExponentPair):
                pair = ExponentPair(*pair)
            if pair.n_vars != n_vars:
                raise ValueError(
                    f"exponent pair over {pair.n_vars} variables in a {n_vars}-variable polynomial"
                )
            monom = pair.nu + pair.mu
            acc[monom] = acc.get(monom, QQ_I.zero) + _gaussian(coeff)
        object.__setattr__(self, "_poly", _ring(n_vars).dtype({m: c for m, c in acc.items() if c}))
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _from_poly(cls, poly) -> "MixedPolynomial":
        """Wrap an element of _ring(n) without copying or re-validating it."""
        self = object.__new__(cls)
        object.__setattr__(self, "_poly", poly)
        object.__setattr__(self, "_terms", None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("MixedPolynomial is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MixedPolynomial":
        return cls(n_vars)

    @classmethod
    def constant(cls, c, n_vars: int) -> "MixedPolynomial":
        zeros = (0,) * n_vars
        return cls(n_vars, {ExponentPair(zeros, zeros): c})

    @classmethod
    def one(cls, n_vars: int) -> "MixedPolynomial":
        return cls.constant(1, n_vars)

    @classmethod
    def variable(cls, j: int, n_vars: int) -> "MixedPolynomial":
        """The coordinate z_j (0-based j)."""
        if not 0 <= j < n_vars:
            raise ValueError(f"variable index {j} out of range for n_vars={n_vars}")
        nu = tuple(1 if i == j else 0 for i in range(n_vars))
        return cls(n_vars, {ExponentPair(nu, (0,) * n_vars): 1})

    # -- structure ------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self._poly.ring.ngens // 2

    @property
    def terms(self) -> Mapping[ExponentPair, ComplexRational]:
        """Read-only {ExponentPair: ComplexRational} view, in canonical order.

        Built on first access from the ring element's graded-lex terms.
        """
        if self._terms is None:
            n = self.n_vars
            view = {
                ExponentPair._trusted(m[:n], m[n:]): _from_gaussian(c)
                for m, c in self._poly.terms()
            }
            object.__setattr__(self, "_terms", MappingProxyType(view))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._poly

    @property
    def is_holomorphic(self) -> bool:
        n = self.n_vars
        return not any(any(m[n:]) for m in self._poly)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        return max(map(sum, self._poly), default=-1)

    def variables_used(self) -> frozenset[int]:
        n = self.n_vars
        used = set()
        for m in self._poly:
            used.update(j for j in range(n) if m[j] or m[n + j])
        return frozenset(used)

    def constant_term(self) -> ComplexRational:
        zeros = (0,) * self.n_vars
        return self.coefficient(zeros, zeros)

    def coefficient(self, nu: Sequence[int], mu: Sequence[int]) -> ComplexRational:
        pair = ExponentPair(tuple(nu), tuple(mu))
        return _from_gaussian(self._poly.get(pair.nu + pair.mu, QQ_I.zero))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedPolynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self._poly == other._poly

    def __hash__(self) -> int:
        return hash(self._poly)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{p.nu}|{p.mu}: {c.re}{'+' if c.im >= 0 else ''}{c.im}i"
            for p, c in self.terms.items()
        )
        return f"MixedPolynomial(n={self.n_vars}, {{{body}}})"

    # -- ring operations -------------------------------------------------------

    def _operand(self, other):
        """other as an element of this polynomial's ring, or NotImplemented."""
        if isinstance(other, MixedPolynomial):
            if self.n_vars != other.n_vars:
                raise ValueError(
                    "mixed polynomials over different variable counts: "
                    f"{self.n_vars} != {other.n_vars}"
                )
            return other._poly
        try:
            c = _gaussian(other)
        except TypeError:
            return NotImplemented
        return self._poly.ring.ground_new(c)

    def __add__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return MixedPolynomial._from_poly(self._poly + q)

    __radd__ = __add__

    def __neg__(self) -> "MixedPolynomial":
        return MixedPolynomial._from_poly(-self._poly)

    def __sub__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return MixedPolynomial._from_poly(self._poly - q)

    def __rsub__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return MixedPolynomial._from_poly(q - self._poly)

    def __mul__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return MixedPolynomial._from_poly(self._poly * q)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MixedPolynomial":
        """self ** e, computed as (d*self) ** e on Gaussian-integer pairs, then
        divided by d**e, where d clears every denominator."""
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        ring = self._poly.ring
        if not self._poly:
            if not e:
                raise ValueError("0**0")
            return self
        if not e:
            return MixedPolynomial._from_poly(ring.one)
        if e == 1:
            return self
        d, pairs = _cleared(self._poly)
        return MixedPolynomial._from_poly(_uncleared(ring, d ** e, _power_pairs(ring, pairs, e)))

    # -- the operations that matter --------------------------------------------

    def conjugate(self) -> "MixedPolynomial":
        """Complex conjugate: swaps nu <-> mu and conjugates coefficients."""
        n = self.n_vars
        return MixedPolynomial._from_poly(
            self._poly.ring.dtype({m[n:] + m[:n]: c.new(c.x, -c.y) for m, c in self._poly.items()})
        )

    def wirtinger(self) -> WirtingerGradient:
        """Both Wirtinger gradients, treating z and conj(z) as independent.

        One pass over the terms fills all 2n partial derivatives; each
        coefficient's parts are multiplied by the exponent directly."""
        ring = self._poly.ring
        new = QQ_I.dtype.new
        parts: list[dict] = [{} for _ in range(ring.ngens)]
        for m, c in self._poly.items():
            for i, e in enumerate(m):
                if e:
                    parts[i][m[:i] + (e - 1,) + m[i + 1:]] = new(c.x * e, c.y * e)
        d = [MixedPolynomial._from_poly(ring.dtype(part)) for part in parts]
        n = self.n_vars
        return WirtingerGradient(tuple(d[:n]), tuple(d[n:]))

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Evaluate at a point; exact coefficients are complexified last."""
        pt = complex_point(z, self.n_vars)
        zb = tuple(w.conjugate() for w in pt)
        total = 0j
        for p, c in self.terms.items():
            m = 1 + 0j
            for j in range(self.n_vars):
                if p.nu[j]:
                    m *= pt[j] ** p.nu[j]
                if p.mu[j]:
                    m *= zb[j] ** p.mu[j]
            total += complex(c) * m
        return total


def complex_point(coords: Sequence[complex], n_vars: int | None = None) -> tuple[complex, ...]:
    """Validate and normalize a point of C^n: finite complex entries, never
    text (which complex() would parse)."""
    pt = []
    for w in coords:
        if isinstance(w, (str, bytes)):
            raise TypeError(f"point coordinates must be numbers, not text: {w!r}")
        w = complex(w)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError(f"non-finite coordinate {w!r}")
        pt.append(w)
    if n_vars is not None and len(pt) != n_vars:
        raise ValueError(f"point has {len(pt)} coordinates, expected {n_vars}")
    return tuple(pt)


def _check_holomorphic_pair(f: MixedPolynomial, g: MixedPolynomial, op: str) -> None:
    """Reject anything but two holomorphic polynomials in the same variables;
    op, the operation checked, leads every message."""
    if not isinstance(f, MixedPolynomial) or not isinstance(g, MixedPolynomial):
        raise TypeError(f"{op} expects two MixedPolynomial values")
    if f.n_vars != g.n_vars:
        raise ValueError(f"{op}: variable counts differ ({f.n_vars} != {g.n_vars})")
    if not f.is_holomorphic:
        raise ValueError(f"{op}: f must be holomorphic (no conj factors)")
    if not g.is_holomorphic:
        raise ValueError(f"{op}: g must be holomorphic (no conj factors)")


def from_pair(f: MixedPolynomial, g: MixedPolynomial) -> MixedPolynomial:
    """Build the mixed product f * conj(g) from two holomorphic inputs.

    f has z-monomials only and conj(g) zbar-monomials only, so no two
    products of terms share a monomial: the product is an outer product,
    taken on cleared-denominator Gaussian integers a = df*f_c, b = dg*g_c
    as a*conj(b) / (df*dg)."""
    _check_holomorphic_pair(f, g, "from_pair")
    n = f.n_vars
    df, f_terms = _cleared(f._poly)
    dg, g_terms = _cleared(g._poly)
    g_items = list(g_terms.items())
    out = {}
    for mf, (ax, ay) in f_terms.items():
        head = mf[:n]
        for mg, (bx, by) in g_items:
            out[head + mg[:n]] = (ax * bx + ay * by, ay * bx - ax * by)
    return MixedPolynomial._from_poly(_uncleared(f._poly.ring, df * dg, out))
