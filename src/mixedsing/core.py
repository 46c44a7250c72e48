"""Exact arithmetic for mixed polynomials in z and conj(z).

A mixed polynomial in n complex variables is a finite sum

    F(z, zbar) = sum_{(nu, mu)} c_{nu,mu} * z^nu * zbar^mu

with complex-rational coefficients and multi-indices nu, mu of length n.
Treating z and zbar as independent coordinates makes F a polynomial map
R^{2n} -> R^2, and the two Wirtinger gradients (d/dz_j and d/dzbar_j)
carry all first-order real information.

A polynomial is stored cleared: one positive common denominator d and a
dict {monom: (re, im)} of Gaussian integers, monom being the 2n exponents
of z1..zn, z1~..zn~, so that each coefficient is (re + im*i) / d.  The
store is canonical (d and all parts have gcd 1, no zero pair), so == and
hash compare stored values.  All arithmetic runs on Python ints: sums over
the lcm of the denominators, products and powers (square, cube,
multinomial, square-and-multiply) on the pairs, Wirtinger gradients by
scaling parts with exponents, and f * conj(g) as an outer product.  The
dict's order is never read: the term view, the printer and evaluate walk
the monomials in descending graded-lex order on (nu, mu).  The Thom probes
use the same store for polynomials in the curve parameter t: they
substitute probe curves, and form the frame's Gram products, on its pairs.

Scalars are ComplexRational values, which carry no arithmetic: _gaussian
admits an int, Fraction or ComplexRational.  Record is the base of the
package's frozen value types (fields, ==, hash, repr) without generated
code.  The term view reads the store and makes each value on lookup.  The
module also holds the one exact Gauss-Jordan routine over Q (_rref) that
polar and the Thom probes share.

All values here are immutable; arithmetic returns fresh objects in
canonical form (zero coefficients dropped, exponents validated).  Exact
coefficients survive every symbolic operation; floats only appear when
`evaluate` is called.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "ComplexRational",
    "ExponentPair",
    "MixedPolynomial",
    "WirtingerGradient",
    "complex_point",
    "from_pair",
]

class Record:
    """Base of a frozen value type, as dataclass(frozen=True) would make it.

    A subclass's own annotations are its fields, in order, and a value set
    in its body is that field's default; a dict default is copied for each
    instance.  __init__ takes the fields by position or keyword (TypeError
    for a missing or unexpected one), then runs __post_init__ if defined.
    == holds between instances of one class with equal fields, hash is that
    of the field values, and repr reads Name(a=1, b='x').  Fields are set
    once, by object.__setattr__; assigning or deleting raises AttributeError.
    _replace(**changes), copy and pickle rebuild a value through __init__.
    The hot types, ComplexRational and ExponentPair, keep slots and their
    own __init__, == and hash, as the generic ones are slower.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                default = cls._defaults[name]
                values[name] = dict(default) if isinstance(default, dict) else default
            object.__setattr__(self, name, values[name])
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with the given fields changed, built by __init__."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class ComplexRational(Record):
    """A Gaussian rational re + im*i with auto-reduced Fraction parts: a
    plain value with no arithmetic (exact scalar work runs on Fractions and
    cleared integer pairs)."""

    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        for name, x in (("re", re), ("im", im)):
            if isinstance(x, int):
                x = Fraction(x)
            elif not isinstance(x, Fraction):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
            object.__setattr__(self, name, x)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

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


def _gaussian(x) -> ComplexRational:
    """An int, Fraction or ComplexRational as a ComplexRational: the one way
    a scalar enters exact arithmetic (TypeError for anything else)."""
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexRational._trusted(Fraction(x), Fraction(0))
    raise TypeError(f"expected int, Fraction or ComplexRational, got {type(x).__name__}")


def _grlex(m: tuple[int, ...]) -> tuple:
    """The graded-lex key of an exponent tuple: total degree, then lex."""
    return sum(m), m


@cache
def _monomial_ops(k: int):
    """(mul, div, lcm) on exponent tuples of length k, unrolled as sympy's
    MonomialOps writes them; about three times as fast as loops over zip in
    the kernels' inner loops.  div(a, b) is None when b does not divide a."""
    js = range(k)

    def tup(fmt: str) -> str:
        return "(" + "".join(fmt.format(j=j) + ", " for j in js) + ")"

    head = f"(A, B):\n    {tup('a{j}')} = A\n    {tup('b{j}')} = B\n"
    namespace: dict = {}
    exec(
        f"def mul{head}    return {tup('a{j} + b{j}')}\n"
        f"def div{head}    if {' or '.join(f'a{j} < b{j}' for j in js)}:\n        return None\n"
        f"    return {tup('a{j} - b{j}')}\n"
        f"def lcm{head}    return {tup('a{j} if a{j} >= b{j} else b{j}')}\n",
        namespace,
    )
    return namespace["mul"], namespace["div"], namespace["lcm"]


def _reduced(d: int, pairs: dict) -> tuple[int, dict]:
    """(d, pairs) with d and every part divided by their gcd."""
    if d == 1:
        return d, pairs
    g = math.gcd(d, *chain.from_iterable(pairs.values()))
    if g == 1:
        return d, pairs
    return d // g, {m: (x // g, y // g) for m, (x, y) in pairs.items()}


def _cleared(F: "MixedPolynomial") -> tuple[int, dict]:
    """F's canonical store (d, {monom: (re, im)}), each coefficient being
    (re + im*i) / d; read-only, and its dict order means nothing."""
    return F._d, F._p


def _from_cleared(n_vars: int, d: int, pairs: dict) -> "MixedPolynomial":
    """The n_vars-variable polynomial with coefficient (re + im*i) / d at
    each monom of pairs, which holds no zero pair; takes ownership of pairs."""
    return MixedPolynomial._new(n_vars, *_reduced(d, pairs))


def _monic(F: "MixedPolynomial") -> "MixedPolynomial":
    """A nonzero F divided by its leading coefficient in the term order."""
    p = F._p
    x, y = p[max(p, key=_grlex)]
    # (a + b*i) / (x + y*i) = (a + b*i) * (x - y*i) / (x^2 + y^2)
    return _from_cleared(
        F._n, x * x + y * y, {m: (a * x + b * y, b * x - a * y) for m, (a, b) in p.items()}
    )


# Gaussian-integer kernels on {monom: (re, im)} dicts.  Powers follow sympy's
# PolyElement.__pow__ dispatch; the results' dict order is arbitrary.

_ZERO = (0, 0)


def _mul_pairs(p: dict, q: dict) -> dict:
    """p * q."""
    if not p or not q:
        return {}
    mul = _monomial_ops(len(next(iter(p))))[0]
    out: dict = {}
    get = out.get
    q_items = list(q.items())
    for m1, (a, b) in p.items():
        for m2, (c, d) in q_items:
            m = mul(m1, m2)
            x, y = get(m, _ZERO)
            out[m] = (x + a * c - b * d, y + a * d + b * c)
    return {m: v for m, v in out.items() if v != _ZERO}


def _square_pairs(p: dict) -> dict:
    """p * p: cross terms once and doubled, then the squares of the terms."""
    if not p:
        return {}
    mul = _monomial_ops(len(next(iter(p))))[0]
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


def _multinomials(m: int, e: int):
    """(k, e! / (k_1! ... k_m!)) for every k in N^m with k_1 + ... + k_m = e."""
    if m == 1:
        yield (e,), 1
        return
    for k in range(e + 1):
        c = math.comb(e, k)
        for rest, r in _multinomials(m - 1, e - k):
            yield (k, *rest), c * r


def _multinomial_pairs(p: dict, e: int) -> dict:
    """p ** e for 2..5 terms: one term per multinomial coefficient, from a
    table of each base term's powers."""
    zero = (0,) * len(next(iter(p)))
    tables = []
    for m, (x, y) in p.items():
        row, a, b = [(zero, 1, 0)], 1, 0
        for k in range(1, e + 1):
            a, b = a * x - b * y, a * y + b * x
            row.append((tuple(k * v for v in m), a, b))
        tables.append(row)
    mul = _monomial_ops(len(zero))[0]
    out: dict = {}
    for exps, coeff in _multinomials(len(tables), e):
        m, a, b = zero, coeff, 0
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


def _power_pairs(p: dict, e: int) -> dict:
    """p ** e for a nonzero p and e >= 2: square, cube, multinomial up to
    five terms, else square-and-multiply."""
    if e == 2:
        return _square_pairs(p)
    if e == 3:
        return _mul_pairs(p, _square_pairs(p))
    if len(p) <= 5:
        return _multinomial_pairs(p, e)
    acc = None
    while True:
        if e & 1:
            acc = p if acc is None else _mul_pairs(acc, p)
            e -= 1
            if not e:
                return acc
        p = _square_pairs(p)
        e //= 2


# exact linear algebra over Q ---------------------------------------------------


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form over Q of the matrix with these rows
    (ints or Fractions), without its zero rows, and its pivot columns, by
    Gauss-Jordan elimination.  The form is unique, so it is the one any
    exact routine returns."""
    M = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pivot = M[r][c]
        M[r] = [x / pivot for x in M[r]]
        for i, row in enumerate(M):
            if i != r and row[c]:
                f = row[c]
                M[i] = [x - f * y for x, y in zip(row, M[r])]
        pivots.append(c)
        if len(pivots) == len(M):
            break
    return M[:len(pivots)], pivots


def _inverse(A) -> list[list[Fraction]]:
    """The inverse over Q of a square matrix, from _rref of [A | I]."""
    k = len(A)
    R, pivots = _rref([[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(A)])
    if pivots[k - 1] >= k:
        raise ZeroDivisionError("singular matrix")
    return [row[k:] for row in R]


def _matmul(A, B) -> list[list]:
    """The matrix product A B; zero entries are skipped, not multiplied."""
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in cols] for row in A]


class ExponentPair(Record):
    """Multi-index pair (nu, mu): exponents of z and of conj(z)."""

    __slots__ = ("nu", "mu")
    nu: tuple[int, ...]
    mu: tuple[int, ...]

    def __init__(self, nu: tuple[int, ...], mu: tuple[int, ...]):
        nu, mu = tuple(nu), tuple(mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        if len(nu) != len(mu):
            raise ValueError(f"nu and mu must have equal length, got {len(nu)} != {len(mu)}")
        if any(not isinstance(e, int) or e < 0 for e in nu + mu):
            raise ValueError(f"exponents must be nonnegative integers: nu={nu} mu={mu}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nu == other.nu and self.mu == other.mu

    def __hash__(self) -> int:
        return hash((self.nu, self.mu))

    @property
    def n_vars(self) -> int:
        return len(self.nu)

    @classmethod
    def _trusted(cls, nu: tuple[int, ...], mu: tuple[int, ...]) -> "ExponentPair":
        """A pair from tuples already known to be valid (a stored monomial's
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


class WirtingerGradient(Record):
    """Both Wirtinger gradients of a mixed polynomial, componentwise."""

    dF: tuple["MixedPolynomial", ...]
    dbarF: tuple["MixedPolynomial", ...]

    @property
    def n_vars(self) -> int:
        return len(self.dF)


class _Terms(Mapping):
    """F.terms: a read-only {ExponentPair: ComplexRational} view of F's store
    (n, d, pairs), whose len, in and keys build no Fraction."""

    __slots__ = ("_n", "_d", "_p", "_order")

    def __init__(self, n: int, d: int, pairs: dict):
        self._n, self._d, self._p, self._order = n, d, pairs, None

    def __len__(self) -> int:
        return len(self._p)

    def __iter__(self) -> Iterator[ExponentPair]:
        if self._order is None:
            self._order = sorted(self._p, key=_grlex, reverse=True)
        n = self._n
        return (ExponentPair._trusted(m[:n], m[n:]) for m in self._order)

    def __contains__(self, pair) -> bool:
        return isinstance(pair, ExponentPair) and pair.nu + pair.mu in self._p

    def __getitem__(self, pair) -> ComplexRational:
        if pair not in self:
            raise KeyError(pair)
        x, y = self._p[pair.nu + pair.mu]
        return ComplexRational._trusted(Fraction(x, self._d), Fraction(y, self._d))


def _scalar_store(c, n_vars: int) -> tuple[int, dict]:
    """The canonical store (d, pairs) of the constant c (TypeError unless a scalar)."""
    c = _gaussian(c)
    (x, b), (y, e) = c.re.as_integer_ratio(), c.im.as_integer_ratio()
    return _reduced(b * e, {(0,) * (2 * n_vars): (x * e, y * b)} if x or y else {})


class MixedPolynomial:
    """Immutable sparse mixed polynomial.

    Stored cleared (see the module docstring): n_vars, a positive common
    denominator d and {monom: (re, im)}, where the monom nu + mu is the
    exponent pair (monom[:n], monom[n:]).  The zero polynomial stores no
    pair and d = 1.
    """

    __slots__ = ("_n", "_d", "_p", "_terms")

    def __init__(self, n_vars: int, terms: Mapping[ExponentPair, ComplexRational] | Iterable = ()):
        if not isinstance(n_vars, int) or n_vars < 1:
            raise ValueError(f"n_vars must be a positive integer, got {n_vars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], tuple] = {}
        for pair, coeff in items:
            if not isinstance(pair, ExponentPair):
                pair = ExponentPair(*pair)
            if pair.n_vars != n_vars:
                raise ValueError(
                    f"exponent pair over {pair.n_vars} variables in a {n_vars}-variable polynomial"
                )
            monom = pair.nu + pair.mu
            c = _gaussian(coeff)
            re, im = acc.get(monom, _ZERO)
            acc[monom] = (re + c.re, im + c.im)
        acc = {m: c for m, c in acc.items() if c[0] or c[1]}
        # the lcm of reduced denominators leaves parts and d with gcd 1
        d = math.lcm(*(q.denominator for c in acc.values() for q in c))
        pairs = {
            m: (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
            for m, (re, im) in acc.items()
        }
        self._set(n_vars, d, pairs)

    def _set(self, n_vars: int, d: int, pairs: dict) -> None:
        object.__setattr__(self, "_n", n_vars)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_p", pairs)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _new(cls, n_vars: int, d: int, pairs: dict) -> "MixedPolynomial":
        """Wrap a canonical store without copying or re-validating it."""
        self = object.__new__(cls)
        self._set(n_vars, d, pairs)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError("MixedPolynomial is immutable")

    __delattr__ = __setattr__

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MixedPolynomial":
        return cls.constant(0, n_vars)

    @classmethod
    def constant(cls, c, n_vars: int) -> "MixedPolynomial":
        if not isinstance(n_vars, int) or n_vars < 1:
            raise ValueError(f"n_vars must be a positive integer, got {n_vars!r}")
        return cls._new(n_vars, *_scalar_store(c, n_vars))

    @classmethod
    def one(cls, n_vars: int) -> "MixedPolynomial":
        return cls.constant(1, n_vars)

    @classmethod
    def variable(cls, j: int, n_vars: int) -> "MixedPolynomial":
        """The coordinate z_j (0-based j)."""
        if not 0 <= j < n_vars:
            raise ValueError(f"variable index {j} out of range for n_vars={n_vars}")
        return cls._new(n_vars, 1, {tuple(int(i == j) for i in range(2 * n_vars)): (1, 0)})

    # -- structure ------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self._n

    @property
    def terms(self) -> Mapping[ExponentPair, ComplexRational]:
        """Read-only {ExponentPair: ComplexRational} view over the store in
        descending graded-lex order on nu + mu; values are made on access."""
        if self._terms is None:
            object.__setattr__(self, "_terms", _Terms(self._n, self._d, self._p))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._p

    @property
    def is_holomorphic(self) -> bool:
        n = self._n
        return not any(any(m[n:]) for m in self._p)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        return max(map(sum, self._p), default=-1)

    def variables_used(self) -> frozenset[int]:
        n = self._n
        used = set()
        for m in self._p:
            used.update(j for j in range(n) if m[j] or m[n + j])
        return frozenset(used)

    def constant_term(self) -> ComplexRational:
        zeros = (0,) * self._n
        return self.coefficient(zeros, zeros)

    def coefficient(self, nu: Sequence[int], mu: Sequence[int]) -> ComplexRational:
        pair = ExponentPair(tuple(nu), tuple(mu))
        if pair.n_vars != self._n:
            raise ValueError(
                f"exponent pair over {pair.n_vars} variables in a {self._n}-variable polynomial"
            )
        x, y = self._p.get(pair.nu + pair.mu, _ZERO)
        return ComplexRational._trusted(Fraction(x, self._d), Fraction(y, self._d))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedPolynomial):
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._p == other._p

    def __hash__(self) -> int:
        return hash((self._n, self._d, frozenset(self._p.items())))

    def __repr__(self) -> str:
        n, d, p = self._n, self._d, self._p
        body = ", ".join(
            f"{m[:n]}|{m[n:]}: {Fraction(x, d)}{'+' if y >= 0 else ''}{Fraction(y, d)}i"
            for m in sorted(p, key=_grlex, reverse=True) for x, y in (p[m],)
        )
        return f"MixedPolynomial(n={self.n_vars}, {{{body}}})"

    # -- ring operations -------------------------------------------------------

    def _operand(self, other):
        """other's store (d, pairs), or NotImplemented."""
        if isinstance(other, MixedPolynomial):
            if self._n != other._n:
                raise ValueError(
                    "mixed polynomials over different variable counts: "
                    f"{self._n} != {other._n}"
                )
            return other._d, other._p
        try:
            return _scalar_store(other, self._n)
        except TypeError:
            return NotImplemented

    def _sum(self, d2: int, p2: dict, sign: int) -> "MixedPolynomial":
        """self + sign * (p2 / d2), over the lcm of the denominators."""
        d1, p1 = self._d, self._p
        d = math.lcm(d1, d2)
        k1, k2 = d // d1, sign * (d // d2)
        out = dict(p1) if k1 == 1 else {m: (k1 * x, k1 * y) for m, (x, y) in p1.items()}
        get = out.get
        for m, (x, y) in p2.items():
            u, v = get(m, _ZERO)
            u, v = u + k2 * x, v + k2 * y
            if u or v:
                out[m] = (u, v)
            else:
                del out[m]
        return _from_cleared(self._n, d, out)

    def __add__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return self._sum(*q, 1)

    __radd__ = __add__

    def __neg__(self) -> "MixedPolynomial":
        return MixedPolynomial._new(self._n, self._d, {m: (-x, -y) for m, (x, y) in self._p.items()})

    def __sub__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return self._sum(*q, -1)

    def __rsub__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        return (-self)._sum(*q, 1)

    def __mul__(self, other):
        q = self._operand(other)
        if q is NotImplemented:
            return NotImplemented
        d, p = q
        return _from_cleared(self._n, self._d * d, _mul_pairs(self._p, p))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MixedPolynomial":
        """self ** e, computed on the stored Gaussian-integer pairs over d**e."""
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        if not self._p:
            if not e:
                raise ValueError("0**0")
            return self
        if not e:
            return MixedPolynomial.one(self._n)
        if e == 1:
            return self
        return _from_cleared(self._n, self._d ** e, _power_pairs(self._p, e))

    # -- the operations that matter --------------------------------------------

    def conjugate(self) -> "MixedPolynomial":
        """Complex conjugate: swaps nu <-> mu and conjugates coefficients."""
        n = self._n
        return MixedPolynomial._new(
            n, self._d, {m[n:] + m[:n]: (x, -y) for m, (x, y) in self._p.items()}
        )

    def wirtinger(self) -> WirtingerGradient:
        """Both Wirtinger gradients, treating z and conj(z) as independent.

        One pass over the terms fills all 2n partial derivatives; each
        coefficient's parts are multiplied by the exponent directly."""
        n, d = self._n, self._d
        parts: list[dict] = [{} for _ in range(2 * n)]
        for m, (x, y) in self._p.items():
            for i, e in enumerate(m):
                if e:
                    parts[i][m[:i] + (e - 1,) + m[i + 1:]] = (x * e, y * e)
        grads = [_from_cleared(n, d, part) for part in parts]
        return WirtingerGradient(tuple(grads[:n]), tuple(grads[n:]))

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Evaluate at a point; exact coefficients are complexified last."""
        n, d, p = self._n, self._d, self._p
        # (index in the monomial, base) in the order z1, z1~, z2, z2~, ...,
        # which fixes the order of the float products and so their rounding
        bases = [(i, w) for j, v in enumerate(complex_point(z, n))
                 for i, w in ((j, v), (n + j, v.conjugate()))]
        total = 0j
        for m in sorted(p, key=_grlex, reverse=True):
            w = 1 + 0j
            for i, v in bases:
                if m[i]:
                    w *= v ** m[i]
            x, y = p[m]
            total += complex(x / d, y / d) * w
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
    products of terms share a monomial: the product is an outer product of
    the stored pairs a, b, taken as a*conj(b) over the product of the
    denominators."""
    _check_holomorphic_pair(f, g, "from_pair")
    n = f.n_vars
    g_items = list(g._p.items())
    out = {}
    for mf, (ax, ay) in f._p.items():
        head = mf[:n]
        for mg, (bx, by) in g_items:
            out[head + mg[:n]] = (ax * bx + ay * by, ay * bx - ax * by)
    return _from_cleared(n, f._d * g._d, out)
