"""Exact arithmetic core: scalars, terms, ring laws, Wirtinger calculus."""

import copy
import math
import pickle
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from sympy.polys.domains import QQ, QQ_I, ZZ_I
from sympy.polys.domains.domain import Domain
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from mixedsing import (
    ComplexRational,
    ExponentPair,
    MixedPolynomial,
    complex_point,
    format_mixed,
    from_pair,
    parse,
)
from mixedsing import core, parsing, polar
from mixedsing.core import Record, _cleared, _gaussian
from mixedsing.discgeom import LineComponent, LineReport, SingDecomposition
from mixedsing.fixtures import Fixture
from mixedsing.milnorprobe import RouteRecord, ScanResult
from mixedsing.polar import solve_polar
from mixedsing.thomprobe import CurveGerm, Stratum
from conftest import random_points
from oracles import (
    fd_real_gradients,
    oracle_evaluate,
    oracle_wirtinger,
    poly_to_dict,
    random_mixed,
    reference_terms,
)

CR = ComplexRational
HALF = Fraction(1, 2)


class TestComplexRational:
    def test_fraction_reduction_and_equality(self):
        assert CR(Fraction(2, 4)) == CR(HALF)
        assert CR(3) == CR(Fraction(3), Fraction(0))
        assert CR(1, 2) != CR(1)

    def test_complex_conversion(self):
        assert complex(CR(Fraction(3, 2), Fraction(-2))) == 1.5 - 2j
        assert complex(CR(0)) == 0j

    def test_flags(self):
        assert CR(0).is_zero and not CR(0, 1).is_zero


class TestScalarEntry:
    """_gaussian is the one way a scalar enters exact arithmetic; a constant
    polynomial's cleared store gives it back."""

    def test_round_trip(self, rng):
        for _ in range(40):
            re = Fraction(int(rng.integers(-99, 100)), int(rng.choice([1, 2, 3, 4, 6, 9, 12])))
            im = Fraction(int(rng.integers(-99, 100)), int(rng.choice([1, 5, 7, 10, 25])))
            for c in (CR(re, im), CR(re), CR(0, im)):
                assert _gaussian(c) == c
                assert MixedPolynomial.constant(c, 2).constant_term() == c
        assert _gaussian(Fraction(-6, 8)) == CR(Fraction(-3, 4))
        assert _gaussian(7) == CR(7)

    def test_only_exact_scalars_enter(self):
        for bad in (0.1, 0.5j, "1"):
            with pytest.raises(TypeError):
                _gaussian(bad)
        with pytest.raises(TypeError):
            CR(0.1)
        with pytest.raises(TypeError):
            MixedPolynomial.one(1) * 0.1
        with pytest.raises(TypeError):
            0.1 + MixedPolynomial.one(1)


class TestExponentPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentPair((1, 0), (0,))
        with pytest.raises(ValueError):
            ExponentPair((-1,), (0,))
        # the type is checked before the sign, so these get the class's error
        with pytest.raises(ValueError, match="nonnegative integers"):
            ExponentPair(("a",), (0,))
        with pytest.raises(ValueError, match="nonnegative integers"):
            ExponentPair((None,), (0,))

    def test_degree_swap_key(self):
        p = ExponentPair((2, 0), (0, 3))
        assert p.degree == 5
        # graded ordering: degree dominates the lex tail
        q = ExponentPair((4, 0), (0, 0))
        assert q.key() < p.key()


class _Point(Record):
    x: int
    y: int = 0
    tags: dict = {}


class _Twin(Record):
    x: int
    y: int = 0
    tags: dict = {}


class TestRecord:
    """core.Record, the base of the package's frozen value types, keeps the
    contract of dataclass(frozen=True)."""

    def test_positional_and_keyword_construction(self):
        assert _Point(1, 2, {"a": 1}) == _Point(tags={"a": 1}, y=2, x=1)
        assert _Point(1, y=2).y == 2
        assert RouteRecord("polar", "fired").detail == ""

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                      # x is missing
        ((), {"y": 1}),                # x is missing
        ((1,), {"z": 1}),              # no field z
        ((1,), {"x": 1}),              # x twice
        ((1, 2, {}, 4), {}),           # one argument too many
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)

    def test_dict_defaults_are_fresh_per_instance(self):
        a, b = _Point(1), _Point(1)
        assert a.tags == {} and a.tags is not b.tags
        a.tags["k"] = 1
        assert b.tags == {} and _Point(2).tags == {}
        for cls, name in ((ScanResult, "params"), (SingDecomposition, "simplified"),
                          (Fixture, "expect")):
            n_required = len(cls._fields) - len(cls._defaults)
            first, second = (cls(*[()] * n_required) for _ in range(2))
            assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)

    @pytest.mark.parametrize("value", [
        _Point(1), RouteRecord("polar", "fired"), CR(1, 2), ExponentPair((1,), (0,)),
    ])
    def test_fields_cannot_be_set_or_deleted(self, value):
        name = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 0

    def test_equality_and_hash_by_value(self):
        assert _Point(1, 2, ()) == _Point(1, 2, ()) and hash(_Point(1, 2, ())) == hash((1, 2, ()))
        assert _Point(1, 2) == _Point(1, 2) and _Point(1, 2) != _Point(1, 3)
        with pytest.raises(TypeError):  # a dict field is unhashable
            hash(_Point(1, 2))
        assert len({CR(HALF, 1), CR(Fraction(2, 4), 1), CR(1, HALF)}) == 2
        assert len({ExponentPair((1, 0), (0, 1)), ExponentPair([1, 0], [0, 1])}) == 1
        assert {RouteRecord("a", "b"): 1}[RouteRecord("a", "b", "")] == 1

    def test_other_classes_compare_unequal(self):
        assert _Point(1, 2, ()) != _Twin(1, 2, ())
        assert _Point(1, 2, ()) != (1, 2, ())
        assert CR(1) != 1 and ExponentPair((1,), (0,)) != ((1,), (0,))

    def test_replace(self):
        line = LineComponent(kind="slope", slope=1j)
        moved = line._replace(slope=2j, exact=False)
        assert moved == LineComponent("slope", 2j, None, False)
        assert line.slope == 1j and line.exact
        assert CR(1, 2)._replace(im=3) == CR(1, 3)
        with pytest.raises(ValueError):  # __post_init__ runs again
            line._replace(slope=None)
        with pytest.raises(TypeError):
            line._replace(angle=1)

    def test_copy_and_pickle_keep_the_value(self):
        for value in (_Point(1, 2, {"a": [1]}), CR(HALF, -3), ExponentPair((1, 0), (0, 2)),
                      LineComponent(kind="axis-u")):
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value

    def test_own_methods_win(self):
        lines = LineReport((LineComponent("axis-u"), LineComponent("axis-v")), False)
        assert len(lines) == 2 and [c.kind for c in lines] == ["axis-u", "axis-v"]
        assert repr(CR(1)) == "ComplexRational(1, 0)"

    def test_repr_text(self):
        """The same text as a dataclass's repr, for these types."""
        assert repr(RouteRecord("disc-lines", "isolated", "no slope line")) == (
            "RouteRecord(name='disc-lines', conclusion='isolated', detail='no slope line')")
        line = LineComponent(kind="slope", slope=1j, slope_exact=CR(0, 1),
                             halfline_direction=-1j)
        assert repr(line) == (
            "LineComponent(kind='slope', slope=1j, slope_exact=ComplexRational(0, 1), "
            "exact=True, minpoly=None, halfline_direction=(-0-1j))")
        assert repr(ExponentPair((1, 0), (0, 2))) == "ExponentPair(nu=(1, 0), mu=(0, 2))"
        assert repr(CR(HALF, -3)) == "ComplexRational(1/2, -3)"


class TestConstruction:
    def test_duplicate_pairs_merge_and_zeros_drop(self):
        pair = ExponentPair((1, 0), (0, 0))
        p = MixedPolynomial(2, [(pair, 1), (pair, -1)])
        assert p.is_zero
        q = MixedPolynomial(2, [(pair, 1), (pair, CR(1))])
        assert q.coefficient((1, 0), (0, 0)) == CR(2)

    def test_arity_and_coefficient_validation(self):
        pair = ExponentPair((1,), (0,))
        with pytest.raises(ValueError):
            MixedPolynomial(2, {pair: 1})
        with pytest.raises(TypeError):
            MixedPolynomial(1, {pair: 0.5})
        with pytest.raises(ValueError):
            MixedPolynomial(0)

    def test_immutable(self):
        p = MixedPolynomial.one(1)
        with pytest.raises(AttributeError):
            p.n_vars = 3

    def test_hash_consistency(self):
        a = parse("x*y + y", ("x", "y"))
        b = parse("y + y*x", ("x", "y"))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_named_constructors(self):
        assert format_mixed(MixedPolynomial.variable(0, 2)) == "1*z1"
        assert MixedPolynomial.zero(3).is_zero
        assert MixedPolynomial.one(3).total_degree() == 0

    def test_zero_conventions(self):
        z = MixedPolynomial.zero(2)
        assert z.total_degree() == -1
        assert format_mixed(z) == "0 (n=2)"
        grad = z.wirtinger()
        assert all(p.is_zero for p in grad.dF + grad.dbarF)

    def test_is_holomorphic_and_variables_used(self):
        p = parse("x^2 + x*z~", ("x", "y", "z"))
        assert not p.is_holomorphic
        assert parse("x^2 + z", ("x", "y", "z")).is_holomorphic
        assert p.variables_used() == frozenset({0, 2})


def test_ring_laws(rng):
    """Associativity, commutativity, distributivity, exact and seeded."""
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = random_mixed(rng, n_vars=n, max_terms=3, max_degree=2)
        q = random_mixed(rng, n_vars=n, max_terms=3, max_degree=2)
        r = random_mixed(rng, n_vars=n, max_terms=3, max_degree=2)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == MixedPolynomial.zero(n)
        assert 2 * p == p + p
    p = random_mixed(rng, n_vars=2)
    assert p ** 3 == p * p * p
    assert p ** 0 == MixedPolynomial.one(2)


def test_cross_arity_operations_rejected():
    with pytest.raises(ValueError):
        parse("x", ("x",)) + parse("x", ("x", "y"))
    with pytest.raises(ValueError):
        parse("x", ("x",)) * parse("y", ("x", "y"))


def test_conjugate_is_a_ring_involution(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = random_mixed(rng, n_vars=n)
        q = random_mixed(rng, n_vars=n)
        assert p.conjugate().conjugate() == p
        assert (p + q).conjugate() == p.conjugate() + q.conjugate()
        assert (p * q).conjugate() == p.conjugate() * q.conjugate()


def test_conjugate_evaluates_to_conjugate(rng):
    for _ in range(40):
        p = random_mixed(rng)
        for pt in random_points(rng, p.n_vars, 3):
            lhs = p.conjugate().evaluate(pt)
            rhs = p.evaluate(pt).conjugate()
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_wirtinger_product_rule(rng):
    """d(PQ) = dP*Q + P*dQ, exactly, in both gradient halves."""
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = random_mixed(rng, n_vars=n, max_terms=3)
        q = random_mixed(rng, n_vars=n, max_terms=3)
        gp, gq, gpq = p.wirtinger(), q.wirtinger(), (p * q).wirtinger()
        for j in range(n):
            assert gpq.dF[j] == gp.dF[j] * q + p * gq.dF[j]
            assert gpq.dbarF[j] == gp.dbarF[j] * q + p * gq.dbarF[j]


def test_wirtinger_conjugation_commutation(rng):
    """The z-gradient of conj(P) is the conjugated zbar-gradient of P."""
    for _ in range(100):
        p = random_mixed(rng)
        gp = p.wirtinger()
        gc = p.conjugate().wirtinger()
        for j in range(p.n_vars):
            assert gc.dF[j] == gp.dbarF[j].conjugate()
            assert gc.dbarF[j] == gp.dF[j].conjugate()


def test_wirtinger_matches_sympy_oracle(rng):
    for _ in range(60):
        p = random_mixed(rng)
        odF, odbarF = oracle_wirtinger(p)
        g = p.wirtinger()
        for j in range(p.n_vars):
            assert poly_to_dict(g.dF[j]) == odF[j]
            assert poly_to_dict(g.dbarF[j]) == odbarF[j]


def test_evaluate_matches_sympy_oracle(rng):
    for _ in range(25):
        p = random_mixed(rng)
        for pt in random_points(rng, p.n_vars, 2):
            mine = p.evaluate(pt)
            ref = oracle_evaluate(p, pt)
            assert abs(mine - ref) <= 1e-9 * (1 + abs(ref))


def test_finite_difference_gradient_agreement(rng):
    """x and y partials from central differences match the Wirtinger pair."""
    for _ in range(30):
        p = random_mixed(rng, max_degree=2)
        g = p.wirtinger()
        for pt in random_points(rng, p.n_vars, 2, scale=0.5):
            dx, dy = fd_real_gradients(p, pt)
            for j in range(p.n_vars):
                dz = g.dF[j].evaluate(pt)
                dzb = g.dbarF[j].evaluate(pt)
                want_x = dz + dzb
                want_y = 1j * (dz - dzb)
                assert abs(dx[j] - want_x) <= 1e-6 * (1 + abs(want_x))
                assert abs(dy[j] - want_y) <= 1e-6 * (1 + abs(want_y))


class TestFromPair:
    def test_known_product(self):
        f = parse("x*y", ("x", "y"))
        g = parse("x", ("x", "y"))
        assert from_pair(f, g) == parse("x*y*x~", ("x", "y"))

    def test_rejects_mixed_inputs(self):
        with pytest.raises(ValueError):
            from_pair(parse("x~", ("x",)), parse("x", ("x",)))
        with pytest.raises(ValueError):
            from_pair(parse("x", ("x",)), parse("x~", ("x",)))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            from_pair(parse("x", ("x",)), parse("y", ("x", "y")))

    def test_agrees_with_pointwise_product(self, rng):
        f = parse("x^2 - y^3", ("x", "y"))
        g = parse("x + y^2", ("x", "y"))
        F = from_pair(f, g)
        for pt in random_points(rng, 2, 10):
            want = f.evaluate(pt) * g.evaluate(pt).conjugate()
            assert abs(F.evaluate(pt) - want) <= 1e-10 * (1 + abs(want))


def _gaussian_poly(rng, n_terms, n_vars=2, holomorphic=False):
    """Seeded mixed polynomial with Gaussian-rational coefficients whose
    real and imaginary parts have unlike denominators."""
    terms = {}
    while len(terms) < n_terms:
        nu = tuple(int(e) for e in rng.integers(0, 3, size=n_vars))
        mu = tuple(0 if holomorphic else int(e) for e in rng.integers(0, 2, size=n_vars))
        re = Fraction(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3, 4, 6, 9])))
        im = Fraction(int(rng.integers(-9, 10)), int(rng.choice([1, 5, 7, 10])))
        terms[ExponentPair(nu, mu)] = CR(re, im) if re or im else CR(1)
    return MixedPolynomial(n_vars, terms)


@cache
def _reference_ring(n_vars):
    """sympy's QQ_I[z1..zn, z1~..zn~] in graded-lex order: the reference."""
    names = [f"z{j + 1}" for j in range(n_vars)] + [f"z{j + 1}~" for j in range(n_vars)]
    return ring(names, QQ_I, order=grlex)[0]


def _to_ring(F):
    """F as an element of the reference ring."""
    def q(x):
        return QQ(x.numerator, x.denominator)

    return _reference_ring(F.n_vars).from_dict(
        {p.nu + p.mu: QQ_I.dtype.new(q(c.re), q(c.im)) for p, c in F.terms.items()}
    )


def _from_ring(p, n_vars):
    """An element of the reference ring as a MixedPolynomial."""
    return MixedPolynomial(n_vars, {
        ExponentPair(m[:n_vars], m[n_vars:]):
            CR(Fraction(c.x.numerator, c.x.denominator), Fraction(c.y.numerator, c.y.denominator))
        for m, c in p.items()
    })


class TestKernels:
    """Powers, Wirtinger gradients and from_pair run on cleared-denominator
    integers; each must equal sympy's generic ring operation exactly, with
    both sides converted at the edge."""

    def test_power_matches_ring_power(self, rng):
        bases = [
            MixedPolynomial.zero(2),
            MixedPolynomial.constant(CR(Fraction(2, 3), Fraction(-1, 5)), 2),
        ]
        # one term; 3-4 terms (sympy's multinomial path); 7+ terms (generic)
        bases += [_gaussian_poly(rng, k) for k in (1, 1, 3, 4, 4, 7, 8)]
        for F in bases:
            for e in (0, 1, 2, 3, 7):
                if F.is_zero and e == 0:
                    with pytest.raises(ValueError, match="0\\*\\*0"):
                        F ** e
                    continue
                assert F ** e == _from_ring(_to_ring(F) ** e, F.n_vars), (F, e)

    def test_wirtinger_matches_ring_diff(self, rng):
        for k in (1, 3, 6):
            for n in (1, 2, 3):
                F = _gaussian_poly(rng, k, n)
                grad = F.wirtinger()
                want = [_to_ring(F).diff(x) for x in _reference_ring(n).gens]
                assert [_to_ring(p) for p in grad.dF + grad.dbarF] == want, F

    def test_from_pair_matches_ring_product(self, rng):
        for kf, kg in ((1, 1), (2, 3), (5, 4), (0, 3)):
            f = _gaussian_poly(rng, kf, holomorphic=True)
            g = _gaussian_poly(rng, kg, holomorphic=True)
            assert _to_ring(from_pair(f, g)) == _to_ring(f) * _to_ring(g.conjugate()), (f, g)

    def test_wirtinger_makes_no_domain_conversion(self, rng, monkeypatch):
        field = type(QQ_I)
        calls = []
        convert = field.convert
        monkeypatch.setattr(
            field, "convert", lambda self, *a, **k: calls.append(a) or convert(self, *a, **k)
        )
        F = _gaussian_poly(rng, 6, 2)
        _to_ring(F).diff(_reference_ring(2).gens[0])
        assert calls, "the counter must see sympy's own diff convert"
        calls.clear()
        F.wirtinger()
        assert calls == []

    @pytest.mark.parametrize(
        "text",
        [
            "x*x~ + x + x~",                # products of terms collide on x^a*x~^b
            "x^2 + 2*x*y - 2*y^2",          # 4*x^2*y^2 - 4*x^2*y^2 cancels in the square
            "i",                            # a Gaussian unit: i^k cycles through 1, i, -1, -i
            "i*x - i",
            "(1/2 + 1/2*i)*x + (1/2 - 1/2*i)*y~",
            "1 + x + x^2 + x~ + 2/3*x*x~",            # five terms: the multinomial path
            "1 + x + x^2 + x~ + 2/3*x*x~ - i*x~^2",   # six terms: square-and-multiply
        ],
    )
    def test_power_cases_match_ring_power(self, text):
        F = parse(text, ("x", "y"))
        for e in (*range(10), 16):
            assert F ** e == _from_ring(_to_ring(F) ** e, 2), (text, e)

    def test_power_cancellation_leaves_no_zero_key(self):
        F = parse("x^2 + 2*x*y - 2*y^2", ("x", "y"))
        assert (2, 2, 0, 0) not in _cleared(F ** 2)[1]
        assert _to_ring(F ** 2) == _to_ring(F) ** 2

    def test_power_boundary_and_every_exponent(self, rng):
        for k in (2, 5, 6):
            F = _gaussian_poly(rng, k, n_vars=1)
            for e in (*range(10), 16):
                got, want = F ** e, _to_ring(F) ** e
                assert _to_ring(got) == want, (F, e)
                # the term view in sympy's own graded-lex term order
                assert [p.nu + p.mu for p in got.terms] == [m for m, _ in want.terms()], (F, e)

    def test_power_makes_no_domain_conversion(self, rng, monkeypatch):
        calls = []
        convert = Domain.convert
        monkeypatch.setattr(
            Domain, "convert", lambda self, *a, **k: calls.append(a) or convert(self, *a, **k)
        )
        F = parse("2*x + y~ - 3*i", ("x", "y"))
        integer = _reference_ring(2).clone(domain=ZZ_I)
        integer({m: ZZ_I.new(x, y) for m, (x, y) in _cleared(F)[1].items()}) ** 5
        assert calls, "the counter must see sympy's own ZZ_I power convert"
        bases = (F, _gaussian_poly(rng, 1), _gaussian_poly(rng, 4), _gaussian_poly(rng, 7))
        calls.clear()
        for G in bases:
            for e in (0, 1, 2, 3, 5):
                G ** e
        assert calls == []

    def test_term_view_matches_validated_pairs(self, rng):
        F = _gaussian_poly(rng, 7, 3)
        n = F.n_vars
        want = [ExponentPair(tuple(m[:n]), tuple(m[n:])) for m, _ in _to_ring(F).terms()]
        got = list(F.terms)
        assert got == want
        assert [hash(p) for p in got] == [hash(p) for p in want]
        assert all(type(p.nu) is tuple and type(p.mu) is tuple for p in got)

    def test_store_is_canonical(self, rng):
        """d > 0 and gcd(d, every part) = 1 after every operation, so equal
        values have equal stores; 1/2 + 1/2 and 2 * (x/2) clear to d = 1."""
        x = parse("x", ("x", "y"))
        assert _cleared(parse("1/2 + 1/2", ("x", "y"))) == (1, {(0, 0, 0, 0): (1, 0)})
        assert _cleared(2 * parse("1/2*x", ("x", "y"))) == _cleared(x)
        assert _cleared(parse("(1+i)*x", ("x", "y")) * parse("1/2 - 1/2*i", ("x", "y"))) == _cleared(x)
        for _ in range(40):
            F, G = _gaussian_poly(rng, 3), _gaussian_poly(rng, 4)
            for H in (F + G, F - G, F * G, F ** 3, -F, F.conjugate(), *F.wirtinger().dF):
                d, pairs = _cleared(H)
                assert d > 0 and math.gcd(d, *(v for xy in pairs.values() for v in xy)) == 1
                assert _cleared(_from_ring(_to_ring(H), 2)) == (d, pairs)


class TestTermView:
    """F.terms is a read-only Mapping over the store: len, in and the keys
    read the store alone, and a value is made when it is looked up."""

    def test_mapping_contract(self, rng):
        cases = [_gaussian_poly(rng, k, n) for k in (1, 4, 6) for n in (1, 2, 3)]
        cases += [random_mixed(rng, allow_zero=True) for _ in range(30)]
        for F in cases:
            view, want = F.terms, reference_terms(F)
            assert view is F.terms
            assert len(view) == len(want)
            assert list(view) == sorted(want, key=ExponentPair.key, reverse=True)
            assert view == want and dict(view.items()) == want
            assert all(pair in view and view[pair] == c for pair, c in want.items())
            assert MixedPolynomial(F.n_vars, view) == F
        F = parse("2*x*y~ - i", ("x", "y"))
        absent = ExponentPair((1, 1), (0, 0))
        for key in (absent, (1, 0, 0, 1), ((1, 0), (0, 1)), "x", None):
            assert key not in F.terms and F.terms.get(key) is None
            with pytest.raises(KeyError):
                F.terms[key]
        with pytest.raises(TypeError):
            F.terms[absent] = CR(1)
        with pytest.raises(TypeError):
            del F.terms[ExponentPair((1, 0), (0, 1))]

    def test_named_constructors_build_canonical_stores(self):
        scalars = [0, 7, -3, True, HALF, Fraction(4, 2), CR(0), CR(0, -1),
                   CR(Fraction(1, 6), Fraction(-5, 4)), CR(Fraction(2, 3), Fraction(4, 3))]
        for n in (1, 3):
            zeros = (0,) * n
            for c in scalars:
                got = MixedPolynomial.constant(c, n)
                assert _cleared(got) == _cleared(MixedPolynomial(n, {ExponentPair(zeros, zeros): c}))
                assert MixedPolynomial.one(n) + c == MixedPolynomial.one(n) + got
            for j in range(n):
                nu = tuple(int(i == j) for i in range(n))
                assert _cleared(MixedPolynomial.variable(j, n)) == _cleared(
                    MixedPolynomial(n, {ExponentPair(nu, zeros): 1}))
            assert _cleared(MixedPolynomial.zero(n)) == (1, {})
        for bad_n in (0, -1, "2", 1.5):
            for make in (MixedPolynomial.zero, MixedPolynomial.one,
                         lambda n: MixedPolynomial.constant(1, n)):
                with pytest.raises(ValueError, match="n_vars"):
                    make(bad_n)
        for j, n in ((-1, 2), (2, 2), (0, 0)):
            with pytest.raises(ValueError, match="variable index"):
                MixedPolynomial.variable(j, n)
        for c in (0.5, "1", None, 1j):
            with pytest.raises(TypeError):
                MixedPolynomial.constant(c, 2)
            with pytest.raises(TypeError):
                MixedPolynomial.one(2) + c

    def test_store_readers_build_no_fraction(self, monkeypatch):
        """len, the keys, format_mixed and solve_polar of a 1,296-term
        product read the store; only a looked-up value makes Fractions."""
        made = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        f = parse("(x + 2*y - 1/3)^7", ("x", "y"))
        g = parse("(x - i*y + 5)^7", ("x", "y"))
        P, one = from_pair(f, g), CR(1)
        for module in (core, parsing, polar):
            monkeypatch.setattr(module, "Fraction", Counted)
        assert len(P.terms) == 36 * 36
        keys = list(P.terms)
        text = format_mixed(P)
        assert solve_polar(P).status == "none"
        assert made == []
        assert P.terms[keys[0]] == one and len(made) == 2
        assert text.startswith("1*z1^7*z1~^7 + ")


def test_complex_point_validation():
    assert complex_point((1, 1j)) == (1 + 0j, 1j)
    with pytest.raises(ValueError):
        complex_point((1,), 2)
    with pytest.raises(ValueError):
        complex_point((float("nan"),))
    assert complex_point((np.float64(0.5), np.complex128(1j), Fraction(1, 4))) == (0.5, 1j, 0.25)


def test_text_is_not_a_coordinate():
    """complex() parses "1+2j"; a point, curve or stratum must not."""
    with pytest.raises(TypeError, match="text"):
        complex_point(("1+2j",))
    with pytest.raises(TypeError, match="text"):
        CurveGerm(((("1+2j", 1),),))
    with pytest.raises(TypeError, match="text"):
        Stratum(base_point=("0",), tangent=(("1j",),))
    with pytest.raises(TypeError, match="text"):
        parse("x", ("x",)).evaluate(["0.5"])
