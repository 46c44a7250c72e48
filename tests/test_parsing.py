"""Expression syntax and the canonical formatter."""

import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from mixedsing import MixedPolynomial, ParseError, SourceExpr, format_mixed, format_scalar, parse, parse_mixed
from mixedsing.core import CR_I, ComplexRational, ExponentPair
from mixedsing.parsing import MAX_TERMS
from oracles import random_mixed, reference_format, reference_scalar, reference_terms

XY = ("x", "y")
XYZ = ("x", "y", "z")


@pytest.mark.parametrize(
    "text,variables,expected",
    [
        ("x*y*x~", XY, "1*z1*z1~*z2"),
        ("(x^2 - z*y^2)*y~", XYZ, "-1*z2^2*z2~*z3 + 1*z1^2*z2~"),
        ("conj(x + i*y)", XY, "1*z1~ - i*z2~"),
        ("x - 3/2", ("x",), "1*z1 - 3/2"),
        ("(1 + 2*i)*x - y", XY, "(1+2*i)*z1 - 1*z2"),
        ("x^2*x - x*x^2", ("x",), "0 (n=1)"),
        ("-x*-y", XY, "1*z1*z2"),
        ("i^2", ("x",), "-1"),
        ("2^3 + x", ("x",), "1*z1 + 8"),
        ("x + 2*y^3", XY, "2*z2^3 + 1*z1"),
        ("(x + 2*y)^2", XY, "1*z1^2 + 4*z1*z2 + 4*z2^2"),
        ("x - y - z", XYZ, "1*z1 - 1*z2 - 1*z3"),
        ("(x + y)~", XY, "1*z1~ + 1*z2~"),
        ("x~~", ("x",), "1*z1"),
        ("0 (n=3)", XYZ, "0 (n=3)"),
    ],
)
def test_frozen_canonical_forms(text, variables, expected):
    assert format_mixed(parse(text, variables)) == expected


def test_conj_call_matches_postfix():
    assert parse("conj(x + i*y)", XY) == parse("(x + i*y)~", XY)
    assert parse("conj(x*y)", XY) == parse("x~*y~", XY)


def test_roundtrip_random(rng):
    """format -> parse is the identity; format is idempotent."""
    for _ in range(300):
        p = random_mixed(rng, max_terms=5)
        text = format_mixed(p)
        names = tuple(f"z{j + 1}" for j in range(p.n_vars))
        q = parse(text, names)
        assert q == p
        assert format_mixed(q) == text


def test_zero_form_dimension_mismatch():
    with pytest.raises(ParseError):
        parse("0 (n=2)", XYZ)


def test_source_expr_validation():
    with pytest.raises(ParseError):
        SourceExpr("x", ())
    with pytest.raises(ParseError):
        SourceExpr("x", ("x", "x"))
    with pytest.raises(ParseError):
        SourceExpr("i", ("i",))
    with pytest.raises(ParseError):
        SourceExpr("x", ("conj",))
    with pytest.raises(ParseError):
        SourceExpr("x", ("2bad",))
    with pytest.raises(ParseError):
        SourceExpr("a", tuple("abcdefghj"))  # 9 > 8


@pytest.mark.parametrize(
    "text,variables,at",
    [
        ("x +", XY, 3),          # dangling operator
        ("x^y", XY, 2),          # nonliteral exponent
        ("x^2^3", XY, 3),        # chained power
        ("x^70", XY, 2),         # exponent over the cap
        ("q + x", XY, 0),        # unknown identifier
        ("3/0", XY, 2),          # zero denominator
        ("3/x", XY, 2),          # nonliteral denominator
        ("x)", XY, 1),           # trailing input
        ("(x", XY, 2),           # unclosed paren
        ("x $ y", XY, 2),        # stray character
        ("", XY, 0),             # empty input
        ("0^0", XY, 2),          # 0^0, at its exponent
        ("(x - x)^0", XY, 8),
        ("(x+y+z+x~+y~+z~+1)^16", XYZ, 18),      # C(22, 6) terms, over the cap
        ("(x+y+z+1)^24*(x+y+z+1)^24", XYZ, 12),  # 2,925^2 terms, over the cap
    ],
)
def test_error_positions(text, variables, at):
    with pytest.raises(ParseError) as err:
        parse(text, variables)
    assert err.value.position == at


def test_parse_mixed_uses_declared_names():
    src = SourceExpr("alpha*beta~", ("alpha", "beta"))
    assert format_mixed(parse_mixed(src)) == "1*z1*z2~"


def test_format_scalar():
    assert format_scalar(ComplexRational(-3, 2)) == "(-3+2*i)"
    assert format_scalar(CR_I) == "i"
    assert format_scalar(ComplexRational(0, -1)) == "-i"
    assert format_scalar(ComplexRational(7)) == "7"


# parts the printer special-cases: zero, +-1 (a bare "i"), negatives, unit
# and non-unit denominators, and numerators and denominators above 2^64
_PARTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-7, 3),
          Fraction(5, 6), Fraction(2**64 + 13), Fraction(-(2**70 + 1), 3),
          Fraction(11, 2**65 + 1), Fraction(-1, 4)]


def _random_format_case(r: random.Random, n: int) -> MixedPolynomial:
    terms = {}
    for _ in range(r.choice([0, 1, 2, 3, 5])):
        nu = tuple(r.randint(0, 3) for _ in range(n))
        mu = tuple(r.randint(0, 2) for _ in range(n))
        terms[ExponentPair(nu, mu)] = ComplexRational(r.choice(_PARTS), r.choice(_PARTS))
    return MixedPolynomial(n, terms)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def test_integer_printer_matches_fraction_view_reference():
    """format_mixed and format_scalar print from the store's integer parts;
    their text equals the formatter that reads eager Fraction coefficients,
    also on products, whose parts share one denominator."""
    r = random.Random(29)
    signs, zeros = set(), 0
    for _ in range(2000):
        n = r.randint(1, 3)
        F = _random_format_case(r, n)
        if r.random() < 0.2:
            F = F * _random_format_case(r, n)
        zeros += F.is_zero
        assert format_mixed(F) == reference_format(F), reference_terms(F)
        for c in reference_terms(F).values():
            assert format_scalar(c) == reference_scalar(c), c
            signs.add((_sign(c.re), _sign(c.im)))
    assert zeros and len(signs) == 8  # every sign pattern of a nonzero (re, im)


def test_format_orders_terms_by_graded_lex():
    p = parse("y~ + x^3 + x*y", XY)
    # degree 3 first, then the two quadratics resolve by lex on (nu, mu)
    assert format_mixed(p) == "1*z1^3 + 1*z1*z2 + 1*z2~"


def test_constant_formatting():
    assert format_mixed(MixedPolynomial.constant(-1, 1)) == "-1"
    assert format_mixed(MixedPolynomial.constant(ComplexRational(0, -3), 2)) == "-3*i"


@pytest.mark.parametrize(
    "text,variables,n_terms,nu,mu,coeff",
    [
        # C(27, 3) monomials of degree <= 24 in three variables
        ("(x+y+z+1)^24", XYZ, comb(27, 3), (8, 8, 8), (0, 0, 0),
         factorial(24) // factorial(8) ** 3),
        # x and x~ are independent generators: C(23, 3) monomials
        ("(x+x~+y+1)^20", XY, comb(23, 3), (5, 5), (5, 0),
         factorial(20) // factorial(5) ** 4),
    ],
)
def test_powered_sum_expansion_scale(text, variables, n_terms, nu, mu, coeff):
    """Large powers expand exactly, within a generous wall budget."""
    budget = 5.0
    t0 = time.perf_counter()
    p = parse(text, variables)
    elapsed = time.perf_counter() - t0
    assert len(p.terms) == n_terms
    assert p.coefficient(nu, mu) == ComplexRational(coeff)
    assert elapsed < budget


def test_term_budget_refuses_before_expanding():
    """C(70, 6) terms would take hours; the bound is checked first."""
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match=f"cap of {MAX_TERMS}") as err:
        parse("(x+y+z+x~+y~+z~+1)^64", XYZ)
    assert time.perf_counter() - t0 < 1.0
    assert err.value.position == 18


def test_term_budget_admits_the_cap():
    p100 = " + ".join(f"x^{a}*y^{b}" for a in range(10) for b in range(10))
    q100 = " + ".join(f"z^{c}*x~^{d}" for c in range(10) for d in range(10))
    assert len(parse(f"({p100})*({q100})", XYZ).terms) == MAX_TERMS
    with pytest.raises(ParseError, match="10100 terms") as err:
        parse(f"({p100})*({q100} + y~)", XYZ)
    assert err.value.position == len(p100) + 2


def test_term_budget_admits_dense_powers():
    """C(19, 9) = 92,378 by the multinomial count, but x has degree 9, so at
    most 10*9 + 1 = 91 terms."""
    text = "(" + " + ".join(f"x^{k}" for k in range(10)) + ")^10"
    assert len(parse(text, ("x",)).terms) == 91
