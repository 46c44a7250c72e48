"""Exact target-space geometry: discriminants, lines, branches, verdicts,
and the float residual that vanishes at critical points."""

import math
import operator
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.domains.algebraicfield import AlgebraicField
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

from mixedsing import (
    ComplexRational,
    MixedPolynomial,
    PlaneCurve,
    PuiseuxBranch,
    axis_shear,
    branch_restriction_singular,
    discriminant_curve,
    format_mixed,
    from_pair,
    isolated_value_verdict,
    jacobian_det,
    line_components,
    parse,
    parse_branch,
    shear_search,
    sing_decomposition,
    tube_verdict,
)
from mixedsing import discgeom
from mixedsing.discgeom import (
    DegenerateEliminationError,
    DegreeBoundError,
    ShearSearchExhausted,
    _factor_gaussian,
    _groebner,
    _jacobian_minors,
    _on_line,
    _to_ring,
    _vanishes_on_critical_set,
)
from conftest import random_points
from oracles import (
    elimination_discriminant,
    expr_line_components,
    expr_reduced_basis,
    expr_vanishes_on_critical_set,
    jacobian_factor_classes,
    line_forms,
    numeric_branch_singular,
    random_mixed,
    sing_residual,
)

UV = ("u", "v")
XY = ("x", "y")
XYZ = ("x", "y", "z")
COEFFS = ["1", "2", "3", "-1", "-2", "1/2", "i", "2*i", "(1+i)", "(1-2*i)"]
PLANE_MONOMIALS = ["x", "y", "x^2", "x*y", "y^2"]
AXES = {parse("x", XY), parse("y", XY)}  # the source axes as Jacobian factors
SPACE_MONOMIALS = ["x", "y", "z", "x^2", "x*y", "y*z", "z^2", "x*z", "y^2", "x*y*z"]
XYXBAR = parse("x*y*x~", XY)
Z1 = parse("x", XY)


def pair(ftext, gtext, variables=XY):
    return parse(ftext, variables), parse(gtext, variables)


def binomial(rng, monomials, variables):
    """A seeded two-term polynomial with coefficients drawn from COEFFS."""
    m1, m2 = rng.choice(monomials, size=2, replace=False)
    c1, c2 = rng.choice(COEFFS, size=2)
    return parse(f"{c1}*{m1} + {c2}*{m2}", variables)


def monomial(rng, variables, max_exponent=3):
    """A seeded term c * x^a * y^b, not constant, with c drawn from COEFFS."""
    a, b = 0, 0
    while not a and not b:
        a, b = rng.integers(0, max_exponent + 1, size=2)
    x, y = variables
    return parse(f"{rng.choice(COEFFS)}*{x}^{a}*{y}^{b}", variables)


def forms_curve(h):
    """The PlaneCurve whose components are the line forms of h."""
    forms = line_forms(h)
    return PlaneCurve(origin_only=not forms, components=forms)


def curve_from(htext):
    return forms_curve(parse(htext, UV))


class TestJacobianDet:
    @pytest.mark.parametrize(
        "f,g,expected",
        [
            ("x", "x + y^2", "2*z2"),
            ("x*y", "x", "-1*z1"),
            ("x^2", "y^3", "6*z1*z2^2"),
        ],
    )
    def test_frozen(self, f, g, expected):
        assert format_mixed(jacobian_det(*pair(f, g))) == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jacobian_det(parse("x", XYZ), parse("y", XYZ))
        with pytest.raises(ValueError):
            jacobian_det(parse("x~", XY), parse("y", XY))


class TestDiscriminantCurve:
    def test_slope_line_pair(self):
        disc = discriminant_curve(*pair("x", "x + y^2"))
        assert not disc.origin_only
        assert [format_mixed(c) for c in disc.components] == ["1*z1 - 1*z2"]

    def test_origin_only_pair(self):
        disc = discriminant_curve(*pair("x*y", "x"))
        assert disc.origin_only
        assert disc.components == ()

    def test_axes_pair(self):
        disc = discriminant_curve(*pair("x^2", "y^3"))
        assert format_mixed(reduce(operator.mul, disc.components)) == "1*z1*z2"
        assert sorted(format_mixed(c) for c in disc.components) == ["1*z1", "1*z2"]

    def test_off_origin_component_excluded_but_reported(self):
        # critical set {x = -1/2} maps to the line {u = -1/4}: not a germ at 0
        disc = discriminant_curve(*pair("x^2 + x", "y"))
        assert disc.origin_only
        assert disc.off_origin_components

    def test_constant_jacobian_means_no_critical_set(self):
        disc = discriminant_curve(*pair("x", "y"))
        assert disc.origin_only and not disc.off_origin_components

    def test_identically_zero_jacobian_rejected(self):
        with pytest.raises(DegenerateEliminationError):
            discriminant_curve(*pair("x*y", "x*y"))

    def test_degree_bound(self):
        with pytest.raises(DegreeBoundError):
            discriminant_curve(*pair("x^9", "y"))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            PlaneCurve(origin_only=False)
        with pytest.raises(ValueError):
            PlaneCurve(origin_only=True, components=(parse("u", UV),))
        with pytest.raises(ValueError):
            PlaneCurve(origin_only=True, non_line_factors=(parse("x^2 - y^3", XY),))

    @pytest.mark.parametrize(
        "f,g,crit_points",
        [
            # critical set {y = 0}
            ("x", "x + y^2", [(t, 0.0) for t in (0.3, -0.2, 0.1j, 0.4 - 0.2j)]),
            # critical set {x = 0} union {y = 0}
            ("x^2", "y^3", [(0.0, 0.5), (0.0, -0.3j), (0.7, 0.0), (0.2j, 0.0)]),
        ],
    )
    def test_image_of_critical_points_lies_on_curve(self, f, g, crit_points):
        fp, gp = pair(f, g)
        h = reduce(operator.mul, discriminant_curve(fp, gp).components)
        for z in crit_points:
            value = (fp.evaluate(z), gp.evaluate(z))
            assert abs(h.evaluate(value)) <= 1e-10


class TestGermLocalLines:
    """The per-factor line test against germ-locality and the elimination."""

    def test_factor_off_the_source_origin_is_dropped(self):
        # J = (y - 1) * (2*x + 3*y - 1): neither factor passes through 0, so
        # the image line of {y = 1} is no part of the germ
        f, g = pair("x", "x*((y-1)^2+2) + y*(y-1)^2")
        v = isolated_value_verdict(f, g)
        assert v.status == "isolated"
        assert parse("y - 1", XY) in v.discriminant.off_origin_components
        assert v.discriminant.origin_only

    @pytest.mark.parametrize(
        "f,g",
        [
            ("x^3+y^4", "x*y+y^2"),
            ("x^3+y^4", "x*y+y^3"),
            ("x^3+y^4", "y+x^2"),
            ("x^4+y^5", "x+y^2"),
            ("x^2+y^3", "x*y+y^3"),
        ],
    )
    def test_non_line_factors_decide_fast(self, f, g):
        t0 = time.perf_counter()
        v = isolated_value_verdict(*pair(f, g))
        assert time.perf_counter() - t0 < 1.0
        assert v.status == "isolated"
        disc = v.discriminant
        assert disc.components == () and disc.non_line_factors and not disc.origin_only
        assert len(v.lines) == 0

    def test_lines_match_elimination_on_seeded_binomial_pairs(self, rng):
        """Seeded binomial pairs, then seeded monomial pairs, whose Jacobians
        are monomials: the line reports, the factors off the source origin
        and the non-line factors all match the elimination."""
        def draw(count, polynomial):
            pairs = []
            while len(pairs) < count:
                f, g = polynomial(), polynomial()
                if not jacobian_det(f, g).is_zero:
                    pairs.append((f, g))
            return pairs

        binomials = draw(30, lambda: binomial(rng, PLANE_MONOMIALS, XY))
        monomials = draw(12, lambda: monomial(rng, XY))
        reports, axis_kinds = [], set()
        for f, g in binomials + monomials:
            disc = discriminant_curve(f, g)
            got = line_components(disc)
            h = elimination_discriminant(f, g)
            assert got == expr_line_components(h), (f, g)
            assert got == line_components(forms_curve(h)), (f, g)
            classes = jacobian_factor_classes(f, g)
            assert disc.off_origin_components == tuple(
                sorted(classes["off-origin"], key=format_mixed)), (f, g)
            assert disc.non_line_factors == tuple(
                sorted(classes["non-line"], key=format_mixed)), (f, g)
            axis_kinds |= {kind for kind, factors in classes.items() if AXES & set(factors)}
            reports.append(got)
        # both verdicts occur in the draw, and x or y is a slope factor of
        # one Jacobian and a non-line factor of another
        assert any(r.has_slope_lines for r in reports)
        assert any(not r.has_slope_lines for r in reports)
        assert {"slope", "non-line"} <= axis_kinds

    def test_degree_four_minpolys_match_elimination(self):
        f, g = pair(
            "x^3 - x^2*y + 2*x*y^2 - y^3", "3*x^3 + 2*x^2*y + 3*x*y^2 + 2*y^3"
        )
        got = line_components(discriminant_curve(f, g))
        assert got == expr_line_components(elimination_discriminant(f, g))
        assert len(got) == 4 and all(c.kind == "slope" and not c.exact for c in got)
        assert len({c.minpoly for c in got}) == 1 and "a**4" in got.components[0].minpoly


# sympy's rings QQ_I[x, y, a] and QQ_I[a], the references' own
_XYA = ring("x y a", QQ_I)[0]
_A = ring("a", QQ_I)[0]


def _refuse_sympy(*args):
    raise AssertionError("a Jacobian factor of degree 1 reached sympy")


class TestLinearFactors:
    """Jacobian factors of degree 1, classified in closed form on core's
    store (_on_line), against the elimination references."""

    @pytest.mark.parametrize(
        "f,g,components,slope",
        [
            # J = -4*y*(x - y): y maps onto {u = 0}, x - y onto {v = 2*u}
            ("y^2", "2*y^2 + (x-y)^2", ("u", "u - 1/2*v"), ComplexRational(Fraction(2))),
            ("y^2", "(1+i)*y^2 + (x-i*y)^2", ("u", "u + (-1/2+1/2*i)*v"),
             ComplexRational(Fraction(1), Fraction(1))),
            # J = 2*(x - y), on which f vanishes: the image is {u = 0}
            ("(x-y)^2", "x", ("u",), None),
        ],
    )
    def test_hand_pairs_with_line_images(self, monkeypatch, f, g, components, slope):
        monkeypatch.setattr(discgeom, "_sympy", _refuse_sympy)
        v = isolated_value_verdict(*pair(f, g))
        assert v.discriminant.components == tuple(parse(c, UV) for c in components)
        assert v.discriminant.non_line_factors == v.discriminant.off_origin_components == ()
        assert [c.kind for c in v.lines] == ["axis-v"] + ["slope"] * (slope is not None)
        if slope is None:
            assert v.status == "isolated" and v.witnesses == ()
        else:
            assert v.status == "not-isolated"
            assert [(c.slope_exact, c.slope) for c in v.witnesses] == [(slope, complex(slope))]

    def test_hand_pair_with_a_non_line_factor(self, monkeypatch):
        # J = x + (2+3i)*y, on which f and g are not proportional
        monkeypatch.setattr(discgeom, "_sympy", _refuse_sympy)
        v = isolated_value_verdict(*pair("(1+i)*y^2 + x*y", "-x + i*y"))
        assert v.status == "isolated" and len(v.lines) == 0
        assert v.discriminant.non_line_factors == (parse("x + (2+3*i)*y", XY),)
        assert v.discriminant.components == ()

    def test_on_line_vanishes_exactly_when_the_line_divides(self, rng):
        monomials = [f"x^{a}*y^{b}" for a in range(5) for b in range(5 - a)]
        zeros = 0
        for _ in range(80):
            alpha, beta = rng.choice(COEFFS + ["0"], size=2)
            if alpha == beta == "0":
                continue
            P = parse(f"{alpha}*x + {beta}*y", XY)
            h = parse(" + ".join(f"{c}*{m}" for c, m in zip(
                rng.choice(COEFFS, size=3), rng.choice(monomials, size=3, replace=False))), XY)
            if rng.random() < 0.5:
                h = h * P
            got = _on_line(h, P)
            assert got.n_vars == 1
            assert got.is_zero == (not _to_ring(h, _XYA).rem(_to_ring(P, _XYA))), (h, P)
            zeros += got.is_zero
        assert 20 <= zeros <= 60

    def test_seeded_linear_factors_match_elimination(self, rng, monkeypatch):
        """Seeded pairs whose Jacobian factors all have degree <= 1: a
        linear cofactor R, lines with non-real coefficients, and an R that
        splits into linear factors.  A pair whose R has degree <= 1 never
        reaches sympy, and no factor of degree 1 meets sympy's division
        tests or resultant."""
        def line():
            return f"(x + {rng.choice(COEFFS)}*y)"

        def c():
            return rng.choice(COEFFS)

        def binomial_text():
            m1, m2 = rng.choice(PLANE_MONOMIALS, size=2, replace=False)
            return f"{c()}*{m1} + {c()}*{m2}"

        templates = [
            lambda: (binomial_text(), binomial_text()),
            lambda: (f"{c()}*y^2", f"{c()}*y^2 + {c()}*{line()}^2"),
            lambda: (f"{c()}*x*{line()}", f"{c()}*{rng.choice(['y', line()])}*{line()}"),
            lambda: (f"{c()}*{line()}^2", f"{c()}*{rng.choice(['x', 'y', line()])}"),
            lambda: (f"{c()}*y^2 + {c()}*x*y", f"{c()}*x + {c()}*y"),
            lambda: (f"{c()}*{line()}^2", f"{c()}*{line()}^3"),
        ]
        pairs, draws = [], 0
        while len(pairs) < 36:
            f, g = pair(*templates[draws % len(templates)]())
            draws += 1
            J = jacobian_det(f, g)
            if J.is_zero:
                continue
            factors = _to_ring(J, _XYA).factor_list()[1]
            if all(max(map(sum, P.monoms())) <= 1 for P, _ in factors):
                # whether R, the cofactor of x^a * y^b in J, has degree <= 1
                linear = sum(m for P, m in factors if P not in _XYA.gens) <= 1
                pairs.append((f, g, linear))
        curves, sympy = [], discgeom._sympy
        with monkeypatch.context() as m:
            m.setattr(discgeom, "_jac", _refuse_sympy)
            m.setattr(discgeom, "_slope_form", _refuse_sympy)
            for f, g, linear in pairs:
                m.setattr(discgeom, "_sympy", _refuse_sympy if linear else sympy)
                curves.append(discriminant_curve(f, g))
        assert {linear for *_, linear in pairs} == {True, False}
        kinds, non_real, split = set(), False, False
        for (f, g, _), disc in zip(pairs, curves):
            classes = jacobian_factor_classes(f, g)
            assert disc.off_origin_components == tuple(
                sorted(classes["off-origin"], key=format_mixed)), (f, g)
            assert disc.non_line_factors == tuple(
                sorted(classes["non-line"], key=format_mixed)), (f, g)
            h = elimination_discriminant(f, g)
            assert set(disc.components) == set(line_forms(h)), (f, g)
            assert line_components(disc) == expr_line_components(h), (f, g)
            kinds |= {kind for kind, factors in classes.items() if set(factors) - AXES}
            lines = [P for kind in ("axis", "slope", "non-line") for P in classes[kind]]
            non_real |= any(c.im for P in lines for c in P.terms.values())
            split |= len(set(classes["origin"] + lines) - AXES) >= 2
        assert kinds == {"off-origin", "origin", "axis", "slope", "non-line"}
        assert non_real and split


class TestFactorGaussian:
    """_factor_gaussian against sympy's own factor_list over QQ_I."""

    def test_seeded_plane_jacobians_match_factor_list(self, rng):
        # pairs of degree <= 4 with one to three terms each
        monomials = [f"x^{a}*y^{b}" for a in range(5) for b in range(5 - a) if a + b]
        jacobians = []
        while len(jacobians) < 100:
            f, g = (
                parse(" + ".join(f"{c}*{m}" for c, m in zip(
                    rng.choice(COEFFS, size=k), rng.choice(monomials, size=k, replace=False)
                )), XY)
                for k in rng.integers(1, 4, size=2)
            )
            J = jacobian_det(f, g)
            if not J.is_zero:
                jacobians.append(_to_ring(J, _XYA))
        for J in jacobians:
            assert _factor_gaussian(J) == J.factor_list()[1], J

    def test_named_polynomials_match_factor_list(self):
        i = QQ_I(0, 1)
        x, y, _ = _XYA.gens
        (a,) = _A.gens
        cases = [
            x**2 + y**2,  # splits over Q(i) only
            x**4 + 1,  # irreducible over Q, splits over Q(i) into x^2 +- i
            (x + i * y) * (x - i * y) ** 3 * (x + 2 * i),
            (x + i * y) ** 2 * (x - i * y) ** 2,  # a rational square
            (x + (1 + i) * y) ** 3 * (x + (1 - i) * y),  # a conjugate pair
            (x**2 + i * y) * (x**2 - i * y),  # degrees (4, 2), splits
            x**2 + 2 * y**2,  # even degrees, irreducible over Q(i)
            x**2 - y**2,  # splits over Q already
            3 * i * (x**2 + y**2),  # unit contents
            (2 - i) * x * y**2,
            -i * (x - 1) * (y + 2),
            (x + i) * (x - i) * (y + 2 * i),
            (x + i * y) ** 2 * y,  # a repeated factor
            i * x**2 * y - 2 * i * y**3,  # purely imaginary coefficients
            -2 * i * (4 * x * y + x - 4 * y - 1),  # a unit times a rational polynomial
        ]
        slope_polynomials = [
            # QQ<i> orders a + 1 + 2*i first, QQ_I orders a + 3 first
            (a + 3) * (a + 1 + 2 * i),
            (a**5 - 2 * i) * (a**6 + (1 + i) * a + 1),
            a**2 + 1,
            a**4 + 4,  # two rational quadratics, each splitting over Q(i)
            (a - i) ** 2 * (a + i),
            a**3 - i,
        ]
        for p in cases + slope_polynomials:
            assert _factor_gaussian(p) == p.factor_list()[1], p
        assert _factor_gaussian(_XYA(3)) == []
        assert [f.degree() for f, _ in _factor_gaussian(slope_polynomials[1])] == [5, 6]
        assert [m for _, m in _factor_gaussian(cases[2])] == [1, 1, 3]
        assert [m for _, m in _factor_gaussian(cases[12])] == [1, 2]

    def test_idle_generators_come_back_in_the_original_ring(self):
        i = QQ_I(0, 1)
        _, y, a = _XYA.gens
        p = (y**2 + a**2) * (y - i) ** 2 * a  # x is idle
        got = _factor_gaussian(p)
        assert got == p.factor_list()[1]
        assert len(got) == 4 and all(f.ring == _XYA for f, _ in got)

    def test_no_conversion_through_sympy_expressions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("QQ_I coefficient converted through an expression")

        monkeypatch.setattr(AlgebraicField, "from_GaussianRationalField", refuse)
        # the Jacobian 3*(x^2 + y^2) splits over Q(i) only, so it reaches QQ<i>
        f, g = pair("x", "y^3 + 3*x^2*y")
        v = isolated_value_verdict(f, g)
        assert v.status == "isolated" and not v.lines.has_slope_lines
        assert set(v.discriminant.non_line_factors) == {
            parse("x + i*y", XY), parse("x - i*y", XY)
        }
        assert line_components(v.discriminant) == v.lines

    def test_import_builds_no_algebraic_field(self):
        code = textwrap.dedent("""
            from sympy.polys.domains.algebraicfield import AlgebraicField
            calls = []
            init = AlgebraicField.__init__
            def counting(self, *args):
                calls.append(args)
                init(self, *args)
            AlgebraicField.__init__ = counting
            import mixedsing.cli
            from mixedsing import discriminant_curve, parse
            counts = [len(calls)]
            for g in ("x + y^2", "y^3 + 3*x^2*y"):
                for _ in range(2):
                    discriminant_curve(parse("x", ("x", "y")), parse(g, ("x", "y")))
                counts.append(len(calls))
            print(*counts)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        # the Jacobian 2*y needs no field; 3*(x^2 + y^2) builds it once
        assert out == ["0", "0", "1"]


class TestLineComponents:
    def test_slope_one_exact(self):
        report = line_components(discriminant_curve(*pair("x", "x + y^2")))
        assert report.has_slope_lines
        (comp,) = report.components
        assert comp.kind == "slope" and comp.exact
        assert comp.slope == 1 + 0j
        assert comp.slope_exact == ComplexRational(Fraction(1))
        assert abs(comp.halfline_direction - 1.0) <= 1e-15

    @pytest.mark.parametrize("htext", ["v - u", "v + 2*u", "v^2 - 2*u^2"])
    def test_real_slopes_give_no_negative_zero(self, htext):
        for c in line_components(curve_from(htext)):
            d = c.halfline_direction
            assert d.imag == 0.0 and math.copysign(1.0, d.imag) == 1.0, d

    def test_axes_are_not_slope_lines(self):
        report = line_components(discriminant_curve(*pair("x^2", "y^3")))
        assert not report.has_slope_lines
        assert sorted(c.kind for c in report) == ["axis-u", "axis-v"]

    def test_single_axes(self):
        assert [c.kind for c in line_components(curve_from("u"))] == ["axis-v"]
        assert [c.kind for c in line_components(curve_from("v"))] == ["axis-u"]

    def test_cusp_has_no_lines(self):
        report = line_components(curve_from("v^2 - u^3"))
        assert not report.has_slope_lines and len(report) == 0

    def test_gaussian_slopes_exact(self):
        report = line_components(curve_from("u^2 + v^2"))
        assert report.has_slope_lines
        slopes = [c.slope for c in report]
        assert slopes == [-1j, 1j]  # sorted by (re, im)
        assert all(c.exact for c in report)
        for c in report:
            assert abs(c.halfline_direction - c.slope.conjugate()) <= 1e-15

    def test_irrational_slopes_numeric_with_minpoly(self):
        report = line_components(curve_from("v^2 - 2*u^2"))
        assert report.has_slope_lines
        slopes = sorted(c.slope.real for c in report)
        assert abs(slopes[0] + np.sqrt(2)) <= 1e-12
        assert abs(slopes[1] - np.sqrt(2)) <= 1e-12
        assert all((not c.exact) and c.minpoly for c in report)

    def test_mixed_axes_and_slope(self):
        report = line_components(curve_from("u*v^2 - u^2*v"))  # u*v*(v - u)
        kinds = sorted(c.kind for c in report)
        assert kinds == ["axis-u", "axis-v", "slope"]
        slope = next(c for c in report if c.kind == "slope")
        assert slope.slope_exact == ComplexRational(Fraction(1))

    def test_origin_only_curve_has_no_lines(self):
        report = line_components(PlaneCurve(origin_only=True))
        assert len(report) == 0 and not report.has_slope_lines

    @pytest.mark.parametrize(
        "htext",
        [
            "u", "v", "v^2 - u^3", "u^2 + v^2", "v^2 - 2*u^2", "u*v^2 - u^2*v",
            "v^2 - u^2 + u^3", "v - u + v^2", "(1+i)*u + v + u*v", "v^3 - 5*u^3 + u^2",
            "v^4 - 3*u^4", "u^5 + 2*v^5 - u*v^4", "u^2*v^2*(v - 2*u)*(v^2 + u^2)",
            "(v^5 - 2*u^5)*(v^6 + u^6 + u^5*v) + u^12",
            "(v^5 - 2*u^5)*(v^6 + u^6 - 3*u^5*v)*(v - u)",
        ],
    )
    def test_curves_match_expression_reference(self, htext):
        assert line_components(curve_from(htext)) == expr_line_components(parse(htext, UV))

    def test_seeded_curves_match_expression_reference(self, rng):
        """Seeded h with up to four terms of degree <= 6, homogeneous or not."""
        hs = []
        while len(hs) < 40:
            exps = {tuple(int(e) for e in rng.integers(0, 4, size=2)) for _ in range(4)}
            htext = " + ".join(f"{rng.choice(COEFFS)}*u^{a}*v^{b}" for a, b in exps)
            h = parse(htext, UV)
            if h.total_degree() > 0:
                hs.append(h)
        reports = [line_components(forms_curve(h)) for h in hs]
        assert reports == [expr_line_components(h) for h in hs]
        assert any(r.has_slope_lines for r in reports)
        assert any(not c.exact for r in reports for c in r)


class TestBranches:
    def test_parse_branch(self):
        b = parse_branch("u = t^2; v = 3*t^3 + t^4")
        assert b.p == 2
        assert b.terms == (
            (ComplexRational(Fraction(3)), 3),
            (ComplexRational(Fraction(1)), 4),
        )

    @pytest.mark.parametrize(
        "text",
        [
            "u = t^2",                  # missing v clause
            "v = t; u = t",             # clauses swapped
            "u = 2*t; v = t",           # u must be a bare power
            "u = t + t^2; v = t",       # u must be a single term
            "u = t; v = 0 (n=1)",       # empty v side
        ],
    )
    def test_parse_branch_rejects(self, text):
        with pytest.raises(ValueError):
            parse_branch(text)

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            PuiseuxBranch(p=0, terms=((ComplexRational(Fraction(1)), 1),))
        with pytest.raises(ValueError):
            PuiseuxBranch(p=1, terms=())
        with pytest.raises(ValueError):
            PuiseuxBranch(
                p=1,
                terms=((ComplexRational(Fraction(1)), 2), (ComplexRational(Fraction(1)), 1)),
            )

    @pytest.mark.parametrize(
        "text,singular",
        [
            ("u = t; v = 2*t", True),        # a line
            ("u = t^2; v = t^3", False),     # the cusp branch
            ("u = t; v = t + t^2", False),   # line plus higher order
        ],
    )
    def test_named_cases(self, text, singular):
        b = parse_branch(text)
        assert branch_restriction_singular(b) is singular
        assert numeric_branch_singular(b.p, b.terms) is singular

    def test_random_branches_match_numeric_oracle(self, rng):
        """Symbolic rank criterion vs sampling, 50 random germs."""
        disagreements = []
        for _ in range(50):
            p = int(rng.integers(1, 5))
            n_terms = int(rng.integers(1, 4))
            exps = sorted(rng.choice(np.arange(1, 7), size=n_terms, replace=False))
            terms = []
            for e in exps:
                re = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 3)))
                im = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 3)))
                if re == 0 and im == 0:
                    re = Fraction(1)
                terms.append((ComplexRational(re, im), int(e)))
            b = PuiseuxBranch(p=p, terms=tuple(terms))
            if branch_restriction_singular(b) != numeric_branch_singular(b.p, b.terms):
                disagreements.append(b)
        assert not disagreements


class TestIsolatedValueVerdict:
    def test_plane_isolated(self):
        v = isolated_value_verdict(*pair("x^2", "y^3"))
        assert v.status == "isolated" and v.route == "discriminant-curve"
        assert v.discriminant is not None

    def test_plane_not_isolated_with_witness(self):
        v = isolated_value_verdict(*pair("x", "x + y^2"))
        assert v.status == "not-isolated" and v.route == "discriminant-curve"
        assert [w.slope for w in v.witnesses] == [1 + 0j]

    def test_plane_origin_only(self):
        v = isolated_value_verdict(*pair("x*y", "x"))
        assert v.status == "isolated" and v.route == "discriminant-curve"
        assert v.discriminant.origin_only

    def test_unresolved_slope_polynomial_is_not_isolated(self):
        # the one slope form has an irreducible degree-6 slope polynomial
        f, g = pair("x^4 + 2*x^3*y - x*y^3 + 3*y^4", "x^4 - x^2*y^2 + 2*x*y^3 + y^4")
        v = isolated_value_verdict(f, g)
        assert v.status == "not-isolated" and v.route == "discriminant-curve"
        assert v.witnesses == () and len(v.lines) == 0
        (minpoly,) = v.lines.unresolved_slope_factors
        assert minpoly.startswith("a**6 ")
        assert v.lines == expr_line_components(elimination_discriminant(f, g))
        tv = tube_verdict(from_pair(f, g), pair=(f, g))
        assert (tv.tube_status, tv.tube_route) == ("no", "disc-lines")

    def test_containment_route(self):
        v = isolated_value_verdict(*pair("x^2 - z*y^2", "y", XYZ))
        assert v.status == "isolated" and v.route == "containment"

    def test_containment_matches_expression_reference(self, rng):
        """The ring Groebner check on f*g against sp.groebner on the two
        3-variable fixture pairs and 20 seeded 3-variable binomial pairs with
        Gaussian coefficients."""
        pairs = [pair("x^2 - z*y^2", "y", XYZ), pair("y*(x + z^2)", "x", XYZ)]
        while len(pairs) < 22:
            f, g = (binomial(rng, SPACE_MONOMIALS, XYZ) for _ in range(2))
            if _jacobian_minors(f.wirtinger().dF, g.wirtinger().dF):
                pairs.append((f, g))
        statuses = []
        for f, g in pairs:
            minors = _jacobian_minors(f.wirtinger().dF, g.wirtinger().dF)
            want = expr_vanishes_on_critical_set(f * g, minors)
            status = isolated_value_verdict(f, g).status
            assert status == ("isolated" if want else "unknown"), (f, g)
            statuses.append(status)
        assert statuses[:2] == ["isolated", "isolated"]

    def test_product_check_where_factor_checks_fail(self):
        """The critical set of (-2x^2 + (1-2i)z^2, 2ix + y) is the y-axis,
        where f vanishes and g does not, so the checks on f and on g do not
        both pass; f*g vanishes there, so the value is isolated."""
        f, g = pair("-2*x^2 + (1-2*i)*z^2", "2*i*x + y", XYZ)
        minors = _jacobian_minors(f.wirtinger().dF, g.wirtinger().dF)
        assert _vanishes_on_critical_set(f, minors)
        assert not _vanishes_on_critical_set(g, minors)
        v = isolated_value_verdict(f, g)
        assert v.status == "isolated" and v.route == "containment"

    def test_product_check_keeps_every_factor_decision(self, rng):
        """On 40 seeded 3-variable pairs, f and g both vanishing on the
        critical set implies f*g does, so no pair the two checks decided is
        lost, and the f*g check decides more pairs."""
        by_factors = by_product = pairs = 0
        while pairs < 40:
            f, g = (binomial(rng, SPACE_MONOMIALS, XYZ) for _ in range(2))
            minors = _jacobian_minors(f.wirtinger().dF, g.wirtinger().dF)
            if not minors:
                continue
            pairs += 1
            both = all(_vanishes_on_critical_set(t, minors) for t in (f, g))
            isolated = isolated_value_verdict(f, g).status == "isolated"
            assert isolated or not both, (f, g)
            by_factors += both
            by_product += isolated
        assert 1 <= by_factors < by_product

    def test_unknown_without_branches(self):
        v = isolated_value_verdict(*pair("x*y + i*z^2", "x^2 - (1+2*i)*y*z", XYZ))
        assert v.status == "unknown" and v.route == "none"

    def test_no_verdict_from_a_user_branch_list(self):
        with pytest.raises(TypeError):
            isolated_value_verdict(
                *pair("y*(x + z^2)", "x", XYZ), branches=(parse_branch("u = t; v = t"),)
            )


class TestSingResidual:
    def test_frozen_values(self):
        assert sing_residual(XYXBAR, (0, 1)) == 0.0
        assert abs(sing_residual(parse("x^2", ("x",)), (1,)) - 4.0) <= 1e-12
        want = 2.0 - np.sqrt(2.0)  # (sqrt2*1 - 1) + (sqrt2 - 1)^2
        assert abs(sing_residual(XYXBAR, (1, 1)) - want) <= 1e-12

    def test_vanishes_at_constructed_singular_points(self, rng):
        # a == b everywhere for |x|^2 + |y|^2, so lambda = 1 solves the
        # unimodular gradient equation at every point
        F = parse("x*x~ + y*y~", XY)
        for pt in random_points(rng, 2, 50):
            assert sing_residual(F, pt) <= 1e-10

    def test_positive_at_regular_points_of_z1(self, rng):
        for pt in random_points(rng, 2, 50):
            assert sing_residual(Z1, pt) > 1e-6

    def test_nonnegative_on_random_inputs(self, rng):
        for _ in range(50):
            F = random_mixed(rng)
            for pt in random_points(rng, F.n_vars, 2):
                assert sing_residual(F, pt) >= 0.0

    def test_detects_singular_ray_with_nonzero_value(self):
        """Critical points off the zero fibre on {y = 0}, shrinking to 0."""
        f, g = parse("x", XY), parse("x + y^2", XY)
        F = from_pair(f, g)
        for t in (0.5, 0.1, 0.02, 0.004, 0.0008):
            z = (t, 0.0)
            assert sing_residual(F, z) <= 1e-12
            assert abs(F.evaluate(z)) > 0.0

    @pytest.mark.parametrize(
        "pair",
        [("x", "x + x^2 + y^2"), ("x + (x + y^2)^2", "x + y^2")],
        ids=["tangent", "sheared"],
    )
    def test_tangent_branch_critical_values_reach_zero(self, pair):
        """(x, x + x^2 + y^2): on y = 0, F = |x|^2 (1 + conj(x)) is singular
        on the circle |1 + x| = |1 + 2x| through 0, where |F| ~ |x|^2 > 0.
        The k = 2 shear of (x, x + y^2) keeps its critical set y = 0, where
        F = |x|^2 (1 + x) is singular on the same circle.
        The bound is 1e-14 of the frame's scale |a|^2 + |b|^2 ~ 2|x|^2."""
        F = from_pair(*(parse(p, XY) for p in pair))
        for theta in (1.0, 0.1, 0.01):
            x = -1 / 3 + np.exp(1j * theta) / 3
            z = (x, 0.0)
            assert sing_residual(F, z) <= 1e-14 * abs(x) ** 2
            assert abs(F.evaluate(z)) > 0.5 * abs(x) ** 2

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the line-only rule misses tangent branches")
    def test_tangent_branch_pair_not_isolated(self):
        """The critical values above pile up at 0, so 0 is not isolated."""
        verdict = isolated_value_verdict(parse("x", XY), parse("x + x^2 + y^2", XY))
        assert verdict.status == "not-isolated"

    def test_jacobian_rank_drops_where_residual_vanishes(self, rng):
        """Points off V with tiny mixed residual sit on Sing(f, g)."""
        f, g = parse("x", XY), parse("x + y^2", XY)
        F = from_pair(f, g)
        df, dg = f.wirtinger().dF, g.wirtinger().dF
        for _ in range(100):
            t = complex(rng.uniform(0.01, 0.5) * np.exp(2j * np.pi * rng.uniform()))
            z = (t, 0.0)
            assert sing_residual(F, z) < 1e-8
            assert abs(F.evaluate(z)) > 1e-8
            J = np.array(
                [[p.evaluate(z) for p in df], [p.evaluate(z) for p in dg]]
            )
            s = np.linalg.svd(J, compute_uv=False)
            assert s[1] < 1e-6  # rank < 2


def random_element(rng, R, n, max_deg=5, terms=(2, 4)):
    """A seeded element of R in its first n generators: terms of degree 1 to
    max_deg, each coefficient Gaussian (small integer parts) or rational."""
    out = {}
    for _ in range(int(rng.integers(terms[0], terms[1] + 1))):
        e = [0] * R.ngens
        for _ in range(int(rng.integers(1, max_deg + 1))):
            e[int(rng.integers(0, n))] += 1
        if rng.random() < 0.5:
            c = QQ_I(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        else:
            c = QQ_I(QQ(int(rng.integers(-5, 6)), int(rng.integers(1, 5))), 0)
        out[tuple(e)] = c or QQ_I(1, 1)
    return R.from_dict(out)


def _groebner_ring(n):
    """QQ_I[x1..xn, w] in grevlex; w is the Rabinowitsch variable."""
    return ring([f"x{j + 1}" for j in range(n)] + ["w"], QQ_I, order=grevlex)[0]


def _kernel_basis(ideal, R):
    """_groebner on ring elements of R: each element enters as its
    Gaussian-integer pairs over one denominator, and each (n, p) of the
    basis comes back as the ring element p / n."""
    def cleared(p):
        d = math.lcm(*(q.denominator for c in p.values() for q in (c.x, c.y)))
        return {m: (c.x.numerator * (d // c.x.denominator), c.y.numerator * (d // c.y.denominator))
                for m, c in p.items()}

    return [R.from_dict({m: QQ_I(QQ(x, n), QQ(y, n)) for m, (x, y) in p.items()})
            for n, p in _groebner([cleared(p) for p in ideal])]


class TestGroebnerKernel:
    """_groebner against sympy's groebnertools, the reference it replaces,
    by == on ring elements, converted at the kernel's edge."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_ideals_plain_and_rabinowitsch(self, rng, n):
        """Twelve ideals of two generators (degree <= 5, 2 to 4 terms), each
        also in the containment check's form [*P, 1 - w*t]: t is the
        product of the generators (in the ideal, so the unit ideal) on every
        other draw and a small random t otherwise."""
        R = _groebner_ring(n)
        w = R.gens[-1]
        saturated = []
        for k in range(12):
            P = [random_element(rng, R, n) for _ in range(2)]
            t = P[0] * P[1] if k % 2 else random_element(rng, R, n, max_deg=2, terms=(1, 2))
            for ideal in (P, [*P, 1 - w * t]):
                want = groebner(ideal, R)
                assert _kernel_basis(ideal, R) == want, ideal
            saturated.append(want == [R.one])
        # both answers of the containment check occur
        assert all(saturated[1::2]) and not all(saturated[::2])

    def test_edge_cases(self):
        R = _groebner_ring(3)
        x, y, z, w = R.gens
        p = QQ_I(2, 1) * x**2 * y - QQ(1, 3) * z**3 + QQ_I(0, 1)
        q = x * y * z - QQ_I(1, -2) * y**2
        reduced = groebner([p, q], R)
        cases = [
            [p],  # one generator: its monic multiple
            [p, p, q],  # a duplicate generator
            [p, QQ_I(3, -4) * p],  # a scalar multiple
            [R(QQ_I(5, 2))],  # a nonzero constant: the unit ideal
            [p, R.one, q],
            reduced,  # already reduced: returned as it is
            [R.zero],  # the zero ideal: the empty basis
            [1 - w * x, x],  # Rabinowitsch on a generator: the unit ideal
        ]
        for ideal in cases:
            assert _kernel_basis(ideal, R) == groebner(ideal, R), ideal
        assert _kernel_basis(reduced, R) == reduced
        assert _kernel_basis([R(QQ_I(5, 2))], R) == [R.one]
        assert _kernel_basis([R.zero], R) == []
        assert _groebner([{(0, 0): (3, 4)}]) == [(1, {(0, 0): (1, 0)})]


class TestShear:
    def test_axis_shear_formula(self):
        f, g = pair("x", "x + y^2")
        fs, gs = axis_shear(f, g, 2)
        assert fs == f + g * g and gs == g
        with pytest.raises(ValueError):
            axis_shear(f, g, 0)

    def test_shear_search_finds_k2(self):
        result = shear_search(*pair("x", "x + y^2"))
        assert result.k == 2
        assert result.verdict.status == "isolated"
        assert format_mixed(result.f_sheared) == (
            "1*z2^4 + 2*z1*z2^2 + 1*z1^2 + 1*z1"
        )

    def test_shear_search_exhaustion(self):
        with pytest.raises(ShearSearchExhausted):
            shear_search(*pair("x", "x + y^2"), k_min=2, k_max=1)


class TestSingDecomposition:
    def test_frozen_generators(self):
        dec = sing_decomposition(*pair("x", "x + y^2"))
        assert dec.simplified == {
            "common_zero": ["1*z1", "1*z2^2"],
            "sing_f": ["1"],
            "sing_g": ["1"],
            "off_v_minors": ["1*z2"],
        }

    def test_smooth_pair_has_unit_sing_ideals(self):
        dec = sing_decomposition(*pair("x", "y"))
        assert dec.simplified["sing_f"] == ["1"]
        assert dec.simplified["sing_g"] == ["1"]
        assert dec.simplified["off_v_minors"] == ["1"]

    def test_no_minors_in_rank_deficient_pair(self):
        dec = sing_decomposition(*pair("x*y", "x*y"))
        assert dec.off_v_minors == ()
        assert dec.simplified["off_v_minors"] == []

    @pytest.mark.parametrize(
        "monomials,variables", [(PLANE_MONOMIALS, XY), (SPACE_MONOMIALS, XYZ)]
    )
    def test_bases_match_expression_reference(self, rng, monomials, variables):
        """Every reduced basis against sp.groebner, on seeded binomial pairs
        with Gaussian coefficients."""
        for _ in range(10):
            f, g = (binomial(rng, monomials, variables) for _ in range(2))
            dec = sing_decomposition(f, g)
            assert dec.simplified == {
                "common_zero": expr_reduced_basis(dec.common_zero),
                "sing_f": expr_reduced_basis(dec.sing_f),
                "sing_g": expr_reduced_basis(dec.sing_g),
                "off_v_minors": expr_reduced_basis(dec.off_v_minors),
            }, (f, g)
