"""Metamorphic verdict tests: maps of a pair (f, g) that keep the Milnor set,
the tube and Thom regularity of F = f * conj(g) must not change a definite
verdict.

- The swap (f, g) -> (g, f) gives conj(F).
- A permutation of the coordinates, and a rotation with rational entries
  (here [[3/5, -4/5], [4/5, 3/5]] on one coordinate plane), map spheres about
  0 onto spheres and F onto F composed with an isometry.
- f -> u*f with |u| = 1 gives u*F; u = (3+4i)/5 turns a rational Jacobian
  into a Gaussian one.

None of them moves a critical value onto 0 or off it.  Each maps the lines of
a plane pair's discriminant germ onto lines: the swap sends a slope a to
1/a, the scaling a to a/u, and a map of the source leaves the image germ as
it is.  So the number of slope lines is an invariant too.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from mixedsing import (
    ComplexRational,
    MixedPolynomial,
    format_mixed,
    from_pair,
    jacobian_det,
    parse,
    tube_verdict,
)
from mixedsing.fixtures import load_all

UNIT = ComplexRational(Fraction(3, 5), Fraction(4, 5))
ROTATION = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
DEFINITE = {
    "isolated": {"isolated", "not-isolated"},
    "tube": {"yes", "no"},
    "thom": {"regular", "fail"},
}
COEFFS = ["1", "2", "3", "-1", "-2", "1/2", "i", "2*i", "(1+i)", "(1-2*i)"]
PLANE_MONOMIALS = ["x", "y", "x^2", "x*y", "y^2"]


def substitute(f: MixedPolynomial, images) -> MixedPolynomial:
    """f with its variable z_j replaced by the polynomial images[j]."""
    n = f.n_vars
    out = MixedPolynomial.zero(n)
    for exps, c in f.terms.items():
        term = MixedPolynomial.constant(c, n)
        for image, e in zip(images, exps.nu):
            term = term * image**e
        out = out + term
    return out


def linear_maps(n: int):
    """The coordinate permutations other than the identity, and the rotation
    on each coordinate plane, as lists of images of z1..zn."""
    z = [MixedPolynomial.variable(j, n) for j in range(n)]
    for perm in permutations(range(n)):
        if list(perm) != list(range(n)):
            yield [z[k] for k in perm]
    for j in range(n):
        for k in range(j + 1, n):
            images = list(z)
            (a, b), (c, d) = ROTATION
            images[j], images[k] = a * z[j] + b * z[k], c * z[j] + d * z[k]
            yield images


def orbit(f: MixedPolynomial, g: MixedPolynomial) -> list[tuple[MixedPolynomial, MixedPolynomial]]:
    """(f, g) and its images under one or two of the swap, the unit scaling
    and the linear maps, without repeats."""

    def moves(p, q):
        yield q, p
        yield UNIT * p, q
        for images in linear_maps(p.n_vars):
            yield substitute(p, images), substitute(q, images)

    pairs = {}
    for p, q in [(f, g), *moves(f, g)]:
        for pq in [(p, q), *moves(p, q)]:
            pairs.setdefault(tuple(map(format_mixed, pq)), pq)
    return list(pairs.values())


def verdicts(f: MixedPolynomial, g: MixedPolynomial) -> dict:
    tv = tube_verdict(from_pair(f, g), pair=(f, g))
    out = {"tube": tv.tube_status, "thom": tv.thom_status}
    if tv.isolated is not None:
        out["isolated"] = tv.isolated.status
        if tv.isolated.lines is not None:
            out["slope_lines"] = sum(c.kind == "slope" for c in tv.isolated.lines)
    return out


def seeded_plane_pair(index: int):
    rng = np.random.default_rng([20260818, index])
    while True:
        f, g = (
            parse(" + ".join(
                f"{c}*{m}" for c, m in zip(
                    rng.choice(COEFFS, size=2), rng.choice(PLANE_MONOMIALS, size=2, replace=False)
                )
            ), ("x", "y"))
            for _ in range(2)
        )
        if not jacobian_det(f, g).is_zero:
            return f, g


FIXTURE_PAIRS = {fx.name: fx.pair for fx in load_all() if fx.pair is not None}


def check_orbit(f, g):
    results = [verdicts(p, q) for p, q in orbit(f, g)]
    for key, definite in DEFINITE.items():
        seen = {r[key] for r in results if r.get(key) in definite}
        assert len(seen) <= 1, (key, seen, format_mixed(f), format_mixed(g))
    if f.n_vars == 2:
        counts = {r.get("slope_lines") for r in results}
        assert len(counts) == 1 and None not in counts, counts
    return results


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_fixture_orbits_agree(name):
    f, g = FIXTURE_PAIRS[name]
    results = check_orbit(f, g)
    assert len(results) > 5


@pytest.mark.parametrize("index", range(10))
def test_seeded_plane_orbits_agree(index):
    f, g = seeded_plane_pair(index)
    results = check_orbit(f, g)
    # plane pairs always get an exact isolation verdict, so the check bites
    assert all(r["isolated"] in DEFINITE["isolated"] for r in results)


def test_orbit_covers_each_operation():
    f, g = parse("x^2", ("x", "y")), parse("y^3", ("x", "y"))
    texts = {tuple(map(format_mixed, pq)) for pq in orbit(f, g)}
    x2, y3 = format_mixed(f), format_mixed(g)
    assert (y3, x2) in texts  # swap
    assert (format_mixed(parse("y^2", ("x", "y"))), format_mixed(parse("x^3", ("x", "y")))) in texts
    assert (format_mixed(UNIT * f), y3) in texts
    rotated = parse("(3/5*x - 4/5*y)^2", ("x", "y")), parse("(4/5*x + 3/5*y)^3", ("x", "y"))
    assert tuple(map(format_mixed, rotated)) in texts
