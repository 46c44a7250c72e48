"""Weighted circle-action detection: lattice solver against brute force."""

import time
from fractions import Fraction

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from mixedsing import PolarWeights, from_pair, parse, solve_polar
from mixedsing.core import ComplexRational, ExponentPair, MixedPolynomial
from mixedsing.polar import _candidate_key, _pinv_colmax, _search_box, integer_kernel
from conftest import random_points
from oracles import (
    brute_polar_solutions,
    canonical_key,
    orbit_residual,
    random_mixed,
    rational_pinv_colmax,
    recursive_box_search,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


@pytest.mark.parametrize(
    "text,variables,p,k",
    [
        ("x*y*x~", XY, (1, 1), 1),
        ("x~*y*(x + z^2)", XYZ, (2, 1, 1), 1),
        ("x~*y*(x + z^3)", XYZ, (3, 1, 1), 1),
        ("(x^2 - z*y^2)*y~", XYZ, (2, 1, 2), 3),
        ("x^2 - y^3", XY, (3, 2), 6),
        ("x", ("x",), (1,), 1),
    ],
)
def test_frozen_canonical_weights(text, variables, p, k):
    sol = solve_polar(parse(text, variables))
    assert sol.status == "found"
    assert sol.canonical == PolarWeights(p, k)


@pytest.mark.parametrize(
    "text,variables,reason_has",
    [
        ("x*y + x~*y~", XY, "forced to zero"),
        ("x + x~ + x^2", ("x",), "trivial"),
    ],
)
def test_frozen_absences(text, variables, reason_has):
    sol = solve_polar(parse(text, variables))
    assert sol.status == "none"
    assert sol.canonical is None
    assert reason_has in sol.reason


def test_zero_degree_is_never_admitted():
    """Oka's polar weights need k != 0: no weight object carries k = 0 and no
    solver argument admits it."""
    with pytest.raises(ValueError, match="nonzero"):
        PolarWeights((1, 1), 0)
    with pytest.raises(TypeError):
        solve_polar(parse("x*y + x~*y~", XY), require_nonzero_k=False)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        solve_polar(parse("0 (n=2)", XY))


def test_weights_validation():
    with pytest.raises(ValueError):
        PolarWeights((1, 0), 1)
    with pytest.raises(ValueError):
        PolarWeights((2, 4), 2)
    with pytest.raises(ValueError):
        PolarWeights((), 1)


def test_integer_kernel_small_cases():
    # x + y + z = 0 over Z: rank-2 kernel containing the obvious vectors
    ker = integer_kernel([[1, 1, 1]], 3)
    assert len(ker) == 2
    arr = np.array(ker)
    assert np.linalg.matrix_rank(arr) == 2
    assert all(sum(v) == 0 for v in ker)
    assert integer_kernel([[1, 0], [0, 1]], 2) == []


def test_brute_force_agreement(rng):
    """Solver canonical == brute-force minimum under the documented key."""
    checked = 0
    for _ in range(120):
        F = random_mixed(rng, n_vars=int(rng.integers(1, 4)), max_terms=3, max_degree=3)
        bound = 6
        sol = solve_polar(F)
        brute = [
            (p, k)
            for p, k in brute_polar_solutions(F, bound)
            if sum(abs(x) for x in p) <= bound
        ]
        if sol.status == "found" and sum(abs(x) for x in sol.canonical.p) <= bound:
            assert brute, f"solver found weights but brute force did not: {F!r}"
            best = min(brute, key=lambda s: canonical_key(*s))
            assert (tuple(sol.canonical.p), sol.canonical.k) == best
            checked += 1
        else:
            # "none" certifies absence; weights found beyond the brute-force
            # ball mean nothing admissible lies inside it
            assert sol.status in ("none", "found"), f"{sol.status}: {F!r}"
            assert not brute, f"brute force found weights the solver missed: {F!r}"
    assert checked >= 10, "generator should hit plenty of positive cases"


def test_rank_one_lattice_far_from_the_origin():
    """The lattice (35, 11, -73 | 139) has no point with sum|p| below 119;
    the search grows until it reaches it."""
    F = parse("x^7*y~^3*z + x~^5*y^2*z~^4 + y^6*z~", XYZ)
    sol = solve_polar(F)
    assert sol.status == "found"
    assert sol.canonical == PolarWeights((35, 11, -73), 139)
    assert [sorted(map(abs, v)) for v in sol.lattice_basis] == [[11, 35, 73, 139]]


def test_random_inputs_are_always_decided(rng):
    """200 seeded germs in 2-4 variables: never "unknown", and every weight
    vector found satisfies p . (nu - mu) = k on every term."""
    statuses = set()
    for _ in range(200):
        F = random_mixed(rng, n_vars=int(rng.integers(2, 5)), max_terms=4, max_degree=5)
        sol = solve_polar(F)
        statuses.add(sol.status)
        assert sol.status in ("found", "none"), f"{sol.reason}: {F!r}"
        if sol.status == "found":
            p, k = sol.canonical.p, sol.canonical.k
            for t in F.terms:
                assert sum(w * (a - b) for w, a, b in zip(p, t.nu, t.mu)) == k, (F, p, k)
    assert statuses == {"found", "none"}


def test_no_search_bound_argument():
    with pytest.raises(TypeError):
        solve_polar(parse("x*y*x~", XY), bound=64)


def test_candidate_key_tie_breaks():
    """sum|p| first, then |k|, then k > 0, then the lexicographically largest p."""
    ranked = [
        ((1, 1), 1),
        ((1, -1), 1),   # p lexicographically smaller
        ((-1, 1), 1),
        ((1, 1), -1),   # k < 0 loses to every k > 0 of equal |k|
        ((1, 1), 2),    # larger |k| loses to either sign of smaller |k|
        ((2, 1), 1),    # larger sum|p| loses to everything above
    ]
    shuffled = [ranked[i] for i in (4, 2, 5, 0, 3, 1)]
    assert sorted(shuffled, key=lambda pk: _candidate_key(*pk)) == ranked
    assert all(_candidate_key(*pk) == canonical_key(*pk) for pk in ranked)


def test_box_search_matches_recursive_reference(rng):
    """The chunked numpy walk equals the recursive walk on random lattices."""
    for _ in range(300):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, n + 2))
        basis = rng.integers(-4, 5, size=(r, n + 1)).tolist()
        if not any(any(v) for v in basis):
            continue
        boxes = rng.integers(0, 7, size=r).tolist()
        bound = int(rng.integers(1, 12))
        args = (basis, boxes, n, bound)
        assert _search_box(*args) == recursive_box_search(*args, True), args


def _domain_matrix_pinv_colmax(basis):
    """_pinv_colmax on sympy's DomainMatrix over QQ, converted at the edge."""
    B = DomainMatrix.from_list(basis, ZZ).to_field()
    P = B.transpose() * (B * B.transpose()).inv()
    return [Fraction(int(q.numerator), int(q.denominator))
            for q in (max(abs(x) for x in col) for col in zip(*P.to_list()))]


def test_box_sides_match_fraction_reference(rng):
    """The column maxima equal the hand-written Fraction Gauss-Jordan ones
    and sympy's DomainMatrix ones on 300 random full-rank lattices."""
    checked = 0
    while checked < 300:
        w = int(rng.integers(2, 6))
        r = int(rng.integers(1, w + 1))
        basis = rng.integers(-9, 10, size=(r, w))
        if np.linalg.matrix_rank(basis) < r:
            continue
        basis = basis.tolist()
        want = rational_pinv_colmax(basis)
        assert _pinv_colmax(basis) == want == _domain_matrix_pinv_colmax(basis), basis
        checked += 1


def test_large_lattice_entries_stay_exact(monkeypatch):
    """Basis entries near 2^62 take the Python-int path and match the reference."""
    one = ComplexRational(Fraction(1), Fraction(0))
    e = 2**62
    F = MixedPolynomial(3, {
        ExponentPair((e, 0, 1), (0, 1, 0)): one,
        ExponentPair((0, 2, 0), (0, 0, e + 3)): one,
    })
    sol = solve_polar(F)
    assert sol.status == "found"
    assert sol.canonical.k > 2**63  # out of int64 range
    monkeypatch.setattr("mixedsing.polar._search_box",
                        lambda *args: recursive_box_search(*args, True))
    assert solve_polar(F) == sol


def test_solve_budget():
    """x^2 * conj(y^3), whose old fixed search box held 80k points, is
    solved well inside 0.1 s."""
    F = from_pair(parse("x^2", XY), parse("y^3", XY))
    t0 = time.perf_counter()
    sol = solve_polar(F)
    assert time.perf_counter() - t0 < 0.1
    assert sol.canonical == PolarWeights((-1, -1), 1)


def test_orbit_residual_vanishes_on_found_weights(rng):
    """The S^1-action identity holds numerically at 100 random (lam, z)."""
    for text, variables in [("x*y*x~", XY), ("(x^2 - z*y^2)*y~", XYZ)]:
        F = parse(text, variables)
        sol = solve_polar(F)
        assert sol.status == "found"
        for pt in random_points(rng, F.n_vars, 50):
            lam = np.exp(2j * np.pi * rng.uniform())
            assert orbit_residual(F, sol.canonical, lam, pt) <= 1e-10


def test_orbit_residual_rejects_wrong_weights():
    F = parse("x*y*x~", XY)
    wrong = PolarWeights((1, 2), 1)
    lam = np.exp(1j * np.pi / 2)
    assert orbit_residual(F, wrong, lam, (1, 1)) > 0.5


def test_report_shape():
    sol = solve_polar(parse("x*y*x~", XY))
    rep = sol.as_report()
    assert rep == {"polar": "yes", "status": "found", "p": [1, 1], "k": 1,
                   "lattice_basis": [list(v) for v in sol.lattice_basis]}
    none_rep = solve_polar(parse("x*y + x~*y~", XY)).as_report()
    assert none_rep["polar"] == "no" and none_rep["p"] is None
    assert none_rep["status"] == "none" and "forced to zero" in none_rep["reason"]


def test_lattice_basis_spans_brute_solutions(rng):
    """Every brute-force (p, k) lies in the reported solution lattice."""
    for _ in range(40):
        F = random_mixed(rng, n_vars=2, max_terms=3, max_degree=2)
        sol = solve_polar(F)
        brute = brute_polar_solutions(F, 5, require_nonzero_k=False)
        if not brute:
            continue
        if not sol.lattice_basis:
            pytest.fail(f"nonempty brute set with trivial lattice: {F!r}")
        B = np.array(sol.lattice_basis, dtype=float).T
        for p, k in brute:
            v = np.array(list(p) + [k], dtype=float)
            x, *_ = np.linalg.lstsq(B, v, rcond=None)
            assert np.linalg.norm(B @ x - v) < 1e-8
