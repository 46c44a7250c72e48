"""Acceptance gate: nine checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; each check also enforces its runtime budget.
"""

import json
import time
from fractions import Fraction

import numpy as np

from mixedsing import (
    ComplexRational,
    CurveGerm,
    PuiseuxBranch,
    Stratum,
    branch_restriction_singular,
    from_pair,
    isolated_value_verdict,
    normal_family_symbolic,
    parse,
    parse_branch,
    solve_polar,
    thom_test,
    tube_verdict,
)
from mixedsing.cli import main
from mixedsing.fixtures import fixture_names
from conftest import random_points
from oracles import _frame, _real, fd_real_gradients, numeric_branch_singular, orbit_residual
from oracles import random_mixed

XY = ("x", "y")
XYZ = ("x", "y", "z")
E2 = np.eye(3)[1]


def stamp(index, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"[acceptance {index}/9] {label}: {word} ({detail})")


def phase_aligned_distance(v, target):
    """Distance from the unit vector v to target after removing a global phase."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    return float(np.linalg.norm(v * np.conj(v[k]) / abs(v[k]) - target))


def test_01_normal_family_formulas():
    budget = 1.0
    t0 = time.perf_counter()
    failures = []
    cases = [
        (
            "(x^2 - z*y^2)*y~",
            ("2*x~*y", "-2*y*y~*z~", "-1*y*y~^2"),
            ("0", "x^2 - z*y^2", "0"),
        ),
        (
            "x~*y*(x + z^2)",
            ("x*y~", "x*x~ + x*z~^2", "2*x*y~*z~"),
            ("x*y + y*z^2", "0", "0"),
        ),
        (
            "x~*y*(x + z^3)",
            ("x*y~", "x*x~ + x*z~^3", "3*x*y~*z~^2"),
            ("x*y + y*z^3", "0", "0"),
        ),
    ]
    for text, a_want, b_want in cases:
        fam = normal_family_symbolic(parse(text, XYZ))
        for j in range(3):
            if fam.a[j] != parse(a_want[j], XYZ):
                failures.append(f"{text}: a[{j}]")
            if fam.b[j] != parse(b_want[j], XYZ):
                failures.append(f"{text}: b[{j}]")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    stamp(1, "normal-family formulas", ok,
          f"exact term-for-term; {elapsed:.2f}s / {budget:.0f}s")
    assert not failures, failures
    assert elapsed < budget


def test_02_witness_on_three_variable_product():
    budget = 5.0
    tol = 1e-8
    t0 = time.perf_counter()
    F = parse("x~*y*(x + z^2)", XYZ)

    def n_i(t):
        """The normal n_mu for mu = i, i(a - b), at (t, 1, 0)."""
        a, b = _frame(F, (t, 1.0, 0.0))
        return 1j * (a - b)

    # unit normal for mu = i along the ray (t, 1, 0), shrinking t
    worst = max(phase_aligned_distance(n_i(t), E2) for t in (0.1, 1e-3, 1e-6, 1e-9))
    y_axis = Stratum(base_point=(0, 1, 0), tangent=((0, 1, 0), (0, 1j, 0)),
                     label="y-axis")
    ray = CurveGerm((((1, 1),), ((1, 0),), ()), label="t, 1, 0")
    result = thom_test(F, y_axis, curves=(ray,))
    witness_dist = (float("inf") if result.witness is None
                    else phase_aligned_distance(result.witness["direction"], E2))
    elapsed = time.perf_counter() - t0
    ok = (worst <= tol and result.verdict == "fail-witness"
          and witness_dist <= tol and elapsed < budget)
    stamp(2, "limit direction along (t,1,0) and stratified fail-witness", ok,
          f"phase dist {worst:.1e} <= {tol:.0e}; {elapsed:.2f}s / {budget:.0f}s")
    assert worst <= tol
    assert result.verdict == "fail-witness"
    assert witness_dist <= tol
    assert elapsed < budget


def test_03_umbrella_battery_annihilates_last_axis():
    budget = 10.0
    tol = 1e-6
    t0 = time.perf_counter()
    F = parse("(x^2 - z*y^2)*y~", XYZ)
    z_axis = Stratum(base_point=(0, 0, 1), tangent=((0, 0, 1), (0, 0, 1j)),
                     label="z-axis")
    result = thom_test(F, z_axis)
    T = np.stack([_real(np.array(v, dtype=complex)) for v in z_axis.tangent])
    converged = [p for p in result.per_curve if p.limit_plane is not None]
    worst = max(
        float(np.linalg.norm(
            np.stack([_real(np.array(v, dtype=complex)) for v in p.limit_plane]) @ T.T, 2))
        for p in converged
    )
    elapsed = time.perf_counter() - t0
    ok = (result.verdict == "compatible" and converged
          and worst <= tol and elapsed < budget)
    stamp(3, "default battery at (0,0,1), limit normals kill the z direction", ok,
          f"{len(converged)} curves, worst pairing {worst:.1e} <= {tol:.0e}; "
          f"{elapsed:.2f}s / {budget:.0f}s")
    assert result.verdict == "compatible"
    assert converged
    assert worst <= tol
    assert elapsed < budget


def test_04_isolated_value_verdicts():
    budget = 5.0
    t0 = time.perf_counter()
    failures = []

    v = isolated_value_verdict(parse("x^2", XY), parse("y^3", XY))
    if v.status != "isolated":
        failures.append(f"(x^2, y^3): {v.status}")

    v = isolated_value_verdict(parse("x", XY), parse("x + y^2", XY))
    slope_one = ComplexRational(Fraction(1))
    slopes = [w for w in v.witnesses if w.kind == "slope" and w.exact]
    if v.status != "not-isolated" or not any(
            w.slope_exact == slope_one for w in slopes):
        failures.append(f"(x, x + y^2): {v.status}, witnesses {v.witnesses}")

    v = isolated_value_verdict(parse("x^2 - z*y^2", XYZ), parse("y", XYZ))
    if v.status != "isolated":
        failures.append(f"(x^2 - z*y^2, y): {v.status}")

    v = isolated_value_verdict(parse("x*y", XY), parse("x", XY))
    if v.status != "isolated" or not v.discriminant.origin_only:
        failures.append(f"(x*y, x): {v.status}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    stamp(4, "isolated critical value verdicts, exact arithmetic", ok,
          f"4 pairs; {elapsed:.2f}s / {budget:.0f}s")
    assert not failures, failures
    assert elapsed < budget


def test_05_branch_criterion_matches_numeric_oracle():
    budget = 30.0
    t0 = time.perf_counter()
    disagreements = []
    wrong = []

    named = [(PuiseuxBranch(p=1, terms=((ComplexRational(a_re, a_im), 1),)), True)
             for a_re, a_im in [(Fraction(2), Fraction(0)),
                                (Fraction(-3, 2), Fraction(0)),
                                (Fraction(1), Fraction(1))]]
    named.append((parse_branch("u = t^2; v = t^3"), False))
    named.append((parse_branch("u = t; v = t + t^2"), False))
    for b, want in named:
        if branch_restriction_singular(b) is not want:
            wrong.append((b, want))
        if numeric_branch_singular(b.p, b.terms) is not want:
            wrong.append((b, want, "numeric"))

    rng = np.random.default_rng(20260818)
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

    elapsed = time.perf_counter() - t0
    ok = not disagreements and not wrong and elapsed < budget
    stamp(5, "branch restriction test vs numeric rank oracle", ok,
          f"50 random + 5 named, 0 disagreements required; "
          f"{elapsed:.2f}s / {budget:.0f}s")
    assert not wrong, wrong
    assert not disagreements, disagreements
    assert elapsed < budget


def test_06_polar_weights_and_orbits():
    budget = 5.0
    tol = 1e-10
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260818)

    positives = [
        ("x*y*x~", XY, (1, 1), 1),
        ("x~*y*(x + z^2)", XYZ, (2, 1, 1), 1),
    ]
    worst = 0.0
    for text, names, p_want, k_want in positives:
        F = parse(text, names)
        sol = solve_polar(F)
        if sol.status != "found" or sol.canonical.p != p_want or \
                sol.canonical.k != k_want:
            failures.append(f"{text}: {sol.status} {sol.canonical}")
            continue
        for _ in range(100):
            lam = np.exp(2j * np.pi * rng.uniform())
            z = random_points(rng, F.n_vars, 1)[0]
            worst = max(worst, orbit_residual(F, sol.canonical, lam, z))
    if worst > tol:
        failures.append(f"orbit residual {worst}")

    absent = solve_polar(parse("x*y + x~*y~", XY))
    if absent.status != "none":
        failures.append(f"x*y + x~*y~: {absent.status}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    stamp(6, "canonical polar weights and circle-action orbits", ok,
          f"orbit residual {worst:.1e} <= {tol:.0e} on 100 pairs/case; "
          f"{elapsed:.2f}s / {budget:.0f}s")
    assert not failures, failures
    assert elapsed < budget


def test_07_wirtinger_property_suite():
    budget = 60.0
    rtol = 1e-6
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        p = random_mixed(rng, n_vars=n, max_terms=3, max_degree=2)
        q = random_mixed(rng, n_vars=n, max_terms=3, max_degree=2)
        r = random_mixed(rng, n_vars=n, max_terms=3, max_degree=2)

        assert p + q == q + p and p * q == q * p
        assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

        gp, gq, gpq = p.wirtinger(), q.wirtinger(), (p * q).wirtinger()
        gc = p.conjugate().wirtinger()
        for j in range(n):
            assert gpq.dF[j] == gp.dF[j] * q + p * gq.dF[j]
            assert gpq.dbarF[j] == gp.dbarF[j] * q + p * gq.dbarF[j]
            assert gc.dF[j] == gp.dbarF[j].conjugate()

        pt = random_points(rng, n, 1, scale=0.5)[0]
        dx, dy = fd_real_gradients(p, pt)
        for j in range(n):
            dz = gp.dF[j].evaluate(pt)
            dzb = gp.dbarF[j].evaluate(pt)
            want_x, want_y = dz + dzb, 1j * (dz - dzb)
            assert abs(dx[j] - want_x) <= rtol * (1 + abs(want_x))
            assert abs(dy[j] - want_y) <= rtol * (1 + abs(want_y))
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = checked == 1000 and elapsed < budget
    stamp(7, "gradient and ring laws on 1000 random polynomials", ok,
          f"exact laws + finite differences at rel {rtol:.0e}; "
          f"{elapsed:.2f}s / {budget:.0f}s")
    assert checked == 1000
    assert elapsed < budget


def test_08_tube_verdict_headlines():
    budget = 20.0
    t0 = time.perf_counter()
    failures = []

    F = parse("x~*y*(x + z^2)", XYZ)
    y_axis = Stratum(base_point=(0, 1, 0), tangent=((0, 1, 0), (0, 1j, 0)),
                     label="y-axis")
    v = tube_verdict(F, probes=(thom_test(F, y_axis),))
    if (v.tube_status, v.tube_route) != ("yes", "polar") or \
            (v.thom_status, v.thom_route) != ("fail", "probe-witness"):
        failures.append(f"three-variable product: {v.tube_status}/{v.tube_route}, "
                        f"{v.thom_status}/{v.thom_route}")

    f, g = parse("x^2", XY), parse("y^3", XY)
    v = tube_verdict(from_pair(f, g), pair=(f, g))
    if (v.tube_status, v.tube_route) != ("yes", "separate-variables") or \
            (v.thom_status, v.thom_route) != ("regular", "separate-variables"):
        failures.append(f"(x^2, y^3): {v.tube_status}/{v.tube_route}, "
                        f"{v.thom_status}/{v.thom_route}")

    f, g = parse("x", XY), parse("x + y^2", XY)
    v = tube_verdict(from_pair(f, g), pair=(f, g))
    if (v.tube_status, v.tube_route) != ("no", "disc-lines"):
        failures.append(f"(x, x + y^2): {v.tube_status}/{v.tube_route}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    stamp(8, "combined verdicts with route provenance", ok,
          f"3 headline cases; {elapsed:.2f}s / {budget:.0f}s")
    assert not failures, failures
    assert elapsed < budget


def test_09_fixture_reports_deterministic(tmp_path, capsys):
    budget = 8.0
    t0 = time.perf_counter()
    differing = []
    for name in fixture_names():
        paths = [tmp_path / f"{name}-{i}.json" for i in (0, 1)]
        for path in paths:
            code = main(["analyze", name, "--out", str(path)])
            assert code == 0
        blobs = [path.read_bytes() for path in paths]
        if blobs[0] != blobs[1]:
            differing.append(name)
        json.loads(blobs[0])  # well-formed
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = not differing and elapsed < budget
    stamp(9, "repeated analysis is byte-identical", ok,
          f"7 fixtures x 2 runs, same seed; {elapsed:.2f}s / {budget:.0f}s")
    assert not differing, differing
    assert elapsed < budget
