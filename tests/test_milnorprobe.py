"""Singular/Milnor-set residuals, shell scans, and the combined verdict."""

import time

import numpy as np
import pytest

from mixedsing import (
    Stratum,
    from_pair,
    isolated_value_verdict,
    milnor_scan,
    parse,
    thom_test,
    tube_verdict,
)
from mixedsing._numeric import compile_frame, compile_hessian
from mixedsing.cli import main
from mixedsing.fixtures import fixture_names, load_fixture
from mixedsing.milnorprobe import (
    NEAR_ZERO_TOL,
    OFF_FIBRE_TOL,
    _batch_residual,
    _project_to_milnor_set,
)
from conftest import random_points
from oracles import milnor_residual, random_mixed, sing_residual

XY = ("x", "y")
XYZ = ("x", "y", "z")

XYXBAR = parse("x*y*x~", XY)
Z1 = parse("x", XY)
Y_AXIS_2 = Stratum(base_point=(0, 1), tangent=((0, 1), (0, 1j)), label="y-axis")


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


def milnor_certificate(F, points):
    """The scan's certificate _batch_residual at each point (rows of Z)."""
    return _batch_residual(compile_frame(F), np.array(points, dtype=complex))


class TestMilnorResidual:
    def test_frozen_linear_values(self):
        s = 1 / np.sqrt(2)
        got = milnor_certificate(Z1, [(1, 0), (0, 1), (s, s)])
        assert got[0] <= 1e-12
        assert abs(got[1] - 1.0) <= 1e-12
        assert abs(got[2] - s) <= 1e-12

    def test_degenerate_frame_flagged(self):
        assert milnor_certificate(XYXBAR, [(0.0, 1.0)])[0] == 2.0

    def test_noise_rank_frame_is_degenerate(self):
        """On {y = 0} the shear pair's frame has rank 1 up to rounding noise:
        the point is critical (sing_residual 0), so it certifies nothing."""
        F = from_pair(parse("x", XY), parse("x + y^2", XY))
        z = (0.2, 1e-20j)
        assert sing_residual(F, z) == 0.0
        assert milnor_certificate(F, [z])[0] == 2.0

    def test_bounded_by_one(self, rng):
        checked = 0
        for _ in range(100):
            F = random_mixed(rng)
            values = milnor_certificate(F, random_points(rng, F.n_vars, 2))
            values = values[values != 2.0]
            assert np.all((-1e-12 <= values) & (values <= 1 + 1e-12))
            checked += len(values)
        assert checked > 100

    @pytest.mark.parametrize("text,variables", [("x", XY), ("x*y*x~", XY)])
    def test_scale_invariance(self, text, variables, rng):
        F = parse(text, variables)
        done = 0
        while done < 100:
            pt = random_points(rng, 2, 1)[0]
            base = milnor_certificate(F, [pt])[0]
            if base == 2.0:
                continue
            c = float(rng.uniform(0.2, 5.0))
            scaled = milnor_certificate(F, [tuple(c * w for w in pt)])[0]
            assert scaled != 2.0
            assert abs(base - scaled) <= 1e-10
            done += 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_certificate_matches_scalar_oracle(self, n, rng):
        """_batch_residual equals the least-squares oracle row by row,
        degenerate rows (2.0) included."""
        rank_one = parse("x*x~", ("x", "y", "z")[:n])
        cases = [rank_one] + [random_mixed(rng, n_vars=n) for _ in range(10)]
        for F in cases:
            points = random_points(rng, n, 15)
            got = milnor_certificate(F, points)
            want = [milnor_residual(F, pt) for pt in points]
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.all(milnor_certificate(rank_one, random_points(rng, n, 20)) == 2.0)


class TestMilnorScan:
    def test_linear_case_closed_form(self):
        """M(z1) = {z2 = 0}: every found point sits one radius from V."""
        result = milnor_scan(Z1)
        assert [s.radius for s in result.shells] == [0.2, 0.1, 0.05, 0.025]
        for shell in result.shells:
            assert shell.count > 0
            assert abs(shell.min_distance / shell.radius - 1.0) <= 1e-3
        assert result.supports_transversality
        assert abs(result.fitted_c - 1.0) <= 1e-3

    def test_f2_ratios_bounded_below(self):
        result = milnor_scan(XYXBAR)
        assert all(s.count > 0 for s in result.shells)
        assert result.supports_transversality
        assert result.fitted_c >= 0.1

    def test_deterministic_for_fixed_seed(self):
        a = milnor_scan(Z1, samples_per_shell=50)
        b = milnor_scan(Z1, samples_per_shell=50)
        assert a == b

    def test_found_points_lie_off_fibre(self):
        result = milnor_scan(XYXBAR)
        for z in result.points:
            assert abs(XYXBAR.evaluate(z)) > 1e-6

    def test_empty_evidence_is_valid(self):
        # one shell, no walkers: vacuous support, no fitted constant
        result = milnor_scan(Z1, shells=(0.1,), samples_per_shell=0)
        assert result.shells[0].count == 0
        assert result.fitted_c is None and result.supports_transversality


class TestNewtonProjection:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_points_certified_and_shells_hit(self, name):
        fixture = load_fixture(name)
        F = fixture.expression
        result = milnor_scan(F, pair=fixture.pair)
        points = iter(result.points)
        for shell in result.shells:
            for _ in range(min(shell.count, 3)):
                z = next(points)
                assert milnor_residual(F, z) < NEAR_ZERO_TOL
                assert abs(F.evaluate(z)) > OFF_FIBRE_TOL
                r = shell.radius
                assert abs(np.linalg.norm(z) - r) <= 1e-12 * r
        hit = [shell.count > 0 for shell in result.shells]
        # the two inner shells of x^2*conj(y^3) carry no off-fibre Milnor points
        assert hit == ([True, True, False, False] if name == "separate-x2-y3" else [True] * 4)

    @pytest.mark.parametrize(
        "name,hits,fitted_c",
        [
            ("polar-k2", (189, 189, 197, 195), 0.0539899055028),
            ("polar-k3", (196, 196, 199, 199), 0.408248290464),
            ("separate-x2-y3", (200, 200, 0, 0), 0.258198889747),
            ("shear-x-xy2", (96, 92, 72, 89), 0.143468868731),
            ("x2zy2-ybar", (200, 200, 200, 200), 0.327326835354),
            ("xy-xbar", (199, 199, 200, 200), 0.471404520791),
            ("xz2y-xbar", (189, 189, 197, 195), 0.0747620463149),
        ],
    )
    def test_fixture_evidence_pinned(self, name, hits, fitted_c):
        fixture = load_fixture(name)
        result = milnor_scan(fixture.expression, pair=fixture.pair)
        assert tuple(shell.count for shell in result.shells) == hits
        assert abs(result.fitted_c - fitted_c) <= 1e-9 * fitted_c

    def test_converged_rows_stay_put(self):
        F = load_fixture("shear-x-xy2").expression
        frame, hessian = compile_frame(F), compile_hessian(F)
        fed = []  # the rows each iteration evaluates

        def spy(Z):
            fed.append(Z.copy())
            return hessian(Z)

        r, steps = 0.1, 15
        X = np.random.default_rng(5).normal(size=(60, 4))
        X *= r / np.linalg.norm(X, axis=1, keepdims=True)
        final = _project_to_milnor_set(frame, spy, X, r, steps)
        # some rows stop while others still move
        assert len(fed[-1]) < len(fed[0]) == len(X)
        for k in range(1, len(fed)):
            after_k = _project_to_milnor_set(frame, hessian, X, r, k)
            moving = {row.tobytes() for row in fed[k]}
            stopped = [j for j in range(len(X)) if after_k[j].tobytes() not in moving]
            np.testing.assert_array_equal(final[stopped], after_k[stopped])
        assert stopped

    def test_hessian_matches_exact_second_derivatives(self, rng):
        for _ in range(20):
            F = random_mixed(rng)
            hessian = compile_hessian(F)
            grad = F.wirtinger()
            for pt in random_points(rng, F.n_vars, 3):
                H, M, B = hessian(np.array(pt)[None, :])
                for j in range(F.n_vars):
                    dj, bj = grad.dF[j].wirtinger(), grad.dbarF[j].wirtinger()
                    for k in range(F.n_vars):
                        for got, exact in ((H, dj.dF[k]), (M, dj.dbarF[k]), (B, bj.dbarF[k])):
                            want = exact.evaluate(pt)
                            assert abs(got[0, j, k] - want) <= 1e-9 * max(1.0, abs(want))

    def test_linear_case_converges_exactly(self):
        assert abs(milnor_scan(Z1).fitted_c - 1.0) <= 1e-12

    def test_scan_budget(self):
        fixture = load_fixture("xz2y-xbar")
        t0 = time.perf_counter()
        milnor_scan(fixture.expression, pair=fixture.pair)
        assert time.perf_counter() - t0 < 1.0


class TestTubeVerdict:
    def test_fk_headline(self):
        F = parse("x~*y*(x + z^2)", XYZ)
        stratum = Stratum(base_point=(0, 1, 0), tangent=((0, 1, 0), (0, 1j, 0)))
        probes = (thom_test(F, stratum),)
        v = tube_verdict(F, probes=probes)
        assert v.tube_status == "yes" and v.tube_route == "polar"
        assert v.thom_status == "fail" and v.thom_route == "probe-witness"
        assert v.witness is not None
        assert v.probe_summary == "fail-witness"
        route_names = [r.name for r in v.routes]
        assert route_names == ["polar", "probe-witness"]

    def test_separate_variables_headline(self):
        f, g = parse("x^2", XY), parse("y^3", XY)
        v = tube_verdict(from_pair(f, g), pair=(f, g))
        assert v.tube_status == "yes" and v.tube_route == "separate-variables"
        assert v.thom_status == "regular" and v.thom_route == "separate-variables"
        assert v.probe_summary == "not-probed"

    def test_disc_line_headline(self):
        f, g = parse("x", XY), parse("x + y^2", XY)
        v = tube_verdict(from_pair(f, g), pair=(f, g))
        assert v.tube_status == "no" and v.tube_route == "disc-lines"
        assert v.thom_status == "unknown"
        assert v.isolated.status == "not-isolated"

    def test_icis_flag_route(self, capsys):
        """No flag or argument asserts an ICIS: (x^2 - z*y^2, y) is not one,
        since its minors 2x, 0 and y^2 all vanish on the z-axis."""
        f, g = parse("x^2 - z*y^2", XYZ), parse("y", XYZ)
        with pytest.raises(TypeError):
            tube_verdict(from_pair(f, g), pair=(f, g), assert_icis=True)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--pair", "x^2 - z*y^2", "y", "--vars", "x,y,z",
                  "--samples", "20", "--assert-icis"])
        assert exc.value.code == 2
        assert "--assert-icis" in capsys.readouterr().err
        v = tube_verdict(from_pair(f, g), pair=(f, g))
        assert v.thom_status == "unknown"
        assert "icis-flag" not in [r.name for r in v.routes]

    def test_icis_flag_needs_isolated_verdict(self):
        # the same pair without the flag keeps thom unknown
        f, g = parse("x^2 - z*y^2", XYZ), parse("y", XYZ)
        v = tube_verdict(from_pair(f, g), pair=(f, g))
        assert v.thom_status == "unknown"
        assert v.tube_status == "yes" and v.tube_route == "polar"

    def test_degenerate_pair_recorded_not_raised(self):
        f = parse("x*y", XY)
        v = tube_verdict(from_pair(f, f), pair=(f, f))
        assert any(r.conclusion == "unavailable" for r in v.routes)

    def test_unknown_when_no_route_fires(self):
        F = parse("x*y + x~*y~", XY)
        v = tube_verdict(F)
        assert v.tube_status == "unknown" and v.thom_status == "unknown"
        assert v.probe_summary == "not-probed"

    def test_soundness_never_no_plus_regular(self, rng):
        """Random pairs: the guard invariant holds on every reachable path."""
        for _ in range(25):
            f = random_mixed(rng, n_vars=2, max_terms=2, max_degree=2)
            g = random_mixed(rng, n_vars=2, max_terms=2, max_degree=2)
            f = f.conjugate() if not f.is_holomorphic else f
            g = g.conjugate() if not g.is_holomorphic else g
            if not (f.is_holomorphic and g.is_holomorphic):
                continue
            if f.is_zero or g.is_zero:
                continue
            try:
                v = tube_verdict(from_pair(f, g), pair=(f, g))
            except ValueError:
                continue  # degree bound and similar input rejections
            assert not (v.tube_status == "no" and v.thom_status == "regular")

    def test_witness_replay(self):
        F = parse("x~*y*(x + z^2)", XYZ)
        stratum = Stratum(base_point=(0, 1, 0), tangent=((0, 1, 0), (0, 1j, 0)))
        v1 = tube_verdict(F, probes=(thom_test(F, stratum),))
        v2 = tube_verdict(F, probes=(thom_test(F, stratum),))
        assert v1.witness == v2.witness
