"""Normal families, exact limit planes along curves, and the stratified probe."""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mixedsing import (
    ComplexRational,
    CurveGerm,
    Stratum,
    default_curve_battery,
    format_mixed,
    from_pair,
    limit_normal_plane,
    normal_family_symbolic,
    parse,
    thom_test,
)
from mixedsing._numeric import RANK_RTOL, compile_frame, normal_plane, realify, unrealify
from mixedsing.fixtures import load_all, load_fixture
from oracles import curve_at, grassmann_distance, least_squares_mu, random_mixed
from oracles import real_span_basis, track_normal_plane

XY = ("x", "y")
XYZ = ("x", "y", "z")

XYXBAR = parse("x*y*x~", XY)
UMBRELLA = parse("(x^2 - z*y^2)*y~", XYZ)


def curve(*components, label=""):
    """CurveGerm from (coeff, exponent) term lists, one per coordinate."""
    return CurveGerm(tuple(tuple(comp) for comp in components), label=label)


Y_AXIS_2 = Stratum(base_point=(0, 1), tangent=((0, 1), (0, 1j)), label="y-axis")
Z_AXIS_3 = Stratum(base_point=(0, 0, 1), tangent=((0, 0, 1), (0, 0, 1j)), label="z-axis")


TENTH = Fraction(3602879701896397, 36028797018963968)  # the float 0.1, exactly


def cr(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def wedge(u, v):
    """Plucker vector of u ^ v for exact vectors of C^n, realified."""
    u = [c.re for c in u] + [c.im for c in u]
    v = [c.re for c in v] + [c.im for c in v]
    return tuple(u[i] * v[j] - u[j] * v[i]
                 for i, j in itertools.combinations(range(len(u)), 2))


def orthonormal(vectors):
    """A float orthonormal row basis of the real span of exact complex vectors."""
    return real_span_basis([[complex(w) for w in v] for v in vectors])


def proportional(L, M):
    """L = r * M for a nonzero rational r (or both are None)."""
    if L is None or M is None:
        return L is None and M is None
    k = next(i for i, x in enumerate(M) if x)
    r = L[k] / M[k]
    return r != 0 and all(a == r * b for a, b in zip(L, M))


class TestSymbolicFamilies:
    def test_umbrella_family_frozen(self):
        fam = normal_family_symbolic(UMBRELLA)
        assert [format_mixed(p) for p in fam.a] == [
            "2*z1~*z2",
            "-2*z2*z2~*z3~",
            "-1*z2*z2~^2",
        ]
        assert [format_mixed(p) for p in fam.b] == [
            "0 (n=3)",
            "-1*z2^2*z3 + 1*z1^2",
            "0 (n=3)",
        ]

    @pytest.mark.parametrize(
        "k,a_y,a_z,b_x",
        [
            (2, "1*z1*z3~^2 + 1*z1*z1~", "2*z1*z2~*z3~", "1*z2*z3^2 + 1*z1*z2"),
            (3, "1*z1*z3~^3 + 1*z1*z1~", "3*z1*z2~*z3~^2", "1*z2*z3^3 + 1*z1*z2"),
        ],
    )
    def test_fk_family_frozen(self, k, a_y, a_z, b_x):
        fam = normal_family_symbolic(parse(f"x~*y*(x + z^{k})", XYZ))
        assert [format_mixed(p) for p in fam.a] == ["1*z1*z2~", a_y, a_z]
        assert [format_mixed(p) for p in fam.b] == [b_x, "0 (n=3)", "0 (n=3)"]

    def test_pair_route_equals_direct_route(self, rng):
        """The pair way, a = g*conj(df) and b = f*conj(dg), gives the
        family of f*conj(g) exactly."""

        def assert_pair_route(f, g):
            """True when both halves of the checked family are nonzero."""
            direct = normal_family_symbolic(from_pair(f, g))
            assert direct.a == tuple(g * p.conjugate() for p in f.wirtinger().dF)
            assert direct.b == tuple(f * p.conjugate() for p in g.wirtinger().dF)
            return any(not p.is_zero for p in direct.a) and any(not p.is_zero for p in direct.b)

        fixed = [
            (parse("x*y", XY), parse("x", XY)),
            (parse("x^2 - z*y^2", XYZ), parse("y", XYZ)),
        ]
        for f, g in fixed:
            assert_pair_route(f, g)
        live = []
        for _ in range(20):
            n = int(rng.integers(1, 4))
            f = random_mixed(rng, n_vars=n, max_terms=3, holomorphic=True)
            g = random_mixed(rng, n_vars=n, max_terms=2, holomorphic=True)
            live.append(assert_pair_route(f, g))
        # every random case ran, and most have both halves nonzero (18 of 20
        # at the suite's seed; a constant f or g zeroes one half)
        assert len(live) == 20 and sum(live) >= 15


class TestFrames:
    def test_frame_values_frozen(self):
        """The live evaluator against frozen values and the exact family."""
        F = from_pair(parse("x*y", XY), parse("x", XY))
        a, b = compile_frame(F)(np.array((1, 1)))
        assert np.allclose(a + b, (2, 1))
        assert np.allclose(1j * (a - b), (0, 1j))
        fam = normal_family_symbolic(F)
        assert np.allclose(a, [p.evaluate((1, 1)) for p in fam.a])
        assert np.allclose(b, [p.evaluate((1, 1)) for p in fam.b])


class TestNumericHelpers:
    def test_realify_roundtrip(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(unrealify(realify(v)), v)

    def test_real_span_basis_rank(self):
        v = np.array([1.0, 2.0, 0.0, 0.0])
        w = np.array([0.0, 0.0, 3.0, 0.0])
        Q = real_span_basis([v, 2 * v])
        assert Q.shape[0] == 1
        Q2 = real_span_basis([v, w])
        assert Q2.shape[0] == 2
        assert np.allclose(Q2 @ Q2.T, np.eye(2), atol=1e-12)

    def test_normal_plane_basis_is_real_span_basis(self, rng):
        """Bit for bit: real_span_basis of the frame scaled by max(|a|, |b|)."""
        for _ in range(300):
            n = int(rng.integers(1, 4))
            magnitudes = 10.0 ** rng.uniform(-5, 5, size=(2, 1))
            a, b = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * magnitudes
            plane = normal_plane(a, b)
            scale = max(np.abs(a).max(), np.abs(b).max())
            want = real_span_basis([(a + b) / scale, 1j * (a - b) / scale], rtol=RANK_RTOL)
            assert np.array_equal(plane.Vt[: plane.rank], want)

    def test_normal_plane_batches_rows(self, rng):
        a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        batched = normal_plane(a, b)
        for k in range(5):
            row = normal_plane(a[k], b[k])
            assert np.array_equal(batched.Vt[k], row.Vt) and batched.rank[k] == row.rank

    def test_normal_plane_mu_fit(self, rng):
        for _ in range(100):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            mu = complex(rng.normal(), rng.normal())
            got = least_squares_mu(a, b, mu * a + np.conj(mu) * b)
            assert abs(got - mu) <= 1e-12 * max(1.0, abs(mu))

    def test_normal_plane_rank_rule(self, rng):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        for theta in (0.0, 0.7, np.pi):
            # a = e^{i theta} b spans one real line: n_i is a real multiple of n_1
            assert normal_plane(a, np.exp(-1j * theta) * a).rank == 1
        zero = np.zeros(3, dtype=complex)
        assert normal_plane(zero, zero).rank == 0
        assert normal_plane(np.array([np.inf, 1, 0]), zero).rank == 0
        assert normal_plane(a, rng.normal(size=3) + 1j * rng.normal(size=3)).rank == 2

    def test_grassmann_metric_values(self):
        e = np.eye(4)
        Q1 = e[[0, 1]]
        Q2 = e[[2, 3]]
        Q3 = e[[0, 2]]
        assert grassmann_distance(Q1, Q1) <= 1e-12
        assert abs(grassmann_distance(Q1, Q2) - np.pi / np.sqrt(2)) <= 1e-12
        assert abs(grassmann_distance(Q1, Q3) - np.pi / 2) <= 1e-12
        assert abs(grassmann_distance(Q1, Q3) - grassmann_distance(Q3, Q1)) <= 1e-14

    def test_grassmann_resolves_tiny_angles(self):
        # rotate a plane by 1e-9: the metric must see ~1e-9, not noise
        theta = 1e-9
        Q1 = np.eye(4)[[0, 1]]
        R = np.eye(4)
        R[0, 0] = R[2, 2] = np.cos(theta)
        R[0, 2], R[2, 0] = -np.sin(theta), np.sin(theta)
        Q2 = Q1 @ R.T
        d = grassmann_distance(Q1, Q2)
        assert abs(d - theta) <= 1e-12

    def test_grassmann_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grassmann_distance(np.eye(4)[[0]], np.eye(6)[[0]])


class TestCurveGerm:
    def test_evaluation_and_base_point(self):
        c = curve([(1, 1)], [(1, 0), (-2, 3)])
        assert np.allclose(curve_at(c, 0.5), [0.5, 1 - 2 * 0.125])
        assert c.base_point() == (cr(0), cr(1))

    def test_from_polynomials(self):
        c = CurveGerm.from_polynomials(
            (parse("t", ("t",)), parse("3/5 + 4/5*i", ("t",))), label="axis"
        )
        assert c.components == (((cr(1), 1),), ((cr(Fraction(3, 5), Fraction(4, 5)), 0),))
        with pytest.raises(ValueError):
            CurveGerm.from_polynomials((parse("t~", ("t",)),))

    def test_coefficients_stay_exact(self):
        c = curve([(0.5 + 0.25j, 1)], [(Fraction(1, 3), 0)])
        assert c.components == (((cr(Fraction(1, 2), Fraction(1, 4)), 1),), ((cr(Fraction(1, 3)), 0),))
        with pytest.raises(ValueError):
            curve([(1, -1)])
        with pytest.raises(ValueError):
            curve([(complex("nan"), 1)])
        # the float 0.1 keeps its binary value; sympy's QQ.convert(0.1) is 1/10
        c = curve([(0.1, 1)], [(1, 1), (0.1j, 0)])
        assert c.components == (((cr(TENTH), 1),), ((cr(1), 1), (cr(0, TENTH), 0)))
        assert c.base_point() == (cr(0), cr(0, TENTH))


class TestStratum:
    def test_tangent_must_be_real_independent(self):
        with pytest.raises(ValueError):
            Stratum(base_point=(0, 1), tangent=((0, 1), (0, 2)))
        # (1, i) and (i, -1) = i * (1, i) are independent over R, not over C
        assert len(Stratum(base_point=(0, 0), tangent=((1, 1j), (1j, -1))).tangent) == 2

    def test_float_keeps_its_binary_value(self):
        s = Stratum(base_point=(0.1, 0), tangent=((1, 0.1j), (0.1, 0)))
        assert s.base_point == (cr(TENTH), cr(0))
        assert s.tangent == ((cr(1), cr(0, TENTH)), (cr(TENTH), cr(0)))

    def test_arity_checked_against_polynomial(self):
        with pytest.raises(ValueError):
            thom_test(XYXBAR, Z_AXIS_3)


class TestLimitPlane:
    def test_product_canonical_plane(self):
        probe = limit_normal_plane(XYXBAR, curve([(1, 1)], [(1, 0)]))
        assert probe.verdict == "compatible"
        assert probe.reason == "limit plane from t^3"
        assert probe.plane_dims == (2,)
        assert proportional(probe.plucker, wedge((cr(1), cr(0)), (cr(0), cr(0, 1))))
        ref = np.stack([realify(np.array([1, 0j])), realify(np.array([0, 1j]))])
        assert grassmann_distance(orthonormal(probe.limit_plane), ref) <= 1e-12

    def test_degenerate_frame_is_inconclusive(self):
        probe = limit_normal_plane(XYXBAR, curve([], [(1, 1)]))
        assert probe.verdict == "inconclusive"
        assert "degenerate" in probe.reason

    def test_real_one_dimensional_plane(self):
        # x + x~ has the rank-1 frame (2, 0) everywhere: every point is critical
        F = parse("x + x~", ("x",))
        probe = limit_normal_plane(F, curve([(1, 1)]))
        assert probe.verdict == "inconclusive"
        assert "critical locus" in probe.reason
        assert probe.plane_dims == () and probe.limit_plane is None

    def test_curve_arity_checked(self):
        with pytest.raises(ValueError):
            limit_normal_plane(XYXBAR, curve([(1, 1)]))


class TestThomTest:
    def test_product_failure_witness(self):
        result = thom_test(XYXBAR, Y_AXIS_2, curves=(curve([(1, 1)], [(1, 0)], label="t, 1"),))
        assert result.verdict == "fail-witness"
        w = result.witness
        assert w["curve"] == "t, 1"
        assert w["projection"] > 0.9
        # the failing limit direction is e2 up to phase
        direction = np.asarray(w["direction"])
        assert abs(direction[0]) <= 1e-8
        assert abs(abs(direction[1]) - 1) <= 1e-8
        assert abs(w["mu"] ** 2 + 1) <= 1e-6  # mu is +-i
        assert result.per_curve[0].verdict == "fail-witness"

    def test_product_failure_found_by_default_battery(self):
        result = thom_test(XYXBAR, Y_AXIS_2)
        assert result.verdict == "fail-witness"

    def test_product_failure_survives_curve_rotation(self):
        rot = cr(Fraction(3, 5), Fraction(4, 5))
        result = thom_test(XYXBAR, Y_AXIS_2, curves=(curve([(rot, 1)], [(1, 0)]),))
        assert result.verdict == "fail-witness"

    def test_critical_locus_curve_beside_a_regular_one(self):
        # (0, 1 + t) stays on {x = 0}, where a and b of x*y*x~ vanish
        regular = curve([(1, 1)], [(1, 0)], label="t, 1")
        critical = curve([], [(1, 0), (1, 1)], label="0, 1 + t")
        for curves in ((regular, critical), (critical, regular)):
            result = thom_test(XYXBAR, Y_AXIS_2, curves=curves)
            assert result.verdict == "fail-witness"
            assert sorted(p.verdict for p in result.per_curve) == ["fail-witness", "inconclusive"]
            assert result.projection > 0.9

    def test_critical_locus_everywhere(self):
        # x*x~ has a rank-1 frame at every point, so every curve is critical
        result = thom_test(parse("x*x~", XY), Y_AXIS_2)
        assert result.verdict == "inconclusive"
        assert result.reason == "9 of 9 curves lie in the critical locus"
        assert all(p.projection is None for p in result.per_curve)
        assert result.projection is None

    def test_witness_replays_deterministically(self):
        a = thom_test(XYXBAR, Y_AXIS_2)
        b = thom_test(XYXBAR, Y_AXIS_2)
        assert a.witness == b.witness
        assert a.projection == b.projection

    def test_umbrella_battery_compatible_and_annihilates_e3(self):
        result = thom_test(UMBRELLA, Z_AXIS_3)
        assert result.verdict == "compatible"
        assert len(result.per_curve) == 27
        T = np.stack([realify(np.array(v, dtype=complex)) for v in Z_AXIS_3.tangent])
        for probe in result.per_curve:
            assert probe.limit_plane is not None
            Q = orthonormal(probe.limit_plane)
            # projection of each tangent direction onto the limit plane
            assert np.linalg.norm(Q @ T.T, 2) <= 1e-6

    def test_separate_variables_pair_is_compatible(self):
        F = from_pair(parse("x^2", XY), parse("y^3", XY))
        origin_x = Stratum(base_point=(1, 0), tangent=((1, 0), (1j, 0)))
        result = thom_test(F, origin_x)
        assert result.verdict in {"compatible", "inconclusive"}
        assert result.verdict == "compatible"


class TestDefaultBattery:
    def test_deterministic_and_bounded(self):
        a = default_curve_battery((0, 1))
        b = default_curve_battery((0, 1))
        assert [c.components for c in a] == [c.components for c in b]
        assert [c.label for c in a] == [c.label for c in b]
        assert len(a) == 9  # 3 exponents per coordinate, squared
        assert all(c.label.startswith("t^") for c in a)

    def test_battery_respects_base_point(self):
        for c in default_curve_battery((0, 0, 1)):
            assert len(c.components) == 3
            assert c.base_point() == (cr(0), cr(0), cr(1))

    def test_directions_are_exact_unit_complex_numbers(self):
        for c in default_curve_battery((0, 0, 1), seed=7):
            for comp in c.components:
                w = comp[0][0]
                assert w.re * w.re + w.im * w.im == 1

    def test_battery_capped_in_higher_dimension(self):
        assert len(default_curve_battery((0, 0, 1))) == 27

    def test_four_variables_cover_every_exponent(self):
        battery = default_curve_battery((0, 0, 0, 1))
        assert len(battery) == 27
        grids = [tuple(int(e) for e in c.label[2:].split(",")) for c in battery]
        assert len(set(grids)) == 27
        for j in range(4):
            assert {g[j] for g in grids} == {1, 2, 3}

    def test_different_seeds_differ(self):
        a = default_curve_battery((0, 1), seed=1)
        b = default_curve_battery((0, 1), seed=2)
        assert [c.components for c in a] != [c.components for c in b]

    @pytest.mark.parametrize("seed", [-5, -1, 1.5, 2.0, "7", None])
    def test_negative_or_non_integer_seed_rejected(self, seed):
        """random.Random would seed -5 as 5 and hash the others."""
        with pytest.raises(ValueError, match="non-negative integer"):
            default_curve_battery((0, 1), seed=seed)


def fixture_batteries():
    """(fixture, F, stratum, curves) for every fixture stratum and its battery."""
    for fx in load_all():
        for stratum in fx.strata:
            yield fx, fx.expression, stratum, fx.curves or default_curve_battery(stratum.base_point)


def reparametrize(c: CurveGerm, sub) -> CurveGerm:
    """c(sub(t)) for sub a list of (coefficient, exponent) terms."""
    def power(e):
        out = {0: Fraction(1)}
        for _ in range(e):
            nxt = {}
            for k, a in out.items():
                for b, f in sub:
                    nxt[k + f] = nxt.get(k + f, 0) + a * b
            out = nxt
        return out

    return CurveGerm(
        tuple(tuple((ComplexRational(c0.re * p, c0.im * p), k)
                    for c0, e in comp for k, p in power(e).items())
              for comp in c.components),
        label=c.label,
    )


TRANSFORMS = {
    "lambda-F": lambda F, c: (F * ComplexRational(Fraction(3, 5), Fraction(4, 5)), c),
    "conj-F": lambda F, c: (F.conjugate(), c),
    "t-2t": lambda F, c: (F, reparametrize(c, [(2, 1)])),
    "t-t+t^2": lambda F, c: (F, reparametrize(c, [(1, 1), (1, 2)])),
}


@functools.cache
def exact_plane_probes():
    """(fixture name, stratum, curve probe) over every fixture stratum's own
    curves and its batteries of seeds 1 and 2."""
    out = []
    for fx in load_all():
        for stratum in fx.strata:
            for curves in (fx.curves, *(default_curve_battery(stratum.base_point, seed=seed)
                                        for seed in (1, 2))):
                if curves:
                    out += [(fx.name, stratum, p)
                            for p in thom_test(fx.expression, stratum, curves=curves).per_curve]
    return out


def is_rref(rows):
    """Nonzero rows in reduced row echelon form: each leads with a 1, the
    pivots increase, and every other row is 0 in a pivot's column."""
    pivots = [next((k for k, x in enumerate(r) if x), None) for r in rows]
    return None not in pivots and pivots == sorted(set(pivots)) and all(
        rows[a][p] == (a == b) for b, p in enumerate(pivots) for a in range(len(rows)))


class TestExactPlane:
    def test_rref_check(self):
        assert is_rref([[1, 0, 2], [0, 1, 3]])
        assert not is_rref([[1, 1, 2], [0, 1, 3]])
        assert not is_rref([[0, 1, 3], [1, 0, 2]])
        assert not is_rref([[2, 0, 2], [0, 1, 3]])
        assert not is_rref([[1, 0, 2], [0, 0, 0]])

    def test_limit_plane_is_the_rref_basis(self):
        planes = [p.limit_plane for _, _, p in exact_plane_probes() if p.limit_plane is not None]
        for plane in planes:
            assert len(plane) == 2
            assert is_rref([[c.re for c in v] + [c.im for c in v] for v in plane]), plane
        # no curve here is critical: polar-k2, polar-k3 and xz2y-xbar have one
        # curve and two 27-curve batteries, separate-x2-y3 two 9-curve
        # batteries, x2zy2-ybar two of 27, xy-xbar one curve and two of 9
        assert len(planes) == 3 * (1 + 2 * 27) + 2 * 9 + 2 * 27 + (1 + 2 * 9)

    def test_basis_wedge_is_the_plucker_vector(self):
        for name, _, p in exact_plane_probes():
            assert (p.limit_plane is None) == (p.plucker is None) == (p.plane_dims == ())
            if p.limit_plane is not None:
                assert proportional(wedge(*p.limit_plane), p.plucker), (name, p.curve)

    def test_witness_projection_matches_the_float_bases(self):
        """The exact 2x2 eigenvalue formula against the spectral norm of
        Q T^T for float orthonormal bases Q of the plane, T of the tangents."""
        compared = 0
        for name, stratum, p in exact_plane_probes():
            if p.verdict != "fail-witness":
                continue
            want = np.linalg.norm(orthonormal(p.limit_plane) @ orthonormal(stratum.tangent).T, 2)
            assert abs(p.projection - want) <= 1e-12, (name, p.curve)
            assert p.witness["projection"] == p.projection
            compared += 1
        assert compared == 136


class TestExactLimit:
    def test_xy_xbar_battery_fails_with_the_hand_derived_plane(self):
        """Along (w1 t^a, 1 + w2 t^b) the frame's Plucker vector starts at
        2 t^3a (w1, 0) ^ (0, i), which meets the tangent (0, i)."""
        fx = load_fixture("xy-xbar")
        battery = default_curve_battery(fx.strata[0].base_point)
        result = thom_test(fx.expression, fx.strata[0], curves=battery)
        assert result.verdict == "fail-witness"
        assert [p.verdict for p in result.per_curve] == ["fail-witness"] * 9
        for c, p in zip(battery, result.per_curve):
            w1 = c.components[0][0][0]
            assert proportional(p.plucker, wedge((w1, cr(0)), (cr(0), cr(0, 1))))
            assert p.plane_dims == (2,)
            assert np.allclose(p.witness["direction"], (0, 1j), atol=1e-15)
            assert abs(p.witness["projection"] - 1) <= 1e-12

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_limit_is_invariant(self, name):
        """Rotating or conjugating F and reparametrizing t keep every limit
        plane (L up to a rational factor) and every per-curve verdict."""
        checked = 0
        for fx, F, stratum, curves in fixture_batteries():
            base = thom_test(F, stratum, curves=curves)
            pairs = [TRANSFORMS[name](F, c) for c in curves]
            moved = thom_test(pairs[0][0], stratum, curves=[c for _, c in pairs])
            for p, q in zip(base.per_curve, moved.per_curve):
                assert q.verdict == p.verdict, (fx.name, name)
                assert proportional(q.plucker, p.plucker), (fx.name, name)
                checked += 1
        assert checked == 1 + 1 + 9 + 27 + 1 + 1

    def test_float_tracker_agrees_where_well_conditioned(self):
        """The shell-by-shell float tracker (tests/oracles.py) lands on the
        exact limit wherever its frame stays well inside rank 2 (s_1/s_0 >=
        1e-6 at every shell), on the seed-1 batteries of every fixture."""
        compared = 0
        for fx in load_all():
            for stratum in fx.strata:
                for c in default_curve_battery(stratum.base_point, seed=1) + fx.curves:
                    Q, ratios = track_normal_plane(fx.expression, c)
                    if Q is None or min(ratios) < 1e-6:
                        continue
                    exact = limit_normal_plane(fx.expression, c)
                    E = orthonormal(exact.limit_plane)
                    assert grassmann_distance(Q, E) <= 1e-6, (fx.name, c.label)
                    compared += 1
        assert compared >= 40

    def test_witness_mu_is_the_limit_of_the_least_squares_mu(self):
        """A skew tangent fails on every battery curve; each witness's exact
        mu matches the float least-squares mu of its direction at t = 1e-4."""
        compared = 0
        for name in ("polar-k2", "x2zy2-ybar", "separate-x2-y3"):
            fx = load_fixture(name)
            n = fx.expression.n_vars
            skew = Stratum(base_point=fx.strata[0].base_point, tangent=((1,) + (1 + 2j,) * (n - 1),))
            battery = default_curve_battery(skew.base_point)
            frame = compile_frame(fx.expression)
            for c, p in zip(battery, thom_test(fx.expression, skew, curves=battery).per_curve):
                mu = least_squares_mu(*frame(curve_at(c, 1e-4)), np.array(p.witness["direction"]))
                assert abs(mu / abs(mu) - p.witness["mu"]) <= 1e-3, (name, c.label)
                compared += 1
        assert compared == 27 + 27 + 9
