"""The Milnor tube verdict (`mixedsing.verdict`) and its route records."""

import inspect
import typing

import pytest

from mixedsing import Stratum, from_pair, parse, thom_test, tube_verdict
from mixedsing import verdict
from mixedsing.cli import main
from oracles import random_mixed

XY = ("x", "y")
XYZ = ("x", "y", "z")


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


def test_annotations_resolve_at_module_scope():
    """Every annotation names something the module binds at import."""
    functions = [fn for _, fn in inspect.getmembers(verdict, inspect.isfunction)
                 if fn.__module__ == verdict.__name__]
    assert {"_separate_variables", "tube_verdict"} <= {fn.__name__ for fn in functions}
    for fn in functions:
        typing.get_type_hints(fn)
