"""Fixture corpus and the JSON command-line front end."""

import json

import pytest

from mixedsing import format_mixed, from_pair
from mixedsing.cli import main
from mixedsing.discgeom import ShearSearchExhausted
from mixedsing.fixtures import FixtureError, fixture_names, load_all, load_fixture

ALL_FIXTURES = (
    "polar-k2",
    "polar-k3",
    "separate-x2-y3",
    "shear-x-xy2",
    "x2zy2-ybar",
    "xy-xbar",
    "xz2y-xbar",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestFixtureCorpus:
    def test_names(self):
        assert fixture_names() == ALL_FIXTURES

    def test_load_all(self):
        fixtures = load_all()
        assert tuple(f.name for f in fixtures) == ALL_FIXTURES
        for f in fixtures:
            assert f.description
            assert f.expression is not None
            assert f.expect

    def test_unknown_fixture(self):
        with pytest.raises(FixtureError):
            load_fixture("no-such-case")

    def test_pair_fixtures_carry_their_product(self):
        for f in load_all():
            if f.pair is not None:
                assert f.expression == from_pair(*f.pair)

    def test_probe_fixture_details(self):
        f = load_fixture("xy-xbar")
        assert f.variables == ("x", "y")
        assert [s.label for s in f.strata] == ["y-axis"]
        assert [c.label for c in f.curves] == ["t, 1"]
        b = load_fixture("shear-x-xy2").branches
        assert len(b) == 1 and b[0].p == 1


def expected_value(report, key, capsys, fixture):
    """Resolve one fixture expectation key against a produced report."""
    verdict = report["verdict"]
    disc = report.get("discriminant") or {}
    polar = report["polar"]
    if key == "tube":
        return verdict["tube"]
    if key == "tube-route":
        return verdict["tube_route"]
    if key == "thom":
        return verdict["thom"]
    if key == "thom-route":
        return verdict["thom_route"]
    if key == "probe":
        return verdict["probe_summary"]
    if key == "polar":
        return polar["polar"]
    if key == "polar-p":
        return "(" + ", ".join(str(x) for x in polar["p"]) + ")"
    if key == "polar-k":
        return str(polar["k"])
    if key == "isolated":
        return disc["status"]
    if key == "isolated-route":
        return disc["route"]
    if key == "slope-lines":
        slopes = [
            c["slope_exact"]
            for c in disc["lines"]["components"]
            if c["kind"] == "slope"
        ]
        return "(" + ", ".join(slopes) + ")"
    if key == "shear-k":
        f, g = (format_mixed(p) for p in load_fixture(fixture).pair)
        n = load_fixture(fixture).expression.n_vars
        names = ",".join(f"z{j+1}" for j in range(n))
        code, rep = run_json(capsys, "shear", "--pair", f, g, "--vars", names)
        assert code == 0 and rep["shear"]["found"]
        return str(rep["shear"]["k"])
    raise AssertionError(f"unmapped expectation key {key!r}")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_expectations(name, capsys):
    """Every expect line in the corpus holds against a fresh analyze run."""
    code, report = run_json(capsys, "analyze", name, "--samples", "60")
    assert code == 0
    assert report["schema"] == 3
    failures = []
    for key, want in load_fixture(name).expect.items():
        got = expected_value(report, key, capsys, name)
        if got != want:
            failures.append(f"{name}/{key}: expected {want!r}, got {got!r}")
    assert not failures, "\n".join(failures)


class TestAnalyze:
    def test_byte_identical_reruns(self, capsys):
        code1, out1 = run_cli(capsys, "analyze", "xy-xbar")
        code2, out2 = run_cli(capsys, "analyze", "xy-xbar")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_is_echoed_and_changes_scan(self, capsys):
        _, a = run_json(capsys, "analyze", "polar-k2", "--samples", "40", "--seed", "1")
        _, b = run_json(capsys, "analyze", "polar-k2", "--samples", "40", "--seed", "2")
        assert a["seed"] == 1 and b["seed"] == 2
        assert a["milnor"]["points"] != b["milnor"]["points"]

    def test_expr_input(self, capsys):
        code, report = run_json(
            capsys, "analyze", "--expr", "x*y*x~", "--vars", "x,y", "--samples", "40"
        )
        assert code == 0
        assert report["input"]["expression"] == "1*z1*z1~*z2"
        assert report["input"]["fixture"] is None
        assert report["polar"]["p"] == [1, 1]
        assert report["verdict"]["tube"] == "yes"

    def test_out_file_matches_stdout_payload(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "analyze", "polar-k2", "--samples", "40",
                            "--out", str(target))
        assert code == 0
        written = target.read_text()
        assert json.loads(written)["command"] == "analyze"

    def test_no_input_is_a_usage_error(self, capsys):
        code, report = run_json(capsys, "analyze")
        assert code == 2
        assert report["error"]["type"] == "parse"


class TestSubcommands:
    def test_wirtinger_frozen(self, capsys):
        code, rep = run_json(capsys, "wirtinger", "--expr", "x*y*x~", "--vars", "x,y")
        assert code == 0
        assert rep["dF"] == ["1*z1~*z2", "1*z1*z1~"]
        assert rep["dbarF"] == ["1*z1*z2", "0 (n=2)"]
        assert rep["normal_family"]["a"] == ["1*z1*z2~", "1*z1*z1~"]
        assert rep["normal_family"]["b"] == ["1*z1*z2", "0 (n=2)"]

    def test_polar_found_and_absent(self, capsys):
        code, rep = run_json(capsys, "polar", "--expr", "x~*y*(x + z^2)",
                             "--vars", "x,y,z")
        assert code == 0
        assert rep["polar"]["p"] == [2, 1, 1] and rep["polar"]["k"] == 1
        code, rep = run_json(capsys, "polar", "--expr", "x*y + x~*y~", "--vars", "x,y")
        assert code == 0
        assert rep["polar"]["polar"] == "no"
        assert "forced to zero" in rep["polar"]["reason"]

    def test_disc_with_branches(self, capsys):
        code, rep = run_json(
            capsys, "disc", "--pair", "x", "x + y^2", "--vars", "x,y",
            "--branch", "u = t; v = t", "--branch", "u = t^2; v = t^3",
        )
        assert code == 0
        assert rep["isolated"]["status"] == "not-isolated"
        assert [b["line"] for b in rep["branches"]] == [True, False]

    def test_disc_requires_pair(self, capsys):
        code, rep = run_json(capsys, "disc", "--expr", "x*y*x~", "--vars", "x,y")
        assert code == 2
        assert rep["error"]["type"] == "parse"

    def test_thom_probe(self, capsys):
        code, rep = run_json(
            capsys, "thom-probe", "--expr", "x*y*x~", "--vars", "x,y",
            "--stratum", "base = (0, 1); tangent = (0, 1), (0, i); label = y-axis",
        )
        assert code == 0
        probe = rep["thom_probes"][0]
        assert probe["verdict"] == "fail-witness"
        assert probe["stratum"] == "y-axis"
        assert probe["witness"]["projection"] > 0.9

    def test_milnor_scan_options(self, capsys):
        code, rep = run_json(
            capsys, "milnor-scan", "--expr", "x", "--vars", "x,y",
            "--shells", "0.2,0.1", "--samples", "50",
        )
        assert code == 0
        assert [s["radius"] for s in rep["milnor"]["shells"]] == [0.2, 0.1]
        assert rep["milnor"]["samples_per_shell"] == 50
        assert rep["milnor"]["supports_transversality"] is True

    def test_shear_exhaustion_is_reported_not_raised(self, capsys, monkeypatch):
        def exhausted(*args, k_min, k_max, **kwargs):
            raise ShearSearchExhausted(f"no shear exponent in [{k_min}, {k_max}]")

        monkeypatch.setattr("mixedsing.cli.shear_search", exhausted)
        code, rep = run_json(
            capsys, "shear", "--pair", "x", "x + y^2", "--vars", "x,y",
            "--k-min", "2", "--k-max", "3",
        )
        assert code == 0
        assert rep["shear"]["found"] is False

    def test_list_fixtures(self, capsys):
        code, rep = run_json(capsys, "list-fixtures")
        assert code == 0
        assert rep["fixtures"] == list(ALL_FIXTURES)


class TestErrorContract:
    def test_parse_error_exit_2(self, capsys):
        code, rep = run_json(capsys, "analyze", "--expr", "x*(", "--vars", "x")
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert "position" in rep["error"]["message"]

    def test_unknown_fixture_exit_2(self, capsys):
        code, rep = run_json(capsys, "analyze", "missing-case")
        assert code == 2
        assert rep["error"]["type"] == "parse"

    def test_degeneracy_exit_3(self, capsys):
        code, rep = run_json(capsys, "disc", "--pair", "x*y", "x*y", "--vars", "x,y")
        assert code == 3
        assert rep["error"]["type"] == "degeneracy"

    def test_internal_fault_exit_4(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("mixedsing.cli.milnor_scan", broken)
        code, rep = run_json(capsys, "milnor-scan", "--expr", "x", "--vars", "x,y")
        assert code == 4
        assert rep["error"] == {"type": "internal", "message": "RuntimeError: boom"}

    @pytest.mark.parametrize("curve", ["1 + t, 1", "1 + t, 5 + t"])
    def test_curve_off_the_stratum_base_is_rejected(self, capsys, curve):
        # both curves pass through regular points only, never through (0, 1)
        code, rep = run_json(
            capsys, "analyze", "--expr", "x*y*x~", "--vars", "x,y", "--samples", "20",
            "--stratum", "base = (0, 1); tangent = (0, 1), (0, i); label = y-axis",
            "--curve", curve,
        )
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert "not at the stratum base point (0, 1)" in rep["error"]["message"]

    def test_critical_locus_curve_in_a_battery(self, capsys):
        # the second curve lies in the critical locus {x = 0} of x*y*x~
        code, rep = run_json(
            capsys, "thom-probe", "--expr", "x*y*x~", "--vars", "x,y",
            "--stratum", "base = (0, 1); tangent = (0, 1), (0, i); label = y-axis",
            "--curve", "t, 1", "--curve", "0, 1 + t",
        )
        assert code == 0
        probe = rep["thom_probes"][0]
        assert probe["verdict"] == "fail-witness"
        assert [c["verdict"] for c in probe["curves"]] == ["fail-witness", "inconclusive"]
        assert probe["curves"][1]["projection"] is None and probe["worst_projection"] > 0.9

    def test_curve_without_stratum_names_the_flag(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--expr", "x*y*x~", "--vars", "x,y", "--curve", "t, 1"
        )
        assert code == 2
        assert "--curve" in rep["error"]["message"]
        assert "--stratum" in rep["error"]["message"]

    def test_reports_never_contain_nan(self, capsys):
        # allow_nan=False would raise instead of printing Infinity/NaN
        for name in ALL_FIXTURES:
            code, out = run_cli(capsys, "analyze", name, "--samples", "40")
            assert code == 0
            assert "NaN" not in out and "Infinity" not in out

    def _flag_error(self, capsys, *argv):
        code, rep = run_json(capsys, "milnor-scan", "--expr", "x", "--vars", "x,y", *argv)
        assert code == 2
        assert rep["error"]["type"] == "parse"
        return rep["error"]["message"]

    def test_negative_seed_names_the_flag(self, capsys):
        assert "--seed" in self._flag_error(capsys, "--seed", "-1")

    def test_nonpositive_samples_name_the_flag(self, capsys):
        assert "--samples" in self._flag_error(capsys, "--samples", "-3")
        assert "--samples" in self._flag_error(capsys, "--samples", "0")

    def test_bad_shells_name_the_flag(self, capsys):
        for shells in ("0.1,-0.2", "0", "0.1,abc", "inf"):
            assert "--shells" in self._flag_error(capsys, "--shells", shells)

    def test_nonpositive_k_bound_names_the_flag(self, capsys):
        for argv in (("polar", "--expr", "x*y~", "--vars", "x,y", "--k-bound", "0"),
                     ("analyze", "xy-xbar", "--k-bound", "-5")):
            code, rep = run_json(capsys, *argv)
            assert code == 2 and rep["error"]["type"] == "parse"
            assert "--k-bound" in rep["error"]["message"]

    def test_nonpositive_k_min_names_the_flag(self, capsys):
        code, rep = run_json(capsys, "shear", "--pair", "x", "x + y^2", "--vars", "x,y",
                             "--k-min", "0")
        assert code == 2 and rep["error"]["type"] == "parse"
        assert "--k-min" in rep["error"]["message"]

    def test_empty_shear_range_names_the_flag(self, capsys):
        code, rep = run_json(capsys, "shear", "--pair", "x", "x + y^2", "--vars", "x,y",
                             "--k-min", "5", "--k-max", "3")
        assert code == 2 and rep["error"]["type"] == "parse"
        assert "--k-max" in rep["error"]["message"]
