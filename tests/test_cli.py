"""Fixture corpus and the JSON command-line front end."""

import json
import math

import pytest

from mixedsing import ComplexRational, LineComponent, cli, discgeom, from_pair
from mixedsing.cli import main
from mixedsing.fixtures import FixtureError, _parse_fixture, fixture_names, load_all, load_fixture
from mixedsing.verdict import RouteRecord

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

    def test_unknown_key_is_rejected(self):
        # a misspelt expect line and a key the format no longer has
        for line, key in (("expcet: tube = yes", "expcet"), ("branch: u = t; v = t", "branch")):
            text = f"name: t\nvariables: x, y\nf: x\ng: y\n{line}\nexpect: tube = no\n"
            with pytest.raises(FixtureError, match=f"^t:5: unknown key '{key}'$"):
                _parse_fixture("t", text)

    def test_pair_fixtures_carry_their_product(self):
        for f in load_all():
            if f.pair is not None:
                assert f.expression == from_pair(*f.pair)

    def test_probe_fixture_details(self):
        f = load_fixture("xy-xbar")
        assert f.variables == ("x", "y")
        assert [s.label for s in f.strata] == ["y-axis"]
        assert [c.label for c in f.curves] == ["t, 1"]


def expected_value(report, key):
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
    raise AssertionError(f"unmapped expectation key {key!r}")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_expectations(name, capsys):
    """Every expect line in the corpus holds against a fresh analyze run."""
    code, report = run_json(capsys, "analyze", name)
    assert code == 0
    assert report["schema"] == 8
    failures = []
    for key, want in load_fixture(name).expect.items():
        got = expected_value(report, key)
        if got != want:
            failures.append(f"{name}/{key}: expected {want!r}, got {got!r}")
    assert not failures, "\n".join(failures)


# inputs whose tube no exact route decides
UNDECIDED = (
    ("--pair", "x^2+y^3", "x*y+y^3", "--vars", "x,y"),
    ("--expr", "x*x~ + y", "--vars", "x,y"),
    ("--expr", "x*x~ + y*y~", "--vars", "x,y"),
)

COMMANDS = ("analyze", "wirtinger", "polar", "disc", "thom-probe")

# the runs refused as input errors: polar-k2 and polar-k3 are no pair, and
# shear-x-xy2 has no stratum to probe
REFUSED = {
    ("disc", "polar-k2"),
    ("disc", "polar-k3"),
    ("thom-probe", "shear-x-xy2"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_fixture_gives_a_report_or_an_input_error(command, capsys):
    """No fixture makes a command fail inside the package (exit 3 or 4)."""
    codes = {}
    for name in ALL_FIXTURES:
        code, rep = run_json(capsys, command, name)
        codes[name] = code
        assert rep["schema"] == 8
        if code == 2:
            assert rep["error"]["type"] == "parse", rep
    assert codes == {name: 2 if (command, name) in REFUSED else 0 for name in ALL_FIXTURES}


class TestSanitize:
    def test_dataclasses_serialize_as_their_fields(self):
        route = RouteRecord("disc-lines", "isolated", "no slope line")
        assert cli._sanitize(route) == {
            "name": "disc-lines", "conclusion": "isolated", "detail": "no slope line"
        }
        line = LineComponent(kind="slope", slope=1j, slope_exact=ComplexRational(0, 1),
                             halfline_direction=-1j)
        assert cli._sanitize({"witnesses": [line]}) == {
            "witnesses": [
                {
                    "kind": "slope",
                    "slope": [0.0, 1.0],
                    "slope_exact": "i",
                    "exact": True,
                    "minpoly": None,
                    "halfline_direction": [0.0, -1.0],
                }
            ]
        }

    def test_exact_scalar_stays_text(self):
        # ComplexRational is a record too; the field rule must not reach it
        assert cli._sanitize(ComplexRational(1, 2)) == "(1+2*i)"

    def test_floats(self):
        zero = cli._sanitize(-0.0)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert cli._sanitize(float("nan")) is None
        assert cli._sanitize(1 / 3) == 0.333333333333

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError):
            cli._sanitize(object())


class TestAnalyze:
    def test_byte_identical_reruns(self, capsys):
        code1, out1 = run_cli(capsys, "analyze", "xy-xbar")
        code2, out2 = run_cli(capsys, "analyze", "xy-xbar")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_is_echoed_and_changes_nothing_else(self, capsys):
        """The seed draws only the Thom curve battery, which an input with no
        stratum never runs, so an undecided tube reads the same under any
        seed."""
        _, a = run_json(capsys, "analyze", *UNDECIDED[0], "--seed", "1")
        _, b = run_json(capsys, "analyze", *UNDECIDED[0], "--seed", "2")
        assert a["seed"] == 1 and b["seed"] == 2
        assert a["verdict"]["tube"] == "unknown"
        assert {**a, "seed": None} == {**b, "seed": None}

    def test_decided_tube_runs_no_scan(self, capsys):
        """Every fixture's tube is decided by an exact route, which the
        verdict names, and no report carries a scan."""
        for name in ALL_FIXTURES:
            code, rep = run_json(capsys, "analyze", name)
            assert code == 0
            assert rep["verdict"]["tube"] in ("yes", "no") and rep["verdict"]["tube_route"]
            assert "milnor" not in rep

    def test_expr_input(self, capsys):
        code, report = run_json(capsys, "analyze", "--expr", "x*y*x~", "--vars", "x,y")
        assert code == 0
        assert report["input"]["expression"] == "1*z1*z1~*z2"
        assert report["input"]["fixture"] is None
        assert report["polar"]["p"] == [1, 1]
        assert report["verdict"]["tube"] == "yes"

    def test_out_file_matches_stdout_payload(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "analyze", "polar-k2", "--out", str(target))
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

    def test_rank_one_lattice_with_large_weights(self, capsys):
        """The lattice of this germ is spanned by (35, 11, -73 | 139): its
        weights lie far outside any small search ball, and are still found."""
        argv = ("--expr", "x^7*y~^3*z + x~^5*y^2*z~^4 + y^6*z~", "--vars", "x,y,z")
        code, rep = run_json(capsys, "polar", *argv)
        assert code == 0
        assert rep["polar"]["status"] == "found"
        assert rep["polar"]["p"] == [35, 11, -73] and rep["polar"]["k"] == 139
        code, rep = run_json(capsys, "analyze", *argv)
        assert code == 0
        assert (rep["verdict"]["tube"], rep["verdict"]["tube_route"]) == ("yes", "polar")

    @pytest.mark.parametrize("command", ["analyze", "polar"])
    def test_zero_k_flag_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--expr", "x*x~ + y*y~", "--vars", "x,y", "--allow-zero-k"])
        assert exc.value.code == 2
        assert "--allow-zero-k" in capsys.readouterr().err

    def test_real_valued_sum_of_squares_is_not_a_tube(self, capsys):
        """|x|^2 + |y|^2 is real-valued, so it has no tube fibration; its
        only polar weights have k = 0, which never count."""
        code, rep = run_json(capsys, "analyze", "--expr", "x*x~ + y*y~", "--vars", "x,y")
        assert code == 0
        assert rep["polar"]["polar"] == "no"
        assert "forced to zero" in rep["polar"]["reason"]
        assert rep["verdict"]["tube"] == "unknown"

    @pytest.mark.parametrize("pair", [("x^9", "y"), ("x", "x + y^2")])
    def test_analyze_decides_isolation_once(self, capsys, monkeypatch, pair):
        """One isolated-value verdict per analyze, also when it is unavailable
        (x^9, y) and the discriminant section reports why."""
        calls = []
        real = discgeom.isolated_value_verdict

        def counted(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(discgeom, "isolated_value_verdict", counted)
        monkeypatch.setattr(cli, "isolated_value_verdict", counted)
        code, rep = run_json(capsys, "analyze", "--pair", *pair, "--vars", "x,y")
        assert code == 0
        assert len(calls) == 1
        disc_lines = [r for r in rep["verdict"]["routes"] if r["name"] == "disc-lines"]
        if rep["discriminant"]["status"] == "unavailable":
            assert disc_lines == [{"name": "disc-lines", "conclusion": "unavailable",
                                   "detail": rep["discriminant"]["reason"]}]
        else:
            assert rep["discriminant"]["status"] == "not-isolated"

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
        assert probe["stratum"]["label"] == "y-axis"
        assert probe["witness"]["projection"] > 0.9
        assert len(probe["per_curve"]) == 9  # the seeded battery of two variables
        assert probe["per_curve"][0]["witness"] == probe["witness"]

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

    @pytest.mark.parametrize(
        "expr,variables,at",
        [("(x+y+z+x~+y~+z~+1)^64", "x,y,z", 18), ("0^0", "x", 2)],
    )
    def test_refused_power_exit_2_with_position(self, capsys, expr, variables, at):
        code, rep = run_json(capsys, "wirtinger", "--expr", expr, "--vars", variables)
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert rep["error"]["message"].startswith(f"at position {at}:")

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

        monkeypatch.setattr("mixedsing.cli.solve_polar", broken)
        code, rep = run_json(capsys, "analyze", "--expr", "x", "--vars", "x,y")
        assert code == 4
        assert rep["error"] == {"type": "internal", "message": "RuntimeError: boom"}

    @pytest.mark.parametrize("curve", ["1 + t, 1", "1 + t, 5 + t"])
    def test_curve_off_the_stratum_base_is_rejected(self, capsys, curve):
        # both curves pass through regular points only, never through (0, 1)
        code, rep = run_json(
            capsys, "analyze", "--expr", "x*y*x~", "--vars", "x,y",
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
        assert [c["verdict"] for c in probe["per_curve"]] == ["fail-witness", "inconclusive"]
        assert probe["per_curve"][1]["projection"] is None and probe["projection"] > 0.9
        assert probe["per_curve"][0]["limit_plane"] == [["1", "0"], ["0", "i"]]
        assert probe["per_curve"][1]["limit_plane"] is None

    def test_curve_without_stratum_names_the_flag(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--expr", "x*y*x~", "--vars", "x,y", "--curve", "t, 1"
        )
        assert code == 2
        assert "--curve" in rep["error"]["message"]
        assert "--stratum" in rep["error"]["message"]

    @pytest.mark.parametrize("command", ["analyze", "thom-probe"])
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--stratum", "base = (0, 1); tangent = (0, 1), (0, i); label = y-axis"),
            ("--curve", "t, 5"),
        ],
    )
    def test_probe_flags_with_a_fixture_name_the_flag(self, capsys, command, flag, value):
        # the fixture's expect lines describe its own strata, not the user's
        code, rep = run_json(capsys, command, "xy-xbar", flag, value)
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert flag in rep["error"]["message"]
        assert "fixture" in rep["error"]["message"]

    def test_reports_never_contain_nan(self, capsys):
        # allow_nan=False would raise instead of printing Infinity/NaN
        runs = [(command, name) for command in COMMANDS for name in ALL_FIXTURES]
        runs += [("analyze", *argv) for argv in UNDECIDED]
        for command, *argv in runs:
            code, out = run_cli(capsys, command, *argv)
            assert code == (2 if (command, *argv) in REFUSED else 0)
            assert "NaN" not in out and "Infinity" not in out

    def _flag_error(self, capsys, *argv):
        code, rep = run_json(capsys, "thom-probe", "--expr", "x", "--vars", "x,y", *argv)
        assert code == 2
        assert rep["error"]["type"] == "parse"
        return rep["error"]["message"]

    def test_negative_seed_names_the_flag(self, capsys):
        assert "--seed" in self._flag_error(capsys, "--seed", "-1")

    @pytest.mark.parametrize("command", ["analyze", "polar"])
    def test_k_bound_flag_is_gone(self, capsys, command):
        # the polar search sizes itself; no flag can cut it short to "unknown"
        with pytest.raises(SystemExit) as exc:
            main([command, "--expr", "x*y~", "--vars", "x,y", "--k-bound", "64"])
        assert exc.value.code == 2
        assert "--k-bound" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("analyze", "--expr", "x*y~", "--vars", "x,y", "--samples", "20"), "--samples"),
            (("disc", "--pair", "x", "x + y^2", "--vars", "x,y", "--branch", "u = t; v = t"),
             "--branch"),
        ],
    )
    def test_scan_and_branch_flags_are_gone(self, capsys, argv, flag):
        # neither the scan size nor a typed branch ever changed a verdict
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "thom-probe"])
    def test_probe_flags_have_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag, help_text in (("--stratum STRATUM", "stratum 'base = (...);"),
                                ("--curve CURVE", "probe curve components"),
                                ("--seed SEED", "seeds the Thom curve battery")):
            assert f"{flag} {help_text}" in text, flag

    @pytest.mark.parametrize("command", ["milnor-scan", "shear"])
    def test_scan_and_shear_commands_are_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--pair", "x", "x + y^2", "--vars", "x,y"])
        assert exc.value.code == 2
        assert command in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (("polar", "xy-xbar", "--expr", "x*y", "--vars", "x,y"), ("fixture", "--expr")),
            (("disc", "xy-xbar", "--pair", "x", "y", "--vars", "x,y"), ("fixture", "--pair")),
            (("polar", "--pair", "x", "y", "--expr", "x*y~*y", "--vars", "x,y"),
             ("--expr", "--pair")),
            (("analyze", "xy-xbar", "--vars", "x,y"), ("fixture", "--vars")),
            (("wirtinger", "polar-k2", "--vars", "x,y,z"), ("fixture", "--vars")),
        ],
    )
    def test_conflicting_inputs_name_the_flags(self, capsys, argv, flags):
        # one input source per run: none is silently preferred over another
        code, rep = run_json(capsys, *argv)
        assert code == 2 and rep["error"]["type"] == "parse"
        assert all(flag in rep["error"]["message"] for flag in flags)
