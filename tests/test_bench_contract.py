"""The names the benchmark harness under bench/ reaches into the package by.

bench/spans.TRACED wraps functions by (module, attribute), and
Tracer.installed() looks each one up with no default, so a renamed or
deleted function breaks every traced run, and its counters read fields
off the returned objects.  bench/worker.py and bench/run.py call the
package through its top-level exports, and bench/run.py reads analyze
reports by key.  These tests read bench/ as it stands and check that every
such name, field and key still resolves.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import mixedsing
import mixedsing.cli  # noqa: F401  (loads every module TRACED names)
from mixedsing.fixtures import fixture_names, load_all

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

# Modules deleted from the package that bench/spans.TRACED still names.
# Tracer.installed() skips a module that is not loaded, so a traced run only
# records no span for them.  The next change to bench/ drops their entries,
# and this set with them.
GONE = {"mixedsing.milnorprobe"}


def _traced():
    """The TRACED entries of modules the package has; every module in GONE
    must really be gone, and still be named."""
    assert GONE <= {mod_name for mod_name, *_ in spans.TRACED}, "drop the stale GONE entry"
    for entry in spans.TRACED:
        if entry[0] in GONE:
            assert importlib.util.find_spec(entry[0]) is None, f"{entry[0]} exists"
        else:
            yield entry


def _resolve(mod_name, attr):
    obj = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(obj, cls_name).__dict__[meth]
    return getattr(obj, attr)


def _package_uses(path: Path):
    """(attributes read off the mixedsing package, (module, name) imported
    from its submodules) in one bench script.

    An alias counts in the function that binds it (``import mixedsing as m``
    or ``m = mixedsing``) and in the functions nested in it; ``mixedsing``
    itself counts everywhere.
    """
    tree = ast.parse(path.read_text())
    attrs, imported = set(), set()
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]
    for scope in scopes:
        aliases = {"mixedsing"}
        for node in ast.walk(scope) if scope is not tree else ():
            if isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names if a.name == "mixedsing" and a.asname}
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) \
                    and node.value.id == "mixedsing":
                aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixedsing."):
                imported |= {(node.module, a.name) for a in node.names}
    return attrs, imported


def test_traced_names_resolve():
    for mod_name, attr, _layer, _counter in _traced():
        assert mod_name in sys.modules, f"{mod_name} is not loaded by mixedsing.cli"
        assert callable(_resolve(mod_name, attr)), f"{mod_name}.{attr}"


def test_tracer_installs_and_restores():
    originals = {(m, a): _resolve(m, a) for m, a, _layer, _counter in _traced()}
    with spans.Tracer().installed():
        for (mod_name, attr), original in originals.items():
            assert _resolve(mod_name, attr) is not original, f"{mod_name}.{attr} not wrapped"
    for (mod_name, attr), original in originals.items():
        assert _resolve(mod_name, attr) is original, f"{mod_name}.{attr} not restored"


def test_traced_runs_carry_their_counts(capsys):
    """analyze on every fixture and disc on every pair fixture exit 0 under
    the installed tracer, and every span whose TRACED entry has a counter
    carries its counts, so a renamed result field fails here and not only
    in a traced bench run."""
    counted = {f"{m.rsplit('.', 1)[1]}.{a}" for m, a, _layer, counter in spans.TRACED if counter}
    fixtures = load_all()
    runs = [("analyze", fx.name) for fx in fixtures]
    runs += [("disc", fx.name) for fx in fixtures if fx.pair is not None]
    tracer = spans.Tracer()
    with tracer.installed():
        for argv in runs:
            assert mixedsing.cli.main(list(argv)) == 0, (argv, capsys.readouterr().out)
            capsys.readouterr()
    assert None not in tracer.spans  # every span was closed
    for span in tracer.spans:
        if span["name"] in counted:
            assert span["counts"], span["name"]
    assert {s["name"] for s in tracer.spans} >= {
        "thomprobe.thom_test", "polar.solve_polar", "discgeom.isolated_value_verdict",
        "discgeom.line_components", "core.from_pair", "parsing.parse",
    }


def test_bench_scripts_call_exported_names():
    for script in ("worker.py", "run.py"):
        attrs, imported = _package_uses(BENCH / script)
        for name in attrs:
            assert name in mixedsing.__all__, f"bench/{script} calls unexported mixedsing.{name}"
        for mod_name, name in imported:
            assert hasattr(importlib.import_module(mod_name), name), \
                f"bench/{script} imports missing {mod_name}.{name}"
    assert _package_uses(BENCH / "worker.py")[0] >= {"parse", "solve_polar", "tube_verdict"}
    assert _package_uses(BENCH / "run.py")[0] >= {"parse", "format_mixed", "from_pair"}


def test_bench_reads_every_fixture_report(capsys):
    """bench/run.check_report, as it stands, answers every fixture's fresh
    analyze report and finds no expect line wrong, so a report change the
    benchmark cannot read fails here too."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    expectations = run.fixture_expectations()
    assert sorted(expectations) == sorted(fixture_names())
    for name, expect in expectations.items():
        rec = {"exit": mixedsing.cli.main(["analyze", name]), "stdout": capsys.readouterr().out}
        run.check_report(rec, expect)
        assert rec["answered"], (name, rec.get("error"))
        assert rec["wrong"] == [], (name, rec["wrong"])
