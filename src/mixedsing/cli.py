"""Command-line front end: fixture analysis and JSON reports.

Commands: analyze, wirtinger, polar, disc, thom-probe, list-fixtures.
Every command emits a single JSON document (schema 8) on stdout or --out;
reruns with the same seed are byte-identical.  The input is exactly one of
a fixture name, --expr or --pair; the last two need --vars.  No flag
changes a verdict: the polar search, in particular, has no bound to set,
and --seed only draws the Thom curve battery.
Exit codes: 0 verdict produced, 2 parse/input error, 3 internal degeneracy,
4 internal fault (any other exception; its traceback goes to stderr).

A report holds the package's result objects as they are: _sanitize writes
any record (core.Record) as the dict of its fields, so a section spells out
only what it renames or leaves out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .core import ComplexRational, MixedPolynomial, Record, from_pair
from .discgeom import (
    DegenerateEliminationError,
    DegreeBoundError,
    isolated_value_verdict,
    jacobian_det,
    sing_decomposition,
)
from .fixtures import FixtureError, _parse_stratum, _split_top, fixture_names, load_fixture
from .parsing import ParseError, format_mixed, format_scalar, parse
from .polar import solve_polar
from .thomprobe import (
    DEFAULT_SEED,
    CurveGerm,
    default_curve_battery,
    normal_family_symbolic,
    thom_test,
)
from .verdict import tube_verdict

SCHEMA = 8


# serialization helpers ----------------------------------------------------------


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _sanitize(obj):
    """Make a report JSON-safe and byte-stable: floats to 12 significant
    digits and never a signed zero, complex as [re, im], exact scalars and
    polynomials as strings, non-finite to null, and any other record as the
    dict of its fields."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        # + 0.0 turns -0.0, whose sign depends on the float path, into 0.0
        return _round12(obj) + 0.0 if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    if isinstance(obj, ComplexRational):
        return format_scalar(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, MixedPolynomial):
        return format_mixed(obj)
    if isinstance(obj, Record):  # after ComplexRational, a record written as text
        return {name: _sanitize(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_sanitize(report), sort_keys=True, indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _report(command: str, loaded=None, **sections) -> dict:
    """A report under the common header; loaded is what _load_input returned."""
    report = {
        "schema": SCHEMA,
        "tool": {"name": "mixedsing", "version": __version__},
        "command": command,
    }
    if loaded is not None:
        report["input"] = _input_echo(*loaded)
    report.update(sections)
    return report


def _error_report(kind: str, message: str, out: str | None, code: int) -> int:
    _emit({"schema": SCHEMA, "error": {"type": kind, "message": message}}, out)
    return code


# input assembly -----------------------------------------------------------------


def _load_input(args):
    """Resolve fixture/--expr/--pair into (fixture|None, F, pair, variables).

    Exactly one of the three must be given, and --vars only with --expr or
    --pair: a fixture names its own variables.
    """
    sources = {"a fixture name": args.fixture, "--expr": args.expr, "--pair": args.pair}
    given = [name for name, value in sources.items() if value]
    if len(given) > 1:
        raise ParseError(
            0, f"give only one of a fixture name, --expr and --pair, not {' and '.join(given)}"
        )
    if args.fixture:
        if args.vars:
            raise ParseError(0, "--vars cannot be combined with a fixture, which has its own")
        fixture = load_fixture(args.fixture)
        return fixture, fixture.expression, fixture.pair, fixture.variables
    if not given:
        raise ParseError(0, "give a fixture name, --expr, or --pair")
    if not args.vars:
        raise ParseError(0, "--vars is required with --expr/--pair")
    variables = tuple(v.strip() for v in args.vars.split(","))
    if args.pair:
        f, g = (parse(text, variables) for text in args.pair)
        return None, from_pair(f, g), (f, g), variables
    return None, parse(args.expr, variables), None, variables


def _input_echo(fixture, F, pair, variables) -> dict:
    return {
        "fixture": fixture.name if fixture else None,
        "description": fixture.description if fixture else None,
        "expression": F,
        "pair": pair,
        "variables": variables,
        "n_vars": F.n_vars,
    }


# section builders ---------------------------------------------------------------


def _thom_probes(F, strata, curves, *, seed):
    """One thom_test per stratum, on the given curves or its seeded battery."""
    return tuple(thom_test(F, s, curves=curves or default_curve_battery(s.base_point, seed=seed))
                 for s in strata)


def _discriminant_section(v):
    """The isolated-value verdict a tube verdict used, or the reason its
    disc-lines route gives for having none; None without a pair."""
    if v.isolated is not None:
        return v.isolated
    for r in v.routes:
        if r.name == "disc-lines" and r.conclusion == "unavailable":
            return {"status": "unavailable", "reason": r.detail}
    return None


def _verdict_section(v):
    return {
        "tube": v.tube_status,
        "tube_route": v.tube_route,
        "thom": v.thom_status,
        "thom_route": v.thom_route,
        "probe_summary": v.probe_summary,
        "routes": v.routes,
        "witness": v.witness,
    }


def _probe_inputs(args, fixture):
    """The strata and curves to probe: a fixture's own, or --stratum/--curve.

    A fixture's expect lines describe its own strata, so user strata and
    curves never run under them.
    """
    if fixture is not None:
        for flag in ("stratum", "curve"):
            if getattr(args, flag):
                raise ParseError(
                    0, f"--{flag} cannot be combined with a fixture, which probes its own strata"
                )
        return fixture.strata, fixture.curves
    strata = tuple(_parse_stratum(text) for text in args.stratum or [])
    curves = tuple(
        CurveGerm.from_polynomials([parse(c, ("t",)) for c in _split_top(text)], label=text)
        for text in args.curve or []
    )
    if curves and not strata:
        raise ParseError(0, "--curve needs at least one --stratum to probe against")
    return strata, curves


# commands -----------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    loaded = _load_input(args)
    fixture, F, pair, _ = loaded
    strata, curves = _probe_inputs(args, fixture)
    polar = solve_polar(F)
    probes = _thom_probes(F, strata, curves, seed=args.seed)
    verdict = tube_verdict(F, pair=pair, polar=polar, probes=probes)
    report = _report(
        "analyze",
        loaded,
        seed=args.seed,
        polar=polar.as_report(),
        discriminant=_discriminant_section(verdict),
        thom_probes=probes,
        verdict=_verdict_section(verdict),
        expected=fixture.expect if fixture else None,
    )
    _emit(report, args.out)
    return 0


def _cmd_wirtinger(args) -> int:
    loaded = _load_input(args)
    _, F, _, _ = loaded
    grad = F.wirtinger()
    report = _report(
        "wirtinger",
        loaded,
        dF=grad.dF,
        dbarF=grad.dbarF,
        normal_family=normal_family_symbolic(F),
    )
    _emit(report, args.out)
    return 0


def _cmd_polar(args) -> int:
    loaded = _load_input(args)
    _, F, _, _ = loaded
    _emit(_report("polar", loaded, polar=solve_polar(F).as_report()), args.out)
    return 0


def _cmd_disc(args) -> int:
    loaded = _load_input(args)
    _, F, pair, _ = loaded
    if pair is None:
        raise ParseError(0, "disc needs a holomorphic pair (--pair or a pair fixture)")
    f, g = pair
    report = _report(
        "disc",
        loaded,
        jacobian_det=jacobian_det(f, g) if F.n_vars == 2 else None,
        isolated=isolated_value_verdict(f, g),
        sing_decomposition=sing_decomposition(f, g),
    )
    _emit(report, args.out)
    return 0


def _cmd_thom_probe(args) -> int:
    loaded = _load_input(args)
    fixture, F, _, _ = loaded
    strata, curves = _probe_inputs(args, fixture)
    if not strata:
        raise ParseError(0, "thom-probe needs at least one stratum")
    probes = _thom_probes(F, strata, curves, seed=args.seed)
    _emit(_report("thom-probe", loaded, seed=args.seed, thom_probes=probes), args.out)
    return 0


# argument plumbing --------------------------------------------------------------


def _add_input_flags(p):
    p.add_argument("fixture", nargs="?", default=None,
                   help="bundled fixture name (see list-fixtures)")
    p.add_argument("--expr", help="mixed polynomial expression")
    p.add_argument("--pair", nargs=2, metavar=("F", "G"),
                   help="holomorphic pair f g; analyses f * conj(g)")
    p.add_argument("--vars", help="comma-separated variable names for --expr/--pair")
    p.add_argument("--out", help="write the JSON report to this file")


def _add_probe_flags(p):
    p.add_argument("--stratum", action="append",
                   help="stratum 'base = (...); tangent = (...), (...); label = ...'")
    p.add_argument("--curve", action="append",
                   help="probe curve components, e.g. 't, 1, 0'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seeds the Thom curve battery")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixedsing",
        description="Tube-fibration and Thom-regularity analysis of mixed "
        "polynomials f * conj(g)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: polar, discriminant, Thom probes, verdict")
    _add_input_flags(p)
    _add_probe_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("wirtinger", help="both Wirtinger gradients and the normal family")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_wirtinger)

    p = sub.add_parser("polar", help="polar weight solver")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("disc", help="discriminant geometry of a pair")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("thom-probe", help="limit normal planes against strata")
    _add_input_flags(p)
    _add_probe_flags(p)
    p.set_defaults(func=_cmd_thom_probe)

    p = sub.add_parser("list-fixtures", help="names of bundled fixtures")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_list_fixtures)

    return ap


def _cmd_list_fixtures(args) -> int:
    _emit(_report("list-fixtures", fixtures=list(fixture_names())), args.out)
    return 0


def _check_seed(args) -> None:
    """Reject a negative --seed before any work starts."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ParseError(0, f"--seed must be a non-negative integer, got {seed}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        _check_seed(args)
        return args.func(args)
    except (DegenerateEliminationError, DegreeBoundError) as exc:
        return _error_report("degeneracy", str(exc), out, 3)
    except (ParseError, FixtureError, ValueError) as exc:
        return _error_report("parse", str(exc), out, 2)
    except Exception as exc:  # a fault in the package, not in the input
        import traceback  # only an internal fault pays for it

        traceback.print_exc(file=sys.stderr)
        return _error_report("internal", f"{type(exc).__name__}: {exc}", out, 4)


if __name__ == "__main__":
    sys.exit(main())
