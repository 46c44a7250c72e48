"""Command-line front end: fixture analysis and JSON reports.

Commands: analyze, wirtinger, polar, disc, thom-probe, milnor-scan, shear.
Every command emits a single JSON document (schema 3) on stdout or --out;
reruns with the same seed are byte-identical.  Exit codes: 0 verdict
produced, 2 parse/input error, 3 internal degeneracy, 4 internal fault (any
other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import __version__
from .core import ComplexRational, MixedPolynomial, from_pair
from .discgeom import (
    DegenerateEliminationError,
    DegreeBoundError,
    ShearSearchExhausted,
    isolated_value_verdict,
    jacobian_det,
    parse_branch,
    branch_restriction_singular,
    shear_search,
    sing_decomposition,
)
from .fixtures import FixtureError, _parse_stratum, _split_top, fixture_names, load_fixture
from .milnorprobe import DEFAULT_SAMPLES, milnor_scan, tube_verdict
from .parsing import ParseError, format_mixed, format_scalar, parse
from .polar import DEFAULT_BOUND, solve_polar
from .thomprobe import (
    DEFAULT_SEED,
    CurveGerm,
    default_curve_battery,
    normal_family_symbolic,
    thom_test,
)

SCHEMA = 3


# serialization helpers ----------------------------------------------------------


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _sanitize(obj):
    """Make a report JSON-safe and byte-stable: floats to 12 significant
    digits, complex as [re, im], exact scalars as strings, non-finite to null."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return _round12(v) if np.isfinite(v) else None
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [_sanitize(c.real), _sanitize(c.imag)]
    if isinstance(obj, ComplexRational):
        return format_scalar(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, MixedPolynomial):
        return format_mixed(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
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


def _variables(args) -> tuple[str, ...]:
    if not args.vars:
        raise ParseError(0, "--vars is required with --expr/--pair")
    return tuple(v.strip() for v in args.vars.split(","))


def _load_input(args):
    """Resolve fixture/--expr/--pair into (fixture|None, F, pair, variables)."""
    fixture = None
    if getattr(args, "fixture", None):
        fixture = load_fixture(args.fixture)
        return fixture, fixture.expression, fixture.pair, fixture.variables
    if getattr(args, "pair", None):
        variables = _variables(args)
        f = parse(args.pair[0], variables)
        g = parse(args.pair[1], variables)
        return None, from_pair(f, g), (f, g), variables
    if getattr(args, "expr", None):
        variables = _variables(args)
        return None, parse(args.expr, variables), None, variables
    raise ParseError(0, "give a fixture name, --expr, or --pair")


def _input_echo(fixture, F, pair, variables) -> dict:
    return {
        "fixture": fixture.name if fixture else None,
        "description": fixture.description if fixture else None,
        "expression": format_mixed(F),
        "pair": [format_mixed(pair[0]), format_mixed(pair[1])] if pair else None,
        "variables": list(variables),
        "n_vars": F.n_vars,
    }


# section builders ---------------------------------------------------------------


def _polar_section(F, *, bound, require_nonzero_k=True):
    sol = solve_polar(F, bound=bound, require_nonzero_k=require_nonzero_k)
    out = sol.as_report()
    out["status"] = sol.status
    if sol.reason:
        out["reason"] = sol.reason
    out["lattice_basis"] = [list(v) for v in sol.lattice_basis]
    return sol, out


def _line_component_dict(c):
    return {
        "kind": c.kind,
        "slope": complex(c.slope) if c.slope is not None else None,
        "slope_exact": c.slope_exact,
        "exact": c.exact,
        "minpoly": c.minpoly,
        "halfline_direction": c.halfline_direction,
    }


def _line_report_section(report):
    return {
        "has_slope_lines": report.has_slope_lines,
        "unresolved_slope_factors": list(report.unresolved_slope_factors),
        "components": [_line_component_dict(c) for c in report.components],
    }


def _isolated_section(verdict):
    if verdict is None:
        return None
    out = {
        "status": verdict.status,
        "route": verdict.route,
        "notes": list(verdict.notes),
        "witnesses": [_line_component_dict(c) for c in verdict.witnesses],
    }
    if verdict.discriminant is not None:
        disc = verdict.discriminant
        out["discriminant"] = {
            "origin_only": disc.origin_only,
            "h": disc.h,
            "components": list(disc.components),
            "off_origin_components": list(disc.off_origin_components),
            "non_line_factors": list(disc.non_line_factors),
        }
    return out


def _probe_sections(F, strata, curves, *, seed):
    probes = []
    rows = []
    for stratum in strata:
        used = curves or default_curve_battery(stratum.base_point, seed=seed)
        probe = thom_test(F, stratum, curves=used)
        probes.append(probe)
        rows.append(
            {
                "stratum": stratum.label or "stratum",
                "base_point": list(stratum.base_point),
                "verdict": probe.verdict,
                "reason": probe.reason,
                "worst_projection": probe.projection,
                "witness": _witness_dict(probe.witness),
                "curves": [
                    {
                        "curve": curve.label,
                        "verdict": p.verdict,
                        "reason": p.reason,
                        "projection": p.projection,
                        "limit_plane": [list(v) for v in p.limit_plane]
                        if p.limit_plane is not None
                        else None,
                        "plucker": p.plucker,
                    }
                    for curve, p in zip(used, probe.per_curve)
                ],
            }
        )
    return probes, rows


def _witness_dict(w):
    if w is None:
        return None
    return {
        "curve": w["curve"],
        "mu": complex(w["mu"]),
        "direction": list(w["direction"]),
        "projection": w["projection"],
    }


def _scan_section(scan):
    return {
        "seed": scan.seed,
        "samples_per_shell": scan.samples_per_shell,
        "params": scan.params,
        "shells": [
            {"radius": s.radius, "hits": s.count, "min_fibre_distance": s.min_distance}
            for s in scan.shells
        ],
        "fitted_c": scan.fitted_c,
        "supports_transversality": scan.supports_transversality,
        "points": [list(p) for p in scan.points],
    }


def _verdict_section(v):
    return {
        "tube": v.tube_status,
        "tube_route": v.tube_route,
        "thom": v.thom_status,
        "thom_route": v.thom_route,
        "probe_summary": v.probe_summary,
        "routes": [
            {"name": r.name, "conclusion": r.conclusion, "detail": r.detail}
            for r in v.routes
        ],
        "witness": _witness_dict(v.witness),
    }


def _sing_section(sd):
    return {
        "common_zero": list(sd.common_zero),
        "sing_f": list(sd.sing_f),
        "sing_g": list(sd.sing_g),
        "off_v_minors": list(sd.off_v_minors),
        "simplified": sd.simplified,
    }


def _curves_from_args(args):
    out = []
    for text in getattr(args, "curve", None) or []:
        out.append(
            CurveGerm.from_polynomials(
                [parse(c, ("t",)) for c in _split_top(text)], label=text
            )
        )
    return tuple(out)


def _strata_from_args(args):
    return tuple(_parse_stratum(text) for text in (getattr(args, "stratum", None) or []))


# commands -----------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    loaded = _load_input(args)
    fixture, F, pair, _ = loaded
    strata = fixture.strata if fixture else _strata_from_args(args)
    curves = fixture.curves if fixture else _curves_from_args(args)
    if curves and not strata:
        raise ParseError(0, "--curve needs at least one --stratum to probe against")
    polar_sol, polar_sec = _polar_section(
        F, bound=args.k_bound, require_nonzero_k=not args.allow_zero_k
    )

    isolated = None
    disc_sec = None
    if pair is not None:
        try:
            isolated = isolated_value_verdict(*pair)
            disc_sec = _isolated_section(isolated)
            if isolated.lines is not None:
                disc_sec["lines"] = _line_report_section(isolated.lines)
        except (DegenerateEliminationError, DegreeBoundError) as exc:
            disc_sec = {"status": "unavailable", "reason": str(exc)}

    probes, probe_rows = _probe_sections(F, strata, curves, seed=args.seed)

    scan = milnor_scan(F, pair=pair, seed=args.seed, samples_per_shell=args.samples)

    verdict = tube_verdict(
        F,
        pair=pair,
        isolated=isolated,
        polar=polar_sol,
        probes=tuple(probes),
    )

    report = _report(
        "analyze",
        loaded,
        seed=args.seed,
        tolerances={"polar_bound": args.k_bound},
        polar=polar_sec,
        discriminant=disc_sec,
        thom_probes=probe_rows,
        milnor=_scan_section(scan),
        verdict=_verdict_section(verdict),
        expected=dict(fixture.expect) if fixture else None,
    )
    _emit(report, args.out)
    return 0


def _cmd_wirtinger(args) -> int:
    loaded = _load_input(args)
    _, F, _, _ = loaded
    grad = F.wirtinger()
    fam = normal_family_symbolic(F)
    report = _report(
        "wirtinger",
        loaded,
        dF=list(grad.dF),
        dbarF=list(grad.dbarF),
        normal_family={"a": list(fam.a), "b": list(fam.b)},
    )
    _emit(report, args.out)
    return 0


def _cmd_polar(args) -> int:
    loaded = _load_input(args)
    _, F, _, _ = loaded
    _, sec = _polar_section(F, bound=args.k_bound, require_nonzero_k=not args.allow_zero_k)
    _emit(_report("polar", loaded, polar=sec), args.out)
    return 0


def _cmd_disc(args) -> int:
    loaded = _load_input(args)
    fixture, F, pair, _ = loaded
    if pair is None:
        raise ParseError(0, "disc needs a holomorphic pair (--pair or a pair fixture)")
    f, g = pair
    branches = [parse_branch(b) for b in (args.branch or [])]
    if fixture and fixture.branches:
        branches.extend(fixture.branches)
    isolated = isolated_value_verdict(f, g)
    report = _report(
        "disc",
        loaded,
        jacobian_det=jacobian_det(f, g) if F.n_vars == 2 else None,
        isolated=_isolated_section(isolated),
        lines=_line_report_section(isolated.lines) if isolated.lines is not None else None,
        branches=[
            {
                "p": b.p,
                "terms": [[c, e] for c, e in b.terms],
                "line": branch_restriction_singular(b),
            }
            for b in branches
        ],
        sing_decomposition=_sing_section(sing_decomposition(f, g)),
    )
    _emit(report, args.out)
    return 0


def _cmd_thom_probe(args) -> int:
    loaded = _load_input(args)
    fixture, F, _, _ = loaded
    strata = fixture.strata if fixture else _strata_from_args(args)
    curves = fixture.curves if fixture else _curves_from_args(args)
    if not strata:
        raise ParseError(0, "thom-probe needs at least one stratum")
    _, rows = _probe_sections(F, strata, curves, seed=args.seed)
    report = _report(
        "thom-probe",
        loaded,
        seed=args.seed,
        thom_probes=rows,
    )
    _emit(report, args.out)
    return 0


def _shell_radii(text: str) -> tuple[float, ...]:
    try:
        shells = tuple(float(s) for s in text.split(","))
    except ValueError:
        shells = ()
    if not shells or not all(math.isfinite(r) and r > 0 for r in shells):
        raise ParseError(0, f"--shells must be comma-separated positive numbers, got {text!r}")
    return shells


def _cmd_milnor_scan(args) -> int:
    loaded = _load_input(args)
    _, F, pair, _ = loaded
    kwargs = {"pair": pair, "seed": args.seed, "samples_per_shell": args.samples}
    if args.shells:
        kwargs["shells"] = _shell_radii(args.shells)
    scan = milnor_scan(F, **kwargs)
    _emit(_report("milnor-scan", loaded, milnor=_scan_section(scan)), args.out)
    return 0


def _cmd_shear(args) -> int:
    loaded = _load_input(args)
    _, _, pair, _ = loaded
    if pair is None:
        raise ParseError(0, "shear needs a holomorphic pair (--pair or a pair fixture)")
    try:
        res = shear_search(*pair, k_min=args.k_min, k_max=args.k_max)
    except ShearSearchExhausted as exc:
        shear = {"found": False, "reason": str(exc),
                 "k_min": args.k_min, "k_max": args.k_max}
    else:
        shear = {
            "found": True,
            "k": res.k,
            "pair": [res.f_sheared, res.g],
            "isolated": _isolated_section(res.verdict),
        }
    _emit(_report("shear", loaded, shear=shear), args.out)
    return 0


# argument plumbing --------------------------------------------------------------


def _add_input_flags(p, *, with_fixture=True):
    if with_fixture:
        p.add_argument("fixture", nargs="?", default=None,
                       help="bundled fixture name (see list-fixtures)")
    p.add_argument("--expr", help="mixed polynomial expression")
    p.add_argument("--pair", nargs=2, metavar=("F", "G"),
                   help="holomorphic pair f g; analyses f * conj(g)")
    p.add_argument("--vars", help="comma-separated variable names for --expr/--pair")
    p.add_argument("--out", help="write the JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixedsing",
        description="Tube-fibration and Thom-regularity analysis of mixed "
        "polynomials f * conj(g)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline with verdict")
    _add_input_flags(p)
    p.add_argument("--stratum", action="append",
                   help="stratum 'base = (...); tangent = (...), (...); label = ...'")
    p.add_argument("--curve", action="append",
                   help="probe curve components, e.g. 't, 1, 0'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--k-bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--allow-zero-k", action="store_true",
                   help="accept polar weights with degree k = 0")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("wirtinger", help="both Wirtinger gradients and the normal family")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_wirtinger)

    p = sub.add_parser("polar", help="polar weight solver")
    _add_input_flags(p)
    p.add_argument("--k-bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--allow-zero-k", action="store_true")
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("disc", help="discriminant geometry of a pair")
    _add_input_flags(p)
    p.add_argument("--branch", action="append",
                   help="discriminant branch 'u = t^p; v = ...'")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("thom-probe", help="limit normal planes against strata")
    _add_input_flags(p)
    p.add_argument("--stratum", action="append")
    p.add_argument("--curve", action="append")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_thom_probe)

    p = sub.add_parser("milnor-scan", help="hunt Milnor-set points off the fibre")
    _add_input_flags(p)
    p.add_argument("--shells", help="comma-separated shell radii")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_milnor_scan)

    p = sub.add_parser("shear", help="search k with (f + g^k, g) isolated")
    _add_input_flags(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=8)
    p.set_defaults(func=_cmd_shear)

    p = sub.add_parser("list-fixtures", help="names of bundled fixtures")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_list_fixtures)

    return ap


def _cmd_list_fixtures(args) -> int:
    _emit(_report("list-fixtures", fixtures=list(fixture_names())), args.out)
    return 0


def _check_counts(args) -> None:
    """Reject out-of-range integer flags before any work starts."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ParseError(0, f"--seed must be a non-negative integer, got {seed}")
    for flag in ("samples", "k_bound", "k_min"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            name = "--" + flag.replace("_", "-")
            raise ParseError(0, f"{name} must be a positive integer, got {value}")
    k_min, k_max = getattr(args, "k_min", None), getattr(args, "k_max", None)
    if k_max is not None and k_max < k_min:
        raise ParseError(0, f"--k-max must be at least --k-min ({k_min}), got {k_max}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        _check_counts(args)
        return args.func(args)
    except (DegenerateEliminationError, DegreeBoundError) as exc:
        return _error_report("degeneracy", str(exc), out, 3)
    except (ParseError, FixtureError, ValueError) as exc:
        return _error_report("parse", str(exc), out, 2)
    except Exception as exc:  # a fault in the package, not in the input
        traceback.print_exc(file=sys.stderr)
        return _error_report("internal", f"{type(exc).__name__}: {exc}", out, 4)


if __name__ == "__main__":
    sys.exit(main())
