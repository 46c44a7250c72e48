"""Tube/Thom verdict routing.

tube_verdict combines the exact routes (separate variables, polar weights,
discriminant lines) with the Thom probes, whose fail witnesses are exact,
into a single classification that never overclaims.
"""

from __future__ import annotations

from . import discgeom
from .core import MixedPolynomial, Record
from .polar import PolarSolution, solve_polar
from .thomprobe import ProbeResult

__all__ = ["RouteRecord", "TubeVerdict", "tube_verdict"]


class RouteRecord(Record):
    name: str
    conclusion: str
    detail: str = ""


class TubeVerdict(Record):
    """Joint tube/Thom classification with route provenance.

    tube_status in {"yes", "no", "unknown"}; thom_status in {"regular",
    "fail", "unknown"}.  Every definite answer names its route; probe
    evidence rides along and a probe summary distinguishes "no failure
    found" from genuine unknowns.  Never reports tube "no" together with
    thom "regular".
    """

    tube_status: str
    tube_route: str | None
    thom_status: str
    thom_route: str | None
    probe_summary: str
    routes: tuple[RouteRecord, ...]
    isolated: object = None
    witness: dict | None = None


def _separate_variables(f: MixedPolynomial, g: MixedPolynomial) -> bool:
    uf, ug = f.variables_used(), g.variables_used()
    return bool(uf) and bool(ug) and not (uf & ug)


def tube_verdict(
    F: MixedPolynomial,
    *,
    pair=None,
    isolated=None,
    polar: PolarSolution | None = None,
    probes: tuple[ProbeResult, ...] = (),
) -> TubeVerdict:
    """Route-ordered classification: exact criteria first, probes after.

    Route order: separate-variables, polar, disc-lines; then the
    probe-witness route may resolve Thom failure.  pair is (f, g) when F
    was built as f * conj(g); isolated is its discgeom verdict, computed
    here once when not given, and a "disc-lines" route marked "unavailable"
    carries the reason when it cannot be computed; probes are stratified
    thom_test results.
    """
    routes: list[RouteRecord] = []
    tube_status, tube_route = "unknown", None
    thom_status, thom_route = "unknown", None
    witness = None

    if isolated is None and pair is not None:
        try:
            isolated = discgeom.isolated_value_verdict(*pair)
        except (discgeom.DegenerateEliminationError, discgeom.DegreeBoundError) as exc:
            routes.append(RouteRecord("disc-lines", "unavailable", str(exc)))

    if pair is not None and _separate_variables(*pair):
        routes.append(
            RouteRecord(
                "separate-variables",
                "tube yes; thom regular",
                "factors depend on disjoint variable sets",
            )
        )
        tube_status, tube_route = "yes", "separate-variables"
        thom_status, thom_route = "regular", "separate-variables"

    if polar is None:
        polar = solve_polar(F)
    if tube_status == "unknown" and polar.status == "found":
        routes.append(
            RouteRecord(
                "polar",
                "tube yes",
                f"polar weights p={list(polar.canonical.p)}, k={polar.canonical.k}",
            )
        )
        tube_status, tube_route = "yes", "polar"

    if tube_status == "unknown" and getattr(isolated, "status", None) == "not-isolated":
        routes.append(
            RouteRecord(
                "disc-lines",
                "tube no",
                "discriminant contains a non-axis line; critical values leave the origin",
            )
        )
        tube_status, tube_route = "no", "disc-lines"

    fail_probe = next((p for p in probes if p.verdict == "fail-witness"), None)
    if thom_status == "unknown" and fail_probe is not None:
        routes.append(
            RouteRecord(
                "probe-witness",
                "thom fail",
                f"failure witness on {fail_probe.witness['curve']}",
            )
        )
        thom_status, thom_route = "fail", "probe-witness"
        witness = fail_probe.witness

    if probes:
        if any(p.verdict == "fail-witness" for p in probes):
            probe_summary = "fail-witness"
        elif all(p.verdict == "compatible" for p in probes):
            probe_summary = "no-failure-found"
        else:
            probe_summary = "inconclusive"
    else:
        probe_summary = "not-probed"

    # soundness guard: tube no and thom regular must never co-occur
    if tube_status == "no" and thom_status == "regular":
        raise RuntimeError(
            f"unsound verdict: tube no ({tube_route}) with thom regular ({thom_route})"
        )

    return TubeVerdict(
        tube_status=tube_status,
        tube_route=tube_route,
        thom_status=thom_status,
        thom_route=thom_route,
        probe_summary=probe_summary,
        routes=tuple(routes),
        isolated=isolated,
        witness=witness,
    )
