"""Milnor-set scans and tube/Thom verdict routing.

One certificate drives the numerics.  With a = conj(dF)(z) and
b = dbarF(z), _batch_residual measures the distance from the unit radial
direction z/|z| to its projection onto the normal 2-plane span_R{a+b,
i(a-b)}; it is zero exactly at rho-nonregular points (sphere tangent to the
fibre), the Milnor set.  The plane comes from _numeric.normal_plane and its
rank rule (s_1 > s_0 * RANK_RTOL); a frame of rank < 2 is degenerate,
certifies nothing and scores 2.

milnor_scan hunts for Milnor-set points away from the zero fibre on
spheres of decreasing radius.  Seeded sphere points are projected onto
{z = mu*a(z) + conj(mu)*b(z)} by damped minimum-norm Gauss-Newton in
(z, mu), with the Jacobian from exact second Wirtinger derivatives; each
point stops on its own once converged, after at most STEPS iterations.
A point counts only when the residual certificate above accepts it off the
fibre, however it was found.  The
evidence (per-shell minima of distance-to-fibre) supports or undermines the
tube condition without ever claiming a proof.  STEPS and the tolerances
NEAR_ZERO_TOL, OFF_FIBRE_TOL and RATIO_FLOOR are fixed, not parameters; each
scan echoes them in ScanResult.params.  The caller sets only the shells, the
samples per shell and the seed.

tube_verdict combines the exact routes (separate variables, polar weights,
discriminant lines) with the Thom probes, whose fail witnesses are exact,
into a single classification that never overclaims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import discgeom
from ._numeric import compile_frame, compile_hessian, compile_poly, normal_plane, realify, unrealify
from .core import MixedPolynomial
from .polar import PolarSolution, solve_polar
from .thomprobe import DEFAULT_SEED, ProbeResult

__all__ = [
    "ShellEvidence",
    "ScanResult",
    "TubeVerdict",
    "milnor_scan",
    "tube_verdict",
]

DEFAULT_SHELLS = (0.2, 0.1, 0.05, 0.025)
DEFAULT_SAMPLES = 200
STEPS = 15
NEAR_ZERO_TOL = 1e-6
OFF_FIBRE_TOL = 1e-6
RATIO_FLOOR = 0.01


@dataclass(frozen=True)
class ShellEvidence:
    radius: float
    count: int
    min_distance: float | None


@dataclass(frozen=True)
class ScanResult:
    """Milnor-set points found off the zero fibre, shell by shell."""

    shells: tuple[ShellEvidence, ...]
    points: tuple[tuple[complex, ...], ...]
    fitted_c: float | None
    supports_transversality: bool
    seed: int
    samples_per_shell: int
    params: dict = field(default_factory=dict)


def _batch_residual(frame, Z: np.ndarray) -> np.ndarray:
    """The Milnor certificate over rows of Z (N, n), values in [0, 1];
    degenerate rows, which certify nothing, -> 2."""
    plane = normal_plane(*frame(Z))
    radial = realify(Z)
    radial = radial / np.linalg.norm(radial, axis=1, keepdims=True)
    return np.where(plane.rank == 2, plane.distance(radial), 2.0)


def _fibre_distance(pair, frame, ev):
    """Compiled first-order distance estimate from rows of Z to the zero fibre.

    frame and ev are the scan's evaluators of F, reused when there is no pair.
    """
    if pair is not None:
        f, g = pair
        ef, eg = compile_poly(f), compile_poly(g)
        dfs = [compile_poly(p) for p in f.wirtinger().dF]
        dgs = [compile_poly(p) for p in g.wirtinger().dF]

        def pair_distance(Z):
            ndf = np.sqrt(sum(np.abs(e(Z)) ** 2 for e in dfs))
            ndg = np.sqrt(sum(np.abs(e(Z)) ** 2 for e in dgs))
            df_safe = np.where(ndf > 0, ndf, np.inf)
            dg_safe = np.where(ndg > 0, ndg, np.inf)
            return np.minimum(np.abs(ef(Z)) / df_safe, np.abs(eg(Z)) / dg_safe)

        return pair_distance

    def distance(Z):
        a, b = frame(Z)
        g = np.sqrt((np.abs(a) ** 2 + np.abs(b) ** 2).sum(axis=1))
        g_safe = np.where(g > 0, g, np.inf)
        return np.abs(ev(Z)) / g_safe

    return distance


def _project_to_milnor_set(frame, hessian, X: np.ndarray, r: float, steps: int) -> np.ndarray:
    """Damped minimum-norm Gauss-Newton from rows of X (S, 2n) on |x| = r.

    Unknowns are z and mu = s + it; the equations are
    E = z - mu*a(z) - conj(mu)*b(z) = 0 (the radial vector lies in the normal
    plane) plus the tangency row x.dx = 0.  The mu columns are scaled by
    r/|(a, b)|, the z-step is capped at r/2 and z returns to the sphere after
    every step.  Each row stops on its own: once its damped z-step is
    <= 1e-15*r it leaves the active set and later iterations evaluate the
    frame, the Hessian and pinv only on the rows still moving; no row takes
    more than steps iterations.
    """
    S, n = X.shape[0], X.shape[1] // 2
    eye = np.eye(n)
    X = X.copy()
    Z = unrealify(X)
    a, b = frame(Z)
    # start mu at the least-squares fit of x in the real span of (a+b, i(a-b))
    frame_cols = np.stack([realify(a + b), realify(1j * (a - b))], axis=-1)
    fit = np.linalg.pinv(frame_cols) @ X[..., None]
    mu = fit[:, 0, 0] + 1j * fit[:, 1, 0]
    active = np.arange(S)
    for _ in range(steps):
        Xa, Za, ma = X[active], Z[active], mu[active]
        H, M, B = hessian(Za)
        m = ma[:, None, None]
        # dE/dz and dE/dzbar from da/dz = conj(M), da/dzbar = conj(H),
        # db/dz = M^T, db/dzbar = B
        dEz = eye - m * M.conj() - m.conj() * M.swapaxes(-1, -2)
        dEzb = -m * H.conj() - m.conj() * B
        norm_ab = np.sqrt((np.abs(a) ** 2 + np.abs(b) ** 2).sum(axis=1))
        scale = r / np.where(norm_ab > 0, norm_ab, 1.0)
        mu_cols = -np.stack([a + b, 1j * (a - b)], axis=-1) * scale[:, None, None]
        # d/dx = d/dz + d/dzbar and d/dy = i(d/dz - d/dzbar)
        J = np.concatenate([dEz + dEzb, 1j * (dEz - dEzb), mu_cols], axis=-1)
        tangency = np.concatenate([Xa / r, np.zeros((len(active), 2))], axis=1)
        J = np.concatenate([J.real, J.imag, tangency[:, None, :]], axis=1)
        E = Za - ma[:, None] * a - ma.conj()[:, None] * b
        G = np.concatenate([realify(E), np.zeros((len(active), 1))], axis=1)
        step = -(np.linalg.pinv(J, rcond=1e-12) @ G[..., None])[..., 0]
        dz = np.linalg.norm(step[:, : 2 * n], axis=1)
        damp = 0.5 * r / np.maximum(dz, 0.5 * r)
        step *= damp[:, None]
        Xa = Xa + step[:, : 2 * n]
        Xa *= r / np.linalg.norm(Xa, axis=1, keepdims=True)
        X[active] = Xa
        Z[active] = unrealify(Xa)
        mu[active] = ma + scale * (step[:, 2 * n] + 1j * step[:, 2 * n + 1])
        active = active[dz * damp > 1e-15 * r]
        if not active.size:
            break
        a, b = frame(Z[active])
    return Z


def milnor_scan(
    F: MixedPolynomial,
    shells=DEFAULT_SHELLS,
    samples_per_shell: int = DEFAULT_SAMPLES,
    *,
    seed: int = DEFAULT_SEED,
    pair=None,
) -> ScanResult:
    """Hunt for Milnor-set points off the zero fibre on shrinking spheres.

    Newton projection: per shell, samples_per_shell seeded random sphere
    points are moved onto the Milnor set by damped minimum-norm Gauss-Newton
    on z = mu*a(z) + conj(mu)*b(z), |z| = r; each point stops once its
    z-step is <= 1e-15*r, after at most STEPS iterations.
    The certificate does not depend on how a point was found: a point counts
    when its residual is below NEAR_ZERO_TOL with a full-rank frame while
    |F| > OFF_FIBRE_TOL.  Evidence per shell: count and minimum estimated
    distance to the fibre; the reported points are the shell's three hits
    nearest the fibre, by distance to 12 significant digits, then by sample
    order.  Deterministic for a fixed seed.
    """
    n = F.n_vars
    rng = np.random.default_rng(seed)
    frame = compile_frame(F)
    hessian = compile_hessian(F)
    ev = compile_poly(F)
    fibre_distance = _fibre_distance(pair, frame, ev)
    shell_rows: list[ShellEvidence] = []
    found_points: list[tuple[complex, ...]] = []
    ratios: list[float] = []
    for r in shells:
        X = rng.normal(size=(samples_per_shell, 2 * n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= r
        Z = _project_to_milnor_set(frame, hessian, X, float(r), STEPS)
        vals = _batch_residual(frame, Z)
        fv = np.abs(ev(Z))
        hits = (vals < NEAR_ZERO_TOL) & (fv > OFF_FIBRE_TOL)
        count = int(hits.sum())
        if count:
            dists = fibre_distance(Z[hits])
            min_d = float(dists.min())
            shell_rows.append(ShellEvidence(radius=float(r), count=count, min_distance=min_d))
            ratios.append(min_d / float(r))
            # hits on one circle orbit tie in distance up to rounding, so rank
            # by the distance to 12 significant digits, then by row
            rounded = np.array([float(f"{d:.12g}") for d in dists])
            order = np.argsort(rounded, kind="stable")[:3]
            for idx in order:
                found_points.append(tuple(Z[hits][idx]))
        else:
            shell_rows.append(ShellEvidence(radius=float(r), count=0, min_distance=None))
    fitted_c = min(ratios) if ratios else None
    supports = (not ratios) or fitted_c >= RATIO_FLOOR
    return ScanResult(
        shells=tuple(shell_rows),
        points=tuple(found_points),
        fitted_c=fitted_c,
        supports_transversality=bool(supports),
        seed=seed,
        samples_per_shell=samples_per_shell,
        params={
            "steps": STEPS,
            "near_zero_tol": NEAR_ZERO_TOL,
            "off_fibre_tol": OFF_FIBRE_TOL,
            "ratio_floor": RATIO_FLOOR,
            "shells": [float(r) for r in shells],
        },
    )


# verdict routing ---------------------------------------------------------------


@dataclass(frozen=True)
class RouteRecord:
    name: str
    conclusion: str
    detail: str = ""


@dataclass(frozen=True)
class TubeVerdict:
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
