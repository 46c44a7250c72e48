"""Numeric probes for Thom-type regularity along strata.

At a regular point z of a mixed polynomial F the fibre's normal space is
the real 2-plane

    n_mu(z) = mu * conj(dF)(z) + conj(mu) * dbarF(z),   |mu| = 1,

spanned over R by the frame n_1 = a + b and n_i = i(a - b), where
a = conj(dF)(z), b = dbarF(z).  A stratum S is Thom-compatible with a
family of curves approaching it when limits of these normal planes
annihilate the stratum tangents; a unit tangent vector with a large
projection onto a converged limit plane is a concrete failure witness.

Probes are evidence, not proofs: the verdict vocabulary is "compatible",
"fail-witness", "inconclusive", and reports never say more than the
numerics support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._numeric import compile_frame, compile_vector, grassmann_distance, normal_plane
from ._numeric import real_span_basis, realify, unrealify
from .core import MixedPolynomial, _check_holomorphic_pair, complex_point

__all__ = [
    "NormalFamily",
    "NormalFrame",
    "CurveGerm",
    "Stratum",
    "ProbeResult",
    "normal_family_symbolic",
    "pair_normal_family",
    "normal_family",
    "default_curve_battery",
    "limit_normal_plane",
    "thom_test",
]

DEFAULT_SEED = 2026  # seeds the curve battery here and the Milnor scan
DEFAULT_T0 = 0.1
DEFAULT_RHO = 0.5
DEFAULT_MAX_SHELLS = 60
DEFAULT_CONV_TOL = 1e-6
CONV_RUN = 3
FAIL_TOL = 1e-4
COMPAT_TOL = 1e-8
THOM_CONV_TOL = 1e-9  # tighter than standalone probes so compatible-verdict
                      # planes carry residual well below COMPAT_TOL


@dataclass(frozen=True)
class NormalFamily:
    """Symbolic halves of the normal family: n_mu = mu*a + conj(mu)*b."""

    a: tuple[MixedPolynomial, ...]  # conj of the z-gradient, as polynomials
    b: tuple[MixedPolynomial, ...]  # the zbar-gradient

    @property
    def n_vars(self) -> int:
        return len(self.a)

    @cached_property
    def _evaluate(self):
        """Compiled evaluator z -> (a(z), b(z)), built on first use."""
        a_ev, b_ev = compile_vector(self.a), compile_vector(self.b)
        return lambda Z: (a_ev(Z), b_ev(Z))

    def frame_at(self, z) -> "NormalFrame":
        pt = complex_point(z, self.n_vars)
        av, bv = self._evaluate(pt)
        return NormalFrame(
            point=pt,
            n_one=tuple(av + bv),
            n_i=tuple(1j * (av - bv)),
        )

    def n_mu_at(self, z, mu: complex) -> tuple[complex, ...]:
        mu = complex(mu)
        if abs(abs(mu) - 1.0) > 1e-12:
            raise ValueError("mu must lie on the unit circle")
        av, bv = self._evaluate(complex_point(z, self.n_vars))
        return tuple(mu * av + np.conj(mu) * bv)


@dataclass(frozen=True)
class NormalFrame:
    """The two frame vectors spanning the normal 2-plane at a point."""

    point: tuple[complex, ...]
    n_one: tuple[complex, ...]
    n_i: tuple[complex, ...]


def normal_family_symbolic(F: MixedPolynomial) -> NormalFamily:
    """Exact normal family of any mixed polynomial."""
    grad = F.wirtinger()
    return NormalFamily(
        a=tuple(p.conjugate() for p in grad.dF),
        b=grad.dbarF,
    )


def pair_normal_family(f: MixedPolynomial, g: MixedPolynomial) -> NormalFamily:
    """Normal family of f * conj(g) computed the pair way.

    a = g * conj(df) and b = f * conj(dg); agrees exactly with
    normal_family_symbolic(from_pair(f, g)).
    """
    _check_holomorphic_pair(f, g)
    df = f.wirtinger().dF
    dg = g.wirtinger().dF
    return NormalFamily(
        a=tuple(g * p.conjugate() for p in df),
        b=tuple(f * p.conjugate() for p in dg),
    )


def normal_family(F: MixedPolynomial, z) -> NormalFrame:
    """Numeric frame of the normal 2-plane of F at z."""
    return normal_family_symbolic(F).frame_at(z)


@dataclass(frozen=True)
class CurveGerm:
    """Real-analytic probe curve t -> C^n with polynomial components.

    Each component is a tuple of (coefficient, exponent) pairs in a real
    parameter t; the curve is approached along shells t_j = t0 * rho^j.
    """

    components: tuple[tuple[tuple[complex, int], ...], ...]
    t0: float = DEFAULT_T0
    rho: float = DEFAULT_RHO
    label: str = ""

    def __post_init__(self):
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")
        if not self.t0 > 0:
            raise ValueError("t0 must be positive")

    @property
    def n_vars(self) -> int:
        return len(self.components)

    def at(self, t: float) -> np.ndarray:
        return np.array(
            [sum(c * t ** e for c, e in comp) for comp in self.components],
            dtype=complex,
        )

    def base_point(self) -> tuple[complex, ...]:
        return tuple(
            complex(sum(c for c, e in comp if e == 0)) for comp in self.components
        )

    @classmethod
    def from_polynomials(cls, polys, t0: float = DEFAULT_T0, rho: float = DEFAULT_RHO,
                         label: str = "") -> "CurveGerm":
        """Build from univariate MixedPolynomial components in one variable t."""
        comps = []
        for p in polys:
            if p.n_vars != 1 or not p.is_holomorphic:
                raise ValueError("curve components must be holomorphic in a single variable t")
            comps.append(tuple((complex(c), pair.nu[0]) for pair, c in p.sorted_terms()))
        return cls(tuple(comps), t0=t0, rho=rho, label=label)


@dataclass(frozen=True)
class Stratum:
    """A candidate stratum germ: base point plus real-independent tangents."""

    base_point: tuple[complex, ...]
    tangent: tuple[tuple[complex, ...], ...]
    label: str = ""

    def __post_init__(self):
        base = complex_point(self.base_point)
        object.__setattr__(self, "base_point", base)
        tang = tuple(complex_point(v, len(base)) for v in self.tangent)
        object.__setattr__(self, "tangent", tang)
        if not tang:
            raise ValueError("stratum needs at least one tangent vector")
        basis = real_span_basis(tang)
        if basis.shape[0] != len(tang):
            raise ValueError("tangent vectors must be linearly independent over R")

    def tangent_basis(self) -> np.ndarray:
        return real_span_basis(self.tangent)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a normal-plane limit probe (optionally against a stratum).

    verdict is "compatible", "fail-witness" or "inconclusive".  For a
    stratified test, witness carries the offending curve label, the unit mu
    selecting the failing normal direction, and that direction itself.
    """

    verdict: str
    limit_plane: tuple[tuple[complex, ...], ...] | None
    convergence: tuple[float, ...]
    plane_dims: tuple[int, ...]
    reason: str = ""
    witness: dict | None = None
    per_curve: tuple["ProbeResult", ...] = field(default=())
    projection: float | None = None


def limit_normal_plane(
    F: MixedPolynomial,
    curve: CurveGerm,
    *,
    max_shells: int = DEFAULT_MAX_SHELLS,
    conv_tol: float = DEFAULT_CONV_TOL,
    conv_run: int = CONV_RUN,
) -> ProbeResult:
    """Track the normal 2-plane along a curve and report its limit.

    Convergence is declared when the Grassmann distance between consecutive
    shell planes stays below conv_tol for conv_run consecutive steps (with
    stable dimension); otherwise the probe is inconclusive.
    """
    _check_curve_arity(F, curve)
    return _track_normal_plane(compile_frame(F), curve, max_shells, conv_tol, conv_run)


def _check_curve_arity(F: MixedPolynomial, curve: CurveGerm) -> None:
    if curve.n_vars != F.n_vars:
        raise ValueError("curve arity does not match the polynomial")


def _track_normal_plane(frame, curve: CurveGerm, max_shells: int, conv_tol: float,
                        conv_run: int) -> ProbeResult:
    """limit_normal_plane on a frame evaluator compiled by the caller."""
    prev = None
    dists: list[float] = []
    dims: list[int] = []
    run = 0

    def result(verdict: str, reason: str, Q=None) -> ProbeResult:
        return ProbeResult(
            verdict=verdict,
            limit_plane=None if Q is None else tuple(tuple(v) for v in unrealify(Q)),
            convergence=tuple(dists),
            plane_dims=tuple(dims),
            reason=reason,
        )

    for j, t in enumerate(curve.t0 * curve.rho ** np.arange(max_shells)):
        plane = normal_plane(*frame(curve.at(float(t))))
        if plane.rank == 0:
            return result("inconclusive", f"frame degenerate at shell {j} (t={t:.3e})")
        Q = plane.Vt[: plane.rank]
        dims.append(Q.shape[0])
        if prev is not None:
            # planes of different dimension are incomparable: nan restarts the run
            d = grassmann_distance(prev, Q) if prev.shape == Q.shape else float("nan")
            dists.append(d)
            run = run + 1 if d < conv_tol else 0
        prev = Q
        if run >= conv_run:
            return result("compatible", f"converged at shell {j}", Q)
    return result(
        "inconclusive",
        f"no convergence within {max_shells} shells"
        + ("; plane dimension unstable" if len(set(dims)) > 1 else ""),
    )


def default_curve_battery(
    base_point,
    *,
    seed: int = DEFAULT_SEED,
    max_exponent: int = 3,
    t0: float = DEFAULT_T0,
    rho: float = DEFAULT_RHO,
) -> tuple[CurveGerm, ...]:
    """Monomial curves base + (w_1 t^{a_1}, ..., w_n t^{a_n}), a in {1..3}^n.

    Directions w_j are random unit complex numbers from a seeded generator.
    The battery is the whole exponent grid when it has at most 27 points
    (n <= 3).  Otherwise it is 27 distinct grid points (max_exponent of them
    if that is more) in lexicographic order: the diagonal (e, ..., e), so
    that every coordinate takes every exponent, and a seeded sample of the
    rest.
    """
    base = complex_point(base_point)
    n = len(base)
    rng = np.random.default_rng(seed)
    exponents = range(1, max_exponent + 1)
    if max_exponent ** n <= 27:
        grids = list(itertools.product(exponents, repeat=n))
    else:
        chosen = {(e,) * n for e in exponents}
        while len(chosen) < 27:
            chosen.add(tuple(int(e) for e in rng.integers(1, max_exponent + 1, size=n)))
        grids = sorted(chosen)
    curves = []
    for exps in grids:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        comps = []
        for j in range(n):
            w = complex(np.cos(phases[j]), np.sin(phases[j]))
            terms: list[tuple[complex, int]] = [(w, exps[j])]
            if base[j] != 0:
                terms.append((base[j], 0))
            comps.append(tuple(terms))
        curves.append(
            CurveGerm(tuple(comps), t0=t0, rho=rho, label="t^" + ",".join(map(str, exps)))
        )
    return tuple(curves)


def thom_test(
    F: MixedPolynomial,
    stratum: Stratum,
    curves=None,
    *,
    max_shells: int = DEFAULT_MAX_SHELLS,
    conv_tol: float = THOM_CONV_TOL,
    conv_run: int = CONV_RUN,
    fail_tol: float = FAIL_TOL,
    compat_tol: float = COMPAT_TOL,
    seed: int = DEFAULT_SEED,
) -> ProbeResult:
    """Probe whether limit normal planes along curves annihilate a stratum.

    For each converged curve the score is the largest projection norm of a
    unit stratum tangent onto the limit plane.  Any score above fail_tol is
    a failure witness; all curves converged with scores below compat_tol is
    "compatible" (evidence only); anything else is inconclusive.
    """
    if len(stratum.base_point) != F.n_vars:
        raise ValueError("stratum arity does not match the polynomial")
    if curves is None:
        curves = default_curve_battery(stratum.base_point, seed=seed)
    T = stratum.tangent_basis()
    frame = compile_frame(F)
    per: list[ProbeResult] = []
    worst_proj = 0.0
    all_converged = True
    witness = None
    for idx, curve in enumerate(curves):
        _check_curve_arity(F, curve)
        probe = _track_normal_plane(frame, curve, max_shells, conv_tol, conv_run)
        if probe.limit_plane is None:
            all_converged = False
            per.append(probe)
            continue
        Q = np.stack([realify(np.asarray(v)) for v in probe.limit_plane])
        u, s, _ = np.linalg.svd(Q @ T.T)
        proj = float(s[0])
        worst_proj = max(worst_proj, proj)
        cur_witness = None
        if proj > fail_tol:
            w = unrealify(u[:, 0] @ Q)
            # express the witness direction in the last-shell frame to recover mu
            t_last = curve.t0 * curve.rho ** len(probe.convergence)
            mu = complex(normal_plane(*frame(curve.at(float(t_last)))).mu(w))
            mu = mu / abs(mu) if abs(mu) > 0 else 1.0 + 0j
            cur_witness = {
                "curve": curve.label or f"curve[{idx}]",
                "mu": mu,
                "direction": tuple(w),
                "projection": proj,
            }
            if witness is None:
                witness = cur_witness
        per.append(replace(
            probe,
            verdict=probe.verdict if cur_witness is None else "fail-witness",
            witness=cur_witness,
            projection=proj,
        ))
    if witness is not None:
        verdict, reason = "fail-witness", "a limit normal direction lies in the stratum tangent"
    elif all_converged and worst_proj < compat_tol and per:
        verdict, reason = "compatible", "all limit planes annihilate the stratum tangent"
    else:
        verdict = "inconclusive"
        reason = "not all curves converged" if not all_converged else \
            f"worst projection {worst_proj:.3e} between thresholds"
    return ProbeResult(
        verdict=verdict,
        limit_plane=None,
        convergence=(),
        plane_dims=(),
        reason=reason,
        witness=witness,
        per_curve=tuple(per),
        projection=worst_proj if per else None,
    )
