"""Shared numeric helpers: compiled evaluators and real 2-plane geometry.

Complex n-vectors are identified with R^{2n} by stacking real parts then
imaginary parts; "real span" always means span over R in that picture.

The normal 2-plane of a mixed polynomial at z is the real span of the frame
(a+b, i(a-b)), a = conj(dF)(z), b = dbarF(z).  normal_plane builds it for
the Milnor certificate and scan with one rank rule: singular value s_i
counts when s_i > s_0 * RANK_RTOL.  The Thom probes need none of this:
they take limit planes exactly (thomprobe).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import MixedPolynomial

__all__ = [
    "compile_poly",
    "compile_vector",
    "compile_frame",
    "compile_hessian",
    "realify",
    "unrealify",
    "RANK_RTOL",
    "NormalPlane",
    "normal_plane",
]


def compile_poly(F: MixedPolynomial):
    """Vectorized evaluator: Z with shape (..., n) complex -> values (...)."""
    n = F.n_vars
    pairs = list(F.terms.items())
    if not pairs:
        def ev_zero(Z):
            Z = np.asarray(Z, dtype=complex)
            return np.zeros(Z.shape[:-1], dtype=complex)
        return ev_zero
    nu = np.array([p.nu for p, _ in pairs], dtype=np.int64)      # (T, n)
    mu = np.array([p.mu for p, _ in pairs], dtype=np.int64)
    coeffs = np.array([complex(c) for _, c in pairs], dtype=complex)

    def ev(Z):
        Z = np.asarray(Z, dtype=complex)
        Zc = np.conj(Z)
        # (..., T, n) powers; 0**0 == 1 holds for complex numpy
        zp = Z[..., None, :] ** nu
        wp = Zc[..., None, :] ** mu
        return (zp * wp).prod(axis=-1) @ coeffs

    return ev


def compile_vector(polys):
    """Vectorized evaluator of a tuple of m polynomials: Z (..., n) -> (..., m)."""
    evs = [compile_poly(p) for p in polys]

    def ev(Z):
        Z = np.asarray(Z, dtype=complex)
        return np.stack([e(Z) for e in evs], axis=-1)

    return ev


def compile_frame(F: MixedPolynomial):
    """Evaluator for the Wirtinger data: Z (..., n) -> (a, b) each (..., n).

    a = conj(dF) evaluated (conjugate of the z-gradient values) and
    b = dbarF evaluated; the normal 2-plane at z is span_R{a+b, i(a-b)}.
    """
    grad = F.wirtinger()
    d_ev = compile_vector(grad.dF)
    b_ev = compile_vector(grad.dbarF)

    def ev(Z):
        Z = np.asarray(Z, dtype=complex)
        return np.conj(d_ev(Z)), b_ev(Z)

    return ev


def compile_hessian(F: MixedPolynomial):
    """Evaluator for the second Wirtinger derivatives: Z (..., n) -> (H, M, B).

    Each is (..., n, n) with entry [..., j, k] equal to d_k d_j F (H),
    dbar_k d_j F (M) and dbar_k dbar_j F (B).
    """
    grad = F.wirtinger()
    d_grads = [p.wirtinger() for p in grad.dF]
    b_grads = [p.wirtinger() for p in grad.dbarF]
    tables = (
        [[compile_poly(p) for p in g.dF] for g in d_grads],
        [[compile_poly(p) for p in g.dbarF] for g in d_grads],
        [[compile_poly(p) for p in g.dbarF] for g in b_grads],
    )

    def ev(Z):
        Z = np.asarray(Z, dtype=complex)
        return tuple(
            np.stack([np.stack([e(Z) for e in row], axis=-1) for row in table], axis=-2)
            for table in tables
        )

    return ev


def realify(v: np.ndarray) -> np.ndarray:
    """C^n -> R^{2n}, stacking (Re v, Im v) along the last axis."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag], axis=-1)


def unrealify(r: np.ndarray) -> np.ndarray:
    """Inverse of realify on the last axis."""
    r = np.asarray(r, dtype=float)
    n = r.shape[-1] // 2
    return r[..., :n] + 1j * r[..., n:]


# frame vectors are exact products evaluated in floats, so the rank cut can sit
# near machine precision; a cut at 1e-9 would collapse the plane of an
# asymmetric frame (|a| >> |b|), where the Milnor certificate still holds
RANK_RTOL = 1e-13


class NormalPlane(NamedTuple):
    """Singular values s (..., 2) and right singular vectors Vt (..., 2, 2n) of
    the realified frame rows (a+b, i(a-b)) over leading batch axes, and its
    rank (...): the first rank rows of Vt are an orthonormal basis of the
    normal plane."""

    s: np.ndarray
    Vt: np.ndarray
    rank: np.ndarray

    def _coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of real rows v (..., 2n) on the first rank rows of Vt."""
        coords = (self.Vt @ v[..., None])[..., 0]
        return np.where(np.arange(2) < self.rank[..., None], coords, 0.0)

    def distance(self, v: np.ndarray) -> np.ndarray:
        """Distance from real rows v (..., 2n) to the plane."""
        return np.linalg.norm(v - (self._coords(v)[..., None] * self.Vt).sum(axis=-2), axis=-1)


def normal_plane(a: np.ndarray, b: np.ndarray) -> NormalPlane:
    """Batched normal plane of the frames a, b (..., n); see NormalPlane.

    Each frame is divided by max(|a|, |b|), then by its largest realified
    entry, before the SVD; s is returned unscaled.
    A zero or non-finite frame has rank 0 and s of nan.
    """
    scale = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on a zero frame
        M = np.stack([realify((a + b) / scale), realify(1j * (a - b) / scale)], axis=-2)
        entry = np.abs(M).max(axis=(-2, -1), keepdims=True)
        ok = np.isfinite(entry) & (entry > 0)
        _, s, Vt = np.linalg.svd(np.where(ok, M / entry, 0.0), full_matrices=False)
        rank = (s > s[..., :1] * RANK_RTOL).sum(axis=-1)
        return NormalPlane(s * entry[..., 0] * scale, Vt, rank)

