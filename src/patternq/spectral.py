"""Eigenvalue machinery built entirely on symmetric solvers.

Every matrix this package needs a spectrum for is similar to a symmetric
one: the averaging matrix and its quotients through detailed balance (the
operator's S = D^1/2 P D^-1/2 and QuotientModel.symmetric), the
gain-weighted products and the one-state network Jacobian through gain
and slope similarities of those, and on a lattice to a stack of Hermitian
Bloch blocks.  The only solver here is LAPACK's symmetric (Hermitian)
eigensolver (through np.linalg.eigh and eigvalsh); no unsymmetric QR and
no iteration of its own is ever used.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DetailedBalanceViolated, DimensionMismatch, NoConvergence, NotSymmetric

__all__ = [
    "Spectrum",
    "sym_eigen",
    "jacobian_spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending, optional matching unit eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def min_eigenvector(self) -> np.ndarray:
        if self.eigenvectors is None:
            raise ValueError("spectrum carries no eigenvectors")
        return self.eigenvectors[:, -1]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # deterministic orientation: the largest-magnitude entry is positive
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            out[:, k] = -col
    return out


def sym_eigen(a: np.ndarray, vectors: bool = True) -> Spectrum:
    """Full spectrum of a symmetric matrix by the LAPACK symmetric solver.

    Calls np.linalg.eigh (eigvalsh when vectors=False), LAPACK's
    divide-and-conquer driver for symmetric matrices, on the symmetric part
    of the input.  Eigenvalues come back sorted descending and each
    eigenvector has its largest-magnitude entry positive.  With
    vectors=False the input may also be a stack (k, n, n) of Hermitian
    matrices, real or complex: one batched call solves them all, and the
    spectrum is the eigenvalues of every matrix together.  Raises
    NotSymmetric when the input is not square or deviates from its
    (conjugate) transpose by more than 1e-10.  Raises NoConvergence when a
    matrix of order two or more has a non-finite entry, or when LAPACK
    reports that its eigenvalue iteration failed to converge.
    """
    a = np.asarray(a)
    if vectors or a.dtype.kind != "c":
        a = np.asarray(a, dtype=float)
    if a.ndim not in ((2,) if vectors else (2, 3)) or a.shape[-2] != a.shape[-1]:
        raise NotSymmetric(f"expected a square matrix, or a stack of them for values only, "
                           f"got shape {a.shape}")
    if a.shape[-1] == 0:
        return Spectrum(np.empty(0), np.empty((0, 0)) if vectors else None)
    at = a.swapaxes(-1, -2)
    if at.dtype.kind == "c":
        at = at.conj()
    # one scratch array holds |A - A^H| and then the Hermitian part
    m = np.subtract(a, at)
    deviation = np.abs(m, out=m).real.max(initial=0.0)
    if deviation > 1e-10:
        raise NotSymmetric(f"matrix is not symmetric (max deviation {deviation:.2e})")
    if a.shape == (1, 1):
        return Spectrum(a[0].copy(), np.ones((1, 1)) if vectors else None)
    if not np.isfinite(a).all():
        # LAPACK may return finite garbage for NaN input instead of failing
        raise NoConvergence("matrix has non-finite entries")
    m = np.add(a, at, out=m)
    m *= 0.5
    try:
        if not vectors:
            vals = np.linalg.eigvalsh(m)
            return Spectrum((vals if a.ndim == 2 else np.sort(vals, axis=None))[::-1])
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return Spectrum(vals[::-1], _fix_signs(vecs[:, ::-1]))


def jacobian_spectrum(s: np.ndarray, slopes: np.ndarray, tau: float = 1.0) -> Spectrum:
    """Eigenvalues of the one-state network Jacobian (-I + diag(slopes) P) / tau,
    given the symmetric S = D^1/2 P D^-1/2.

    With gains g = |slopes|^1/2, diag(slopes) P is similar to -diag(g^2) S,
    whose spectrum equals that of the symmetric -diag(g) S diag(g) (AB and
    BA share eigenvalues, also for a singular diag(g)).  So the spectrum is
    real and computed exactly for every nonpositive slope; a zero slope
    gives exactly -1/tau.  s may also be a stack (k, n, n) of Hermitian
    blocks that share the n slopes; their eigenvalues come from one
    batched solve, all together.  Raises DimensionMismatch unless there is
    one slope per row of S, DetailedBalanceViolated on a positive slope,
    where that similarity fails, and NotSymmetric when S is not symmetric.
    """
    s = np.asarray(s)
    if s.dtype.kind != "c":
        s = np.asarray(s, dtype=float)
    t = np.asarray(slopes, dtype=float)
    n = s.shape[-1]
    if t.shape != (n,):
        raise DimensionMismatch(f"expected {n} slopes, got {t.shape}")
    if np.any(t > 0):
        raise DetailedBalanceViolated(
            f"slopes must be nonpositive (max {t.max():.2e})")
    g = np.sqrt(-t)
    m = g[:, None] * s
    m *= -g[None, :]  # -diag(g) S diag(g) in one new array; S stays untouched
    inner = sym_eigen(m, vectors=False)
    return Spectrum((-1.0 + inner.eigenvalues) / tau)
