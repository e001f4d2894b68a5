"""Eigenvalue machinery built entirely on symmetric solvers.

Every matrix this package needs a spectrum for is similar to a symmetric
one: the averaging matrix and its quotients through detailed balance, the
gain-weighted products through a degree/gain diagonal similarity, and the
one-state network Jacobian through a slope similarity of the symmetric
S = D^1/2 P D^-1/2 that the graph's operator builds.  The only
solver here is LAPACK's symmetric eigensolver (through np.linalg.eigh and
eigvalsh); no unsymmetric QR and no iteration of its own is ever used.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DetailedBalanceViolated, NoConvergence, NotSymmetric

__all__ = [
    "Spectrum",
    "sym_eigen",
    "eigen_reversible",
    "jacobian_spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending, optional matching unit eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

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


def _symmetrize(p: np.ndarray, d: np.ndarray, gains=None) -> np.ndarray:
    """G sym(D^1/2 P D^-1/2) G with G = diag(gains) (the identity when None).

    For P in detailed balance with d, D^1/2 P D^-1/2 is symmetric up to
    rounding; its symmetric part removes that rounding.
    """
    root = np.sqrt(np.asarray(d, dtype=float))
    sym = (root[:, None] * p) / root[None, :]
    sym = (sym + sym.T) / 2.0
    if gains is None:
        return sym
    return gains[:, None] * sym * gains[None, :]


def sym_eigen(a: np.ndarray, vectors: bool = True) -> Spectrum:
    """Full spectrum of a symmetric matrix by the LAPACK symmetric solver.

    Calls np.linalg.eigh (eigvalsh when vectors=False), LAPACK's
    divide-and-conquer driver for symmetric matrices, on the symmetric part
    of the input.  Eigenvalues come back sorted descending and each
    eigenvector has its largest-magnitude entry positive.  Raises
    NotSymmetric when the input is not square or deviates from its
    transpose by more than 1e-10.  Raises NoConvergence when a matrix of
    order two or more has a non-finite entry, or when LAPACK reports that
    its eigenvalue iteration failed to converge.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if n == 0:
        return Spectrum(np.empty(0), np.empty((0, 0)) if vectors else None)
    # one n x n scratch array holds |A - A^T| and then the symmetric part
    m = np.subtract(a, a.T)
    deviation = np.abs(m, out=m).max()
    if deviation > 1e-10:
        raise NotSymmetric(f"matrix is not symmetric (max deviation {deviation:.2e})")
    if n == 1:
        return Spectrum(a[0].copy(), np.ones((1, 1)) if vectors else None)
    if not np.isfinite(a).all():
        # LAPACK may return finite garbage for NaN input instead of failing
        raise NoConvergence("matrix has non-finite entries")
    m = np.add(a, a.T, out=m)
    m *= 0.5
    try:
        if not vectors:
            return Spectrum(np.linalg.eigvalsh(m)[::-1])
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return Spectrum(vals[::-1], _fix_signs(vecs[:, ::-1]))


def eigen_reversible(p: np.ndarray, d: np.ndarray, vectors: bool = True) -> Spectrum:
    """Spectrum of a row-stochastic matrix satisfying detailed balance.

    With d_i p_ij = d_j p_ji the similarity D^{1/2} P D^{-1/2} is symmetric,
    so the whole spectrum is real; eigenvectors are mapped back through
    D^{-1/2} and renormalized.  The largest eigenvalue comes out as 1 with a
    positive eigenvector.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DetailedBalanceViolated("weight vector must be strictly positive")
    flux = d[:, None] * p
    err = np.abs(flux - flux.T).max()
    if err > 1e-10 * max(1.0, np.abs(flux).max()):
        raise DetailedBalanceViolated(
            f"detailed balance violated (max flux asymmetry {err:.2e})")
    spec = sym_eigen(_symmetrize(p, d), vectors=vectors)
    if not vectors:
        return spec
    back = spec.eigenvectors / np.sqrt(d)[:, None]
    norms = np.linalg.norm(back, axis=0)
    back = _fix_signs(back / norms)
    return Spectrum(spec.eigenvalues, back)


def jacobian_spectrum(s: np.ndarray, slopes: np.ndarray, tau: float = 1.0) -> Spectrum:
    """Eigenvalues of the one-state network Jacobian (-I + diag(slopes) P) / tau,
    given the symmetric S = D^1/2 P D^-1/2.

    With gains g = |slopes|^1/2, diag(slopes) P is similar to -diag(g^2) S,
    whose spectrum equals that of the symmetric -diag(g) S diag(g) (AB and
    BA share eigenvalues, also for a singular diag(g)).  So the spectrum is
    real and computed exactly for every nonpositive slope; a zero slope
    gives exactly -1/tau.  Raises DetailedBalanceViolated on a positive
    slope, where that similarity fails, and NotSymmetric when S is not
    symmetric.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(slopes, dtype=float)
    n = s.shape[0]
    if t.shape != (n,):
        raise DetailedBalanceViolated(f"expected {n} slopes, got {t.shape}")
    if np.any(t > 0):
        raise DetailedBalanceViolated(
            f"slopes must be nonpositive (max {t.max():.2e})")
    g = np.sqrt(-t)
    m = g[:, None] * s
    m *= -g[None, :]  # -diag(g) S diag(g) in one new array; S stays untouched
    inner = sym_eigen(m, vectors=False)
    return Spectrum((-1.0 + inner.eigenvalues) / tau)
