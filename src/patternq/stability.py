"""Stability certification of lifted patterns by two routes.

Every route starts from the QuotientModel of the pattern and its class
values z; none rebuilds the operator or the quotient.  Block route: the
Jacobian splits exactly into a representative block driven by
qm.symmetric and transverse blocks on the complement of the class
vectors; each is Hermitian and solved on its own, and together they carry
the full spectrum, so their largest eigenvalue is the full spectral
abscissa and no n x n spectrum is solved.  The transverse blocks are
those of block_decompose(qm): the character blocks of the translations
that keep every class, of order p, and the trivial character's block
split by the class reflectors, of order p - r.  Where the group is
trivial (p = n) there is no character block and the transverse block,
of order n - r, comes from the dense S.  Under the singleton partition
(r = n) the representative block is the whole Jacobian and the
transverse block is empty.  Small-gain route:
rho(P Gamma) < 1 with per-class dc-gains, the block route's -T'(z) bit for
bit.  Equitability gives P Gamma Q = Q Pbar Gammabar for the class
indicator Q, so the radius is computed on qm.symmetric alone, where it is
exactly equal; the same radius decides whether I - Gamma P is a
nonsingular M-matrix.  stability_report refuses a z whose lift is not
steady and runs only the routes it is asked for.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import HillMap, dc_gain, t_prime
from .errors import BadOptions, DimensionMismatch, NotSteadyState
from .existence import lift
from .partitions import QuotientModel, block_decompose
from .spectral import jacobian_spectrum, sym_eigen

__all__ = [
    "STABLE",
    "UNSTABLE",
    "MARGINAL",
    "CERTIFIED_STABLE",
    "NOT_CERTIFIED",
    "BlockStability",
    "SmallGainResult",
    "StabilityReport",
    "block_stability",
    "small_gain",
    "stability_report",
]

STABLE = "STABLE"
UNSTABLE = "UNSTABLE"
MARGINAL = "MARGINAL"
CERTIFIED_STABLE = "CERTIFIED_STABLE"
NOT_CERTIFIED = "NOT_CERTIFIED"

_MARGIN = 1e-9
_STEADY_TOL = 1e-8
_METHODS = ("block", "smallgain")


@dataclass(frozen=True)
class BlockStability:
    representative_spectrum: np.ndarray
    transverse_spectrum: np.ndarray
    consistency: float

    @property
    def abscissa(self) -> float:
        """Largest eigenvalue of the two blocks together.  The block split
        is an orthogonal similarity, so this is the spectral abscissa of the
        full Jacobian."""
        return float(max(self.representative_spectrum[0],
                         self.transverse_spectrum.max(initial=-np.inf)))


@dataclass(frozen=True)
class SmallGainResult:
    """The small-gain radius and its certificate.

    rho_full is rho(P Gamma), computed as rho(Pbar Gammabar) and equal to
    it bit for bit.  Both matrices are nonnegative and, with Q the n x r
    class indicator, equitability gives P Gamma Q = Q Pbar Gammabar and
    Q 1_r = 1_n; so the row sums of (P Gamma)^k are those of
    (Pbar Gammabar)^k lifted, their infinity norms agree for every k, and
    Gelfand's formula makes the radii equal, zero gains included.
    class_gains are the per-class dc-gains |T'(z)|; every cell of a class
    has its class's gain.  perron_reduced is the quotient's eigenvector for
    the radius; its lift is one of P Gamma.
    """

    rho_full: float
    verdict: str
    class_gains: np.ndarray
    perron_reduced: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    """The verdicts of the routes that ran.

    full_spectral_abscissa and full_verdict come from the block route and
    are None when it did not run.  m_matrix_ok is True exactly when the
    small-gain verdict is CERTIFIED_STABLE, rho(P Gamma) < 1 - 1e-9, and
    None otherwise.  With Gamma P >= 0,
    I - Gamma P is a Z-matrix, and a Z-matrix I - B with B >= 0 is a
    nonsingular M-matrix exactly when rho(B) < 1 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6);
    rho(Gamma P) = rho(P Gamma) because AB and BA share eigenvalues.
    """

    full_spectral_abscissa: float | None
    full_verdict: str | None
    block: BlockStability | None
    small_gain: SmallGainResult | None
    m_matrix_ok: bool | None


def _verdict_from_abscissa(abscissa: float) -> str:
    if abscissa < -_MARGIN:
        return STABLE
    if abscissa > _MARGIN:
        return UNSTABLE
    return MARGINAL


def _class_values(qm: QuotientModel, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (qm.r,):
        raise DimensionMismatch(f"expected {qm.r} class values, got {z.shape}")
    return z


def block_stability(qm: QuotientModel, model: HillMap, z) -> BlockStability:
    """Spectra of the representative and transverse stability blocks.

    Slopes are constant on each class, so every split of S that keeps the
    class vectors together and acts inside classes, or commutes with
    class-constant diagonals, splits the Jacobian too.  The representative
    block is (-I + diag(class slopes) qm.symmetric) / tau.  The transverse
    spectrum is that of block_decompose(qm)'s transverse block and, when
    its stack of character blocks is not empty, of those blocks too, in
    one batched solve.  Every block is Hermitian, so jacobian_spectrum
    solves each directly.  `consistency` is the split's off-block coupling.
    """
    z = _class_values(qm, z)
    slopes = np.asarray(t_prime(model, z), dtype=float)
    rep = jacobian_spectrum(qm.symmetric, slopes, tau=model.tau)
    decomp = block_decompose(qm)
    trans = jacobian_spectrum(decomp.transverse_block, slopes[decomp.transverse_class],
                              tau=model.tau).eigenvalues
    if len(decomp.character_blocks):
        waves = jacobian_spectrum(decomp.character_blocks, slopes[decomp.character_class],
                                  tau=model.tau)
        trans = np.sort(np.concatenate((trans, waves.eigenvalues)))[::-1]
    return BlockStability(
        representative_spectrum=rep.eigenvalues,
        transverse_spectrum=trans,
        consistency=decomp.coupling,
    )


def _gain_radius(qm: QuotientModel, gains: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius of Pbar Gamma and its eigenvector in max-norm.

    Pbar Gamma = D^-1/2 S D^1/2 Gamma with S = qm.symmetric and D the class
    degrees, and AB and BA share eigenvalues, so eig(Pbar Gamma) =
    eig(Gamma^1/2 S Gamma^1/2), also for zero gains and reducible supports.
    For a nonnegative matrix the largest eigenvalue is the spectral radius.
    With y its eigenvector of the symmetric matrix, Pbar Gamma^1/2 D^-1/2 y
    is one of Pbar Gamma.  When the radius is 0, Pbar Gamma is nilpotent
    and the vector is all zeros.
    """
    root = np.sqrt(gains)
    spec = sym_eigen(root[:, None] * qm.symmetric * root[None, :])
    rho = max(float(spec.eigenvalues[0]), 0.0)
    if rho == 0.0:
        return rho, np.zeros(len(gains))
    v = qm.matrix @ (root / np.sqrt(qm.class_degrees) * spec.eigenvectors[:, 0])
    return rho, v / np.abs(v).max()


def small_gain(qm: QuotientModel, model: HillMap, z) -> SmallGainResult:
    """Evaluate rho(Pbar Gammabar), which equals rho(P Gamma).

    Gains are the per-class dc-gains |T'(z_i)|, from one dc_gain call on
    z.  The radius is the largest eigenvalue of the gain similarity of
    qm.symmetric, exact for zero gains, and is rho(P Gamma) itself (see
    SmallGainResult), so no n x n matrix is formed.  perron_reduced is the quotient's eigenvector
    for the radius in max-norm, nonnegative when the radius is simple, and
    all zeros when it is 0.  The certificate fires exactly when the radius
    sits below 1 by more than the marginal band.
    """
    z = _class_values(qm, z)
    class_gains = dc_gain(model, z)
    rho, v_red = _gain_radius(qm, class_gains)
    verdict = CERTIFIED_STABLE if rho < 1.0 - _MARGIN else NOT_CERTIFIED
    return SmallGainResult(rho_full=rho, verdict=verdict, class_gains=class_gains,
                           perron_reduced=v_red)


def stability_report(qm: QuotientModel, model: HillMap, z,
                     methods: tuple[str, ...] = _METHODS) -> StabilityReport:
    """Run the requested certification routes on the lifted pattern of z.

    methods holds names from ("block", "smallgain"); BadOptions names any
    other entry, or a bare string.  Whatever the methods, existence.lift
    must take z (DimensionMismatch unless it holds one value per class) to
    a steady lift, residual_full <= 1e-8 (NotSteadyState).  The full spectral
    abscissa comes from the block route, since its two blocks carry the
    whole Jacobian spectrum; without "block", full_spectral_abscissa and
    full_verdict are None.
    """
    if isinstance(methods, str):
        raise BadOptions(f"methods must be a sequence of route names, got the string {methods!r}")
    unknown = [m for m in methods if m not in _METHODS]
    if unknown:
        raise BadOptions(f"unknown stability method {unknown[0]!r}; choose from {_METHODS}")
    pattern = lift(qm, z, model)
    if not pattern.residual_full <= _STEADY_TOL:  # a NaN residual fails too
        raise NotSteadyState(f"pattern residual {pattern.residual_full:.2e} exceeds {_STEADY_TOL}")
    z = pattern.class_values
    abscissa = block = None
    if "block" in methods:
        block = block_stability(qm, model, z)
        abscissa = block.abscissa
    sg = m_ok = None
    if "smallgain" in methods:
        sg = small_gain(qm, model, z)
        m_ok = True if sg.verdict == CERTIFIED_STABLE else None
    return StabilityReport(
        full_spectral_abscissa=abscissa,
        full_verdict=None if abscissa is None else _verdict_from_abscissa(abscissa),
        block=block,
        small_gain=sg,
        m_matrix_ok=m_ok,
    )
