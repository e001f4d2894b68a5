"""Certification and construction of nonhomogeneous steady-state patterns.

A two-sided test: the quotient's minimum eigenvalue must be negative enough
that |T'(u*)| * lambda_min < -1 while the reduced graph is bipartite.  When
certified, nonhomogeneous roots of z = Pbar T(z) are located from the two
corners of [0, A]^r that the reduced 2-coloring picks out (A on one side, 0
on the other), and the pick is lifted to the full network: solve_reduced
returns one PatternSolution that carries the certificate it was decided on.

Why the corners: flip the sign of one side of the coloring, and write
<=_K for the order of the flipped coordinates.  quotient() 2-colors every
class pair with a nonzero Pbar entry and T' <= 0 on [0, inf), so every
off-diagonal entry of the flipped Jacobian of the damped map
F(z) = (1 - alpha) z + alpha Pbar T(z) is >= 0 at every z in the box, and
with alpha = 1 / (1 + max_i pbar_ii L), L = max |T'| (cells.max_slope),
every diagonal entry is >= 1 - alpha - alpha pbar_ii L >= 0: F preserves
<=_K.  F maps the box [0, A]^r into itself (Pbar is row-stochastic and
0 < T <= A), so every root lies in it, and the two corners are the least
and the greatest points of the box in <=_K.  The iterates of F from each
corner are therefore monotone and bounded in <=_K, and converge to the
least and the greatest root (D. H. Sattinger, Indiana Univ. Math. J. 21,
1972; H. L. Smith, Monotone Dynamical Systems, 1995).  solve_reduced
iterates F, at most 100,000 times, only when Newton strays from a corner.

Why those limits are patterns: under CERTIFIED the reduced graph is
connected (certify raises NotConnected otherwise) and T'(u*) < 0, so the
flipped Jacobian of z -> Pbar T(z) - z at u* 1 is an irreducible Metzler
matrix.  Its Perron eigenvalue -1 + |T'(u*)| |lambda_min| is positive and
has a positive eigenvector, so the homogeneous state is unstable along a
direction that points into each corner's side of u* 1, and the iterates
from each corner end strictly on their own side: the two limits are
nonhomogeneous and distinct.  OnlyHomogeneousFound is the loud failure
for when the numerics disagree.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cells import HillMap, fixed_point, max_slope, t_eval, t_prime
from .errors import NotConnected, OnlyHomogeneousFound
from .partitions import QuotientModel

__all__ = [
    "CERTIFIED",
    "INCONCLUSIVE",
    "ASSUMPTION_FAILED",
    "ExistenceCertificate",
    "PatternSolution",
    "certify",
    "solve_reduced",
    "lift",
]

CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"
ASSUMPTION_FAILED = "ASSUMPTION_FAILED"

_RESIDUAL_ACCEPT = 1e-10
_NONHOM_REL = 1e-6
# roots closer than this in max-norm count as one
_DISTINCT = 1e-8
# strict thresholds get a small guard band so boundary cases (condition
# exactly -1 up to float noise) never certify
_CONDITION_MARGIN = 1e-9
# iterations after which the monotone iteration from a corner counts as stuck
_MONOTONE_CAP = 100_000


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the eigenvalue test on a quotient model.

    condition_value = |T'(u*)| * min_eigenvalue; the verdict is CERTIFIED
    exactly when the reduced graph is bipartite and condition_value < -1.
    A zero or positive minimum eigenvalue can never certify and yields
    INCONCLUSIVE.
    """

    verdict: str
    min_eigenvalue: float
    min_eigenvector: np.ndarray
    min_multiplicity: int
    fixed_point_value: float
    slope_at_fixed_point: float
    condition_value: float
    reduced_bipartite: bool


def certify(qm: QuotientModel, model: HillMap) -> ExistenceCertificate:
    """Evaluate the bipartite-reduced-graph eigenvalue test on
    qm.eigenvalues, the values-only spectrum of the model's one symmetric
    form; only the eigenvector comes from qm.spectrum()."""
    if not qm.reduced_connected:
        raise NotConnected("reduced graph is disconnected; use a connected contact graph")
    fp = fixed_point(model)
    slope = t_prime(model, fp.value)
    lam = float(qm.eigenvalues[-1])
    vec = qm.spectrum().min_eigenvector()
    mult = int(np.sum(np.abs(qm.eigenvalues - lam) < 1e-9))
    bip = qm.reduced_coloring is not None
    condition = abs(slope) * lam
    if not bip:
        verdict = ASSUMPTION_FAILED
    elif condition < -1.0 - _CONDITION_MARGIN:
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return ExistenceCertificate(
        verdict=verdict,
        min_eigenvalue=lam,
        min_eigenvector=vec,
        min_multiplicity=mult,
        fixed_point_value=fp.value,
        slope_at_fixed_point=float(slope),
        condition_value=float(condition),
        reduced_bipartite=bip,
    )


@dataclass(frozen=True)
class PatternSolution:
    """Class values plus their lift to per-cell inputs and states.

    solve_reduced fills in the certificate it decided on, the warning of a
    homogeneous fallback and a second distinct root; lift of given class
    values leaves those three None.
    """

    class_values: np.ndarray
    cell_inputs: np.ndarray
    cell_states: np.ndarray
    residual_reduced: float
    residual_full: float
    homogeneous: bool
    certificate: ExistenceCertificate | None = None
    warning: str | None = None
    alternate_class_values: np.ndarray | None = None


def _reduced_residual(pbar: np.ndarray, model: HillMap, z: np.ndarray) -> float:
    return float(np.abs(z - pbar @ t_eval(model, z)).max())


def _newton_root(pbar: np.ndarray, model: HillMap, z0: np.ndarray,
                 tol: float = 1e-12, max_iter: int = 100,
                 progress=None) -> np.ndarray | None:
    """Damped Newton on G(z) = z - Pbar T(z); None when the search stalls."""
    r = len(z0)
    z = z0.copy()
    res = _reduced_residual(pbar, model, z)
    for iteration in range(max_iter):
        if progress is not None:
            progress("newton", iteration)
        if res < tol:
            return z
        jac = np.eye(r) - pbar * t_prime(model, z)[None, :]
        try:
            step = np.linalg.solve(jac, -(z - pbar @ t_eval(model, z)))
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        for _ in range(40):
            z_new = z + alpha * step
            if np.all(z_new >= 0):
                res_new = _reduced_residual(pbar, model, z_new)
                if res_new < res * (1.0 - 1e-4 * alpha) or res_new < tol:
                    z = z_new
                    res = res_new
                    break
            alpha *= 0.5
        else:
            return None
    return z if res < tol * 100 else None


def _monotone_root(pbar: np.ndarray, model: HillMap, z0: np.ndarray) -> np.ndarray | None:
    """Iterate the damped map F of the module docstring from z0 until
    max |Pbar T(z) - z| < 1e-6; None when _MONOTONE_CAP iterations pass
    first."""
    alpha = 1.0 / (1.0 + float(np.diag(pbar).max()) * max_slope(model))
    z = z0
    for _ in range(_MONOTONE_CAP):
        target = pbar @ t_eval(model, z)
        if np.abs(target - z).max() < 1e-6:
            return z
        z = (1.0 - alpha) * z + alpha * target
    return None


def solve_reduced(qm: QuotientModel, model: HillMap, *, progress=None) -> PatternSolution:
    """Find a nonhomogeneous root of the reduced equation and lift it.

    Both solves start from the two coloring corners (model.amplitude on one
    side of qm.reduced_coloring, 0 on the other), the extremes of the
    order from which the damped monotone iteration runs to the extremal
    roots (see the module docstring).  Newton from the corners is accepted
    when both roots are nonhomogeneous, pass the residual test and differ
    by more than 1e-8.  Otherwise z <- (1 - alpha) z + alpha Pbar T(z),
    alpha = 1 / (1 + max_i pbar_ii L), is iterated from each corner until
    max |Pbar T(z) - z| < 1e-6, at most 100,000 times, and its limit
    polished by Newton; the polished roots that pass the same tests are
    the candidates.  Under a CERTIFIED verdict at least one must survive;
    if none does, the contradiction is raised as OnlyHomogeneousFound
    rather than returned.  The pick is the candidate that comes first in
    descending lexicographic order of its class values; a second candidate
    more than 1e-8 away is returned as alternate_class_values.
    Without certification the homogeneous solution is returned with a
    warning instead of an error.  Either way the pick comes lifted, with
    the certificate it was decided on.  `progress`, when given, is called
    as progress("newton", iteration) per Newton iteration.
    """
    cert = certify(qm, model)
    pbar = qm.matrix
    u_star = cert.fixed_point_value
    hom = np.full(qm.r, u_star)
    if cert.verdict != CERTIFIED:
        return replace(lift(qm, hom, model), certificate=cert,
                       warning=f"verdict {cert.verdict}: returning the homogeneous state")

    def is_nonhomogeneous(z: np.ndarray) -> bool:
        return float(z.max() - z.min()) > _NONHOM_REL * u_star

    def accepted(root: np.ndarray | None) -> bool:
        return (root is not None and is_nonhomogeneous(root)
                and _reduced_residual(pbar, model, root) < _RESIDUAL_ACCEPT)

    # the extremes of the cooperative order; see the module docstring
    corners = [np.where(qm.reduced_coloring == side, model.amplitude, 0.0) for side in (0, 1)]
    found = [_newton_root(pbar, model, z0, progress=progress) for z0 in corners]
    if not (all(map(accepted, found)) and np.abs(found[0] - found[1]).max() > _DISTINCT):
        # Newton strayed from a corner; the monotone iteration from each
        # corner runs to its extremal root, so polish its limit instead
        found = []
        for z0 in corners:
            staged = _monotone_root(pbar, model, z0)
            root = None if staged is None else _newton_root(pbar, model, staged,
                                                            progress=progress)
            if accepted(root):
                found.append(root)
    if not found:
        raise OnlyHomogeneousFound(
            "neither Newton nor the damped monotone iteration (at most "
            f"{_MONOTONE_CAP} steps) from the two coloring corners reached an "
            "accepted nonhomogeneous root despite a CERTIFIED eigenvalue condition")

    # deterministic pick: largest first entry under the partition's class order
    found.sort(key=lambda z: tuple(-z))
    best = found[0]
    alternate = None
    for z in found[1:]:
        if np.abs(z - best).max() > _DISTINCT:
            alternate = z
            break
    return replace(lift(qm, best, model), certificate=cert, alternate_class_values=alternate)


def lift(qm: QuotientModel, z, model: HillMap) -> PatternSolution:
    """Expand class values to all cells and measure both residuals.

    Because the partition is equitable, a reduced root lifts to a root of
    the full steady-state equation; residual_full verifies that mechanically
    against the full averaging operator qm.operator.
    """
    z = np.asarray(z, dtype=float)
    u = qm.partition.expand(z)
    x = t_eval(model, u)
    residual_full = float(np.abs(u - qm.operator.matvec(x)).max())
    u_star = fixed_point(model).value
    return PatternSolution(
        class_values=z,
        cell_inputs=u,
        cell_states=np.asarray(x, dtype=float),
        residual_reduced=_reduced_residual(qm.matrix, model, z),
        residual_full=residual_full,
        homogeneous=float(z.max() - z.min()) <= _NONHOM_REL * u_star,
    )
