"""Certification and construction of nonhomogeneous steady-state patterns.

A two-sided test: the quotient's minimum eigenvalue must be negative enough
that |T'(u*)| * lambda_min < -1 while the reduced graph is bipartite.  When
certified, nonhomogeneous roots of z = Pbar T(z) are located from the two
corners of [0, A]^r that the reduced 2-coloring picks out (A on one side, 0
on the other), and the pick is lifted to the full network: solve_reduced
returns one PatternSolution that carries the certificate it was decided on.

Why the corners: flip the sign of one side of the coloring.  quotient()
2-colors every class pair with a nonzero Pbar entry and T' <= 0 on
[0, inf), so every off-diagonal entry of the flipped Jacobian
S (-I + Pbar diag T'(z)) S is >= 0 at every z in the box: the reduced flow
z' = (-z + Pbar T(z)) / tau is cooperative.  Every equilibrium lies in
[0, A]^r (Pbar is row-stochastic and 0 < T <= A), and the two corners are
the least and the greatest points of that box in the flipped order, so the
flow from them converges to the least and the greatest equilibrium
(H. L. Smith, Monotone Dynamical Systems, 1995).

Why those limits are patterns: under CERTIFIED the reduced graph is
connected (certify raises NotConnected otherwise) and T'(u*) < 0, so the
flipped Jacobian at u* 1 is an irreducible Metzler matrix.  Its Perron
eigenvalue -1 + |T'(u*)| |lambda_min| is positive and has a positive
eigenvector, so the homogeneous state is unstable along a direction that
points into each corner's side of u* 1, and the flow from each corner ends
strictly on its own side: the two limits are nonhomogeneous and distinct.
OnlyHomogeneousFound is the loud failure for when the numerics disagree.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cells import HillMap, fixed_point, t_eval, t_prime
from .errors import NotConnected, OnlyHomogeneousFound
from .ode import settle
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
# model time, in units of tau, after which the reduced flow counts as stuck
_FLOW_HORIZON = 1e5


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


def _ode_root(pbar: np.ndarray, model: HillMap, z0: np.ndarray, tol: float,
              progress=None) -> np.ndarray | None:
    """Integrate the reduced flow z' = (-z + Pbar T(z)) / tau until the
    derivative norm drops below tol; the limit is an equilibrium.  None when
    1e5 tau of model time pass first."""

    def f(state: np.ndarray) -> np.ndarray:
        return (-state + pbar @ t_eval(model, np.maximum(state, 0.0))) / model.tau

    def tick(k: int, t: float, z: np.ndarray) -> None:
        if k % 5000 == 0:
            progress("flow", k)

    rest = settle(f, np.maximum(z0, 0.0), model, tol, _FLOW_HORIZON * model.tau,
                  lambda t, z: np.maximum(z, 0.0),
                  on_step=None if progress is None else tick)
    return rest.final_state if rest.converged else None


def solve_reduced(qm: QuotientModel, model: HillMap, *, progress=None) -> PatternSolution:
    """Find a nonhomogeneous root of the reduced equation and lift it.

    Both solves start from the two coloring corners (model.amplitude on one
    side of qm.reduced_coloring, 0 on the other), the extremes of the
    cooperative order from which the reduced flow runs to the extremal
    roots (see the module docstring).  Newton from the corners is accepted
    when both roots are nonhomogeneous, pass the residual test and differ
    by more than 1e-8.  Otherwise the reduced flow is integrated from each
    corner and its limit polished by Newton; the polished roots that pass
    the same tests are the candidates.  Under a CERTIFIED verdict at least
    one must survive; if none does, the contradiction is raised as
    OnlyHomogeneousFound rather than returned.  The pick is the candidate
    that comes first in descending lexicographic order of its class
    values; a second candidate more than 1e-8 away is returned as
    alternate_class_values.
    Without certification the homogeneous solution is returned with a
    warning instead of an error.  Either way the pick comes lifted, with
    the certificate it was decided on.  `progress`, when given, is called as
    progress(phase, iteration) with phase "newton" per Newton iteration and
    "flow" every 5000 flow steps.
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
        # Newton strayed from a corner; the flow from each corner runs to
        # its extremal root, so polish the flow's limit instead
        found = []
        for z0 in corners:
            staged = _ode_root(pbar, model, z0, tol=1e-6, progress=progress)
            root = None if staged is None else _newton_root(pbar, model, staged,
                                                            progress=progress)
            if accepted(root):
                found.append(root)
    if not found:
        raise OnlyHomogeneousFound(
            "the flow from both coloring corners reached no accepted "
            "nonhomogeneous root despite a CERTIFIED eigenvalue condition")

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
