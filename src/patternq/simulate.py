"""Full-network integration of the coupled inhibition dynamics.

The network state obeys x' = (-x + T(P x)) / tau: every cell relaxes toward
the inhibitory response to the weighted average of its neighbors' outputs.
integrate runs the adaptive DOP853 stepper of patternq.ode.  The bound
L = max |T'| puts the Jacobian's spectrum in [-(1 + L), L - 1] / tau, and
the step is capped at 5 tau / (1 + L), inside the pair's real-axis
stability limit of 6.39, so runs settle onto the equilibrium instead of
hovering at the edge of stability; trajectories stay inside the box
[0, A]^N.  integrate takes the averaging operator (a ScaledAdjacency, such
as QuotientModel.operator) and computes P x as its O(m) edge-array
product; no n x n matrix is built.  It returns the ode.Settled record of
where the flow came to rest and keeps no trajectory: a caller that wants
the accepted states passes on_step (the `simulate --trace` CSV thins them
to at most 10^4 rows).  verify_certificate takes the QuotientModel the
pattern was solved on and reads the pattern's certificate.  Each run logs
its accepted and rejected step counts, model time, final derivative norm
and convergence at INFO level on the "patternq.simulate" logger.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cells import HillMap, _hill
from .errors import BadOptions, NotConverged, StateOutOfBox
from .existence import CERTIFIED, PatternSolution, certify
from .graphs import ScaledAdjacency
from .ode import Settled, settle, stable_step
from .partitions import Partition, QuotientModel

__all__ = [
    "SimOptions",
    "EmpiricalPattern",
    "CertificateCheck",
    "integrate",
    "perturbed_start",
    "classify",
    "cluster_values",
    "grouping_tol",
    "verify_certificate",
]

LOG = logging.getLogger(__name__)

_BOX_SLOP_REL = 1e-7


@dataclass(frozen=True)
class SimOptions:
    """step is the largest step the integrator may take (the stability cap
    ode.stable_step(model) = 5 tau / (1 + L) when None); each step costs
    12 right-hand-side evaluations, so a step far below the
    error-controlled one takes twice the evaluations per unit time of a
    fifth-order pair.  max_time defaults to 1e4 tau."""

    step: float | None = None
    max_time: float | None = None
    conv_tol: float = 1e-9

    def resolved(self, model: HillMap) -> tuple[float, float, float]:
        """(largest step, max_time, conv_tol), each finite and positive."""
        step = stable_step(model) if self.step is None else self.step
        max_time = 1e4 * model.tau if self.max_time is None else self.max_time
        if not all(math.isfinite(v) and v > 0 for v in (step, max_time, self.conv_tol)):
            raise BadOptions("step, max_time and conv_tol must be finite and positive")
        if self.step is not None and step > max_time:
            raise BadOptions("step exceeds max_time")
        return step, max_time, self.conv_tol


def integrate(sa: ScaledAdjacency, model: HillMap, x0,
              opts: SimOptions | None = None, on_step=None) -> Settled:
    """Integrate from x0 until the derivative norm drops below conv_tol or
    max_time passes, and return where the flow came to rest.

    on_step(k, t, x) sees the start (k = 0) and every accepted state, each
    a new array it may keep (ode.settle).  States leaving [0, A] by more
    than float dust abort with StateOutOfBox (the exact flow never leaves
    the box, so an escape means the step is too large); dust-level
    excursions are clipped back.
    """
    opts = opts or SimOptions()
    step, max_time, conv_tol = opts.resolved(model)
    amp = model.amplitude
    x = np.array(x0, dtype=float)
    if x.shape != (sa.n,):
        raise BadOptions(f"x0 must have {sa.n} entries, got shape {x.shape}")
    if not np.all((x >= 0) & (x <= amp)):
        raise BadOptions(f"x0 must be finite and lie in [0, {amp}]")

    def rhs(state: np.ndarray) -> np.ndarray:
        # (-x + T(max(P x, 0))) / tau in the new array matvec returns;
        # intermediate stage states may poke below zero with large steps, the
        # neighbor average of nonnegative outputs never does, and the clamp
        # makes every input nonnegative, so t_eval's checks are skipped
        out = sa.matvec(state)
        out = _hill(model, np.maximum(out, 0.0, out=out))
        out -= state
        out /= model.tau
        return out

    slop = _BOX_SLOP_REL * amp

    def into_box(t: float, state: np.ndarray) -> np.ndarray:
        lo, hi = state.min(), state.max()
        if lo < -slop or hi > amp + slop:
            raise StateOutOfBox(
                f"state left [0, {amp}] at t={t:.3f}; reduce the step size")
        return state if 0.0 <= lo and hi <= amp else np.clip(state, 0.0, amp)

    # a step far above the error-controlled one (a large opts.step) forms
    # stage states far outside the box, where (u/K)^h may overflow to inf
    # and T to its exact limit 0; the error estimate rejects such a step
    with np.errstate(over="ignore"):
        rest = settle(rhs, x, model, conv_tol, max_time, into_box, step, on_step)
    LOG.info("%d steps, %d rejected, model time %.6g, final derivative norm "
             "%.3e, converged %s", rest.steps, rest.rejected, rest.final_time,
             rest.final_derivative_norm, rest.converged)
    return rest


def perturbed_start(model: HillMap, u_hom: float, direction, eps: float) -> np.ndarray:
    """Homogeneous state nudged by eps, finite and positive, along direction
    (max-norm normalized), clipped into [0, A]."""
    if not 0 < eps < math.inf:
        raise BadOptions(f"eps must be finite and positive, got {eps}")
    d = np.asarray(direction, dtype=float)
    scale = np.abs(d).max()
    if scale == 0:
        raise BadOptions("perturbation direction is zero")
    return np.clip(u_hom + eps * d / scale, 0.0, model.amplitude)


@dataclass(frozen=True)
class EmpiricalPattern:
    """Cells grouped by final value (descending), one value per group."""

    groups: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]


def grouping_tol(model: HillMap) -> float:
    """Gap between groups of settled states, 1e-4 A; simulate,
    verify_certificate and report --svg all group by it."""
    return 1e-4 * model.amplitude


def cluster_values(values: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Single-linkage clustering of values with a gap threshold.

    Walks the values in descending order and starts a new group wherever
    two neighbors differ by more than cluster_tol; returns each entry's
    group id, so ids ascend as values descend.
    """
    order = np.argsort(-values)
    gaps = -np.diff(values[order]) > cluster_tol
    group_of = np.empty(len(values), dtype=int)
    group_of[order] = np.concatenate([[0], np.cumsum(gaps)])
    return group_of


def classify(rest: Settled, cluster_tol: float) -> EmpiricalPattern:
    """Single-linkage clustering of final values with a gap threshold."""
    if not rest.converged:
        raise NotConverged("simulation did not converge; nothing to classify")
    final = rest.final_state
    group_of = cluster_values(final, cluster_tol)
    # group ids ascend as values descend, so each group is one run of the
    # descending order; its mean is taken over the run in that order
    runs = np.split(final[np.argsort(-final)], np.cumsum(np.bincount(group_of))[:-1])
    return EmpiricalPattern(groups=Partition(labels=group_of, r=len(runs)).classes,
                            values=tuple(float(np.mean(run)) for run in runs))


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of replaying a certificate through direct simulation."""

    match: bool
    exploratory: bool
    converged: bool
    max_deviation: float
    empirical: EmpiricalPattern | None
    note: str


def verify_certificate(qm: QuotientModel, model: HillMap,
                       pattern: PatternSolution, eps: float = 0.01) -> CertificateCheck:
    """Simulate from a perturbation along the lifted minimum eigenvector and
    compare the settled pattern with the predicted one.  Only the state
    where the run came to rest is read, and integrate keeps no other, so the
    check holds a few arrays of n floats at a time.

    A failure to match is reported, never raised: nothing guarantees the
    chosen start lies in the predicted pattern's basin.

    The start is constant on each class, and equitability keeps the flow in
    that class-constant subspace, so the check cannot see a transverse
    instability: on the buckyball faces at h = 6 it reports a match for a
    pattern whose full Jacobian is unstable.  Stability is decided by the
    stability routes, not here.  The check reads the certificate that
    solve_reduced put on the pattern, and certifies only a pattern that
    lift made from given class values.
    """
    cert = pattern.certificate or certify(qm, model)
    exploratory = cert.verdict != CERTIFIED
    direction = qm.partition.expand(cert.min_eigenvector)
    # orient the unstable direction toward the predicted pattern, otherwise
    # the run lands on the class-swapped twin
    if not pattern.homogeneous:
        toward = float(direction @ (pattern.cell_states - cert.fixed_point_value))
        if toward < 0:
            direction = -direction
    x0 = perturbed_start(model, cert.fixed_point_value, direction, eps)
    rest = integrate(qm.operator, model, x0)
    if not rest.converged:
        return CertificateCheck(
            match=False, exploratory=exploratory, converged=False,
            max_deviation=float("nan"), empirical=None,
            note="simulation hit max_time before converging")
    empirical = classify(rest, cluster_tol=grouping_tol(model))
    # the grouping is the partition when both list the same vertex sets;
    # each lists a group as an ascending tuple
    same_grouping = set(empirical.groups) == set(qm.partition.classes)
    deviation = float(np.abs(rest.final_state - pattern.cell_states).max())
    if exploratory:
        note = "no certificate; simulation exploratory only"
    elif same_grouping:
        note = "simulated grouping matches the partition"
    else:
        note = "NO_MATCH: simulation settled on a different grouping"
    return CertificateCheck(
        match=same_grouping,
        exploratory=exploratory,
        converged=True,
        max_deviation=deviation,
        empirical=empirical,
        note=note,
    )
