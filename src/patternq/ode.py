"""Embedded Dormand-Prince 5(4) integration of a relaxation flow to rest.

Both flows patternq integrates, the network x' = (-x + T(P x)) / tau and
the reduced z' = (-z + Pbar T(z)) / tau, have a Jacobian of the form
(-I + D P) / tau or (-I + P D) / tau, with D a diagonal of slopes T' <= 0
and P row-stochastic and similar to a symmetric matrix through the
degrees (the averaging operator P, or the quotient Pbar).  D P and P D are
then similar to symmetric matrices too, so their eigenvalues are real,
and they are at most ||D|| rho(P) = L in magnitude, with L the largest
|T'(u)| over u >= 0 (cells.max_slope).  At every state, every eigenvalue
of the Jacobian lies in [-(1 + L), L - 1] / tau.

Error control alone does not settle such a flow: once the trajectory is
near a stable equilibrium the error estimate vanishes, the step grows to
the edge of the method's stability region, and the state hovers there a
few 1e-9 off the equilibrium instead of converging.  The step is therefore
capped at 2.5 tau / (1 + L), which keeps h lambda inside [-2.5, 0) for
every decaying mode, below the real-axis stability limit of the
Dormand-Prince pair (about 3.3; Hairer & Wanner, Solving ODEs II, section
IV.2).  Inside the cap the step is chosen by the usual error control
(Dormand & Prince, J. Comput. Appl. Math. 6, 1980), with the last stage of
a step reused as the first of the next (FSAL) whenever the projection of
the accepted state left it unchanged.

The seven stage derivatives live in one (7, n) array, and every stage
state, the error scale and the error estimate are formed in a few arrays
allocated once per run; beyond what rhs returns, a step allocates only its
accepted state, which callers may keep.  Each combination
y + (h a_1) k_1 + (h a_2) k_2 + ... is still formed one product at a time
and added in stage order, so every rounding, and with it every trajectory,
is that of the plain left-to-right expression.  A reordered sum would move
the last bits of the states and step sizes, and at a tolerance boundary
the step counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import HillMap, max_slope

__all__ = ["Settled", "stable_step", "settle"]

# below the pair's real-axis stability limit of about 3.3
_STABILITY_FACTOR = 2.5
# absolute tolerance per unit of conv_tol * tau, and the relative tolerance
_ATOL_PER_CONV = 1e-2
_RTOL = 1e-8
_SAFETY = 0.9
_GROW_MAX = 10.0
_SHRINK_MIN = 0.2

# Dormand & Prince (1980) for an autonomous flow: stage weights, fifth-order
# weights, and fifth- minus fourth-order weights (7 stages, the last FSAL)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass(frozen=True)
class Settled:
    """Where a flow came to rest: the last accepted state and its derivative
    norm, the model time reached, whether the norm fell below the
    tolerance, and the accepted and rejected step counts."""

    final_state: np.ndarray
    final_time: float
    final_derivative_norm: float
    converged: bool
    steps: int
    rejected: int


def stable_step(model: HillMap) -> float:
    """Step cap 2.5 tau / (1 + L); see the module docstring."""
    return _STABILITY_FACTOR * model.tau / (1.0 + max_slope(model))


def _combine(out: np.ndarray, y: np.ndarray | None, h: float, coeffs, ks,
             term: np.ndarray) -> np.ndarray:
    """out = y + (h a_1) k_1 + (h a_2) k_2 + ..., zero in place of y when y
    is None; terms with a zero weight are skipped.  Each product is formed
    in term and added to out in stage order, so the roundings are those of
    the plain left-to-right expression."""
    if y is None:
        out.fill(0.0)
    else:
        np.copyto(out, y)
    for a, k in zip(coeffs, ks):
        if a:
            np.multiply(k, h * a, out=term)
            out += term
    return out


def settle(rhs, y0: np.ndarray, model: HillMap, conv_tol: float, t_max: float,
           project, h_max: float | None = None, on_step=None) -> Settled:
    """Integrate y' = rhs(y) from y0 until max|y'| < conv_tol or t = t_max.

    Steps never exceed h_max (stable_step(model) when None) nor overrun
    t_max.  rhs(y) must neither write into y nor keep it.  Each accepted
    state is a new array and passes through project(t, y), which returns
    the state to continue from (y itself when nothing changes, never y
    written into) and may raise.  on_step(k, t, y) is called at the start
    (k = 0) and after every accepted step, and may keep y.  The tolerances
    are derived from conv_tol and tau: atol = 1e-2 conv_tol tau and
    rtol = 1e-8, on the max-norm of the embedded error estimate.
    """
    h_max = stable_step(model) if h_max is None else h_max
    atol = _ATOL_PER_CONV * conv_tol * model.tau
    y = np.array(y0, dtype=float)
    # the seven stage derivatives (row 0 the FSAL one), the stage state,
    # one product term and the error estimate, reused by every step
    ks = list(np.empty((7,) + y.shape))
    stage, term, err_est = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    t = 0.0
    steps = rejected = 0
    ks[0][...] = rhs(y)
    norm = float(np.abs(ks[0]).max())
    h = h_max
    if on_step is not None:
        on_step(0, t, y)
    while norm >= conv_tol and t < t_max:
        h = min(h, h_max, t_max - t)
        for s, a in enumerate(_A, start=1):
            ks[s][...] = rhs(_combine(stage, y, h, a, ks, term))
        y_new = _combine(np.empty_like(y), y, h, _B, ks, term)
        ks[6][...] = rhs(y_new)
        # scale = atol + rtol max(|y|, |y_new|), in stage
        np.maximum(np.abs(y, out=stage), np.abs(y_new, out=term), out=stage)
        stage *= _RTOL
        stage += atol
        _combine(err_est, None, h, _E, ks, term)
        err_est /= stage
        err = float(np.abs(err_est, out=err_est).max())
        if not err <= 1.0:
            rejected += 1
            h *= max(_SHRINK_MIN, _SAFETY * err ** -0.2) if np.isfinite(err) else _SHRINK_MIN
            continue
        t = t + h if t + h < t_max else t_max
        steps += 1
        y = project(t, y_new)
        ks[0][...] = ks[6] if y is y_new or np.array_equal(y, y_new) else rhs(y)
        norm = float(np.abs(ks[0]).max())
        if on_step is not None:
            on_step(steps, t, y)
        h *= min(_GROW_MAX, _SAFETY * err ** -0.2) if err > 0 else _GROW_MAX
    return Settled(final_state=y, final_time=t, final_derivative_norm=norm,
                   converged=norm < conv_tol, steps=steps, rejected=rejected)
