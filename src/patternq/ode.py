"""Embedded DOP853 integration of a relaxation flow to rest.

The network flow x' = (-x + T(P x)) / tau that patternq integrates has
the Jacobian (-I + D P) / tau, with D a diagonal of slopes T' <= 0 and
the averaging operator P row-stochastic and similar to a symmetric matrix
through the degrees.  D P is then similar to a symmetric matrix too, so
its eigenvalues are real, and they are at most ||D|| rho(P) = L in
magnitude, with L the largest |T'(u)| over u >= 0 (cells.max_slope).  At
every state, every eigenvalue of the Jacobian lies in
[-(1 + L), L - 1] / tau.

The stepper is DOP853, the eighth-order explicit Runge-Kutta pair of
Dormand and Prince with the error estimate of Hairer, Norsett & Wanner
(Solving ODEs I, section II.5, and their Fortran code): 12 stages, whose
fifth- and third-order error estimates e5 and e3 combine into
err = |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2), each the max-norm of the
estimate scaled by atol + rtol max(|y|, |y_new|), and a step exponent
of -1/8.  At the tolerance the check asks for (rtol 1e-8) it takes about
a third of the steps of a fifth-order pair.

Error control alone does not settle such a flow: once the trajectory is
near a stable equilibrium the error estimate vanishes, the step grows to
the edge of the method's stability region, and the state hovers there a
few 1e-9 off the equilibrium instead of converging.  The step is therefore
capped at 5 tau / (1 + L), which keeps h lambda inside [-5, 0) for every
decaying mode, below the pair's real-axis stability limit of 6.39, where
its stability polynomial is at most 0.09 in magnitude on [-5, -2.5].
Inside the cap the step is chosen by the error control; the first attempt
is made at the cap.  Neither error estimate weighs the derivative at the
new state, so it is evaluated only once a step is accepted and projected,
and it is both the convergence test's derivative and the first stage of
the next step (FSAL): a rejected step costs 11 evaluations of the
right-hand side and an accepted one 12.  A step set far below the
error-controlled one (simulate --step) costs twice the evaluations per
unit of model time of a fifth-order pair.

Each stage derivative is the array rhs returned, kept as it is; every
stage state, the error scale and the two error estimates are formed in a
few arrays allocated once per run, and beyond what rhs returns a step
allocates only its new state, which callers may keep.  Each combination
y + (h a_1) k_1 + (h a_2) k_2 + ... is formed one product at a time and
added in stage order, so every rounding, and with it every trajectory,
is that of the plain left-to-right expression.  A reordered sum would move
the last bits of the states and step sizes, and at a tolerance boundary
the step counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import HillMap, max_slope

__all__ = ["Settled", "stable_step", "settle"]

# below the pair's real-axis stability limit of 6.39
_STABILITY_FACTOR = 5.0
# absolute tolerance per unit of conv_tol * tau, and the relative tolerance
_ATOL_PER_CONV = 1e-2
_RTOL = 1e-8
_SAFETY = 0.9
_GROW_MAX = 10.0
_SHRINK_MIN = 0.2

# DOP853 for an autonomous flow (Hairer, Norsett & Wanner's coefficients,
# rounded to the nearest double): the rows of stage weights for stages 2 to
# 12, the eighth-order weights, and the fifth- and third-order error
# weights.  The derivative at the new state has weight zero in both error
# estimates, so each has one weight per stage.
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
      0.04471061572777259)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082)


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
    """Step cap 5 tau / (1 + L); see the module docstring."""
    return _STABILITY_FACTOR * model.tau / (1.0 + max_slope(model))


def _combine(out: np.ndarray, y: np.ndarray | None, h: float, coeffs, ks,
             term: np.ndarray) -> np.ndarray:
    """out = y + (h a_1) k_1 + (h a_2) k_2 + ..., or (h a_1) k_1 + ... when
    y is None; terms with a zero weight are skipped.  Each product is formed
    in term and added in stage order, so the roundings are those of the
    plain left-to-right expression."""
    acc = y
    for a, k in zip(coeffs, ks):
        if a:
            if acc is None:
                np.multiply(k, h * a, out=out)
            else:
                np.add(acc, np.multiply(k, h * a, out=term), out=out)
            acc = out
    return out


def _scaled_norm(est: np.ndarray, scale: np.ndarray) -> float:
    """max |est / scale|, computed in est."""
    est /= scale
    return float(np.abs(est, out=est).max())


def _error_norm(e5: float, e3: float) -> float:
    """DOP853's combined error e5^2 / sqrt(e5^2 + 0.01 e3^2), zero when both
    estimates are; hypot keeps large estimates from overflowing, and a NaN
    estimate gives NaN."""
    denom = math.hypot(e5, 0.1 * e3)
    return 0.0 if denom == 0 else e5 * (e5 / denom)


def settle(rhs, y0: np.ndarray, model: HillMap, conv_tol: float, t_max: float,
           project, h_max: float, on_step=None) -> Settled:
    """Integrate y' = rhs(y) from y0 until max|y'| < conv_tol or t = t_max.

    Steps never exceed h_max (simulate passes stable_step(model) unless
    given a step) nor overrun t_max.  rhs(y) returns a new array each call,
    and must neither write into y nor keep it.  Each accepted state is a
    new array and passes through project(t, y), which returns the state to
    continue from (y itself when nothing changes, never y written into) and
    may raise.  on_step(k, t, y) is called at the start (k = 0) and after
    every accepted step, and may keep y.  The tolerances are derived from
    conv_tol and tau: atol = 1e-2 conv_tol tau and rtol = 1e-8, on the
    max-norm of each scaled error estimate.
    """
    atol = _ATOL_PER_CONV * conv_tol * model.tau
    y = np.array(y0, dtype=float)
    # the stage state, one product term and the error estimate, reused by
    # every step; ks holds the twelve stage derivatives as rhs returned
    # them, ks[0] the derivative at y
    stage, term, est = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    ks = [rhs(y)]
    t = 0.0
    steps = rejected = 0
    norm = float(np.abs(ks[0]).max())
    h = h_max
    if on_step is not None:
        on_step(0, t, y)
    while norm >= conv_tol and t < t_max:
        h = min(h, h_max, t_max - t)
        del ks[1:]
        for a in _A:
            ks.append(rhs(_combine(stage, y, h, a, ks, term)))
        y_new = _combine(np.empty_like(y), y, h, _B, ks, term)
        # scale = atol + rtol max(|y|, |y_new|), in stage
        np.maximum(np.abs(y, out=stage), np.abs(y_new, out=term), out=stage)
        stage *= _RTOL
        stage += atol
        e5 = _scaled_norm(_combine(est, None, h, _E5, ks, term), stage)
        e3 = _scaled_norm(_combine(est, None, h, _E3, ks, term), stage)
        err = _error_norm(e5, e3)
        if not err <= 1.0:
            rejected += 1
            h *= max(_SHRINK_MIN, _SAFETY * err ** -0.125) if math.isfinite(err) else _SHRINK_MIN
            continue
        t = t + h if t + h < t_max else t_max
        steps += 1
        y = project(t, y_new)
        ks.clear()
        ks.append(rhs(y))
        norm = float(np.abs(ks[0]).max())
        if on_step is not None:
            on_step(steps, t, y)
        h *= min(_GROW_MAX, _SAFETY * err ** -0.125) if err > 0 else _GROW_MAX
    return Settled(final_state=y, final_time=t, final_derivative_norm=norm,
                   converged=norm < conv_tol, steps=steps, rejected=rejected)
