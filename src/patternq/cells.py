"""Single-state inhibitory cell with a Hill-type static response.

The shipped cell integrates x' = (-x + T(u)) / tau with readout y = x, where
T(u) = A / (1 + (u/K)^h) is positive, bounded and strictly decreasing.  For
a constant input the state settles at T(u), so the static map of the cell is
T itself, and the linearized cell is a first-order low-pass whose peak gain
sits at zero frequency: the L2-gain equals the dc-gain |T'(z)| exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadOptions, NegativeInput

__all__ = ["HillMap", "FixedPoint", "t_eval", "t_prime", "max_slope",
           "fixed_point", "cell_rhs", "dc_gain"]


@dataclass(frozen=True)
class HillMap:
    """Decreasing Hill response A / (1 + (u/K)^h) with time constant tau.

    With amplitude 2 and threshold 1 the fixed point is exactly 1 and the
    slope magnitude there is h/2, so the exponent directly tunes the
    inhibition strength.
    """

    amplitude: float = 2.0
    threshold: float = 1.0
    exponent: float = 6.0
    tau: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.threshold,
                                       self.exponent, self.tau))):
            raise BadOptions("amplitude, threshold, exponent and tau must be finite")
        if self.amplitude <= 0 or self.threshold <= 0 or self.tau <= 0:
            raise BadOptions("amplitude, threshold and tau must be positive")
        if self.exponent < 1:
            raise BadOptions("exponent must be at least 1")

    @cached_property
    def _fixed_point(self) -> FixedPoint:
        # bisected on first read and kept on the instance (see fixed_point);
        # the midpoints are nonnegative, so the scalar response skips
        # t_eval's input checks and copy, and rounds as t_eval does
        lo, hi = 0.0, self.amplitude
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _hill(self, np.float64(mid)) - mid > 0:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        return FixedPoint(value=u, residual=float(abs(_hill(self, np.float64(u)) - u)))


def _hill(m: HillMap, u):
    """A / (1 + (u/K)^h) at inputs u >= 0, unchecked.

    u is a float array the caller owns, which is overwritten with the
    response and returned, or a numpy float scalar, which gives a scalar.
    The operations and their order are those of the plain expression: the
    power of an array and of a scalar may round differently, so each keeps
    its own kind.
    """
    u /= m.threshold
    u **= m.exponent
    u += 1.0
    return np.divide(m.amplitude, u, out=u if u.ndim else None)


def t_eval(m: HillMap, u) -> float | np.ndarray:
    """Hill response at u >= 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise NegativeInput("inputs must be nonnegative")
    val = _hill(m, u.copy() if u.ndim else u[()])
    return float(val) if val.ndim == 0 else val


def t_prime(m: HillMap, u) -> float | np.ndarray:
    """Derivative of the Hill response; strictly negative for u > 0 until
    it underflows to -0.0 far above K."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise NegativeInput("inputs must be nonnegative")
    q = u / m.threshold
    s = q ** m.exponent
    # (u/K)^(h-1) with 0^0 = 1 so the h = 1 slope at zero stays finite
    top = -(m.amplitude * m.exponent / m.threshold) * q ** (m.exponent - 1.0)
    bottom = (1.0 + s) ** 2
    if np.isinf(bottom).any():
        # far above K at a large h the numerator may overflow too; the slope
        # there is below (A h / K) 1e-154 in magnitude, not inf / inf = NaN
        top = np.where(np.isinf(top) & np.isinf(bottom), -0.0, top)
    val = top / bottom
    return float(val) if val.ndim == 0 else val


def max_slope(m: HillMap) -> float:
    """L = max over u >= 0 of |T'(u)|.

    With s = (u/K)^h, |T'| = (A h / K) s^((h-1)/h) / (1 + s)^2, which peaks
    at s = (h-1)/(h+1); at h = 1 that is u = 0, where |T'| = A/K.
    """
    h = m.exponent
    return float(-t_prime(m, m.threshold * ((h - 1.0) / (h + 1.0)) ** (1.0 / h)))


@dataclass(frozen=True)
class FixedPoint:
    value: float
    residual: float


def fixed_point(m: HillMap) -> FixedPoint:
    """Unique root of T(u) = u on (0, amplitude), located by bisection.

    T(0) = A > 0 and T(A) < A bracket the root; T(u) - u is strictly
    decreasing so the root is unique.  The bracket is collapsed to machine
    precision, leaving a residual below 1e-12.  The bisection runs once per
    HillMap instance, which keeps its root.
    """
    return m._fixed_point


def cell_rhs(m: HillMap, x, u):
    """State derivative (-x + T(u)) / tau of one cell."""
    return (-np.asarray(x, dtype=float) + t_eval(m, u)) / m.tau


def dc_gain(m: HillMap, z) -> float | np.ndarray:
    """Static gain |T'(z)| of the linearized cell at operating inputs z >= 0.

    For this first-order cell the L2-gain of the linearization equals the
    dc-gain, so this is the per-class gain used by the small-gain test.  It
    is -t_prime(m, z) bit for bit, finite at z = 0 (0 for h > 1, A/K at
    h = 1), and NegativeInput for any z < 0.
    """
    return -t_prime(m, z)
