"""Single-state inhibitory cell with a Hill-type static response.

The shipped cell integrates x' = (-x + T(u)) / tau with readout y = x, where
T(u) = A / (1 + (u/K)^h) is positive, bounded and strictly decreasing.  For
a constant input the state settles at T(u), so the static map of the cell is
T itself, and the linearized cell is a first-order low-pass whose peak gain
sits at zero frequency: the L2-gain equals the dc-gain |T'(z)| exactly.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadOptions, NegativeInput, NonpositiveOperatingPoint

__all__ = ["HillMap", "FixedPoint", "t_eval", "t_prime", "max_slope",
           "fixed_point", "cell_rhs", "dc_gain", "model_from_dict",
           "model_to_dict", "load_model"]


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
        # bisected on first read and kept on the instance (see fixed_point)
        lo, hi = 0.0, self.amplitude
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if t_eval(self, mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        return FixedPoint(value=u, residual=abs(t_eval(self, u) - u))


def t_eval(m: HillMap, u) -> float | np.ndarray:
    """Hill response at u >= 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise NegativeInput("inputs must be nonnegative")
    val = m.amplitude / (1.0 + (u / m.threshold) ** m.exponent)
    return float(val) if val.ndim == 0 else val


def t_prime(m: HillMap, u) -> float | np.ndarray:
    """Derivative of the Hill response; strictly negative for u > 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise NegativeInput("inputs must be nonnegative")
    s = (u / m.threshold) ** m.exponent
    # (u/K)^(h-1) with 0^0 = 1 so the h = 1 slope at zero stays finite
    lead = (u / m.threshold) ** (m.exponent - 1.0)
    val = -(m.amplitude * m.exponent / m.threshold) * lead / (1.0 + s) ** 2
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


def dc_gain(m: HillMap, z: float) -> float:
    """Static gain |T'(z)| of the linearized cell at operating input z > 0.

    For this first-order cell the L2-gain of the linearization equals the
    dc-gain, so this is the per-class gain used by the small-gain test.
    """
    if z <= 0:
        raise NonpositiveOperatingPoint(f"operating input must be positive, got {z}")
    return float(-t_prime(m, z))


# ---- model file format: {"A": ..., "K": ..., "h": ..., "tau": ...} ----

def _number_field(data: dict, key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadOptions(f"model field {key!r} must be a number")
    return float(value)


def model_from_dict(data: dict) -> HillMap:
    return HillMap(
        amplitude=_number_field(data, "A", 2.0),
        threshold=_number_field(data, "K", 1.0),
        exponent=_number_field(data, "h", 6.0),
        tau=_number_field(data, "tau", 1.0),
    )


def model_to_dict(m: HillMap) -> dict:
    return {"A": m.amplitude, "K": m.threshold, "h": m.exponent, "tau": m.tau}


def load_model(path) -> HillMap:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise BadOptions(f"{path} must hold a JSON object of model parameters")
    return model_from_dict(data)
