import math

import numpy as np
import pytest

from patternq.cells import (
    HillMap,
    cell_rhs,
    dc_gain,
    fixed_point,
    t_eval,
    t_prime,
)
from patternq.errors import BadOptions, NegativeInput
from patternq.serialize import model_from_dict, model_to_dict


def test_response_at_threshold():
    m = HillMap(amplitude=2, threshold=1, exponent=6)
    assert t_eval(m, 1.0) == 1.0


def test_slope_at_threshold_closed_form():
    # T'(K) = -A h / (4 K)
    assert t_prime(HillMap(2, 1, 6), 1.0) == -3.0
    assert t_prime(HillMap(2, 1, 4), 1.0) == -2.0
    assert abs(t_prime(HillMap(3, 2, 5), 2.0) - (-3 * 5 / 8)) < 1e-15


def test_rejects_negative_input():
    m = HillMap()
    with pytest.raises(NegativeInput):
        t_eval(m, -0.1)
    with pytest.raises(NegativeInput):
        t_prime(m, -0.1)


def test_slope_matches_finite_differences():
    m = HillMap(amplitude=2, threshold=1, exponent=6)
    for u in np.logspace(-3, 3, 25):
        h = 1e-6 * u
        fd = (t_eval(m, u + h) - t_eval(m, u - h)) / (2 * h)
        assert abs(t_prime(m, u) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_monotone_decreasing_and_bounded():
    rng = np.random.default_rng(0)
    m = HillMap(amplitude=1.5, threshold=0.7, exponent=3)
    for _ in range(200):
        u, v = np.sort(rng.uniform(0, 50, size=2))
        if u == v:
            continue
        assert t_eval(m, u) > t_eval(m, v)
    us = rng.uniform(0, 100, size=100)
    vals = t_eval(m, us)
    assert np.all(vals > 0) and np.all(vals <= m.amplitude)


def test_fixed_point_symmetric_family():
    # amplitude 2, threshold 1 pins the fixed point at exactly 1 for every h
    for h in (1, 2, 4, 6, 8):
        fp = fixed_point(HillMap(2, 1, h))
        assert abs(fp.value - 1.0) < 1e-14
        assert fp.residual < 1e-12


def test_fixed_point_cubic_case():
    # u (1 + u^2) = 1
    m = HillMap(amplitude=1, threshold=1, exponent=2)
    fp = fixed_point(m)
    assert abs(fp.value * (1 + fp.value ** 2) - 1.0) < 1e-12
    assert fp.residual < 1e-12


def test_fixed_point_quadratic_case():
    # u + u^2 = 10 -> u = (-1 + sqrt(41)) / 2
    fp = fixed_point(HillMap(amplitude=10, threshold=1, exponent=1))
    assert abs(fp.value - (-1 + math.sqrt(41)) / 2) < 1e-12


def test_fixed_point_unique_sign_change():
    m = HillMap(amplitude=3.0, threshold=0.8, exponent=5)
    grid = np.linspace(0, m.amplitude, 20001)
    vals = t_eval(m, grid) - grid
    changes = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
    assert changes == 1


def test_cell_rhs_steady_state_and_origin():
    m = HillMap(amplitude=2, threshold=1, exponent=6, tau=0.5)
    u = 0.73
    assert cell_rhs(m, t_eval(m, u), u) == 0.0
    assert cell_rhs(m, 0.0, 0.0) == m.amplitude / m.tau


def test_cell_relaxes_exponentially_to_static_value():
    m = HillMap(amplitude=2, threshold=1, exponent=6, tau=2.0)
    u = 0.4
    target = t_eval(m, u)
    x0 = 0.1
    # integrate the single cell and compare with the closed-form solution
    step = 1e-3
    x = x0
    checkpoints = {1.0: None, 3.0: None, 6.0: None}
    t = 0.0
    while t < 6.0 - 1e-12:
        k1 = cell_rhs(m, x, u)
        k2 = cell_rhs(m, x + 0.5 * step * k1, u)
        k3 = cell_rhs(m, x + 0.5 * step * k2, u)
        k4 = cell_rhs(m, x + step * k3, u)
        x = x + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += step
        for cp in checkpoints:
            if checkpoints[cp] is None and t >= cp - 1e-12:
                checkpoints[cp] = x
    for cp, val in checkpoints.items():
        exact = target + (x0 - target) * math.exp(-cp / m.tau)
        assert abs(val - exact) < 1e-10


@pytest.mark.parametrize("amplitude,threshold,exponent", [(2, 1, 1015), (10, 0.1, 154),
                                                          (2, 1, 5000)])
def test_slope_is_negative_zero_where_both_parts_overflow(amplitude, threshold, exponent):
    # at u = A, (A h / K)(u/K)^(h-1) and (1 + (u/K)^h)^2 both overflow to inf
    m = HillMap(amplitude=amplitude, threshold=threshold, exponent=exponent)
    with np.errstate(over="ignore"):
        slope = t_prime(m, amplitude)
        slopes = t_prime(m, [np.nan, amplitude, threshold, math.inf])
    assert slope == 0.0 and math.copysign(1.0, slope) == -1.0
    assert np.isnan(slopes[0]) and np.all(np.signbit(slopes[1:]))
    assert slopes[1] == slopes[3] == 0.0
    assert slopes[2] == -amplitude * exponent / (4 * threshold)


def test_dc_gain_values():
    m = HillMap(2, 1, 6)
    assert dc_gain(m, 1.0) == 3.0
    assert dc_gain(m, 1e6) < 1e-20  # saturation kills the gain
    # |T'(0)| is finite: 0 for h > 1 and A/K at h = 1; only z < 0 is refused
    assert dc_gain(m, 0.0) == 0.0
    assert dc_gain(HillMap(2, 0.5, 1), 0.0) == 4.0
    assert np.array_equal(dc_gain(m, np.array([0.0, 1.0])), [0.0, 3.0])
    with pytest.raises(NegativeInput):
        dc_gain(m, -1e-300)


def test_model_parameter_validation():
    with pytest.raises(BadOptions):
        HillMap(amplitude=-1)
    with pytest.raises(BadOptions):
        HillMap(exponent=0.5)
    with pytest.raises(BadOptions):
        HillMap(tau=0.0)


def test_model_dict_round_trip():
    m = HillMap(amplitude=2.5, threshold=0.9, exponent=7, tau=1.5)
    assert model_from_dict(model_to_dict(m)) == m
    assert model_to_dict(m) == {"A": 2.5, "K": 0.9, "h": 7.0, "tau": 1.5}
