"""The DOP853 tableau inlined in patternq.ode against scipy's coefficients,
and the real-axis stability of the pair behind the step cap."""
import numpy as np
from scipy.integrate._ivp import dop853_coefficients as dop853

from patternq import ode


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_tableau_matches_scipy_bit_for_bit():
    assert len(ode._A) == dop853.N_STAGES - 1
    for s, row in enumerate(ode._A, start=1):
        assert np.array_equal(_bits(row), _bits(dop853.A[s, :s])), s
    assert np.array_equal(_bits(ode._B), _bits(dop853.B))
    # scipy carries a thirteenth weight, on the derivative at the new state,
    # which is zero in both error estimates
    for ours, theirs in [(ode._E5, dop853.E5), (ode._E3, dop853.E3)]:
        assert np.array_equal(_bits(ours), _bits(theirs[:dop853.N_STAGES]))
        assert theirs[dop853.N_STAGES] == 0.0


def _stability_polynomial(z: np.ndarray) -> np.ndarray:
    """R(z) = 1 + z b.g, the stage values g_i = 1 + z sum_j a_ij g_j of
    y' = y, from the inlined tableau."""
    g = [np.ones_like(z)]
    for row in ode._A:
        g.append(1.0 + z * sum(a * gj for a, gj in zip(row, g)))
    return 1.0 + z * sum(b * gi for b, gi in zip(ode._B, g))


def test_step_cap_lies_inside_the_real_stability_interval():
    cap = ode._STABILITY_FACTOR
    assert cap == 5.0
    assert np.abs(_stability_polynomial(np.linspace(-cap, 0.0, 5001))).max() <= 1.0
    # decaying modes near the cap are damped hard, not just kept bounded
    assert np.abs(_stability_polynomial(np.linspace(-cap, -2.5, 1001))).max() <= 0.09
    # the real-axis limit is 6.39
    assert abs(_stability_polynomial(np.array([-6.39]))[0]) <= 1.0
    assert abs(_stability_polynomial(np.array([-6.40]))[0]) > 1.0
