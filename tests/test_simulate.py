import tracemalloc

import numpy as np
import pytest

from patternq.cells import HillMap, fixed_point
from patternq.errors import BadOptions, NotConverged, StateOutOfBox
from patternq.existence import certify, lift, solve_reduced
from patternq.graphs import build_graph, scaled_adjacency, torus_mesh, triangle_bridge
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    make_partition,
    quotient,
    tile_partition,
)
from patternq.graphs import hex_torus
from patternq import simulate
from patternq.simulate import (
    SimOptions,
    classify,
    cluster_values,
    integrate,
    perturbed_start,
    verify_certificate,
)

from helpers import max_within_class_spread, two_cycle_oracle


def test_equilibrium_start_stays_put():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    u_star = fixed_point(m).value
    rest = integrate(scaled_adjacency(g), m, np.full(g.n, u_star))
    assert rest.converged
    assert rest.final_time == 0.0
    assert np.abs(rest.final_state - u_star).max() < 1e-12


def test_lifted_pattern_is_an_equilibrium():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    pat = lift(qm, red.class_values, m)
    rest = integrate(scaled_adjacency(g), m, pat.cell_states, SimOptions(max_time=50.0))
    assert np.abs(rest.final_state - pat.cell_states).max() < 1e-8


def test_two_cells_settle_on_the_two_cycle():
    g = build_graph(2, [(0, 1, 1.0)])
    m = HillMap(exponent=6)
    u_star = fixed_point(m).value
    rest = integrate(scaled_adjacency(g), m, np.array([u_star + 0.01, u_star - 0.01]))
    assert rest.converged
    z_hi, z_lo = two_cycle_oracle(m)
    # cell 0 started high and wins the inhibition race
    assert abs(rest.final_state[0] - z_hi) < 1e-6
    assert abs(rest.final_state[1] - z_lo) < 1e-6


def test_trajectories_stay_in_the_box():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    rng = np.random.default_rng(2)
    states = []
    integrate(scaled_adjacency(g), m, rng.uniform(0.0, m.amplitude, size=g.n),
              on_step=lambda k, t, x: states.append(x))
    assert np.min(states) >= 0.0
    assert np.max(states) <= m.amplitude


def test_blowup_raises_state_out_of_box(monkeypatch):
    # a response far above A drives the state out of the box within a step
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    monkeypatch.setattr(simulate, "_hill", lambda model, u: np.full(len(u), 10.0))
    x0 = np.random.default_rng(3).uniform(0.2, 1.8, size=g.n)
    with pytest.raises(StateOutOfBox):
        integrate(scaled_adjacency(g), m, x0)


def test_large_step_cap_still_converges_in_the_box():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    x0 = np.random.default_rng(3).uniform(0.2, 1.8, size=g.n)
    states = []
    rest = integrate(scaled_adjacency(g), m, x0, SimOptions(step=40.0, max_time=400.0),
                     lambda k, t, x: states.append(x))
    assert rest.converged
    assert np.min(states) >= 0.0 and np.max(states) <= m.amplitude


def test_integrate_validates_inputs():
    g = torus_mesh(4, 4)
    m = HillMap()
    with pytest.raises(BadOptions):
        integrate(scaled_adjacency(g), m, np.zeros(3))
    with pytest.raises(BadOptions):
        integrate(scaled_adjacency(g), m, np.full(g.n, -0.1))
    with pytest.raises(BadOptions):
        integrate(scaled_adjacency(g), m, np.ones(g.n), SimOptions(step=-1.0))
    with pytest.raises(BadOptions):
        integrate(scaled_adjacency(g), m, np.ones(g.n), SimOptions(step=2.0, max_time=1.0))


@pytest.mark.parametrize("x0,opts", [
    ([np.nan] + [1.0] * 15, SimOptions()),
    ([1.0] * 16, SimOptions(conv_tol=float("nan"))),
    ([1.0] * 16, SimOptions(step=float("nan"))),
    ([1.0] * 16, SimOptions(max_time=float("nan"))),
    ([1.0] * 16, SimOptions(max_time=float("inf"))),
])
def test_integrate_rejects_non_finite_inputs(x0, opts):
    g = torus_mesh(4, 4)
    with pytest.raises(BadOptions, match="finite"):
        integrate(scaled_adjacency(g), HillMap(), np.array(x0), opts)


def test_perturbed_start_shapes_and_clipping():
    m = HillMap(exponent=6)
    d = np.array([2.0, -1.0, 0.5])
    x0 = perturbed_start(m, 1.0, d, 0.01)
    assert np.abs(x0 - (1.0 + 0.01 * d / 2.0)).max() < 1e-15
    clipped = perturbed_start(m, 1.99, np.array([1.0, -1.0]), 0.5)
    assert clipped[0] == m.amplitude  # clipped at the top of the box
    with pytest.raises(BadOptions):
        perturbed_start(m, 1.0, np.zeros(3), 0.01)


def test_classify_single_group_for_homogeneous_final():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=1.5)
    rng = np.random.default_rng(4)
    x0 = perturbed_start(m, fixed_point(m).value, rng.standard_normal(g.n), 0.01)
    rest = integrate(scaled_adjacency(g), m, x0)
    assert rest.converged
    emp = classify(rest, cluster_tol=1e-4 * m.amplitude)
    assert len(emp.groups) == 1
    assert abs(emp.values[0] - fixed_point(m).value) < 1e-6


def test_classify_checkerboard_groups_match_bipartition():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    cert = certify(quotient(g, pi), m)
    x0 = perturbed_start(m, cert.fixed_point_value, pi.expand(cert.min_eigenvector), 0.01)
    rest = integrate(scaled_adjacency(g), m, x0)
    emp = classify(rest, cluster_tol=1e-4 * m.amplitude)
    assert {frozenset(grp) for grp in emp.groups} == {frozenset(c) for c in pi.classes}
    assert emp.values[0] > emp.values[1]


def test_cluster_values_single_linkage_in_descending_order():
    values = np.array([0.5, 2.0, 1.0, 0.52, 1.99, 0.48])
    # 2.0 and 1.99 chain; 0.52, 0.5 and 0.48 chain by steps of 0.02
    assert cluster_values(values, 0.025).tolist() == [2, 0, 1, 2, 0, 2]
    assert cluster_values(values, 0.015).tolist() == [3, 0, 1, 2, 0, 4]
    assert cluster_values(np.array([1.0]), 0.1).tolist() == [0]


def test_classify_requires_convergence():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    rest = integrate(scaled_adjacency(g), m, np.full(g.n, 0.5), SimOptions(max_time=0.05))
    assert not rest.converged
    with pytest.raises(NotConverged):
        classify(rest, 1e-4)


@pytest.mark.parametrize("g,pi", [
    (torus_mesh(4, 4), None),
    (triangle_bridge(), make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)),
    (hex_torus(6, 6), tile_partition(6, 6, MOTIFS["diag3"])),
])
def test_class_constant_states_stay_class_constant(g, pi):
    if pi is None:
        pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    rng = np.random.default_rng(8)
    x0 = pi.expand(rng.uniform(0.2, 1.8, size=pi.r))
    states = []
    integrate(scaled_adjacency(g), m, x0, SimOptions(max_time=200.0),
              lambda k, t, x: states.append(x))
    assert max_within_class_spread(np.array(states), pi) < 1e-9


def test_step_halving_changes_little():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    cert = certify(quotient(g, pi), m)
    x0 = perturbed_start(m, cert.fixed_point_value, pi.expand(cert.min_eigenvector), 0.01)
    t1 = integrate(scaled_adjacency(g), m, x0, SimOptions(step=0.01))
    t2 = integrate(scaled_adjacency(g), m, x0, SimOptions(step=0.005))
    assert np.abs(t1.final_state - t2.final_state).max() < 1e-8


def test_stable_pattern_recovers_from_small_kick():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    pat = lift(qm, red.class_values, m)
    rng = np.random.default_rng(5)
    kick = 1e-3 * rng.standard_normal(g.n)
    x0 = np.clip(pat.cell_states + kick, 0.0, m.amplitude)
    rest = integrate(scaled_adjacency(g), m, x0)
    assert np.abs(rest.final_state - pat.cell_states).max() < 1e-6


def test_unstable_homogeneous_state_departs():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    u_star = fixed_point(m).value
    rng = np.random.default_rng(6)
    x0 = perturbed_start(m, u_star, rng.standard_normal(g.n), 1e-3)
    rest = integrate(scaled_adjacency(g), m, x0)
    assert rest.converged
    assert np.abs(rest.final_state - u_star).max() > 1e-1


def test_verify_certificate_checkerboard():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    pat = lift(qm, red.class_values, m)
    chk = verify_certificate(qm, m, pat)
    assert chk.match and chk.converged and not chk.exploratory
    assert chk.max_deviation < 1e-6


def test_verify_certificate_settles_in_few_steps(monkeypatch):
    # the eighth-order pair at rtol 1e-8 took 31 accepted and 8 rejected
    # steps here; the fifth-order pair it replaced took 109 and 1
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(simulate, "integrate", recorded)
    g = torus_mesh(16, 16)
    m = HillMap(exponent=6)
    qm = quotient(g, bipartition_partition(g))
    chk = verify_certificate(qm, m, solve_reduced(qm, m), eps=0.01)
    assert chk.match and chk.converged
    (rest,) = runs
    assert rest.steps + rest.rejected <= 45, (rest.steps, rest.rejected)


def test_verify_certificate_inconclusive_is_exploratory():
    g = hex_torus(6, 6)
    pi = tile_partition(6, 6, MOTIFS["col3"])
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)  # homogeneous, warned
    pat = lift(qm, red.class_values, m)
    chk = verify_certificate(qm, m, pat)
    assert chk.exploratory and not chk.match
    assert "exploratory" in chk.note


def test_verify_certificate_stable_homogeneous_single_group():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=1.5)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    pat = lift(qm, red.class_values, m)
    chk = verify_certificate(qm, m, pat)
    assert chk.exploratory and chk.converged
    assert len(chk.empirical.groups) == 1 and not chk.match
    assert abs(chk.empirical.values[0] - fixed_point(m).value) < 1e-6


def test_verify_certificate_keeps_no_trajectory():
    # the 128x128 checkerboard settles in 39 attempted steps of 16384 cells:
    # kept states would cost 128 kB each, the check itself a few arrays
    g = torus_mesh(128, 128)
    m = HillMap(exponent=6)
    qm = quotient(g, bipartition_partition(g))
    pat = solve_reduced(qm, m)
    tracemalloc.start()
    try:
        chk = verify_certificate(qm, m, pat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.match and chk.converged
    assert peak < 10e6, peak
