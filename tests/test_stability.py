import tracemalloc

import numpy as np
import pytest

from patternq.cells import HillMap, dc_gain, fixed_point, t_prime
from patternq.errors import NotSteadyState
from patternq.existence import solve_reduced
from patternq.graphs import (
    ScaledAdjacency,
    build_graph,
    buckyball,
    hex_torus,
    scaled_adjacency,
    torus_mesh,
    triangle_bridge,
)
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    block_decompose,
    buckyball_face_partition,
    make_partition,
    quotient,
    singleton_partition,
    tile_partition,
)
from patternq.stability import (
    CERTIFIED_STABLE,
    MARGINAL,
    NOT_CERTIFIED,
    STABLE,
    UNSTABLE,
    block_stability,
    full_jacobian_stability,
    small_gain,
    stability_report,
)

from helpers import dense_averaging, m_matrix_by_leading_minors


def _hom(g, m):
    return np.full(g.n, fixed_point(m).value)


# ---- direct Jacobian route ----

def test_homogeneous_state_unstable_at_strong_inhibition():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)  # slope magnitude 3
    res = full_jacobian_stability(scaled_adjacency(g), m, _hom(g, m))
    assert res.verdict == UNSTABLE
    # the most negative averaging eigenvalue is -1 on a bipartite graph,
    # so the abscissa is -1 + 3 = 2
    assert abs(res.abscissa - 2.0) < 1e-9


def test_homogeneous_state_stable_at_weak_inhibition():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=1.5)  # slope magnitude 0.75
    res = full_jacobian_stability(scaled_adjacency(g), m, _hom(g, m))
    assert res.verdict == STABLE
    assert abs(res.abscissa - (-1.0 + 0.75)) < 1e-9


def test_homogeneous_state_marginal_at_unit_slope():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=2)
    res = full_jacobian_stability(scaled_adjacency(g), m, _hom(g, m))
    assert res.verdict == MARGINAL


def test_checkerboard_verdict_tracks_slope_product():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    for h in (4, 6, 8):
        m = HillMap(exponent=h)
        qm = quotient(g, pi)
        red = solve_reduced(qm, m)
        u = pi.expand(red.class_values)
        res = full_jacobian_stability(scaled_adjacency(g), m, u)
        product = float(t_prime(m, red.class_values[0])
                        * t_prime(m, red.class_values[1]))
        assert (res.verdict == STABLE) == (product < 1.0)
        # bipartite closed form: abscissa = -1 + sqrt(t1 t2)
        assert abs(res.abscissa - (-1.0 + np.sqrt(product))) < 1e-9


def test_full_stability_rejects_non_steady_pattern():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    with pytest.raises(NotSteadyState):
        full_jacobian_stability(scaled_adjacency(g), m, np.linspace(0.1, 1.9, g.n))


# ---- block route ----

def test_block_singleton_partition_is_degenerate():
    g = build_graph(2, [(0, 1, 1.0)])
    m = HillMap(exponent=6)
    dec = block_decompose(quotient(g, singleton_partition(2)))
    blk = block_stability(dec, m, np.full(2, 1.0))
    full = full_jacobian_stability(scaled_adjacency(g), m, _hom(g, m))
    assert blk.transverse_spectrum.size == 0
    assert np.abs(np.sort(blk.representative_spectrum)
                  - np.sort(full.spectrum.eigenvalues)).max() < 1e-12


def test_block_homogeneous_representative_spectrum_closed_form():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    pi = bipartition_partition(g)
    dec = block_decompose(quotient(g, pi))
    z = np.full(2, fixed_point(m).value)
    blk = block_stability(dec, m, z)
    t = t_prime(m, 1.0)
    assert np.abs(np.sort(blk.representative_spectrum)
                  - np.sort([-1.0 + t, -1.0 - t])).max() < 1e-9


def _pattern_cases():
    g_t = torus_mesh(4, 4)
    g_h = hex_torus(6, 6)
    return [
        (g_t, bipartition_partition(g_t), 6),
        (g_t, tile_partition(4, 4, MOTIFS["domino"]), 6),
        (buckyball(), buckyball_face_partition(), 6),
        (g_h, tile_partition(6, 6, MOTIFS["diag3"]), 6),
        (triangle_bridge(), make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8), 6),
    ]


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_block_union_matches_full_spectrum(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    dec = block_decompose(qm)
    blk = block_stability(dec, m, red.class_values)
    assert blk.consistency < 1e-8
    # the two block spectra together are a dense solve of the full Jacobian
    slopes = t_prime(m, pi.expand(red.class_values))
    dense = np.linalg.eigvals(-np.eye(g.n) + slopes[:, None] * dense_averaging(g))
    union = np.concatenate([blk.representative_spectrum, blk.transverse_spectrum])
    assert np.abs(dense.imag).max() < 1e-8
    assert np.abs(np.sort(dense.real) - np.sort(union)).max() < 1e-8


def test_block_exact_when_slopes_underflow():
    # at h = 40 the checkerboard's low class sits near 1e-12, where the slope
    # underflows to zero and the high class's slope is about -4e-11: every
    # Jacobian eigenvalue is -1, and both routes must say so exactly
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=40)
    qm = quotient(g, pi)
    z = solve_reduced(qm, m).class_values
    assert 0.0 in t_prime(m, z)
    blk = block_stability(block_decompose(qm), m, z)
    assert np.array_equal(blk.representative_spectrum, np.full(2, -1.0))
    assert np.array_equal(blk.transverse_spectrum, np.full(14, -1.0))
    full = full_jacobian_stability(scaled_adjacency(g), m, pi.expand(z))
    assert full.abscissa == -1.0 and full.verdict == STABLE


# ---- small-gain route ----

def test_small_gain_bipartite_is_geometric_mean():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    sg = small_gain(qm, m, red.class_values)
    g1, g2 = sg.gains.class_gains
    assert abs(sg.rho_reduced - np.sqrt(g1 * g2)) < 1e-10
    assert abs(sg.rho_full - sg.rho_reduced) < 1e-9
    assert sg.verdict == CERTIFIED_STABLE
    assert (g1 * g2 < 1.0)


def test_small_gain_homogeneous_unit_slope_is_marginal():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=2)  # dc-gain exactly 1 at the fixed point
    z = np.full(2, fixed_point(m).value)
    sg = small_gain(quotient(g, pi), m, z)
    assert abs(sg.rho_reduced - 1.0) < 1e-10
    assert sg.verdict == NOT_CERTIFIED


def test_small_gain_buckyball_pattern_is_not_certified():
    g = buckyball()
    pi = buckyball_face_partition()
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    sg = small_gain(qm, m, red.class_values)
    assert sg.rho_reduced > 1.0
    assert sg.verdict == NOT_CERTIFIED
    # and indeed the full Jacobian confirms the instability
    u = pi.expand(red.class_values)
    assert full_jacobian_stability(scaled_adjacency(g), m, u).verdict == UNSTABLE


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_small_gain_reduction_equality_and_soundness(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    sg = small_gain(qm, m, red.class_values)
    assert abs(sg.rho_full - sg.rho_reduced) < 1e-9
    # Perron vector of the full product is constant on classes
    v = sg.perron_full / np.abs(sg.perron_full).max()
    for cls in pi.classes:
        vals = v[list(cls)]
        assert vals.max() - vals.min() < 1e-8
    if sg.verdict == CERTIFIED_STABLE:
        u = pi.expand(red.class_values)
        assert full_jacobian_stability(scaled_adjacency(g), m, u).verdict == STABLE


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_small_gain_radii_match_dense_eigvals(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    sg = small_gain(qm, m, solve_reduced(qm, m).class_values)
    p = dense_averaging(g)
    p_gamma = p * sg.gains.cell_gains[None, :]
    dense_full = np.linalg.eigvals(p_gamma).real.max()
    dense_red = np.linalg.eigvals(qm.matrix * sg.gains.class_gains[None, :]).real.max()
    assert abs(sg.rho_full - dense_full) < 1e-12
    assert abs(sg.rho_reduced - dense_red) < 1e-12
    # the lifted Perron vector is a nonnegative eigenvector of P Gamma
    v = sg.perron_full
    assert v.min() >= 0 and abs(v.max() - 1.0) < 1e-15
    assert np.abs(p_gamma @ v - sg.rho_reduced * v).max() < 1e-12


def test_small_gain_zero_class_gain():
    # at h = 40 the checkerboard's low class has a dc-gain of exactly zero,
    # so P Gamma has a reducible support and is nilpotent: both radii are 0
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=40)
    qm = quotient(g, pi)
    sg = small_gain(qm, m, solve_reduced(qm, m).class_values)
    assert 0.0 in sg.gains.class_gains
    assert sg.rho_reduced == 0.0 and sg.rho_full == 0.0
    assert sg.verdict == CERTIFIED_STABLE
    assert not sg.perron_full.any() and not sg.perron_reduced.any()


def test_small_gain_certificate_threshold_matches_homogeneous_slope():
    # for the homogeneous pattern the certificate fires exactly when the
    # fixed-point gain sits below one
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    for h, expected in [(1.5, CERTIFIED_STABLE), (4, NOT_CERTIFIED)]:
        m = HillMap(exponent=h)
        z = np.full(2, fixed_point(m).value)
        sg = small_gain(quotient(g, pi), m, z)
        assert sg.verdict == expected
        assert abs(sg.rho_reduced - dc_gain(m, fixed_point(m).value)) < 1e-9


def test_small_gain_builds_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense n x n matrix built")

    monkeypatch.setattr(ScaledAdjacency, "symmetric", property(refuse))
    g = hex_torus(6, 6)
    qm = quotient(g, tile_partition(6, 6, MOTIFS["diag3"]))
    m = HillMap(exponent=6)
    sg = small_gain(qm, m, solve_reduced(qm, m).class_values)
    assert sg.rho_full == sg.rho_reduced > 0


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_m_matrix_ok_matches_leading_minors(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    rep = stability_report(qm, m, solve_reduced(qm, m).class_values)
    if rep.small_gain.rho_full < 1.0:
        assert rep.m_matrix_ok == m_matrix_by_leading_minors(
            g, rep.small_gain.gains.cell_gains)
    else:
        assert rep.m_matrix_ok is None


# ---- combined report ----

def test_stability_report_full_pipeline():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    rep = stability_report(qm, m, red.class_values)
    assert rep.full_verdict == STABLE
    assert rep.block is not None and rep.block.consistency < 1e-8
    assert rep.small_gain.verdict == CERTIFIED_STABLE
    assert rep.m_matrix_ok is True


def test_stability_report_peak_memory_on_the_32x32_torus():
    # the full and block routes hold the operator's S and at most a few
    # n x n working arrays at once: no n x n basis and no dense P
    g = torus_mesh(32, 32)
    m = HillMap(exponent=6)
    qm = quotient(g, bipartition_partition(g))
    z = solve_reduced(qm, m).class_values
    tracemalloc.start()
    try:
        rep = stability_report(qm, m, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.full_verdict == STABLE and rep.block.transverse_spectrum.size == g.n - 2
    assert peak < 5.5 * 8 * g.n ** 2


def test_stability_report_selected_methods():
    g = triangle_bridge()
    pi = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    rep = stability_report(qm, m, red.class_values, methods=("full",))
    assert rep.block is None and rep.small_gain is None
