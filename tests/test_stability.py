import dataclasses
import tracemalloc

import numpy as np
import pytest

from patternq import partitions, stability
from patternq.cells import HillMap, dc_gain, fixed_point, t_prime
from patternq.errors import BadOptions, DetailedBalanceViolated, NotSteadyState
from patternq.existence import certify, solve_reduced
from patternq.graphs import (
    ScaledAdjacency,
    build_graph,
    buckyball,
    hex_torus,
    torus_mesh,
    triangle_bridge,
)
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    block_decompose,
    buckyball_face_partition,
    coarsest_equitable_refinement,
    make_partition,
    quotient,
    singleton_partition,
    tile_partition,
)
from patternq.pipeline import Run
from patternq.spectral import jacobian_spectrum
from patternq.stability import (
    CERTIFIED_STABLE,
    MARGINAL,
    NOT_CERTIFIED,
    STABLE,
    UNSTABLE,
    block_stability,
    small_gain,
    stability_report,
)

from helpers import (dense_averaging, dense_jacobian_spectrum, m_matrix_by_leading_minors,
                     relabelled)


def _hom(g, m):
    return np.full(g.n, fixed_point(m).value)


def _bipartite_report(g, m, z):
    """The full abscissa and verdict of the block route on the 2-coloring."""
    rep = stability_report(quotient(g, bipartition_partition(g)), m, z, methods=("block",))
    return rep.full_spectral_abscissa, rep.full_verdict


# ---- full spectral abscissa ----

def test_homogeneous_state_unstable_at_strong_inhibition():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)  # slope magnitude 3
    abscissa, verdict = _bipartite_report(g, m, np.full(2, fixed_point(m).value))
    assert verdict == UNSTABLE
    # the most negative averaging eigenvalue is -1 on a bipartite graph,
    # so the abscissa is -1 + 3 = 2
    assert abs(abscissa - 2.0) < 1e-9
    assert abs(dense_jacobian_spectrum(g, m, _hom(g, m))[0] - 2.0) < 1e-9


def test_homogeneous_state_stable_at_weak_inhibition():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=1.5)  # slope magnitude 0.75
    abscissa, verdict = _bipartite_report(g, m, np.full(2, fixed_point(m).value))
    assert verdict == STABLE
    assert abs(abscissa - (-1.0 + 0.75)) < 1e-9
    assert abs(dense_jacobian_spectrum(g, m, _hom(g, m))[0] - (-1.0 + 0.75)) < 1e-9


def test_homogeneous_state_marginal_at_unit_slope():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=2)
    abscissa, verdict = _bipartite_report(g, m, np.full(2, fixed_point(m).value))
    assert verdict == MARGINAL
    assert abs(dense_jacobian_spectrum(g, m, _hom(g, m))[0]) < 1e-9


def test_checkerboard_verdict_tracks_slope_product():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    for h in (4, 6, 8):
        m = HillMap(exponent=h)
        red = solve_reduced(quotient(g, pi), m)
        abscissa, verdict = _bipartite_report(g, m, red.class_values)
        product = float(t_prime(m, red.class_values[0])
                        * t_prime(m, red.class_values[1]))
        assert (verdict == STABLE) == (product < 1.0)
        # bipartite closed form: abscissa = -1 + sqrt(t1 t2)
        assert abs(abscissa - (-1.0 + np.sqrt(product))) < 1e-9
        dense = dense_jacobian_spectrum(g, m, pi.expand(red.class_values))
        assert abs(dense[0] - (-1.0 + np.sqrt(product))) < 1e-9


def test_full_stability_rejects_non_steady_pattern():
    g = torus_mesh(4, 4)
    with pytest.raises(NotSteadyState):
        _bipartite_report(g, HillMap(exponent=6), [0.1, 1.9])


# ---- block route ----

def test_block_singleton_partition_is_degenerate():
    # under the singleton partition the representative block is the whole
    # Jacobian, so any steady state keeps its n x n spectrum
    g = build_graph(2, [(0, 1, 1.0)])
    m = HillMap(exponent=6)
    blk = block_stability(quotient(g, singleton_partition(2)), m, np.full(2, 1.0))
    assert blk.transverse_spectrum.size == 0
    assert np.abs(blk.representative_spectrum
                  - dense_jacobian_spectrum(g, m, _hom(g, m))).max() < 1e-12


def test_block_homogeneous_representative_spectrum_closed_form():
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    pi = bipartition_partition(g)
    z = np.full(2, fixed_point(m).value)
    blk = block_stability(quotient(g, pi), m, z)
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
    blk = block_stability(qm, m, red.class_values)
    assert blk.consistency < 1e-8
    # the two block spectra together are a dense solve of the full Jacobian
    dense = dense_jacobian_spectrum(g, m, pi.expand(red.class_values))
    union = np.concatenate([blk.representative_spectrum, blk.transverse_spectrum])
    assert np.abs(dense - np.sort(union)[::-1]).max() < 1e-8


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
    blk = block_stability(qm, m, z)
    assert np.array_equal(blk.representative_spectrum, np.full(2, -1.0))
    assert np.array_equal(blk.transverse_spectrum, np.full(14, -1.0))
    rep = stability_report(qm, m, z, methods=("block",))
    assert rep.full_spectral_abscissa == -1.0 and rep.full_verdict == STABLE


def _householder_transverse(qm, m, z):
    """The transverse spectrum of the reflector split of the dense S: with
    the size floor above n, block_decompose takes the trivial group."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "_BLOCH_MIN_CELLS", qm.partition.n + 1)
        dec = block_decompose(qm)
    assert dec.character_blocks.shape[0] == 0
    slopes = t_prime(m, z)
    return jacobian_spectrum(dec.transverse_block, slopes[dec.transverse_class],
                             tau=m.tau).eigenvalues


@pytest.mark.parametrize("lattice,motif,p", [
    (torus_mesh, "checkerboard", 2), (torus_mesh, "domino", 4), (torus_mesh, "row3", 3),
    (hex_torus, "diag3", 3), (hex_torus, "spots", 4),
])
def test_lattice_patterns_take_the_bloch_blocks(monkeypatch, lattice, motif, p):
    # the translations that keep every class split S into 144 / p Bloch
    # blocks of order p, and the dense S is never formed; the trivial
    # character's block leaves a transverse block of order p - 2
    def refuse(self):
        raise AssertionError("the dense n x n S was formed")

    monkeypatch.setattr(ScaledAdjacency, "symmetric", property(refuse))
    qm = quotient(lattice(12, 12), tile_partition(12, 12, MOTIFS[motif]))
    m = HillMap(exponent=6, tau=0.7)
    z = np.array([0.4, 1.3])
    blk = block_stability(qm, m, z)
    dec = block_decompose(qm)
    assert dec.character_blocks.shape == (144 // p - 1, p, p)
    assert dec.transverse_block.shape == (p - 2, p - 2)
    assert blk.consistency == dec.coupling < 1e-15
    monkeypatch.undo()
    assert np.abs(blk.transverse_spectrum - _householder_transverse(qm, m, z)).max() < 1e-13


def _fallback_cases():
    g = torus_mesh(8, 8)
    return [
        pytest.param(*relabelled(g, bipartition_partition(g)), id="relabelled-torus"),
        pytest.param(g, coarsest_equitable_refinement(
            g, make_partition([[9], [v for v in range(64) if v != 9]], 64)),
            id="trivial-translations"),
        pytest.param(buckyball(), buckyball_face_partition(), id="buckyball"),
        pytest.param(triangle_bridge(), make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8),
                     id="irregular"),
    ]


@pytest.mark.parametrize("g,pi", _fallback_cases())
def test_other_patterns_keep_the_householder_route(monkeypatch, g, pi):
    # no translation layout, or no translation but the identity keeps every
    # class (p = n): the group is trivial at any size, and the split is the
    # reflector split of the dense S, bit for bit
    monkeypatch.setattr(partitions, "_BLOCH_MIN_CELLS", 0)
    qm = quotient(g, pi)
    dec = block_decompose(qm)
    assert dec.character_blocks.shape == (0, g.n, g.n)
    assert np.array_equal(dec.character_class, pi.labels)
    m = HillMap(exponent=6, tau=1.5)
    z = np.linspace(0.3, 1.6, pi.r)
    blk = block_stability(qm, m, z)
    assert np.array_equal(blk.transverse_spectrum, _householder_transverse(qm, m, z))
    assert blk.consistency == block_decompose(qm).coupling


def test_lattices_below_80_cells_keep_the_householder_route():
    # the 8x8 checkerboard has Bloch blocks, but below 80 cells the dense
    # split costs less: block_decompose neither looks for the layout nor
    # builds the blocks, and block_stability gives the reflector split bit
    # for bit; the 8x10 checkerboard takes the blocks
    m = HillMap(exponent=6, tau=1.5)
    z = np.array([0.4, 1.3])
    small = quotient(torus_mesh(8, 8), tile_partition(8, 8, MOTIFS["checkerboard"]))
    blk = block_stability(small, m, z)
    assert block_decompose(small).character_blocks.shape == (0, 64, 64)
    assert "layout" not in vars(small.operator)
    assert np.array_equal(blk.transverse_spectrum, _householder_transverse(small, m, z))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "_BLOCH_MIN_CELLS", 64)
        assert block_decompose(small).character_blocks.shape == (31, 2, 2)
    large = quotient(torus_mesh(8, 10), tile_partition(8, 10, MOTIFS["checkerboard"]))
    assert block_decompose(large).character_blocks.shape == (39, 2, 2)


def test_relabelled_torus_agrees_with_its_bloch_blocks():
    g = torus_mesh(12, 12)
    pi = tile_partition(12, 12, MOTIFS["domino"])
    m = HillMap(exponent=6)
    z = np.array([0.4, 1.3])
    bloch = block_stability(quotient(g, pi), m, z)
    dense = block_stability(quotient(*relabelled(g, pi)), m, z)
    assert np.array_equal(bloch.representative_spectrum, dense.representative_spectrum)
    assert np.abs(bloch.transverse_spectrum - dense.transverse_spectrum).max() < 1e-13


# ---- small-gain route ----

def test_small_gain_bipartite_is_geometric_mean():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    sg = small_gain(qm, m, red.class_values)
    g1, g2 = sg.class_gains
    assert abs(sg.rho_full - np.sqrt(g1 * g2)) < 1e-10
    assert sg.verdict == CERTIFIED_STABLE
    assert (g1 * g2 < 1.0)


def test_small_gain_homogeneous_unit_slope_is_marginal():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=2)  # dc-gain exactly 1 at the fixed point
    z = np.full(2, fixed_point(m).value)
    sg = small_gain(quotient(g, pi), m, z)
    assert abs(sg.rho_full - 1.0) < 1e-10
    assert sg.verdict == NOT_CERTIFIED


@pytest.mark.parametrize("rho,verdict,m_ok", [
    pytest.param(1.0 - 5e-10, NOT_CERTIFIED, None, id="inside-the-band"),
    pytest.param(1.0 - 2e-9, CERTIFIED_STABLE, True, id="below-the-band"),
])
def test_m_matrix_ok_follows_the_small_gain_verdict(monkeypatch, rho, verdict, m_ok):
    # a radius inside the marginal band below 1 certifies nothing
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    qm = quotient(g, bipartition_partition(g))
    z = solve_reduced(qm, m).class_values
    monkeypatch.setattr(stability, "_gain_radius", lambda qm, gains: (rho, np.ones(qm.r)))
    rep = stability_report(qm, m, z, methods=("smallgain",))
    assert rep.small_gain.verdict == verdict
    assert rep.m_matrix_ok is m_ok


def test_small_gain_buckyball_pattern_is_not_certified():
    g = buckyball()
    pi = buckyball_face_partition()
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    sg = small_gain(qm, m, red.class_values)
    assert sg.rho_full > 1.0
    assert sg.verdict == NOT_CERTIFIED
    # and indeed the full Jacobian confirms the instability
    assert dense_jacobian_spectrum(g, m, pi.expand(red.class_values))[0] > 1e-9


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_small_gain_reduction_equality_and_soundness(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    sg = small_gain(qm, m, red.class_values)
    # the lifted quotient eigenvector is one of the full product P Gamma
    p_gamma = dense_averaging(g) * pi.expand(sg.class_gains)[None, :]
    v = pi.expand(sg.perron_reduced)
    assert np.abs(p_gamma @ v - sg.rho_full * v).max() < 1e-9
    if sg.verdict == CERTIFIED_STABLE:
        u = pi.expand(red.class_values)
        assert dense_jacobian_spectrum(g, m, u)[0] < -1e-9


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_small_gain_radii_match_dense_eigvals(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    sg = small_gain(qm, m, solve_reduced(qm, m).class_values)
    p = dense_averaging(g)
    p_gamma = p * pi.expand(sg.class_gains)[None, :]
    dense_full = np.linalg.eigvals(p_gamma).real.max()
    dense_red = np.linalg.eigvals(qm.matrix * sg.class_gains[None, :]).real.max()
    assert abs(sg.rho_full - dense_full) < 1e-12
    assert abs(sg.rho_full - dense_red) < 1e-12
    # the lifted Perron vector is a nonnegative eigenvector of P Gamma
    v = pi.expand(sg.perron_reduced)
    assert v.min() >= 0 and abs(v.max() - 1.0) < 1e-15
    assert np.abs(p_gamma @ v - sg.rho_full * v).max() < 1e-12


def test_small_gain_zero_class_gain():
    # at h = 40 the checkerboard's low class has a dc-gain of exactly zero,
    # so P Gamma has a reducible support and is nilpotent: the radius is 0
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = HillMap(exponent=40)
    qm = quotient(g, pi)
    sg = small_gain(qm, m, solve_reduced(qm, m).class_values)
    assert 0.0 in sg.class_gains
    assert sg.rho_full == 0.0
    assert sg.verdict == CERTIFIED_STABLE
    assert not sg.perron_reduced.any()


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
        assert abs(sg.rho_full - dc_gain(m, fixed_point(m).value)) < 1e-9


def test_small_gain_builds_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense n x n matrix built")

    monkeypatch.setattr(ScaledAdjacency, "symmetric", property(refuse))
    g = hex_torus(6, 6)
    qm = quotient(g, tile_partition(6, 6, MOTIFS["diag3"]))
    m = HillMap(exponent=6)
    sg = small_gain(qm, m, solve_reduced(qm, m).class_values)
    assert sg.rho_full > 0


def test_small_gain_class_gains_are_the_block_routes_slopes():
    # one array evaluation of the slopes on both routes: a scalar loop gave
    # 5.629315068914327e-10 here, the array -T'(z) 5.629315068914326e-10
    qm = quotient(hex_torus(6, 6), tile_partition(6, 6, MOTIFS["diag3"]))
    m = HillMap(exponent=40)
    z = solve_reduced(qm, m).class_values
    assert np.array_equal(small_gain(qm, m, z).class_gains, -t_prime(m, z))


@pytest.mark.parametrize("route", [
    pytest.param(lambda qm, m: certify(qm, m), id="certify"),
    pytest.param(lambda qm, m: small_gain(qm, m, np.ones(2)), id="small_gain"),
    pytest.param(lambda qm, m: block_stability(qm, m, np.ones(2)), id="block"),
    pytest.param(lambda qm, m: Run.quotient_data(qm), id="quotient_report"),
])
def test_every_quotient_route_checks_detailed_balance(route):
    # each route reads the one symmetric form, which checks detailed balance
    qm = quotient(buckyball(), buckyball_face_partition())
    tampered = dataclasses.replace(qm, matrix=np.array([[0.0, 1.0], [0.75, 0.25]]))
    with pytest.raises(DetailedBalanceViolated,
                       match=r"detailed balance violated \(max flux asymmetry 3.00e\+01\)"):
        route(tampered, HillMap(exponent=6))


@pytest.mark.parametrize("g,pi,h", _pattern_cases())
def test_m_matrix_ok_matches_leading_minors(g, pi, h):
    m = HillMap(exponent=h)
    qm = quotient(g, pi)
    rep = stability_report(qm, m, solve_reduced(qm, m).class_values)
    if rep.small_gain.rho_full < 1.0:
        assert rep.m_matrix_ok == m_matrix_by_leading_minors(
            g, pi.expand(rep.small_gain.class_gains))
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


def _peak_of_stability_report(g, pi):
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    z = solve_reduced(qm, m).class_values
    tracemalloc.start()
    try:
        rep = stability_report(qm, m, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.full_verdict == STABLE and rep.block.transverse_spectrum.size == g.n - 2
    return qm, peak


def test_stability_report_peak_memory_on_the_32x32_torus():
    # the Bloch blocks and their working arrays grow with n: about 30
    # floats per cell, where the reflector split held 5.5 n x n arrays
    g = torus_mesh(32, 32)
    qm, peak = _peak_of_stability_report(g, bipartition_partition(g))
    assert block_decompose(qm).character_blocks.shape == (511, 2, 2)
    assert peak < 64 * 8 * g.n


def test_stability_report_peak_memory_on_the_relabelled_32x32_torus():
    # without a layout the reflector split holds the operator's S and at
    # most a few n x n working arrays at once: no n x n basis and no dense P
    g = torus_mesh(32, 32)
    qm, peak = _peak_of_stability_report(*relabelled(g, bipartition_partition(g)))
    assert qm.operator.layout is None
    assert peak < 5.5 * 8 * g.n ** 2


@pytest.mark.parametrize("methods", [(), ("block",), ("smallgain",), ("block", "smallgain")])
def test_stability_report_checks_steadiness_whatever_the_methods(methods):
    g = torus_mesh(4, 4)
    qm = quotient(g, bipartition_partition(g))
    with pytest.raises(NotSteadyState):
        stability_report(qm, HillMap(exponent=6), [0.5, 1.5], methods=methods)


@pytest.mark.parametrize("z", [[np.nan, 1.0], [1.0, np.inf]])
def test_stability_report_refuses_a_non_finite_pattern_as_not_steady(z):
    # a NaN residual compares False with any tolerance; it must still fail
    g = torus_mesh(4, 4)
    qm = quotient(g, bipartition_partition(g))
    with pytest.raises(NotSteadyState):
        stability_report(qm, HillMap(exponent=6), z)


@pytest.mark.parametrize("methods,named", [
    ("all", "'all'"),
    ("block", "'block'"),
    (("blok",), "'blok'"),
    (("block", "full"), "'full'"),
    (["smallgain", "small_gain"], "'small_gain'"),
])
def test_stability_report_refuses_unknown_methods(methods, named):
    g = torus_mesh(4, 4)
    m = HillMap(exponent=6)
    qm = quotient(g, bipartition_partition(g))
    z = solve_reduced(qm, m).class_values
    with pytest.raises(BadOptions, match=named):
        stability_report(qm, m, z, methods=methods)


def test_stability_report_selected_methods():
    g = triangle_bridge()
    pi = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    rep = stability_report(qm, m, red.class_values, methods=("smallgain",))
    assert rep.block is None and rep.full_verdict is None
    assert rep.small_gain is not None
    rep = stability_report(qm, m, red.class_values, methods=("block",))
    assert rep.small_gain is None and rep.m_matrix_ok is None
    dense = dense_jacobian_spectrum(g, m, pi.expand(red.class_values))
    assert abs(rep.full_spectral_abscissa - dense[0]) < 1e-8
