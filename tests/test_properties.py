"""Property tests of the averaging operator, the simulation, the reduced
solve, the quotient's reduced graph, the spectral, block and small-gain
routines and the canonical JSON writer against independent oracles: the
dense averaging matrix, scipy's ODE integrators (DOP853 on the dense
network, LSODA on the reduced flow) and root finder,
characteristic-polynomial roots and coefficients, dense unsymmetric
eigvals, leading principal minors, a loop over class pairs, the dense
n x r table of class sums, the item-by-item JSON writer, the edge-by-edge
and vertex-by-vertex input checks, the refinement that re-keys every
vertex in every round (helpers.round_refinement), the union-find and the
stack-based search the components pass replaced, and, bit for bit, the
DOP853 loop without its stage buffers
(helpers.settle_reference) and the Hill fixed point bisected through
t_eval."""
import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.linalg import null_space
from scipy.optimize import fsolve

from patternq import existence, partitions
from patternq.cells import HillMap, fixed_point, t_prime
from patternq.errors import BadBundle, PatternQError, StateOutOfBox
from patternq.existence import CERTIFIED, certify, lift, solve_reduced
from patternq.graphs import (
    ScaledAdjacency,
    _components,
    _two_coloring,
    build_graph,
    cycle_graph,
    generate,
    hex_torus,
    scaled_adjacency,
    torus_mesh,
)
from patternq.partitions import (
    MOTIFS,
    _class_sums_checked,
    bipartition_partition,
    block_decompose,
    coarsest_equitable_refinement,
    is_equitable,
    make_partition,
    orbits_from_generators,
    quotient,
    refines,
    tile_partition,
)
from patternq.serialize import dumps_canonical
from patternq.simulate import SimOptions, integrate
from patternq.spectral import jacobian_spectrum, sym_eigen
from patternq.stability import block_stability, small_gain

from helpers import (
    C13_WEIGHTS,
    canonical_oracle,
    char_poly_coeffs,
    char_poly_eigs,
    class_indicator,
    class_loop,
    class_sums,
    class_sums_checked_dense,
    class_sums_checked_loop,
    components_union_find,
    dense_averaging,
    dense_jacobian_spectrum,
    edge_loop,
    edge_tuples,
    fixed_point_by_t_eval,
    integrate_reference,
    m_matrix_by_leading_minors,
    random_connected_graph,
    relabelled,
    round_refinement,
    torus_shift_perm,
    two_coloring_by_search,
    weight_matrix,
)

# derandomized so the suite gives the same verdict on every run
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
# few distinct levels, so drawn spectra repeat eigenvalues often
levels = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])


@PROPERTY
@given(seed=seeds, n=st.integers(2, 40), r=st.integers(1, 40))
def test_scaled_adjacency_edge_arrays_match_dense(seed, n, r):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, weight_range=(0.1, 3.0))
    sa = scaled_adjacency(g)
    d = g.degrees()
    assert np.array_equal(sa.degrees, d)
    assert np.array_equal(sa.symmetric, weight_matrix(g) / np.sqrt(np.outer(d, d)))
    p = dense_averaging(g)
    x = rng.uniform(-1.0, 1.0, n)
    assert np.abs(sa.matvec(x) - p @ x).max() < 1e-14
    r = min(r, n)
    class_of = rng.integers(0, r, n)
    indicator = (class_of[:, None] == np.arange(r)[None, :]).astype(float)
    sums = class_sums(sa, class_of, r)
    assert sums.shape == (n, r)
    assert np.abs(sums - p @ indicator).max() < 1e-14
    # the grouped pairs are the table's nonzero entries, bit for bit
    row, cls, grouped = sa.class_pairs(class_of, r)
    assert np.array_equal(np.stack([row, cls]), np.stack(np.nonzero(sums)))
    assert np.array_equal(grouped.view(np.uint64), sums[row, cls].view(np.uint64))


# 300 seeded draws of this setup gave a worst gap of 1.0e-8
_DOP853_GAP = 1e-7


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(2, 10), h=st.floats(1.5, 8.0),
       step=st.sampled_from([None, 0.05]))
def test_integrate_matches_scipy_dop853(seed, n, h, step):
    # 60 tau lets most draws converge, so the stopping time is compared too
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, weight_range=(0.1, 3.0))
    m = HillMap(exponent=h)
    x0 = rng.uniform(0.0, m.amplitude, n)
    trace = integrate(scaled_adjacency(g), m, x0,
                      SimOptions(step=step, max_time=60.0, conv_tol=1e-6))
    w = weight_matrix(g)
    p = w / w.sum(axis=1)[:, None]

    def rhs(t, x):
        u = np.maximum(p @ x, 0.0)
        return (-x + m.amplitude / (1.0 + (u / m.threshold) ** m.exponent)) / m.tau

    ref = solve_ivp(rhs, (0.0, trace.final_time), x0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert ref.success
    assert np.abs(trace.final_state - ref.y[:, -1]).max() < _DOP853_GAP
    assert trace.converged == (np.abs(rhs(0.0, ref.y[:, -1])).max() < 1e-6)


def test_simulation_path_builds_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense n x n matrix built")

    monkeypatch.setattr(ScaledAdjacency, "symmetric", property(refuse))
    g = torus_mesh(8, 8)
    pi = bipartition_partition(g)
    m = HillMap(exponent=6)
    qm = quotient(g, pi)
    pat = lift(qm, solve_reduced(qm, m).class_values, m)
    assert pat.residual_full < 1e-10
    x0 = np.clip(fixed_point(m).value + 0.01 * pi.expand([1.0, -1.0]), 0.0, 2.0)
    assert integrate(scaled_adjacency(g), m, x0).converged
    with pytest.raises(AssertionError, match="dense"):
        scaled_adjacency(g).symmetric


@st.composite
def symmetric_matrices(draw):
    """(A, spectrum) with A symmetric of order 1 to 12.

    Half the draws are uniform entries in [-1, 1] (spectrum None, distinct
    eigenvalues almost surely); the other half are Q diag(spectrum) Q^T
    with Q a random orthogonal matrix and a spectrum drawn from `levels`.
    """
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        a = rng.uniform(-1.0, 1.0, (n, n))
        return (a + a.T) / 2.0, None
    spectrum = np.array(draw(st.lists(levels, min_size=1, max_size=12)))
    q, _ = np.linalg.qr(rng.standard_normal((spectrum.size, spectrum.size)))
    a = (q * spectrum) @ q.T
    return (a + a.T) / 2.0, np.sort(spectrum)[::-1]


@PROPERTY
@given(symmetric_matrices())
def test_sym_eigen_eigenvalues_match_char_poly(case):
    a, spectrum = case
    vals = sym_eigen(a).eigenvalues
    assert np.all(np.diff(vals) <= 0)
    if spectrum is None:
        assert np.abs(vals - char_poly_eigs(a)).max() < 1e-8
    else:
        # companion roots lose accuracy at a multiple root; compare the
        # polynomial the eigenvalues generate instead
        assert np.abs(vals - spectrum).max() < 1e-8
        assert np.abs(np.poly(vals) - char_poly_coeffs(a)).max() < 1e-8


@PROPERTY
@given(symmetric_matrices())
def test_sym_eigen_eigenvectors_orthonormal_and_oriented(case):
    a, _ = case
    spec = sym_eigen(a)
    vals, v = spec.eigenvalues, spec.eigenvectors
    n = a.shape[0]
    assert np.abs(v.T @ v - np.eye(n)).max() < 1e-12
    assert np.abs(a @ v - v * vals[None, :]).max() < 1e-12
    lead = np.abs(v).argmax(axis=0)
    assert np.all(v[lead, np.arange(n)] > 0)


@PROPERTY
@given(seed=seeds, n=st.integers(2, 10), weighted=st.booleans(),
       tau=st.floats(0.5, 2.0))
def test_jacobian_spectrum_matches_dense_eigvals(seed, n, weighted, tau):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, weighted=weighted)
    slopes = -rng.uniform(0.1, 3.0, n)
    spec = jacobian_spectrum(scaled_adjacency(g).symmetric, slopes, tau=tau)
    dense = np.linalg.eigvals((-np.eye(n) + slopes[:, None] * dense_averaging(g)) / tau)
    assert np.abs(dense.imag).max() < 1e-10
    assert np.abs(np.sort(dense.real)[::-1] - spec.eigenvalues).max() < 1e-10


@PROPERTY
@given(seed=seeds, n=st.integers(2, 10), weighted=st.booleans(),
       top=st.floats(0.1, 2.0))
def test_m_matrix_cholesky_matches_leading_minors(seed, n, weighted, top):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, weighted=weighted)
    gains = rng.uniform(0.0, top, n)
    # rho(Gamma P) = 1 is the boundary of the property; keep clear of it
    rho = np.abs(np.linalg.eigvals(gains[:, None] * dense_averaging(g))).max()
    assume(abs(rho - 1.0) > 1e-6)
    # I - Gamma P is a Z-matrix, so it is a nonsingular M-matrix exactly
    # when rho(Gamma P) < 1; stability_report relies on that theorem
    assert m_matrix_by_leading_minors(g, gains) == (rho < 1.0)


@st.composite
def rotation_partitioned_circulants(draw):
    """(graph, partition): a weighted circulant on n vertices, split into the
    orbits of the rotation by k for a divisor k of n (k classes of n/k)."""
    n = draw(st.integers(2, 16))
    offsets = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4,
                            unique=True))
    weights = draw(st.lists(st.floats(0.5, 2.0), min_size=len(offsets),
                            max_size=len(offsets)))
    edges = {}
    for s, w in zip(offsets, weights):
        for i in range(n):
            j = (i + s) % n
            edges[(min(i, j), max(i, j))] = w
    g = build_graph(n, [(i, j, w) for (i, j), w in edges.items()])
    k = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    return g, orbits_from_generators(g, [[(i + k) % n for i in range(n)]])


@PROPERTY
@given(case=rotation_partitioned_circulants(), data=st.data())
def test_block_spectra_join_to_dense_jacobian(case, data):
    g, pi = case
    m = HillMap(exponent=6)
    # |T'| rises monotonically from 0 to above 3 on [0, 0.94]; invert it to
    # place each class at a drawn slope in {0} | [-3, -0.1]
    grid = np.linspace(0.0, 0.94, 4001)
    slopes = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-3.0, -0.1)),
                                min_size=pi.r, max_size=pi.r))
    z = np.interp(-np.array(slopes), -t_prime(m, grid), grid)
    blk = block_stability(quotient(g, pi), m, z)
    assert blk.consistency < 1e-12
    union = np.sort(np.concatenate([blk.representative_spectrum,
                                    blk.transverse_spectrum]))[::-1]
    assert np.abs(union - dense_jacobian_spectrum(g, m, pi.expand(z))).max() < 1e-10


@st.composite
def mirror_seeded_circulants(draw):
    """(graph, seed, mirror): a circulant on n vertices with weights over four
    decades, the orbits of the reflection k -> -k, and a seed that joins
    mirror orbits into at most three classes."""
    n = draw(st.integers(3, 24))
    offsets = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4,
                            unique=True))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(offsets),
                            max_size=len(offsets)))
    edges = {}
    for s, w in zip(offsets, weights):
        for i in range(n):
            j = (i + s) % n
            edges[(min(i, j), max(i, j))] = w
    g = build_graph(n, [(i, j, w) for (i, j), w in edges.items()])
    mirror = orbits_from_generators(g, [[(-i) % n for i in range(n)]])
    labels = draw(st.lists(st.integers(0, 2), min_size=mirror.r, max_size=mirror.r))
    seed = make_partition([[v for cls, lab in zip(mirror.classes, labels) if lab == k
                            for v in cls] for k in range(3)], n)
    return g, seed, mirror


@PROPERTY
@given(case=mirror_seeded_circulants())
def test_refinement_is_never_finer_than_the_mirror_orbits(case):
    # an orbit partition that refines the seed is equitable, so the coarsest
    # equitable refinement of the seed must keep every orbit in one class
    g, seed, mirror = case
    got = coarsest_equitable_refinement(g, seed)
    assert refines(got, seed)
    assert refines(mirror, got)
    assert is_equitable(g, got).ok


@st.composite
def refinement_seeds(draw):
    """(graph, seed): a random connected graph, unit-weighted or weighted
    over a narrow or a wide range, or a weighted C13, with a random seed of
    1 to 4 classes; or a point seed on a hex or square torus."""
    kind = draw(st.sampled_from(["random", "c13", "hex_torus", "torus_mesh"]))
    if kind in ("hex_torus", "torus_mesh"):
        rows, cols = draw(st.sampled_from(range(2, 17, 2))), draw(st.sampled_from(range(2, 17, 2)))
        g = generate(kind, rows, cols)
        v = draw(st.integers(0, g.n - 1))
        return g, make_partition([[v], [u for u in range(g.n) if u != v]], g.n)
    if kind == "c13":
        # the second set's sums overflow int64 and run on Python ints
        weights = draw(st.sampled_from([C13_WEIGHTS, [0.01, 100.0, 0.3]]))
        g = build_graph(13, [(k, (k + s) % 13, w)
                             for k in range(13) for s, w in zip((1, 2, 3), weights)])
    else:
        g = random_connected_graph(np.random.default_rng(draw(seeds)), draw(st.integers(2, 30)),
                                   weighted=draw(st.booleans()),
                                   weight_range=draw(st.sampled_from([(0.5, 2.0), (0.01, 100.0)])))
    r = draw(st.integers(1, min(4, g.n)))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=g.n, max_size=g.n))
    return g, make_partition([[v for v, lab in enumerate(labels) if lab == k]
                              for k in range(r)], g.n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=refinement_seeds())
def test_refinement_matches_the_every_vertex_rounds(case):
    # re-keying only the neighbours of the smaller split halves gives the
    # same classes in the same order as re-keying every vertex
    g, seed = case
    got, want = coarsest_equitable_refinement(g, seed), round_refinement(g, seed)
    assert got.r == want.r
    assert np.array_equal(got.labels, want.labels)


@PROPERTY
@given(amplitude=st.floats(0.05, 20.0), threshold=st.floats(0.05, 20.0),
       exponent=st.floats(1.0, 16.0))
def test_fixed_point_matches_the_bisection_through_t_eval(amplitude, threshold, exponent):
    m = HillMap(amplitude=amplitude, threshold=threshold, exponent=exponent)
    got, want = fixed_point(m), fixed_point_by_t_eval(m)
    assert (got.value, got.residual) == (want.value, want.residual)
    assert type(got.residual) is float


@st.composite
def weighted_multipartite_splits(draw):
    """(graph, partition): a complete multipartite graph on r classes of 1 to
    5 vertices with w_ij = a_i a_j c_kl for i in class k, j in class l != k.

    The class sums of P from vertex i are c_kl A_l / sum_m c_km A_m (A_l the
    sum of a over class l), so the split is equitable although the degrees
    d_i = a_i sum_m c_km A_m differ inside every class of two or more."""
    r = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 5), min_size=r, max_size=r))
    n = sum(sizes)
    a = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    c = {(k, l): draw(st.floats(0.5, 2.0)) for k in range(r) for l in range(k + 1, r)}
    class_of = np.repeat(np.arange(r), sizes)
    edges = [(i, j, a[i] * a[j] * c[class_of[i], class_of[j]])
             for i in range(n) for j in range(i + 1, n) if class_of[i] != class_of[j]]
    g = build_graph(n, edges)
    return g, make_partition([np.flatnonzero(class_of == k) for k in range(r)], n)


@PROPERTY
@given(case=st.one_of(rotation_partitioned_circulants(), weighted_multipartite_splits()))
def test_block_split_matches_an_independent_complement(case):
    # the reflector split against an orthonormal complement that scipy
    # computes on its own: S = D^1/2 P D^-1/2 restricted to the null space N
    # of the class vectors sqrt(d) on each class has the transverse spectrum
    g, pi = case
    qm = quotient(g, pi)
    dec = block_decompose(qm)
    d = g.degrees()
    root = np.sqrt(d)
    s = root[:, None] * dense_averaging(g) / root[None, :]
    # the quotient block is the model's symmetric form, a_k^T S a_l for the
    # unit class vectors a_k = sqrt(d) on class k, read-only and symmetric
    assert not qm.symmetric.flags.writeable
    assert np.array_equal(qm.symmetric, qm.symmetric.T)
    a = class_indicator(pi) * root[:, None] / np.sqrt(qm.class_degrees)[None, :]
    assert np.abs(qm.symmetric - a.T @ s @ a).max() < 1e-12
    n_perp = null_space((class_indicator(pi) * root[:, None]).T)
    assert n_perp.shape == (g.n, g.n - pi.r)
    oracle = np.linalg.eigvalsh(n_perp.T @ s @ n_perp)
    assert np.abs(np.linalg.eigvalsh(dec.transverse_block) - oracle).max(initial=0.0) < 1e-10
    assert np.array_equal(dec.transverse_block, dec.transverse_block.T)
    firsts = [cls[0] for cls in pi.classes]
    rest = [v for v in range(g.n) if v not in firsts]
    assert np.array_equal(dec.transverse_class, pi.labels[rest])
    assert dec.coupling < 1e-12


@PROPERTY
@given(case=rotation_partitioned_circulants(), data=st.data())
def test_small_gain_radius_matches_dense_eigvals(case, data):
    # at h >= 30 a class value below 1e-12 has a dc-gain that underflows to
    # exactly 0, so P Gamma can have zero columns and a nilpotent part
    g, pi = case
    m = HillMap(exponent=data.draw(st.floats(30.0, 60.0)))
    z = np.array(data.draw(st.lists(st.one_of(st.floats(0.5, 1.5),
                                              st.floats(1e-14, 1e-12)),
                                    min_size=pi.r, max_size=pi.r)))
    sg = small_gain(quotient(g, pi), m, z)
    cell_gains = pi.expand(sg.class_gains)
    dense = np.abs(np.linalg.eigvals(dense_averaging(g) * cell_gains[None, :])).max()
    assert abs(sg.rho_full - dense) < 1e-10


@st.composite
def tiled_motifs(draw):
    """(graph, partition): a built-in motif tiled over a torus_mesh or
    hex_torus of at most 12 x 12 cells (spots on hex_torus only)."""
    name = draw(st.sampled_from(sorted(MOTIFS)))
    lattice = hex_torus if name == "spots" else draw(st.sampled_from([torus_mesh, hex_torus]))
    motif = np.array(MOTIFS[name])
    rows, cols = (draw(st.integers(1, 12 // p).map(lambda a, p=p: a * p))
                  for p in np.lcm(motif.shape, 2))
    return lattice(rows, cols), tile_partition(rows, cols, motif)


@PROPERTY
@given(case=st.one_of(rotation_partitioned_circulants(), weighted_multipartite_splits(),
                      tiled_motifs()),
       h=st.floats(1.0, 40.0), data=st.data())
def test_block_union_abscissa_matches_dense_eigvalsh(case, h, data):
    # stability_report takes the full abscissa from the block union; the
    # oracle is eigvalsh of the Jacobian's symmetric similarity
    # (-I - G S G) / tau, G = diag(|T'|^1/2), built from the dense W
    g, pi = case
    m = HillMap(exponent=h, tau=data.draw(st.floats(0.5, 2.0)))
    z = np.array(data.draw(st.lists(st.floats(0.0, m.amplitude), min_size=pi.r,
                                    max_size=pi.r)))
    got = block_stability(quotient(g, pi), m, z).abscissa
    w = weight_matrix(g)
    root = np.sqrt(w.sum(axis=1))
    gain = np.sqrt(-t_prime(m, pi.expand(z)))
    jac = (-np.eye(g.n) - gain[:, None] * (w / np.outer(root, root)) * gain[None, :]) / m.tau
    dense = np.linalg.eigvalsh(jac)
    assert abs(got - dense[-1]) <= 1e-12 * np.abs(dense).max()


@st.composite
def equitable_motif_tilings(draw):
    """(graph, partition): a built-in motif tiled over a torus_mesh or
    hex_torus of at most 1024 cells, where the tiling is equitable."""
    name = draw(st.sampled_from(sorted(MOTIFS)))
    lattice = draw(st.sampled_from([torus_mesh, hex_torus]))
    motif = np.array(MOTIFS[name])
    p, q = np.lcm(motif.shape, 2).tolist()
    rows = p * draw(st.integers(1, 32 // p))
    cols = q * draw(st.integers(1, 1024 // (rows * q)))
    g, pi = lattice(rows, cols), tile_partition(rows, cols, motif)
    assume(is_equitable(g, pi))
    return g, pi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=equitable_motif_tilings(), tau=st.floats(0.1, 10.0), relabel=st.booleans(),
       data=st.data())
def test_bloch_union_matches_the_householder_route(case, tau, relabel, data):
    # the transverse spectrum from the Bloch blocks against the reflector
    # split of the dense S, at drawn slopes in {0} | [-3, -0.1]: of the
    # same quotient with the size floor above n, so that block_decompose
    # takes the trivial group, or of the pattern relabelled, where no
    # layout exists.  With the floor at 0 the Bloch blocks are taken at
    # every size, also below the one from which block_decompose prefers them
    g, pi = case
    qm = quotient(g, pi)
    m = HillMap(exponent=6, tau=tau)
    grid = np.linspace(0.0, 0.94, 4001)
    slopes = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-3.0, -0.1)),
                                min_size=pi.r, max_size=pi.r))
    z = np.interp(-np.array(slopes), -t_prime(m, grid), grid)
    with mock.patch.object(partitions, "_BLOCH_MIN_CELLS", 0):
        assert len(block_decompose(qm).character_blocks) or g.n <= 16
        blk = block_stability(qm, m, z)
    if relabel:
        other = quotient(*relabelled(g, pi))
        assert other.operator.layout is None or g.n <= 16
        householder = block_stability(other, m, z).transverse_spectrum
    else:
        with mock.patch.object(partitions, "_BLOCH_MIN_CELLS", g.n + 1):
            dec = block_decompose(qm)
        assert len(dec.character_blocks) == 0
        householder = jacobian_spectrum(dec.transverse_block,
                                        t_prime(m, z)[dec.transverse_class], tau=tau).eigenvalues
    assert blk.transverse_spectrum.shape == (g.n - pi.r,)
    assert np.abs(blk.transverse_spectrum - householder).max(initial=0.0) < 1e-10
    assert blk.consistency < 1e-12


# (largest step, max_time): None is the stability cap; the small ones make
# runs end at the max_time cut, and steps far past the cap make error
# control reject steps and, at high h, land accepted states a rounding
# outside the box, where the clip runs
_STEP_LIMITS = [(None, 0.5), (None, 4.0), (None, 30.0), (0.02, 0.5), (0.3, 4.0),
                (0.3, 30.0), (40.0, 400.0)]


@st.composite
def stepper_runs(draw):
    """(operator, model, x0, opts): a weighted circulant or a tiled motif,
    h in [1, 40] with h = 40 drawn often, and a start that is constant on
    each class up to optional noise, its class values drawn from the box
    faces 0 and A, values small enough that (u/K)^h underflows, and the
    interior, with step limits from _STEP_LIMITS."""
    g, pi = draw(st.one_of(rotation_partitioned_circulants(), tiled_motifs()))
    m = HillMap(exponent=draw(st.one_of(st.just(40.0), st.floats(1.0, 40.0))))
    levels = st.one_of(st.sampled_from([0.0, m.amplitude]), st.floats(1e-14, 1e-9),
                       st.floats(0.0, m.amplitude))
    x0 = pi.expand(draw(st.lists(levels, min_size=pi.r, max_size=pi.r)))
    noise = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    rng = np.random.default_rng(draw(seeds))
    x0 = np.clip(x0 + noise * rng.uniform(-1.0, 1.0, g.n), 0.0, m.amplitude)
    step, max_time = draw(st.sampled_from(_STEP_LIMITS))
    opts = SimOptions(step=step, max_time=max_time,
                      conv_tol=draw(st.sampled_from([1e-9, 1e-6])))
    return scaled_adjacency(g), m, x0, opts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=stepper_runs())
# one accepted state of this run lands a rounding above A and is clipped
@example(run=(scaled_adjacency(hex_torus(6, 6)), HillMap(exponent=40.0),
              np.random.default_rng(0).uniform(0.0, 2.0, 36),
              SimOptions(step=40.0, max_time=400.0)))
def test_integrate_matches_the_reference_stepper_bit_for_bit(run):
    sa, m, x0, opts = run
    got_times, got_states = [], []

    def keep(k, t, x):
        got_times.append(t)
        got_states.append(x)

    try:
        got = integrate(sa, m, x0, opts, keep)
    except StateOutOfBox:
        with pytest.raises(StateOutOfBox):
            integrate_reference(sa, m, x0, *opts.resolved(m))
        return
    times, states, rest = integrate_reference(sa, m, x0, *opts.resolved(m))
    # every accepted state, not a thinned sample, and the rest record whole
    assert np.array_equal(got_times, times)
    assert np.array_equal(got_states, states)
    assert got.final_time == rest.final_time
    assert np.array_equal(got.final_state, rest.final_state)
    assert (got.steps, got.rejected, got.converged) == (
        rest.steps, rest.rejected, rest.converged)
    assert got.final_derivative_norm == rest.final_derivative_norm


@st.composite
def bipartite_rotation_quotients(draw):
    """(graph, partition) with a bipartite reduced graph: an even cycle split
    into the orbits of the rotation by an even divisor k (a reduced k-cycle),
    or a torus split into the orbits of the translations by (a, 0) and
    (0, b) for even divisors a, b (a reduced a x b torus)."""
    def even_divisor(n):
        return draw(st.sampled_from([k for k in range(2, n + 1, 2) if n % k == 0]))

    if draw(st.booleans()):
        n = draw(st.sampled_from(range(4, 25, 2)))
        g = cycle_graph(n)
        k = even_divisor(n)
        return g, orbits_from_generators(g, [[(i + k) % n for i in range(n)]])
    rows, cols = draw(st.sampled_from([2, 4, 6, 8])), draw(st.sampled_from([2, 4, 6, 8]))
    g = torus_mesh(rows, cols)
    a, b = even_divisor(rows), even_divisor(cols)
    return g, orbits_from_generators(g, [torus_shift_perm(rows, cols, a, 0),
                                         torus_shift_perm(rows, cols, 0, b)])


@PROPERTY
@given(case=st.one_of(bipartite_rotation_quotients(), rotation_partitioned_circulants()),
       h=st.floats(1.0, 40.0), data=st.data())
def test_sign_flipped_reduced_jacobian_is_cooperative_on_the_box(case, h, data):
    # the invariant behind the corner starts: flipping one side of the
    # reduced 2-coloring makes the reduced flow cooperative at every z in
    # [0, A]^r, not only at u*
    g, pi = case
    qm = quotient(g, pi)
    assume(qm.reduced_coloring is not None)
    m = HillMap(exponent=h)
    z = np.array(data.draw(st.lists(st.floats(0.0, m.amplitude),
                                    min_size=qm.r, max_size=qm.r)))
    signs = np.where(qm.reduced_coloring == 1, -1.0, 1.0)
    jac = -np.eye(qm.r) + qm.matrix * t_prime(m, z)[None, :]
    flipped = signs[:, None] * jac * signs[None, :]
    assert (flipped - np.diag(np.diag(flipped))).min() >= 0.0


def _flow_roots_oracle(pbar: np.ndarray, m: HillMap) -> list[np.ndarray]:
    """Roots of z = Pbar T(z) reached by the reduced flow from
    u* 1 +- 0.1 u* v_min, integrated to steady state by scipy and polished
    by fsolve, with T written out here rather than taken from the library."""
    def hill(z):
        return m.amplitude / (1.0 + (np.maximum(z, 0.0) / m.threshold) ** m.exponent)

    vals, vecs = np.linalg.eig(pbar)
    v = vecs[:, np.argmin(vals.real)].real
    v /= np.abs(v).max()
    u_star = fixed_point(m).value
    roots = []
    for sign in (1.0, -1.0):
        z0 = u_star * (1.0 + sign * 0.1 * v)
        flow = solve_ivp(lambda t, z: (-z + pbar @ hill(z)) / m.tau, (0.0, 4000.0 * m.tau),
                         z0, method="LSODA", rtol=1e-10, atol=1e-12)
        roots.append(fsolve(lambda z: z - pbar @ hill(z), flow.y[:, -1], xtol=1e-14))
    return roots


@contextlib.contextmanager
def corner_newton_failing():
    """Make the two corner Newton calls of the one solve_reduced inside
    fail, so the damped monotone iteration runs from both corners; yields
    the list of runs, one (start, iterates, limit) per corner, where
    iterates are the states whose Pbar T(z) the iteration evaluated, in
    order."""
    newton, monotone = existence._newton_root, existence._monotone_root
    runs, calls = [], []

    def corners_fail(pbar, model, z0, **kwargs):
        calls.append(None)
        return None if len(calls) <= 2 else newton(pbar, model, z0, **kwargs)

    def traced(pbar, model, z0):
        iterates = []
        t_eval = existence.t_eval
        with mock.patch.object(existence, "t_eval",
                               lambda m, z: iterates.append(np.array(z)) or t_eval(m, z)):
            limit = monotone(pbar, model, z0)
        runs.append((z0.copy(), iterates, limit))
        return limit

    with mock.patch.object(existence, "_newton_root", corners_fail), \
            mock.patch.object(existence, "_monotone_root", traced):
        yield runs


def _flow_oracle_check(case, factor):
    # the coloring corners and the flow off the saddle reach the same pair
    # of extremal roots
    g, pi = case
    qm = quotient(g, pi)
    assert qm.reduced_coloring is not None
    lam = np.linalg.eigvals(qm.matrix).real.min()
    m = HillMap(exponent=factor * 2.0 / abs(lam))       # u* = 1, |T'(u*)| = h/2
    red = solve_reduced(qm, m)
    assert red.certificate.verdict == CERTIFIED
    ours = [red.class_values, red.alternate_class_values]
    assert ours[1] is not None
    oracle = _flow_roots_oracle(qm.matrix, m)
    for a in ours:
        assert min(np.abs(a - b).max() for b in oracle) < 1e-8
    for b in oracle:
        assert min(np.abs(a - b).max() for a in ours) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=bipartite_rotation_quotients(), factor=st.floats(1.1, 3.0))
def test_reduced_roots_match_flow_oracle(case, factor):
    _flow_oracle_check(case, factor)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=bipartite_rotation_quotients(), factor=st.floats(1.1, 3.0))
def test_monotone_fallback_roots_match_flow_oracle(case, factor):
    # the same check with corner Newton failing, so the roots come from the
    # damped monotone iteration polished by Newton
    with corner_newton_failing() as runs:
        _flow_oracle_check(case, factor)
    assert len(runs) == 2


@st.composite
def certified_bipartite_quotients(draw):
    """(quotient, model): a bipartite_rotation_quotients() case, or a
    tiled_motifs() case with a bipartite reduced graph (most have a nonzero
    Pbar diagonal), at h = factor h* for a factor in (1, 6], with 1.001 and
    1.01 drawn often."""
    g, pi = draw(st.one_of(bipartite_rotation_quotients(), tiled_motifs()))
    qm = quotient(g, pi)
    assume(qm.reduced_coloring is not None and qm.eigenvalues[-1] < -1e-9)
    factor = draw(st.one_of(st.sampled_from([1.001, 1.01]), st.floats(1.001, 6.0)))
    m = HillMap(exponent=factor * 2.0 / abs(qm.eigenvalues[-1]))   # |T'(u*)| = h/2
    assume(certify(qm, m).verdict == CERTIFIED)
    return qm, m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=certified_bipartite_quotients())
def test_monotone_iterates_from_the_corners_run_to_the_extremal_roots(case):
    # with corner Newton failing, the damped map runs from each coloring
    # corner monotonically in the flipped order (toward the other corner),
    # and its polished limits are the default solve's pick and alternate
    qm, m = case
    fast = solve_reduced(qm, m)
    with corner_newton_failing() as runs:
        solve_reduced(qm, m)
    signs = np.where(qm.reduced_coloring == 1, -1.0, 1.0)
    corners = [np.where(qm.reduced_coloring == side, m.amplitude, 0.0) for side in (0, 1)]
    assert [start.tolist() for start, _, _ in runs] == [c.tolist() for c in corners]
    polished = []
    for (start, iterates, limit), direction in zip(runs, (-1.0, 1.0)):
        assert limit is not None
        assert np.array_equal(iterates[0], start) and np.array_equal(iterates[-1], limit)
        steps = np.diff(np.array(iterates) * signs, axis=0) * direction
        assert steps.min(initial=0.0) >= -1e-13
        polished.append(existence._newton_root(qm.matrix, m, limit))
    want = [fast.class_values, fast.alternate_class_values]
    assert want[1] is not None
    for a in polished:
        assert min(np.abs(a - b).max() for b in want) < 1e-9
    for b in want:
        assert min(np.abs(a - b).max() for a in polished) < 1e-9


@PROPERTY
@given(seed=seeds, n=st.integers(2, 24), r=st.integers(1, 6))
def test_reduced_edges_match_class_pair_loop(seed, n, r):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, weighted=bool(rng.integers(2)))
    labels = rng.integers(0, min(r, n), size=n)
    seed_pi = make_partition([np.flatnonzero(labels == k).tolist() for k in range(r)], n)
    qm = quotient(g, coarsest_equitable_refinement(g, seed_pi))
    pbar = qm.matrix
    loop = tuple((i, j) for i in range(qm.r) for j in range(i + 1, qm.r)
                 if pbar[i, j] != 0.0 or pbar[j, i] != 0.0)
    assert qm.reduced_edges == loop
    assert all(type(k) is int for e in qm.reduced_edges for k in e)


@PROPERTY
@given(seed=seeds, n=st.integers(2, 24), r=st.integers(1, 6), refine=st.booleans())
def test_class_sum_check_matches_the_class_loop(seed, n, r, refine):
    # random (mostly inequitable) partitions with shuffled class order; the
    # witness must be the one the class-by-class loop finds first
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, weighted=bool(rng.integers(2)))
    labels = rng.integers(0, min(r, n), size=n)
    pi = make_partition([np.flatnonzero(labels == k).tolist() for k in range(r)], n)
    if refine:
        pi = coarsest_equitable_refinement(g, pi)
    pi = make_partition([pi.classes[k] for k in rng.permutation(pi.r)], n)
    sa = scaled_adjacency(g)
    check = _class_sums_checked(sa, pi, 1e-12)[1]
    assert check == class_sums_checked_loop(sa, pi, 1e-12)
    assert check.witness is None or all(type(k) is int for k in check.witness[:4])


# weights that make class sums far below, near and far above the default
# tolerance, non-dyadic ones among them
_CHECK_WEIGHTS = [1.0, 0.1, 1 / 3, 2.7, 1e-13, 7e-13, 3e-12]


@st.composite
def hub_graphs(draw):
    """Twins 0 and 1, joined by equal weights to the same vertices above 2,
    and one of them also to vertex 2 by a weight of 3e-12 or less; a path
    through the n other vertices, random edges among them and up to two
    hubs joined to up to 20 of them, so that a vertex often has more than
    8 neighbours in one class.  Other weights come from _CHECK_WEIGHTS."""
    n = draw(st.integers(3, 30))
    others = st.integers(2, n + 1)
    edges = {(v, v + 1) for v in range(2, n + 1)}
    for hub in range(2, 2 + draw(st.integers(0, 2))):
        edges |= {(min(hub, v), max(hub, v))
                  for v in draw(st.sets(others, max_size=20)) if v != hub}
    edges |= {(min(a, b), max(a, b))
              for a, b in draw(st.lists(st.tuples(others, others), max_size=40)) if a != b}
    weights = st.sampled_from(_CHECK_WEIGHTS)
    rows = [(a, b, draw(weights)) for a, b in sorted(edges)]
    for v in sorted(draw(st.sets(st.integers(3, n + 1), min_size=1, max_size=12))):
        w = draw(weights)
        rows += [(0, v, w), (1, v, w)]
    rows.append((draw(st.sampled_from([0, 1])), 2, draw(st.sampled_from([1e-13, 7e-13, 3e-12]))))
    return build_graph(n + 2, rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=hub_graphs(), data=st.data())
def test_grouped_class_sums_match_the_dense_table(g, data):
    # the grouped check against the n x r table it replaced: the same
    # verdict and witness at a tolerance placed on, just below and just
    # above the table's differences, and the same quotient bits
    r = data.draw(st.integers(1, min(g.n, 6)))
    labels = np.array(data.draw(st.lists(st.integers(0, r - 1), min_size=g.n,
                                         max_size=g.n)))
    labels[:2] = 0                  # the twins share the first class, 0 its first vertex
    if data.draw(st.booleans()):
        labels[2] = r               # only one twin has a sum into this class
    pi = make_partition([np.flatnonzero(labels == k).tolist() for k in range(r + 1)], g.n)
    if data.draw(st.booleans()):
        pi = coarsest_equitable_refinement(g, pi)
    sa = scaled_adjacency(g)
    table = class_sums(sa, pi.labels, pi.r)
    # the differences of one vertex's row, often the second twin's
    diffs = np.unique(np.abs(table - table[pi.firsts[pi.labels]])[
        data.draw(st.one_of(st.just(1), st.integers(0, g.n - 1)))])
    tol = data.draw(st.one_of(
        st.sampled_from([1e-12, -1.0, diffs[-1], np.nextafter(diffs[-1], 0.0)]),
        st.tuples(st.sampled_from(diffs.tolist()),
                  st.sampled_from([-1e-12, -1e-13, 0.0, 1e-13, 1e-12])).map(sum)))
    (i, j, sums), check = _class_sums_checked(sa, pi, tol)
    want_matrix, want = class_sums_checked_dense(sa, pi, tol)
    assert check == want
    matrix = np.zeros((pi.r, pi.r))
    matrix[i, j] = sums
    assert np.array_equal(matrix.view(np.uint64), want_matrix.view(np.uint64))


@PROPERTY
@given(name=st.sampled_from(sorted(MOTIFS)), data=st.data())
def test_motifs_tile_equitably_on_every_multiple_of_their_period(name, data):
    # both lattices need even sides, so a side is a multiple of lcm(period, 2)
    motif = np.array(MOTIFS[name])
    rows, cols = (data.draw(st.integers(1, 48 // p).map(lambda a, p=p: a * p))
                  for p in np.lcm(motif.shape, 2))
    pi = tile_partition(rows, cols, motif)
    assert is_equitable(hex_torus(rows, cols), pi).ok
    assert is_equitable(torus_mesh(rows, cols), pi).ok == (name != "spots")


def _json_values():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    floats = st.one_of(finite, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308,
                                                 float("nan"), float("inf"), float("-inf")]))
    ints = st.integers(-2**70, 2**70)
    numpy_scalars = st.one_of(finite.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
                              st.booleans().map(np.bool_),
                              st.floats(width=32, allow_nan=False,
                                        allow_infinity=False).map(np.float32))
    arrays = st.one_of(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                   elements=floats),
        hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)))
    # number rows take the bulk path, and lists of them (2-D arrays too) the row
    # join; mixed rows the recursive one
    rows = st.one_of(st.lists(ints), st.lists(floats), st.lists(st.one_of(ints, floats)),
                     st.lists(st.one_of(ints, floats, st.booleans(), numpy_scalars)).map(tuple))
    scalars = st.one_of(st.none(), st.booleans(), ints, floats, st.text(), numpy_scalars)
    return st.recursive(
        st.one_of(scalars, arrays, rows),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.one_of(st.text(max_size=5), st.integers(-5, 5)), inner,
                            max_size=4)),
        max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=_json_values())
def test_canonical_json_matches_item_by_item_writer(obj):
    try:
        expected = canonical_oracle(obj)
    except BadBundle:
        with pytest.raises(BadBundle):
            dumps_canonical(obj)
    else:
        assert dumps_canonical(obj) == expected


# a few values, so that they repeat: the smallest subnormal, other
# subnormals, the largest magnitudes and non-dyadic values, drawn with both
# signed zeros
_EMIT_POOL = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e308,
              -1e308, 0.1, 1 / 3, -2 / 3, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.one_of(
    st.tuples(st.integers(0, 300)),
    st.tuples(st.integers(0, 20), st.integers(0, 20))))
def test_float_arrays_emit_as_item_by_item(data, shape):
    # sizes on both sides of serialize._BULK_ITEMS; one nan or inf
    # anywhere must raise as the item-by-item writer does
    pool = [0.0, -0.0] + data.draw(st.lists(st.sampled_from(_EMIT_POOL), max_size=5))
    size = math.prod(shape)
    a = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
                 dtype=np.float64).reshape(shape)
    assert dumps_canonical(a) == canonical_oracle(a)
    assert dumps_canonical({"m": a.T}) == canonical_oracle({"m": a.T})
    if size:
        a.flat[data.draw(st.integers(0, size - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(BadBundle, match="^cannot serialize non-finite numbers$"):
            dumps_canonical(a)


# vertex ids around [0, n) and one far beyond int64
ids = st.one_of(st.integers(-2, 7), st.just(2**70))


def _outcome(build):
    try:
        return "ok", build()
    except PatternQError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), edges=st.lists(st.tuples(ids, ids, st.sampled_from(
    [1.0, 2.5, 0.0, -1.0, math.nan, math.inf])), max_size=8))
def test_bulk_edge_checks_match_the_edge_loop(n, edges):
    assert (_outcome(lambda: edge_tuples(build_graph(n, edges)))
            == _outcome(lambda: edge_loop(n, edges)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 6), classes=st.lists(st.lists(ids, max_size=5), max_size=4))
def test_bulk_class_checks_match_the_vertex_loop(n, classes):
    assert (_outcome(lambda: make_partition(classes, n).classes)
            == _outcome(lambda: class_loop(classes, n)))


@PROPERTY
@given(rows=st.sampled_from([2, 4, 8, 16]), scale=st.floats(0.01, 10.0))
def test_class_degrees_match_class_by_class_sums(rows, scale):
    # bincount adds in vertex order where a per-class sum is pairwise, so
    # the two agree to rounding, not bit for bit
    base = torus_mesh(rows, 2 * rows)
    g = build_graph(base.n, np.column_stack([base.i, base.j, scale * base.w]))
    qm = quotient(g, bipartition_partition(g))
    loop = [g.degrees()[list(cls)].sum() for cls in qm.partition.classes]
    assert np.allclose(qm.class_degrees, loop, rtol=4 * g.n * np.finfo(float).eps, atol=0)


@st.composite
def edge_sets(draw):
    """n <= 40 vertices and up to 60 edges; half the draws keep only the
    edges across a random 2-coloring, so bipartite, disconnected and
    edgeless graphs and isolated vertices all come up often."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=60))
    pairs = [(a, b) for a, b in pairs if a != b]
    if draw(st.booleans()):
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [(a, b) for a, b in pairs if side[a] != side[b]]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return n, a, b


def _ranked(roots: list[int]) -> list[int]:
    """Each vertex's root replaced by the root's rank among the roots."""
    rank = {root: k for k, root in enumerate(sorted(set(roots)))}
    return [rank[root] for root in roots]


def _assert_components_match_the_oracles(n, a, b):
    assert _components(n, a, b).tolist() == components_union_find(n, a, b)
    color, connected = _two_coloring(n, a, b)
    want_color, want_connected = two_coloring_by_search(n, a, b)
    assert connected == want_connected
    assert (None if color is None else color.tolist()) == want_color


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=edge_sets())
@example(case=(1, np.array([], np.int64), np.array([], np.int64)))
@example(case=(5, np.array([], np.int64), np.array([], np.int64)))
@example(case=(5, np.array([0, 1, 2]), np.array([1, 2, 0])))                # odd cycle
@example(case=(6, np.array([0, 1, 2, 3]), np.array([1, 2, 0, 4])))          # odd + isolated
@example(case=(6, np.array([5, 4, 3, 2, 1]), np.array([4, 3, 2, 1, 0])))    # path, high first
def test_components_and_coloring_match_union_find_and_search(case):
    _assert_components_match_the_oracles(*case)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), data=st.data())
def test_orbits_match_union_find_over_the_generators(n, data):
    # on the edgeless graph every permutation is an automorphism
    perms = data.draw(st.lists(st.permutations(range(n)), max_size=3))
    if data.draw(st.booleans()):
        perms.append(list(range(n)))
    pi = orbits_from_generators(build_graph(n, []), perms)
    roots = components_union_find(n, np.tile(np.arange(n), len(perms)),
                                  np.array(perms, dtype=np.int64).ravel())
    assert pi.labels.tolist() == _ranked(roots)


def test_components_match_the_oracles_on_large_graphs():
    # the 256x256 torus, and a path through 65536 vertices in random order,
    # which takes the most rounds of any shape tried
    g = torus_mesh(256, 256)
    _assert_components_match_the_oracles(g.n, g.i, g.j)
    order = np.random.default_rng(7).permutation(65536)
    _assert_components_match_the_oracles(65536, order[:-1], order[1:])
    shifts = [torus_shift_perm(256, 256, 2, 0), torus_shift_perm(256, 256, 0, 2)]
    roots = components_union_find(g.n, np.tile(np.arange(g.n), 2), np.concatenate(shifts))
    pi = orbits_from_generators(g, shifts)
    assert pi.r == 4
    assert pi.labels.tolist() == _ranked(roots)
