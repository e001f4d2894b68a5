"""Property tests of the averaging operator, the simulation, the reduced
solve, the quotient's reduced graph, the spectral, block and small-gain
routines and the canonical JSON writer against independent oracles: the
dense averaging matrix, scipy's ODE integrators (DOP853 on the dense
network, LSODA on the reduced flow) and root finder,
characteristic-polynomial roots and coefficients, dense unsymmetric
eigvals, leading principal minors, a loop over class pairs and the
item-by-item JSON writer."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.linalg import null_space
from scipy.optimize import fsolve

from patternq.cells import HillMap, fixed_point, t_prime
from patternq.errors import BadBundle
from patternq.existence import CERTIFIED, lift, solve_reduced
from patternq.graphs import (
    ScaledAdjacency,
    build_graph,
    cycle_graph,
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
    canonical_oracle,
    char_poly_coeffs,
    char_poly_eigs,
    class_indicator,
    class_sums_checked_loop,
    dense_averaging,
    m_matrix_by_leading_minors,
    random_connected_graph,
    torus_shift_perm,
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
    sums = sa.class_sums(class_of, r)
    assert sums.shape == (n, r)
    assert np.abs(sums - p @ indicator).max() < 1e-14


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
    dec = block_decompose(quotient(g, pi))
    assert dec.coupling < 1e-12
    blk = block_stability(dec, m, z)
    union = np.sort(np.concatenate([blk.representative_spectrum,
                                    blk.transverse_spectrum]))
    cell_slopes = t_prime(m, pi.expand(z))
    dense = np.linalg.eigvals(-np.eye(g.n) + cell_slopes[:, None] * dense_averaging(g))
    assert np.abs(dense.imag).max() < 1e-10
    assert np.abs(union - np.sort(dense.real)).max() < 1e-10


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
    sym_quotient = np.sqrt(np.outer(qm.class_degrees, 1.0 / qm.class_degrees)) * qm.matrix
    assert np.abs(dec.quotient_block - (sym_quotient + sym_quotient.T) / 2.0).max() < 1e-12
    root = np.sqrt(d)
    s = root[:, None] * dense_averaging(g) / root[None, :]
    n_perp = null_space((class_indicator(pi) * root[:, None]).T)
    assert n_perp.shape == (g.n, g.n - pi.r)
    oracle = np.linalg.eigvalsh(n_perp.T @ s @ n_perp)
    assert np.abs(np.linalg.eigvalsh(dec.transverse_block) - oracle).max(initial=0.0) < 1e-10
    assert np.array_equal(dec.transverse_block, dec.transverse_block.T)
    firsts = [cls[0] for cls in pi.classes]
    rest = [v for v in range(g.n) if v not in firsts]
    assert np.array_equal(dec.transverse_class, pi.class_of()[rest])
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
    dense = np.abs(np.linalg.eigvals(dense_averaging(g) * sg.gains.cell_gains[None, :])).max()
    assert abs(sg.rho_full - dense) < 1e-10


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
    signs = np.ones(qm.r)
    signs[list(qm.reduced_coloring[1])] = -1.0
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=bipartite_rotation_quotients(), factor=st.floats(1.1, 3.0))
def test_reduced_roots_match_flow_oracle(case, factor):
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
    # homogeneous rows take the bulk path; mixed rows the recursive one
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
