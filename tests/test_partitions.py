import numpy as np
import pytest

from patternq.errors import (
    NotAutomorphism,
    NotEquitable,
    NotPermutation,
    PartitionMismatch,
)
from patternq.graphs import (
    build_graph,
    buckyball,
    cycle_graph,
    generate,
    hex_torus,
    path_graph,
    scaled_adjacency,
    torus_mesh,
    triangle_bridge,
)
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    canonical_partition,
    block_decompose,
    buckyball_face_partition,
    coarsest_equitable_refinement,
    is_equitable,
    make_partition,
    orbits_from_generators,
    quotient,
    refines,
    singleton_partition,
    tile_partition,
    trivial_partition,
)

from helpers import (
    brute_force_coarsest,
    buckyball_rotation_generators,
    class_indicator,
    cycle_rotation_perm,
    dense_averaging,
    equitable_two_colorings,
    hex_diagonal_generators,
    random_connected_graph,
    rounded_signature_refinement,
    torus_checkerboard_generators,
    torus_domino_generators,
)


# ---- partition container ----

def test_make_partition_sorts_elements_keeps_class_order():
    pi = make_partition([[3, 1], [2, 0]], 4)
    assert pi.classes == ((1, 3), (0, 2))
    assert pi.r == 2
    assert canonical_partition([[3, 1], [2, 0]], 4).classes == ((0, 2), (1, 3))


@pytest.mark.parametrize("classes", [
    [[0, 1], [1, 2]],        # overlap
    [[0], [2]],              # missing vertex
    [[0, 1, 2, 3]],          # out of range
])
def test_make_partition_rejects(classes):
    with pytest.raises(PartitionMismatch):
        make_partition(classes, 3)


def test_expand_maps_class_values_to_cells():
    pi = make_partition([[0, 2], [1]], 3)
    assert np.array_equal(pi.expand([5.0, 7.0]), [5.0, 7.0, 5.0])


# ---- equitability ----

def test_torus_bipartition_is_equitable():
    g = torus_mesh(4, 4)
    assert is_equitable(g, bipartition_partition(g)).ok


def test_triangle_bridge_partition_is_equitable():
    pi = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    assert is_equitable(triangle_bridge(), pi).ok


def test_path3_unbalanced_partition_witness():
    g = path_graph(3)
    check = is_equitable(g, make_partition([[0, 1], [2]], 3))
    assert not check.ok
    ci, cj, u, v, su, sv = check.witness
    assert ci == 0 and {u, v} == {0, 1}
    assert abs(su - sv) > 1e-12
    # the reported sums match a direct recomputation (vertices 0 and 1 see
    # class sums 1 vs 1/2 on class 0, and 0 vs 1/2 on class 1)
    p_mat = dense_averaging(g)
    cls_j = [[0, 1], [2]][cj]
    assert su == p_mat[u, cls_j].sum()
    assert sv == p_mat[v, cls_j].sum()


def test_is_equitable_requires_matching_n():
    with pytest.raises(PartitionMismatch):
        is_equitable(path_graph(3), trivial_partition(4))


# ---- quotient matrices ----

def test_quotient_bipartite_two_level():
    g = torus_mesh(4, 4)
    qm = quotient(g, bipartition_partition(g))
    assert np.array_equal(qm.matrix, [[0, 1], [1, 0]])


def test_quotient_domino_orbits():
    qm = quotient(torus_mesh(4, 4), tile_partition(4, 4, MOTIFS["domino"]))
    assert np.array_equal(qm.matrix, [[0.25, 0.75], [0.75, 0.25]])


def test_quotient_buckyball():
    qm = quotient(buckyball(), buckyball_face_partition())
    assert np.array_equal(qm.matrix, [[0, 1], [0.5, 0.5]])
    assert np.array_equal(qm.class_degrees, [60.0, 120.0])


def test_quotient_triangle_bridge():
    # class order is preserved, so the hub pair comes first as listed
    pi = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    qm = quotient(triangle_bridge(), pi)
    assert np.array_equal(qm.matrix, [[0, 1], [0.5, 0.5]])
    assert np.array_equal(qm.class_degrees, [6.0, 12.0])


@pytest.mark.parametrize("pattern,expected", [
    ("diag3", [[0.0, 1.0], [0.5, 0.5]]),
    ("row2", [[1 / 3, 2 / 3], [2 / 3, 1 / 3]]),
    ("col3", [[1 / 3, 2 / 3], [1 / 3, 2 / 3]]),
    ("row3", [[1 / 3, 2 / 3], [1 / 3, 2 / 3]]),
    ("col2", [[1 / 3, 2 / 3], [2 / 3, 1 / 3]]),
])
def test_quotient_hex_patterns(pattern, expected):
    g = hex_torus(6, 6)
    qm = quotient(g, tile_partition(6, 6, MOTIFS[pattern]))
    assert np.abs(qm.matrix - np.array(expected)).max() < 1e-12


def test_quotient_rejects_inequitable():
    with pytest.raises(NotEquitable):
        quotient(path_graph(3), make_partition([[0, 1], [2]], 3))


def _builtin_cases():
    g_t = torus_mesh(4, 4)
    g_h = hex_torus(6, 6)
    cases = [
        (g_t, bipartition_partition(g_t)),
        (g_t, tile_partition(4, 4, MOTIFS["domino"])),
        (buckyball(), buckyball_face_partition()),
        (triangle_bridge(), make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)),
    ]
    cases += [(g_h, tile_partition(6, 6, MOTIFS[p])) for p in ("col2", "col3", "diag3", "row2", "row3", "spots")]
    return cases


@pytest.mark.parametrize("g,pi", _builtin_cases())
def test_quotient_row_stochastic_and_detailed_balance(g, pi):
    qm = quotient(g, pi)
    assert np.abs(qm.matrix.sum(axis=1) - 1.0).max() < 1e-12
    flux = qm.class_degrees[:, None] * qm.matrix
    assert np.abs(flux - flux.T).max() < 1e-12


@pytest.mark.parametrize("g,pi", _builtin_cases())
def test_quotient_spectrum_subset_of_full(g, pi):
    qm = quotient(g, pi)
    full = np.linalg.eigvals(dense_averaging(g)).real
    for lam in np.linalg.eigvals(qm.matrix).real:
        assert np.abs(full - lam).min() < 1e-8


def test_reduced_graph_omits_self_loops():
    # col3 has nonzero diagonal entries yet its reduced graph is one edge
    qm = quotient(hex_torus(6, 6), tile_partition(6, 6, MOTIFS["col3"]))
    assert qm.matrix[0, 0] != 0 or qm.matrix[1, 1] != 0
    assert qm.reduced_edges == ((0, 1),)
    assert qm.reduced_coloring is not None


def test_sign_flip_makes_offdiagonals_nonpositive():
    for g, pi in _builtin_cases():
        qm = quotient(g, pi)
        if qm.reduced_coloring is None:
            continue
        signs = np.ones(qm.r)
        for k in qm.reduced_coloring[1]:
            signs[k] = -1.0
        flipped = signs[:, None] * qm.matrix * signs[None, :]
        off = flipped - np.diag(np.diag(flipped))
        assert off.max() <= 1e-12


# ---- coarsest equitable refinement ----

def test_refinement_trivial_seed_returns_trivial():
    # one class is already equitable: every row of the averaging matrix sums to 1
    for g in (cycle_graph(5), torus_mesh(4, 4), path_graph(4)):
        assert coarsest_equitable_refinement(g).classes == trivial_partition(g.n).classes


def test_refinement_keeps_already_equitable_seed():
    g = triangle_bridge()
    seed = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    assert coarsest_equitable_refinement(g, seed).classes == seed.classes


def test_refinement_splits_inequitable_seed():
    g = path_graph(4)
    seed = make_partition([[0], [1, 2, 3]], 4)
    result = coarsest_equitable_refinement(g, seed)
    assert is_equitable(g, result).ok
    assert refines(result, seed)
    assert frozenset(result.classes) == frozenset(brute_force_coarsest(g, seed).classes)


def test_refinement_rejects_mismatched_seed():
    with pytest.raises(PartitionMismatch):
        coarsest_equitable_refinement(path_graph(3), trivial_partition(4))


def test_refinement_idempotent():
    g = path_graph(5)
    seed = make_partition([[0], [1, 2, 3, 4]], 5)
    once = coarsest_equitable_refinement(g, seed)
    assert coarsest_equitable_refinement(g, once).classes == once.classes


def test_refinement_matches_oracle_on_random_seeds():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n)
        split = int(rng.integers(1, n))
        verts = rng.permutation(n)
        seed = make_partition([verts[:split], verts[split:]], n)
        got = coarsest_equitable_refinement(g, seed)
        assert is_equitable(g, got).ok
        want = brute_force_coarsest(g, seed)
        assert frozenset(got.classes) == frozenset(want.classes)


def _point_seed(n: int, v: int):
    return make_partition([[v], [u for u in range(n) if u != v]], n)


@pytest.mark.parametrize("kind,sizes,v", [
    ("hex_torus", (12, 12), 0), ("hex_torus", (12, 12), 29), ("hex_torus", (12, 12), 143),
    ("hex_torus", (30, 30), 0), ("hex_torus", (30, 30), 17), ("hex_torus", (30, 30), 450),
    ("hex_torus", (30, 30), 899), ("buckyball", (), 0),
    ("torus_mesh", (8, 8), None),  # the checkerboard seed
])
def test_refinement_matches_rounded_signatures(kind, sizes, v):
    g = generate(kind, *sizes)
    seed = bipartition_partition(g) if v is None else _point_seed(g.n, v)
    # same classes in the same order: splits at the parent's position,
    # siblings by minimum vertex
    assert coarsest_equitable_refinement(g, seed) == rounded_signature_refinement(g, seed)


C13_WEIGHTS = [0.9524665424747193, 2.734681399537526, 0.22126567293362276]


@pytest.mark.parametrize("weights,exact_type", [
    (C13_WEIGHTS, np.int64),
    # 100 * 2**59 overflows int64, so the keys are Python ints
    ([0.01, 100.0, 0.3], object),
])
def test_refinement_keeps_the_mirror_classes_of_a_weighted_c13(weights, exact_type):
    from fractions import Fraction

    from patternq.partitions import _integer_weights

    # 12-digit keys of float sums split C13_WEIGHTS's mirror classes into singletons
    g = build_graph(13, [(k, (k + s) % 13, w)
                         for k in range(13) for s, w in zip((1, 2, 3), weights)])
    seed = _point_seed(13, 0)
    ints = _integer_weights(scaled_adjacency(g))
    assert ints.dtype == exact_type
    # one power of two scales every weight to its integer exactly
    assert len({Fraction(w) / int(k)
                for w, k in zip(scaled_adjacency(g).edge_weights, ints)}) == 1
    got = coarsest_equitable_refinement(g, seed)
    assert got.classes == ((0,),) + tuple((k, 13 - k) for k in range(1, 7))
    assert is_equitable(g, got).ok


def test_refinement_runs_on_the_edge_arrays(monkeypatch):
    from patternq import partitions
    from patternq.graphs import ScaledAdjacency

    g = hex_torus(12, 12)
    seed = _point_seed(g.n, 5)
    want = rounded_signature_refinement(g, seed)

    def forbidden(*args, **kwargs):
        raise AssertionError("refinement reached the n x r class sums or make_partition")

    monkeypatch.setattr(ScaledAdjacency, "class_sums", forbidden)
    monkeypatch.setattr(partitions, "make_partition", forbidden)
    assert coarsest_equitable_refinement(g, seed) == want


# ---- two-class constructors ----

def test_two_class_constructors_match_modular_oracles_at_48x48():
    side = 48
    i, j = np.divmod(np.arange(side * side), side)
    assert np.array_equal(tile_partition(side, side, MOTIFS["domino"]).class_of(),
                          (j + i // 2) % 2)
    others = {"diag3": (i - j) % 3 != 0, "row2": i % 2 != 0, "col3": j % 3 != 0,
              "row3": i % 3 != 0, "col2": j % 2 != 0, "checkerboard": (i + j) % 2 != 0,
              "spots": (i % 2 == 1) & (j % 2 == 1)}
    for pattern, in_class_1 in others.items():
        assert np.array_equal(tile_partition(side, side, MOTIFS[pattern]).class_of(),
                              in_class_1.astype(int)), pattern


@pytest.mark.parametrize("g,side,count,equitable,inequitable", [
    # every motif that fits the lattice, split by equitability
    (torus_mesh(4, 4), 4, 43, ["checkerboard", "domino", "row2", "col2"], ["spots"]),
    (hex_torus(6, 6), 6, 163,
     ["checkerboard", "diag3", "row2", "col3", "row3", "col2", "spots"], []),
])
def test_exhaustive_search_pins_the_equitable_two_colorings(g, side, count, equitable,
                                                            inequitable):
    found = set(equitable_two_colorings(g))
    assert len(found) == count
    for c in found:
        assert is_equitable(g, make_partition(
            [[v for v in range(g.n) if c[v] == k] for k in (0, 1)], g.n)).ok
    assert sorted(equitable + inequitable) == sorted(
        name for name, m in MOTIFS.items() if side % len(m) == 0 == side % len(m[0]))
    for name in equitable + inequitable:
        labels = tuple(tile_partition(side, side, MOTIFS[name]).class_of().tolist())
        assert (labels in found) == (name in equitable), name


# ---- orbit partitions ----

def test_orbits_empty_generators_gives_singletons():
    g = path_graph(4)
    assert orbits_from_generators(g, []).classes == singleton_partition(4).classes


def test_orbits_cycle_rotation_is_transitive():
    g = cycle_graph(4)
    pi = orbits_from_generators(g, [cycle_rotation_perm(4)])
    assert pi.classes == ((0, 1, 2, 3),)


def test_orbits_torus_domino_generators():
    g = torus_mesh(4, 4)
    pi = orbits_from_generators(g, torus_domino_generators(4, 4))
    assert set(pi.classes[0]) == {0, 2, 4, 6, 9, 11, 13, 15}
    assert set(pi.classes[1]) == {1, 3, 5, 7, 8, 10, 12, 14}
    assert pi.classes == tile_partition(4, 4, MOTIFS["domino"]).classes


def test_orbits_torus_checkerboard_generators():
    g = torus_mesh(4, 4)
    pi = orbits_from_generators(g, torus_checkerboard_generators(4, 4))
    assert pi.classes == bipartition_partition(g).classes


def test_orbits_buckyball_rotations():
    g = buckyball()
    pi = orbits_from_generators(g, buckyball_rotation_generators())
    assert pi.classes == buckyball_face_partition().classes


def test_orbits_hex_diagonal_generators():
    g = hex_torus(6, 6)
    pi = orbits_from_generators(g, hex_diagonal_generators(6, 6))
    assert pi.classes == tile_partition(6, 6, MOTIFS["diag3"]).classes


def test_orbit_partitions_are_always_equitable():
    cases = [
        (torus_mesh(4, 4), torus_domino_generators(4, 4)),
        (torus_mesh(4, 4), torus_checkerboard_generators(4, 4)),
        (buckyball(), buckyball_rotation_generators()),
        (hex_torus(6, 6), hex_diagonal_generators(6, 6)),
        (cycle_graph(6), [cycle_rotation_perm(6)]),
    ]
    for g, perms in cases:
        assert is_equitable(g, orbits_from_generators(g, perms)).ok


def test_orbits_rejects_non_permutation():
    with pytest.raises(NotPermutation):
        orbits_from_generators(path_graph(3), [[0, 0, 2]])


def test_orbits_rejects_non_automorphism():
    g = path_graph(3)
    # swapping an endpoint with the middle breaks the edge set
    with pytest.raises(NotAutomorphism):
        orbits_from_generators(g, [[1, 0, 2]])


def test_orbits_checks_weights():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    # reversing the path maps the weight-1 edge onto the weight-2 edge
    with pytest.raises(NotAutomorphism):
        orbits_from_generators(g, [[2, 1, 0]])


# ---- block decomposition ----

def test_block_decompose_two_vertices_has_no_transverse_space():
    g = build_graph(2, [(0, 1, 1.0)])
    dec = block_decompose(quotient(g, bipartition_partition(g)))
    assert np.array_equal(dec.quotient_block, [[0, 1], [1, 0]])
    assert dec.transverse_block.shape == (0, 0)


@pytest.mark.parametrize("g,pi", _builtin_cases())
def test_block_decompose_identities(g, pi):
    qm = quotient(g, pi)
    dec = block_decompose(qm)
    p, q = dense_averaging(g), class_indicator(pi)
    # P Q = Q Pbar
    assert np.abs(p @ q - q @ qm.matrix).max() < 1e-12
    # spectrum splits into quotient plus transverse parts
    full = np.sort(np.linalg.eigvals(p).real)
    parts = np.sort(np.concatenate([
        np.linalg.eigvals(dec.quotient_block).real,
        np.linalg.eigvals(dec.transverse_block).real
        if dec.transverse_block.size else np.empty(0),
    ]))
    assert np.abs(full - parts).max() < 1e-8


def test_block_decompose_transverse_dimensions():
    g = torus_mesh(4, 4)
    dec = block_decompose(quotient(g, bipartition_partition(g)))
    assert dec.transverse_block.shape == (14, 14)


def test_block_decompose_class_with_unequal_degrees():
    # a weighted star is equitable for {center} | leaves although the leaves'
    # degrees differ, so each class vector must follow sqrt(d), not ones
    g = build_graph(5, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0)])
    dec = block_decompose(quotient(g, make_partition([[0], [1, 2, 3, 4]], 5)))
    assert dec.coupling < 1e-12
    assert list(dec.transverse_class) == [1, 1, 1]
    parts = np.concatenate([np.linalg.eigvalsh(dec.quotient_block),
                            np.linalg.eigvalsh(dec.transverse_block)])
    full = np.linalg.eigvals(dense_averaging(g)).real
    assert np.abs(np.sort(parts) - np.sort(full)).max() < 1e-12


def test_block_decompose_rejects_inequitable():
    with pytest.raises(NotEquitable):
        quotient(path_graph(3), make_partition([[0, 1], [2]], 3))
