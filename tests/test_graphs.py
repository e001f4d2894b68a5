import numpy as np
import pytest

from patternq.errors import (
    BadIndex,
    BadLatticeSize,
    DuplicateEdge,
    IsolatedVertex,
    NonpositiveWeight,
    NotConnected,
    SelfLoop,
)
from patternq.graphs import (
    bipartition,
    build_graph,
    buckyball,
    cycle_graph,
    generate,
    hex_torus,
    is_connected,
    path_graph,
    scaled_adjacency,
    torus_mesh,
    triangle_bridge,
)

from helpers import connected_by_closure, hex_torus_loops, torus_mesh_loops


def test_build_smallest_graph():
    g = build_graph(2, [(0, 1, 1.0)])
    assert g.n == 2
    assert g.edges == ((0, 1, 1.0),)


def test_build_path_of_three():
    g = build_graph(3, [(1, 2, 1), (0, 1, 1)])
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_build_canonicalizes_orientation():
    g = build_graph(3, [(2, 0, 1.5)])
    assert g.edges == ((0, 2, 1.5),)


@pytest.mark.parametrize("edges,exc", [
    ([(0, 1, 1), (0, 1, 2)], DuplicateEdge),
    ([(1, 0, 1), (0, 1, 2)], DuplicateEdge),
    ([(0, 0, 1)], SelfLoop),
    ([(0, 3, 1)], BadIndex),
    ([(0, -1, 1)], BadIndex),
    ([(0, 1, 0.0)], NonpositiveWeight),
    ([(0, 1, -2.0)], NonpositiveWeight),
])
def test_build_rejects_bad_edges(edges, exc):
    with pytest.raises(exc):
        build_graph(3, edges)


def _operator_columns(sa):
    """P read column by column through matvec, so no dense field is needed."""
    return np.column_stack([sa.matvec(e) for e in np.eye(sa.n)])


def test_scaled_adjacency_path_of_three():
    sa = scaled_adjacency(path_graph(3))
    expected = np.array([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
    assert np.array_equal(_operator_columns(sa), expected)
    assert np.array_equal(sa.degrees, [1, 2, 1])
    c = 1.0 / np.sqrt(2.0)
    assert np.array_equal(sa.symmetric, [[0, c, 0], [c, 0, c], [0, c, 0]])


def test_scaled_adjacency_two_vertices():
    sa = scaled_adjacency(build_graph(2, [(0, 1, 3.0)]))
    assert np.array_equal(_operator_columns(sa), [[0, 1], [1, 0]])
    assert np.array_equal(sa.symmetric, [[0, 1], [1, 0]])


def test_scaled_adjacency_torus_rows():
    sa = scaled_adjacency(torus_mesh(4, 4))
    # brute-force row check: four entries of 1/4 in every row, in P and in S
    for row in np.vstack([_operator_columns(sa), sa.symmetric]):
        nz = row[row > 0]
        assert len(nz) == 4
        assert np.all(nz == 0.25)


def test_scaled_adjacency_rejects_isolated_vertex():
    with pytest.raises(IsolatedVertex):
        scaled_adjacency(build_graph(3, [(0, 1, 1)]))


@pytest.mark.parametrize("g", [
    path_graph(3),
    cycle_graph(5),
    torus_mesh(4, 4),
    hex_torus(6, 6),
    buckyball(),
    triangle_bridge(),
])
def test_rows_sum_to_one_and_support_symmetric(g):
    sa = scaled_adjacency(g)
    p = _operator_columns(sa)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(p > 0, p.T > 0)
    assert p.min() >= 0
    assert np.array_equal(sa.symmetric, sa.symmetric.T)
    assert np.array_equal(sa.symmetric > 0, p > 0)


def test_is_connected_basics():
    assert is_connected(path_graph(3))
    assert not is_connected(build_graph(4, [(0, 1, 1), (2, 3, 1)]))


def test_buckyball_connected_against_closure_oracle():
    g = buckyball()
    assert is_connected(g) == connected_by_closure(g)
    assert is_connected(g)


def test_bipartition_torus_matches_parity_classes():
    sides = bipartition(torus_mesh(4, 4))
    assert sides is not None
    assert set(sides[0]) == {0, 2, 5, 7, 8, 10, 13, 15}
    assert set(sides[1]) == {1, 3, 4, 6, 9, 11, 12, 14}


def test_bipartition_proper_two_coloring():
    g = torus_mesh(4, 6)
    sides = bipartition(g)
    side0 = set(sides[0])
    for i, j, _ in g.edges:
        assert (i in side0) != (j in side0)


def test_bipartition_odd_cycle_is_none():
    assert bipartition(cycle_graph(3)) is None


def test_bipartition_triangle_bridge_is_none():
    # odd cycles on both ends
    assert bipartition(triangle_bridge()) is None


def test_bipartition_requires_connected():
    with pytest.raises(NotConnected):
        bipartition(build_graph(4, [(0, 1, 1), (2, 3, 1)]))


def test_torus_mesh_degrees():
    g = torus_mesh(4, 4)
    assert g.n == 16
    assert np.all(g.degrees() == 4)


def test_torus_mesh_two_rows_keeps_weighted_degree():
    # wraparound on a 2-row mesh doubles the vertical contact weight
    g = torus_mesh(2, 4)
    assert np.all(g.degrees() == 4)
    weights = {w for _, _, w in g.edges}
    assert weights == {1.0, 2.0}


def test_hex_torus_degrees():
    g = hex_torus(6, 6)
    assert g.n == 36
    assert np.all(g.degrees() == 6)


def test_buckyball_structure():
    g = buckyball()
    assert g.n == 32
    deg = g.degrees()
    assert np.all(deg[:12] == 5)
    assert np.all(deg[12:] == 6)
    assert len(g.edges) == 90
    # pentagons never touch pentagons
    assert not any(i < 12 and j < 12 for i, j, _ in g.edges)
    # hexagons touch exactly 3 pentagons and 3 hexagons
    for v in range(12, 32):
        nbrs = [j if i == v else i for i, j, _ in g.edges if v in (i, j)]
        assert sum(1 for u in nbrs if u < 12) == 3


def test_triangle_bridge_edge_set():
    g = triangle_bridge()
    expected = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)}
    assert {(i, j) for i, j, _ in g.edges} == expected


def test_generators_are_deterministic():
    for kind, params in [
        ("torus_mesh", {"rows": 4, "cols": 4}),
        ("hex_torus", {"rows": 6, "cols": 6}),
        ("buckyball", {}),
        ("triangle_bridge", {}),
        ("path", {"n": 5}),
        ("cycle", {"n": 6}),
    ]:
        assert generate(kind, **params).edges == generate(kind, **params).edges


def test_builtin_generator_validation():
    from helpers import hex_diagonal_generators, hex_transpose_perm, torus_domino_generators

    with pytest.raises(BadLatticeSize):
        hex_transpose_perm(6, 4)
    with pytest.raises(BadLatticeSize):
        torus_domino_generators(6, 4)
    with pytest.raises(BadLatticeSize):
        hex_diagonal_generators(4, 4)


def test_hex_partition_validation():
    from patternq.partitions import MOTIFS, tile_partition

    # the motif's shape must divide the torus, and its labels must be 0..k-1
    for rows, cols, motif in [(4, 4, MOTIFS["diag3"]), (6, 6, MOTIFS["domino"]),
                              (6, 6, [[0, 2]]), (6, 6, [[1, 2]]), (6, 6, [[0.0, 1.0]]),
                              (6, 6, [[0, -1]]), (6, 6, [0, 1]), (6, 6, [[]]),
                              (0, 6, [[0, 1]])]:
        with pytest.raises(BadLatticeSize):
            tile_partition(rows, cols, motif)


@pytest.mark.parametrize("rows", [2, 4, 6, 8, 10, 12])
def test_periodic_lattices_match_cell_loops(rows):
    for cols in (2, 4, 6, 8, 10, 12):
        assert torus_mesh(rows, cols) == torus_mesh_loops(rows, cols)
        assert hex_torus(rows, cols) == hex_torus_loops(rows, cols)


def test_periodic_lattices_match_cell_loops_at_30x30():
    assert torus_mesh(30, 30) == torus_mesh_loops(30, 30)
    assert hex_torus(30, 30) == hex_torus_loops(30, 30)


def test_two_wide_torus_adds_up_coincident_contacts():
    # on a 2-wide dimension the left and the right neighbour coincide
    g = torus_mesh(2, 4)
    assert ((0, 4, 2.0) in g.edges) and ((0, 1, 1.0) in g.edges)
    assert np.array_equal(g.degrees(), np.full(8, 4.0))
    assert np.array_equal(hex_torus(2, 2).degrees(), np.full(4, 6.0))


def test_graph_is_two_colored_once(monkeypatch):
    from patternq import graphs

    calls = []
    real = graphs._two_coloring
    monkeypatch.setattr(graphs, "_two_coloring", lambda *a: calls.append(a) or real(*a))
    g = torus_mesh(4, 4)
    assert is_connected(g) and bipartition(g) is not None
    assert len(calls) == 1


@pytest.mark.parametrize("kind,params", [
    ("path", {"n": 1}),
    ("cycle", {"n": 2}),
    ("torus_mesh", {"rows": 3, "cols": 4}),
    ("torus_mesh", {"rows": 4, "cols": 1}),
    ("hex_torus", {"rows": 5, "cols": 6}),
    ("nonsense", {}),
])
def test_generate_rejects_bad_sizes(kind, params):
    with pytest.raises(BadLatticeSize):
        generate(kind, **params)
