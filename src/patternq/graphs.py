"""Weighted contact graphs, built-in lattices and the row-stochastic averaging operator.

Vertices are 0-based integers.  Edges are undirected with finite positive
weights; an absent edge means weight zero.  The two periodic lattices,
torus_mesh and hex_torus, come from one builder over their neighbour
offsets, numbered row-major (v = i*cols + j) like the motifs that
partitions.tile_partition repeats over them.  The averaging (scaled adjacency)
operator P divides each row of the weight matrix by the node degree, so every
row sums to one and the network input u = P y is a weighted average of
neighbor outputs.  P is stored as edge arrays: its products with a vector and
with a class indicator cost O(m).  The only dense n x n form is the
symmetric S = D^1/2 P D^-1/2, built on first read and only for the spectral
routes that read it.
"""
from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadIndex,
    BadLatticeSize,
    DuplicateEdge,
    IsolatedVertex,
    NonpositiveWeight,
    NotConnected,
    SelfLoop,
)

__all__ = [
    "WeightedGraph",
    "ScaledAdjacency",
    "build_graph",
    "scaled_adjacency",
    "is_connected",
    "bipartition",
    "generate",
    "GENERATOR_KINDS",
    "path_graph",
    "cycle_graph",
    "torus_mesh",
    "hex_torus",
    "buckyball",
    "triangle_bridge",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with canonical edge storage (i < j, sorted)."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        for i, j, wt in self.edges:
            d[i] += wt
            d[j] += wt
        return d

    @cached_property
    def _coloring(self):
        # (sides, connected), colored on first read and kept on the instance
        return _two_coloring(self.n, self.edges)

    @cached_property
    def _operator(self) -> ScaledAdjacency:
        # built on first read and kept on the instance; a raise keeps nothing
        return _build_operator(self)


@dataclass(frozen=True)
class ScaledAdjacency:
    """Row-stochastic neighbor-averaging operator P = D^-1 W as edge arrays.

    rows, cols, edge_weights and weights list both directions of every
    edge, sorted by (row, col), with edge_weights[k] = w_ij and weights[k] =
    w_ij / d_i for i = rows[k], j = cols[k]; degrees holds d.  matvec and
    class_sums cost O(m).  symmetric is the dense n x n similarity
    S = D^1/2 P D^-1/2, with entries w_ij / sqrt(d_i d_j), built on first
    read; callers must not write to it.
    """

    rows: np.ndarray
    cols: np.ndarray
    edge_weights: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.degrees.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        return np.bincount(self.rows, weights=self.weights * x[self.cols],
                           minlength=self.n)

    def class_sums(self, class_of: np.ndarray, r: int) -> np.ndarray:
        """n x r matrix whose entry (i, k) sums P_ij over the vertices j of class k."""
        flat = np.bincount(self.rows * r + class_of[self.cols], weights=self.weights,
                           minlength=self.n * r)
        return flat.reshape(self.n, r)

    @cached_property
    def symmetric(self) -> np.ndarray:
        # (i, j) and (j, i) get the same w_ij and d_i d_j, so S == S.T exactly
        d = self.degrees
        s = np.zeros((self.n, self.n))
        s[self.rows, self.cols] = self.edge_weights / np.sqrt(d[self.rows] * d[self.cols])
        return s


def build_graph(n: int, edges) -> WeightedGraph:
    """Validate and canonicalize an edge list into a WeightedGraph.

    Raises BadIndex, SelfLoop, NonpositiveWeight (for a weight that is not
    finite and positive) or DuplicateEdge on invalid input.  Edges are
    stored with i < j and sorted lexicographically.
    """
    if n <= 0:
        raise BadIndex(f"vertex count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    canon = []
    for e in edges:
        i, j, w = int(e[0]), int(e[1]), float(e[2])
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex(f"edge ({i},{j}) outside [0,{n})")
        if i == j:
            raise SelfLoop(f"self-loop at vertex {i}")
        if not 0 < w < math.inf:
            raise NonpositiveWeight(
                f"edge ({i},{j}) has weight {w}; weights must be finite and positive")
        a, b = (i, j) if i < j else (j, i)
        if (a, b) in seen:
            raise DuplicateEdge(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        canon.append((a, b, w))
    canon.sort()
    return WeightedGraph(n=n, edges=tuple(canon))


def scaled_adjacency(g: WeightedGraph) -> ScaledAdjacency:
    """Divide each weight-matrix row by the node degree d_i = sum_j w_ij.

    Built from the edge list in O(m) without the dense weight matrix, once
    per graph: every call on g returns the same operator.  Every vertex must
    have positive degree, otherwise the scaling is undefined and
    IsolatedVertex is raised, on every call.
    """
    return g._operator


def _build_operator(g: WeightedGraph) -> ScaledAdjacency:
    edges = np.array(g.edges, dtype=float).reshape(-1, 3)
    i, j, w = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp), edges[:, 2]
    # each edge adds its weight to both ends in edge order, as degrees() does
    d = np.bincount(np.column_stack([i, j]).ravel(), weights=np.repeat(w, 2),
                    minlength=g.n)
    isolated = np.where(d == 0)[0]
    if isolated.size:
        raise IsolatedVertex(f"vertices with zero degree: {isolated.tolist()}")
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    rows, cols, w = rows[order], cols[order], np.concatenate([w, w])[order]
    return ScaledAdjacency(rows=rows, cols=cols, edge_weights=w, weights=w / d[rows],
                           degrees=d)


def _two_coloring(n: int, edges):
    """2-color the graph on n vertices with (i, j, ...) edges and tell
    whether it is connected.

    The coloring is None if an odd cycle exists.  The lowest vertex of each
    component lands on side 0, so a single vertex is trivially 2-colorable.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b, *_ in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    color = [-1] * n
    bipartite, components = True, 0
    for start in range(n):
        if color[start] != -1:
            continue
        components += 1
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    sides = tuple(tuple(k for k in range(n) if color[k] == side) for side in (0, 1))
    return (sides if bipartite else None), components == 1


def is_connected(g: WeightedGraph) -> bool:
    """True iff the graph has a single connected component.

    The graph is 2-colored once; bipartition reuses that coloring.
    """
    return g._coloring[1]


def bipartition(g: WeightedGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-color a connected graph; None when an odd cycle exists.

    The first returned class contains vertex 0.  Raises NotConnected on
    disconnected input.
    """
    sides, connected = g._coloring
    if not connected:
        raise NotConnected("bipartition requires a connected graph")
    return sides


# ---------------------------------------------------------------------------
# Built-in lattices.  All generators are deterministic: calling twice with the
# same arguments yields byte-identical edge lists.
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("path", "cycle", "torus_mesh", "hex_torus", "buckyball", "triangle_bridge")


def path_graph(n: int) -> WeightedGraph:
    if n < 2:
        raise BadLatticeSize("path needs at least 2 vertices")
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise BadLatticeSize("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def _periodic(rows: int, cols: int, offsets) -> WeightedGraph:
    """Wraparound lattice: cell (i, j), v = i*cols + j, touches (i+di, j+dj)
    for each (di, dj) in offsets.

    On a 2-wide dimension two offsets reach the same neighbour; such
    contacts add up, so every cell keeps weighted degree 2 * len(offsets).
    """
    n = rows * cols
    i, j = np.divmod(np.arange(n), cols)
    u = np.tile(np.arange(n), len(offsets))
    v = np.concatenate([((i + di) % rows) * cols + (j + dj) % cols for di, dj in offsets])
    pairs, counts = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_counts=True)
    a, b = np.divmod(pairs, n)
    return build_graph(n, zip(a.tolist(), b.tolist(), counts.astype(float).tolist()))


def torus_mesh(rows: int, cols: int) -> WeightedGraph:
    """Square lattice with wraparound; row-major numbering v = i*cols + j."""
    if rows < 2 or cols < 2 or rows % 2 or cols % 2:
        raise BadLatticeSize("torus_mesh needs even rows and cols >= 2")
    return _periodic(rows, cols, ((0, 1), (1, 0)))


def hex_torus(rows: int, cols: int) -> WeightedGraph:
    """Hexagonal lattice with wraparound in axial coordinates (6 neighbors)."""
    if rows < 2 or cols < 2 or rows % 2 or cols % 2:
        raise BadLatticeSize("hex_torus needs even rows and cols >= 2")
    return _periodic(rows, cols, ((1, 0), (0, 1), (1, -1)))


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _icosahedron() -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Vertex coordinates (sorted, deterministic) and triangular faces."""
    verts = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        verts.append((0.0, a, b * _GOLDEN))
        verts.append((a, b * _GOLDEN, 0.0))
        verts.append((a * _GOLDEN, 0.0, b))
    coords = np.array(sorted(verts))
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    adj = [set() for _ in range(12)]
    for i in range(12):
        for j in range(i + 1, 12):
            if abs(d2[i, j] - 4.0) < 1e-9:
                adj[i].add(j)
                adj[j].add(i)
    faces = sorted(
        (i, j, k)
        for i in range(12)
        for j in adj[i] if j > i
        for k in (adj[i] & adj[j]) if k > j
    )
    return coords, faces


def buckyball() -> WeightedGraph:
    """Face-adjacency graph of the truncated icosahedron (32 cells).

    The 12 pentagonal faces come first (indices 0..11), then the 20 hexagonal
    faces (12..31).  Two cells are joined when the faces share an edge:
    each pentagon touches 5 hexagons; each hexagon touches 3 pentagons and
    3 hexagons.
    """
    _, faces = _icosahedron()
    edges = []
    for fi, f in enumerate(faces):
        for v in f:
            edges.append((v, 12 + fi, 1.0))
    for fi in range(20):
        for fj in range(fi + 1, 20):
            if len(set(faces[fi]) & set(faces[fj])) == 2:
                edges.append((12 + fi, 12 + fj, 1.0))
    return build_graph(32, edges)


def triangle_bridge() -> WeightedGraph:
    """8-vertex graph: two triangles joined through a 3-edge path.

    The two degree-3 vertices (2 and 5) form an equitable 2-class split even
    though the graph is neither bipartite nor symmetric enough for that split
    to arise from automorphism orbits.
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)]
    return build_graph(8, [(i, j, 1.0) for i, j in edges])


def generate(kind: str, *sizes, **params) -> WeightedGraph:
    """Dispatch to a built-in lattice by kind name.

    kind in GENERATOR_KINDS; path/cycle take n, torus_mesh/hex_torus take
    rows and cols, given by name or in that order, and buckyball and
    triangle_bridge take nothing.  Missing or extra parameters raise
    BadLatticeSize.
    """
    build = {"path": path_graph, "cycle": cycle_graph, "torus_mesh": torus_mesh,
             "hex_torus": hex_torus, "buckyball": buckyball,
             "triangle_bridge": triangle_bridge}.get(kind)
    if build is None:
        raise BadLatticeSize(f"unknown lattice kind {kind!r}")
    signature = inspect.signature(build)
    try:
        bound = signature.bind(*sizes, **params)
    except TypeError as exc:
        names = ", ".join(signature.parameters) or "no parameters"
        raise BadLatticeSize(f"{kind} takes {names}: {exc}") from None
    return build(*(int(v) for v in bound.args))
