"""Weighted contact graphs, built-in lattices and the row-stochastic averaging operator.

Vertices are 0-based integers.  Edges are undirected with finite positive
weights; an absent edge means weight zero.  A graph is stored as three
read-only edge arrays, i and j with i < j, sorted by (i, j), and the
weights w: build_graph validates a whole edge list at once, the lattices
hand it arrays, and every later stage reads the arrays.  The two periodic lattices,
torus_mesh and hex_torus, come from one builder over their neighbour
offsets, numbered row-major (v = i*cols + j) like the motifs that
partitions.tile_partition repeats over them.  The averaging (scaled adjacency)
operator P divides each row of the weight matrix by the node degree, so every
row sums to one and the network input u = P y is a weighted average of
neighbor outputs.  P is stored as edge arrays: its products with a vector and
with a class indicator cost O(m).  Its layout, found on first read from
the edge arrays alone, is the row-major grid, if any, under which every
torus translation maps the graph onto itself; S is then one kernel of
vertex 0's neighbours.  The only dense n x n form is the symmetric
S = D^1/2 P D^-1/2, built on first read and only for the spectral route
that has no layout to read.  Connectivity, 2-colorings and symmetry orbits all come
from one array components pass (_components) over edge arrays.
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
    "Layout",
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


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as an array of dtype."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on the vertices 0..n-1, as edge arrays.

    i and j (int64) and w (float64) are read-only copies of what they are
    given and list every edge once, with i < j, sorted by (i, j);
    build_graph is the constructor that checks this.  Two graphs are equal
    when n and all three arrays are.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name, dtype in (("i", np.int64), ("j", np.int64), ("w", np.float64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightedGraph) and self.n == other.n
                and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in "ijw"))

    def degrees(self) -> np.ndarray:
        # each edge adds its weight to both ends, in edge order
        return np.bincount(np.column_stack([self.i, self.j]).ravel(),
                           weights=np.repeat(self.w, 2), minlength=self.n)

    @cached_property
    def _coloring(self):
        # (side labels or None, connected), colored on first read and kept
        return _two_coloring(self.n, self.i, self.j)

    @cached_property
    def _operator(self) -> ScaledAdjacency:
        # built on first read and kept on the instance; a raise keeps nothing
        return _build_operator(self)


@dataclass(frozen=True)
class Layout:
    """A row-major rows x cols numbering, v = i*cols + j, that every
    translation of the torus maps onto the graph: each vertex has vertex
    0's neighbours at the same (row, column) offsets mod (rows, cols), with
    the same weights.  di and dj are the offsets of vertex 0's neighbours
    and s their entries of S = D^1/2 P D^-1/2, which is then the same
    kernel s(offset) in every row."""

    rows: int
    cols: int
    di: np.ndarray
    dj: np.ndarray
    s: np.ndarray


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending, in O(sqrt n)."""
    low = [c for c in range(1, math.isqrt(n) + 1) if n % c == 0]
    return sorted(set(low + [n // c for c in low]))


@dataclass(frozen=True)
class ScaledAdjacency:
    """Row-stochastic neighbor-averaging operator P = D^-1 W as edge arrays.

    rows, cols, edge_weights and weights list both directions of every
    edge, sorted by (row, col), with edge_weights[k] = w_ij and weights[k] =
    w_ij / d_i for i = rows[k], j = cols[k]; degrees holds d.  matvec
    costs O(m), and class_pairs, which gives the class sums as (row, class,
    sum) triples and builds no n x r table, O(m log m).  indptr holds the
    CSR row offsets, built on first read: the edges of row i are
    indptr[i]:indptr[i + 1], and row_edges gathers those of a vertex set.
    layout is the graph's translation layout or None, and symmetric the
    dense n x n similarity S = D^1/2 P D^-1/2, with entries
    w_ij / sqrt(d_i d_j); both are built on first read, and callers must
    not write to them.
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

    def class_pairs(self, class_of: np.ndarray,
                    r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sums of P_ij over the vertices j of class k, one per (i, k) with an edge.

        Returns i, k and the sum, sorted by (i, k): O(m) pairs in place of
        the n x r table.  Each group's weights are added in edge order, so
        every sum has the bits the table's entry would have.
        """
        keys, group = np.unique(self.rows * r + class_of[self.cols], return_inverse=True)
        row, cls = np.divmod(keys, r)
        return row, cls, np.bincount(group, weights=self.weights)

    @cached_property
    def indptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(np.bincount(self.rows, minlength=self.n))))

    def row_edges(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the edges of the given rows, row by row, and their counts."""
        start = self.indptr[vertices]
        count = self.indptr[vertices + 1] - start
        # shift each row's run of one arange to that row's first edge
        return np.arange(count.sum()) + (start - count.cumsum() + count).repeat(count), count

    @cached_property
    def layout(self) -> Layout | None:
        """The first translation layout, by ascending cols > 1, or None.

        A layout needs every vertex to have vertex 0's edge count and
        degree, and every edge's offset and weight to be one of vertex 0's;
        the offsets of a row are distinct, so its offsets are then exactly
        vertex 0's.  All candidates are tried at once on the edges of
        vertices 1 and n - 1, and those that fit them, in turn, on all m
        edges; weights must agree exactly.
        """
        n, d = self.n, self.degrees
        count = np.bincount(self.rows, minlength=n)
        k = int(count[0])
        if (count != k).any() or (d != d[0]).any():
            return None
        head, w0 = self.cols[:k], self.edge_weights[:k]   # vertex 0's offsets are its neighbours
        weight_at = np.zeros(n)  # vertex 0's weight at each offset, 0 where it has no edge
        weight_at[head] = w0

        def fits(cols, at):
            # for each candidate number of columns, whether the edges at do;
            # the offset of u -> w is w - u mod n, plus cols where the column
            # wraps around
            cols = np.array(cols)[:, None]
            u, w = self.rows[at], self.cols[at]
            key = (w - u + cols * (w % cols < u % cols)) % n
            return (weight_at[key] == self.edge_weights[at]).all(axis=1)

        cols = _divisors(n)[1:]
        probe = (np.array([[k], [(n - 1) * k]]) + np.arange(k)).ravel()  # rows 1 and n - 1
        for c in np.compress(fits(cols, probe), cols).tolist():
            if fits([c], slice(None))[0]:
                di, dj = np.divmod(head, c)
                return Layout(n // c, c, di, dj, w0 / np.sqrt(d[0] * d[head]))
        return None

    @cached_property
    def symmetric(self) -> np.ndarray:
        # (i, j) and (j, i) get the same w_ij and d_i d_j, so S == S.T exactly
        d = self.degrees
        s = np.zeros((self.n, self.n))
        s[self.rows, self.cols] = self.edge_weights / np.sqrt(d[self.rows] * d[self.cols])
        return s


def build_graph(n: int, edges) -> WeightedGraph:
    """Validate and canonicalize (i, j, w) rows into a WeightedGraph.

    edges is an (m, 3) array or an iterable of (i, j, w) triples; vertex ids
    are truncated to integers as int() does.  The checks run on all rows at
    once, and the first bad row in input order raises BadIndex, SelfLoop,
    NonpositiveWeight (for a weight that is not finite and positive) or
    DuplicateEdge, in that order of precedence.  Edges are stored with
    i < j and sorted by (i, j).
    """
    if n <= 0:
        raise BadIndex(f"vertex count must be positive, got {n}")
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    e = np.asarray(rows, dtype=float).reshape(-1, 3)
    lo, hi = np.trunc(np.minimum(e[:, 0], e[:, 1])), np.trunc(np.maximum(e[:, 0], e[:, 1]))
    w, inside = e[:, 2], (lo >= 0) & (hi < n)
    # rows outside [0, n) become (0, 0), which no valid edge shares
    a, b = np.where(inside, lo, 0).astype(np.int64), np.where(inside, hi, 0).astype(np.int64)
    key = a * n + b
    order = np.argsort(key, kind="stable")
    bad = ~(inside & (a != b) & (w > 0) & (w < math.inf))
    bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True  # an earlier row has the key
    if bad.any():
        row = rows[int(np.argmax(bad))]
        i, j, wt = int(row[0]), int(row[1]), float(row[2])
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex(f"edge ({i},{j}) outside [0,{n})")
        if i == j:
            raise SelfLoop(f"self-loop at vertex {i}")
        if not 0 < wt < math.inf:
            raise NonpositiveWeight(
                f"edge ({i},{j}) has weight {wt}; weights must be finite and positive")
        raise DuplicateEdge(f"duplicate edge ({min(i, j)},{max(i, j)})")
    return WeightedGraph(n=n, i=a[order], j=b[order], w=w[order])


def scaled_adjacency(g: WeightedGraph) -> ScaledAdjacency:
    """Divide each weight-matrix row by the node degree d_i = sum_j w_ij.

    Built from the edge list in O(m) without the dense weight matrix, once
    per graph: every call on g returns the same operator.  Every vertex must
    have positive degree, otherwise the scaling is undefined and
    IsolatedVertex is raised, on every call.
    """
    return g._operator


def _build_operator(g: WeightedGraph) -> ScaledAdjacency:
    d = g.degrees()
    isolated = np.where(d == 0)[0]
    if isolated.size:
        raise IsolatedVertex(f"vertices with zero degree: {isolated.tolist()}")
    rows, cols = np.concatenate([g.i, g.j]), np.concatenate([g.j, g.i])
    order = np.lexsort((cols, rows))
    rows, cols, w = rows[order], cols[order], np.concatenate([g.w, g.w])[order]
    return ScaledAdjacency(rows=rows, cols=cols, edge_weights=w, weights=w / d[rows],
                           degrees=d)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component, for edges (a[k], b[k]).

    Min-label hooking with pointer jumping (Shiloach & Vishkin 1982): each
    round hooks every edge end's root onto the other end's root if smaller,
    then jumps every label to its root.  Labels never exceed their vertex,
    and each round merges roots until both ends of every edge share one."""
    label = np.arange(n)
    while not np.array_equal(ra := label[a], rb := label[b]):
        np.minimum.at(label, ra, rb)
        np.minimum.at(label, rb, ra)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def _two_coloring(n: int, i: np.ndarray, j: np.ndarray):
    """2-color the graph on n vertices with edges (i[k], j[k]) and tell
    whether it is connected.

    The coloring is a read-only 0/1 side label per vertex, None if an odd
    cycle exists.  Both come from the double cover, where v has copies v and
    v + n and each edge joins opposite copies.  The copies share a component
    iff an odd cycle reaches v; else v is on side 1 iff v + n shares one with
    the lowest vertex of v's component, so that vertex lands on side 0.  The
    graph is connected iff a copy of every v shares a component with 0."""
    label = _components(2 * n, np.concatenate([i, i + n]), np.concatenate([j + n, j]))
    lo, hi = label[:n], label[n:]
    connected = bool((np.minimum(lo, hi) == 0).all())
    return (_frozen(lo > hi, np.int64) if (lo != hi).all() else None), connected


def is_connected(g: WeightedGraph) -> bool:
    """True iff the graph has a single connected component.

    The graph is 2-colored once; bipartition reuses that coloring.
    """
    return g._coloring[1]


def bipartition(g: WeightedGraph) -> np.ndarray | None:
    """Two-color a connected graph: the side, 0 or 1, of every vertex as a
    read-only array, vertex 0 on side 0; None when an odd cycle exists.

    Raises NotConnected on disconnected input.
    """
    color, connected = g._coloring
    if not connected:
        raise NotConnected("bipartition requires a connected graph")
    return color


# ---------------------------------------------------------------------------
# Built-in lattices.  All generators are deterministic: calling twice with the
# same arguments yields byte-identical edge arrays.
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
    return build_graph(n, np.column_stack([a, b, counts]))


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
    coords = np.array(sorted(
        v for a, b in itertools.product((1.0, -1.0), repeat=2)
        for v in ((0.0, a, b * _GOLDEN), (a, b * _GOLDEN, 0.0), (a * _GOLDEN, 0.0, b))))
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    adj = np.abs(d2 - 4.0) < 1e-9
    faces = [(i, j, k) for i, j, k in itertools.combinations(range(12), 3)
             if adj[i, j] and adj[j, k] and adj[i, k]]
    return coords, faces


def buckyball() -> WeightedGraph:
    """Face-adjacency graph of the truncated icosahedron (32 cells).

    The 12 pentagonal faces come first (indices 0..11), then the 20 hexagonal
    faces (12..31).  Two cells are joined when the faces share an edge:
    each pentagon touches 5 hexagons; each hexagon touches 3 pentagons and
    3 hexagons.
    """
    _, faces = _icosahedron()
    edges = [(v, 12 + fi, 1.0) for fi, f in enumerate(faces) for v in f]
    edges += [(12 + a, 12 + b, 1.0) for a, b in itertools.combinations(range(20), 2)
              if len(set(faces[a]) & set(faces[b])) == 2]
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
    triangle_bridge take nothing.  Missing, extra or non-integer parameters
    raise BadLatticeSize.
    """
    build = {"path": path_graph, "cycle": cycle_graph, "torus_mesh": torus_mesh,
             "hex_torus": hex_torus, "buckyball": buckyball,
             "triangle_bridge": triangle_bridge}.get(kind)
    if build is None:
        raise BadLatticeSize(f"unknown lattice kind {kind!r}")
    signature = inspect.signature(build)
    try:
        bound = signature.bind(*sizes, **params)
        values = [int(v) for v in bound.args]
    except TypeError as exc:
        names = ", ".join(signature.parameters) or "no parameters"
        raise BadLatticeSize(f"{kind} takes {names}: {exc}") from None
    except ValueError:
        raise BadLatticeSize(f"{kind} sizes must be integers, got {bound.args}") from None
    return build(*values)
