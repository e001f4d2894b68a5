"""Equitable-partition algebra on weighted graphs.

A partition of the vertex set is equitable when the summed scaled weights
from any vertex of class i into class j depend only on the pair (i, j);
those sums form the row-stochastic quotient matrix.  This module verifies
equitability, refines partitions to the coarsest equitable one, tiles
periodic motifs of class labels (MOTIFS) over the lattices, builds orbit
partitions from automorphism generators, and conjugates the symmetrized
averaging matrix by one Householder reflector per class, which splits it
exactly into a symmetric quotient block and a symmetric transverse block.
quotient() is the only constructor of a QuotientModel and refuses
inequitable partitions; the model carries the partition and the graph's
averaging operator, and is what every later stage, block_decompose(qm)
included, takes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLatticeSize,
    NotAutomorphism,
    NotEquitable,
    NotPermutation,
    PartitionMismatch,
    SingularTransform,
)
from .graphs import ScaledAdjacency, WeightedGraph, _two_coloring, bipartition, scaled_adjacency

__all__ = [
    "Partition",
    "EquitabilityCheck",
    "QuotientModel",
    "BlockDecomposition",
    "make_partition",
    "trivial_partition",
    "singleton_partition",
    "refines",
    "canonical_partition",
    "is_equitable",
    "quotient",
    "coarsest_equitable_refinement",
    "orbits_from_generators",
    "block_decompose",
    "bipartition_partition",
    "MOTIFS",
    "tile_partition",
    "buckyball_face_partition",
]

_EQ_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex classes covering [0, n).

    Elements ascend within a class.  Class order is preserved from the
    caller (it fixes the row order of quotient matrices); partitions the
    library derives itself order classes by their minimum element (orbits,
    2-colorings) or keep each split at its parent's position, siblings by
    minimum element (refinement), so repeated runs agree byte for byte.
    """

    classes: tuple[tuple[int, ...], ...]
    n: int

    @property
    def r(self) -> int:
        return len(self.classes)

    def class_of(self) -> np.ndarray:
        """Length-n vector mapping each vertex to its class index."""
        out = np.empty(self.n, dtype=int)
        for k, cls in enumerate(self.classes):
            for v in cls:
                out[v] = k
        return out

    def expand(self, class_values) -> np.ndarray:
        """Lift per-class values to a per-vertex vector."""
        vals = np.asarray(class_values, dtype=float)
        if vals.shape != (self.r,):
            raise PartitionMismatch(
                f"expected {self.r} class values, got shape {vals.shape}")
        return vals[self.class_of()]


def make_partition(classes, n: int) -> Partition:
    """Validate a collection of vertex classes, keeping their given order."""
    cleaned = [tuple(sorted(int(v) for v in cls)) for cls in classes if len(cls)]
    seen: set[int] = set()
    for cls in cleaned:
        for v in cls:
            if not 0 <= v < n:
                raise PartitionMismatch(f"vertex {v} outside [0,{n})")
            if v in seen:
                raise PartitionMismatch(f"vertex {v} appears in two classes")
            seen.add(v)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise PartitionMismatch(f"vertices not covered: {missing}")
    return Partition(classes=tuple(cleaned), n=n)


def canonical_partition(classes, n: int) -> Partition:
    """make_partition with classes reordered by their minimum element."""
    pi = make_partition(classes, n)
    return Partition(classes=tuple(sorted(pi.classes, key=lambda c: c[0])), n=n)


def trivial_partition(n: int) -> Partition:
    return make_partition([range(n)], n)


def singleton_partition(n: int) -> Partition:
    return make_partition([[v] for v in range(n)], n)


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every class of `finer` lies inside one class of `coarser`."""
    if finer.n != coarser.n:
        raise PartitionMismatch("partitions on different vertex sets")
    owner = coarser.class_of()
    return all(len({owner[v] for v in cls}) == 1 for cls in finer.classes)


@dataclass(frozen=True)
class EquitabilityCheck:
    ok: bool
    # witness on failure: (class_i, class_j, vertex_u, vertex_v, sum_u, sum_v)
    witness: tuple[int, int, int, int, float, float] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_equitable(g: WeightedGraph, pi: Partition,
                 tol: float = _EQ_TOL) -> EquitabilityCheck:
    """Check that within each class, all vertices share the same class-sum row."""
    return _class_sums_checked(scaled_adjacency(g), pi, tol)[1]


def _class_sums_checked(sa: ScaledAdjacency, pi: Partition,
                        tol: float) -> tuple[np.ndarray, EquitabilityCheck]:
    """The n x r class sums of sa and whether each class shares one row."""
    if pi.n != sa.n:
        raise PartitionMismatch(f"partition covers {pi.n} vertices, graph has {sa.n}")
    class_of = pi.class_of()
    sums = sa.class_sums(class_of, pi.r)
    reps = np.array([cls[0] for cls in pi.classes])
    diff = np.abs(sums - sums[reps[class_of]])
    bad = np.flatnonzero(diff.max(axis=1) > tol)
    if bad.size:
        # the witness is the first bad vertex by (class index, vertex)
        u = int(bad[np.lexsort((bad, class_of[bad]))[0]])
        i = int(class_of[u])
        ref, j = int(reps[i]), int(np.argmax(diff[u]))
        return sums, EquitabilityCheck(
            ok=False,
            witness=(i, j, ref, u, float(sums[ref, j]), float(sums[u, j])),
        )
    return sums, EquitabilityCheck(ok=True)


@dataclass(frozen=True)
class QuotientModel:
    """Quotient matrix of an equitable partition plus its reduced graph.

    operator is the graph's averaging operator, for which quotient() has
    checked that partition is equitable.  matrix is row-stochastic and
    satisfies detailed balance against the class-aggregated degrees;
    reduced_edges lists unordered class pairs with a nonzero quotient entry
    in either direction (self-loops omitted); reduced_coloring is the
    2-coloring of that reduced graph when bipartite.
    """

    matrix: np.ndarray
    class_degrees: np.ndarray
    reduced_edges: tuple[tuple[int, int], ...]
    reduced_coloring: tuple[tuple[int, ...], tuple[int, ...]] | None
    reduced_connected: bool
    partition: Partition
    operator: ScaledAdjacency

    @property
    def r(self) -> int:
        return self.matrix.shape[0]


def quotient(g: WeightedGraph, pi: Partition) -> QuotientModel:
    """Build the quotient matrix from representative rows of each class.

    The class sums that fill the matrix are the ones the equitability check
    reads; NotEquitable carries the check's witness.
    """
    sa = scaled_adjacency(g)
    sums, check = _class_sums_checked(sa, pi, _EQ_TOL)
    if not check.ok:
        raise NotEquitable(f"partition is not equitable: witness {check.witness}",
                           check.witness)
    reps = [cls[0] for cls in pi.classes]
    pbar = sums[reps, :]
    dbar = np.array([sa.degrees[list(cls)].sum() for cls in pi.classes])
    # class pairs i < j with a nonzero entry either way, in row-major order
    redges = tuple(map(tuple, np.argwhere(np.triu((pbar != 0) | (pbar.T != 0), 1)).tolist()))
    coloring, connected = _two_coloring(pi.r, redges)
    return QuotientModel(
        matrix=pbar,
        class_degrees=dbar,
        reduced_edges=redges,
        reduced_coloring=coloring,
        reduced_connected=connected,
        partition=pi,
        operator=sa,
    )


def _integer_weights(sa: ScaledAdjacency) -> np.ndarray:
    """sa.edge_weights times one power of two, as exact integers.

    Every float is odd * 2**low; scaling by 2**-min(low) makes each weight,
    and so each sum of weights, an integer.  The result is int64 when the
    largest degree fits, else an object array of Python ints.
    """
    mant, exp = np.frexp(sa.edge_weights)
    m = np.ldexp(mant, 53).astype(np.int64)          # w = m * 2**(exp - 53)
    tz = np.frexp((m & -m).astype(float))[1] - 1     # trailing zero bits of m
    odd, low = m >> tz, exp - 53 + tz                # w = odd * 2**low
    shift = low - low.min()
    if np.ldexp(sa.degrees.max(), -low.min()) < 2.0 ** 62:
        return odd << shift
    return odd.astype(object) << shift.astype(object)


def coarsest_equitable_refinement(g: WeightedGraph,
                                  seed: Partition | None = None) -> Partition:
    """Iteratively split seed classes by exact class-sum signatures.

    Each round sums the integer-scaled edge weights from every vertex into
    every current class over the edge arrays; a vertex's key is its class
    plus its (class, sum) pairs divided by their gcd, so two vertices share
    a key exactly when their rows of the averaging matrix have equal class
    sums, with no float rounding.  Splits stay at their parent's position,
    siblings ordered by minimum vertex, and rounds repeat until the class
    count stops changing.  The fixed point is the coarsest equitable
    partition refining the seed; an already equitable seed comes back
    unchanged.  Note the single all-vertex class is equitable for every
    graph (each row of the averaging matrix sums to one), so the default
    seed returns unchanged.
    """
    n = g.n
    if seed is not None and seed.n != n:
        raise PartitionMismatch(f"seed covers {seed.n} vertices, graph has {n}")
    sa = scaled_adjacency(g)
    label = np.zeros(n, dtype=np.int64) if seed is None else seed.class_of()
    r = 1 if seed is None else seed.r
    weights = _integer_weights(sa)
    while True:
        # one run of edges per (vertex, neighbour class), in that order;
        # every vertex has an edge, so run_vertex counts 0..n-1 up
        key = sa.rows * r + label[sa.cols]
        order = np.argsort(key)
        key = key[order]
        run = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        sums = np.add.reduceat(weights[order], run)
        run_vertex, run_class = np.divmod(key[run], r)
        first = np.flatnonzero(np.concatenate(([True], run_vertex[1:] != run_vertex[:-1])))
        counts = np.diff(np.append(first, run.size))
        sums = sums // np.repeat(np.gcd.reduceat(sums, first), counts)
        # number the distinct (class, reduced sum) pairs, then fold them
        # into each vertex's key one position at a time
        sum_id = np.unique(sums, return_inverse=True)[1]
        pair = np.unique(run_class * (sum_id.max() + 1) + sum_id, return_inverse=True)[1]
        npair = int(pair.max()) + 1
        group, fresh = label.copy(), r
        for p in range(int(counts.max())):
            act = np.flatnonzero(counts > p)
            ids, inv = np.unique(group[act] * npair + pair[first[act] + p],
                                 return_inverse=True)
            group[act] = fresh + inv
            fresh += ids.size
        _, lead, inv = np.unique(group, return_index=True, return_inverse=True)
        if lead.size == r:
            break
        # a split keeps its parent's position; siblings order by minimum vertex
        rank = np.empty(lead.size, dtype=np.int64)
        rank[np.lexsort((lead, label[lead]))] = np.arange(lead.size)
        label, r = rank[inv], lead.size
    return _from_labels(label, r)


def _from_labels(label: np.ndarray, r: int) -> Partition:
    """The partition whose class k holds the vertices labelled k, ascending."""
    members = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label, minlength=r)).tolist()
    return Partition(classes=tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends)),
                     n=label.size)


def _check_permutation(perm, n: int) -> list[int]:
    p = [int(x) for x in perm]
    if len(p) != n or sorted(p) != list(range(n)):
        raise NotPermutation(f"not a permutation of [0,{n}): {perm}")
    return p


def orbits_from_generators(g: WeightedGraph, perms) -> Partition:
    """Orbit partition of the group generated by weight-preserving permutations.

    Each permutation must map every edge onto an edge of equal weight
    (NotAutomorphism with the offending edge otherwise).  Orbits are computed
    by union-find closure under the generators, never materializing the
    group itself.
    """
    weight = {(i, j): w for i, j, w in g.edges}
    checked = []
    for perm in perms:
        p = _check_permutation(perm, g.n)
        for i, j, w in g.edges:
            a, b = p[i], p[j]
            if a > b:
                a, b = b, a
            w2 = weight.get((a, b))
            if w2 is None or abs(w2 - w) > 1e-12 * max(1.0, abs(w)):
                raise NotAutomorphism(
                    f"edge ({i},{j},{w}) maps to ({a},{b},{w2}) under {p}")
        checked.append(p)

    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in checked:
        for i in range(g.n):
            ri, rj = find(i), find(p[i])
            if ri != rj:
                parent[ri] = rj
    orbits: dict[int, list[int]] = {}
    for v in range(g.n):
        orbits.setdefault(find(v), []).append(v)
    return canonical_partition(orbits.values(), g.n)


@dataclass(frozen=True)
class BlockDecomposition:
    """The symmetrized averaging matrix split into a quotient and a transverse block.

    S = D^1/2 P D^-1/2 is symmetric, and equitability makes the span of the
    class vectors a_k = sqrt(d) restricted to class k (unit norm) invariant
    under it.  One Householder reflector per class maps a_k onto -e_f, f the
    class's first vertex; the reflectors have disjoint supports, so their
    product H is one symmetric orthogonal matrix and HSH is block-diagonal.
    quotient_block is HSH on the first vertices of the r classes (a_k^T S a_l,
    similar to the quotient matrix) and transverse_block is HSH on the other n - r
    vertices in vertex order; both are symmetric.  transverse_class gives
    the class of each of those vertices and coupling is the largest entry
    between the two vertex sets (rounding only).
    """

    partition: Partition
    quotient_block: np.ndarray
    transverse_block: np.ndarray
    transverse_class: np.ndarray
    coupling: float


def block_decompose(qm: QuotientModel) -> BlockDecomposition:
    """Conjugate the symmetrized averaging matrix by the class reflectors.

    With V the n x r matrix of unit reflector vectors (a_k + e_f) / norm,
    H = I - 2 V V^T and HSH = S - 2 V (SV)^T - 2 (SV - 2 V V^T S V) V^T, a
    rank-2r update of S that costs O(r n^2) and forms no basis.  Raises
    SingularTransform if the coupling exceeds 1e-10, which the equitability
    that qm carries rules out.
    """
    sa, pi = qm.operator, qm.partition
    n, r = sa.n, pi.r
    class_of = pi.class_of()
    firsts = np.array([cls[0] for cls in pi.classes])
    rest = np.delete(np.arange(n), firsts)
    v = np.zeros((n, r))
    v[np.arange(n), class_of] = np.sqrt(sa.degrees / qm.class_degrees[class_of])
    v[firsts, np.arange(r)] += 1.0
    v /= np.linalg.norm(v, axis=0)
    s = sa.symmetric
    sv = s @ v
    # HSH = S - 2 [V, W] [SV, V]^T with W = SV - 2 V (V^T S V)
    m = np.hstack([v, sv - 2.0 * v @ (v.T @ sv)]) @ np.hstack([sv, v]).T
    m *= -2.0
    m += s
    coupling = float(np.abs(m[np.ix_(firsts, rest)]).max(initial=0.0))
    if coupling > 1e-10:
        raise SingularTransform(
            f"conjugated matrix not block-diagonal (max {coupling:.2e})")
    quo, trans = m[np.ix_(firsts, firsts)], m[np.ix_(rest, rest)]
    del m  # free the n x n product before the symmetric parts are formed
    return BlockDecomposition(
        partition=pi,
        quotient_block=(quo + quo.T) / 2.0,
        transverse_block=(trans + trans.T) / 2.0,
        transverse_class=class_of[rest],
        coupling=coupling,
    )


# ---------------------------------------------------------------------------
# Known two-level partitions of the built-in lattices.
# ---------------------------------------------------------------------------

def bipartition_partition(g: WeightedGraph) -> Partition:
    """The 2-coloring of a connected bipartite graph as a Partition."""
    sides = bipartition(g)
    if sides is None:
        raise BadLatticeSize("graph is not bipartite")
    return make_partition(sides, g.n)


# Two-class motifs of the periodic lattices, as class labels over one
# period (row i, column j).  On torus_mesh the checkerboard has quotient
# [[0,1],[1,0]] and the domino [[1/4,3/4],[3/4,1/4]].  On hex_torus diag3
# groups the cells with (i - j) mod 3 == 0 ([[0,1],[1/2,1/2]]), row2/col2
# are alternating stripes ([[1/3,2/3],[2/3,1/3]]), row3/col3 keep every
# third stripe ([[1/3,2/3],[1/3,2/3]]) and spots isolates the cells with
# odd i and odd j ([[2/3,1/3],[1,0]]); spots is the one that is not
# equitable on torus_mesh.
MOTIFS = {
    "checkerboard": ((0, 1), (1, 0)),
    "domino": ((0, 1), (0, 1), (1, 0), (1, 0)),
    "diag3": ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    "row2": ((0,), (1,)),
    "col3": ((0, 1, 1),),
    "row3": ((0,), (1,), (1,)),
    "col2": ((0, 1),),
    "spots": ((0, 0), (0, 1)),
}


def tile_partition(rows: int, cols: int, motif) -> Partition:
    """Repeat a 2-D array of class labels over a rows x cols torus.

    Cell (i, j), vertex i*cols + j, gets label motif[i % p][j % q] for a
    p x q motif, and class k holds the cells labelled k.  Raises
    BadLatticeSize unless p divides rows, q divides cols and the labels
    are exactly the integers 0..k-1.
    """
    m = np.asarray(motif)
    if (m.ndim != 2 or m.size == 0 or rows < 1 or cols < 1
            or rows % m.shape[0] or cols % m.shape[1]):
        raise BadLatticeSize(
            f"a motif of shape {m.shape} does not tile a {rows} x {cols} torus")
    labels = np.unique(m)
    if m.dtype.kind not in "iu" or not np.array_equal(labels, np.arange(labels.size)):
        raise BadLatticeSize(f"motif labels must be 0..k-1, got {labels.tolist()}")
    label = np.tile(m, (rows // m.shape[0], cols // m.shape[1])).ravel()
    return _from_labels(label, labels.size)


def buckyball_face_partition() -> Partition:
    """Pentagon cells (0..11) versus hexagon cells (12..31)."""
    return make_partition([range(12), range(12, 32)], 32)
