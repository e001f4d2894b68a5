"""Equitable-partition algebra on weighted graphs.

A partition is stored as one class label per vertex, a read-only int64
array, and every operation here works on those labels and the graph's edge
arrays; the classes as tuples of vertices are only a view derived on first
read.  A partition of the vertex set is equitable when the summed scaled weights
from any vertex of class i into class j depend only on the pair (i, j);
those sums form the row-stochastic quotient matrix.  This module verifies
equitability, refines partitions to the coarsest equitable one, tiles
periodic motifs of class labels (MOTIFS) over the lattices, builds orbit
partitions from automorphism generators, and splits the symmetrized
averaging matrix S exactly into a symmetric quotient block and transverse
blocks (block_decompose): by the characters of the translations that keep
every class (Bloch's theorem), into blocks of the period's order, and the
trivial character's block by one Householder reflector per class.  Where
no translation but the identity applies, that block is the dense S.
quotient() is the only constructor of a QuotientModel and refuses
inequitable partitions; the model carries the partition and the graph's
averaging operator, and is what every later stage, block_decompose(qm)
included, takes; its one symmetric form is what every r x r route reads.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadLatticeSize,
    DetailedBalanceViolated,
    DimensionMismatch,
    NotAutomorphism,
    NotEquitable,
    NotPermutation,
    PartitionMismatch,
    SingularTransform,
)
from .graphs import (ScaledAdjacency, WeightedGraph, _components, _divisors, _frozen,
                     _two_coloring, bipartition, scaled_adjacency)
from .spectral import Spectrum, _fix_signs, sym_eigen

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

LOG = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint vertex classes covering [0, n), as a class label per vertex.

    labels is a read-only int64 copy of what it is given: vertex v lies in
    class labels[v] of the r nonempty classes.  Class order is preserved
    from the caller (it fixes the row order of quotient matrices);
    partitions the library derives itself order classes by their minimum
    element (orbits, 2-colorings) or keep each split at its parent's
    position, siblings by minimum element (refinement), so repeated runs
    agree byte for byte.  classes (each ascending) and firsts (each class's
    smallest vertex) are derived on first read.  Equal labels make equal
    partitions.
    """

    labels: np.ndarray
    r: int

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen(self.labels, np.int64))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.labels, other.labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        members = np.argsort(self.labels, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.labels, minlength=self.r)).tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))

    @cached_property
    def firsts(self) -> np.ndarray:
        return np.unique(self.labels, return_index=True)[1]

    def expand(self, class_values) -> np.ndarray:
        """Lift per-class values to a per-vertex vector."""
        vals = np.asarray(class_values, dtype=float)
        if vals.shape != (self.r,):
            raise DimensionMismatch(f"expected {self.r} class values, got {vals.shape}")
        return vals[self.labels]


def make_partition(classes, n: int) -> Partition:
    """Validate a collection of vertex classes, keeping their given order.

    Empty classes are dropped and vertex ids truncated as int() does.  All
    vertices are checked at once; PartitionMismatch names what a walk
    through the classes, each in ascending order, meets first: a vertex
    outside [0, n) or seen before; else the vertices no class covers.
    """
    classes = [cls for cls in classes if len(cls)]
    sizes = [len(cls) for cls in classes]
    verts = np.trunc(np.fromiter(itertools.chain.from_iterable(classes), float, sum(sizes)))
    label = np.repeat(np.arange(len(classes)), sizes)
    walk = np.lexsort((verts, label))          # class by class, ascending in each
    v = verts[walk]
    bad = ~((v >= 0) & (v < n))
    v = np.where(bad, -1, v).astype(np.int64)
    seen = np.argsort(v, kind="stable")
    bad[seen[1:][v[seen[1:]] == v[seen[:-1]]]] = True  # met earlier in the walk
    if bad.any():
        x = int(list(itertools.chain.from_iterable(classes))[walk[np.argmax(bad)]])
        raise PartitionMismatch(f"vertex {x} outside [0,{n})" if not 0 <= x < n
                                else f"vertex {x} appears in two classes")
    if v.size != n:
        missing = np.flatnonzero(np.bincount(v, minlength=n) == 0).tolist()
        raise PartitionMismatch(f"vertices not covered: {missing}")
    labels = np.empty(n, dtype=np.int64)
    labels[v] = label[walk]
    return Partition(labels=labels, r=len(classes))


def canonical_partition(classes, n: int) -> Partition:
    """make_partition with classes reordered by their minimum element."""
    pi = make_partition(classes, n)
    # rank the classes by the smallest vertex each holds
    _, labels = np.unique(pi.firsts[pi.labels], return_inverse=True)
    return Partition(labels=labels, r=pi.r)


def trivial_partition(n: int) -> Partition:
    return make_partition([range(n)], n)


def singleton_partition(n: int) -> Partition:
    return Partition(labels=np.arange(n), r=n)


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every class of `finer` lies inside one class of `coarser`."""
    if finer.n != coarser.n:
        raise PartitionMismatch("partitions on different vertex sets")
    # every vertex must share the coarser class of its finer class's first vertex
    return np.array_equal(coarser.labels[finer.firsts][finer.labels], coarser.labels)


@dataclass(frozen=True)
class EquitabilityCheck:
    ok: bool
    # witness on failure: (class_i, class_j, vertex_u, vertex_v, sum_u, sum_v)
    witness: tuple[int, int, int, int, float, float] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_equitable(g: WeightedGraph, pi: Partition) -> EquitabilityCheck:
    """Check that within each class, all vertices share the same class-sum
    row, to 1e-12."""
    return _class_sums_checked(scaled_adjacency(g), pi, _EQ_TOL)[1]


def _class_sums_checked(sa: ScaledAdjacency, pi: Partition, tol: float
                        ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], EquitabilityCheck]:
    """The class sums of each class's first vertex, and whether each class
    shares them.

    The sums are (class, class, sum) triples from sa.class_pairs.  A vertex
    fails when one of its sums differs from its first vertex's by more
    than tol, a sum that one side lacks counting as 0 there: the check of
    the n x r table of class sums, made on its O(m) nonzero entries.
    """
    if pi.n != sa.n:
        raise PartitionMismatch(f"partition covers {pi.n} vertices, graph has {sa.n}")
    class_of, reps, r = pi.labels, pi.firsts, pi.r
    vertex, cls, sums = sa.class_pairs(class_of, r)
    key, ref = vertex * r + cls, reps[class_of[vertex]]
    # each pair's sum at its class's first vertex, 0 where that has none
    ref_key = ref * r + cls
    at = np.minimum(np.searchsorted(key, ref_key), key.size - 1)
    found = key[at] == ref_key
    ref_sums = np.where(found, sums[at], 0.0)
    # a vertex fails where one of its sums differs by more than tol, and
    # where it lacks one of its first vertex's sums above tol
    bad = np.zeros(sa.n, dtype=bool)
    bad[vertex[np.abs(sums - ref_sums) > tol]] = True
    first = ref == vertex
    need = np.bincount(class_of[vertex[first & (sums > tol)]], minlength=r)
    has = np.bincount(vertex[found & (ref_sums > tol)], minlength=sa.n)
    bad |= has < need[class_of]
    firsts_sums = class_of[vertex[first]], cls[first], sums[first]
    bad = np.flatnonzero(bad)
    if bad.size:
        # the witness is the first bad vertex by (class index, vertex), and
        # the class where its row of sums differs most, the lowest on ties
        u = int(bad[np.lexsort((bad, class_of[bad]))[0]])
        i = int(class_of[u])
        ref = int(reps[i])
        rows = np.zeros((2, r))
        for k, v in enumerate((ref, u)):
            rows[k, cls[vertex == v]] = sums[vertex == v]
        j = int(np.argmax(np.abs(rows[1] - rows[0])))
        return firsts_sums, EquitabilityCheck(
            ok=False,
            witness=(i, j, ref, u, float(rows[0, j]), float(rows[1, j])),
        )
    return firsts_sums, EquitabilityCheck(ok=True)


@dataclass(frozen=True)
class QuotientModel:
    """Quotient matrix of an equitable partition plus its reduced graph.

    operator is the graph's averaging operator, for which quotient() has
    checked that partition is equitable.  matrix is row-stochastic and
    satisfies detailed balance against the class-aggregated degrees;
    reduced_edges lists unordered class pairs with a nonzero quotient entry
    in either direction (self-loops omitted); reduced_coloring is the
    2-coloring of that reduced graph when bipartite, a 0/1 side per class.
    symmetric, formed on first read, is the one r x r matrix that
    eigenvalues, spectrum, small_gain and block_stability read.
    """

    matrix: np.ndarray
    class_degrees: np.ndarray
    reduced_edges: tuple[tuple[int, int], ...]
    reduced_coloring: np.ndarray | None
    reduced_connected: bool
    partition: Partition
    operator: ScaledAdjacency

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def symmetric(self) -> np.ndarray:
        """sym(Dbar^1/2 Pbar Dbar^-1/2), read-only, Dbar the class degrees;
        DetailedBalanceViolated unless dbar_i pbar_ij = dbar_j pbar_ji to
        1e-10 of the largest flux, with every class degree positive."""
        p, d = self.matrix, self.class_degrees
        if np.any(d <= 0):
            raise DetailedBalanceViolated("weight vector must be strictly positive")
        flux = d[:, None] * p
        err = np.abs(flux - flux.T).max()
        if err > 1e-10 * max(1.0, np.abs(flux).max()):
            raise DetailedBalanceViolated(
                f"detailed balance violated (max flux asymmetry {err:.2e})")
        root = np.sqrt(d)
        sym = (root[:, None] * p) / root[None, :]
        sym = (sym + sym.T) / 2.0
        sym.flags.writeable = False
        return sym

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of symmetric, descending and read-only, from one
        values-only solve; the quotient report prints them and certify
        decides on them, so a bundle holds each eigenvalue once."""
        values = sym_eigen(self.symmetric, vectors=False).eigenvalues
        values.flags.writeable = False
        return values

    def spectrum(self) -> Spectrum:
        """eigenvalues with the eigenvectors of symmetric, mapped back
        through Dbar^-1/2 and renormalized, so they are the quotient
        matrix's own."""
        spec = sym_eigen(self.symmetric)
        back = spec.eigenvectors / np.sqrt(self.class_degrees)[:, None]
        return Spectrum(self.eigenvalues, _fix_signs(back / np.linalg.norm(back, axis=0)))


def quotient(g: WeightedGraph, pi: Partition) -> QuotientModel:
    """Build the quotient matrix from the class sums of each class's first vertex.

    The sums that fill the matrix are the ones the equitability check
    reads, grouped from the edge arrays in O(m log m) with no n x r table,
    so only the r x r matrix grows with the class count; NotEquitable
    carries the check's witness.
    """
    sa = scaled_adjacency(g)
    (i, j, sums), check = _class_sums_checked(sa, pi, _EQ_TOL)
    if not check.ok:
        raise NotEquitable(f"partition is not equitable: witness {check.witness}",
                           check.witness)
    pbar = np.zeros((pi.r, pi.r))
    pbar[i, j] = sums
    dbar = np.bincount(pi.labels, weights=sa.degrees, minlength=pi.r)
    # class pairs i < j with a nonzero entry either way, in row-major order
    a, b = np.nonzero(np.triu((pbar != 0) | (pbar.T != 0), 1))
    coloring, connected = _two_coloring(pi.r, a, b)
    return QuotientModel(
        matrix=pbar,
        class_degrees=dbar,
        reduced_edges=tuple(zip(a.tolist(), b.tolist())),
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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal entries, or equal rows, of a sorted array starts."""
    step = np.empty(len(a), dtype=bool)
    step[:1] = True
    differs = a[1:] != a[:-1]
    step[1:] = differs if differs.ndim == 1 else differs.any(axis=1)
    return step.nonzero()[0]


def _run_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """The length of each run, from the run starts and the total length."""
    out = np.empty_like(starts)
    out[:-1] = starts[1:] - starts[:-1]
    out[-1:] = total - starts[-1:]
    return out


def _key_groups(sa: ScaledAdjacency, weights: np.ndarray, label: np.ndarray, r: int,
                verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the ascending vertices verts by their exact keys.

    Returns the order that sorts verts by key, which sorts the groups by
    class and keeps each group's vertices ascending, and the start of each
    group in that order.
    """
    at, count = sa.row_edges(verts)
    # one run of edges per (vertex, neighbour class), in that order; every
    # vertex has an edge, so run_vertex counts 0..verts.size-1 up
    key = np.arange(verts.size).repeat(count) * r + label[sa.cols[at]]
    order = key.argsort()
    key = key[order]
    run = _run_starts(key)
    sums = np.add.reduceat(weights[at[order]], run)
    run_vertex, run_class = np.divmod(key[run], r)
    first = _run_starts(run_vertex)
    counts = _run_lengths(first, run.size)
    sums //= np.gcd.reduceat(sums, first).repeat(counts)
    # a row per vertex: its class, then its (class, reduced sum) pairs,
    # padded with -1; Python-int sums make it an object array
    sig = np.full((verts.size, 2 * counts.max() + 1), -1, dtype=sums.dtype)
    sig[:, 0] = label[verts]
    col = 2 * (np.arange(run.size) - first[run_vertex]) + 1
    sig[run_vertex, col] = run_class
    sig[run_vertex, col + 1] = sums
    order = np.lexsort(sig.T[::-1])
    return order, _run_starts(sig[order])


def coarsest_equitable_refinement(g: WeightedGraph,
                                  seed: Partition | None = None) -> Partition:
    """Split seed classes by exact class-sum keys until no class splits.

    A vertex's key is its class plus its (class, sum) pairs of
    integer-scaled edge weights divided by their gcd, so two vertices share
    a key exactly when their rows of the averaging matrix have equal class
    sums, with no float rounding.  Each round splits every class by the
    keys, and the rounds stop when none splits.  A round re-keys only the
    neighbours of the smaller halves: of each class that split in the last
    round, every child but the largest (the seed classes count as the
    children of one class).  Any other vertex has its old row of class
    sums with each split class renamed to its largest child, so the
    vertices of a class that are not re-keyed share one key, and a
    re-keyed vertex, having an edge into a smaller child, has another.
    A vertex is in a smaller child at most log2(n) times, so the rounds
    re-key O(m log n) vertices in all, each from its own edges with one
    sort; the bookkeeping adds O(n + r log r) vector work per round.
    Splits stay at their parent's position, siblings ordered by minimum
    vertex: the classes and their order are those that re-keying every
    vertex in every round gives.  The fixed point is the coarsest
    equitable partition refining the seed; an already equitable seed comes
    back unchanged.  Note the single all-vertex class is equitable for
    every graph (each row of the averaging matrix sums to one), so the
    default seed returns unchanged.  One INFO line on this module's logger
    gives the rounds that split a class, the class count and the number of
    re-keyed vertices.
    """
    n = g.n
    if seed is not None and seed.n != n:
        raise PartitionMismatch(f"seed covers {seed.n} vertices, graph has {n}")
    sa = scaled_adjacency(g)
    weights = _integer_weights(sa)
    label = np.zeros(n, dtype=np.int64) if seed is None else seed.labels
    r = 1 if seed is None else seed.r
    vertex = np.arange(n)
    # the seed classes are the children of the one class of all vertices
    moved = (label != np.bincount(label, minlength=r).argmax()).nonzero()[0]
    rounds = rekeyed = 0
    while moved.size:
        mark = np.zeros(n, dtype=bool)
        mark[sa.cols[sa.row_edges(moved)[0]]] = True
        verts = mark.nonzero()[0]
        rekeyed += verts.size
        order, lead = _key_groups(sa, weights, label, r, verts)
        # group k of the re-keyed vertices becomes class r + k; the other
        # vertices of a class share one key and keep its label
        child = label.copy()
        child[verts[order]] = np.arange(r, r + lead.size).repeat(_run_lengths(lead, verts.size))
        lowest = np.full(r + lead.size, n)
        np.minimum.at(lowest, child, vertex)
        live = (lowest < n).nonzero()[0]
        if live.size == r:              # one child per class: none split
            break
        rounds += 1
        parent = np.concatenate((np.arange(r), label[verts[order[lead]]]))
        # a split keeps its parent's position; siblings order by minimum vertex
        by = live[(parent[live] * n + lowest[live]).argsort()]
        parent = parent[by]
        rank = np.empty(r + lead.size, dtype=np.int64)
        rank[by] = np.arange(live.size)
        # the next round re-keys the neighbours of every child but the
        # largest of each class (of equals, the one listed first)
        size = np.bincount(child, minlength=rank.size)[by]
        sib = _run_starts(parent)
        biggest = np.maximum.reduceat(size, sib).repeat(_run_lengths(sib, by.size))
        top = (size == biggest).nonzero()[0]
        moves = np.ones(rank.size, dtype=bool)
        moves[by[top[_run_starts(parent[top])]]] = False
        moved = moves[child].nonzero()[0]
        label, r = rank[child], live.size
    LOG.info("coarsest equitable refinement: %d splitting rounds, %d classes, "
             "%d re-keyed vertices", rounds, r, rekeyed)
    return Partition(labels=label, r=r)


def orbits_from_generators(g: WeightedGraph, perms) -> Partition:
    """Orbit partition of the group generated by weight-preserving permutations.

    Each permutation must map every edge onto an edge of equal weight
    (NotAutomorphism with the offending edge otherwise).  The orbits are the
    components of the graph that joins each v to p[v] for every generator p,
    so the group itself is never materialized.
    """
    n, key = g.n, g.i * g.n + g.j      # ascending, as the edges are sorted
    checked = []
    for perm in perms:
        p = np.trunc(np.asarray(perm, dtype=float))
        if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
            raise NotPermutation(f"not a permutation of [0,{n}): {perm}")
        p = p.astype(np.int64)
        a, b = np.minimum(p[g.i], p[g.j]), np.maximum(p[g.i], p[g.j])
        at = np.minimum(np.searchsorted(key, a * n + b), key.size - 1)
        found = key[at] == a * n + b
        bad = ~found | (np.abs(g.w[at] - g.w) > 1e-12 * np.maximum(1.0, np.abs(g.w)))
        if bad.any():
            k = int(np.argmax(bad))
            w2 = float(g.w[at[k]]) if found[k] else None
            raise NotAutomorphism(f"edge ({g.i[k]},{g.j[k]},{float(g.w[k])}) maps to "
                                  f"({a[k]},{b[k]},{w2}) under {p.tolist()}")
        checked.append(p)

    roots = _components(n, np.tile(np.arange(n), len(checked)),
                        np.array(checked, dtype=np.int64).ravel())
    # every root is its orbit's smallest vertex, so ranking the roots orders
    # the orbits by minimum vertex
    _, labels = np.unique(roots, return_inverse=True)
    return Partition(labels=labels, r=int(labels.max()) + 1)


# Below this many cells block_decompose takes the trivial group even on a
# lattice pattern: the dense split then costs less than finding the layout
# and building the character blocks.  Per call on checkerboards (2-core
# VM, one BLAS thread) the dense split was 12% cheaper at 64 cells (8x8)
# and the character blocks 8% cheaper at 80 (8x10), 25% at 96.
_BLOCH_MIN_CELLS = 80


@dataclass(frozen=True)
class BlockDecomposition:
    """The symmetrized averaging matrix S = D^1/2 P D^-1/2 split by the
    characters of a group T of translations that keep every class, and the
    trivial character's block split by the class reflectors.

    On a graph with a translation layout (ScaledAdjacency.layout), S is
    the same kernel in every row, and the translations that map every cell
    to a cell of its class form a subgroup T of Z_rows x Z_cols with p
    cosets.  The cells (x, y), x < a and y < c, lie one in each coset (see
    _translation_group); cell (x, y) is row x*c + y of every block, and
    character_class holds the class of each.  Each character chi of T
    spans, from each coset, one unit vector that T multiplies by chi, and
    S maps these p vectors into themselves: Bloch's theorem splits S
    exactly into |T| = n / p Hermitian blocks of order p, and so does
    G S G for any slope factor G that is constant on each class.
    character_blocks stacks the |T| - 1 blocks of the nontrivial
    characters.  When T is trivial (p = n) the stack is empty, the trivial
    character's block is S itself and character_class is the labels.

    That block B holds the class vectors a_k (unit norm, on class k), an
    invariant span by equitability.  One Householder reflector per class
    maps a_k onto -e_f, f the class's first row; the reflectors have
    disjoint supports, so their product H is one symmetric orthogonal
    matrix and HBH is block-diagonal.  On the first rows of the classes
    HBH is a_k^T S a_l, the quotient's symmetric form qm.symmetric, which
    is the quotient block and is not copied here; transverse_block is HBH
    on the other p - r rows in row order, symmetrized.  transverse_class
    gives the class of each of those rows and coupling is the largest
    entry between the two row sets (rounding only), the split's only
    off-block entry.
    """

    character_blocks: np.ndarray
    character_class: np.ndarray
    transverse_block: np.ndarray
    transverse_class: np.ndarray
    coupling: float


def _reflect(s: np.ndarray, class_of: np.ndarray, firsts: np.ndarray,
             unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Split the symmetric s by the reflectors of the unit class vectors,
    firsts[k] being the first row of class k and unit[v] row v's entry of
    its class's vector; returns the transverse block, its row classes and
    the coupling.

    With V the N x r matrix of unit reflector vectors (a_k + e_f) / norm,
    H = I - 2 V V^T and HSH = S - 2 V (SV)^T - 2 (SV - 2 V V^T S V) V^T, a
    rank-2r update of S that costs O(r N^2) and forms no basis.  Raises
    SingularTransform if the coupling exceeds 1e-10.
    """
    n, r = s.shape[0], firsts.size
    keep = np.ones(n, dtype=bool)
    keep[firsts] = False
    rest = keep.nonzero()[0]
    v = np.zeros((n, r))
    v[np.arange(n), class_of] = unit
    v[firsts, np.arange(r)] += 1.0
    v /= np.linalg.norm(v, axis=0)
    sv = s @ v
    # HSH = S - 2 [V, W] [SV, V]^T with W = SV - 2 V (V^T S V)
    m = (np.concatenate((v, sv - 2.0 * v @ (v.T @ sv)), axis=1)
         @ np.concatenate((sv, v), axis=1).T)
    m *= -2.0
    m += s
    coupling = float(np.abs(m[firsts[:, None], rest]).max(initial=0.0))
    if coupling > 1e-10:
        raise SingularTransform(
            f"conjugated matrix not block-diagonal (max {coupling:.2e})")
    trans = m[rest[:, None], rest]
    del m  # free the N x N product before the symmetric part is formed
    return (trans + trans.T) / 2.0, class_of[rest], coupling


def _translation_group(labels: np.ndarray, rows: int, cols: int) -> tuple[int, int, int]:
    """(a, b, c): T is generated by the shifts (a, 0) and (b, c), 0 <= b < a.

    T holds the shifts t with labels[v + t] = labels[v] for every cell v.
    Its shifts that keep the column are the multiples of (a, 0), and the
    column parts of its shifts are the multiples of c; a divides rows and
    c divides cols, so a is the least divisor of rows with (a, 0) in T and
    c the least divisor of cols for which some (b, c) with b < a is in T.
    Every cell is then (x, y) + t for exactly one x < a, y < c and t in T.
    A candidate must first keep cell 0's label, then is checked on all n
    labels, exactly.
    """
    grid = labels.reshape(rows, cols)
    wrap = np.tile(grid, (2, 2))  # wrap[i + di, j + dj] is cell (i, j) shifted by (di, dj)

    def fixes(di: int, dj: int) -> bool:
        return wrap[di, dj] == grid[0, 0] and (wrap[di:di + rows, dj:dj + cols] == grid).all()

    a = next(a for a in _divisors(rows) if fixes(a, 0))
    c, b = next((c, b) for c in _divisors(cols) for b in range(a) if fixes(b, c))
    return a, b, c


def block_decompose(qm: QuotientModel) -> BlockDecomposition:
    """Split S by the translations that keep every class, then the trivial
    character's block by the class reflectors (see BlockDecomposition).

    The group step: a pattern of at least _BLOCH_MIN_CELLS cells on a
    graph with a translation layout takes the translations that keep every
    class, and builds the character blocks from the layout's kernel with
    no n x n array.  Otherwise, or when only the identity keeps every
    class (p = n), the group is trivial and the reflectors split the dense
    S, a_k = sqrt(d / class degree) on class k.  SingularTransform, which
    the equitability that qm carries rules out, if the split leaves a
    coupling above 1e-10.
    """
    sa, labels = qm.operator, qm.partition.labels
    n = p = labels.size
    if n >= _BLOCH_MIN_CELLS and (lay := sa.layout) is not None:
        rows, cols = lay.rows, lay.cols
        a, b, c = _translation_group(labels, rows, cols)
        p = a * c
    if p == n:
        s, cell_class, stack = sa.symmetric, labels, np.empty((0, n, n), dtype=complex)
        firsts, unit = qm.partition.firsts, np.sqrt(sa.degrees / qm.class_degrees[labels])
    else:
        # every neighbour (wi, wj) of a coset cell is the coset cell (x, y)
        # shifted by (wi - x, wj - y) in T: reduce the column by (b, c), then
        # the row by (a, 0)
        fx, fy = np.divmod(np.arange(p), c)
        wi, wj = (fx[:, None] + lay.di) % rows, (fy[:, None] + lay.dj) % cols
        shift, y = np.divmod(wj, c)
        x = (wi - shift * b) % a
        # the characters of T: (ti, tj) -> exp(2 pi i (k1 ti / rows + k2 tj / cols))
        # for k1 < rows / a and k2 < cols / c, the trivial one, k = (0, 0), first
        k1, k2 = np.divmod(np.arange(n // p)[:, None, None], cols // c)
        turns = (k1 * (wi - x) * cols + k2 * (wj - y) * rows) % n
        blocks = np.zeros((n // p, p, p), dtype=complex)
        np.add.at(blocks, (slice(None), np.arange(p)[:, None], x * c + y),
                  lay.s * np.exp(2j * np.pi / n * turns))
        s, cell_class, stack = blocks[0].real, labels[fx * cols + fy], blocks[1:]
        member = cell_class == np.arange(qm.partition.r)[:, None]
        firsts, unit = member.argmax(axis=1), member.sum(axis=1)[cell_class] ** -0.5
    return BlockDecomposition(stack, cell_class, *_reflect(s, cell_class, firsts, unit))


# ---------------------------------------------------------------------------
# Known two-level partitions of the built-in lattices.
# ---------------------------------------------------------------------------

def bipartition_partition(g: WeightedGraph) -> Partition:
    """The 2-coloring of a connected bipartite graph as a Partition."""
    color = bipartition(g)
    if color is None:
        raise BadLatticeSize("graph is not bipartite")
    return Partition(labels=color, r=int(color.max()) + 1)


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
    labels = np.sort(m, axis=None)
    labels = labels[np.concatenate(([True], labels[1:] != labels[:-1]))]  # distinct
    if m.dtype.kind not in "iu" or not np.array_equal(labels, np.arange(labels.size)):
        raise BadLatticeSize(f"motif labels must be 0..k-1, got {labels.tolist()}")
    label = np.tile(m, (rows // m.shape[0], cols // m.shape[1])).ravel()
    return Partition(labels=label, r=labels.size)


def buckyball_face_partition() -> Partition:
    """Pentagon cells (0..11) versus hexagon cells (12..31)."""
    return make_partition([range(12), range(12, 32)], 32)
