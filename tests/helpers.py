"""Independent oracles shared across the test modules.

Everything here deliberately avoids the library's own solution paths:
eigenvalues come from characteristic-polynomial companion roots or from
numpy's unsymmetric eigvals on the dense Jacobian, Perron
roots from power iteration, the M-matrix property from leading principal
minors, reduced roots from 1-D
bisection on composed maps, the Hill fixed point from the bisection through
t_eval, and coarsest refinements from full partition enumeration, from
rounded float class-sum signatures and from the exact keys with every
vertex re-keyed in every round.  The dense
averaging matrix and the class indicator are rebuilt here from the graph
and the partition, not read off the library.
Network trajectories are checked against scipy's DOP853 on the dense
averaging matrix in test_properties.  Canonical JSON is checked against the
item-by-item recursive writer the bulk emitter replaced.  The periodic
lattices are checked against the cell-by-cell loops the index arithmetic
replaced, the class-sum check against its per-class loop and against the
dense n x r table of class sums it replaced, and the motifs
against a depth-first search over all 2-colourings.  A seeded relabelling
of the vertices takes a lattice pattern off the Bloch route.  Components, the
2-coloring and connectivity are checked against the union-find and the
stack-based search that the array components pass replaced.  Known
automorphisms of the built-in lattices, as permutations, feed
orbits_from_generators.
The product P x is checked bit for bit against the np.bincount form
(matvec_bincount).  The DOP853 loop is checked bit for bit against
settle_reference, a stepper that allocates a new array per stage and
re-runs the input checks of t_eval in every right-hand side.
"""
from __future__ import annotations

import json
import math

import numpy as np

from patternq.cells import FixedPoint, HillMap, fixed_point, t_eval, t_prime
from patternq.errors import (
    BadBundle,
    BadIndex,
    BadLatticeSize,
    DuplicateEdge,
    NoConvergence,
    NonpositiveWeight,
    PartitionMismatch,
    SelfLoop,
    StateOutOfBox,
)
from patternq.graphs import WeightedGraph, _icosahedron, build_graph, scaled_adjacency
from patternq.ode import (
    _A,
    _ATOL_PER_CONV,
    _B,
    _E3,
    _E5,
    _GROW_MAX,
    _RTOL,
    _SAFETY,
    _SHRINK_MIN,
    Settled,
    _error_norm,
)
from patternq.partitions import (
    EquitabilityCheck,
    Partition,
    _integer_weights,
    is_equitable,
    make_partition,
    refines,
    trivial_partition,
)


def char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients (leading 1 first) by
    Faddeev-LeVerrier."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def char_poly_eigs(a: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots.

    A root of multiplicity k is only accurate to about eps^(1/k); compare
    repeated eigenvalues through char_poly_coeffs instead.
    """
    roots = np.roots(char_poly_coeffs(a))
    return np.sort(roots.real)[::-1]


def edge_tuples(g: WeightedGraph) -> tuple[tuple[int, int, float], ...]:
    """The graph's edges as (i, j, w) tuples, in stored order."""
    return tuple(zip(g.i.tolist(), g.j.tolist(), g.w.tolist()))


def weight_matrix(g: WeightedGraph) -> np.ndarray:
    """The dense symmetric weight matrix W, one edge at a time."""
    w = np.zeros((g.n, g.n))
    for i, j, wt in edge_tuples(g):
        w[i, j] = w[j, i] = wt
    return w


def dense_averaging(g: WeightedGraph) -> np.ndarray:
    """The averaging matrix P = D^-1 W, rebuilt from the graph's weight matrix."""
    return weight_matrix(g) / g.degrees()[:, None]


def matvec_bincount(sa, x: np.ndarray) -> np.ndarray:
    """P x as np.bincount over the operator's edge arrays: each row's
    products added to 0.0 in edge order, the form the neighbour table of
    ScaledAdjacency.matvec replaced on graphs whose rows have one edge
    count."""
    return np.bincount(sa.rows, weights=sa.weights * x[sa.cols], minlength=sa.n)


def star_graph(n: int) -> WeightedGraph:
    """Vertex 0 joined to each of 1..n-1 by weight 1."""
    return build_graph(n, [(0, v, 1.0) for v in range(1, n)])


def dense_jacobian_spectrum(g: WeightedGraph, model: HillMap, u) -> np.ndarray:
    """Eigenvalues of the unsymmetric Jacobian (-I + diag(T'(u)) P) / tau,
    sorted descending, from np.linalg.eigvals on the dense P rebuilt from
    the graph: no S, no similarity and no library solver.  The spectrum is
    real (nonpositive slopes make the matrix similar to a symmetric one),
    so the imaginary parts must be rounding only."""
    slopes = t_prime(model, np.asarray(u, dtype=float))
    jac = (-np.eye(g.n) + slopes[:, None] * dense_averaging(g)) / model.tau
    eigs = np.linalg.eigvals(jac)
    assert np.abs(eigs.imag).max() < 1e-10, np.abs(eigs.imag).max()
    return np.sort(eigs.real)[::-1]


def class_indicator(pi: Partition) -> np.ndarray:
    """n x r matrix Q with Q[v, k] = 1 exactly when vertex v lies in class k."""
    q = np.zeros((pi.n, pi.r))
    for k, cls in enumerate(pi.classes):
        q[list(cls), k] = 1.0
    return q


_POWER_MAX_ITERS = 100_000


def _strongly_connected(support: np.ndarray) -> bool:
    n = support.shape[0]

    def reach(adj: np.ndarray) -> int:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for w in np.where(adj[u])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        return int(seen.sum())

    return reach(support) == n and reach(support.T) == n


def spectral_radius_nonneg(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and positive eigenvector of a nonnegative irreducible matrix.

    Power iteration is applied two steps at a time (in effect powering M^2)
    so that the +-rho peripheral pair of a bipartite support becomes a
    single dominant eigenvalue rho^2; no shift is needed and the spectral
    gap is untouched.  The Perron direction is recovered as x + Mx/rho,
    which cancels the alternating component exactly.  Starts from the
    all-ones vector, normalizes in max-norm, and accepts once the residual
    ||Mv - rho v|| drops below 1e-10 rho (floored at machine noise relative
    to ||M|| for degenerate, vanishingly small radii).  Raises ValueError on
    a negative entry or a support that is not strongly connected.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.min() < 0:
        raise ValueError(f"matrix has negative entries (min {m.min():.2e})")
    if n == 1:
        return float(m[0, 0]), np.array([1.0])
    if not _strongly_connected(m > 0):
        raise ValueError("support is not strongly connected")
    scale = float(np.abs(m).sum(axis=1).max())
    x = np.ones(n)
    for _ in range(_POWER_MAX_ITERS // 2):
        z = m @ (m @ x)
        lam2 = float(np.abs(z).max())
        if lam2 == 0.0:
            raise NoConvergence("iterate vanished; radius below machine precision")
        x = z / lam2
        rho = np.sqrt(lam2)
        v = x + (m @ x) / rho
        vmax = float(np.abs(v).max())
        if vmax > 0:
            v = v / vmax
            residual = float(np.abs(m @ v - rho * v).max())
            if residual <= 1e-10 * rho + 1e-14 * scale:
                if v.min() <= 0:
                    raise NoConvergence("power iteration lost positivity")
                return rho, v
    raise NoConvergence(
        f"power iteration did not converge in {_POWER_MAX_ITERS // 2} doubled steps")


def m_matrix_by_leading_minors(g: WeightedGraph, cell_gains) -> bool:
    """I - Gamma P is a nonsingular M-matrix: every leading principal minor
    of the unsymmetrized matrix is positive (one determinant per order)."""
    gains = np.asarray(cell_gains, dtype=float)
    w = weight_matrix(g)
    a = np.eye(g.n) - gains[:, None] * (w / w.sum(axis=1)[:, None])
    return all(np.linalg.det(a[:k, :k]) > 0 for k in range(1, g.n + 1))


def set_partitions(n: int):
    """All partitions of range(n) as lists of sorted lists."""
    def helper(k):
        if k == 0:
            yield []
            return
        for rest in helper(k - 1):
            for i in range(len(rest)):
                yield rest[:i] + [rest[i] + [k - 1]] + rest[i + 1:]
            yield rest + [[k - 1]]
    yield from helper(n)


def brute_force_coarsest(g: WeightedGraph, seed: Partition) -> Partition:
    """Enumerate every partition, keep the equitable ones refining the seed,
    and return the one all the others refine."""
    candidates = [make_partition(blocks, g.n) for blocks in set_partitions(g.n)]
    candidates = [p for p in candidates
                  if refines(p, seed) and is_equitable(g, p).ok]
    best = min(candidates, key=lambda p: p.r)
    assert all(refines(p, best) for p in candidates), "no unique coarsest element"
    return best


def rounded_signature_refinement(g: WeightedGraph, seed: Partition | None = None) -> Partition:
    """Coarsest equitable refinement by float class-sum signatures.

    Each round groups the vertices of every class by their row of n x r
    class sums of the averaging matrix rounded to 12 decimals; splits stay
    at their parent's position with siblings ordered by minimum vertex.
    Rounded keys of sums taken in different orders can split classes an
    exact comparison keeps together.
    """
    pi = trivial_partition(g.n) if seed is None else seed
    sa = scaled_adjacency(g)
    while True:
        sums = class_sums(sa, pi.labels, pi.r)
        keys = list(map(tuple, np.round(sums, 12).tolist()))
        new_classes: list[list[int]] = []
        for cls in pi.classes:
            groups: dict[tuple, list[int]] = {}
            for v in cls:
                groups.setdefault(keys[v], []).append(v)
            new_classes.extend(sorted(groups.values(), key=lambda grp: grp[0]))
        if len(new_classes) == pi.r:
            return pi
        pi = make_partition(new_classes, g.n)


# weights of the circulant C13 on the offsets 1, 2 and 3
C13_WEIGHTS = [0.9524665424747193, 2.734681399537526, 0.22126567293362276]


def round_refinement(g: WeightedGraph, seed: Partition | None = None) -> Partition:
    """Coarsest equitable refinement that re-keys every vertex in every round.

    Each round sums the integer-scaled edge weights from every vertex into
    every current class over the edge arrays; a vertex's key is its class
    plus its (class, sum) pairs divided by their gcd, folded into a group
    one pair position at a time.  Splits stay at their parent's position,
    siblings ordered by minimum vertex, and rounds repeat until the class
    count stops changing.  These exact keys are the library's; only the
    choice of the vertices to re-key differs.
    """
    n = g.n
    if seed is not None and seed.n != n:
        raise PartitionMismatch(f"seed covers {seed.n} vertices, graph has {n}")
    sa = scaled_adjacency(g)
    label = np.zeros(n, dtype=np.int64) if seed is None else seed.labels
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
    return Partition(labels=label, r=r)


def fixed_point_by_t_eval(m: HillMap) -> FixedPoint:
    """The root of T(u) = u bisected through t_eval, with its input checks
    and copy in every step."""
    lo, hi = 0.0, m.amplitude
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_eval(m, mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    return FixedPoint(value=u, residual=abs(t_eval(m, u) - u))


def connected_by_closure(g: WeightedGraph) -> bool:
    """Connectivity through boolean matrix closure (no BFS)."""
    w = weight_matrix(g) > 0
    reach = np.eye(g.n, dtype=bool) | w
    for _ in range(g.n):
        reach = reach | (reach.astype(int) @ w.astype(int) > 0)
    return bool(reach[0].all())


def two_coloring_by_search(n: int, i, j) -> tuple[list[int] | None, bool]:
    """(0/1 side per vertex or None for an odd cycle, connected) by a
    stack-based search from each uncolored vertex in increasing order, so
    the lowest vertex of each component lands on side 0."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()):
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
    return (color if bipartite else None), components == 1


def components_union_find(n: int, a, b) -> list[int]:
    """The smallest vertex of each vertex's component, by union-find over
    the edges (a[k], b[k]) with path halving, the larger root joining the
    smaller."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(n)]


def two_cycle_oracle(model: HillMap) -> tuple[float, float]:
    """(z_high, z_low) with z_low = T(z_high), z_high = T(z_low), z_low < u*.

    Bisection on T(T(z)) - z over (0, u*); valid when |T'(u*)| > 1 so the
    composed map leaves the fixed point along this branch.
    """
    u_star = fixed_point(model).value

    def f(z: float) -> float:
        return t_eval(model, t_eval(model, z)) - z

    lo, hi = 0.0, u_star - 1e-9
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    z_low = 0.5 * (lo + hi)
    return t_eval(model, z_low), z_low


def scan_roots(fn, lo: float, hi: float, samples: int = 4000) -> list[float]:
    """All sign-change roots of fn on (lo, hi), refined by bisection."""
    xs = np.linspace(lo, hi, samples)
    vals = np.array([fn(x) for x in xs])
    roots = []
    for i in range(samples - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = vals[i]
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = fn(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a = mid
                    fa = fm
            roots.append(0.5 * (a + b))
    return roots


def pentagon_hexagon_root_oracle(model: HillMap) -> tuple[float, float]:
    """Nonhomogeneous root of the 12/24-style quotient [[0,1],[1/2,1/2]].

    Eliminating z_1 = T(z_2) reduces the system to a scalar equation in z_2;
    the unique sign change below the fixed point is refined by bisection.
    """
    u_star = fixed_point(model).value

    def f(z2: float) -> float:
        return z2 - 0.5 * (t_eval(model, t_eval(model, z2)) + t_eval(model, z2))

    roots = [z for z in scan_roots(f, 1e-9, u_star - 1e-6) if abs(z - u_star) > 1e-5]
    assert len(roots) == 1, f"expected one nonhomogeneous root, found {roots}"
    z2 = roots[0]
    return t_eval(model, z2), z2


def random_connected_graph(rng: np.random.Generator, n: int,
                           weighted: bool = True,
                           weight_range: tuple[float, float] = (0.5, 2.0),
                           ) -> WeightedGraph:
    """Random connected graph: a random spanning tree plus random extras."""
    order = rng.permutation(n)
    edges = {}
    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        edges[(min(a, b), max(a, b))] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.35:
                edges[(i, j)] = 1.0
    if weighted:
        edges = {k: float(np.round(rng.uniform(*weight_range), 3)) for k in edges}
    return build_graph(n, [(i, j, w) for (i, j), w in edges.items()])


def _oracle_emit(obj, parts: list[str]) -> None:
    """Append the canonical JSON of obj; numpy arrays and scalars become
    their plain Python values and dict keys are written as str(key)."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise BadBundle("cannot serialize non-finite numbers")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key), ensure_ascii=True))
            parts.append(":")
            _oracle_emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _oracle_emit(item, parts)
        parts.append("]")
    else:
        raise BadBundle(f"cannot serialize object of type {type(obj).__name__}")


def canonical_oracle(obj) -> str:
    """The item-by-item canonical JSON writer, kept as the oracle of
    serialize.dumps_canonical."""
    parts: list[str] = []
    _oracle_emit(obj, parts)
    return "".join(parts)


# ---- periodic lattices, cell by cell ----

def _accumulate(n: int, pairs) -> WeightedGraph:
    # coincident contacts on a 2-wide torus add up
    acc: dict[tuple[int, int], float] = {}
    for i, j in pairs:
        a, b = (i, j) if i < j else (j, i)
        acc[(a, b)] = acc.get((a, b), 0.0) + 1.0
    return build_graph(n, [(a, b, w) for (a, b), w in sorted(acc.items())])


def torus_mesh_loops(rows: int, cols: int) -> WeightedGraph:
    """The square wraparound lattice, one right and one down contact per cell."""
    pairs = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            pairs.append((u, i * cols + (j + 1) % cols))
            pairs.append((u, ((i + 1) % rows) * cols + j))
    return _accumulate(rows * cols, pairs)


def hex_torus_loops(rows: int, cols: int) -> WeightedGraph:
    """The axial hex wraparound lattice, three forward contacts per cell."""
    pairs = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            for di, dj in ((1, 0), (0, 1), (1, -1)):
                pairs.append((u, ((i + di) % rows) * cols + (j + dj) % cols))
    return _accumulate(rows * cols, pairs)


# ---- equitability, class by class ----

def class_sums(sa, class_of: np.ndarray, r: int) -> np.ndarray:
    """The dense n x r table whose entry (i, k) sums P_ij over the vertices j
    of class k, added by one bincount over all n * r keys in edge order."""
    flat = np.bincount(sa.rows * r + class_of[sa.cols], weights=sa.weights,
                       minlength=sa.n * r)
    return flat.reshape(sa.n, r)


def class_sums_checked_dense(sa, pi: Partition,
                             tol: float) -> tuple[np.ndarray, EquitabilityCheck]:
    """The quotient matrix (the first vertices' rows of the dense table) and
    the equitability check on the whole table; the witness is the first bad
    vertex by (class, vertex) and the column where its row differs most."""
    class_of, reps = pi.labels, pi.firsts
    sums = class_sums(sa, class_of, pi.r)
    diff = np.abs(sums - sums[reps[class_of]])
    bad = np.flatnonzero(diff.max(axis=1) > tol)
    if bad.size:
        u = int(bad[np.lexsort((bad, class_of[bad]))[0]])
        i = int(class_of[u])
        ref, j = int(reps[i]), int(np.argmax(diff[u]))
        return sums[reps], EquitabilityCheck(
            ok=False, witness=(i, j, ref, u, float(sums[ref, j]), float(sums[u, j])))
    return sums[reps], EquitabilityCheck(ok=True)


def class_sums_checked_loop(sa, pi: Partition, tol: float) -> EquitabilityCheck:
    """Compare each class's class-sum rows with its first vertex's row, class
    by class; the witness is the first bad vertex of the first bad class."""
    sums = class_sums(sa, pi.labels, pi.r)
    for i, cls in enumerate(pi.classes):
        diff = np.abs(sums[list(cls)] - sums[cls[0]])
        bad = np.flatnonzero(diff.max(axis=1) > tol)
        if bad.size:
            ref, u = cls[0], cls[bad[0]]
            j = int(np.argmax(diff[bad[0]]))
            return EquitabilityCheck(
                ok=False, witness=(i, j, ref, u, float(sums[ref, j]), float(sums[u, j])))
    return EquitabilityCheck(ok=True)


def equitable_two_colorings(g: WeightedGraph) -> list[tuple[int, ...]]:
    """Every equitable 2-colouring of g that uses both colours, with vertex
    0 in colour 0, by depth-first search over colours in vertex order.

    A vertex is checked once it and all its neighbours have a colour: its
    share of degree into colour 1 must equal, within 1e-12, the share of
    the first vertex of its colour checked on the same branch.
    """
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for i, j, w in edge_tuples(g):
        nbrs[i].append((j, w))
        nbrs[j].append((i, w))
    due: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        due[max([v] + [u for u, _ in nbrs[v]])].append(v)
    color = [0] * g.n
    found = []

    def search(k: int, share: tuple) -> None:
        if k == g.n:
            if any(color):
                found.append(tuple(color))
            return
        for c in (0, 1) if k else (0,):
            color[k] = c
            s = list(share)
            for v in due[k]:
                x = sum(w for u, w in nbrs[v] if color[u]) / sum(w for _, w in nbrs[v])
                if s[color[v]] is None:
                    s[color[v]] = x
                elif abs(x - s[color[v]]) > 1e-12:
                    break
            else:
                search(k + 1, tuple(s))
        color[k] = 0

    search(0, (None, None))
    return found


# ---- automorphisms of the built-in lattices, as permutations ----

def torus_shift_perm(rows: int, cols: int, dr: int, dc: int) -> list[int]:
    """Translation (i,j) -> (i+dr, j+dc) on the wraparound mesh."""
    return [((i + dr) % rows) * cols + (j + dc) % cols
            for i in range(rows) for j in range(cols)]


def relabelled(g: WeightedGraph, pi: Partition, seed: int = 5) -> tuple[WeightedGraph, Partition]:
    """g and pi with the vertices renamed by a seeded permutation, the
    classes kept in their order: the same pattern without the row-major
    numbering that the Bloch route reads."""
    perm = np.random.default_rng(seed).permutation(g.n)
    labels = np.empty_like(pi.labels)
    labels[perm] = pi.labels
    return (build_graph(g.n, np.column_stack([perm[g.i], perm[g.j], g.w])),
            make_partition([np.flatnonzero(labels == k) for k in range(pi.r)], g.n))


def torus_flip_shift_perm(rows: int, cols: int) -> list[int]:
    """Glide symmetry (i,j) -> (1-i, -j): a row reflection about row 1/2
    combined with a column reflection."""
    return [((1 - i) % rows) * cols + (-j) % cols
            for i in range(rows) for j in range(cols)]


def torus_checkerboard_generators(rows: int, cols: int) -> list[list[int]]:
    """Translations whose orbits are the two parity classes of the mesh."""
    return [torus_shift_perm(rows, cols, 1, 1), torus_shift_perm(rows, cols, 0, 2)]


def torus_domino_generators(rows: int, cols: int) -> list[list[int]]:
    """Generators whose orbits pair rows into staggered two-cell stripes.

    On the 4x4 mesh the two orbits are {0,2,4,6,9,11,13,15} and its
    complement, with quotient [[1/4,3/4],[3/4,1/4]].  Needs rows % 4 == 0.
    """
    if rows % 4 or cols % 2:
        raise BadLatticeSize("domino orbits need rows % 4 == 0 and even cols")
    return [torus_shift_perm(rows, cols, 2, 1), torus_flip_shift_perm(rows, cols)]


def cycle_rotation_perm(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def hex_transpose_perm(rows: int, cols: int) -> list[int]:
    """(i,j) -> (j,i); an automorphism of the axial hex torus when square."""
    if rows != cols:
        raise BadLatticeSize("transpose needs a square hex torus")
    return [j * cols + i for i in range(rows) for j in range(cols)]


def hex_diagonal_generators(rows: int, cols: int) -> list[list[int]]:
    """Generators whose orbits split the hex torus by (i-j) mod 3 into the
    12/24 two-level classes (quotient [[0,1],[1/2,1/2]] on the 6x6)."""
    if rows != cols or rows % 3:
        raise BadLatticeSize("diagonal orbits need a square side divisible by 3")
    return [
        torus_shift_perm(rows, cols, 1, 1),
        torus_shift_perm(rows, cols, 3, 0),
        hex_transpose_perm(rows, cols),
    ]


def _rotation_vertex_perm(coords: np.ndarray, rot: np.ndarray) -> list[int]:
    image = coords @ rot.T
    perm = []
    for row in image:
        hits = np.where(((coords - row) ** 2).sum(1) < 1e-6)[0]
        if hits.size != 1:
            raise BadLatticeSize("rotation does not permute the vertex set")
        perm.append(int(hits[0]))
    return perm


def buckyball_rotation_generators() -> list[list[int]]:
    """Two rotations of the solid, as permutations of the 32 face-cells.

    A coordinate 3-cycle (order 3) and a fifth-turn about a pentagon axis
    (order 5) generate the full rotation group; the orbits are the 12
    pentagons and the 20 hexagons.
    """
    coords, faces = _icosahedron()
    r3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    axis = coords[0] / np.linalg.norm(coords[0])
    th = 2.0 * math.pi / 5.0
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    r5 = np.eye(3) + math.sin(th) * k + (1.0 - math.cos(th)) * (k @ k)
    face_index = {f: i for i, f in enumerate(faces)}
    perms = []
    for rot in (r3, r5):
        vp = _rotation_vertex_perm(coords, rot)
        fp = [face_index[tuple(sorted(vp[v] for v in faces[i]))] for i in range(20)]
        perms.append(vp + [12 + x for x in fp])
    return perms


def max_within_class_spread(states: np.ndarray, pi: Partition) -> float:
    """Worst max-min spread of any class at any sampled instant; states
    holds one sampled state per row."""
    worst = 0.0
    for cls in pi.classes:
        block = states[:, list(cls)]
        worst = max(worst, float((block.max(axis=1) - block.min(axis=1)).max()))
    return worst


# ---- the DOP853 loop with a new array per stage ----

def _combine_reference(y: np.ndarray, h: float, coeffs, ks) -> np.ndarray:
    out = y.copy()
    for a, k in zip(coeffs, ks):
        if a:
            out += (h * a) * k
    return out


def settle_reference(rhs, y0: np.ndarray, model: HillMap, conv_tol: float, t_max: float,
                     project, h_max: float, on_step=None) -> Settled:
    """ode.settle without its stage buffers: the same tableau, error control
    and FSAL rule, with every stage state, stage list, error estimate and
    scale newly allocated.  An oracle only."""
    atol = _ATOL_PER_CONV * conv_tol * model.tau
    y = np.array(y0, dtype=float)
    t = 0.0
    steps = rejected = 0
    deriv = rhs(y)
    norm = float(np.abs(deriv).max())
    h = h_max
    if on_step is not None:
        on_step(0, t, y)
    while norm >= conv_tol and t < t_max:
        h = min(h, h_max, t_max - t)
        ks = [deriv]
        for a in _A:
            ks.append(rhs(_combine_reference(y, h, a, ks)))
        y_new = _combine_reference(y, h, _B, ks)
        scale = atol + _RTOL * np.maximum(np.abs(y), np.abs(y_new))
        e5, e3 = (float(np.abs(_combine_reference(np.zeros_like(y), h, e, ks) / scale).max())
                  for e in (_E5, _E3))
        err = _error_norm(e5, e3)
        if not err <= 1.0:
            rejected += 1
            h *= max(_SHRINK_MIN, _SAFETY * err ** -0.125) if np.isfinite(err) else _SHRINK_MIN
            continue
        t = t + h if t + h < t_max else t_max
        steps += 1
        y = project(t, y_new)
        deriv = rhs(y)
        norm = float(np.abs(deriv).max())
        if on_step is not None:
            on_step(steps, t, y)
        h *= min(_GROW_MAX, _SAFETY * err ** -0.125) if err > 0 else _GROW_MAX
    return Settled(final_state=y, final_time=t, final_derivative_norm=norm,
                   converged=norm < conv_tol, steps=steps, rejected=rejected)


def integrate_reference(sa, model: HillMap, x0, step: float, max_time: float,
                        conv_tol: float):
    """(times, states, Settled) of the network flow through settle_reference,
    with the right-hand side through the checked t_eval and every accepted
    state clipped into the box (StateOutOfBox beyond 1e-7 A); every
    accepted state is kept."""
    amp = model.amplitude

    def rhs(x):
        return (-x + t_eval(model, np.maximum(sa.matvec(x), 0.0))) / model.tau

    def into_box(t, x):
        if x.min() < -1e-7 * amp or x.max() > amp + 1e-7 * amp:
            raise StateOutOfBox(f"state left the box at t={t}")
        return np.clip(x, 0.0, amp)

    times, states = [], []
    with np.errstate(over="ignore"):
        rest = settle_reference(rhs, x0, model, conv_tol, max_time, into_box, step,
                                lambda k, t, x: (times.append(t), states.append(x)))
    return np.array(times), np.array(states), rest


# ---- validation, one item at a time ----

def edge_loop(n: int, edges) -> tuple[tuple[int, int, float], ...]:
    """build_graph's checks and canonical order, edge by edge: the oracle
    of the bulk checks, which must raise the same error for the first bad
    edge in input order."""
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
    return tuple(sorted(canon))


def class_loop(classes, n: int) -> tuple[tuple[int, ...], ...]:
    """make_partition's checks and classes, vertex by vertex: the oracle of
    the bulk checks."""
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
        raise PartitionMismatch(f"vertices not covered: {sorted(set(range(n)) - seen)}")
    return tuple(cleaned)
