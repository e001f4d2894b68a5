"""Independent oracles shared across the test modules.

Everything here deliberately avoids the library's own solution paths:
eigenvalues come from characteristic-polynomial companion roots, Perron
roots from power iteration, the M-matrix property from leading principal
minors, reduced roots from 1-D
bisection on composed maps, and coarsest refinements from full partition
enumeration and from rounded float class-sum signatures.  The dense
averaging matrix and the class indicator are rebuilt here from the graph
and the partition, not read off the library.
Network trajectories are checked against scipy's DOP853 on the dense
averaging matrix in test_properties.
"""
from __future__ import annotations

import numpy as np

from patternq.cells import HillMap, fixed_point, t_eval
from patternq.errors import NoConvergence
from patternq.graphs import WeightedGraph, scaled_adjacency
from patternq.partitions import (
    Partition,
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


def weight_matrix(g: WeightedGraph) -> np.ndarray:
    """The dense symmetric weight matrix W, one edge at a time."""
    w = np.zeros((g.n, g.n))
    for i, j, wt in g.edges:
        w[i, j] = w[j, i] = wt
    return w


def dense_averaging(g: WeightedGraph) -> np.ndarray:
    """The averaging matrix P = D^-1 W, rebuilt from the graph's weight matrix."""
    return weight_matrix(g) / g.degrees()[:, None]


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
        sums = sa.class_sums(pi.class_of(), pi.r)
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


def connected_by_closure(g: WeightedGraph) -> bool:
    """Connectivity through boolean matrix closure (no BFS)."""
    w = weight_matrix(g) > 0
    reach = np.eye(g.n, dtype=bool) | w
    for _ in range(g.n):
        reach = reach | (reach.astype(int) @ w.astype(int) > 0)
    return bool(reach[0].all())


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
    from patternq.graphs import build_graph

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
