"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines).
"""
import itertools

import numpy as np

from patternq.cells import HillMap, t_prime
from patternq.existence import CERTIFIED, INCONCLUSIVE, certify, lift, solve_reduced
from patternq.graphs import (
    build_graph,
    buckyball,
    cycle_graph,
    hex_torus,
    scaled_adjacency,
    torus_mesh,
    triangle_bridge,
)
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    block_decompose,
    buckyball_face_partition,
    coarsest_equitable_refinement,
    is_equitable,
    make_partition,
    orbits_from_generators,
    quotient,
    refines,
    tile_partition,
    trivial_partition,
)
from patternq.simulate import integrate, verify_certificate
from patternq.spectral import jacobian_spectrum
from patternq.stability import CERTIFIED_STABLE, block_stability, small_gain

from helpers import (
    brute_force_coarsest,
    class_indicator,
    dense_averaging,
    dense_jacobian_spectrum,
    max_within_class_spread,
    random_connected_graph,
    rounded_signature_refinement,
    buckyball_rotation_generators,
    spectral_radius_nonneg,
    torus_domino_generators,
    two_cycle_oracle,
)


def _report(num: int, name: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def _hill(h: float) -> HillMap:
    return HillMap(amplitude=2.0, threshold=1.0, exponent=h, tau=1.0)


def _builtin_partitions():
    """Every built-in (graph, equitable partition) pair used by the gate."""
    g_t = torus_mesh(4, 4)
    g_h = hex_torus(6, 6)
    return [
        ("two-cell", build_graph(2, [(0, 1, 1.0)]), None),
        ("torus-checkerboard", g_t, bipartition_partition(g_t)),
        ("torus-domino", g_t, tile_partition(4, 4, MOTIFS["domino"])),
        ("cycle6", cycle_graph(6), None),
        ("hex-diag3", g_h, tile_partition(6, 6, MOTIFS["diag3"])),
        ("hex-row2", g_h, tile_partition(6, 6, MOTIFS["row2"])),
        ("hex-col3", g_h, tile_partition(6, 6, MOTIFS["col3"])),
        ("hex-row3", g_h, tile_partition(6, 6, MOTIFS["row3"])),
        ("hex-col2", g_h, tile_partition(6, 6, MOTIFS["col2"])),
        ("buckyball", buckyball(), buckyball_face_partition()),
        ("triangle-bridge", triangle_bridge(),
         make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)),
    ]


def _resolved_builtins():
    return [(name, g, pi if pi is not None else bipartition_partition(g))
            for name, g, pi in _builtin_partitions()]


# ---------------------------------------------------------------------------
# 1. quotient matrices match the published two-class reductions exactly
# ---------------------------------------------------------------------------

def test_criterion_01_quotient_reproduction():
    third = 1.0 / 3.0
    expected = {
        "two-cell": [[0.0, 1.0], [1.0, 0.0]],
        "torus-checkerboard": [[0.0, 1.0], [1.0, 0.0]],
        "torus-domino": [[0.25, 0.75], [0.75, 0.25]],
        "cycle6": [[0.0, 1.0], [1.0, 0.0]],
        "hex-diag3": [[0.0, 1.0], [0.5, 0.5]],
        "hex-row2": [[third, 2 * third], [2 * third, third]],
        "hex-col3": [[third, 2 * third], [third, 2 * third]],
        "hex-row3": [[third, 2 * third], [third, 2 * third]],
        "hex-col2": [[third, 2 * third], [2 * third, third]],
        "buckyball": [[0.0, 1.0], [0.5, 0.5]],
        "triangle-bridge": [[0.0, 1.0], [0.5, 0.5]],
    }
    for name, g, pi in _resolved_builtins():
        qm = quotient(g, pi)
        assert np.abs(qm.matrix - np.array(expected[name])).max() < 1e-12, name
    # the domino classes also arise from automorphism orbits
    orb = orbits_from_generators(torus_mesh(4, 4), torus_domino_generators(4, 4))
    assert orb.classes == tile_partition(4, 4, MOTIFS["domino"]).classes
    _report(1, "quotient reproduction")


# ---------------------------------------------------------------------------
# 2. quotient spectra
# ---------------------------------------------------------------------------

def test_criterion_02_eigenvalue_reproduction():
    expected_min = {
        "two-cell": -1.0,
        "torus-checkerboard": -1.0,
        "cycle6": -1.0,
        "torus-domino": -0.5,
        "hex-diag3": -0.5,
        "hex-row2": -third_ev(),
        "hex-col2": -third_ev(),
        "hex-col3": 0.0,
        "hex-row3": 0.0,
        "buckyball": -0.5,
        "triangle-bridge": -0.5,
    }
    for name, g, pi in _resolved_builtins():
        qm = quotient(g, pi)
        assert abs(qm.eigenvalues[0] - 1.0) < 1e-9, name
        assert abs(qm.eigenvalues[-1] - expected_min[name]) < 1e-9, name
    _report(2, "eigenvalue reproduction")


def third_ev() -> float:
    return 1.0 / 3.0


# ---------------------------------------------------------------------------
# 3. certification thresholds: strict inequalities on the slope at the
#    fixed point (h/2 for the amplitude-2, threshold-1 family)
# ---------------------------------------------------------------------------

def test_criterion_03_threshold_reproduction():
    by_name = {name: (g, pi) for name, g, pi in _resolved_builtins()}

    def verdict(name, h):
        g, pi = by_name[name]
        return certify(quotient(g, pi), _hill(h)).verdict

    # slope threshold 1 (minimum eigenvalue -1)
    assert verdict("two-cell", 4) == CERTIFIED
    assert verdict("two-cell", 2) == INCONCLUSIVE          # slope exactly 1
    assert verdict("torus-checkerboard", 4) == CERTIFIED
    # slope threshold 2 (minimum eigenvalue -1/2)
    for name in ("torus-domino", "hex-diag3", "buckyball", "triangle-bridge"):
        assert verdict(name, 6) == CERTIFIED, name
        assert verdict(name, 4) == INCONCLUSIVE, name      # slope exactly 2
    # slope threshold 3 (minimum eigenvalue -1/3)
    for name in ("hex-row2", "hex-col2"):
        assert verdict(name, 8) == CERTIFIED, name
        assert verdict(name, 6) == INCONCLUSIVE, name      # slope exactly 3
    # rank-one quotients never certify
    for name in ("hex-col3", "hex-row3"):
        for h in (2, 4, 6, 8, 12):
            assert verdict(name, h) == INCONCLUSIVE, (name, h)
    _report(3, "threshold reproduction")


# ---------------------------------------------------------------------------
# 4. end-to-end checkerboard
# ---------------------------------------------------------------------------

def test_criterion_04_checkerboard_end_to_end():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    m = _hill(6)
    qm = quotient(g, pi)
    red = solve_reduced(qm, m)
    z_hi, z_lo = two_cycle_oracle(m)
    assert abs(red.class_values[0] - z_hi) < 1e-9
    assert abs(red.class_values[1] - z_lo) < 1e-9
    pat = lift(qm, red.class_values, m)
    chk = verify_certificate(qm, m, pat)
    assert chk.converged and chk.match
    assert chk.max_deviation < 1e-6
    assert {frozenset(grp) for grp in chk.empirical.groups} \
        == {frozenset(c) for c in pi.classes}
    _report(4, "checkerboard end to end")


# ---------------------------------------------------------------------------
# 5. soccer-ball pattern on the buckyball
# ---------------------------------------------------------------------------

def test_criterion_05_soccer_ball_pattern():
    g = buckyball()
    pi = buckyball_face_partition()
    m = _hill(6)
    qm = quotient(g, pi)
    cert = certify(qm, m)
    assert cert.verdict == CERTIFIED
    red = solve_reduced(qm, m)
    assert red.residual_reduced < 1e-10
    pat = lift(qm, red.class_values, m)
    chk = verify_certificate(qm, m, pat)
    assert chk.converged
    assert sorted(len(grp) for grp in chk.empirical.groups) == [12, 20]
    # the pentagon/hexagon orbit route reaches the same partition
    assert orbits_from_generators(g, buckyball_rotation_generators()).classes \
        == pi.classes
    _report(5, "soccer-ball pattern")


# ---------------------------------------------------------------------------
# 6. gain-weighted radius lifts to the quotient with a class-constant
#    Perron vector
# ---------------------------------------------------------------------------

def test_criterion_06_radius_lifting_suite():
    rng = np.random.default_rng(2024)
    instances = 0
    for name, g, pi in _resolved_builtins():
        p = dense_averaging(g)
        qm = quotient(g, pi)
        for _ in range(5):
            gains = rng.uniform(0.2, 2.5, size=pi.r)
            cell_gains = pi.expand(gains)
            rho_full, v_full = spectral_radius_nonneg(p * cell_gains[None, :])
            rho_red, _ = spectral_radius_nonneg(qm.matrix * gains[None, :])
            assert abs(rho_full - rho_red) < 1e-9, name
            v = v_full / np.abs(v_full).max()
            for cls in pi.classes:
                vals = v[list(cls)]
                assert vals.max() - vals.min() < 1e-8, name
            instances += 1
    assert instances >= 50
    _report(6, f"radius lifting on {instances} instances")


# ---------------------------------------------------------------------------
# 7. block decomposition identities and block stability spectra
# ---------------------------------------------------------------------------

def test_criterion_07_block_decomposition_suite():
    for name, g, pi in _resolved_builtins():
        qm = quotient(g, pi)
        dec = block_decompose(qm)
        # the indicator intertwines averaging and quotient matrices
        p, q = dense_averaging(g), class_indicator(pi)
        assert np.abs(p @ q - q @ qm.matrix).max() < 1e-12, name
        # spectrum splits as quotient plus transverse
        full = np.sort(np.linalg.eigvals(p).real)
        parts = np.sort(np.concatenate([
            np.linalg.eigvals(qm.symmetric).real,
            np.linalg.eigvals(dec.transverse_block).real
            if dec.transverse_block.size else np.empty(0),
        ]))
        assert np.abs(full - parts).max() < 1e-8, name

        # block stability spectra join up to the full network Jacobian
        m = _hill(6)
        cert = certify(qm, m)
        if cert.verdict == CERTIFIED:
            z = solve_reduced(qm, m).class_values
        else:
            z = np.full(pi.r, cert.fixed_point_value)
        blk = block_stability(qm, m, z)
        assert blk.consistency < 1e-8, name
        u = pi.expand(z)
        full_j = jacobian_spectrum(scaled_adjacency(g).symmetric,
                                   np.asarray(t_prime(m, u)), tau=m.tau)
        union = np.sort(np.concatenate([blk.representative_spectrum,
                                        blk.transverse_spectrum]))
        assert np.abs(union - np.sort(full_j.eigenvalues)).max() < 1e-8, name
    _report(7, "block decomposition suite")


# ---------------------------------------------------------------------------
# 8. small-gain soundness and the bipartite closed form
# ---------------------------------------------------------------------------

def test_criterion_08_small_gain_soundness():
    # soundness across all built-ins and several inhibition strengths,
    # homogeneous and patterned operating points alike
    for name, g, pi in _resolved_builtins():
        qm = quotient(g, pi)
        for h in (1.5, 2.0, 4.0, 6.0, 8.0):
            m = _hill(h)
            cert = certify(qm, m)
            zs = [np.full(pi.r, cert.fixed_point_value)]
            if cert.verdict == CERTIFIED:
                zs.append(solve_reduced(qm, m).class_values)
            for z in zs:
                sg = small_gain(qm, m, z)
                if sg.rho_full < 1.0 - 1e-6:
                    assert dense_jacobian_spectrum(g, m, pi.expand(z))[0] < 0, (name, h)
                    assert sg.verdict == CERTIFIED_STABLE

    # bipartite family: radius is the geometric mean of the two gains and
    # the certificate coincides with the slope-product condition
    for g in (torus_mesh(4, 4), cycle_graph(6), build_graph(2, [(0, 1, 1.0)])):
        pi = bipartition_partition(g)
        qm = quotient(g, pi)
        for h in (4.0, 6.0, 8.0):
            m = _hill(h)
            red = solve_reduced(qm, m)
            sg = small_gain(qm, m, red.class_values)
            g1, g2 = sg.class_gains
            assert abs(sg.rho_full - np.sqrt(g1 * g2)) < 1e-10
            product = float(t_prime(m, red.class_values[0])
                            * t_prime(m, red.class_values[1]))
            assert (sg.verdict == CERTIFIED_STABLE) == (product < 1.0 - 1e-9)
    _report(8, "small-gain soundness")


# ---------------------------------------------------------------------------
# 9. coarsest refinement equals the enumeration oracle
# ---------------------------------------------------------------------------

def _connected_adj_masks(n):
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for mask in range(1, 1 << len(pairs)):
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = frontier
            while v:
                low = v & -v
                nxt |= adj[low.bit_length() - 1]
                v ^= low
            frontier = nxt & ~seen
            seen |= frontier
        if seen == (1 << n) - 1:
            out.append(adj)
    return out


def _rest_partition_templates(n):
    """All partitions of {1..n-1} as bitmask class lists, prefixed by {0}."""
    def helper(k):
        if k == 1:
            yield []
            return
        for rest in helper(k - 1):
            for i in range(len(rest)):
                yield rest[:i] + [rest[i] | (1 << (k - 1))] + rest[i + 1:]
            yield rest + [1 << (k - 1)]
    return [[1] + blocks for blocks in helper(n)]


def _equitable_unit(adj, scale, masks) -> bool:
    # exact integer signatures: counts scaled by lcm(1..5)/degree
    for cls in masks:
        v = cls
        ref = None
        while v:
            low = v & -v
            u = low.bit_length() - 1
            sig = tuple((adj[u] & m).bit_count() * scale[u] for m in masks)
            if ref is None:
                ref = sig
            elif sig != ref:
                return False
            v ^= low
    return True


def test_criterion_09_refinement_matches_enumeration_oracle():
    # exhaustive over every connected unit-weight graph with up to 6 vertices
    expected_counts = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    for n in range(2, 7):
        graphs = _connected_adj_masks(n)
        assert len(graphs) == expected_counts[n]
        templates = _rest_partition_templates(n)
        seed = make_partition([[0], list(range(1, n))], n)
        for adj in graphs:
            scale = [60 // a.bit_count() for a in adj]
            best = None
            cands = []
            for tpl in templates:
                if _equitable_unit(adj, scale, tpl):
                    cands.append(tpl)
                    if best is None or len(tpl) < len(best):
                        best = tpl
            # the coarsest candidate is refined by every other candidate
            for cand in cands:
                assert all(any(blk & b == blk for b in best) for blk in cand)
            edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                     if adj[i] >> j & 1]
            g = build_graph(n, edges)
            got = coarsest_equitable_refinement(g, seed)
            got_masks = frozenset(sum(1 << v for v in cls) for cls in got.classes)
            assert got_masks == frozenset(best)
            # trivial seed: the single class is equitable (rows sum to one)
            # and every partition refines it, so it is its own refinement
            assert coarsest_equitable_refinement(g).classes \
                == trivial_partition(n).classes

    # plus randomized weighted graphs against the float-signature oracle
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n, weighted=True)
        split = int(rng.integers(1, n))
        verts = rng.permutation(n)
        seed = make_partition([verts[:split], verts[split:]], n)
        got = coarsest_equitable_refinement(g, seed)
        assert is_equitable(g, got).ok
        assert refines(got, seed)
        want = brute_force_coarsest(g, seed)
        assert frozenset(got.classes) == frozenset(want.classes)
        assert got == rounded_signature_refinement(g, seed)
    _report(9, "refinement vs enumeration oracle")


# ---------------------------------------------------------------------------
# 10. class-constant states stay class-constant along trajectories
# ---------------------------------------------------------------------------

def test_criterion_10_invariant_subspace():
    # hex-row2/col2 at strong inhibition sit exactly on the reduced marginal
    # case: the flow crawls near the homogeneous state whose transverse
    # modes amplify roundoff exponentially, so no convergent run exists
    # there.  Those two run in the contractive regime instead; every other
    # built-in runs at strong inhibition.
    weak = {"hex-row2", "hex-col2"}
    rng = np.random.default_rng(31)
    for name, g, pi in _resolved_builtins():
        m = _hill(1.5 if name in weak else 6)
        x0 = pi.expand(rng.uniform(0.2, 1.8, size=pi.r))
        states = []
        rest = integrate(scaled_adjacency(g), m, x0, max_time=200.0,
                         on_step=lambda k, t, x: states.append(x))
        assert rest.converged, name
        assert max_within_class_spread(np.array(states), pi) < 1e-9, name
    _report(10, "invariant subspace")
