import numpy as np
import pytest

from patternq.cells import HillMap, dc_gain, fixed_point, t_prime
from patternq import existence
from patternq.errors import DimensionMismatch, NotConnected, OnlyHomogeneousFound
from patternq.existence import (
    ASSUMPTION_FAILED,
    CERTIFIED,
    INCONCLUSIVE,
    certify,
    lift,
    solve_reduced,
)
from patternq.graphs import (
    build_graph,
    buckyball,
    cycle_graph,
    hex_torus,
    torus_mesh,
    triangle_bridge,
)
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    buckyball_face_partition,
    make_partition,
    quotient,
    singleton_partition,
    tile_partition,
)

from helpers import pentagon_hexagon_root_oracle, two_cycle_oracle


def _two_cell():
    g = build_graph(2, [(0, 1, 1.0)])
    return g, quotient(g, bipartition_partition(g))


# ---- certificates ----

def test_bipartite_certificate_thresholds():
    _, qm = _two_cell()
    assert certify(qm, HillMap(exponent=6)).verdict == CERTIFIED   # slope 3 > 1
    assert certify(qm, HillMap(exponent=4)).verdict == CERTIFIED   # slope 2 > 1
    # slope exactly 1: the strict inequality fails
    assert certify(qm, HillMap(exponent=2)).verdict == INCONCLUSIVE


def test_certificate_values_two_cell():
    _, qm = _two_cell()
    cert = certify(qm, HillMap(exponent=6))
    assert abs(cert.min_eigenvalue + 1.0) < 1e-12
    assert abs(cert.fixed_point_value - 1.0) < 1e-12
    assert abs(cert.slope_at_fixed_point + 3.0) < 1e-12
    assert abs(cert.condition_value + 3.0) < 1e-10
    assert cert.reduced_bipartite
    assert cert.min_multiplicity == 1


def test_hex_rank_one_quotient_inconclusive_for_all_slopes():
    g = hex_torus(6, 6)
    qm = quotient(g, tile_partition(6, 6, MOTIFS["col3"]))
    for h in (2, 4, 6, 8, 16):
        cert = certify(qm, HillMap(exponent=h))
        assert cert.verdict == INCONCLUSIVE
        assert abs(cert.min_eigenvalue) < 1e-10


def test_buckyball_threshold_two():
    qm = quotient(buckyball(), buckyball_face_partition())
    assert certify(qm, HillMap(exponent=4)).verdict == INCONCLUSIVE  # slope 2
    assert certify(qm, HillMap(exponent=6)).verdict == CERTIFIED     # slope 3 > 2


def test_hex_stripe_threshold_three():
    g = hex_torus(6, 6)
    qm = quotient(g, tile_partition(6, 6, MOTIFS["row2"]))
    assert certify(qm, HillMap(exponent=6)).verdict == INCONCLUSIVE  # slope 3
    assert certify(qm, HillMap(exponent=8)).verdict == CERTIFIED     # slope 4 > 3


def test_assumption_fails_on_odd_reduced_cycle():
    g = cycle_graph(3)
    qm = quotient(g, singleton_partition(3))
    cert = certify(qm, HillMap(exponent=8))
    assert cert.verdict == ASSUMPTION_FAILED
    assert not cert.reduced_bipartite


def test_certify_rejects_disconnected_reduced_graph():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    qm = quotient(g, make_partition([[0, 1], [2, 3]], 4))
    with pytest.raises(NotConnected):
        certify(qm, HillMap())


# ---- reduced solve ----

def test_two_cell_solution_matches_bisection_oracle():
    _, qm = _two_cell()
    m = HillMap(exponent=6)
    red = solve_reduced(qm, m)
    z_hi, z_lo = two_cycle_oracle(m)
    assert abs(red.class_values[0] - z_hi) < 1e-9
    assert abs(red.class_values[1] - z_lo) < 1e-9
    assert red.residual < 1e-10
    assert not red.homogeneous
    assert red.warning is None


def test_two_cell_alternate_root_is_the_swap():
    _, qm = _two_cell()
    red = solve_reduced(qm, HillMap(exponent=6))
    assert red.alternate_class_values is not None
    assert np.abs(red.alternate_class_values - red.class_values[::-1]).max() < 1e-9
    # canonical orientation
    assert red.class_values[0] > red.class_values[1]


def test_uncertified_solve_returns_homogeneous_with_warning():
    _, qm = _two_cell()
    m = HillMap(exponent=2)
    red = solve_reduced(qm, m)
    assert red.homogeneous
    assert red.warning is not None
    u_star = fixed_point(m).value
    assert np.abs(red.class_values - u_star).max() < 1e-12


def test_buckyball_solution_matches_scan_oracle():
    qm = quotient(buckyball(), buckyball_face_partition())
    m = HillMap(exponent=6)
    red = solve_reduced(qm, m)
    z_p, z_h = pentagon_hexagon_root_oracle(m)
    assert abs(red.class_values[0] - z_p) < 1e-9
    assert abs(red.class_values[1] - z_h) < 1e-9
    assert red.residual < 1e-10


def _certified_cases():
    g_t = torus_mesh(4, 4)
    g_h = hex_torus(6, 6)
    return [
        (g_t, bipartition_partition(g_t), 6),
        (g_t, tile_partition(4, 4, MOTIFS["domino"]), 6),
        (buckyball(), buckyball_face_partition(), 6),
        (g_h, tile_partition(6, 6, MOTIFS["diag3"]), 6),
        (g_h, tile_partition(6, 6, MOTIFS["row2"]), 8),
        (triangle_bridge(), make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8), 6),
    ]


@pytest.mark.parametrize("g,pi,h", _certified_cases())
def test_newton_and_flow_strategies_agree(g, pi, h, monkeypatch):
    # Newton from the corners, and the flow from the corners that runs when
    # both corner Newton calls fail, reach the same pick and alternate
    qm = quotient(g, pi)
    m = HillMap(exponent=h)
    fast = solve_reduced(qm, m)
    newton = existence._newton_root
    calls = []

    def corners_fail(*args, **kwargs):
        calls.append(None)
        return None if len(calls) <= 2 else newton(*args, **kwargs)

    monkeypatch.setattr(existence, "_newton_root", corners_fail)
    phases = []
    slow = solve_reduced(qm, m, progress=lambda phase, k: phases.append(phase))
    assert "flow" in phases
    assert np.abs(slow.class_values - fast.class_values).max() < 1e-9
    assert np.abs(slow.alternate_class_values - fast.alternate_class_values).max() < 1e-9


@pytest.mark.parametrize("g,pi,h", _certified_cases())
def test_flow_starts_at_the_coloring_corners(g, pi, h, monkeypatch):
    qm = quotient(g, pi)
    m = HillMap(exponent=h)
    starts = []

    def record(pbar, model, z0, tol, progress=None):
        starts.append(z0.copy())

    monkeypatch.setattr(existence, "_newton_root", lambda *args, **kwargs: None)
    monkeypatch.setattr(existence, "_ode_root", record)
    with pytest.raises(OnlyHomogeneousFound):
        solve_reduced(qm, m)
    side0 = np.isin(np.arange(qm.r), qm.reduced_coloring[0])
    want = [np.where(side0, m.amplitude, 0.0), np.where(side0, 0.0, m.amplitude)]
    assert len(starts) == 2
    assert all(np.array_equal(a, b) for a, b in zip(starts, want))


@pytest.mark.parametrize("g,pi,h", _certified_cases())
def test_solution_signs_split_by_reduced_coloring(g, pi, h):
    qm = quotient(g, pi)
    m = HillMap(exponent=h)
    cert = certify(qm, m)
    assert cert.verdict == CERTIFIED
    red = solve_reduced(qm, m)
    dev = red.class_values - cert.fixed_point_value
    side0, side1 = qm.reduced_coloring
    signs0 = {np.sign(dev[k]) for k in side0}
    signs1 = {np.sign(dev[k]) for k in side1}
    assert signs0 == {1.0} and signs1 == {-1.0} or signs0 == {-1.0} and signs1 == {1.0}


def test_sign_flipped_linearization_is_cooperative():
    for g, pi, h in _certified_cases():
        qm = quotient(g, pi)
        m = HillMap(exponent=h)
        cert = certify(qm, m)
        signs = np.ones(qm.r)
        for k in qm.reduced_coloring[1]:
            signs[k] = -1.0
        jac = -np.eye(qm.r) + cert.slope_at_fixed_point * qm.matrix
        flipped = signs[:, None] * jac * signs[None, :]
        off = flipped - np.diag(np.diag(flipped))
        assert off.min() >= -1e-12


# ---- lifting ----

def test_lift_homogeneous_residual():
    g = hex_torus(6, 6)
    pi = tile_partition(6, 6, MOTIFS["diag3"])
    qm = quotient(g, pi)
    m = HillMap(exponent=6)
    u_star = fixed_point(m).value
    pat = lift(qm, np.full(2, u_star), m)
    assert pat.residual_full < 1e-12
    assert pat.homogeneous


def test_lift_checkerboard():
    g = torus_mesh(4, 4)
    pi = bipartition_partition(g)
    qm = quotient(g, pi)
    m = HillMap(exponent=6)
    red = solve_reduced(qm, m)
    pat = lift(qm, red.class_values, m)
    assert pat.residual_full < 1e-10
    # alternating by parity class
    side0 = set(pi.classes[0])
    for v in range(16):
        want = red.class_values[0] if v in side0 else red.class_values[1]
        assert pat.cell_inputs[v] == want
    # states are the response to the inputs and also satisfy the dynamics
    assert np.abs(pat.cell_states - np.array(
        [2.0 / (1.0 + u ** 6) for u in pat.cell_inputs])).max() < 1e-14


def test_lift_triangle_bridge_constant_on_classes():
    g = triangle_bridge()
    pi = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    qm = quotient(g, pi)
    m = HillMap(exponent=6)
    red = solve_reduced(qm, m)
    pat = lift(qm, red.class_values, m)
    assert pat.residual_full < 1e-10
    assert len({pat.cell_inputs[v] for v in (2, 5)}) == 1
    assert len({pat.cell_inputs[v] for v in (0, 1, 3, 4, 6, 7)}) == 1


def test_lift_dimension_checks():
    g = torus_mesh(4, 4)
    qm = quotient(g, bipartition_partition(g))
    m = HillMap()
    with pytest.raises(DimensionMismatch):
        lift(qm, np.ones(3), m)


def test_solver_progress_callback():
    _, qm = _two_cell()
    phases = []
    red = solve_reduced(qm, HillMap(exponent=6),
                        progress=lambda phase, k: phases.append(phase))
    assert not red.homogeneous
    assert "newton" in phases


def _sweep_quotients():
    g_t = torus_mesh(4, 4)
    return [
        quotient(buckyball(), buckyball_face_partition()),
        quotient(hex_torus(6, 6), tile_partition(6, 6, MOTIFS["diag3"])),
        quotient(g_t, bipartition_partition(g_t)),
        quotient(triangle_bridge(), make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)),
    ]


@pytest.mark.parametrize("factor", [1.05, 2.0])
@pytest.mark.parametrize("case", range(4))
def test_coloring_corners_need_no_flow(case, factor):
    qm = _sweep_quotients()[case]
    h_star = 2.0 / abs(certify(qm, HillMap()).min_eigenvalue)   # u* = 1, |T'(u*)| = h/2
    phases = []
    red = solve_reduced(qm, HillMap(exponent=factor * h_star),
                        progress=lambda phase, k: phases.append(phase))
    assert red.certificate.verdict == CERTIFIED
    assert red.alternate_class_values is not None
    assert "newton" in phases and "flow" not in phases


def test_flow_fallback_when_corner_newton_fails(monkeypatch):
    qm = _sweep_quotients()[0]
    m = HillMap(exponent=6)
    fast = solve_reduced(qm, m)
    newton = existence._newton_root
    calls = []

    def corners_fail(*args, **kwargs):
        calls.append(None)
        return None if len(calls) <= 2 else newton(*args, **kwargs)

    monkeypatch.setattr(existence, "_newton_root", corners_fail)
    phases = []
    slow = solve_reduced(qm, m, progress=lambda phase, k: phases.append(phase))
    assert "flow" in phases
    assert np.abs(slow.class_values - fast.class_values).max() < 1e-9
    assert np.abs(slow.alternate_class_values - fast.alternate_class_values).max() < 1e-9

    monkeypatch.setattr(existence, "_newton_root", lambda *args, **kwargs: None)
    monkeypatch.setattr(existence, "_ode_root", lambda *args, **kwargs: None)
    with pytest.raises(OnlyHomogeneousFound):
        solve_reduced(qm, m)


def test_dc_gain_consistent_with_solved_pattern():
    _, qm = _two_cell()
    m = HillMap(exponent=6)
    red = solve_reduced(qm, m)
    for z in red.class_values:
        assert abs(dc_gain(m, float(z)) - abs(t_prime(m, float(z)))) < 1e-12
