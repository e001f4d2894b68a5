import dataclasses

import numpy as np
import pytest

from patternq.errors import DetailedBalanceViolated, DimensionMismatch, NoConvergence, NotSymmetric
from patternq.graphs import (
    buckyball,
    cycle_graph,
    hex_torus,
    path_graph,
    scaled_adjacency,
    torus_mesh,
)
from patternq.partitions import (
    MOTIFS,
    bipartition_partition,
    buckyball_face_partition,
    quotient,
    singleton_partition,
    tile_partition,
)
from patternq.spectral import jacobian_spectrum, sym_eigen

from helpers import char_poly_eigs, dense_averaging, spectral_radius_nonneg


# ---- symmetric eigensolver ----

def test_sym_eigen_identity():
    spec = sym_eigen(np.eye(3))
    assert np.array_equal(spec.eigenvalues, [1, 1, 1])


def test_sym_eigen_swap_matrix():
    spec = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(spec.eigenvalues - np.array([1.0, -1.0])).max() < 1e-14


def test_sym_eigen_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal((8, 8))
        a = a + a.T
        spec = sym_eigen(a)
        assert np.abs(spec.eigenvalues - char_poly_eigs(a)).max() < 1e-9


def test_sym_eigen_residuals_and_orthonormality():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    spec = sym_eigen(a)
    v = spec.eigenvectors
    for k, lam in enumerate(spec.eigenvalues):
        assert np.abs(a @ v[:, k] - lam * v[:, k]).max() < 1e-9
    assert np.abs(v.T @ v - np.eye(12)).max() < 1e-10


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eigen_small_sizes():
    assert sym_eigen(np.array([[4.0]])).eigenvalues[0] == 4.0
    assert sym_eigen(np.empty((0, 0))).eigenvalues.size == 0


def test_sym_eigen_rejects_non_finite():
    with pytest.raises(NoConvergence):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]), vectors=False)


# ---- quotient spectra (QuotientModel.spectrum) ----

def test_quotient_spectrum_two_cells():
    qm = quotient(path_graph(2), singleton_partition(2))
    assert np.array_equal(qm.matrix, [[0.0, 1.0], [1.0, 0.0]])
    spec = qm.spectrum()
    assert np.abs(spec.eigenvalues - np.array([1.0, -1.0])).max() < 1e-12


def test_quotient_spectrum_domino():
    qm = quotient(torus_mesh(8, 8), tile_partition(8, 8, MOTIFS["domino"]))
    assert np.array_equal(qm.matrix, [[0.25, 0.75], [0.75, 0.25]])
    assert np.array_equal(qm.class_degrees, [128.0, 128.0])
    spec = qm.spectrum()
    assert np.abs(spec.eigenvalues - np.array([1.0, -0.5])).max() < 1e-12


def test_quotient_spectrum_buckyball():
    qm = quotient(buckyball(), buckyball_face_partition())
    assert np.array_equal(qm.matrix, [[0.0, 1.0], [0.5, 0.5]])
    assert np.array_equal(qm.class_degrees, [60.0, 120.0])
    spec = qm.spectrum()
    assert np.abs(spec.eigenvalues - np.array([1.0, -0.5])).max() < 1e-12
    # the top eigenvector is strictly positive
    assert spec.eigenvectors[:, 0].min() > 0


def test_quotient_spectrum_rejects_imbalance():
    # the buckyball quotient against equal class degrees breaks detailed balance
    qm = quotient(buckyball(), buckyball_face_partition())
    with pytest.raises(DetailedBalanceViolated, match="max flux asymmetry 5.00e-01"):
        dataclasses.replace(qm, class_degrees=np.array([1.0, 1.0])).spectrum()


@pytest.mark.parametrize("g", [path_graph(5), cycle_graph(6), torus_mesh(4, 4),
                               hex_torus(6, 6), buckyball()])
def test_averaging_spectrum_in_unit_interval(g):
    # the singleton partition's quotient is P itself, against the degrees
    p = dense_averaging(g)
    qm = quotient(g, singleton_partition(g.n))
    assert np.array_equal(qm.matrix, p)
    assert np.array_equal(qm.class_degrees, g.degrees())
    spec = qm.spectrum()
    assert spec.eigenvalues.max() <= 1.0 + 1e-10
    assert spec.eigenvalues.min() >= -1.0 - 1e-10
    assert abs(spec.eigenvalues[0] - 1.0) < 1e-10
    # unit eigenvectors of the original (unsymmetrized) matrix
    assert np.abs(np.linalg.norm(spec.eigenvectors, axis=0) - 1.0).max() < 1e-12
    for k, lam in enumerate(spec.eigenvalues):
        v = spec.eigenvectors[:, k]
        assert np.abs(p @ v - lam * v).max() < 1e-9


# ---- power iteration (the test oracle) ----

def test_power_iteration_on_stochastic_matrix():
    rho, v = spectral_radius_nonneg(dense_averaging(torus_mesh(4, 4)))
    assert abs(rho - 1.0) < 1e-10
    assert np.abs(v - v[0]).max() < 1e-8  # all-ones direction


def test_power_iteration_bipartite_support():
    # eigenvalues are +-2: the plain iteration would oscillate without a shift
    rho, v = spectral_radius_nonneg(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert abs(rho - 2.0) < 1e-10
    assert v.min() > 0


def test_power_iteration_rejects_reducible():
    with pytest.raises(ValueError):
        spectral_radius_nonneg(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectral_radius_nonneg(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_power_iteration_matches_symmetrized_eigenvalue():
    g = torus_mesh(4, 4)
    p, d = dense_averaging(g), g.degrees()
    pi = bipartition_partition(g)
    rng = np.random.default_rng(11)
    for _ in range(5):
        gamma_cls = rng.uniform(0.2, 2.0, size=2)
        gamma = pi.expand(gamma_cls)
        m = gamma[:, None] * p  # Gamma P
        scale = np.sqrt(d / gamma)
        sym = (scale[:, None] * m) / scale[None, :]
        assert np.abs(sym - sym.T).max() < 1e-10
        rho, _ = spectral_radius_nonneg(m)
        top = sym_eigen(sym, vectors=False).eigenvalues
        assert abs(rho - np.abs(top).max()) < 1e-9
        # same radius for P Gamma (spectra agree under cyclic permutation)
        rho2, _ = spectral_radius_nonneg(p * gamma[None, :])
        assert abs(rho - rho2) < 1e-9


# ---- network Jacobian ----

def test_jacobian_constant_slope_closed_form():
    g = hex_torus(6, 6)
    sa = scaled_adjacency(g)
    t = -1.7
    spec = jacobian_spectrum(sa.symmetric, np.full(g.n, t))
    mus = quotient(g, singleton_partition(g.n)).eigenvalues
    expected = np.sort(-1.0 + t * mus)[::-1]
    assert np.abs(spec.eigenvalues - expected).max() < 1e-9


def test_jacobian_two_cell_stability_boundary():
    sa = scaled_adjacency(path_graph(2))
    for t1, t2 in [(-0.5, -0.5), (-2.0, -0.4), (-2.0, -0.6), (-3.0, -3.0)]:
        spec = jacobian_spectrum(sa.symmetric, np.array([t1, t2]))
        abscissa = spec.eigenvalues[0]
        assert (abscissa < 0) == (t1 * t2 < 1.0)


def test_jacobian_matches_dense_oracle_on_mixed_slopes():
    g = buckyball()
    sa = scaled_adjacency(g)
    rng = np.random.default_rng(5)
    t = -rng.uniform(0.5, 3.0, size=g.n)
    spec = jacobian_spectrum(sa.symmetric, t, tau=0.7)
    dense = np.linalg.eigvals((-np.eye(g.n) + t[:, None] * dense_averaging(g)) / 0.7)
    assert np.abs(dense.imag).max() < 1e-9
    assert np.abs(np.sort(dense.real) - np.sort(spec.eigenvalues)).max() < 1e-9


def test_jacobian_zero_slopes_are_exact():
    sa = scaled_adjacency(path_graph(3))
    # a zero slope row is -e_i / tau; the middle cell drives only the two
    # zero-slope cells, so the whole spectrum is -1/tau exactly
    for slopes in (np.zeros(3), np.array([0.0, -2.0, 0.0])):
        for tau in (1.0, 0.5):
            spec = jacobian_spectrum(sa.symmetric, slopes, tau=tau)
            assert np.array_equal(spec.eigenvalues, np.full(3, -1.0 / tau))


def test_jacobian_rejects_unsymmetric_matrix():
    # the Jacobian route takes S = D^1/2 P D^-1/2, never the averaging matrix P
    g = path_graph(3)
    with pytest.raises(NotSymmetric):
        jacobian_spectrum(dense_averaging(g), np.full(3, -1.0))
    assert jacobian_spectrum(scaled_adjacency(g).symmetric, np.full(3, -1.0)).eigenvalues.size == 3


def test_jacobian_rejects_positive_slope():
    sa = scaled_adjacency(path_graph(3))
    with pytest.raises(DetailedBalanceViolated):
        jacobian_spectrum(sa.symmetric, np.array([-1.0, 0.5, -1.0]))


@pytest.mark.parametrize("count", [2, 4])
def test_jacobian_rejects_a_wrong_number_of_slopes(count):
    sa = scaled_adjacency(path_graph(3))
    with pytest.raises(DimensionMismatch, match=r"expected 3 slopes, got \(%d,\)" % count):
        jacobian_spectrum(sa.symmetric, np.full(count, -1.0))


def test_jacobian_of_a_stack_is_the_union_of_its_blocks():
    # a stack of Hermitian blocks that share the slopes is solved in one
    # batched call; its spectrum is every block's eigenvalues together
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    stack = (a + a.conj().swapaxes(1, 2)) / 2.0
    slopes = np.array([-0.5, 0.0, -2.0])
    got = jacobian_spectrum(stack, slopes, tau=0.5).eigenvalues
    gain = np.sqrt(-slopes)
    each = [(-1.0 - np.linalg.eigvalsh(gain[:, None] * b * gain[None, :])) / 0.5
            for b in stack]
    assert np.abs(got - np.sort(np.concatenate(each))[::-1]).max() < 1e-12
    assert np.all(np.diff(got) <= 0)
    stack[2, 0, 2] += 1e-6j
    with pytest.raises(NotSymmetric):
        jacobian_spectrum(stack, slopes)
    with pytest.raises(NotSymmetric):
        sym_eigen(stack[:, :, :2], vectors=False)
