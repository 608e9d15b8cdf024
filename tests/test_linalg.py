import numpy as np
import pytest

from jacobigeom import (
    NotSpd,
    NotSymmetric,
    SingularSylvester,
    dsqrtm,
    duplication_matrix,
    elimination_matrix,
    kron_sum,
    sqrtm_spd,
    sylvester_solve,
    vec,
    vech,
)
from jacobigeom.linalg import expm, unvech
from jacobigeom.sampling import rand_sp_algebra, rand_spd, rand_sym


def test_kron_sum_identity_and_eigenvalues():
    n = 3
    assert np.allclose(kron_sum(np.eye(n), np.eye(n)), 2 * np.eye(n * n))
    # eigenvalues are pairwise sums: diag(1,2) (+) diag(3,4) -> {4,5,5,6}
    ks = kron_sum(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(sorted(np.linalg.eigvals(ks).real), [4, 5, 5, 6])
    a = np.arange(4.0).reshape(2, 2)
    assert np.allclose(kron_sum(a, np.zeros((3, 3))), np.kron(a, np.eye(3)))


def test_vech_definition_and_duplication():
    a, b, d = 1.0, 2.0, 3.0
    m = np.array([[a, b], [b, d]])
    assert np.array_equal(vech(m), [a, b, d])
    assert np.array_equal(unvech(vech(m), 2), m)
    with pytest.raises(NotSymmetric):
        vech(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elimination_times_duplication_is_identity(n):
    ln = elimination_matrix(n)
    dn = duplication_matrix(n)
    assert dn.shape == (n * n, n * (n + 1) // 2)
    assert np.array_equal(ln @ dn, np.eye(n * (n + 1) // 2))
    assert np.array_equal(elimination_matrix(1), [[1.0]])
    assert np.array_equal(duplication_matrix(1), [[1.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vec_vech_roundtrips(rng, n):
    a = rand_sym(rng, n)
    assert np.allclose(vec(a), duplication_matrix(n) @ vech(a))
    assert np.allclose(elimination_matrix(n) @ vec(a), vech(a))


def test_sylvester_trivial_and_elementwise():
    n = 3
    x = sylvester_solve(np.eye(n), np.eye(n), 2 * np.eye(n))
    assert np.allclose(x, np.eye(n))
    # diagonal case: X[i, j] = C[i, j] / (a_i + b_j)
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    x = sylvester_solve(a, b, np.ones((2, 2)))
    assert np.allclose(x, [[1 / 4, 1 / 5], [1 / 5, 1 / 6]])


def test_sylvester_singular():
    with pytest.raises(SingularSylvester):
        sylvester_solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.eye(2))


def test_sylvester_random_residuals(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        # shift spectra apart to keep the system well conditioned
        a = rng.normal(size=(n, n)) + 3 * np.eye(n)
        b = rng.normal(size=(m, m)) + 3 * np.eye(m)
        c = rng.normal(size=(n, m))
        x = sylvester_solve(a, b, c)
        assert np.linalg.norm(a @ x + x @ b - c) <= 1e-10 * np.linalg.norm(c)


def test_sqrtm_spd_cases(rng):
    assert np.allclose(sqrtm_spd(4 * np.eye(3)), 2 * np.eye(3))
    assert np.allclose(sqrtm_spd(np.diag([1.0, 4.0, 9.0])), np.diag([1.0, 2.0, 3.0]))
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = sqrtm_spd(a)
    assert np.max(np.abs(s @ s - a)) <= 1e-12 * np.max(np.abs(a))
    with pytest.raises(NotSpd):
        sqrtm_spd(np.diag([1.0, -1.0]))
    with pytest.raises(NotSpd):
        sqrtm_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    # sqrt of a square recovers the SPD factor
    for _ in range(20):
        s = rand_spd(rng, int(rng.integers(1, 5)))
        assert np.max(np.abs(sqrtm_spd(s @ s) - s)) <= 1e-10


def test_dsqrtm_closed_forms():
    da = np.array([[0.4, -0.1], [-0.1, 1.0]])
    assert np.allclose(dsqrtm(np.eye(2), da), da / 2)
    assert np.allclose(dsqrtm(np.diag([4.0, 9.0]), np.eye(2)), np.diag([1 / 4, 1 / 6]))


def test_dsqrtm_matches_central_differences(rng):
    h = 1e-5
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rand_spd(rng, n, spread=1.0)  # condition below ~e^2
        e = rand_sym(rng, n)
        fd = (sqrtm_spd(a + h * e) - sqrtm_spd(a - h * e)) / (2 * h)
        an = dsqrtm(a, e)
        assert np.max(np.abs(fd - an)) <= 1e-6 * max(1.0, np.max(np.abs(an)))


@pytest.mark.parametrize("scale", [None, 1.0, 3.0], ids=["default", "1", "3"])
@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_expm_matches_scipy(n, scale):
    # scipy is the independent reference route; the library itself is numpy-only
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        z = rand_sp_algebra(rng, n, scale).to_matrix()
        want = scipy_expm(z)
        assert np.max(np.abs(expm(z) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_expm_identities(rng, n):
    assert np.array_equal(expm(np.zeros((2 * n, 2 * n))), np.eye(2 * n))
    for scale in (None, 1.0, 3.0):
        z = rand_sp_algebra(rng, n, scale).to_matrix()
        prod = expm(z) @ expm(-z)
        assert np.max(np.abs(prod - np.eye(2 * n))) <= 1e-14 * np.linalg.norm(expm(z), 1) ** 2
