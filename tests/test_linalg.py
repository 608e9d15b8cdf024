import numpy as np
import pytest

from jacobigeom import (
    BadShape,
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
from jacobigeom import linalg
from jacobigeom.linalg import _root_frame, _sqrt_frame, _sym_kron, _sym_kron_tables, expm
from jacobigeom.linalg import symmetrize, unvech
from jacobigeom.sampling import rand_sp_algebra, rand_spd, rand_sym


def test_kron_sum_identity_and_eigenvalues():
    n = 3
    assert np.allclose(kron_sum(np.eye(n), np.eye(n)), 2 * np.eye(n * n))
    # eigenvalues are pairwise sums: diag(1,2) (+) diag(3,4) -> {4,5,5,6}
    ks = kron_sum(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(sorted(np.linalg.eigvals(ks).real), [4, 5, 5, 6])
    a = np.arange(4.0).reshape(2, 2)
    assert np.allclose(kron_sum(a, np.zeros((3, 3))), np.kron(a, np.eye(3)))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_kron_sum_is_the_two_kronecker_products_entry_for_entry(n, m):
    rng = np.random.default_rng(100 * n + m)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    assert np.array_equal(kron_sum(a, b), np.kron(a, np.eye(m)) + np.kron(np.eye(n), b))


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


def test_the_vech_calculus_is_its_loop_definition():
    # D_n and L_n gathered from the one index table of vech, bit for bit the per-entry loops
    # over the lower triangle, column by column, that built them
    for n in range(11):
        lower = [(i, j) for j in range(n) for i in range(j, n)]
        d, ell = np.zeros((n * n, len(lower))), np.zeros((len(lower), n * n))
        for k, (i, j) in enumerate(lower):
            d[j * n + i, k] = d[i * n + j, k] = ell[k, j * n + i] = 1.0
        for got, want in ((duplication_matrix(n), d), (elimination_matrix(n), ell)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.shape == want.shape
        a = np.arange(n * n, dtype=float).reshape(n, n)
        a += a.T
        assert n == 0 or vech(a).tolist() == [a[i, j] for i, j in lower]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_vec_vech_roundtrips(rng, n):
    a = rand_sym(rng, n)
    lower = [a[i, j] for j in range(n) for i in range(j, n)]  # column by column
    assert np.array_equal(vech(a), lower) and np.array_equal(unvech(lower, n), a)
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


@pytest.mark.parametrize("n", range(1, 11))
def test_dsqrtm_operator_is_the_appendix_restriction(n):
    # L_n (S (+) S) D_n, gathered from S, is the product of the appendix's matrices bit for bit
    rng = np.random.default_rng(400 + n)
    for _ in range(20):
        s = sqrtm_spd(rand_spd(rng, n))
        want = elimination_matrix(n) @ kron_sum(s, s) @ duplication_matrix(n)
        assert np.array_equal(_sym_kron(s), want)
    for table in _sym_kron_tables(n):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def test_dsqrtm_takes_a_stack_and_gates_each_matrix(monkeypatch):
    rng = np.random.default_rng(7)
    a = np.array([rand_spd(rng, 3) for _ in range(4)])
    da = np.array([rand_sym(rng, 3) for _ in range(4)])
    for i in range(4):
        assert np.array_equal(dsqrtm(a, da)[i], dsqrtm(a[i], da[i]))
        assert np.array_equal(dsqrtm(a[i][None], da[i][None])[0], dsqrtm(a[i], da[i]))
    # one direction against a stack of points; and the residual of da = 0 is 0, within a bound
    # of 0 where the residual of the next matrix's roundoff is not
    assert np.array_equal(dsqrtm(a, da[0])[2], dsqrtm(a[2], da[0]))
    da[0] = 0.0
    monkeypatch.setattr(linalg, "SYLVESTER_RTOL", 0.0)
    with pytest.raises(SingularSylvester, match=r"^Sylvester residual .* at stack index 1$"):
        dsqrtm(a, da)


def _spd_with_cond(rng, n, cond):
    """Random SPD matrix with eigenvalues cond^-t, t in [0, 1]; both ends are taken when n > 1."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    t = rng.uniform(size=n)
    if n > 1:
        t[:2] = 0.0, 1.0
    return symmetrize((q * cond ** -t) @ q.T)


@pytest.mark.parametrize("cond,bound", [(1.0, 1e-13), (1e4, 1e-13), (1e8, 1e-11)],
                         ids=["cond1", "cond1e4", "cond1e8"])
@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_sqrt_frame_matches_sylvester_routes(n, cond, bound):
    # the eigenbasis quotient of the frame against the two Sylvester solves:
    # the library's Kronecker route (dsqrtm) and scipy's Bartels-Stewart
    from scipy.linalg import solve_sylvester

    rng = np.random.default_rng(200 + n)
    for _ in range(100):
        y = _spd_with_cond(rng, n, cond)
        dy = rand_sym(rng, n)
        s, si, ds = _sqrt_frame(_root_frame(np.linalg.eigh(symmetrize(y))), dy)
        assert np.array_equal(s, sqrtm_spd(y))
        assert np.max(np.abs(s @ si - np.eye(n))) <= 1e-13 * np.sqrt(cond)
        for ref in (dsqrtm(y, dy), solve_sylvester(s, s, dy)):
            assert np.max(np.abs(ds - ref)) <= bound * max(1.0, np.max(np.abs(ref)))


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


def _expm_reference(a):
    """expm's scaling and squaring as first written, with its 1-norm from ``np.linalg.norm``, its
    division by exp2(s) and its b_7 factor whatever s is: the kernel keeps its bits."""
    a = np.asarray(a, dtype=float)
    s = np.maximum(0, np.frexp(np.linalg.norm(a, 1, axis=(-2, -1)) / linalg._THETA7)[1])
    a = a / np.exp2(s)[..., None, None]
    b = linalg._PADE7
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(a.shape[-1])
    u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s))):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


@pytest.mark.parametrize("scale", [None, 1.0, 3.0], ids=["default", "1", "3"])
@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_expm_is_its_reference_formula(n, scale):
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        z = rand_sp_algebra(rng, n, scale).to_matrix()
        assert np.array_equal(expm(z), _expm_reference(z))
        # 1-norms 0.5 and 3: a stack of an unscaled (s = 0) and a scaled (s = 2) matrix
        unit = z / np.linalg.norm(z, 1)
        stack = np.array([z, 0.5 * unit, 3.0 * unit])
        got = expm(stack)
        assert np.array_equal(got, _expm_reference(stack))
        for one, matrix in zip(got, stack):
            assert np.array_equal(one, _expm_reference(matrix))
    with pytest.raises(BadShape):
        expm(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_expm_identities(rng, n):
    assert np.array_equal(expm(np.zeros((2 * n, 2 * n))), np.eye(2 * n))
    for scale in (None, 1.0, 3.0):
        z = rand_sp_algebra(rng, n, scale).to_matrix()
        prod = expm(z) @ expm(-z)
        assert np.max(np.abs(prod - np.eye(2 * n))) <= 1e-14 * np.linalg.norm(expm(z), 1) ** 2
