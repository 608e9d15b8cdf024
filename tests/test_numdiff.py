import numpy as np
import pytest

from jacobigeom import NotUnitaryPair
from jacobigeom.numdiff import fd_bracket, fd_curve, sn_chart_curve
from jacobigeom.sampling import rand_sn_chart, rand_sn_tangent
from jacobigeom.symplectic import unitary_pair_residual


def _pair_only(tangent, n):
    # finite t: keep (x, y) fixed so y stays SPD; only (X, Y) moves
    zero = np.zeros((n, n))
    return (zero, zero) + tuple(tangent[2:])


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_sn_chart_curve_stays_unitary_at_finite_t(rng, n):
    from scipy.linalg import expm

    for _ in range(10):
        chart = rand_sn_chart(rng, n)
        t = _pair_only(rand_sn_tangent(rng, chart), n)
        c = sn_chart_curve(chart, t, 0.7)
        assert unitary_pair_residual(c.X, c.Y) <= 1e-13
        u = chart.X + 1j * chart.Y
        want = u @ expm(0.7 * (u.conj().T @ (t[2] + 1j * t[3])))
        assert np.max(np.abs(c.X + 1j * c.Y - want)) <= 1e-13


@pytest.mark.parametrize("step", [0.0, 1e-6, 0.7])
def test_sn_chart_curve_rejects_non_tangent(rng, step):
    n = 2
    chart = rand_sn_chart(rng, n)
    bad = list(_pair_only(rand_sn_tangent(rng, chart), n))
    # (dX + i dY) + 0.1 U adds the Hermitian part 0.1 I to K = U^dagger (dX + i dY)
    bad[2], bad[3] = bad[2] + 0.1 * chart.X, bad[3] + 0.1 * chart.Y
    with pytest.raises(NotUnitaryPair):
        sn_chart_curve(chart, tuple(bad), step)


def test_fd_curve_is_exact_on_a_quadratic(rng):
    # a central difference has no truncation error on a quadratic: only roundoff is left
    a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
    got = fd_curve(lambda t: (a + t * b + t * t * c, 2.0 + 3.0 * t - t * t), 1e-3)
    assert np.max(np.abs(got[0] - b)) <= 1e-12
    assert abs(got[1] - 3.0) <= 1e-12


def _linear_field(m):
    """The field p -> m p on points (x, s), x a 3-vector and s a scalar, as one 4-vector."""
    def field(p):
        v = m @ np.append(p[0], p[1])
        return v[:3], float(v[3])
    return field


def test_fd_bracket_of_linear_fields_is_the_matrix_commutator(rng):
    # V(p) = A p and W(p) = B p: the bracket J(W) V - J(V) W is (B A - A B) p
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    x, s = rng.normal(size=3), float(rng.normal())
    got = fd_bracket(_linear_field(a), _linear_field(b), (x, s))
    want = (b @ a - a @ b) @ np.append(x, s)
    assert np.max(np.abs(np.append(*got) - want)) <= 1e-9 * np.max(np.abs(want))
