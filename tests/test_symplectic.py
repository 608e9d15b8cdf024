import numpy as np
import pytest
from scipy.linalg import expm

from jacobigeom import (
    BadShape,
    NotSpd,
    NotSymmetric,
    act_modified_chart,
    check_block_relations,
    is_symplectic,
    j_matrix,
    m_point,
    mobius_act,
    modified_pre_iwasawa,
    pre_iwasawa,
    pre_iwasawa_compose,
    sp_basis,
    sp_inverse,
    unitary_iso,
    unitary_iso_inverse,
)
from jacobigeom.sampling import rand_sn_chart, rand_sp_algebra, rand_spd, rand_sym, rand_symplectic
from jacobigeom.symplectic import PreIwasawaFactors, SpAlgebraElement, from_blocks
from jacobigeom.symplectic import pair_to_symplectic


def test_is_symplectic_basics():
    assert is_symplectic(np.eye(4))
    assert is_symplectic(j_matrix(3))  # J itself is symplectic
    assert not is_symplectic(np.diag([2.0, 1.0]))
    with pytest.raises(BadShape):
        is_symplectic(np.eye(3))


def test_sp_inverse():
    assert np.array_equal(sp_inverse(np.eye(4)), np.eye(4))
    j = j_matrix(2)
    assert np.array_equal(sp_inverse(j), -j)


def test_sp_inverse_matches_exponential(rng):
    for n in (1, 2, 3):
        z = rand_sp_algebra(rng, n).to_matrix()
        assert np.max(np.abs(sp_inverse(expm(z)) - expm(-z))) < 1e-12


def test_block_relations_equivalence(rng):
    # half the samples perturbed off the group; verdicts must agree
    for i in range(500):
        n = int(rng.integers(1, 4))
        m = rand_symplectic(rng, n)
        if i % 2:
            m = m + 1e-3 * rng.normal(size=m.shape)
        assert check_block_relations(m, 1e-8) == is_symplectic(m, 1e-8)


def test_closure(rng):
    for n in (1, 2, 3):
        for _ in range(20):
            assert is_symplectic(rand_symplectic(rng, n) @ rand_symplectic(rng, n), 1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_sp_basis(n):
    gens = sp_basis(n)
    assert len(gens) == 2 * n * n + n
    j = j_matrix(n)
    for g in gens:
        z = g.to_matrix()
        assert np.max(np.abs(z.T @ j + j @ z)) == 0.0


@pytest.mark.parametrize("block", ["b", "c"])
def test_sp_algebra_from_matrix_refuses_an_asymmetric_b_or_c(block):
    # the projection once symmetrized b = [[0, 1], [0, 0]] to [[0, .5], [.5, 0]] silently,
    # where JacobiAlgebraElement.from_matrix refused it
    zero, skewed = np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])
    z = from_blocks(zero, skewed, zero, zero) if block == "b" else from_blocks(
        zero, zero, skewed, zero)
    with pytest.raises(BadShape, match="projection residual"):
        SpAlgebraElement.from_matrix(z)


def test_sp_algebra_from_matrix_returns_an_element_as_it_was(rng):
    for n in (1, 2, 5):
        s = rand_sp_algebra(rng, n)
        back = SpAlgebraElement.from_matrix(s.to_matrix())
        for got, want in zip((back.a, back.b, back.c), (s.a, s.b, s.c)):
            assert np.array_equal(got, want)


def test_unitary_iso():
    n = 2
    assert np.array_equal(unitary_iso(np.eye(n), np.zeros((n, n))), np.eye(n))
    th = 0.7
    u = unitary_iso(np.array([[np.cos(th)]]), np.array([[np.sin(th)]]))
    assert np.allclose(u, np.exp(1j * th))


def test_unitary_iso_homomorphism(rng):
    for n in (1, 2, 3):
        f1 = modified_pre_iwasawa(rand_symplectic(rng, n))
        f2 = modified_pre_iwasawa(rand_symplectic(rng, n))
        prod = pair_to_symplectic(f1.X, f1.Y) @ pair_to_symplectic(f2.X, f2.Y)
        x, y = prod[:n, :n], prod[:n, n:]
        lhs = unitary_iso(x, y)
        rhs = unitary_iso(f1.X, f1.Y) @ unitary_iso(f2.X, f2.Y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        back = unitary_iso_inverse(lhs)
        assert np.max(np.abs(back[0] - x)) < 1e-12


def test_mobius_basics(rng):
    n = 2
    v = rand_sym(rng, n) + 1j * rand_spd(rng, n)
    assert np.allclose(mobius_act(np.eye(2 * n), v), v)
    # J fixes iI:  -(iI)^{-1} = iI
    base = 1j * np.eye(n)
    assert np.allclose(mobius_act(j_matrix(n), base), base)


def test_mobius_rejects_non_symmetric_point():
    v = np.array([[1j, 0.5], [0.0, 1j]])
    with pytest.raises(NotSymmetric):
        mobius_act(np.eye(4), v)


def test_mobius_second_form_and_left_action(rng):
    for n in (1, 2, 3):
        m1 = rand_symplectic(rng, n)
        m2 = rand_symplectic(rng, n)
        v = rand_sym(rng, n) + 1j * rand_spd(rng, n)
        a, b, c, d = m1[:n, :n], m1[:n, n:], m1[n:, :n], m1[n:, n:]
        second = np.linalg.solve(v @ c.T + d.T, v @ a.T + b.T)
        assert np.max(np.abs(mobius_act(m1, v) - second)) < 1e-10
        lhs = mobius_act(m1 @ m2, v)
        rhs = mobius_act(m1, mobius_act(m2, v))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_m_point(rng):
    n = 2
    assert np.allclose(m_point(np.zeros((n, n)), np.eye(n)), np.eye(2 * n))
    mp = m_point(np.zeros((n, n)), 4 * np.eye(n))
    assert np.allclose(mp, np.block([[2 * np.eye(n), np.zeros((n, n))],
                                     [np.zeros((n, n)), np.eye(n) / 2]]))
    with pytest.raises(NotSpd):
        m_point(np.zeros((n, n)), -np.eye(n))
    for _ in range(20):
        x = rand_sym(rng, n)
        y = rand_spd(rng, n)
        v = mobius_act(m_point(x, y), 1j * np.eye(n))
        assert np.max(np.abs(v - (x + 1j * y))) < 1e-10


def test_pre_iwasawa_special_points():
    n = 2
    f = pre_iwasawa(np.eye(2 * n))
    assert np.allclose(f.x, 0) and np.allclose(f.y, np.eye(n))
    assert np.allclose(f.X, np.eye(n)) and np.allclose(f.Y, 0)
    # M = J: c = -I, d = 0 gives y = I and X - iY = -iI
    f = pre_iwasawa(j_matrix(n))
    assert np.allclose(f.x, 0) and np.allclose(f.y, np.eye(n))
    assert np.allclose(f.X, 0) and np.allclose(f.Y, np.eye(n))
    f = modified_pre_iwasawa(np.eye(2 * n))
    assert np.allclose(f.y, np.eye(n)) and np.allclose(f.X, np.eye(n))


@pytest.mark.parametrize("variant", ["plain", "modified"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pre_iwasawa_roundtrip(rng, n, variant):
    decompose = pre_iwasawa if variant == "plain" else modified_pre_iwasawa
    for _ in range(200):
        m = rand_symplectic(rng, n)
        f = decompose(m)
        assert np.max(np.abs(pre_iwasawa_compose(f) - m)) < 1e-10


@pytest.mark.parametrize("variant", ["plain", "modified"])
def test_pre_iwasawa_uniqueness(rng, variant):
    # decompose(compose(factors)) returns the factors themselves
    n = 2
    decompose = pre_iwasawa if variant == "plain" else modified_pre_iwasawa
    for _ in range(50):
        base = modified_pre_iwasawa(rand_symplectic(rng, n))
        f = PreIwasawaFactors(base.x, base.y, base.X, base.Y, variant)
        g = decompose(pre_iwasawa_compose(f))
        for name in ("x", "y", "X", "Y"):
            assert np.max(np.abs(getattr(f, name) - getattr(g, name))) < 1e-10


def test_variants_related_by_square(rng):
    for n in (1, 2, 3):
        m = rand_symplectic(rng, n)
        fp = pre_iwasawa(m)
        fm = modified_pre_iwasawa(m)
        assert np.max(np.abs(fm.y - fp.y @ fp.y)) < 1e-12
        assert np.max(np.abs(fm.x - fp.x)) < 1e-12
        assert np.max(np.abs(fm.X - fp.X)) < 1e-12


def test_modified_compose_n1_closed_form(rng):
    # a = y^{1/2} cos t - x y^{-1/2} sin t etc., the classical S-coordinates
    x, y, th = 0.3, 2.0, 0.6
    f = PreIwasawaFactors([[x]], [[y]], [[np.cos(th)]], [[np.sin(th)]], "modified")
    m = pre_iwasawa_compose(f)
    r = np.sqrt(y)
    expected = np.array([
        [r * np.cos(th) - x / r * np.sin(th), r * np.sin(th) + x / r * np.cos(th)],
        [-np.sin(th) / r, np.cos(th) / r],
    ])
    assert np.allclose(m, expected)


def test_act_modified_chart(rng):
    n = 2
    f = modified_pre_iwasawa(rand_symplectic(rng, n))
    chart = (f.x, f.y, f.X, f.Y)
    out = act_modified_chart(np.eye(2 * n), chart)
    for got, want in zip(out, chart):
        assert np.max(np.abs(got - want)) < 1e-12


def test_act_modified_chart_group_law(rng):
    n = 2
    for _ in range(20):
        m1 = rand_symplectic(rng, n)
        m2 = rand_symplectic(rng, n)
        f = modified_pre_iwasawa(rand_symplectic(rng, n))
        chart = (f.x, f.y, f.X, f.Y)
        via_product = act_modified_chart(m1 @ m2, chart)
        stepwise = act_modified_chart(m1, act_modified_chart(m2, chart))
        for got, want in zip(via_product, stepwise):
            assert np.max(np.abs(got - want)) < 1e-9


def test_act_modified_chart_mobius_compatibility(rng):
    for n in (1, 2, 3):
        for _ in range(100):
            m = rand_symplectic(rng, n)
            f = modified_pre_iwasawa(rand_symplectic(rng, n))
            x1, y1, _, _ = act_modified_chart(m, (f.x, f.y, f.X, f.Y))
            v1 = mobius_act(m, f.x + 1j * f.y)
            assert np.max(np.abs(x1 + 1j * y1 - v1)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_act_modified_chart_is_the_factors_of_the_product(n):
    # a second route for all four factors: the modified pre-Iwasawa factors of M times the
    # matrix that the chart composes to
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        m, c = rand_symplectic(rng, n), rand_sn_chart(rng, n)
        chart = (c.x, c.y, c.X, c.Y)
        f = modified_pre_iwasawa(m @ pre_iwasawa_compose(PreIwasawaFactors(*chart, "modified")))
        for got, want in zip(act_modified_chart(m, chart), (f.x, f.y, f.X, f.Y), strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 2, 2), (2, 3, 4, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_from_blocks_is_np_block_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    blks = [rng.standard_normal(shape) * (1 + 1j if dtype is complex else 1) for _ in range(4)]
    got = from_blocks(*blks)
    want = np.block([[blks[0], blks[1]], [blks[2], blks[3]]])
    assert got.shape == shape[:-2] + (2 * shape[-2], 2 * shape[-1])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
