import numpy as np
import pytest

from jacobigeom import (
    HeisenbergElement,
    h_compose,
    h_embed,
    h_fvf,
    h_identity,
    h_inverse,
    h_metric,
    h_oneforms,
    is_symplectic,
)
from jacobigeom.numdiff import fd_push
from jacobigeom.sampling import StackStream, rand_heisenberg


def test_compose_substitutions():
    lam = np.array([1.0, 2.0])
    mu = np.array([0.5, -1.0])
    g1 = HeisenbergElement(lam, np.zeros(2), 0.0)
    g2 = HeisenbergElement(np.zeros(2), mu, 0.0)
    out = h_compose(g1, g2)
    assert np.allclose(out.lam, lam) and np.allclose(out.mu, mu)
    assert np.isclose(out.kappa, lam @ mu)
    # reversed order exhibits the non-commutativity
    out = h_compose(g2, g1)
    assert np.isclose(out.kappa, -(mu @ lam))


def test_identity_and_inverse(rng):
    n = 3
    e = h_identity(n)
    for _ in range(10):
        g = rand_heisenberg(rng, n)
        ge = h_compose(g, e)
        assert np.array_equal(ge.lam, g.lam) and np.array_equal(ge.mu, g.mu)
        assert ge.kappa == g.kappa
        gi = h_inverse(g)
        prod = h_compose(g, gi)
        assert np.allclose(prod.lam, 0) and np.allclose(prod.mu, 0)
        assert prod.kappa == 0.0  # cross terms cancel exactly
        # matrix cross-check
        assert np.max(np.abs(h_embed(gi) - np.linalg.inv(h_embed(g)))) < 1e-12


def test_associativity(rng):
    n = 2
    for _ in range(20):
        a, b, c = (rand_heisenberg(rng, n) for _ in range(3))
        left = h_compose(h_compose(a, b), c)
        right = h_compose(a, h_compose(b, c))
        assert np.allclose(left.lam, right.lam)
        assert np.isclose(left.kappa, right.kappa)


def test_embed_homomorphism_and_symplectic(rng):
    for n in (1, 2, 3):
        assert np.array_equal(h_embed(h_identity(n)), np.eye(2 * n + 2))
        for _ in range(30):
            g, h = rand_heisenberg(rng, n), rand_heisenberg(rng, n)
            lhs = h_embed(h_compose(g, h))
            rhs = h_embed(g) @ h_embed(h)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            assert is_symplectic(h_embed(g), 1e-12)


def test_oneforms_at_identity(rng):
    n = 2
    t = (rng.normal(size=n), rng.normal(size=n), rng.normal())
    lp, lq, lr = h_oneforms(h_identity(n), t)
    assert np.allclose(lp, t[0]) and np.allclose(lq, t[1]) and np.isclose(lr, t[2])


def _left_push(h, g, t, step=1e-6):
    """dL_h of tangent t at g by central differences."""
    def left(p):
        out = h_compose(h, HeisenbergElement(*p))
        return out.lam, out.mu, out.kappa
    return fd_push(left, (g.lam, g.mu, g.kappa), t, step)


def test_oneforms_left_invariance(rng):
    n = 2
    for _ in range(20):
        h, g = rand_heisenberg(rng, n), rand_heisenberg(rng, n)
        t = (rng.normal(size=n), rng.normal(size=n), rng.normal())
        a = h_oneforms(g, t)
        # finite-difference pushforward carries ~1e-10 roundoff at step 1e-6
        b = h_oneforms(h_compose(h, g), _left_push(h, g, t))
        for u, v in zip(a, b):
            assert np.max(np.abs(np.asarray(u) - np.asarray(v))) < 1e-8
        # the translation is affine, so the exact pushforward sharpens the bound
        exact = (t[0], t[1], t[2] + float(h.lam @ t[1]) - float(h.mu @ t[0]))
        c = h_oneforms(h_compose(h, g), exact)
        for u, v in zip(a, c):
            assert np.max(np.abs(np.asarray(u) - np.asarray(v))) < 1e-10


def test_oneforms_match_embedded_projection(rng):
    # coefficients of g^{-1} dg on the P/Q/R generators
    n = 2
    for _ in range(20):
        g = rand_heisenberg(rng, n)
        t = (rng.normal(size=n), rng.normal(size=n), rng.normal())
        dg = np.zeros((2 * n + 2, 2 * n + 2))
        dg[n, :n] = t[0]
        dg[:n, 2 * n + 1] = t[1]
        dg[n, n + 1:2 * n + 1] = t[1]
        dg[n, 2 * n + 1] = t[2]
        dg[n + 1:2 * n + 1, 2 * n + 1] = -t[0]
        xi = np.linalg.inv(h_embed(g)) @ dg
        lp, lq, lr = h_oneforms(g, t)
        assert np.max(np.abs(xi[n, :n] - lp)) < 1e-12
        assert np.max(np.abs(xi[n, n + 1:2 * n + 1] - lq)) < 1e-12
        assert abs(xi[n, 2 * n + 1] - lr) < 1e-12


def test_metric_values_and_invariance(rng):
    n = 2
    e = h_identity(n)
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert h_metric(e, (e1, np.zeros(n), 0.0)) == 1.0
    assert h_metric(e, (np.zeros(n), np.zeros(n), 1.0)) == 1.0
    for _ in range(20):
        h, g = rand_heisenberg(rng, n), rand_heisenberg(rng, n)
        t = (rng.normal(size=n), rng.normal(size=n), rng.normal())
        a = h_metric(g, t)
        b = h_metric(h_compose(h, g), _left_push(h, g, t))
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


@pytest.mark.parametrize("n", [1, 3])
def test_h_metric_takes_stacks(n):
    # numpy's matmul ValueError at float(lp @ lp) on a stacked element and tangent
    g = rand_heisenberg(StackStream(3, n, 0, 4), n)
    t = rand_heisenberg(StackStream(4, n, 0, 4), n)
    stacked = h_metric(g, (t.lam, t.mu, t.kappa))
    assert stacked.shape == (4,)
    for i in range(4):
        one = HeisenbergElement(g.lam[i, 0], g.mu[i, 0], g.kappa[i])
        want = h_metric(one, (t.lam[i, 0], t.mu[i, 0], t.kappa[i]))
        assert abs(stacked[i] - want) <= 1e-14 * max(1.0, abs(want))
    # one element against a stack of tangents
    one = HeisenbergElement(g.lam[0, 0], g.mu[0, 0], g.kappa[0])
    assert np.allclose(h_metric(one, (t.lam, t.mu, t.kappa)),
                       [h_metric(one, (t.lam[i, 0], t.mu[i, 0], t.kappa[i])) for i in range(4)],
                       rtol=1e-14, atol=0)


def test_fvf_values(rng):
    n = 2
    g = rand_heisenberg(rng, n)
    dlam, dmu, dk = h_fvf("R", g)
    assert np.allclose(dlam, 0) and np.allclose(dmu, 0) and dk == 1.0
    g0 = HeisenbergElement(np.zeros(n), np.array([1.0, 0.0]), 0.0)
    dlam, dmu, dk = h_fvf(("P", 0), g0)
    assert np.allclose(dlam, [1.0, 0.0]) and dk == 1.0
    # one-form / field pairings
    lp, lq, lr = h_oneforms(g, h_fvf("R", g))
    assert np.allclose(lp, 0) and np.allclose(lq, 0) and np.isclose(lr, 1.0)
    lp, lq, lr = h_oneforms(g, h_fvf(("P", 1), g))
    assert np.isclose(lp[1], 1.0) and np.allclose(lq, 0)
    lp, lq, lr = h_oneforms(g, h_fvf(("Q", 0), g))
    assert np.allclose(lp, 0) and np.isclose(lq[0], 1.0)


@pytest.mark.parametrize("generator", [("P", 2), ("P", 5), ("Q", 2), ("P", -1), ("Q", -2),
                                       ("P", 1.5), ("X", 0)], ids=lambda g: f"{g[0]}{g[1]}")
def test_fvf_refuses_a_generator_outside_the_degree(generator):
    # an index past n, or not an integer, raised IndexError, and a negative one returned
    # the field of index n + idx; an unknown generator was already refused
    with pytest.raises(ValueError):
        h_fvf(generator, h_identity(2))


def _flow(generator, g, t):
    """Exact flow of the FVF: left-translate by the one-parameter subgroup."""
    n = g.n
    lam = np.zeros(n)
    mu = np.zeros(n)
    kap = 0.0
    if generator == "R":
        kap = t
    elif generator[0] == "P":
        lam[generator[1]] = t
    else:
        mu[generator[1]] = t
    return h_compose(HeisenbergElement(lam, mu, kap), g)


def test_fvf_bracket_constants(rng):
    # [P*_p, Q*_q] = -2 delta_pq R* via commutator of flows (one global sign)
    n = 2
    g = rand_heisenberg(rng, n)
    s = 1e-4

    def coords(elem):
        return np.concatenate([elem.lam, elem.mu, [elem.kappa]])

    for p in range(n):
        for q in range(n):
            path = _flow(("Q", q), _flow(("P", p), _flow(("Q", q), _flow(("P", p), g, s), s), -s), -s)
            comm = (coords(path) - coords(g)) / s**2
            expected = np.zeros(2 * n + 1)
            expected[-1] = -2.0 if p == q else 0.0
            assert np.max(np.abs(comm - expected)) < 1e-6
