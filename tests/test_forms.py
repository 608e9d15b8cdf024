import numpy as np
import pytest

from jacobigeom import (
    MetricParams,
    dsqrtm,
    duality_pairing,
    pq_from_lm,
    fvf,
    gj_basis_elements,
    gj_basis_labels,
    gj_compose,
    gj_embed,
    gj_identity,
    invariant_vf,
    maurer_cartan,
    metric_group,
    oneforms_matrix_chart,
    oneforms_n1,
    oneforms_sn,
    sn_chart,
    sn_chart_identity,
    sn_chart_inverse,
)
from jacobigeom import linalg
from jacobigeom.forms import d_sn_chart, d_sn_chart_inverse
from jacobigeom.metrics import _INVARIANCE_SPECS
from jacobigeom.numdiff import fd_curve, fd_push_sn
from jacobigeom.sampling import (
    rand_gj_algebra,
    rand_jacobi,
    rand_pq_point,
    rand_sn_chart,
    rand_sn_tangent,
)
from jacobigeom.symplectic import blocks


def tangent_from_algebra(g, z):
    """Exact matrix-chart tangent of the curve g exp(t z) at t = 0."""
    n = g.n
    demb = gj_embed(g) @ z.to_matrix()
    da = demb[:n, :n]
    db = demb[:n, n + 1:2 * n + 1]
    dc = demb[n + 1:2 * n + 1, :n]
    dd = demb[n + 1:2 * n + 1, n + 1:2 * n + 1]
    dq = demb[:n, 2 * n + 1]
    dp = -demb[n + 1:2 * n + 1, 2 * n + 1]
    dk = demb[n, 2 * n + 1]
    return da, db, dc, dd, dp, dq, dk


def of_tuple(lf):
    return (lf.F, lf.G, lf.H, lf.P, lf.Q, lf.R)


def test_maurer_cartan_indicator_at_identity():
    n = 2
    e = gj_identity(n)
    for z, lbl in zip(gj_basis_elements(n), gj_basis_labels(n)):
        out = maurer_cartan(e, tangent_from_algebra(e, z))
        assert np.max(np.abs(out.coefficients() - z.coefficients())) < 1e-14, lbl


def test_maurer_cartan_exact_curve(rng):
    # along g exp(t z) the left-logarithmic derivative is z itself
    for n in (1, 2):
        for _ in range(25):
            g = rand_jacobi(rng, n)
            z = rand_gj_algebra(rng, n)
            out = maurer_cartan(g, tangent_from_algebra(g, z))
            assert np.max(np.abs(out.coefficients() - z.coefficients())) < 1e-11


def test_maurer_cartan_left_invariance(rng):
    # the same curve seen after left translation gives identical coefficients
    n = 2
    for _ in range(25):
        g, h = rand_jacobi(rng, n), rand_jacobi(rng, n)
        z = rand_gj_algebra(rng, n)
        hg = gj_compose(h, g)
        c1 = maurer_cartan(g, tangent_from_algebra(g, z)).coefficients()
        c2 = maurer_cartan(hg, tangent_from_algebra(hg, z)).coefficients()
        assert np.max(np.abs(c1 - c2)) < 1e-11


def test_oneforms_matrix_chart_examples(rng):
    n = 2
    e = gj_identity(n)
    elems = dict(zip(gj_basis_labels(n), gj_basis_elements(n)))
    lf = oneforms_matrix_chart(e, tangent_from_algebra(e, elems["F11"]))
    e11 = np.zeros((n, n))
    e11[0, 0] = 1.0
    assert np.array_equal(lf.F, e11)
    for other in (lf.G, lf.H, lf.P, lf.Q):
        assert np.max(np.abs(other)) == 0.0
    assert lf.R == 0.0
    # R on a (p, q, kappa)-only tangent
    g = rand_jacobi(rng, n)
    zeros = np.zeros((n, n))
    dp, dq, dk = rng.normal(size=n), rng.normal(size=n), rng.normal()
    lf = oneforms_matrix_chart(g, (zeros, zeros, zeros, zeros, dp, dq, dk))
    p, q = pq_from_lm(g.lam, g.mu, g.M)
    assert abs(lf.R - (dk - p @ dq + q @ dp)) < 1e-12


def test_oneforms_alternate_p_form(rng):
    # P also equals d lambda - p da - q dc
    n = 2
    for _ in range(20):
        g = rand_jacobi(rng, n)
        z = rand_gj_algebra(rng, n)
        t = tangent_from_algebra(g, z)
        da, db, dc, dd, dp, dq, dk = t
        p, q = pq_from_lm(g.lam, g.mu, g.M)
        dlam = dp @ blocks(g.M)[0] + p @ da + dq @ blocks(g.M)[2] + q @ dc
        lf = oneforms_matrix_chart(g, t)
        assert np.max(np.abs(lf.P - (dlam - p @ da - q @ dc))) < 1e-12


def test_oneforms_agree_with_maurer_cartan(rng):
    for n in (1, 2):
        for _ in range(100):
            g = rand_jacobi(rng, n)
            z = rand_gj_algebra(rng, n)
            t = tangent_from_algebra(g, z)
            mc = maurer_cartan(g, t)
            lf = oneforms_matrix_chart(g, t)
            assert np.max(np.abs(lf.F - mc.b)) < 1e-10
            assert np.max(np.abs(lf.G - mc.c)) < 1e-10
            assert np.max(np.abs(lf.H - mc.a)) < 1e-10
            assert np.max(np.abs(lf.P - mc.p)) < 1e-10
            assert np.max(np.abs(lf.Q - mc.q)) < 1e-10
            assert abs(lf.R - mc.r) < 1e-10


def test_oneforms_sn_base_point_regression(rng):
    n = 2
    chart = sn_chart_identity(n)
    dx = np.array([[0.7, -0.2], [-0.2, 1.1]])
    zeros = np.zeros((n, n))
    zrow = np.zeros(n)
    lf = oneforms_sn(chart, (dx, zeros, zeros, zeros, zrow, zrow, 0.0))
    assert np.allclose(lf.F, dx)  # X^t C X with y = I
    for other in (lf.G, lf.H, lf.P, lf.Q):
        assert np.max(np.abs(other)) < 1e-14
    assert lf.R == 0.0


def test_oneforms_sn_r_sees_only_heisenberg_directions(rng):
    n = 2
    for _ in range(10):
        chart = rand_sn_chart(rng, n)
        dx, dy, dX, dY, dp, dq, dk = rand_sn_tangent(rng, chart)
        full = oneforms_sn(chart, (dx, dy, dX, dY, dp, dq, dk))
        heis = oneforms_sn(chart, (0 * dx, 0 * dy, 0 * dX, 0 * dY, dp, dq, dk))
        assert abs(full.R - heis.R) < 1e-14
        assert abs(heis.R - (dk - dq @ chart.p + dp @ chart.q)) < 1e-12


def test_oneforms_sn_symmetry_of_f_and_g(rng):
    for n in (1, 2, 3):
        for _ in range(20):
            chart = rand_sn_chart(rng, n)
            lf = oneforms_sn(chart, rand_sn_tangent(rng, chart))
            assert np.max(np.abs(lf.F - lf.F.T)) < 1e-10
            assert np.max(np.abs(lf.G - lf.G.T)) < 1e-10


def test_oneforms_sn_matches_matrix_chart_analytically(rng):
    for n in (1, 2, 3):
        for _ in range(30):
            chart = rand_sn_chart(rng, n)
            t = rand_sn_tangent(rng, chart)
            g = sn_chart_inverse(chart)
            via_matrix = of_tuple(oneforms_matrix_chart(g, d_sn_chart_inverse(chart, t)))
            direct = of_tuple(oneforms_sn(chart, t))
            for a, b in zip(direct, via_matrix):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12


def test_oneforms_sn_left_invariance(rng):
    n = 2
    for _ in range(20):
        h = rand_jacobi(rng, n)
        chart = rand_sn_chart(rng, n)
        t = rand_sn_tangent(rng, chart)

        def act(c):
            return sn_chart(gj_compose(h, sn_chart_inverse(c)))

        pushed = fd_push_sn(act, chart, t)
        a = of_tuple(oneforms_sn(chart, t))
        b = of_tuple(oneforms_sn(act(chart), pushed))
        for u, v in zip(a, b):
            assert np.max(np.abs(np.asarray(u) - np.asarray(v))) < 1e-8


def _rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_each_oneform_family_is_invariant_under_the_exact_push(n):
    # the paper's claim family by family, not only through metric_group's weighted
    # sum, where errors of different families could cancel
    rng = np.random.default_rng(500 + n)
    for _ in range(40 if n < 10 else 10):
        act, push, chart, t1, t2 = _INVARIANCE_SPECS["metric_group"].draw(rng, n)
        image = act(chart)
        for t in (t1, t2):
            before, after = oneforms_sn(chart, t), oneforms_sn(image, push(chart, image, t))
            for family in ("F", "G", "H", "P", "Q", "R"):
                err = _rel(getattr(after, family), getattr(before, family))
                assert err <= 1e-12, (family, err)


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_d_sn_chart_inverts_d_sn_chart_inverse(rng, n):
    for _ in range(20):
        chart = rand_sn_chart(rng, n)
        g = sn_chart_inverse(chart)
        t = rand_sn_tangent(rng, chart)
        back = d_sn_chart(g, d_sn_chart_inverse(chart, t))
        assert max(_rel(b, a) for a, b in zip(t, back)) <= 1e-12
        dm = tangent_from_algebra(g, rand_gj_algebra(rng, n))
        again = d_sn_chart_inverse(chart, d_sn_chart(g, dm))
        assert max(_rel(b, a) for a, b in zip(dm, again)) <= 1e-12


def test_maurer_cartan_sn_route(rng):
    n = 2
    chart = rand_sn_chart(rng, n)
    t = rand_sn_tangent(rng, chart)
    mc = maurer_cartan(chart, t, chart="sn")
    lf = oneforms_sn(chart, t)
    assert np.max(np.abs(mc.b - lf.F)) < 1e-11
    assert np.max(np.abs(mc.a - lf.H)) < 1e-11


class _KroneckerCalled(Exception):
    pass


def _kronecker_called(*args):
    raise _KroneckerCalled


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sn_chart_routes_skip_the_kronecker_solve(rng, n):
    # the S_n-chart callers take ds from the eigenbasis frame; the public dsqrtm
    # stays on the Kronecker route, restricted to symmetric X by _sym_kron, so the
    # two stay independent of each other
    chart = rand_sn_chart(rng, n)
    t = rand_sn_tangent(rng, chart)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("sylvester_solve", "kron_sum", "_sym_kron"):
            mp.setattr(linalg, name, _kronecker_called)
        oneforms_sn(chart, t)
        d_sn_chart_inverse(chart, t)
        maurer_cartan(chart, t, chart="sn")
        metric_group(MetricParams(), chart, t, t)
        with pytest.raises(_KroneckerCalled):
            dsqrtm(chart.y, t[1])


def test_oneforms_n1_capa_values():
    # theta = 0, dx-only: F = dx / y, G = 0, H = 0
    y = 2.5
    f, g, h, p, q, r = oneforms_n1(0.4, y, 0.0, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert np.isclose(f[0, 0], 1.0 / y)
    assert g[0, 0] == 0.0 and h[0, 0] == 0.0
    # F - G = dx / y + 2 dtheta at any angle
    th, dx, dth = 0.8, 0.3, -0.6
    f, g, *_ = oneforms_n1(0.1, y, th, (dx, 0.0, dth, 0.0, 0.0, 0.0))
    assert np.isclose(f[0, 0] - g[0, 0], dx / y + 2 * dth)


def test_oneforms_n1_matches_general(rng):
    for _ in range(100):
        chart = rand_sn_chart(rng, 1)
        t = rand_sn_tangent(rng, chart)
        dth = float(chart.X[0, 0] * t[3][0, 0] - chart.Y[0, 0] * t[2][0, 0])
        a = of_tuple(oneforms_sn(chart, t))
        b = oneforms_n1(chart.x[0, 0], chart.y[0, 0], chart.theta(),
                        (t[0][0, 0], t[1][0, 0], dth, t[4][0], t[5][0], t[6]),
                        p=chart.p[0], q=chart.q[0])
        for u, v in zip(a, b):
            assert np.max(np.abs(np.asarray(u) - np.asarray(v))) < 1e-10


def test_invariant_vf_duality(rng):
    # <F|L^F> = d^t a - b^t c = I by the block relations, and the full
    # 6 x 6 table is identity blocks
    for n in (1, 2):
        for _ in range(50):
            g = rand_jacobi(rng, n)
            a, b, c, d = blocks(g.M)
            fields = invariant_vf(g)
            pair_ff = d.T @ fields["F"]["db"] - b.T @ fields["F"]["dd"]
            assert np.max(np.abs(pair_ff - np.eye(n))) < 1e-9
            table = duality_pairing(g)
            for (al, be), blk in table.items():
                blk = np.atleast_2d(np.asarray(blk, dtype=float))
                if al == be:
                    want = np.eye(blk.shape[0]) if blk.shape[0] == blk.shape[1] else 1.0
                    assert np.max(np.abs(blk - want)) < 1e-9, (al, be)
                else:
                    assert np.max(np.abs(blk)) < 1e-9, (al, be)


def test_fvf_trivial_values(rng):
    n = 2
    pt = rand_pq_point(rng, n)
    labels = gj_basis_labels(n)
    elems = dict(zip(labels, gj_basis_elements(n)))
    out = fvf(elems["R"], pt, "xjn_pq")
    assert all(np.max(np.abs(np.asarray(c))) == 0.0 for c in out)
    out = fvf(elems["Q2"], pt, "xjn_pq")
    assert np.max(np.abs(out[0])) == 0.0 and np.max(np.abs(out[1])) == 0.0
    assert np.max(np.abs(out[2])) == 0.0
    assert np.array_equal(out[3], [0.0, 1.0])
    out = fvf(elems["R"], pt + (0.5,), "extended_pq")
    assert out[4] == 1.0 and np.max(np.abs(out[2])) == 0.0


def test_fvf_matches_action_derivative(rng):
    from scipy.linalg import expm

    from jacobigeom import act_extended, act_pq, act_xjn, chart_convert
    from jacobigeom.jacobi import gj_from_embedding

    h = 1e-6
    for n in (1, 2):
        for _ in range(10):
            z = rand_gj_algebra(rng, n, scale=0.5)
            pt4 = rand_pq_point(rng, n)
            kap = float(rng.uniform(-1, 1))

            def act_pq_t(t):
                return act_pq(gj_from_embedding(expm(t * z.to_matrix())), pt4)

            fd = fd_curve(act_pq_t, h)
            an = fvf(z, pt4, "xjn_pq")
            for a, b in zip(fd, an):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-7

            vu = chart_convert(pt4, "pq", "vu")

            def act_vu_t(t):
                return act_xjn(gj_from_embedding(expm(t * z.to_matrix())), vu)

            fd = fd_curve(act_vu_t, h)
            an = fvf(z, vu, "xjn_holo")
            for a, b in zip(fd, an):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-7

            ept = pt4 + (kap,)

            def act_ext_t(t):
                return act_extended(gj_from_embedding(expm(t * z.to_matrix())), ept)

            fd = fd_curve(act_ext_t, h)
            an = fvf(z, ept, "extended_pq")
            for a, b in zip(fd, an):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-7

            xr = chart_convert(pt4, "pq", "xirho")

            def act_xr_t(t, with_kappa=False):
                g = gj_from_embedding(expm(t * z.to_matrix()))
                moved = act_extended(g, pt4 + (kap,))
                out = chart_convert(moved[:4], "pq", "xirho")
                return out + (moved[4],) if with_kappa else out

            fd = fd_curve(act_xr_t, h)
            an = fvf(z, xr, "xjn_real_xirho")
            for a, b in zip(fd, an):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-7
            fd = fd_curve(lambda t: act_xr_t(t, True), h)
            an = fvf(z, xr + (kap,), "extended_xirho")
            for a, b in zip(fd, an):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-7


def test_tangents_satisfy_symplectic_linearization(rng):
    from jacobigeom.forms import check_matrix_tangent

    n = 2
    for _ in range(20):
        g = rand_jacobi(rng, n)
        z = rand_gj_algebra(rng, n)
        check_matrix_tangent(g, tangent_from_algebra(g, z))  # must not raise
    g = rand_jacobi(rng, n)
    bad = list(tangent_from_algebra(g, rand_gj_algebra(rng, n)))
    bad[0] = bad[0] + 0.1
    from jacobigeom.exceptions import NotSymplectic

    with pytest.raises(NotSymplectic):
        check_matrix_tangent(g, tuple(bad))


def test_h_family_asymmetry_is_reported(rng):
    # H is a full n x n family; its asymmetry is measured, not asserted
    n = 2
    seen = []
    for _ in range(20):
        chart = rand_sn_chart(rng, n)
        lf = oneforms_sn(chart, rand_sn_tangent(rng, chart))
        seen.append(lf.h_asymmetry())
    assert max(seen) > 1e-6  # generically asymmetric
