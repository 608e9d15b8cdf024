import numpy as np
import pytest

from jacobigeom import (
    BadShape,
    JacobiElement,
    SnChart,
    act_extended,
    act_pq,
    act_xjn,
    chart_convert,
    commutator_table,
    gj_basis,
    gj_basis_elements,
    gj_basis_labels,
    gj_bracket,
    gj_compose,
    gj_embed,
    gj_from_embedding,
    gj_identity,
    gj_inverse,
    h_compose,
    is_symplectic,
    j_matrix,
    lm_from_pq,
    modified_pre_iwasawa,
    pq_from_lm,
    pre_iwasawa,
    pre_iwasawa_compose,
    sn_chart,
    sn_chart_identity,
    sn_chart_inverse,
)
from jacobigeom.sampling import (
    rand_heisenberg,
    rand_jacobi,
    rand_pq_point,
    rand_symplectic,
    rand_vu_point,
)
from jacobigeom.symplectic import unitary_pair_residual


@pytest.mark.parametrize("part", ["lam", "mu", "kappa"])
def test_element_rejects_non_finite_heisenberg_part(part):
    parts = {"lam": np.zeros(1), "mu": np.zeros(1), "kappa": 0.0}
    parts[part] = np.inf if part == "kappa" else np.array([np.nan])
    with pytest.raises(BadShape):
        JacobiElement(np.eye(2), **parts)


@pytest.mark.parametrize("heis", [
    {"p": [np.nan, 0.0]}, {"q": [0.0, np.inf]}, {"kappa": np.inf},
    {"p": np.zeros(3)}, {"p": np.zeros(3), "q": np.zeros(3)},
], ids=["p-nan", "q-inf", "kappa-inf", "p-length-3", "pq-length-3"])
def test_sn_chart_validates_its_heisenberg_part(heis):
    # (p, q, kappa) enters through HeisenbergElement and must have length n = 2;
    # before, a NaN reached oneforms_sn and sn_chart_inverse's trusted element,
    # and a wrong length ended in numpy's matmul ValueError
    parts = {"p": np.zeros(2), "q": np.zeros(2), "kappa": 0.0, **heis}
    with pytest.raises(BadShape):
        SnChart(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)), **parts)


def _pure_heisenberg(h):
    n = h.n
    return JacobiElement(np.eye(2 * n), h.lam, h.mu, h.kappa)


def _pure_symplectic(m):
    n = m.shape[0] // 2
    return JacobiElement(m, np.zeros(n), np.zeros(n), 0.0)


def test_compose_reductions(rng):
    n = 2
    h1, h2 = rand_heisenberg(rng, n), rand_heisenberg(rng, n)
    out = gj_compose(_pure_heisenberg(h1), _pure_heisenberg(h2))
    want = h_compose(h1, h2)
    assert np.allclose(out.lam, want.lam) and np.allclose(out.mu, want.mu)
    assert np.isclose(out.kappa, want.kappa)
    m1, m2 = rand_symplectic(rng, n), rand_symplectic(rng, n)
    out = gj_compose(_pure_symplectic(m1), _pure_symplectic(m2))
    assert np.allclose(out.M, m1 @ m2)
    assert np.allclose(out.lam, 0) and out.kappa == 0.0


def test_associativity_and_identity(rng):
    n = 2
    e = gj_identity(n)
    for _ in range(10):
        a, b, c = (rand_jacobi(rng, n) for _ in range(3))
        left = gj_compose(gj_compose(a, b), c)
        right = gj_compose(a, gj_compose(b, c))
        assert np.max(np.abs(left.M - right.M)) < 1e-12
        assert np.max(np.abs(left.lam - right.lam)) < 1e-12
        assert abs(left.kappa - right.kappa) < 1e-12
        ae = gj_compose(a, e)
        assert np.max(np.abs(ae.M - a.M)) < 1e-15 and abs(ae.kappa - a.kappa) < 1e-15


def test_inverse(rng):
    n = 2
    for _ in range(20):
        g = rand_jacobi(rng, n)
        prod = gj_compose(g, gj_inverse(g))
        assert np.max(np.abs(prod.M - np.eye(2 * n))) < 1e-10
        assert np.max(np.abs(prod.lam)) < 1e-10 and np.max(np.abs(prod.mu)) < 1e-10
        assert abs(prod.kappa) < 1e-10
    h = rand_heisenberg(rng, n)
    gi = gj_inverse(_pure_heisenberg(h))
    assert np.allclose(gi.lam, -h.lam) and np.allclose(gi.mu, -h.mu)
    assert gi.kappa == -h.kappa


def test_embedding(rng):
    assert np.array_equal(gj_embed(gj_identity(2)), np.eye(6))
    for n in (1, 2, 3):
        for _ in range(100):
            g = rand_jacobi(rng, n)
            emb = gj_embed(g)
            assert is_symplectic(emb, 1e-9)
            inv = gj_embed(gj_inverse(g))
            assert np.max(np.abs(inv - np.linalg.inv(emb))) < 1e-10
            back = gj_from_embedding(emb)
            assert np.max(np.abs(back.M - g.M)) < 1e-12


def test_embed_homomorphism(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            g, h = rand_jacobi(rng, n), rand_jacobi(rng, n)
            lhs = gj_embed(gj_compose(g, h))
            rhs = gj_embed(g) @ gj_embed(h)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n,count", [(1, 6), (2, 15), (3, 28)])
def test_basis_counts_and_algebra_membership(n, count):
    basis = gj_basis(n)
    assert len(basis) == count == len(gj_basis_labels(n))
    j = j_matrix(n + 1)
    for z in basis:
        assert np.max(np.abs(z.T @ j + j @ z)) == 0.0


def test_bracket_examples():
    n = 2
    elems = dict(zip(gj_basis_labels(n), gj_basis_elements(n)))
    out = gj_bracket(elems["P1"], elems["Q1"])
    want = 2.0 * elems["R"].to_matrix()
    assert np.array_equal(out.to_matrix(), want)
    out = gj_bracket(elems["P1"], elems["Q2"])
    assert np.max(np.abs(out.to_matrix())) == 0.0


def test_commutator_table_matches_closed_forms():
    # the expected table is easier to state through the element algebra:
    # build each bracket from the closed-form right-hand sides and compare
    for n in (1, 2, 3):
        labels, table = commutator_table(n)
        elems = gj_basis_elements(n)
        idx = {lbl: k for k, lbl in enumerate(labels)}

        def as_vec(pairs, dim):
            out = np.zeros(dim)
            for lbl, coeff in pairs:
                out[idx[lbl]] += coeff
            return out

        def d(a, b):
            return 1.0 if a == b else 0.0

        def fl(i, j):
            return f"F{min(i, j) + 1}{max(i, j) + 1}"

        def gl(i, j):
            return f"G{min(i, j) + 1}{max(i, j) + 1}"

        def hl(i, j):
            return f"H{i + 1}{j + 1}"

        dim = len(labels)
        rng_n = range(n)
        checked = 0
        for k in rng_n:
            for l in rng_n:
                for i in rng_n:
                    for j in rng_n:
                        if i <= j:
                            # [H_kl, F_ij] and [G_ij, H_kl]
                            want = as_vec([(fl(i, k), d(l, j)), (fl(k, j), d(l, i))], dim)
                            got = table[idx[hl(k, l)], idx[fl(i, j)]]
                            assert np.array_equal(got, want)
                            want = as_vec([(gl(l, j), d(k, i)), (gl(l, i), d(k, j))], dim)
                            got = table[idx[gl(i, j)], idx[hl(k, l)]]
                            assert np.array_equal(got, want)
                            checked += 2
                        if i <= j and k <= l:
                            # 4 [F_ij, G_kl] closes on H with the verified index order
                            want = as_vec([(hl(j, k), 0.25 * d(l, i)), (hl(i, k), 0.25 * d(j, l)),
                                           (hl(i, l), 0.25 * d(j, k)), (hl(j, l), 0.25 * d(i, k))], dim)
                            got = table[idx[fl(i, j)], idx[gl(k, l)]]
                            assert np.array_equal(got, want)
                            checked += 1
        for pp in rng_n:
            for qq in rng_n:
                want = as_vec([("R", 2.0 * d(pp, qq))], dim)
                assert np.array_equal(table[idx[f"P{pp + 1}"], idx[f"Q{qq + 1}"]], want)
                checked += 1
            for i in rng_n:
                for j in rng_n:
                    if i <= j:
                        want = as_vec([(f"Q{j + 1}", 0.5 * d(pp, i)),
                                       (f"Q{i + 1}", 0.5 * d(pp, j))], dim)
                        assert np.array_equal(table[idx[f"P{pp + 1}"], idx[fl(i, j)]], want)
                        want = as_vec([(f"P{j + 1}", 0.5 * d(i, pp)),
                                       (f"P{i + 1}", 0.5 * d(j, pp))], dim)
                        assert np.array_equal(table[idx[f"Q{pp + 1}"], idx[gl(i, j)]], want)
                        checked += 2
                    want = as_vec([(f"P{j + 1}", d(pp, i))], dim)
                    assert np.array_equal(table[idx[f"P{pp + 1}"], idx[hl(i, j)]], want)
                    want = as_vec([(f"Q{i + 1}", d(j, pp))], dim)
                    assert np.array_equal(table[idx[hl(i, j)], idx[f"Q{pp + 1}"]], want)
                    checked += 2
        assert checked > 0


def test_pq_conversions(rng):
    n = 2
    lam, mu = rng.normal(size=n), rng.normal(size=n)
    p, q = pq_from_lm(lam, mu, np.eye(2 * n))
    assert np.array_equal(p, lam) and np.array_equal(q, mu)
    # M = J at n = 1: (p, q) = (lambda, mu) J^{-1} = (mu, -lambda)
    p, q = pq_from_lm([2.0], [3.0], j_matrix(1))
    assert np.allclose(p, [3.0]) and np.allclose(q, [-2.0])
    for _ in range(20):
        m = rand_symplectic(rng, n)
        lam, mu = rng.normal(size=n), rng.normal(size=n)
        p, q = pq_from_lm(lam, mu, m)
        direct = np.concatenate([lam, mu]) @ np.linalg.inv(m)
        assert np.max(np.abs(np.concatenate([p, q]) - direct)) < 1e-12
        lam2, mu2 = lm_from_pq(p, q, m)
        assert np.max(np.abs(lam2 - lam)) < 1e-12 and np.max(np.abs(mu2 - mu)) < 1e-12


def test_act_xjn(rng):
    n = 2
    v, u = rand_vu_point(rng, n)
    v1, u1 = act_xjn(gj_identity(n), (v, u))
    assert np.max(np.abs(v1 - v)) < 1e-14 and np.max(np.abs(u1 - u)) < 1e-14
    h = rand_heisenberg(rng, n)
    v1, u1 = act_xjn(_pure_heisenberg(h), (v, u))
    assert np.max(np.abs(v1 - v)) < 1e-14
    assert np.max(np.abs(u1 - (u + h.lam @ v + h.mu))) < 1e-14


def test_act_left_action_laws(rng):
    n = 2
    for _ in range(30):
        g1, g2 = rand_jacobi(rng, n), rand_jacobi(rng, n)
        v, u = rand_vu_point(rng, n)
        a = act_xjn(gj_compose(g1, g2), (v, u))
        b = act_xjn(g1, act_xjn(g2, (v, u)))
        assert all(np.max(np.abs(x - y)) < 1e-9 for x, y in zip(a, b))
        pt = rand_pq_point(rng, n)
        a = act_pq(gj_compose(g1, g2), pt)
        b = act_pq(g1, act_pq(g2, pt))
        assert all(np.max(np.abs(np.asarray(x) - np.asarray(y))) < 1e-9 for x, y in zip(a, b))
        ept = pt + (float(rng.uniform(-1, 1)),)
        a = act_extended(gj_compose(g1, g2), ept)
        b = act_extended(g1, act_extended(g2, ept))
        assert all(np.max(np.abs(np.asarray(x) - np.asarray(y))) < 1e-9 for x, y in zip(a, b))


def test_act_pq_consistent_with_act_xjn(rng):
    # the chart map u = p v + q intertwines the two actions
    n = 2
    for _ in range(100):
        g = rand_jacobi(rng, n)
        pt = rand_pq_point(rng, n)
        moved = act_pq(g, pt)
        v1, u1 = act_xjn(g, chart_convert(pt, "pq", "vu"))
        v2, u2 = chart_convert(moved, "pq", "vu")
        assert np.max(np.abs(v1 - v2)) < 1e-9
        assert np.max(np.abs(u1 - u2)) < 1e-9


def test_act_pq_pure_heisenberg(rng):
    n = 2
    h = rand_heisenberg(rng, n)
    x, y, p, q = rand_pq_point(rng, n)
    x1, y1, p1, q1 = act_pq(_pure_heisenberg(h), (x, y, p, q))
    assert np.max(np.abs(x1 - x)) < 1e-14 and np.max(np.abs(y1 - y)) < 1e-14
    assert np.allclose(p1, p + h.lam) and np.allclose(q1, q + h.mu)


def test_extended_center_translation_commutes(rng):
    n = 2
    shift = JacobiElement(np.eye(2 * n), np.zeros(n), np.zeros(n), 0.77)
    g = rand_jacobi(rng, n)
    pt = rand_pq_point(rng, n) + (0.3,)
    a = act_extended(gj_compose(shift, g), pt)
    b = act_extended(gj_compose(g, shift), pt)
    assert all(np.max(np.abs(np.asarray(x) - np.asarray(y))) < 1e-10 for x, y in zip(a, b))


def test_sn_chart_roundtrip(rng):
    n = 2
    e = sn_chart(gj_identity(n))
    ident = sn_chart_identity(n)
    assert np.allclose(e.x, ident.x) and np.allclose(e.y, ident.y)
    assert np.allclose(e.X, ident.X) and np.allclose(e.p, 0) and e.kappa == 0.0
    for _ in range(50):
        g = rand_jacobi(rng, n)
        g2 = sn_chart_inverse(sn_chart(g))
        assert np.max(np.abs(g.M - g2.M)) < 1e-10
        assert np.max(np.abs(g.lam - g2.lam)) < 1e-10
        assert np.max(np.abs(g.mu - g2.mu)) < 1e-10
        assert abs(g.kappa - g2.kappa) < 1e-12


def test_accepted_ill_conditioned_input_is_not_rejected_later():
    # n = 10 at scale 3 reaches cond(M) ~ 1e7; every draw that passes the
    # entry check must go through the decompositions, the chart and its
    # inverse and the group law without a later internal rejection
    rng = np.random.default_rng(0)
    draws = [rand_symplectic(rng, 10, scale=3) for _ in range(50)]
    accepted = [m for m in draws if is_symplectic(m)]
    assert len(accepted) == 27
    for m in accepted:
        cond = np.linalg.cond(m)
        for decompose in (modified_pre_iwasawa, pre_iwasawa):
            f = decompose(m)
            recomposition = np.max(np.abs(pre_iwasawa_compose(f) - m)) / np.max(np.abs(m))
            assert recomposition <= 1e-14 * cond
            assert unitary_pair_residual(f.X, f.Y) <= 1e-14 * cond
        g = _pure_symplectic(m)
        sn_chart_inverse(sn_chart(g))
        gj_compose(g, gj_inverse(g))


def test_sn_chart_n1_angle(rng):
    for _ in range(20):
        g = rand_jacobi(rng, 1)
        ch = sn_chart(g)
        th = ch.theta()
        assert np.isclose(ch.X[0, 0], np.cos(th)) and np.isclose(ch.Y[0, 0], np.sin(th))


def test_chart_convert_cycles(rng):
    n = 2
    charts = ("vu", "pq", "xirho", "chipsi")
    for _ in range(50):
        pt = rand_pq_point(rng, n)
        # u with p = 0 has u = q
        x, y, p, q = pt
        v, u = chart_convert((x, y, np.zeros(n), q), "pq", "vu")
        assert np.max(np.abs(u - q)) < 1e-14
        # xi = p x + q, rho = p y
        xx, yy, xi, rho = chart_convert(pt, "pq", "xirho")
        assert np.max(np.abs(xi - (p @ x + q))) < 1e-14
        assert np.max(np.abs(rho - p @ y)) < 1e-14
        # chi = q^t, psi = p^t
        _, _, chi, psi = chart_convert(pt, "pq", "chipsi")
        assert np.array_equal(chi, q) and np.array_equal(psi, p)
        for src in charts:
            src_pt = chart_convert(pt, "pq", src)
            for dst in charts:
                there = chart_convert(src_pt, src, dst)
                back = chart_convert(there, dst, src)
                for a, b in zip(back, src_pt):
                    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_commutator_table_equals_exact_rational_brackets(n):
    # an exact second route: the basis entries are 0, +-1 and +-1/2, so the brackets
    # and their coordinates are rational; here they are computed in sympy Rational
    # arithmetic, with the coordinates solved from the embedded basis, not read
    # back through JacobiAlgebraElement.from_matrix
    import sympy
    labels, table = commutator_table(n)
    mats = [sympy.Matrix(e.to_matrix()).applyfunc(sympy.Rational)
            for e in gj_basis_elements(n)]
    basis = sympy.Matrix.hstack(*(m.reshape(m.rows * m.cols, 1) for m in mats))
    solve = (basis.T * basis).inv() * basis.T  # exact left inverse: the basis is independent
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            comm = (a * b - b * a).reshape(a.rows * a.cols, 1)
            coeffs = solve * comm
            assert basis * coeffs == comm  # the bracket closes exactly in the span
            assert [sympy.Rational(c) for c in table[i, j]] == list(coeffs), (labels[i], labels[j])


def test_commutator_table_failures_are_basis_closure_failures(monkeypatch):
    # with the bounds below zero every gate fails at its first bracket, [0, 1]: the snap
    # gate names the pair, and a projection residual is reported as a closure failure
    from jacobigeom import BasisClosureFailure, ProjectionResidual, linalg

    monkeypatch.setattr(linalg, "SNAP_TOL", -1.0)
    with pytest.raises(BasisClosureFailure, match=r"\[0,1\+k\].* at stack index 0$"):
        commutator_table(1)
    monkeypatch.setattr(linalg, "PROJ_RTOL", -1.0)
    with pytest.raises(BasisClosureFailure, match="projection residual") as info:
        commutator_table(1)
    assert isinstance(info.value.__cause__, ProjectionResidual)
