"""Acceptance gate: each test prints one PASS/FAIL line (run with -s to see
them all) and asserts its criterion at the stated tolerance."""

import time

import numpy as np
from scipy.linalg import expm

from jacobigeom import (
    act_extended,
    act_modified_chart,
    cayley,
    cayley_inverse,
    chart_convert,
    commutator_table,
    dsqrtm,
    duality_pairing,
    duplication_matrix,
    elimination_matrix,
    fc_inverse,
    fc_transform,
    fvf,
    gj_basis_elements,
    gj_compose,
    gj_embed,
    h_compose,
    h_embed,
    invariance_report,
    is_symplectic,
    mobius_act,
    modified_pre_iwasawa,
    oneforms_matrix_chart,
    oneforms_n1,
    oneforms_sn,
    pre_iwasawa,
    pre_iwasawa_compose,
    sn_chart_inverse,
    sqrtm_spd,
)
from jacobigeom.jacobi import gj_from_embedding
from jacobigeom.numdiff import fd_bracket, fd_curve, sn_chart_curve
from jacobigeom.sampling import (
    rand_heisenberg,
    rand_jacobi,
    rand_pq_point,
    rand_sn_chart,
    rand_sn_tangent,
    rand_spd,
    rand_sym,
    rand_symplectic,
    rand_vu_point,
)
from jacobigeom.symplectic import PreIwasawaFactors


def report(name, ok, detail):
    print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_embedding_homomorphisms():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_hom = 0.0
    worst_sp = 0.0
    for n in (1, 2, 3):
        for _ in range(167):
            g, h = rand_heisenberg(rng, n), rand_heisenberg(rng, n)
            worst_hom = max(worst_hom, np.max(np.abs(
                h_embed(h_compose(g, h)) - h_embed(g) @ h_embed(h))))
            gj, hj = rand_jacobi(rng, n), rand_jacobi(rng, n)
            worst_hom = max(worst_hom, np.max(np.abs(
                gj_embed(gj_compose(gj, hj)) - gj_embed(gj) @ gj_embed(hj))))
            for emb in (h_embed(g), gj_embed(gj)):
                if not is_symplectic(emb, 1e-9):
                    worst_sp = np.inf
    elapsed = time.perf_counter() - t0
    ok = worst_hom <= 1e-10 and worst_sp == 0.0 and elapsed < 5.0
    report("01 embedding-homomorphisms", ok,
           f"hom err {worst_hom:.2e}, sympl ok, {elapsed:.2f}s")


def test_02_commutation_table():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        labels, table = commutator_table(n)  # raises if off the quarter grid
        elems = gj_basis_elements(n)
        idx = {lbl: k for k, lbl in enumerate(labels)}

        def vec_of(pairs):
            out = np.zeros(len(labels))
            for lbl, coeff in pairs:
                out[idx[lbl]] += coeff
            return out

        def fl(i, j):
            return f"F{min(i, j) + 1}{max(i, j) + 1}"

        def glb(i, j):
            return f"G{min(i, j) + 1}{max(i, j) + 1}"

        def hl(i, j):
            return f"H{i + 1}{j + 1}"

        d = lambda a, b: 1.0 if a == b else 0.0
        r = range(n)
        for k in r:
            for l in r:
                for i in r:
                    for j in r:
                        if i <= j:
                            got = table[idx[hl(k, l)], idx[fl(i, j)]]
                            want = vec_of([(fl(i, k), d(l, j)), (fl(k, j), d(l, i))])
                            worst = max(worst, np.max(np.abs(got - want)))
                            got = table[idx[glb(i, j)], idx[hl(k, l)]]
                            want = vec_of([(glb(l, j), d(k, i)), (glb(l, i), d(k, j))])
                            worst = max(worst, np.max(np.abs(got - want)))
                        if i <= j and k <= l:
                            got = table[idx[fl(i, j)], idx[glb(k, l)]]
                            want = vec_of([(hl(j, k), 0.25 * d(l, i)),
                                           (hl(i, k), 0.25 * d(j, l)),
                                           (hl(i, l), 0.25 * d(j, k)),
                                           (hl(j, l), 0.25 * d(i, k))])
                            worst = max(worst, np.max(np.abs(got - want)))
        for p in r:
            for q in r:
                got = table[idx[f"P{p + 1}"], idx[f"Q{q + 1}"]]
                worst = max(worst, np.max(np.abs(got - vec_of([("R", 2 * d(p, q))]))))
            for i in r:
                for j in r:
                    if i <= j:
                        got = table[idx[f"P{p + 1}"], idx[fl(i, j)]]
                        want = vec_of([(f"Q{j + 1}", 0.5 * d(p, i)),
                                       (f"Q{i + 1}", 0.5 * d(p, j))])
                        worst = max(worst, np.max(np.abs(got - want)))
                        got = table[idx[f"Q{p + 1}"], idx[glb(i, j)]]
                        want = vec_of([(f"P{j + 1}", 0.5 * d(i, p)),
                                       (f"P{i + 1}", 0.5 * d(j, p))])
                        worst = max(worst, np.max(np.abs(got - want)))
                    got = table[idx[f"P{p + 1}"], idx[hl(i, j)]]
                    worst = max(worst, np.max(np.abs(got - vec_of([(f"P{j + 1}", d(p, i))]))))
                    got = table[idx[hl(i, j)], idx[f"Q{p + 1}"]]
                    worst = max(worst, np.max(np.abs(got - vec_of([(f"Q{i + 1}", d(j, p))]))))
    elapsed = time.perf_counter() - t0
    ok = worst == 0.0 and elapsed < 2.0
    report("02 commutation-table", ok,
           f"families exact after 1e-9 snap (quarter-integer grid), {elapsed:.2f}s")


def test_03_decomposition_roundtrip():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(200):
            m = rand_symplectic(rng, n)
            for decompose in (pre_iwasawa, modified_pre_iwasawa):
                f = decompose(m)
                worst = max(worst, np.max(np.abs(pre_iwasawa_compose(f) - m)))
                # uniqueness: factors reproduce themselves through the group
                g = decompose(pre_iwasawa_compose(
                    PreIwasawaFactors(f.x, f.y, f.X, f.Y, f.variant)))
                for name in ("x", "y", "X", "Y"):
                    worst = max(worst, np.max(np.abs(getattr(f, name) - getattr(g, name))))
    report("03 decomposition-roundtrip", worst <= 1e-10, f"max err {worst:.2e}")


def test_04_mobius_compatibility():
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(100):
            m = rand_symplectic(rng, n)
            f = modified_pre_iwasawa(rand_symplectic(rng, n))
            x1, y1, _, _ = act_modified_chart(m, (f.x, f.y, f.X, f.Y))
            v1 = mobius_act(m, f.x + 1j * f.y)
            worst = max(worst, np.max(np.abs(x1 + 1j * y1 - v1)))
    report("04 mobius-compatibility", worst <= 1e-9, f"max err {worst:.2e}")


def test_05_oneform_consistency():
    rng = np.random.default_rng(105)
    h = 1e-6
    worst = 0.0
    for n in (1, 2):
        for _ in range(100):
            chart = rand_sn_chart(rng, n)
            t = rand_sn_tangent(rng, chart)

            def matrix_coords(c):
                g = sn_chart_inverse(c)
                a, b, cc, d = (g.M[:n, :n], g.M[:n, n:], g.M[n:, :n], g.M[n:, n:])
                return a, b, cc, d, c.p, c.q, c.kappa

            mt = fd_curve(lambda s: matrix_coords(sn_chart_curve(chart, t, s)), h)
            a = oneforms_sn(chart, t)
            b = oneforms_matrix_chart(sn_chart_inverse(chart), mt)
            for u, v in zip((a.F, a.G, a.H, a.P, a.Q, a.R),
                            (b.F, b.G, b.H, b.P, b.Q, b.R)):
                worst = max(worst, np.max(np.abs(np.asarray(u) - np.asarray(v))))
    worst_n1 = 0.0
    for _ in range(100):
        chart = rand_sn_chart(rng, 1)
        t = rand_sn_tangent(rng, chart)
        dth = float(chart.X[0, 0] * t[3][0, 0] - chart.Y[0, 0] * t[2][0, 0])
        a = oneforms_sn(chart, t)
        b = oneforms_n1(chart.x[0, 0], chart.y[0, 0], chart.theta(),
                        (t[0][0, 0], t[1][0, 0], dth, t[4][0], t[5][0], t[6]),
                        p=chart.p[0], q=chart.q[0])
        for u, v in zip((a.F, a.G, a.H, a.P, a.Q, a.R), b):
            worst_n1 = max(worst_n1, np.max(np.abs(np.asarray(u) - np.asarray(v))))
    ok = worst <= 1e-8 and worst_n1 <= 1e-10
    report("05 oneform-consistency", ok,
           f"fd-chart err {worst:.2e}, n=1 closed forms {worst_n1:.2e}")


def test_06_duality():
    rng = np.random.default_rng(106)
    worst = 0.0
    for n in (1, 2):
        for _ in range(50):
            table = duality_pairing(rand_jacobi(rng, n))
            for (al, be), blk in table.items():
                blk = np.atleast_2d(np.asarray(blk, dtype=float))
                if al == be:
                    want = np.eye(blk.shape[0]) if blk.shape[0] == blk.shape[1] else \
                        np.ones_like(blk)
                    worst = max(worst, np.max(np.abs(blk - want)))
                else:
                    worst = max(worst, np.max(np.abs(blk)))
    report("06 duality-table", worst <= 1e-9, f"max err {worst:.2e}")


def test_07_invariance_suite():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for obj in ("metric_xjn_pq", "metric_xjn_chipsi", "metric_xjn_xirho",
                "metric_extended", "kahler_ball", "kahler_xjn"):
        rep = invariance_report(obj, n=1, samples=1000, seed=42, tol=1e-6)
        ok = ok and rep.passed
        lines.append(f"{obj}={rep.max_rel:.1e} (sample {rep.worst_sample})")
    rep = invariance_report("lambda_R", n=1, samples=1000, seed=42, tol=1e-9)
    ok = ok and rep.passed
    lines.append(f"lambda_R={rep.max_rel:.1e} (sample {rep.worst_sample})")
    rep = invariance_report("lambda_R", n=2, samples=200, seed=42, tol=1e-9)
    ok = ok and rep.passed
    neg = invariance_report("metric_xjn_broken", n=1, samples=200, seed=42, tol=1e-6)
    ok = ok and not neg.passed
    lines.append(f"negative-control={'FAILS (expected)' if not neg.passed else 'PASSES (bug)'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report("07 invariance-suite", ok, ", ".join(lines) + f", {elapsed:.1f}s")


def test_08_fvf_consistency():
    rng = np.random.default_rng(108)
    h = 1e-6
    worst = 0.0
    for n in (1, 2):
        elems = gj_basis_elements(n)
        for _ in range(50):
            pt = rand_pq_point(rng, n) + (float(rng.uniform(-1, 1)),)
            for z in elems:
                def act_t(t):
                    return act_extended(gj_from_embedding(expm(t * z.to_matrix())), pt)

                fd = fd_curve(act_t, h)
                an = fvf(z, pt, "extended_pq")
                for a, b in zip(fd, an):
                    worst = max(worst, np.max(np.abs(np.asarray(a) - np.asarray(b))))
    # bracket closure for n = 1 on the extended space, one global sign
    n = 1
    labels, table = commutator_table(n)
    elems = gj_basis_elements(n)
    pt = rand_pq_point(rng, n) + (0.3,)
    resid = {+1: 0.0, -1: 0.0}
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            fi = lambda p, z=elems[i]: fvf(z, p, "extended_pq")
            fj = lambda p, z=elems[j]: fvf(z, p, "extended_pq")
            br = fd_bracket(fi, fj, pt)
            combo = [np.zeros_like(np.atleast_1d(np.asarray(c, dtype=float)))
                     for c in br]
            for k, coeff in enumerate(table[i, j]):
                if coeff:
                    for slot, comp in enumerate(fvf(elems[k], pt, "extended_pq")):
                        combo[slot] = combo[slot] + coeff * np.asarray(comp)
            for sign in (+1, -1):
                err = max(np.max(np.abs(np.atleast_1d(np.asarray(a, dtype=float))
                                        - sign * b))
                          for a, b in zip(br, combo))
                resid[sign] = max(resid[sign], err)
    bracket_err = min(resid.values())
    global_sign = min(resid, key=resid.get)
    ok = worst <= 1e-7 and bracket_err <= 1e-5
    report("08 fvf-consistency", ok,
           f"generator err {worst:.2e}, brackets close at {bracket_err:.2e} "
           f"with global sign {global_sign:+d}")


def test_09_appendix_machinery():
    rng = np.random.default_rng(109)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rand_spd(rng, n, spread=2.0)  # condition number up to ~e^4 < 100
        e = rand_sym(rng, n)
        fd = (sqrtm_spd(a + h * e) - sqrtm_spd(a - h * e)) / (2 * h)
        an = dsqrtm(a, e)
        worst = max(worst, np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an))))
    exact = all(np.array_equal(elimination_matrix(n) @ duplication_matrix(n),
                               np.eye(n * (n + 1) // 2)) for n in (1, 2, 3, 4))
    ok = worst <= 1e-6 and exact
    report("09 appendix-machinery", ok,
           f"dsqrtm rel err {worst:.2e}, L_n D_n = I exact: {exact}")


def test_10_transform_roundtrips():
    rng = np.random.default_rng(110)
    worst_c = worst_f = worst_chart = 0.0
    n = 2
    for _ in range(200):
        v, u = rand_vu_point(rng, n)
        w, z = cayley(v, u)
        v2, u2 = cayley_inverse(w, z)
        worst_c = max(worst_c, np.max(np.abs(v - v2)), np.max(np.abs(u - u2)))
        eta = fc_transform(w, z)
        worst_f = max(worst_f, np.max(np.abs(fc_inverse(w, eta) - z)))
    charts = ("vu", "pq", "xirho", "chipsi")
    for _ in range(50):
        pt = rand_pq_point(rng, n)
        for src in charts:
            src_pt = chart_convert(pt, "pq", src)
            for dst in charts:
                back = chart_convert(chart_convert(src_pt, src, dst), dst, src)
                for a, b in zip(back, src_pt):
                    worst_chart = max(worst_chart,
                                      np.max(np.abs(np.asarray(a) - np.asarray(b))))
    ok = worst_c <= 1e-10 and worst_f <= 1e-10 and worst_chart <= 1e-12
    report("10 transform-roundtrips", ok,
           f"cayley {worst_c:.2e}, fc {worst_f:.2e}, charts {worst_chart:.2e}")
