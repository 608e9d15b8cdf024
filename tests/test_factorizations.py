"""The factorization and check-pass budgets of the scalar API.

Each call below factors a matrix input at most once: an entry check that decomposes an
SPD (or, on the ball, Hermitian) matrix by its eigenvalues hands that ``eigh`` to the
kernel.  Each point kind (SPD, Siegel, pre-Iwasawa chart, ball) has one check, which makes
one ``eigh`` and no ``eigvalsh``, whether or not its caller factors the point.  An S_n chart
keeps the square-root frame of the ``eigh`` that made it, and so do pre-Iwasawa factors, so
a call at a chart, or a recomposition, factors nothing.  The test counts the ``numpy.linalg``
decompositions one call makes at n = 3.

Each check makes one pass over a group of inputs: one ``sym_residual`` for the matrix part of
a point (x and y of a Siegel point together), one for a tangent or a pair of tangents (dx and
dy of both), and one for the F and G forms of ``oneforms_sn`` or ``oneforms_matrix_chart``,
whatever the number of parts.
"""

import copy
import inspect
from collections import Counter

import numpy as np
import pytest

from jacobigeom import (
    KahlerParams,
    MetricParams,
    PreIwasawaFactors,
    SnChart,
    act_modified_chart,
    act_pq,
    act_xjn,
    chart_convert,
    dsqrtm,
    kahler_ball,
    kahler_xjn,
    m_point,
    maurer_cartan,
    metric_extended,
    metric_group,
    metric_xjn,
    mobius_act,
    oneforms_matrix_chart,
    oneforms_sn,
    pre_iwasawa,
    pre_iwasawa_compose,
    sn_chart,
    sn_chart_inverse,
    sqrtm_spd,
)
from jacobigeom import forms, jacobi, linalg, metrics, symplectic
from jacobigeom.forms import d_sn_chart_inverse
from jacobigeom import sampling as smp
from jacobigeom.jacobi import CHARTS
from jacobigeom.linalg import _root_frame, check_spd, sym_residual, symmetrize
from jacobigeom.metrics import check_ball_point
from jacobigeom.symplectic import check_siegel

_DECOMPOSITIONS = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
                   "qr", "slogdet", "solve", "svd")
N = 3


def _calls(rng):
    """(name, call, budget): each call on inputs drawn before any count starts."""
    a, da = smp.rand_spd(rng, N), smp.rand_sym(rng, N)
    x, y = smp.rand_sym(rng, N), smp.rand_spd(rng, N)
    m, chart = smp.rand_symplectic(rng, N), smp.rand_sn_chart(rng, N)
    sn_t, sn_t2 = smp.rand_sn_tangent(rng, chart), smp.rand_sn_tangent(rng, chart)
    pq, pq_t1, pq_t2 = (smp.rand_pq_point(rng, N), smp.rand_pq_tangent(rng, N),
                        smp.rand_pq_tangent(rng, N))
    vu, vu_t1, vu_t2 = (smp.rand_vu_point(rng, N), smp.rand_vu_tangent(rng, N),
                        smp.rand_vu_tangent(rng, N))
    ball, ball_t1, ball_t2 = (smp.rand_ball_point(rng, N), smp.rand_ball_tangent(rng, N),
                              smp.rand_ball_tangent(rng, N))
    g = smp.rand_jacobi(rng, N)
    g_sn, sn_dt = sn_chart_inverse(chart), d_sn_chart_inverse(chart, sn_t)  # a matrix tangent
    points = {src: chart_convert(pq, "pq", src) for src in CHARTS}
    factors = (PreIwasawaFactors(chart.x, chart.y, chart.X, chart.Y, "modified"), pre_iwasawa(m))
    kp, one, solved = KahlerParams(2.0, 1.0), {"eigh": 1}, {"eigh": 1, "solve": 1}
    return [
        ("sqrtm_spd", lambda: sqrtm_spd(a), one),
        ("dsqrtm", lambda: dsqrtm(a, da), {"eigh": 1, "solve": 1}),
        ("m_point", lambda: m_point(x, y), one),
        ("act_modified_chart",
         lambda: act_modified_chart(m, (chart.x, chart.y, chart.X, chart.Y)),
         {"det": 1, "eigh": 2}),
        # at a chart: its frame, from its own construction, leaves nothing to factor
        ("maurer_cartan_sn", lambda: maurer_cartan(chart, sn_t, chart="sn"), {}),
        ("sn_chart_inverse", lambda: sn_chart_inverse(chart), {}),
        ("oneforms_sn", lambda: oneforms_sn(chart, sn_t), {}),
        ("d_sn_chart_inverse", lambda: d_sn_chart_inverse(chart, sn_t), {}),
        ("oneforms_matrix_chart", lambda: oneforms_matrix_chart(g_sn, sn_dt), {}),
        ("metric_group", lambda: metric_group(MetricParams(), chart, sn_t, sn_t2), {}),
        ("sn_chart", lambda: sn_chart(g), one),
        # factors keep the frame of their y, as a chart does
        ("pre_iwasawa_compose", lambda: pre_iwasawa_compose(factors[0]), {}),
        ("pre_iwasawa_compose_plain", lambda: pre_iwasawa_compose(factors[1]), {}),
        *((f"metric_xjn_{c}", lambda c=c: metric_xjn(1.0, 1.0, c, pq, pq_t1, pq_t2), one)
          for c in ("pq", "chipsi", "xirho")),
        ("metric_extended", lambda: metric_extended(
            1.0, 1.0, 1.0, (*pq, 0.3), (*pq_t1, 0.5), (*pq_t2, -0.2)), one),
        ("kahler_xjn", lambda: kahler_xjn(kp, *vu, vu_t1, vu_t2), one),
        ("kahler_ball", lambda: kahler_ball(kp, *ball, ball_t1, ball_t2), one),
        # the checks of each point kind, and the entry points that only check a point
        ("check_spd", lambda: check_spd(a), one),
        ("check_siegel", lambda: check_siegel(x + 1j * y), one),
        ("check_ball_point", lambda: check_ball_point(ball[0]), one),
        ("PreIwasawaFactors",
         lambda: PreIwasawaFactors(chart.x, chart.y, chart.X, chart.Y, "modified"), one),
        ("SnChart", lambda: SnChart(chart.x, chart.y, chart.X, chart.Y, chart.p, chart.q,
                                    chart.kappa), one),
        ("mobius_act", lambda: mobius_act(m, x + 1j * y), {"det": 1, **solved}),
        ("act_xjn", lambda: act_xjn(g, vu), solved),
        ("act_pq", lambda: act_pq(g, pq), solved),
        # vu and xirho solve for p: p = Im(u) y^-1
        *((f"chart_convert_{src}", lambda src=src: chart_convert(points[src], src, "pq"),
           solved if src in ("vu", "xirho") else one) for src in CHARTS),
    ]


_NAMES = [name for name, _, _ in _calls(np.random.default_rng(0))]


def _call(name):
    """The call named ``name`` and its budget."""
    (call, budget), = [(c, b) for n, c, b in _calls(np.random.default_rng(31)) if n == name]
    return call, budget


@pytest.mark.parametrize("name", _NAMES)
def test_each_input_is_factored_once(name):
    call, budget = _call(name)
    counts = Counter()

    def counting(fname, fn):
        def wrapped(*args, **kwargs):
            counts[fname] += 1
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for fname in _DECOMPOSITIONS:
            mp.setattr(np.linalg, fname, counting(fname, getattr(np.linalg, fname)))
        call()
    assert dict(counts) == budget


# sym_residual passes per call: a point, a tangent set, an SPD input and F, G count one each
_CHECK_PASSES = {
    "sqrtm_spd": 1, "dsqrtm": 2, "m_point": 1, "act_modified_chart": 1, "maurer_cartan_sn": 1,
    "sn_chart_inverse": 0, "oneforms_sn": 2, "d_sn_chart_inverse": 1, "metric_group": 2,
    "oneforms_matrix_chart": 1,
    "sn_chart": 0, "pre_iwasawa_compose": 0, "pre_iwasawa_compose_plain": 0,
    "metric_xjn_pq": 2, "metric_xjn_chipsi": 2, "metric_xjn_xirho": 2, "metric_extended": 2,
    "kahler_xjn": 1, "kahler_ball": 1, "check_spd": 1, "check_siegel": 1, "check_ball_point": 1,
    "PreIwasawaFactors": 1, "SnChart": 1, "mobius_act": 1, "act_xjn": 1, "act_pq": 1,
    **{f"chart_convert_{src}": 1 for src in CHARTS},
}


def test_every_call_has_a_check_pass_budget():
    assert set(_CHECK_PASSES) == set(_NAMES)


@pytest.mark.parametrize("name", _NAMES)
def test_each_input_is_checked_in_one_pass(name):
    call, _ = _call(name)
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return sym_residual(a)

    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, symplectic, forms, jacobi, metrics):
            if hasattr(module, "sym_residual"):
                mp.setattr(module, "sym_residual", counting)
        call()
    assert len(calls) == _CHECK_PASSES[name], calls


@pytest.mark.parametrize("name", _NAMES)
def test_each_call_reads_eigh_as_a_plain_pair(name):
    # numpy before 2.0 returns eigh's eigenpairs as a plain tuple, without named fields
    call, _ = _call(name)
    eigh = np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a: tuple(eigh(a)))
        call()


def _fresh_frame(chart):
    return _root_frame(np.linalg.eigh(symmetrize(chart.y)))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_a_chart_keeps_the_frame_of_its_y(n):
    rng = np.random.default_rng(50 + n)
    made = smp.rand_sn_chart(rng, n)
    # the constructor's frame is its check's eigh: a fresh one gives it bit for bit
    built = SnChart(made.x, made.y, made.X, made.Y, made.p, made.q, made.kappa)
    for mine, fresh in zip(built._frame, _fresh_frame(built), strict=True):
        assert np.array_equal(mine, fresh)
    # sn_chart's comes from the eigh of y^-1, eigenvalues in the other order: the same
    # roots, the same s and s^-1, and eigenvectors up to order and sign, to roundoff
    (r, u, s, si), (r0, u0, s0, si0) = made._frame, _fresh_frame(made)
    assert np.allclose(np.sort(r, -1), r0, rtol=1e-13, atol=0)
    assert np.allclose(np.abs(u0.T @ u[:, ::-1]), np.eye(n), rtol=0, atol=1e-8)
    assert np.allclose((u * r**2) @ u.T, made.y, rtol=0, atol=1e-13)
    for mine, fresh in ((s, s0), (si, si0)):
        assert np.max(np.abs(mine - fresh)) <= 1e-13 * np.max(np.abs(fresh))


def test_the_frame_survives_stacking_and_stays_out_of_sight():
    rng = np.random.default_rng(61)
    charts = [smp.rand_sn_chart(rng, 3) for _ in range(4)]
    stacked = metrics._stack(*charts)
    for i, chart in enumerate(charts):
        for leaf, one in zip(stacked._frame, chart._frame, strict=True):
            assert np.array_equal(leaf[i], one)
    # no constructor argument, no part of repr or ==
    chart = charts[0]
    assert list(inspect.signature(SnChart).parameters) == ["x", "y", "X", "Y", "p", "q", "kappa"]
    assert "_frame" not in repr(chart)
    other = copy.copy(chart)  # the same field arrays, so == can compare them
    object.__setattr__(other, "_frame", _fresh_frame(charts[1]))
    assert other == chart
    assert repr(other) == repr(chart)
