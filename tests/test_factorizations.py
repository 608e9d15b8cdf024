"""The factorization budget of the scalar API.

Each call below factors a matrix input at most once: an entry check that decomposes an
SPD (or, on the ball, Hermitian) matrix by its eigenvalues hands that ``eigh`` to the
kernel.  Each point kind (SPD, Siegel, pre-Iwasawa chart, ball) has one check, which makes
one ``eigh`` and no ``eigvalsh``, whether or not its caller factors the point.  The test
counts the ``numpy.linalg`` decompositions one call makes at n = 3.
"""

from collections import Counter

import numpy as np
import pytest

from jacobigeom import (
    KahlerParams,
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
    metric_xjn,
    mobius_act,
    sqrtm_spd,
)
from jacobigeom import sampling as smp
from jacobigeom.jacobi import CHARTS
from jacobigeom.linalg import check_spd
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
    sn_t = smp.rand_sn_tangent(rng, chart)
    pq, pq_t1, pq_t2 = (smp.rand_pq_point(rng, N), smp.rand_pq_tangent(rng, N),
                        smp.rand_pq_tangent(rng, N))
    vu, vu_t1, vu_t2 = (smp.rand_vu_point(rng, N), smp.rand_vu_tangent(rng, N),
                        smp.rand_vu_tangent(rng, N))
    ball, ball_t1, ball_t2 = (smp.rand_ball_point(rng, N), smp.rand_ball_tangent(rng, N),
                              smp.rand_ball_tangent(rng, N))
    g = smp.rand_jacobi(rng, N)
    points = {src: chart_convert(pq, "pq", src) for src in CHARTS}
    kp, one, solved = KahlerParams(2.0, 1.0), {"eigh": 1}, {"eigh": 1, "solve": 1}
    return [
        ("sqrtm_spd", lambda: sqrtm_spd(a), one),
        ("dsqrtm", lambda: dsqrtm(a, da), {"eigh": 1, "solve": 1}),
        ("m_point", lambda: m_point(x, y), one),
        ("act_modified_chart",
         lambda: act_modified_chart(m, (chart.x, chart.y, chart.X, chart.Y)),
         {"det": 1, "eigh": 2}),
        ("maurer_cartan_sn", lambda: maurer_cartan(chart, sn_t, chart="sn"), one),
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


@pytest.mark.parametrize("name", _NAMES)
def test_each_call_reads_eigh_as_a_plain_pair(name):
    # numpy before 2.0 returns eigh's eigenpairs as a plain tuple, without named fields
    call, _ = _call(name)
    eigh = np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a: tuple(eigh(a)))
        call()
