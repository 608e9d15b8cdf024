"""Frames against the closed forms.

Every metric of the invariance engine is the pairing of a frame, evaluated once on both
tangents.  The bilinear displays below are the second, independent route: the three
coordinate charts of the Siegel-Jacobi metric, the sum over the six one-form families and
both Kaehler two-forms, written out as bilinear expressions with no factorization of the
point.
"""

import numpy as np
import pytest

from jacobigeom import (
    kahler_ball,
    kahler_xjn,
    metric_extended,
    metric_group,
    metric_xjn,
    oneforms_sn,
)
from jacobigeom import metrics
from jacobigeom.linalg import _col, _dot, _from_col, _mT, _row
from jacobigeom.metrics import INVARIANCE_OBJECTS, XJN_CHARTS
from jacobigeom.sampling import StackStream


def _tr(a):
    return np.trace(a, axis1=-2, axis2=-1)


def _fro(a, b):
    return (a * b).sum((-2, -1))


def xjn_display(alpha, gamma, chart, point, t1, t2):
    """alpha tr(y^-1 dx1 y^-1 dx2 + y^-1 dy1 y^-1 dy2) plus, in pq and chipsi,
    gamma [dp1 (x y^-1 x + y) dp2^t + dq1 y^-1 dq2^t + dp1 x y^-1 dq2^t + dp2 x y^-1 dq1^t],
    and in xirho gamma [r1 y^-1 r2^t + s1 y^-1 s2^t], r = dxi - rho y^-1 dx,
    s = drho - rho y^-1 dy."""
    x, y = point[0], point[1]
    yi = np.linalg.inv(y)
    val = alpha * (_tr(yi @ t1[0] @ yi @ t2[0]) + _tr(yi @ t1[1] @ yi @ t2[1]))
    if chart == "xirho":
        rho = _row(point[3])
        r1, s1, r2, s2 = (_row(t[k]) - rho @ yi @ t[k - 2] for t in (t1, t2) for k in (2, 3))
        return val + gamma * (_dot(r1 @ yi, r2) + _dot(s1 @ yi, s2))
    i, j = (2, 3) if chart == "pq" else (3, 2)
    dp1, dq1, dp2, dq2 = _row(t1[i]), _row(t1[j]), _row(t2[i]), _row(t2[j])
    core, cross = x @ yi @ x + y, x @ yi
    return val + gamma * (_dot(dp1 @ core, dp2) + _dot(dq1 @ yi, dq2)
                          + _dot(dp1 @ cross, dq2) + _dot(dp2 @ cross, dq1))


def lambda_r_display(point, t):
    """dkappa - p dq^t + q dp^t."""
    return t[4] - _dot(_row(point[2]), _row(t[3])) + _dot(_row(point[3]), _row(t[2]))


def group_display(params, chart, t1, t2):
    """The weighted sum over the six families of one ``oneforms_sn`` per tangent."""
    f1, f2 = oneforms_sn(chart, t1), oneforms_sn(chart, t2)
    return (params.alpha * (_fro(f1.F + f1.G, f2.F + f2.G) + _fro(f1.H, f2.H))
            + params.beta * _fro(f1.F - f1.G, f2.F - f2.G)
            + params.gamma * (_dot(f1.P, f2.P) + _dot(f1.Q, f2.Q))
            + params.delta * f1.R * f2.R)


def kahler_xjn_display(kp, v, u, t1, t2):
    """(i k/2) tr(H1 Hbar2 - H2 Hbar1) + 2 nu (G1 D Gbar2^t - G2 D Gbar1^t) with
    D = (vbar - v)^{-1}, H = D dv and G = du - (u - ubar)(v - vbar)^{-1} dv."""
    d = np.linalg.inv(v.conj() - v)
    coeff = _from_col(np.linalg.solve(_mT(v - v.conj()), _col(u - u.conj())))
    (h1, g1), (h2, g2) = ((d @ t[0], _row(t[1], complex) - coeff @ t[0]) for t in (t1, t2))
    val = 1j * 0.5 * kp.k * (_tr(h1 @ h2.conj()) - _tr(h2 @ h1.conj()))
    return val + 2.0 * kp.nu * (_dot(g1 @ d, g2.conj()) - _dot(g2 @ d, g1.conj()))


def kahler_ball_display(kp, w, z, t1, t2):
    """i [(k/2) tr(B1 Bbar2 - B2 Bbar1) + nu (A1 Mbar Abar2^t - A2 Mbar Abar1^t)] with
    M = (I - W Wbar)^{-1}, B = M dW, A = dz + etabar dW^t, eta^t = M (z^t + W zbar^t)."""
    m = np.linalg.inv(np.eye(w.shape[-1]) - w @ w.conj())
    eta = _from_col(m @ (_col(z) + w @ _col(z.conj())))
    (b1, a1), (b2, a2) = ((m @ t[0], _row(t[1], complex) + eta.conj() @ _mT(t[0]))
                          for t in (t1, t2))
    mbar = m.conj()
    val = 0.5 * kp.k * (_tr(b1 @ b2.conj()) - _tr(b2 @ b1.conj()))
    return 1j * (val + kp.nu * (_dot(a1 @ mbar, a2.conj()) - _dot(a2 @ mbar, a1.conj())))


DISPLAYS = {
    "metric_group": lambda pt, t1, t2: group_display(metrics._GROUP_PARAMS, pt, t1, t2),
    **{f"metric_xjn_{c}": (lambda pt, t1, t2, c=c: xjn_display(1.0, 1.0, c, pt, t1, t2))
       for c in XJN_CHARTS},
    "metric_extended": lambda pt, t1, t2: (xjn_display(1.0, 1.0, "pq", pt, t1, t2)
                                           + lambda_r_display(pt, t1) * lambda_r_display(pt, t2)),
    "metric_xjn_broken": lambda pt, t1, t2: (xjn_display(1.0, 1.0, "pq", pt, t1, t2)
                                             + _dot(_row(t1[2]), _row(t2[2]))),
    "kahler_ball": lambda pt, t1, t2: kahler_ball_display(metrics._KAHLER_PARAMS, *pt, t1, t2),
    "kahler_xjn": lambda pt, t1, t2: kahler_xjn_display(metrics._KAHLER_PARAMS, *pt, t1, t2),
}


def test_every_frame_spec_has_a_display():
    # lambda_R is a one-form, read directly, not a pairing
    assert set(DISPLAYS) == set(INVARIANCE_OBJECTS) - {"lambda_R"}


def _scale(display, spec, point, t1, t2):
    """|value| plus the diagonal terms |display(t, turn t)| of t1 and t2, from the display."""
    turned = [tuple(spec.turn * np.asarray(c) for c in t) for t in (t1, t2)]
    return (np.abs(display(point, t1, turned[0])) + np.abs(display(point, t2, turned[1]))
            + np.abs(display(point, t1, t2)))


@pytest.mark.parametrize("n", [1, 2, 4, 10])
@pytest.mark.parametrize("obj", DISPLAYS)
def test_frame_pairing_is_the_closed_form(obj, n):
    # a stack of 8 drawn samples, as the engine draws them
    spec, display = metrics._INVARIANCE_SPECS[obj], DISPLAYS[obj]
    _, _, point, t1, t2 = spec.draw(StackStream(61 + n, n, 0, 8), n)
    f1, f2 = spec.frame(point, metrics._stack(t1, t2))
    got, want = spec.pair(f1, f2), display(point, t1, t2)
    assert got.shape == (8,)
    assert np.all(np.abs(got - want) <= 1e-14 * _scale(display, spec, point, t1, t2)), obj
    # and the diagonal terms of the scale are the pairing of a frame value with its turn
    diagonal = spec.pair(f1, spec.turn * f1)
    want = display(point, t1, tuple(spec.turn * np.asarray(c) for c in t1))
    assert np.all(np.abs(diagonal - want) <= 1e-14 * np.abs(want)), obj


def _public(obj, point, t1, t2):
    """The public function behind a frame spec at one unstacked sample."""
    if obj == "metric_group":
        return metric_group(metrics._GROUP_PARAMS, point, t1, t2)
    if obj == "metric_extended":
        return metric_extended(1.0, 1.0, 1.0, point, t1, t2)
    if obj == "kahler_ball":
        return kahler_ball(metrics._KAHLER_PARAMS, *point, t1, t2)
    if obj == "kahler_xjn":
        return kahler_xjn(metrics._KAHLER_PARAMS, *point, t1, t2)
    return metric_xjn(1.0, 1.0, obj.rsplit("_", 1)[1], point, t1, t2)


@pytest.mark.parametrize("n", [1, 2, 4, 10])
@pytest.mark.parametrize("obj", [o for o in DISPLAYS if o != "metric_xjn_broken"])
def test_public_metrics_are_the_closed_form(obj, n):
    # one sample from a generator: 1-d rows and scalar kappas, stacked by the public call
    spec, display = metrics._INVARIANCE_SPECS[obj], DISPLAYS[obj]
    _, _, point, t1, t2 = spec.draw(np.random.default_rng(n), n)
    got, want = _public(obj, point, t1, t2), display(point, t1, t2)
    assert np.ndim(got) == 0 and np.isrealobj(got)
    assert abs(got - want) <= 1e-14 * _scale(display, spec, point, t1, t2), obj
