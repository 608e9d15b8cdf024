"""Invariant metrics on the Jacobi group and its homogeneous spaces.

The 4-parameter group metric is the sum of squares of the six weighted
invariant one-form families

    l1 = sqrt(alpha) (F + G),  l2 = sqrt(alpha) H,  l3 = sqrt(beta) (F - G),
    l4 = sqrt(gamma) P,        l5 = sqrt(gamma) Q,  l6 = sqrt(delta) R,

where matrix families are squared in the Frobenius sense tr(A A^t) (for
the possibly non-symmetric H this is a documented choice).  Setting
parameters to zero specializes the metric to the Siegel space (beta =
gamma = delta = 0), the symplectic group (gamma = delta = 0), the
Siegel-Jacobi space (beta = delta = 0) and its extension (beta = 0).

On the Siegel-Jacobi space itself the two-parameter metric has the three
closed coordinate expressions implemented in :func:`metric_xjn`; adding
``delta (dkappa - p dq^t + q dp^t)^2`` gives the three-parameter metric
on the extended space (:func:`metric_extended`).

Kaehler two-forms on the ball and upper-half-space models, the partial
Cayley transform and the normalized/un-normalized coordinate change on
the ball complete the picture; :func:`invariance_report` is the seeded
verification engine used by the acceptance suite.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import sampling as smp
from .exceptions import BadShape, ContractionViolation
from .heisenberg import _omega, _rows
from .jacobi import _act_pq, _checked_point, _from_pq, _pq_of, _push_kappa, _push_pq, _push_vu
from .jacobi import _tangent_from_pq, _tangent_to_pq, _to_pq, act_extended, act_xjn, gj_compose
from .jacobi import SnChart, gj_embed, sn_chart, sn_chart_inverse
from . import linalg
from .linalg import _col, _dot, _frobenius, _from_col, _gate, _modulus, _mT, _row, _trace
from .linalg import sym_residual
from .forms import _d_sn_chart, _d_sn_chart_inverse, _checked_xy_rows, _embed_tangent, oneforms_sn
from .symplectic import _jacobi_parts, _mobius, _siegel_xy, blocks, check_siegel, from_blocks


@dataclass(frozen=True)
class MetricParams:
    """Weights of the group metric, all finite; alpha strictly positive, others >= 0
    (zeros select the specializations)."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not all(0 <= w < np.inf for w in (self.beta, self.gamma, self.delta)):
            raise ValueError("beta, gamma, delta must be nonnegative and finite")


@dataclass(frozen=True)
class KahlerParams:
    """k indexes the holomorphic discrete series weight, nu the Heisenberg
    representation; both positive and finite."""

    k: float
    nu: float

    def __post_init__(self):
        if not (0 < self.k < np.inf and 0 < self.nu < np.inf):
            raise ValueError("k and nu must be positive and finite")


def metric_group(params, chart, t1, t2):
    """g(t1, t2) = alpha (<F1 + G1, F2 + G2> + <H1, H2>) + beta <F1 - G1, F2 - G2>
    + gamma (P1 P2^t + Q1 Q2^t) + delta R1 R2 with <A, B> = tr(A B^t), from one
    ``oneforms_sn`` per distinct tangent: the one-forms are linear in the tangent.
    Charts and tangents may be stacks, as in ``oneforms_sn``."""
    f1 = oneforms_sn(chart, t1)
    f2 = f1 if t2 is t1 else oneforms_sn(chart, t2)
    val = params.alpha * (_frobenius(f1.F + f1.G, f2.F + f2.G) + _frobenius(f1.H, f2.H))
    val += params.beta * _frobenius(f1.F - f1.G, f2.F - f2.G)
    val += params.gamma * (_dot(f1.P, f2.P) + _dot(f1.Q, f2.Q))
    val += params.delta * f1.R * f2.R
    return val


XJN_CHARTS = ("pq", "chipsi", "xirho")


def _check_arity(size, **parts):
    """Raise BadShape unless each named tuple has ``size`` components."""
    for name, part in parts.items():
        if len(part) != size:
            raise BadShape(f"{name} must have {size} components, got {len(part)}")


def _checked_xjn(point, *tangents):
    """``point`` with x and y as float arrays, once it and its ``tangents`` pass: x + iy
    :func:`check_siegel`, the rows finite of length n and a fifth component (kappa) finite;
    each tangent as in ``forms._checked_xy_rows``.  Else a GeometryError."""
    x, y = _siegel_xy(point[0], point[1])
    n = x.shape[-1]
    _rows(n, point[2], point[3], kappa=point[4] if len(point) == 5 else None)
    for t in tangents:
        _checked_xy_rows(n, *t)
    return (x, y) + tuple(point[2:])


def metric_xjn(alpha, gamma, chart, point, t1, t2):
    """Two-parameter invariant metric on the Siegel-Jacobi space.

    Coordinate expressions (bilinear forms; the quadratic versions are
    the stated displays):

    pq:     alpha tr[(y^-1 dx)^2 + (y^-1 dy)^2]
            + gamma [dp (x y^-1 x + y) dp^t + dq y^-1 dq^t + 2 dp x y^-1 dq^t]
    chipsi: the same with dpsi = dp^t, dchi = dq^t;
    xirho:  alpha part + gamma [r y^-1 r^t + s y^-1 s^t] with
            r = dxi - rho y^-1 dx and s = drho - rho y^-1 dy.

    All three agree under the chart conversions.  The point and both
    tangents are checked as in :func:`_checked_xjn`.
    """
    if chart not in XJN_CHARTS:
        raise ValueError(f"chart must be one of {XJN_CHARTS}")
    _check_arity(4, point=point, t1=t1, t2=t2)
    point = _checked_xjn(point, t1, t2)
    return _metric_xjn(alpha, gamma, chart, point, t1, t2)


def _metric_xjn(alpha, gamma, chart, point, t1, t2):
    """:func:`metric_xjn` at a point and tangents the library has validated or built, or
    at stacks of them."""
    x, y = point[0], point[1]
    yi = np.linalg.inv(y)
    dx1, dy1 = np.asarray(t1[0], dtype=float), np.asarray(t1[1], dtype=float)
    dx2, dy2 = np.asarray(t2[0], dtype=float), np.asarray(t2[1], dtype=float)
    val = alpha * (_trace(yi @ dx1 @ yi @ dx2) + _trace(yi @ dy1 @ yi @ dy2))

    if chart in ("pq", "chipsi"):
        # chipsi stores the transposed rows; the bilinear form is identical
        dp1, dq1 = (_row(t1[2]), _row(t1[3])) if chart == "pq" else (_row(t1[3]), _row(t1[2]))
        dp2, dq2 = (_row(t2[2]), _row(t2[3])) if chart == "pq" else (_row(t2[3]), _row(t2[2]))
        core = x @ yi @ x + y
        cross = x @ yi
        val += gamma * (_dot(dp1 @ core, dp2) + _dot(dq1 @ yi, dq2)
                        + _dot(dp1 @ cross, dq2) + _dot(dp2 @ cross, dq1))
        return val

    rho = _row(point[3])
    r1 = _row(t1[2]) - rho @ yi @ dx1
    s1 = _row(t1[3]) - rho @ yi @ dy1
    r2 = _row(t2[2]) - rho @ yi @ dx2
    s2 = _row(t2[3]) - rho @ yi @ dy2
    val += gamma * (_dot(r1 @ yi, r2) + _dot(s1 @ yi, s2))
    return val


def lambda_r(point_pq_kappa, tangent):
    """The invariant one-form  dkappa - p dq^t + q dp^t = dkappa - omega((p, q), (dp, dq))
    on the extended space.  The rows and kappas of the point and the tangent must be
    finite, the rows of one length."""
    _check_arity(5, point=point_pq_kappa, tangent=tangent)
    n = _row(point_pq_kappa[2]).shape[-1]
    for part in (point_pq_kappa, tangent):
        _rows(n, part[2], part[3], kappa=part[4])
    return _lambda_r(point_pq_kappa, tangent)


def _lambda_r(point_pq_kappa, tangent):
    """:func:`lambda_r` at a point and tangent the library has validated or built."""
    p, q = _row(point_pq_kappa[2]), _row(point_pq_kappa[3])
    return tangent[4] - _omega((p, q), (_row(tangent[2]), _row(tangent[3])))


def metric_extended(alpha, gamma, delta, point, t1, t2):
    """Three-parameter metric on the extended space: the pq metric plus
    delta * lambda_R (x) lambda_R.  Point and tangents carry kappa last and
    are checked as in :func:`_checked_xjn`."""
    _check_arity(5, point=point, t1=t1, t2=t2)
    point = _checked_xjn(point, t1, t2)
    return _metric_extended(alpha, gamma, delta, point, t1, t2)


def _metric_extended(alpha, gamma, delta, point, t1, t2):
    """:func:`metric_extended` at a point and tangents the library has validated or built."""
    base = _metric_xjn(alpha, gamma, "pq", point[:4], t1[:4], t2[:4])
    return base + delta * _lambda_r(point, t1) * _lambda_r(point, t2)


# ---------------------------------------------------------------------------
# ball model, partial Cayley transform, FC coordinate change


def check_ball_point(w):
    """Return W (or a stack of them) as complex once symmetric and a strict contraction."""
    w = np.asarray(w, dtype=complex)
    _gate(sym_residual(w), linalg.BALL_SYM_RTOL, ContractionViolation, "asymmetry of W")
    contraction = np.eye(w.shape[-1]) - w @ w.conj()
    _gate(np.linalg.eigvalsh(0.5 * (contraction + _mT(contraction.conj())))[..., 0],
          linalg.BALL_MIN_EIG, ContractionViolation, "smallest eigenvalue of I - W conj(W)",
          lower=True)
    return w


def _fc(w, z):
    """(M, eta) with M = (I - W Wbar)^{-1} and eta^t = M (z^t + W zbar^t), over stacks too."""
    m = np.linalg.inv(np.eye(w.shape[-1]) - w @ w.conj())
    return m, _from_col(m @ (_col(z) + w @ _col(z.conj())))


def fc_transform(w, z):
    """Coordinate change z -> eta on the ball: eta = (I - W Wbar)^{-1} (z^t + W zbar^t)."""
    return _fc(*_checked_point(check_ball_point, w, z))[1]


def fc_inverse(w, eta):
    """Inverse change eta -> z:  z^t = eta - W etabar."""
    w, eta = _checked_point(check_ball_point, w, eta)
    return eta - w @ eta.conj()


def cayley(v, u):
    """Partial Cayley transform to the ball, the Moebius map of [[I, -iI], [I, iI]] with the
    row 2i u:  W = (v - iI)(v + iI)^{-1}, z^t = 2i (v + iI)^{-1} u^t.  Sends iI to the
    center.  The point is checked as in :func:`jacobi.act_xjn`."""
    v, u = _checked_point(check_siegel, v, u)
    eye = np.eye(v.shape[-1])
    w, z = _mobius(from_blocks(eye, -1j * eye, eye, 1j * eye), v, 2j * u)
    return check_ball_point(w), z


def cayley_inverse(w, z):
    """Inverse Cayley, the Moebius map of [[iI, iI], [-I, I]] with the row z:
    v = i (I - W)^{-1} (I + W),  u^t = (I - W)^{-1} z^t."""
    w, z = _checked_point(check_ball_point, w, z)
    eye = np.eye(w.shape[-1])
    return _mobius(from_blocks(1j * eye, 1j * eye, -eye, eye), w, z)


def g_form(v, u, tangent):
    """Row form  G^t = du - (u - ubar)(v - vbar)^{-1} dv  at a Siegel-Jacobi point.

    In pq coordinates this equals dp v + dq.  The point is checked as in
    :func:`jacobi.act_xjn`, the tangent as in ``jacobi._checked_point``.
    """
    return _g_form(*_checked_point(check_siegel, v, u, tangent))


def _g_form(v, u, tangent):
    """:func:`g_form` at a point (v, u) the library has validated or built (or stacks)."""
    dv, du = tangent
    dv = np.asarray(dv, dtype=complex)
    coeff = _from_col(np.linalg.solve(_mT(v - v.conj()), _col(u - u.conj())))
    return _row(du, complex) - coeff @ dv


def kahler_ball(kparams, w, z, t1, t2):
    """Kaehler two-form of the ball model evaluated on two tangents.

    -i omega = (k/2) tr(B wedge Bbar) + nu tr(A^t Mbar wedge Abar) with
    M = (I - W Wbar)^{-1}, B = M dW, A = dz^t + dW etabar and eta the
    FC image of z.  Antisymmetric in (t1, t2).  The point is checked as in
    :func:`fc_transform`, the tangents as in ``jacobi._checked_point``.
    """
    return _kahler_ball(kparams, *_checked_point(check_ball_point, w, z, t1, t2))


def _kahler_ball(kparams, w, z, t1, t2):
    """:func:`kahler_ball` at a ball point the library has validated or built (or stacks)."""
    m, eta = _fc(w, z)

    def parts(t):
        dw = np.asarray(t[0], dtype=complex)
        return m @ dw, _row(t[1], complex) + eta.conj() @ _mT(dw)

    b1, a1 = parts(t1)
    b2, a2 = parts(t2)
    mbar = m.conj()
    val = 0.5 * kparams.k * (_trace(b1 @ b2.conj()) - _trace(b2 @ b1.conj()))
    val += kparams.nu * (_dot(a1 @ mbar, a2.conj()) - _dot(a2 @ mbar, a1.conj()))
    return 1j * val


def kahler_xjn(kparams, v, u, t1, t2):
    """Kaehler two-form of the upper-half-space model.

    -i omega = (k/2) tr(H wedge Hbar) + (2 nu / i) tr(G^t D wedge Gbar)
    with D = (vbar - v)^{-1} and H = D dv.  The point is checked as in
    :func:`jacobi.act_xjn`, the tangents as in ``jacobi._checked_point``.
    """
    return _kahler_xjn(kparams, *_checked_point(check_siegel, v, u, t1, t2))


def _kahler_xjn(kparams, v, u, t1, t2):
    """:func:`kahler_xjn` at a point (v, u) the library has validated or built (or stacks)."""
    dmat = np.linalg.inv(v.conj() - v)

    def parts(t):
        return dmat @ np.asarray(t[0], dtype=complex), _g_form(v, u, t)

    h1, g1 = parts(t1)
    h2, g2 = parts(t2)
    val = 1j * 0.5 * kparams.k * (_trace(h1 @ h2.conj()) - _trace(h2 @ h1.conj()))
    val += 2.0 * kparams.nu * (_dot(g1 @ dmat, g2.conj()) - _dot(g2 @ dmat, g1.conj()))
    return val


# ---------------------------------------------------------------------------
# complexified symplectic representation acting on the ball


def sp_to_ball_rep(m):
    """Map a real symplectic matrix to the (P, Q) pair of its ball-model form.

    Conjugation by the Cayley map W = (v - iI)(v + iI)^{-1} sends
    [[a, b], [c, d]] to [[P, Q], [Qbar, Pbar]] with

        P = ((a + d) + i(b - c))/2,  Q = ((a - d) - i(b + c))/2;

    the pair satisfies P P^dag - Q Q^dag = I and P Q^t = Q P^t.
    """
    a, b, c, d = blocks(m)
    return 0.5 * ((a + d) + 1j * (b - c)), 0.5 * ((a - d) - 1j * (b + c))


def _ball_matrix(p, q):
    """[[P, Q], [Qbar, Pbar]], the matrix whose Moebius action is the ball action."""
    return from_blocks(p, q, np.conj(q), np.conj(p))


def ball_act(element, point):
    """Action of ((P, Q), alpha) on a ball point (W, z):

    W1 = (W Q^dag + P^dag)^{-1} (Q^t + W P^t),
    z1^t = (W Q^dag + P^dag)^{-1} (z^t + alpha^t - W alphabar^t),

    which is :func:`jacobi.act_xjn` for M = :func:`_ball_matrix` and (lambda, mu) =
    (-alphabar, alpha).  The point is checked as in :func:`fc_transform`; P and Q must be
    n x n and alpha a finite row of length n.  Element and point may be stacks.
    """
    (p, q), alpha = element
    w, z = _checked_point(check_ball_point, *point)
    n = w.shape[-1]
    if np.shape(p)[-2:] != (n, n) or np.shape(q) != np.shape(p):
        raise BadShape(f"P and Q must be {n}x{n}, got {np.shape(p)} and {np.shape(q)}")
    (alpha,) = _rows(n, alpha, dtype=complex)
    return _mobius(_ball_matrix(p, q), w, z - alpha.conj() @ w + alpha)


# ---------------------------------------------------------------------------
# seeded invariance verification


@dataclass(frozen=True)
class InvarianceReport:
    object: str
    n: int
    samples: int
    seed: int
    tol: float
    max_abs: float
    max_rel: float
    mean_rel: float
    worst_sample: int
    passed: bool

    def as_dict(self):
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def _metric_xjn_broken(alpha, gamma, point, t1, t2):
    # negative control: a beta-style contamination that is not invariant
    return _metric_xjn(alpha, gamma, "pq", point, t1, t2) + _dot(_row(t1[2]), _row(t2[2]))


def _times_i(tangent):
    return tuple(1j * np.asarray(c) for c in tangent)


def _draw_group(rng, n):
    g = smp.rand_jacobi(rng, n)
    chart = smp.rand_sn_chart(rng, n)
    embed_g = gj_embed(g)

    def act(c):
        return sn_chart(gj_compose(g, sn_chart_inverse(c)))

    def push(c, image, t):
        # left translation is linear in the embedding: dE(g h) = E(g) dE(h)
        h = sn_chart_inverse(c)
        blks, _, (dq, minus_dp), dk = _jacobi_parts(
            embed_g @ _embed_tangent(h, _d_sn_chart_inverse(c, t)))
        return _d_sn_chart(gj_compose(g, h), (*blks, -minus_dp, dq, dk))

    return act, push, chart, smp.rand_sn_tangent(rng, chart), smp.rand_sn_tangent(rng, chart)


def _draw_xjn(chart):
    # points and tangents are drawn in the pq chart whatever the target chart;
    # the conversion to it is the one entry check of the action
    def draw(rng, n):
        g = smp.rand_jacobi(rng, n)
        point = _from_pq(smp.rand_pq_point(rng, n), chart)

        def act(pt):
            return _from_pq(_act_pq(g, _to_pq(pt, chart)), chart)

        def push(pt, image, t):
            pq, pq1 = _pq_of(pt, chart), _pq_of(image, chart)
            return _tangent_from_pq(pq1, _push_pq(g, pq, pq1, _tangent_to_pq(pq, t, chart)),
                                    chart)

        return act, push, point, smp.rand_pq_tangent(rng, n), smp.rand_pq_tangent(rng, n)

    return draw


def _draw_extended(rng, n):
    g = smp.rand_jacobi(rng, n)
    point, t1, t2 = ((*draw(rng, n), smp._uniform(rng))  # kappa last
                     for draw in (smp.rand_pq_point, smp.rand_pq_tangent, smp.rand_pq_tangent))
    return ((lambda pt: act_extended(g, pt)),
            (lambda pt, image, t: (*_push_pq(g, pt, image, t), _push_kappa(g, t))),
            point, t1, t2)


def _draw_ball(rng, n):
    p, q = sp_to_ball_rep(smp.rand_symplectic(rng, n))
    alpha = smp.rand_complex_row(rng, n)
    m, lam = _ball_matrix(p, q), -alpha.conj()  # ball_act is act_xjn's action of (m, lam)
    return ((lambda pt: ball_act(((p, q), alpha), pt)),
            (lambda pt, image, t: _push_vu(m, lam, pt, image, t)),
            smp.rand_ball_point(rng, n), smp.rand_ball_tangent(rng, n),
            smp.rand_ball_tangent(rng, n))


def _draw_vu(rng, n):
    g = smp.rand_jacobi(rng, n)
    return ((lambda pt: act_xjn(g, pt)),
            (lambda pt, image, t: _push_vu(g.M, g.lam, pt, image, t)),
            smp.rand_vu_point(rng, n), smp.rand_vu_tangent(rng, n), smp.rand_vu_tangent(rng, n))


@dataclass(frozen=True)
class _Spec:
    """Invariance spec of a metric, a Kaehler two-form or (``turn=None``) a one-form.

    ``draw(rng, n)`` returns ``(act, push, point, t1, t2)``: one sample from a
    generator, or a stack of them from a ``sampling.StackStream``.
    ``push(point, image, t)`` is the exact pushforward of a tangent at ``point``
    through ``act``, with ``image = act(point)``; ``t`` may carry a further leading
    axis, which broadcasts against the drawn element.  ``form(point, t1, t2)`` is the
    object.  The action checks the point once, at its entry.  The error is scaled by
    |form(t1, turn t1)| + |form(t2, turn t2)| + |form(t1, t2)|; ``turn`` is 1 for the
    metrics and i for the Kaehler forms, whose diagonal vanishes.  A one-form reads
    t1 only and is scaled by max(1, |form|)."""

    draw: object
    form: object
    turn: object = lambda t: t

    def diagonal(self, point, t1, t2):
        """The triples (point, t, turn t) of the scale's diagonal terms; none for a one-form."""
        return () if self.turn is None else tuple((point, t, self.turn(t)) for t in (t1, t2))

    def scale(self, orig, *diagonal):
        """The error's scale from the value and the form's values at :meth:`diagonal`."""
        if self.turn is None:
            return np.maximum(1.0, _modulus(orig))
        return _modulus(diagonal[0]) + _modulus(diagonal[1]) + _modulus(orig)


_GROUP_PARAMS = MetricParams(1.0, 1.0, 1.0, 1.0)
_KAHLER_PARAMS = KahlerParams(2.0, 1.0)

_INVARIANCE_SPECS = {
    "metric_group": _Spec(
        _draw_group, lambda c, u1, u2: metric_group(_GROUP_PARAMS, c, u1, u2)),
    **{f"metric_xjn_{chart}": _Spec(
        _draw_xjn(chart), lambda pt, u1, u2, c=chart: _metric_xjn(1.0, 1.0, c, pt, u1, u2))
       for chart in XJN_CHARTS},
    "metric_extended": _Spec(
        _draw_extended, lambda pt, u1, u2: _metric_extended(1.0, 1.0, 1.0, pt, u1, u2)),
    "metric_xjn_broken": _Spec(
        _draw_xjn("pq"), lambda pt, u1, u2: _metric_xjn_broken(1.0, 1.0, pt, u1, u2)),
    "kahler_ball": _Spec(
        _draw_ball, lambda pt, u1, u2: _kahler_ball(_KAHLER_PARAMS, *pt, u1, u2), turn=_times_i),
    "kahler_xjn": _Spec(
        _draw_vu, lambda pt, u1, u2: _kahler_xjn(_KAHLER_PARAMS, *pt, u1, u2), turn=_times_i),
    "lambda_R": _Spec(_draw_extended, lambda pt, u1, u2: _lambda_r(pt, u1), turn=None),
}
INVARIANCE_OBJECTS = tuple(_INVARIANCE_SPECS)

# samples evaluated as one stack; a longer run takes several, which bounds its memory
_CHUNK = 1024


def _check_int(name, value, low):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


def _checked_spec(obj, n, seed):
    """The spec of ``obj`` once ``n`` (>= 1) and ``seed`` (>= 0) pass as ints."""
    if obj not in _INVARIANCE_SPECS:
        raise ValueError(f"object must be one of {INVARIANCE_OBJECTS}")
    _check_int("n", n, 1)
    _check_int("seed", seed, 0)
    return _INVARIANCE_SPECS[obj]


def _stack(*trees):
    """Trees of one structure (tuples, SnCharts, arrays, scalars) as one, leaves stacked."""
    if isinstance(trees[0], SnChart):
        fields = (tuple(getattr(t, f) for f in SnChart.__dataclass_fields__) for t in trees)
        return linalg._trusted(SnChart, *_stack(*fields))
    if isinstance(trees[0], tuple):
        return tuple(_stack(*parts) for parts in zip(*trees))
    return np.array(trees)


def _evaluate(spec, n, seed, start, stop):
    """Samples ``start .. stop - 1`` as one stack, drawn from one ``sampling.StackStream``
    (sample i from its own window of the seed's stream): the tuple :func:`replay` returns,
    with value, pulled-back value and scale of shape (stop - start,).  One push takes t1
    and t2 stacked on a new leading axis, and one form call the triples of the value, the
    pulled-back value and the scale's diagonal, stacked likewise (up to 4 x _CHUNK)."""
    act, push, point, t1, t2 = spec.draw(smp.StackStream(seed, n, start, stop), n)
    image = act(point)
    pushed = tuple(zip(*push(point, image, _stack(t1, t2))))
    orig, pulled, *diagonal = spec.form(
        *_stack((point, t1, t2), (image, *pushed), *spec.diagonal(point, t1, t2)))
    return point, t1, t2, image, pushed, orig, pulled, spec.scale(orig, *diagonal)


def _errors(spec, n, samples, seed):
    """Absolute and relative errors of samples 0 .. samples - 1, in stacks of _CHUNK."""
    abs_errs, rel_errs = [], []
    for start in range(0, samples, _CHUNK):
        *_, orig, pulled, scale = _evaluate(spec, n, seed, start, min(start + _CHUNK, samples))
        abs_errs.append(_modulus(pulled - orig))
        rel_errs.append(abs_errs[-1] / np.maximum(scale, 1e-12))
    return np.concatenate(abs_errs), np.concatenate(rel_errs)


def replay(obj, n, seed, i):
    """Sample ``i`` of ``invariance_report(obj, n, seed=seed)`` alone, from its own stream
    window, as a stack of one:
    ``(point, t1, t2, image, (pushed t1, pushed t2), value, pulled-back value, scale)``,
    the last three scalars.  Its error |pulled - value| / max(scale, 1e-12) is the
    report's bit for bit: at ``report.worst_sample`` it is ``report.max_rel``."""
    spec = _checked_spec(obj, n, seed)
    _check_int("i", i, 0)
    *parts, orig, pulled, scale = _evaluate(spec, n, seed, i, i + 1)
    return (*parts, orig[0], pulled[0], scale[0])


def invariance_report(obj, n, samples=1000, seed=0, tol=None):
    """Verify the invariance of a metric/two-form object by random sampling.

    Per sample: draw a group element, a point and two tangents, push the
    tangents through the action by its closed-form differential, and
    compare the pulled-back value with the original.  Errors are reported
    absolutely and relative to the scale of the object on the sampled
    tangents; the run passes when the largest relative error is at most
    ``tol`` (default INVARIANCE_RTOL).  Sample i draws from its own window
    of one Philox stream keyed by ``seed``, so it depends on ``(seed, i)``
    alone, and is evaluated in a stack of up to ``_CHUNK``; ``worst_sample``
    is the first of the largest relative error (see :func:`replay`).  Before any sample: ``n`` and ``samples`` must be
    ints >= 1, ``seed`` an int >= 0, ``tol`` finite and >= 0.
    """
    spec = _checked_spec(obj, n, seed)
    _check_int("samples", samples, 1)
    tol = linalg.INVARIANCE_RTOL if tol is None else tol
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    abs_errs, rel_errs = _errors(spec, n, samples, seed)
    worst = int(np.argmax(rel_errs))
    return InvarianceReport(
        object=obj, n=n, samples=samples, seed=seed, tol=tol,
        max_abs=float(np.max(abs_errs)), max_rel=float(rel_errs[worst]),
        mean_rel=float(np.mean(rel_errs)), worst_sample=worst, passed=bool(rel_errs[worst] <= tol),
    )
