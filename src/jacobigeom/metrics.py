"""Invariant metrics on the Jacobi group and its homogeneous spaces.

Each metric is the Gram form <Phi(t1), Phi(t2)> of a frame Phi(point, t) of
invariant one-forms, linear in the tangent t, and each Kaehler two-form the
Hermitian antisymmetric pairing -Im <Phi(t1), conj Phi(t2)> of a complex one.  A
public call evaluates the frame once, on t1 and t2 stacked, at the point factored
once.  The 4-parameter group metric is the sum of squares of the six weighted
invariant one-form families

    l1 = sqrt(alpha) (F + G),  l2 = sqrt(alpha) H,  l3 = sqrt(beta) (F - G),
    l4 = sqrt(gamma) P,        l5 = sqrt(gamma) Q,  l6 = sqrt(delta) R,

where matrix families are squared in the Frobenius sense tr(A A^t) (for
the possibly non-symmetric H this is a documented choice).  Setting
parameters to zero specializes the metric to the Siegel space (beta =
gamma = delta = 0), the symplectic group (gamma = delta = 0), the
Siegel-Jacobi space (beta = delta = 0) and its extension (beta = 0).

On the Siegel-Jacobi space itself the two-parameter metric has the three
closed coordinate expressions implemented in :func:`metric_xjn`, each the Gram
form of a frame from a factor y = L L^t, which a public call takes from the
``eigh`` of its entry check of y; adding the square of one more invariant one-form,
``delta (dkappa - p dq^t + q dp^t)^2``, gives the three-parameter metric on
the extended space (:func:`metric_extended`).

Kaehler two-forms on the ball and upper-half-space models, the partial
Cayley transform and the normalized/un-normalized coordinate change on
the ball complete the picture; :func:`invariance_report` is the seeded
verification engine used by the acceptance suite.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import sampling as smp
from .heisenberg import _omega
from .jacobi import _act_extended, _act_pq, _act_vu, _from_pq, _point, _pq_of, _push_kappa
from .jacobi import _push_pq, _push_vu, _tangent_from_pq, _tangent_to_pq, gj_compose
from .jacobi import SnChart, gj_embed, sn_chart, sn_chart_inverse
from . import linalg
from .linalg import _checked, _col, _degree, _from_col, _modulus, _mT, _square
from .forms import _checked_sn_tangent, _d_sn_chart, _d_sn_chart_inverse, _embed_tangent
from .forms import _oneforms_sn
from .symplectic import _ball, _jacobi_parts, _mobius, blocks, check_symplectic, from_blocks


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


def _flat(*parts):
    """A frame's components, each (..., a, b) over one stack shape, as one array (..., m)."""
    return np.concatenate([c.reshape(c.shape[:-2] + (-1,)) for c in parts], -1)


def _gram(f1, f2):
    """The pairing of the metrics: the sum of the products of two real frame values."""
    return f1 @ f2 if f1.ndim == 1 else (f1[..., None, :] @ f2[..., None])[..., 0, 0]


def _hermitian(f1, f2):
    """The pairing of the Kaehler forms: (i/2) (h(f1, f2) - h(f2, f1)) = -Im h(f1, f2) with
    h(a, b) = sum a conj(b), of two complex frame values; real, as the two-form is."""
    return -_gram(f1, f2.conj()).imag


def _sn_frame(params, chart, t):
    """:func:`metric_group`'s frame: the weighted families l1 .. l6 of one ``oneforms_sn``."""
    f = _oneforms_sn(chart, t)
    a, b, c, d = np.sqrt((params.alpha, params.beta, params.gamma, params.delta))
    return _flat(a * (f.F + f.G), a * f.H, b * (f.F - f.G), c * f.P, c * f.Q,
                 d * f.R[..., None, None])


def metric_group(params, chart, t1, t2):
    """g(t1, t2) = alpha (<F1 + G1, F2 + G2> + <H1, H2>) + beta <F1 - G1, F2 - G2>
    + gamma (P1 P2^t + Q1 Q2^t) + delta R1 R2 with <A, B> = tr(A B^t): the Gram form of the
    frame l1 .. l6, from one ``oneforms_sn`` evaluation on t1 and t2 stacked (the one-forms are
    linear in the tangent), checked as one pair (``forms._checked_sn_tangent``)."""
    return _gram(*_sn_frame(params, chart, _checked_sn_tangent(chart, (t1, t2), pair=True)))


XJN_CHARTS = ("pq", "chipsi", "xirho")


def _roots(*weights):
    """The square roots of metric weights, once each is finite and >= 0; else ValueError."""
    if not all(0 <= w < np.inf for w in weights):
        raise ValueError(f"metric weights must be nonnegative and finite, got {weights}")
    return tuple(w ** 0.5 for w in weights)


def _factor(eig):
    """(L, L^-1), L = U diag(sqrt w), from the eigenpairs (w, U) of y = U diag(w) U^H = L L^H:
    the factor pair of a public call, from the ``eigh`` of its entry check."""
    w, u = eig
    r = np.sqrt(w)[..., None, :]
    return u * r, _mT(u.conj()) / _mT(r)


def _chol(y):
    """(L, L^-1) with y = L L^H by Cholesky: the factor pair of a point the engine drew."""
    ell = np.linalg.cholesky(y)
    return ell, np.linalg.inv(ell)


def _xjn_frame(roots, chart, point, factor, t, *extra):
    """:func:`metric_xjn`'s frame in ``chart`` at a validated point (or stacks), weighted by
    ``roots``, from a factor pair (L, L^-1) of y = L L^t: (L^-1 dx L^-t, L^-1 dy L^-t), then
    ((dq + dp x) L^-t, dp L) in pq and chipsi or (r L^-t, s L^-t) in xirho, then ``extra``."""
    ell, li = factor
    lit = _mT(li)
    lit_a, lit_c = roots[0] * lit, roots[1] * lit  # weighted once per point, not per tangent
    if chart == "xirho":
        rho = np.atleast_2d(point[3]) @ lit @ li  # rho y^-1
        rows = ((t[2] - rho @ t[0]) @ lit_c, (t[3] - rho @ t[1]) @ lit_c)
    else:
        dp, dq = (t[2], t[3]) if chart == "pq" else (t[3], t[2])
        rows = ((dq + dp @ point[0]) @ lit_c, dp @ (roots[1] * ell))
    return _flat(li @ t[0] @ lit_a, li @ t[1] @ lit_a, *rows, *extra)


def metric_xjn(alpha, gamma, chart, point, t1, t2):
    """Two-parameter invariant metric on the Siegel-Jacobi space.

    Coordinate expressions (bilinear forms; the quadratic versions are
    the stated displays):

    pq:     alpha tr[(y^-1 dx)^2 + (y^-1 dy)^2]
            + gamma [dp (x y^-1 x + y) dp^t + dq y^-1 dq^t + 2 dp x y^-1 dq^t]
    chipsi: the same with dpsi = dp^t, dchi = dq^t;
    xirho:  alpha part + gamma [r y^-1 r^t + s y^-1 s^t] with
            r = dxi - rho y^-1 dx and s = drho - rho y^-1 dy.

    All three agree under the chart conversions; each is the Gram form of
    :func:`_xjn_frame` on t1 and t2 stacked.  The weights must be finite and >= 0 (else
    ValueError); the point and t1, t2 as one pair pass ``jacobi._point``, whose
    eigenpairs of y give the factor (:func:`_factor`).
    """
    if chart not in XJN_CHARTS:
        raise ValueError(f"chart must be one of {XJN_CHARTS}")
    point, eig, t = _point("xjn", point, t1, t2, pair=True)
    return _gram(*_xjn_frame(_roots(alpha, gamma), chart, point, _factor(eig), t))


def lambda_r(point_pq_kappa, tangent):
    """The invariant one-form  dkappa - p dq^t + q dp^t = dkappa - omega((p, q), (dp, dq))
    on the extended space.  The point (x, y, p, q, kappa) and the tangent
    (dx, dy, dp, dq, dkappa) pass ``jacobi._point``."""
    point, _, tangent = _point("extended", point_pq_kappa, tangent)
    return _lambda_r(point, tangent)


def _lambda_r(point, tangent):
    """:func:`lambda_r` at a point and tangent the library has validated or built."""
    return tangent[4] - _omega(point[2:4], tangent[2:4])


def _extended_frame(roots, point, factor, t):
    """:func:`metric_extended`'s frame: the pq frame, then sqrt(delta) lambda_R."""
    return _xjn_frame(roots[:2], "pq", point, factor, t,
                      roots[2] * _lambda_r(point, t)[..., None, None])


def metric_extended(alpha, gamma, delta, point, t1, t2):
    """Three-parameter metric on the extended space: the pq metric plus
    delta * lambda_R (x) lambda_R, the Gram form of :func:`_extended_frame`.  Point and
    tangents carry kappa last and are checked as in :func:`metric_xjn`."""
    point, eig, t = _point("extended", point, t1, t2, pair=True)
    return _gram(*_extended_frame(_roots(alpha, gamma, delta), point, _factor(eig), t))


# ---------------------------------------------------------------------------
# ball model, partial Cayley transform, FC coordinate change


def check_ball_point(w):
    """Return W (or a stack of them) as complex once a ball point (``symplectic._ball``)."""
    w = _square(w, complex)
    _ball(w[None])
    return w


def fc_transform(w, z):
    """Coordinate change z -> eta on the ball: eta = (I - W Wbar)^{-1} (z^t + W zbar^t)."""
    (w, z), _ = _point("ball", (w, z))
    return _from_col(np.linalg.solve(np.eye(w.shape[-1]) - w @ w.conj(),
                                     _col(z) + w @ _col(z.conj())))


def fc_inverse(w, eta):
    """Inverse change eta -> z:  z = eta - etabar W^t, rows or stacks of rows."""
    (w, eta), _ = _point("ball", (w, eta))
    return eta - eta.conj() @ _mT(w)


def cayley(v, u):
    """Partial Cayley transform to the ball, the Moebius map of [[I, -iI], [I, iI]] with the
    row 2i u:  W = (v - iI)(v + iI)^{-1}, z^t = 2i (v + iI)^{-1} u^t.  Sends iI to the
    center.  The point (v, u) passes ``jacobi._point``, as in :func:`jacobi.act_xjn`."""
    (v, u), _ = _point("vu", (v, u))
    eye = np.eye(v.shape[-1])
    w, z = _mobius(from_blocks(eye, -1j * eye, eye, 1j * eye), v, 2j * u)
    return check_ball_point(w), z


def cayley_inverse(w, z):
    """Inverse Cayley, the Moebius map of [[iI, iI], [-I, I]] with the row z:
    v = i (I - W)^{-1} (I + W),  u^t = (I - W)^{-1} z^t."""
    (w, z), _ = _point("ball", (w, z))
    eye = np.eye(w.shape[-1])
    return _mobius(from_blocks(1j * eye, 1j * eye, -eye, eye), w, z)


def g_form(v, u, tangent):
    """Row form  G^t = du - (u - ubar)(v - vbar)^{-1} dv  at a Siegel-Jacobi point.

    In pq coordinates this equals dp v + dq.  The point and the tangent (dv, du) pass
    ``jacobi._point``.
    """
    (v, u), _, (dv, du) = _point("vu", (v, u), tangent)
    coeff = _from_col(np.linalg.solve(_mT(v - v.conj()), _col(u - u.conj())))
    return du - coeff @ dv


def _ball_frame(kparams, w, z, factor, t):
    """:func:`kahler_ball`'s frame at a validated ball point (or stacks), from a factor pair
    (K, K^-1) of I - W Wbar = K K^H (M = K^-H K^-1): sqrt(k) K^-1 dW K^-t and
    sqrt(2 nu) (dz + etabar dW^t) K^-t."""
    ki = factor[1]
    kit = _mT(ki)
    z = np.atleast_2d(z)
    eta_bar = (z.conj() + z @ w.conj()) @ kit.conj() @ ki  # eta = (z + zbar W) M^t
    return _flat(np.sqrt(kparams.k) * (ki @ t[0] @ kit),
                 np.sqrt(2 * kparams.nu) * ((t[1] + eta_bar @ _mT(t[0])) @ kit))


def kahler_ball(kparams, w, z, t1, t2):
    """Kaehler two-form of the ball model evaluated on two tangents.

    -i omega = (k/2) tr(B wedge Bbar) + nu tr(A^t Mbar wedge Abar) with
    M = (I - W Wbar)^{-1}, B = M dW, A = dz^t + dW etabar and eta the FC image
    of z; real, from :func:`_ball_frame`.  The point and t1, t2 as one pair pass
    ``jacobi._point``, whose eigenpairs give the factor.
    """
    (w, z), eig, t = _point("ball", (w, z), t1, t2, pair=True)
    return _hermitian(*_ball_frame(kparams, w, z, _factor(eig), t))


def _vu_frame(kparams, v, u, factor, t):
    """:func:`kahler_xjn`'s frame at a validated point (or stacks), from a factor pair
    (L, L^-1) of Im v = y = L L^t: sqrt(k/4) L^-1 dv L^-t and sqrt(2 nu) G L^-t, G the row
    of g_form."""
    li = factor[1]
    lit = _mT(li)
    h = li @ t[0] @ lit
    return _flat(np.sqrt(kparams.k / 4) * h,
                 np.sqrt(2 * kparams.nu) * (t[1] @ lit - (np.atleast_2d(u.imag) @ lit) @ h))


def kahler_xjn(kparams, v, u, t1, t2):
    """Kaehler two-form of the upper-half-space model.

    -i omega = (k/2) tr(H wedge Hbar) + (2 nu / i) tr(G^t D wedge Gbar)
    with D = (vbar - v)^{-1} and H = D dv; real, from :func:`_vu_frame`.  The point and
    the tangents are checked as in :func:`kahler_ball`.
    """
    (v, u), eig, t = _point("vu", (v, u), t1, t2, pair=True)
    return _hermitian(*_vu_frame(kparams, v, u, _factor(eig), t))


# ---------------------------------------------------------------------------
# complexified symplectic representation acting on the ball


def sp_to_ball_rep(m):
    """Map a real symplectic matrix to the (P, Q) pair of its ball-model form.

    Conjugation by the Cayley map W = (v - iI)(v + iI)^{-1} sends
    [[a, b], [c, d]] to [[P, Q], [Qbar, Pbar]] with

        P = ((a + d) + i(b - c))/2,  Q = ((a - d) - i(b + c))/2;

    the pair satisfies P P^dag - Q Q^dag = I and P Q^t = Q P^t.  M is checked symplectic.
    """
    return _sp_to_ball_rep(check_symplectic(m))


def _sp_to_ball_rep(m):
    """:func:`sp_to_ball_rep` of a symplectic matrix the library has drawn or validated."""
    a, b, c, d = blocks(m)
    return 0.5 * ((a + d) + 1j * (b - c)), 0.5 * ((a - d) - 1j * (b + c))


def _ball_matrix(pq):
    """[[P, Q], [Qbar, Pbar]] of pq = (P, Q), the matrix whose Moebius action is the ball action."""
    return from_blocks(*pq, np.conj(pq[1]), np.conj(pq[0]))


def ball_act(element, point):
    """Action of ((P, Q), alpha) on a ball point (W, z):

    W1 = (W Q^dag + P^dag)^{-1} (Q^t + W P^t),
    z1^t = (W Q^dag + P^dag)^{-1} (z^t + alpha^t - W alphabar^t),

    the kernel ``jacobi._act_vu`` of :func:`jacobi.act_xjn` for M = :func:`_ball_matrix` and
    (lambda, mu) = (-alphabar, alpha).  (P, Q, alpha) is read as one complex tuple
    (``linalg._checked``): P and Q square, alpha a finite row of length n, all of one stack
    shape; the values of P and Q meet the action's SingularDenominator.  The point passes
    ``jacobi._point`` with the element acting (``linalg._fit``).
    """
    (p, q), alpha = element
    p, _, alpha, m = _checked("ball_act", _degree((p, q)), (p, q, alpha), matrices=_ball_matrix)
    (w, z), _ = _point("ball", point, by=(p.shape[:-2], p.shape[-1]))
    return _act_vu(m, -alpha.conj(), alpha, w, z)


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


def _draw_group(rng, n):
    g = smp.rand_jacobi(rng, n)
    chart = smp.rand_sn_chart(rng, n)
    embed_g, made = gj_embed(g), [None] * 3

    def compose(c):  # (h, g h) of chart c, made once for act and the push at the same chart
        if made[0] is not c:
            h = sn_chart_inverse(c)
            made[:] = c, h, gj_compose(g, h)
        return made[1:]

    def act(c):
        return sn_chart(compose(c)[1])

    def push(c, image, t):
        # left translation is linear in the embedding: dE(g h) = E(g) dE(h)
        h, gh = compose(c)
        made[:] = None, None, None  # not held through the frame evaluation, the report's peak
        blks, _, (dq, minus_dp), dk = _jacobi_parts(
            embed_g @ _embed_tangent(h, _d_sn_chart_inverse(c, t)))
        # copies of the rows: views would keep the whole embedded product alive
        return _d_sn_chart(gh, (*blks, -minus_dp, dq.copy(), dk.copy()))

    return act, push, chart, smp.rand_sn_tangent(rng, chart), smp.rand_sn_tangent(rng, chart)


def _draw_xjn(chart):
    # points and tangents are drawn in the pq chart whatever the target chart; the
    # action reads its point back through the unchecked conversion _pq_of
    def draw(rng, n):
        g = smp.rand_jacobi(rng, n)
        point = _from_pq(smp.rand_pq_point(rng, n), chart)

        def act(pt):
            return _from_pq(_act_pq(g, _pq_of(pt, chart)), chart)

        def push(pt, image, t):
            pq, pq1 = _pq_of(pt, chart), _pq_of(image, chart)
            return _tangent_from_pq(pq1, _push_pq(g, pq, pq1, _tangent_to_pq(pq, t, chart)),
                                    chart)

        return act, push, point, smp.rand_pq_tangent(rng, n), smp.rand_pq_tangent(rng, n)

    return draw


def _draw_extended(rng, n):
    g, v = smp.rand_jacobi(rng, n), smp.rand_siegel(rng, n)
    point = (v.real, v.imag, *smp._draw(rng, n, "rrk"))  # rand_pq_point's, kappa last
    t1, t2 = (tuple(smp._draw(rng, n, "ssrrk")) for _ in range(2))  # rand_pq_tangent's
    return ((lambda pt: _act_extended(g, pt)),
            (lambda pt, image, t: (*_push_pq(g, pt, image, t), _push_kappa(g, t))),
            point, t1, t2)


def _vu_action(m, lam, mu):
    """(act, push) of act_xjn's action of (m, lam, mu), and so of ball_act's."""
    return ((lambda pt: _act_vu(m, lam, mu, *pt)),
            (lambda pt, image, t: _push_vu(m, lam, pt, image, t)))


def _draw_ball(rng, n):
    pq = _sp_to_ball_rep(smp.rand_symplectic(rng, n))
    alpha = smp.rand_complex_row(rng, n)
    return (*_vu_action(_ball_matrix(pq), -alpha.conj(), alpha), smp.rand_ball_point(rng, n),
            smp.rand_ball_tangent(rng, n), smp.rand_ball_tangent(rng, n))


def _draw_vu(rng, n):
    g = smp.rand_jacobi(rng, n)
    return (*_vu_action(g.M, g.lam, g.mu), smp.rand_vu_point(rng, n),
            smp.rand_vu_tangent(rng, n), smp.rand_vu_tangent(rng, n))


@dataclass(frozen=True)
class _Spec:
    """Invariance spec of a metric, a Kaehler two-form or (``turn=None``) a one-form.

    ``draw(rng, n)`` returns ``(act, push, point, t1, t2)``: one sample from a generator,
    or a stack of them from a ``sampling.StackStream``.  ``push(point, image, t)`` is the
    exact pushforward through ``act`` (``image = act(point)``); t may carry a further
    leading axis.  The object is ``pair(f1, f2)`` with f1, f2 = ``frame(point, t)``, linear
    in t, at t1, t2; a stack of points broadcasts against tangents with further leading
    axes.  The error is scaled by |pair(f1, turn f1)| + |pair(f2, turn f2)| + |value|, with
    ``turn`` 1 for the metrics and i for the Kaehler forms, whose diagonal vanishes; for a
    one-form (a frame of one component, read at t1) by max(1, |value|)."""

    draw: object
    frame: object
    pair: object = _gram
    turn: object = 1

    def scale(self, orig, f1, f2):
        """The error's scale from the value and the frame values f1, f2 of t1, t2."""
        if self.turn is None:
            return np.maximum(1.0, _modulus(orig))
        return (_modulus(self.pair(f1, self.turn * f1)) + _modulus(self.pair(f2, self.turn * f2))
                + _modulus(orig))


_GROUP_PARAMS = MetricParams(1.0, 1.0, 1.0, 1.0)
_KAHLER_PARAMS = KahlerParams(2.0, 1.0)
_UNIT = (1.0, 1.0, 1.0)  # the square roots of unit metric weights

_INVARIANCE_SPECS = {
    "metric_group": _Spec(_draw_group, lambda c, t: _sn_frame(_GROUP_PARAMS, c, t)),
    **{f"metric_xjn_{chart}": _Spec(_draw_xjn(chart), lambda pt, t, c=chart: _xjn_frame(
        _UNIT[:2], c, pt, _chol(pt[1]), t)) for chart in XJN_CHARTS},
    "metric_extended": _Spec(
        _draw_extended, lambda pt, t: _extended_frame(_UNIT, pt, _chol(pt[1]), t)),
    # negative control: a beta-style contamination dp1 dp2^t that is not invariant
    "metric_xjn_broken": _Spec(_draw_xjn("pq"), lambda pt, t: _xjn_frame(
        _UNIT[:2], "pq", pt, _chol(pt[1]), t, t[2])),
    "kahler_ball": _Spec(_draw_ball, lambda pt, t: _ball_frame(
        _KAHLER_PARAMS, *pt, _chol(np.eye(pt[0].shape[-1]) - pt[0] @ pt[0].conj()), t),
        _hermitian, 1j),
    "kahler_xjn": _Spec(_draw_vu, lambda pt, t: _vu_frame(
        _KAHLER_PARAMS, *pt, _chol(pt[0].imag), t), _hermitian, 1j),
    "lambda_R": _Spec(_draw_extended, lambda pt, t: _lambda_r(pt, t)[..., None],
                      lambda f1, f2: f1[..., 0], None),
}
INVARIANCE_OBJECTS = tuple(_INVARIANCE_SPECS)

# stream words of the samples evaluated as one stack (see _stack_len); a longer run takes
# several stacks, which bounds its memory: 4096 samples at n = 1, 135 at n = 10
_STACK_WORDS = 2 ** 18


def _stack_len(n):
    """Samples per stack at degree n: _STACK_WORDS over a sample's stream window, in [1, 16384]."""
    return min(max(_STACK_WORDS // smp.window_words(n), 1), 16384)


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


def _stack(*trees, apart=False):
    """Trees of one structure (tuples and SnCharts with their frames, over arrays and scalars) as
    one, each column of leaves stacked by one ``np.array``, ``apart`` each a stack of one:
    (len(trees), 1, ...)."""
    if isinstance(trees[0], SnChart):
        fields = (tuple(getattr(t, f) for f in SnChart.__dataclass_fields__) for t in trees)
        return linalg._trusted(SnChart, *_stack(*fields, apart=apart))
    return tuple(_stack(*col, apart=apart) if isinstance(col[0], (tuple, SnChart))
                 else np.array(col)[:, None] if apart else np.array(col) for col in zip(*trees))


def _evaluate(spec, n, seed, start, stop):
    """Samples ``start .. stop - 1`` as one stack, drawn from one ``sampling.StackStream``
    (sample i from its own window of the seed's stream): the tuple :func:`replay` returns,
    with value, pulled-back value and scale of shape (stop - start,).  One push takes t1
    and t2 stacked on a new leading axis, and one frame call the four distinct (point,
    tangent) pairs: the point and the image, stacked as (2, 1, k), against (t1, t2) and
    their pushes, stacked as (2, 2, k); each point is factored once, for both tangents."""
    act, push, point, t1, t2 = spec.draw(smp.StackStream(seed, n, start, stop), n)
    image, tangents = act(point), _stack(t1, t2)
    pushed = tuple(push(point, image, tangents))
    tangents = _stack(tangents, pushed)  # (t1, t2) freed before the frame evaluation, the peak
    (f1, f2), (g1, g2) = spec.frame(_stack(point, image, apart=True), tangents)
    orig = spec.pair(f1, f2)
    return (point, t1, t2, image, tuple(zip(*pushed)), orig, spec.pair(g1, g2),
            spec.scale(orig, f1, f2))


def _errors(spec, n, samples, seed):
    """Absolute and relative errors of samples 0 .. samples - 1, in stacks of _stack_len(n)."""
    abs_errs, rel_errs = np.empty(samples), np.empty(samples)
    step = _stack_len(n)
    for start in range(0, samples, step):
        stop = min(start + step, samples)
        *_, orig, pulled, scale = _evaluate(spec, n, seed, start, stop)
        abs_errs[start:stop] = _modulus(pulled - orig)
        rel_errs[start:stop] = abs_errs[start:stop] / np.maximum(scale, 1e-12)
    return abs_errs, rel_errs


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
    alone, and is evaluated in a stack of up to ``_stack_len(n)`` samples;
    ``worst_sample`` is the first of the largest relative error (see
    :func:`replay`).  Before any sample: ``n`` and ``samples`` must be ints
    >= 1, ``seed`` an int >= 0, ``tol`` finite and >= 0.
    """
    spec = _checked_spec(obj, n, seed)
    _check_int("samples", samples, 1)
    tol = linalg.INVARIANCE_RTOL if tol is None else tol
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    abs_errs, rel_errs = _errors(spec, n, samples, seed)
    worst = int(rel_errs.argmax())  # the array methods: a third of np.argmax's call cost
    return InvarianceReport(
        object=obj, n=n, samples=samples, seed=seed, tol=tol,
        max_abs=float(abs_errs.max()), max_rel=float(rel_errs[worst]),
        mean_rel=float(rel_errs.mean()), worst_sample=worst, passed=bool(rel_errs[worst] <= tol),
    )
