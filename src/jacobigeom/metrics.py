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
from .heisenberg import _omega
from .jacobi import _act_pq, _from_pq, _to_pq, act_extended, act_xjn, gj_compose
from .jacobi import pq_from_lm, sn_chart, sn_chart_inverse
from . import linalg
from .linalg import _gate, _row, sym_residual
from .numdiff import fd_push, fd_push_sn
from .forms import oneforms_sn
from .symplectic import _siegel_xy, blocks, check_siegel


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
    ``oneforms_sn`` per tangent: the one-forms are linear in the tangent."""
    f1, f2 = oneforms_sn(chart, t1), oneforms_sn(chart, t2)
    val = params.alpha * (np.vdot(f1.F + f1.G, f2.F + f2.G) + np.vdot(f1.H, f2.H))
    val += params.beta * np.vdot(f1.F - f1.G, f2.F - f2.G)
    val += params.gamma * (float(f1.P @ f2.P) + float(f1.Q @ f2.Q))
    val += params.delta * f1.R * f2.R
    return val


XJN_CHARTS = ("pq", "chipsi", "xirho")


def _check_arity(size, **parts):
    """Raise BadShape unless each named tuple has ``size`` components."""
    for name, part in parts.items():
        if len(part) != size:
            raise BadShape(f"{name} must have {size} components, got {len(part)}")


def metric_xjn(alpha, gamma, chart, point, t1, t2):
    """Two-parameter invariant metric on the Siegel-Jacobi space.

    Coordinate expressions (bilinear forms; the quadratic versions are
    the stated displays):

    pq:     alpha tr[(y^-1 dx)^2 + (y^-1 dy)^2]
            + gamma [dp (x y^-1 x + y) dp^t + dq y^-1 dq^t + 2 dp x y^-1 dq^t]
    chipsi: the same with dpsi = dp^t, dchi = dq^t;
    xirho:  alpha part + gamma [r y^-1 r^t + s y^-1 s^t] with
            r = dxi - rho y^-1 dx and s = drho - rho y^-1 dy.

    All three agree under the chart conversions.
    """
    if chart not in XJN_CHARTS:
        raise ValueError(f"chart must be one of {XJN_CHARTS}")
    _check_arity(4, point=point, t1=t1, t2=t2)
    x, y = _siegel_xy(point[0], point[1])
    yi = np.linalg.inv(y)
    dx1, dy1 = np.asarray(t1[0], dtype=float), np.asarray(t1[1], dtype=float)
    dx2, dy2 = np.asarray(t2[0], dtype=float), np.asarray(t2[1], dtype=float)
    val = alpha * float(np.trace(yi @ dx1 @ yi @ dx2) + np.trace(yi @ dy1 @ yi @ dy2))

    if chart in ("pq", "chipsi"):
        # chipsi stores the transposed rows; the bilinear form is identical
        dp1, dq1 = (_row(t1[2]), _row(t1[3])) if chart == "pq" else (_row(t1[3]), _row(t1[2]))
        dp2, dq2 = (_row(t2[2]), _row(t2[3])) if chart == "pq" else (_row(t2[3]), _row(t2[2]))
        core = x @ yi @ x + y
        cross = x @ yi
        val += gamma * (float(dp1 @ core @ dp2)
                        + float(dq1 @ yi @ dq2)
                        + float(dp1 @ cross @ dq2) + float(dp2 @ cross @ dq1))
        return val

    rho = _row(point[3])
    r1 = _row(t1[2]) - rho @ yi @ dx1
    s1 = _row(t1[3]) - rho @ yi @ dy1
    r2 = _row(t2[2]) - rho @ yi @ dx2
    s2 = _row(t2[3]) - rho @ yi @ dy2
    val += gamma * (float(r1 @ yi @ r2) + float(s1 @ yi @ s2))
    return val


def lambda_r(point_pq_kappa, tangent):
    """The invariant one-form  dkappa - p dq^t + q dp^t = dkappa - omega((p, q), (dp, dq))
    on the extended space."""
    _check_arity(5, point=point_pq_kappa, tangent=tangent)
    p, q = _row(point_pq_kappa[2]), _row(point_pq_kappa[3])
    dp, dq, dk = _row(tangent[2]), _row(tangent[3]), float(tangent[4])
    return dk - _omega((p, q), (dp, dq))


def metric_extended(alpha, gamma, delta, point, t1, t2):
    """Three-parameter metric on the extended space: the pq metric plus
    delta * lambda_R (x) lambda_R.  Point and tangents carry kappa last."""
    _check_arity(5, point=point, t1=t1, t2=t2)
    base = metric_xjn(alpha, gamma, "pq", point[:4], t1[:4], t2[:4])
    return base + delta * lambda_r(point, t1) * lambda_r(point, t2)


# ---------------------------------------------------------------------------
# ball model, partial Cayley transform, FC coordinate change


def check_ball_point(w):
    w = np.asarray(w, dtype=complex)
    _gate(sym_residual(w), linalg.BALL_SYM_RTOL, ContractionViolation, "asymmetry of W")
    contraction = np.eye(w.shape[0]) - w @ w.conj()
    _gate(np.linalg.eigvalsh(0.5 * (contraction + contraction.conj().T))[0], linalg.BALL_MIN_EIG,
          ContractionViolation, "smallest eigenvalue of I - W conj(W)", lower=True)
    return w


def fc_transform(w, z):
    """Coordinate change z -> eta on the ball: eta = (I - W Wbar)^{-1} (z^t + W zbar^t)."""
    w = check_ball_point(w)
    z = np.asarray(z, dtype=complex).ravel()
    m = np.linalg.inv(np.eye(w.shape[0]) - w @ w.conj())
    return m @ (z + w @ z.conj())


def fc_inverse(w, eta):
    """Inverse change eta -> z:  z^t = eta - W etabar."""
    w = check_ball_point(w)
    eta = np.asarray(eta, dtype=complex).ravel()
    return eta - w @ eta.conj()


def cayley(v, u):
    """Partial Cayley transform to the ball:  W = (v - iI)(v + iI)^{-1},
    z^t = 2i (v + iI)^{-1} u^t.  Sends iI to the center."""
    v = check_siegel(v)
    u = np.asarray(u, dtype=complex).ravel()
    n = v.shape[0]
    eye = np.eye(n)
    w = np.linalg.solve((v + 1j * eye).T, (v - 1j * eye).T).T
    w = 0.5 * (w + w.T)
    z = 2j * np.linalg.solve(v + 1j * eye, u)
    return check_ball_point(w), z


def cayley_inverse(w, z):
    """Inverse Cayley:  v = i (I - W)^{-1} (I + W),  u^t = (I - W)^{-1} z^t."""
    w = check_ball_point(w)
    z = np.asarray(z, dtype=complex).ravel()
    n = w.shape[0]
    eye = np.eye(n)
    v = 1j * np.linalg.solve(eye - w, eye + w)
    return 0.5 * (v + v.T), np.linalg.solve(eye - w, z)


def g_form(v, u, tangent):
    """Row form  G^t = du - (u - ubar)(v - vbar)^{-1} dv  at a Siegel-Jacobi point.

    In pq coordinates this equals dp v + dq.
    """
    return _g_form(check_siegel(v), u, tangent)


def _g_form(v, u, tangent):
    """:func:`g_form` at a Siegel point ``v`` the caller has checked."""
    dv, du = tangent
    u = np.asarray(u, dtype=complex).ravel()
    dv = np.asarray(dv, dtype=complex)
    du = np.asarray(du, dtype=complex).ravel()
    diff = v - v.conj()
    coeff = np.linalg.solve(diff.T, (u - u.conj()))
    return du - coeff @ dv


def kahler_ball(kparams, w, z, t1, t2):
    """Kaehler two-form of the ball model evaluated on two tangents.

    -i omega = (k/2) tr(B wedge Bbar) + nu tr(A^t Mbar wedge Abar) with
    M = (I - W Wbar)^{-1}, B = M dW, A = dz^t + dW etabar and eta the
    FC image of z.  Antisymmetric in (t1, t2).
    """
    w = check_ball_point(w)
    z = np.asarray(z, dtype=complex).ravel()
    m = np.linalg.inv(np.eye(w.shape[0]) - w @ w.conj())
    eta = m @ (z + w @ z.conj())

    def parts(t):
        dw = np.asarray(t[0], dtype=complex)
        dz = np.asarray(t[1], dtype=complex).ravel()
        return m @ dw, dz + dw @ eta.conj()

    b1, a1 = parts(t1)
    b2, a2 = parts(t2)
    mbar = m.conj()
    val = 0.5 * kparams.k * (np.trace(b1 @ b2.conj()) - np.trace(b2 @ b1.conj()))
    val += kparams.nu * (a1 @ mbar @ a2.conj() - a2 @ mbar @ a1.conj())
    return 1j * val


def kahler_xjn(kparams, v, u, t1, t2):
    """Kaehler two-form of the upper-half-space model.

    -i omega = (k/2) tr(H wedge Hbar) + (2 nu / i) tr(G^t D wedge Gbar)
    with D = (vbar - v)^{-1} and H = D dv.
    """
    v = check_siegel(v)
    dmat = np.linalg.inv(v.conj() - v)

    def parts(t):
        dv = np.asarray(t[0], dtype=complex)
        return dmat @ dv, _g_form(v, u, t)

    h1, g1 = parts(t1)
    h2, g2 = parts(t2)
    val = 1j * 0.5 * kparams.k * (np.trace(h1 @ h2.conj()) - np.trace(h2 @ h1.conj()))
    val += 2.0 * kparams.nu * (g1 @ dmat @ g2.conj() - g2 @ dmat @ g1.conj())
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
    p = 0.5 * ((a + d) + 1j * (b - c))
    q = 0.5 * ((a - d) - 1j * (b + c))
    return p, q


def ball_act(element, point):
    """Action of ((P, Q), alpha) on a ball point (W, z):

    W1 = (W Q^dag + P^dag)^{-1} (Q^t + W P^t),
    z1^t = (W Q^dag + P^dag)^{-1} (z^t + alpha^t - W alphabar^t).
    """
    (p, q), alpha = element
    w, z = point
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex).ravel()
    alpha = np.asarray(alpha, dtype=complex).ravel()
    den = w @ q.conj().T + p.conj().T
    w1 = np.linalg.solve(den, q.T + w @ p.T)
    w1 = 0.5 * (w1 + w1.T)
    z1 = np.linalg.solve(den, z + alpha - w @ alpha.conj())
    return w1, z1


# ---------------------------------------------------------------------------
# seeded invariance verification


@dataclass(frozen=True)
class InvarianceReport:
    object: str
    n: int
    samples: int
    seed: int
    fd_step: float
    tol: float
    max_abs: float
    max_rel: float
    mean_rel: float
    passed: bool

    def as_dict(self):
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def _metric_xjn_broken(alpha, gamma, point, t1, t2):
    # negative control: a beta-style contamination that is not invariant
    return (metric_xjn(alpha, gamma, "pq", point, t1, t2)
            + float(_row(t1[2]) @ _row(t2[2])))


def _with_kappa(rng, parts):
    return parts + (float(rng.uniform(-1, 1)),)


def _times_i(tangent):
    return tuple(1j * np.asarray(c) for c in tangent)


def _draw_group(rng, n):
    g = smp.rand_jacobi(rng, n)
    chart = smp.rand_sn_chart(rng, n)

    def act(c):
        return sn_chart(gj_compose(g, sn_chart_inverse(c)))

    return act, chart, smp.rand_sn_tangent(rng, chart), smp.rand_sn_tangent(rng, chart)


def _draw_xjn(chart):
    # points and tangents are drawn in the pq chart whatever the target chart;
    # the conversion to it is the one entry check of the action
    def draw(rng, n):
        g = smp.rand_jacobi(rng, n)
        point = _from_pq(smp.rand_pq_point(rng, n), chart)

        def act(pt):
            return _from_pq(_act_pq(g, _to_pq(pt, chart)), chart)

        return act, point, smp.rand_pq_tangent(rng, n), smp.rand_pq_tangent(rng, n)

    return draw


def _draw_extended(rng, n):
    g = smp.rand_jacobi(rng, n)
    point = _with_kappa(rng, smp.rand_pq_point(rng, n))
    t1 = _with_kappa(rng, smp.rand_pq_tangent(rng, n))
    t2 = _with_kappa(rng, smp.rand_pq_tangent(rng, n))
    return (lambda pt: act_extended(g, pt)), point, t1, t2


def _draw_ball(rng, n):
    pq_pair = sp_to_ball_rep(smp.rand_symplectic(rng, n))
    alpha = (smp.rand_matrix(rng, 1, n) + 1j * smp.rand_matrix(rng, 1, n)).ravel()
    return ((lambda pt: ball_act((pq_pair, alpha), pt)), smp.rand_ball_point(rng, n),
            smp.rand_ball_tangent(rng, n), smp.rand_ball_tangent(rng, n))


def _draw_vu(rng, n):
    g = smp.rand_jacobi(rng, n)
    return ((lambda pt: act_xjn(g, pt)), smp.rand_vu_point(rng, n),
            smp.rand_vu_tangent(rng, n), smp.rand_vu_tangent(rng, n))


@dataclass(frozen=True)
class _Bilinear:
    """Invariance spec of a metric or a Kaehler two-form.

    ``draw(rng, n)`` returns ``(act, point, t1, t2)`` and fixes the order in
    which a sample consumes the rng; ``push(act, point, t, step)`` carries a
    tangent through the action; ``form(point, t1, t2)`` is the object.  The
    error is scaled by |form(t1, turn t1)| + |form(t2, turn t2)| + |form(t1, t2)|,
    where ``turn`` is the identity for metrics and multiplication by i for
    the Kaehler forms, whose diagonal vanishes.
    """

    draw: object
    form: object
    push: object = fd_push
    turn: object = lambda t: t

    def __call__(self, rng, n, step):
        act, point, t1, t2 = self.draw(rng, n)
        image = act(point)
        s1 = self.push(act, point, t1, step)
        s2 = self.push(act, point, t2, step)
        orig = self.form(point, t1, t2)
        scale = (abs(self.form(point, t1, self.turn(t1)))
                 + abs(self.form(point, t2, self.turn(t2))) + abs(orig))
        return orig, self.form(image, s1, s2), scale


def _lambda_r_sample(rng, n, step):
    # lambda_R is a one-form and the action is affine in (p, q, kappa), so the
    # tangent is pushed exactly and the error is scaled by max(1, |value|)
    g = smp.rand_jacobi(rng, n)
    point = _with_kappa(rng, smp.rand_pq_point(rng, n))
    tan = _with_kappa(rng, smp.rand_pq_tangent(rng, n))
    dp, dq, dk = tan[2:]
    pushed = (tan[0], tan[1], *pq_from_lm(dp, dq, g.M), dk + _omega((g.lam, g.mu), (dp, dq)))
    orig = lambda_r(point, tan)
    return orig, lambda_r(act_extended(g, point), pushed), max(1.0, abs(orig))


_GROUP_PARAMS = MetricParams(1.0, 1.0, 1.0, 1.0)
_KAHLER_PARAMS = KahlerParams(2.0, 1.0)

# object -> sample(rng, n, fd_step) returning (value, pulled-back value, scale)
_INVARIANCE_SPECS = {
    "metric_group": _Bilinear(
        _draw_group, lambda c, u1, u2: metric_group(_GROUP_PARAMS, c, u1, u2), fd_push_sn),
    **{f"metric_xjn_{chart}": _Bilinear(
        _draw_xjn(chart), lambda pt, u1, u2, c=chart: metric_xjn(1.0, 1.0, c, pt, u1, u2))
       for chart in XJN_CHARTS},
    "metric_extended": _Bilinear(
        _draw_extended, lambda pt, u1, u2: metric_extended(1.0, 1.0, 1.0, pt, u1, u2)),
    "metric_xjn_broken": _Bilinear(
        _draw_xjn("pq"), lambda pt, u1, u2: _metric_xjn_broken(1.0, 1.0, pt, u1, u2)),
    "kahler_ball": _Bilinear(
        _draw_ball, lambda pt, u1, u2: kahler_ball(_KAHLER_PARAMS, *pt, u1, u2), turn=_times_i),
    "kahler_xjn": _Bilinear(
        _draw_vu, lambda pt, u1, u2: kahler_xjn(_KAHLER_PARAMS, *pt, u1, u2), turn=_times_i),
    "lambda_R": _lambda_r_sample,
}
INVARIANCE_OBJECTS = tuple(_INVARIANCE_SPECS)


def invariance_report(obj, n, samples=1000, seed=0, fd_step=1e-6, tol=1e-6):
    """Verify the invariance of a metric/two-form object by random sampling.

    Per sample: draw a group element, a point and two tangents, push the
    tangents through the action by central differences (exactly, for the
    affine lambda_R case), and compare the pulled-back value with the
    original.  Errors are reported absolutely and relative to the scale
    of the object on the sampled tangents.  Deterministic given the seed.
    Before any sample: ``n`` and ``samples`` must be ints >= 1, ``fd_step``
    finite and > 0, ``tol`` finite and >= 0.
    """
    if obj not in _INVARIANCE_SPECS:
        raise ValueError(f"object must be one of {INVARIANCE_OBJECTS}")
    for name, value in (("n", n), ("samples", samples)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if not (np.isfinite(fd_step) and fd_step > 0):
        raise ValueError(f"fd_step must be finite and positive, got {fd_step!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    sample = _INVARIANCE_SPECS[obj]
    rng = np.random.default_rng(seed)
    abs_errs = np.zeros(samples)
    rel_errs = np.zeros(samples)
    for i in range(samples):
        orig, pulled, scale = sample(rng, n, fd_step)
        err = abs(pulled - orig)
        abs_errs[i] = err
        rel_errs[i] = err / max(scale, 1e-12)

    max_rel = float(np.max(rel_errs))
    return InvarianceReport(
        object=obj, n=n, samples=samples, seed=seed, fd_step=fd_step, tol=tol,
        max_abs=float(np.max(abs_errs)), max_rel=max_rel,
        mean_rel=float(np.mean(rel_errs)), passed=bool(max_rel <= tol),
    )
