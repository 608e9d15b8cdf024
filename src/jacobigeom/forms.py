"""Maurer-Cartan form, invariant one-forms, invariant and fundamental vector fields.

Tangent conventions
-------------------
* matrix chart: tuple ``(da, db, dc, dd, dp, dq, dkappa)`` at a group
  element; the symplectic part must satisfy the linearized condition
  ``dM^t J M + M^t J dM = 0``.
* S_n chart: tuple ``(dx, dy, dX, dY, dp, dq, dkappa)`` at an SnChart
  point, with dx, dy symmetric and (dX, dY) tangent to the
  orthogonal-pair manifold.

The six invariant one-form families evaluated on a tangent are collected
in :class:`OneForms`; F and G are symmetric matrices, H is a full n x n
matrix (its symmetry is *not* asserted: measured asymmetry is exposed via
:meth:`OneForms.h_asymmetry` instead), P and Q are rows and R is a scalar.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import BadShape, NotSymplectic
from .heisenberg import _omega
from .jacobi import (
    JacobiAlgebraElement,
    _to_pq,
    gj_embed,
    gj_inverse,
    lm_from_pq,
    pq_from_lm,
    sn_chart_inverse,
)
from . import linalg
from .linalg import _gate, _row, _sqrt_frame, check_symmetric, sym_residual, symmetrize
from .symplectic import _jacobi_matrix, blocks, check_siegel, from_blocks, j_matrix


def _sym_component(a):
    return symmetrize(check_symmetric(a, linalg.TANGENT_SYM_RTOL))


def check_matrix_tangent(g, tangent):
    """Validate the linearized symplectic constraint of a matrix-chart tangent."""
    da, db, dc, dd, dp, dq, dk = tangent
    dm = from_blocks(da, db, dc, dd)
    j = j_matrix(g.n)
    _gate(np.max(np.abs(dm.T @ j @ g.M + g.M.T @ j @ dm)),
          linalg.TANGENT_SP_RTOL * max(1.0, np.max(np.abs(g.M))), NotSymplectic,
          "residual of the linearized symplectic condition")
    return tangent


@dataclass(frozen=True)
class OneForms:
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: float

    def h_asymmetry(self):
        """Measured asymmetry of the H family (not asserted to vanish)."""
        return sym_residual(self.H)

    def as_algebra_element(self):
        """Repackage as a Jacobi algebra element (a=H, b=F, c=G, p=P, q=Q, r=R)."""
        return JacobiAlgebraElement(self.H, self.F, self.G, self.P, self.Q, self.R)


def _embed_tangent(g, tangent):
    """Derivative of the embedding along a matrix-chart tangent."""
    da, db, dc, dd, dp, dq, dk = tangent
    dp, dq = _row(dp), _row(dq)
    a, b, c, d = blocks(g.M)
    p, q = pq_from_lm(g.lam, g.mu, g.M)
    dlam = dp @ a + p @ da + dq @ c + q @ dc
    dmu = dp @ b + p @ db + dq @ d + q @ dd
    return _jacobi_matrix((da, db, dc, dd), (dlam, dmu), (dq, -dp), float(dk), 0.0)


def maurer_cartan(g, tangent, chart="matrix"):
    """Left-logarithmic derivative g^{-1} g-dot projected on the algebra.

    For ``chart="sn"`` the tangent is first mapped to the matrix chart by
    the analytic differential of the chart inverse (see
    :func:`d_sn_chart_inverse`).  The embedded value must lie in the
    Jacobi algebra up to PROJ_RTOL (see
    :meth:`JacobiAlgebraElement.from_matrix`).
    """
    if chart == "sn":
        tangent = d_sn_chart_inverse(g, tangent)
        g = sn_chart_inverse(g)
    xi = gj_embed(gj_inverse(g)) @ _embed_tangent(g, tangent)
    return JacobiAlgebraElement.from_matrix(xi)


def oneforms_matrix_chart(g, tangent):
    """The six invariant one-form families in the matrix chart.

    F = d^t db - b^t dd,          G = -c^t da + a^t dc,
    H = d^t da - b^t dc,
    (P, Q) = (dp, dq) M,          R = dkappa - omega((p, q), (dp, dq)).

    F and G are asserted symmetric; H is returned as computed.
    """
    da, db, dc, dd, dp, dq, dk = tangent
    a, b, c, d = blocks(g.M)
    dp, dq = _row(dp), _row(dq)
    f = d.T @ db - b.T @ dd
    gg = -c.T @ da + a.T @ dc
    h = d.T @ da - b.T @ dc
    f = symmetrize(check_symmetric(f, linalg.FORM_SYM_RTOL))
    gg = symmetrize(check_symmetric(gg, linalg.FORM_SYM_RTOL))
    lam_r = float(dk) - _omega(pq_from_lm(g.lam, g.mu, g.M), (dp, dq))
    return OneForms(f, gg, h, *lm_from_pq(dp, dq, g.M), lam_r)


def d_sn_chart_inverse(chart, tangent):
    """Analytic differential of the S_n chart inverse (Sn tangent -> matrix tangent).

    Uses the directional derivative of the SPD square root, since the
    recomposition involves y^{1/2} and y^{-1/2}.
    """
    dx, dy, dX, dY, dp, dq, dk = tangent
    dx, dy = _sym_component(dx), _sym_component(dy)
    x = chart.x
    s, si, ds = _sqrt_frame(chart.y, dy)
    dsi = -si @ ds @ si
    X, Y = chart.X, chart.Y
    da = ds @ X + s @ dX - dx @ si @ Y - x @ dsi @ Y - x @ si @ dY
    db = ds @ Y + s @ dY + dx @ si @ X + x @ dsi @ X + x @ si @ dX
    dc = -(dsi @ Y) - si @ dY
    dd = dsi @ X + si @ dX
    return da, db, dc, dd, _row(dp), _row(dq), float(dk)


def oneforms_sn(chart, tangent):
    """The six one-form families in S_n coordinates.

    With s := y^{1/2}, ds its directional derivative along dy, and
    L := s^{-1} ds, R := ds s^{-1}, C := s^{-1} dx s^{-1}:

        F = X^t dY - Y^t dX + X^t L Y + X^t C X + Y^t R X
        G = -X^t dY + Y^t dX + Y^t L X - Y^t C Y + X^t R Y
        H = X^t dX + Y^t dY + X^t L X - X^t C Y - Y^t R Y
        P = dp (s X - x s^{-1} Y) - dq s^{-1} Y
        Q = dq s^{-1} X + dp (s Y + x s^{-1} X)
        R = dkappa - omega((p, q), (dp, dq))

    This is an independent evaluation route from
    :func:`oneforms_matrix_chart`; their agreement through the chart
    differential is part of the verified contract.
    """
    dx, dy, dX, dY, dp, dq, dk = tangent
    dx, dy = _sym_component(dx), _sym_component(dy)
    x = chart.x
    s, si, ds = _sqrt_frame(chart.y, dy)
    ell = si @ ds
    arr = ds @ si
    cc = si @ dx @ si
    X, Y = chart.X, chart.Y
    f = X.T @ dY - Y.T @ dX + X.T @ ell @ Y + X.T @ cc @ X + Y.T @ arr @ X
    g = -X.T @ dY + Y.T @ dX + Y.T @ ell @ X - Y.T @ cc @ Y + X.T @ arr @ Y
    h = X.T @ dX + Y.T @ dY + X.T @ ell @ X - X.T @ cc @ Y - Y.T @ arr @ Y
    f = symmetrize(check_symmetric(f, linalg.FORM_SN_SYM_RTOL))
    g = symmetrize(check_symmetric(g, linalg.FORM_SN_SYM_RTOL))
    dp, dq = _row(dp), _row(dq)
    lam_p = dp @ (s @ X - x @ si @ Y) - dq @ si @ Y
    lam_q = dq @ si @ X + dp @ (s @ Y + x @ si @ X)
    lam_r = float(dk) - _omega((chart.p, chart.q), (dp, dq))
    return OneForms(f, g, h, lam_p, lam_q, lam_r)


def oneforms_n1(x, y, theta, tangent, p=0.0, q=0.0):
    """Closed scalar forms for degree 1 in coordinates (x, y, theta, p, q, kappa).

    tangent = (dx, dy, dtheta, dp, dq, dkappa);  X = cos(theta),
    Y = sin(theta).  The F, G, H forms:

        F =  dx/y cos^2(t) + dy/(2y) sin(2t) + dt
        G = -dx/y sin^2(t) + dy/(2y) sin(2t) - dt
        H = -dx/(2y) sin(2t) + dy/(2y) cos(2t)

    so F - G = dx/y + 2 dt.  P, Q, R follow the general expressions with
    y^{1/2} in place of y; the R form needs the Heisenberg coordinates of
    the point, which default to zero.
    """
    dx, dy, dth, dp, dq, dk, = tangent
    x, y = float(x), float(y)
    if y <= 0:
        raise BadShape("y must be positive")
    ct, st = np.cos(theta), np.sin(theta)
    s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
    f = dx / y * ct * ct + dy / (2 * y) * s2 + dth
    g = -dx / y * st * st + dy / (2 * y) * s2 - dth
    h = -dx / (2 * y) * s2 + dy / (2 * y) * c2
    r = np.sqrt(y)
    lam_p = dp * (r * ct - x / r * st) - dq / r * st
    lam_q = dq / r * ct + dp * (r * st + x / r * ct)
    lam_r = float(dk) - dq * float(p) + dp * float(q)
    return (np.array([[f]]), np.array([[g]]), np.array([[h]]),
            np.array([lam_p]), np.array([lam_q]), lam_r)


# ---------------------------------------------------------------------------
# invariant vector fields in group coordinates (a, b, c, d, p, q, kappa)


def invariant_vf(g):
    """The six invariant field families as component assignments.

    Each family maps coordinate names to the matrix (or row) standing in
    for the corresponding differentials; missing components are zero:

        L^F: db = a, dd = c
        L^G: da = b, db = b, dc = d, dd = d
        L^H: da = a, db = b, dc = c, dd = d
        L^P: dp = d^t, dq = -b^t, dkappa = -mu
        L^Q: dp = -c^t, dq = a^t, dkappa = lambda
        L^R: dkappa = 1

    L^P and L^Q are n fields each: the i-th takes row i of every component
    (its kappa component is -mu_i, resp. lambda_i, since (lambda, mu) =
    (p, q) M).  They are dual to the one-form families under
    :func:`duality_pairing` (identity blocks).
    """
    a, b, c, d = blocks(g.M)
    return {
        "F": {"db": a, "dd": c},
        "G": {"da": b, "db": b, "dc": d, "dd": d},
        "H": {"da": a, "db": b, "dc": c, "dd": d},
        "P": {"dp": d.T, "dq": -b.T, "dkappa": -g.mu},
        "Q": {"dp": -c.T, "dq": a.T, "dkappa": g.lam},
        "R": {"dkappa": 1.0},
    }


def duality_pairing(g):
    """Pairing table <form family | field family> at g.

    Entry (alpha, beta) is the alpha family of :func:`oneforms_matrix_chart`
    at g evaluated on the field L^beta of :func:`invariant_vf`; for L^P and
    L^Q, one value per field index, stacked on the first axis.  So a block
    has the shape of its form family (n x n for F, G, H; n for P, Q; scalar
    for R), with a leading axis of length n when beta is P or Q.  Returns a
    dict keyed by (form, field); diagonal blocks are identities.
    """
    n = g.n
    zero, row = np.zeros((n, n)), np.zeros(n)
    table = {}
    for beta, field in invariant_vf(g).items():
        mats = tuple(field.get(name, zero) for name in ("da", "db", "dc", "dd"))
        stacked = "dp" in field  # L^P, L^Q: n fields, the i-th from row i of each component
        tangents = ([mats + (field["dp"][i], field["dq"][i], field["dkappa"][i]) for i in range(n)]
                    if stacked else [mats + (row, row, field.get("dkappa", 0.0))])
        forms = [oneforms_matrix_chart(g, t) for t in tangents]
        for alpha in ("F", "G", "H", "P", "Q", "R"):
            values = [getattr(f, alpha) for f in forms]
            table[(alpha, beta)] = np.stack(values) if stacked else values[0]
    return table


# ---------------------------------------------------------------------------
# fundamental vector fields on the Siegel-Jacobi spaces

FVF_SPACES = ("xjn_holo", "xjn_real_xirho", "xjn_pq", "extended_xirho", "extended_pq")


def _holomorphic_fvf(z, v, u):
    """Action generator on (v, u):  dv = a v + v a^t + b - v c v,
    du = p v + q - u c v + u a^t."""
    dv = z.a @ v + v @ z.a.T + z.b - v @ z.c @ v
    du = z.p @ v + z.q - u @ z.c @ v + u @ z.a.T
    return dv, du


def fvf(z, point, space):
    """Fundamental vector field of the algebra element ``z`` at ``point``.

    ``space`` selects the chart (and whether the center coordinate is
    present):

    * ``xjn_holo``:      point (v, u), tangent (dv, du);
    * ``xjn_real_xirho``: point (x, y, xi, rho);
    * ``xjn_pq``:        point (x, y, p, q);
    * ``extended_xirho``, ``extended_pq``: the same plus kappa, with
      dkappa = r + omega((p_z, q_z), (p', q')); on the non-extended space the
      center generator acts trivially (R* = 0).
    """
    if space not in FVF_SPACES:
        raise ValueError(f"space must be one of {FVF_SPACES}")
    if space == "xjn_holo":
        v, u = point
        return _holomorphic_fvf(z, check_siegel(v), np.asarray(u, dtype=complex).ravel())

    src = "xirho" if space.endswith("xirho") else "pq"
    x, y, p, q = _to_pq(point[:4], src)  # the entry check of x + iy
    v = x + 1j * y
    if src == "xirho":
        dv, du = _holomorphic_fvf(z, v, _row(point[2]) + 1j * _row(point[3]))
        out = (dv.real, dv.imag, du.real, du.imag)
    else:
        dv, du = _holomorphic_fvf(z, v, p @ v + q)
        dx_, dy_ = dv.real, dv.imag
        dp = (du.imag - p @ dy_) @ np.linalg.inv(y)
        out = (dx_, dy_, dp, du.real - dp @ x - p @ dx_)
    if space.startswith("extended"):
        out += (z.r + _omega((z.p, z.q), (p, q)),)
    return out
