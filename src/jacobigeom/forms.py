"""Maurer-Cartan form, invariant one-forms, invariant and fundamental vector fields.

Tangent conventions
-------------------
* matrix chart: ``(da, db, dc, dd, dp, dq, dkappa)`` at a group element, a kind "matrix"
  of ``linalg._checked``; :func:`check_matrix_tangent` also gates dM^t J M + M^t J dM = 0.
* S_n chart: ``(dx, dy, dX, dY, dp, dq, dkappa)`` at an SnChart point, a kind "sn": dx, dy
  symmetric, (dX, dY) tangent to the orthogonal-pair manifold (:func:`oneforms_sn` gates it
  by the symmetry of F and G).  Both kinds want n x n blocks, rows of length n and finite
  entries, else BadShape.

The six invariant one-form families evaluated on a tangent are collected
in :class:`OneForms`; F and G are symmetric matrices, H is a full n x n
matrix (its symmetry is *not* asserted: measured asymmetry is exposed via
:meth:`OneForms.h_asymmetry` instead), P and Q are rows and R is a scalar.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import BadShape, NotSymmetric, NotSymplectic
from .heisenberg import _omega
from .jacobi import (
    JacobiAlgebraElement,
    _point,
    _pq_of,
    _tangent_to_pq,
    gj_embed,
    gj_inverse,
    lm_from_pq,
    pq_from_lm,
    sn_chart_inverse,
)
from . import linalg
from .linalg import _checked, _gate, _lift, _mT, _root_frame, _sqrt_frame, _symmetric, _tangent
from .linalg import sym_residual, symmetrize
from .symplectic import _j, _jacobi_matrix, blocks, from_blocks


def _checked_sn_tangent(chart, tangent, pair=False):
    """``tangent`` (``pair``: two) at the S_n chart ``chart`` by ``linalg._tangent``, dx and dy
    symmetrized by one call; (dX, dY) is checked by the one-forms' F/G symmetry."""
    dx, dy, *rest = _tangent("sn", (chart.x.shape[:-2], chart.n), tangent, pair)
    return *symmetrize((dx, dy)), *rest


def check_matrix_tangent(g, tangent):
    """Validate a matrix-chart tangent at ``g`` and return it with float blocks and 1-d
    rows: a ``linalg._checked`` kind "matrix" meeting the linearized symplectic condition."""
    j = _j(g.n)

    def symplectic(da, db, dc, dd, *_):
        dm = from_blocks(da, db, dc, dd)
        _gate(np.max(np.abs(dm.T @ j @ g.M + g.M.T @ j @ dm)),
              linalg.TANGENT_SP_RTOL * linalg._max_norm(g.M)[0], NotSymplectic,
              "residual of the linearized symplectic condition")

    return _checked("matrix", g.n, tangent, symplectic)


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


def _symmetric_fg(f, g, rtol):
    """F and G symmetrized once one ``linalg._symmetric``, else one ``sym_residual`` (F first),
    finds both within ``rtol``."""
    fg = np.array((f, g))
    for asymmetry in () if _symmetric(fg, rtol) else sym_residual(fg):
        _gate(asymmetry, rtol, NotSymmetric, "asymmetry")
    return symmetrize(fg)


def _embed_tangent(g, tangent):
    """Derivative of the embedding along a matrix-chart tangent with checked rows
    (or along a stack of them)."""
    da, db, dc, dd, dp, dq, dk = tangent
    a, b, c, d = blocks(g.M)
    p, q = pq_from_lm(g.lam, g.mu, g.M)
    dlam = dp @ a + p @ da + dq @ c + q @ dc
    dmu = dp @ b + p @ db + dq @ d + q @ dd
    return _jacobi_matrix((da, db, dc, dd), (dlam, dmu), (dq, -dp), dk, 0.0)


def maurer_cartan(g, tangent, chart="matrix"):
    """Left-logarithmic derivative g^{-1} g-dot projected on the algebra.

    For ``chart="sn"`` the tangent is first mapped to the matrix chart by
    the analytic differential of the chart inverse (see
    :func:`d_sn_chart_inverse`).  The embedded value must lie in the
    Jacobi algebra up to PROJ_RTOL (see
    :meth:`JacobiAlgebraElement.from_matrix`).  A matrix-chart tangent is checked as a
    ``linalg._checked`` kind "matrix", with no symplectic gate; stacks raise.
    """
    if chart == "sn":
        tangent = _checked_sn_tangent(g, tangent)
        if g.x.ndim != 2 or tangent[0].ndim != 2:
            raise BadShape("the S_n route takes one chart and one tangent, not stacks")
        tangent = _d_sn_chart_inverse(g, tangent)
        g = sn_chart_inverse(g)
    else:
        tangent = _checked("matrix", g.n, tangent)
    xi = gj_embed(gj_inverse(g)) @ _embed_tangent(g, tangent)
    return JacobiAlgebraElement.from_matrix(xi)


def oneforms_matrix_chart(g, tangent):
    """The six invariant one-form families in the matrix chart.

    F = d^t db - b^t dd,          G = -c^t da + a^t dc,
    H = d^t da - b^t dc,
    (P, Q) = (dp, dq) M,          R = dkappa - omega((p, q), (dp, dq)).

    F and G are asserted symmetric; H is returned as computed.  The tangent is
    checked as in :func:`maurer_cartan`.
    """
    da, db, dc, dd, dp, dq, dk = _checked("matrix", g.n, tangent)
    a, b, c, d = blocks(g.M)
    f = d.T @ db - b.T @ dd
    gg = -c.T @ da + a.T @ dc
    h = d.T @ da - b.T @ dc
    f, gg = _symmetric_fg(f, gg, linalg.FORM_SYM_RTOL)
    lam_r = dk - _omega(pq_from_lm(g.lam, g.mu, g.M), (dp, dq))
    return OneForms(f, gg, h, *lm_from_pq(dp, dq, g.M), lam_r)


def d_sn_chart_inverse(chart, tangent):
    """Analytic differential of the S_n chart inverse (Sn tangent -> matrix tangent).

    Uses the directional derivative of the SPD square root, since the
    recomposition involves y^{1/2} and y^{-1/2}, in the square-root frame the
    chart keeps (no ``eigh``).  The tangent is checked as
    in :func:`_checked_sn_tangent`.
    """
    return _d_sn_chart_inverse(chart, _checked_sn_tangent(chart, tangent))


def _d_sn_chart_inverse(chart, tangent):
    """:func:`d_sn_chart_inverse` on a tangent the library has validated or built, or
    on stacks of charts and tangents, in the chart's square-root frame."""
    dx, dy, dX, dY, dp, dq, dk = tangent
    x = chart.x
    s, si, ds = _sqrt_frame(chart._frame, dy)
    dsi = -si @ ds @ si
    X, Y = chart.X, chart.Y
    dxsi, xdsi, xsi = dx @ si, x @ dsi, x @ si  # each shared by da and db
    da = ds @ X + s @ dX - dxsi @ Y - xdsi @ Y - xsi @ dY
    db = ds @ Y + s @ dY + dxsi @ X + xdsi @ X + xsi @ dX
    dc = -(dsi @ Y) - si @ dY
    dd = dsi @ X + si @ dX
    return da, db, dc, dd, dp, dq, dk


def d_sn_chart(g, tangent):
    """Analytic differential of the S_n chart map at ``g`` (matrix tangent -> S_n
    tangent at ``sn_chart(g)``), the inverse of :func:`d_sn_chart_inverse`.

    Differentiates the modified pre-Iwasawa factors on the square-root frame
    of y = A^{-1}, A = d d^t + c c^t:

        dy = -y dA y,   dA = dd d^t + d dd^t + dc c^t + c dc^t,
        dx = sym(dy (d b^t + c a^t) + y (dd b^t + d db^t + dc a^t + c da^t)),
        dX = ds d + s dd,   dY = -(ds c + s dc),

    with s = y^{1/2} and ds its derivative along dy; (dp, dq, dkappa) carry
    over.  The tangent must pass :func:`check_matrix_tangent`.
    """
    return _d_sn_chart(g, check_matrix_tangent(g, tangent))


def _d_sn_chart(g, tangent):
    """:func:`d_sn_chart` on a tangent the library has validated or built, or on
    stacks of elements and tangents."""
    da, db, dc, dd, dp, dq, dk = tangent
    a, b, c, d = blocks(g.M)
    y = symmetrize(np.linalg.inv(d @ _mT(d) + c @ _mT(c)))
    dy = symmetrize(-y @ (dd @ _mT(d) + d @ _mT(dd) + dc @ _mT(c) + c @ _mT(dc)) @ y)
    s, _, ds = _sqrt_frame(_root_frame(np.linalg.eigh(y)), dy)  # y is symmetric
    dx = symmetrize(dy @ (d @ _mT(b) + c @ _mT(a))
                    + y @ (dd @ _mT(b) + d @ _mT(db) + dc @ _mT(a) + c @ _mT(da)))
    return dx, dy, ds @ d + s @ dd, -(ds @ c + s @ dc), dp, dq, dk


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
    differential is part of the verified contract.  The tangent is checked
    as in :func:`_checked_sn_tangent`: a chart serves one tangent or a stack of them.
    """
    return _oneforms_sn(chart, _checked_sn_tangent(chart, tangent))


def _oneforms_sn(chart, tangent):
    """:func:`oneforms_sn` on a tangent the library has validated or built."""
    dx, dy, dX, dY, dp, dq, dk = tangent
    n = chart.n
    s, si, ds = _sqrt_frame(chart._frame, dy)
    z = np.concatenate((chart.X, chart.Y), -1)  # Z = [X Y]
    siz = si @ z
    # the products a^t M b, a and b in {X, Y}, as the blocks of one product per M, taken
    # one at a time to bound the memory of a long stack; R = L^t, as s and ds are symmetric
    a, b, c, d = blocks(_mT(siz) @ ds @ z)  # (s^-1 Z)^t ds Z: X^t L X, X^t L Y, Y^t L X, Y^t L Y
    f, g, h = b + _mT(b), c + _mT(c), a - _mT(d)
    del a, b, c, d
    a, b, c, d = blocks(_mT(siz) @ dx @ siz)  # the products with C
    f += a
    g -= d
    h -= b
    del a, b, c, d
    a, b, c, d = blocks(_mT(z) @ np.concatenate((dX, dY), -1))  # X^t dX, X^t dY, Y^t dX, Y^t dY
    f += b - c
    g += c - b
    h += a + d
    f, g = _symmetric_fg(f, g, linalg.FORM_SN_SYM_RTOL)
    six, siy = siz[..., :n], siz[..., n:]
    lam_p = dp @ (s @ chart.X - chart.x @ siy) - dq @ siy
    lam_q = dq @ six + dp @ (s @ chart.Y + chart.x @ six)
    lam_r = dk - _omega((chart.p, chart.q), (dp, dq))
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
    the point, which default to zero.  Its 11 scalars are a ``linalg._checked`` kind "n1".
    """
    parts = (x, y, theta, p, q, *tangent) if hasattr(tangent, "__iter__") else tangent
    x, y, theta, p, q, dx, dy, dth, dp, dq, dk = _checked("n1", 1, parts)
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
    lam_r = dk - dq * p + dp * q
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
        "P": {"dp": _mT(d), "dq": -_mT(b), "dkappa": -g.mu},
        "Q": {"dp": -_mT(c), "dq": _mT(a), "dkappa": g.lam},
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
    p, u = _lift(v.ndim > 2 or z.a.ndim > 2, z.p, u)
    dv = z.a @ v + v @ _mT(z.a) + z.b - v @ z.c @ v
    du = p @ v + z.q - u @ z.c @ v + u @ _mT(z.a)
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

    The point passes ``jacobi._point`` in the space "vu", "xjn" or "extended", with z as
    the acting element of its fit rule.
    """
    if space not in FVF_SPACES:
        raise ValueError(f"space must be one of {FVF_SPACES}")
    by = (z.a.shape[:-2], z.n)
    if space == "xjn_holo":
        return _holomorphic_fvf(z, *_point("vu", point, by=by)[0])

    src = "xirho" if space.endswith("xirho") else "pq"
    point, _ = _point(space.split("_")[0], point, by=by)
    x, y, p, q = _pq_of(point[:4], src)
    v = x + 1j * y
    if src == "xirho":
        dv, du = _holomorphic_fvf(z, v, point[2] + 1j * point[3])
        out = (dv.real, dv.imag, du.real, du.imag)
    else:
        dv, du = _holomorphic_fvf(z, v, p @ v + q)
        out = _tangent_to_pq((x, y, p, q), (dv.real, dv.imag, du.real, du.imag), "xirho")
    if space.startswith("extended"):
        out += (z.r + _omega((z.p, z.q), (p, q)),)
    return out
