"""The real Jacobi group of degree n: semidirect product of the Heisenberg
group with the symplectic group.

An element is stored canonically as (M, lambda, mu, kappa); the Heisenberg
parameters (p, q) := (lambda, mu) M^{-1} tied to the matrix embedding are
derived on demand, which avoids keeping two copies of the same state in
sync.  Composition:

    (M, (l, m), k) o (M', (l', m'), k')
        = (M M', (lt + l', mt + m'), k + k' + lt m'^t - mt l'^t),
    (lt, mt) := (l, m) M'.

The embedding into the degree-(n+1) symplectic group uses block rows and
columns of sizes (n, 1, n, 1):

    [ a   0   b   q^t  ]
    [ l   1   m   kappa]
    [ c   0   d  -p^t  ]
    [ 0   0   0   1    ]

and is an exact group homomorphism.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import BadShape, BasisClosureFailure, ProjectionResidual
from .heisenberg import _omega
from . import linalg
from .linalg import _checked, _col, _fill, _fit, _from_col, _gate, _lift, _max_norm, _mT
from .linalg import _degree, _root_frame, _row, _spectral, _tangent, _trusted, symmetrize
from .symplectic import _ball, _chart, _compose, _dmobius, _even, _generators, _jacobi_matrix
from .symplectic import _jacobi_parts, _mobius, _pre_iwasawa, _siegel, _sp_blocks, _sp_inverse
from .symplectic import blocks, check_symplectic, from_blocks, sp_basis


@dataclass(frozen=True)
class JacobiElement:
    """(M, lambda, mu, kappa); also a stack of elements (see ``HeisenbergElement``)."""

    M: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        m = check_symplectic(self.M)
        n = m.shape[-1] // 2
        rows = _checked("rrk", n, (self.lam, self.mu, self.kappa))
        _fit((m.shape[:-2], n), (rows[0].shape[:-2], n))
        _fill(self, m, *rows)

    @property
    def n(self):
        return self.M.shape[-1] // 2


def gj_identity(n):
    return JacobiElement(np.eye(2 * n), np.zeros(n), np.zeros(n), 0.0)


def gj_compose(g, gp):
    _fit((g.M.shape[:-2], g.n), (gp.M.shape[:-2], gp.n))
    lt, mt = lm_from_pq(*_lift(gp.M.ndim > 2, g.lam, g.mu), gp.M)
    kappa = g.kappa + gp.kappa + _omega((lt, mt), (gp.lam, gp.mu))
    return _trusted(JacobiElement, g.M @ gp.M, lt + gp.lam, mt + gp.mu, kappa)


def pq_from_lm(lam, mu, m):
    """(p, q) = (lambda, mu) M^{-1} = (lambda d^t - mu c^t, -lambda b^t + mu a^t), for rows
    and M or for stacks of them."""
    lam, mu = _row(lam), _row(mu)
    a, b, c, d = blocks(m)
    return lam @ _mT(d) - mu @ _mT(c), -(lam @ _mT(b)) + mu @ _mT(a)


def lm_from_pq(p, q, m):
    """(lambda, mu) = (p, q) M = (p a + q c, p b + q d)."""
    p, q = _row(p), _row(q)
    a, b, c, d = blocks(m)
    return p @ a + q @ c, p @ b + q @ d


def gj_inverse(g):
    """g^{-1} = (M^{-1}, -(p, q), -kappa) with (p, q) = (lambda, mu) M^{-1}."""
    p, q = pq_from_lm(g.lam, g.mu, g.M)
    return _trusted(JacobiElement, _sp_inverse(g.M), -p, -q, -g.kappa)


def gj_embed(g):
    """Embedding into the degree-(n+1) symplectic group (homomorphism)."""
    p, q = pq_from_lm(g.lam, g.mu, g.M)
    return _jacobi_matrix(blocks(g.M), (g.lam, g.mu), (q, -p), g.kappa, 1.0)


def gj_from_embedding(mat):
    """Recover (M, lambda, mu, kappa) from an embedded matrix.

    Checks the structural zeros and the consistency of the (p, q) column
    entries with (lambda, mu) M^{-1}; raises ProjectionResidual if the
    matrix does not have the Jacobi block form.
    """
    scale, mat = _max_norm(_even(mat, False, 4))  # (2n + 2) x (2n + 2), n >= 1
    blks, (lam, mu), _, kappa = _jacobi_parts(mat)
    g = JacobiElement(from_blocks(*blks), lam, mu, kappa)
    _gate(np.max(np.abs(mat - gj_embed(g))), linalg.EMBED_RTOL * scale,
          ProjectionResidual, "Jacobi embedding residual")
    return g


# ---------------------------------------------------------------------------
# Lie algebra


@dataclass(frozen=True)
class JacobiAlgebraElement:
    """Element of the Jacobi algebra in block coordinates (a, b, c, p, q, r).

    Embedded matrix (block sizes (n, 1, n, 1)):

        [ a   0   b    q^t ]
        [ p   0   q    r   ]
        [ c   0  -a^t -p^t ]
        [ 0   0   0    0   ]

    b and c are symmetric within ALG_SYM_RTOL; a is any finite n x n matrix.  Also a
    stack of elements, as ``sampling.rand_gj_algebra`` draws from a ``StackStream``, whose
    :meth:`to_matrix` is the stack of the embedded matrices.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: float

    def __post_init__(self):
        blks = _sp_blocks(self.a, self.b, self.c, linalg.ALG_SYM_RTOL)
        n = blks[0].shape[-1]
        rows = _checked("rrk", n, (self.p, self.q, self.r))
        _fit((blks[0].shape[:-2], n), (rows[0].shape[:-2], n))
        _fill(self, *blks, *rows)

    @property
    def n(self):
        return self.a.shape[-1]

    def to_matrix(self):
        return _jacobi_matrix((self.a, self.b, self.c, -_mT(self.a)), (self.p, self.q),
                              (self.q, -self.p), self.r, 0.0)

    @classmethod
    def from_matrix(cls, z):
        """Project an embedded matrix back onto block coordinates.

        Duplicated blocks (a vs -a^t, the two copies of p and q) are
        averaged, which makes this the orthogonal projection onto the
        algebra; the remaining residual must vanish up to PROJ_RTOL or
        ProjectionResidual is raised, per matrix of a stack.  ``z`` must be a
        (2n + 2) x (2n + 2) matrix, n >= 1, or a stack of them, else BadShape.
        """
        scale, z = _max_norm(_even(z, True, 4), (-2, -1))
        (a, b, c, d), (p, q), (q_col, minus_p_col), r = _jacobi_parts(z)
        elem = _trusted(cls, 0.5 * (a - _mT(d)), symmetrize(b), symmetrize(c),
                        0.5 * (p - minus_p_col), 0.5 * (q + q_col),
                        r.copy() if z.ndim > 2 else float(r))
        _gate(np.abs(z - elem.to_matrix()).max((-2, -1)), linalg.PROJ_RTOL * scale,
              ProjectionResidual, "Jacobi algebra projection residual")
        return elem

    def coefficients(self):
        """Coordinates over the ordered basis of :func:`gj_basis`.

        The expansion of an algebra element carries weight 2 on the
        off-diagonal F/G generators (b = sum of b_ij (E_ij + E_ji) while
        2 F_ij has block E_ij + E_ji), so the F-coordinate of b is
        2 b_ij for i < j and b_ii on the diagonal; likewise for G.  Over a
        stack the coordinates are (..., dim).
        """
        i, j = np.triu_indices(self.n)  # i <= j, row by row: the basis order
        weight, lead = np.where(i == j, 1.0, 2.0), self.a.shape[:-2] + (-1,)
        return np.concatenate([self.a.reshape(lead), self.b[..., i, j] * weight,
                               self.c[..., i, j] * weight, self.p.reshape(lead),
                               self.q.reshape(lead), np.asarray(self.r)[..., None]], -1)


def gj_basis_labels(n):
    return ([f"{f}{i + 1}{j + 1}" for f, i, j in _generators(n)] + [f"P{k + 1}" for k in range(n)]
            + [f"Q{k + 1}" for k in range(n)] + ["R"])


def gj_basis_elements(n):
    """Basis of the Jacobi algebra as JacobiAlgebraElement values.

    Order: H_ij (all i, j), F_ij (i <= j), G_ij (i <= j), P_p, Q_q, R.
    Count: (n + 1)(2n + 1).
    """
    zero = np.zeros((n, n))
    zrow = np.zeros(n)
    elems = [JacobiAlgebraElement(s.a, s.b, s.c, zrow, zrow, 0.0) for s in sp_basis(n)]
    for k in range(2 * n):  # P_1..P_n, then Q_1..Q_n
        pq = np.zeros(2 * n)
        pq[k] = 1.0
        elems.append(JacobiAlgebraElement(zero, zero, zero, pq[:n], pq[n:], 0.0))
    elems.append(JacobiAlgebraElement(zero, zero, zero, zrow, zrow, 1.0))
    return elems


def gj_basis(n):
    """Embedded (2n+2) x (2n+2) basis matrices, ordered as in gj_basis_labels."""
    return [e.to_matrix() for e in gj_basis_elements(n)]


def gj_bracket(z1, z2):
    """Lie bracket: matrix commutator of the embeddings, projected back.

    Raises BasisClosureFailure if the commutator leaves the algebra span
    (which cannot happen for valid inputs).
    """
    _fit((z1.a.shape[:-2], z1.n), (z2.a.shape[:-2], z2.n))
    comm = z1.to_matrix() @ z2.to_matrix() - z2.to_matrix() @ z1.to_matrix()
    try:
        return JacobiAlgebraElement.from_matrix(comm)
    except ProjectionResidual as exc:
        raise BasisClosureFailure(str(exc)) from exc


def commutator_table(n):
    """Structure constants over the gj_basis order, snapped to the k/4 grid.

    All constants are exact quarter-integers: the off-diagonal F/G
    generators carry a 1/2 block normalization, so products of two of
    them contribute multiples of 1/4; the Heisenberg sector ([P_p, Q_q] =
    2 delta_pq R and friends) is integer.  Any coefficient farther than
    SNAP_TOL from the grid raises BasisClosureFailure.
    """
    basis = np.array(gj_basis(n))
    dim = len(basis)
    table = np.zeros((dim, dim, dim))
    for i in range(dim - 1):  # row i: the brackets with all j > i, as one stack
        m, rest = basis[i], basis[i + 1:]
        try:
            coeffs = JacobiAlgebraElement.from_matrix(m @ rest - rest @ m).coefficients()
        except ProjectionResidual as exc:
            raise BasisClosureFailure(str(exc)) from exc
        snapped = np.round(coeffs * 4.0) / 4.0
        _gate(np.abs(coeffs - snapped).max(-1), linalg.SNAP_TOL, BasisClosureFailure,
              f"distance of the constants of [{i},{i + 1}+k] from the quarter-integer grid,"
              " k the stack index,")
        table[i, i + 1:] = snapped
        table[i + 1:, i] = -snapped
    return gj_basis_labels(n), table


# ---------------------------------------------------------------------------
# actions on the Siegel-Jacobi spaces


# Each space of points (see _point): the check of its matrices, and the linalg._KINDS kind of
# its tangents, whose layout is also the point's.
_SPACES = {
    "vu": (_siegel, "vu"),              # (v, u) with v = x + iy
    "ball": (_ball, "vu"),              # (W, z)
    "xjn": (_siegel, "xjn"),            # (x, y, p, q), or the rows of another chart
    "extended": (_siegel, "extended"),  # (x, y, p, q, kappa)
    "sn": (_chart, "sn"),               # an SnChart's (x, y, X, Y, p, q, kappa)
}


def _point(space, point, *tangents, by=None, pair=False):
    """``(point, eig, *tangents)`` as arrays, ``eig`` the eigenpairs of the one ``eigh`` of the
    space's matrix check, once the point passes ``linalg._checked`` as a tuple of its tangents'
    kind at the degree ``linalg._degree`` finds (its matrices to the check, one finiteness pass
    for the rest), each tangent (``pair``: the two as one, in one pass) ``linalg._tangent``,
    and ``by``, an acting element's (stack shape, degree), ``linalg._fit`` with the point: the
    one point check."""
    check, kind = _SPACES[space]
    *point, eig = _checked(kind, _degree(point), point, matrices=check)
    at = (point[0].shape[:-2], point[0].shape[-1])
    if by is not None:
        _fit(by, at)
    tangents = (tangents,) if pair else tangents
    return point, eig, *(_tangent(kind, at, t, pair) for t in tangents)


def act_xjn(g, point):
    """Action on (v, u): v Moebius-transformed, u -> (u + lambda v + mu)(c v + d)^{-1}."""
    (v, u), _ = _point("vu", point, by=(g.M.shape[:-2], g.n))
    return _act_vu(g.M, g.lam, g.mu, v, u)


def _act_vu(m, lam, mu, v, u):
    """:func:`act_xjn` of (m, lam, mu) at a validated (v, u), and so ``metrics.ball_act``."""
    return _mobius(m, v, u + _lift(v.ndim > 2, lam)[0] @ v + mu)


def act_pq(g, point):
    """Action on (x, y, p, q): Moebius on x + iy, affine on (p, q):

    (p1, q1) = (p, q)_g + (p', q') M^{-1}.
    """
    return _act_pq(g, _point("xjn", point, by=(g.M.shape[:-2], g.n))[0])


def _act_pq(g, point):
    """:func:`act_pq` at a pq-chart point the library has validated."""
    x, y, *pq = point
    v1, _ = _mobius(g.M, x + 1j * y)
    (gp, gq), (dp, dq) = pq_from_lm(g.lam, g.mu, g.M), pq_from_lm(*_lift(g.M.ndim > 2, *pq), g.M)
    return v1.real, v1.imag, gp + dp, gq + dq


def act_extended(g, point):
    """Action on (x, y, p, q, kappa); kappa picks up omega((lambda, mu), (p', q')).
    The rows must be finite of length n and kappa finite."""
    return _act_extended(g, _point("extended", point, by=(g.M.shape[:-2], g.n))[0])


def _act_extended(g, point):
    """:func:`act_extended` at a point the library has validated."""
    x, y, p, q, kappa = point
    return (*_act_pq(g, (x, y, p, q)), g.kappa + kappa + _omega((g.lam, g.mu), (p, q)))


def _push_pq(g, point, image, tangent):
    """A pq tangent (dx, dy, dp, dq, ...) pushed through ``g``: dv1 = (a - v1 c) dv
    (c v + d)^{-1} on v = x + iy, and (dp1, dq1) = (dp, dq) M^{-1}, since the action
    is affine in (p, q)."""
    dv1, _ = _dmobius(g.M, point[0] + 1j * point[1], image[0] + 1j * image[1],
                      tangent[0] + 1j * tangent[1])
    return (dv1.real, dv1.imag, *pq_from_lm(tangent[2], tangent[3], g.M))


def _push_kappa(g, tangent):
    """The pushed dkappa of an extended tangent: dkappa + omega((lambda, mu), (dp, dq))."""
    return tangent[4] + _omega((g.lam, g.mu), tangent[2:4])


def _push_vu(m, lam, point, image, tangent):
    """du1 = (du + lam dv - u1 c dv)(c v + d)^{-1}, dv1 as in :func:`_push_pq`: the push of
    :func:`act_xjn` with (M, lambda) = (m, lam), and so of ``metrics.ball_act``."""
    (v, _), (v1, u1), (dv, du) = point, image, tangent
    return _dmobius(m, v, v1, dv, du + lam @ dv - u1 @ blocks(m)[2] @ dv)


# ---------------------------------------------------------------------------
# the S_n coordinatization of the group


@dataclass(frozen=True)
class SnChart:
    """Coordinates (x, y, X, Y, p, q, kappa) of a Jacobi group element.

    (x, y, X, Y) are the modified pre-Iwasawa factors of the symplectic
    part and (p, q) = (lambda, mu) M^{-1}.  For n = 1 the pair (X, Y) is
    (cos theta, sin theta) of the classical S-coordinates.

    The chart keeps the square-root frame of y (``linalg._root_frame``: the eigenpairs of
    y with s = y^{1/2} and s^{-1}), from the ``eigh`` that its entry check makes, or, in
    :func:`sn_chart`, from the ``eigh`` of y^{-1}; it is no constructor argument and no part
    of ``repr`` or ``==``.  Every S_n kernel reads s and s^{-1} from it.
    """

    x: np.ndarray
    y: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    p: np.ndarray
    q: np.ndarray
    kappa: float
    _frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        point, eig = _point("sn", (self.x, self.y, self.X, self.Y, self.p, self.q, self.kappa))
        _fill(self, *point, _root_frame(eig))

    @property
    def n(self):
        return self.x.shape[-1]

    def theta(self):
        """Angle for n = 1: X = cos(theta), Y = sin(theta), of one chart (no stack)."""
        if self.n != 1 or self.x.ndim > 2:
            raise BadShape("theta is only defined for one chart of degree 1")
        return float(np.arctan2(self.Y[0, 0], self.X[0, 0]))


def sn_chart_identity(n):
    return SnChart(np.zeros((n, n)), np.eye(n), np.eye(n), np.zeros((n, n)),
                   np.zeros(n), np.zeros(n), 0.0)


def sn_chart(g):
    """The S_n chart of ``g``, with the frame of its y = A^{-1} from the one ``eigh`` of A that
    ``symplectic._pre_iwasawa`` makes: r = w^{-1/2}, and s and s^{-1} from its frame."""
    x, y, xu, yu, (s, u, root_w), w = _pre_iwasawa(g.M)
    frame = (w[..., None, :] ** -0.5, u, s, _spectral(u, root_w))
    return _trusted(SnChart, x, y, xu, yu, *pq_from_lm(g.lam, g.mu, g.M), g.kappa, frame)


def sn_chart_inverse(chart):
    """The Jacobi element of an S_n chart, from s = y^{1/2} and s^{-1} of its frame."""
    _, _, s, si = chart._frame
    m = _compose(chart.x, s, si, chart.X, chart.Y)
    lam, mu = lm_from_pq(chart.p, chart.q, m)
    return _trusted(JacobiElement, m, lam, mu, chart.kappa)


# ---------------------------------------------------------------------------
# point charts on the Siegel-Jacobi space

CHARTS = ("vu", "pq", "xirho", "chipsi")


def chart_convert(point, src, dst):
    """Convert a Siegel-Jacobi point between the four charts.

    vu:     (v, u) complex, u = p v + q;
    pq:     (x, y, p, q) real rows;
    xirho:  (x, y, xi, rho) with u = xi + i rho, so p = rho y^{-1} and
            q = xi - rho y^{-1} x (the transformation has non-vanishing
            Jacobian for y SPD);
    chipsi: (x, y, chi, psi) columns with chi = q^t, psi = p^t.

    With ``src == dst`` the point itself is returned, after the same entry check.
    """
    if src not in CHARTS or dst not in CHARTS:
        raise ValueError(f"charts must be one of {CHARTS}")
    if src == "vu":
        (v, u), _ = _point("vu", point)
        pq = _pq_of((v.real, v.imag, u.real, u.imag), "xirho")
    else:
        pq = _pq_of(_point("xjn", point)[0], src)
    return point if src == dst else _from_pq(pq, dst)


def _pq_of(point, src):
    """A point of chart ``src`` (not vu) the library has validated or built, in the
    pq chart."""
    x, y, first, second = point
    if src == "xirho":
        p = _from_col(np.linalg.solve(_mT(y), _col(second)))
        return x, y, p, first - p @ x
    return (x, y, second, first) if src == "chipsi" else (x, y, first, second)


def _from_pq(pq, dst):
    """A pq-chart point the library has validated, in chart ``dst``."""
    x, y, p, q = pq
    if dst == "pq":
        return x, y, p, q
    if dst == "vu":
        v = x + 1j * y
        return v, p @ v + q
    if dst == "xirho":
        return x, y, p @ x + q, p @ y
    return x, y, q.copy(), p.copy()  # chipsi: columns stored as 1-d arrays


def _tangent_to_pq(pq, tangent, src):
    """A tangent of chart ``src`` (not vu) at the point ``pq`` (pq coordinates) as a
    pq tangent: chipsi swaps the rows; xirho has dp = (drho - p dy) y^{-1} and
    dq = dxi - dp x - p dx."""
    dx, dy, first, second = tangent
    if src == "xirho":
        x, y, p, _ = pq
        (p,) = _lift(np.ndim(dy) > 2, p)
        dp = _from_col(np.linalg.solve(_mT(y), _col(second - p @ dy)))
        return dx, dy, dp, first - dp @ x - p @ dx
    return (dx, dy, second, first) if src == "chipsi" else tangent


def _tangent_from_pq(pq, tangent, dst):
    """The inverse of :func:`_tangent_to_pq`: xirho has dxi = dp x + p dx + dq and
    drho = dp y + p dy."""
    dx, dy, dp, dq = tangent
    if dst == "xirho":
        x, y, p, _ = pq
        return dx, dy, dp @ x + p @ dx + dq, dp @ y + p @ dy
    return (dx, dy, dq, dp) if dst == "chipsi" else tangent
