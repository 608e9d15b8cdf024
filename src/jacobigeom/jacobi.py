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

from dataclasses import dataclass

import numpy as np

from .exceptions import BadShape, BasisClosureFailure, ProjectionResidual
from .heisenberg import HeisenbergElement, _degree_n, _omega
from . import linalg
from .linalg import _gate, _row, _trusted, check_symmetric, symmetrize
from .symplectic import (
    PreIwasawaFactors,
    _jacobi_matrix,
    _jacobi_parts,
    _mobius,
    _pre_iwasawa,
    _siegel_xy,
    _sp_inverse,
    blocks,
    check_siegel,
    check_symplectic,
    from_blocks,
    pre_iwasawa_compose,
    sp_basis,
)


@dataclass(frozen=True)
class JacobiElement:
    M: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "M", check_symplectic(self.M))
        h = _degree_n(self.lam, self.mu, self.kappa, self.n)
        object.__setattr__(self, "lam", h.lam)
        object.__setattr__(self, "mu", h.mu)
        object.__setattr__(self, "kappa", h.kappa)

    @property
    def n(self):
        return self.M.shape[0] // 2

    def heisenberg_part(self):
        return _trusted(HeisenbergElement, self.lam, self.mu, self.kappa)


def gj_identity(n):
    return JacobiElement(np.eye(2 * n), np.zeros(n), np.zeros(n), 0.0)


def gj_compose(g, gp):
    if g.n != gp.n:
        raise BadShape(f"degree mismatch: {g.n} vs {gp.n}")
    lt, mt = lm_from_pq(g.lam, g.mu, gp.M)
    kappa = g.kappa + gp.kappa + _omega((lt, mt), (gp.lam, gp.mu))
    return _trusted(JacobiElement, g.M @ gp.M, lt + gp.lam, mt + gp.mu, kappa)


def pq_from_lm(lam, mu, m):
    """(p, q) = (lambda, mu) M^{-1} = (lambda d^t - mu c^t, -lambda b^t + mu a^t)."""
    lam, mu = _row(lam), _row(mu)
    a, b, c, d = blocks(m)
    return lam @ d.T - mu @ c.T, -(lam @ b.T) + mu @ a.T


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
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise BadShape(f"expected even square matrix, got {mat.shape}")
    blks, (lam, mu), _, kappa = _jacobi_parts(mat)
    g = JacobiElement(from_blocks(*blks), lam, mu, kappa)
    _gate(np.max(np.abs(mat - gj_embed(g))), linalg.EMBED_RTOL * max(1.0, np.max(np.abs(mat))),
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

    b and c are symmetric; a is unrestricted.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", check_symmetric(self.b, linalg.ALG_SYM_RTOL))
        object.__setattr__(self, "c", check_symmetric(self.c, linalg.ALG_SYM_RTOL))
        object.__setattr__(self, "p", _row(self.p))
        object.__setattr__(self, "q", _row(self.q))
        object.__setattr__(self, "r", float(self.r))

    @property
    def n(self):
        return self.a.shape[0]

    def to_matrix(self):
        return _jacobi_matrix((self.a, self.b, self.c, -self.a.T), (self.p, self.q),
                              (self.q, -self.p), self.r, 0.0)

    @classmethod
    def from_matrix(cls, z):
        """Project an embedded matrix back onto block coordinates.

        Duplicated blocks (a vs -a^t, the two copies of p and q) are
        averaged, which makes this the orthogonal projection onto the
        algebra; the remaining residual must vanish up to PROJ_RTOL or
        ProjectionResidual is raised.
        """
        z = np.asarray(z, dtype=float)
        (a, b, c, d), (p, q), (q_col, minus_p_col), r = _jacobi_parts(z)
        elem = _trusted(cls, 0.5 * (a - d.T), symmetrize(b), symmetrize(c),
                        0.5 * (p - minus_p_col), 0.5 * (q + q_col), float(r))
        _gate(np.max(np.abs(z - elem.to_matrix())), linalg.PROJ_RTOL * max(1.0, np.max(np.abs(z))),
              ProjectionResidual, "Jacobi algebra projection residual")
        return elem

    def coefficients(self):
        """Coordinates over the ordered basis of :func:`gj_basis`.

        The expansion of an algebra element carries weight 2 on the
        off-diagonal F/G generators (b = sum of b_ij (E_ij + E_ji) while
        2 F_ij has block E_ij + E_ji), so the F-coordinate of b is
        2 b_ij for i < j and b_ii on the diagonal; likewise for G.
        """
        upper = np.triu_indices(self.n)  # i <= j, row by row: the basis order
        weight = np.where(upper[0] == upper[1], 1.0, 2.0)
        return np.concatenate([self.a.ravel(), self.b[upper] * weight,
                               self.c[upper] * weight, self.p, self.q, [self.r]])


def gj_basis_labels(n):
    labels = [f"H{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    labels += [f"F{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    labels += [f"G{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    labels += [f"P{p + 1}" for p in range(n)]
    labels += [f"Q{q + 1}" for q in range(n)]
    labels += ["R"]
    return labels


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
    elems = gj_basis_elements(n)
    dim = len(elems)
    table = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs = gj_bracket(elems[i], elems[j]).coefficients()
            snapped = np.round(coeffs * 4.0) / 4.0
            _gate(np.max(np.abs(coeffs - snapped)), linalg.SNAP_TOL, BasisClosureFailure,
                  f"distance of the constants of [{i},{j}] from the quarter-integer grid")
            table[i, j] = snapped
            table[j, i] = -snapped
    return gj_basis_labels(n), table


# ---------------------------------------------------------------------------
# actions on the Siegel-Jacobi spaces


def act_xjn(g, point):
    """Action on (v, u): v Moebius-transformed, u -> (u + lambda v + mu)(c v + d)^{-1}."""
    v, u = point
    v = check_siegel(v)
    u = np.asarray(u, dtype=complex).ravel()
    return _mobius(g.M, v, u + g.lam @ v + g.mu)


def act_pq(g, point):
    """Action on (x, y, p, q): Moebius on x + iy, affine on (p, q):

    (p1, q1) = (p, q)_g + (p', q') M^{-1}.
    """
    x, y, p, q = point
    return _act_pq(g, _siegel_xy(x, y) + (p, q))


def _act_pq(g, point):
    """:func:`act_pq` at a pq-chart point the library has validated."""
    x, y, p, q = point
    v1, _ = _mobius(g.M, x + 1j * y)
    (gp, gq), (dp, dq) = pq_from_lm(g.lam, g.mu, g.M), pq_from_lm(p, q, g.M)
    return v1.real, v1.imag, gp + dp, gq + dq


def act_extended(g, point):
    """Action on (x, y, p, q, kappa); kappa picks up omega((lambda, mu), (p', q'))."""
    x, y, p, q, kappa = point
    x1, y1, p1, q1 = act_pq(g, (x, y, p, q))
    k1 = g.kappa + float(kappa) + _omega((g.lam, g.mu), (_row(p), _row(q)))
    return x1, y1, p1, q1, k1


# ---------------------------------------------------------------------------
# the S_n coordinatization of the group


@dataclass(frozen=True)
class SnChart:
    """Coordinates (x, y, X, Y, p, q, kappa) of a Jacobi group element.

    (x, y, X, Y) are the modified pre-Iwasawa factors of the symplectic
    part and (p, q) = (lambda, mu) M^{-1}.  For n = 1 the pair (X, Y) is
    (cos theta, sin theta) of the classical S-coordinates.
    """

    x: np.ndarray
    y: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    p: np.ndarray
    q: np.ndarray
    kappa: float

    def __post_init__(self):
        f = PreIwasawaFactors(self.x, self.y, self.X, self.Y, "modified")
        object.__setattr__(self, "x", f.x)
        object.__setattr__(self, "y", f.y)
        object.__setattr__(self, "X", f.X)
        object.__setattr__(self, "Y", f.Y)
        h = _degree_n(self.p, self.q, self.kappa, f.n)
        object.__setattr__(self, "p", h.lam)
        object.__setattr__(self, "q", h.mu)
        object.__setattr__(self, "kappa", h.kappa)

    @property
    def n(self):
        return self.x.shape[0]

    def theta(self):
        """Angle for n = 1: X = cos(theta), Y = sin(theta)."""
        if self.n != 1:
            raise BadShape("theta is only defined for degree 1")
        return float(np.arctan2(self.Y[0, 0], self.X[0, 0]))


def sn_chart_identity(n):
    return SnChart(np.zeros((n, n)), np.eye(n), np.eye(n), np.zeros((n, n)),
                   np.zeros(n), np.zeros(n), 0.0)


def sn_chart(g):
    x, y, _, xu, yu = _pre_iwasawa(g.M)
    p, q = pq_from_lm(g.lam, g.mu, g.M)
    return _trusted(SnChart, x, y, xu, yu, p, q, g.kappa)


def sn_chart_inverse(chart):
    m = pre_iwasawa_compose(
        _trusted(PreIwasawaFactors, chart.x, chart.y, chart.X, chart.Y, "modified"))
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
    pq = _to_pq(point, src)
    return point if src == dst else _from_pq(pq, dst)


def _to_pq(point, src):
    """A point of chart ``src`` in the pq chart; the entry check of x + iy is here."""
    if src == "vu":
        v, u = point
        v, u = check_siegel(v), np.asarray(u, dtype=complex).ravel()
        x, y, first, second, src = v.real, v.imag, u.real, u.imag, "xirho"
    else:
        x, y, first, second = point
        x, y = _siegel_xy(x, y)
    if src == "xirho":
        p = np.linalg.solve(y.T, _row(second).T).T
        return x, y, p, _row(first) - p @ x
    if src == "chipsi":
        return x, y, _row(second), _row(first)
    return x, y, _row(first), _row(second)


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
