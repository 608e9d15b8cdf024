"""The real symplectic group, the Siegel upper half space, and pre-Iwasawa factorizations.

A degree-n symplectic matrix is a 2n x 2n real matrix M with
``M^t J M = J`` where ``J = [[0, I], [-I, 0]]``.  Throughout, the block
splitting is ``M = [[a, b], [c, d]]`` with n x n blocks.

Two factorizations of M are provided:

* plain:     ``M = [[I, x], [0, I]] [[y, 0], [0, y^-1]] [[X, Y], [-Y, X]]``
  with ``y = (d d^t + c c^t)^{-1/2}`` and ``X - iY = y (d + i c)``;
* modified:  same shape but with ``y^{1/2}`` in the diagonal factor, so
  ``y_modified = y_plain^2`` while x and (X, Y) coincide.

The modified variant is the one that matches the fractional-linear
(Moebius) action on the Siegel upper half space: the (x, y) factor of
``M M'`` equals the Moebius image of ``x' + i y'`` under M.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import BadShape, NotSymplectic, NotUnitaryPair, SingularDenominator
from . import linalg
from .linalg import _gate, _spd_powers, _trusted, check_spd, check_symmetric, symmetrize


def j_matrix(n):
    """The standard symplectic form J_n = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def blocks(m):
    """Split a 2n x 2n matrix into its (a, b, c, d) blocks."""
    m = np.asarray(m)
    n = m.shape[0] // 2
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]


def from_blocks(a, b, c, d):
    return np.block([[np.asarray(a), np.asarray(b)], [np.asarray(c), np.asarray(d)]])


def _jacobi_matrix(blks, row, col, corner, unit):
    """Assemble a (2n+2) x (2n+2) matrix with block rows and columns of
    sizes (n, 1, n, 1), the layout shared by the Jacobi and Heisenberg
    group embeddings and the Jacobi algebra:

        [ a     0     b     col1  ]
        [ row1  unit  row2  corner]
        [ c     0     d     col2  ]
        [ 0     0     0     unit  ]

    from blks = (a, b, c, d), row = (row1, row2) and col = (col1, col2).
    """
    n = blks[0].shape[0]
    lo, hi = slice(0, n), slice(n + 1, 2 * n + 1)  # the two size-n block rows/columns
    out = np.zeros((2 * n + 2, 2 * n + 2))
    out[lo, lo], out[lo, hi], out[hi, lo], out[hi, hi] = blks
    out[n, lo], out[n, hi] = row
    out[lo, -1], out[hi, -1] = col
    out[n, -1] = corner
    out[n, n] = out[-1, -1] = unit
    return out


def _jacobi_parts(mat):
    """Read (blks, row, col, corner) back from the layout of :func:`_jacobi_matrix`.

    The unit entries and the structural zeros are not read; callers that
    need them compare against a re-assembled matrix.
    """
    n = (mat.shape[0] - 2) // 2
    lo, hi = slice(0, n), slice(n + 1, 2 * n + 1)
    return ((mat[lo, lo], mat[lo, hi], mat[hi, lo], mat[hi, hi]),
            (mat[n, lo], mat[n, hi]), (mat[lo, -1], mat[hi, -1]), mat[n, -1])


def symplectic_residual(m):
    """Max-norm of M^t J M - J.  Raises BadShape for non-even-dimensional input."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise BadShape(f"expected an even-dimensional square matrix, got {m.shape}")
    j = j_matrix(m.shape[0] // 2)
    return np.max(np.abs(m.T @ j @ m - j))


def is_symplectic(m, tol=None):
    """True iff ``M^t J M = J`` holds within ``tol`` (max-norm; default SP_TOL)."""
    return symplectic_residual(m) <= (linalg.SP_TOL if tol is None else tol)


def check_symplectic(m):
    """Validate the symplectic invariants (residual and det = 1); return M."""
    m = np.asarray(m, dtype=float)
    _gate(symplectic_residual(m), linalg.SP_TOL, NotSymplectic, "symplectic residual")
    det = np.linalg.det(m)
    _gate(abs(det - 1.0), linalg.DET_TOL * max(1.0, abs(det)), NotSymplectic, "|det M - 1|")
    return m


def sp_inverse(m):
    """Closed-form inverse  [[d^t, -b^t], [-c^t, a^t]]  of a symplectic matrix."""
    return _sp_inverse(check_symplectic(m))


def _sp_inverse(m):
    a, b, c, d = blocks(m)
    return from_blocks(d.T, -b.T, -c.T, a.T)


def check_block_relations(m, tol=None):
    """True iff both equivalent sets of block relations hold within ``tol``
    (max-norm; default SP_TOL).

    Set one:  a b^t = b a^t,  a d^t - b c^t = I,  c d^t = d c^t.
    Set two:  a^t c = c^t a,  a^t d - c^t b = I,  b^t d = d^t b.

    Agrees with :func:`is_symplectic` (the second set is M^t J M = J
    written out; the first is M J M^t = J).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise BadShape(f"expected an even-dimensional square matrix, got {m.shape}")
    a, b, c, d = blocks(m)
    n = a.shape[0]
    eye = np.eye(n)
    rels = [
        a @ b.T - b @ a.T,
        a @ d.T - b @ c.T - eye,
        c @ d.T - d @ c.T,
        a.T @ c - c.T @ a,
        a.T @ d - c.T @ b - eye,
        b.T @ d - d.T @ b,
    ]
    return all(np.max(np.abs(r)) <= (linalg.SP_TOL if tol is None else tol) for r in rels)


@dataclass(frozen=True)
class SpAlgebraElement:
    """Element (a, b; c, -a^t) of sp(n, R); b and c symmetric."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", check_symmetric(self.b))
        object.__setattr__(self, "c", check_symmetric(self.c))

    @property
    def n(self):
        return self.a.shape[0]

    def to_matrix(self):
        return from_blocks(self.a, self.b, self.c, -self.a.T)

    @classmethod
    def from_matrix(cls, z):
        a, b, c, d = blocks(z)
        _gate(np.max(np.abs(d + a.T)), linalg.PROJ_RTOL * max(1.0, np.max(np.abs(z))), BadShape,
              "deviation of the lower-right block from -a^t")
        return _trusted(cls, a, symmetrize(b), symmetrize(c))


def sp_basis(n):
    """Generators H_ij (all i, j), F_ij and G_ij (i <= j) of sp(n, R).

    H_ij has a-block E_ij; 2 F_ij has b-block E_ij + E_ji; 2 G_ij has
    c-block E_ij + E_ji.  Count: 2 n^2 + n.
    """
    gens = []
    zero = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a = np.zeros((n, n))
            a[i, j] = 1.0
            gens.append(SpAlgebraElement(a, zero, zero))
    for i in range(n):
        for j in range(i, n):
            b = np.zeros((n, n))
            b[i, j] += 0.5
            b[j, i] += 0.5
            gens.append(SpAlgebraElement(zero, b, zero))
    for i in range(n):
        for j in range(i, n):
            c = np.zeros((n, n))
            c[i, j] += 0.5
            c[j, i] += 0.5
            gens.append(SpAlgebraElement(zero, zero, c))
    return gens


# ---------------------------------------------------------------------------
# orthogonal-symplectic pairs <-> U(n)


def unitary_pair_residual(x, y):
    """Max violation of the four pair relations X^tX+Y^tY = XX^t+YY^t = I,
    X^tY = Y^tX, YX^t = XY^t."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    eye = np.eye(n)
    rels = [
        x.T @ x + y.T @ y - eye,
        x @ x.T + y @ y.T - eye,
        x.T @ y - y.T @ x,
        y @ x.T - x @ y.T,
    ]
    return max(np.max(np.abs(r)) for r in rels)


def check_unitary_pair(x, y):
    _gate(unitary_pair_residual(x, y), linalg.UP_TOL, NotUnitaryPair, "pair residual")
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def pair_to_symplectic(x, y):
    """Embed the pair as the orthogonal symplectic matrix [[X, Y], [-Y, X]]."""
    return from_blocks(x, y, -y, x)


def unitary_iso(x, y):
    """Group isomorphism  [[X, Y], [-Y, X]] -> X + iY  onto U(n)."""
    x, y = check_unitary_pair(x, y)
    return x + 1j * y


def unitary_iso_inverse(u):
    """Inverse isomorphism: unitary U -> pair (Re U, Im U)."""
    u = np.asarray(u, dtype=complex)
    _gate(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))), linalg.UP_TOL, NotUnitaryPair,
          "unitarity residual")
    return u.real.copy(), u.imag.copy()


# ---------------------------------------------------------------------------
# the Siegel upper half space and the Moebius action


def check_siegel(v):
    """Validate a Siegel point v = x + iy: x symmetric, y SPD."""
    v = np.asarray(v, dtype=complex)
    check_symmetric(v.real)
    check_spd(v.imag)
    return v


def _siegel_xy(x, y):
    """``x`` and ``y`` as float arrays, once x + iy has passed :func:`check_siegel`."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    check_siegel(x + 1j * y)
    return x, y


def mobius_act(m, v):
    """Fractional-linear action  v -> (a v + b)(c v + d)^{-1}  on the Siegel space.

    Equals ``(v c^t + d^t)^{-1} (v a^t + b^t)``; the action is a left
    action and is transitive.  ``c v + d`` is provably invertible for a
    symplectic M and a genuine Siegel point; a numerically singular
    denominator therefore raises SingularDenominator to flag an
    input-contract violation.
    """
    return _mobius(check_symplectic(m), check_siegel(v))[0]


def _mobius(m, v, u=None):
    """Moebius image of a validated Siegel point under a validated symplectic M,
    and ``u (c v + d)^{-1}`` of a row ``u`` (empty without one), from one solve."""
    a, b, c, d = blocks(m)
    rhs = (a @ v + b).T if u is None else np.column_stack([(a @ v + b).T, u])
    try:
        # right division by c v + d via a transposed solve
        sol = np.linalg.solve((c @ v + d).T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDenominator(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularDenominator("non-finite entries in the Moebius image")
    return symmetrize(sol[:, :v.shape[0]]), sol[:, v.shape[0]:].ravel()


def m_point(x, y):
    """The symplectic matrix [[sqrt(y), x sqrt(y)^-1], [0, sqrt(y)^-1]].

    Sends the base point iI to x + iy under :func:`mobius_act`.
    """
    x = check_symmetric(x)
    s, si = _spd_powers(check_spd(y), 0.5, -0.5)
    n = x.shape[0]
    return from_blocks(s, x @ si, np.zeros((n, n)), si)


# ---------------------------------------------------------------------------
# pre-Iwasawa decompositions


@dataclass(frozen=True)
class PreIwasawaFactors:
    """Factors (x, y, X, Y) of a pre-Iwasawa decomposition.

    ``variant`` is "plain" or "modified"; the two are related by
    ``y_modified = y_plain^2`` with identical x and (X, Y).
    """

    x: np.ndarray
    y: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    variant: str

    def __post_init__(self):
        if self.variant not in ("plain", "modified"):
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "x", check_symmetric(self.x))
        object.__setattr__(self, "y", np.asarray(check_spd(self.y), dtype=float))
        x_, y_ = check_unitary_pair(self.X, self.Y)
        object.__setattr__(self, "X", x_)
        object.__setattr__(self, "Y", y_)

    @property
    def n(self):
        return self.x.shape[0]


def _pre_iwasawa(m):
    """(x, y, y^{1/2}, X, Y) of a validated symplectic matrix, with the modified
    y = (d d^t + c c^t)^{-1} and its root from one ``eigh``; x is symmetric
    for symplectic input (a theorem) and is symmetrized to clean up roundoff."""
    a, b, c, d = blocks(m)
    y, root = _spd_powers(d @ d.T + c @ c.T, -1.0, -0.5)
    x = symmetrize(y @ (d @ b.T + c @ a.T))
    return x, y, root, root @ d, -(root @ c)


def pre_iwasawa(m):
    """Plain pre-Iwasawa factors of a symplectic matrix.

    The modified factors with y replaced by its root:
    ``y = (d d^t + c c^t)^{-1/2}``, ``X - iY = y (d + i c)`` and
    ``x = (d d^t + c c^t)^{-1} (d b^t + c a^t)``.  All factors are unique.
    """
    x, _, root, xu, yu = _pre_iwasawa(check_symplectic(m))
    return _trusted(PreIwasawaFactors, x, root, xu, yu, "plain")


def modified_pre_iwasawa(m):
    """Modified pre-Iwasawa factors: ``y = (d d^t + c c^t)^{-1}``,
    ``X - iY = y^{1/2} (d + i c)``, ``x = y (d b^t + c a^t)``."""
    x, y, _, xu, yu = _pre_iwasawa(check_symplectic(m))
    return _trusted(PreIwasawaFactors, x, y, xu, yu, "modified")


def pre_iwasawa_compose(factors):
    """Recompose a symplectic matrix from pre-Iwasawa factors (either variant).

    Plain:    a = y X - x y^{-1} Y,  b = y Y + x y^{-1} X,
              c = -y^{-1} Y,         d = y^{-1} X.
    Modified: the same formulas with y replaced by y^{1/2}.
    """
    f = factors
    power = 1.0 if f.variant == "plain" else 0.5
    r, ri = _spd_powers(f.y, power, -power)
    a = r @ f.X - f.x @ ri @ f.Y
    b = r @ f.Y + f.x @ ri @ f.X
    c = -(ri @ f.Y)
    d = ri @ f.X
    return from_blocks(a, b, c, d)


def act_modified_chart(m, chart):
    """Action of M on a modified-chart point (x', y', X', Y').

    Returns (x1, y1, X1, Y1) where x1 + i y1 is the Moebius image of
    x' + i y' (the compatibility statement tested in the suite) and
    (X1, Y1) is the transported orthogonal pair:

        y1 = A^{-1},  x1 = A^{-1} N,
        A  = c(y' + x' y'^-1 x')c^t + d y'^-1 d^t + c x' y'^-1 d^t + d y'^-1 x' c^t,
        N  = c(y' + x' y'^-1 x')a^t + c x' y'^-1 b^t + d y'^-1 x' a^t + d y'^-1 b^t,
        X1 - i Y1 = y1^{1/2} {(c x' + d) y'^{-1/2} X' + c y'^{1/2} Y'
                    + i [c y'^{1/2} X' - (c x' + d) y'^{-1/2} Y']}.
    """
    a, b, c, d = blocks(check_symplectic(m))
    f = PreIwasawaFactors(*chart, "modified")
    xp, yp, xu, yu = f.x, f.y, f.X, f.Y
    sp, spi, ypi = _spd_powers(yp, 0.5, -0.5, -1.0)
    core = yp + xp @ ypi @ xp
    big_a = c @ core @ c.T + d @ ypi @ d.T + c @ xp @ ypi @ d.T + d @ ypi @ xp @ c.T
    big_n = c @ core @ a.T + c @ xp @ ypi @ b.T + d @ ypi @ xp @ a.T + d @ ypi @ b.T
    y1, s1 = _spd_powers(big_a, -1.0, -0.5)
    x1 = symmetrize(y1 @ big_n)
    cxd = c @ xp + d
    x_new = s1 @ (cxd @ spi @ xu + c @ sp @ yu)
    y_new = s1 @ (cxd @ spi @ yu - c @ sp @ xu)
    return x1, y1, x_new, y_new
