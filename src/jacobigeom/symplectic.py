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

import functools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BadShape, ContractionViolation, NotSymmetric, NotSymplectic
from .exceptions import NotUnitaryPair, SingularDenominator
from . import linalg
from .linalg import _checked, _col, _degree, _fill, _fit, _from_col, _gate, _max_norm, _mT, _spd
from .linalg import _spd_powers, _spectral, _square, _trusted, check_symmetric, sym_residual
from .linalg import symmetrize


def j_matrix(n):
    """The standard symplectic form J_n = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


@functools.cache
def _j(n):
    """:func:`j_matrix` of degree n, built once and read-only, for the residuals."""
    j = j_matrix(n)
    j.setflags(write=False)
    return j


def blocks(m):
    """Split a 2n x 2n matrix, or each of a stack, into its (a, b, c, d) blocks."""
    m = np.asarray(m)
    n = m.shape[-1] // 2
    return m[..., :n, :n], m[..., :n, n:], m[..., n:, :n], m[..., n:, n:]


def from_blocks(a, b, c, d):
    """[[a, b], [c, d]] from n x n blocks, or from (k, n, n) stacks of them."""
    return np.concatenate([np.concatenate([a, b], axis=-1), np.concatenate([c, d], axis=-1)],
                          axis=-2)


def _jacobi_matrix(blks, row, col, corner, unit):
    """Assemble a (2n+2) x (2n+2) matrix with block rows and columns of
    sizes (n, 1, n, 1), the layout shared by the Jacobi and Heisenberg
    group embeddings and the Jacobi algebra:

        [ a     0     b     col1  ]
        [ row1  unit  row2  corner]
        [ c     0     d     col2  ]
        [ 0     0     0     unit  ]

    from blks = (a, b, c, d), row = (row1, row2) and col = (col1, col2), all rows
    (see ``linalg._row``); over a stack when the blocks are stacked.
    """
    lead, n = blks[0].shape[:-2], blks[0].shape[-1]
    lo, hi = slice(0, n), slice(n + 1, 2 * n + 1)  # the two size-n block rows/columns
    out = np.zeros(lead + (2 * n + 2, 2 * n + 2))
    out[..., lo, lo], out[..., lo, hi], out[..., hi, lo], out[..., hi, hi] = blks
    out[..., n, lo], out[..., n, hi], out[..., lo, -1], out[..., hi, -1] = (
        np.reshape(r, lead + (n,)) for r in row + col)
    out[..., n, -1] = corner
    out[..., n, n] = out[..., -1, -1] = unit
    return out


def _jacobi_parts(mat):
    """Read (blks, row, col, corner) back from the layout of :func:`_jacobi_matrix`.

    The unit entries and the structural zeros are not read; callers that
    need them compare against a re-assembled matrix.  Over a stack the rows come
    back as (..., 1, n).
    """
    n = (mat.shape[-1] - 2) // 2
    lo, hi = slice(0, n), slice(n + 1, 2 * n + 1)
    rows = (mat[..., n, lo], mat[..., n, hi], mat[..., lo, -1], mat[..., hi, -1])
    if mat.ndim > 2:
        rows = tuple(r[..., None, :] for r in rows)
    return ((mat[..., lo, lo], mat[..., lo, hi], mat[..., hi, lo], mat[..., hi, hi]),
            rows[:2], rows[2:], mat[..., n, -1])


def _even(m, stack=True, least=2):
    """``m`` read by ``linalg._square`` once of even size, at least ``least``, else BadShape: a
    symplectic matrix (or a stack), an sp(n) element or (``least`` 4) a Jacobi embedding."""
    m = _square(m, stack=stack)
    if m.shape[-1] % 2 or m.shape[-1] < least:
        raise BadShape(f"expected a square matrix of even size >= {least}, got {m.shape}")
    return m


def symplectic_residual(m):
    """Max-norm of M^t J M - J, per matrix of a stack.  Raises BadShape for
    non-even-dimensional input."""
    return _sp_residual(_even(m))


def _sp_residual(m):
    """:func:`symplectic_residual` of an M that :func:`_even` has read."""
    m, j = _max_norm(m)[1], _j(m.shape[-1] // 2)
    return np.max(np.abs(_mT(m) @ j @ m - j), axis=(-2, -1))


def is_symplectic(m, tol=None):
    """True iff ``M^t J M = J`` holds within ``tol`` (max-norm; default SP_TOL)."""
    return symplectic_residual(m) <= (linalg.SP_TOL if tol is None else tol)


def check_symplectic(m):
    """Validate the symplectic invariants (residual and det = 1) of M, or of each
    matrix of a stack; return M."""
    m = _even(m)
    _gate(_sp_residual(m), linalg.SP_TOL, NotSymplectic, "symplectic residual")
    det = np.linalg.det(m)
    _gate(abs(det - 1.0), linalg.DET_TOL * np.maximum(1.0, abs(det)), NotSymplectic,
          "|det M - 1|")
    return m


def sp_inverse(m):
    """Closed-form inverse  [[d^t, -b^t], [-c^t, a^t]]  of a symplectic matrix."""
    return _sp_inverse(check_symplectic(m))


def _sp_inverse(m):
    a, b, c, d = blocks(m)
    return from_blocks(_mT(d), -_mT(b), -_mT(c), _mT(a))


def check_block_relations(m, tol=None):
    """True iff both equivalent sets of block relations hold within ``tol``
    (max-norm; default SP_TOL).

    Set one:  a b^t = b a^t,  a d^t - b c^t = I,  c d^t = d c^t.
    Set two:  a^t c = c^t a,  a^t d - c^t b = I,  b^t d = d^t b.

    Agrees with :func:`is_symplectic` (the second set is M^t J M = J
    written out; the first is M J M^t = J).
    """
    a, b, c, d = blocks(_max_norm(_even(m, stack=False))[1])
    eye = np.eye(a.shape[0])
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
        _fill(self, *_sp_blocks(self.a, self.b, self.c))

    @property
    def n(self):
        return self.a.shape[-1]

    def to_matrix(self):
        return from_blocks(self.a, self.b, self.c, -_mT(self.a))

    @classmethod
    def from_matrix(cls, z):
        """Project ``z`` onto sp(n), b and c symmetrized; BadShape unless the residual of the
        projection (d + a^t, the asymmetry of b and c) is within PROJ_RTOL max(1, ||z||_max)."""
        scale, z = _max_norm(_even(z, stack=False))
        a, b, c, _ = blocks(z)
        elem = _trusted(cls, a, symmetrize(b), symmetrize(c))
        _gate(np.max(np.abs(z - elem.to_matrix())), linalg.PROJ_RTOL * scale, BadShape,
              "sp(n) projection residual")
        return elem


def _sp_blocks(a, b, c, rtol=None):
    """(a, b, c) of an sp(n) or Jacobi algebra element as float arrays, once b and c pass
    :func:`check_symmetric` within ``rtol`` and all three ``linalg._checked`` (BadShape)."""
    b, c = check_symmetric(b, rtol), check_symmetric(c, rtol)
    return _checked("mmm", b.shape[-1], (a, b, c))


def _generators(n):
    """The generators of sp(n, R) in basis order as (family, i, j): H_ij (all i, j), then F_ij
    and G_ij (i <= j, row by row): the one enumeration of :func:`sp_basis` and its labels."""
    upper = list(zip(*np.triu_indices(n)))
    return [("H", i, j) for i in range(n) for j in range(n)] + [
        (family, i, j) for family in "FG" for i, j in upper]


def sp_basis(n):
    """Generators H_ij (all i, j), F_ij and G_ij (i <= j) of sp(n, R).

    H_ij has a-block E_ij; 2 F_ij has b-block E_ij + E_ji; 2 G_ij has
    c-block E_ij + E_ji.  Count: 2 n^2 + n.
    """
    gens, zero = [], np.zeros((n, n))
    for family, i, j in _generators(n):
        e = np.zeros((n, n))
        e[i, j] = 1.0
        e = e if family == "H" else symmetrize(e)
        gens.append(SpAlgebraElement(*(e if f == family else zero for f in "HFG")))
    return gens


# ---------------------------------------------------------------------------
# orthogonal-symplectic pairs <-> U(n)


def unitary_pair_residual(x, y):
    """Max violation of the four pair relations X^tX+Y^tY = XX^t+YY^t = I,
    X^tY = Y^tX, YX^t = XY^t, per pair of a stack; X and Y are read as one array by
    ``linalg._square``, so they must have one shape."""
    return _pair_residual(_square((x, y)))


def _pair_residual(xy):
    """:func:`unitary_pair_residual` of (X, Y) read as one array ``xy``: the blocks of two
    products, Z^t Z with Z = [X Y] and W W^t with W = [X; Y]."""
    x, y = _max_norm(xy)[1]
    z, w = np.concatenate((x, y), -1), np.concatenate((x, y), -2)
    (xtx, xty, ytx, yty), (xxt, xyt, yxt, yyt) = blocks(_mT(z) @ z), blocks(w @ _mT(w))
    eye = np.eye(x.shape[-1])
    rels = np.array((xtx + yty - eye, xxt + yyt - eye, xty - ytx, yxt - xyt))
    return np.abs(rels).max((0, -2, -1))


def check_unitary_pair(x, y):
    xy = _square((x, y))
    _gate(_pair_residual(xy), linalg.UP_TOL, NotUnitaryPair, "pair residual")
    return xy[0], xy[1]


def pair_to_symplectic(x, y):
    """Embed the pair as the orthogonal symplectic matrix [[X, Y], [-Y, X]]."""
    return from_blocks(x, y, -y, x)


def unitary_iso(x, y):
    """Group isomorphism  [[X, Y], [-Y, X]] -> X + iY  onto U(n)."""
    x, y = check_unitary_pair(x, y)
    return x + 1j * y


def unitary_iso_inverse(u):
    """Inverse isomorphism: unitary U -> pair (Re U, Im U)."""
    u = _max_norm(_square(u, complex, stack=False))[1]
    _gate(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))), linalg.UP_TOL, NotUnitaryPair,
          "unitarity residual")
    return u.real.copy(), u.imag.copy()


# ---------------------------------------------------------------------------
# the Siegel upper half space and the Moebius action


def check_siegel(v):
    """v as complex once a Siegel point v = x + iy (:func:`_siegel`): x symmetric, y SPD."""
    v = _square(v, complex)
    _siegel(v[None])
    return v


def _siegel(run):
    """y's eigenpairs (``linalg._spd``) once the run of a point's matrices that ``linalg._read``
    made, (x, y, ...) or (v,) with v = x + iy, is a Siegel point: the one check of one.  x
    symmetric (first: NaN is NotSymmetric), y SPD; one ``sym_residual`` measures both."""
    run = np.concatenate((run.real, run.imag)) if run.dtype.kind == "c" else run
    asymmetry = sym_residual(run[:2])
    _gate(asymmetry[0], linalg.SYM_RTOL, NotSymmetric, "asymmetry")
    return _spd(run[1], asymmetry[1])[1]


def _ball(run):
    """The eigenpairs of the Hermitian part of I - W Wbar once the run (W,) that ``linalg._read``
    made is a ball point: the one check of one.  ContractionViolation unless W is symmetric within
    BALL_SYM_RTOL and the smallest eigenvalue of that one ``eigh`` (per matrix of a stack)
    exceeds BALL_MIN_EIG: W a strict contraction."""
    w = run[0]
    _gate(sym_residual(w), linalg.BALL_SYM_RTOL, ContractionViolation, "asymmetry of W")
    k = np.eye(w.shape[-1]) - w @ w.conj()
    e, u = np.linalg.eigh(0.5 * (k + _mT(k.conj())))
    _gate(e[..., 0], linalg.BALL_MIN_EIG, ContractionViolation,
          "smallest eigenvalue of I - W conj(W)", lower=True)
    return e, u


def mobius_act(m, v):
    """Fractional-linear action  v -> (a v + b)(c v + d)^{-1}  on the Siegel space.

    Equals ``(v c^t + d^t)^{-1} (v a^t + b^t)``; the action is a left
    action and is transitive.  ``c v + d`` is provably invertible for a
    symplectic M and a genuine Siegel point; a numerically singular
    denominator therefore raises SingularDenominator to flag an
    input-contract violation.
    """
    v, m = check_siegel(v), check_symplectic(m)
    _fit((m.shape[:-2], m.shape[-1] // 2), (v.shape[:-2], v.shape[-1]))
    return _mobius(m, v)[0]


def _mobius(m, v, u=None):
    """Moebius image of a validated Siegel point under a validated symplectic M,
    and ``u (c v + d)^{-1}`` of a row ``u`` (None without one), from one solve;
    over stacks as :func:`_right_divide`."""
    a, b, c, d = blocks(m)
    return _right_divide(a @ v + b, c @ v + d, u)


def _dmobius(m, v, v1, dv, u=None):
    """The differential ``(a - v1 c) dv (c v + d)^{-1}`` of the Moebius action of a
    validated M at v along a symmetric dv, where v1 is the image of v (it equals
    ``(c v + d)^{-t} dv (c v + d)^{-1}``), and ``u (c v + d)^{-1}`` of a row ``u``,
    from one solve as in :func:`_mobius`."""
    a, _, c, d = blocks(m)
    return _right_divide((a - v1 @ c) @ dv, c @ v + d, u)


def _right_divide(top, den, u=None):
    """``top den^{-1}``, symmetrized, and ``u den^{-1}`` of a row ``u`` (None without
    one), from one transposed solve; over stacks of matrices and rows alike.  A
    non-finite entry raises SingularDenominator, naming the first such stack index."""
    rhs = _mT(top) if u is None else np.concatenate([_mT(top), _col(u)], axis=-1)
    try:
        sol = np.linalg.solve(_mT(den), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDenominator(str(exc)) from exc
    k = top.shape[-1]
    if not np.isfinite(sol).all():  # the count, and the index it names, only on a fault
        _gate(np.sum(~np.isfinite(sol), axis=(-2, -1)), 0, SingularDenominator,
              "count of non-finite entries in the Moebius image")
    return symmetrize(sol[..., :k]), None if u is None else _from_col(sol[..., k:])


def m_point(x, y):
    """The symplectic matrix [[sqrt(y), x sqrt(y)^-1], [0, sqrt(y)^-1]].

    Sends the base point iI to x + iy under :func:`mobius_act`.
    """
    x, _, eig = _checked("mm", _degree((x, y)), (x, y), matrices=_siegel)
    s, si = _spd_powers(eig, 0.5, -0.5)
    return from_blocks(s, x @ si, np.zeros_like(s), si)


# ---------------------------------------------------------------------------
# pre-Iwasawa decompositions


@dataclass(frozen=True)
class PreIwasawaFactors:
    """Factors (x, y, X, Y) of a pre-Iwasawa decomposition.

    ``variant`` is "plain" or "modified"; the two are related by
    ``y_modified = y_plain^2`` with identical x and (X, Y).  From the ``eigh`` they were made
    with they keep the frame (s, U, q) of the modified y: s its root, U the eigenvectors and
    q the row of s^{-1} = U diag(q) U^t, which :func:`pre_iwasawa_compose` makes.
    """

    x: np.ndarray
    y: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    variant: str
    _frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in ("plain", "modified"):
            raise ValueError(f"unknown variant {self.variant!r}")
        chart = (self.x, self.y, self.X, self.Y)
        *chart, (w, u) = _checked("mmmm", _degree(chart), chart, matrices=_chart)
        r = (w * w if self.variant == "plain" else w)[..., None, :] ** 0.5
        _fill(self, *chart, self.variant, (_spectral(u, r), u, 1.0 / r))

    @property
    def n(self):
        return self.x.shape[-1]


def _chart(run):
    """y's eigenpairs once the run (x, y, X, Y) of a pre-Iwasawa chart point's matrices, as
    ``linalg._read`` makes it, passes: x + iy :func:`_siegel`, then (X, Y) the gate of
    :func:`check_unitary_pair`.  The one check of a chart point."""
    eig = _siegel(run)
    _gate(_pair_residual(run[2:]), linalg.UP_TOL, NotUnitaryPair, "pair residual")
    return eig


def _pre_iwasawa(m):
    """(x, y, X, Y, (s, U, q), w) of a validated symplectic matrix (or stack), with the
    modified y = A^{-1}, A = d d^t + c c^t = U diag(w) U^t by its one ``eigh``, and the frame
    of ``PreIwasawaFactors``: s = y^{1/2} and q = w^{1/2} as a row; x is symmetric for
    symplectic input (a theorem) and is symmetrized to clean up roundoff."""
    a, b, c, d = blocks(m)
    w, u = np.linalg.eigh(symmetrize(d @ _mT(d) + c @ _mT(c)))
    y, root = _spd_powers((w, u), -1.0, -0.5)
    x = symmetrize(y @ (d @ _mT(b) + c @ _mT(a)))
    return x, y, root @ d, -(root @ c), (root, u, w[..., None, :] ** 0.5), w


def pre_iwasawa(m):
    """Plain pre-Iwasawa factors of a symplectic matrix.

    The modified factors with y replaced by its root:
    ``y = (d d^t + c c^t)^{-1/2}``, ``X - iY = y (d + i c)`` and
    ``x = (d d^t + c c^t)^{-1} (d b^t + c a^t)``.  All factors are unique.
    """
    x, _, xu, yu, frame, _ = _pre_iwasawa(check_symplectic(m))
    return _trusted(PreIwasawaFactors, x, frame[0], xu, yu, "plain", frame)


def modified_pre_iwasawa(m):
    """Modified pre-Iwasawa factors: ``y = (d d^t + c c^t)^{-1}``,
    ``X - iY = y^{1/2} (d + i c)``, ``x = y (d b^t + c a^t)``."""
    x, y, xu, yu, frame, _ = _pre_iwasawa(check_symplectic(m))
    return _trusted(PreIwasawaFactors, x, y, xu, yu, "modified", frame)


def pre_iwasawa_compose(factors):
    """Recompose a symplectic matrix from pre-Iwasawa factors (either variant).

    Plain:    a = y X - x y^{-1} Y,  b = y Y + x y^{-1} X,
              c = -y^{-1} Y,         d = y^{-1} X.
    Modified: the same formulas with y replaced by y^{1/2}.  Both read s, the root of the
    modified y, and make s^{-1} from what the factors keep: no factorization.
    """
    s, u, q = factors._frame
    return _compose(factors.x, s, _spectral(u, q), factors.X, factors.Y)


def _compose(x, r, ri, xu, yu):
    """:func:`pre_iwasawa_compose` from r, the diagonal factor's root of y, and r^{-1}."""
    a = r @ xu - x @ ri @ yu
    b = r @ yu + x @ ri @ xu
    c = -(ri @ yu)
    d = ri @ xu
    return from_blocks(a, b, c, d)


def act_modified_chart(m, chart):
    """Action of M on a modified-chart point (x', y', X', Y').

    Returns (x1, y1, X1, Y1) where x1 + i y1 is the Moebius image of
    x' + i y' (the compatibility statement tested in the suite) and
    (X1, Y1) is the transported orthogonal pair:

        y1 = A^{-1},  x1 = A^{-1} N,
        A  = (c x' + d) y'^{-1} (c x' + d)^t + c y' c^t,
        N  = (c x' + d) y'^{-1} (x' a^t + b^t) + c y' a^t,
        X1 - i Y1 = y1^{1/2} {(c x' + d) y'^{-1/2} X' + c y'^{1/2} Y'
                    + i [c y'^{1/2} X' - (c x' + d) y'^{-1/2} Y']}.
    """
    m = check_symplectic(m)
    xp, yp, xu, yu, eig = _checked("mmmm", _degree(chart), chart, matrices=_chart)
    _fit((m.shape[:-2], m.shape[-1] // 2), (xp.shape[:-2], xp.shape[-1]))
    a, b, c, d = blocks(m)
    sp, spi, ypi = _spd_powers(eig, 0.5, -0.5, -1.0)
    cxd, cy = c @ xp + d, c @ yp
    w = cxd @ ypi
    big_a = w @ _mT(cxd) + cy @ _mT(c)
    big_n = w @ (xp @ _mT(a) + _mT(b)) + cy @ _mT(a)
    y1, s1 = _spd_powers(np.linalg.eigh(symmetrize(big_a)), -1.0, -0.5)
    x1 = symmetrize(y1 @ big_n)
    p, q = cxd @ spi, c @ sp
    x_new = s1 @ (p @ xu + q @ yu)
    y_new = s1 @ (p @ yu - q @ xu)
    return x1, y1, x_new, y_new
