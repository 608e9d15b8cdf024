"""Structured linear-algebra primitives.

Symmetric/SPD validation, vec/vech calculus with duplication and
elimination matrices, the Kronecker sum, dense Sylvester solves,
the principal square root of an SPD matrix together with its
directional derivative (Frechet derivative along a symmetric direction),
and a numpy-only matrix exponential for sampling group elements.

Conventions fixed here and relied on everywhere else:

* ``vec`` stacks columns (column-major).
* ``vech`` stacks the lower triangle column by column.
* ``kron_sum(A, B) = A (x) I_m + I_n (x) B``, so the operator of the
  Sylvester equation ``A X + X B = C`` is ``kron_sum(B^t, A)`` acting on
  ``vec(X)``.
* Every validation bound of the package is a constant in the one block
  below, read at call time (not bound as a default), and every gate
  compares through :func:`_gate`, whose ``not residual <= bound`` form
  fails on a NaN residual or bound instead of letting it slip past.
* Validation happens once, where a value enters from a caller; a value
  derived from validated ones is built by :func:`_trusted`, unchecked.
"""

import numpy as np

from .exceptions import BadShape, NotSpd, NotSymmetric, SingularSylvester

# Validation bounds, the only ones in the package (README "Tolerances").  "rel x":
# the gate scales the bound by x, a symmetry residual by max(1, ||A||_max); "abs": unscaled.
SYM_RTOL = 1e-12         # rel: asymmetry of an input matrix that the caller built symmetric
SPD_EIG_RTOL = 1e-10     # rel largest eigenvalue: smallest eigenvalue of an SPD input (strict)
SYLVESTER_RTOL = 1e-8    # rel max(1, ||C||_F): solve residual; above it the system is singular
SP_TOL = 1e-10           # abs: ||M^t J M - J||_max of an input (its roundoff grows as ||M||^2)
DET_TOL = 1e-8           # rel max(1, |det M|): |det M - 1|, the cross-check of SP_TOL
UP_TOL = 1e-10           # abs: orthogonal-pair and unitarity residuals; rel max|K| for a tangent K
PROJ_RTOL = 1e-10        # rel max(1, ||Z||_max): residual of projecting Z on sp(n) or on g^J
EMBED_RTOL = 1e-8        # rel max(1, ||G||_max): re-embedding residual of a Jacobi matrix G
ALG_SYM_RTOL = 1e-9      # rel: asymmetry of the b and c blocks of a Jacobi algebra element
SNAP_TOL = 1e-9          # abs: distance of a bracket structure constant from the k/4 grid
TANGENT_SYM_RTOL = 1e-6  # rel: asymmetry of S_n tangent dx, dy; central differences give ~1e-10
FORM_SYM_RTOL = 1e-9     # rel: asymmetry of F and G in the matrix chart (a tangent check)
FORM_SN_SYM_RTOL = 1e-8  # rel: asymmetry of F and G in the S_n chart (a (dX, dY) tangent check)
TANGENT_SP_RTOL = 1e-10  # rel max(1, ||M||_max): linearized symplectic residual of a tangent
BALL_SYM_RTOL = 1e-10    # rel: asymmetry of a ball point W
BALL_MIN_EIG = 1e-10     # abs: smallest eigenvalue of I - W conj(W) at a ball point (strict)


def _gate(residual, bound, exc, what, lower=False):
    """Raise ``exc`` unless ``residual <= bound`` (``residual > bound`` if ``lower``),
    written so that a NaN residual or bound fails: every validation gate's one exit."""
    if not (residual > bound if lower else residual <= bound):
        raise exc(f"{what} {residual:.3e} {'is not above' if lower else 'exceeds'} {bound:.3e}")


def _row(v):
    """A row vector as a 1-d float array."""
    return np.asarray(v, dtype=float).ravel()


def _trusted(cls, *values):
    """The frozen dataclass ``cls`` with ``values`` as its fields, in declaration
    order, built without ``__post_init__``: for values derived from validated ones."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


def sym_residual(a):
    """Max-norm asymmetry of ``a`` relative to max(1, ||a||_max)."""
    a = np.asarray(a)
    return np.max(np.abs(a - a.T)) / max(1.0, np.max(np.abs(a)))


def check_symmetric(a, rtol=None):
    """Return ``a`` if symmetric within ``rtol`` (default SYM_RTOL), else raise NotSymmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadShape(f"expected a square matrix, got shape {a.shape}")
    _gate(sym_residual(a), SYM_RTOL if rtol is None else rtol, NotSymmetric, "asymmetry")
    return a


def symmetrize(a):
    return 0.5 * (np.asarray(a) + np.asarray(a).T)


def check_spd(a):
    """Return ``a`` if symmetric positive definite, else raise NotSpd: the smallest
    eigenvalue must exceed SPD_EIG_RTOL times the largest (strict, as on paper)."""
    try:
        a = check_symmetric(a)
    except NotSymmetric as exc:
        raise NotSpd(str(exc)) from exc
    w = np.linalg.eigvalsh(symmetrize(a))
    _gate(w[0], SPD_EIG_RTOL * max(w[-1], 0.0), NotSpd, "smallest eigenvalue", lower=True)
    return a


def kron_sum(a, b):
    """Kronecker sum  A (x) I_m + I_n (x) B  of square matrices A (n x n), B (m x m).

    Oriented so that ``kron_sum(B^t, A) vec(X) = vec(A X + X B)``.
    Eigenvalues are all sums lambda_i(A) + mu_j(B).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadShape(f"first operand must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise BadShape(f"second operand must be square, got {b.shape}")
    n, m = a.shape[0], b.shape[0]
    return np.kron(a, np.eye(m)) + np.kron(np.eye(n), b)


def vec(a):
    """Column-stacking vectorization (column-major)."""
    return np.asarray(a).flatten(order="F")


def unvec(v, n, m=None):
    """Inverse of :func:`vec` for an ``n x m`` matrix."""
    if m is None:
        m = n
    return np.asarray(v).reshape((n, m), order="F")


def _vech_indices(n):
    # lower triangle, column by column: (0,0),(1,0),...,(n-1,0),(1,1),...
    return [(i, j) for j in range(n) for i in range(j, n)]


def vech(a):
    """Half-vectorization of a symmetric matrix (lower triangle, column-major)."""
    a = check_symmetric(a)
    n = a.shape[0]
    return np.array([a[i, j] for i, j in _vech_indices(n)])


def unvech(v, n):
    """Symmetric matrix from its half-vectorization."""
    a = np.zeros((n, n))
    for k, (i, j) in enumerate(_vech_indices(n)):
        a[i, j] = v[k]
        a[j, i] = v[k]
    return a


def duplication_matrix(n):
    """D_n with  vec(A) = D_n vech(A)  for symmetric A.  Shape n^2 x n(n+1)/2."""
    idx = _vech_indices(n)
    d = np.zeros((n * n, len(idx)))
    for k, (i, j) in enumerate(idx):
        d[j * n + i, k] = 1.0
        d[i * n + j, k] = 1.0  # same cell when i == j
    return d


def elimination_matrix(n):
    """L_n with  vech(A) = L_n vec(A).  Satisfies L_n D_n = I exactly."""
    idx = _vech_indices(n)
    ell = np.zeros((len(idx), n * n))
    for k, (i, j) in enumerate(idx):
        ell[k, j * n + i] = 1.0
    return ell


def sylvester_solve(a, b, c):
    """Solve  A X + X B = C  by dense Kronecker linearization.

    The linear system is ``(I_m (x) A + B^t (x) I_n) vec(X) = vec(C)``,
    solvable iff the spectra of A and -B are disjoint.  Matrix sizes here
    are small (n, m of order 10), so the dense n*m x n*m solve is exact
    enough and no Schur-based algorithm is needed.  Raises SingularSylvester
    if the operator is singular, exactly or by the residual (SYLVESTER_RTOL).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadShape(f"A must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise BadShape(f"B must be square, got {b.shape}")
    n, m = a.shape[0], b.shape[0]
    if c.shape != (n, m):
        raise BadShape(f"C must be {n}x{m}, got {c.shape}")
    op = kron_sum(b.T, a)
    try:
        x = np.linalg.solve(op, vec(c))
    except np.linalg.LinAlgError as exc:
        raise SingularSylvester(f"Kronecker-sum operator is singular: {exc}") from exc
    x = unvec(x, n, m)
    _gate(np.linalg.norm(a @ x + x @ b - c), SYLVESTER_RTOL * max(1.0, np.linalg.norm(c)),
          SingularSylvester, "Sylvester residual")
    return x


def sqrtm_spd(a):
    """Principal square root of an SPD matrix via symmetric eigendecomposition.

    Deterministic and accurate at the target scale; Newton iterations are
    not used.  The result S is SPD and satisfies ``S S = A`` to roundoff.
    """
    return _spd_powers(check_spd(a), 0.5)[0]


def _spd_powers(a, *powers):
    """Powers ``a^p`` of an SPD matrix the library has validated, from one ``eigh``."""
    w, u = np.linalg.eigh(symmetrize(a))
    return tuple(symmetrize((u * w ** p) @ u.T) for p in powers)


def dsqrtm(a, da):
    """Directional derivative of the SPD square root.

    Solves ``X A^{1/2} + A^{1/2} X = dA`` for X, i.e. applies the inverse
    Kronecker sum ``(A^{1/2} (+) A^{1/2})^{-1}`` to ``vec(dA)``.  X is
    symmetric whenever ``da`` is.
    """
    return _sqrt_frame(check_spd(a), check_symmetric(da))[2]


def _sqrt_frame(y, dy):
    """(s, s^{-1}, ds) for a validated SPD y: s = y^{1/2} and s^{-1} from one
    ``eigh``, ds its derivative along dy from the Sylvester equation s ds + ds s = dy."""
    s, si = _spd_powers(y, 0.5, -0.5)
    return s, si, symmetrize(sylvester_solve(s, s, dy))


# [7/7] Pade coefficients b_0..b_7 and the 1-norm bound theta_7 below which the
# approximant's backward error is under the unit roundoff (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005, Table 2.3)
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)
_THETA7 = 0.9504178996162932


def expm(a):
    """Matrix exponential by scaling and squaring of the [7/7] Pade approximant.

    ``A`` is scaled by ``2^-s`` with the smallest ``s >= 0`` that brings
    ``||A||_1`` below theta_7; the approximant ``r = (V - U)^{-1} (V + U)``,
    with ``U`` the odd and ``V`` the even part, is then squared ``s`` times.
    """
    a = np.asarray(a, dtype=float)
    s = max(0, int(np.frexp(np.linalg.norm(a, 1) / _THETA7)[1]))
    a = a / 2.0 ** s
    b = _PADE7
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(a.shape[0])
    u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
