"""Structured linear-algebra primitives.

Symmetric/SPD validation, vec/vech calculus with duplication and
elimination matrices, the Kronecker sum, dense Sylvester solves,
the principal square root of an SPD matrix together with its
directional derivative (Frechet derivative along a symmetric direction),
and a numpy-only matrix exponential for sampling group elements.

The derivative of the square root has two independent routes: the public
:func:`dsqrtm` solves ``L_n (S (+) S) D_n vech(X) = vech(dA)``, the Kronecker
linearization of the paper's appendix on the n(n+1)/2 unknowns of a symmetric X,
while the S_n-chart frame :func:`_sqrt_frame` divides in the eigenbasis of a
:func:`_root_frame` that the chart keeps from the ``eigh`` its check already
made (the Daleckii-Krein form), with no linear system and no further ``eigh``.

Conventions fixed here and relied on everywhere else:

* ``vec`` stacks columns (column-major).
* ``vech`` stacks the lower triangle column by column.
* ``kron_sum(A, B) = A (x) I_m + I_n (x) B``, so the operator of the
  Sylvester equation ``A X + X B = C`` is ``kron_sum(B^t, A)`` acting on
  ``vec(X)``.
* Every validation bound of the package is a constant in the one block
  below, read at call time (not bound as a default), and every gate
  compares through :func:`_gate`, whose ``not residual <= bound`` form
  fails on a NaN residual or bound instead of letting it slip past; a
  non-finite input entry is made NaN first (:func:`_max_norm`).
* Validation happens once, where a value enters from a caller (a dataclass sets
  the checked values by :func:`_fill`); a value derived from validated ones is
  built by :func:`_trusted`, unchecked.  Every argument is read under one cast
  rule, :func:`_cast`: a whole matrix by :func:`_square`, a tuple (a tangent,
  rows and kappas, a point, a chart) by :func:`_checked` and its table, before
  any other numpy call.  Each kind of matrix point has one check, which takes
  the one array the reader made of its matrices and returns the ``eigh`` it
  made for the kernel: ``symplectic._siegel``, ``_chart`` and ``_ball``, and
  :func:`_spd` of a matrix; all parts of one tuple have one stack shape, and
  one rule, :func:`_fit`, says if an element, a point and tangents go together.
* A check makes one vectorised pass per group of inputs, not one numpy call
  per part: one reader, :func:`_read`, takes each layout letter's parts of any
  tuple, pair or point as one array, :func:`_checked` tests the symmetric ones
  by one :func:`_symmetric`, and ``symplectic._siegel`` tests x and y by one.
  Only where that says no does a gate measure :func:`sym_residual` and say why.
"""

import functools

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
INVARIANCE_RTOL = 1e-12  # rel the sample's scale: invariance_report's default verdict bound


def _gate(residual, bound, exc, what, lower=False):
    """Raise ``exc`` unless ``residual <= bound`` (``residual > bound`` if ``lower``),
    written so that a NaN residual or bound fails: every validation gate's one exit.
    Over a stack (residuals of shape (k,), or (j, k, ...)) every entry must pass, and
    the message names the stack index of the first that does not, in C order."""
    ok = residual > bound if lower else residual <= bound
    if ok is True or ok is np.True_:
        return
    where = ""
    if np.ndim(ok):
        if ok.all():
            return
        i = tuple(int(j) for j in np.unravel_index(np.argmin(ok), ok.shape))
        residual, bound = (np.broadcast_to(v, ok.shape)[i] for v in (residual, bound))
        where = f" at stack index {i[0] if len(i) == 1 else i}"
    raise exc(f"{what} {residual:.3e} {'is not above' if lower else 'exceeds'} {bound:.3e}"
              f"{where}")


def _mT(a):
    """The transpose of a matrix, or of each matrix of a stack (..., n, m): numpy's
    ``swapaxes(-1, -2)``, as a method call, which costs a third of ``np.swapaxes``."""
    return a.swapaxes(-1, -2)


def _row(v, dtype=float):
    """A row vector as a 1-d array, or a stack of rows (..., 1, n) as it is.

    Kernels take rows in either form: ``r @ m`` is then a row or a stack of
    rows, :func:`_dot` pairs two of them, and :func:`_col` and
    :func:`_from_col` carry them through ``solve``."""
    v = np.asarray(v, dtype=dtype)
    return v if v.ndim > 2 else v.ravel()


def _lift(stacked, *rows):
    """``rows`` (:func:`_row`), a 1-d one as a stack of one, (1, 1, n), if ``stacked``: its
    product with a stack of matrices is then a stack of rows (..., 1, n), as ``_row`` keeps it."""
    return tuple(r[None, None] if r.ndim == 1 else r for r in rows) if stacked else rows


def _dot(r, s):
    """r s^t of two rows: a scalar, or shape (...) for stacks of rows (..., 1, n); a row
    pairs with each row of a stack, and stacks broadcast against each other."""
    if s.ndim == 1:
        return r @ s if r.ndim == 1 else (r @ s)[..., 0]
    return (s @ r)[..., 0] if r.ndim == 1 else (r @ _mT(s))[..., 0, 0]


def _fit(a, b, into=False):
    """BadShape unless ``a`` and ``b``, each the (stack shape, degree) of an element, a point or
    a tangent, have one degree and stack shapes that broadcast, both ways or, ``into`` (a point
    and its tangents), a's into b's: the one fit rule.  Returns the (stack shape, degree) of the
    two together; equal or empty shapes skip numpy."""
    (lead, n), (other, m) = a, b
    if n != m:
        raise BadShape(f"degree mismatch: {n} vs {m}")
    if lead == other or not lead:
        return b
    if not (other or into):
        return a
    try:
        both = np.broadcast_shapes(lead, other)
        if both == other or not into:
            return both, n
    except ValueError:
        pass
    where = f"over tangents stacked {other}" if into else f"against a stack {other}"
    raise BadShape(f"a {'point stack' if into else 'stack'} {lead} does not broadcast {where}")


def _tangent(kind, at, tangent, pair=False):
    """``tangent`` of ``kind`` at a point of (stack shape, degree) ``at``, once :func:`_checked`
    (``pair``: the two tangents ``tangent`` as one) and :func:`_fit` pass it."""
    tangent = _checked(kind, at[1], tangent, pair=pair)
    _fit(at, (tangent[0].shape[int(pair):-2], at[1]), into=True)
    return tangent


def _col(r):
    """A row (n,) or a stack of rows (..., 1, n) as columns (n, 1) or (..., n, 1),
    the right-hand side ``solve`` takes."""
    return _mT(np.atleast_2d(r))


def _from_col(c):
    """The inverse of :func:`_col`."""
    return c[:, 0] if c.ndim == 2 else _mT(c)


def _fro(a):
    """The Frobenius norm of a real matrix, or per matrix of a stack."""
    return np.sqrt(np.square(a).sum((-2, -1)))


def _modulus(v):
    """|v| entrywise as hypot(Re v, Im v), which numpy computes alike on a stack of one
    and on a long stack (its complex ``abs`` does not), so that a replayed sample gives
    its error bit for bit."""
    return np.hypot(v.real, v.imag)


def _trusted(cls, *values):
    """The frozen dataclass ``cls`` with ``values`` as its fields, in declaration
    order, built without ``__post_init__``: for values derived from validated ones."""
    return _fill(object.__new__(cls), *values)


def _fill(obj, *values):
    """``obj``, a frozen dataclass, with ``values`` as its fields in declaration order: the one
    way to set them, for :func:`_trusted` and each ``__post_init__`` once it has checked them."""
    for name, value in zip(obj.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


def _max_norm(a, axis=None):
    """max(1, ||a||_max), a relative gate's scale (per matrix of a stack over axis (-2, -1)),
    and ``a``, each non-finite entry made NaN if a norm is not finite: a residual formed from
    ``a`` is then NaN, which every gate refuses, with no inf - inf or 0 inf (numpy's
    invalid-value warning) on the way.  ``a`` is not copied if finite."""
    scale = np.abs(a).max(axis, initial=1.0)
    top = scale if scale.ndim == 0 else scale.max(initial=1.0)  # not .all(): 3 us on a scalar
    return scale, a if top < np.inf else np.where(np.isfinite(a), a, np.nan)


def sym_residual(a):
    """Max-norm asymmetry of ``a`` relative to max(1, ||a||_max), per matrix of a stack;
    NaN for a matrix with a non-finite entry (so inf - inf is never formed)."""
    scale, a = _max_norm(np.asarray(a), (-2, -1))
    return np.abs(a - _mT(a)).max((-2, -1)) / scale


@np.errstate(all="ignore")  # a non-finite or huge entry only makes the answer no
def _symmetric(a, bound):
    """Whether each real and imaginary part of a - a^t, antisymmetric, has its largest entry at
    most ``bound`` over all of ``a`` (NaN: no).  A gate's scale is at least 1, so a yes passes
    it: the short cut each gate takes before its :func:`sym_residual`, which says why."""
    d = a - _mT(a)
    return np.maximum.reduce(d.view(d.real.dtype), None) <= bound


def _cast(a, dtype, what):
    """``a`` as an array of ``dtype`` once numpy makes one of it (no ragged list) of a dtype that
    casts within its kind (no complex entry of a real argument, no string, no dict), else
    BadShape: the one cast rule, of :func:`_read` and :func:`_square`."""
    try:
        a = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise BadShape(f"{what} takes an array: {exc}") from exc
    if a.dtype != dtype and not np.can_cast(a.dtype, dtype, "same_kind"):
        raise BadShape(f"{what} takes {np.dtype(dtype)} entries, got {a.dtype}")
    return a.astype(dtype, copy=False)


def _square(a, dtype=float, stack=True):
    """``a`` as an array of ``dtype`` (:func:`_cast`) once a non-empty square matrix or, if
    ``stack``, a stack of them, else BadShape: the one read of a whole-matrix argument."""
    a = _cast(a, dtype, "a matrix")
    if a.ndim < 2 or a.ndim > 2 and not stack or a.shape[-1] != a.shape[-2] or not a.shape[-1]:
        raise BadShape(f"expected a square matrix{', no stack' * (not stack)}, got {a.shape}")
    return a


def check_symmetric(a, rtol=None):
    """Return ``a`` (a non-empty square matrix or a stack of them) if symmetric within
    ``rtol`` (default SYM_RTOL), else raise NotSymmetric."""
    a, rtol = _square(a), SYM_RTOL if rtol is None else rtol
    _symmetric(a, rtol) or _gate(sym_residual(a), rtol, NotSymmetric, "asymmetry")
    return a


def symmetrize(a):
    a = np.asarray(a)
    return 0.5 * (a + _mT(a))


# Each kind of tangent and row tuple: layout, dtype, whether a stack, and how many leading
# matrices (dx, dy) must be symmetric within TANGENT_SYM_RTOL (see _checked).  A kind with no
# row is its own layout of float parts over a stack, no gate: "rrk" for (lambda, mu, kappa) or
# (p, q, kappa), "mmm" (a, b, c), "mm" (x, y), "mmmm" (x, y, X, Y).
_KINDS = {
    "matrix": ("mmmmrrk", float, False, 0),   # (da, db, dc, dd, dp, dq, dkappa)
    "sn": ("mmmmrrk", float, True, 2),        # (dx, dy, dX, dY, dp, dq, dkappa)
    "xjn": ("mmrr", float, True, 2),          # (dx, dy, dp, dq)
    "extended": ("mmrrk", float, True, 2),    # (dx, dy, dp, dq, dkappa)
    "vu": ("mr", complex, True, 0),           # (dv, du); (dW, dz) on the ball
    "ball_act": ("mmr", complex, True, 0),    # (P, Q, alpha) of a ball_act element
    "n1": ("k" * 11, float, False, 0),        # oneforms_n1's point and tangent
}


def _degree(parts):
    """The degree n of a tuple of parts: the last axis of its first (a matrix or a row), or 0 if
    it has none, which the reader then refuses.  The probe of a point and of an element whose
    degree its parts alone give."""
    try:
        return np.shape(parts[0])[-1]
    except (IndexError, KeyError, TypeError, ValueError):
        return 0


@functools.cache
def _kind(kind, n):
    """The _KINDS row of ``kind`` at degree n, worked out once: layout, dtype, whether a stack,
    symmetric count, the runs (letter, slice of its parts) of the layout's letters, and the
    (shape, dtype) of each run's array for one unstacked tuple with rows (n,) and for a pair."""
    layout, dtype, stacks, sym = _KINDS.get(kind, (kind, float, True, 0))
    runs = [(c, slice(layout.index(c), layout.index(c) + layout.count(c)))
            for c in dict.fromkeys(layout)]
    flat, dtype = {"m": (n, n), "r": (n,), "k": ()}, np.dtype(dtype)
    return layout, dtype, stacks, sym, runs, [[((s.stop - s.start, *lead, *flat[c]), dtype)
                                                for c, s in runs] for lead in ((), (2,))]


def _read(row, kind, n, parts, pair):
    """Step (1) of :func:`_checked`: (lead, arrays), one array (j, *lead, *tail) per run of j
    parts of ``row`` (:func:`_kind`), lead the stack shape, (2,) in front for a ``pair``.  A part
    is the stack shape and (n, n) ("m"), () ("k") or (1, n) ("r"; (n,) unstacked), n >= 1, of a
    dtype :func:`_cast` takes; rows are (n,) unstacked.  Scalar calls pass by one comparison, else
    a loop over the runs as read."""
    layout, dtype, stacks, _, runs, canonical = row
    try:
        flat = tuple(zip(*parts, strict=True)) if pair else parts
        read = [np.array(flat[s]) for _, s in runs] if len(flat) == len(layout) else None
    except (TypeError, ValueError):
        read = None
    if n and read and [(a.shape, a.dtype) for a in read] == canonical[pair]:
        return ((2,), [a[:, :, None] if c == "r" else a
                       for (c, _), a in zip(runs, read)]) if pair else ((), read)
    for t in parts if pair else (parts,):
        got = (len(t) if hasattr(t, "__len__") and getattr(t, "shape", 1)
               else f"an object of type {type(t).__name__}")
        if got != len(layout):
            raise BadShape(f"{kind} tuples have {len(layout)} parts, got {got}")
    if not n:
        raise BadShape(f"a {kind} tuple takes parts of degree n >= 1, got n = 0")
    parts, stack, arrays = tuple(zip(*parts)) if pair else parts, None, []
    for k, (c, s) in enumerate(runs):
        try:
            try:
                run = [read[k] if read else np.array(parts[s])]
            except ValueError:  # parts of several shapes: rows (n,) beside (1, n), or a fault
                run = [np.array(parts[i:i + 1]) for i in range(s.start, s.stop)]
        except (TypeError, ValueError) as exc:
            raise BadShape(("t1 and t2 must have one shape: " if pair else
                            f"a {kind} tuple takes arrays: ") + str(exc)) from exc
        if stack is None:  # the first part's shape, less a matrix's or a row's two axes
            stack = run[0].shape[1 + pair:][:None if c == "k" else -2]
        lead, tail = (2,) * pair + stack, {"m": (n, n), "r": (1, n), "k": ()}[c]
        for i, a in enumerate(run):
            rest = a.shape[1 + pair:]
            if (stack and not stacks) or not (rest == stack + tail
                                              or c == "r" and not stack and rest == (n,)):
                raise BadShape(f"a {kind} tuple {layout} at n = {n} takes m n x n, r rows of n, k "
                               f"scalars over one stack shape, got {c} {rest} over {stack}")
            a = _cast(a, dtype, f"a {kind} tuple")
            run[i] = a.reshape((len(a), *lead, *tail) if lead else (len(a), n)) if c == "r" else a
        arrays.append(run[0] if len(run) == 1 else np.concatenate(run))
    return lead, arrays


def _checked(kind, n, parts, gate=None, pair=False, matrices=None):
    """``parts`` of ``kind`` (_KINDS; ``pair``: two tuples of it, as one stacked on a new leading
    axis) as arrays of its dtype, rows as :func:`_read` gives them and an unstacked scalar as a
    float, once (1) :func:`_read` takes them, else BadShape; (2) the kind's leading matrices
    are symmetric (NotSymmetric), or, ``matrices`` given, all of them go to it instead as their
    one array (a point's check, which gates their values, or the element's own use of them) and
    its result follows the parts, and ``gate`` passes the parts with non-finite entries made NaN
    (:func:`_max_norm`); (3) every entry not given to ``matrices`` is finite, else BadShape
    naming the first failing stack index: the one check of a tangent, of rows and kappas, and of
    a point's parts.  Each letter's parts are one array, so the check makes one
    :func:`_symmetric` test over the symmetric matrices (their ``sym_residual`` and gate only if
    it says no) and one finiteness reduction over the rest."""
    layout, _, _, sym, _, _ = row = _kind(kind, n)
    lead, arrays = _read(row, kind, n, parts, pair)
    if matrices is not None:
        sym, made = len(arrays[0]), matrices(arrays[0])
    elif sym and not _symmetric(arrays[0][:sym], TANGENT_SYM_RTOL):
        dx, dy = sym_residual(arrays[0][:sym])
        _gate(np.maximum(dx, dy), TANGENT_SYM_RTOL, NotSymmetric, "asymmetry of dx or dy")
    # the symmetric matrices that passed are finite (a non-finite one has a NaN residual); the
    # values of those given to ``matrices`` are its business
    rest = arrays[1:] if sym == len(arrays[0]) else [arrays[0][sym:], *arrays[1:]]
    whole = not rest or np.isfinite(rest[0] if len(rest) == 1 else
                                    np.concatenate([a.ravel() for a in rest])).all()
    parts = [p for a in arrays for p in a]  # the runs are the layout's, in order
    if gate is not None:
        gate(*(parts if whole else [_max_norm(p)[1] for p in parts]))
    if not whole:
        _gate(sum((~np.isfinite(a)).sum((0, *range(1 + len(lead), a.ndim))) for a in arrays), 0,
              BadShape, "count of non-finite entries")
    if not lead and layout[-1] == "k":  # the kappas, the last run, as floats
        parts[-len(arrays[-1]):] = arrays[-1].tolist()
    return tuple(parts) if matrices is None else (*parts, made)


def check_spd(a):
    """Return ``a`` if symmetric positive definite, else raise NotSpd (see :func:`_spd`)."""
    return _spd(a)[0]


def _spd(a):
    """``a`` and its eigenpairs (w, U), once ``a`` is SPD: the one SPD check of a matrix.
    NotSpd unless ``a`` passes :func:`check_symmetric` (:func:`_symmetric`, and only if that
    says no, :func:`sym_residual`) and :func:`_spd_eig`; a caller that factors ``a`` takes
    the eigenpairs."""
    a = _square(a)
    _symmetric(a, SYM_RTOL) or _gate(sym_residual(a), SYM_RTOL, NotSpd, "asymmetry")
    return a, _spd_eig(a)


def _spd_eig(a):
    """The eigenpairs (w, U) of the one ``eigh`` of a symmetric ``a`` (per matrix of a stack),
    once the smallest eigenvalue exceeds SPD_EIG_RTOL times the largest (strict, as on paper),
    else NotSpd: the eigenvalue half of every SPD check, :func:`_spd`'s and a Siegel point's."""
    w, u = np.linalg.eigh(symmetrize(a))
    _gate(w[..., 0], SPD_EIG_RTOL * np.maximum(w[..., -1], 0.0), NotSpd, "smallest eigenvalue",
          lower=True)
    return w, u


def kron_sum(a, b):
    """Kronecker sum  A (x) I_m + I_n (x) B  of square matrices A (n x n), B (m x m).

    Oriented so that ``kron_sum(B^t, A) vec(X) = vec(A X + X B)``.
    Eigenvalues are all sums lambda_i(A) + mu_j(B).
    """
    a, b = _square(a, stack=False), _square(b, stack=False)
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n, m, n, m))  # entry ((i, k), (j, l)) at [i, k, j, l]
    out[:, np.arange(m), :, np.arange(m)] = a  # a_ij where k = l
    out[np.arange(n), :, np.arange(n), :] += b  # b_kl where i = j
    return out.reshape(n * m, n * m)


def vec(a):
    """Column-stacking vectorization (column-major) of one matrix, no stack, else BadShape."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise BadShape(f"vec takes one matrix, got shape {a.shape}")
    return a.flatten(order="F")


def unvec(v, n, m=None):
    """Inverse of :func:`vec` for an ``n x m`` matrix, from a vector of shape (n m,)."""
    if m is None:
        m = n
    if np.shape(v) != (n * m,):
        raise BadShape(f"expected the vec of a {n}x{m} matrix, got shape {np.shape(v)}")
    return np.asarray(v).reshape((n, m), order="F")


@functools.cache
def _sym_kron_tables(n):
    """Read-only index tables of degree n in vech order, m = n(n+1)/2: ``op`` (2, m, m), the
    entries of S.ravel() (n^2: a 0.0 pad) whose sum is L_n (S (+) S) D_n, at row (i, j) and
    column (a, b) s_jb [i = a] + s_ia [j = b] + (s_ja [i = b] + s_ib [j = a]) [a != b], two
    terms at most not 0; ``half`` (2, m), the entries (i, j), (j, i) of a ravel, whose mean is
    vech of the symmetric part; ``whole`` (n^2,), the vech entry of each entry of a ravel."""
    b, a = np.triu_indices(n)  # vech's order, the lower triangle column by column
    (i, j), off, pad, whole = (a[:, None], b[:, None]), a != b, n * n, np.zeros(n * n, int)
    op = np.array((np.where(i == a, j * n + b, np.where((i == b) & off, j * n + a, pad)),
                   np.where(j == b, i * n + a, np.where((j == a) & off, i * n + b, pad))))
    half = np.array((a * n + b, b * n + a))
    whole[half] = np.arange(len(a))
    for t in (op, half, whole):
        t.setflags(write=False)
    return op, half, whole


def vech(a):
    """Half-vectorization (lower triangle, column-major) of a symmetric matrix or of a stack."""
    a = check_symmetric(a)
    return a.reshape(a.shape[:-2] + (-1,)).take(_sym_kron_tables(a.shape[-1])[1][0], -1)


def unvech(v, n):
    """Symmetric matrix from its half-vectorization, of shape (n(n + 1)/2,)."""
    if np.shape(v) != (n * (n + 1) // 2,):
        raise BadShape(f"expected the vech of a {n}x{n} matrix, got shape {np.shape(v)}")
    return _cast(v, float, "a vech")[_sym_kron_tables(n)[2]].reshape(n, n)


def duplication_matrix(n):
    """D_n with  vec(A) = D_n vech(A)  for symmetric A.  Shape n^2 x n(n+1)/2."""
    return np.eye(n * (n + 1) // 2)[_sym_kron_tables(n)[2]]


def elimination_matrix(n):
    """L_n with  vech(A) = L_n vec(A).  Satisfies L_n D_n = I exactly."""
    return np.eye(n * n)[_sym_kron_tables(n)[1][1]]


def sylvester_solve(a, b, c):
    """Solve  A X + X B = C  by dense Kronecker linearization.

    The linear system is ``(I_m (x) A + B^t (x) I_n) vec(X) = vec(C)``,
    solvable iff the spectra of A and -B are disjoint.  Matrix sizes here
    are small (n, m of order 10), so the dense n*m x n*m solve is exact
    enough and no Schur-based algorithm is needed.  Raises SingularSylvester
    if the operator is singular, exactly or by the residual (SYLVESTER_RTOL).
    """
    a, b, c = (_max_norm(v)[1] for v in (_square(a, stack=False), _square(b, stack=False),
                                         _cast(c, float, "C")))
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
    return _spd_powers(_spd(a)[1], 0.5)[0]


def _spd_powers(eig, *powers):
    """Powers ``U diag(w^p) U^t`` of an SPD matrix from its eigenpairs ``eig`` = (w, U)."""
    w, u = eig
    return tuple(_spectral(u, w[..., None, :] ** p) for p in powers)


def _spectral(u, d):
    """``U diag(d) U^t``, symmetrized, of eigenvectors U and a row d (..., 1, n), or of stacks:
    each power of an SPD matrix made from its eigenpairs, and each root of a frame."""
    return symmetrize((u * d) @ _mT(u))


def _sym_kron(s):
    """L_n (S (+) S) D_n of a symmetric S, per matrix of a stack: the operator of S X + X S on
    vech(X), gathered from S by :func:`_sym_kron_tables` with no n^2 x n^2 matrix."""
    lead, n = s.shape[:-2], s.shape[-1]
    flat = np.concatenate((s.reshape(lead + (n * n,)), np.zeros(lead + (1,))), -1)
    return flat.take(_sym_kron_tables(n)[0], -1).sum(-3)


def dsqrtm(a, da):
    """Directional derivative of the SPD square root, per matrix of a stack.

    Solves ``S X + X S = dA``, S = A^{1/2}, by the Kronecker route of the paper's appendix,
    kept as the independent check of :func:`_sqrt_frame`, on the n(n+1)/2 unknowns of the
    symmetric X: ``L_n (S (+) S) D_n vech(X) = vech(dA)``, of dA's symmetric part
    (:func:`_sym_kron`).  SingularSylvester if the operator is singular, exactly or by the
    Frobenius residual (SYLVESTER_RTOL), at the first failing stack index."""
    s, da = _spd_powers(_spd(a)[1], 0.5)[0], check_symmetric(da)
    lead, n = _fit((s.shape[:-2], s.shape[-1]), (da.shape[:-2], da.shape[-1]))
    _, half, whole = _sym_kron_tables(n)
    rhs = da.reshape(da.shape[:-2] + (n * n, 1)).take(half, -2).sum(-3) * 0.5
    try:
        x = np.linalg.solve(_sym_kron(s), rhs)[..., 0].take(whole, -1).reshape(lead + (n, n))
    except np.linalg.LinAlgError as exc:
        raise SingularSylvester(f"Kronecker-sum operator is singular: {exc}") from exc
    sx = s @ x  # x s = (s x)^t, as both are symmetric
    _gate(_fro(sx + _mT(sx) - da), SYLVESTER_RTOL * np.maximum(1.0, _fro(da)), SingularSylvester,
          "Sylvester residual")
    return x


def _root_frame(eig):
    """The square-root frame ``(r, U, s, s^{-1})`` of an SPD y (or a stack) from its eigenpairs
    (w, U), y = U diag(w) U^t: r = w^{1/2} as a row (..., 1, n), so s = y^{1/2} =
    U diag(r) U^t.  :func:`_sqrt_frame` differentiates s in it; an ``SnChart`` keeps the frame
    of its y, made from the ``eigh`` of its entry check or of its construction."""
    w, u = eig
    r = w[..., None, :] ** 0.5
    return r, u, _spectral(u, r), _spectral(u, 1.0 / r)


def _sqrt_frame(frame, dy):
    """(s, s^{-1}, ds) from the :func:`_root_frame` of a validated SPD y and a symmetric dy
    (or stacks of them), with no further factorization: ds, the derivative of s along dy, in
    the Daleckii-Krein form ds = U [(U^t dy U)_ij / (r_i + r_j)] U^t (Higham, Functions of
    Matrices, SIAM 2008), whatever the order of the eigenpairs.  ds solves s ds + ds s = dy;
    its residual is gated by SYLVESTER_RTOL as in :func:`sylvester_solve`."""
    r, u, s, si = frame
    ds = symmetrize(u @ ((_mT(u) @ dy @ u) / (_mT(r) + r)) @ _mT(u))
    sds = s @ ds  # ds s = (s ds)^t, as both are symmetric
    _gate(_fro(sds + _mT(sds) - dy), SYLVESTER_RTOL * np.maximum(1.0, _fro(dy)),
          SingularSylvester, "Sylvester residual of the square-root derivative")
    return s, si, ds


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
    Over a stack each matrix has its own ``s``.
    """
    return _expm(_square(a))


def _expm(a):
    """:func:`expm` of a float square matrix or stack of them, unread (b_7 = 1)."""
    s = np.maximum(0, np.frexp(np.abs(a).sum(-2).max(-1) / _THETA7)[1])  # norm(a, 1)
    top = int(s.max())
    a = a / np.exp2(s)[..., None, None] if top else a  # a / 1.0 is a
    b = _PADE7
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(a.shape[-1])
    u = a @ (a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(top):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r
