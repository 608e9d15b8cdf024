"""Seeded random samplers for group elements, points and tangents.

All samplers take a ``numpy.random.Generator`` so that every verification
run is reproducible from a single seed.  Given a sequence of generators
instead, a sampler draws one sample from each, in the order one generator
would, and returns the samples stacked on a leading axis (rows as
(k, 1, n), scalars as (k,)); the shaping after the draws runs once over the
stack.  The invariance engine draws this way.  Symplectic matrices are sampled
by exponentiating algebra elements with entries uniform in [-1, 1] scaled
by 1/(2n), which keeps condition numbers modest at the target sizes; the
exponential is the scaling-and-squaring Pade kernel ``linalg.expm``.
"""

import numpy as np

from .heisenberg import HeisenbergElement
from .jacobi import JacobiAlgebraElement, JacobiElement, sn_chart
from .linalg import _mT, _row, expm, symmetrize
from .symplectic import SpAlgebraElement


def _fill(rngs, size, method):
    """One ``method`` draw of shape ``size`` from each generator of ``rngs``, written in
    place into one array of shape (len(rngs), *size)."""
    out = np.empty((len(rngs),) + ((size,) if isinstance(size, int) else size))
    for k, r in enumerate(rngs):
        getattr(r, method)(out=out[k:k + 1])
    return out


def _normal(rng, size):
    """Standard normal draws of shape ``size``, stacked as in :func:`_uniform`."""
    if isinstance(rng, np.random.Generator):
        return rng.normal(size=size)
    return _fill(rng, size, "standard_normal")


def _uniform(rng, size=(), low=-1.0, high=1.0):
    """Uniform draws on [low, high) of shape ``size`` (a float when ``size`` is () and
    ``rng`` one generator), or from each of a sequence of generators, stacked on a
    leading axis; ``low + (high - low) u`` is ``Generator.uniform`` bit for bit."""
    if isinstance(rng, np.random.Generator):
        return rng.uniform(low, high, size=size) if size else float(rng.uniform(low, high))
    return low + (high - low) * _fill(rng, size, "random")


def rand_matrix(rng, n, m=None, scale=1.0):
    if m is None:
        m = n
    return scale * _uniform(rng, (n, m))


def rand_row(rng, n, scale=1.0):
    """A row of n entries uniform in [-scale, scale]: 1-d, or (k, 1, n) for k generators."""
    return _row(rand_matrix(rng, 1, n, scale=scale))


def rand_complex_row(rng, n):
    """A row with real and imaginary parts uniform in [-1, 1], stacked as :func:`rand_row`."""
    return rand_row(rng, n) + 1j * rand_row(rng, n)


def rand_sym(rng, n, scale=1.0):
    return symmetrize(rand_matrix(rng, n, scale=scale))


def rand_spd(rng, n, spread=0.7):
    """SPD matrix with eigenvalues in roughly [e^-spread, e^spread]."""
    q, _ = np.linalg.qr(_normal(rng, (n, n)))
    w = np.exp(_uniform(rng, n, -spread, spread))
    return symmetrize((q * w[..., None, :]) @ _mT(q))


def rand_sp_algebra(rng, n, scale=None):
    if scale is None:
        scale = 1.0 / (2 * n)
    return SpAlgebraElement(
        rand_matrix(rng, n, scale=scale),
        rand_sym(rng, n, scale=scale),
        rand_sym(rng, n, scale=scale),
    )


def rand_symplectic(rng, n, scale=None):
    return expm(rand_sp_algebra(rng, n, scale).to_matrix())


def rand_heisenberg(rng, n):
    return HeisenbergElement(rand_row(rng, n), rand_row(rng, n), _uniform(rng))


def rand_jacobi(rng, n, scale=None):
    return JacobiElement(rand_symplectic(rng, n, scale), rand_row(rng, n), rand_row(rng, n),
                         _uniform(rng))


def rand_gj_algebra(rng, n, scale=None):
    if scale is None:
        scale = 1.0 / (2 * n)
    return JacobiAlgebraElement(
        rand_matrix(rng, n, scale=scale),
        rand_sym(rng, n, scale=scale),
        rand_sym(rng, n, scale=scale),
        rand_row(rng, n) * scale,
        rand_row(rng, n) * scale,
        _uniform(rng) * scale,
    )


def rand_siegel(rng, n):
    """Random Siegel point x + iy with modest condition number."""
    return rand_sym(rng, n) + 1j * rand_spd(rng, n)


def rand_pq_point(rng, n):
    v = rand_siegel(rng, n)
    return v.real, v.imag, rand_row(rng, n), rand_row(rng, n)


def rand_pq_tangent(rng, n):
    return rand_sym(rng, n), rand_sym(rng, n), rand_row(rng, n), rand_row(rng, n)


def rand_sn_chart(rng, n):
    return sn_chart(rand_jacobi(rng, n))


def rand_unitary_tangent(rng, x, y):
    """Tangent (dX, dY) to the orthogonal-pair manifold at (X, Y).

    Generated as U K with U = X + iY and K skew-Hermitian, i.e. velocity
    of the exact curve U exp(t K) in U(n); avoids hand-deriving the pair
    constraints.
    """
    n = x.shape[-1]
    k = rand_matrix(rng, n) + 1j * rand_matrix(rng, n)
    k = 0.5 * (k - _mT(k.conj()))
    du = (x + 1j * y) @ k
    return du.real, du.imag


def rand_sn_tangent(rng, chart):
    """Random tangent at an SnChart point, components (dx, dy, dX, dY, dp, dq, dkappa)."""
    n = chart.n
    dx = rand_sym(rng, n)
    dy = rand_sym(rng, n)
    dX, dY = rand_unitary_tangent(rng, chart.X, chart.Y)
    return dx, dy, dX, dY, rand_row(rng, n), rand_row(rng, n), _uniform(rng)


def rand_ball_point(rng, n, margin=0.2):
    """Ball point (W, z): W symmetric with spectral norm <= 1 - margin."""
    w = symmetrize(rand_matrix(rng, n) + 1j * rand_matrix(rng, n))
    norm = np.linalg.norm(w, 2, axis=(-2, -1))[..., None, None]
    return (1.0 - margin) * w / np.maximum(1.0, norm / (1.0 - margin)), rand_complex_row(rng, n)


def rand_ball_tangent(rng, n):
    dw = symmetrize(rand_matrix(rng, n) + 1j * rand_matrix(rng, n))
    return dw, rand_complex_row(rng, n)


def rand_vu_point(rng, n):
    return rand_siegel(rng, n), rand_complex_row(rng, n)


def rand_vu_tangent(rng, n):
    return rand_sym(rng, n) + 1j * rand_sym(rng, n), rand_complex_row(rng, n)
