"""Seeded random samplers for group elements, points and tangents.

All samplers take a ``numpy.random.Generator`` so that every verification
run is reproducible from a single seed.  Symplectic matrices are sampled
by exponentiating algebra elements with entries uniform in [-1, 1] scaled
by 1/(2n), which keeps condition numbers modest at the target sizes; the
exponential is the scaling-and-squaring Pade kernel ``linalg.expm``.
"""

import numpy as np

from .heisenberg import HeisenbergElement
from .jacobi import JacobiAlgebraElement, JacobiElement, sn_chart
from .linalg import expm, symmetrize
from .symplectic import SpAlgebraElement


def rand_matrix(rng, n, m=None, scale=1.0):
    if m is None:
        m = n
    return scale * rng.uniform(-1.0, 1.0, size=(n, m))


def rand_sym(rng, n, scale=1.0):
    return symmetrize(rand_matrix(rng, n, scale=scale))


def rand_spd(rng, n, spread=0.7):
    """SPD matrix with eigenvalues in roughly [e^-spread, e^spread]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.exp(rng.uniform(-spread, spread, size=n))
    return symmetrize(q @ np.diag(w) @ q.T)


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
    return HeisenbergElement(rand_matrix(rng, 1, n).ravel(),
                             rand_matrix(rng, 1, n).ravel(),
                             float(rng.uniform(-1.0, 1.0)))


def rand_jacobi(rng, n, scale=None):
    return JacobiElement(
        rand_symplectic(rng, n, scale),
        rand_matrix(rng, 1, n).ravel(),
        rand_matrix(rng, 1, n).ravel(),
        float(rng.uniform(-1.0, 1.0)),
    )


def rand_gj_algebra(rng, n, scale=None):
    if scale is None:
        scale = 1.0 / (2 * n)
    return JacobiAlgebraElement(
        rand_matrix(rng, n, scale=scale),
        rand_sym(rng, n, scale=scale),
        rand_sym(rng, n, scale=scale),
        rand_matrix(rng, 1, n).ravel() * scale,
        rand_matrix(rng, 1, n).ravel() * scale,
        float(rng.uniform(-1.0, 1.0)) * scale,
    )


def rand_siegel(rng, n):
    """Random Siegel point x + iy with modest condition number."""
    return rand_sym(rng, n) + 1j * rand_spd(rng, n)


def rand_pq_point(rng, n):
    v = rand_siegel(rng, n)
    return v.real, v.imag, rand_matrix(rng, 1, n).ravel(), rand_matrix(rng, 1, n).ravel()


def rand_pq_tangent(rng, n):
    return (rand_sym(rng, n), rand_sym(rng, n),
            rand_matrix(rng, 1, n).ravel(), rand_matrix(rng, 1, n).ravel())


def rand_sn_chart(rng, n):
    return sn_chart(rand_jacobi(rng, n))


def rand_unitary_tangent(rng, x, y):
    """Tangent (dX, dY) to the orthogonal-pair manifold at (X, Y).

    Generated as U K with U = X + iY and K skew-Hermitian, i.e. velocity
    of the exact curve U exp(t K) in U(n); avoids hand-deriving the pair
    constraints.
    """
    n = x.shape[0]
    k = rand_matrix(rng, n) + 1j * rand_matrix(rng, n)
    k = 0.5 * (k - k.conj().T)
    du = (x + 1j * y) @ k
    return du.real, du.imag, k


def rand_sn_tangent(rng, chart):
    """Random tangent at an SnChart point, components (dx, dy, dX, dY, dp, dq, dkappa)."""
    n = chart.n
    dx = rand_sym(rng, n)
    dy = rand_sym(rng, n)
    dX, dY, _ = rand_unitary_tangent(rng, chart.X, chart.Y)
    dp = rand_matrix(rng, 1, n).ravel()
    dq = rand_matrix(rng, 1, n).ravel()
    dk = float(rng.uniform(-1.0, 1.0))
    return dx, dy, dX, dY, dp, dq, dk


def rand_ball_point(rng, n, margin=0.2):
    """Ball point (W, z): W symmetric with spectral norm <= 1 - margin."""
    s = rand_matrix(rng, n) + 1j * rand_matrix(rng, n)
    w = 0.5 * (s + s.T)
    norm = np.linalg.norm(w, ord=2)
    w = (1.0 - margin) * w / max(1.0, norm / (1.0 - margin)) if norm > 0 else w
    # rescale once more in case the first clamp was inactive but norm ~ 1
    norm = np.linalg.norm(w, ord=2)
    if norm > 1.0 - margin:
        w = w * (1.0 - margin) / norm
    z = (rand_matrix(rng, 1, n) + 1j * rand_matrix(rng, 1, n)).ravel()
    return w, z


def rand_ball_tangent(rng, n):
    dw = 0.5 * ((s := rand_matrix(rng, n) + 1j * rand_matrix(rng, n)) + s.T)
    dz = (rand_matrix(rng, 1, n) + 1j * rand_matrix(rng, 1, n)).ravel()
    return dw, dz


def rand_vu_point(rng, n):
    v = rand_siegel(rng, n)
    u = (rand_matrix(rng, 1, n) + 1j * rand_matrix(rng, 1, n)).ravel()
    return v, u


def rand_vu_tangent(rng, n):
    dv = rand_sym(rng, n) + 1j * rand_sym(rng, n)
    du = (rand_matrix(rng, 1, n) + 1j * rand_matrix(rng, 1, n)).ravel()
    return dv, du
