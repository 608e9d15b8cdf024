"""Seeded random samplers for group elements, points and tangents.

Every sampler draws through ``rng.random`` and ``rng.standard_normal``, so
that every verification run is reproducible from a single seed.  ``rng`` is
a ``numpy.random.Generator`` (one sample), or the :class:`StackStream` of a
stack of samples, which gives every draw one leading axis of samples (rows
as (k, 1, n), scalars as (k,)); the shaping after the draws runs once over
the stack.  The invariance engine draws this way.  Symplectic matrices are
sampled by exponentiating algebra elements with entries uniform in [-1, 1]
scaled by 1/(2n), which keeps condition numbers modest at the target sizes;
the exponential is the scaling-and-squaring Pade kernel ``linalg.expm``.
"""

from math import prod

import numpy as np

from .heisenberg import HeisenbergElement
from .jacobi import JacobiAlgebraElement, JacobiElement, sn_chart
from .linalg import _mT, _row, _trusted, expm, symmetrize
from .symplectic import SpAlgebraElement


def window_words(n):
    """Stream words per sample at degree n: 16 (n + 1)^2, whole Philox blocks of 4 words,
    above the 14 n^2 + 8 n + 4 of the hungriest draw (``metric_group``)."""
    return 16 * (n + 1) ** 2


class StackStream:
    """The draws of samples ``start .. stop - 1`` at degree n from one Philox stream keyed
    by ``SeedSequence(seed)``: sample i reads words i W .. (i + 1) W - 1 with
    W = window_words(n), so word j of sample i depends on (seed, i, j) alone.  The uniforms
    are ``Generator.random``'s, one per word; a draw past W raises."""

    def __init__(self, seed, n, start, stop):
        words = window_words(n)
        bits = np.random.Philox(seed)  # keyed by SeedSequence(seed).generate_state(2, uint64)
        bits.advance(start * words // 4)
        self._u = np.random.Generator(bits).random((stop - start, words))
        self._at = 0

    def random(self, size=None):
        size = () if size is None else (size,) if isinstance(size, int) else tuple(size)
        at, self._at = self._at, self._at + prod(size)
        if self._at > self._u.shape[1]:
            raise RuntimeError(f"a sample drew more than its {self._u.shape[1]} stream words")
        return self._u[:, at:self._at].reshape(len(self._u), *size)

    def standard_normal(self, size=None):
        """Box-Muller, cos branch, on two uniforms per draw; log1p(-u) is finite at u = 0."""
        radius = np.sqrt(-2.0 * np.log1p(-self.random(size)))
        return radius * np.cos(2.0 * np.pi * self.random(size))


def _uniform(rng, size=None, low=-1.0, high=1.0):
    """Uniform draws on [low, high) of shape ``size``, a float from a Generator when size is
    None; there ``low + (high - low) u`` is ``Generator.uniform`` bit for bit."""
    return low + (high - low) * rng.random(size)


def rand_matrix(rng, n, m=None, scale=1.0):
    if m is None:
        m = n
    return scale * _uniform(rng, (n, m))


def rand_row(rng, n, scale=1.0):
    """A row of n entries uniform in [-scale, scale]: 1-d, or (k, 1, n) from a stack."""
    return _row(rand_matrix(rng, 1, n, scale=scale))


def rand_complex_row(rng, n):
    """A row with real and imaginary parts uniform in [-1, 1], stacked as :func:`rand_row`."""
    return rand_row(rng, n) + 1j * rand_row(rng, n)


def rand_sym(rng, n, scale=1.0):
    return symmetrize(rand_matrix(rng, n, scale=scale))


def rand_spd(rng, n, spread=0.7):
    """SPD matrix with eigenvalues in roughly [e^-spread, e^spread]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(_uniform(rng, n, -spread, spread))
    return symmetrize((q * w[..., None, :]) @ _mT(q))


def rand_sp_algebra(rng, n, scale=None):
    """(a, b, c) uniform in [-scale, scale], b and c symmetrized, so built unchecked."""
    if scale is None:
        scale = 1.0 / (2 * n)
    return _trusted(SpAlgebraElement, rand_matrix(rng, n, scale=scale),
                    rand_sym(rng, n, scale=scale), rand_sym(rng, n, scale=scale))


def rand_symplectic(rng, n, scale=None):
    return expm(rand_sp_algebra(rng, n, scale).to_matrix())


def rand_heisenberg(rng, n):
    return HeisenbergElement(rand_row(rng, n), rand_row(rng, n), _uniform(rng))


def rand_jacobi(rng, n, scale=None):
    """The exponential of :func:`rand_sp_algebra` with uniform rows and kappa, built
    unchecked: tests hold the draws to ``check_symplectic`` at n = 1 .. 10."""
    return _trusted(JacobiElement, rand_symplectic(rng, n, scale), rand_row(rng, n),
                    rand_row(rng, n), _uniform(rng))


def rand_gj_algebra(rng, n, scale=None):
    """:func:`rand_sp_algebra`'s (a, b, c), then p, q and r scaled alike: one element, or
    from a ``StackStream`` a stack of them."""
    if scale is None:
        scale = 1.0 / (2 * n)
    s = rand_sp_algebra(rng, n, scale)
    return JacobiAlgebraElement(s.a, s.b, s.c, rand_row(rng, n) * scale,
                                rand_row(rng, n) * scale, _uniform(rng) * scale)


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


def rand_vu_point(rng, n):
    return rand_siegel(rng, n), rand_complex_row(rng, n)


def rand_vu_tangent(rng, n):
    return rand_sym(rng, n) + 1j * rand_sym(rng, n), rand_complex_row(rng, n)


rand_ball_tangent = rand_vu_tangent  # (dW, dz): a complex symmetric matrix and a complex row
