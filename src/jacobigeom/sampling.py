"""Seeded random samplers for group elements, points and tangents.

Every sampler draws through ``rng.random`` and ``rng.standard_normal``, so that every
verification run is reproducible from a single seed.  ``rng`` is a ``numpy.random.Generator``
(one sample), or the :class:`StackStream` of a stack of samples, which gives every draw one
leading axis of samples (rows as (k, 1, n), scalars as (k,)); the shaping after the draws runs
once over the stack.  A sampler takes each run of consecutive uniform words with one
:func:`_draw`, bit for bit the draws of its parts one by one.  Symplectic matrices are the
exponentials (``linalg.expm``) of algebra elements with entries uniform in [-1, 1] scaled by
1/(2n), which keeps condition numbers modest at the target sizes.
"""

import functools
from itertools import accumulate, groupby
from math import prod

import numpy as np

from .heisenberg import HeisenbergElement
from .jacobi import JacobiAlgebraElement, JacobiElement, sn_chart
from .linalg import _expm, _mT, _row, _spectral, _trusted, symmetrize
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
        if start:  # a new Philox is at word 0
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


@functools.cache
def _runs(layout, n, stacked):
    """:func:`_draw`'s word count for ``layout`` at degree n, and its runs of one letter as
    (letter, first word, end word, the shape the run is read in), a row (1, n) over a stack."""
    leaf = {"r": (1, n) if stacked else (n,), "k": ()}
    runs = [(c, (len(list(run)), *leaf.get(c, (n, n)))) for c, run in groupby(layout)]
    ends = list(accumulate(prod(shape) for _, shape in runs))
    return ends[-1], tuple((c, e - prod(shape), e, (-1,) * stacked + shape)
                           for (c, shape), e in zip(runs, ends))


def _draw(rng, n, layout, scale=1.0):
    """The leaves of ``layout``, a letter each ("m" an n x n matrix, "s" one symmetrized, "r" a
    row as :func:`rand_row` gives it, "k" a scalar, a float from a Generator), uniform in
    [-scale, scale], from one :func:`_uniform` call over their consecutive words: bit for bit
    the leaves' draws one by one, each run of "s" symmetrized by one call.  Each run is copied,
    run-major over a stack, so that each leaf is contiguous, as drawn alone (views strided over
    the stack slowed 1000-sample reports by up to 3%), and keeps no other run's words alive."""
    stacked = isinstance(rng, StackStream)
    words, runs = _runs(layout, n, stacked)
    u = _uniform(rng, words)
    u, leaves = u if scale == 1.0 else scale * u, []  # 1.0 u is u
    for c, start, stop, shape in runs:
        block = u[..., start:stop].reshape(shape)
        block = (block.swapaxes(0, 1) if stacked else block).copy()  # its own memory
        block = symmetrize(block) if c == "s" else block
        leaves += block.tolist() if c == "k" and not stacked else list(block)
    return leaves


def rand_matrix(rng, n, m=None, scale=1.0):
    return scale * _uniform(rng, (n, n if m is None else m))


def rand_row(rng, n, scale=1.0):
    """A row of n entries uniform in [-scale, scale]: 1-d, or (k, 1, n) from a stack."""
    return _row(rand_matrix(rng, 1, n, scale=scale))


def rand_complex_row(rng, n):
    """A row with real and imaginary parts uniform in [-1, 1], stacked as :func:`rand_row`."""
    re, im = _draw(rng, n, "rr")
    return re + 1j * im


def rand_sym(rng, n, scale=1.0):
    return symmetrize(rand_matrix(rng, n, scale=scale))


def rand_spd(rng, n, spread=0.7):
    """SPD matrix with eigenvalues in roughly [e^-spread, e^spread]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(_uniform(rng, n, -spread, spread))
    return _spectral(q, w[..., None, :])


def rand_sp_algebra(rng, n, scale=None):
    """(a, b, c) uniform in [-scale, scale], b and c symmetrized, so built unchecked."""
    return _trusted(SpAlgebraElement, *_draw(rng, n, "mss", 1.0 / (2 * n) if scale is None
                                             else scale))


def rand_symplectic(rng, n, scale=None):
    return _expm(rand_sp_algebra(rng, n, scale).to_matrix())


def rand_heisenberg(rng, n):
    return HeisenbergElement(*_draw(rng, n, "rrk"))


def rand_jacobi(rng, n, scale=None):
    """The exponential of :func:`rand_sp_algebra` with uniform rows and kappa, built
    unchecked: tests hold the draws to ``check_symplectic`` at n = 1 .. 10."""
    return _trusted(JacobiElement, rand_symplectic(rng, n, scale), *_draw(rng, n, "rrk"))


def rand_gj_algebra(rng, n, scale=None):
    """:func:`rand_sp_algebra`'s (a, b, c), then p, q and r scaled alike: one element, or
    from a ``StackStream`` a stack of them."""
    return JacobiAlgebraElement(*_draw(rng, n, "mssrrk", 1.0 / (2 * n) if scale is None
                                       else scale))


def rand_siegel(rng, n):
    """Random Siegel point x + iy with modest condition number."""
    return rand_sym(rng, n) + 1j * rand_spd(rng, n)


def rand_pq_point(rng, n):
    v = rand_siegel(rng, n)
    return v.real, v.imag, *_draw(rng, n, "rr")


def rand_pq_tangent(rng, n):
    return tuple(_draw(rng, n, "ssrr"))


def rand_sn_chart(rng, n):
    return sn_chart(rand_jacobi(rng, n))


def rand_sn_tangent(rng, chart):
    """Random tangent at an SnChart point, components (dx, dy, dX, dY, dp, dq, dkappa), from one
    draw.  (dX, dY) = U K with U = X + iY and K skew-Hermitian, the velocity of the exact curve
    U exp(t K) in U(n); avoids hand-deriving the pair constraints."""
    dx, dy, re, im, *rows = _draw(rng, chart.n, "ssmmrrk")
    k = re + 1j * im
    du = (chart.X + 1j * chart.Y) @ (0.5 * (k - _mT(k.conj())))
    return dx, dy, du.real, du.imag, *rows


def rand_ball_point(rng, n, margin=0.2):
    """Ball point (W, z): W symmetric with spectral norm <= 1 - margin."""
    w_re, w_im, z_re, z_im = _draw(rng, n, "mmrr")
    w = symmetrize(w_re + 1j * w_im)
    norm = np.linalg.norm(w, 2, axis=(-2, -1))[..., None, None]
    return (1.0 - margin) * w / np.maximum(1.0, norm / (1.0 - margin)), z_re + 1j * z_im


def rand_vu_point(rng, n):
    return rand_siegel(rng, n), rand_complex_row(rng, n)


def rand_vu_tangent(rng, n):
    v_re, v_im, u_re, u_im = _draw(rng, n, "ssrr")
    return v_re + 1j * v_im, u_re + 1j * u_im


rand_ball_tangent = rand_vu_tangent  # (dW, dz): a complex symmetric matrix and a complex row
