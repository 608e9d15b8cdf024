"""The real Heisenberg group of degree n.

Elements are triples (lambda, mu, kappa) with lambda, mu 1 x n row
vectors and kappa real, composing as

    (l, m, k) o (l', m', k') = (l + l', m + m', k + k' + l m'^t - m l'^t).

The identity is (0, 0, 0).  The cross term is the pairing
omega((l, m), (l', m')) = l m'^t - m l'^t of row pairs, written once in
:func:`_omega`; every composition law and every kappa component of a
one-form or field in the package calls it.  The group embeds in the
degree-(n+1) symplectic group, and the left-invariant one-forms / metric /
fundamental vector fields below are the standard ones for this
composition law.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import BadShape
from .linalg import _checked, _degree, _dot, _fill, _fit, _tangent, _trusted
from .symplectic import _jacobi_matrix


@dataclass(frozen=True)
class HeisenbergElement:
    """(lambda, mu, kappa); also a stack of elements, with rows (..., 1, n) and
    kappa of shape (...) (see ``linalg._row``)."""

    lam: np.ndarray
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        parts = (self.lam, self.mu, self.kappa)  # lambda's length is the degree
        _fill(self, *_checked("rrk", _degree(parts), parts))

    @property
    def n(self):
        return self.lam.shape[-1]


def _omega(r, s):
    """The pairing r_1 s_2^t - r_2 s_1^t of two pairs of rows (or stacks of rows):
    the only place its sign convention is written."""
    return _dot(r[0], s[1]) - _dot(r[1], s[0])


def h_identity(n):
    return HeisenbergElement(np.zeros(n), np.zeros(n), 0.0)


def h_compose(g, gp):
    _fit((g.lam.shape[:-2], g.n), (gp.lam.shape[:-2], gp.n))
    kappa = g.kappa + gp.kappa + _omega((g.lam, g.mu), (gp.lam, gp.mu))
    return _trusted(HeisenbergElement, g.lam + gp.lam, g.mu + gp.mu, kappa)


def h_inverse(g):
    """(-lambda, -mu, -kappa); the cross terms cancel exactly."""
    return _trusted(HeisenbergElement, -g.lam, -g.mu, -g.kappa)


def h_embed(g):
    """Embedding into the degree-(n+1) symplectic group.

    Block rows/columns of sizes (n, 1, n, 1):

        [ I   0   0   mu^t ]
        [ l   1   m   kappa]
        [ 0   0   I  -l^t  ]
        [ 0   0   0   1    ]
    """
    eye = np.broadcast_to(np.eye(g.n), (*g.lam.shape[:-2], g.n, g.n))
    zero = np.zeros_like(eye)
    return _jacobi_matrix((eye, zero, zero, eye), (g.lam, g.mu), (g.mu, -g.lam), g.kappa, 1.0)


def h_oneforms(g, tangent):
    """Left-invariant one-form values (l^p, l^q, l^r) at g on a tangent.

    l^p = d lambda,  l^q = d mu,  l^r = d kappa - lambda d mu^t + mu d lambda^t.
    These are the coefficients of g^{-1} dg on the P/Q/R generators; the tangent is
    checked as a ``linalg._checked`` kind "rrk" into whose stack shape g's broadcasts.
    """
    dlam, dmu, dkap = _tangent("rrk", (g.lam.shape[:-2], g.n), tangent)
    return dlam.copy(), dmu.copy(), dkap - _omega((g.lam, g.mu), (dlam, dmu))


def h_metric(g, tangent):
    """Left-invariant metric  |d lambda|^2 + |d mu|^2 + (l^r)^2  (quadratic form), per
    element and tangent of stacks as :func:`h_oneforms` takes them."""
    lp, lq, lr = h_oneforms(g, tangent)
    return _dot(lp, lp) + _dot(lq, lq) + lr * lr


def h_fvf(generator, g):
    """Fundamental vector field of a one-parameter subgroup, evaluated at g, one element.

    ``generator`` is ("P", p), ("Q", q) or "R", with p, q in range(n) (else ValueError):

        P_p* = d/d lambda_p + mu_p d/d kappa,
        Q_q* = d/d mu_q    - lambda_q d/d kappa,
        R*   = d/d kappa.
    """
    if g.lam.ndim > 1:
        raise BadShape("h_fvf takes one element, not a stack")
    n = g.n
    dlam = np.zeros(n)
    dmu = np.zeros(n)
    if generator == "R":
        return dlam, dmu, 1.0
    kind, idx = generator
    if kind not in ("P", "Q") or not isinstance(idx, (int, np.integer)) or not 0 <= idx < n:
        raise ValueError(f"unknown generator {generator!r} at degree {n}")
    if kind == "P":
        dlam[idx] = 1.0
        return dlam, dmu, float(g.mu[idx])
    dmu[idx] = 1.0
    return dlam, dmu, -float(g.lam[idx])
