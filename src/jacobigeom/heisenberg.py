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
from .linalg import _row, _trusted
from .symplectic import _jacobi_matrix


@dataclass(frozen=True)
class HeisenbergElement:
    lam: np.ndarray
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _row(self.lam))
        object.__setattr__(self, "mu", _row(self.mu))
        object.__setattr__(self, "kappa", float(self.kappa))
        if self.lam.shape != self.mu.shape:
            raise BadShape("lambda and mu must have equal length")
        if not (np.isfinite(self.lam).all() and np.isfinite(self.mu).all()
                and np.isfinite(self.kappa)):
            raise BadShape("entries must be finite")

    @property
    def n(self):
        return self.lam.shape[0]


def _degree_n(lam, mu, kappa, n):
    """``HeisenbergElement(lam, mu, kappa)``, which must have degree ``n`` (else BadShape)."""
    h = HeisenbergElement(lam, mu, kappa)
    if h.n != n:
        raise BadShape(f"Heisenberg rows must have length {n}, got {h.n}")
    return h


def _omega(r, s):
    """The pairing r_1 s_2^t - r_2 s_1^t of two pairs of 1-d rows: the only
    place its sign convention is written."""
    return float(r[0] @ s[1]) - float(r[1] @ s[0])


def h_identity(n):
    return HeisenbergElement(np.zeros(n), np.zeros(n), 0.0)


def h_compose(g, gp):
    if g.n != gp.n:
        raise BadShape(f"degree mismatch: {g.n} vs {gp.n}")
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
    eye, zero = np.eye(g.n), np.zeros((g.n, g.n))
    return _jacobi_matrix((eye, zero, zero, eye), (g.lam, g.mu), (g.mu, -g.lam), g.kappa, 1.0)


def h_oneforms(g, tangent):
    """Left-invariant one-form values (l^p, l^q, l^r) at g on a tangent.

    l^p = d lambda,  l^q = d mu,  l^r = d kappa - lambda d mu^t + mu d lambda^t.
    These are the coefficients of g^{-1} dg on the P/Q/R generators.
    """
    dlam, dmu, dkap = tangent
    dlam, dmu = _row(dlam), _row(dmu)
    return dlam.copy(), dmu.copy(), float(dkap) - _omega((g.lam, g.mu), (dlam, dmu))


def h_metric(g, tangent):
    """Left-invariant metric  |d lambda|^2 + |d mu|^2 + (l^r)^2  (quadratic form)."""
    lp, lq, lr = h_oneforms(g, tangent)
    return float(lp @ lp) + float(lq @ lq) + lr * lr


def h_fvf(generator, g):
    """Fundamental vector field of a one-parameter subgroup, evaluated at g.

    ``generator`` is ("P", p), ("Q", q) or "R" (indices 0-based):

        P_p* = d/d lambda_p + mu_p d/d kappa,
        Q_q* = d/d mu_q    - lambda_q d/d kappa,
        R*   = d/d kappa.
    """
    n = g.n
    dlam = np.zeros(n)
    dmu = np.zeros(n)
    if generator == "R":
        return dlam, dmu, 1.0
    kind, idx = generator
    if kind == "P":
        dlam[idx] = 1.0
        return dlam, dmu, float(g.mu[idx])
    if kind == "Q":
        dmu[idx] = 1.0
        return dlam, dmu, -float(g.lam[idx])
    raise ValueError(f"unknown generator {generator!r}")
