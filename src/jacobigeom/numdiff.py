"""Central-difference machinery for pushforwards and field brackets.

The invariance engine pushes tangents by closed-form differentials; the
central differences here are the independent second route that checks
them, and the route of the field-bracket cross-checks: tangents are
pushed through smooth maps along curves.  Straight-line curves are used
for unconstrained components; the orthogonal-pair components of an S_n
chart move along ``U exp(t K)`` so the curve stays exactly on the manifold.
"""

import numpy as np

from . import linalg
from .exceptions import NotUnitaryPair
from .jacobi import SnChart
from .linalg import _gate, _mT

DEFAULT_STEP = 1e-6


def tuple_line(point, tangent, t):
    """Straight-line curve point + t * tangent, componentwise over a tuple."""
    return tuple(np.asarray(p) + t * np.asarray(d) if np.ndim(p) else p + t * d
                 for p, d in zip(point, tangent))


def fd_curve(curve, step=DEFAULT_STEP):
    """Velocity at t = 0 of ``curve``, a map t -> tuple of components, by central
    differences: the package's one difference rule."""
    return tuple((np.asarray(a) - np.asarray(b)) / (2 * step) if np.ndim(a)
                 else (a - b) / (2 * step)
                 for a, b in zip(curve(step), curve(-step)))


def fd_push(f, point, tangent, step=DEFAULT_STEP):
    """Central-difference pushforward of ``tangent`` through ``f`` along ``tuple_line``.

    ``f`` maps tuples of components to tuples of components; all
    components must support scalar multiplication and subtraction.
    """
    return fd_curve(lambda t: f(tuple_line(point, tangent, t)), step)


def sn_chart_curve(chart, tangent, t):
    """Curve through an SnChart point with the given velocity.

    (x, y, p, q, kappa) move linearly; (X, Y) along U exp(t K) with
    K = U^dagger (dX + i dY), which reproduces the velocity (dX, dY) at
    t = 0 and keeps the pair exactly orthogonal-symplectic.  K must be
    skew-Hermitian, i.e. (dX, dY) tangent to the pair manifold; else
    NotUnitaryPair.  exp(t K) = V exp(-i t w) V^dagger from the
    eigendecomposition i K = V diag(w) V^dagger, which is unitary.  Charts and
    tangents may be stacks.
    """
    dx, dy, dX, dY, dp, dq, dk = tangent
    u = chart.X + 1j * chart.Y
    k = _mT(u.conj()) @ (dX + 1j * dY)
    _gate(0.5 * np.max(np.abs(k + _mT(k.conj())), axis=(-2, -1)),
          linalg.UP_TOL * np.max(np.abs(k), axis=(-2, -1)), NotUnitaryPair,
          "Hermitian part of the pair tangent's K")
    w, v = np.linalg.eigh(1j * k)
    ut = u @ ((v * np.exp(-1j * t * w[..., None, :])) @ _mT(v.conj()))
    return SnChart(chart.x + t * dx, chart.y + t * dy, ut.real, ut.imag,
                   chart.p + t * dp, chart.q + t * dq, chart.kappa + t * dk)


def sn_chart_to_tuple(chart):
    return (chart.x, chart.y, chart.X, chart.Y, chart.p, chart.q, chart.kappa)


def fd_push_sn(f, chart, tangent, step=DEFAULT_STEP):
    """Pushforward through a map SnChart -> SnChart by central differences along
    ``sn_chart_curve``."""
    return fd_curve(lambda t: sn_chart_to_tuple(f(sn_chart_curve(chart, tangent, t))), step)


def fd_bracket(field1, field2, point, step=1e-5):
    """Commutator of two vector fields by central differences.

    Fields are functions point-tuple -> tangent-tuple on the same chart;
    the bracket is  J(W) V - J(V) W, each Jacobian-vector product the
    pushforward of one field along the other's value at the point.
    """
    jw_v = fd_push(field2, point, field1(point), step)
    jv_w = fd_push(field1, point, field2(point), step)
    return tuple(a - b for a, b in zip(jw_v, jv_w))
