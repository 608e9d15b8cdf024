"""The validation policy: one bound table in ``linalg``, one gate, few knobs.

A gate written ``if residual > tol: raise`` lets a NaN residual through,
because every comparison with NaN is false; the one gate ``linalg._gate``
is written ``if not residual <= bound`` instead.  Each NaN case feeds NaN
to one gate.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import jacobigeom
from jacobigeom import (
    BadShape,
    ContractionViolation,
    GeometryError,
    KahlerParams,
    JacobiAlgebraElement,
    NotSpd,
    NotSymmetric,
    NotSymplectic,
    NotUnitaryPair,
    ProjectionResidual,
    SingularSylvester,
    SpAlgebraElement,
    act_pq,
    act_xjn,
    cayley,
    chart_convert,
    check_symplectic,
    fvf,
    g_form,
    gj_basis,
    gj_basis_elements,
    gj_embed,
    gj_from_embedding,
    gj_identity,
    kahler_xjn,
    metric_extended,
    metric_xjn,
    mobius_act,
    sylvester_solve,
    unitary_iso_inverse,
)
from jacobigeom import linalg
from jacobigeom.forms import check_matrix_tangent
from jacobigeom.linalg import check_spd, check_symmetric
from jacobigeom.metrics import check_ball_point
from jacobigeom.symplectic import check_siegel, check_unitary_pair

NAN = np.full((2, 2), np.nan)


def _nan_in_last_row(mat):
    # the last row of the (n, 1, n, 1) layout is structural zeros, never read back
    mat = mat.copy()
    mat[-1, 0] = np.nan
    return mat


def _under_nan_bound(name, call):
    """``call`` with the bound ``name`` of the table set to NaN: finite input
    cannot give NaN eigenvalues or a NaN determinant, a NaN bound reaches the gate."""
    def patched():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, name, np.nan)
            call()
    return patched


NAN_CASES = [
    ("check_symmetric", lambda: check_symmetric(NAN), NotSymmetric),
    ("check_spd", lambda: check_spd(NAN), NotSpd),
    ("check_spd_eigenvalues", _under_nan_bound("SPD_EIG_RTOL", lambda: check_spd(np.eye(2))),
     NotSpd),
    ("check_symplectic", lambda: check_symplectic(NAN), NotSymplectic),
    ("check_symplectic_det",
     _under_nan_bound("DET_TOL", lambda: check_symplectic(np.eye(2))), NotSymplectic),
    ("check_unitary_pair", lambda: check_unitary_pair(NAN, NAN), NotUnitaryPair),
    ("unitary_iso_inverse", lambda: unitary_iso_inverse(NAN), NotUnitaryPair),
    ("check_siegel", lambda: check_siegel(NAN), NotSymmetric),
    ("check_ball_point", lambda: check_ball_point(NAN), ContractionViolation),
    ("sylvester_solve", lambda: sylvester_solve(np.eye(2), np.eye(2), NAN), SingularSylvester),
    ("sp_algebra_from_matrix", lambda: SpAlgebraElement.from_matrix(np.full((4, 4), np.nan)),
     BadShape),
    ("gj_from_embedding", lambda: gj_from_embedding(_nan_in_last_row(gj_embed(gj_identity(1)))),
     ProjectionResidual),
    ("algebra_from_matrix",
     lambda: JacobiAlgebraElement.from_matrix(_nan_in_last_row(gj_basis(1)[0])),
     ProjectionResidual),
    ("check_matrix_tangent",
     lambda: check_matrix_tangent(gj_identity(1), (np.full((1, 1), np.nan),) * 4
                                  + (np.zeros(1), np.zeros(1), 0.0)),
     NotSymplectic),
]


@pytest.mark.parametrize("call,exc", [pytest.param(c, e, id=name) for name, c, e in NAN_CASES])
def test_validation_gates_reject_nan(call, exc):
    with pytest.raises(exc):
        call()


def test_siegel_point_has_one_symmetry_bound():
    # x asymmetric by 5e-11: above SYM_RTOL, below the 1e-10 that check_siegel
    # once applied on its own, so mobius_act and act_xjn accepted what act_pq refused
    x = np.array([[0.3, 0.1], [0.1 + 5e-11, -0.2]])
    y = np.array([[1.0, 0.2], [0.2, 0.8]])
    g = gj_identity(2)
    for call in (lambda: mobius_act(np.eye(4), x + 1j * y),
                 lambda: act_xjn(g, (x + 1j * y, np.zeros(2))),
                 lambda: act_pq(g, (x, y, np.zeros(2), np.zeros(2)))):
        with pytest.raises(NotSymmetric):
            call()


# Siegel points x + iy that are not: each public entry point must refuse them
# through check_siegel with a GeometryError, not return a value or let numpy
# raise LinAlgError
NOT_SIEGEL = {
    "asymmetric x": (np.array([[0.3, 0.4], [0.0, -0.2]]), np.eye(2)),
    "Im v = -I": (np.zeros((2, 2)), -np.eye(2)),
    "Im v = 0": (np.zeros((2, 2)), np.zeros((2, 2))),
}
_ROWS = (np.array([0.3, -0.5]), np.array([0.2, 0.1]))
_PQ_TANGENT = (np.eye(2), np.eye(2)) + _ROWS
_VU_TANGENT = (np.eye(2) + 1j * np.eye(2), np.array([1.0, 1j]))
_Z = gj_basis_elements(2)[0]
SIEGEL_ENTRIES = {
    "metric_xjn": lambda x, y: metric_xjn(1.0, 1.0, "pq", (x, y) + _ROWS,
                                          _PQ_TANGENT, _PQ_TANGENT),
    "metric_extended": lambda x, y: metric_extended(1.0, 1.0, 1.0, (x, y) + _ROWS + (0.5,),
                                                    _PQ_TANGENT + (1.0,), _PQ_TANGENT + (1.0,)),
    "chart_convert": lambda x, y: chart_convert((x, y) + _ROWS, "pq", "vu"),
    "chart_convert_same": lambda x, y: chart_convert((x, y) + _ROWS, "pq", "pq"),
    "cayley": lambda x, y: cayley(x + 1j * y, _ROWS[0]),
    "kahler_xjn": lambda x, y: kahler_xjn(KahlerParams(2.0, 1.0), x + 1j * y, _ROWS[0],
                                          _VU_TANGENT, _VU_TANGENT),
    "g_form": lambda x, y: g_form(x + 1j * y, _ROWS[0], _VU_TANGENT),
    "fvf_xjn_pq": lambda x, y: fvf(_Z, (x, y) + _ROWS, "xjn_pq"),
    "fvf_xjn_holo": lambda x, y: fvf(_Z, (x + 1j * y, _ROWS[0]), "xjn_holo"),
    "fvf_extended_xirho": lambda x, y: fvf(_Z, (x, y) + _ROWS + (0.5,), "extended_xirho"),
}
# these checked y already (extended_xirho through chart_convert) and lacked
# only the symmetry check of x
_X_ONLY = ("metric_xjn", "metric_extended", "chart_convert", "cayley", "fvf_extended_xirho")


@pytest.mark.parametrize("entry,case", [
    pytest.param(e, c, id=f"{e}-{c}") for e in SIEGEL_ENTRIES for c in NOT_SIEGEL
    if c == "asymmetric x" or e not in _X_ONLY])
def test_siegel_entry_points_refuse_non_siegel_points(entry, case):
    with pytest.raises(GeometryError):
        SIEGEL_ENTRIES[entry](*NOT_SIEGEL[case])


# the tolerance parameters a caller may still pass; every other bound is read
# from the table in linalg
KEPT_TOLERANCE_KNOBS = {
    "linalg.check_symmetric.rtol",
    "symplectic.is_symplectic.tol",
    "symplectic.check_block_relations.tol",
    "metrics.invariance_report.tol",
}


def _public_callables():
    """(module.name[.method], function) over the public API of every module."""
    for info in pkgutil.iter_modules(jacobigeom.__path__):
        mod = importlib.import_module(f"jacobigeom.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if not attr.startswith("_") and callable(member):
                        yield f"{info.name}.{name}.{attr}", member
            elif callable(obj):
                yield f"{info.name}.{name}", obj


def test_only_the_kept_tolerance_knobs_remain():
    knobs = {f"{qual}.{param}" for qual, fn in _public_callables()
             for param in inspect.signature(fn).parameters if "tol" in param}
    assert knobs == KEPT_TOLERANCE_KNOBS
