"""Every validation gate rejects NaN.

A gate written ``if residual > tol: raise`` lets a NaN residual through,
because every comparison with NaN is false; the gates are written
``if not residual <= tol`` instead.  Each case feeds NaN to one gate.
"""

import numpy as np
import pytest

from jacobigeom import (
    BadShape,
    ContractionViolation,
    JacobiAlgebraElement,
    NotSpd,
    NotSymmetric,
    NotSymplectic,
    NotUnitaryPair,
    ProjectionResidual,
    SingularSylvester,
    SpAlgebraElement,
    check_symplectic,
    gj_basis,
    gj_embed,
    gj_from_embedding,
    gj_identity,
    sylvester_solve,
    unitary_iso_inverse,
)
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


NAN_CASES = [
    ("check_symmetric", lambda: check_symmetric(NAN), NotSymmetric),
    ("check_spd", lambda: check_spd(NAN), NotSpd),
    # finite input cannot give NaN eigenvalues; a NaN tolerance reaches that gate
    ("check_spd_eigenvalues", lambda: check_spd(np.eye(2), eig_rtol=np.nan), NotSpd),
    ("check_symplectic", lambda: check_symplectic(NAN), NotSymplectic),
    ("check_symplectic_det", lambda: check_symplectic(np.eye(2), det_tol=np.nan),
     NotSymplectic),
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
