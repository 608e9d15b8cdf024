"""The validation policy: one bound table in ``linalg``, one gate, few knobs.

A gate written ``if residual > tol: raise`` lets a NaN residual through,
because every comparison with NaN is false; the one gate ``linalg._gate``
is written ``if not residual <= bound`` instead.  Each NaN case feeds NaN
to one gate.
"""

import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import jacobigeom
from jacobigeom import (
    BadShape,
    ContractionViolation,
    GeometryError,
    HeisenbergElement,
    KahlerParams,
    JacobiAlgebraElement,
    JacobiElement,
    MetricParams,
    NotSpd,
    NotSymmetric,
    NotSymplectic,
    NotUnitaryPair,
    PreIwasawaFactors,
    ProjectionResidual,
    SingularDenominator,
    SingularSylvester,
    SnChart,
    SpAlgebraElement,
    act_extended,
    act_modified_chart,
    act_pq,
    act_xjn,
    ball_act,
    cayley,
    cayley_inverse,
    chart_convert,
    check_symplectic,
    fc_inverse,
    fc_transform,
    fvf,
    g_form,
    gj_basis,
    gj_basis_elements,
    gj_bracket,
    gj_compose,
    gj_embed,
    gj_from_embedding,
    gj_identity,
    h_compose,
    h_identity,
    h_metric,
    h_oneforms,
    is_symplectic,
    kahler_ball,
    kahler_xjn,
    lambda_r,
    m_point,
    maurer_cartan,
    metric_extended,
    metric_group,
    metric_xjn,
    mobius_act,
    oneforms_matrix_chart,
    oneforms_n1,
    oneforms_sn,
    sn_chart_identity,
    sp_to_ball_rep,
    sylvester_solve,
    unitary_iso_inverse,
    unvech,
)
from jacobigeom import linalg
from jacobigeom import sampling as smp
from jacobigeom.forms import check_matrix_tangent, d_sn_chart, d_sn_chart_inverse, invariant_vf
from jacobigeom.heisenberg import h_embed
from jacobigeom.linalg import check_spd, check_symmetric, dsqrtm, kron_sum, sqrtm_spd, vech
from jacobigeom.metrics import check_ball_point
from jacobigeom.sampling import StackStream, rand_pq_point, rand_sn_chart, rand_sn_tangent
from jacobigeom.symplectic import check_block_relations, check_siegel, check_unitary_pair
from jacobigeom.symplectic import modified_pre_iwasawa, pre_iwasawa, sp_inverse
from jacobigeom.symplectic import symplectic_residual, unitary_iso, unitary_pair_residual

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
    ("sqrt_frame_residual",
     _under_nan_bound("SYLVESTER_RTOL", lambda: oneforms_sn(
         sn_chart_identity(2), (np.eye(2),) * 4 + (np.zeros(2), np.zeros(2), 0.0))),
     SingularSylvester),
    ("sp_to_ball_rep", lambda: sp_to_ball_rep(np.full((4, 4), np.nan)), NotSymplectic),
]


@pytest.mark.parametrize("call,exc", [pytest.param(c, e, id=name) for name, c, e in NAN_CASES])
def test_validation_gates_reject_nan(call, exc):
    with pytest.raises(exc):
        call()


# an infinite entry once reached numpy's inf - inf or 0 inf (in sym_residual, in a matmul
# or in a subtraction), a RuntimeWarning (an error under the suite's warning filter) before
# any gate, or passed a bound relative to ||Z||_max = inf; a predicate answers False
INF = np.array([[np.inf, 0.0], [0.0, 1.0]])
_INF_IN_LAST_ROW = np.eye(4)
_INF_IN_LAST_ROW[-1, 0] = np.inf
_ZERO1, _INF1 = np.zeros((1, 1)), np.array([[np.inf]])
_MATRIX_INF_DA = (_INF1, _ZERO1, _ZERO1, _ZERO1, np.zeros(1), np.zeros(1), 0.0)


def _sn1(dX=_ZERO1, dY=_ZERO1):
    """An S_n tangent at n = 1 with the given (dX, dY) and every other part zero."""
    return (_ZERO1, _ZERO1, dX, dY, np.zeros(1), np.zeros(1), 0.0)


INF_CASES = [
    ("check_symmetric", lambda: check_symmetric(INF), NotSymmetric),
    ("check_spd", lambda: check_spd(INF), NotSpd),
    ("check_spd -inf", lambda: check_spd(-INF), NotSpd),
    ("mobius_act", lambda: mobius_act(np.eye(2), np.array([[np.inf + 1j]])), NotSymmetric),
    ("check_ball_point", lambda: check_ball_point(INF + 0j), ContractionViolation),
    ("check_symplectic", lambda: check_symplectic(INF), NotSymplectic),
    ("mobius_act element", lambda: mobius_act(INF, np.array([[1j]])), NotSymplectic),
    ("is_symplectic", lambda: is_symplectic(INF), False),
    ("check_block_relations", lambda: check_block_relations(INF), False),
    ("check_unitary_pair", lambda: check_unitary_pair(INF, np.zeros((2, 2))), NotUnitaryPair),
    ("unitary_iso_inverse", lambda: unitary_iso_inverse(INF), NotUnitaryPair),
    ("gj_from_embedding", lambda: gj_from_embedding(np.diag([np.inf, 1.0, 1.0, 1.0])),
     NotSymplectic),
    ("gj_from_embedding last row", lambda: gj_from_embedding(_INF_IN_LAST_ROW),
     ProjectionResidual),
    ("sylvester_solve", lambda: sylvester_solve([[np.inf]], np.eye(1), np.eye(1)),
     SingularSylvester),
    ("algebra_from_matrix", lambda: JacobiAlgebraElement.from_matrix(np.diag([np.inf, 0, 0, 0])),
     ProjectionResidual),
    ("sp_algebra_from_matrix", lambda: SpAlgebraElement.from_matrix(np.diag([np.inf, 0.0])),
     BadShape),
    # tangent blocks that no check read for finiteness: the matrix chart's four blocks
    # and an S_n tangent's (dX, dY) reached numpy's matmul
    ("check_matrix_tangent inf da",
     lambda: check_matrix_tangent(gj_identity(1), _MATRIX_INF_DA), NotSymplectic),
    ("d_sn_chart inf da", lambda: d_sn_chart(gj_identity(1), _MATRIX_INF_DA), NotSymplectic),
    ("maurer_cartan inf da", lambda: maurer_cartan(gj_identity(1), _MATRIX_INF_DA), BadShape),
    ("oneforms_matrix_chart inf da",
     lambda: oneforms_matrix_chart(gj_identity(1), _MATRIX_INF_DA), BadShape),
    ("oneforms_sn inf dX", lambda: oneforms_sn(sn_chart_identity(1), _sn1(dX=_INF1)), BadShape),
    ("maurer_cartan inf dX at an S_n chart",
     lambda: maurer_cartan(sn_chart_identity(1), _sn1(dX=_INF1), chart="sn"), BadShape),
    ("d_sn_chart_inverse inf dY",
     lambda: d_sn_chart_inverse(sn_chart_identity(1), _sn1(dY=_INF1)), BadShape),
    ("metric_group inf dX",
     lambda: metric_group(MetricParams(), sn_chart_identity(1), _sn1(), _sn1(dX=_INF1)), BadShape),
]


@pytest.mark.parametrize("call,exc", [pytest.param(c, e, id=name) for name, c, e in INF_CASES])
def test_validation_gates_reject_inf(call, exc):
    if exc is False:
        assert not call()
        return
    with pytest.raises(exc):
        call()


def test_an_infinite_matrix_fails_alone_in_its_stack():
    stack = np.stack([np.eye(2), INF, np.eye(2)])
    with pytest.raises(NotSymmetric, match=r"at stack index 1$"):
        check_symmetric(stack)
    assert np.array_equal(linalg.sym_residual(stack)[[0, 2]], [0.0, 0.0])


@pytest.mark.parametrize("m", [np.ones((4, 4)), np.diag([2.0, 1.0, 1.0, 1.0])])
def test_sp_to_ball_rep_refuses_non_symplectic_matrices(m):
    # the blocks of a non-symplectic matrix were returned as a ball-model pair
    with pytest.raises(NotSymplectic):
        sp_to_ball_rep(m)


def test_the_engine_reads_its_own_ball_draw_unchecked():
    # the invariance engine draws symplectic matrices and does not re-check them
    def refuse(m):
        raise AssertionError("check_symplectic called on an engine draw")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobigeom.metrics, "check_symplectic", refuse)
        assert jacobigeom.invariance_report("kahler_ball", 2, samples=4).passed


def test_the_engine_checks_no_drawn_point():
    # the engine acts on its draws through the unchecked kernels of the actions, so neither
    # a drawn point nor its image meets the one point check or its Siegel and ball checks
    def refuse(*args):
        raise AssertionError("an engine draw was checked")

    with pytest.MonkeyPatch.context() as mp:
        for module in (jacobigeom.jacobi, jacobigeom.metrics, jacobigeom.forms):
            for name in ("_point", "_siegel", "_ball"):
                if hasattr(module, name):
                    mp.setattr(module, name, refuse)
        for obj in jacobigeom.metrics.INVARIANCE_OBJECTS:
            assert jacobigeom.invariance_report(obj, 2, samples=4).max_rel < 1.0


@pytest.mark.parametrize("check,exc", [(check_symmetric, NotSymmetric), (check_spd, NotSpd)])
def test_gate_names_the_failing_index_of_a_stack(check, exc):
    # a stack with more than one leading axis, as a push of two stacked tangents
    # gives: the flat index of the failing matrix once overran the first axis
    stack = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
    stack[1, 2, 0, 1] = 0.5
    with pytest.raises(exc, match=r"at stack index \(1, 2\)$"):
        check(stack)
    with pytest.raises(exc, match=r"at stack index 5$"):
        check(stack.reshape(6, 2, 2))
    check(np.broadcast_to(np.eye(2), (2, 3, 2, 2)))


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
    # lambda_r never read x and y: it returned a value at a point of none of the spaces
    "lambda_r": lambda x, y: lambda_r((x, y) + _ROWS + (0.5,), _PQ_TANGENT + (1.0,)),
    "act_xjn": lambda x, y: act_xjn(gj_identity(2), (x + 1j * y, _ROWS[0])),
    "act_pq": lambda x, y: act_pq(gj_identity(2), (x, y) + _ROWS),
    "act_extended": lambda x, y: act_extended(gj_identity(2), (x, y) + _ROWS + (0.5,)),
    "mobius_act": lambda x, y: mobius_act(np.eye(4), x + 1j * y),
    "check_siegel": lambda x, y: check_siegel(x + 1j * y),
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


# ball points W that are not, at n = 2: each public entry point that takes one must refuse
# it through the one ball check with a GeometryError
NOT_BALL = {
    "asymmetric W": np.array([[0.3, 0.4], [0.0, -0.2]]) + 0j,
    "W = I": np.eye(2) + 0j,
    "W = 2 I": 2 * np.eye(2) + 0j,
    "NaN W": NAN + 0j,
}
BALL_ENTRIES = {
    "check_ball_point": lambda w: check_ball_point(w),
    "fc_transform": lambda w: fc_transform(w, _ROWS[0]),
    "fc_inverse": lambda w: fc_inverse(w, _ROWS[0]),
    "cayley_inverse": lambda w: cayley_inverse(w, _ROWS[0]),
    "ball_act": lambda w: ball_act(((np.eye(2) + 0j, np.zeros((2, 2)) + 0j), np.zeros(2)),
                                   (w, _ROWS[0])),
    "kahler_ball": lambda w: kahler_ball(KahlerParams(2.0, 1.0), w, _ROWS[0], _VU_TANGENT,
                                         _VU_TANGENT),
}


@pytest.mark.parametrize("entry,case", [
    pytest.param(e, c, id=f"{e}-{c}") for e in BALL_ENTRIES for c in NOT_BALL])
def test_ball_entry_points_refuse_non_ball_points(entry, case):
    with pytest.raises(ContractionViolation):
        BALL_ENTRIES[entry](NOT_BALL[case])


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


# wrong shapes at n = 2 that reached numpy and ended in its plain ValueError
_X, _Y = np.zeros((2, 2)), np.eye(2)
_Y3 = np.diag([1.0, 2.0, 0.5])  # SPD of degree 3
_ROW3 = np.zeros(3)
_BALL_TANGENT = (np.eye(2) + 0j, np.array([1.0, 1j]))


def _sn_tangent(dp=_ROWS[0], dk=0.0):
    return (_Y, _Y, _X, _X, dp, _ROWS[1], dk)


_KP = KahlerParams(2.0, 1.0)
_NAN_ROW = np.array([np.nan, 0.0])
# complex tangents (dv, du) of the Kaehler forms and g_form, which reached numpy's
# ValueError, or returned NaN, before their entry checks
_BAD_COMPLEX_TANGENTS = {
    "dv 3x3": (np.eye(3) + 0j, _VU_TANGENT[1]),
    "du of length 3": (_VU_TANGENT[0], _ROW3 + 0j),
    "NaN dv": (NAN + 0j, _VU_TANGENT[1]),
    "NaN du": (_VU_TANGENT[0], _NAN_ROW + 0j),
}
_COMPLEX_TANGENT_ENTRIES = {
    "kahler_xjn": lambda t: kahler_xjn(_KP, _X + 1j * _Y, _ROWS[0], _VU_TANGENT, t),
    "kahler_ball": lambda t: kahler_ball(_KP, _X, _ROWS[0], t, _BALL_TANGENT),
    "g_form": lambda t: g_form(_X + 1j * _Y, _ROWS[0], t),
}
_BALL_PQ = (_Y + 0j, _X + 0j)  # (P, Q) of the identity


def _draw(sampler, k, *args):
    """``sampler`` at n = 2 as a stack of k (the stream's seed is k, so stacks differ)."""
    return sampler(StackStream(k, 2, 0, k), *args)


def _stacks(k):
    """Stacks of k elements, points and tangents at n = 2, drawn by the samplers."""
    g, pq, chart = (_draw(sampler, k, 2) for sampler in (smp.rand_jacobi, smp.rand_pq_point,
                                                         smp.rand_sn_chart))
    kappa, dkappa = np.zeros(k), np.ones(k)
    return {
        "g": g, "z": _draw(smp.rand_gj_algebra, k, 2), "h": _draw(smp.rand_heisenberg, k, 2),
        "h_tangent": (g.lam, g.mu, kappa), "pq": pq, "extended": (*pq, kappa),
        "pq_tangent": _draw(smp.rand_pq_tangent, k, 2),
        "extended_tangent": (*_draw(smp.rand_pq_tangent, k, 2), dkappa),
        "vu": _draw(smp.rand_vu_point, k, 2), "vu_tangent": _draw(smp.rand_vu_tangent, k, 2),
        "ball": _draw(smp.rand_ball_point, k, 2), "ball_element": (sp_to_ball_rep(g.M), pq[2] + 0j),
        "chart": chart, "chart4": (chart.x, chart.y, chart.X, chart.Y),
        "sn_tangent": _draw(smp.rand_sn_tangent, k, chart),
        "matrix_tangent": (pq[0], pq[0], pq[0], pq[0], pq[2], pq[3], kappa),
    }


_S3, _S2 = _stacks(3), _stacks(2)
# stacks that do not broadcast, 3 against 2: an element and a point, two elements, a point
# and its tangents.  The first twelve ended in numpy's broadcast ValueError; the fit rule
# linalg._fit now refuses all of them
_STACKS_3_AND_2 = {
    "mobius_act": lambda: mobius_act(_S3["g"].M, _S2["pq"][0] + 1j * _S2["pq"][1]),
    "act_modified_chart": lambda: act_modified_chart(_S3["g"].M, _S2["chart4"]),
    "act_xjn": lambda: act_xjn(_S3["g"], _S2["vu"]),
    "act_pq": lambda: act_pq(_S3["g"], _S2["pq"]),
    "act_extended": lambda: act_extended(_S3["g"], _S2["extended"]),
    "ball_act": lambda: ball_act(_S3["ball_element"], _S2["ball"]),
    "gj_compose": lambda: gj_compose(_S3["g"], _S2["g"]),
    "h_compose": lambda: h_compose(_S3["h"], _S2["h"]),
    "h_oneforms": lambda: h_oneforms(_S3["h"], _S2["h_tangent"]),
    "fvf": lambda: fvf(_S3["z"], _S2["pq"], "xjn_pq"),
    "g_form": lambda: g_form(*_S3["vu"], _S2["vu_tangent"]),
    "lambda_r": lambda: lambda_r(_S3["extended"], _S2["extended_tangent"]),
    # and the rest, which refused them already, or, gj_bracket, met numpy's error too
    "gj_bracket": lambda: gj_bracket(_S3["z"], _S2["z"]),
    "h_metric": lambda: h_metric(_S3["h"], _S2["h_tangent"]),
    "oneforms_sn": lambda: oneforms_sn(_S3["chart"], _S2["sn_tangent"]),
    "d_sn_chart_inverse": lambda: d_sn_chart_inverse(_S3["chart"], _S2["sn_tangent"]),
    "metric_group": lambda: metric_group(MetricParams(), _S3["chart"], *(_S2["sn_tangent"],) * 2),
    "metric_xjn": lambda: metric_xjn(1.0, 1.0, "pq", _S3["pq"], *(_S2["pq_tangent"],) * 2),
    "metric_extended": lambda: metric_extended(1.0, 1.0, 1.0, _S3["extended"],
                                               *(_S2["extended_tangent"],) * 2),
    "kahler_xjn": lambda: kahler_xjn(_KP, *_S3["vu"], *(_S2["vu_tangent"],) * 2),
    "kahler_ball": lambda: kahler_ball(_KP, *_S3["ball"], *(_S2["vu_tangent"],) * 2),
    # the matrix chart and the degree-1 forms take no stack of tangents at all
    **{f.__name__: (lambda f=f: f(_S3["g"], _S2["matrix_tangent"]))
       for f in (check_matrix_tangent, maurer_cartan, oneforms_matrix_chart, d_sn_chart)},
    "oneforms_n1": lambda: oneforms_n1(np.zeros(3), 1.5, 0.3, (np.zeros(2),) + (0.1,) * 5),
    # an SPD matrix and a direction, each stacked, go together by the same rule
    "dsqrtm": lambda: dsqrtm(_S3["chart4"][1], _S2["sn_tangent"][1]),
}


# each public function that takes a tangent (or a pair, given the one tangent twice) at n = 2,
# and the kind of its tangent, for the faults below
_Z2, _Z1 = np.zeros((2, 2)), np.zeros(2)
_ZERO_TANGENTS = {
    "matrix": (_Z2,) * 4 + (_Z1, _Z1, 0.0), "sn": (_Z2,) * 4 + (_Z1, _Z1, 0.0),
    "xjn": (_Z2, _Z2, _Z1, _Z1), "extended": (_Z2, _Z2, _Z1, _Z1, 0.0), "rrk": (_Z1, _Z1, 0.0),
    "vu": (_Z2 + 0j, _Z1 + 0j), "n1": (0.0,) * 6,
}
_TANGENT_TAKERS = {
    "check_matrix_tangent": ("matrix", lambda t: check_matrix_tangent(gj_identity(2), t)),
    "maurer_cartan": ("sn", lambda t: maurer_cartan(sn_chart_identity(2), t, chart="sn")),
    "oneforms_matrix_chart": ("matrix", lambda t: oneforms_matrix_chart(gj_identity(2), t)),
    "d_sn_chart_inverse": ("sn", lambda t: d_sn_chart_inverse(sn_chart_identity(2), t)),
    "d_sn_chart": ("matrix", lambda t: d_sn_chart(gj_identity(2), t)),
    "oneforms_sn": ("sn", lambda t: oneforms_sn(sn_chart_identity(2), t)),
    "oneforms_n1": ("n1", lambda t: oneforms_n1(0.0, 1.0, 0.3, t)),
    "h_oneforms": ("rrk", lambda t: h_oneforms(h_identity(2), t)),
    "h_metric": ("rrk", lambda t: h_metric(h_identity(2), t)),
    "metric_group": ("sn", lambda t: metric_group(MetricParams(), sn_chart_identity(2), t, t)),
    "metric_xjn": ("xjn", lambda t: metric_xjn(1.0, 1.0, "pq", (_X, _Y) + _ROWS, t, t)),
    "lambda_r": ("extended", lambda t: lambda_r((_X, _Y) + _ROWS + (0.5,), t)),
    "metric_extended": ("extended", lambda t: metric_extended(
        1.0, 1.0, 1.0, (_X, _Y) + _ROWS + (0.5,), t, t)),
    "g_form": ("vu", lambda t: g_form(_X + 1j * _Y, _ROWS[0], t)),
    "kahler_ball": ("vu", lambda t: kahler_ball(_KP, _X, _ROWS[0], t, t)),
    "kahler_xjn": ("vu", lambda t: kahler_xjn(_KP, _X + 1j * _Y, _ROWS[0], t, t)),
}
# a tangent that is no tuple, which ended in a builtin TypeError; a part that is no number,
# which ended in numpy's ValueError; a complex part of a real tangent, whose imaginary part
# numpy dropped with a ComplexWarning (a complex kappa: a TypeError)
_NOT_TANGENTS = {
    "tangent not a tuple": lambda t: None,
    "tangent a number": lambda t: 3,
    "last part a string": lambda t: t[:-1] + ("x",),
    "first part complex": lambda t: (t[0] + 1j,) + t[1:],
}
_TANGENT_FAULTS = {
    f"{name} {fault}": (lambda call=call, kind=kind, make=make: call(make(_ZERO_TANGENTS[kind])))
    for name, (kind, call) in _TANGENT_TAKERS.items() for fault, make in _NOT_TANGENTS.items()
    if not (kind == "vu" and fault == "first part complex")}
# the one row rule: (n,) or (1, n) unstacked, (..., 1, n) over a stack, alone or in a pair; a
# column (n, 1) was read as a row when alone, and a stacked pair took rows (k, n)
_ROW_RULE = {
    "oneforms_sn dp a column (2, 1)":
        lambda: oneforms_sn(sn_chart_identity(2), _sn_tangent(_ROWS[0][:, None])),
    "metric_xjn dp a column (2, 1)": lambda: metric_xjn(
        1.0, 1.0, "pq", (_X, _Y) + _ROWS, *((_X, _Y, _ROWS[0][:, None], _ROWS[1]),) * 2),
    "metric_xjn stacked tangents with rows (3, 2)": lambda: metric_xjn(
        1.0, 1.0, "pq", _S3["pq"], *((*_S3["pq_tangent"][:2],
                                      *(r[:, 0] for r in _S3["pq_tangent"][2:])),) * 2),
    "metric_xjn t1 and t2 of two row forms": lambda: metric_xjn(
        1.0, 1.0, "pq", (_X, _Y) + _ROWS, _PQ_TANGENT, (_Y, _Y, _ROWS[0][None], _ROWS[1])),
}
# a point's rows are read as a tangent's
_POINT_ROW_FAULTS = {
    "act_pq p a string": lambda: act_pq(gj_identity(2), (_X, _Y, "ab", _ROWS[1])),
    "act_pq p complex": lambda: act_pq(gj_identity(2), (_X, _Y, _ROWS[0] + 1j, _ROWS[1])),
}


BAD_SHAPES = {
    **_TANGENT_FAULTS,
    **_ROW_RULE,
    **_POINT_ROW_FAULTS,
    "act_pq p of length 3": lambda: act_pq(gj_identity(2), (_X, _Y, _ROW3, _ROWS[1])),
    "act_pq x 2x2, y 3x3": lambda: act_pq(gj_identity(2), (_X, np.eye(3)) + _ROWS),
    "act_pq point of degree 2, element of degree 3":
        lambda: act_pq(gj_identity(3), (_X, _Y) + _ROWS),
    "act_xjn u of length 3": lambda: act_xjn(gj_identity(2), (_X + 1j * _Y, _ROW3)),
    "lambda_r p of length 3": lambda: lambda_r((_X, _Y, _ROW3, _ROWS[1], 0.5),
                                               _PQ_TANGENT + (1.0,)),
    "metric_xjn dp of length 3": lambda: metric_xjn(
        1.0, 1.0, "pq", (_X, _Y) + _ROWS, (_Y, _Y, _ROW3, _ROWS[1]), _PQ_TANGENT),
    "oneforms_sn dp of length 3": lambda: oneforms_sn(sn_chart_identity(2), _sn_tangent(_ROW3)),
    "metric_group dp of length 3": lambda: metric_group(
        MetricParams(), sn_chart_identity(2), _sn_tangent(_ROW3), _sn_tangent()),
    "d_sn_chart_inverse dp of length 3":
        lambda: d_sn_chart_inverse(sn_chart_identity(2), _sn_tangent(_ROW3)),
    "chart_convert rho of length 3":
        lambda: chart_convert((_X, _Y, _ROWS[0], _ROW3), "xirho", "pq"),
    "kahler_xjn u of length 3": lambda: kahler_xjn(KahlerParams(2.0, 1.0), _X + 1j * _Y, _ROW3,
                                                   _VU_TANGENT, _VU_TANGENT),
    "g_form u of length 3": lambda: g_form(_X + 1j * _Y, _ROW3, _VU_TANGENT),
    # a non-finite kappa is refused with the rows it travels with
    "oneforms_sn NaN dkappa": lambda: oneforms_sn(sn_chart_identity(2), _sn_tangent(dk=np.nan)),
    "act_extended NaN kappa": lambda: act_extended(gj_identity(2), (_X, _Y) + _ROWS + (np.nan,)),
    "d_sn_chart da 3x3":
        lambda: d_sn_chart(gj_identity(2), (np.eye(3), _X, _X, _X) + _ROWS + (0.0,)),
    "d_sn_chart dp of length 3":
        lambda: d_sn_chart(gj_identity(2), (_X,) * 4 + (_ROW3, _ROWS[1], 0.0)),
    # the ball model's rows, at W = 0 (v = iI for cayley)
    "kahler_ball z of length 3":
        lambda: kahler_ball(KahlerParams(2.0, 1.0), _X, _ROW3, _BALL_TANGENT, _BALL_TANGENT),
    "kahler_ball NaN z": lambda: kahler_ball(KahlerParams(2.0, 1.0), _X, np.array([np.nan, 0.0]),
                                             _BALL_TANGENT, _BALL_TANGENT),
    "fc_transform z of length 3": lambda: fc_transform(_X, _ROW3),
    "fc_inverse eta of length 3": lambda: fc_inverse(_X, _ROW3),
    "cayley_inverse z of length 3": lambda: cayley_inverse(_X, _ROW3),
    "ball_act z of length 3":
        lambda: ball_act(((_Y + 0j, _X + 0j), np.zeros(2)), (_X, _ROW3)),
    "cayley u of length 3": lambda: cayley(1j * _Y, _ROW3),
    "ball_act P 3x3": lambda: ball_act(((np.eye(3) + 0j, _X + 0j), np.zeros(2)), (_X, _ROWS[0])),
    "ball_act Q of shape 2x3":
        lambda: ball_act(((_Y + 0j, np.zeros((2, 3))), np.zeros(2)), (_X, _ROWS[0])),
    "ball_act alpha of length 3": lambda: ball_act((_BALL_PQ, _ROW3), (_X, _ROWS[0])),
    "ball_act NaN alpha": lambda: ball_act((_BALL_PQ, _NAN_ROW), (_X, _ROWS[0])),
    **{f"{entry} {case}": (lambda e=entry, c=case: _COMPLEX_TANGENT_ENTRIES[e](
        _BAD_COMPLEX_TANGENTS[c])) for entry in _COMPLEX_TANGENT_ENTRIES
       for case in _BAD_COMPLEX_TANGENTS},
    # the Heisenberg one-forms' tangent (dlambda, dmu, dkappa)
    "h_oneforms dlambda of length 3":
        lambda: h_oneforms(h_identity(2), (_ROW3, _ROWS[1], 0.0)),
    "h_oneforms NaN dmu": lambda: h_oneforms(h_identity(2), (_ROWS[0], _NAN_ROW, 0.0)),
    "h_metric dmu of length 3": lambda: h_metric(h_identity(2), (_ROWS[0], _ROW3, 0.0)),
    "h_metric NaN dkappa": lambda: h_metric(h_identity(2), _ROWS + (np.nan,)),
    # a lambda without a length, whose degree was read before the reader: numpy's ValueError
    "HeisenbergElement lambda a string": lambda: HeisenbergElement("ab", _ROWS[1], 0.0),
    "HeisenbergElement ragged lambda":
        lambda: HeisenbergElement([[0.3, -0.5], [0.2]], _ROWS[1], 0.0),
    # and a ragged dx on the S_n route, whose stack was read before the reader
    "maurer_cartan sn ragged dx": lambda: maurer_cartan(
        sn_chart_identity(2), ([[1.0, 0.0], [0.0]], *_sn_tangent()[1:]), chart="sn"),
    # matrix-chart tangents' rows and dkappa, at the identity
    "oneforms_matrix_chart dp of length 3":
        lambda: oneforms_matrix_chart(gj_identity(2), (_X,) * 4 + (_ROW3, _ROWS[1], 0.0)),
    "oneforms_matrix_chart NaN dkappa":
        lambda: oneforms_matrix_chart(gj_identity(2), (_X,) * 4 + _ROWS + (np.nan,)),
    "maurer_cartan dp of length 3":
        lambda: maurer_cartan(gj_identity(2), (_X,) * 4 + (_ROW3, _ROWS[1], 0.0)),
    "maurer_cartan NaN dkappa":
        lambda: maurer_cartan(gj_identity(2), (_X,) * 4 + _ROWS + (np.nan,)),
    # and their block shapes
    "oneforms_matrix_chart da 3x3":
        lambda: oneforms_matrix_chart(gj_identity(2), (np.eye(3), _X, _X, _X) + _ROWS + (0.0,)),
    "maurer_cartan da 3x3":
        lambda: maurer_cartan(gj_identity(2), (np.eye(3), _X, _X, _X) + _ROWS + (0.0,)),
    # a degree mismatch between an element and a point, which ended in numpy's matmul error
    "mobius_act element of degree 2, point of degree 3": lambda: mobius_act(np.eye(4), 1j * _Y3),
    "m_point x 2x2, y 3x3": lambda: m_point(_Y, _Y3),
    "act_modified_chart element of degree 2, chart of degree 3":
        lambda: act_modified_chart(np.eye(4), (0 * _Y3, _Y3, np.eye(3), 0 * _Y3)),
    "act_modified_chart (X, Y) of degree 3": lambda: act_modified_chart(
        np.eye(4), (_X, _Y, np.eye(3), 0 * _Y3)),
    # a chart whose x, y and (X, Y) disagree in degree, which ended in numpy's matmul
    # error at pre_iwasawa_compose or sn_chart_inverse
    "PreIwasawaFactors x 2x2, y 3x3":
        lambda: PreIwasawaFactors(_X, np.eye(3), np.eye(3), 0 * _Y3, "modified"),
    "PreIwasawaFactors (X, Y) of degree 3":
        lambda: PreIwasawaFactors(_X, _Y, np.eye(3), 0 * _Y3, "modified"),
    "SnChart x 2x2, y 3x3": lambda: SnChart(_X, np.eye(3), np.eye(3), 0 * _Y3, *_ROWS, 0.0),
    "SnChart (X, Y) of degree 3": lambda: SnChart(_X, _Y, np.eye(3), 0 * _Y3, *_ROWS, 0.0),
    # the holomorphic point's row, which numpy's ValueError refused, or a NaN field took
    "fvf xjn_holo u of length 3": lambda: fvf(_Z, (_X + 1j * _Y, _ROW3), "xjn_holo"),
    "fvf xjn_holo NaN u": lambda: fvf(_Z, (_X + 1j * _Y, _NAN_ROW), "xjn_holo"),
    # an algebra element of degree 3 at a point of degree 2, which ended in numpy's matmul error
    "fvf xjn_holo element of degree 3, point of degree 2":
        lambda: fvf(gj_basis_elements(3)[0], (1j * _Y, np.zeros(2)), "xjn_holo"),
    "fvf xjn_pq element of degree 3, point of degree 2":
        lambda: fvf(gj_basis_elements(3)[0], (_X, _Y) + _ROWS, "xjn_pq"),
    # an S_n tangent's (dX, dY): a NaN was returned, a 2 x 2 block at n = 1 met numpy's error
    "d_sn_chart_inverse NaN dX": lambda: d_sn_chart_inverse(sn_chart_identity(1),
                                                            _sn1(dX=np.full((1, 1), np.nan))),
    "oneforms_sn dX 2x2 at n = 1": lambda: oneforms_sn(sn_chart_identity(1), _sn1(dX=_X)),
    "d_sn_chart_inverse dX 2x2 at n = 1":
        lambda: d_sn_chart_inverse(sn_chart_identity(1), _sn1(dX=_X)),
    # the closed degree-1 forms checked y > 0 only: a NaN dx gave NaN forms, an infinite y
    # or theta numpy's RuntimeWarning, a length-2 dx forms of shape (1, 1, 2)
    "oneforms_n1 NaN dx": lambda: oneforms_n1(0.1, 1.5, 0.3, (np.nan,) + (0.1,) * 5),
    "oneforms_n1 inf y": lambda: oneforms_n1(0.1, np.inf, 0.3, (0.1,) * 6),
    "oneforms_n1 inf theta": lambda: oneforms_n1(0.1, 1.5, np.inf, (0.1,) * 6),
    "oneforms_n1 dx of length 2": lambda: oneforms_n1(0.1, 1.5, 0.3, (np.ones(2),) + (0.1,) * 5),
    # lambda_r's tangent is an extended Siegel-Jacobi tangent: a 3 x 3 dx returned a value
    "lambda_r dx 3x3": lambda: lambda_r((_X, _Y) + _ROWS + (0.5,),
                                        (np.eye(3), _Y) + _ROWS + (1.0,)),
    "lambda_r NaN dkappa": lambda: lambda_r((_X, _Y) + _ROWS + (0.5,), _PQ_TANGENT + (np.nan,)),
    # an algebra element's (p, q, r) took any row: a NaN, or a length that to_matrix refused
    "JacobiAlgebraElement NaN p": lambda: JacobiAlgebraElement(_X, _X, _X, _NAN_ROW, _ROWS[1], 0.0),
    "JacobiAlgebraElement q of length 3":
        lambda: JacobiAlgebraElement(_X, _X, _X, _ROWS[0], _ROW3, 0.0),
    # and any a: a NaN that to_matrix carried, or a 2 x 3 a that it refused with numpy's error
    "JacobiAlgebraElement NaN a": lambda: JacobiAlgebraElement(NAN, _X, _X, *_ROWS, 0.0),
    "JacobiAlgebraElement inf a": lambda: JacobiAlgebraElement(INF, _X, _X, *_ROWS, 0.0),
    "JacobiAlgebraElement a of shape 2x3":
        lambda: JacobiAlgebraElement(np.zeros((2, 3)), _X, _X, *_ROWS, 0.0),
    "SpAlgebraElement NaN a": lambda: SpAlgebraElement(NAN, _X, _X),
    "SpAlgebraElement a 2x2, b and c 3x3": lambda: SpAlgebraElement(_Y, np.eye(3), np.eye(3)),
    "SpAlgebraElement a of shape 2x3": lambda: SpAlgebraElement(np.zeros((2, 3)), _X, _X),
    # a matrix that is not even and square: 2 x 3 came back as an element with a 2 x 2 b
    "sp_algebra_from_matrix 2x3": lambda: SpAlgebraElement.from_matrix(np.zeros((2, 3))),
    "sp_algebra_from_matrix 3x3": lambda: SpAlgebraElement.from_matrix(np.eye(3)),
    # nor (2n + 2) x (2n + 2) with n >= 1: numpy's broadcast ValueError, and at 2 x 2 a
    # degree-0 element, refused by a projection residual or by numpy's ValueError
    "algebra_from_matrix 5x5": lambda: JacobiAlgebraElement.from_matrix(np.zeros((5, 5))),
    "algebra_from_matrix 3x3": lambda: JacobiAlgebraElement.from_matrix(np.zeros((3, 3))),
    "algebra_from_matrix 2x2": lambda: JacobiAlgebraElement.from_matrix(np.eye(2)),
    "gj_from_embedding 2x2": lambda: gj_from_embedding(np.eye(2)),
    # a point of the wrong number of parts, which argument unpacking refused with TypeError
    # or ValueError, or whose extra part was never read
    "act_xjn point of 3 parts": lambda: act_xjn(gj_identity(2), (1j * _Y, _ROWS[0], _ROWS[0])),
    "act_pq point of 5 parts": lambda: act_pq(gj_identity(2), (_X, _Y) + _ROWS + (0.5,)),
    # a point that is no sequence, whose len() raised TypeError
    **{f"act_xjn point {point!r}": (lambda p=point: act_xjn(gj_identity(1), p))
       for point in (5, None, 3.0)},
    "chart_convert pq point of 3 parts": lambda: chart_convert((_X, _Y, _ROWS[0]), "pq", "vu"),
    "ball_act point of 1 part": lambda: ball_act((_BALL_PQ, np.zeros(2)), (_X,)),
    "fvf xjn_pq point of 5 parts": lambda: fvf(_Z, (_X, _Y) + _ROWS + (0.5,), "xjn_pq"),
    "fvf extended_pq NaN kappa": lambda: fvf(_Z, (_X, _Y) + _ROWS + (np.nan,), "extended_pq"),
    # the linalg and symplectic boundary
    "check_symmetric 0x0": lambda: check_symmetric(np.zeros((0, 0))),
    "check_spd 0x0": lambda: check_spd(np.zeros((0, 0))),
    "unvech 10 entries for n = 3": lambda: unvech(np.arange(10.0), 3),
    "unvech 2 entries for n = 3": lambda: unvech(np.ones(2), 3),
    "check_unitary_pair X 2x2, Y 3x3": lambda: check_unitary_pair(_Y, np.zeros((3, 3))),
    "unitary_iso_inverse 2x3": lambda: unitary_iso_inverse(np.ones((2, 3))),
    **{f"{name} stacks of 3 and 2": call for name, call in _STACKS_3_AND_2.items()},
    # the fit rule inside one element or point: a matrix part and rows stacked 3 and 2, which
    # constructed, or returned mixed stacks, or ended in numpy's broadcast ValueError
    "JacobiElement M stacked 3, rows stacked 2":
        lambda: JacobiElement(_S3["g"].M, _S2["g"].lam, _S2["g"].mu, _S2["g"].kappa),
    "JacobiAlgebraElement (a, b, c) stacked 3, rows stacked 2": lambda: JacobiAlgebraElement(
        _S3["z"].a, _S3["z"].b, _S3["z"].c, _S2["z"].p, _S2["z"].q, _S2["z"].r),
    "SnChart (x, y, X, Y) stacked 3, rows stacked 2":
        lambda: SnChart(*_S3["chart4"], _S2["chart"].p, _S2["chart"].q, _S2["chart"].kappa),
    "act_pq x, y stacked 2, p, q stacked 3":
        lambda: act_pq(gj_identity(2), (*_S2["pq"][:2], *_S3["pq"][2:])),
    "chart_convert xirho x, y stacked 2, rows stacked 3":
        lambda: chart_convert((*_S2["pq"][:2], *_S3["pq"][2:]), "xirho", "pq"),
    "ball_act P stacked 3, alpha stacked 2":
        lambda: ball_act((_S3["ball_element"][0], _S2["ball_element"][1]), _S3["ball"]),
    "ball_act alpha stacked 3, point stacked 2": lambda: ball_act(
        ((np.eye(2) + 0j, np.zeros((2, 2)) + 0j), _S3["ball_element"][1]), _S2["ball"]),
    # a point, chart or ball element is read whole, as a tangent is, before numpy meets its
    # parts: one stack shape for all of them (a matrix part stacked 3 and rows unstacked came
    # back as a mixed-stack image or object), and no numpy TypeError or ValueError, nor a
    # ComplexWarning, for a point that is no tuple of arrays
    "act_pq point a dict": lambda: act_pq(gj_identity(2), dict(zip("xypq", (_X, _Y) + _ROWS))),
    "act_pq ragged x": lambda: act_pq(gj_identity(2), ([[0.0, 0.0], [0.0]], _Y) + _ROWS),
    "act_pq complex x": lambda: act_pq(gj_identity(2), (_X + 1j * _Y, _Y) + _ROWS),
    "act_xjn v unstacked, u stacked (1, 1, 2)":
        lambda: act_xjn(gj_identity(2), (_X + 1j * _Y, _ROWS[0][None, None] + 0j)),
    "cayley v unstacked, u stacked (1, 1, 2)": lambda: cayley(_X + 1j * _Y, _ROWS[0][None, None]),
    "act_pq x, y stacked 3, p, q unstacked":
        lambda: act_pq(gj_identity(2), (*_S3["pq"][:2], *_ROWS)),
    "SnChart (x, y, X, Y) stacked 3, rows unstacked": lambda: SnChart(*_S3["chart4"], *_ROWS, 0.0),
    "ball_act P, Q stacked 3, alpha unstacked":
        lambda: ball_act((_S3["ball_element"][0], np.zeros(2) + 0j), _S3["ball"]),
    # and the ball check takes a square, non-empty W: numpy's ValueError or AxisError before
    "check_ball_point 2x3": lambda: check_ball_point(np.zeros((2, 3))),
    "check_ball_point of one axis": lambda: check_ball_point(np.zeros(3)),
    "fc_transform point of degree 0": lambda: fc_transform(np.zeros((0, 0)), np.zeros(0)),
}


# the three messages of the tuple reader, linalg._read
BAD_SHAPE_MESSAGES = {
    "metric_xjn t1 and t2 of two row forms": "^t1 and t2 must have one shape",
    "oneforms_sn tangent not a tuple": "^sn tuples have 7 parts, got an object of type NoneType$",
    "oneforms_sn dp a column (2, 1)":
        r"^a sn tuple mmmmrrk at n = 2 takes .* got r \(2, 1\) over \(\)$",
}


@pytest.mark.parametrize("case", BAD_SHAPES)
def test_wrong_shapes_raise_bad_shape(case):
    with pytest.raises(BadShape, match=BAD_SHAPE_MESSAGES.get(case)):
        BAD_SHAPES[case]()


# each whole-matrix argument: the call of one faulty value for it, a valid value the faults are
# made from, and whether the argument is real.  Each fault ended in numpy's TypeError or
# ValueError, or, complex into a real argument, lost its imaginary part with a ComplexWarning
_E2, _E4, _E6 = np.eye(2), np.eye(4), np.eye(6)
_WHOLE_MATRICES = {
    "check_symmetric": (check_symmetric, _E2, True),
    "vech": (vech, _E2, True),
    "check_spd": (check_spd, _E2, True),
    "sqrtm_spd": (sqrtm_spd, _E2, True),
    "dsqrtm a": (lambda a: dsqrtm(a, _E2), _E2, True),
    "dsqrtm da": (lambda da: dsqrtm(_E2, da), _E2, True),
    "kron_sum a": (lambda a: kron_sum(a, _E2), _E2, True),
    "kron_sum b": (lambda b: kron_sum(_E2, b), _E2, True),
    "sylvester_solve a": (lambda a: sylvester_solve(a, _E2, _E2), _E2, True),
    "sylvester_solve b": (lambda b: sylvester_solve(_E2, b, _E2), _E2, True),
    "sylvester_solve c": (lambda c: sylvester_solve(_E2, _E2, c), _E2, True),
    "symplectic_residual": (symplectic_residual, _E4, True),
    "is_symplectic": (is_symplectic, _E4, True),
    "check_symplectic": (check_symplectic, _E4, True),
    "sp_inverse": (sp_inverse, _E4, True),
    "pre_iwasawa": (pre_iwasawa, _E4, True),
    "modified_pre_iwasawa": (modified_pre_iwasawa, _E4, True),
    "sp_to_ball_rep": (sp_to_ball_rep, _E4, True),
    "JacobiElement M": (lambda m: JacobiElement(m, _Z1, _Z1, 0.0), _E4, True),
    "check_block_relations": (check_block_relations, _E4, True),
    "SpAlgebraElement.from_matrix": (SpAlgebraElement.from_matrix, _E4, True),
    "unitary_pair_residual x": (lambda x: unitary_pair_residual(x, _X), _E2, True),
    "unitary_pair_residual y": (lambda y: unitary_pair_residual(_E2, y), _X, True),
    "check_unitary_pair x": (lambda x: check_unitary_pair(x, _X), _E2, True),
    "check_unitary_pair y": (lambda y: check_unitary_pair(_E2, y), _X, True),
    "unitary_iso x": (lambda x: unitary_iso(x, _X), _E2, True),
    "unitary_iso_inverse": (unitary_iso_inverse, _E2 + 0j, False),
    "gj_from_embedding": (gj_from_embedding, _E6, True),
    "JacobiAlgebraElement.from_matrix": (JacobiAlgebraElement.from_matrix, 0 * _E6, True),
    "check_siegel": (check_siegel, 1j * _E2, False),
    "check_ball_point": (check_ball_point, 0j * _E2, False),
    "mobius_act m": (lambda m: mobius_act(m, 1j * _E2), _E4, True),
    "mobius_act v": (lambda v: mobius_act(_E4, v), 1j * _E2, False),
    "act_modified_chart m": (lambda m: act_modified_chart(m, (_X, _Y, _E2, _X)), _E4, True),
    "act_modified_chart x": (lambda x: act_modified_chart(_E4, (x, _Y, _E2, _X)), _X, True),
    "m_point x": (lambda x: m_point(x, _Y), _X, True),
    "m_point y": (lambda y: m_point(_X, y), _Y, True),
    "PreIwasawaFactors X": (lambda xu: PreIwasawaFactors(_X, _Y, xu, _X, "plain"), _E2, True),
}
_NOT_ARRAY = {
    "a dict": lambda a: {"a": a},
    "a ragged list": lambda a: [*map(list, a[:-1]), list(a[-1, :-1])],
    "strings": lambda a: np.full(a.shape, "x"),
    "complex": lambda a: a * (1 + 1e-3j),
}
NOT_ARRAYS = {f"{name} {fault}": (lambda call=call, make=make, a=a: call(make(a)))
              for name, (call, a, real) in _WHOLE_MATRICES.items()
              for fault, make in _NOT_ARRAY.items() if real or fault != "complex"}


@pytest.mark.parametrize("case", NOT_ARRAYS)
def test_a_whole_matrix_that_is_no_array_of_its_kind_raises_bad_shape(case):
    with pytest.raises(BadShape):
        NOT_ARRAYS[case]()


def test_every_tangent_taker_has_its_faults():
    takers = [qual.split(".")[-1] for qual, fn in _public_callables()
              if {"tangent", "t1", "t2"} & set(inspect.signature(fn).parameters)
              and qual.split(".")[0] not in TANGENT_CHECK_EXEMPT]
    assert sorted(takers) == sorted(_TANGENT_TAKERS)
    assert set(BAD_SHAPE_MESSAGES) <= set(BAD_SHAPES)


# the forms of one tangent's rows (its parts `rows`) that the row rule keeps, each read as
# the (n,) form
_ROW_FORMS = {
    "(1, n)": lambda t, rows: tuple(p[None] if i in rows else p for i, p in enumerate(t)),
    "(n,) beside (1, n)": lambda t, rows: tuple(
        p[None] if i == rows[1] else p for i, p in enumerate(t)),
    "(1, n) beside (n,)": lambda t, rows: tuple(
        p[None] if i == rows[0] else p for i, p in enumerate(t)),
    "nested lists": lambda t, rows: tuple(np.asarray(p).tolist() for p in t),
}


@pytest.mark.parametrize("form", _ROW_FORMS)
def test_one_row_rule_for_a_tuple_and_a_pair(form):
    rng = np.random.default_rng(17)
    chart = rand_sn_chart(rng, 3)
    t = rand_sn_tangent(rng, chart)
    pq, t1, t2 = rand_pq_point(rng, 3), smp.rand_pq_tangent(rng, 3), smp.rand_pq_tangent(rng, 3)
    make = _ROW_FORMS[form]
    for got, want in ((oneforms_sn(chart, make(t, (4, 5))), oneforms_sn(chart, t)),
                      (metric_xjn(1.0, 2.0, "pq", pq, make(t1, (2, 3)), make(t2, (2, 3))),
                       metric_xjn(1.0, 2.0, "pq", pq, t1, t2))):
        for g, w in zip(_leaves(got), _leaves(want), strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


# tangents that are not: dx must be symmetric, every component finite
BAD_TANGENTS = {
    "asymmetric dx": (np.array([[0.0, 1.0], [0.0, 0.0]]), _Y) + _ROWS,
    "NaN dx": (NAN, _Y) + _ROWS,
    "inf dq": (_Y, _Y, _ROWS[0], np.array([np.inf, 0.0])),
}
TANGENT_ENTRIES = {
    "metric_xjn": lambda t: metric_xjn(1.0, 1.0, "pq", (_X, _Y) + _ROWS, t, _PQ_TANGENT),
    "metric_extended": lambda t: metric_extended(1.0, 1.0, 1.0, (_X, _Y) + _ROWS + (0.5,),
                                                 _PQ_TANGENT + (1.0,), t + (1.0,)),
}


@pytest.mark.parametrize("entry", TANGENT_ENTRIES)
@pytest.mark.parametrize("case", BAD_TANGENTS)
def test_metrics_refuse_non_tangents(entry, case):
    with pytest.raises(GeometryError):
        TANGENT_ENTRIES[entry](BAD_TANGENTS[case])


# a singular or non-finite Moebius image: ball_act's denominator W Q^dag + P^dag, which
# numpy's LinAlgError (P = Q = 0) or a NaN result (NaN P) reported before
SINGULAR = {
    "ball_act P = Q = 0": lambda: ball_act(((_X + 0j, _X + 0j), np.zeros(2)), (_X, _ROWS[0])),
    "ball_act NaN P": lambda: ball_act(((NAN + 0j, _X + 0j), np.zeros(2)), (_X, _ROWS[0])),
}


@pytest.mark.parametrize("case", SINGULAR)
def test_singular_images_raise_singular_denominator(case):
    with pytest.raises(SingularDenominator):
        SINGULAR[case]()


def _stacked(tangents):
    """S_n tangents as one stack: matrices (k, n, n), rows (k, 1, n), kappas (k,)."""
    parts = tuple(np.array(c) for c in zip(*tangents))
    return parts[:4] + (parts[4][:, None], parts[5][:, None], parts[6])


def test_one_chart_serves_a_stack_of_tangents():
    # numpy's matmul ValueError from the Heisenberg pairing, at one chart and rows (2, 1, 3)
    rng = np.random.default_rng(3)
    chart = rand_sn_chart(rng, 3)
    ts = [rand_sn_tangent(rng, chart) for _ in range(2)]
    stack = _stacked(ts)
    assert stack[4].shape == (2, 1, 3)
    forms = oneforms_sn(chart, stack)
    params = MetricParams(0.5, 1.5, 2.0, 0.7)
    values = metric_group(params, chart, stack, _stacked(ts[::-1]))
    assert values.shape == (2,)
    for i, t in enumerate(ts):
        one = oneforms_sn(chart, t)
        for family in "FGHPQR":
            got, want = getattr(forms, family)[i], getattr(one, family)
            assert np.max(np.abs(np.reshape(got, np.shape(want)) - want)) <= 1e-13
        want = metric_group(params, chart, t, ts[1 - i])
        assert abs(values[i] - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("k", [2, 3])
def test_a_stack_of_charts_refuses_one_tangent(k):
    # numpy's AxisError at k = 3; at k = 2 the stacked pair (t1, t2) had the charts' own
    # stack shape and would have paired t1 with chart 0 and t2 with chart 1
    charts = rand_sn_chart(StackStream(5, 3, 0, k), 3)
    t = rand_sn_tangent(np.random.default_rng(5), sn_chart_identity(3))
    with pytest.raises(BadShape, match="does not broadcast"):
        oneforms_sn(charts, t)
    with pytest.raises(BadShape, match="does not broadcast"):
        metric_group(MetricParams(), charts, t, t)


def test_a_stack_of_points_refuses_one_tangent_pair():
    # the same rule in the Siegel-Jacobi metric: a stack of points takes tangents alike
    x, y, p, q = rand_pq_point(StackStream(6, 2, 0, 2), 2)
    with pytest.raises(BadShape, match="does not broadcast"):
        metric_xjn(1.0, 1.0, "pq", (x, y, p, q), _PQ_TANGENT, _PQ_TANGENT)


def test_maurer_cartan_sn_refuses_stacks():
    # numpy's ValueError "operands could not be broadcast together" on a stack
    stream = StackStream(7, 3, 0, 2)
    charts = rand_sn_chart(stream, 3)
    with pytest.raises(BadShape):
        maurer_cartan(charts, rand_sn_tangent(stream, charts), chart="sn")
    rng = np.random.default_rng(7)
    chart = rand_sn_chart(rng, 3)
    with pytest.raises(BadShape):
        maurer_cartan(chart, _stacked([rand_sn_tangent(rng, chart)] * 2), chart="sn")


# numdiff's functions take tangents but are the test suite's finite-difference route, which
# validates nothing: the one exemption from the rule below
TANGENT_CHECK_EXEMPT = {"numdiff": "the test suite's finite-difference route"}


def _non_finite_tangent_cases():
    """The names of the functions with a case above that feeds a non-finite tangent part,
    from the case ids "<function> NaN d..." or "<function> inf d..."."""
    ids = [name for name, *_ in NAN_CASES + INF_CASES] + list(BAD_SHAPES)
    ids += [f"{entry} {case}" for entry in TANGENT_ENTRIES for case in BAD_TANGENTS]
    return {m.group(1) for m in map(re.compile(r"(\w+) (?:NaN|inf) d").match, ids) if m}


# the functions whose `v` is a vector rather than a point, and the finite-difference route
POINT_CHECK_EXEMPT = {"linalg": "vec and vech calculus", **TANGENT_CHECK_EXEMPT}


def test_every_point_entry_point_has_a_non_point_case():
    # a new public function that takes a point must show that it refuses one outside its
    # space: some case of SIEGEL_ENTRIES or BALL_ENTRIES calls it
    takers = [qual for qual, fn in _public_callables()
              if {"point", "point_pq_kappa", "v", "w"} & set(inspect.signature(fn).parameters)]
    assert len(takers) >= 18
    called = {name for entries in (SIEGEL_ENTRIES, BALL_ENTRIES) for case in entries.values()
              for name in case.__code__.co_names}
    assert [q for q in takers if q.split(".")[0] not in POINT_CHECK_EXEMPT
            and q.split(".")[-1] not in called] == []


def test_every_pairing_entry_point_has_a_case_of_stacks_that_do_not_broadcast():
    # a new public function that takes an element with a point, two elements, or a point
    # with a tangent must show that it refuses stacks that do not broadcast
    def pairs(params):
        return ({"g", "gp"} <= params or {"z1", "z2"} <= params or {"tangent", "t1"} & params
                or bool({"g", "m", "z", "element"} & params and {"point", "v", "chart"} & params))

    takers = [qual for qual, fn in _public_callables()
              if pairs(set(inspect.signature(fn).parameters))]
    assert len(takers) >= 26
    assert [q for q in takers if q.split(".")[0] not in POINT_CHECK_EXEMPT
            and q.split(".")[-1] not in _STACKS_3_AND_2] == []


def _at(tree, i):
    """Sample i of a stacked result or input: arrays indexed, tuples and elements per field."""
    if isinstance(tree, tuple):
        return tuple(_at(leaf, i) for leaf in tree)
    if hasattr(tree, "__dataclass_fields__"):
        return type(tree)(*(_at(getattr(tree, f), i) for f in tree.__dataclass_fields__))
    return tree[i]


def _leaves(tree):
    if isinstance(tree, tuple):
        return [leaf for part in tree for leaf in _leaves(part)]
    if hasattr(tree, "__dataclass_fields__"):
        return _leaves(tuple(getattr(tree, f) for f in tree.__dataclass_fields__))
    return [np.asarray(tree)]


# each action and composition, with the names of its two arguments in _stacks
STACKED_ACTIONS = {
    "mobius_act": (lambda m, v: mobius_act(m, v[0] + 1j * v[1]), "M", "pq"),
    "act_modified_chart": (act_modified_chart, "M", "chart4"),
    "act_xjn": (act_xjn, "g", "vu"),
    "act_pq": (act_pq, "g", "pq"),
    "act_extended": (act_extended, "g", "extended"),
    "ball_act": (ball_act, "ball_element", "ball"),
    "gj_compose": (gj_compose, "g", "g"),
    "h_compose": (h_compose, "h", "h"),
    "fvf xjn_pq": (lambda z, pt: fvf(z, pt, "xjn_pq"), "z", "pq"),
    "fvf xjn_holo": (lambda z, pt: fvf(z, pt, "xjn_holo"), "z", "vu"),
    "fvf extended_xirho": (lambda z, pt: fvf(z, pt, "extended_xirho"), "z", "extended"),
}


@pytest.mark.parametrize("stacked", ["element", "point"])
@pytest.mark.parametrize("name", STACKED_ACTIONS)
def test_a_stack_acts_on_one_and_one_on_a_stack(name, stacked):
    # an element and a point (or two elements) broadcast both ways: a stack of three against
    # one gives the three results of the unstacked calls; act_pq and act_extended returned
    # rows of shape (3, 3, 2), and gj_compose of one element and a stack as well
    act, first, second = STACKED_ACTIONS[name]
    stack = {**_S3, "M": _S3["g"].M}
    one = {key: _at(stack[key], 0) for key in (first, second)}
    pick = stack if stacked == "element" else one, one if stacked == "element" else stack
    out = act(pick[0][first], pick[1][second])
    for i in range(3):
        args = [_at(part[key], i) if part is stack else part[key]
                for part, key in zip(pick, (first, second))]
        for got, want in zip(_leaves(out), _leaves(act(*args)), strict=True):
            got = np.reshape(got[i], want.shape)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _sample(tree, i):
    """Sample i of a stacked input, an S_n chart with its frame, as the stack holds it."""
    if isinstance(tree, SnChart):
        fields = (getattr(tree, f)[i] for f in ("x", "y", "X", "Y", "p", "q", "kappa"))
        return linalg._trusted(SnChart, *fields, tuple(leaf[i] for leaf in tree._frame))
    return _at(tree, i)


_HALF_PQ_TANGENT = tuple(-0.5 * part for part in _S3["pq_tangent"])
# calls on stacks of 3 at n = 2 (one tangent, a pair, a point)
STACKED_CALLS = {
    "metric_xjn": (lambda pt, t1, t2: metric_xjn(1.0, 2.0, "pq", pt, t1, t2),
                   (_S3["pq"], _S3["pq_tangent"], _HALF_PQ_TANGENT)),
    "oneforms_sn": (oneforms_sn, (_S3["chart"], _S3["sn_tangent"])),
    "act_pq": (act_pq, (_S3["g"], _S3["pq"])),
    # the fields' arrays (L^R's is the number 1.0); .T of a stack gave P (2, 2, 3) at k = 3
    "invariant_vf": (lambda g: tuple(v for field in invariant_vf(g).values()
                                     for v in field.values() if np.ndim(v)), (_S3["g"],)),
    # an unstacked identity block, a matrix W applied to stacked rows, an unstacked zero block:
    # each ended in numpy's ValueError on a stack
    "h_embed": (h_embed, (_S3["h"],)),
    "fc_inverse": (fc_inverse, _S3["ball"]),
    "m_point": (m_point, _S3["pq"][:2]),
    # refused with "expected a square matrix, no stack"
    "dsqrtm": (dsqrtm, (_S3["chart4"][1], _S3["sn_tangent"][1])),
}


@pytest.mark.parametrize("name", STACKED_CALLS)
def test_a_stacked_call_is_its_per_sample_loop_bit_for_bit(name):
    call, args = STACKED_CALLS[name]
    out = _leaves(call(*args))
    for i in range(3):
        for got, want in zip(out, _leaves(call(*(_sample(a, i) for a in args))), strict=True):
            assert np.array_equal(np.reshape(got[i], want.shape), want)


def test_every_tangent_entry_point_has_a_non_finite_tangent_case():
    # a new public function that takes a tangent must show that it refuses a non-finite one
    takers = [qual for qual, fn in _public_callables()
              if {"tangent", "t1", "t2"} & set(inspect.signature(fn).parameters)]
    assert len(takers) >= 16
    covered = _non_finite_tangent_cases()
    assert [q for q in takers if q.split(".")[0] not in TANGENT_CHECK_EXEMPT
            and q.split(".")[-1] not in covered] == []
