"""The validation policy: one bound table in ``linalg``, one gate, few knobs; and the contract
of every public call, generated from the registry ``public_api``: a finite result or a
``GeometryError``, and a stack is its per-sample loop.

A gate written ``if residual > tol: raise`` lets a NaN residual through,
because every comparison with NaN is false; the one gate ``linalg._gate``
is written ``if not residual <= bound`` instead.  Each NaN case feeds NaN
to one gate.
"""

import inspect
import itertools

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
    act_modified_chart,
    act_pq,
    act_xjn,
    ball_act,
    cayley,
    chart_convert,
    check_symplectic,
    fc_transform,
    fvf,
    g_form,
    gj_basis,
    gj_basis_elements,
    gj_embed,
    gj_from_embedding,
    gj_identity,
    is_symplectic,
    kahler_ball,
    kahler_xjn,
    m_point,
    maurer_cartan,
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
from jacobigeom.forms import check_matrix_tangent, d_sn_chart, d_sn_chart_inverse
from jacobigeom.linalg import check_spd, check_symmetric
from jacobigeom.metrics import check_ball_point
from jacobigeom.sampling import StackStream, rand_pq_point, rand_sn_chart, rand_sn_tangent
from jacobigeom.symplectic import check_block_relations, check_siegel, check_unitary_pair
import public_api as api

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


# Siegel points x + iy that are not, and ball points W that are not, at n = 2: every Siegel
# role of the registry must refuse the first through check_siegel with a GeometryError, not
# return a value or let numpy raise LinAlgError (lambda_r once returned a value at a point of
# none of the spaces), and every ball role the second through the one ball check
NOT_SIEGEL = {
    "asymmetric x": (np.array([[0.3, 0.4], [0.0, -0.2]]), np.eye(2)),
    "Im v = -I": (np.zeros((2, 2)), -np.eye(2)),
    "Im v = 0": (np.zeros((2, 2)), np.zeros((2, 2))),
}
NOT_BALL = {
    "asymmetric W": (np.array([[0.3, 0.4], [0.0, -0.2]]) + 0j,),
    "W = I": (np.eye(2) + 0j,),
    "W = 2 I": (2 * np.eye(2) + 0j,),
    "NaN W": (NAN + 0j,),
}


def _outside(spaces, cases, exc):
    """Each entry with a role in ``spaces``, at n = 2, with that role's leading matrices, (x, y),
    x + iy or (W,), made each of ``cases``."""
    one = api.unstacked(2)
    for name, (call, roles, _) in api.REGISTRY.items():
        for role in (r.lstrip("*") for r in roles if r.lstrip("*") in spaces):
            layout = api.ROLES[role]
            for case, lead in cases.items():
                lead = (lead[0] + 1j * lead[1],) if len(lead) == 2 and layout[0] == "c" else lead
                value = (*lead, *one[role][len(lead):]) if len(layout) > 1 else lead[0]
                yield pytest.param(call, roles, {**one, role: value}, exc,
                                   id=f"{name} {role} {case}")


@pytest.mark.parametrize("call,roles,values,exc", [
    *_outside(api.SIEGEL, NOT_SIEGEL, GeometryError),
    *_outside(api.BALL, NOT_BALL, ContractionViolation)])
def test_a_point_outside_its_space_is_refused(call, roles, values, exc):
    with pytest.raises(exc):
        call(*api.arguments(roles, values))


# the tolerance parameters a caller may still pass; every other bound is read
# from the table in linalg
KEPT_TOLERANCE_KNOBS = {
    "linalg.check_symmetric.rtol",
    "symplectic.is_symplectic.tol",
    "symplectic.check_block_relations.tol",
    "metrics.invariance_report.tol",
}


def test_only_the_kept_tolerance_knobs_remain():
    knobs = {f"{qual}.{param}" for qual, fn in api.public_callables()
             for param in inspect.signature(fn).parameters if "tol" in param}
    assert knobs == KEPT_TOLERANCE_KNOBS


def test_every_public_callable_is_registered_or_listed():
    # a new public function, method or constructor must say how its arguments are drawn, or
    # why it takes no array; the properties below are generated from the registry
    public = [qual.split(".", 1)[1] for qual, _ in api.public_callables()
              if qual.split(".")[0] in api.MODULES]
    registered = {name.split()[0] for name in api.REGISTRY}
    assert not registered & set(api.NO_ARRAY_ARGS)
    assert sorted(public) == sorted(registered | set(api.NO_ARRAY_ARGS))
    assert {"SnChart", "JacobiElement", "PreIwasawaFactors", "MetricParams"} <= set(public)
    assert set(api.UNREAD) <= registered
    assert set(BAD_SHAPE_MESSAGES) <= set(BAD_SHAPES) | set(FAULTS)


_STACKING = [name for name, (_, _, stacks) in api.REGISTRY.items() if stacks is True]


def _same(got, want, i):
    """Leaf by leaf, sample i of the stacked result ``got`` is ``want`` bit for bit: one dtype,
    one shape (a row (n,) is (1, n) in a stack) and ``np.array_equal``; a leaf with no stack
    axis (invariant_vf's constant 1.0) is one that the samples share."""
    got, want = api.leaves(got), api.leaves(want)
    assert len(got) == len(want)
    for g, w in zip(map(np.asarray, got), map(np.asarray, want)):
        g = g[i] if g.ndim else g
        assert g.dtype == w.dtype
        assert g.shape == w.shape or w.ndim == 1 and g.shape == (1, *w.shape)
        assert np.array_equal(g.reshape(w.shape), w)


@pytest.mark.parametrize("name", _STACKING)
def test_a_stack_is_its_per_sample_loop_bit_for_bit(name):
    # at n = 1, 2, 3 the call on stacks of k = 1 and 3 and the calls on each sample, one by
    # one (at k = 1, the unstacked call); invariant_vf took .T of a stack, m_point, h_embed and
    # fc_inverse met numpy's errors, gj_bracket and JacobiAlgebraElement.from_matrix refused a
    # stack, and coefficients let numpy's ValueError out
    call, roles, _ = api.REGISTRY[name]
    for n, k in itertools.product((1, 2, 3), (1, 3)):
        stack = api.stacks(n, k)
        out = call(*api.arguments(roles, stack))
        for i in range(k):
            _same(out, call(*api.arguments(roles, api.sample(n, k, i))), i)


@pytest.mark.parametrize("name", [name for name in api.REGISTRY if name not in _STACKING])
def test_an_unstacked_only_call_refuses_a_stack(name):
    call, roles, _ = api.REGISTRY[name]
    for n in (1, 2, 3):
        call(*api.arguments(roles, api.unstacked(n)))
        with pytest.raises(BadShape):
            call(*api.arguments(roles, api.stacks(n, 3)))


@pytest.mark.parametrize("stacked", ["element", "point"])
@pytest.mark.parametrize("name", [
    name for name in _STACKING if len(api.REGISTRY[name][1]) == 2
    and api.REGISTRY[name][1][0] in api.ELEMENTS and "tangent" not in api.REGISTRY[name][1][1]])
def test_a_stack_acts_on_one_and_one_on_a_stack(name, stacked):
    # an element and a point (or two elements) broadcast both ways: a stack of three against
    # one gives the three results of the unstacked calls; act_pq and act_extended returned
    # rows of shape (3, 3, 2), and gj_compose of one element and a stack as well
    call, roles, _ = api.REGISTRY[name]
    stack, many = api.stacks(2, 3), roles[0 if stacked == "element" else 1]
    values = {role: stack[role] if role == many else api.at(stack[role], 0) for role in roles}
    out = api.leaves(call(*api.arguments(roles, values)))
    for i in range(3):
        one = call(*api.arguments(roles, {**values, many: api.at(stack[many], i)}))
        for got, want in zip(out, map(np.asarray, api.leaves(one)), strict=True):
            got = np.reshape(np.asarray(got)[i], want.shape)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", [name for name, (_, roles, _) in api.REGISTRY.items()
                                  if len([role for role in roles if role != "n"]) > 1])
def test_stacks_of_3_and_2_do_not_broadcast(name):
    # the first argument stacked 3, the others 2: an element and a point, two elements, a point
    # and its tangents.  Most ended in numpy's broadcast ValueError; the fit rule linalg._fit
    # refuses all of them, and a call that takes no stack refuses either
    call, roles, stacks = api.REGISTRY[name]
    first = roles[0].lstrip("*")
    with pytest.raises(BadShape, match="does not broadcast" if stacks is True else None):
        call(*api.arguments(roles, {**api.stacks(2, 2), first: api.stacks(2, 3)[first]}))


# faults of one argument, each of a kind that ended in numpy's TypeError or ValueError, or lost
# a complex part with a ComplexWarning: a whole matrix that is no array of its kind ...
_NOT_ARRAY = {
    "a dict": lambda a: {"a": a},
    "a ragged list": lambda a: [*map(list, a[:-1]), list(a[-1, :-1])],
    "strings": lambda a: np.full(a.shape, "x"),
    "complex": lambda a: a * (1 + 1e-3j),
}
# ... a tuple (a point, a tangent) that is none, or whose parts are no numbers ...
_NOT_TANGENTS = {
    "not a tuple": lambda t: None,
    "a number": lambda t: 3,
    "last part a string": lambda t: t[:-1] + ("x",),
    "first part complex": lambda t: (t[0] + 1j,) + t[1:],
}
# ... and a row (n,) or (1, n) of another length or with a non-finite entry
_NOT_ROWS = {
    "of length n + 1": lambda r: np.zeros(r.shape[-1] + 1, r.dtype),
    "NaN": lambda r: np.where(np.arange(r.shape[-1]) == 0, np.nan, r),
    "inf": lambda r: np.where(np.arange(r.shape[-1]) == 0, np.inf, r),
}


def _argument_faults(letter, a):
    """{fault: value} of one argument of the kind ``letter`` (public_api.ROLES), each BadShape."""
    if letter in "mc":
        return {f: make(a) for f, make in _NOT_ARRAY.items() if letter == "m" or f != "complex"}
    if letter in "rz":
        return {**{f: make(a) for f, make in _NOT_ROWS.items()}, "a string": "ab",
                **({"complex": a + 1j} if letter == "r" else {})}
    return {"NaN": np.nan} if letter == "k" else {}


def _tuple_faults(layout, t):
    """{fault: (value, exception)} of a tuple of parts ``layout``: _NOT_TANGENTS, a first matrix
    of degree n + 1 or no array of its kind, each row's _NOT_ROWS and a NaN first scalar, each
    BadShape, and an asymmetric or a NaN dx of a tangent, NotSymmetric."""
    def put(j, part):
        return t[:j] + (part,) + t[j + 1:]

    faults = {f: make(t) for f, make in _NOT_TANGENTS.items()
              if layout[0] not in "cz" or f != "first part complex"}
    if layout[0] in "mcs":
        faults["first part of degree n + 1"] = put(0, np.eye(len(t[0]) + 1, dtype=t[0].dtype))
        faults.update({f"first part {f}": put(0, _NOT_ARRAY[f](t[0]))
                       for f in ("a dict", "a ragged list", "strings")})
    faults.update({f"[{j}] {f}": put(j, make(t[j])) for j, c in enumerate(layout) if c in "rz"
                   for f, make in _NOT_ROWS.items()})
    if "k" in layout:
        faults[f"[{layout.index('k')}] NaN"] = put(layout.index("k"), np.nan)
    faults = {f: (value, BadShape) for f, value in faults.items()}
    if layout[0] == "s":
        faults["asymmetric dx"] = (put(0, t[0] + np.triu(np.ones_like(t[0]), 1)), NotSymmetric)
        faults["NaN dx"] = (put(0, np.full_like(t[0], np.nan)), NotSymmetric)
    return faults


def _role_faults(role, value):
    """{fault: (value, exception)} of the value of ``role`` as a call reads it: a tuple whole,
    or, ``*role``, each of its parts as an argument."""
    layout = api.ROLES[role.lstrip("*")]
    if role[0] == "*":
        return {f"[{j}] {f}": (value[:j] + (v,) + value[j + 1:], BadShape)
                for j, c in enumerate(layout) for f, v in _argument_faults(c, value[j]).items()}
    if len(layout) > 1:
        return _tuple_faults(layout, value)
    return {f: (v, BadShape) for f, v in _argument_faults(layout, value).items()}


def _faults():
    """{id: (call, roles, values, exception)} of every fault of every role of every entry at
    n = 2 that reads its arguments (not public_api.UNREAD)."""
    one = api.unstacked(2)
    return {f"{name} {role.lstrip('*')} {f}": (call, roles, {**one, role.lstrip("*"): v}, exc)
            for name, (call, roles, _) in api.REGISTRY.items() if name.split()[0] not in api.UNREAD
            for role in roles for f, (v, exc) in _role_faults(role, one[role.lstrip("*")]).items()}


FAULTS = _faults()


@pytest.mark.parametrize("case", FAULTS)
def test_a_faulty_argument_raises_its_error(case):
    call, roles, values, exc = FAULTS[case]
    with pytest.raises(exc, match=BAD_SHAPE_MESSAGES.get(case)):
        call(*api.arguments(roles, values))


# the hand-written wrong shapes at n = 2, each a case no generator makes, that reached numpy
# and ended in its plain ValueError, or returned a value
_X, _Y = np.zeros((2, 2)), np.eye(2)
_Y3 = np.diag([1.0, 2.0, 0.5])  # SPD of degree 3
_ROW3 = np.zeros(3)
_ROWS = (np.array([0.3, -0.5]), np.array([0.2, 0.1]))
_PQ_TANGENT = (np.eye(2), np.eye(2)) + _ROWS
_VU_TANGENT = (np.eye(2) + 1j * np.eye(2), np.array([1.0, 1j]))
_BALL_PQ = (_Y + 0j, _X + 0j)  # (P, Q) of the identity
_NAN_ROW = np.array([np.nan, 0.0])
_KP = KahlerParams(2.0, 1.0)
_Z = gj_basis_elements(2)[0]
_S3, _S2 = api.stacks(2, 3), api.stacks(2, 2)


def _sn_tangent(dp=_ROWS[0]):
    return (_Y, _Y, _X, _X, dp, _ROWS[1], 0.0)


BAD_SHAPES = {
    # the one row rule: (n,) or (1, n) unstacked, (..., 1, n) over a stack, alone or in a pair;
    # a column (n, 1) was read as a row when alone, and a stacked pair took rows (k, n)
    "oneforms_sn dp a column (2, 1)":
        lambda: oneforms_sn(sn_chart_identity(2), _sn_tangent(_ROWS[0][:, None])),
    "metric_xjn dp a column (2, 1)": lambda: metric_xjn(
        1.0, 1.0, "pq", (_X, _Y) + _ROWS, *((_X, _Y, _ROWS[0][:, None], _ROWS[1]),) * 2),
    "metric_xjn stacked tangents with rows (3, 2)": lambda: metric_xjn(
        1.0, 1.0, "pq", _S3["pq"], *((*_S3["pq_tangent"][:2],
                                      *(r[:, 0] for r in _S3["pq_tangent"][2:])),) * 2),
    "metric_xjn t1 and t2 of two row forms": lambda: metric_xjn(
        1.0, 1.0, "pq", (_X, _Y) + _ROWS, _PQ_TANGENT, (_Y, _Y, _ROWS[0][None], _ROWS[1])),
    # a point's rows are read as a tangent's
    "act_pq p a string": lambda: act_pq(gj_identity(2), (_X, _Y, "ab", _ROWS[1])),
    "act_pq p complex": lambda: act_pq(gj_identity(2), (_X, _Y, _ROWS[0] + 1j, _ROWS[1])),
    "act_pq x 2x2, y 3x3": lambda: act_pq(gj_identity(2), (_X, np.eye(3)) + _ROWS),
    "act_pq point of degree 2, element of degree 3":
        lambda: act_pq(gj_identity(3), (_X, _Y) + _ROWS),
    # a complex tangent's dv, which no entry check read for finiteness
    **{f"{name} NaN dv": (lambda call=call: call((NAN + 0j, _VU_TANGENT[1]))) for name, call in (
        ("kahler_xjn", lambda t: kahler_xjn(_KP, _X + 1j * _Y, _ROWS[0], _VU_TANGENT, t)),
        ("kahler_ball", lambda t: kahler_ball(_KP, _X, _ROWS[0], t, _VU_TANGENT)),
        ("g_form", lambda t: g_form(_X + 1j * _Y, _ROWS[0], t)))},
    # the ball action's element (P, Q, alpha)
    "ball_act P 3x3": lambda: ball_act(((np.eye(3) + 0j, _X + 0j), np.zeros(2)), (_X, _ROWS[0])),
    "ball_act Q of shape 2x3":
        lambda: ball_act(((_Y + 0j, np.zeros((2, 3))), np.zeros(2)), (_X, _ROWS[0])),
    "ball_act alpha of length 3": lambda: ball_act((_BALL_PQ, _ROW3), (_X, _ROWS[0])),
    "ball_act NaN alpha": lambda: ball_act((_BALL_PQ, _NAN_ROW), (_X, _ROWS[0])),
    # a ragged lambda, whose degree was read before the reader: numpy's ValueError
    "HeisenbergElement ragged lambda":
        lambda: HeisenbergElement([[0.3, -0.5], [0.2]], _ROWS[1], 0.0),
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
    # the closed degree-1 forms checked y > 0 only: an infinite y or theta gave numpy's
    # RuntimeWarning, a length-2 dx forms of shape (1, 1, 2)
    "oneforms_n1 inf y": lambda: oneforms_n1(0.1, np.inf, 0.3, (0.1,) * 6),
    "oneforms_n1 inf theta": lambda: oneforms_n1(0.1, 1.5, np.inf, (0.1,) * 6),
    "oneforms_n1 dx of length 2": lambda: oneforms_n1(0.1, 1.5, 0.3, (np.ones(2),) + (0.1,) * 5),
    # an algebra element's a: a NaN that to_matrix carried, or a 2 x 3 a that it refused with
    # numpy's error
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
    # the linalg and symplectic boundary
    "check_symmetric 0x0": lambda: check_symmetric(np.zeros((0, 0))),
    "check_spd 0x0": lambda: check_spd(np.zeros((0, 0))),
    "unvech 10 entries for n = 3": lambda: unvech(np.arange(10.0), 3),
    "unvech 2 entries for n = 3": lambda: unvech(np.ones(2), 3),
    "check_unitary_pair X 2x2, Y 3x3": lambda: check_unitary_pair(_Y, np.zeros((3, 3))),
    "unitary_iso_inverse 2x3": lambda: unitary_iso_inverse(np.ones((2, 3))),
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
    # back as a mixed-stack image or object), and no numpy TypeError or ValueError for a
    # point that is no tuple of arrays
    "act_pq point a dict": lambda: act_pq(gj_identity(2), dict(zip("xypq", (_X, _Y) + _ROWS))),
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
    "oneforms_sn sn_tangent not a tuple":
        "^sn tuples have 7 parts, got an object of type NoneType$",
    "oneforms_sn dp a column (2, 1)":
        r"^a sn tuple mmmmrrk at n = 2 takes .* got r \(2, 1\) over \(\)$",
}


@pytest.mark.parametrize("case", BAD_SHAPES)
def test_wrong_shapes_raise_bad_shape(case):
    with pytest.raises(BadShape, match=BAD_SHAPE_MESSAGES.get(case)):
        BAD_SHAPES[case]()


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
        for g, w in zip(api.leaves(got), api.leaves(want), strict=True):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


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


def test_a_singular_image_names_its_stack_index():
    # the image's one finiteness pass fails, and the count of non-finite entries names the
    # first sample whose image is not finite
    p = np.array([_Y, NAN, _Y]) + 0j
    element = ((p, np.zeros_like(p)), np.zeros((3, 1, 2)))
    with pytest.raises(SingularDenominator, match="non-finite entries .* at stack index 1$"):
        ball_act(element, (np.zeros((3, 2, 2)), np.zeros((3, 1, 2))))


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
    # numpy's ValueError "operands could not be broadcast together" on a stack (a stack of
    # charts is the registry's "maurer_cartan sn")
    rng = np.random.default_rng(7)
    chart = rand_sn_chart(rng, 3)
    with pytest.raises(BadShape):
        maurer_cartan(chart, _stacked([rand_sn_tangent(rng, chart)] * 2), chart="sn")
