"""The short-cut verdict of every symmetry gate, and its boundary.

Each gate that asks for symmetric matrices (a point's x and y, a tangent's or a tangent pair's
dx and dy, an SPD or symmetric matrix, a ball point W, the F and G forms) first tests them by
one ``linalg._symmetric``: one absolute asymmetry over all of them against the bound of the
gate.  The verdict is only sufficient; where it says no, the gate measures ``sym_residual`` and
judges, and only it says why.  So:

* an input the verdict refuses and the gates accept gives, bit for bit, what the gates alone
  give (the calls here with every verdict made to refuse);
* a fault raises the gates' class and literal message, with the stack index of a stack of 3;
* the memory layout of an input (C, Fortran, strided) changes no bit of a result.
"""

import numpy as np
import pytest

from jacobigeom import (
    ContractionViolation,
    JacobiElement,
    KahlerParams,
    MetricParams,
    NotSymplectic,
    NotUnitaryPair,
    PreIwasawaFactors,
    SnChart,
    act_modified_chart,
    act_pq,
    check_symplectic,
    gj_identity,
    kahler_ball,
    kahler_xjn,
    metric_group,
    metric_xjn,
    mobius_act,
    oneforms_sn,
    sn_chart_identity,
    sqrtm_spd,
)
from jacobigeom import forms, linalg, symplectic
from jacobigeom import sampling as smp
from jacobigeom.linalg import check_spd, check_symmetric
from jacobigeom.metrics import check_ball_point
from jacobigeom.symplectic import check_siegel, m_point
import public_api as api

N = 2
X = np.array([[0.3, 0.1], [0.1, -0.2]])
Y = np.array([[2.0, 0.5], [0.5, 1.0]])
P, Q = np.array([0.3, -0.5]), np.array([0.2, 0.1])
DX, DY = np.array([[1.0, 0.4], [0.4, -2.0]]), np.array([[0.5, -0.1], [-0.1, 0.7]])
DP, DQ = np.array([0.1, 0.2]), np.array([-0.3, 0.4])
W = np.array([[0.3, 0.1 + 0.2j], [0.1 + 0.2j, -0.2]])
Z = np.array([0.1 + 0.2j, -0.3j])
KP, MP = KahlerParams(2.0, 1.0), MetricParams(0.5, 1.5, 2.0, 0.7)
_PQ_POINT, _PQ_T = (X, Y, P, Q), (DX, DY, DP, DQ)
_VU_POINT, _VU_T = (X + 1j * Y, P @ (X + 1j * Y) + Q), (DX + 1j * DY, DP + 1j * DQ)
_SN_T = (DX, DY, np.zeros((N, N)), np.zeros((N, N)), DP, DQ, 0.5)


def _asym(m, e):
    """``m`` with ``e`` added below the diagonal at (1, 0)."""
    return m + np.array([[0.0, 0.0], [e, 0.0]])


def _calls(x=X, y=Y, dx=DX, w=W):
    """{name: call} of each kind of check, at the point (x, y, P, Q), the tangent (dx, DY, ...)
    and the ball point w; one symplectic matrix M = m_point(X, Y) acts."""
    v, g, chart = x + 1j * y, gj_identity(N), sn_chart_identity(N)
    u, t2 = P @ (X + 1j * Y) + Q, (DY, DX, DQ, DP)
    sn = (dx, DY, np.zeros((N, N)), np.zeros((N, N)), DP, DQ, 0.5)
    vu_t = (dx + 1j * DY, DP + 1j * DQ)
    return {
        "check_symmetric": lambda: check_symmetric(x),
        "sqrtm_spd": lambda: sqrtm_spd(y),
        "check_siegel": lambda: check_siegel(v),
        "mobius_act": lambda: mobius_act(m_point(X, Y), v),
        "act_pq": lambda: act_pq(g, (x, y, P, Q)),
        "metric_xjn": lambda: metric_xjn(1.0, 2.0, "pq", (x, y, P, Q), (dx, DY, DP, DQ), t2),
        "kahler_xjn": lambda: kahler_xjn(KP, v, u, vu_t, (DY + 0j, DQ + 0j)),
        "PreIwasawaFactors": lambda: PreIwasawaFactors(x, y, np.eye(N), np.zeros((N, N)),
                                                       "modified"),
        "oneforms_sn": lambda: oneforms_sn(chart, sn),
        "metric_group": lambda: metric_group(MP, chart, sn, sn),
        "check_ball_point": lambda: check_ball_point(w),
        "kahler_ball": lambda: kahler_ball(KP, w, Z, (0.5 * DX + 0j, Z), (0.5 * DY + 0j, Z)),
    }


@pytest.fixture
def measured(monkeypatch):
    """The list of the shapes each ``sym_residual`` measures, which only a gate, run where a
    verdict refused, calls."""
    measured, residual = [], linalg.sym_residual

    def measuring(a):
        measured.append(np.shape(a))
        return residual(a)

    for module in (linalg, symplectic, forms):
        monkeypatch.setattr(module, "sym_residual", measuring)
    return measured


def _bits(tree):
    return [(type(a).__name__, np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes())
            for a in api.leaves(tree)]


def _refuse_all(monkeypatch):
    """Every verdict refuses, so each call runs its detailed gates alone."""
    for module in (linalg, symplectic, forms):
        monkeypatch.setattr(module, "_symmetric", lambda a, bound: False)


# each a point, a tangent or a matrix the gates accept and the verdict refuses: an asymmetry
# relative to max(1, ||a||_max) within the bound, but not in absolute terms (x, y at
# ||.||_max = 1e3, 5e-13 relative; dx at 10, 5e-7; the parts of W - W^t, 7e-11 where the
# verdict takes half the bound), and a smallest eigenvalue just above SPD_EIG_RTOL times the
# largest, which both accept
_X3 = _asym(np.array([[1e3, 1e2], [1e2, -2e2]]), 5e-10)
_Y3 = _asym(np.array([[1e3, 2e2], [2e2, 5e2]]), 5e-10)
_DX10 = _asym(np.array([[10.0, 1.0], [1.0, -3.0]]), 5e-6)
_W7 = _asym(W, 7e-11j)
_YEIG = np.diag([1.0, 1.5e-10])
BOUNDARY = {
    **{f"{name} x 5e-13 at 1e3": call for name, call in _calls(x=_X3).items()
       if name not in ("sqrtm_spd", "oneforms_sn", "metric_group", "check_ball_point",
                       "kahler_ball")},
    **{f"{name} y 5e-13 at 1e3": _calls(y=_Y3)[name] for name in ("sqrtm_spd", "act_pq")},
    **{f"{name} dx 5e-7 at 10": _calls(dx=_DX10)[name]
       for name in ("metric_xjn", "oneforms_sn", "metric_group")},
    **{f"{name} W 7e-11": _calls(w=_W7)[name] for name in ("check_ball_point", "kahler_ball")},
    **{f"{name} eigenvalue ratio 1.5e-10": _calls(y=_YEIG)[name]
       for name in ("sqrtm_spd", "check_siegel", "metric_xjn")},
}


@pytest.mark.parametrize("name", BOUNDARY)
def test_a_refused_verdict_gives_the_gates_result(name, monkeypatch, measured):
    got = _bits(BOUNDARY[name]())
    accepted = "eigenvalue" in name
    assert (measured == []) == accepted  # a refused verdict, and only one, lets the gates run
    _refuse_all(monkeypatch)
    assert _bits(BOUNDARY[name]()) == got


def _stack3(a, bad):
    """A stack of 3 of ``a``, its sample 1 ``bad``."""
    return np.stack([a, bad, a])


# each bound just past, a NaN or an inf in each part, and a stack of 3 whose sample 1 is past
# its bound
FAULTS = {
    "check_symmetric x 2e-12": lambda: check_symmetric(_asym(X, 2e-12)),
    "check_symmetric stack": lambda: check_symmetric(_stack3(X, _asym(X, 2e-12))),
    "sqrtm_spd y 4e-12": lambda: sqrtm_spd(_asym(Y, 4e-12)),
    "sqrtm_spd eigenvalue ratio 0.5e-10": lambda: sqrtm_spd(np.diag([1.0, 0.5e-10])),
    "check_spd stack": lambda: check_spd(_stack3(Y, -Y)),
    "check_siegel x 2e-12": lambda: check_siegel(_asym(X, 2e-12) + 1j * Y),
    "check_siegel stack": lambda: check_siegel(_stack3(X + 1j * Y, X + 1j * _asym(Y, 4e-12))),
    "metric_xjn dx 4e-6": lambda: _calls(dx=_asym(DX, 4e-6))["metric_xjn"](),
    "metric_xjn point stack": lambda: metric_xjn(
        1.0, 2.0, "pq", (_stack3(X, _asym(X, 2e-12)), _stack3(Y, Y), _stack3(P, P)[:, None],
                         _stack3(Q, Q)[:, None]), _PQ_T, _PQ_T[::-1]),
    "oneforms_sn dx 4e-6": lambda: _calls(dx=_asym(DX, 4e-6))["oneforms_sn"](),
    "oneforms_sn tangent stack": lambda: oneforms_sn(sn_chart_identity(N), (
        _stack3(DX, _asym(DX, 4e-6)), _stack3(DY, DY), np.zeros((3, N, N)), np.zeros((3, N, N)),
        _stack3(DP, DP)[:, None], _stack3(DQ, DQ)[:, None], np.zeros(3))),
    "check_ball_point W 2e-10": lambda: check_ball_point(_asym(W, 2e-10j)),
    "check_ball_point stack": lambda: check_ball_point(_stack3(W, 3 * W)),
    "PreIwasawaFactors X 2e-10": lambda: PreIwasawaFactors(X, Y, _asym(np.eye(N), 2e-10),
                                                           np.zeros((N, N)), "modified"),
    "check_symplectic 1e-9": lambda: check_symplectic(m_point(X, Y) + 1e-9),
    "check_symplectic stack": lambda: check_symplectic(_stack3(np.eye(4), np.eye(4) + 1e-9)),
}


def _with(parts, j, value):
    return parts[:j] + (value,) + parts[j + 1:]


def _nonfinite(a, bad):
    """``a`` as a float array with ``bad`` as its first entry."""
    a = np.array(a, dtype=np.result_type(a, float))
    a.flat[0] = bad
    return a


for _bad in (np.nan, np.inf):
    for _j in range(4):
        FAULTS[f"metric_xjn point[{_j}] {_bad}"] = lambda j=_j, bad=_bad: metric_xjn(
            1.0, 2.0, "pq", _with(_PQ_POINT, j, _nonfinite(_PQ_POINT[j], bad)), _PQ_T, _PQ_T)
        FAULTS[f"metric_xjn t2[{_j}] {_bad}"] = lambda j=_j, bad=_bad: metric_xjn(
            1.0, 2.0, "pq", _PQ_POINT, _PQ_T, _with(_PQ_T, j, _nonfinite(_PQ_T[j], bad)))
    for _j in range(2):
        FAULTS[f"kahler_xjn point[{_j}] {_bad}"] = lambda j=_j, bad=_bad: kahler_xjn(
            KP, *_with(_VU_POINT, j, _nonfinite(_VU_POINT[j], bad)), _VU_T, _VU_T)
        FAULTS[f"kahler_xjn t1[{_j}] {_bad}"] = lambda j=_j, bad=_bad: kahler_xjn(
            KP, *_VU_POINT, _with(_VU_T, j, _nonfinite(_VU_T[j], bad)), _VU_T)
    for _j in range(7):
        FAULTS[f"oneforms_sn tangent[{_j}] {_bad}"] = lambda j=_j, bad=_bad: oneforms_sn(
            sn_chart_identity(N), _with(_SN_T, j, _nonfinite(_SN_T[j], bad)))
    for _name, _check, _a in (("check_spd", check_spd, Y), ("check_siegel", check_siegel,
                              X + 1j * Y), ("check_ball_point", check_ball_point, W),
                              ("check_symplectic", check_symplectic, np.eye(4))):
        FAULTS[f"{_name} {_bad}"] = lambda c=_check, a=_a, bad=_bad: c(_nonfinite(a, bad))

# the class and literal message of each fault, as the detailed gates alone raise them
MESSAGES = {
    "check_symmetric x 2e-12": ("NotSymmetric", "asymmetry 2.000e-12 exceeds 1.000e-12"),
    "check_symmetric stack": (
        "NotSymmetric", "asymmetry 2.000e-12 exceeds 1.000e-12 at stack index 1"),
    "sqrtm_spd y 4e-12": ("NotSpd", "asymmetry 2.000e-12 exceeds 1.000e-12"),
    "sqrtm_spd eigenvalue ratio 0.5e-10": (
        "NotSpd", "smallest eigenvalue 5.000e-11 is not above 1.000e-10"),
    "check_spd stack": (
        "NotSpd", "smallest eigenvalue -2.207e+00 is not above 0.000e+00 at stack index 1"),
    "check_siegel x 2e-12": ("NotSymmetric", "asymmetry 2.000e-12 exceeds 1.000e-12"),
    "check_siegel stack": ("NotSpd", "asymmetry 2.000e-12 exceeds 1.000e-12 at stack index 1"),
    "metric_xjn dx 4e-6": (
        "NotSymmetric", "asymmetry of dx or dy 2.000e-06 exceeds 1.000e-06 at stack index 0"),
    "metric_xjn point stack": (
        "NotSymmetric", "asymmetry 2.000e-12 exceeds 1.000e-12 at stack index 1"),
    "oneforms_sn dx 4e-6": ("NotSymmetric", "asymmetry of dx or dy 2.000e-06 exceeds 1.000e-06"),
    "oneforms_sn tangent stack": (
        "NotSymmetric", "asymmetry of dx or dy 2.000e-06 exceeds 1.000e-06 at stack index 1"),
    "check_ball_point W 2e-10": (
        "ContractionViolation", "asymmetry of W 2.000e-10 exceeds 1.000e-10"),
    "check_ball_point stack": ("ContractionViolation", "smallest eigenvalue of I - W conj(W) "
                               "-9.671e-01 is not above 1.000e-10 at stack index 1"),
    "PreIwasawaFactors X 2e-10": ("NotUnitaryPair", "pair residual 2.000e-10 exceeds 1.000e-10"),
    "check_symplectic 1e-9": ("NotSymplectic", "symplectic residual 2.676e-09 exceeds 1.000e-10"),
    "check_symplectic stack": (
        "NotSymplectic", "symplectic residual 2.000e-09 exceeds 1.000e-10 at stack index 1"),
    "metric_xjn point[0] nan": ("NotSymmetric", "asymmetry nan exceeds 1.000e-12"),
    "metric_xjn t2[0] nan": (
        "NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06 at stack index 1"),
    "metric_xjn point[1] nan": ("NotSpd", "asymmetry nan exceeds 1.000e-12"),
    "metric_xjn t2[1] nan": (
        "NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06 at stack index 1"),
    "metric_xjn point[2] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "metric_xjn t2[2] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 1"),
    "metric_xjn point[3] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "metric_xjn t2[3] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 1"),
    "kahler_xjn point[0] nan": ("NotSymmetric", "asymmetry nan exceeds 1.000e-12"),
    "kahler_xjn t1[0] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 0"),
    "kahler_xjn point[1] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "kahler_xjn t1[1] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 0"),
    "oneforms_sn tangent[0] nan": ("NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06"),
    "oneforms_sn tangent[1] nan": ("NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06"),
    "oneforms_sn tangent[2] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[3] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[4] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[5] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[6] nan": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "check_spd nan": ("NotSpd", "asymmetry nan exceeds 1.000e-12"),
    "check_siegel nan": ("NotSymmetric", "asymmetry nan exceeds 1.000e-12"),
    "check_ball_point nan": ("ContractionViolation", "asymmetry of W nan exceeds 1.000e-10"),
    "check_symplectic nan": ("NotSymplectic", "symplectic residual nan exceeds 1.000e-10"),
    "metric_xjn point[0] inf": ("NotSymmetric", "asymmetry nan exceeds 1.000e-12"),
    "metric_xjn t2[0] inf": (
        "NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06 at stack index 1"),
    "metric_xjn point[1] inf": ("NotSpd", "asymmetry nan exceeds 1.000e-12"),
    "metric_xjn t2[1] inf": (
        "NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06 at stack index 1"),
    "metric_xjn point[2] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "metric_xjn t2[2] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 1"),
    "metric_xjn point[3] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "metric_xjn t2[3] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 1"),
    "kahler_xjn point[0] inf": ("NotSymmetric", "asymmetry nan exceeds 1.000e-12"),
    "kahler_xjn t1[0] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 0"),
    "kahler_xjn point[1] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "kahler_xjn t1[1] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00 at stack index 0"),
    "oneforms_sn tangent[0] inf": ("NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06"),
    "oneforms_sn tangent[1] inf": ("NotSymmetric", "asymmetry of dx or dy nan exceeds 1.000e-06"),
    "oneforms_sn tangent[2] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[3] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[4] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[5] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "oneforms_sn tangent[6] inf": (
        "BadShape", "count of non-finite entries 1.000e+00 exceeds 0.000e+00"),
    "check_spd inf": ("NotSpd", "asymmetry nan exceeds 1.000e-12"),
    "check_siegel inf": ("NotSymmetric", "asymmetry nan exceeds 1.000e-12"),
    "check_ball_point inf": ("ContractionViolation", "asymmetry of W nan exceeds 1.000e-10"),
    "check_symplectic inf": ("NotSymplectic", "symplectic residual nan exceeds 1.000e-10"),
}


@pytest.mark.parametrize("refused", [False, True], ids=["verdict", "gates alone"])
@pytest.mark.parametrize("name", FAULTS)
def test_a_fault_raises_the_gates_class_and_message(name, refused, monkeypatch):
    if refused:
        _refuse_all(monkeypatch)
    with pytest.raises(Exception) as info:
        FAULTS[name]()
    assert (type(info.value).__name__, str(info.value)) == MESSAGES[name]


# an M whose residual overflows the floats: a NotSymplectic, where the residual's numpy
# overflow warning once escaped (the suite turns that warning into an error)
OVERFLOW = {
    "check_symplectic": lambda m: check_symplectic(m),
    "mobius_act": lambda m: mobius_act(m, 1j * np.eye(m.shape[-1] // 2)),
    "JacobiElement": lambda m: JacobiElement(m, np.zeros(1), np.zeros(1), 0.0),
}


@pytest.mark.parametrize("name", OVERFLOW)
def test_an_overflowing_residual_is_not_symplectic(name):
    with pytest.raises(NotSymplectic, match=r"^symplectic residual inf exceeds 1\.000e-10$"):
        OVERFLOW[name](1e308 * np.eye(2))
    with pytest.raises(NotSymplectic, match=r"inf exceeds 1\.000e-10 at stack index 1$"):
        OVERFLOW[name](_stack3(np.eye(2), 1e308 * np.eye(2)))


def test_an_overflowing_residual_is_a_verdict():
    # the two verdicts on M's residual say no; the measurement itself is inf
    m = 1e308 * np.eye(4)
    assert symplectic.is_symplectic(m) is np.False_
    assert symplectic.check_block_relations(m) is False
    assert symplectic.symplectic_residual(m) == np.inf


# an orthogonal pair or a unitary matrix whose residual overflows: its check's own error, where
# the products' overflow warning once escaped
_HUGE = 1e200 * np.eye(N)
_ZERO = np.zeros((N, N))
OVERFLOWING_PAIRS = {
    "check_unitary_pair": lambda: symplectic.check_unitary_pair(_HUGE, _ZERO),
    "unitary_iso": lambda: symplectic.unitary_iso(_HUGE, _ZERO),
    "unitary_iso_inverse": lambda: symplectic.unitary_iso_inverse(_HUGE + 0j),
    "PreIwasawaFactors": lambda: PreIwasawaFactors(X, Y, _HUGE, _ZERO, "modified"),
    "SnChart": lambda: SnChart(X, Y, _HUGE, _ZERO, P, Q, 0.0),
    "act_modified_chart": lambda: act_modified_chart(np.eye(2 * N), (X, Y, _HUGE, _ZERO)),
}


@pytest.mark.parametrize("name", OVERFLOWING_PAIRS)
def test_an_overflowing_pair_is_not_unitary(name):
    with pytest.raises(NotUnitaryPair, match=r"residual inf exceeds 1\.000e-10$"):
        OVERFLOWING_PAIRS[name]()


_BALL_ENTRIES = [name for name, (_, roles, _) in api.REGISTRY.items()
                 if any(role.lstrip("*") in api.BALL for role in roles)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", _BALL_ENTRIES)
def test_an_overflowing_ball_point_is_a_contraction_violation(name, n):
    # W scaled by 1e200, all of it or sample 1 of a stack of 3: I - W conj(W) overflows, and
    # fails the eigenvalue gate as NaN with no eigh, which at n = 3 did not converge on it
    call, roles, stacks = api.REGISTRY[name]
    role = next(r.lstrip("*") for r in roles if r.lstrip("*") in api.BALL)
    cases = [(api.unstacked(n), ..., "")] + [(api.stacks(n, 3), 1, " at stack index 1")] * (
        stacks is True)
    for values, which, where in cases:
        point = values[role]
        w = np.array(point[0] if role == "ball" else point)
        w[which] *= 1e200
        values = {**values, role: (w, point[1]) if role == "ball" else w}
        with pytest.raises(ContractionViolation, match=(
                rf"^smallest eigenvalue of I - W conj\(W\) nan is not above 1\.000e-10{where}$")):
            call(*api.arguments(roles, values))


def _layouts(a):
    """``a`` C-ordered, Fortran-ordered and as a strided view of a larger array."""
    a = np.asarray(a)
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return np.ascontiguousarray(a), np.asfortranarray(a), wide[..., ::2]


def _laid_out(tree, k):
    if isinstance(tree, tuple):
        return tuple(_laid_out(t, k) for t in tree)
    return _layouts(tree)[k] if isinstance(tree, np.ndarray) and tree.ndim else tree


LAYOUT_CALLS = {
    "sqrtm_spd": (sqrtm_spd, (Y,)),
    "check_siegel": (check_siegel, (X + 1j * Y,)),
    "mobius_act": (mobius_act, (m_point(X, Y), X + 1j * Y)),
    "act_pq": (lambda p: act_pq(gj_identity(N), p), (_PQ_POINT,)),
    "metric_xjn": (lambda p, s, t: metric_xjn(1.0, 2.0, "pq", p, s, t), (_PQ_POINT, _PQ_T,
                                                                        (DY, DX, DQ, DP))),
    "kahler_xjn": (lambda v, u, s, t: kahler_xjn(KP, v, u, s, t), (*_VU_POINT, _VU_T, _VU_T)),
    "oneforms_sn": (lambda t: oneforms_sn(sn_chart_identity(N), t), (_SN_T,)),
    "metric_group": (lambda s, t: metric_group(MP, smp.rand_sn_chart(
        np.random.default_rng(3), N), s, t), (_SN_T, _SN_T)),
    "check_ball_point": (check_ball_point, (W,)),
}


@pytest.mark.parametrize("name", LAYOUT_CALLS)
def test_the_layout_of_an_input_changes_no_bit(name):
    call, args = LAYOUT_CALLS[name]
    c, f, strided = (_bits(call(*_laid_out(args, k))) for k in range(3))
    assert c == f == strided
