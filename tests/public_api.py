"""The public API of jacobigeom as one registry, from which the contract tests are generated.

Each public callable of ``linalg``, ``symplectic``, ``heisenberg``, ``jacobi``, ``forms`` and
``metrics`` maps to ``(call, roles, stacks)`` in :data:`REGISTRY`, by its name and, where one
callable has several entries, a variant after a space.  ``call`` takes the values of
``roles`` in order; a role written ``*role`` is a tuple given as that many arguments.
``stacks`` is True where the call takes stacks, and a stacked call is its per-sample loop;
otherwise it is the reason the call takes one value only, where a stack is BadShape.
:func:`inputs` draws every role through the samplers, and :data:`ROLES` says what each is.
Callables that take no array are listed in :data:`NO_ARRAY_ARGS`, with the reason.

No test is collected here, so that other harnesses may import the registry.
"""

import dataclasses
import functools
import importlib
import inspect
import itertools
import pkgutil

import numpy as np

import jacobigeom
from jacobigeom import forms, heisenberg, jacobi, linalg, metrics, symplectic
from jacobigeom import sampling as smp
from jacobigeom.sampling import StackStream

# the modules whose public callables the registry covers; cli, numdiff and sampling are the
# command line, the test suite's finite-difference route and the draws, and exceptions only
# classes that are raised
MODULES = ("linalg", "symplectic", "heisenberg", "jacobi", "forms", "metrics")


def public_callables():
    """(module.name[.method], callable) over the public API of every module of the package:
    functions, methods, and the constructor of each class that runs code of its own (a
    ``__post_init__``, or an ``__init__`` no dataclass wrote), as the class."""
    for info in pkgutil.iter_modules(jacobigeom.__path__):
        mod = importlib.import_module(f"jacobigeom.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                if "__post_init__" in vars(obj) or "__init__" in vars(obj) and not (
                        dataclasses.is_dataclass(obj)):
                    yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if not attr.startswith("_") and callable(member):
                        yield f"{info.name}.{name}.{attr}", member
            elif callable(obj):
                yield f"{info.name}.{name}", obj


def at(tree, i):
    """Sample i of a stacked input or result: arrays indexed, a part without a stack axis (a
    number, a label, a degree) as it is, tuples, lists and dicts part by part, and a dataclass
    through its constructor, which reads the sample as a caller's one value, with the stack's
    own fields kept that are no constructor argument (the frame of an S_n chart or of
    pre-Iwasawa factors: one made anew by ``eigh`` differs in the last bits)."""
    if isinstance(tree, (tuple, list)):
        return type(tree)(at(part, i) for part in tree)
    if isinstance(tree, dict):
        return {key: at(part, i) for key, part in tree.items()}
    if dataclasses.is_dataclass(tree):
        fields = dataclasses.fields(tree)
        one = type(tree)(*(at(getattr(tree, f.name), i) for f in fields if f.init))
        return linalg._fill(one, *(getattr(one, f.name) if f.init else at(getattr(tree, f.name), i)
                                   for f in fields))
    return tree if np.ndim(tree) == 0 else np.asarray(tree)[i]


def leaves(tree):
    """The leaves of a result or input, as they are, in order: tuple, list and dict parts, and
    every field of a dataclass, an S_n chart's frame included."""
    if isinstance(tree, (tuple, list)):
        return [leaf for part in tree for leaf in leaves(part)]
    if isinstance(tree, dict):
        return leaves(list(tree.values()))
    if dataclasses.is_dataclass(tree):
        return leaves([getattr(tree, f.name) for f in dataclasses.fields(tree)])
    return [tree]


# Each role's parts, a letter each: m a real matrix, c a complex one, s a real matrix of a
# tangent that must be symmetric (dx, dy), r a real row, z a complex row, k a scalar; o, which
# takes no fault, an object the library built (an element, a chart, factors, one-forms), a
# vector or a degree.  A role of one letter is one value, else a tuple.
ROLES = {
    "n": "o", "sym": "m", "dsym": "m", "spd": "m", "spd2": "m", "sq": "m", "vech": "o",
    "vecn": "o", "M": "m", "Mblocks": "mmmm", "gmat": "m", "spz": "m", "zmat": "m", "U": "c",
    "XY": "mm", "v": "c", "w": "c", "xy": "mm", "chart4": "mmmm", "sn_parts": "mmmmrrk",
    "s_parts": "mmm", "h_parts": "rrk", "g_parts": "mrrk", "z_parts": "mmmrrk",
    "pq": "mmrr", "extended": "mmrrk", "vu": "cz", "ball": "cz",
    "pq_tangent": "ssrr", "pq_tangent2": "ssrr", "extended_tangent": "ssrrk",
    "extended_tangent2": "ssrrk", "sn_tangent": "ssmmrrk", "sn_tangent2": "ssmmrrk",
    "matrix_tangent": "mmmmrrk", "h_tangent": "rrk", "vu_tangent": "cz", "vu_tangent2": "cz",
    "ball_tangent": "cz", "ball_tangent2": "cz", "n1_point": "kkk", "n1_tangent": "kkkkkk",
    **dict.fromkeys(("g", "gp", "h", "hp", "z", "zp", "s", "chart", "chart1", "factors",
                     "forms", "ball_element"), "o"),
}
# the roles whose leading matrices are a Siegel point (x, y) or v = x + iy, or a ball point W
SIEGEL = ("v", "xy", "chart4", "sn_parts", "pq", "extended", "vu")
BALL = ("w", "ball")
# the roles that act: an element, a symplectic matrix or the ball's ((P, Q), alpha)
ELEMENTS = ("M", "g", "h", "z", "ball_element")


def _n1(rng):
    """oneforms_n1's point (x, y, theta), y > 0, and its tangent, from one stream."""
    x, y, theta, *tangent = (smp._uniform(rng) for _ in range(9))
    return (x, np.exp(y), theta), tuple(tangent)


def inputs(draw, n):
    """Every role's value at degree n, each drawn by ``draw(sampler, *args)`` from a stream
    of its own (one sample's window holds one sampler's words, not all of them)."""
    g, gp, z, zp, chart, pq = (draw(sampler, n) for sampler in (
        smp.rand_jacobi, smp.rand_jacobi, smp.rand_gj_algebra, smp.rand_gj_algebra,
        smp.rand_sn_chart, smp.rand_pq_point))
    h, hp, dh, rows = (draw(smp.rand_heisenberg, n) for _ in range(4))
    s, ds = draw(smp.rand_sp_algebra, n), draw(smp.rand_sp_algebra, n)
    sym, sq = draw(smp.rand_sym, n), draw(smp.rand_matrix, n)
    vu, ball = draw(smp.rand_vu_point, n), draw(smp.rand_ball_point, n)
    kappa, dkappa, dkappa2 = (draw(smp._uniform) for _ in range(3))
    n1_point, n1_tangent = draw(_n1)
    chart4 = (chart.x, chart.y, chart.X, chart.Y)
    sn_tangent = draw(smp.rand_sn_tangent, chart)
    return {
        "n": n, "sym": sym, "dsym": draw(smp.rand_sym, n), "spd": draw(smp.rand_spd, n),
        "spd2": draw(smp.rand_spd, n), "sq": sq, "vech": linalg.vech(sym),
        "vecn": sq.reshape(sq.shape[:-2] + (n * n,)),
        "M": g.M, "Mblocks": symplectic.blocks(g.M), "gmat": jacobi.gj_embed(g),
        "g": g, "gp": gp, "g_parts": (g.M, g.lam, g.mu, g.kappa),
        "h": h, "hp": hp, "h_parts": (h.lam, h.mu, h.kappa),
        "h_tangent": (dh.lam, dh.mu, dh.kappa),
        "z": z, "zp": zp, "z_parts": (z.a, z.b, z.c, z.p, z.q, z.r), "zmat": z.to_matrix(),
        "s": s, "s_parts": (s.a, s.b, s.c), "spz": s.to_matrix(),
        "chart": chart, "chart1": draw(smp.rand_sn_chart, 1), "chart4": chart4,
        "sn_parts": (*chart4, chart.p, chart.q, chart.kappa),
        "XY": chart4[2:], "U": chart.X + 1j * chart.Y,
        "factors": symplectic.modified_pre_iwasawa(g.M),
        "pq": pq, "xy": pq[:2], "v": vu[0], "vu": vu, "w": ball[0], "ball": ball,
        "extended": (*pq, kappa),
        "pq_tangent": draw(smp.rand_pq_tangent, n), "pq_tangent2": draw(smp.rand_pq_tangent, n),
        "extended_tangent": (*draw(smp.rand_pq_tangent, n), dkappa),
        "extended_tangent2": (*draw(smp.rand_pq_tangent, n), dkappa2),
        "sn_tangent": sn_tangent, "sn_tangent2": draw(smp.rand_sn_tangent, chart),
        # dM = M xi with xi in sp(n): a tangent of the matrix chart
        "matrix_tangent": (*symplectic.blocks(g.M @ ds.to_matrix()), rows.lam, rows.mu,
                           rows.kappa),
        "vu_tangent": draw(smp.rand_vu_tangent, n), "vu_tangent2": draw(smp.rand_vu_tangent, n),
        "ball_tangent": draw(smp.rand_ball_tangent, n),
        "ball_tangent2": draw(smp.rand_ball_tangent, n),
        "ball_element": (metrics.sp_to_ball_rep(g.M), draw(smp.rand_complex_row, n)),
        "n1_point": n1_point, "n1_tangent": n1_tangent,
        "forms": forms.oneforms_sn(chart, sn_tangent),
    }


@functools.cache
def stacks(n, k):
    """:func:`inputs` at degree n as stacks of k, role j from ``StackStream(j, n, 0, k)``:
    sample i of a stack is the draw of window i, whatever k is.  Cached and shared, so every
    array is read-only: a call that writes into an argument fails, and leaks into no other."""
    seeds = itertools.count()
    return _frozen(inputs(
        lambda sampler, *args: sampler(StackStream(next(seeds), n, 0, k), *args), n))


@functools.cache
def sample(n, k, i):
    """Sample i of :func:`stacks` (n, k), each role one value, read-only as the stacks."""
    return _frozen(at(stacks(n, k), i))


def _frozen(tree):
    """``tree`` with each array leaf made read-only."""
    for leaf in leaves(tree):
        if isinstance(leaf, np.ndarray):
            leaf.setflags(write=False)
    return tree


def unstacked(n):
    """:func:`inputs` at degree n, each role one value: the sample of the stacks of one."""
    return sample(n, 1, 0)


def arguments(roles, values):
    """The arguments of a call on ``roles``, from ``values`` (role -> value)."""
    return [a for role in roles
            for a in (values[role[1:]] if role[0] == "*" else (values[role],))]


def _each(module, names, roles, stacks=True):
    """The entries of the callables ``names`` (space-separated) of ``module``, on one roles."""
    return {name: (getattr(module, name), roles, stacks) for name in names.split()}


_KP, _MP = metrics.KahlerParams(2.0, 1.0), metrics.MetricParams(0.5, 1.5, 2.0, 0.7)
_MATRIX_CHART = "the matrix chart's tangents take no stack"
_UNVEC = "one vector as one matrix"

REGISTRY = {
    **_each(linalg, "sym_residual check_symmetric symmetrize vech", ("sym",)),
    **_each(linalg, "check_spd sqrtm_spd", ("spd",)),
    "kron_sum": (linalg.kron_sum, ("spd", "spd2"), "one n m x n m operator of two matrices"),
    "vec": (linalg.vec, ("sq",), "one matrix as one vector"),
    "unvec": (linalg.unvec, ("vecn", "n"), _UNVEC),
    "unvech": (linalg.unvech, ("vech", "n"), _UNVEC),
    "sylvester_solve": (linalg.sylvester_solve, ("spd", "spd2", "sq"),
                        "one dense Kronecker system of general A and B"),
    "dsqrtm": (linalg.dsqrtm, ("spd", "dsym"), True),
    "expm": (linalg.expm, ("sq",), True),
    **_each(symplectic, "blocks symplectic_residual is_symplectic check_symplectic sp_inverse "
            "pre_iwasawa modified_pre_iwasawa", ("M",)),
    "from_blocks": (symplectic.from_blocks, ("*Mblocks",), True),
    "check_block_relations": (symplectic.check_block_relations, ("M",),
                              "one verdict over six block relations of one matrix"),
    "SpAlgebraElement": (symplectic.SpAlgebraElement, ("*s_parts",), True),
    "SpAlgebraElement.to_matrix": (symplectic.SpAlgebraElement.to_matrix, ("s",), True),
    "SpAlgebraElement.from_matrix": (symplectic.SpAlgebraElement.from_matrix, ("spz",),
                                     "the projection of one matrix"),
    **_each(symplectic, "unitary_pair_residual check_unitary_pair pair_to_symplectic "
            "unitary_iso", ("*XY",)),
    "unitary_iso_inverse": (symplectic.unitary_iso_inverse, ("U",), "one unitary matrix"),
    "check_siegel": (symplectic.check_siegel, ("v",), True),
    "mobius_act": (symplectic.mobius_act, ("M", "v"), True),
    "m_point": (symplectic.m_point, ("*xy",), True),
    "PreIwasawaFactors": (lambda *chart: symplectic.PreIwasawaFactors(*chart, "modified"),
                          ("*chart4",), True),
    "pre_iwasawa_compose": (symplectic.pre_iwasawa_compose, ("factors",), True),
    "act_modified_chart": (symplectic.act_modified_chart, ("M", "chart4"), True),
    "HeisenbergElement": (heisenberg.HeisenbergElement, ("*h_parts",), True),
    "h_compose": (heisenberg.h_compose, ("h", "hp"), True),
    **_each(heisenberg, "h_inverse h_embed", ("h",)),
    **_each(heisenberg, "h_oneforms h_metric", ("h", "h_tangent")),
    **{f"h_fvf {gen}": (functools.partial(heisenberg.h_fvf, gen), ("h",),
                        "one generator's field at one element") for gen in (("P", 0), "R")},
    "JacobiElement": (jacobi.JacobiElement, ("*g_parts",), True),
    "gj_compose": (jacobi.gj_compose, ("g", "gp"), True),
    **{f.__name__: (lambda g, f=f: f(g.lam, g.mu, g.M), ("g",), True)
       for f in (jacobi.pq_from_lm, jacobi.lm_from_pq)},
    **_each(jacobi, "gj_inverse gj_embed sn_chart", ("g",)),
    "gj_from_embedding": (jacobi.gj_from_embedding, ("gmat",), "the element of one matrix"),
    "JacobiAlgebraElement": (jacobi.JacobiAlgebraElement, ("*z_parts",), True),
    **{f"JacobiAlgebraElement.{name}": (getattr(jacobi.JacobiAlgebraElement, name), (role,), True)
       for name, role in (("to_matrix", "z"), ("from_matrix", "zmat"), ("coefficients", "z"))},
    "gj_bracket": (jacobi.gj_bracket, ("z", "zp"), True),
    "act_xjn": (jacobi.act_xjn, ("g", "vu"), True),
    "act_pq": (jacobi.act_pq, ("g", "pq"), True),
    "act_extended": (jacobi.act_extended, ("g", "extended"), True),
    "SnChart": (jacobi.SnChart, ("*sn_parts",), True),
    "SnChart.theta": (jacobi.SnChart.theta, ("chart1",), "the angle of one chart of degree 1"),
    "sn_chart_inverse": (jacobi.sn_chart_inverse, ("chart",), True),
    **{f"chart_convert {src} {dst}": (
        lambda point, src=src, dst=dst: jacobi.chart_convert(point, src, dst),
        ("vu" if src == "vu" else "pq",), True)
       for src, dst in (("pq", "pq"), ("pq", "vu"), ("vu", "xirho"), ("xirho", "chipsi"),
                        ("chipsi", "pq"))},
    **_each(forms, "check_matrix_tangent maurer_cartan oneforms_matrix_chart d_sn_chart",
            ("g", "matrix_tangent"), _MATRIX_CHART),
    "maurer_cartan sn": (functools.partial(forms.maurer_cartan, chart="sn"),
                         ("chart", "sn_tangent"), "the S_n route reads one chart and one tangent"),
    **_each(forms, "d_sn_chart_inverse oneforms_sn", ("chart", "sn_tangent")),
    "oneforms_n1": (forms.oneforms_n1, ("*n1_point", "n1_tangent"),
                    "the closed forms of degree 1 read eleven numbers"),
    "OneForms.h_asymmetry": (forms.OneForms.h_asymmetry, ("forms",), True),
    "invariant_vf": (forms.invariant_vf, ("g",), True),
    "duality_pairing": (forms.duality_pairing, ("g",),
                        "a table of the matrix chart's one-forms at one element"),
    **{f"fvf {space}": (lambda z, point, space=space: forms.fvf(z, point, space), ("z", role),
                        True)
       for space, role in (("xjn_holo", "vu"), ("xjn_real_xirho", "pq"), ("xjn_pq", "pq"),
                           ("extended_xirho", "extended"), ("extended_pq", "extended"))},
    "metric_group": (functools.partial(metrics.metric_group, _MP),
                     ("chart", "sn_tangent", "sn_tangent2"), True),
    **{f"metric_xjn {chart}": (functools.partial(metrics.metric_xjn, 1.0, 2.0, chart),
                               ("pq", "pq_tangent", "pq_tangent2"), True)
       for chart in metrics.XJN_CHARTS},
    "lambda_r": (metrics.lambda_r, ("extended", "extended_tangent"), True),
    "metric_extended": (functools.partial(metrics.metric_extended, 1.0, 2.0, 0.5),
                        ("extended", "extended_tangent", "extended_tangent2"), True),
    "check_ball_point": (metrics.check_ball_point, ("w",), True),
    **_each(metrics, "fc_transform fc_inverse cayley_inverse", ("*ball",)),
    "cayley": (metrics.cayley, ("*vu",), True),
    "g_form": (metrics.g_form, ("*vu", "vu_tangent"), True),
    "kahler_ball": (functools.partial(metrics.kahler_ball, _KP),
                    ("*ball", "ball_tangent", "ball_tangent2"), True),
    "kahler_xjn": (functools.partial(metrics.kahler_xjn, _KP),
                   ("*vu", "vu_tangent", "vu_tangent2"), True),
    "sp_to_ball_rep": (metrics.sp_to_ball_rep, ("M",), True),
    "ball_act": (metrics.ball_act, ("ball_element", "ball"), True),
}

# array helpers that take what numpy makes of their arguments, with no reader: stack parity,
# and no fault case
UNREAD = ("sym_residual", "symmetrize", "vec", "unvec", "blocks", "from_blocks",
          "pair_to_symplectic", "pq_from_lm", "lm_from_pq")

_DEGREE = "a degree n"
NO_ARRAY_ARGS = {
    **dict.fromkeys(("duplication_matrix", "elimination_matrix", "j_matrix", "sp_basis",
                     "h_identity", "gj_identity", "sn_chart_identity", "gj_basis_labels",
                     "gj_basis_elements", "gj_basis", "commutator_table"), _DEGREE),
    "MetricParams": "four metric weights, numbers",
    "KahlerParams": "two weights, numbers",
    "invariance_report": "an object's name, a degree and a seed: the engine draws its arrays",
    "replay": "as invariance_report, and a sample's index",
    "InvarianceReport.as_dict": "a report's numbers and names",
}
