"""The three benchmark workloads: inputs, the timed operation, its check.

A workload is built from a seed; building it is the set-up, and draws
every input with ``jacobigeom.sampling`` at its defaults.  It exposes

* ``op(i, traced)``: operation ``i``, the unit that is timed;
* ``check(i, out)``: one failure message per failed unit of that
  operation, run outside the timed section;
* ``units_per_op``: checked units per operation (attempted/failed);
* ``items_per_op``: work items per operation (throughput);
* ``round``: operations that make one full pass over the workload; a
  measured phase always ends on a round boundary;
* ``ref_reps``: reference tasks timed after each operation
  (``reference.py``);
* ``detail()``: the numbers only this workload can give.

Library functions are looked up on their module at call time, so the
tracer's wrappers see the top-level calls too.
"""

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jacobigeom import forms, heisenberg, jacobi, linalg, metrics, symplectic
from jacobigeom import sampling as smp
from jacobigeom.exceptions import GeometryError

TRACER = Path(__file__).resolve().parent / "tracer.py"
# per-call and per-report timings are kept for the first DETAIL_OPS ops only,
# so the benchmark's own memory does not grow with the program's speed
DETAIL_OPS = 200


def _rel(got, want):
    """Max-norm difference relative to max(1, |want|); inf on shape or finiteness failure."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return np.inf
    return float(np.max(np.abs(got - want), initial=0.0)
                 / max(1.0, np.max(np.abs(want), initial=0.0)))


def _worst(*pairs):
    return max(_rel(g, w) for g, w in pairs)


# ---------------------------------------------------------------------------
# verify_sweep: the seeded invariance engine, as the acceptance gate runs it


class VerifySweep:
    """One op is a sweep: ``invariance_report`` for every object at n in {1, 2, 4}."""

    DEGREES = (1, 2, 4)
    SAMPLES = 4
    POOL = 1000  # sweeps of report seeds drawn at set-up, then cycled
    EXPECT_PASS = {obj: obj != "metric_xjn_broken" for obj in metrics.INVARIANCE_OBJECTS}
    TOL = {"lambda_R": 1e-9}
    round = 1
    ref_reps = 8

    def __init__(self, seed, workdir):
        self.combos = [(obj, n) for obj in metrics.INVARIANCE_OBJECTS for n in self.DEGREES]
        self.seeds = np.random.default_rng(seed).integers(
            0, 2**31 - 1, size=(self.POOL, len(self.combos)))
        self.units_per_op = len(self.combos)
        self.items_per_op = len(self.combos) * self.SAMPLES
        self.ms_per_sample = {c: [] for c in self.combos}
        self.max_rel = 0.0
        positive = [obj for obj in metrics.INVARIANCE_OBJECTS if self.EXPECT_PASS[obj]]
        self.mean_rel_sum = dict.fromkeys(positive, 0.0)
        self.positive_reports = dict.fromkeys(positive, 0)

    def op(self, i, traced):
        reports = []
        for (obj, n), seed in zip(self.combos, self.seeds[i % self.POOL]):
            t0 = time.perf_counter()
            reports.append(metrics.invariance_report(
                obj, n, samples=self.SAMPLES, seed=int(seed), tol=self.TOL.get(obj, 1e-6)))
            if i < DETAIL_OPS:
                self.ms_per_sample[(obj, n)].append(
                    (time.perf_counter() - t0) * 1e3 / self.SAMPLES)
        return reports

    def check(self, i, reports):
        failures = []
        for rep in reports:
            if rep.passed != self.EXPECT_PASS[rep.object]:
                failures.append(f"{rep.object} n={rep.n} seed={rep.seed}: pass={rep.passed}"
                                f" max_rel={rep.max_rel:.3e} tol={rep.tol:.0e}")
            if self.EXPECT_PASS[rep.object]:
                self.max_rel = max(self.max_rel, rep.max_rel)
                self.mean_rel_sum[rep.object] += rep.mean_rel
                self.positive_reports[rep.object] += 1
        return failures

    def detail(self):
        out = {f"metrics.invariance.{obj}.n{n}.ms_per_sample": statistics.median(v)
               for (obj, n), v in self.ms_per_sample.items() if v}
        out["metrics.invariance.max_rel"] = self.max_rel
        out["verify_mean_rel"] = max((total / self.positive_reports[obj]
                                      for obj, total in self.mean_rel_sum.items()
                                      if self.positive_reports[obj]), default=0.0)
        return out


# ---------------------------------------------------------------------------
# pointwise_n10: the scalar API at the largest degree, one call per function


N10 = 10
GROUP_PARAMS = metrics.MetricParams(1.0, 1.0, 1.0, 1.0)
KAHLER_PARAMS = metrics.KahlerParams(2.0, 1.0)

CALLS = (
    ("linalg.sqrtm_spd", lambda x: linalg.sqrtm_spd(x["a"])),
    ("linalg.dsqrtm", lambda x: linalg.dsqrtm(x["a"], x["da"])),
    ("symplectic.check_symplectic", lambda x: symplectic.check_symplectic(x["m"])),
    ("symplectic.mobius_act", lambda x: symplectic.mobius_act(x["m"], x["v"])),
    ("symplectic.modified_pre_iwasawa", lambda x: symplectic.modified_pre_iwasawa(x["m"])),
    ("symplectic.act_modified_chart",
     lambda x: symplectic.act_modified_chart(x["m"], x["chart4"])),
    ("heisenberg.h_compose", lambda x: heisenberg.h_compose(x["h1"], x["h2"])),
    ("heisenberg.h_oneforms", lambda x: heisenberg.h_oneforms(x["h1"], x["htan"])),
    ("jacobi.gj_compose", lambda x: jacobi.gj_compose(x["g"], x["g2"])),
    ("jacobi.gj_inverse", lambda x: jacobi.gj_inverse(x["g"])),
    ("jacobi.sn_chart", lambda x: jacobi.sn_chart(x["g"])),
    ("jacobi.sn_chart_inverse", lambda x: jacobi.sn_chart_inverse(x["chart"])),
    ("jacobi.act_pq", lambda x: jacobi.act_pq(x["g"], x["pq"])),
    ("jacobi.act_xjn", lambda x: jacobi.act_xjn(x["g"], x["vu"])),
    ("jacobi.chart_convert", lambda x: jacobi.chart_convert(x["vu"], "vu", "pq")),
    ("forms.oneforms_sn", lambda x: forms.oneforms_sn(x["chart"], x["t1"])),
    ("forms.maurer_cartan", lambda x: forms.maurer_cartan(x["chart"], x["t1"], chart="sn")),
    ("metrics.metric_group",
     lambda x: metrics.metric_group(GROUP_PARAMS, x["chart"], x["t1"], x["t2"])),
    ("metrics.metric_xjn",
     lambda x: metrics.metric_xjn(1.0, 1.0, "pq", x["pq"], x["pq_t1"], x["pq_t2"])),
    ("metrics.kahler_xjn",
     lambda x: metrics.kahler_xjn(KAHLER_PARAMS, *x["vu"], x["vu_t1"], x["vu_t2"])),
)


def _draw_n10(rng):
    n = N10
    chart = smp.rand_sn_chart(rng, n)
    x, y, p, q = smp.rand_pq_point(rng, n)
    v = x + 1j * y
    return {
        "a": smp.rand_spd(rng, n), "da": smp.rand_sym(rng, n),
        "m": smp.rand_symplectic(rng, n), "v": smp.rand_siegel(rng, n),
        "h1": smp.rand_heisenberg(rng, n), "h2": smp.rand_heisenberg(rng, n),
        "htan": (smp.rand_matrix(rng, 1, n).ravel(), smp.rand_matrix(rng, 1, n).ravel(),
                 float(rng.uniform(-1.0, 1.0))),
        "g": smp.rand_jacobi(rng, n), "g2": smp.rand_jacobi(rng, n),
        "chart": chart, "chart4": (chart.x, chart.y, chart.X, chart.Y),
        "t1": smp.rand_sn_tangent(rng, chart), "t2": smp.rand_sn_tangent(rng, chart),
        # the same Siegel-Jacobi point in the pq chart and, by u = p v + q, the vu chart
        "pq": (x, y, p, q), "vu": (v, p @ v + q),
        "pq_t1": smp.rand_pq_tangent(rng, n), "pq_t2": smp.rand_pq_tangent(rng, n),
        "vu_t1": smp.rand_vu_tangent(rng, n), "vu_t2": smp.rand_vu_tangent(rng, n),
    }


def _blocks(m):
    n = m.shape[0] // 2
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]


def _mobius_right(x, o):
    # the documented second form (v c^t + d^t)^{-1} (v a^t + b^t) of the Moebius image
    a, b, c, d = _blocks(x["m"])
    v = x["v"]
    return _rel(o["symplectic.mobius_act"], np.linalg.solve(v @ c.T + d.T, v @ a.T + b.T))


def _h_oneforms_embedded(x, o):
    # g^{-1} dg read off the degree-(n+1) symplectic embedding
    n = N10
    dlam, dmu, dk = x["htan"]
    de = heisenberg.h_embed(heisenberg.HeisenbergElement(dlam, dmu, dk)) - np.eye(2 * n + 2)
    z = heisenberg.h_embed(heisenberg.h_inverse(x["h1"])) @ de
    lp, lq, lr = o["heisenberg.h_oneforms"]
    return _worst((lp, z[n, :n]), (lq, z[n, n + 1:2 * n + 1]), (lr, z[n, 2 * n + 1]))


def _gj_inverse_identity(x, o):
    e = jacobi.gj_compose(x["g"], o["jacobi.gj_inverse"])
    return _worst((e.M, np.eye(2 * N10)), (e.lam, 0 * e.lam), (e.mu, 0 * e.mu), (e.kappa, 0.0))


def _sn_chart_round_trip(x, o):
    g, back = x["g"], jacobi.sn_chart_inverse(o["jacobi.sn_chart"])
    return _worst((back.M, g.M), (back.lam, g.lam), (back.mu, g.mu), (back.kappa, g.kappa))


def _sn_chart_inverse_round_trip(x, o):
    c, back = x["chart"], jacobi.sn_chart(o["jacobi.sn_chart_inverse"])
    return _worst(*((getattr(back, f), getattr(c, f)) for f in ("x", "y", "X", "Y", "p", "q")),
                  (back.kappa, c.kappa))


def _pq_and_vu_actions_agree(x, o):
    x1, y1, p1, q1 = o["jacobi.act_pq"]
    v1, u1 = o["jacobi.act_xjn"]
    return _worst((v1, x1 + 1j * y1), (u1, p1 @ v1 + q1))


def _oneforms_two_routes(x, o):
    c, t = x["chart"], x["t1"]
    ref = forms.oneforms_matrix_chart(jacobi.sn_chart_inverse(c), forms.d_sn_chart_inverse(c, t))
    lf = o["forms.oneforms_sn"]
    return _worst(*((getattr(lf, f), getattr(ref, f)) for f in "FGHPQR"))


def _maurer_cartan_is_oneforms(x, o):
    z, lf = o["forms.maurer_cartan"], o["forms.oneforms_sn"]
    return _worst((z.a, lf.H), (z.b, lf.F), (z.c, lf.G), (z.p, lf.P), (z.q, lf.Q), (z.r, lf.R))


def _metric_group_bilinear(x, o):
    # the one-forms are linear in the tangent, so the metric is a sum of inner products
    f1 = forms.oneforms_sn(x["chart"], x["t1"])
    f2 = forms.oneforms_sn(x["chart"], x["t2"])
    want = (np.sum((f1.F + f1.G) * (f2.F + f2.G)) + np.sum(f1.H * f2.H)
            + np.sum((f1.F - f1.G) * (f2.F - f2.G)) + f1.P @ f2.P + f1.Q @ f2.Q + f1.R * f2.R)
    return _rel(o["metrics.metric_group"], want)


def _metric_xjn_xirho(x, o):
    # xi = p x + q, rho = p y: the xirho expression must give the same value
    px, py, p, q = x["pq"]

    def tangent(t):
        dx, dy, dp, dq = t
        return dx, dy, dp @ px + p @ dx + dq, dp @ py + p @ dy

    want = metrics.metric_xjn(1.0, 1.0, "xirho", (px, py, p @ px + q, p @ py),
                              tangent(x["pq_t1"]), tangent(x["pq_t2"]))
    return _rel(o["metrics.metric_xjn"], want)


def _kahler_antisymmetric(x, o):
    want = -metrics.kahler_xjn(KAHLER_PARAMS, *x["vu"], x["vu_t2"], x["vu_t1"])
    return _rel(o["metrics.kahler_xjn"], want)


# each call's output must satisfy an identity: a second route, an inverse or a symmetry
CHECKS = {
    "linalg.sqrtm_spd": lambda x, o: _rel(o["linalg.sqrtm_spd"] @ o["linalg.sqrtm_spd"], x["a"]),
    "linalg.dsqrtm": lambda x, o: _rel(o["linalg.sqrtm_spd"] @ o["linalg.dsqrtm"]
                                       + o["linalg.dsqrtm"] @ o["linalg.sqrtm_spd"], x["da"]),
    "symplectic.check_symplectic": lambda x, o: _rel(o["symplectic.check_symplectic"], x["m"]),
    "symplectic.mobius_act": _mobius_right,
    "symplectic.modified_pre_iwasawa": lambda x, o: _rel(
        symplectic.pre_iwasawa_compose(o["symplectic.modified_pre_iwasawa"]), x["m"]),
    "symplectic.act_modified_chart": lambda x, o: _rel(
        o["symplectic.act_modified_chart"][0] + 1j * o["symplectic.act_modified_chart"][1],
        symplectic.mobius_act(x["m"], x["chart"].x + 1j * x["chart"].y)),
    "heisenberg.h_compose": lambda x, o: _rel(
        heisenberg.h_embed(x["h1"]) @ heisenberg.h_embed(x["h2"]),
        heisenberg.h_embed(o["heisenberg.h_compose"])),
    "heisenberg.h_oneforms": _h_oneforms_embedded,
    "jacobi.gj_compose": lambda x, o: _rel(jacobi.gj_embed(x["g"]) @ jacobi.gj_embed(x["g2"]),
                                           jacobi.gj_embed(o["jacobi.gj_compose"])),
    "jacobi.gj_inverse": _gj_inverse_identity,
    "jacobi.sn_chart": _sn_chart_round_trip,
    "jacobi.sn_chart_inverse": _sn_chart_inverse_round_trip,
    "jacobi.act_pq": _pq_and_vu_actions_agree,
    "jacobi.act_xjn": _pq_and_vu_actions_agree,
    "jacobi.chart_convert": lambda x, o: _worst(*zip(o["jacobi.chart_convert"], x["pq"])),
    "forms.oneforms_sn": _oneforms_two_routes,
    "forms.maurer_cartan": _maurer_cartan_is_oneforms,
    "metrics.metric_group": _metric_group_bilinear,
    "metrics.metric_xjn": _metric_xjn_xirho,
    "metrics.kahler_xjn": _kahler_antisymmetric,
}
CHECK_RTOL = 1e-8


class PointwiseN10:
    """One op is a round: each of the CALLS once, at n = 10, on one input set."""

    POOL = 200  # input sets drawn at set-up, cycled; the library keeps no cache
    round = 1
    ref_reps = 1
    units_per_op = items_per_op = len(CALLS)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.inputs = [_draw_n10(rng) for _ in range(self.POOL)]
        self.call_us = {name: [] for name, _ in CALLS}
        self.residual = dict.fromkeys(CHECKS, 0.0)

    def op(self, i, traced):
        x = self.inputs[i % self.POOL]
        out = {}
        for name, call in CALLS:
            t0 = time.perf_counter()
            out[name] = call(x)
            if i < DETAIL_OPS:
                self.call_us[name].append((time.perf_counter() - t0) * 1e6)
        return out

    def check(self, i, out):
        x = self.inputs[i % self.POOL]
        failures = []
        for name, identity in CHECKS.items():
            try:
                res = identity(x, out)
            except GeometryError as exc:
                res, why = np.inf, f"{type(exc).__name__}: {exc}"
            else:
                why = f"residual {res:.3e} > {CHECK_RTOL:.0e}"
            self.residual[name] = max(self.residual[name], res)
            if not res <= CHECK_RTOL:
                failures.append(f"round {i} {name}: {why}")
        return failures

    def detail(self):
        out = {f"{name}.us": statistics.median(v) for name, v in self.call_us.items() if v}
        out.update({f"{name}.check_residual": r for name, r in self.residual.items()})
        return out


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per job, as a shell user runs the tool


SUBCOMMANDS = ("check", "decompose", "act", "oneforms", "metric",
               "commutators", "invariance", "sqrt-diff")
JOB_TIMEOUT_S = 60


def _chart_json(c):
    return {"x": c.x.tolist(), "y": c.y.tolist(), "X": c.X.tolist(), "Y": c.Y.tolist(),
            "p": c.p.tolist(), "q": c.q.tolist(), "kappa": c.kappa}


def _tangent_json(t):
    return dict(zip(("dx", "dy", "dX", "dY", "dp", "dq", "dkappa"),
                    [np.asarray(c).tolist() for c in t[:6]] + [t[6]]))


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _matches(got, want, rtol=1e-12):
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_matches(got[k], want[k], rtol) for k in want))
    if isinstance(want, (bool, str, np.bool_)) or (isinstance(want, list) and
                                                    want and isinstance(want[0], str)):
        return got == want
    try:
        g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    except (TypeError, ValueError):
        return False
    return g.shape == w.shape and bool(np.all(np.abs(g - w) <= rtol * np.maximum(1.0, np.abs(w))))


@dataclass
class Job:
    sub: str
    returncode: int
    stdout: str
    stderr: str
    spans: Path | None  # the traced child's span dump


class CliCold:
    """One op is a job: one subcommand in a fresh interpreter on a small JSON input."""

    N = 2
    round = len(SUBCOMMANDS)
    ref_reps = 16
    units_per_op = items_per_op = 1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n = self.N
        g = smp.rand_jacobi(rng, n)
        x, y, p, q = smp.rand_pq_point(rng, n)
        c1, c2 = smp.rand_sn_chart(rng, n), smp.rand_sn_chart(rng, n)
        t0, t1, t2 = (smp.rand_sn_tangent(rng, c) for c in (c1, c2, c2))
        self.payloads = {
            "check": {"matrix": smp.rand_symplectic(rng, n).tolist()},
            "decompose": {"matrix": smp.rand_symplectic(rng, n).tolist()},
            "act": {"element": {"m": g.M.tolist(), "lam": g.lam.tolist(), "mu": g.mu.tolist(),
                                "kappa": g.kappa},
                    "point": {"x": x.tolist(), "y": y.tolist(), "p": p.tolist(), "q": q.tolist()}},
            "oneforms": {"chart": _chart_json(c1), "tangent": _tangent_json(t0)},
            "metric": {"params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0},
                       "chart": _chart_json(c2), "t1": _tangent_json(t1),
                       "t2": _tangent_json(t2)},
            "sqrt-diff": {"a": smp.rand_spd(rng, n).tolist(), "da": smp.rand_sym(rng, n).tolist()},
        }
        self.lib_inputs = {"act": (g, (x, y, p, q)), "oneforms": (c1, t0), "metric": (c2, t1, t2)}
        self.invariance_seed = int(rng.integers(0, 2**31 - 1))
        self.args = {
            "check": ["check"], "decompose": ["decompose"], "act": ["act", "--space", "pq"],
            "oneforms": ["oneforms"], "metric": ["metric", "--object", "metric_group"],
            "commutators": ["commutators", "--n", str(n)],
            "invariance": ["invariance", "--object", "metric_group", "--n", "1",
                           "--samples", "3", "--seed", str(self.invariance_seed)],
            "sqrt-diff": ["sqrt-diff"],
        }
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for sub, payload in self.payloads.items():
            path = self.workdir / f"{sub}.json"
            path.write_text(json.dumps(payload))
            self.args[sub] += ["--input", str(path)]
        self.root = Path(__file__).resolve().parent.parent
        self.job_ms = {sub: [] for sub in SUBCOMMANDS}
        self._expected = {}

    def op(self, i, traced):
        sub = SUBCOMMANDS[i % len(SUBCOMMANDS)]
        spans = self.workdir / f"spans-{i}.npz" if traced else None
        cmd = ([sys.executable, str(TRACER), str(spans), "--"] if traced
               else [sys.executable, "-m", "jacobigeom.cli"])
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + self.args[sub], capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, cwd=self.root, timeout=JOB_TIMEOUT_S)
        if not traced:
            self.job_ms[sub].append((time.perf_counter() - t0) * 1e3)
        return Job(sub, proc.returncode, proc.stdout, proc.stderr, spans)

    def expected(self, sub):
        """What the library returns on the job's input, in the CLI's JSON layout."""
        if sub in self._expected:
            return self._expected[sub]
        pl = self.payloads.get(sub)
        if sub == "check":
            m = np.array(pl["matrix"])
            want = {"symplectic": True, "n": self.N,
                    "block_relations": symplectic.check_block_relations(m, 1e-10),
                    "residual": symplectic.symplectic_residual(m)}
        elif sub == "decompose":
            m = np.array(pl["matrix"])
            f = symplectic.modified_pre_iwasawa(m)
            want = {"variant": "modified", "x": f.x, "y": f.y, "X": f.X, "Y": f.Y,
                    "recomposition_residual": np.max(np.abs(symplectic.pre_iwasawa_compose(f) - m))}
        elif sub == "act":
            want = dict(zip("xypq", jacobi.act_pq(*self.lib_inputs["act"])))
        elif sub == "oneforms":
            lf = forms.oneforms_sn(*self.lib_inputs["oneforms"])
            want = {f: getattr(lf, f) for f in "FGHPQR"}
            want["h_asymmetry"] = lf.h_asymmetry()
        elif sub == "metric":
            want = {"object": "metric_group",
                    "value": metrics.metric_group(GROUP_PARAMS, *self.lib_inputs["metric"])}
        elif sub == "commutators":
            labels, table = jacobi.commutator_table(self.N)
            want = {"n": self.N, "dim": len(labels), "labels": labels, "brackets": {
                f"[{li},{lj}]": {labels[k]: table[i, j, k] for k in np.flatnonzero(table[i, j])}
                for i, li in enumerate(labels) for j, lj in enumerate(labels)
                if j > i and table[i, j].any()}}
        elif sub == "invariance":
            want = metrics.invariance_report("metric_group", 1, samples=3,
                                             seed=self.invariance_seed).as_dict()
        else:
            a, da = np.array(pl["a"]), np.array(pl["da"])
            want = {"sqrt": linalg.sqrtm_spd(a), "dsqrt": linalg.dsqrtm(a, da)}
        self._expected[sub] = want
        return want

    def check(self, i, job):
        if job.returncode != 0:
            return [f"job {i} {job.sub}: exit {job.returncode}: {job.stderr.strip()[-300:]}"]
        try:
            got = json.loads(job.stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"job {i} {job.sub}: stdout is not strict JSON: {exc}"]
        if not _matches(got, self.expected(job.sub)):
            return [f"job {i} {job.sub}: output differs from the library call"]
        return []

    def detail(self):
        return {f"cli.{sub}.ms": statistics.median(v) for sub, v in self.job_ms.items() if v}


WORKLOADS = {"verify_sweep": VerifySweep, "pointwise_n10": PointwiseN10, "cli_cold": CliCold}
