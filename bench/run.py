"""jacobigeom benchmark: one workload, one process, a closed loop with one caller.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # every workload in turn

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric by name and unit, the run facts and the workload's own
detail.  The full record goes to ``.bench_build/results/``.  See
``bench/README.md``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOAD_NAMES = ("verify_sweep", "pointwise_n10", "cli_cold")
SETUP_REPS = 7
SETUP_REF_REPS = 20  # reference tasks timed before and after each set-up
REF_WINDOW = 2  # an op is scaled by the median reference time of the ops within this many
SETUP_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 180
MAX_SPANS = 400_000  # a traced phase ends early (on a round boundary) past this many spans

# layers whose self time every workload's traced run exercises
TIMED_LAYERS = ("linalg", "symplectic", "jacobi", "forms", "metrics")
# the re-validation calls that dominate the profile
REVALIDATION = ("linalg.check_spd", "linalg.check_symmetric", "linalg.sym_residual",
                "symplectic.check_symplectic", "symplectic.check_unitary_pair")
# primitives called on every workload; median inclusive span time per call
FUNCTIONS = ("linalg.sqrtm_spd", "linalg.dsqrtm", "symplectic.check_symplectic",
             "symplectic.mobius_act", "symplectic.modified_pre_iwasawa", "jacobi.gj_compose",
             "jacobi.sn_chart", "jacobi.sn_chart_inverse", "jacobi.act_pq",
             "forms.oneforms_sn", "metrics.metric_group")
STARTUP = ("interpreter_ms", "numpy_import_ms", "scipy_import_ms", "jacobigeom_import_ms",
           "inputs_ms")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload's inputs, print phase times, exit")
    return ap.parse_args(argv)


def setup_child(args):
    """Set-up as a fresh interpreter pays it: imports, then the workload's inputs.

    Only what the library itself pulls in is imported, so a lighter import
    path shows in ``setup_s``.
    """
    phases = {}
    t = time.perf_counter()
    import jacobigeom.cli  # noqa: F401
    import jacobigeom.sampling  # noqa: F401
    phases["import_ms"] = (time.perf_counter() - t) * 1e3
    import workloads
    t = time.perf_counter()
    workdir = BUILD / f"setup-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phases["inputs_ms"] = (time.perf_counter() - t) * 1e3
    phases["total_ms"] = (time.perf_counter() - T_START) * 1e3
    print(json.dumps(phases))
    return 0


def import_times(stderr, packages=("numpy", "scipy")):
    """Import time (ms) of each package, from the ``-X importtime`` report.

    The report lists an import after the imports nested in it, one line
    each with a cumulative time and an indented name.  An import counts
    toward a package when no enclosing import belongs to one of
    ``packages``, so nothing is counted twice.
    """
    totals = dict.fromkeys(packages, 0.0)
    enclosing = []  # (indent, package) of the imports around the current line
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative_us, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        package = name.strip().split(".")[0]
        if package in totals and not any(p in totals for _, p in enclosing):
            totals[package] += int(cumulative_us) / 1e3
        enclosing.append((indent, package))
    return totals


class SetupSampler:
    """Times one fresh set-up per call; ``measure`` spreads the calls over a phase.

    A shared host goes through slow phases that last seconds, so set-ups
    taken back to back would all land in the same one.  Each set-up is
    bracketed by reference tasks, and its time is scaled to the reference
    host speed like an operation's (see ``reference.py``).
    """

    def __init__(self, args):
        self.cmd = [sys.executable, "-X", "importtime", str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        self.walls, self.phases = [], []

    def __call__(self):
        import reference
        ref = reference.time_reference(SETUP_REF_REPS)
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                              stdin=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        ref = (ref + reference.time_reference(SETUP_REF_REPS)) / 2
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        ph = json.loads(proc.stdout.splitlines()[-1])
        ph["interpreter_ms"] = wall * 1e3 - ph.pop("total_ms")
        shares = import_times(proc.stderr)
        ph["numpy_import_ms"], ph["scipy_import_ms"] = shares["numpy"], shares["scipy"]
        ph["jacobigeom_import_ms"] = ph.pop("import_ms") - shares["numpy"] - shares["scipy"]
        scale = reference.REF_MS / 1e3 / ref
        self.walls.append(wall * scale)
        self.phases.append({k: v * scale for k, v in ph.items()})

    def medians(self):
        """Median set-up time (s) and the median of each phase (ms), at reference speed."""
        return (statistics.median(self.walls),
                {k: statistics.median(p[k] for p in self.phases) for k in STARTUP})


def measure(wl, seconds, rec=None, first=0, between=()):
    """Run operations for ``seconds`` of measured time, ending on a round boundary.

    After each operation, ``wl.ref_reps`` reference tasks are timed; their
    median goes to ``refs``, and their time counts toward ``seconds``.
    With a recorder, each operation is traced and tagged with its index,
    and the phase also ends once MAX_SPANS spans are held.  The callables
    in ``between`` run between operations, spread evenly over the phase;
    their time is not measured.  A failed operation is counted and never
    retried or re-drawn.
    """
    import reference
    times, refs, messages = array.array("d"), array.array("d"), []
    attempted = failed = items = 0
    start, paused, pending = time.perf_counter(), 0.0, list(between)
    i = first
    while True:
        if pending and (time.perf_counter() - start - paused
                        >= seconds * (len(between) - len(pending)) / len(between)):
            t0 = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - t0
            continue
        if rec is not None:
            rec.current_op, rec.enabled = i, True
        t0 = time.perf_counter()
        try:
            out = wl.op(i, rec is not None)
        except Exception as exc:  # the library or a job broke: the whole op fails
            out, errors = None, [f"op {i}: {type(exc).__name__}: {exc}"] * wl.units_per_op
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.enabled = False
            spans = getattr(out, "spans", None)
            if spans is not None and spans.exists():
                rec.merge(spans, i)
                spans.unlink()
        refs.append(reference.time_reference(wl.ref_reps))
        if out is not None:
            errors = wl.check(i, out)
        times.append(dt)
        attempted += wl.units_per_op
        failed += len(errors)
        items += wl.items_per_op
        messages.extend(errors[:max(0, 5 - len(messages))])
        i += 1
        done = (time.perf_counter() - start - paused >= seconds
                or (rec is not None and len(rec) >= MAX_SPANS))
        if done and not pending and (i - first) % wl.round == 0:
            break
    return {"times": times, "refs": refs, "attempted": attempted, "failed": failed,
            "items": items, "messages": messages, "next": i,
            "elapsed": time.perf_counter() - start - paused}


def decile(values, k):
    """The k-th decile (k = 1 is p10) of ``values``."""
    return statistics.quantiles(values, n=10)[k - 1] if len(values) > 1 else values[0]


def normalized_ms(phase):
    """Each op's time (ms) at the reference host speed.

    The op's time is divided by the median reference time of the ops
    within REF_WINDOW of it, and multiplied by ``reference.REF_MS``.
    """
    import reference
    times, refs = phase["times"], phase["refs"]
    out = []
    for i, t in enumerate(times):
        ref = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        out.append(t * reference.REF_MS / ref)
    return out


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_facts():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, stdin=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "env": {k: os.environ.get(k) for k in PINNED_ENV}, "commit": commit,
        "src_lines": src_lines, "machine": platform.machine(),
    }


def run_workload(args):
    setup = SetupSampler(args)
    import tracer
    import workloads

    workdir = BUILD / f"run-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            base = measure(wl, args.seconds / 2, between=[setup] * SETUP_REPS)
            rec = tracer.Recorder()
            tracer.install(rec)
            run = measure(wl, args.seconds / 2, rec, first=base["next"])
            # a traced half cut short by MAX_SPANS: run on, untraced and only
            # checked, so the run still lasts --seconds
            rest = args.seconds - base["elapsed"] - run["elapsed"]
            tail = measure(wl, rest, first=run["next"]) if rest > 0 else None
            summary = tracer.summarize(rec, len(run["times"]), FUNCTIONS + REVALIDATION)
            (BUILD / "trace").mkdir(parents=True, exist_ok=True)
            rec.dump(BUILD / "trace" / f"{args.workload}.npz")
        else:
            run = measure(wl, args.seconds, between=[setup] * SETUP_REPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s, startup = setup.medians()

    op_ms = [t * 1e3 for t in run["times"]]
    if args.trace:
        phases = [base, run] + ([tail] if tail else [])
        attempted = sum(p["attempted"] for p in phases)
        failed = sum(p["failed"] for p in phases)
        messages = [m for p in phases for m in p["messages"]][:5]
        layers, fns = summary["layers"], summary["functions"]
        metrics = {f"startup.{k}": (startup[k], "ms") for k in STARTUP}
        metrics.update({f"{m}.calls_per_op": (layers[m]["calls_per_op"], "count")
                        for m in tracer.LAYERS})
        metrics.update({f"{m}.self_ms_per_op": (layers[m]["self_ms_per_op"], "ms")
                        for m in TIMED_LAYERS})
        metrics.update({f"{f}.calls_per_op": (fns[f]["calls_per_op"], "count")
                        for f in REVALIDATION})
        metrics.update({f"{f}.us": (fns[f]["us_median"], "us") for f in FUNCTIONS})
        overhead = (statistics.median(normalized_ms(run))
                    / statistics.median(normalized_ms(base)) - 1)
        metrics["trace_overhead_frac"] = (overhead, "frac")
        detail = {"traced_ops": len(op_ms), "spans": summary["spans"],
                  "self_ms_per_op": {m: v["self_ms_per_op"] for m, v in layers.items()}}
    else:
        attempted, failed, messages = run["attempted"], run["failed"], run["messages"]
        # the host's speed drifts by up to 1.6x, so the gated latency is taken
        # at the reference speed; the raw percentiles are printed beside it
        norm = normalized_ms(run)
        metrics = {"setup_s": (setup_s, "s"), "op_ms_p50_norm": (decile(norm, 5), "ms"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        p90 = decile(op_ms, 9)
        detail = {"ops": len(op_ms), "op_ms_p90_norm": decile(norm, 9),
                  "op_ms_p10": decile(op_ms, 1),
                  "op_ms_p50": decile(op_ms, 5), "op_ms_p90": p90,
                  "ops_beyond_p90": sum(t > p90 for t in op_ms),
                  "ref_ms_p50": statistics.median(run["refs"]) * 1e3,
                  "items_per_s": run["items"] / sum(run["times"]), **wl.detail()}
    return attempted, failed, messages, metrics, detail, op_ms


def print_report(args, facts, metrics, detail, attempted, failed, messages):
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# facts {json.dumps(facts, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:42s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'failed_frac':42s} {failed / attempted:14.6g} frac"
          f"  ({failed} of {attempted})")
    for name, value in detail.items():
        if isinstance(value, dict):
            value = json.dumps({k: round(v, 4) for k, v in value.items()})
        print(f"  {name} = {value:.6g}" if isinstance(value, float) else f"  {name} = {value}")
    for msg in messages:
        print(f"  FAILED {msg}")


def run_all(args):
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              stdin=subprocess.DEVNULL, timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jacobigeom" / "__init__.py").is_file():
        print(f"error: no jacobigeom sources under {SRC}", file=sys.stderr)
        return 2
    # the library under test is the checkout's, never an installed copy
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if args.setup_only:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)

    attempted, failed, messages, metrics, detail, op_ms = run_workload(args)
    facts = run_facts()
    print_report(args, facts, metrics, detail, attempted, failed, messages)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, facts=facts, detail=detail, failures=messages,
                  op_ms=op_ms)
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    out = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
