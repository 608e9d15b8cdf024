import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest

from jacobigeom import cli, invariance_report, replay
from jacobigeom.sampling import rand_jacobi, rand_symplectic


def run_cli(args, payload=None):
    """``python -m jacobigeom.cli *args`` with ``payload`` as JSON on stdin, run in process:
    ``returncode`` is ``main``'s return value, or the code of the ``SystemExit`` that
    argparse raises.  The malformed-stdin and scipy-free tests below keep a real process."""
    stdin = io.StringIO(json.dumps(payload) if payload is not None else "")
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    return subprocess.CompletedProcess(args, code or 0, out.getvalue(), err.getvalue())


def j2():
    return np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def test_check_symplectic_true():
    res = run_cli(["check"], {"matrix": j2().tolist()})
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["symplectic"] is True and out["block_relations"] is True
    assert out["residual"] == 0.0


def test_check_perturbed_false():
    m = j2()
    m[0, 1] = 0.25  # asymmetric a-block breaks a^t c = c^t a
    res = run_cli(["check"], {"matrix": m.tolist()})
    assert res.returncode == 1
    assert json.loads(res.stdout)["symplectic"] is False


def test_check_default_tol_is_the_table_bound(monkeypatch, tmp_path, capsys):
    # J with an a-block 1e-9 off symmetric: outside SP_TOL = 1e-10, inside 1e-8; without
    # --tol the verdict follows linalg.SP_TOL, read when the check runs
    from jacobigeom import cli, linalg

    m = j2()
    m[0, 1] = 1e-9
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": m.tolist()}))
    verdicts = []
    for bound in (1e-10, 1e-8):
        monkeypatch.setattr(linalg, "SP_TOL", bound)
        code = cli.main(["check", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        verdicts.append((code, out["symplectic"], out["block_relations"]))
    assert verdicts == [(1, False, False), (0, True, True)]


def test_check_bad_shape_is_usage_error():
    res = run_cli(["check"], {"matrix": np.eye(3).tolist()})
    assert res.returncode == 2
    assert "BadShape" in res.stderr


def test_check_malformed_json():
    res = subprocess.run([sys.executable, "-m", "jacobigeom.cli", "check"],
                         input="{not json", capture_output=True, text=True)
    assert res.returncode == 2


def test_decompose_identity_and_roundtrip(rng):
    res = run_cli(["decompose", "--variant", "plain"], {"matrix": np.eye(4).tolist()})
    out = json.loads(res.stdout)
    assert np.allclose(out["x"], 0) and np.allclose(out["y"], np.eye(2))
    assert np.allclose(out["X"], np.eye(2)) and out["recomposition_residual"] < 1e-12
    # J has documented factors x = 0, y = I, X = 0, Y = I
    res = run_cli(["decompose", "--variant", "plain"], {"matrix": j2().tolist()})
    out = json.loads(res.stdout)
    assert np.allclose(out["X"], 0) and np.allclose(out["Y"], np.eye(2))
    for variant in ("plain", "modified"):
        m = rand_symplectic(rng, 2)
        res = run_cli(["decompose", "--variant", variant], {"matrix": m.tolist()})
        assert res.returncode == 0
        assert json.loads(res.stdout)["recomposition_residual"] < 1e-10


def test_decompose_rejects_non_symplectic():
    res = run_cli(["decompose"], {"matrix": np.diag([2.0, 1.0, 1.0, 1.0]).tolist()})
    assert res.returncode == 1


def encode_complex(arr):
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def test_act_identity_and_heisenberg(rng):
    n = 2
    ident = {"m": np.eye(4).tolist(), "lam": [0.0, 0.0], "mu": [0.0, 0.0], "kappa": 0.0}
    v = (0.2 * np.ones((n, n)) + 1j * np.eye(n))
    u = np.array([0.4 + 0.1j, -0.3 + 0.6j])
    point = {"v": encode_complex(v), "u": encode_complex(u)}
    res = run_cli(["act", "--space", "xjn"], {"element": ident, "point": point})
    assert res.returncode == 0
    out = json.loads(res.stdout)
    got_v = np.asarray(out["v"])[..., 0] + 1j * np.asarray(out["v"])[..., 1]
    assert np.max(np.abs(got_v - v)) < 1e-12
    # pure Heisenberg translation: u -> u + lam v + mu
    lam, mu = np.array([0.5, -1.0]), np.array([0.25, 0.75])
    elem = {"m": np.eye(4).tolist(), "lam": lam.tolist(), "mu": mu.tolist(), "kappa": 0.3}
    res = run_cli(["act", "--space", "xjn"], {"element": elem, "point": point})
    out = json.loads(res.stdout)
    got_u = np.asarray(out["u"])[..., 0] + 1j * np.asarray(out["u"])[..., 1]
    assert np.max(np.abs(got_u - (u + lam @ v + mu))) < 1e-12


def test_act_chaining_matches_product(rng):
    n = 2
    g1, g2 = rand_jacobi(rng, n), rand_jacobi(rng, n)
    from jacobigeom import gj_compose

    def elem(g):
        return {"m": g.M.tolist(), "lam": g.lam.tolist(), "mu": g.mu.tolist(),
                "kappa": g.kappa}

    point = {"x": np.zeros((n, n)).tolist(), "y": np.eye(n).tolist(),
             "p": [0.1, 0.2], "q": [0.3, -0.1], "kappa": 0.05}
    step1 = json.loads(run_cli(["act", "--space", "extended"],
                               {"element": elem(g2), "point": point}).stdout)
    step2 = json.loads(run_cli(["act", "--space", "extended"],
                               {"element": elem(g1), "point": step1}).stdout)
    direct = json.loads(run_cli(["act", "--space", "extended"],
                                {"element": elem(gj_compose(g1, g2)), "point": point}).stdout)
    for key in ("x", "y", "p", "q", "kappa"):
        assert np.max(np.abs(np.asarray(step2[key]) - np.asarray(direct[key]))) < 1e-9


def test_commutators_table():
    res = run_cli(["commutators", "--n", "1"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["dim"] == 6
    assert out["brackets"]["[P1,Q1]"] == {"R": 2.0}
    res = run_cli(["commutators", "--n", "2"])
    out = json.loads(res.stdout)
    assert out["dim"] == 15
    assert "[P1,Q2]" not in out["brackets"]  # vanishing bracket is omitted
    # the exact stdout (1234 characters), as the n = 1 jobs of _JOBS pin theirs
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "a271212da328398f2e091cd13e6c33fd58d5e562131093ed066232e4575c51e6")


def test_commutators_rejects_n_above_bound():
    # the dense table grows like n^6; the bound is checked before any allocation
    res = run_cli(["commutators", "--n", "11"])
    assert res.returncode == 2
    assert res.stdout == ""


def test_invariance_pass_and_determinism():
    args = ["invariance", "--object", "metric_extended", "--n", "1",
            "--samples", "120", "--seed", "42"]
    res1 = run_cli(args)
    res2 = run_cli(args)
    assert res1.returncode == 0
    assert res1.stdout == res2.stdout  # byte-identical given the seed
    assert json.loads(res1.stdout)["pass"] is True


@pytest.mark.parametrize("obj,n", [("kahler_ball", 2), ("metric_xjn_broken", 1)])
def test_invariance_worst_sample_replays_the_printed_max_rel(obj, n):
    # the CLI prints worst_sample; replay on (object, n, seed, worst_sample) gives
    # the printed max_rel bit for bit (JSON floats round-trip exactly)
    res = run_cli(["invariance", "--object", obj, "--n", str(n), "--samples", "30",
                   "--seed", "9"])
    assert res.returncode == (1 if obj == "metric_xjn_broken" else 0)
    out = json.loads(res.stdout)
    *_, orig, pulled, scale = replay(out["object"], out["n"], out["seed"], out["worst_sample"])
    assert abs(pulled - orig) / max(scale, 1e-12) == out["max_rel"]


def test_invariance_takes_seeds_beyond_128_bits():
    seed = 2**200
    res = run_cli(["invariance", "--object", "metric_extended", "--n", "1", "--samples", "8",
                   "--seed", str(seed)])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out == invariance_report("metric_extended", 1, samples=8, seed=seed).as_dict()
    *_, orig, pulled, scale = replay("metric_extended", 1, seed, out["worst_sample"])
    assert abs(pulled - orig) / max(scale, 1e-12) == out["max_rel"]


def test_invariance_negative_control_exit_code():
    res = run_cli(["invariance", "--object", "metric_xjn_broken", "--n", "1",
                   "--samples", "60", "--seed", "1"])
    assert res.returncode == 1
    assert json.loads(res.stdout)["pass"] is False


def test_sqrt_diff_identity():
    da = [[0.4, 0.1], [0.1, -0.2]]
    res = run_cli(["sqrt-diff"], {"a": np.eye(2).tolist(), "da": da})
    out = json.loads(res.stdout)
    assert np.allclose(out["dsqrt"], np.asarray(da) / 2)


def test_metric_command():
    n = 1
    payload = {
        "alpha": 1.0, "gamma": 1.0, "chart": "pq",
        "point": [[[0.0]], [[1.0]], [0.0], [0.0]],
        "t1": [[[1.0]], [[0.0]], [0.0], [0.0]],
        "t2": [[[1.0]], [[0.0]], [0.0], [0.0]],
    }
    res = run_cli(["metric", "--object", "metric_xjn"], payload)
    assert res.returncode == 0
    assert np.isclose(json.loads(res.stdout)["value"], 1.0)


@pytest.mark.parametrize("obj,part,size", [("metric_extended", "t1", 4),
                                            ("metric_xjn", "point", 3)])
def test_metric_wrong_arity_is_usage_error(obj, part, size):
    payload = {
        "alpha": 1.0, "gamma": 1.0, "delta": 1.0, "chart": "pq",
        "point": [[[0.0]], [[1.0]], [0.0], [0.0], 0.0],
        "t1": [[[1.0]], [[0.0]], [0.0], [0.0], 0.0],
        "t2": [[[1.0]], [[0.0]], [0.0], [0.0], 0.0],
    }
    if obj == "metric_xjn":
        for key in ("point", "t1", "t2"):
            payload[key] = payload[key][:4]
    payload[part] = payload[part][:size]
    res = run_cli(["metric", "--object", obj], payload)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "BadShape" in res.stderr


def test_import_path_is_scipy_free():
    code = (
        "import sys, numpy as np\n"
        "import jacobigeom, jacobigeom.cli\n"
        "from jacobigeom import numdiff, sampling\n"
        "rng = np.random.default_rng(0)\n"
        "sampling.rand_jacobi(rng, 2)\n"
        "chart = sampling.rand_sn_chart(rng, 2)\n"
        "numdiff.fd_push_sn(lambda c: c, chart, sampling.rand_sn_tangent(rng, chart))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_oneforms_command():
    n = 1
    payload = {
        "chart": {"x": [[0.0]], "y": [[1.0]], "X": [[1.0]], "Y": [[0.0]],
                  "p": [0.0], "q": [0.0], "kappa": 0.0},
        "tangent": {"dx": [[1.0]], "dy": [[0.0]], "dX": [[0.0]], "dY": [[0.0]],
                    "dp": [0.0], "dq": [0.0], "dkappa": 0.0},
    }
    res = run_cli(["oneforms"], payload)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert np.isclose(out["F"][0][0], 1.0) and out["R"] == 0.0


def _act_job(kappa=0.0, point_kappa=0.0):
    elem = {"m": np.eye(2).tolist(), "lam": [0.5], "mu": [0.0], "kappa": kappa}
    point = {"x": [[0.0]], "y": [[1.0]], "p": [0.0], "q": [0.0], "kappa": point_kappa}
    return {"element": elem, "point": point}


@pytest.mark.parametrize("job", [_act_job(kappa="nan"), _act_job(point_kappa="nan")],
                         ids=["element", "point"])
def test_act_extended_non_finite_kappa_is_usage_error(job):
    res = run_cli(["act", "--space", "extended"], job)
    assert res.returncode == 2
    assert res.stdout == ""


def test_act_xjn_non_finite_u_is_usage_error():
    ident = {"m": np.eye(2).tolist(), "lam": [0.0], "mu": [0.0], "kappa": 0.0}
    point = {"v": encode_complex(1j * np.eye(1)), "u": [[float("inf"), 0.0]]}
    res = run_cli(["act", "--space", "xjn"], {"element": ident, "point": point})
    assert res.returncode == 2
    assert res.stdout == ""


def test_act_xjn_non_symmetric_v_is_domain_error():
    ident = {"m": np.eye(4).tolist(), "lam": [0.0, 0.0], "mu": [0.0, 0.0], "kappa": 0.0}
    v = np.array([[1j, 0.5], [0.0, 1j]])
    point = {"v": encode_complex(v), "u": encode_complex(np.zeros(2))}
    res = run_cli(["act", "--space", "xjn"], {"element": ident, "point": point})
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("extra", [
    ["--fd-step", "0"], ["--fd-step", "nan"], ["--fd-step=-1e-6"],
    ["--tol", "nan"], ["--tol", "-1"],
], ids=["fd-step-0", "fd-step-nan", "fd-step-negative", "tol-nan", "tol-negative"])
@pytest.mark.parametrize("obj", ["metric_xjn_pq", "lambda_R"])
def test_invariance_bad_numeric_option_is_usage_error(obj, extra):
    res = run_cli(["invariance", "--object", obj, "--samples", "3", *extra])
    assert res.returncode == 2
    assert res.stdout == ""
    if extra[0].startswith("--fd-step"):
        # the engine pushes tangents exactly; there is no finite-difference
        # step any more, so argparse refuses the option whatever its value
        assert "unrecognized arguments: --fd-step" in res.stderr


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_bad_tol_is_usage_error(tol):
    res = run_cli(["check", "--tol", tol], {"matrix": [[0, 1], [-1, 0]]})
    assert res.returncode == 2
    assert res.stdout == ""


@pytest.mark.parametrize("sub", [["decompose"], ["act", "--space", "pq"], ["oneforms"],
                                 ["metric"], ["commutators", "--n", "1"], ["sqrt-diff"]],
                         ids=lambda sub: sub[0])
def test_tol_is_only_an_option_of_check_and_invariance(sub):
    res = run_cli([*sub, "--tol", "1e-8"])
    assert res.returncode == 2
    assert "unrecognized arguments: --tol" in res.stderr


@pytest.mark.parametrize("sub", [["commutators", "--n", "1"],
                                 ["invariance", "--object", "lambda_R", "--samples", "3"]],
                         ids=lambda sub: sub[0])
def test_input_is_only_an_option_of_the_subcommands_that_read_a_job(sub):
    res = run_cli([*sub, "--input", "job.json"])
    assert (res.returncode, res.stdout) == (2, "")
    assert "unrecognized arguments: --input" in res.stderr


# one well-formed job per subcommand and variant, n = 1, for the generated faults below,
# with the exact stdout it prints: sorted keys, fixed separators, [re, im] pairs
_ELEMENT = {"m": [[1.0, 0.0], [0.0, 1.0]], "lam": [0.5], "mu": [0.25], "kappa": 0.1}
_PQ = {"x": [[0.0]], "y": [[1.0]], "p": [0.1], "q": [0.2]}
_CHART = {"x": [[0.0]], "y": [[1.0]], "X": [[1.0]], "Y": [[0.0]], "p": [0.1], "q": [0.2],
          "kappa": 0.3}
_TANGENT = {"dx": [[1.0]], "dy": [[0.5]], "dX": [[0.0]], "dY": [[0.2]], "dp": [0.1],
            "dq": [0.3], "dkappa": 0.4}
_XJN, _DXJN = [[[0.0]], [[1.0]], [0.1], [0.2]], [[[1.0]], [[0.5]], [0.1], [0.3]]
_JOBS = {
    "check": (["check"], {"matrix": [[0.0, 1.0], [-1.0, 0.0]]},
              '{"block_relations":true,"n":1,"residual":0.0,"symplectic":true}'),
    "decompose": (["decompose"], {"matrix": [[0.0, 1.0], [-1.0, 0.0]]},
                  '{"X":[[0.0]],"Y":[[1.0]],"recomposition_residual":0.0,"variant":"modified",'
                  '"x":[[0.0]],"y":[[1.0]]}'),
    "act-xjn": (["act", "--space", "xjn"],
                {"element": _ELEMENT, "point": {"v": [[[0.0, 1.0]]], "u": [[0.1, 0.2]]}},
                '{"u":[[0.35,0.7]],"v":[[[0.0,1.0]]]}'),
    "act-pq": (["act", "--space", "pq"], {"element": _ELEMENT, "point": _PQ},
               '{"p":[0.6],"q":[0.45],"x":[[0.0]],"y":[[1.0]]}'),
    "act-extended": (["act", "--space", "extended"],
                     {"element": _ELEMENT, "point": {**_PQ, "kappa": 0.3}},
                     '{"kappa":0.47500000000000003,"p":[0.6],"q":[0.45],"x":[[0.0]],'
                     '"y":[[1.0]]}'),
    "oneforms": (["oneforms"], {"chart": _CHART, "tangent": _TANGENT},
                 '{"F":[[1.2]],"G":[[-0.2]],"H":[[0.25]],"P":[0.1],"Q":[0.3],"R":0.39,'
                 '"h_asymmetry":0.0}'),
    "metric-group": (["metric", "--object", "metric_group"],
                     {"params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0},
                      "chart": _CHART, "t1": _TANGENT, "t2": _TANGENT},
                     '{"object":"metric_group","value":3.2745999999999995}'),
    "metric-xjn": (["metric", "--object", "metric_xjn"],
                   {"alpha": 1.0, "gamma": 1.0, "chart": "pq", "point": _XJN, "t1": _DXJN,
                    "t2": _DXJN},
                   '{"object":"metric_xjn","value":1.35}'),
    "metric-extended": (["metric", "--object", "metric_extended"],
                        {"alpha": 1.0, "gamma": 1.0, "delta": 1.0, "point": [*_XJN, 0.3],
                         "t1": [*_DXJN, 0.4], "t2": [*_DXJN, 0.5]},
                        '{"object":"metric_extended","value":1.5411000000000001}'),
    "sqrt-diff": (["sqrt-diff"], {"a": [[2.0]], "da": [[1.0]]},
                  '{"dsqrt":[[0.35355339059327373]],"sqrt":[[1.4142135623730951]]}'),
}

# each fault: the kind of node it replaces (a number, an array or tuple, an object) and the
# JSON text it puts there
_FAULTS = {
    "NaN": (float, "NaN"),
    "Infinity": (float, "Infinity"),
    "1e400": (float, "1e400"),
    "400-digit-int": (float, "1" * 400),
    "string": (float, '"1"'),
    "object": (float, "{}"),
    "scalar-for-array": (list, "1.0"),
    "list-for-object": (dict, "[1, 2]"),
}
_HOLE = "__fault__"


def _nodes(node, path=()):
    """(path, node) of ``node`` and of every node below it."""
    yield path, node
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _with_fault(payload, path, text):
    """The JSON text of ``payload`` with the node at ``path`` replaced by ``text``."""
    copy = json.loads(json.dumps(payload))
    if not path:
        return text
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _HOLE
    return json.dumps(copy).replace(f'"{_HOLE}"', text)


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


@pytest.fixture
def run_main(parser, tmp_path, capsys, monkeypatch):
    """``cli.main`` in process on a job's JSON text: (exit code, stdout, stderr).  The jobs
    share one parser, as building it takes longer (about 2 ms) than most jobs."""
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    path = tmp_path / "job.json"

    def run(argv, text):
        path.write_text(text)
        code = cli.main([*argv, "--input", str(path)])
        return (code, *capsys.readouterr())
    return run


@pytest.mark.parametrize("job", _JOBS)
def test_each_fault_job_is_well_formed(job, run_main):
    argv, payload, text = _JOBS[job]
    assert run_main(argv, json.dumps(payload)) == (0, text + "\n", "")


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("job", _JOBS)
def test_a_fault_in_any_node_is_a_usage_error(job, fault, run_main):
    # exit 2, nothing on stdout, one line on stderr: no traceback and no other exit code
    argv, payload, _ = _JOBS[job]
    kind, text = _FAULTS[fault]
    wrong = []
    for where, node in _nodes(payload):
        if isinstance(node, kind):
            code, out, err = run_main(argv, _with_fault(payload, where, text))
            if (code, out) != (2, "") or not err.startswith("error:") or err.count("\n") != 1:
                wrong.append((where, code, out, err))
    assert wrong == []


@pytest.mark.parametrize("argv", [["commutators", "--n", "0"],
                                  ["invariance", "--object", "lambda_R", "--n", "0"],
                                  ["invariance", "--object", "lambda_R", "--samples", "0"]],
                         ids=["commutators-n", "invariance-n", "invariance-samples"])
def test_a_count_below_one_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the residual of 1e308 I overflows
def test_a_non_finite_result_is_a_domain_error(run_main):
    code, out, err = run_main(["check"], json.dumps({"matrix": [[1e308, 0.0], [0.0, 1e308]]}))
    assert (code, out) == (1, "") and err.startswith("error:")


def test_deeply_nested_json_is_a_usage_error(run_main):
    # the JSON decoder recurses once per level: 100,000 levels end in a RecursionError
    code, out, err = run_main(["check"], "[" * 100_000 + "]" * 100_000)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad input:") and err.count("\n") == 1


def test_output_is_the_stdout_text_written_to_a_file(run_main, tmp_path):
    argv, payload, text = _JOBS["sqrt-diff"]
    target = tmp_path / "out.json"
    assert run_main([*argv, "--output", str(target)], json.dumps(payload)) == (0, "", "")
    assert target.read_text() == text + "\n"
    # a path that cannot be opened for writing (a directory) is a usage error
    code, out, err = run_main([*argv, "--output", str(tmp_path)], json.dumps(payload))
    assert (code, out) == (2, "") and err.startswith("error: bad input:")
