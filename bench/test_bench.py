"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_bench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    res = run_bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"]
                                                                 for m in spec}
    for name, m in res["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_planted_wrong_verdict_is_counted(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    monkeypatch.setitem(workloads.VerifySweep.EXPECT_PASS, "metric_xjn_broken", True)
    res = run.measure(workloads.VerifySweep(7, tmp_path), 0.0)
    # the negative control fails at each of n = 1, 2, 4 in every sweep
    assert res["failed"] == 3 * len(res["times"]) > 0
    assert res["messages"][0].startswith("metric_xjn_broken n=1")
