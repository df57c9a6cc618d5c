"""Fast self-test of the benchmark at tiny sizes; runs every correctness check.

    python3 -m pytest perfbench -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])
        if v["unit"] in ("s", "ms", "1/s", "MB") and not trace:
            assert v["value"] > 0


def test_same_seed_gives_same_outputs():
    outputs = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "score_batch", "--seed", "3", "--seconds", "0",
                    "--smoke")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        outputs.append([metrics[k]["value"] for k in ("tau_mean", "tau_inference_speed",
                                                       "final_loss")])
    assert outputs[0] == outputs[1]


def test_tau_check_flags_a_wrong_value():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import TARGET_NAMES, check_taus
    rng = np.random.default_rng(0)
    preds, truths = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
    from tart import harness
    taus = harness.tau_table(preds, truths)
    failures = []
    check_taus(preds, truths, taus, "exact", failures)
    assert failures == []
    taus[TARGET_NAMES[0]] += 1e-9
    check_taus(preds, truths, taus, "perturbed", failures)
    assert len(failures) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "train", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
