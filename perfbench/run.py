"""Benchmark of the tart predictor.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

--workload is one of train, score_batch, score_online, or all (each workload
in its own process, one after another). With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced unit of work, which must reproduce
the untraced unit bit for bit. The metric names and units are those listed in
BENCHMARK.json. The exit code is non-zero if any correctness check fails.
"""
import os

# BLAS is pinned to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "score_batch", "score_online")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_tart():
    """Import tart from this checkout's src/, never from an installed copy."""
    if not (SRC / "tart" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tart'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tart
    if Path(tart.__file__).resolve().parent != (SRC / "tart").resolve():
        sys.exit(f"error: imported tart from {tart.__file__}, not from {SRC}")


def _environment(args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def run_workload(args) -> int:
    _import_tart()
    import workloads
    print("# env: " + json.dumps(_environment(args), sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, sizes)
        setup_times = [workloads.timed(workload.setup)[1]]
        while not args.trace and (len(setup_times) < sizes.setups
                                  or sum(setup_times) < sizes.setup_seconds):
            setup_times.append(workloads.timed(workload.setup)[1])
        if args.trace:
            units, values = workloads.measure_traced(workload)
        else:
            units, values = workloads.measure(workload, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError("measured metrics do not match BENCHMARK.json")
    for message in workload.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.failures,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 1 if workload.failures else 0


def run_all(args) -> int:
    """Each workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        result = json.loads(lines.pop()) if lines and lines[-1].startswith("{") else None
        for line in lines:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or result is None:
            combined["correct"] = False
            print(f"[{name}] exited with code {proc.returncode}", file=sys.stderr)
        if result is None:
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"[{name}] {metric:28s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
