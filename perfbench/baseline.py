"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--repeat]

Runs every workload once per seed, each run in its own interpreter and one
at a time, plus one traced run per workload at TRACE_SEED. It records every per-run
value, and per metric the median and quartiles as
``statistics.quantiles(values, n=4)`` gives them. With ``--repeat`` the
untraced runs go to the ``repeat`` entry instead, a second set of the same
code to compare with the first. Entries it does not write are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "run": next((line[2:] for line in lines if line.startswith("# ")), ""),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}
    return out


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--repeat", action="store_true", help="store a second set under 'repeat'")
    args = parser.parse_args()

    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline.update(
        python=platform.python_version(),
        nproc=os.cpu_count(),
        run_seconds=bench["run_seconds"],
        reference_ms=calibrate.REFERENCE_MS,
    )
    target = baseline.setdefault("repeat", {}) if args.repeat else baseline
    target["seeds"] = args.seeds
    for workload in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            print(workload, seed, runs[-1]["run"], flush=True)
        entry = {"end_to_end": summarize(runs), "runs": runs}
        if not args.repeat:
            entry["why"] = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
            entry["layers"] = run_once(workload, TRACE_SEED, bench["run_seconds"], 1)
        target.setdefault("workloads", {})[workload] = entry
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {workload} to {BASELINE.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
