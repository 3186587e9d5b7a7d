"""Benchmark of the chipfiring package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from ``src/``.
Each run is one fresh, single-threaded interpreter driving one closed loop:
the next item starts when the previous one returns. Items come in rounds of
fixed composition; the loop stops at the first round boundary after
``--seconds`` of item time, and never before MIN_ITEMS items.

The untraced run scales every item latency to a reference host speed (see
calibrate.py): the host's own speed drifts by up to 1.7x, for longer than a
run. ``setup_s`` is the median time of SETUP_REPEATS fresh interpreters
that start and import the package, plus the median of SETUP_REPEATS set-ups
of the workload (graph generation and files), both scaled like the items.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs about
two fifths of the time untraced, then clears the caches, installs the layer
tracer and runs the same rounds again; it prints the per-layer metrics and
the tracing overhead. Every output is checked outside the timed calls; the
last stdout line is one JSON object, and the exit code is 1 when any output
check failed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TRACE_UNTRACED_SHARE = 0.4


def end_to_end(lat: list[float], setup_s: float) -> dict:
    deciles = statistics.quantiles(lat, n=10)
    return {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "item_p90_ms": (deciles[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def import_workloads():
    """The workloads module, or None when the checkout's package is missing."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import chipfiring
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if Path(chipfiring.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: imported {chipfiring.__file__}, not the checkout's src/", file=sys.stderr)
        return None
    return workloads


def median_seconds(task) -> tuple[float, object]:
    """Median wall time of SETUP_REPEATS calls of ``task`` at the reference
    host speed, and the last call's result."""
    times, probes = [], [calibrate.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = task()
        times.append(time.perf_counter() - t0)
        probes.append(calibrate.probe())
    return statistics.median(calibrate.scaled(times, probes)), result


def interpreter_seconds() -> float:
    """Wall time from starting a fresh interpreter until it has imported
    the package and the workloads, at the reference host speed. The
    interpreter times the kernel itself, after the imports: it may run on
    another processor than this one, whose speed can differ. Both ends are
    read from the system-wide monotonic clock."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads; "
        "done = time.clock_gettime(time.CLOCK_MONOTONIC); import calibrate, statistics; calibrate.warm_up(); "
        "print(done, statistics.median(calibrate.probe() for _ in range(3)))"
    )
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, capture_output=True, text=True).stdout
    done, kernel = map(float, out.split())
    return calibrate.scaled([done - start], [kernel, kernel])[0]


def run(args) -> int:
    wl = import_workloads()
    if wl is None:
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    calibrate.warm_up()
    import_s = statistics.median(interpreter_seconds() for _ in range(SETUP_REPEATS))

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        caches = wl.CacheSet()
        prepare_s, streams = median_seconds(lambda: wl.prepare(args.workload, args.seed, workdir, caches))
        setup_s = import_s + prepare_s
        digests = wl.reference_digests(args.workload, args.seed)

        if not args.trace:
            outcome = wl.run_rounds(streams(), digests, seconds=args.seconds, probe=calibrate.probe)
            metrics = end_to_end(outcome.scaled_latencies(), setup_s)
            failed, attempted = len(outcome.failures), outcome.attempted
            passes = [outcome]
            host = (
                f", kernel median {statistics.median(outcome.probes) * 1000:.2f} ms "
                f"(reference {calibrate.REFERENCE_MS} ms), unscaled items_per_s {attempted / sum(outcome.latencies):.4g}"
            )
        else:
            import tracer as tr

            untraced = wl.run_rounds(streams(), digests, seconds=args.seconds * TRACE_UNTRACED_SHARE, min_items=1)
            caches.clear()
            caches.hits = caches.misses = 0
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced = wl.run_rounds(streams(), digests, rounds=untraced.rounds)
            finally:
                tracer.uninstall()
            caches.clear()
            metrics = tracer.metrics(
                sum(traced.latencies), sum(untraced.latencies), caches.hits, caches.hits + caches.misses
            )
            passes = [untraced, traced]
            host = ""
            failed = sum(len(p.failures) for p in passes)
            attempted = sum(p.attempted for p in passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    for p in passes:
        for failure in p.failures[:20]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"rounds {'+'.join(str(p.rounds) for p in passes)}, items {attempted}, "
        f"item time {'+'.join(f'{sum(p.latencies):.2f}' for p in passes)} s, "
        f"python {platform.python_version()}, nproc {os.cpu_count()}{host}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after the other."""
    wl = import_workloads()
    if wl is None:
        return 2
    status = 0
    for workload in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chipfiring benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
