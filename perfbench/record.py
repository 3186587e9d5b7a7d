"""Record the output references the benchmark checks against.

    python3 perfbench/record.py crosscheck|classes|algebra|stabilize

Each output must pass its invariant check before its digest is recorded.

* crosscheck, classes: every graph of the universe, with its time in
  milliseconds. The time only ranks graphs by cost; it is the least of
  PASSES timings, because one timing on a shared host can be twice the true
  cost. Graphs over twice the workload's limit are timed once: they are
  left out whatever their exact time.
* stabilize: every input of each family, with the firings it needs, an
  exact count that ranks the inputs.
* algebra: the session time of every graph of the universe (least of
  PASSES), and the digest of every item of the first ROUNDS rounds of the
  default seed.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402

DEFAULT_SEED = 0
ROUNDS = 12
PASSES = 3


def record_cli(workload: str, workdir: Path) -> dict:
    seeds = list(range(wl.UNIVERSE))
    paths = wl.write_graph_files(workload, seeds, workdir)
    caches = wl.CacheSet()
    graphs = {}
    for p in range(PASSES):
        for s in seeds:
            if p and graphs[str(s)][1] > 2 * wl.MAX_REFERENCE_MS:
                continue
            item = wl.cli_item(workload, s, paths[s], caches)
            item.reset()
            t0 = time.perf_counter()
            out = item.call()
            ms = (time.perf_counter() - t0) * 1000
            problem = item.invariant(out)
            if problem:
                raise SystemExit(f"{workload} graph {s}: {problem}")
            entry = [wl.digest(item.canonical(out)), round(ms, 1)]
            if p:
                entry[1] = min(entry[1], graphs[str(s)][1])
            graphs[str(s)] = entry
    return {"shape": list(wl.CLI_SHAPES[workload]), "graphs": graphs}


def record_stabilize() -> dict:
    grids = {side: wl.grid_sandpile(side) for side in wl.GRID_SIDES}
    families = {}
    for family, _ in wl.STABILIZE_ROUND:
        entries = families[family] = {}
        for ident in wl.stabilize_idents(family):
            item = wl.stabilize_item(family, ident, grids)
            out = item.run()
            problem = item.invariant(out)
            if problem:
                raise SystemExit(f"stabilize {item.key}: {problem}")
            entries[str(ident)] = [wl.digest(item.canonical(out)), sum(out[1])]
    return {"families": families}


def record_algebra() -> dict:
    caches = wl.CacheSet()
    graphs = {str(n): {} for n in wl.ALGEBRA_SIZES}
    for _ in range(PASSES):
        for n in wl.ALGEBRA_SIZES:
            for ident in range(wl.ALGEBRA_UNIVERSE):
                session = wl.algebra_session(n, ident, random.Random(f"rank:{n}:{ident}"), 0, caches)
                t0 = time.perf_counter()
                for item in session:
                    item.run()
                ms = round((time.perf_counter() - t0) * 1000, 1)
                graphs[str(n)][str(ident)] = min(ms, graphs[str(n)].get(str(ident), ms))
    ranked = wl.algebra_ranking({"graphs": graphs})
    stream = wl.algebra_rounds(DEFAULT_SEED, ranked, caches)
    items = {}
    for _ in range(ROUNDS):
        for item in next(stream):
            out = item.run()
            problem = item.invariant(out)
            if problem:
                raise SystemExit(f"algebra {item.key}: {problem}")
            items[item.key] = wl.digest(item.canonical(out))
    return {"graphs": graphs, "seed": DEFAULT_SEED, "items": items}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=wl.WORKLOADS)
    args = parser.parse_args()
    if args.workload in wl.CLI_SHAPES:
        workdir = wl.HERE / ".work" / f"record-{args.workload}"
        try:
            reference = record_cli(args.workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    elif args.workload == "stabilize":
        reference = record_stabilize()
    else:
        reference = record_algebra()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(wl.HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
