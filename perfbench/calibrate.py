"""Host-speed calibration of the untraced runs.

On a shared host the processor's speed changes under the benchmark: the
same pure-Python work flips between a fast and a slow state about 1.7x
apart, in spans of a few seconds to two minutes, with CPU time equal to
wall time. One calibration around a whole run cannot follow that, so the
run times a fixed kernel, which does not touch the package, before the
first item and after every item. An item's latency is scaled by
REFERENCE_MS over the host's kernel time around it, which gives the item's
latency on a host that runs the kernel in REFERENCE_MS.
"""

from __future__ import annotations

import json
import statistics
import time

# About the kernel's time in the fast state of a 2-vCPU Intel Xeon VM at
# 2.0 GHz with Python 3.11; scaled times read like that state's.
REFERENCE_MS = 2.5
WINDOW = 1
WARM_UP = 5  # untimed kernel runs, so that the interpreter has specialised it


GRID_SIDE = 8
GRAPH_DOC = {"n": 5, "sink": 6, "arcs": [[i, (3 * i) % 6 + 1, 2] for i in range(1, 6)] * 4}


def sandpile():
    """Stabilize a fixed configuration of the 8x8 grid sandpile with lists."""
    side = GRID_SIDE
    n = side * side
    config = [7 if v % 3 == 0 else 2 for v in range(n)]
    fired = [0] * n
    stack = [v for v in range(n) if config[v] >= 4]
    while stack:
        v = stack.pop()
        if config[v] < 4:
            continue
        k = config[v] // 4
        config[v] -= 4 * k
        fired[v] += k
        r, c = divmod(v, side)
        for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= rr < side and 0 <= cc < side:
                u = rr * side + cc
                config[u] += k
                if config[u] >= 4:
                    stack.append(u)
    return fired


def kernel():
    """The package's kinds of work without the package: list-based chip
    firing, and JSON round trips of a small graph document into tuples."""
    for _ in range(5):
        sandpile()
    for _ in range(60):
        doc = json.loads(json.dumps(GRAPH_DOC))
        set(tuple(arc) for arc in doc["arcs"])


def probe(clock=time.perf_counter) -> float:
    """Seconds one kernel run takes now. The kernel runs once untimed first:
    the first run after an item is slowed by the caches the item evicted,
    the more the longer the item, in the host's fast state only."""
    kernel()
    t0 = clock()
    kernel()
    return clock() - t0


def warm_up() -> None:
    for _ in range(WARM_UP):
        kernel()


def scaled(latencies: list[float], probes: list[float]) -> list[float]:
    """``latencies[i]`` was measured between kernel runs ``probes[i]`` and
    ``probes[i + 1]``. Each latency at the reference speed: scaled by
    REFERENCE_MS over the median kernel time of those two runs and WINDOW
    more on each side."""
    out = []
    for i, seconds in enumerate(latencies):
        near = probes[max(0, i - WINDOW) : i + 2 + WINDOW]
        out.append(seconds * (REFERENCE_MS / 1000) / statistics.median(near))
    return out
