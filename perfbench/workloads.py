"""Seeded inputs, timed calls, output checks and the closed loop.

A workload is an endless sequence of *rounds*, lists of items of a fixed
composition; an item is one closed-loop call into the package's public API.
Random graphs and stabilize inputs are taken from recorded universes
ranked by cost, along low-discrepancy walks (one per cost stratum for the
CLI graphs) that start at offsets drawn from the seed: seeds give different
inputs with the same cost mix, so a run's figures move with the program,
not with the seed. Algebra draws its configurations from the seed.

Each item carries two checks that run outside the timed call:

* ``canonical`` reduces the output to values the mathematics fixes (never a
  witness script), whose digest is compared with ``reference/<workload>.json``
  when the reference has an entry for the item;
* ``invariant`` checks exact identities that hold for any seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import calibrate
import chipfiring
import chipfiring.cli

# Timed calls go through attributes of ``chipfiring`` and ``chipfiring.cli``,
# which the tracer rebinds; untimed generation and checks use these names,
# bound at import, so a traced pass charges only timed work to the layers.
from chipfiring import build_digraph, digraph_to_json_dict, random_digraph, rational_to_str

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("crosscheck", "classes", "algebra", "stabilize")

# Graph shapes of the two CLI workloads: random_digraph(n, mult, s) for s in
# 0..UNIVERSE-1. The recorder stores one digest and one reference time per
# graph; the time only ranks graphs by cost.
CLI_SHAPES = {"crosscheck": (4, 2), "classes": (5, 2)}
CLI_COMMANDS = {"crosscheck": "cross-check", "classes": "classes"}
UNIVERSE = 1000
GOLDEN = (5**0.5 - 1) / 2
# About one crosscheck graph in fourteen needs 1-9 s (the oracle's minimality
# sweep runs up to its 10**6 cap). One of them would be a third of a run and
# decide the run's throughput on its own, so graphs whose reference time is
# above this are left out; the oracle scan still runs on every item. The
# same limit drops half a percent of the classes graphs.
MAX_REFERENCE_MS = 1000.0
# Items per CLI round, one per stratum of the cost ranking. With 25 strata
# the median and the 90th percentile fall in the middle of a stratum (the
# 13th and the 23rd), not at an edge between two, where they would be decided
# by the extremes of two strata's samples.
CLI_STRATA = 25

MIN_ITEMS = 100  # so that the 90th percentile has ten samples beyond it

# Queries per session by graph size. Sorted by latency, a round's items form
# clusters: warm 30-vertex queries (the lowest 25%), warm 40-vertex queries
# (25-84%), warm 50-vertex queries (84-95%), and the three first queries of a
# session, which pay for the inverse (the top 5%). The median falls in the
# middle of the 40-vertex cluster and the 90th percentile in the middle of
# the 50-vertex one, never at an edge between two clusters, where a slower
# host would make a quantile jump from one cluster to the next.
ALGEBRA_QUERIES = {30: 15, 40: 35, 50: 7}
ALGEBRA_SIZES = tuple(ALGEBRA_QUERIES)
ALGEBRA_UNIVERSE = 24  # graphs per size, ranked by recorded session time

GRID_SIDES = (16, 20)
DENSE_N = 60
# Random stabilize inputs are drawn from a recorded universe per family,
# ranked by the firings they need (an exact count), like the CLI graphs.
STABILIZE_UNIVERSE = 200
# (family, items per round): about half of a round's time is grid, half dense.
STABILIZE_ROUND = (
    ("grid16-uniform", 6),
    ("grid16-2cmax", 2),
    ("grid20-uniform", 2),
    ("grid20-2cmax", 1),
    ("dense60", 10),
)


class Item(NamedTuple):
    key: str  # names the input in the reference
    inputs: object  # what the program is given; tests compare it across seeds
    call: Callable[[], object]  # the timed call
    canonical: Callable[[object], object]
    invariant: Callable[[object], Optional[str]]  # error message or None
    reset: Optional[Callable[[], None]] = None  # untimed, before the call

    def run(self):
        """The item's reset and call, for callers that do not time them."""
        if self.reset is not None:
            self.reset()
        return self.call()


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


class CacheSet:
    """Every ``lru_cache``-wrapped function in the package, found by
    introspection so that caches added or renamed later are included.
    Clearing keeps running hit and miss totals."""

    def __init__(self):
        found = {}
        for name, module in list(sys.modules.items()):
            if name == "chipfiring" or name.startswith("chipfiring."):
                for obj in vars(module).values():
                    if callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                        found[id(obj)] = obj
        self.functions = list(found.values())
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        for fn in self.functions:
            info = fn.cache_info()
            self.hits += info.hits
            self.misses += info.misses
            fn.cache_clear()


# ---------------------------------------------------------------------------
# exact helpers, independent of the package's linear algebra

def laplacian(g) -> list[list[int]]:
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j, m in g.arcs:
        rows[i - 1][i - 1] += m
        if j <= g.n:
            rows[i - 1][j - 1] -= m
    return rows


def out_degrees(g) -> list[int]:
    deg = [0] * g.n
    for i, _, m in g.arcs:
        deg[i - 1] += m
    return deg


def box_size(g) -> int:
    """Number of stable non-negative configurations."""
    size = 1
    for d in out_degrees(g):
        size *= d
    return size


def exact_det(m) -> int:
    """Determinant by fraction-free elimination in integers."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def scaled_inverse(m) -> tuple[int, list[list[int]]]:
    """(d, E) in integers with E @ m = d * I, by fraction-free Gauss-Jordan
    elimination of [m | I]; every division is exact. d is det(m) up to sign."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        p = next(r for r in range(k, n) if a[r][k])
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = pivot
    return prev, [row[n:] for row in a]


def scaled_energy(energy: list[str]) -> tuple[int, list[int]]:
    """(d, d * energy) in integers, for exact rationals written "p" or "p/q",
    with d the least common denominator."""
    pairs = [tuple(map(int, e.split("/"))) if "/" in e else (int(e), 1) for e in energy]
    d = math.lcm(*(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]


def row_times(v, m) -> list:
    """The row vector v times the square matrix m."""
    n = len(m)
    return [sum(v[i] * m[i][j] for i in range(n) if v[i]) for j in range(n)]


# ---------------------------------------------------------------------------
# CLI workloads: crosscheck and classes

def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = chipfiring.cli.main(argv)
    return code, out.getvalue()


def cli_item(workload: str, graph_seed: int, path: Path, caches: CacheSet) -> Item:
    n, mult = CLI_SHAPES[workload]
    argv = [CLI_COMMANDS[workload], str(path)]

    def graph():
        return random_digraph(n, mult, graph_seed)

    key = f"g{graph_seed}"
    call = functools.partial(run_cli, argv)
    # every chipfire call is a fresh process for a CLI user: cold caches
    if workload == "crosscheck":
        return Item(key, (n, mult, graph_seed), call, crosscheck_canonical,
                    lambda out: crosscheck_invariant(graph(), out), caches.clear)
    return Item(key, (n, mult, graph_seed), call, classes_canonical,
                lambda out: classes_invariant(graph(), out), caches.clear)


def crosscheck_canonical(out):
    code, text = out
    doc = json.loads(text)
    keys = ("ok", "sigma_min", "oracle_sigma_min", "stable_checked")
    return {"exit": code, **{k: doc[k] for k in keys}}


def crosscheck_invariant(g, out) -> Optional[str]:
    code, text = out
    doc = json.loads(text)
    if code != 0 or doc["ok"] is not True or doc["disagreements"]:
        return f"cross-check not ok (exit {code})"
    if doc["sigma_min"] != doc["oracle_sigma_min"]:
        return "sigma_min differs from the oracle sigma_min"
    if doc["stable_checked"] != box_size(g):
        return f"stable_checked {doc['stable_checked']} != {box_size(g)}"
    lap = laplacian(g)
    if any(x < 0 for x in row_times(doc["sigma_min"], lap)):
        return "sigma_min has a negative image"
    return None


def classes_canonical(out):
    code, text = out
    doc = json.loads(text)
    classes = sorted(
        (
            c["critical"],
            c["superstable"],
            c["total_order"],
            sorted(zip(c["members"], c["energies"])),
        )
        for c in doc["classes"]
    )
    return {"exit": code, "class_count": doc["class_count"], "classes": classes}


def classes_invariant(g, out) -> Optional[str]:
    code, text = out
    if code != 0:
        return f"classes exited {code}"
    doc = json.loads(text)
    lap = laplacian(g)
    det = exact_det(lap)
    if doc["class_count"] != det or len(doc["classes"]) != det:
        return f"class count {doc['class_count']} != det L = {det}"
    degs = out_degrees(g)
    seen = set()
    for c in doc["classes"]:
        if c["critical"] not in c["members"] or c["superstable"] not in c["members"]:
            return "critical or superstable member missing from its class"
        for member, energy in zip(c["members"], c["energies"]):
            if any(not 0 <= x < d for x, d in zip(member, degs)):
                return f"member {member} is not stable"
            d, scaled = scaled_energy(energy)
            if row_times(scaled, lap) != [d * x for x in member]:
                return f"energy of {member} times L is not the member"
            seen.add(tuple(member))
    if len(seen) != box_size(g):
        return f"classes cover {len(seen)} of {box_size(g)} stable configurations"
    return None


def cli_universe(workload: str, reference: dict) -> list[int]:
    """Graph seeds of the universe that are kept, cheapest first."""
    recorded = reference.get("graphs", {})
    if not recorded:
        raise SystemExit(f"no recorded {workload} graphs; run perfbench/record.py {workload}")
    return [int(s) for s, (_, ms) in sorted(recorded.items(), key=lambda e: e[1][1]) if ms <= MAX_REFERENCE_MS]


def write_graph_files(workload: str, seeds: list[int], workdir: Path) -> dict[int, Path]:
    n, mult = CLI_SHAPES[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for s in seeds:
        g = random_digraph(n, mult, s)
        path = workdir / f"{workload}-{s}.json"
        path.write_text(json.dumps(digraph_to_json_dict(g)))
        paths[s] = path
    return paths


def rank_walk(ranked: list, x: float) -> Iterator:
    """Endless walk over a list ranked by cost: step i takes the entry at
    rank (x + i * GOLDEN) mod 1. This low-discrepancy walk spreads every
    prefix evenly over cheap and costly entries, so a run's quantiles vary
    little between seeds, unlike those of a random draw of a few hundred
    heavy-tailed items."""
    while True:
        yield ranked[int(x * len(ranked))]
        x = (x + GOLDEN) % 1.0


def cli_rounds(workload: str, seed: int, ranked: list[int], paths, caches: CacheSet) -> Iterator[list[Item]]:
    """Rounds of CLI_STRATA items, one from each stratum of the universe's
    cost ranking (its cheapest 1/CLI_STRATA, the next, and so on) in an
    order drawn from the seed. Each stratum is walked from its own offset
    drawn from the seed, so every round has nearly the same cost mix, except
    the costliest stratum: its few dozen graphs take a quarter of a round's
    time and the largest of them set the peak memory, so it is walked from
    its costliest graph on every seed."""
    rng = random.Random(f"{workload}:{seed}")
    n = len(ranked)
    strata = [ranked[k * n // CLI_STRATA : (k + 1) * n // CLI_STRATA] for k in range(CLI_STRATA)]
    walks = [rank_walk(stratum, rng.random()) for stratum in strata[:-1]]
    walks.append(rank_walk(strata[-1], 1 - 0.5 / len(strata[-1])))
    while True:
        items = [cli_item(workload, s, paths[s], caches) for s in map(next, walks)]
        rng.shuffle(items)
        yield items


# ---------------------------------------------------------------------------
# algebra: library sessions on mid-size random graphs

def algebra_query(g, a, b):
    sigma = chipfiring.minimum_strong_script(g)
    det = chipfiring.determinant(chipfiring.reduced_laplacian(g))
    energy = chipfiring.energy_vector(g, a)
    eq_ab = chipfiring.are_equivalent(g, a, b)
    cmp_ab = chipfiring.cfg_compare(g, a, b)
    chain = chipfiring.linseq_chain(g, a)
    return sigma, det, energy, eq_ab, cmp_ab, chain


def algebra_canonical(out):
    sigma, det, energy, eq_ab, cmp_ab, chain = out
    return {
        "sigma_min": list(sigma),
        "det": det,
        "energy": [rational_to_str(x) for x in energy],
        "eq": eq_ab,
        "cmp": cmp_ab,
        "chain": [list(c) for c in chain],
    }


def energy_order(ea, eb) -> str:
    """cfg_compare's verdict on two energy vectors."""
    le = all(x <= y for x, y in zip(ea, eb))
    ge = all(x >= y for x, y in zip(ea, eb))
    return "equal" if le and ge else "less" if le else "greater" if ge else "incomparable"


def algebra_invariant(g, lap, det_l, inv, a, b, out) -> Optional[str]:
    """``inv`` is scaled_inverse(lap): b's energy is b @ E / d, and a ~ b
    exactly when (a - b) @ E is divisible by d."""
    sigma, det, energy, eq_ab, cmp_ab, chain = out
    if det != det_l:
        return "determinant differs from the benchmark's own elimination"
    if row_times(list(energy), lap) != list(a):
        return "energy times L is not the configuration"
    d, e = inv
    b_scaled = row_times(b, e)
    a_scaled = [x * d for x in energy]
    if eq_ab is not all((x - y) % d == 0 for x, y in zip(a_scaled, b_scaled)):
        return f"are_equivalent returned {eq_ab!r}"
    if cmp_ab != energy_order(energy, [Fraction(y, d) for y in b_scaled]):
        return f"cfg_compare returned {cmp_ab!r}"
    if any(x < 0 for x in row_times(list(sigma), lap)):
        return "sigma_min has a negative image"
    degs = out_degrees(g)
    if chain[0] != tuple(a) or any(any(not 0 <= x < d for x, d in zip(c, degs)) for c in chain):
        return "chain does not start at the input or leaves the stable box"
    return None


def algebra_session(n: int, ident: int, rng: random.Random, r: int, caches: CacheSet) -> list[Item]:
    """ALGEBRA_QUERIES[n] queries on random_digraph(n, 3, ident), with stable
    configurations drawn from ``rng``. The package's caches are cleared
    before the first query, as a new library session starts cold, and the
    first query pays for the inverse."""
    g = random_digraph(n, 3, ident)
    degs = out_degrees(g)
    lap = laplacian(g)
    det_l = exact_det(lap)
    inv = scaled_inverse(lap)

    items = []
    for q in range(ALGEBRA_QUERIES[n]):
        a = tuple(rng.randrange(d) for d in degs)
        b = tuple(rng.randrange(d) for d in degs)
        items.append(
            Item(
                f"r{r}.n{n}.q{q}",
                (n, ident, a, b),
                functools.partial(algebra_query, g, a, b),
                algebra_canonical,
                lambda out, a=a, b=b: algebra_invariant(g, lap, det_l, inv, a, b, out),
                caches.clear if q == 0 else None,
            )
        )
    return items


def algebra_rounds(seed: int, ranked: dict[int, list[int]], caches: CacheSet) -> Iterator[list[Item]]:
    """One session per size per round; each size walks its graphs' cost
    ranking from an offset drawn from the seed, which also draws the
    configurations."""
    rng = random.Random(f"algebra:{seed}")
    walks = {n: rank_walk(ranked[n], rng.random()) for n in ALGEBRA_SIZES}
    r = 0
    while True:
        yield [item for n in ALGEBRA_SIZES for item in algebra_session(n, next(walks[n]), rng, r, caches)]
        r += 1


def algebra_ranking(reference: dict) -> dict[int, list[int]]:
    graphs = reference.get("graphs", {})
    if not graphs:
        raise SystemExit("no recorded algebra graphs; run perfbench/record.py algebra")
    return {int(n): [int(i) for i, _ in sorted(entries.items(), key=lambda e: e[1])] for n, entries in graphs.items()}


# ---------------------------------------------------------------------------
# stabilize: sparse grid sandpiles and dense random graphs

def grid_sandpile(side: int):
    """The side x side Abelian sandpile: degree 4, boundary arcs to the sink."""
    n = side * side
    sink = n + 1
    arcs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c + 1
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                inside = 0 <= rr < side and 0 <= cc < side
                arcs.append((v, rr * side + cc + 1 if inside else sink, 1))
    return build_digraph(n, sink, arcs)


def stabilize_invariant(g, config, out) -> Optional[str]:
    stable, script = out
    degs = out_degrees(g)
    if any(not 0 <= x < d for x, d in zip(stable, degs)):
        return "result is not stable"
    if any(k < 0 for k in script):
        return "negative script"
    fired = list(config)
    for i, j, m in g.arcs:
        k = script[i - 1]
        if k:
            fired[i - 1] -= k * m
            if j <= g.n:
                fired[j - 1] += k * m
    if fired != list(stable):
        return "stable != config - script @ L"
    return None


def stabilize_canonical(out):
    stable, script = out
    return {"stable": list(stable), "script": list(script)}


def stabilize_input(family: str, ident: int, grids: dict) -> tuple:
    """Graph and configuration of one stabilize input; ``ident`` picks the
    random graph or configuration within the family."""
    if family == "dense60":
        g = random_digraph(DENSE_N, 3, ident)
        rng = random.Random(f"{family}:{ident}")
        return g, tuple(20 * d + rng.randint(-d, d) for d in out_degrees(g))
    g = grids[int(family[4:6])]
    if family.endswith("2cmax"):
        return g, tuple(2 * (d - 1) for d in out_degrees(g))
    rng = random.Random(f"{family}:{ident}")
    return g, tuple(rng.randint(0, 7) for _ in range(g.n))


def stabilize_idents(family: str) -> range:
    return range(1) if family.endswith("2cmax") else range(STABILIZE_UNIVERSE)


def stabilize_item(family: str, ident: int, grids: dict) -> Item:
    g, config = stabilize_input(family, ident, grids)
    return Item(
        f"{family}.{ident}",
        (family, ident),
        lambda: chipfiring.stabilize(g, config),
        stabilize_canonical,
        lambda out: stabilize_invariant(g, config, out),
    )


def stabilize_rounds(seed: int, ranked: dict[str, list[int]]) -> Iterator[list[Item]]:
    """Rounds of STABILIZE_ROUND's composition; each family walks its
    firings ranking from an offset drawn from the seed."""
    rng = random.Random(f"stabilize:{seed}")
    grids = {side: grid_sandpile(side) for side in GRID_SIDES}
    walks = {family: rank_walk(ranked[family], rng.random()) for family, _ in STABILIZE_ROUND}
    while True:
        items = [stabilize_item(family, next(walks[family]), grids) for family, count in STABILIZE_ROUND for _ in range(count)]
        rng.shuffle(items)
        yield items


def stabilize_ranking(reference: dict) -> dict[str, list[int]]:
    families = reference.get("families", {})
    if not families:
        raise SystemExit("no recorded stabilize inputs; run perfbench/record.py stabilize")
    return {
        family: [int(i) for i, _ in sorted(entries.items(), key=lambda e: e[1][1])]
        for family, entries in families.items()
    }


# ---------------------------------------------------------------------------
# the closed loop

class Outcome:
    """Latencies and check results of one pass over whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probes: list[float] = []  # kernel times before each item and after the last
        self.failures: list[str] = []
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Latencies at the reference host speed; needs a probed pass."""
        return calibrate.scaled(self.latencies, self.probes)


def check(item: Item, output, error: Optional[str], digests: dict[str, str]) -> Optional[str]:
    """Why the item failed, or None: it raised, broke an invariant, or its
    digest differs from the recorded one."""
    if error is not None:
        return error
    try:
        problem = item.invariant(output)
        if problem is None and item.key in digests and digest(item.canonical(output)) != digests[item.key]:
            problem = "output differs from the recorded reference"
    except Exception as exc:  # a malformed output is a failed item
        problem = f"unreadable output: {exc!r}"
    return problem


def run_rounds(stream, digests, seconds=None, rounds=None, min_items=MIN_ITEMS, probe=None) -> Outcome:
    """Run whole rounds until ``seconds`` of item time and ``min_items``
    items, or exactly ``rounds`` rounds. An item's reset runs untimed before
    it. ``probe``, when given, times the calibration kernel between each
    item's reset and its call, and after the last item."""
    outcome = Outcome()
    busy = 0.0
    clock = time.perf_counter
    while not (
        (rounds is not None and outcome.rounds == rounds)
        or (rounds is None and busy >= seconds and outcome.attempted >= min_items)
    ):
        for item in next(stream):
            if item.reset is not None:
                item.reset()
            if probe is not None:
                outcome.probes.append(probe())
            error = None
            t0 = clock()
            try:
                output = item.call()
            except Exception as exc:  # the item failed; the run goes on
                output, error = None, f"raised {exc!r}"
            elapsed = clock() - t0
            busy += elapsed
            outcome.latencies.append(elapsed)
            problem = check(item, output, error, digests)
            if problem is not None:
                outcome.failures.append(f"{item.key}: {problem}")
        outcome.rounds += 1
    if probe is not None:
        outcome.probes.append(probe())
    return outcome


# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: Path, caches: CacheSet) -> Callable[[], Iterator[list[Item]]]:
    """The workload's set-up. Returns a factory of fresh round streams; two
    streams of one seed yield the same items."""
    if workload in CLI_SHAPES:
        ranked = cli_universe(workload, load_reference(workload))
        paths = write_graph_files(workload, ranked, workdir)
        return lambda: cli_rounds(workload, seed, ranked, paths, caches)
    if workload == "stabilize":
        ranked = stabilize_ranking(load_reference(workload))
        next(stabilize_rounds(seed, ranked))
        return lambda: stabilize_rounds(seed, ranked)
    ranked = algebra_ranking(load_reference(workload))
    next(algebra_rounds(seed, ranked, caches))
    return lambda: algebra_rounds(seed, ranked, caches)


def reference_digests(workload: str, seed: int) -> dict[str, str]:
    """Item key -> recorded digest, for the items this seed shares with the
    reference."""
    reference = load_reference(workload)
    if workload in CLI_SHAPES:
        return {f"g{s}": d for s, (d, _) in reference.get("graphs", {}).items()}
    if workload == "stabilize":
        return {f"{f}.{i}": d for f, entries in reference.get("families", {}).items() for i, (d, _) in entries.items()}
    return reference.get("items", {}) if reference.get("seed") == seed else {}
