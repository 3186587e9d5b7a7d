"""Directed multigraphs with a designated global sink.

Vertices are 1-based. A graph with ``n`` non-sink vertices has vertex set
{1, ..., n+1} with the sink at n+1; inputs naming the sink differently are
reindexed on construction. Parallel arcs are stored as multiplicities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArcFromSinkError,
    BadMultiplicityError,
    InvariantViolationError,
    LoopArcError,
    NotLaplacianShapedError,
    SinkUnreachableError,
)
from .linalg import IntMatrix, det_adj, freeze_matrix

ArcTriple = tuple[int, int, int]  # (from, to, multiplicity)


@dataclass(frozen=True)
class Digraph:
    """Loop-free directed multigraph with a global sink.

    Immutable and hashable: ``arcs`` is kept sorted, so two graphs with the
    same arc multiset compare equal and expensive per-graph computations can
    be memoized. Construct through :func:`build_digraph`, which validates
    the global-sink property; the constructor itself does not validate.

    Attributes:
        n: number of non-sink vertices (vertices 1..n; the sink is n+1).
        arcs: sorted (from, to, multiplicity) triples with multiplicity >= 1.
    """

    n: int
    arcs: tuple[ArcTriple, ...]

    @property
    def sink(self) -> int:
        return self.n + 1

    @cached_property
    def arc_map(self) -> Mapping[tuple[int, int], int]:
        return {(i, j): m for i, j, m in self.arcs}

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        """Out-degree (counting multiplicity) of each non-sink vertex."""
        deg = [0] * self.n
        for i, _, m in self.arcs:
            deg[i - 1] += m
        return tuple(deg)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """successors[v-1] = sorted targets of v, for v in 1..n+1."""
        succ: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, j, _ in self.arcs:
            succ[i - 1].append(j)
        return tuple(tuple(sorted(s)) for s in succ)

    @cached_property
    def reduced_laplacian_rows(self) -> IntMatrix:
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for v in range(1, n + 1):
            rows[v - 1][v - 1] = self.out_degrees[v - 1]
        for (i, j, m) in self.arcs:
            if j <= n:
                rows[i - 1][j - 1] -= m
        return freeze_matrix(rows)

    def multiplicity(self, i: int, j: int) -> int:
        return self.arc_map.get((i, j), 0)


def build_digraph(n: int, sink: int, arcs: Iterable[Sequence[int]]) -> Digraph:
    """Build and validate a digraph with a global sink.

    ``n`` is the number of non-sink vertices; vertex ids run over 1..n+1.
    If ``sink`` is not n+1, all ids are canonically reindexed (non-sink ids
    keep their relative order, the sink becomes n+1). Duplicate (from, to)
    entries are summed.

    Raises LoopArcError, ArcFromSinkError, BadMultiplicityError, or
    SinkUnreachableError when the input is not a valid global-sink graph.
    """
    if n < 1:
        raise ValueError("need at least one non-sink vertex")
    total = n + 1
    if not 1 <= sink <= total:
        raise ValueError(f"sink id {sink} out of range 1..{total}")

    if sink != total:
        nonsink = [v for v in range(1, total + 1) if v != sink]
        relabel = {old: new for new, old in enumerate(nonsink, start=1)}
        relabel[sink] = total
    else:
        relabel = None

    merged: dict[tuple[int, int], int] = {}
    for entry in arcs:
        i, j, m = int(entry[0]), int(entry[1]), int(entry[2])
        if not (1 <= i <= total and 1 <= j <= total):
            raise ValueError(f"arc ({i}, {j}) uses a vertex outside 1..{total}")
        if m < 1:
            raise BadMultiplicityError(f"arc ({i}, {j}) has multiplicity {m}")
        if i == j:
            raise LoopArcError(f"loop arc at vertex {i}")
        if i == sink:
            raise ArcFromSinkError(f"arc from the sink ({i} -> {j})")
        if relabel is not None:
            i, j = relabel[i], relabel[j]
        merged[(i, j)] = merged.get((i, j), 0) + m

    g = Digraph(n=n, arcs=tuple(sorted((i, j, m) for (i, j), m in merged.items())))
    _check_sink_reachable(g)
    return g


def _check_sink_reachable(g: Digraph) -> None:
    # reverse BFS from the sink over incoming arcs
    preds: list[list[int]] = [[] for _ in range(g.n + 1)]
    for i, j, _ in g.arcs:
        preds[j - 1].append(i)
    seen = {g.sink}
    frontier = [g.sink]
    while frontier:
        v = frontier.pop()
        for p in preds[v - 1]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    blocked = [v for v in range(1, g.n + 1) if v not in seen]
    if blocked:
        # report a dead end (no out-arcs at all) when there is one; it is
        # the most actionable vertex to name
        dead_end = next((v for v in blocked if g.out_degrees[v - 1] == 0), None)
        raise SinkUnreachableError(dead_end if dead_end is not None else blocked[0])


def reduced_laplacian(g: Digraph) -> IntMatrix:
    """The n x n Laplacian with the sink row and column removed."""
    return g.reduced_laplacian_rows


def laplacian_kernel(g: Digraph) -> tuple[int, IntMatrix]:
    """``(det L, adj L)`` of the reduced Laplacian, the adjugate by columns.

    ``c @ L^-1`` is ``times_adj(c, adj) / det``. By the matrix-tree theorem
    det L counts the spanning trees into the sink, so it is positive on every
    global-sink graph; comparisons of scaled energies rely on that, and a
    non-positive value raises InvariantViolationError.
    """
    det, adj = det_adj(g.reduced_laplacian_rows)
    if det <= 0:
        raise InvariantViolationError(f"reduced Laplacian has determinant {det}, expected > 0")
    return det, adj


def full_laplacian(g: Digraph) -> IntMatrix:
    """The (n+1) x (n+1) Laplacian; every row sums to 0, the sink row is 0."""
    size = g.n + 1
    rows = [[0] * size for _ in range(size)]
    for v in range(1, g.n + 1):
        rows[v - 1][v - 1] = g.out_degrees[v - 1]
    for (i, j, m) in g.arcs:
        rows[i - 1][j - 1] -= m
    return freeze_matrix(rows)


def strongly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    """All SCCs of the full graph, each sorted, ordered by smallest member."""
    size = g.n + 1
    succ = g.successors
    order: list[int] = []
    seen = [False] * size
    for start in range(1, size + 1):
        if seen[start - 1]:
            continue
        # iterative post-order DFS
        stack: list[tuple[int, int]] = [(start, 0)]
        seen[start - 1] = True
        while stack:
            v, idx = stack[-1]
            targets = succ[v - 1]
            if idx < len(targets):
                stack[-1] = (v, idx + 1)
                w = targets[idx]
                if not seen[w - 1]:
                    seen[w - 1] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()

    preds: list[list[int]] = [[] for _ in range(size)]
    for i, j, _ in g.arcs:
        preds[j - 1].append(i)
    assigned = [False] * size
    comps: list[tuple[int, ...]] = []
    for v in reversed(order):
        if assigned[v - 1]:
            continue
        comp = []
        frontier = [v]
        assigned[v - 1] = True
        while frontier:
            u = frontier.pop()
            comp.append(u)
            for p in preds[u - 1]:
                if not assigned[p - 1]:
                    assigned[p - 1] = True
                    frontier.append(p)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    return comps


def source_components(g: Digraph) -> list[tuple[int, ...]]:
    """SCCs with no incoming arc from outside themselves.

    Never contains the sink (the sink has an incoming arc for n >= 1) and
    is non-empty for every valid graph. Components are sorted by smallest
    member.
    """
    comps = strongly_connected_components(g)
    of_vertex = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            of_vertex[v] = idx
    has_external_in = [False] * len(comps)
    for i, j, _ in g.arcs:
        if of_vertex[i] != of_vertex[j]:
            has_external_in[of_vertex[j]] = True
    return [c for idx, c in enumerate(comps) if not has_external_in[idx]]


def from_reduced_laplacian(m: Sequence[Sequence[int]]) -> Digraph:
    """Reconstruct the unique digraph whose reduced Laplacian is ``m``.

    Off-diagonal entries give inter-vertex arc multiplicities; each row-sum
    surplus becomes arcs to the sink. Raises NotLaplacianShapedError when
    the matrix cannot be a reduced Laplacian, SinkUnreachableError when the
    reconstruction lacks the global-sink property.
    """
    mat = freeze_matrix(m)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise NotLaplacianShapedError("need a non-empty square matrix")
    arcs: list[ArcTriple] = []
    for i in range(n):
        if mat[i][i] <= 0:
            raise NotLaplacianShapedError(f"diagonal entry {mat[i][i]} at {i + 1} must be positive")
        row_sum = 0
        for j in range(n):
            if i != j:
                if mat[i][j] > 0:
                    raise NotLaplacianShapedError(
                        f"off-diagonal entry {mat[i][j]} at ({i + 1}, {j + 1}) must be <= 0"
                    )
                if mat[i][j] != 0:
                    arcs.append((i + 1, j + 1, -mat[i][j]))
            row_sum += mat[i][j]
        if row_sum < 0:
            raise NotLaplacianShapedError(f"row {i + 1} sums to {row_sum} < 0")
        if row_sum > 0:
            arcs.append((i + 1, n + 1, row_sum))
    return build_digraph(n, n + 1, arcs)


def random_digraph(n: int, max_multiplicity: int, seed: int) -> Digraph:
    """Random valid digraph with a global sink, deterministic per seed.

    Reachability is guaranteed by first drawing a spanning in-tree toward
    the sink (each vertex, in random order, gets one arc to a vertex already
    connected), then sprinkling extra arcs. Multiplicities are uniform in
    [1, max_multiplicity].
    """
    if n < 1 or max_multiplicity < 1:
        raise ValueError("need n >= 1 and max_multiplicity >= 1")
    rng = random.Random(seed)
    sink = n + 1
    attach_order = list(range(1, n + 1))
    rng.shuffle(attach_order)
    connected = [sink]
    arcs: dict[tuple[int, int], int] = {}
    for v in attach_order:
        parent = rng.choice(connected)
        arcs[(v, parent)] = rng.randint(1, max_multiplicity)
        connected.append(v)
    extra_prob = 0.25
    for i in range(1, n + 1):
        for j in range(1, n + 2):
            if j == i or (i, j) in arcs:
                continue
            if rng.random() < extra_prob:
                arcs[(i, j)] = rng.randint(1, max_multiplicity)
    return build_digraph(n, sink, [(i, j, m) for (i, j), m in sorted(arcs.items())])


# ---------------------------------------------------------------------------
# JSON graph format: {"vertices": n+1, "sink": id, "arcs": [[from, to, mult], ...]}

def digraph_from_json_dict(obj: Mapping) -> Digraph:
    """Build a digraph from the JSON wire format (1-based ids).

    The sink may be any vertex id; ids are reindexed so the sink is n+1.
    """
    try:
        total = int(obj["vertices"])
        sink = int(obj["sink"])
        arcs = [(int(a[0]), int(a[1]), int(a[2])) for a in obj["arcs"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    return build_digraph(total - 1, sink, arcs)


def digraph_to_json_dict(g: Digraph) -> dict:
    """Serialize in the same JSON wire format (canonical ids)."""
    return {
        "vertices": g.n + 1,
        "sink": g.sink,
        "arcs": [[i, j, m] for i, j, m in g.arcs],
    }
