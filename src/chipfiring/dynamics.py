"""Configurations, the firing rule, and the stabilization engine.

A configuration is an integer chip vector over the non-sink vertices
(negative entries are allowed). A vertex is active when it holds at least
as many chips as its out-degree; firing it sends one chip along each
out-going arc. Unconstrained firing of a whole script at once is
``apply_script``; stabilization repeatedly fires active vertices and
returns both the stable result and the firing script, which is unique.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from .digraph import Digraph
from .errors import EnumerationCapExceededError, NegativeInputError
from .linalg import IntVector, vec

DEFAULT_ENUMERATION_CAP = 10**6


class StabilizationResult(NamedTuple):
    stable: IntVector
    script: IntVector


def c_max(g: Digraph) -> IntVector:
    """The maximum stable configuration: out-degree minus one everywhere."""
    return tuple(d - 1 for d in g.out_degrees)


def is_stable(g: Digraph, config: Sequence[int]) -> bool:
    """True iff no vertex is active (every entry below its out-degree)."""
    return all(x < d for x, d in zip(config, g.out_degrees, strict=True))


def require_nonnegative(config: Sequence[int]) -> None:
    """Raise NegativeInputError naming the first negative entry, if any."""
    bad = next((i for i, x in enumerate(config) if x < 0), None)
    if bad is not None:
        raise NegativeInputError(f"negative entry {config[bad]} at vertex {bad + 1}")


def apply_script(g: Digraph, config: Sequence[int], script: Sequence[int]) -> IntVector:
    """Fire a whole script at once (unconstrained): config - script @ laplacian.

    Negative script entries reverse-fire.
    """
    rows = g.reduced_laplacian_rows
    n = g.n
    if len(config) != n or len(script) != n:
        raise ValueError("configuration/script length must equal the vertex count")
    out = list(config)
    for i, k in enumerate(script):
        if k:
            row = rows[i]
            for j in range(n):
                out[j] -= k * row[j]
    return tuple(out)


def fire_one(g: Digraph, config: Sequence[int], vertex: int) -> IntVector:
    """Fire a single vertex once (legality is not checked here)."""
    row = g.reduced_laplacian_rows[vertex - 1]
    return tuple(x - y for x, y in zip(config, row, strict=True))


def is_legal_sequence(g: Digraph, config: Sequence[int], seq: Iterable[int]) -> bool:
    """True iff each vertex in the sequence is active when its turn comes."""
    degs = g.out_degrees
    current = list(config)
    rows = g.reduced_laplacian_rows
    for v in seq:
        if current[v - 1] < degs[v - 1]:
            return False
        row = rows[v - 1]
        for j in range(g.n):
            current[j] -= row[j]
    return True


def stabilize(g: Digraph, config: Sequence[int]) -> StabilizationResult:
    """Stabilize a non-negative configuration.

    Fires the lowest-index active vertex, accelerated: a vertex holding k
    times its out-degree fires k times in one step. The result and script
    are independent of the firing order, so the fixed policy only makes
    traces reproducible.

    Raises NegativeInputError when the input has a negative entry.
    """
    require_nonnegative(config)
    stable, script, _ = _drive(g, config, budget=None)
    return StabilizationResult(stable, script)


def stabilize_within(g: Digraph, config: Sequence[int], max_firings: int) -> Optional[StabilizationResult]:
    """Stabilize any integer configuration within a firing budget.

    Unlike :func:`stabilize` the input may be negative. Returns None when
    the budget is exhausted before reaching a stable configuration, as a
    distinct non-termination outcome.
    """
    stable, script, done = _drive(g, config, budget=max_firings)
    return StabilizationResult(stable, script) if done else None


def _drive(g, config, budget):
    degs = g.out_degrees
    rows = g.reduced_laplacian_rows
    n = g.n
    chips = list(config)
    script = [0] * n
    fired = 0
    while True:
        for i in range(n):
            if chips[i] >= degs[i]:
                k = chips[i] // degs[i]
                if budget is not None:
                    k = min(k, budget - fired)
                    if k == 0:
                        return vec(chips), vec(script), False
                row = rows[i]
                for j in range(n):
                    chips[j] -= k * row[j]
                script[i] += k
                fired += k
                break
        else:
            return vec(chips), vec(script), True


def stabilize_random_policy(g: Digraph, config: Sequence[int], rng: random.Random) -> StabilizationResult:
    """Single-fire stabilization picking a random active vertex each step.

    Validation helper for the abelian property: must agree with
    :func:`stabilize` on every non-negative input.
    """
    require_nonnegative(config)
    degs = g.out_degrees
    rows = g.reduced_laplacian_rows
    n = g.n
    chips = list(config)
    script = [0] * n
    while True:
        active = [i for i in range(n) if chips[i] >= degs[i]]
        if not active:
            return StabilizationResult(vec(chips), vec(script))
        i = rng.choice(active)
        row = rows[i]
        for j in range(n):
            chips[j] -= row[j]
        script[i] += 1


def stable_count(g: Digraph) -> int:
    """Number of stable non-negative configurations (product of out-degrees)."""
    count = 1
    for d in g.out_degrees:
        count *= d
    return count


def enumerate_stable(g: Digraph, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every stable non-negative configuration in lexicographic order.

    Raises EnumerationCapExceededError when the stable box is larger than
    ``cap``.
    """
    total = stable_count(g)
    if total > cap:
        raise EnumerationCapExceededError(total, cap)
    yield from product(*[range(d) for d in g.out_degrees])
