"""Graph-positive firing scripts and the minimum strongly positive script.

A non-negative script is graph-positive when firing it as a whole strictly
loses chips nowhere and the image is non-zero; it is strongly positive when
additionally the image's support touches every source component. The unique
containment-minimum strongly positive script drives all the recognition
procedures, and is computed by a greedy increment loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .digraph import Digraph, laplacian_kernel, source_components
from .errors import InvariantViolationError, NegativeScriptError, StrongPositivityPostCheckError
from .linalg import IntVector, ones, row_times_matrix, support, vec

# graphs whose per-graph scripts stay memoized; bounded so that a long fuzz
# campaign cannot grow the caches without limit
GRAPH_CACHE_SIZE = 256


def _require_nonnegative(script: Sequence[int]) -> None:
    bad = next((i for i, x in enumerate(script) if x < 0), None)
    if bad is not None:
        raise NegativeScriptError(f"negative entry {script[bad]} at index {bad + 1}")


def script_image(g: Digraph, script: Sequence[int]) -> IntVector:
    """The chip change vector script @ laplacian removed by firing the script."""
    return vec(row_times_matrix(script, g.reduced_laplacian_rows))


def is_g_positive(g: Digraph, script: Sequence[int]) -> bool:
    """True iff the script's Laplacian image is >= 0 and non-zero.

    The strict order here is "componentwise >= with at least one strict
    coordinate"; zero coordinates in the image are allowed.
    """
    _require_nonnegative(script)
    image = script_image(g, script)
    return all(x >= 0 for x in image) and any(x != 0 for x in image)


def is_g_strongly_positive(g: Digraph, script: Sequence[int]) -> bool:
    """Graph-positive, and the image's support meets every source component."""
    _require_nonnegative(script)
    image = script_image(g, script)
    if not (all(x >= 0 for x in image) and any(x != 0 for x in image)):
        return False
    supp = support(image)
    return all(supp & set(comp) for comp in source_components(g))


def greedy_script_steps(g: Digraph) -> list[tuple[IntVector, IntVector]]:
    """The greedy trace: (script, image) pairs from the all-ones start.

    Starting at the all-ones script, while the image has a negative entry,
    increment the script at the lowest negative index. The final script of
    the trace is the minimum strongly positive script.
    """
    rows = g.reduced_laplacian_rows
    n = g.n
    script = list(ones(n))
    image = list(row_times_matrix(script, rows))
    steps = [(vec(script), vec(image))]
    # the containment minimum never exceeds the inverse-route script
    guard = strong_script_from_inverse(g)
    while True:
        i = next((j for j in range(n) if image[j] < 0), None)
        if i is None:
            return steps
        script[i] += 1
        row = rows[i]
        for j in range(n):
            image[j] += row[j]
        if script[i] > guard[i]:
            raise StrongPositivityPostCheckError(
                f"greedy exceeded the inverse-route bound at index {i + 1}"
            )
        steps.append((vec(script), vec(image)))


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def minimum_strong_script(g: Digraph) -> IntVector:
    """The containment-minimum strongly positive script.

    Computed greedily from the all-ones script; the result is post-checked
    for strong positivity rather than assumed (a failed check raises
    StrongPositivityPostCheckError with the offending script). Minimality
    itself is validated against the brute-force search in the oracle module.
    """
    script = greedy_script_steps(g)[-1][0]
    if not is_g_strongly_positive(g, script):
        raise StrongPositivityPostCheckError(
            f"greedy output {script} is not strongly positive on this graph"
        )
    return script


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def strong_script_from_inverse(g: Digraph) -> IntVector:
    """A strongly positive script built from the inverse reduced Laplacian.

    Takes the all-ones vector scaled by det(laplacian) and multiplies by the
    inverse; that is the column-sum vector of the adjugate, an integer
    script whose image is constant det everywhere, hence strongly positive.
    """
    _, adj = laplacian_kernel(g)
    script = tuple(sum(col) for col in adj)
    if not is_g_strongly_positive(g, script):
        raise InvariantViolationError(f"adjugate column sums {script} are not strongly positive")
    return script


def scaled_script(script: Sequence[int], m: int) -> IntVector:
    """m copies of a script fired together."""
    return tuple(m * x for x in script)
