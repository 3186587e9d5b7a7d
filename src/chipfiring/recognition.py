"""Finite recognition of critical and superstable configurations.

Criticality has two independent finite tests: the fixpoint test (reverse
fire the minimum strongly positive script, stabilize, compare) and the
bounded box test (no non-zero script up to the minimum script can
reverse-fire the configuration onto another stable one). Superstability is
tested over the same closed script box; the two boxes match because the
complement map carries one test onto the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .digraph import Digraph
from .dynamics import (
    DEFAULT_ENUMERATION_CAP,
    apply_script,
    c_max,
    enumerate_stable,
    is_stable,
    require_nonnegative,
    stabilize,
)
from .errors import InvariantViolationError, NotStableError
from .linalg import IntVector, vec_add, vec_sub
from .scripts import minimum_strong_script, script_image


def _require_stable(g: Digraph, config: Sequence[int]) -> None:
    if not is_stable(g, config):
        raise NotStableError(f"configuration {tuple(config)} has an active vertex")


def _box(upper: Sequence[int], include_top: bool, exclude_zero: bool = True):
    """Scripts s with 0 <= s <= upper in lexicographic order."""
    top = tuple(upper)
    for s in product(*[range(u + 1) for u in upper]):
        if exclude_zero and not any(s):
            continue
        if not include_top and s == top:
            continue
        yield s


def is_critical_fixpoint(g: Digraph, config: Sequence[int]) -> tuple[bool, IntVector]:
    """Fixpoint criticality test.

    Reverse-fires the minimum strongly positive script and stabilizes; the
    input is critical iff the result equals the input. Returns the verdict
    and the stabilizing script. On a critical input the stabilizing script
    must equal the minimum script exactly; a mismatch is an invariant
    violation, not a verdict.
    """
    require_nonnegative(config)
    _require_stable(g, config)
    min_script = minimum_strong_script(g)
    lifted = vec_add(config, script_image(g, min_script))
    stable, script = stabilize(g, lifted)
    verdict = stable == tuple(config)
    if verdict and script != min_script:
        raise InvariantViolationError(
            f"critical {tuple(config)} restabilized with script {script}, "
            f"expected the minimum script {min_script}"
        )
    return verdict, script


def is_critical_bounded(g: Digraph, config: Sequence[int]) -> tuple[bool, Optional[IntVector]]:
    """Bounded reverse-firing criticality test.

    Enumerates every non-zero script up to and including the minimum
    strongly positive script; the input is critical iff none of them
    reverse-fires it onto a stable configuration. Returns the verdict and,
    when false, the lexicographically first witness script.

    The box must be closed at the top: when the lift of a non-critical
    configuration by the minimum script is already stable, that script is
    the only witness (there are graphs where this happens, so excluding it
    would wrongly certify criticality).
    """
    require_nonnegative(config)
    _require_stable(g, config)
    min_script = minimum_strong_script(g)
    for witness in _box(min_script, include_top=True):
        candidate = apply_script(g, config, tuple(-x for x in witness))
        if is_stable(g, candidate):
            return False, witness
    return True, None


def is_superstable(g: Digraph, config: Sequence[int]) -> tuple[bool, Optional[IntVector]]:
    """Superstability test over the closed minimum-script box.

    The input is superstable iff firing any non-zero script up to the
    minimum strongly positive script leaves a negative component somewhere.
    Returns the verdict and, when false, the lexicographically first
    witness script whose firing stays non-negative.

    On stable inputs the equivalent characterization "no such firing lands
    on a non-negative stable configuration" is evaluated over the same box
    as a cross-check; a verdict mismatch raises InvariantViolationError.
    (The two routes only coincide on stable inputs: an unstable input is
    always unmasked by a unit script, but that image need not be stable.)
    """
    require_nonnegative(config)
    min_script = minimum_strong_script(g)
    cross_check = is_stable(g, config)
    witness = None
    stable_witness = None
    for s in _box(min_script, include_top=True):
        candidate = apply_script(g, config, s)
        if all(x >= 0 for x in candidate):
            if witness is None:
                witness = s
            if stable_witness is None and is_stable(g, candidate):
                stable_witness = s
        if witness is not None and (stable_witness is not None or not cross_check):
            break
    if cross_check and (witness is None) != (stable_witness is None):
        raise InvariantViolationError(
            f"superstability routes disagree on {tuple(config)}: "
            f"non-negative witness {witness}, stable witness {stable_witness}"
        )
    return witness is None, witness


def critical_representative(g: Digraph, config: Sequence[int]) -> IntVector:
    """The unique critical configuration equivalent to the input.

    Iterates reverse-fire-the-minimum-script-then-stabilize until the
    sequence repeats; the fixpoint is the class's critical configuration.
    """
    require_nonnegative(config)
    min_script = minimum_strong_script(g)
    lift = script_image(g, min_script)
    current = tuple(config)
    while True:
        following = stabilize(g, vec_add(current, lift)).stable
        if following == current:
            return current
        current = following


def superstable_representative(
    g: Digraph, config: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP
) -> IntVector:
    """The unique superstable configuration equivalent to the input.

    There is no direct iteration for this one; instead the critical set is
    enumerated, each complement against the maximum stable configuration is
    a superstable candidate, and the one linearly equivalent to the input
    is returned.
    """
    from .order import are_equivalent  # local import: order builds on this module

    require_nonnegative(config)
    top = c_max(g)
    for stable in enumerate_stable(g, cap):
        verdict, _ = is_critical_fixpoint(g, stable)
        if not verdict:
            continue
        candidate = vec_sub(top, stable)
        if are_equivalent(g, config, candidate):
            return candidate
    raise InvariantViolationError(
        f"no superstable configuration equivalent to {tuple(config)} was found"
    )


@dataclass(frozen=True)
class DualityReport:
    """Outcome of checking the critical/superstable complement bijection."""

    criticals: tuple[IntVector, ...]
    superstables: tuple[IntVector, ...]
    pairs: tuple[tuple[IntVector, IntVector], ...]
    holds: bool
    violations: tuple[dict, ...]


def duality_check(g: Digraph, cap: int = DEFAULT_ENUMERATION_CAP) -> DualityReport:
    """Verify that complementing against the maximum stable configuration
    is a bijection between the critical set and the superstable set.

    Enumerates every stable configuration (subject to the cap), classifies
    each with both recognizers, and reports the two sets, the pairing, and
    any violation found.
    """
    top = c_max(g)
    criticals: list[IntVector] = []
    superstables: list[IntVector] = []
    violations: list[dict] = []
    for stable in enumerate_stable(g, cap):
        if is_critical_fixpoint(g, stable)[0]:
            criticals.append(stable)
        if is_superstable(g, stable)[0]:
            superstables.append(stable)
    superstable_set = set(superstables)
    pairs = []
    for crit in criticals:
        dual = vec_sub(top, crit)
        pairs.append((crit, dual))
        if dual not in superstable_set:
            violations.append({"critical": crit, "complement": dual, "problem": "complement not superstable"})
    if len(criticals) != len(superstables):
        violations.append(
            {
                "problem": "set sizes differ",
                "criticals": len(criticals),
                "superstables": len(superstables),
            }
        )
    duals = {vec_sub(top, c) for c in criticals}
    for sup in superstables:
        if sup not in duals:
            violations.append({"superstable": sup, "problem": "not the complement of any critical"})
    return DualityReport(
        criticals=tuple(criticals),
        superstables=tuple(superstables),
        pairs=tuple(pairs),
        holds=not violations,
        violations=tuple(violations),
    )
