"""Independent brute-force reference implementations.

Everything here re-derives verdicts from definitions by exhaustive search,
sharing as little machinery with the primary recognizers as possible (only
``apply_script`` and ``is_stable``, plus the exact-arithmetic substrate,
whose (det, adj) kernel :func:`cross_check` verifies on every graph).
Agreement between these oracles and the primary routes on small graphs is
the package's main line of defense.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .digraph import Digraph, laplacian_kernel
from .dynamics import (
    DEFAULT_ENUMERATION_CAP,
    apply_script,
    c_max,
    enumerate_stable,
    is_stable,
)
from .errors import (
    EnumerationCapExceededError,
    InvariantViolationError,
    NotStableError,
    SearchBoundExceededError,
)
from .linalg import IntVector, dominates, times_adj, vec_sub
from .recognition import is_critical_bounded, is_critical_fixpoint, is_superstable
from .scripts import is_g_strongly_positive, minimum_strong_script, strong_script_from_inverse

DEFAULT_SEARCH_CAP = 10**6


def determinant_cofactor(m: Sequence[Sequence[int]]) -> int:
    """Determinant by recursive cofactor expansion along the first row.

    Deliberately naive; cross-checks the elimination-based determinant.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [list(row[:j]) + list(row[j + 1:]) for row in m[1:]]
        total += (-1) ** j * m[0][j] * determinant_cofactor(minor)
    return total


def oracle_critical_energy_max(
    g: Digraph, config: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Criticality via the energy-maximum characterization.

    True iff the input is the energy-order maximum among all stable
    configurations equivalent to it, by full enumeration and pairwise
    comparison. No use of the minimum script or fixpoint iteration.
    """
    start = tuple(config)
    if not is_stable(g, start):
        raise NotStableError(f"configuration {start} has an active vertex")
    # energies scaled by det L > 0: same order, equivalent iff congruent mod det
    det, adj = laplacian_kernel(g)
    own = times_adj(start, adj)
    for other in enumerate_stable(g, cap):
        energy = times_adj(other, adj)
        if all((x - y) % det == 0 for x, y in zip(energy, own)) and not dominates(own, energy):
            return False
    return True


def oracle_superstable_box(
    g: Digraph, config: Sequence[int], k: int = 1, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Superstability by scanning the k-times-enlarged script box.

    True iff no non-zero script up to k times the minimum strongly positive
    script can be fired from the input without leaving a negative entry.
    Enlarging the box beyond k=1 must never change the verdict; that is part
    of what the oracle suite checks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = tuple(k * x for x in oracle_min_strong_script(g))
    size = 1
    for b in bound:
        size *= b + 1
    if size > cap:
        raise EnumerationCapExceededError(size, cap)
    for script in product(*[range(b + 1) for b in bound]):
        if not any(script):
            continue
        if all(x >= 0 for x in apply_script(g, config, script)):
            return False
    return True


def _scripts_of_weight(total: int, bounds: Sequence[int]):
    """Vectors s with 1 <= s_i <= bounds[i] and sum(s) = total, lex order."""
    n = len(bounds)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + bounds[i]

    def rec(i, remaining, prefix):
        if i == n - 1:
            if 1 <= remaining <= bounds[i]:
                yield prefix + (remaining,)
            return
        lo = max(1, remaining - suffix_max[i + 1])
        hi = min(bounds[i], remaining - (n - 1 - i))
        for v in range(lo, hi + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    yield from rec(0, total, ())


def oracle_min_strong_script(
    g: Digraph, cap: int = DEFAULT_SEARCH_CAP, verify_minimality: bool = True
) -> IntVector:
    """The minimum strongly positive script, by bounded brute force.

    Searches scripts in increasing weight order (every strongly positive
    script is at least all-ones, and is bounded by the inverse-route
    script), takes the first hit, and then verifies it is the unique
    containment minimum by sweeping every in-bound script that fails to
    dominate it. Raises SearchBoundExceededError when the sweep region is
    larger than ``cap``, InvariantViolationError when uniqueness or
    minimality fails. ``verify_minimality=False`` skips the sweep and keeps
    only the weight-first search (weight minimality is still a real check:
    the true containment minimum is weight-minimal and unique there).
    """
    bound = strong_script_from_inverse(g)
    n = g.n
    found: list[IntVector] = []
    for total in range(n, sum(bound) + 1):
        for script in _scripts_of_weight(total, bound):
            if is_g_strongly_positive(g, script):
                found.append(script)
        if found:
            break
    if not found:
        raise InvariantViolationError("no strongly positive script within the inverse-route bound")
    if len(found) > 1:
        raise InvariantViolationError(
            f"weight-minimal strongly positive script is not unique: {found}"
        )
    minimum = found[0]
    if not verify_minimality:
        return minimum

    # sweep every script with some coordinate below the candidate minimum
    region_size = 0
    for i in range(n):
        if minimum[i] <= 1:
            continue
        size = minimum[i] - 1
        for j in range(i):
            size *= bound[j] - minimum[j] + 1
        for j in range(i + 1, n):
            size *= bound[j]
        region_size += size
    if region_size > cap:
        raise SearchBoundExceededError(
            f"minimality sweep needs {region_size} scripts, cap is {cap}"
        )
    for i in range(n):
        if minimum[i] <= 1:
            continue
        ranges = (
            [range(minimum[j], bound[j] + 1) for j in range(i)]
            + [range(1, minimum[i])]
            + [range(1, bound[j] + 1) for j in range(i + 1, n)]
        )
        for script in product(*ranges):
            if is_g_strongly_positive(g, script):
                raise InvariantViolationError(
                    f"{script} is strongly positive but does not dominate {minimum}"
                )
    return minimum


@dataclass(frozen=True)
class CrossCheckReport:
    """Agreement summary of all criticality routes on one graph."""

    sigma_min: IntVector
    oracle_sigma_min: IntVector
    stable_checked: int
    disagreements: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements and self.sigma_min == self.oracle_sigma_min

    def as_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "sigma_min": list(self.sigma_min),
            "oracle_sigma_min": list(self.oracle_sigma_min),
            "stable_checked": self.stable_checked,
            "disagreements": list(self.disagreements),
        }


def cross_check(g: Digraph, cap: int = DEFAULT_ENUMERATION_CAP) -> CrossCheckReport:
    """Run every criticality route on every stable configuration.

    The four routes are: the fixpoint test, the bounded box test, the
    energy-maximum characterization (computed here from scratch, on
    energies scaled by det L), and superstability of the complement. Any
    disagreement is reported with full evidence; the minimum-script greedy
    is checked against the brute-force search as well, and the (det, adj)
    kernel against ``adj @ L == det * I`` and the class count ``det L``.
    """
    smin = minimum_strong_script(g)
    try:
        oracle_smin = oracle_min_strong_script(g)
    except SearchBoundExceededError:
        # minimality sweep infeasible on this graph; the weight-first search
        # alone still cross-checks the greedy output
        oracle_smin = oracle_min_strong_script(g, verify_minimality=False)
    disagreements: list[dict] = []
    if smin != oracle_smin:
        disagreements.append(
            {"kind": "sigma_min", "greedy": list(smin), "oracle": list(oracle_smin)}
        )

    # energies scaled by det L, the kernel checked by its defining identity
    det, adj = laplacian_kernel(g)
    lap = g.reduced_laplacian_rows
    if any(times_adj(row, adj) != tuple(det * (i == j) for j in range(g.n)) for i, row in enumerate(lap)):
        disagreements.append({"kind": "kernel", "det": det, "laplacian": [list(r) for r in lap]})
    stables = list(enumerate_stable(g, cap))
    energies = {s: times_adj(s, adj) for s in stables}

    # group into classes by the energy vector modulo det L (its fractional part)
    classes: dict[tuple, list[IntVector]] = {}
    for s in stables:
        key = tuple(x % det for x in energies[s])
        classes.setdefault(key, []).append(s)
    if len(classes) != det:
        disagreements.append({"kind": "class_count", "classes": len(classes), "det": det})

    energy_max: dict[IntVector, bool] = {}
    for members in classes.values():
        maxima = [m for m in members if all(dominates(energies[m], energies[t]) for t in members)]
        if len(maxima) != 1:
            disagreements.append(
                {
                    "kind": "energy_max_not_unique",
                    "members": [list(m) for m in members],
                    "maxima": [list(m) for m in maxima],
                }
            )
        for m in members:
            energy_max[m] = m in maxima

    top = c_max(g)
    for s in stables:
        try:
            routes = {
                "fixpoint": is_critical_fixpoint(g, s)[0],
                "bounded": is_critical_bounded(g, s)[0],
                "energy_max": energy_max[s],
                "dual_superstable": is_superstable(g, vec_sub(top, s))[0],
            }
        except InvariantViolationError as exc:
            disagreements.append({"kind": "invariant", "config": list(s), "detail": str(exc)})
            continue
        if len(set(routes.values())) != 1:
            disagreements.append({"kind": "verdict", "config": list(s), "routes": routes})

    return CrossCheckReport(
        sigma_min=smin,
        oracle_sigma_min=oracle_smin,
        stable_checked=len(stables),
        disagreements=tuple(disagreements),
    )
