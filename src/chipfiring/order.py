"""Energy vectors, the energy order, equivalence classes, and chains.

The energy vector of a configuration is its row product with the inverse
reduced Laplacian; comparing energy vectors componentwise yields a partial
order on all configurations. Within each linear-equivalence class of stable
configurations the critical member is the unique maximum and the superstable
member the unique minimum of that order. Whether the order is total on each
class is an open question this module gathers evidence for.

Energies are computed as the integer vector ``c @ adj L``, which is
``det L`` times the energy, from the cached kernel
:func:`~chipfiring.digraph.laplacian_kernel`. Since ``det L > 0``, scaled
vectors compare exactly as energies do, and two configurations are
equivalent iff their scaled vectors agree modulo ``det L``. Fractions
appear only in the values handed back to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .digraph import Digraph, laplacian_kernel
from .dynamics import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_stable,
    is_stable,
    require_nonnegative,
    stabilize,
)
from .errors import InvariantViolationError, NotStableError
from .linalg import (
    IntVector,
    RationalVector,
    dominates,
    rational_to_str,
    times_adj,
    vec_add,
    vec_sub,
    weight,
)
from .recognition import is_superstable
from .scripts import minimum_strong_script, script_image

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"


def energy_vector(g: Digraph, config: Sequence[int]) -> RationalVector:
    """Exact energy vector: the configuration times the inverse Laplacian."""
    det, adj = laplacian_kernel(g)
    return tuple(Fraction(x, det) for x in times_adj(config, adj))


def _compare(ea: Sequence[int], eb: Sequence[int]) -> str:
    """The energy order on two energy vectors, exact or scaled by det L."""
    le, ge = dominates(eb, ea), dominates(ea, eb)
    if le and ge:
        return EQUAL
    if le:
        return LESS
    if ge:
        return GREATER
    return INCOMPARABLE


def cfg_compare(g: Digraph, a: Sequence[int], b: Sequence[int]) -> str:
    """Compare two configurations in the energy order.

    Returns one of "less", "equal", "greater", "incomparable". Works on
    arbitrary integer configurations, equivalent or not.
    """
    _, adj = laplacian_kernel(g)
    return _compare(times_adj(a, adj), times_adj(b, adj))


def are_equivalent(g: Digraph, a: Sequence[int], b: Sequence[int]) -> bool:
    """Linear equivalence: the difference is an integer row combination of
    the reduced Laplacian."""
    det, adj = laplacian_kernel(g)
    return all(x % det == 0 for x in times_adj(vec_sub(tuple(a), tuple(b)), adj))


@dataclass(frozen=True)
class ClassReport:
    """Summary of one linear-equivalence class of stable configurations.

    ``stable_members`` is sorted by energy when the energy order is total
    on the class, otherwise left in enumeration order. ``energies`` and
    ``weights`` are aligned with ``stable_members``.
    """

    representative: IntVector
    stable_members: tuple[IntVector, ...]
    critical: IntVector
    superstable: IntVector
    weights: tuple[int, ...]
    is_total_order: bool
    energies: tuple[RationalVector, ...]

    def as_json_dict(self) -> dict:
        return {
            "representative": list(self.representative),
            "members": [list(m) for m in self.stable_members],
            "weights": list(self.weights),
            "critical": list(self.critical),
            "superstable": list(self.superstable),
            "total_order": self.is_total_order,
            "energies": [[rational_to_str(x) for x in e] for e in self.energies],
        }


def partition_classes(g: Digraph, cap: int = DEFAULT_ENUMERATION_CAP) -> list[ClassReport]:
    """Group every stable configuration into its equivalence class.

    Classes are keyed by their critical representative (the fixpoint of
    reverse-fire-then-stabilize), which is canonical and order-free. The
    number of classes must equal det(laplacian); anything else raises
    InvariantViolationError. Reports are sorted by representative.
    """
    lift = script_image(g, minimum_strong_script(g))
    rep_cache: dict[IntVector, IntVector] = {}

    def representative_of(start: IntVector) -> IntVector:
        path = []
        current = start
        while current not in rep_cache:
            path.append(current)
            following = stabilize(g, vec_add(current, lift)).stable
            if following == current:
                rep_cache[current] = current
                break
            current = following
        rep = rep_cache[current]
        for visited in path:
            rep_cache[visited] = rep
        return rep

    groups: dict[IntVector, list[IntVector]] = {}
    for stable in enumerate_stable(g, cap):
        groups.setdefault(representative_of(stable), []).append(stable)

    det, adj = laplacian_kernel(g)
    if len(groups) != det:
        raise InvariantViolationError(
            f"found {len(groups)} classes of stable configurations, "
            f"the group order says {det}"
        )

    reports = []
    for rep in sorted(groups):
        members = groups[rep]
        scaled = {m: times_adj(m, adj) for m in members}
        total = _first_incomparable(members, scaled) is None
        if total:
            members = sorted(members, key=scaled.__getitem__)
        superstable = next((m for m in members if is_superstable(g, m)[0]), None)
        if superstable is None:
            raise InvariantViolationError(f"class of {rep} has no superstable member")
        reports.append(
            ClassReport(
                representative=rep,
                stable_members=tuple(members),
                critical=rep,
                superstable=superstable,
                weights=tuple(weight(m) for m in members),
                is_total_order=total,
                energies=tuple(tuple(Fraction(x, det) for x in scaled[m]) for m in members),
            )
        )
    return reports


def _first_incomparable(members, energies) -> Optional[tuple[IntVector, IntVector]]:
    """The first pair of members, in order, whose energies are incomparable."""
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if _compare(energies[members[i]], energies[members[j]]) == INCOMPARABLE:
                return members[i], members[j]
    return None


def linseq_chain(g: Digraph, config: Sequence[int]) -> list[IntVector]:
    """The reverse-fire-then-stabilize iteration from a stable start.

    Returns the sequence of distinct stable configurations visited, ending
    at the first fixpoint (the class's critical configuration). Each step
    is energy-greater-or-equal than the previous.
    """
    start = tuple(config)
    require_nonnegative(start)
    if not is_stable(g, start):
        raise NotStableError(f"configuration {start} has an active vertex")
    lift = script_image(g, minimum_strong_script(g))
    chain = [start]
    while True:
        following = stabilize(g, vec_add(chain[-1], lift)).stable
        if following == chain[-1]:
            return chain
        chain.append(following)


@dataclass(frozen=True)
class ClassOrderResult:
    representative: IntVector
    is_total_order: bool
    chain: Optional[tuple[IntVector, ...]]  # energy-sorted members when total
    incomparable_pair: Optional[tuple[IntVector, IntVector]]

    def as_json_dict(self) -> dict:
        return {
            "representative": list(self.representative),
            "total": self.is_total_order,
            "chain": [list(m) for m in self.chain] if self.chain is not None else None,
            "incomparable": (
                [list(self.incomparable_pair[0]), list(self.incomparable_pair[1])]
                if self.incomparable_pair is not None
                else None
            ),
        }


@dataclass(frozen=True)
class ConjectureScanReport:
    """Per-class totality verdicts for the energy order on one graph."""

    classes: tuple[ClassOrderResult, ...]
    all_total: bool

    def as_json_dict(self) -> dict:
        return {
            "all_total": self.all_total,
            "classes": [c.as_json_dict() for c in self.classes],
        }


def conjecture_scan(g: Digraph, cap: int = DEFAULT_ENUMERATION_CAP) -> ConjectureScanReport:
    """Test whether the energy order is total on every equivalence class.

    Evidence gathering only: reports the sorted chain for total classes and
    the first incomparable pair otherwise.
    """
    results = []
    for report in partition_classes(g, cap):
        if report.is_total_order:
            results.append(
                ClassOrderResult(
                    representative=report.representative,
                    is_total_order=True,
                    chain=report.stable_members,
                    incomparable_pair=None,
                )
            )
        else:
            energies = dict(zip(report.stable_members, report.energies))
            pair = _first_incomparable(list(report.stable_members), energies)
            results.append(
                ClassOrderResult(
                    representative=report.representative,
                    is_total_order=False,
                    chain=None,
                    incomparable_pair=pair,
                )
            )
    return ConjectureScanReport(
        classes=tuple(results), all_total=all(r.is_total_order for r in results)
    )
