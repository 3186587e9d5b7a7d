import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfiring import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    NotStableError,
    apply_script,
    are_equivalent,
    cfg_compare,
    conjecture_scan,
    critical_representative,
    energy_vector,
    linseq_chain,
    partition_classes,
    random_digraph,
    reduced_laplacian,
    solve_left,
    stabilize,
)
from chipfiring.dynamics import enumerate_stable
from chipfiring.linalg import is_integral

F = Fraction


def test_energy_vector_values(g2, g3):
    assert energy_vector(g2, (1, 0, 0, 1)) == (F(1, 3), F(2, 3), F(1, 3), F(5, 6))
    assert energy_vector(g2, (0, 0, 0, 0)) == (0, 0, 0, 0)
    assert energy_vector(g3, (0, 3)) == (F(15, 2), F(3))


def test_cfg_compare_reference(g2):
    assert cfg_compare(g2, (1, 0, 0, 1), (0, 1, 1, 0)) == LESS
    assert cfg_compare(g2, (0, 1, 1, 0), (1, 0, 0, 1)) == GREATER
    assert cfg_compare(g2, (1, 0, 0, 0), (0, 1, 0, 0)) == INCOMPARABLE
    assert cfg_compare(g2, (2, 1, 0, 1), (2, 1, 0, 1)) == EQUAL


def test_are_equivalent(g2, g3):
    assert are_equivalent(g2, (1, 0, 0, 1), (3, 1, 1, 0))
    assert not are_equivalent(g3, (1, 5), (1, 4))
    assert are_equivalent(g3, (0, 0), (0, 2))
    assert are_equivalent(g2, (5, -2, 3, 0), (5, -2, 3, 0))


def test_partition_classes_g2(g2):
    reports = partition_classes(g2)
    assert len(reports) == 18
    by_member = {m: r for r in reports for m in r.stable_members}
    target = by_member[(1, 0, 0, 1)]
    assert set(target.stable_members) == {(1, 0, 0, 1), (0, 1, 1, 0), (4, 0, 0, 1), (3, 1, 1, 0)}
    assert target.critical == (3, 1, 1, 0)
    assert target.superstable == (1, 0, 0, 1)
    assert target.is_total_order
    # members sorted by energy
    assert target.stable_members == ((1, 0, 0, 1), (0, 1, 1, 0), (4, 0, 0, 1), (3, 1, 1, 0))
    # every stable configuration appears exactly once
    seen = [m for r in reports for m in r.stable_members]
    assert len(seen) == 40 and len(set(seen)) == 40


def test_partition_classes_g1_g3(g1, g3):
    assert [r.stable_members for r in partition_classes(g1)] == [((0,),), ((1,),)]
    reports = partition_classes(g3)
    assert len(reports) == 2
    assert all(len(r.stable_members) == 6 for r in reports)
    for r in reports:
        parities = {m[1] % 2 for m in r.stable_members}
        assert len(parities) == 1  # keyed by parity of the second coordinate


def test_class_report_invariants(g2):
    for report in partition_classes(g2):
        assert report.critical in report.stable_members
        assert report.superstable in report.stable_members
        assert report.weights == tuple(sum(m) for m in report.stable_members)
        for m in report.stable_members:
            assert are_equivalent(g2, report.representative, m)


def test_linseq_chain_reference(g2, g3):
    assert linseq_chain(g2, (1, 0, 0, 1)) == [(1, 0, 0, 1), (4, 0, 0, 1), (3, 1, 1, 0)]
    assert linseq_chain(g2, (3, 1, 1, 0)) == [(3, 1, 1, 0)]
    assert linseq_chain(g3, (0, 3)) == [(0, 3), (1, 3), (0, 5), (1, 5)]


def test_linseq_chain_preconditions(g2):
    with pytest.raises(NotStableError):
        linseq_chain(g2, (6, 1, 1, 0))


def test_linseq_chain_is_strictly_increasing_and_ends_critical(g2, g3):
    for g in (g2, g3):
        for start in enumerate_stable(g):
            chain = linseq_chain(g, start)
            assert chain[-1] == critical_representative(g, start)
            for a, b in zip(chain, chain[1:]):
                assert cfg_compare(g, a, b) == LESS


def test_conjecture_scan_reference(g1, g2, g3):
    assert conjecture_scan(g1).all_total
    report = conjecture_scan(g2)
    assert report.all_total
    chains = {r.representative: r.chain for r in report.classes}
    assert chains[(3, 1, 1, 0)] == ((1, 0, 0, 1), (0, 1, 1, 0), (4, 0, 0, 1), (3, 1, 1, 0))
    report3 = conjecture_scan(g3)
    assert report3.all_total
    odd_chain = next(r.chain for r in report3.classes if r.representative == (1, 5))
    assert odd_chain == ((0, 1), (1, 1), (0, 3), (1, 3), (0, 5), (1, 5))


def test_conjecture_scan_finds_non_total_classes():
    # fuzzing turned up this 4-vertex graph (two 2-cycles, one feeding the
    # other, every vertex draining to the sink) on which the energy order is
    # NOT total: (0,0,0,2) and (0,4,1,0) are stable, equivalent (their
    # difference is (1,-1,-1,1) times the laplacian), with incomparable
    # energies (2,0,0,2) vs (1,1,1,1)
    from chipfiring import build_digraph, cross_check

    g = build_digraph(
        4, 5, [(1, 4, 2), (1, 5, 1), (2, 3, 3), (2, 4, 1), (2, 5, 3), (3, 2, 3), (3, 5, 1), (4, 1, 3)]
    )
    a, b = (0, 0, 0, 2), (0, 4, 1, 0)
    assert are_equivalent(g, a, b)
    assert energy_vector(g, a) == (2, 0, 0, 2)
    assert energy_vector(g, b) == (1, 1, 1, 1)
    assert cfg_compare(g, a, b) == INCOMPARABLE
    report = conjecture_scan(g)
    assert not report.all_total
    bad = next(r for r in report.classes if r.representative == (0, 4, 1, 2))
    assert not bad.is_total_order
    assert bad.chain is None
    assert bad.incomparable_pair == (a, b)
    # totality is the only casualty: every recognizer route still agrees
    assert cross_check(g).ok


# --- order axioms ----------------------------------------------------------

configs4 = st.tuples(*[st.integers(min_value=-12, max_value=12)] * 4)


@given(configs4, configs4)
@settings(max_examples=150, deadline=None)
def test_order_antisymmetric(a, b):
    from chipfiring import from_reduced_laplacian

    g = from_reduced_laplacian(((5, -3, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, 0, 2)))
    if cfg_compare(g, a, b) in (LESS, EQUAL) and cfg_compare(g, b, a) in (LESS, EQUAL):
        assert a == b


@given(configs4, configs4, configs4)
@settings(max_examples=150, deadline=None)
def test_order_transitive(a, b, c):
    from chipfiring import from_reduced_laplacian

    g = from_reduced_laplacian(((5, -3, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, 0, 2)))
    if cfg_compare(g, a, b) in (LESS, EQUAL) and cfg_compare(g, b, c) in (LESS, EQUAL):
        assert cfg_compare(g, a, c) in (LESS, EQUAL)


@given(configs4)
@settings(max_examples=50, deadline=None)
def test_order_reflexive(a):
    from chipfiring import from_reduced_laplacian

    g = from_reduced_laplacian(((5, -3, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, 0, 2)))
    assert cfg_compare(g, a, a) == EQUAL


def test_equivalent_and_comparable_gives_unique_nonnegative_script(g2):
    from chipfiring import reduced_laplacian
    from chipfiring.linalg import vec_sub

    lap = reduced_laplacian(g2)
    pairs = [((1, 0, 0, 1), (3, 1, 1, 0)), ((1, 0, 0, 1), (4, 0, 0, 1)), ((0, 1, 1, 0), (3, 1, 1, 0))]
    for low, high in pairs:
        assert cfg_compare(g2, low, high) == LESS
        script = solve_left(vec_sub(high, low), lap)
        assert is_integral(script)
        assert all(x >= 0 for x in script)


def test_accessibility_is_suborder(g2):
    # a legal sequence a -> b means b is energy-below a
    rng = random.Random(11)
    for _ in range(30):
        config = tuple(rng.randint(0, 8) for _ in range(4))
        stable, script = stabilize(g2, config)
        assert cfg_compare(g2, stable, config) in (LESS, EQUAL)


def test_stabilization_never_raises_energy(g2):
    # a >= (CFG) its stabilization for every non-negative a
    rng = random.Random(13)
    for _ in range(40):
        config = tuple(rng.randint(0, 10) for _ in range(4))
        stable, _ = stabilize(g2, config)
        assert cfg_compare(g2, config, stable) in (GREATER, EQUAL)


def _fraction_inverse(m):
    """Gauss-Jordan inverse over Fractions, independent of the package kernel."""
    n = len(m)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        p = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[p] = a[p], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@pytest.mark.parametrize("seed", range(12))
def test_compare_and_equivalence_agree_with_fractions(seed):
    rng = random.Random(seed)
    g = random_digraph(rng.randint(2, 7), rng.randint(1, 3), seed)
    inv = _fraction_inverse(reduced_laplacian(g))

    def energy(c):
        return [sum(x * row[j] for x, row in zip(c, inv)) for j in range(g.n)]

    def order(ea, eb):
        le = all(x <= y for x, y in zip(ea, eb))
        ge = all(x >= y for x, y in zip(ea, eb))
        return EQUAL if le and ge else LESS if le else GREATER if ge else INCOMPARABLE

    configs = [tuple(rng.randint(-3, d + 2) for d in g.out_degrees) for _ in range(12)]
    # equivalent by construction: fire an integer script from a config
    for c in configs[:4]:
        configs.append(apply_script(g, c, [rng.randint(-2, 2) for _ in range(g.n)]))
    for a in configs:
        assert energy_vector(g, a) == tuple(energy(a))
        for b in configs:
            diff = energy([x - y for x, y in zip(a, b)])
            assert are_equivalent(g, a, b) == all(x.denominator == 1 for x in diff)
            assert cfg_compare(g, a, b) == order(energy(a), energy(b))
