import random

import pytest

import chipfiring.scripts
from chipfiring import (
    InvariantViolationError,
    NegativeScriptError,
    build_digraph,
    greedy_script_steps,
    is_g_positive,
    is_g_strongly_positive,
    minimum_strong_script,
    oracle_min_strong_script,
    random_digraph,
    strong_script_from_inverse,
)
from chipfiring.linalg import dominates, ones
from chipfiring.scripts import scaled_script, script_image


def test_is_g_positive(g2):
    assert is_g_positive(g2, (1, 2, 1, 1))
    assert not is_g_positive(g2, (1, 1, 1, 1))  # image (4,-2,1,0)
    assert not is_g_positive(g2, (0, 0, 0, 0))


def test_negative_script_rejected(g2):
    with pytest.raises(NegativeScriptError):
        is_g_positive(g2, (1, -1, 0, 0))
    with pytest.raises(NegativeScriptError):
        is_g_strongly_positive(g2, (-1, 0, 0, 0))


def test_g_positive_but_not_strongly(g2):
    # firing only the sink-adjacent tail moves chips without touching the
    # source component
    script = (0, 0, 0, 1)
    assert script_image(g2, script) == (0, 0, 0, 2)
    assert is_g_positive(g2, script)
    assert not is_g_strongly_positive(g2, script)


def test_is_g_strongly_positive(g1, g2, g3):
    assert is_g_strongly_positive(g2, (1, 2, 1, 1))
    assert is_g_strongly_positive(g3, (3, 1))
    assert is_g_strongly_positive(g1, (1,))


def test_minimum_strong_script_values(g1, g2, g3):
    assert minimum_strong_script(g2) == (1, 2, 1, 1)
    assert minimum_strong_script(g1) == (1,)
    assert minimum_strong_script(g3) == (3, 1)


def test_greedy_trace_g2(g2):
    steps = greedy_script_steps(g2)
    assert steps == [
        ((1, 1, 1, 1), (4, -2, 1, 0)),
        ((1, 2, 1, 1), (3, 0, 0, 0)),
    ]


def test_greedy_trace_g3(g3):
    steps = greedy_script_steps(g3)
    assert steps == [
        ((1, 1), (-3, 4)),
        ((2, 1), (-1, 2)),
        ((3, 1), (1, 0)),
    ]


def test_strong_script_from_inverse(g1, g2, g3):
    assert strong_script_from_inverse(g1) == (1,)
    assert strong_script_from_inverse(g2) == (12, 42, 30, 30)
    assert script_image(g2, (12, 42, 30, 30)) == (18, 18, 18, 18)
    assert strong_script_from_inverse(g3) == (11, 4)
    assert script_image(g3, (11, 4)) == (2, 2)


def test_strong_script_from_inverse_post_check_raises(monkeypatch):
    # a kernel whose column sums are not strongly positive must not pass
    monkeypatch.setattr(chipfiring.scripts, "laplacian_kernel", lambda g: (1, ((0,),)))
    strong_script_from_inverse.cache_clear()
    with pytest.raises(InvariantViolationError):
        strong_script_from_inverse(build_digraph(1, 2, [(1, 2, 3)]))


def test_scaling_preserves_strong_positivity(g2, g3):
    for g in (g2, g3):
        base = minimum_strong_script(g)
        for m in (1, 2, 3, 7):
            assert is_g_strongly_positive(g, scaled_script(base, m))


def test_minimum_script_dominates_ones_on_fuzzed_graphs():
    for seed in range(60):
        g = random_digraph(1 + seed % 4, 3, seed)
        smin = minimum_strong_script(g)
        assert dominates(smin, ones(g.n))
        assert is_g_strongly_positive(g, smin)
        assert dominates(strong_script_from_inverse(g), smin)


def test_greedy_is_increment_order_insensitive():
    # replay the greedy with different choice policies; all must agree
    from chipfiring.linalg import row_times_matrix

    def greedy(g, pick):
        rows = g.reduced_laplacian_rows
        script = [1] * g.n
        image = list(row_times_matrix(script, rows))
        while True:
            negative = [j for j in range(g.n) if image[j] < 0]
            if not negative:
                return tuple(script)
            j = pick(negative)
            script[j] += 1
            for k in range(g.n):
                image[k] += rows[j][k]

    rng = random.Random(3)
    for seed in range(40):
        g = random_digraph(1 + seed % 4, 3, seed + 500)
        lowest = greedy(g, lambda neg: neg[0])
        highest = greedy(g, lambda neg: neg[-1])
        randomized = greedy(g, rng.choice)
        assert lowest == highest == randomized == minimum_strong_script(g)


def test_greedy_agrees_with_brute_force_on_fuzzed_graphs():
    for seed in range(30):
        g = random_digraph(1 + seed % 3, 2, seed + 900)
        assert minimum_strong_script(g) == oracle_min_strong_script(g)
