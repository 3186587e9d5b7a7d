import pytest

import chipfiring.oracle
from chipfiring import (
    EnumerationCapExceededError,
    NotStableError,
    cross_check,
    determinant_cofactor,
    oracle_critical_energy_max,
    oracle_min_strong_script,
    oracle_superstable_box,
    laplacian_kernel,
    random_digraph,
    reduced_laplacian,
)


def test_determinant_cofactor(g2, g3):
    assert determinant_cofactor(reduced_laplacian(g2)) == 18
    assert determinant_cofactor(reduced_laplacian(g3)) == 2
    assert determinant_cofactor([[3, 1], [4, 2]]) == 2


def test_oracle_critical_energy_max(g1, g2):
    assert oracle_critical_energy_max(g2, (3, 1, 1, 0))
    assert not oracle_critical_energy_max(g2, (4, 0, 0, 1))
    assert oracle_critical_energy_max(g1, (1,))
    with pytest.raises(NotStableError):
        oracle_critical_energy_max(g2, (6, 1, 1, 0))


def test_oracle_superstable_box(g2, g3):
    assert not oracle_superstable_box(g3, (0, 3), k=1)
    assert oracle_superstable_box(g2, (1, 0, 0, 1), k=2)
    assert oracle_superstable_box(g2, (0, 0, 0, 0), k=1)


def test_oracle_superstable_box_stable_under_enlargement(g2, g3):
    for g, configs in [(g2, [(1, 0, 0, 1), (4, 0, 0, 1), (0, 0, 0, 0)]), (g3, [(0, 3), (0, 1), (1, 5)])]:
        for config in configs:
            verdicts = {k: oracle_superstable_box(g, config, k=k) for k in (1, 2, 3)}
            assert len(set(verdicts.values())) == 1


def test_oracle_superstable_box_cap(g2):
    with pytest.raises(EnumerationCapExceededError):
        oracle_superstable_box(g2, (1, 0, 0, 1), k=3, cap=5)


def test_oracle_min_strong_script(g1, g2, g3):
    assert oracle_min_strong_script(g2) == (1, 2, 1, 1)
    assert oracle_min_strong_script(g1) == (1,)
    assert oracle_min_strong_script(g3) == (3, 1)


def test_cross_check_reference_graphs(g1, g2, g3):
    for g, expected_stable in [(g1, 2), (g2, 40), (g3, 12)]:
        report = cross_check(g)
        assert report.ok
        assert report.stable_checked == expected_stable
        assert report.sigma_min == report.oracle_sigma_min
        assert report.disagreements == ()


def test_cross_check_reports_a_wrong_kernel(g2, monkeypatch):
    det, adj = laplacian_kernel(g2)
    monkeypatch.setattr(chipfiring.oracle, "laplacian_kernel", lambda g: (2 * det, adj))
    report = cross_check(g2)
    assert not report.ok
    assert {"kernel", "class_count"} <= {d["kind"] for d in report.disagreements}


def test_cross_check_fuzzed_graphs():
    for seed in range(40):
        g = random_digraph(1 + seed % 4, 3, seed + 7000)
        report = cross_check(g)
        assert report.ok, (seed, g.arcs, report.as_json_dict())
