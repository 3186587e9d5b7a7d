"""Tests of the benchmark's own machinery (tracer, inputs, output checks)."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import chipfiring  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def test_tracer_self_time_of_nested_calls():
    # outer starts at 0, inner runs from 2 to 5, outer ends at 10
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    inner = t.wrap(lambda: None, "linalg", "order", "inner")

    def outer_body():
        inner()

    outer = t.wrap(outer_body, "order", tr.BENCH, "outer")
    outer()
    assert t.layers["order"] == [1, 10.0, 3.0]
    assert t.self_seconds("order") == 7.0
    assert t.self_seconds("linalg") == 3.0
    metrics = t.metrics(wall_s=20.0, untraced_s=10.0, cache_hits=3, cache_lookups=4)
    assert metrics["order.share"] == (0.35, "ratio")
    assert metrics["linalg.calls"] == (1, "count")
    assert metrics["trace.overhead"] == (2.0, "ratio")
    assert metrics["cache.hit_ratio"] == (0.75, "ratio")


def test_tracer_install_counts_boundary_calls_and_uninstalls():
    original = chipfiring.stabilize
    t = tr.Tracer()
    t.install()
    try:
        assert chipfiring.stabilize is not original
        g = chipfiring.random_digraph(3, 2, 1)
        result = chipfiring.stabilize(g, (5, 5, 5))
        _, restabilized = chipfiring.is_critical_fixpoint(g, result.stable)
    finally:
        t.uninstall()
    assert chipfiring.stabilize is original
    assert t.firings == sum(result.script) + sum(restabilized)
    assert t.calls("dynamics") >= 2  # the benchmark's call and recognition's
    assert t.calls("recognition") == 1
    assert t.edge_calls("recognition", ("stabilize",)) == 1


def first_round_inputs(workload, seed, tmp_path):
    streams = wl.prepare(workload, seed, tmp_path / workload, wl.CacheSet())
    return [item.inputs for item in next(streams())]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload, tmp_path):
    first = first_round_inputs(workload, 3, tmp_path)
    assert first == first_round_inputs(workload, 3, tmp_path)
    assert first != first_round_inputs(workload, 4, tmp_path)


def cheap_stabilize_item():
    return wl.stabilize_item("grid16-uniform", 0, {16: wl.grid_sandpile(16)})


def one_item_stream(item):
    while True:
        yield [item]


def test_output_check_rejects_tampered_results():
    item = cheap_stabilize_item()
    stable, script = item.call()
    tampered = item._replace(call=lambda: (stable, tuple(k + 1 for k in script)))
    outcome = wl.run_rounds(one_item_stream(tampered), {}, rounds=2)
    assert outcome.attempted == 2 and len(outcome.failures) == 2
    assert "config - script" in outcome.failures[0]

    # an output that passes the invariants but not the recorded digest
    digests = {item.key: "0" * 16}
    outcome = wl.run_rounds(one_item_stream(item), digests, rounds=1)
    assert outcome.failures == [f"{item.key}: output differs from the recorded reference"]
    assert wl.run_rounds(one_item_stream(item), {}, rounds=1).failures == []


def test_calibration_scales_by_the_kernel_time_around_each_item():
    ref = calibrate.REFERENCE_MS / 1000
    # the host runs the kernel at the reference speed, then at half of it;
    # the third item straddles the change
    probes = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    latencies = [0.1, 0.1, 0.15, 0.2, 0.2]
    assert calibrate.scaled(latencies, probes) == pytest.approx([0.1] * 5)


def test_probed_run_times_the_kernel_around_every_item():
    outcome = wl.run_rounds(one_item_stream(cheap_stabilize_item()), {}, rounds=3, probe=lambda: 0.5)
    assert outcome.probes == [0.5] * 4
    assert len(outcome.scaled_latencies()) == 3


def test_failing_item_is_counted_not_fatal():
    item = cheap_stabilize_item()
    broken = item._replace(call=lambda: chipfiring.stabilize(None, ()))
    outcome = wl.run_rounds(one_item_stream(broken), {}, rounds=1)
    assert outcome.attempted == 1 and outcome.failures[0].startswith(f"{item.key}: raised")


@pytest.mark.parametrize("n, seed", [(4, 1), (12, 2), (20, 3)])
def test_scaled_inverse_inverts_the_laplacian(n, seed):
    lap = wl.laplacian(chipfiring.random_digraph(n, 3, seed))
    d, e = wl.scaled_inverse(lap)
    assert abs(d) == abs(wl.exact_det(lap))
    assert [wl.row_times(row, lap) for row in e] == [[d * (i == j) for j in range(n)] for i in range(n)]


def test_classes_check_rejects_a_wrong_energy(tmp_path):
    s = wl.cli_universe("classes", wl.load_reference("classes"))[0]
    item = wl.cli_item("classes", s, wl.write_graph_files("classes", [s], tmp_path)[s], wl.CacheSet())
    code, text = item.run()
    g = chipfiring.random_digraph(*wl.CLI_SHAPES["classes"], s)
    assert wl.classes_invariant(g, (code, text)) is None
    doc = json.loads(text)
    energy = doc["classes"][0]["energies"][0]
    energy[0] = "0" if energy[0] == "1/1000003" else "1/1000003"
    assert "times L is not the member" in wl.classes_invariant(g, (code, json.dumps(doc)))


def test_algebra_check_rejects_wrong_verdicts():
    g = chipfiring.random_digraph(6, 3, 1)
    lap = wl.laplacian(g)
    inv = wl.scaled_inverse(lap)
    a, b = (0,) * g.n, tuple(d - 1 for d in wl.out_degrees(g))
    out = wl.algebra_query(g, a, b)
    assert wl.algebra_invariant(g, lap, wl.exact_det(lap), inv, a, b, out) is None
    sigma, det, energy, eq_ab, cmp_ab, chain = out
    flipped = (sigma, det, energy, not eq_ab, cmp_ab, chain)
    assert "are_equivalent" in wl.algebra_invariant(g, lap, det, inv, a, b, flipped)
    wrong = "equal" if cmp_ab != "equal" else "less"
    reordered = (sigma, det, energy, eq_ab, wrong, chain)
    assert "cfg_compare" in wl.algebra_invariant(g, lap, det, inv, a, b, reordered)
