"""The tracer sees nested calls through every binding, and its counts
are exact on fixed inputs.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

import rigidlab
from rigidlab import admissibility, linalg, pins, rigidity
import run
import workloads
from tracer import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _framework(g, tag):
    return rigidlab.Framework(
        g, rigidlab.random_config(3, g.vertex_count, rigidlab.subrng(0, tag, 0)))


@pytest.mark.parametrize("graph, ranks", [
    (rigidlab.Graph.complete(5).without_edges([(4, 5)]), 10),  # isostatic: E + 1
    (rigidlab.Graph.complete(5), 2),                            # over-braced
    (rigidlab.double_banana(), 1),                              # flexible
])
def test_analyze_rank_calls(graph, ranks):
    fw = _framework(graph, "tracer-test")
    with Tracer() as tracer:
        rigidlab.analyze(fw)
    s = tracer.summary()
    assert s.calls["rigidity.analyze"] == 1
    assert s.count_under("linalg.rank", "rigidity.analyze") == ranks
    assert s.calls["linalg.rank"] == ranks
    assert s.count_under("linalg._rref_exact", "linalg.rank", direct=True) == ranks
    # trivial_motion_space is imported into rigidity by name.
    assert s.count_under("motions.trivial_motion_space", "rigidity.analyze",
                         direct=True) == 1
    cols = 3 * graph.vertex_count
    first = graph.edge_count * cols
    expected_cells = first + (ranks - 1) * (graph.edge_count - 1) * cols
    assert s.work["linalg.rank"] == expected_cells


def test_directly_imported_names_are_traced():
    p = rigidlab.random_general_config(3, 5, 0, "tracer-test", bound=1000)
    space = rigidlab.single_vertex_space(p)
    x = rigidlab.sampling.random_exact_vector(3, rigidlab.subrng(0, "tracer-x", 0))
    with Tracer() as tracer:
        admissibility.pin_mismatch_map(p, space, x)
    s = tracer.summary()
    # Two pin blocks, each inverted once, and two velocities per motion.
    assert s.count_under("linalg.invert", "pins.PinContext", direct=True) == 2
    assert s.count_under("pins.pin_velocity", "admissibility.pin_mismatch_map",
                         direct=True) == 2 * space.dim


def test_bindings_restored():
    originals = (linalg.rank, pins.pin_velocity, rigidlab.analyze,
                 linalg.Subspace.__dict__["from_spanning"])
    with Tracer():
        assert admissibility.pin_velocity is not originals[1]
        assert rigidlab.analyze is not originals[2]
    assert (linalg.rank, admissibility.pin_velocity, rigidlab.analyze,
            linalg.Subspace.__dict__["from_spanning"]) == originals
    assert rigidity.linalg.rank is originals[0]


def test_self_times_partition_root_spans():
    fw = _framework(rigidlab.double_banana(), "tracer-self")
    with Tracer() as tracer:
        rigidlab.implied_pairs(fw.graph, combinations(range(1, 9), 2), 3, 0)
        rigidlab.analyze(fw)
    s = tracer.summary()
    # rigidity calls linalg._rref_exact through the module, not through rank.
    assert s.count_under("linalg._rref_exact", "rigidity.implied_pairs",
                         direct=True) > 0
    roots = sum(tracer.end[i] - tracer.start[i]
                for i in range(len(tracer)) if tracer.parent[i] < 0)
    assert sum(s.self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert all(v >= 0 for v in s.self_s.values())


def test_counts_repeat_exactly():
    def counts():
        deck = workloads.build("five-point", 0)
        with Tracer() as tracer:
            for query in deck[0][:2]:
                assert all(ok for _, _, ok in query.run([]))
        s = tracer.summary()
        return dict(s.calls), dict(s.work)

    assert counts() == counts()


def test_metric_names_match_benchmark_json():
    deck = workloads.build("frameworks", 0)
    untraced = run.Loop()
    untraced.run_pass(deck[0][:2])
    traced = run.Loop()
    with Tracer() as tracer:
        traced.run_pass(deck[0][:2], tracer)
    layer = run.per_layer(tracer, traced, untraced,
                          {"pause_s": 0.0, "collections": 0})
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    e2e = run.end_to_end(untraced, [0.1, 0.2, 0.3])
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
