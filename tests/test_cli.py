import contextlib
import copy
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rigidlab.cli as cli
import rigidlab.linalg as linalg
import rigidlab.verify as verify
from rigidlab.cli import main
from rigidlab.errors import (DegenerateConfigError, HypothesisViolatedError,
                             NotIsostaticError, OnAffineSpanError,
                             ParallelSpanError, SingularMatrixError)
from rigidlab.rigidity import Graph, double_banana

STANDARD_POINTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _graph_file(tmp_path, name, g: Graph):
    return _write(tmp_path, name, {
        "vertices": g.vertex_count,
        "edges": [list(e) for e in g.sorted_edges()],
    })


def _config_file(tmp_path, name, points):
    return _write(tmp_path, name, {"dim": 3, "points": points})


def test_analyze_rigid_graph(tmp_path, capsys):
    graph = _graph_file(tmp_path, "k4.json", Graph.complete(4))
    config = _config_file(tmp_path, "p.json",
                          [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert main(["analyze", graph, config]) == 0
    out = capsys.readouterr().out
    assert "rigid: true" in out
    assert "isostatic: true" in out
    assert "flex_dim: 6" in out


def test_analyze_flexible_graph(tmp_path, capsys):
    graph = _graph_file(tmp_path, "banana.json", double_banana())
    assert main(["analyze", graph]) == 1
    out = capsys.readouterr().out
    assert "rigid: false" in out
    assert "flex_dim: 7" in out


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_edge_out_of_range(tmp_path, capsys):
    graph = _write(tmp_path, "bad.json", {"vertices": 3, "edges": [[1, 9]]})
    assert main(["analyze", graph]) == 3
    assert "parse error" in capsys.readouterr().err


def test_non_integer_vertices(tmp_path):
    graph = _write(tmp_path, "bad.json", {"vertices": True, "edges": []})
    assert main(["analyze", graph]) == 3


def test_henneberg_cone_extension(tmp_path, capsys):
    graph = _graph_file(tmp_path, "k4.json", Graph.complete(4))
    out_file = tmp_path / "extended.json"
    code = main(["henneberg", graph, "-x", "1", "2", "3", "4",
                 "-f", "1,2", "-o", str(out_file)])
    assert code == 0
    assert "rigid: true" in capsys.readouterr().out
    written = json.loads(out_file.read_text(encoding="utf-8"))
    assert written["vertices"] == 5
    assert len(written["edges"]) == 9
    assert [1, 2] not in written["edges"]


def test_henneberg_bad_edge_token(tmp_path, capsys):
    graph = _graph_file(tmp_path, "k4.json", Graph.complete(4))
    assert main(["henneberg", graph, "-x", "1", "2", "3", "4",
                 "-f", "1-2"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_admissible_builtin_example(tmp_path, capsys):
    config = _config_file(tmp_path, "p.json", STANDARD_POINTS)
    assert main(["admissible", config, "--builtin", "example1"]) == 0
    out = capsys.readouterr().out
    assert "admissible: true" in out
    assert "classification: rank-one-form" in out
    assert "weights: 1 0 0 0 0" in out


def test_admissible_rejects_trivial_overlap(tmp_path, capsys):
    # the subspace contains a translation, so it meets the trivial motions
    config = _config_file(tmp_path, "p.json", STANDARD_POINTS)
    subspace = _write(tmp_path, "s.json", {"basis": [
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
    ]})
    assert main(["admissible", config, "--subspace", subspace]) == 1
    out = capsys.readouterr().out
    assert "intersects_trivial: true" in out
    assert "admissible: false" in out


# random_general_config(3, 5, 0, "cli-admissible", bound=1000) shifted by
# 10^6: rotations about the origin are almost translations there.
OFFSET_POINTS = [[1000352, 999475, 1000935], [999241, 999848, 1000010],
                 [1000139, 999567, 999663], [1000025, 1000497, 999343],
                 [1000532, 999586, 999225]]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_far_offset_translation_meets_the_trivial_motions(tmp_path, capsys, backend):
    config = _config_file(tmp_path, "offset6.json", OFFSET_POINTS)
    subspace = _write(tmp_path, "trans3.json", {"basis": [
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
    ]})
    assert main(["admissible", config, "--subspace", subspace,
                 "--backend", backend]) == 1
    out = capsys.readouterr().out
    assert "intersects_trivial: true" in out
    assert "admissible: false" in out


@pytest.mark.parametrize("token", ["example1", "example2:-2"])
def test_far_offset_float_classification_matches_exact(tmp_path, capsys, token):
    config = _config_file(tmp_path, "offset6.json", OFFSET_POINTS)
    for backend in ("exact", "float"):
        assert main(["admissible", config, "--builtin", token,
                     "--backend", backend]) == 0
        assert "classification: rank-one-form" in capsys.readouterr().out


def test_admissible_degenerate_config(tmp_path, capsys):
    # point 1 at the origin makes both pin blocks singular
    config = _config_file(tmp_path, "p.json",
                          [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                           [1, 1, 1], [1, 2, 3]])
    assert main(["admissible", config, "--builtin", "example1"]) == 4
    assert "degenerate input" in capsys.readouterr().err


def test_tol_reaches_the_pin_blocks(tmp_path, capsys):
    # p3 is p1 + p2 up to 1e-5: the block (1,2,3) is singular at tol 1e-3.
    config = _config_file(tmp_path, "near.json",
                          [[1, 2, 3], [4, -1, 2], [5.00001, 1, 5],
                           [-3, 7, 2], [2, -5, 6]])
    line = _write(tmp_path, "line.json",
                  {"basis": [[[0] * 5, [0] * 5, [1, 0, 0, 0, 0]]]})
    argv = ["admissible", config, "--subspace", line, "--backend", "float"]
    assert main(argv + ["--tol", "1e-3"]) == 4
    assert "pin block is singular" in capsys.readouterr().err
    assert main(argv) == 1


class _ToleranceSpy:
    """linalg._TOL, recording each value read: zero_rows and _svd_rank
    read it once per float decision, and no exact one reads it."""

    def __init__(self, var):
        self.var, self.seen = var, []

    def get(self):
        self.seen.append(self.var.get())
        return self.seen[-1]

    def set(self, value):
        return self.var.set(value)

    def reset(self, token):
        self.var.reset(token)


@pytest.mark.parametrize("argv", [
    lambda d: ["analyze", _k5e(d)],
    lambda d: ["admissible", "--subspace", _write(
        d, "line.json", {"basis": [[[0] * 5, [0] * 5, [1, 0, 0, 0, 0]]]})],
    lambda d: ["admissible", "--builtin", "example1"],
    lambda d: ["admissible", "--builtin", "example2:3/7"],
    lambda d: ["admissible", "--builtin", "constructed:1"],
    lambda d: ["conic", "--probe", "triangle-and-path"],
], ids=["analyze", "admissible-subspace", "admissible-example1",
        "admissible-example2", "admissible-constructed", "conic"])
def test_tol_reaches_every_float_decision(tmp_path, monkeypatch, capsys, argv):
    # The seeded general-position draw and the builtin spaces included.
    spy = _ToleranceSpy(linalg._TOL)
    monkeypatch.setattr(linalg, "_TOL", spy)
    assert main(argv(tmp_path) + ["--backend", "float", "--tol", "1e-4"]) in (0, 1)
    capsys.readouterr()
    assert spy.seen and set(spy.seen) == {1e-4}


def test_admissible_bad_builtin_token(tmp_path, capsys):
    config = _config_file(tmp_path, "p.json", STANDARD_POINTS)
    assert main(["admissible", config, "--builtin", "example2:x"]) == 3
    assert main(["admissible", config, "--builtin", "nope"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("ratio", ["1e400", "-1e309"])
def test_builtin_ratio_beyond_float64_is_a_parse_error(capsys, ratio):
    token = f"example2:{ratio}"
    assert main(["admissible", "--builtin", token, "--backend", "float"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error" in captured.err and token in captured.err
    # The exact backend takes the same ratio as a rational.
    assert main(["admissible", "--builtin", token]) == 0
    assert "admissible: true" in capsys.readouterr().out


def test_admissible_jsonl_reports_sample_ranks(tmp_path, capsys):
    config = _config_file(tmp_path, "p.json", STANDARD_POINTS)
    code = main(["admissible", config, "--builtin", "example2:3/2",
                 "--format", "jsonl", "--samples", "6"])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["record"] == "manifest"
    assert lines[0]["command"] == "admissible"
    report = next(l for l in lines if l["record"] == "admissibility")
    assert report["samples_tested"] == 6
    assert len(report["sample_ranks"]) == 6
    assert all(r == 1 for r in report["sample_ranks"])
    cls = next(l for l in lines if l["record"] == "classification")
    assert cls["kind"] == "rank-one-form"
    assert cls["weights"] == ["1", "3/2", "0", "0", "0"]


def test_implied_single_pair(tmp_path, capsys):
    graph = _graph_file(tmp_path, "k5e.json",
                        Graph.complete(5).without_edges([(4, 5)]))
    assert main(["implied", graph, "--pair", "4", "5"]) == 0
    assert "implied: true" in capsys.readouterr().out
    banana = _graph_file(tmp_path, "banana.json", double_banana())
    assert main(["implied", banana, "--pair", "3", "6"]) == 1
    assert "implied: false" in capsys.readouterr().out


def test_implied_listing(tmp_path, capsys):
    banana = _graph_file(tmp_path, "banana.json", double_banana())
    assert main(["implied", banana]) == 0
    out = capsys.readouterr().out
    assert "implied_nonedges: 1" in out
    assert "1,2" in out


def test_conic_probe(tmp_path, capsys):
    code = main(["conic", "--probe", "triangle-and-path", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dim: 3" in out
    assert "skew_space: true" in out


def test_conic_sparse_graph(tmp_path, capsys):
    graph = _write(tmp_path, "sparse.json",
                   {"vertices": 5, "edges": [[1, 2], [3, 4]]})
    config = _config_file(tmp_path, "p.json", STANDARD_POINTS)
    assert main(["conic", config, "--graph", graph]) == 1
    out = capsys.readouterr().out
    assert "dim: 7" in out
    assert "skew_space: false" in out


def test_verify_jsonl_is_deterministic(capsys):
    argv = ["verify", "--checks", "trivial-motion-dim", "--samples", "2",
            "--format", "jsonl", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = [json.loads(l) for l in first.splitlines()]
    assert lines[0]["record"] == "manifest"
    assert lines[-1] == {"record": "summary", "total": 1, "failed": 0,
                         "passed": 1}


def test_verify_reports_failures(monkeypatch, capsys):
    # a corrupted build must surface as a nonzero exit, never silently
    def broken(seed, samples):
        return False, "stubbed failure"

    patched = tuple((name, broken if name == "trivial-motion-dim" else fn)
                    for name, fn in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", patched)
    assert main(["verify", "--checks", "trivial-motion-dim"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "stubbed failure" in out


def test_samples_must_be_positive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--samples", "0"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["implied", "--backend", "float"], ["henneberg", "-x", "1", "2", "3", "--tol", "0.5"],
    ["verify", "--backend", "float"], ["analyze", "--samples", "3"],
    ["conic", "--probe", "triangle-and-path", "--samples", "3"]], ids="-".join)
def test_subcommands_refuse_options_they_do_not_read(tmp_path, capsys, argv):
    graph = _graph_file(tmp_path, "k4.json", Graph.complete(4))
    if argv[0] in ("implied", "henneberg", "analyze"):
        argv = [argv[0], graph, *argv[1:]]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("command", ["analyze", "henneberg", "implied"])
def test_dim_must_be_positive(tmp_path, capsys, command, dim):
    argv = [command, _graph_file(tmp_path, "k4.json", Graph.complete(4)), "-n", dim]
    if command == "henneberg":
        argv += ["-x", "1", "2", "3"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dim" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1", "2"])
@pytest.mark.parametrize("command", ["analyze", "admissible"])
def test_tol_must_lie_in_open_unit_interval(tmp_path, capsys, command, tol):
    if command == "analyze":
        argv = ["analyze", _graph_file(tmp_path, "k5e.json",
                                       Graph.complete(5).without_edges([(4, 5)]))]
    else:
        argv = ["admissible", "--builtin", "example1", "--backend", "float"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--tol", tol])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def _admissible_input(tmp_path, kind, value):
    """`admissible` arguments with `value` at one config or subspace entry."""
    if kind == "config":
        points = [row[:] for row in STANDARD_POINTS]
        points[2][2] = value
        argv = [_config_file(tmp_path, "p.json", points), "--builtin", "example1"]
        return argv, "points[2][2]"
    motion = [[1, 0, 0, 0, 0], [0, value, 0, 0, 0], [0, 0, 0, 0, 0]]
    argv = [_config_file(tmp_path, "p.json", STANDARD_POINTS), "--subspace",
            _write(tmp_path, "s.json", {"basis": [motion]})]
    return argv, "basis[0][1][1]"


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", ["config", "subspace"])
def test_non_finite_coordinates_are_parse_errors(tmp_path, capsys, kind, value,
                                                 backend):
    # json writes these as the literals NaN, Infinity and -Infinity
    argv, entry = _admissible_input(tmp_path, kind, value)
    assert main(["admissible", *argv, "--backend", backend]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error" in captured.err
    assert entry in captured.err


@pytest.mark.parametrize("kind", ["config", "subspace"])
def test_coordinates_beyond_float64_are_parse_errors(tmp_path, capsys, kind):
    argv, entry = _admissible_input(tmp_path, kind, 10 ** 400)
    assert main(["admissible", *argv, "--backend", "float"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error" in captured.err
    assert entry in captured.err
    # The exact backend reads the same file and reaches a verdict.
    assert main(["admissible", *argv, "--backend", "exact"]) in (0, 1)
    captured = capsys.readouterr()
    assert "admissible: " in captured.out
    assert captured.err == ""


OVERFLOW_MESSAGE = ("rigidlab: degenerate input: float64 overflow: "
                    "a matrix entry is not finite\n")


def test_float_overflow_in_a_conic_exits_4(tmp_path, capsys):
    # (p_i - p_j)(p_i - p_j)^T overflows to inf at 1e160, where the SVD
    # once failed to converge and exited 2 as a usage error.  The overflow
    # is reported by that one line, with no numpy RuntimeWarning before it.
    points = [[v * 1e160 for v in row] for row in STANDARD_POINTS]
    argv = ["conic", _config_file(tmp_path, "p.json", points),
            "--probe", "triangle-and-path", "--backend", "float"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == OVERFLOW_MESSAGE


def test_float_overflow_in_a_conic_exits_4_without_hanging(tmp_path):
    # At 1e300 the SVD of the inf matrix once ran for good: main runs in a
    # child process, so a hang fails this test instead of the suite.
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1e300, 2, 3]]
    argv = ["conic", _config_file(tmp_path, "p.json", points),
            "--probe", "triangle-and-path", "--backend", "float"]
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "rigidlab.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 4
    assert done.stdout == ""
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr == OVERFLOW_MESSAGE


@pytest.mark.parametrize("error", [DegenerateConfigError, HypothesisViolatedError,
                                   NotIsostaticError, OnAffineSpanError,
                                   ParallelSpanError, SingularMatrixError])
def test_content_errors_exit_4(tmp_path, monkeypatch, capsys, error):
    def degenerate(*args, **kwargs):
        raise error("stubbed")

    monkeypatch.setattr(cli, "analyze", degenerate)
    graph = _graph_file(tmp_path, "k4.json", Graph.complete(4))
    assert main(["analyze", graph]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degenerate input: stubbed" in captured.err


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_admissible_classification_error_leaves_stdout_empty(tmp_path, capsys,
                                                             backend, fmt):
    # The pin blocks (1,4,5) and (1,2,3) have equal inverse-transpose row
    # sums, so the space is admissible but cannot be classified.
    config = _config_file(tmp_path, "p.json",
                          [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1], [2, -1, 0]])
    assert main(["admissible", config, "--builtin", "example1",
                 "--backend", backend, "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degenerate input: the two pin blocks have equal" in captured.err


def _k5e(tmp_path):
    return _graph_file(tmp_path, "k5e.json", Graph.complete(5).without_edges([(4, 5)]))


def _raising_check(monkeypatch):
    def degenerate(seed, samples):
        raise DegenerateConfigError("stubbed")

    patched = tuple((name, degenerate if name == "pin-flex-property" else fn)
                    for name, fn in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", patched)
    return ["verify", "--checks", "trivial-motion-dim", "pin-flex-property",
            "--samples", "2"]


FAILURES = {
    "analyze-missing-file": (
        lambda d, mp: ["analyze", str(d / "absent.json")], 3,
        "parse error: "),
    "henneberg-bad-support": (
        lambda d, mp: ["henneberg", _k5e(d), "-x", "1", "2"], 2,
        "usage error: support size 2"),
    "henneberg-output-is-a-directory": (
        lambda d, mp: ["henneberg", _k5e(d), "-x", "1", "2", "3", "-o", str(d)], 2,
        "usage error: cannot write {d}: "),
    "henneberg-output-in-missing-directory": (
        lambda d, mp: ["henneberg", _k5e(d), "-x", "1", "2", "3",
                       "-o", str(d / "absent" / "out.json")], 2,
        "usage error: cannot write {d}/absent/out.json: "),
    "admissible-bad-builtin": (
        lambda d, mp: ["admissible", _config_file(d, "p.json", STANDARD_POINTS),
                       "--builtin", "nope"], 3,
        "parse error: unknown builtin"),
    "admissible-empty-subspace-path": (
        lambda d, mp: ["admissible", "--subspace", ""], 3, "parse error: : "),
    # An empty configuration path is a path, not a request for the seeded draw.
    "analyze-empty-config-path": (
        lambda d, mp: ["analyze", _k5e(d), ""], 3, "parse error: : "),
    "admissible-empty-config-path": (
        lambda d, mp: ["admissible", "", "--builtin", "example1"], 3, "parse error: : "),
    "conic-empty-config-path": (
        lambda d, mp: ["conic", "", "--probe", "triangle-and-path"], 3,
        "parse error: : "),
    "implied-pair-out-of-range": (
        lambda d, mp: ["implied", _k5e(d), "--pair", "1", "9"], 2,
        "usage error: vertex 9"),
    "implied-loop-pair": (
        lambda d, mp: ["implied", _k5e(d), "--pair", "2", "2"], 2,
        "usage error: loop edge"),
    "conic-2d-config": (
        lambda d, mp: ["conic", _write(d, "plane.json", {"dim": 2, "points": [
            [0, 0], [1, 0], [0, 1], [1, 1], [2, 3]]}),
            "--probe", "triangle-and-path"], 2,
        "usage error: conic needs a configuration in R^3"),
    "verify-check-raises": (
        lambda d, mp: _raising_check(mp), 4, "degenerate input: stubbed"),
}


@pytest.mark.parametrize("case", FAILURES)
@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_failed_command_leaves_stdout_empty(tmp_path, monkeypatch, capsys, fmt,
                                            case):
    argv, code, message = FAILURES[case]
    assert main(argv(tmp_path, monkeypatch) + ["--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rigidlab: " + message.format(d=tmp_path))


def test_only_main_writes_stdout():
    src = Path(cli.__file__).parent
    in_main = inspect.getsource(cli.main).count("print(")
    counts = {path.name: path.read_text().count("print(")
              for path in sorted(src.glob("*.py"))}
    assert in_main > 0
    assert counts == {**dict.fromkeys(counts, 0), "cli.py": in_main}


@pytest.mark.parametrize("argv, text", [
    (["implied"], '{"vertices": %d, "edges": [[1, 2]]}' % 10 ** 400),
    (["henneberg", "-x", "1", "2", "3"], '{"vertices": %d, "edges": [[1, 2]]}' % 10 ** 400),
    (["analyze"], '{"vertices": %d, "edges": [[1, 2]]}' % 10 ** 400),
    (["implied"], '{"vertices": 5, "edges": ' + "[" * 5000 + "]" * 5000 + "}"),
], ids=["implied-huge-count", "henneberg-huge-count", "analyze-huge-count",
        "implied-deep-nesting"])
def test_huge_counts_and_deep_nesting_are_parse_errors(tmp_path, capsys, argv, text):
    # A 400-digit vertex count once looped drawing its random points, and
    # nesting past the recursion limit escaped main as a RecursionError.
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rigidlab: parse error: ")


_HUGE_GRAPH = {"vertices": 100_000_000, "edges": [[1, 2]]}


@pytest.mark.parametrize("argv, doc", [
    (["implied", "{}"], _HUGE_GRAPH),
    (["analyze", "{}"], _HUGE_GRAPH),
    (["henneberg", "{}", "-x", "1", "2", "3"], _HUGE_GRAPH),
    (["conic", "{}", "--probe", "triangle-and-path"], {"dim": 10 ** 9, "points": [[1, 2, 3]]}),
    (["analyze", "{}"], {"vertices": cli._MAX_VERTICES + 1, "edges": [[1, 2]]}),
], ids=["implied-1e8-vertices", "analyze-1e8-vertices", "henneberg-1e8-vertices",
        "conic-1e9-dim", "analyze-one-vertex-too-many"])
def test_counts_too_large_to_build_are_parse_errors(tmp_path, capsys, argv, doc):
    # Each of the first four once ran out of memory or drew random points
    # for minutes: a count is checked before anything is built from it.
    path = str(tmp_path / "in.json")
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main([arg.format(path) for arg in argv]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rigidlab: parse error: ")


def test_the_vertex_bound_is_reachable(tmp_path, capsys):
    graph = _write(tmp_path, "g.json", {"vertices": cli._MAX_VERTICES, "edges": [[1, 2]]})
    assert main(["analyze", graph]) == 1
    assert f"flex_dim: {3 * cli._MAX_VERTICES - 1}" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["analyze", "{}", "-n", "100000000"], 2),
    (["implied", "{}", "-n", "100000000"], 2),
    (["admissible", "--builtin", "example1", "--samples", "100000000"], 2),
    (["analyze", "{}", "-n", str(3 * cli._MAX_VERTICES // 5 + 1)], 2),
    (["analyze", "{}", "-n", str(3 * cli._MAX_VERTICES // 5)], 1),
], ids=["analyze-n-1e8", "implied-n-1e8", "admissible-samples-1e8",
        "analyze-n-one-too-many", "analyze-n-at-the-bound"])
def test_counts_too_large_to_draw_are_usage_errors(tmp_path, capsys, argv, code):
    # The first three once died of a MemoryError: -n/--dim times the vertex
    # count, and --samples, are checked before anything is drawn.
    path = _graph_file(tmp_path, "k5e.json", Graph.complete(5).without_edges([(4, 5)]))
    start = time.perf_counter()
    try:
        got = main([arg.format(path) for arg in argv])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert ("-n/--dim" if "-n" in argv else "--samples") in captured.err


# Malformed input: mutations of valid graph, config and subspace files.
# A "\0deep:D" string stands for D nested lists, spliced into the text.
_DEEP = "\0deep:"

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.sampled_from(["1/0", "x", "", "2/3", "1e400"]),
    st.sampled_from([10 ** 400, -10 ** 400, 10 ** 400 + 1]),
    st.sampled_from([cli._MAX_VERTICES + 1, 10 ** 8, 10 ** 9]),
    st.floats(), st.builds(dict), st.builds(list),
    st.recursive(st.none() | st.integers(-1, 2) | st.text(max_size=2),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                 max_leaves=6),
    st.sampled_from([3, 40, 3_000, 100_000]).map(lambda depth: f"{_DEEP}{depth}"),
)

_VALID = {
    "graph": {"vertices": 5, "edges": [list(e) for e in Graph.complete(5)
                                       .without_edges([(4, 5)]).sorted_edges()]},
    "config": {"dim": 3, "points": STANDARD_POINTS},
    "subspace": {"basis": [[[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]]},
}

_COMMANDS = {
    "analyze": (["graph", "config"], lambda f: ["analyze", f["graph"], f["config"]]),
    "admissible": (["config", "subspace"], lambda f: [
        "admissible", f["config"], "--subspace", f["subspace"], "--samples", "2"]),
    "conic": (["config", "graph"], lambda f: ["conic", f["config"], "--graph", f["graph"]]),
    "implied": (["graph"], lambda f: ["implied", f["graph"]]),
    "henneberg": (["graph"], lambda f: [
        "henneberg", f["graph"], "-x", "1", "2", "3", "4", "5", "-f", "1,2", "1,3"]),
}


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def _mutated(draw, valid):
    """valid after one to three edits at random places: a value replaced
    by junk, a key or list entry deleted (a ragged row), junk appended to
    a list, or a value wrapped in a list."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        edit = draw(st.sampled_from(["replace", "delete", "append", "wrap"]))
        if not path:
            doc = draw(_JUNK) if edit in ("replace", "delete") else [doc]
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if edit == "replace":
            parent[key] = draw(_JUNK)
        elif edit == "delete":
            del parent[key]
        elif edit == "append" and isinstance(parent[key], list):
            parent[key].append(draw(_JUNK))
        else:
            parent[key] = [parent[key]]
    return doc


def _json_text(doc) -> str:
    return re.sub(r'"\\u0000deep:(\d+)"', lambda m: "[" * int(m[1]) + "]" * int(m[1]),
                  json.dumps(doc))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(sorted(_COMMANDS)),
       backend=st.sampled_from(["exact", "float"]), fmt=st.sampled_from(["text", "jsonl"]))
def test_malformed_input_files_exit_0_to_4_without_a_traceback(tmp_path, data, command,
                                                              backend, fmt):
    kinds, argv = _COMMANDS[command]
    bad = data.draw(st.sets(st.sampled_from(kinds), min_size=1), label="mutated")
    files = {}
    for kind in kinds:
        doc = data.draw(_mutated(_VALID[kind]), label=kind) if kind in bad else _VALID[kind]
        files[kind] = str(tmp_path / f"{kind}.json")
        Path(files[kind]).write_text(_json_text(doc), encoding="utf-8")
    extra = ["--backend", backend] if command in ("analyze", "admissible", "conic") else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv(files), *extra, "--format", fmt])
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("rigidlab: ")
