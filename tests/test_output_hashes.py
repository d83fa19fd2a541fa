"""Byte-stability guard: --format jsonl output on fixed inputs.

The sha256 digests were recorded from the Fraction-based elimination
kernel; the integer kernel must reproduce them byte for byte.  Input
files are written under fixed relative names, because the manifest
record echoes the paths it was given.
"""

import hashlib
import json

import pytest

from rigidlab.cli import main
from rigidlab.rigidity import Graph, double_banana

GRAPHS = {
    "k5e.json": Graph.complete(5).without_edges([(4, 5)]),
    "banana.json": double_banana(),
}

CASES = [
    (["analyze", "k5e.json"], 0,
     "8bc838675f0db3a5454a3be398b061b81c500822767e06d1ddd50694cb6f6d68"),
    (["analyze", "k5e.json", "--backend", "float"], 0,
     "b8c8a71186fe1105f3b0d75827b71cbd95e3b7d3410bbda00b3dc9af22963175"),
    (["analyze", "banana.json"], 1,
     "107ee64c96e5f0a399c94f5baaed2d96185863268bda2a6910db4df3f7edb8c4"),
    (["analyze", "banana.json", "--backend", "float"], 1,
     "d07b34b3b4e6b278921714acb1b11f67b2f1f720ae605f404c0c848e5f026e6e"),
    (["implied", "banana.json"], 0,
     "1e27811c709d0a58c37f70cb8bb2849baed964d1abe3132417e52fb3059a3b51"),
    (["admissible", "--builtin", "example1"], 0,
     "db25d1278ea922867436c58691a60f9cabf7fb8fb417699bc6932f564d1963ad"),
    (["conic", "--probe", "triangle-and-path"], 0,
     "8d087452683c6b5ed3018b73b7f3d46f8223867008c9e2feebd86ee4c881fbcf"),
]


@pytest.fixture
def graph_dir(tmp_path, monkeypatch):
    for name, g in GRAPHS.items():
        (tmp_path / name).write_text(json.dumps({
            "vertices": g.vertex_count,
            "edges": [list(e) for e in g.sorted_edges()],
        }), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, code, digest", CASES,
                         ids=["-".join(c[0]) for c in CASES])
def test_jsonl_output_is_byte_stable(graph_dir, capsys, argv, code, digest):
    assert main(argv + ["--format", "jsonl"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
