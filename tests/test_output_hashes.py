"""Byte-stability guard: --format jsonl output on fixed inputs.

The sha256 digests were recorded before the code they cover was
refactored (the elimination kernel, the zero rule, the shared sampling
and search helpers, check 12's integer oracle); the code must reproduce them byte for byte.  Input
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
    # Float zero tests: the c, d and seam tests of the classification.
    (["admissible", "--builtin", "example1", "--backend", "float"], 0,
     "31f0ee36ad7a4d28a74ba99a56205e2bc6a6cbb7864b281c69880b06c42d1bb4"),
    (["admissible", "--builtin", "example2:3/7", "--backend", "float"], 0,
     "451ef877aee340d725e91b6c91a068f48d4b2181cae9c75a992ed9b006d8eb1f"),
    (["admissible", "--builtin", "constructed:1", "--backend", "float"], 0,
     "0fa64e9336bebb0df78232405a2937aa1a9f1c2ebb55c4e5a7229b8eb8434480"),
    (["conic", "--probe", "triangle-and-path", "--backend", "float"], 0,
     "7711ceae647c3fa379696bc86035b9934c4f865ddc9cf9c3e29f479b7f1404c2"),
    (["implied", "k5e.json", "--pair", "4", "5"], 0,
     "675251048d667f72e9361fcb0d72a33d9017545bd43f0acff579aa72bc44b54a"),
    # The isometry, pin-sample, two-sample and K4 helpers.
    (["verify", "--checks", "admissible-family", "one-dim-inadmissible",
      "extension-predictions", "--samples", "5", "--seed", "0"], 0,
     "a69d4ca5d66ac66f985647664c2ff5dc8684daa179f72d5cb22142fba37b4d62"),
    # Check 12's evaluation oracle, default samples (400 instances).
    (["verify", "--checks", "affine-poly-cases", "--seed", "0"], 0,
     "21fd2cf9ad0168eaaa0970a41ae75bf99c0b169f36f02a86dd30c8f5a1d2dff2"),
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
