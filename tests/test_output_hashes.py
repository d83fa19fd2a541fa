"""Byte-stability guard: --format jsonl and --format text output on fixed
inputs.

The sha256 digests were recorded before the code they cover was
refactored (the elimination kernel, the zero rule, the shared sampling
and search helpers, check 12's integer oracle, the closed-form trivial
dimension, the strain rank modulo the trivial motions, the 2-extension
table, the integer admissibility path, the one pin formula, the integer
verify battery, the integer rigidity matrix and linear-motion solve,
the full-rank rigidity questions settled modulo a prime, the exact
bases held as primitive integer rows); the code must
reproduce them byte for byte.  Input files are written
under fixed relative names, because the manifest record echoes the
paths it was given.  Each case carries its jsonl digest, then its text
digest; the text is hashed with verify's per-check seconds masked, the
one field that depends on timing.
"""

import hashlib
import json
import re

import pytest

from rigidlab.cli import main
from rigidlab.rigidity import Graph, double_banana

OCTAHEDRON = Graph.complete(6).without_edges([(1, 2), (3, 4), (5, 6)])

GRAPHS = {
    "k5e.json": Graph.complete(5).without_edges([(4, 5)]),
    "banana.json": double_banana(),
    # Isostatic, over-braced and independent-flexible graphs on 6 vertices.
    "octahedron.json": OCTAHEDRON,
    "k6.json": Graph.complete(6),
    "octahedron-1.json": OCTAHEDRON.without_edges([(1, 3)]),
    # Five edge directions, so the conic space is 5-dimensional and its
    # kernel rows carry 20-digit fractions.
    "path4.json": Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
}

# Degenerate configurations of five points in R^3, where the trivial
# dimension drops below 6: on a line (5) and all at one point (3).
CONFIGS = {
    "collinear.json": [[1 + 2 * t, 2 - t, 3 - 4 * t] for t in (0, 1, 2, 3, -1)],
    "coincident.json": [[2, -1, 3]] * 5,
    # On the plane z = 1, both pin blocks invertible: the trivial motions
    # are not the strain-free ones, so condition 1 takes the stacked rank.
    "coplanar.json": [[1, 2, 1], [5, -3, 1], [-4, 7, 1], [2, 9, 1], [-6, -5, 1]],
    # Coordinates with denominators: the cleared integer form has den > 1.
    "rational.json": [["1/3", "2/7", "-5/2"], ["4", "-1/5", "2/9"],
                      ["5/11", "1", "-5/3"], ["-3/4", "7/13", "2"],
                      ["2/5", "-5/6", "6/7"]],
}

# Point 1 moving along e3: strain-free on coplanar.json, and not trivial.
SUBSPACES = {"line.json": [[[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]]}

CASES = [
    (["analyze", "k5e.json"], 0,
     "8bc838675f0db3a5454a3be398b061b81c500822767e06d1ddd50694cb6f6d68",
     "a5484044bd9ae77915e534363019b33db3c1271a4e4468f2a9c775d8ccea1f3e"),
    (["analyze", "k5e.json", "--backend", "float"], 0,
     "b8c8a71186fe1105f3b0d75827b71cbd95e3b7d3410bbda00b3dc9af22963175",
     "a5484044bd9ae77915e534363019b33db3c1271a4e4468f2a9c775d8ccea1f3e"),
    (["analyze", "banana.json"], 1,
     "107ee64c96e5f0a399c94f5baaed2d96185863268bda2a6910db4df3f7edb8c4",
     "488fe3d37c936ba7f13327f9aabb0c0ebaef9410e5be452895862cc27aea659f"),
    (["analyze", "banana.json", "--backend", "float"], 1,
     "d07b34b3b4e6b278921714acb1b11f67b2f1f720ae605f404c0c848e5f026e6e",
     "488fe3d37c936ba7f13327f9aabb0c0ebaef9410e5be452895862cc27aea659f"),
    (["analyze", "k5e.json", "collinear.json"], 1,
     "8c9b2ebda9532f2ae64712aaa941a3b9034d28f37a968203b7e1f2fc444255c8",
     "88e2e6f37eb92546a16d94e22bf778a465d53b101beff0153f7da96a3cf9f5df"),
    (["analyze", "k5e.json", "collinear.json", "--backend", "float"], 1,
     "ef6a90418db4681e02808159775360812a036374fac9f7980a742cb1e96d04ba",
     "88e2e6f37eb92546a16d94e22bf778a465d53b101beff0153f7da96a3cf9f5df"),
    (["analyze", "k5e.json", "coincident.json"], 1,
     "54d06a620fc3409c815c0e94d5169d6e5c80b330d0d7157b383c83bcf0144939",
     "23aca2097df9a2fb67adad91407e71de8d0983038c9c381679b17dcf5e1fadf6"),
    (["analyze", "k5e.json", "coincident.json", "--backend", "float"], 1,
     "7b87611d05a89b6aee528304861d4eabdb06bbf76d1b16c37b590087b7f50dcd",
     "23aca2097df9a2fb67adad91407e71de8d0983038c9c381679b17dcf5e1fadf6"),
    (["implied", "banana.json"], 0,
     "1e27811c709d0a58c37f70cb8bb2849baed964d1abe3132417e52fb3059a3b51",
     "474515bdbc6cd9edf40cd0e10a425e714d071d8a8df2c550e44ee430d6c48fed"),
    (["admissible", "--builtin", "example1"], 0,
     "db25d1278ea922867436c58691a60f9cabf7fb8fb417699bc6932f564d1963ad",
     "978cb624619451423d84453a396af67332d0ad415ea8913f0b6033df801776df"),
    (["conic", "--probe", "triangle-and-path"], 0,
     "8d087452683c6b5ed3018b73b7f3d46f8223867008c9e2feebd86ee4c881fbcf",
     "e31188170ba04cd4b6e59c4c176573b1a7ea6b0b36c9362cadf1f19014a7485d"),
    # Float zero tests: the c, d and seam tests of the classification.
    (["admissible", "--builtin", "example1", "--backend", "float"], 0,
     "31f0ee36ad7a4d28a74ba99a56205e2bc6a6cbb7864b281c69880b06c42d1bb4",
     "480873d623d27a0d39b73f29b61b14b88bda49bfba7d9bbe7b9d408ad0f112c2"),
    (["admissible", "--builtin", "example2:3/7", "--backend", "float"], 0,
     "451ef877aee340d725e91b6c91a068f48d4b2181cae9c75a992ed9b006d8eb1f",
     "4f206421aae3e0a2bc20af47e4df6956e61ec5908eed84677105050dd6cac4a2"),
    (["admissible", "--builtin", "constructed:1", "--backend", "float"], 0,
     "0fa64e9336bebb0df78232405a2937aa1a9f1c2ebb55c4e5a7229b8eb8434480",
     "2fd87ad77c227258dc6f41579275824a9b7afeb3e32bfeecd8ddcc447aa3e392"),
    # Exact pin samples and the integer classification: rank-one form
    # and all-affine.
    (["admissible", "--builtin", "example2:3/7"], 0,
     "c8dd199845e25865af1eb0040122a84310b318f422bdab88208f47fdfe962b06",
     "240efd7ab8b8cad454f5492a7b12fa2210e77063434da3da9ba5a8646b530675"),
    (["admissible", "--builtin", "constructed:1"], 0,
     "d4bbc9a389560be28f911c00c96b201b6737c227b34ee331c7e1392e5b15ad5e",
     "2fd87ad77c227258dc6f41579275824a9b7afeb3e32bfeecd8ddcc447aa3e392"),
    (["verify", "--checks", "example-spaces-admissible",
      "classification-trichotomy", "one-dim-inadmissible", "--seed", "0"], 0,
     "99cc6bff88c198973ea9f20e07342e701a3ba2a58b9141872850d8721ff0d4d0",
     "eca06c2d3c24c1a21bfc6ce785ea2ded666dc2eb0be092a628add70ddfdcf865"),
    (["conic", "--probe", "triangle-and-path", "--backend", "float"], 0,
     "7711ceae647c3fa379696bc86035b9934c4f865ddc9cf9c3e29f479b7f1404c2",
     "e31188170ba04cd4b6e59c4c176573b1a7ea6b0b36c9362cadf1f19014a7485d"),
    (["implied", "k5e.json", "--pair", "4", "5"], 0,
     "675251048d667f72e9361fcb0d72a33d9017545bd43f0acff579aa72bc44b54a",
     "904c4ba72399f469f2a6ed253355ac2b8857874611c2f145d078050c3b1b6c44"),
    (["admissible", "coplanar.json", "--subspace", "line.json"], 1,
     "e4b3b7c8526b46ae4b739ff8e670de8697f48a069d9e85aa36b5272ff444644f",
     "0ee99a6bdc449ac2e082758b4e0421d04b42565f65999984a93e0ea580048bf5"),
    (["admissible", "coplanar.json", "--subspace", "line.json",
      "--backend", "float"], 1,
     "0f6933eda7130b1e3ba5dcbc5b9ca5e955145acf2bcf7cc0ddced4a8faae1d33",
     "0ee99a6bdc449ac2e082758b4e0421d04b42565f65999984a93e0ea580048bf5"),
    # The isometry, pin-sample, two-sample and K4 helpers.
    (["verify", "--checks", "admissible-family", "one-dim-inadmissible",
      "extension-predictions", "--samples", "5", "--seed", "0"], 0,
     "a69d4ca5d66ac66f985647664c2ff5dc8684daa179f72d5cb22142fba37b4d62",
     "e6fdf472793c6bc380abc1d2ecfd9b38456c681a027b0a1c0e160cf99996d014"),
    # Check 11 alone: the 36 two-extensions of K5 - e from one table.
    (["verify", "--checks", "extension-predictions", "--seed", "0"], 0,
     "4164210c1275eeff61fe230523a59c2a50b4ece8c0db5722cac0868ca872394e",
     "4f0702034db282fe86164c49eeb75ceb26950b19027bd375dc8f0d84c77d2560"),
    (["verify", "--checks", "extension-predictions", "--seed", "1"], 0,
     "640d98701736156c4d557519a3262028fdfa348f824056fccb482d181971d054",
     "4f0702034db282fe86164c49eeb75ceb26950b19027bd375dc8f0d84c77d2560"),
    # Checks 1-3, the pin formulas: all pass at seed 0; at seed 12 check 3
    # reads a relative error of 1.42e-04 against its 1e-4 bound.
    (["verify", "--checks", "sherman-morrison-exact", "pin-flex-property",
      "limit-closed-form", "--seed", "0"], 0,
     "5c6ea1bc019cf27915c70966f6031ea00d699616c4ba2edcbfbfcc60fb38acf3",
     "4489899df5b0aaad946c54d3536eac4ed80f366f9f70f325b285b21c6d04359e"),
    (["verify", "--checks", "sherman-morrison-exact", "pin-flex-property",
      "limit-closed-form", "--seed", "12"], 1,
     "5fca2521aa6ac3d118c31091dbc114fe553215093bc7ca3b03f55755340b3f97",
     "c1ed1ace520af0cd261dea6a7759e54be749e75761c70a2ec0ce1c4017d9b99e"),
    # Check 12's evaluation oracle, default samples (400 instances).
    (["verify", "--checks", "affine-poly-cases", "--seed", "0"], 0,
     "21fd2cf9ad0168eaaa0970a41ae75bf99c0b169f36f02a86dd30c8f5a1d2dff2",
     "e0105e476ffe70f8df9a25c9cd02e92735851ed71f6f73991ef7bb4950e3cd56"),
    # The whole twelve-check battery at default samples: all pass at
    # seed 0; at seed 12 check 3 fails.
    (["verify", "--seed", "0"], 0,
     "500e7dfb12f6b34eae833e773896cbe1d37a222874c5cb54383645543250986d",
     "d9c49fd719bbcc964ad24417541ea66ad55302dd2c2e5a1081fa78b9b6a42162"),
    (["verify", "--seed", "12"], 1,
     "2b80305c5f9a13293d7871d51bf7e93c2e7e8037637f948b97d6e52ab375eee6",
     "2b7aa4ca99efc2d0ed1fdb5b9c90e7439aab0c619b8b57a4b09c8d1acd185a6e"),
    # A configuration with denominators, on both backends, and a
    # henneberg 2-extension of K5 - e.
    (["analyze", "k5e.json", "rational.json"], 0,
     "24a7e36bc8c67a0426e36f8c4b49d333f8c0f29ad4330d6cbac0ed6e10e0c6dd",
     "a5484044bd9ae77915e534363019b33db3c1271a4e4468f2a9c775d8ccea1f3e"),
    (["analyze", "k5e.json", "rational.json", "--backend", "float"], 0,
     "a057b6fe85e34941d0e4d61693fc61c7ddbe98c498831fb3e395b4967613c197",
     "a5484044bd9ae77915e534363019b33db3c1271a4e4468f2a9c775d8ccea1f3e"),
    (["conic", "rational.json", "--probe", "triangle-and-path"], 0,
     "9914034e931f776679cbd3fbba69a10d3dddac1543c812b053f7e04ce2eb8d8b",
     "e31188170ba04cd4b6e59c4c176573b1a7ea6b0b36c9362cadf1f19014a7485d"),
    (["conic", "rational.json", "--probe", "triangle-and-path",
      "--backend", "float"], 0,
     "4d6c8f432b7c3d8d2317a9566be6aa277cd7a579e3a9655752edc0209b8f4924",
     "e31188170ba04cd4b6e59c4c176573b1a7ea6b0b36c9362cadf1f19014a7485d"),
    (["admissible", "rational.json", "--builtin", "example2:3/7"], 0,
     "ef14dbea517c58d123d4833f10129e7ed90f19d29346a42a09ef4a27eaf9f979",
     "240efd7ab8b8cad454f5492a7b12fa2210e77063434da3da9ba5a8646b530675"),
    (["admissible", "rational.json", "--builtin", "example2:3/7",
      "--backend", "float"], 0,
     "a918381bdb89b0c6841cab61c183ef729611c9cd31cf9eca29de955bc043e8e2",
     "6568283e2c410db9400fc64e02d2a7c41a2a9f76f01e204d1df4d939b04078dc"),
    (["henneberg", "k5e.json", "-x", "1", "2", "3", "4", "5", "-f", "1,2", "2,3"], 0,
     "f67d646c155aefa2d66330155091f3f154355f15508cacd88a6d010c2a31ac34",
     "e9f3bda9956f46e3af422f676fe7b32f0b0483376793abdd2c4fa1d12a7aaa01"),
    # Full-rank and deficient rigidity matrices on 6 vertices: over-braced
    # (K6), independent and flexible (the octahedron less an edge), every
    # non-edge of the octahedron implied, and its 0- and 1-extensions.
    (["analyze", "k6.json"], 0,
     "b599868305ed23b62f3736333a8a58de2240a2ec9a1f82bacc333de2d0a17dfa",
     "6db387dc437516c23ca7dbdadaab5e195c63e2340c7c46626a8cbd489d980971"),
    (["analyze", "k6.json", "--backend", "float"], 0,
     "be177328807532d42509c514af1298a26295e19ef178c4e77c933ca54ab8e2be",
     "6db387dc437516c23ca7dbdadaab5e195c63e2340c7c46626a8cbd489d980971"),
    (["analyze", "octahedron-1.json"], 1,
     "b9158dadd731eae43a421510891da79394beb6c741159bbac5330605c458c1cf",
     "4a91e74787bae5484bbba3ac3ee313fee7678fc43c1512815c14657db5322b69"),
    (["analyze", "octahedron-1.json", "--backend", "float"], 1,
     "8b7e98b7e8554015c99b94b45338d610772a69c389ed3c44264b3fadb602cd02",
     "4a91e74787bae5484bbba3ac3ee313fee7678fc43c1512815c14657db5322b69"),
    (["implied", "octahedron.json"], 0,
     "8a1587fcc193f065cd3b8f570121b9b32bec24883d50be5970942d8ddfd989c0",
     "809ab34e7a155edaef11910725cfe8809e077e1c96b91c3f3711a9def70911cc"),
    (["henneberg", "octahedron.json", "-x", "1", "3", "5"], 0,
     "b8f9aade78e47453750803c10def95eef894a5bb24c279c589790e76c5e25151",
     "4e848fbd6b894c68323e20aedd297951c6adf114bd59fe660dd7a8974f83bb2b"),
    (["henneberg", "octahedron.json", "-x", "1", "3", "5", "2", "-f", "1,3"], 0,
     "44557b3933a603d1998cf04c9e4f6c78f81e358a7e21c934796e05a561719e94",
     "4e848fbd6b894c68323e20aedd297951c6adf114bd59fe660dd7a8974f83bb2b"),
    # A conic space that is not the skew space: its printed basis is the
    # kernel of five edge rows.
    (["conic", "--graph", "path4.json"], 1,
     "1bb7784daf0cf5c2bf034b0e95dd044f2304c15f0287a4cbc1ba46d3d9577f8d",
     "9268f2595a6258e5db0edc3c20a24642f297367da83bc1c6acddcb2cbd7e0071"),
    (["conic", "--graph", "path4.json", "--backend", "float"], 1,
     "7e07877f1d696413f2128f85881b3e45bb461260310a787a9d1876691544973e",
     "9268f2595a6258e5db0edc3c20a24642f297367da83bc1c6acddcb2cbd7e0071"),
]


@pytest.fixture
def graph_dir(tmp_path, monkeypatch):
    for name, g in GRAPHS.items():
        (tmp_path / name).write_text(json.dumps({
            "vertices": g.vertex_count,
            "edges": [list(e) for e in g.sorted_edges()],
        }), encoding="utf-8")
    for name, points in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps({"dim": 3, "points": points}),
                                     encoding="utf-8")
    for name, basis in SUBSPACES.items():
        (tmp_path / name).write_text(json.dumps({"basis": basis}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


IDS = ["-".join(c[0]) for c in CASES]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, digest", [c[:3] for c in CASES], ids=IDS)
def test_jsonl_output_is_byte_stable(graph_dir, capsys, int_only_bareiss, argv, code,
                                     digest):
    # Every matrix, rational.json's included, reaches the elimination
    # kernel as Python ints (int_only_bareiss).
    assert main(argv + ["--format", "jsonl"]) == code
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("argv, code, digest", [(*c[:2], c[3]) for c in CASES], ids=IDS)
def test_text_output_is_byte_stable(graph_dir, capsys, argv, code, digest):
    assert main(argv + ["--format", "text"]) == code
    # verify prints each check's seconds as "(  0.01s)".
    out = re.sub(r"\( *\d+\.\d\ds\)", "(s)", capsys.readouterr().out)
    assert _sha256(out) == digest

