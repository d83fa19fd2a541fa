import ast
import inspect
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_reference import reference_rref
from rigidlab import applications, linalg, motions, rigidity
from rigidlab.errors import BadSupportError
from rigidlab.linalg import exact_matrix, rank
from rigidlab.motions import (PointConfiguration, flatten_motion, trivial_motion_space,
                              trivial_motions)
from rigidlab.rigidity import (Framework, Graph, _implied_pairs_at,
                               analyze, double_banana, find_implied_k4,
                               flex_space, generic_samples, henneberg_extend,
                               implied_pairs, is_generically_rigid,
                               is_implied_edge, normalize_edge, rigidity_matrix)
from rigidlab.sampling import random_config, subrng
from test_output_hashes import CONFIGS


def test_graph_validation_and_edges():
    g = Graph.from_edges(4, [(2, 1), (3, 4)])
    assert g.has_edge(1, 2) and g.has_edge(4, 3)
    assert g.edge_count == 2
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(2, 2)])
    with pytest.raises(ValueError):
        g.without_edges([(1, 4)])


def test_rigidity_matrix_single_bar():
    p = PointConfiguration(exact_matrix([[0, 1], [0, 0]]))
    g = Graph.from_edges(2, [(1, 2)])
    m = rigidity_matrix(Framework(g, p))
    assert m.shape == (1, 4)
    assert list(m[0]) == [-1, 0, 1, 0]


def test_flex_space_of_triangle_is_trivial():
    p = random_config(2, 3, subrng(2, "tri", 0))
    g = Graph.complete(3)
    space = flex_space(Framework(g, p))
    assert space.dim == 3
    report = analyze(Framework(g, p))
    assert report.is_rigid and report.is_isostatic


def test_complete_graph_reports():
    k4 = analyze(Framework(Graph.complete(4), random_config(3, 4, subrng(2, "k4", 0))))
    assert k4.is_rigid and k4.is_isostatic and k4.flex_dim == 6
    k5 = analyze(Framework(Graph.complete(5), random_config(3, 5, subrng(2, "k5", 0))))
    assert k5.is_rigid and not k5.is_isostatic


def test_path_is_flexible():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    report = analyze(Framework(g, random_config(2, 3, subrng(2, "path", 0))))
    assert report.flex_dim == 4 and report.trivial_dim == 3
    assert not report.is_rigid


def test_double_banana_fixture():
    g = double_banana()
    assert g.vertex_count == 8 and g.edge_count == 18
    assert not g.has_edge(1, 2)
    report = analyze(Framework(g, random_config(3, 8, subrng(2, "banana", 0))))
    assert report.flex_dim == 7 and report.trivial_dim == 6
    assert not report.is_rigid
    assert is_implied_edge(g, 1, 2, 3)
    assert not is_implied_edge(g, 3, 6, 3)


def test_generic_rigidity_small_cases():
    assert is_generically_rigid(Graph.complete(3), 2)
    assert not is_generically_rigid(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2)
    assert is_generically_rigid(Graph.complete(4), 3)
    assert not is_generically_rigid(double_banana(), 3)


def test_rigid_graph_implies_every_pair():
    g = Graph.complete(5).without_edges([(4, 5)])
    assert is_generically_rigid(g, 3)
    assert is_implied_edge(g, 4, 5, 3)


def test_implied_pairs_listing():
    g = double_banana()
    nonedges = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)
                if not g.has_edge(i, j)]
    assert implied_pairs(g, nonedges, 3) == {(1, 2)}


def test_find_implied_k4():
    g = Graph.complete(5).without_edges([(4, 5), (1, 4), (2, 4)])
    quad = find_implied_k4(g, [1, 2, 3, 4, 5], 3)
    assert quad == (1, 2, 3, 5)
    assert find_implied_k4(double_banana(), [3, 4, 5, 6], 3) is None


def test_isostatic_matches_edge_count_oracle():
    # generically, a rigid graph in R^3 is minimally rigid iff it has 3k-6 edges
    for trial in range(6):
        rng = subrng(2, "iso", trial)
        k = rng.randint(4, 6)
        pool = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        edges = [e for e in pool if rng.random() < 0.8]
        g = Graph.from_edges(k, edges)
        report = analyze(Framework(g, random_config(3, k, rng)))
        if report.is_rigid:
            assert report.is_isostatic == (g.edge_count == 3 * k - 6)
        else:
            assert not report.is_isostatic


def test_henneberg_extension_bookkeeping():
    g = Graph.complete(5).without_edges([(4, 5)])
    ext = henneberg_extend(g, [1, 2, 3, 4, 5], [(1, 4), (2, 4)], 3)
    assert ext.vertex_count == 6
    assert ext.edge_count == g.edge_count - 2 + 5
    for v in range(1, 6):
        assert ext.has_edge(v, 6)
    assert not ext.has_edge(1, 4) and not ext.has_edge(2, 4)


def test_henneberg_support_validation():
    g = Graph.complete(5).without_edges([(4, 5)])
    with pytest.raises(BadSupportError):
        henneberg_extend(g, [1, 2, 3, 4], [(1, 4), (2, 4)], 3)
    with pytest.raises(BadSupportError):
        henneberg_extend(g, [1, 2, 3, 4, 5], [(4, 5), (1, 2)], 3)


def test_rank_of_rigidity_matrix_counts_constraints():
    p = random_config(3, 5, subrng(2, "rank", 0))
    g = Graph.complete(5)
    m = rigidity_matrix(Framework(g, p))
    assert m.shape == (10, 15)
    assert rank(m) == 9


def test_analyze_of_an_integer_configuration_builds_no_fraction(fraction_counter):
    fw = Framework(Graph.complete(8), random_config(3, 8, subrng(0, "x", 0)))
    before = fraction_counter()
    report = analyze(fw)
    assert report.is_rigid and not report.is_isostatic
    assert fraction_counter() == before


def test_rigidity_of_a_configuration_with_denominators_builds_no_fraction(
        fraction_counter):
    # rational.json's points are cleared once, over den 180,180; analyze
    # and flex_space then rank and solve the integer edge rows.
    p = PointConfiguration(exact_matrix(CONFIGS["rational.json"]).T)
    fw = Framework(K5E, p)
    before = fraction_counter()
    report, flexes = analyze(fw), flex_space(fw)
    assert report.is_isostatic and flexes.dim == report.trivial_dim == 6
    assert fraction_counter() == before


def test_the_generic_oracles_build_no_fraction(fraction_counter):
    # Generic samples are integer draws, so the implied-pair and rigidity
    # oracles stay in integers: every non-edge of the double banana, one
    # pair of K5 - e, and a 2-extension of K5 - e.
    banana = double_banana()
    k5e = Graph.complete(5).without_edges([(4, 5)])
    vertices = range(1, banana.vertex_count + 1)
    nonedges = [(i, j) for i in vertices for j in vertices
                if i < j and not banana.has_edge(i, j)]
    extension = henneberg_extend(k5e, [1, 2, 3, 4, 5], [(1, 2), (2, 3)], 3)
    before = fraction_counter()
    assert len(implied_pairs(banana, nonedges, 3, 0)) == 1
    assert is_implied_edge(k5e, 4, 5, 3, 0)
    assert is_generically_rigid(extension, 3, 0)
    assert fraction_counter() == before


def _octahedron() -> Graph:
    antipodal = {(1, 2), (3, 4), (5, 6)}
    return Graph.from_edges(6, [e for e in Graph.complete(6).sorted_edges()
                                if e not in antipodal])


K5E = Graph.complete(5).without_edges([(4, 5)])
ISOSTATIC_CASES = [
    ("K4", Graph.complete(4), True),
    ("K5-e", K5E, True),
    ("K5", Graph.complete(5), False),
    ("octahedron", _octahedron(), True),
    ("double-banana", double_banana(), False),
    ("K5-e+0ext", henneberg_extend(K5E, [1, 2, 4], [], 3), True),
]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("g", [K5E, double_banana()],
                         ids=["K5-e", "double-banana"])
def test_analyze_builds_no_motion_space(monkeypatch, g, exact):
    """The trivial dimension comes from the affine rank, so analyze needs
    neither the trivial motion space nor a subspace basis."""
    p = random_config(3, g.vertex_count, subrng(2, "no-space", 0), exact=exact)
    want = analyze(Framework(g, p))

    def refuse(*args, **kwargs):
        raise AssertionError("analyze built a motion space")

    monkeypatch.setattr(motions, "trivial_motion_space", refuse)
    monkeypatch.setattr(linalg.Subspace, "from_spanning", refuse)
    assert analyze(Framework(g, p)) == want


def _isostatic_by_deletion(fw: Framework) -> bool:
    """Rigid, and deleting any one edge drops the rank."""
    r = rigidity_matrix(fw)
    base = rank(r)
    p = fw.config
    if p.dim * p.count - base != trivial_motion_space(p).dim:
        return False
    return all(rank(np.delete(r, idx, axis=0)) == base - 1
               for idx in range(r.shape[0]))


@pytest.mark.parametrize("scale", [None, 1e-3, 1.0, 1e3],
                         ids=["exact", "float-1e-3", "float-1", "float-1e3"])
@pytest.mark.parametrize("name, g, expected", ISOSTATIC_CASES,
                         ids=[c[0] for c in ISOSTATIC_CASES])
def test_isostatic_equals_edge_deletion_definition(name, g, expected, scale):
    rng = subrng(2, "iso-def-" + name, 0)
    if scale is None:
        p = random_config(3, g.vertex_count, rng)
    else:
        p = random_config(3, g.vertex_count, rng, exact=False, bound=scale)
    fw = Framework(g, p)
    assert analyze(fw).is_isostatic == _isostatic_by_deletion(fw) == expected


def _implied_pairs_by_row_reduction(g: Graph, p: PointConfiguration,
                                    candidates) -> set:
    """Reference: reduce each candidate's row against the RREF of the edge
    rows in Fraction arithmetic; implied when nothing is left."""
    rows = rigidity_matrix(Framework(g, p)).tolist()
    red, pivots = reference_rref(rows, p.dim * p.count)
    out = set()
    for pair in candidates:
        if pair in g.edges:
            out.add(pair)
            continue
        single = Graph.from_edges(g.vertex_count, [pair])
        row = rigidity_matrix(Framework(single, p))[0].tolist()
        for ri, pc in enumerate(pivots):
            f = row[pc]
            if f != 0:
                row = [a - f * b for a, b in zip(row, red[ri])]
        if all(v == 0 for v in row):
            out.add(pair)
    return out


IMPLIED_CASES = [
    ("double-banana", double_banana()),
    ("octahedron", _octahedron()),
    ("octahedron-minus-edge", _octahedron().without_edges([(1, 3)])),
    ("K5-e", K5E),
    ("K6-minus-matching-14-25-36",
     Graph.complete(6).without_edges([(1, 4), (2, 5), (3, 6)])),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name, g", IMPLIED_CASES, ids=[c[0] for c in IMPLIED_CASES])
def test_implied_pairs_at_matches_row_reduction(name, g, seed):
    p = random_config(3, g.vertex_count, subrng(seed, "implied-ref-" + name, 0))
    vertices = range(1, g.vertex_count + 1)
    candidates = [(i, j) for i in vertices for j in vertices if i < j]
    assert _implied_pairs_at(g, p, candidates) == \
        _implied_pairs_by_row_reduction(g, p, candidates)


@st.composite
def _small_frameworks(draw):
    """A graph on V = 1 ... 9 vertices in R^n, n = 2 or 3, at integer
    points drawn from [-50, 50] or from {-1, 0, 1}: the latter makes
    points coincide or lie on a line or plane, where fewer coordinates
    are pinned and the rotations' pins leave points 2 and 3."""
    n, v = draw(st.sampled_from([2, 3])), draw(st.integers(1, 9))
    coords = draw(st.sampled_from([st.integers(-1, 1), st.integers(-50, 50)]))
    pts = draw(st.lists(st.lists(coords, min_size=v, max_size=v), min_size=n, max_size=n))
    pairs = list(combinations(range(1, v + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(v, edges), PointConfiguration(exact_matrix(pts))


@settings(max_examples=200, deadline=None)
@example((Graph.complete(6),  # points 1-3 coincide: the rotations pin 4 and 5
          PointConfiguration(exact_matrix([[0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1],
                                           [0, 0, 0, 0, 0, 1]]))))
@given(_small_frameworks())
def test_analyze_and_implied_pairs_match_the_fraction_reference(case):
    """analyze and _implied_pairs_at, which eliminate a short rank on the
    unpinned coordinates only, equal Fraction eliminations of the whole
    matrices: the rank of the rigidity matrix and of the trivial motions'
    generators, and each pair's row reduced against the edge rows."""
    g, p = case
    total = p.dim * p.count
    r = len(reference_rref(rigidity_matrix(Framework(g, p)).tolist(), total)[1])
    gens = [flatten_motion(u).tolist() for u in trivial_motions(p)]
    trivial = len(reference_rref(gens, total)[1])
    report = analyze(Framework(g, p))
    assert (report.flex_dim, report.trivial_dim) == (total - r, trivial)
    assert report.is_isostatic == (r == total - trivial == g.edge_count)
    pairs = list(combinations(range(1, p.count + 1), 2))
    assert _implied_pairs_at(g, p, pairs) == _implied_pairs_by_row_reduction(g, p, pairs)


@pytest.mark.parametrize("g, want", [(K5E, {(4, 5)}), (double_banana(), {(1, 2)})],
                         ids=["K5-e", "double-banana"])
def test_implied_pairs_build_no_flex_space(monkeypatch, g, want):
    """Implied pairs are one forward elimination of the strains: no flex
    space and no kernel basis is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("implied pairs built a kernel")

    monkeypatch.setattr(rigidity, "flex_space", refuse)
    monkeypatch.setattr(linalg, "nullspace_rows", refuse)
    p = random_config(3, g.vertex_count, subrng(3, "no-kernel", 0))
    vertices = range(1, g.vertex_count + 1)
    nonedges = [(i, j) for i in vertices for j in vertices
                if i < j and not g.has_edge(i, j)]
    assert _implied_pairs_at(g, p, nonedges) == want


@st.composite
def _implied_queries(draw):
    """An implied_pairs query: a graph on V = 2 ... 8 vertices in R^n,
    n = 2 or 3, candidate pairs (edges among them), and a seed.  With
    special set, the two samples are instead integer configurations with
    coordinates in {-1, 0, 1}, where they often disagree."""
    n, v = draw(st.sampled_from([2, 3])), draw(st.integers(2, 8))
    pairs = list(combinations(range(1, v + 1), 2))
    g = Graph.from_edges(v, draw(st.sets(st.sampled_from(pairs))))
    cands = draw(st.lists(st.sampled_from(pairs), unique=True))
    special = draw(st.lists(st.lists(st.lists(st.integers(-1, 1), min_size=v, max_size=v),
                                     min_size=n, max_size=n), min_size=2, max_size=2)
                   | st.none())
    return g, n, cands, draw(st.integers(0, 99)), special


@settings(max_examples=150, deadline=None)
@example((double_banana(), 3, [pair for pair in combinations(range(1, 9), 2)
                               if not double_banana().has_edge(*pair)], 0, None))
@given(_implied_queries())
def test_implied_pairs_is_the_intersection_at_both_samples(query):
    """implied_pairs tests at its second sample only the pairs its first
    found implied; that equals testing every candidate at both samples
    and intersecting.  The example is flexible: its first sample finds
    one of the 10 gaps implied."""
    g, n, cands, seed, special = query
    if special is None:
        samples = list(generic_samples(n, g.vertex_count, seed))
        got = implied_pairs(g, cands, n, seed)
    else:
        samples = [PointConfiguration(exact_matrix(pts)) for pts in special]
        with mock.patch.object(rigidity, "generic_samples", lambda *args: iter(samples)):
            got = implied_pairs(g, cands, n, seed)
    assert got == _implied_pairs_at(g, samples[0], cands) & \
        _implied_pairs_at(g, samples[1], cands)


@pytest.mark.parametrize("n", [2, 3])
def test_generic_samples_are_prefix_closed(n):
    # The first V points of each (V + 1)-point sample are the V-point one,
    # so one stream serves a graph and every one-vertex extension of it.
    for seed in range(5):
        for v in range(1, 10):
            short, long = (list(generic_samples(n, count, seed)) for count in (v, v + 1))
            assert len(short) == len(long) == 2
            assert short == [PointConfiguration(q.points[:, :v]) for q in long]
            assert short[0] != short[1]


def test_only_generic_samples_draws_in_the_generic_layer():
    # Every generic verdict and the 2-extension table read one stream.
    sites = {}
    for module in (rigidity, applications):
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", "")
                if name == "subrng" or name.startswith("random_"):
                    sites.setdefault(module.__name__, set()).add(node.name)
    assert sites == {"rigidlab.rigidity": {"generic_samples"}}


def _integer_rows(rows: int, cols: int, bound: int):
    row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


INVARIANCE_CASES = [("K4", Graph.complete(4)), ("K5-e", K5E),
                    ("octahedron", _octahedron()), ("double-banana", double_banana())]


def _draw_affine_case(data, k: int):
    """Integer points, an invertible integer affine map (a, b) and a
    relabelling of k vertices.  The points are base + D c_i with D a drawn
    3 x span matrix: generic at span 3, coplanar, collinear or coincident
    below it; the origin is weighted as a base, where a linear span and an
    affine span coincide."""
    span = data.draw(st.integers(0, 3), label="span")
    base = data.draw(st.just([[0]] * 3) | _integer_rows(3, 1, 30), label="base")
    pts = exact_matrix(base * np.ones((1, k), dtype=int))
    if span:
        pts = pts + exact_matrix(data.draw(_integer_rows(3, span, 9), label="D")) \
            @ exact_matrix(data.draw(_integer_rows(span, k, 9), label="c"))
    # A = P L U: a row permutation, unit lower and invertible upper factors.
    lower, upper = (exact_matrix(data.draw(_integer_rows(3, 3, 4), label=side))
                    for side in ("L", "U"))
    for i in range(3):
        lower[i, i + 1:] = upper[i + 1:, i] = 0
        lower[i, i] = 1
        upper[i, i] = data.draw(st.integers(1, 4), label="pivot") \
            * data.draw(st.sampled_from([1, -1]), label="sign")
    a = (lower @ upper)[data.draw(st.permutations(range(3)), label="P")]
    b = exact_matrix(data.draw(_integer_rows(3, 1, 50), label="b"))
    perm = data.draw(st.permutations(range(k)), label="relabel")
    return pts, a, b, perm


def _relabelled(g: Graph, pts, perm):
    """g and its points with vertex i renamed perm[i - 1] + 1."""
    renamed = pts.copy()
    renamed[:, list(perm)] = pts
    return (Graph.from_edges(g.vertex_count, [(perm[i - 1] + 1, perm[j - 1] + 1)
                                              for i, j in g.edges]), renamed)


def _assert_analyze_invariance(g: Graph, data, exact: bool):
    k = g.vertex_count
    pts, a, b, perm = _draw_affine_case(data, k)
    moved = a @ pts + b @ exact_matrix([[1] * k])
    relabelled, renamed = _relabelled(g, pts, perm)
    if not exact:
        pts, moved, renamed = (linalg.to_float(m) for m in (pts, moved, renamed))
    want = analyze(Framework(g, PointConfiguration(pts)))
    assert analyze(Framework(g, PointConfiguration(moved))) == want
    assert analyze(Framework(relabelled, PointConfiguration(renamed))) == want


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, g", INVARIANCE_CASES,
                         ids=[c[0] for c in INVARIANCE_CASES])
def test_analyze_is_invariant_under_affine_maps_and_relabelling(name, g, data):
    # Infinitesimal rigidity is an affine invariant of the configuration and
    # does not see vertex names (Graver-Servatius-Servatius); exact ranks
    # must agree at any integer configuration, degenerate ones included.
    _assert_analyze_invariance(g, data, exact=True)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, g", INVARIANCE_CASES,
                         ids=[c[0] for c in INVARIANCE_CASES])
def test_float_analyze_is_invariant_under_affine_maps_and_relabelling(name, g, data):
    # The same on float64 copies of the same integer points.
    _assert_analyze_invariance(g, data, exact=False)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, g", INVARIANCE_CASES,
                         ids=[c[0] for c in INVARIANCE_CASES])
def test_implied_pairs_are_invariant_under_affine_maps_and_relabelling(name, g, data):
    # Implied pairs are the rows' linear dependencies, which an invertible
    # affine map keeps and vertex names do not see: at one configuration,
    # degenerate ones included, the map keeps the implied set and
    # relabelling graph and points renames it; at the sampled generic
    # configurations, relabelling the graph alone does.
    k = g.vertex_count
    pts, a, b, perm = _draw_affine_case(data, k)
    relabelled, renamed = _relabelled(g, pts, perm)

    def rename(pairs):
        return {normalize_edge(perm[i - 1] + 1, perm[j - 1] + 1) for i, j in pairs}

    pairs = list(combinations(range(1, k + 1), 2))
    want = _implied_pairs_at(g, PointConfiguration(pts), pairs)
    moved = PointConfiguration(a @ pts + b @ exact_matrix([[1] * k]))
    assert _implied_pairs_at(g, moved, pairs) == want
    assert _implied_pairs_at(relabelled, PointConfiguration(renamed),
                             rename(pairs)) == rename(want)
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    assert implied_pairs(relabelled, rename(pairs), 3, seed) == \
        rename(implied_pairs(g, pairs, 3, seed))


def _exact_calls(calls):
    """(rows, ncols, reduce) of the exact eliminations among recorded
    _bareiss calls."""
    return [call[:3] for call in calls if call[3] is None]


WORK_CASES = [
    ("octahedron", _octahedron(), 0),
    ("K5-e", K5E, 0),
    ("K6", Graph.complete(6), 0),
    ("octahedron-minus-edge", _octahedron().without_edges([(1, 3)]), 0),
    ("double-banana", double_banana(), 1),
]


@pytest.mark.parametrize("name, g, ranks", WORK_CASES, ids=[c[0] for c in WORK_CASES])
def test_analyze_eliminates_exactly_only_a_short_rank(bareiss_calls, name, g, ranks):
    """Isostatic, over-braced and independent flexible graphs reach their
    rank bound (nV - trivial_dim, or the edge count) modulo PRIME: the only
    exact elimination is the points' affine rank, and no pin is chosen.
    The double banana's rank falls short of both, so after the one
    modular attempt the pins are chosen (point 1's coordinates, and a
    forward elimination of the three rotations about p_1), and its
    rigidity matrix is eliminated once exactly on the 3V - 6 others:
    (18, 18) where the unpinned matrix is (18, 24)."""
    v = g.vertex_count
    fw = Framework(g, random_config(3, v, subrng(0, "work-" + name, 0)))
    analyze(fw)
    pinned = [(3, 3 * v, False), (g.edge_count, 3 * v - 6, False)]
    assert _exact_calls(bareiss_calls) == [(v - 1, 3, False)] + pinned * ranks
    assert [call for call in bareiss_calls if call[3]] == \
        [(g.edge_count, 3 * v, False, linalg.PRIME)]


def test_implied_pairs_of_a_rigid_graph_need_no_exact_elimination(bareiss_calls):
    """At a sample where the octahedron is rigid its edge columns reach the
    rank bound modulo PRIME, so every candidate is implied without an
    exact spanned_columns or a pin choice: the two samples eliminate only
    their affine ranks exactly."""
    g = _octahedron()
    assert implied_pairs(g, [(1, 2), (3, 4), (5, 6)], 3) == {(1, 2), (3, 4), (5, 6)}
    assert _exact_calls(bareiss_calls) == [(5, 3, False)] * 2
    assert [call[3] for call in bareiss_calls].count(linalg.PRIME) == 2


def test_implied_pairs_of_a_flexible_graph_eliminate_the_unpinned_rows(bareiss_calls):
    """The double banana falls short of its bound modulo PRIME at both
    samples, so each eliminates [R^T | C^T] exactly on the 18 rows outside
    the pinned coordinates, where the unpinned matrix has 24; the
    elimination's pivots lie in the 18 edge columns.  The first sample's C
    is the 10 gaps, 18 x 28; the second's is the one pair the first found
    implied, 18 x 19, where testing every gap again would be 18 x 28."""
    g = double_banana()
    gaps = [pair for pair in combinations(range(1, 9), 2) if not g.has_edge(*pair)]
    assert implied_pairs(g, gaps, 3) == {(1, 2)}
    sample = [(7, 3, False), (3, 24, False), (18, 18, False)]
    assert _exact_calls(bareiss_calls) == sample * 2
    assert [call for call in bareiss_calls if call[3]] == [(24, 18, False, linalg.PRIME)] * 2
    assert [call.width for call in bareiss_calls if call[:2] == (18, 18)] == [28, 19]


@pytest.mark.parametrize("g", [double_banana(), Graph.complete(5).without_edges([(4, 5), (1, 2)])],
                         ids=["double-banana", "K5-less-45-12"])
def test_verdicts_are_those_of_the_points_scaled_to_rationals(g):
    # At p / 7 the strains, and so every matrix the rank questions take,
    # hold Fractions: each linalg entry point, reaches_mod_p, pivot_columns
    # and spanned_columns included, must clear them for the int-only kernel.
    v = g.vertex_count
    non_edges = [pair for pair in combinations(range(1, v + 1), 2) if pair not in g.edges]
    for seed in range(20):
        p = next(generic_samples(3, v, seed))
        scaled = PointConfiguration(p.points * Fraction(1, 7))
        assert scaled.den == 7
        fw, fw_scaled = Framework(g, p), Framework(g, scaled)
        assert analyze(fw_scaled) == analyze(fw), seed
        assert _implied_pairs_at(g, scaled, non_edges) == _implied_pairs_at(g, p, non_edges), seed
        assert rank(rigidity_matrix(fw_scaled)) == rank(rigidity_matrix(fw)), seed
