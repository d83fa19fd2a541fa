"""The generic layer in the plane against Laman's theorem.

In R^2 the (2,3) pebble game (tests/pebble_game.py) decides generic
rigidity, independence and implied pairs exactly, so the sampled exact
answers of implied_pairs, is_generically_rigid, analyze and
ExtensionTable at n = 2 have a theorem-fixed oracle there.
"""

from itertools import combinations, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from pebble_game import PebbleGame
from rigidlab.applications import ExtensionTable
from rigidlab.rigidity import (Framework, Graph, analyze, henneberg_extend,
                               implied_pairs, is_generically_rigid)
from rigidlab.sampling import random_config, subrng


def _laman_count_independent(g: Graph) -> bool:
    """Every subgraph on k >= 2 vertices spans at most 2k - 3 edges."""
    vertices = range(1, g.vertex_count + 1)
    return all(len(g.edges_within(s)) <= 2 * k - 3
               for k in range(2, g.vertex_count + 1) for s in combinations(vertices, k))


@st.composite
def small_graphs(draw, max_vertices):
    """A graph on 1..max_vertices vertices with up to 2V + 2 edges."""
    v = draw(st.integers(1, max_vertices))
    pairs = draw(st.permutations(list(combinations(range(1, v + 1), 2))))
    return Graph.from_edges(v, pairs[:draw(st.integers(0, min(len(pairs), 2 * v + 2)))])


@settings(max_examples=100, deadline=None)
@given(small_graphs(7))
def test_pebble_game_is_the_laman_count(g):
    """Edge by edge, the game accepts exactly the edges that keep the
    accepted set independent by Laman's count: a greedy basis, so its
    rank is the generic rank."""
    game, accepted = PebbleGame(g.vertex_count), []
    for e in g.sorted_edges():
        independent = _laman_count_independent(Graph.from_edges(g.vertex_count, accepted + [e]))
        assert game.add(*e) == independent
        accepted += [e] if independent else []
    assert game.rank == len(accepted)


@st.composite
def near_laman_graphs(draw, max_vertices):
    """A Laman graph grown from a triangle by random 0- and 1-extensions
    to 3..max_vertices vertices, less up to two edges and plus up to two
    pairs: rigid, over-braced and flexible graphs with rigid parts."""
    g = Graph.complete(3)
    for v in range(3, draw(st.integers(3, max_vertices))):
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(g.sorted_edges()))
            c = draw(st.sampled_from([c for c in range(1, v + 1) if c not in (a, b)]))
            g = henneberg_extend(g, [a, b, c], [(a, b)], 2)
        else:
            g = henneberg_extend(g, draw(st.sampled_from(
                list(combinations(range(1, v + 1), 2)))), [], 2)
    drop = draw(st.sets(st.sampled_from(g.sorted_edges()), max_size=2))
    add = draw(st.sets(st.sampled_from(list(combinations(range(1, g.vertex_count + 1), 2))),
                       max_size=2))
    return Graph(g.vertex_count, (g.edges - drop) | add)


@settings(max_examples=40, deadline=None)
@given(small_graphs(12) | near_laman_graphs(12), st.integers(0, 10 ** 6))
def test_generic_layer_matches_the_pebble_game(g, seed):
    v = g.vertex_count
    game = PebbleGame(v, g.sorted_edges())
    pairs = list(combinations(range(1, v + 1), 2))
    assert implied_pairs(g, pairs, 2, seed) == \
        {pair for pair in pairs if pair in g.edges or game.implied(*pair)}
    assert is_generically_rigid(g, 2, seed) == game.rigid
    report = analyze(Framework(g, random_config(2, v, subrng(seed, "planar", 0))))
    assert report.flex_dim == 2 * v - game.rank
    assert report.is_rigid == game.rigid
    assert report.is_isostatic == (game.rigid and game.rank == g.edge_count)


def _canonical(g: Graph) -> tuple:
    """The least sorted edge list over the relabellings that number the
    vertices class by class, a class being the vertices of one degree and
    one multiset of neighbour degrees: equal exactly for isomorphic graphs."""
    vs = range(1, g.vertex_count + 1)
    nbrs = {v: [u for e in g.edges if v in e for u in e if u != v] for v in vs}
    key = {v: (len(nbrs[v]), tuple(sorted(len(nbrs[u]) for u in nbrs[v]))) for v in vs}
    classes = [[v for v in vs if key[v] == k] for k in sorted(set(key.values()))]

    def form(perms):
        new = {v: i for i, v in enumerate((v for perm in perms for v in perm), 1)}
        return tuple(sorted(tuple(sorted((new[a], new[b]))) for a, b in g.edges))

    return min(map(form, product(*map(permutations, classes))))


def _laman_graphs(max_vertices: int) -> list[Graph]:
    """Every Laman graph on 3..max_vertices vertices up to isomorphism:
    all are grown from a triangle by 0- and 1-extensions (Henneberg)."""
    level, out = [Graph.complete(3)], [Graph.complete(3)]
    for v in range(3, max_vertices):
        seen = {}
        for g in level:
            kids = [henneberg_extend(g, pair, [], 2) for pair in combinations(range(1, v + 1), 2)]
            kids += [henneberg_extend(g, [a, b, c], [(a, b)], 2)
                     for a, b in g.sorted_edges() for c in range(1, v + 1) if c not in (a, b)]
            for kid in kids:
                seen.setdefault(_canonical(kid), kid)
        level = list(seen.values())
        out += level
    return out


def test_planar_extension_census_is_lamans():
    """Each 2-extension (delete e and f inside a 4-vertex support x, join
    a new vertex to x) is rigid exactly as the pebble game says, and is
    flexible exactly when three support vertices are pairwise implied in
    g - e - f, an implied triangle; no implied K4 fits in four vertices."""
    # Every Laman graph up to isomorphism on 3 to 6 vertices (1, 1, 3 and
    # 13) and every tenth of the 70 on 7 vertices: the whole census to 7
    # vertices, 10,559 cases, agrees too but takes about 4 s.
    laman = _laman_graphs(7)
    counts = [0, 0]
    for g in laman[:18] + laman[18::10]:
        table = ExtensionTable(g, 2)
        for e, f in combinations(g.sorted_edges(), 2):
            rest = PebbleGame(g.vertex_count, sorted(g.edges - {e, f}))
            for xs in combinations(range(1, g.vertex_count + 1), 4):
                if not {*e, *f} <= set(xs):
                    continue
                report = table.report(xs, e, f)
                rigid = rest.with_vertex(xs).rigid
                triangle = any(all(rest.implied(*pair) for pair in combinations(t, 2))
                               for t in combinations(xs, 3))
                assert report.extension_rigid == rigid != triangle, (g, xs, e, f)
                assert report.implied_k4 is None
                counts[rigid] += 1
    assert counts == [237, 1829]
