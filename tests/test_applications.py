from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidlab import linalg, rigidity
from rigidlab.admissibility import (ClassificationKind, check_admissibility,
                                    classify_admissible)
from rigidlab.applications import (ExtensionReport, ExtensionTable,
                                   _find_implied_probe, _Stretches,
                                   conic_probe_graphs, edge_conic_space,
                                   skew_matrix_space, two_extension_report)
from rigidlab.errors import BadSupportError, NotIsostaticError
from rigidlab.linalg import exact_matrix
from rigidlab.motions import MotionSpace, PointConfiguration
from rigidlab.rigidity import (Framework, Graph, _implied_pairs_at, analyze,
                               complete_quadruple, double_banana,
                               henneberg_extend, implied_pairs,
                               is_generically_rigid)
from rigidlab.sampling import random_general_config
from rigidlab.verify import run_check

STANDARD = PointConfiguration(exact_matrix(
    [[1, 0, 0, 1, 1],
     [0, 1, 0, 1, 2],
     [0, 0, 1, 1, 3]]))


def test_no_edges_leaves_full_matrix_space():
    space = edge_conic_space(STANDARD, [])
    assert space.dim == 9


def test_skew_space_is_antisymmetric_dim_three():
    space = skew_matrix_space()
    assert space.dim == 3
    for row in space.basis:
        m = row.reshape(3, 3)
        assert ((m + m.T) == 0).all()


def test_probe_graphs_pin_down_skew_space():
    probes = conic_probe_graphs()
    assert len(probes) == 3
    skew = skew_matrix_space()
    for idx, name in enumerate(sorted(probes)):
        edges = probes[name]
        assert len(set(edges)) == 6
        p = random_general_config(3, 5, 11, f"conic-{idx}", bound=1000)
        assert edge_conic_space(p, edges).equals(skew)


def test_collinear_points_leave_extra_dimensions():
    # all edge directions parallel: one independent constraint in total
    line = PointConfiguration(exact_matrix(
        [[1, 2, 3, 4, 5],
         [2, 4, 6, 8, 10],
         [3, 6, 9, 12, 15]]))
    edges = conic_probe_graphs()["triangle-and-path"]
    assert edge_conic_space(line, edges).dim == 8


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        edge_conic_space(STANDARD, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        edge_conic_space(STANDARD, [(1, 6)])


def _nearly_complete_five() -> Graph:
    return Graph.complete(5).without_edges([(4, 5)])


def test_blocked_pair_has_no_prediction():
    report = two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5],
                                  (1, 4), (2, 4))
    assert report.implied_k4 == (1, 2, 3, 5)
    assert report.predicted_rigid is None
    assert report.prediction_rule is None
    assert not report.extension_rigid
    assert report.consistent


def test_rich_support_predicts_rigid():
    report = two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5],
                                  (1, 2), (1, 3))
    assert report.support_edge_count >= 7
    assert report.implied_k4 is None
    assert report.prediction_rule == "seven-support-edges"
    assert report.predicted_rigid
    assert report.extension_rigid
    assert report.consistent


def test_sparse_support_uses_implied_triangle_pendant():
    edges_x = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 4)]
    rest = [(1, 6), (2, 6), (5, 6), (2, 7), (3, 7), (5, 7), (6, 7),
            (4, 6), (4, 7)]
    g = Graph.from_edges(7, edges_x + rest)
    assert g.edge_count == 3 * 7 - 6
    report = two_extension_report(g, [1, 2, 3, 4, 5], (4, 5), (1, 4))
    assert report.support_edge_count == 6
    assert report.implied_k4 is None
    assert report.implied_probe == ((1, 2, 3), (3, 4))
    assert report.prediction_rule == "implied-triangle-pendant"
    assert report.predicted_rigid
    assert report.extension_rigid
    assert report.consistent


def test_flexible_base_refused():
    with pytest.raises(NotIsostaticError):
        two_extension_report(double_banana(), [1, 2, 3, 4, 5], (1, 3), (1, 4))


@pytest.mark.parametrize("g", [Graph.complete(5),
                               _nearly_complete_five().without_edges([(1, 2)])],
                         ids=["K5", "K5-e-less-an-edge"])
def test_over_braced_and_flexible_bases_refused(g):
    with pytest.raises(NotIsostaticError):
        ExtensionTable(g, 3, 0)


def test_short_support_refused():
    with pytest.raises(BadSupportError):
        two_extension_report(_nearly_complete_five(), [1, 2, 3, 4],
                             (1, 2), (1, 3))


def test_equal_removed_edges_refused():
    with pytest.raises(ValueError):
        two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5],
                             (1, 2), (2, 1))


def _reference_report(g: Graph, xs, e, f, seed: int) -> ExtensionReport:
    """The 2-extension report decided case by case from the public oracles."""
    implied = implied_pairs(g.without_edges([e, f]), combinations(xs, 2), 3, seed)
    k4 = complete_quadruple(implied, xs)
    probe = _find_implied_probe(implied, xs)
    support = len(g.edges_within(xs))
    predicted = rule = None
    if k4 is None:
        if support >= 7:
            predicted, rule = True, "seven-support-edges"
        elif probe is not None:
            predicted, rule = True, "implied-triangle-pendant"
    actual = is_generically_rigid(henneberg_extend(g, xs, [e, f], 3), 3, seed)
    return ExtensionReport(support, k4, probe, predicted, rule, actual,
                           predicted is None or predicted == actual)


def _cases(g: Graph):
    for xs in combinations(range(1, g.vertex_count + 1), 5):
        for e, f in combinations(sorted(g.edges_within(xs)), 2):
            yield list(xs), e, f


# K5 - e and the four isostatic graphs on six vertices grown from K4 by 0-
# and 1-extensions, up to isomorphism, with their 2-extension case counts.
GROWN = [
    ("K5-e", Graph.complete(5).without_edges([(4, 5)]), 36),
    ("K6-e1", Graph.from_edges(6, [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 4), (3, 5), (3, 6)]), 171),
    ("K6-e2", Graph.from_edges(6, [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 4), (3, 5), (4, 6)]), 170),
    ("K6-e3", Graph.from_edges(6, [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4),
        (3, 5), (4, 6), (5, 6)]), 169),
    ("K6-e4", Graph.from_edges(6, [
        (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4),
        (3, 5), (4, 6), (5, 6)]), 168),
]


@pytest.mark.parametrize("name, g, count", GROWN, ids=[c[0] for c in GROWN])
def test_table_matches_the_per_case_oracles(name, g, count):
    # 714 cases in all; about 5 s, nearly all of it the per-case reference.
    cases = list(_cases(g))
    assert len(cases) == count
    table = ExtensionTable(g, 3, 0)
    for xs, e, f in cases:
        assert table.report(xs, e, f) == _reference_report(g, xs, e, f, 0), (xs, e, f)


def _restricted_flexes(s: _Stretches, xs, e, f):
    """(p|x, S): the sample's first V points restricted to the support x,
    and the span of the stretch motions u_e and u_f restricted to x."""
    cols = [k - 1 for k in xs]
    px = PointConfiguration(s.p.points[:, cols])
    motions = [linalg.array([s.motions[h][k - 1] for k in xs]).T for h in (e, f)]
    return px, MotionSpace.from_motions(px, motions)


def test_an_extension_is_rigid_exactly_when_its_restricted_flexes_are_inadmissible():
    # The flexes of g - e - f are T(p) + span(u_e, u_f), and a vertex joined
    # to all of x extends a nonzero motion of their restriction S exactly
    # where the mismatch map is rank-deficient: the rank verdict of the
    # table and the pin-sample verdict of check_admissibility must agree.
    # K5 - e's 36 cases and every 4th case of each n = 6 graph; every
    # blocked (admissible) space is in the rank-one form.
    admissible = {}
    for name, g, _ in GROWN:
        table = ExtensionTable(g, 3, 0)
        sample = table._samples[0]
        assert sample.motions is not None
        cases = list(_cases(g))
        admissible[name] = 0
        for xs, e, f in cases if name == "K5-e" else cases[::4]:
            px, space = _restricted_flexes(sample, xs, e, f)
            verdict = check_admissibility(px, space, 20, 0).admissible
            assert verdict == (not table.report(xs, e, f).extension_rigid), (name, xs, e, f)
            if verdict:
                admissible[name] += 1
                kind = classify_admissible(px, space).kind
                assert kind is ClassificationKind.RANK_ONE_FORM, (name, xs, e, f)
    assert admissible["K5-e"] == 6
    assert sum(admissible.values()) > admissible["K5-e"]


def test_table_falls_back_at_a_coplanar_sample(monkeypatch):
    # The first sample's first five points are flattened onto z = 0 (a new
    # sixth point keeps its height), where K5 - e is not isostatic: the
    # table must run the per-case oracles there, on the same points.
    real = rigidity.generic_samples

    def flattened(n, count, seed):
        for idx, p in enumerate(real(n, count, seed)):
            if idx == 0:
                points = p.points.copy()
                points[2, :5] = 0
                p = PointConfiguration(points)
            yield p

    monkeypatch.setattr(rigidity, "generic_samples", flattened)
    g = Graph.complete(5).without_edges([(4, 5)])
    table = ExtensionTable(g, 3, 0)
    assert [s.motions is None for s in table._samples] == [True, False]
    for xs, e, f in _cases(g):
        assert table.report(xs, e, f) == _reference_report(g, xs, e, f, 0), (e, f)


def test_the_extension_table_builds_no_fraction(fraction_counter):
    g = _nearly_complete_five()
    before = fraction_counter()
    table = ExtensionTable(g, 3, 0)
    reports = [table.report(xs, e, f) for xs, e, f in _cases(g)]
    assert fraction_counter() == before
    assert sum(r.extension_rigid for r in reports) == 30


def test_extension_eliminations_do_not_grow_with_cases(monkeypatch):
    # The base graph's eliminations (its rank and the R R^T solve at each
    # sample) run once per table: check 11's 36 cases make as many as one
    # case does.  Only the per-case (n + 2)-row ranks grow with the cases.
    sizes = []
    real = linalg._rref_exact

    def counting(rows, ncols, reduce=True):
        sizes.append(len(rows))
        return real(rows, ncols, reduce)

    monkeypatch.setattr(linalg, "_rref_exact", counting)
    two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5], (1, 2), (1, 3))
    one_case = [size for size in sizes if size > 5]
    sizes.clear()
    assert run_check("extension-predictions", seed=0).passed
    assert [size for size in sizes if size > 5] == one_case
    assert sizes.count(5) >= 36


def test_table_eliminates_three_times_per_sample(bareiss_calls):
    # At each of the two (V + 1)-point samples: the points' affine rank,
    # the modular proof that K5 - e is isostatic at the first V points and
    # the 9 x 24 Gauss-Jordan solve of R R^T W = R.  Check 11's table adds
    # one (n + 2)-row rank per case on top.
    ExtensionTable(_nearly_complete_five(), 3, 0)
    sample = [(4, 3, False, None), (9, 15, False, linalg.PRIME), (9, 24, True, None)]
    assert bareiss_calls == sample * 2
    bareiss_calls.clear()
    assert run_check("extension-predictions", seed=0).passed
    assert len(bareiss_calls) == 48


@st.composite
def _grown_isostatic(draw):
    """An isostatic graph grown from K4 by two or three random 0- and
    1-extensions (add a vertex on 3 old ones; or split an edge ab and join
    the new vertex to a, b and two more)."""
    edges = set(combinations(range(1, 5), 2))
    for v in range(5, 5 + draw(st.integers(2, 3), label="steps")):
        old = range(1, v)
        if draw(st.booleans(), label="split"):
            a, b = draw(st.sampled_from(sorted(edges)), label="ab")
            rest = [c for c in old if c not in (a, b)]
            more = draw(st.lists(st.sampled_from(rest), min_size=2, max_size=2,
                                 unique=True), label="more")
            edges.discard((a, b))
            edges |= {(c, v) for c in (a, b, *more)}
        else:
            edges |= {(c, v) for c in draw(st.lists(
                st.sampled_from(list(old)), min_size=3, max_size=3, unique=True),
                label="joined")}
    return Graph.from_edges(v, edges)


@settings(max_examples=40, deadline=None)
@given(g=_grown_isostatic(), data=st.data())
def test_stretch_strains_match_the_row_reduction(g, data):
    # The zero sets of r_ij . u_e, and the rank that replaces the
    # extension's analyze, against the per-case computations at one
    # integer configuration (small coordinates: special positions happen).
    v = g.vertex_count
    q = PointConfiguration(exact_matrix(data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=v + 1, max_size=v + 1),
        min_size=3, max_size=3), label="q")))
    s = _Stretches(g, q)
    assume(s.motions is not None)
    pairs = list(combinations(range(1, v + 1), 2))
    for e in g.sorted_edges():
        assert s.unstrained[e] == _implied_pairs_at(g.without_edges([e]), s.p, pairs)
    e, f = data.draw(st.lists(st.sampled_from(g.sorted_edges()), min_size=2,
                              max_size=2, unique=True), label="ef")
    assert s.unstrained[e] & s.unstrained[f] == \
        _implied_pairs_at(g.without_edges([e, f]), s.p, pairs)
    rest = [k for k in range(1, v + 1) if k not in {*e, *f}]
    xs = sorted({*e, *f, *data.draw(st.lists(
        st.sampled_from(rest), min_size=5 - len({*e, *f}),
        max_size=5 - len({*e, *f}), unique=True), label="x")})
    extension = henneberg_extend(g, xs, [e, f], 3)
    assert s.extension_rigid(xs, e, f) == analyze(Framework(extension, q)).is_rigid
