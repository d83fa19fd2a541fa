from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_reference import over_entry
from rigidlab import linalg, motions
from rigidlab.linalg import Subspace, exact_matrix, ones_vector, to_float, zeros
from rigidlab.motions import (MotionSpace, PointConfiguration,
                              _ranks_mod_trivial, affine_motion_parts,
                              flatten_motion, is_infinitesimal_isometry,
                              linear_motion_matrix, p_equivalent,
                              restricts_to_isometry, same_mod_trivial,
                              skew_basis, strains, take_points,
                              trivial_motion_space, unflatten_motion)
from rigidlab.admissibility import proportional_pair_space, single_vertex_space
from rigidlab.rigidity import (Framework, Graph, analyze, flex_space,
                               rigidity_matrix)
from rigidlab.sampling import (random_config, random_exact_matrix,
                               random_float_matrix, random_rational_matrix,
                               subrng)

STANDARD = PointConfiguration(exact_matrix(
    [[1, 0, 0, 1, 1],
     [0, 1, 0, 1, 2],
     [0, 0, 1, 1, 3]]))


def test_flatten_is_point_blocked():
    u = exact_matrix([[1, 2], [3, 4]])
    flat = flatten_motion(u)
    assert list(flat) == [1, 3, 2, 4]
    assert (unflatten_motion(flat, 2, 2) == u).all()


def test_skew_basis_shapes():
    basis = skew_basis(3)
    assert len(basis) == 3
    for a in basis:
        assert (a.T == -a).all()
        assert all(type(v) is int for v in a.flat)
    assert len(skew_basis(2)) == 1
    assert all(a.dtype == float for a in skew_basis(3, exact=False))


def _affine_configs(n: int):
    """(name, points, trivial dimension) in R^n: generic, coplanar (R^3
    only), collinear, coincident and a single point."""
    rng = subrng(1, f"affine/{n}")
    base, d1, d2 = (random_exact_matrix(n, 1, rng, 20) for _ in range(3))
    cases = [("generic", random_exact_matrix(n, 5, rng, 20), n * (n + 1) // 2)]
    if n == 3:
        cases.append(("coplanar", base + d1 @ exact_matrix([[0, 1, 2, -1, 3]])
                      + d2 @ exact_matrix([[0, 2, -1, 1, 1]]), 6))
    cases += [("collinear", base + d1 @ exact_matrix([[0, 1, 2, -3, 5]]),
               n * (n + 1) // 2 - (n - 1) * (n - 2) // 2),
              ("coincident", base @ exact_matrix([[1] * 4]), n),
              ("single", base, n)]
    return cases


def test_trivial_dimension_cases():
    """analyze's closed form n(n+1)/2 - (n-a)(n-a-1)/2, a the dimension of
    the affine span, equals the dimension of the trivial motion space."""
    assert trivial_motion_space(random_config(3, 5, subrng(1, "t", 0))).dim == 6
    assert trivial_motion_space(random_config(2, 3, subrng(1, "t", 1))).dim == 3
    # collinear points still span an affine line, dimension n-1, so no drop
    collinear = PointConfiguration(exact_matrix([[0, 1, 2], [0, 2, 4]]))
    assert trivial_motion_space(collinear).dim == 3
    # a single point only admits the translations
    single = PointConfiguration(exact_matrix([[3], [4], [5]]))
    assert trivial_motion_space(single).dim == 3
    for n in (2, 3):
        for name, pts, want in _affine_configs(n):
            for q in (PointConfiguration(pts), PointConfiguration(to_float(pts))):
                fw = Framework(Graph.complete(q.count), q)
                got = analyze(fw).trivial_dim
                assert got == trivial_motion_space(q).dim == want, (n, name)


CLEARING_INPUTS = {
    "ints": linalg.array([[3, -1, 0], [7, 2, -5]]),
    "fractions": exact_matrix([[3, -1, 0], [7, 2, -5]]),
    "mixed": exact_matrix([[Fraction(1, 6), -4, Fraction(5, 9)],
                           [0, Fraction(-7, 4), 2]]),
    "float": np.array([[0.5, -1.25, 3.0], [2.0, 1e-3, -7.5]]),
}


@pytest.mark.parametrize("kind", sorted(CLEARING_INPUTS))
def test_configuration_clears_its_points_once(kind):
    data = CLEARING_INPUTS[kind].copy()
    p = PointConfiguration(data)
    if p.exact:
        assert all(type(v) is int for v in p.ints.flat)
        assert (linalg.over(p.ints, p.den) == p.points).all()
        assert p.den == {"ints": 1, "fractions": 1, "mixed": 36}[kind]
    else:
        assert p.den == 1 and (p.ints == p.points).all()
    with pytest.raises(ValueError):
        p.points[0, 0] = 1
    with pytest.raises(ValueError):
        p.ints[0, 0] = 1
    before = p.points.copy()
    data[:, 0] = data[:, 1]
    assert (p.points == before).all() and (p.points != data).any()
    assert (linalg.over(p.ints, p.den) == CLEARING_INPUTS[kind]).all()


def test_affine_rank_cases():
    for n in (2, 3):
        for name, pts, _ in _affine_configs(n):
            want = {"generic": n, "coplanar": 2, "collinear": 1}.get(name, 0)
            for q in (PointConfiguration(pts), PointConfiguration(to_float(pts))):
                assert q.affine_rank() == want, (n, name)


@st.composite
def _strain_cases(draw):
    """k points in R^n, one to three flattened motions and distinct pairs:
    exact, with coordinates (Fractions) and motion entries of magnitude in
    [2**62, 2**63), where int64 differences overflow, or in [2**69, 2**70),
    mixed with small ones; or float64."""
    n, k = draw(st.integers(1, 3), label="n"), draw(st.integers(2, 6), label="k")
    if draw(st.booleans(), label="exact"):
        bits = draw(st.sampled_from([63, 70]), label="bits")
        big = st.integers(-9, 9) | st.builds(
            int.__mul__, st.sampled_from([-1, 1]), st.integers(2**(bits - 1), 2**bits - 1))
        coord = st.builds(Fraction, big, st.integers(1, 6))
        points = exact_matrix(draw(st.lists(st.lists(coord, min_size=k, max_size=k),
                                            min_size=n, max_size=n), label="points"))
    else:
        big = st.floats(-1e3, 1e3)
        points = np.array(draw(st.lists(st.lists(big, min_size=k, max_size=k),
                                        min_size=n, max_size=n), label="points"))
    motions = draw(st.lists(st.lists(big, min_size=n * k, max_size=n * k),
                            min_size=1, max_size=3), label="motions")
    pairs = draw(st.lists(st.tuples(st.integers(1, k), st.integers(1, k)).filter(
        lambda ab: ab[0] < ab[1]), unique=True, max_size=6), label="pairs")
    return PointConfiguration(points), motions, pairs


def _scatter_rigidity_matrix(p: PointConfiguration, pairs) -> np.ndarray:
    """The rigidity matrix by scattering each chord p_a - p_b of p's points
    into block a and its negative into block b: the reference for strains
    and for rigidity_matrix, which is strains on the unit motions."""
    i, j = motions.pair_indices(pairs)
    d = p.points.T[i] - p.points.T[j]
    r = zeros((len(d), p.dim * p.count), p.exact)
    rows, cols = np.arange(len(d))[:, None], np.arange(p.dim)
    r[rows, p.dim * i[:, None] + cols] = d
    r[rows, p.dim * j[:, None] + cols] = -d
    return r


@settings(max_examples=80, deadline=None)
@given(case=_strain_cases())
@example(case=(PointConfiguration(exact_matrix([[0, 1]])),
               [[2**62 + 7, -2**62 - 9]], [(1, 2)]))
@example(case=(PointConfiguration(exact_matrix([[3, -1, 4], [1, 5, -9]])),
               [[2, 7, 1, -8, 2, 8]], [(1, 3), (2, 3)]))
@example(case=(PointConfiguration(exact_matrix([["1/3", "2/7"], ["-5/2", 4]])),
               [[1, 2, 3, 4]], []))
@example(case=(PointConfiguration(np.array([[0.5, -1.25, 3.0]])),
               [[1.5, -2.0, 0.25]], [(1, 2), (1, 3)]))
def test_strains_are_the_rigidity_matrix_on_each_motion(case):
    # Exact motions arrive as lists of Python ints, as cleared gives them:
    # taken through np.asarray they would become int64 and overflow.
    p, motions, pairs = case
    fw = Framework(Graph.from_edges(p.count, pairs), p)
    ref = _scatter_rigidity_matrix(p, fw.graph.sorted_edges())
    r = rigidity_matrix(fw)
    assert r.shape == ref.shape == (len(pairs), p.dim * p.count)
    assert r.dtype == ref.dtype and (r == ref).all()
    flat = exact_matrix(motions) if p.exact else np.array(motions)
    want = dict(zip(fw.graph.sorted_edges(), ref @ flat.T))
    as_set = set(pairs)
    for order, given_pairs in ((list(as_set), as_set), (pairs, iter(pairs))):
        got = strains(p, motions, given_pairs)
        assert got.shape == (len(motions), len(pairs))
        for column, pair in zip(got.T, order):
            if p.exact:
                assert column.tolist() == want[pair].tolist()
            else:
                np.testing.assert_allclose(column.astype(float), want[pair],
                                           rtol=1e-9, atol=1e-6)
    assert strains(p, motions, []).shape == (len(motions), 0)


def _origin_rotation_space(q: PointConfiguration) -> Subspace:
    """The span of the unit translations and skew_basis(n) times the raw
    points: rotations about the origin."""
    gens = []
    for j in range(q.dim):
        t = zeros((q.dim, q.count), q.exact)
        t[j] = ones_vector(q.count, q.exact)
        gens.append(t)
    gens += [a @ q.points for a in skew_basis(q.dim, q.exact)]
    return MotionSpace.from_motions(q, gens).subspace


def test_trivial_space_is_spanned_by_the_skew_basis_products():
    # The rotations are skew_basis(n) about point 1, a translation away from
    # those about the origin: the same exact reduced basis, the same float
    # span where the origin reference is well conditioned, and the full
    # dimension in float64 at any scale and offset.
    for n, k in [(2, 3), (3, 4), (3, 5), (4, 6)]:
        p = random_config(n, k, subrng(1, f"span/{n}/{k}"), bound=1000)
        got = trivial_motion_space(p).subspace.basis
        assert got.tolist() == _origin_rotation_space(p).basis.tolist()
        pts = to_float(p.points)
        for s in (1e-3, 1.0, 1e3):
            q = PointConfiguration(pts * s)
            assert trivial_motion_space(q).subspace.equals(_origin_rotation_space(q))
        shifted = ([pts * 10.0 ** e for e in range(-16, 17)]
                   + [pts + 10.0 ** e for e in range(4, 13)])
        for q in map(PointConfiguration, shifted):
            assert trivial_motion_space(q).dim == n * (n + 1) // 2, (n, k)


def test_trivial_motions_are_isometries():
    p = random_config(3, 5, subrng(1, "iso", 0), bound=50)
    for u in trivial_motion_space(p).basis_motions():
        assert is_infinitesimal_isometry(p, u)
    # the radial stretch grows every bar
    assert not is_infinitesimal_isometry(p, p.points)


def test_float_isometry_test_holds_at_any_scale_and_offset():
    # A nearly translational basis motion rounds against |u_a| + |u_b|, not
    # |u_a - u_b|; random motions still strain some bar.
    p = random_config(3, 5, subrng(1, "iso", 0), bound=50)
    rng = subrng(1, "iso-random", 0)
    moves = [random_float_matrix(3, 5, rng) for _ in range(5)]
    pts = to_float(p.points)
    shifted = [pts * 10.0 ** e for e in range(-6, 13)] + [pts + 1e6, pts + 1e9]
    for q in map(PointConfiguration, shifted):
        assert all(is_infinitesimal_isometry(q, u)
                   for u in trivial_motion_space(q).basis_motions())
        assert not any(is_infinitesimal_isometry(q, u) for u in moves)


def test_linear_and_affine_recovery():
    p = random_config(3, 5, subrng(1, "lin", 0), bound=50)
    m = random_exact_matrix(3, 3, subrng(1, "lin", 1), 9)
    b = random_exact_matrix(3, 1, subrng(1, "lin", 2), 9)[:, 0]
    ones = exact_matrix([1, 1, 1, 1, 1])
    assert (linear_motion_matrix(p, m @ p.points) == m).all()
    got_m, got_b = affine_motion_parts(p, m @ p.points + np.outer(b, ones))
    assert (got_m == m).all() and (got_b == b).all()
    assert linear_motion_matrix(p, m @ p.points + np.outer(b, ones)) is None
    # a motion supported on one point is not affine for points in general position
    lonely = single_vertex_space(p).basis_motions()[0]
    assert affine_motion_parts(p, lonely) is None


def _solve_reference(p: PointConfiguration, u, affine: bool):
    """linear_motion_matrix (affine False) or affine_motion_parts by
    linalg.solve on the points themselves: free variables set to zero."""
    lhs = p.points.T
    if affine:
        lhs = np.hstack([lhs, ones_vector(p.count, p.exact).reshape(-1, 1)])
    x = linalg.solve(lhs, np.asarray(u).T)
    if x is None:
        return None
    return (x[:p.dim].T, x[p.dim]) if affine else x.T


def test_linear_motion_solve_matches_the_reference():
    # Integer, rational and float configurations, among them coplanar,
    # collinear and coincident points, where the solve is rank-deficient
    # and the particular solution (free variables zero) must match too.
    rng = subrng(1, "lin-ref")
    configs = [pts for _, pts, _ in _affine_configs(3)]
    configs += [pts * Fraction(2, 7) + random_exact_matrix(3, 1, rng, 9) * Fraction(1, 3)
                for pts in configs]
    planar = random_rational_matrix(3, 2, rng, 20, 9) @ random_exact_matrix(2, 5, rng, 9)
    configs += [planar, random_rational_matrix(3, 5, rng, 50, 11)]
    checked = {True: 0, False: 0}
    for pts in configs:
        for q in (PointConfiguration(pts), PointConfiguration(to_float(pts))):
            m = random_exact_matrix(3, 3, rng, 9)
            b = random_exact_matrix(3, 1, rng, 9)
            noise = random_exact_matrix(3, q.count, rng, 9)
            for u in (m @ pts, m @ pts + b, m @ pts + noise):
                u = u if q.exact else to_float(u)
                for affine, got in ((False, linear_motion_matrix(q, u)),
                                    (True, affine_motion_parts(q, u))):
                    want = _solve_reference(q, u, affine)
                    checked[got is None] += 1
                    if want is None:
                        assert got is None
                        continue
                    for g, w in zip(*((got, want) if affine else ((got,), (want,)))):
                        assert g.dtype == w.dtype and (g == w).all()
    assert checked[True] and checked[False]


def test_p_equivalent_ignores_trivial_shifts():
    p = STANDARD
    s = single_vertex_space(p)
    trivial = trivial_motion_space(p).basis_motions()[0]
    shifted = MotionSpace.from_motions(
        p, [s.basis_motions()[0] + trivial, s.basis_motions()[1]])
    assert p_equivalent(s, shifted)
    line = MotionSpace.from_motions(p, [s.basis_motions()[0]])
    assert not p_equivalent(s, line)


def test_one_point_spaces_with_distinct_planes_differ():
    # moving point 1 inside span{e1,e2} vs inside (p1-p2)-orthogonal: these
    # are only equal modulo trivial motions if the planes agree
    p = random_config(3, 5, subrng(1, "planes", 0), bound=50)
    assert not p_equivalent(single_vertex_space(p), proportional_pair_space(p, 0))


def test_restricts_to_isometry():
    p = STANDARD
    s = single_vertex_space(p)
    assert restricts_to_isometry(p, s, (2, 3, 4))
    assert restricts_to_isometry(p, s, (3, 4, 5))
    assert not restricts_to_isometry(p, s, (1, 2, 3))
    with pytest.raises(ValueError):
        restricts_to_isometry(p, s, (0, 1))


def test_take_points_is_one_based():
    taken = take_points(STANDARD.points, (1, 4, 5))
    assert (taken[:, 0] == STANDARD.point(1)).all()
    assert (taken[:, 1] == STANDARD.point(4)).all()
    assert (taken[:, 2] == STANDARD.point(5)).all()


def test_point_index_validation():
    with pytest.raises(ValueError):
        STANDARD.point(0)
    with pytest.raises(ValueError):
        STANDARD.point(6)
    assert STANDARD.point(2)[1] == Fraction(1)


def test_general_position_detects_coplanar_quadruple():
    flat = PointConfiguration(exact_matrix(
        [[0, 1, 0, 1, 2],
         [0, 0, 1, 1, 5],
         [0, 0, 0, 0, 1]]))
    assert not flat.is_general_position()
    assert STANDARD.is_general_position()


def _mod_trivial_configs():
    """(name, exact points): generic with k = 1..6 in R^2 and R^3, then
    the coplanar, collinear, coincident and single-point cases."""
    cases = [(f"generic-{n}x{k}",
              random_exact_matrix(n, k, subrng(4, f"mod/{n}/{k}"), 30))
             for n in (2, 3) for k in range(1, 7)]
    return cases + [(f"{name}-{n}", pts) for n in (2, 3)
                    for name, pts, _ in _affine_configs(n) if name != "generic"]


def _fraction_basis(space: MotionSpace, last: bool = False) -> np.ndarray:
    """The basis in its Fraction form: each integer row over its pivot, or
    with last over its free column (a kernel row).  Float copies of sets
    built from the integer rows, whose largest entries run from 1 to
    about 6e4, misjudge some ranks at the default tolerance."""
    return exact_matrix([over_entry(row, last) for row in space.subspace.basis.tolist()])


def _motion_sets(p: PointConfiguration, rng) -> list:
    """Sets of 1-4 flattened motions mixing trivial motions, flexes of the
    complete framework (strain-free, and not trivial when p is
    degenerate), one-point velocities, random motions and combinations of
    earlier members, so that the ranks modulo the trivial motions vary."""
    size = p.dim * p.count
    triv = _fraction_basis(trivial_motion_space(p))
    flex = _fraction_basis(flex_space(Framework(Graph.complete(p.count), p)), last=True)
    sets = []
    for _ in range(12):
        vecs = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["trivial", "flex", "point", "random", "combo"])
            vec = random_exact_matrix(1, len(triv), rng, 3)[0] @ triv
            if kind == "flex":
                vec = vec + random_exact_matrix(1, len(flex), rng, 3)[0] @ flex
            elif kind == "point":
                vec = vec.copy()
                vec[rng.randrange(size)] += 1
            elif kind == "random":
                vec = vec + random_exact_matrix(1, size, rng, 5)[0]
            elif kind == "combo" and vecs:
                coeffs = random_exact_matrix(1, len(vecs), rng, 3)[0]
                vec = vec + coeffs @ np.array(vecs)
            vecs.append(vec)
        sets.append(vecs)
    return sets


@pytest.mark.parametrize("name, pts", _mod_trivial_configs(),
                         ids=[c[0] for c in _mod_trivial_configs()])
def test_ranks_mod_trivial_match_the_stacked_reference(name, pts):
    # dim(span S + T) - dim T by the reference join of S with the trivial
    # basis, exact and on float64 copies of the same points and motions.
    p = PointConfiguration(pts)
    sets = _motion_sets(p, subrng(4, "mod-sets/" + name))
    ranks = []
    for q, vec_sets in ((p, sets), (PointConfiguration(to_float(pts)),
                                    [[to_float(v) for v in vecs] for vecs in sets])):
        triv = trivial_motion_space(q).subspace
        want = [Subspace.from_spanning([*triv.basis, *vecs]).dim - triv.dim
                for vecs in vec_sets]
        bounds = np.cumsum([0, *map(len, vec_sets)])
        blocks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        stacked = [v for vecs in vec_sets for v in vecs]
        assert _ranks_mod_trivial(q, stacked, blocks=blocks) == want, name
        ranks.append(want)
    assert ranks[0] == ranks[1]
    if p.count > 1:
        assert len(set(ranks[0])) > 1, name  # the sets do exercise the rank


@pytest.mark.parametrize("name, pts", _mod_trivial_configs(),
                         ids=[c[0] for c in _mod_trivial_configs()])
def test_same_mod_trivial_matches_three_rank_calls(monkeypatch, name, pts):
    # b1 beside a reversed copy shifted by trivial motions (equal modulo
    # them) and beside the next set, exact and on float64 copies: the
    # verdict of the ranks of b1, b2 and [b1; b2] taken one call each.
    # On the strain path the strains are computed once, stacked.
    p = PointConfiguration(pts)
    sets = _motion_sets(p, subrng(4, "same-sets/" + name))
    triv = _fraction_basis(trivial_motion_space(p))
    pairs = []
    for i, b1 in enumerate(sets):
        shifted = [v + (k + 1) * triv[k % len(triv)] for k, v in enumerate(b1[::-1])]
        pairs += [(b1, shifted), (b1, sets[(i + 1) % len(sets)])]
    strained = []
    real_strains = motions.strains
    monkeypatch.setattr(motions, "strains", lambda q, u, ij: (
        strained.append(len(u)) or real_strains(q, u, ij)))
    verdicts = []
    for q, cast in ((p, np.asarray), (PointConfiguration(to_float(pts)), to_float)):
        on_strains = q.exact and q.affine_rank() == min(q.count - 1, q.dim)
        for b1, b2 in pairs:
            b1, b2 = np.array([cast(v) for v in b1]), np.array([cast(v) for v in b2])
            r1, r2, r12 = (_ranks_mod_trivial(q, b)[0]
                           for b in (b1, b2, np.vstack([b1, b2])))
            strained.clear()
            verdicts.append(same_mod_trivial(q, b1, b2))
            assert verdicts[-1] == (r1 == r2 == r12), name
            assert strained == ([len(b1) + len(b2)] if on_strains else []), name
    assert verdicts[::2] == [True] * len(verdicts[::2]), name
    assert False in verdicts[1::2] or p.count == 1, name
