from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import linalg
from rigidlab.admissibility import (Classification, ClassificationKind,
                                    classify_admissible,
                                    construct_admissible_family,
                                    proportional_pair_space,
                                    single_vertex_space, split_blocks)
from rigidlab.errors import (HypothesisViolatedError, RigidLabError,
                             SingularMatrixError)
from rigidlab.linalg import (Subspace, exact_matrix, invert, is_zero,
                             nullspace_rows, ones_vector, to_float)
from rigidlab.motions import (MotionSpace, PointConfiguration,
                              affine_motion_parts, p_equivalent)
from rigidlab.sampling import (random_exact_matrix, random_exact_vector,
                               random_general_config, subrng)

STANDARD = PointConfiguration(exact_matrix(
    [[1, 0, 0, 1, 1],
     [0, 1, 0, 1, 2],
     [0, 0, 1, 1, 3]]))


def _plane_perp_to(vec):
    return Subspace.from_spanning(list(nullspace_rows(vec.reshape(1, 3))), 3)


def test_one_point_space_normal_form():
    cls = classify_admissible(STANDARD, single_vertex_space(STANDARD))
    assert cls.kind is ClassificationKind.RANK_ONE_FORM
    assert list(cls.weights) == [1, 0, 0, 0, 0]
    axes = Subspace.from_spanning(
        [exact_matrix([1, 0, 0]), exact_matrix([0, 1, 0])], 3)
    assert cls.plane.equals(axes)


def test_paired_space_normal_form():
    k = Fraction(3, 2)
    cls = classify_admissible(STANDARD, proportional_pair_space(STANDARD, k))
    assert cls.kind is ClassificationKind.RANK_ONE_FORM
    assert list(cls.weights) == [1, k, 0, 0, 0]
    chord = STANDARD.point(1) - STANDARD.point(2)
    assert cls.plane.equals(_plane_perp_to(chord))


def test_zero_ratio_matches_one_point_weights_but_not_space():
    # same weight pattern, different direction planes: equal only through
    # the classification, not as subspaces modulo trivial motions
    s1 = single_vertex_space(STANDARD)
    s0 = proportional_pair_space(STANDARD, 0)
    c1 = classify_admissible(STANDARD, s1)
    c0 = classify_admissible(STANDARD, s0)
    assert list(c1.weights) == list(c0.weights) == [1, 0, 0, 0, 0]
    assert not c1.plane.equals(c0.plane)
    assert not p_equivalent(s1, s0)


def test_constructed_family_is_all_affine():
    for member in construct_admissible_family(STANDARD, trials=5, seed=7):
        cls = classify_admissible(STANDARD, member)
        assert cls.kind is ClassificationKind.ALL_AFFINE


def test_fixed_front_points_force_rear_chord_plane():
    # weights constant on three points make the space an isometry there;
    # with distinct rear weights the plane must be the rear chord's orthogonal
    chord = STANDARD.point(5) - STANDARD.point(4)
    plane = _plane_perp_to(chord)
    z = np.array([Fraction(0)] * 3 + [Fraction(2), Fraction(1)], dtype=object)
    space = MotionSpace.from_motions(
        STANDARD, [np.outer(d, z) for d in plane.basis])
    cls = classify_admissible(STANDARD, space)
    assert cls.kind is ClassificationKind.RANK_ONE_FORM
    assert list(cls.weights) == [0, 0, 0, 1, Fraction(1, 2)]
    assert cls.plane.equals(plane)


def test_rank_one_round_trip_recovers_plane_and_weights():
    recovered = 0
    for trial in range(8):
        rng = subrng(6, "roundtrip", trial)
        rows = random_exact_matrix(2, 3, rng, 20)
        plane = Subspace.from_spanning(list(rows), 3)
        z = random_exact_vector(5, rng, 9)
        if plane.dim != 2 or len(set(z.tolist())) == 1:
            continue
        space = MotionSpace.from_motions(
            STANDARD, [np.outer(d, z) for d in plane.basis])
        if space.dim != 2:
            continue
        cls = classify_admissible(STANDARD, space)
        assert cls.kind is ClassificationKind.RANK_ONE_FORM
        assert cls.plane.equals(plane)
        rebuilt = MotionSpace.from_motions(
            STANDARD, [np.outer(d, cls.weights) for d in cls.plane.basis])
        assert p_equivalent(space, rebuilt)
        recovered += 1
    assert recovered >= 5


def test_weights_are_shift_and_scale_normalized():
    # shifting every weight by the same constant only adds translations
    plane = Subspace.from_spanning(
        [exact_matrix([1, 0, 0]), exact_matrix([0, 0, 1])], 3)
    z = np.array([Fraction(4), Fraction(4), Fraction(4), Fraction(4), Fraction(10)],
                 dtype=object)
    space = MotionSpace.from_motions(
        STANDARD, [np.outer(d, z) for d in plane.basis])
    cls = classify_admissible(STANDARD, space)
    assert list(cls.weights) == [0, 0, 0, 0, 1]


def test_coplanar_configuration_refused():
    coplanar = PointConfiguration(exact_matrix(
        [[1, 1, 1, 1, 1],
         [0, 1, 0, 2, 5],
         [0, 0, 1, 3, 7]]))
    with pytest.raises(HypothesisViolatedError):
        classify_admissible(coplanar, single_vertex_space(coplanar))


def test_requires_two_dimensions():
    line = MotionSpace.from_motions(
        STANDARD, [single_vertex_space(STANDARD).basis_motions()[0]])
    with pytest.raises(ValueError):
        classify_admissible(STANDARD, line)


def test_random_config_classifications_match_construction():
    p = random_general_config(3, 5, 6, "classify-random", bound=1000)
    c1 = classify_admissible(p, single_vertex_space(p))
    assert c1.kind is ClassificationKind.RANK_ONE_FORM
    assert list(c1.weights) == [1, 0, 0, 0, 0]
    k = Fraction(-5, 4)
    c2 = classify_admissible(p, proportional_pair_space(p, k))
    assert c2.kind is ClassificationKind.RANK_ONE_FORM
    assert list(c2.weights) == [1, k, 0, 0, 0]


# -- the Fraction classification as a reference ---------------------------

def _reference_classification(p: PointConfiguration, s: MotionSpace) -> Classification:
    """classify_admissible as it ran on Fractions (both backends): block
    inverses, Fraction solves with halved symmetric-part rows, and the
    reconstructed space built as a MotionSpace."""
    if s.config != p:
        raise ValueError("motion space does not belong to this configuration")
    if s.dim != 2:
        raise ValueError("classification expects a 2-dimensional subspace")
    q, r = split_blocks(p.points)
    try:
        q_inv = invert(q)
        r_inv = invert(r)
    except SingularMatrixError as exc:
        raise HypothesisViolatedError(f"pin block is singular: {exc}") from exc
    exact = p.exact
    ones = ones_vector(3, exact)
    c = r_inv.T @ ones - q_inv.T @ ones
    if is_zero(c):
        raise HypothesisViolatedError(
            "the two pin blocks have equal inverse-transpose row sums "
            "(coplanar configuration)")

    basis = s.basis_motions()
    if all(affine_motion_parts(p, u) is not None for u in basis):
        return Classification(ClassificationKind.ALL_AFFINE, None, None,
                              "every motion in the subspace is affine")

    q1 = q[:, 0]
    d = linalg.array([q1[1] * c[2] - q1[2] * c[1], q1[2] * c[0] - q1[0] * c[2],
                      q1[0] * c[1] - q1[1] * c[0]], exact)
    if is_zero(d):
        raise HypothesisViolatedError("first point is zero or aligned with the "
                                      "row-sum gap; translate the configuration")
    cd = linalg.array([c, d], exact).T

    k_vecs = []
    w_shifted = []
    for u in basis:
        v, w = split_blocks(u)
        a_t = (w @ r_inv - v @ q_inv).T
        coeffs = linalg.solve(cd, a_t)
        if coeffs is None:
            return Classification(
                ClassificationKind.ANOMALY, None, None,
                "mismatch columns leave the plane orthogonal to p1")
        k_vecs.append(coeffs[1])
        w_shifted.append(w + np.outer(-coeffs[0], ones))

    plane = Subspace.from_spanning(k_vecs, 3)
    if plane.dim != 2:
        return Classification(
            ClassificationKind.ANOMALY, None, None,
            "direction vectors of the rank-one normal form are dependent")

    zero, half = (Fraction(0), Fraction(1, 2)) if exact else (0.0, 0.5)
    rows, rhs = [], []
    for k_vec, w_t in zip(k_vecs, w_shifted):
        target = (w_t @ r_inv).T
        for a in range(3):
            for b in range(a, 3):
                coeff = [zero] * 3
                if a == b:
                    coeff[a] = k_vec[a]
                    rhs.append(target[a, a])
                else:
                    coeff[a] = k_vec[b] * half
                    coeff[b] = k_vec[a] * half
                    rhs.append((target[a, b] + target[b, a]) / 2)
                rows.append(coeff)
    lvec = linalg.solve(linalg.array(rows, exact), linalg.array(rhs, exact))
    if lvec is None:
        return Classification(
            ClassificationKind.ANOMALY, None, None,
            "no common linear part solves the symmetric-part equations")

    front = r.T @ lvec
    rear = q.T @ (lvec - d)
    weights = linalg.array([*front, *rear[1:]], exact)
    if not is_zero(front[0] - rear[0], np.array([front[0], rear[0]])):
        return Classification(
            ClassificationKind.ANOMALY, None, None,
            "weight consistency across the shared point failed")

    if exact:
        values = list(weights)
        best = max(values, key=lambda v: (values.count(v), -values.index(v)))
        weights = linalg.array([v - best for v in values])
        lead = next((v for v in weights if v != 0), None)
        if lead is not None:
            weights = weights / lead
    recon = MotionSpace.from_motions(
        p, [np.outer(direction, weights) for direction in plane.basis])
    if recon.dim != 2 or not p_equivalent(s, recon):
        return Classification(
            ClassificationKind.ANOMALY, plane, weights,
            "reconstructed rank-one space is not p-equivalent to the input")
    return Classification(
        ClassificationKind.RANK_ONE_FORM, plane, weights,
        "p-equivalent to directions drawn from a fixed plane scaled by "
        "per-point weights")


def _outcome(classify, p, s):
    """Everything a caller sees: kind, plane basis, weights and details, or
    the class and message of the error raised."""
    try:
        c = classify(p, s)
    except (RigidLabError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    plane = None if c.plane is None else c.plane.basis.tolist()
    weights = None if c.weights is None else c.weights.tolist()
    return c.kind, plane, weights, c.details


SMALL = st.integers(-12, 12)


@st.composite
def _configurations(draw):
    """Five points with a per-axis denominator: generic, with a singular
    pin block (a point of a block a combination of the other two), or on
    a plane z = h off the origin (equal inverse-transpose row sums)."""
    kind = draw(st.sampled_from(["generic"] * 3 + ["singular", "coplanar"]))
    pts = [[draw(SMALL) for _ in range(3)] for _ in range(5)]
    if kind == "singular":
        i, j, k = draw(st.sampled_from([(0, 3, 4), (0, 1, 2)]))
        a, b = draw(SMALL), draw(SMALL)
        pts[k] = [a * x + b * y for x, y in zip(pts[i], pts[j])]
    elif kind == "coplanar":
        h = draw(SMALL.filter(bool))
        for pt in pts:
            pt[2] = h
    dens = [draw(st.integers(1, 9)) for _ in range(3)]
    return PointConfiguration(exact_matrix(
        [[Fraction(pt[i], dens[i]) for pt in pts] for i in range(3)]))


def _int_matrix(draw, rows: int, cols: int) -> np.ndarray:
    return exact_matrix([[draw(SMALL) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _spaces(draw, p: PointConfiguration):
    """Two motions: a rank-one form (a random plane times weights), random
    motions, affine motions, or a linear motion plus one with a bump at a
    single point."""
    kind = draw(st.sampled_from(["rank-one", "random", "affine", "bump"]))
    if kind == "rank-one":
        weights = _int_matrix(draw, 1, 5)[0]
        motions = [np.outer(direction, weights) for direction in _int_matrix(draw, 2, 3)]
    elif kind == "random":
        motions = [_int_matrix(draw, 3, 5) for _ in range(2)]
    elif kind == "affine":
        motions = [_int_matrix(draw, 3, 3) @ p.points + _int_matrix(draw, 3, 1)
                   for _ in range(2)]
    else:
        linear = _int_matrix(draw, 3, 3) @ p.points
        bump = linear.copy()
        bump[:, draw(st.integers(0, 4))] += _int_matrix(draw, 3, 1)[:, 0]
        motions = [linear, bump]
    return MotionSpace.from_motions(p, motions)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classification_matches_the_fraction_reference(data):
    # The integer classification returns what the Fraction one returned,
    # errors included, on exact inputs and on their float64 copies.
    p = data.draw(_configurations())
    s = data.draw(_spaces(p))
    assert _outcome(classify_admissible, p, s) == _outcome(_reference_classification, p, s)
    pf = PointConfiguration(to_float(p.points))
    sf = MotionSpace.from_motions(pf, [to_float(u) for u in s.basis_motions()])
    assert (_outcome(classify_admissible, pf, sf)
            == _outcome(_reference_classification, pf, sf))
