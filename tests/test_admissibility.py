from fractions import Fraction

import numpy as np
import pytest

from rigidlab.admissibility import (check_admissibility,
                                    construct_admissible_family,
                                    one_dim_space_inadmissible,
                                    pin_mismatch_map, projected_limit_mismatch,
                                    proportional_pair_space,
                                    single_vertex_space, split_blocks,
                                    stress_matched_linear_space,
                                    sufficient_check)
from rigidlab.errors import DegenerateConfigError, ParallelSpanError
from rigidlab.linalg import exact_matrix, nullspace_rows, ones_vector, invert
from rigidlab.motions import MotionSpace, PointConfiguration, trivial_motion_space
from rigidlab.pins import PinContext, limit_velocity
from rigidlab.sampling import (random_exact_matrix, random_exact_vector,
                               random_general_config, subrng)

STANDARD = PointConfiguration(exact_matrix(
    [[1, 0, 0, 1, 1],
     [0, 1, 0, 1, 2],
     [0, 0, 1, 1, 3]]))


def test_split_blocks_share_first_point():
    q, r = split_blocks(STANDARD.points)
    assert (q[:, 0] == r[:, 0]).all()
    assert (q[:, 1] == STANDARD.point(4)).all()
    assert (r[:, 2] == STANDARD.point(3)).all()


def test_example_spaces_admissible_on_standard_config():
    for space in (single_vertex_space(STANDARD),
                  proportional_pair_space(STANDARD, Fraction(3, 2)),
                  proportional_pair_space(STANDARD, 0)):
        report = check_admissibility(STANDARD, space, samples=10)
        assert report.admissible
        assert not report.intersects_trivial
        assert report.max_mismatch_rank == 1
        assert report.sample_ranks == [1] * 10


def test_example_spaces_admissible_on_random_configs():
    for idx in range(3):
        p = random_general_config(3, 5, 5, f"adm/{idx}", bound=1000)
        assert check_admissibility(p, single_vertex_space(p), samples=10).admissible
        assert check_admissibility(p, proportional_pair_space(p, Fraction(-2, 3)),
                                   samples=10).admissible


def test_generic_two_dim_space_is_inadmissible():
    u1 = STANDARD.points.copy()
    u2 = exact_matrix([[1, 2, 0, 1, 0], [0, 1, 3, 0, 2], [2, 0, 1, 1, 1]])
    space = MotionSpace.from_motions(STANDARD, [u1, u2])
    report = check_admissibility(STANDARD, space, samples=10)
    assert not report.admissible
    assert not report.intersects_trivial
    assert report.max_mismatch_rank == 2
    assert len(report.witness_failures) == 10


def test_trivial_overlap_is_flagged():
    shift = np.outer(exact_matrix([1, 0, 0]), ones_vector(5))
    space = MotionSpace.from_motions(
        STANDARD, [shift, single_vertex_space(STANDARD).basis_motions()[0]])
    report = check_admissibility(STANDARD, space, samples=5)
    assert report.intersects_trivial
    assert not report.admissible


def test_mismatch_map_kernel_is_the_extension():
    space = single_vertex_space(STANDARD)
    x = random_exact_vector(3, subrng(5, "kernel", 0), 1000)
    m = pin_mismatch_map(STANDARD, space, x)
    assert m.shape == (3, 2)
    # rank deficiency means some combination of the basis motions extends
    kernel = nullspace_rows(m)
    assert len(kernel) == 1
    assert kernel[0].any()
    assert not (m @ kernel[0]).any()


def test_stress_matched_space_shape():
    space = stress_matched_linear_space(STANDARD)
    assert space.dim == 7
    triv = trivial_motion_space(STANDARD)
    assert space.subspace.intersection(triv.subspace).dim == 3


def test_sufficient_condition_implies_admissible():
    family = construct_admissible_family(STANDARD, trials=5, seed=11)
    for member in family:
        assert member.dim == 2
        assert sufficient_check(STANDARD, member)
        assert check_admissibility(STANDARD, member, samples=10).admissible
    # the one-point example is admissible but not through this criterion,
    # since its motions are not linear
    assert not sufficient_check(STANDARD, single_vertex_space(STANDARD))


def test_proportional_pair_requires_distinct_endpoints():
    merged = PointConfiguration(exact_matrix(
        [[1, 1, 0, 1, 1], [0, 0, 1, 1, 2], [0, 0, 0, 1, 3]]))
    with pytest.raises(DegenerateConfigError):
        proportional_pair_space(merged, 2)


def test_projected_limit_mismatch_routes_agree():
    # same value through the closed form and through projecting the
    # difference of the two limit velocities onto the first point's
    # orthogonal plane along the q-block row-sum vector
    for idx in range(5):
        rng = subrng(5, "fbar", idx)
        p = random_general_config(3, 5, 5, f"fbar-cfg/{idx}", bound=100)
        u = random_exact_matrix(3, 5, rng, 100)
        x = random_exact_vector(3, rng, 100)
        q, r = split_blocks(p.points)
        v, w = split_blocks(u)
        try:
            f = (limit_velocity(PinContext(q, v), x)
                 - limit_velocity(PinContext(r, w), x))
            fbar = projected_limit_mismatch(p, u, x)
        except ParallelSpanError:
            continue
        kappa = invert(q).T @ ones_vector(3)
        q1 = p.point(1)
        projected = f - kappa * ((q1 @ f) / (q1 @ kappa))
        assert (projected == fbar).all()
        assert fbar @ q1 == 0


def test_projected_limit_mismatch_is_homogeneous():
    u = random_exact_matrix(3, 5, subrng(5, "homog", 0), 100)
    x = random_exact_vector(3, subrng(5, "homog", 1), 100)
    base = projected_limit_mismatch(STANDARD, u, x)
    t = Fraction(7, 3)
    assert (projected_limit_mismatch(STANDARD, u, t * x) == t * base).all()


def test_projected_limit_mismatch_vanishes_on_trivial():
    x = random_exact_vector(3, subrng(5, "triv", 0), 100)
    for u in trivial_motion_space(STANDARD).basis_motions():
        assert not projected_limit_mismatch(STANDARD, u, x).any()


def test_one_dim_lines_are_inadmissible():
    for n, idx in [(3, 0), (3, 1), (2, 0), (2, 1)]:
        p = random_general_config(n, n + 1, 5, f"onedim/{n}/{idx}", bound=1000)
        triv = trivial_motion_space(p)
        u = random_exact_matrix(n, n + 1, subrng(5, f"onedim-u/{n}", idx), 1000)
        assert not triv.contains(u)
        assert one_dim_space_inadmissible(p, u, samples=10)


def test_one_dim_rejects_trivial_motion():
    p = random_general_config(3, 4, 5, "onedim-triv", bound=1000)
    u = trivial_motion_space(p).basis_motions()[0]
    with pytest.raises(ValueError):
        one_dim_space_inadmissible(p, u)


def test_check_admissibility_validates_input():
    with pytest.raises(ValueError):
        check_admissibility(random_general_config(3, 4, 5, "val"), None)
    other = random_general_config(3, 5, 5, "val-other")
    space = single_vertex_space(other)
    with pytest.raises(ValueError):
        check_admissibility(STANDARD, space)


@pytest.mark.parametrize("samples", [0, -1])
def test_pin_sample_count_must_be_positive(samples):
    with pytest.raises(ValueError, match="samples must be positive"):
        check_admissibility(STANDARD, single_vertex_space(STANDARD), samples=samples)
    p = random_general_config(3, 4, 5, "onedim-count", bound=1000)
    u = random_exact_matrix(3, 4, subrng(5, "onedim-count-u", 0), 1000)
    assert not trivial_motion_space(p).contains(u)
    with pytest.raises(ValueError, match="samples must be positive"):
        one_dim_space_inadmissible(p, u, samples=samples)
