from fractions import Fraction

import numpy as np
import pytest

from rigidlab import admissibility, linalg, motions
from rigidlab.admissibility import (BLOCK_123, BLOCK_145, _mismatch_sampler,
                                    _pin_samples, check_admissibility,
                                    classify_admissible,
                                    construct_admissible_family,
                                    one_dim_space_inadmissible,
                                    pin_mismatch_map, projected_limit_mismatch,
                                    proportional_pair_space,
                                    single_vertex_space, split_blocks,
                                    stress_matched_linear_space,
                                    sufficient_check)
from rigidlab.errors import (DegenerateConfigError, HypothesisViolatedError,
                             OnAffineSpanError, ParallelSpanError)
from rigidlab.linalg import (cleared, exact_matrix, invert, nullspace_rows,
                             ones_vector, rank, sherman_morrison_inverse,
                             to_float)
from rigidlab.motions import (MotionSpace, PointConfiguration, flatten_motion,
                              p_equivalent, take_points,
                              trivial_motion_space)
from rigidlab.pins import PinContext, limit_velocity, pin_velocity
from rigidlab.sampling import (DEFAULT_BOUND, random_exact_matrix,
                               random_exact_vector, random_float_vector,
                               random_general_config, random_rational_matrix,
                               subrng)

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
        assert not triv.subspace.contains(flatten_motion(u))
        assert one_dim_space_inadmissible(p, u, samples=10)


def test_one_dim_rejects_trivial_motion():
    p = random_general_config(3, 4, 5, "onedim-triv", bound=1000)
    u = trivial_motion_space(p).basis_motions()[0]
    with pytest.raises(ValueError):
        one_dim_space_inadmissible(p, u)


def _stacked(sample, xs, exact: bool):
    """The stacked sampler at positions xs, cleared row by row as
    _pin_samples clears them."""
    return sample(*(linalg.array(col, exact) for col in zip(*map(cleared, xs))))


def test_one_dim_samples_are_the_scaled_velocity_gap():
    # one_dim_space_inadmissible tests sigma_q sigma_r lambda_u times the
    # gap of the two pin velocities, exact and on float copies; x on a
    # block's affine span is skipped exactly where pin_velocity raises.
    for n in (2, 3):
        base = random_general_config(n, n + 1, 5, f"gap/{n}", bound=1000)
        p = PointConfiguration(base.points * exact_matrix(
            [[Fraction(2, 3 + j) for j in range(n + 1)]]))
        assert p.is_general_position()
        u = random_rational_matrix(n, n + 1, subrng(5, f"gap-u/{n}"), 50, 9)
        blocks = ((*range(1, n), n + 1), tuple(range(1, n + 1)))
        rng = subrng(5, f"gap-x/{n}")
        points = [random_exact_vector(n, rng, 1000),
                  random_rational_matrix(1, n, rng, 1000, 50)[0]]
        weights = [Fraction(1, 3)] * (n - 1) + [1 - Fraction(n - 1, 3)]
        on_span = [take_points(p.points, b) @ exact_matrix(weights) for b in blocks]
        for scale in (None, 1e-6, 1.0, 1e6):
            pc, uc = p, u
            if scale is not None:
                pc = PointConfiguration(to_float(p.points) * scale)
                uc = to_float(u)
            sides = [PinContext(take_points(pc.points, b), take_points(uc, b))
                     for b in blocks]
            lam = cleared(uc)[1]
            xs = [x if scale is None else to_float(x) * scale
                  for x in points + on_span]
            usable, m, sigmas = _stacked(
                _mismatch_sampler(pc, [uc], None, blocks), xs, pc.exact)
            assert m.shape == (len(xs), n, 1) and sigmas.shape == (len(xs), 1, 1)
            assert usable.tolist() == [True] * len(points) + [False] * len(on_span)
            for k, x in enumerate(xs[:len(points)]):
                gap = pin_velocity(sides[0], x) - pin_velocity(sides[1], x)
                sigma = sigmas[k, 0, 0]
                if scale is None:
                    assert sigma != 0 and (m[k, :, 0] == gap * sigma * lam).all()
                else:
                    np.testing.assert_allclose(m[k, :, 0] / sigma, gap, rtol=1e-7,
                                               atol=1e-12 * np.abs(gap).max())
            for x, side in zip(xs[len(points):], sides):
                with pytest.raises(OnAffineSpanError):
                    pin_velocity(side, x)


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
    assert not trivial_motion_space(p).subspace.contains(flatten_motion(u))
    with pytest.raises(ValueError, match="samples must be positive"):
        one_dim_space_inadmissible(p, u, samples=samples)


def _rational_config(idx: int) -> PointConfiguration:
    """General position with non-integer coordinates (idx 0: integers)."""
    p = random_general_config(3, 5, 5, f"ref-config/{idx}", bound=1000)
    if idx == 0:
        return p
    dens = exact_matrix([[Fraction(1, 3 + idx), Fraction(2, 7), 1,
                          Fraction(-5, 9), Fraction(3, 2 * idx + 9)]])
    q = PointConfiguration(p.points * dens)
    assert q.is_general_position()
    return q


def _reference_spaces(p: PointConfiguration, idx: int) -> list:
    """Admissible spaces, then random 2- and 3-dimensional rational ones."""
    spaces = [single_vertex_space(p), proportional_pair_space(p, Fraction(-3, 7)),
              construct_admissible_family(p, trials=1, seed=idx)[0]]
    for dim in (2, 3):
        rng = subrng(idx, f"ref-space/{dim}")
        spaces.append(MotionSpace.from_motions(
            p, [random_rational_matrix(3, 5, rng, 50, 9) for _ in range(dim)]))
    return spaces


def _float_copy(p: PointConfiguration, s: MotionSpace, scale: float):
    pf = PointConfiguration(to_float(p.points) * scale)
    return pf, MotionSpace.from_motions(pf, [to_float(u) for u in s.basis_motions()])


def _draw(p: PointConfiguration, seed: int, tag: str, idx: int) -> np.ndarray:
    rng = subrng(seed, tag, idx)
    return (random_exact_vector(p.dim, rng) if p.exact
            else random_float_vector(p.dim, rng, float(DEFAULT_BOUND)))


def _sequential_samples(p: PointConfiguration, samples: int, seed: int,
                        tag: str, value, draw=_draw) -> list:
    """The draw rule one position at a time: (x, value(x)) at the first
    `samples` positions where value does not raise OnAffineSpanError, from
    at most 10*samples draws."""
    out = []
    for idx in range(10 * samples):
        if len(out) == samples:
            return out
        x = draw(p, seed, tag, idx)
        try:
            out.append((x, value(x)))
        except OnAffineSpanError:
            continue
    if len(out) < samples:
        raise DegenerateConfigError("could not collect enough valid pin samples")
    return out


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_sample_ranks_match_the_mismatch_map(idx):
    # check_admissibility ranks one stack of cleared integers; a sequential
    # loop over pin_mismatch_map is the reference: same positions, same
    # skips, same ranks, same witnesses.
    p = _rational_config(idx)
    cases = []
    for s in _reference_spaces(p, idx):
        cases.append((p, s))
        cases.extend(_float_copy(p, s, scale)
                     for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6))
    full_rank = 0
    for config, space in cases:
        report = check_admissibility(config, space, samples=6, seed=idx)
        reference = _sequential_samples(
            config, 6, idx, "pin-sample",
            lambda x: rank(pin_mismatch_map(config, space, x)))
        assert report.sample_ranks == [rk for _, rk in reference]
        failures = [x for x, rk in reference if rk >= space.dim]
        assert len(report.witness_failures) == len(failures)
        assert all((a == b).all() for a, b in zip(report.witness_failures, failures))
        full_rank += space.dim == 2 and not report.admissible
    assert full_rank >= 6  # the random 2-dimensional spaces, both backends


def _affine_point(p: PointConfiguration, block, weights) -> np.ndarray:
    pts = take_points(p.points, block)
    return sum((pts[:, i] * w for i, w in enumerate(weights)), pts[:, 0] * 0)


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_mismatch_sampler_equals_scaled_map(idx):
    # sigma_q sigma_r pin_mismatch_map(p, s, x) diag(lambda_u), with one
    # sigma_q sigma_r for every column, at integer and rational x; x on
    # either block's affine span is skipped exactly where the map raises.
    p = _rational_config(idx)
    rng = subrng(idx, "ref-x")
    points = [random_exact_vector(3, rng, 1000),
              random_rational_matrix(1, 3, rng, 1000, 50)[0]]
    weights = (Fraction(1, 3), Fraction(-2, 5), Fraction(16, 15))
    on_span = [_affine_point(p, block, weights) for block in (BLOCK_145, BLOCK_123)]
    for s in _reference_spaces(p, idx):
        usable, m, sigmas = _stacked(_mismatch_sampler(p, s.basis_motions(), None),
                                     points + on_span, True)
        assert usable.tolist() == [True] * len(points) + [False] * len(on_span)
        lambdas = [cleared(u)[1] for u in s.basis_motions()]
        for k, x in enumerate(points):
            scaled = pin_mismatch_map(p, s, x) * exact_matrix([lambdas])
            col = next(j for j in range(s.dim) if scaled[:, j].any())
            row = next(i for i in range(3) if scaled[i, col] != 0)
            factor = m[k, row, col] / scaled[row, col]
            assert factor != 0 and factor == sigmas[k, 0, 0]
            assert (m[k] == scaled * factor).all()
        for x in on_span:
            with pytest.raises(OnAffineSpanError):
                pin_mismatch_map(p, s, x)
        for scale in (1e-6, 1.0, 1e6):
            pf, sf = _float_copy(p, s, scale)
            xs = [to_float(x) * scale for x in points + on_span]
            usable_f, m_f, _ = _stacked(_mismatch_sampler(pf, sf.basis_motions(), None),
                                        xs, False)
            assert usable_f.tolist() == usable.tolist()
            for k, xf in enumerate(xs[:len(points)]):
                assert rank(m_f[k]) == rank(pin_mismatch_map(pf, sf, xf))
            for xf in xs[len(points):]:
                with pytest.raises(OnAffineSpanError):
                    pin_mismatch_map(pf, sf, xf)


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_mismatch_map_matches_the_matrix_reference(idx):
    # pin_mismatch_map and the sampler share pins.pin_stack, on blocks
    # cleared with the whole configuration's denominator.  The reference
    # inverts (1 x^T - q^T) as a matrix for each block on its own and reads
    # diag(v^T q) off the full product, at integer and rational x.
    p = _rational_config(idx)
    rng = subrng(idx, "ref-x")
    points = [random_exact_vector(3, rng, 1000),
              random_rational_matrix(1, 3, rng, 1000, 50)[0]]
    sides = admissibility._pin_blocks(p, None)
    for s in _reference_spaces(p, idx):
        for x in points:
            cols = []
            for u in s.basis_motions():
                vels = []
                for side, block, v in zip(sides, split_blocks(p.points), split_blocks(u)):
                    want = sherman_morrison_inverse(block, x) @ (v.T @ x - np.diag(v.T @ block))
                    assert (pin_velocity(side.with_motion(v), x) == want).all()
                    vels.append(want)
                cols.append(vels[0] - vels[1])
            assert (pin_mismatch_map(p, s, x) == exact_matrix(cols).T).all()


def test_check_admissibility_rejects_a_space_of_another_config():
    other = single_vertex_space(random_general_config(3, 5, 5, "val-other"))
    with pytest.raises(ValueError, match="does not belong"):
        check_admissibility(STANDARD, other)


@pytest.mark.parametrize("query", [
    check_admissibility, classify_admissible, sufficient_check,
    lambda p, s: pin_mismatch_map(p, s, exact_matrix([7, 8, 9]))],
    ids=["check_admissibility", "classify_admissible", "sufficient_check",
         "pin_mismatch_map"])
def test_space_readers_reject_a_family_member_of_another_config(query):
    # sufficient_check once answered False here instead of raising.
    other = random_general_config(3, 5, 5, "val-other")
    member = construct_admissible_family(other, trials=1, seed=3)[0]
    with pytest.raises(ValueError, match="does not belong"):
        query(STANDARD, member)


def test_exact_query_builds_a_tenth_of_the_fractions(monkeypatch):
    # One exact check_admissibility and one classify_admissible on the
    # first configuration of the five-point benchmark deck run on Python
    # ints.  Inverting the pin blocks in Fractions, drawing pins as
    # Fractions and classifying in Fractions built 129 + 630 here.
    p = random_general_config(3, 5, 0, "perfbench/five-point/0", bound=1000)
    space = proportional_pair_space(p, Fraction(3, 2))
    real = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    report = check_admissibility(p, space)
    checked = len(built)
    cls = classify_admissible(p, space)
    monkeypatch.undo()
    assert report.admissible and cls.kind.value == "rank-one-form"
    assert len(built) * 10 <= 129 + 630
    # Only the returned plane and weights are Fractions.
    assert checked == 0
    assert len(built) <= cls.plane.basis.size + len(cls.weights)


def test_pin_blocks_are_inverted_once_per_query(monkeypatch):
    # The per-sample work reuses both inverses: no inverse per pin sample.
    # Every inverse is a linalg.adjugate call, invert's included.
    real = linalg.adjugate
    calls = []

    def counting(m, tol=None):
        calls.append(m.shape)
        return real(m, tol)

    monkeypatch.setattr(linalg, "adjugate", counting)
    counts = []
    for samples in (5, 40):
        calls.clear()
        check_admissibility(STANDARD, proportional_pair_space(STANDARD, 2),
                            samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# Five points on the plane z = 1 with both pin blocks invertible.  Moving
# one point along e3 strains no pair, yet is not a trivial motion, so the
# strain rank alone would call it trivial.
COPLANAR = exact_matrix([[1, 5, -4, 2, -6], [2, -3, 7, 9, -5], [1, 1, 1, 1, 1]])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_coplanar_normal_motion_is_not_trivial(exact):
    p = PointConfiguration(COPLANAR if exact else to_float(COPLANAR))
    lines = []
    for point in (0, 1):
        u = linalg.zeros((3, 5), exact)
        u[2, point] = 1
        lines.append(MotionSpace.from_motions(p, [u]))
    assert check_admissibility(p, lines[0]).intersects_trivial is False
    assert p_equivalent(lines[0], lines[1]) is False
    assert p_equivalent(lines[0], lines[0]) is True


def _classified(p: PointConfiguration, s: MotionSpace):
    c = classify_admissible(p, s)
    plane = None if c.plane is None else c.plane.basis.tolist()
    weights = None if c.weights is None else list(c.weights)
    return c.kind, plane, weights, c.details


def test_admissibility_builds_no_trivial_basis(monkeypatch):
    # In general position condition 1 and the p-equivalence at the end of
    # the classification are integer strain ranks: no trivial motion
    # space, and no subspace intersection or join.
    p = random_general_config(3, 5, 3, "no-basis", bound=1000)
    spaces = [single_vertex_space(p), proportional_pair_space(p, Fraction(3, 7)),
              construct_admissible_family(p, trials=1, seed=3)[0]]
    want = [(check_admissibility(p, s), _classified(p, s)) for s in spaces]
    assert [w[1][0].value for w in want] == [
        "rank-one-form", "rank-one-form", "all-affine"]

    def refuse(*args, **kwargs):
        raise AssertionError("built a trivial-motion or subspace basis")

    monkeypatch.setattr(motions, "trivial_motion_space", refuse)
    monkeypatch.setattr(linalg.Subspace, "intersection", refuse)
    monkeypatch.setattr(linalg.Subspace, "join", refuse)
    assert [(check_admissibility(p, s), _classified(p, s)) for s in spaces] == want
    assert construct_admissible_family(p, trials=1, seed=3)[0].subspace.basis.tolist() \
        == spaces[2].subspace.basis.tolist()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_pin_samples_refill_skips_in_draw_order(monkeypatch, exact):
    # Draws 1 and 4 of the first six lie on a pin block's affine span, and
    # so do the first two refill draws (6 and 7): the stacked sampler keeps
    # the positions, ranks and draw count of the one-at-a-time rule.
    p = _rational_config(1)
    space = MotionSpace.from_motions(
        p, [random_rational_matrix(3, 5, subrng(1, f"refill-u/{i}"), 50, 9)
            for i in range(2)])
    if not exact:
        p, space = _float_copy(p, space, 1e3)
    weights = (Fraction(1, 3), Fraction(-2, 5), Fraction(16, 15))
    on_span = {idx: _affine_point(_rational_config(1), block, weights)
               for idx, block in zip((1, 4, 6, 7), (BLOCK_145, BLOCK_123) * 2)}

    def planned(config, seed, tag, idx):
        if idx in on_span:
            return on_span[idx] if exact else to_float(on_span[idx]) * 1e3
        return _draw(config, seed, tag, idx)

    draws = []
    monkeypatch.setattr(admissibility, "subrng",
                        lambda seed, tag, idx: draws.append(idx) or (seed, tag, idx))
    for name in ("random_int_vector", "random_float_vector"):
        monkeypatch.setattr(admissibility, name,
                            lambda n, key, *bound: planned(p, *key))
    xs, m, _ = _pin_samples(p, 6, 3, "refill", _mismatch_sampler(
        p, space.basis_motions(), None))
    reference = _sequential_samples(
        p, 6, 3, "refill", lambda x: rank(pin_mismatch_map(p, space, x)), planned)
    assert sorted(draws) == draws == list(range(10))
    assert len(xs) == len(m) == 6
    assert all((a == b).all() for a, b in zip(xs, [x for x, _ in reference]))
    assert all((a == planned(p, 3, "refill", i)).all()
               for a, i in zip(xs, (0, 2, 3, 5, 8, 9)))
    assert rank(m) == [rk for _, rk in reference]

    draws.clear()
    monkeypatch.setattr(admissibility, "random_int_vector" if exact
                        else "random_float_vector",
                        lambda n, key, *bound: planned(p, 0, "", 1))
    with pytest.raises(DegenerateConfigError):
        _pin_samples(p, 6, 3, "refill", _mismatch_sampler(
            p, space.basis_motions(), None))
    assert draws == list(range(60))


def test_float_query_ranks_its_samples_in_one_call(monkeypatch):
    # The samples of a query are one stack and one linalg.rank call, so
    # the number of rank calls does not grow with the sample count.
    pf, space = _float_copy(STANDARD, proportional_pair_space(STANDARD, 2), 1.0)
    real = linalg.rank
    calls = []

    def counting(m, tol=None):
        calls.append(np.shape(m))
        return real(m, tol)

    monkeypatch.setattr(linalg, "rank", counting)
    counts = []
    for samples in (5, 40):
        calls.clear()
        report = check_admissibility(pf, space, samples=samples)
        assert report.sample_ranks == [1] * samples
        assert (samples, 3, 2) in calls
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_mismatch_rows_are_orthogonal_to_the_shared_bar(idx):
    # Both pin blocks contain point 1, so both cone velocities y satisfy
    # (x - p1).(y - u1) = 0 and every column of the sample is orthogonal to
    # x - p1, i.e. (X - xi p1)^T M = 0.  M has 3 rows, so its rank is at
    # most 2, and condition 2 holds at every x for any space of dim >= 3.
    p = _rational_config(idx)
    rng = subrng(idx, "shared-bar")
    xs = [random_exact_vector(3, rng, 1000) for _ in range(4)]
    xs += [random_rational_matrix(1, 3, rng, 1000, 50)[0] for _ in range(4)]
    x_int, xi = (linalg.array(col) for col in zip(*map(cleared, xs)))
    p1 = p.point(1)
    for dim in (1, 2, 3):
        motions_ = [random_rational_matrix(3, 5, subrng(idx, f"shared-bar/{dim}"),
                                           50, 9) for _ in range(dim)]
        usable, m, _ = _mismatch_sampler(p, motions_, None)(x_int, xi)
        assert usable.all() and m.any()
        for k in range(len(xs)):
            assert not ((x_int[k] - xi[k] * p1) @ m[k]).any()
            assert not ((xs[k] - p1) @ m[k]).any()
        assert max(rank(m)) <= 2
        space = MotionSpace.from_motions(p, motions_)
        if dim == 3:
            assert check_admissibility(p, space, samples=6, seed=idx).max_mismatch_rank <= 2


def _lattice_vandermonde(d: int) -> list:
    """Monomials x^a y^b z^c, a + b + c <= d, at the principal lattice
    (7i + 1, 11j - 5, 13k + 3), i + j + k <= d: one row per point."""
    exps = [(a, b, c) for a in range(d + 1) for b in range(d + 1 - a)
            for c in range(d + 1 - a - b)]
    return [[(7 * i + 1) ** a * (11 * j - 5) ** b * (13 * k + 3) ** c
             for a, b, c in exps] for i, j, k in exps]


def _rank_mod_p(rows: list, prime: int) -> int:
    rows = [[v % prime for v in row] for row in rows]
    lead = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = pow(rows[lead][col], -1, prime)
        base = [v * inv % prime for v in rows[lead][col:]]
        for i in range(lead + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i][col:] = [(a - f * b) % prime for a, b in zip(rows[i][col:], base)]
        lead += 1
    return lead


def test_principal_lattice_is_unisolvent():
    # A polynomial in x of total degree <= d that vanishes on this lattice
    # vanishes identically: the Vandermonde matrix of the monomials of
    # degree <= d on the lattice is square and nonsingular.  d = 3 * dim
    # bounds the degree of a dim x dim minor of the sample matrix.
    for d, size in ((3, 20), (6, 84)):
        rows = _lattice_vandermonde(d)
        assert len(rows) == len(rows[0]) == size
        assert rank(linalg.array(rows)) == size
    # d = 9: full rank modulo a prime proves full rank over Q.
    rows = _lattice_vandermonde(9)
    assert len(rows) == len(rows[0]) == 220
    assert _rank_mod_p(rows, 2 ** 61 - 1) == 220
    assert _rank_mod_p(rows[:-1] + [rows[0]], 2 ** 61 - 1) == 219


def _fraction_family(p: PointConfiguration, trials: int, seed: int):
    """(stress-matched basis, member bases) formed as before the integer
    combination: Fraction kernel rows against the generators, Fraction
    coefficients against the reduced basis, summed from zeros, and the
    trivial intersection from the stacked trivial basis."""
    sides = admissibility._pin_blocks(p, None)
    gens, gaps = [], []
    for a in range(3):
        for b in range(3):
            u = linalg.zeros((3, 5), p.exact)
            u[a] = p.points[b]
            gens.append(u)
            gaps.append(admissibility._stress_gap(sides, u))
    kernel = nullspace_rows(linalg.array(gaps, p.exact).T)
    basis = MotionSpace.from_motions(
        p, [sum(g * c for c, g in zip(row, gens)) for row in kernel]).subspace.basis
    triv = trivial_motion_space(p).subspace
    members = []
    for attempt in range(100 * trials):
        if len(members) == trials:
            break
        rng = subrng(seed, "family", attempt)
        coeffs = linalg.array([[Fraction(rng.randint(-9, 9)) for _ in basis]
                               for _ in range(2)], p.exact)
        vecs = [sum((c * b for c, b in zip(row, basis)),
                    linalg.zeros(basis.shape[1], p.exact)) for row in coeffs]
        if linalg.Subspace.from_spanning([*triv.basis, *vecs]).dim - triv.dim == 2:
            members.append(linalg.Subspace.from_spanning(vecs).basis)
    return basis, members


@pytest.mark.parametrize("seed", range(4))
def test_family_matches_the_fraction_combination(seed):
    # Check 7's configuration at seeds 0-3, exact and on float64 copies.
    p = random_general_config(3, 5, seed, "family-config/0", bound=1000)
    for q in (p, PointConfiguration(to_float(p.points))):
        want_basis, want = _fraction_family(q, 20, seed)
        assert np.array_equal(stress_matched_linear_space(q).subspace.basis, want_basis)
        got = construct_admissible_family(q, trials=20, seed=seed)
        assert len(got) == len(want) == 20
        assert all(np.array_equal(s.subspace.basis, w) for s, w in zip(got, want))


# p3 is p1 + p2 up to 1e-5, so the block (1,2,3) is singular at tol 1e-3
# and invertible at the default tol.
NEAR = [[1, 2, 3], [4, -1, 2], [5.00001, 1, 5], [-3, 7, 2], [2, -5, 6]]


def test_tol_reaches_every_pin_block_inversion():
    p = PointConfiguration(np.array(NEAR, dtype=float).T)
    s = single_vertex_space(p)
    u = s.basis_motions()[0]
    x = np.array([0.3, -0.7, 1.1])
    four = PointConfiguration(p.points[:, :4])
    calls = [lambda tol: check_admissibility(p, s, tol=tol),
             lambda tol: sufficient_check(p, s, tol),
             lambda tol: stress_matched_linear_space(p, tol),
             lambda tol: pin_mismatch_map(p, s, x, tol),
             lambda tol: projected_limit_mismatch(p, u, x, tol),
             lambda tol: one_dim_space_inadmissible(four, np.eye(3, 4), tol=tol)]
    for call in calls:
        with pytest.raises(DegenerateConfigError, match="pin block is singular"):
            call(1e-3)
        call(None)
    with pytest.raises(HypothesisViolatedError, match="pin block is singular"):
        classify_admissible(p, s, 1e-3)


def test_sufficient_check_of_a_family_member_builds_no_fraction(fraction_counter):
    p = random_general_config(3, 5, 0, "family-config/0", bound=1000)
    s = construct_admissible_family(p, trials=1, seed=0)[0]
    before = fraction_counter()
    assert sufficient_check(p, s)
    assert fraction_counter() == before


def test_integer_bases_build_no_fraction(fraction_counter):
    # The trivial motions, the stress-matched space (a kernel and a
    # spanning set), their intersection and its join with the trivial
    # motions, on an integer configuration: integer rows throughout.
    p = random_general_config(3, 5, 0, "family-config/0", bound=1000)
    before = fraction_counter()
    triv = trivial_motion_space(p).subspace
    space = stress_matched_linear_space(p).subspace
    meet = space.intersection(triv)
    join = triv.join(meet)
    assert fraction_counter() == before
    assert (space.dim, meet.dim, join.dim) == (7, 3, 6)
    assert all(type(v) is int for s in (triv, space, meet, join) for v in s.basis.flat)
