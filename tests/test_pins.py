from fractions import Fraction

import numpy as np
import pytest

from rigidlab.errors import OnAffineSpanError, ParallelSpanError
from rigidlab.linalg import exact_matrix, invert, ones_vector, rank
from rigidlab.pins import (PinContext, limit_velocity, pin_velocity,
                           scale_factor)
from rigidlab.sampling import (random_exact_matrix, random_exact_vector,
                               random_float_matrix, random_float_vector,
                               random_rational_matrix, subrng)


def _instance(tag, idx, bound=100, rational=False):
    for shift in range(20):
        rng = subrng(3, tag, 20 * idx + shift)
        if rational:
            q = random_rational_matrix(3, 3, rng, bound)
            v = random_rational_matrix(3, 3, rng, bound)
            x = random_rational_matrix(1, 3, rng, bound)[0]
        else:
            q = random_exact_matrix(3, 3, rng, bound)
            v = random_exact_matrix(3, 3, rng, bound)
            x = random_exact_vector(3, rng, bound)
        if rank(q) < 3:
            continue
        ctx = PinContext(q, v)
        if 1 - scale_factor(ctx, x) == 0:
            continue
        return ctx, x
    raise AssertionError("sampling failed")


def test_flex_property_exact():
    for idx in range(25):
        ctx, x = _instance("flex", idx)
        vel = pin_velocity(ctx, x)
        for i in range(3):
            assert (vel - ctx.v[:, i]) @ (x - ctx.q[:, i]) == 0


def _limit_reference(ctx, x):
    """limit_velocity written out with the all-ones vector and q's inverse
    as a matrix."""
    ones = ones_vector(3)
    q_inv = invert(ctx.q)
    qx = q_inv @ x
    vtx = ctx.v.T @ x
    core = vtx - ones * ((qx @ vtx) / (qx @ ones))
    return -(q_inv.T @ core)


@pytest.mark.parametrize("rational", [False, True])
def test_rank_one_update_matches_matrix_reference(rational):
    # The reference inverts (1 x^T - q^T) as a matrix and reads diag(v^T q)
    # off the full product.
    for idx in range(20):
        ctx, x = _instance("reference", idx, rational=rational)
        rhs = ctx.v.T @ x - np.diag(ctx.v.T @ ctx.q)
        direct = invert(np.outer(ones_vector(3), x) - ctx.q.T)
        assert (pin_velocity(ctx, x) == direct @ rhs).all()
        assert (limit_velocity(ctx, x) == _limit_reference(ctx, x)).all()


def test_pin_velocity_linear_in_motion():
    ctx, x = _instance("linear", 0)
    v2 = random_exact_matrix(3, 3, subrng(3, "linear-v2", 0), 100)
    combined = pin_velocity(ctx.with_motion(ctx.v + v2 * 2), x)
    assert (combined == pin_velocity(ctx, x) + pin_velocity(ctx.with_motion(v2), x) * 2).all()


def test_limit_linear_in_motion():
    ctx, x = _instance("limit-linear", 0)
    v2 = random_exact_matrix(3, 3, subrng(3, "limit-v2", 0), 100)
    try:
        whole = limit_velocity(ctx.with_motion(ctx.v + v2 * 2), x)
    except ParallelSpanError:
        pytest.skip("sampled a parallel direction")
    assert (whole == limit_velocity(ctx, x) + limit_velocity(ctx.with_motion(v2), x) * 2).all()


def test_skew_motion_pins_to_rotation():
    ctx, x = _instance("skew", 0)
    a = exact_matrix([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
    rotating = ctx.with_motion(a @ ctx.q)
    assert (pin_velocity(rotating, x) == a @ x).all()
    assert (limit_velocity(rotating, x) == a @ x).all()


def test_translation_pins_to_itself():
    ctx, x = _instance("shift", 0)
    t = random_exact_vector(3, subrng(3, "shift-t", 0), 100)
    moving = ctx.with_motion(np.outer(t, ones_vector(3)))
    assert (pin_velocity(moving, x) == t).all()
    assert not limit_velocity(moving, x).any()


def test_limit_orthogonal_to_direction():
    for idx in range(25):
        ctx, x = _instance("orth", idx)
        try:
            lim = limit_velocity(ctx, x)
        except ParallelSpanError:
            continue
        assert lim @ x == 0


def test_affine_span_rejected():
    ctx, _ = _instance("span", 0)
    lam = exact_matrix([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    on_span = ctx.q @ lam
    assert 1 - scale_factor(ctx, on_span) == 0
    with pytest.raises(OnAffineSpanError):
        pin_velocity(ctx, on_span)


def test_parallel_direction_rejected():
    ctx, _ = _instance("parallel", 0)
    mu = exact_matrix([Fraction(1), Fraction(2), Fraction(-3)])
    direction = ctx.q @ mu
    assert scale_factor(ctx, direction) == 0
    with pytest.raises(ParallelSpanError):
        limit_velocity(ctx, direction)


def test_scaled_pin_approaches_limit():
    # the error at t=1e3 should shrink about a thousandfold by t=1e6
    ratios = []
    idx = 0
    while len(ratios) < 10 and idx < 200:
        rng = subrng(3, "converge", idx)
        idx += 1
        q = random_float_matrix(3, 3, rng, 5.0)
        if np.linalg.cond(q) > 50:
            continue
        ctx = PinContext(q, random_float_matrix(3, 3, rng, 5.0))
        x = random_float_vector(3, rng, 5.0)
        try:
            lim = limit_velocity(ctx, x)
            coarse = np.linalg.norm(pin_velocity(ctx, 1e3 * x) / 1e3 - lim)
            fine = np.linalg.norm(pin_velocity(ctx, 1e6 * x) / 1e6 - lim)
        except (ParallelSpanError, OnAffineSpanError):
            continue
        if fine > 0:
            ratios.append(coarse / fine)
    assert len(ratios) == 10
    assert sorted(ratios)[len(ratios) // 2] > 100


def test_with_motion_shares_inverse():
    ctx, _ = _instance("share", 0)
    other = ctx.with_motion(ctx.v * 2)
    assert other.adj is ctx.adj and other.det == ctx.det
    assert (invert(ctx.q) * ctx.det == ctx.adj).all()


def test_context_shape_validation():
    with pytest.raises(ValueError):
        PinContext(random_exact_matrix(2, 3, subrng(3, "bad", 0), 9),
                   random_exact_matrix(2, 3, subrng(3, "bad", 1), 9))
