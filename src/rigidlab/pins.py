"""Velocity propagation to a pinned cone vertex.

Given an invertible block q of n points in R^n with velocity block v, a
cone vertex at position x joined to all n points is forced to move with
a unique velocity once x leaves the affine span of the block.  The
closed forms here compute that velocity and its direction limit as the
cone vertex recedes to infinity along a ray.
"""

from __future__ import annotations

import numpy as np

from .errors import ParallelSpanError
from .linalg import (_sherman_morrison_from_inverse, diag_vector, invert,
                     is_exact, is_zero, ones_vector)


class PinContext:
    """An invertible point block q with a velocity block v.

    q^{-1} is computed once at construction and shared by the velocity
    formulas; with_motion swaps v without re-inverting.
    """

    __slots__ = ("q", "v", "q_inv")

    def __init__(self, q: np.ndarray, v: np.ndarray, q_inv: np.ndarray | None = None):
        q = np.asarray(q)
        v = np.asarray(v)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("pin block q must be square")
        if v.shape != q.shape:
            raise ValueError("velocity block must match q's shape")
        self.q = q
        self.v = v
        self.q_inv = invert(q) if q_inv is None else q_inv

    @property
    def exact(self) -> bool:
        return is_exact(self.q)

    @property
    def size(self) -> int:
        return self.q.shape[0]

    def with_motion(self, v: np.ndarray) -> "PinContext":
        return PinContext(self.q, v, self.q_inv)


def pin_velocity(ctx: PinContext, x: np.ndarray,
                 tol: float | None = None) -> np.ndarray:
    """Velocity of a cone vertex at x extending the block motion to a flex.

    Solves (1 x^T - q^T) y = v^T x - diag(v^T q) through the rank-one
    update inverse; x on the affine span of q's columns is rejected.
    """
    x = np.asarray(x)
    if x.shape != (ctx.size,):
        raise ValueError("x must be a vector matching the pin block")
    inv = _sherman_morrison_from_inverse(ctx.q_inv, x, tol)
    rhs = ctx.v.T @ x - diag_vector(ctx.v.T @ ctx.q)
    return inv @ rhs


def limit_velocity(ctx: PinContext, x: np.ndarray,
                   tol: float | None = None) -> np.ndarray:
    """Limit of pin_velocity(t x)/t as t grows; always orthogonal to x.

    Defined only when x is not parallel to the affine span of the block,
    i.e. (q^{-1} x)^T 1 != 0.
    """
    x = np.asarray(x)
    if x.shape != (ctx.size,):
        raise ValueError("x must be a vector matching the pin block")
    ones = ones_vector(ctx.size, ctx.exact)
    qx = ctx.q_inv @ x
    s = qx @ ones
    if is_zero(s, tol, qx):
        raise ParallelSpanError("x is parallel to the affine span of q's columns")
    vtx = ctx.v.T @ x
    core = vtx - ones * ((qx @ vtx) / s)
    return -(ctx.q_inv.T @ core)


def scale_factor(ctx: PinContext, x: np.ndarray):
    """(q^{-1} x)^T 1, the denominator governing limit_velocity."""
    ones = ones_vector(ctx.size, ctx.exact)
    return (ctx.q_inv @ x) @ ones
