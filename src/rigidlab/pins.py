"""Velocity propagation to a pinned cone vertex.

Given an invertible block q of n points in R^n with velocity block v, a
cone vertex at position x joined to all n points is forced to move with
a unique velocity once x leaves the affine span of the block.  That
velocity solves (1 x^T - q^T) y = rhs, and the Sherman-Morrison
rank-one update of q^{-1} gives it as a vector, with no inverse of the
updated matrix formed.  Its direction limit as the cone vertex recedes
to infinity along a ray is the same update with the constant 1 dropped.
"""

from __future__ import annotations

import numpy as np

from .errors import OnAffineSpanError, ParallelSpanError
from .linalg import invert, is_zero


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
    def size(self) -> int:
        return self.q.shape[0]

    def with_motion(self, v: np.ndarray) -> "PinContext":
        return PinContext(self.q, v, self.q_inv)


def _rank_one_solve(ctx: PinContext, x: np.ndarray, rhs: np.ndarray, shift: int,
                    tol: float | None, error: type, message: str) -> np.ndarray:
    """y = -(q^{-1})^T (rhs - 1 (q^{-1}x . rhs) / d), d = (q^{-1}x)^T 1 - shift.

    With shift 1 this is the Sherman-Morrison solution of
    (1 x^T - q^T) y = rhs; with shift 0 it is that solution's limit
    direction.  A zero d raises error(message).
    """
    qx = ctx.q_inv @ x
    d = qx.sum() - shift
    if is_zero(d, tol, qx):
        raise error(message)
    return -(ctx.q_inv.T @ (rhs - (qx @ rhs) / d))


def pin_velocity(ctx: PinContext, x: np.ndarray,
                 tol: float | None = None) -> np.ndarray:
    """Velocity of a cone vertex at x extending the block motion to a flex.

    Solves (1 x^T - q^T) y = v^T x - diag(v^T q) by the rank-one update;
    x on the affine span of q's columns is rejected.
    """
    x = np.asarray(x)
    if x.shape != (ctx.size,):
        raise ValueError("x must be a vector matching the pin block")
    rhs = ctx.v.T @ x - (ctx.v * ctx.q).sum(axis=0)
    return _rank_one_solve(ctx, x, rhs, 1, tol, OnAffineSpanError,
                           "x lies on the affine span of the columns of q")


def limit_velocity(ctx: PinContext, x: np.ndarray,
                   tol: float | None = None) -> np.ndarray:
    """Limit of pin_velocity(t x)/t as t grows; always orthogonal to x.

    Defined only when x is not parallel to the affine span of the block,
    i.e. (q^{-1} x)^T 1 != 0.
    """
    x = np.asarray(x)
    if x.shape != (ctx.size,):
        raise ValueError("x must be a vector matching the pin block")
    return _rank_one_solve(ctx, x, ctx.v.T @ x, 0, tol, ParallelSpanError,
                           "x is parallel to the affine span of q's columns")


def scale_factor(ctx: PinContext, x: np.ndarray):
    """(q^{-1} x)^T 1, the denominator governing limit_velocity."""
    return (ctx.q_inv @ x).sum()
