"""Velocity propagation to a pinned cone vertex.

A cone vertex at x joined to an invertible block q of n points in R^n,
whose velocity block is v, must move with the velocity y solving
(1 x^T - q^T) y = v^T x - diag(v^T q) once x leaves the affine span of
the block.  The Sherman-Morrison rank-one update of q^{-1} gives y, and
with the constant 1 dropped, its limit direction as x recedes on a ray.

pin_stack is the one pin formula: linalg.rank_one_update, the one
fraction-free update (sherman_morrison_inverse is its R = I case), on
stacks of velocity blocks.  With q^{-1} = A/delta,
q = Q/kappa, x = X/xi and V integral (every denominator 1 on float64),
a = A X, D = 1^T a - s delta xi, R = kappa V^T X - s xi diag(V^T Q),
N = A^T (1 a^T R - D R) and sigma = delta kappa xi D give y = N/sigma:
the velocity at s = 1, its limit at s = 0.  pin_velocity, limit_velocity
and scale_factor are its one-position case.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import OnAffineSpanError, ParallelSpanError


class PinContext:
    """An invertible point block q with a velocity block v.

    Its integer form, q = ints/den and q^{-1} = adj/det (pin_stack's Q,
    kappa, A and delta), is computed once (integer_block) and shared by
    the velocity formulas; with_motion swaps v without re-inverting.
    """

    __slots__ = ("q", "v", "ints", "den", "adj", "det")

    def __init__(self, q: np.ndarray, v: np.ndarray, block: tuple | None = None):
        q = np.asarray(q)
        v = np.asarray(v)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("pin block q must be square")
        if v.shape != q.shape:
            raise ValueError("velocity block must match q's shape")
        self.q, self.v = q, v
        self.ints, self.den, self.adj, self.det = block or integer_block(*linalg.cleared(q))

    @property
    def size(self) -> int:
        return self.q.shape[0]

    def with_motion(self, v: np.ndarray) -> "PinContext":
        return PinContext(self.q, v, (self.ints, self.den, self.adj, self.det))


def integer_block(ints: np.ndarray, den) -> tuple:
    """(Q, kappa, A, delta) of the block q = ints/den, q^{-1} = A/delta,
    from linalg.adjugate of ints: (q, 1, q^{-1}, 1) on float64."""
    adj, det = linalg.adjugate(ints)
    return ints, den, adj * den, det


def pin_stack(ctx: PinContext, vt: np.ndarray, x_int: np.ndarray, xi: np.ndarray,
              shift: int = 1) -> tuple:
    """(usable, N, sigma) of ctx's block at the k positions X/xi (rows of
    x_int, xi of length k) for an m x n x n stack vt of V^T: N is
    k x n x m and sigma has length k.  A row is unusable where D is zero
    by the zero rule against a: x on the block's affine span (s = 1) or
    parallel to it (s = 0)."""
    stress = (vt * ctx.ints.T).sum(axis=2).T
    r = (ctx.den * np.einsum("jic,kc->kij", vt, x_int)
         - (xi * shift)[:, None, None] * stress)
    usable, n, d = linalg.rank_one_update(ctx.adj, ctx.det, x_int, xi, r, shift)
    return usable, n, ctx.det * ctx.den * xi * d


def _one_position(ctx: PinContext, x: np.ndarray, shift: int,
                  error: type, message: str) -> np.ndarray:
    """pin_stack at x for ctx's own v = V/lambda, as N / (sigma lambda);
    an unusable x raises error(message)."""
    x = np.asarray(x)
    if x.shape != (ctx.size,):
        raise ValueError("x must be a vector matching the pin block")
    (x_int, xi), (vt, lam) = linalg.cleared(x), linalg.cleared(ctx.v.T)
    usable, n, sigma = pin_stack(ctx, vt[None], x_int[None],
                                 linalg.array([xi], linalg.is_exact(x)), shift)
    if not usable[0]:
        raise error(message)
    return linalg.over(n[0, :, 0], sigma[0] * lam)


def pin_velocity(ctx: PinContext, x: np.ndarray) -> np.ndarray:
    """Velocity of a cone vertex at x extending the block motion to a flex.

    Solves (1 x^T - q^T) y = v^T x - diag(v^T q) by the rank-one update;
    x on the affine span of q's columns is rejected.
    """
    return _one_position(ctx, x, 1, OnAffineSpanError,
                         "x lies on the affine span of the columns of q")


def limit_velocity(ctx: PinContext, x: np.ndarray) -> np.ndarray:
    """Limit of pin_velocity(t x)/t as t grows; always orthogonal to x.

    Defined only when x is not parallel to the affine span of the block,
    i.e. (q^{-1} x)^T 1 != 0.
    """
    return _one_position(ctx, x, 0, ParallelSpanError,
                         "x is parallel to the affine span of q's columns")


def scale_factor(ctx: PinContext, x: np.ndarray):
    """(q^{-1} x)^T 1 = 1^T a / (delta xi), the denominator governing
    limit_velocity (D at s = 0)."""
    x_int, xi = linalg.cleared(np.asarray(x))
    return linalg.over(x_int @ ctx.adj.T, ctx.det * xi).sum()
