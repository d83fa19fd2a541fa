"""Dependence structure of pairs (affine linear, affine quadratic).

An affine linear polynomial in m variables is a coefficient vector of
length m+1 (constant term first).  An affine quadratic is an
(m+1) x (m+1) coefficient matrix Q with value zhat^T Q zhat at
zhat = (1, z_1, ..., z_m); only the symmetric part of Q matters.

For h_i(z) = (l_i(z), q_i(z)), the pair values are linearly dependent at
almost every z exactly when l1*q2 == l2*q1 identically, which splits
into three mutually non-exclusive shapes decided here.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import linalg
from .linalg import exact_matrix, frac


class PolyDependence(Enum):
    DEPENDENT_PAIR = "dependent-pair"
    BOTH_LINEAR_ZERO = "both-linear-zero"
    COMMON_LINEAR_FACTOR = "common-linear-factor"
    NONE = "none"


def _as_linear(l) -> np.ndarray:
    return exact_matrix(l).reshape(-1)


def _as_quadratic(q, nvars: int) -> np.ndarray:
    arr = exact_matrix(q)
    if arr.shape != (nvars + 1, nvars + 1):
        raise ValueError("quadratic coefficient matrix has the wrong shape")
    return _sym(arr)


def _sym(m: np.ndarray) -> np.ndarray:
    if (m == m.T).all():
        return m
    half = frac("1/2")
    return (m + m.T) * half


def quadratic_value(q: np.ndarray, z) -> object:
    zhat = linalg.array([frac(v) for v in (1, *z)])
    return zhat @ (exact_matrix(q) @ zhat)


def linear_product_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadratic coefficient matrix of the product of two affine linears."""
    return _sym(np.outer(a, b))


def affine_poly_dependence(l1, q1, l2, q2) -> PolyDependence:
    """Which structural case makes (l1,q1) and (l2,q2) pointwise dependent.

    Checks, in order: the two coefficient pairs are dependent over the
    rationals; both linear parts vanish; the quadratics are a common
    affine linear multiple of the linears.  Returns NONE when the values
    are independent away from a measure-zero set.
    """
    l1 = _as_linear(l1)
    l2 = _as_linear(l2)
    if l1.size != l2.size:
        raise ValueError("linear parts disagree on variable count")
    nvars = l1.size - 1
    q1 = _as_quadratic(q1, nvars)
    q2 = _as_quadratic(q2, nvars)

    tri = [(a, b) for a in range(nvars + 1) for b in range(a, nvars + 1)]
    longs = linalg.array([[*l, *(q[a, b] for a, b in tri)]
                          for l, q in ((l1, q1), (l2, q2))])
    if linalg.rank(longs) <= 1:
        return PolyDependence.DEPENDENT_PAIR

    zero1 = all(v == 0 for v in l1)
    zero2 = all(v == 0 for v in l2)
    if zero1 and zero2:
        return PolyDependence.BOTH_LINEAR_ZERO

    # Common factor: find one affine linear m with q_i == m * l_i, i.e.
    # Sym(outer(m, l_i)) == q_i, a linear system in m's coefficients.
    rows: list[list] = []
    rhs: list = []
    for l_vec, q_mat in ((l1, q1), (l2, q2)):
        srows, index = linalg.sym_outer_rows(l_vec)
        rows += srows
        rhs += [q_mat[a, b] for a, b in index]
    if linalg.solve(linalg.array(rows), linalg.array(rhs)) is not None:
        return PolyDependence.COMMON_LINEAR_FACTOR
    return PolyDependence.NONE
