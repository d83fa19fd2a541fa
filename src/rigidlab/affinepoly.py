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
from .linalg import exact_matrix, frac, sym_outer_system


class PolyDependence(Enum):
    DEPENDENT_PAIR = "dependent-pair"
    BOTH_LINEAR_ZERO = "both-linear-zero"
    COMMON_LINEAR_FACTOR = "common-linear-factor"
    NONE = "none"


def _cleared_pair(l: np.ndarray, q, size: int):
    """(l, Q), entries anything frac accepts, scaled to ints by one factor,
    as integer object arrays."""
    q = np.asarray(q)
    if q.shape != (size, size):
        raise ValueError("quadratic coefficient matrix has the wrong shape")
    ints = linalg.array(linalg.cleared([*l, *q.flat])[0])
    return ints[:size], ints[size:].reshape(size, size)


def quadratic_value(q: np.ndarray, z) -> object:
    zhat = linalg.array([frac(v) for v in (1, *z)])
    return zhat @ (exact_matrix(q) @ zhat)


def affine_poly_dependence(l1, q1, l2, q2) -> PolyDependence:
    """Which structural case makes (l1,q1) and (l2,q2) pointwise dependent.

    Checks, in order: the two coefficient pairs are dependent over the
    rationals; both linear parts vanish; the quadratics are a common
    affine linear multiple of the linears.  Returns NONE when the values
    are independent away from a measure-zero set.  Scaling one pair by a
    nonzero number changes none of the three, so each pair is cleared to
    ints (_cleared_pair) and every test is an integer elimination.
    """
    l1, l2 = np.ravel(l1), np.ravel(l2)
    if l1.size != l2.size:
        raise ValueError("linear parts disagree on variable count")
    size = l1.size
    pairs = [_cleared_pair(l, q, size) for l, q in ((l1, q1), (l2, q2))]
    # Per pair, the system Sym(m l^T) = Sym(Q) in an affine linear m (the
    # common factor).  Its right-hand side is Q's symmetric upper triangle,
    # the part of Q that counts, so it also stands for Q in the pair.
    systems = [sym_outer_system(l, q) for l, q in pairs]

    longs = linalg.array([[*l, *rhs] for (l, _), (_, rhs) in zip(pairs, systems)])
    if linalg.rank(longs) <= 1:
        return PolyDependence.DEPENDENT_PAIR

    if not any(pairs[0][0]) and not any(pairs[1][0]):
        return PolyDependence.BOTH_LINEAR_ZERO

    # Common factor: does one m solve both systems?
    rows = [[*row, v] for coeffs, rhs in systems for row, v in zip(coeffs, rhs)]
    if linalg.spanned_columns(linalg.array(rows), size)[0]:
        return PolyDependence.COMMON_LINEAR_FACTOR
    return PolyDependence.NONE
