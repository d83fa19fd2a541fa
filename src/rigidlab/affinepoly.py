"""Dependence structure of pairs (affine linear, affine quadratic).

An affine linear polynomial in m variables is a coefficient vector of
length m+1 (constant term first).  An affine quadratic is an
(m+1) x (m+1) coefficient matrix Q with value zhat^T Q zhat at
zhat = (1, z_1, ..., z_m); only the symmetric part of Q matters.

For h_i(z) = (l_i(z), q_i(z)), the pair values are linearly dependent at
almost every z exactly when l1*q2 == l2*q1 identically (a nonzero
polynomial vanishes only on a set of measure zero), which splits
into three mutually non-exclusive shapes decided here.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

import numpy as np

from . import linalg
from .linalg import exact_matrix, frac


class PolyDependence(Enum):
    DEPENDENT_PAIR = "dependent-pair"
    BOTH_LINEAR_ZERO = "both-linear-zero"
    COMMON_LINEAR_FACTOR = "common-linear-factor"
    NONE = "none"


_upper = cache(np.triu_indices)


def quadratic_value(q: np.ndarray, z) -> object:
    zhat = linalg.array([frac(v) for v in (1, *z)])
    return zhat @ (exact_matrix(q) @ zhat)


def affine_poly_dependence(l1, q1, l2, q2) -> PolyDependence:
    """Which structural case makes (l1,q1) and (l2,q2) pointwise dependent.

    Checks, in order: the two coefficient pairs are dependent over the
    rationals; both linear parts vanish; l1*q2 == l2*q1.  Returns NONE
    when the values are independent away from a measure-zero set.  Scaling
    a pair by a nonzero number changes none of the three, so each pair is
    cleared to ints by one factor first.

    The third case is q_i = l_i*m with m affine linear: that gives
    l1*q2 = l2*q1, and conversely, past the first two tests, l1 and l2 are
    nonzero (l1 = 0 with l2 != 0 forces q1 = 0, a zero pair) and not
    proportional (l2 = c*l1 gives q2 = c*q1), so coprime at degree <= 1:
    l1 divides q1 = l1*m, q2 = l2*m, and deg m <= 1 as one l_i has degree
    1.  With zhat = (1, z) and C = l1 (x) S2 - l2 (x) S1, symmetric in its
    last two indices, 2*(l1*q2 - l2*q1) is the sum of C[a,b,c] zhat_a
    zhat_b zhat_c, and each monomial's coefficient is a nonzero multiple
    of C[a,b,c] + C[b,a,c] + C[c,a,b].
    """
    l1, l2 = np.ravel(l1), np.ravel(l2)
    if l1.size != l2.size:
        raise ValueError("linear parts disagree on variable count")
    size, pairs = l1.size, []
    for l, q in ((l1, q1), (l2, q2)):
        if np.shape(q) != (size, size):
            raise ValueError("quadratic coefficient matrix has the wrong shape")
        ints = linalg.array(linalg.cleared([*l, *np.ravel(q)])[0])
        q = ints[size:].reshape(size, size)
        pairs.append((ints[:size], q + q.T))  # S = Q + Q^T: q is zhat^T S zhat / 2
    (l1, s1), (l2, s2) = pairs
    # S's upper triangle is the part of the quadratic that counts.
    upper = _upper(size)
    if linalg.rank(linalg.array([[*l1, *s1[upper]], [*l2, *s2[upper]]])) <= 1:
        return PolyDependence.DEPENDENT_PAIR

    if not any(l1) and not any(l2):
        return PolyDependence.BOTH_LINEAR_ZERO

    c = np.multiply.outer(l1, s2) - np.multiply.outer(l2, s1)
    if (c + c.transpose(1, 0, 2) + c.transpose(1, 2, 0)).any():
        return PolyDependence.NONE
    return PolyDependence.COMMON_LINEAR_FACTOR
