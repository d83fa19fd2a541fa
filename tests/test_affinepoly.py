from fractions import Fraction

import numpy as np
import pytest

from rigidlab.affinepoly import (PolyDependence, affine_poly_dependence,
                                 quadratic_value)
from rigidlab.linalg import exact_matrix, frac, rank
from rigidlab.sampling import subrng

Z1 = (0, 1, 0)
Z2 = (0, 0, 1)


def linear_product_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadratic coefficient matrix of the product of two affine linears."""
    m = np.outer(a, b)
    return (m + m.T) * frac("1/2")


def linear_value(l, z):
    """Value of the affine linear l (constant term first) at z."""
    zhat = [frac(1)] + [frac(v) for v in z]
    return sum(c * w for c, w in zip(l, zhat))


def _brute_dependent(l1, q1, l2, q2, rng, evals=60):
    # pointwise dependence of the value pairs at random rational points
    nvars = len(np.asarray(l1).reshape(-1)) - 1
    for _ in range(evals):
        z = [Fraction(rng.randint(-30, 30)) for _ in range(nvars)]
        det = (linear_value(exact_matrix(l1), z) * quadratic_value(q2, z)
               - linear_value(exact_matrix(l2), z) * quadratic_value(q1, z))
        if det != 0:
            return False
    return True


def test_linear_value():
    assert linear_value(exact_matrix([2, 3, -1]), (5, 7)) == 10


def test_quadratic_value():
    q = exact_matrix([[1, 0, 0], [0, 2, 1], [0, 1, 3]])
    assert quadratic_value(q, (1, 2)) == 19


def test_linear_product_matrix():
    m = linear_product_matrix(exact_matrix(Z1), exact_matrix(Z2))
    expected = exact_matrix([[0, 0, 0],
                             [0, 0, "1/2"],
                             [0, "1/2", 0]])
    assert (m == expected).all()
    assert quadratic_value(m, (4, 9)) == 36


def test_common_factor_pair():
    # q1 = z1*z2 and q2 = z2*z2 share the factor z2 over l1 = z1, l2 = z2
    q1 = linear_product_matrix(exact_matrix(Z2), exact_matrix(Z1))
    q2 = linear_product_matrix(exact_matrix(Z2), exact_matrix(Z2))
    assert affine_poly_dependence(Z1, q1, Z2, q2) is \
        PolyDependence.COMMON_LINEAR_FACTOR


def test_scalar_multiple_pair():
    q1 = exact_matrix([[1, 2, 0], [2, 0, 1], [0, 1, 5]])
    l2 = [0, 3, 0]
    q2 = q1 * Fraction(3)
    assert affine_poly_dependence(Z1, q1, l2, q2) is \
        PolyDependence.DEPENDENT_PAIR


def test_both_linear_zero_pair():
    zero = (0, 0, 0)
    q1 = linear_product_matrix(exact_matrix(Z1), exact_matrix(Z1))
    q2 = linear_product_matrix(exact_matrix(Z2), exact_matrix(Z2))
    assert affine_poly_dependence(zero, q1, zero, q2) is \
        PolyDependence.BOTH_LINEAR_ZERO


def test_independent_pair():
    q1 = linear_product_matrix(exact_matrix(Z2), exact_matrix(Z2))
    q2 = linear_product_matrix(exact_matrix(Z1), exact_matrix(Z1))
    assert affine_poly_dependence(Z1, q1, Z2, q2) is PolyDependence.NONE


def _random_linear(rng, nvars):
    return exact_matrix([rng.randint(-9, 9) for _ in range(nvars + 1)])


def _random_quadratic(rng, nvars):
    m = exact_matrix([[rng.randint(-9, 9) for _ in range(nvars + 1)]
                      for _ in range(nvars + 1)])
    return (m + m.T) * Fraction(1, 2)


def test_dependent_pairs_agree_with_evaluation():
    for trial in range(10):
        rng = subrng(1, "poly-dependent", trial)
        nvars = rng.choice([2, 3, 5])
        l1 = _random_linear(rng, nvars)
        q1 = _random_quadratic(rng, nvars)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        result = affine_poly_dependence(l1, q1, l1 * lam, q1 * lam)
        assert result is PolyDependence.DEPENDENT_PAIR
        assert _brute_dependent(l1, q1, l1 * lam, q1 * lam, rng)


def test_zero_linear_pairs_agree_with_evaluation():
    for trial in range(10):
        rng = subrng(1, "poly-zero", trial)
        nvars = rng.choice([2, 3, 5])
        zero = exact_matrix([0] * (nvars + 1))
        q1 = _random_quadratic(rng, nvars)
        q2 = _random_quadratic(rng, nvars)
        if rank(np.vstack([q1.reshape(-1), q2.reshape(-1)])) <= 1:
            continue
        result = affine_poly_dependence(zero, q1, zero, q2)
        assert result is PolyDependence.BOTH_LINEAR_ZERO
        assert _brute_dependent(zero, q1, zero, q2, rng)


def test_common_factor_pairs_agree_with_evaluation():
    for trial in range(10):
        rng = subrng(1, "poly-factor", trial)
        nvars = rng.choice([2, 3, 5])
        l1 = _random_linear(rng, nvars)
        l2 = _random_linear(rng, nvars)
        if rank(np.vstack([l1, l2])) < 2:
            continue
        shared = _random_linear(rng, nvars)
        q1 = linear_product_matrix(shared, l1)
        q2 = linear_product_matrix(shared, l2)
        result = affine_poly_dependence(l1, q1, l2, q2)
        assert result is PolyDependence.COMMON_LINEAR_FACTOR
        assert _brute_dependent(l1, q1, l2, q2, rng)


def test_generic_pairs_agree_with_evaluation():
    independents = 0
    for trial in range(10):
        rng = subrng(1, "poly-generic", trial)
        nvars = rng.choice([2, 3, 5])
        l1 = _random_linear(rng, nvars)
        q1 = _random_quadratic(rng, nvars)
        l2 = _random_linear(rng, nvars)
        q2 = _random_quadratic(rng, nvars)
        result = affine_poly_dependence(l1, q1, l2, q2)
        dependent = _brute_dependent(l1, q1, l2, q2, rng)
        assert dependent == (result is not PolyDependence.NONE)
        independents += result is PolyDependence.NONE
    assert independents >= 8


def test_wrong_quadratic_shape():
    with pytest.raises(ValueError):
        affine_poly_dependence(Z1, exact_matrix([[1, 0], [0, 1]]), Z2,
                               linear_product_matrix(exact_matrix(Z2),
                                                     exact_matrix(Z2)))


def test_mismatched_variable_counts():
    q = linear_product_matrix(exact_matrix(Z1), exact_matrix(Z1))
    with pytest.raises(ValueError):
        affine_poly_dependence(Z1, q, (0, 1), exact_matrix([[1, 0], [0, 1]]))
