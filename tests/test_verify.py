from fractions import Fraction

import pytest

from rigidlab import verify
from rigidlab.affinepoly import (PolyDependence, linear_product_matrix,
                                 linear_value, quadratic_value)
from rigidlab.linalg import exact_matrix
from rigidlab.sampling import subrng
from rigidlab.verify import CHECK_NAMES, CheckResult, run_battery, run_check


def test_check_names_are_stable():
    assert CHECK_NAMES == (
        "sherman-morrison-exact",
        "pin-flex-property",
        "limit-closed-form",
        "trivial-motion-dim",
        "rigidity-sanity",
        "example-spaces-admissible",
        "admissible-family",
        "one-dim-inadmissible",
        "conic-at-infinity",
        "classification-trichotomy",
        "extension-predictions",
        "affine-poly-cases",
    )


def test_small_battery_passes():
    results = run_battery(seed=3, samples=2)
    assert [r.name for r in results] == list(CHECK_NAMES)
    for r in results:
        assert r.passed, f"{r.name}: {r.details}"
        assert r.seconds >= 0


def test_single_check_runs_alone():
    res = run_check("trivial-motion-dim", seed=5, samples=3)
    assert res.passed


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("definitely-not-a-check")
    with pytest.raises(ValueError):
        run_battery(names=["pin-flex-property", "nope"])


def test_record_omits_timing():
    res = CheckResult("demo", True, "fine", 1.25)
    assert res.record() == {"check": "demo", "details": "fine", "passed": True}


def _fraction_oracle(l1, q1, l2, q2, rng, evals=200):
    """Check 12's evaluation oracle in Fractions, the reference for the
    integer one: the same draws, in the same order."""
    for _ in range(evals):
        z = [Fraction(rng.randint(-50, 50)) for _ in range(3)]
        det = (linear_value(l1, z) * quadratic_value(q2, z)
               - linear_value(l2, z) * quadratic_value(q1, z))
        if det != 0:
            return False
    return True


def _agree(l1, q1, l2, q2, seed, tag, idx):
    """Both oracles on one pair; they must also consume the same draws."""
    ints, fracs = subrng(seed, tag, idx), subrng(seed, tag, idx)
    got = verify._values_dependent(l1, q1, l2, q2, ints)
    assert got == _fraction_oracle(l1, q1, l2, q2, fracs)
    assert ints.getstate() == fracs.getstate()
    return got


@pytest.mark.parametrize("seed", [0, 1])
def test_integer_oracle_matches_fraction_oracle(seed):
    for case in PolyDependence:
        for idx in range(5):
            rng = subrng(seed, f"poly-{case.value}", idx)
            pair = verify._poly_case_instance(case, rng)
            assert _agree(*pair, seed, f"poly-z-{case.value}", idx) == (
                case is not PolyDependence.NONE)


def _q(rows):
    """Symmetric coefficient matrix with halves off the diagonal."""
    m = exact_matrix(rows)
    return (m + m.T) * Fraction(1, 2)


L1 = exact_matrix(["1/3", "2/3", 1, 0])
Q1 = _q([[1, 2, 0, 1], [0, 3, 1, 0], [1, 0, -1, 2], [0, 1, 1, 5]])
M = exact_matrix(["1/5", 0, 1, -2])
L2 = exact_matrix([0, "1/2", 0, 1])
LAM = Fraction(3, 7)


@pytest.mark.parametrize("pair, dependent", [
    # 3/7 cancels no denominator of q1 but turns l1's thirds into sevenths,
    # so l_i and q_i need one common factor per pair.
    ((L1, Q1, L1 * LAM, Q1 * LAM), True),
    ((L1, Q1, L1 * LAM, Q1 * Fraction(3, 5)), False),
    ((L1, linear_product_matrix(M, L1), L2, linear_product_matrix(M, L2)), True),
    ((L1, linear_product_matrix(M, L1), L2, linear_product_matrix(L1, L2)), False),
], ids=["dependent-pair", "unequal-ratios", "common-factor", "no-common-factor"])
def test_integer_oracle_on_mixed_denominators(pair, dependent):
    assert _agree(*pair, 0, "hand-built", 0) == dependent
