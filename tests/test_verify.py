from fractions import Fraction

import pytest

from rigidlab import verify
from rigidlab.affinepoly import (PolyDependence, affine_poly_dependence,
                                 quadratic_value)
from rigidlab.linalg import cleared, exact_matrix, frac, rank
from rigidlab.sampling import random_config, subrng
from rigidlab.verify import CHECK_NAMES, CheckResult, run_battery, run_check
from test_affinepoly import linear_product_matrix


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


def linear_value(l, z):
    """Value of the affine linear l (constant term first) at z."""
    zhat = [frac(1)] + [frac(v) for v in z]
    return sum(c * w for c, w in zip(l, zhat))


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


def _loop_oracle(l1, q1, l2, q2, rng):
    """Reference for the block-drawn oracle: one point at a time, three
    randint(-50, 50) draws each, zhat^T Q zhat summed over every entry of
    the cleared Q.  Returns the verdict and the points drawn."""
    pairs = []
    for l, q in ((l1, q1), (l2, q2)):
        ints, _ = cleared([*l, *q.flat])
        pairs.append((ints[:4], [ints[4 + 4 * a:8 + 4 * a] for a in range(4)]))
    points = []
    for _ in range(200):
        points.append([rng.randint(-50, 50) for _ in range(3)])
        z = [1, *points[-1]]
        (a1, b1), (a2, b2) = [
            (sum(c * v for c, v in zip(l, z)),
             sum(q[a][b] * z[a] * z[b] for a in range(4) for b in range(4)))
            for l, q in pairs]
        if a1 * b2 != a2 * b1:
            return False, points
    return True, points


@pytest.mark.parametrize("case", list(PolyDependence), ids=lambda c: c.value)
def test_block_drawn_oracle_matches_one_point_at_a_time(case):
    """Check 12's 100 instances of each case at seed 0: the block draw gives
    the loop's 600 values, and the oracle its points, verdict and state."""
    tag = f"poly-z-{case.value}"
    for idx in range(100):
        pair = verify._poly_case_instance(case, subrng(0, f"poly-{case.value}", idx))
        block, loop, fresh = (subrng(0, tag, idx) for _ in range(3))
        draws, used = verify._oracle_draws(block, 600)
        assert block.getstate() == fresh.getstate()
        assert draws.tolist() == [fresh.randint(-50, 50) for _ in range(600)]
        block.getrandbits(32 * int(used[-1]))
        assert block.getstate() == fresh.getstate()
        block = subrng(0, tag, idx)
        want, points = _loop_oracle(*pair, loop)
        assert draws.reshape(-1, 3)[:len(points)].tolist() == points
        assert verify._values_dependent(*pair, block) == want == (
            case is not PolyDependence.NONE)
        assert block.getstate() == loop.getstate()


def test_block_drawn_oracle_past_int64():
    """l1 = l2 = 2^24 (1 + x) and q2 = q1 + 2^40, so l1 q2 - l2 q1 =
    2^64 (1 + x): nonzero off x = -1, but 0 mod 2^64, so int64 products
    would wrap to "dependent" at every point.  The coefficient bound sends
    this pair to Python ints."""
    lin = exact_matrix([2 ** 24, 2 ** 24, 0, 0])
    shifted = Q1.copy()
    shifted[0, 0] += 2 ** 40
    rng, loop = subrng(0, "past-int64", 0), subrng(0, "past-int64", 0)
    assert verify._values_dependent(lin, Q1, lin, shifted, rng) is False
    assert _loop_oracle(lin, Q1, lin, shifted, loop)[0] is False
    assert rng.getstate() == loop.getstate()
    # A zero linear part bounds no product: the 2^70 entry still needs ints.
    zero, huge = exact_matrix([0, 0, 0, 0]), Q1.copy()
    huge[1, 1] += 2 ** 70
    assert verify._values_dependent(zero, huge, zero, Q1, rng) is True


def _fraction_linear(rng):
    while True:
        vec = exact_matrix([rng.randint(-9, 9) for _ in range(4)])
        if any(c != 0 for c in vec[1:]):
            return vec


def _fraction_quadratic(rng):
    raw = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    return exact_matrix([[Fraction(raw[a][b] + raw[b][a], 2) for b in range(4)]
                         for a in range(4)])


def _fraction_poly_instance(case, rng):
    """Check 12's instances in Fractions, the reference for the integer
    generator: symmetric quadratics, a dependent pair scaled by the whole
    ratio, common factors by linear_product_matrix."""
    if case is PolyDependence.DEPENDENT_PAIR:
        l1, q1 = _fraction_linear(rng), _fraction_quadratic(rng)
        lam = Fraction(0)
        while lam == 0:
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return l1, q1, l1 * lam, q1 * lam
    if case is PolyDependence.BOTH_LINEAR_ZERO:
        zero = exact_matrix([0] * 4)
        return zero, _fraction_quadratic(rng), zero.copy(), _fraction_quadratic(rng)
    if case is PolyDependence.COMMON_LINEAR_FACTOR:
        while True:
            m, l1, l2 = (_fraction_linear(rng) for _ in range(3))
            if rank(exact_matrix([l1, l2])) == 2:
                return l1, linear_product_matrix(m, l1), l2, linear_product_matrix(m, l2)
    while True:
        l1, l2 = _fraction_linear(rng), _fraction_linear(rng)
        q1, q2 = _fraction_quadratic(rng), _fraction_quadratic(rng)
        if affine_poly_dependence(l1, q1, l2, q2) is PolyDependence.NONE:
            return l1, q1, l2, q2


def _pair_scale(got, want):
    """The s with got == s * want for pairs (l, q), each read as l and the
    symmetric part q + q^T that its polynomial depends on; None if none."""
    got, want = ([*l, *(q + q.T).flat] for l, q in (got, want))
    lead = next(i for i, w in enumerate(want) if w != 0)
    s = Fraction(got[lead]) / want[lead]
    return s if all(g == s * w for g, w in zip(got, want)) else None


@pytest.mark.parametrize("seed", [0, 1])
def test_integer_poly_instances_scale_the_fraction_ones(seed):
    """Check 12's 100 instances of each case: the same draws as the
    Fraction generator, Python ints, and each pair a nonzero multiple of
    the reference pair."""
    for case in PolyDependence:
        for idx in range(100):
            ints, fracs = (subrng(seed, f"poly-{case.value}", idx) for _ in range(2))
            got = verify._poly_case_instance(case, ints)
            want = _fraction_poly_instance(case, fracs)
            assert ints.getstate() == fracs.getstate()
            assert all(type(v) is int for part in got for v in part.flat)
            for pair in (slice(0, 2), slice(2, 4)):
                scale = _pair_scale(got[pair], want[pair])
                assert scale, (case, idx)


@pytest.mark.parametrize("name, ceiling", [
    ("pin-flex-property", 0),
    ("trivial-motion-dim", 0),
    ("admissible-family", 0),
    ("one-dim-inadmissible", 0),
    ("conic-at-infinity", 0),
    ("affine-poly-cases", 0),
    ("extension-predictions", 0),
    ("classification-trichotomy", 94),  # 85 at seed 0, plus 10%
])
def test_checks_build_few_fractions(fraction_counter, name, ceiling):
    assert run_check(name, 0).passed
    assert fraction_counter() <= ceiling


def test_battery_builds_few_fractions(fraction_counter):
    """A seed-0 pass builds 6,220 Fractions: check 1 5,700 (rational by
    design: its draws, the direct inverse and the update); check 3 400
    (limit_velocity's values 150 and their products with x 250); check
    10 85 (50 making the classification weights, 35 the example spaces'
    ratios); check 6 35 (the same ratios).  The rest build none: the pin
    instances of checks 1-3 test x against q's affine span on integers."""
    assert all(res.passed for res in run_battery(0))
    assert fraction_counter() <= 6842


def test_exact_draws_are_python_ints(fraction_counter):
    p = random_config(3, 8, subrng(0, "int-draws", 0))
    assert fraction_counter() == 0
    assert all(type(v) is int for v in p.points.flat)
