import random
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_reference import over_entry, reference_nullspace, reference_rref
from rigidlab import linalg
from rigidlab.errors import (DegenerateConfigError, OnAffineSpanError,
                             SingularMatrixError)
from rigidlab.linalg import (Subspace, _rref_exact, exact_matrix, frac,
                             identity, invert, is_zero, nullspace_rows,
                             ones_vector, rank, sherman_morrison_inverse, solve,
                             zeros)
from rigidlab.rigidity import (Framework, Graph, analyze, implied_pairs,
                               is_generically_rigid)
from rigidlab.sampling import (random_config, random_exact_matrix,
                               random_rational_matrix, subrng)


def test_frac_coercion():
    assert frac("2/6") == Fraction(1, 3)
    assert frac(0.5) == Fraction(1, 2)
    assert frac(-3) == Fraction(-3)
    assert frac(Fraction(7, 2)) == Fraction(7, 2)


def test_exact_rank_of_planted_product():
    for trial in range(10):
        rng = subrng(4, "rank", trial)
        r = rng.randint(1, 3)
        a = random_exact_matrix(4, r, rng, 20)
        b = random_exact_matrix(r, 5, rng, 20)
        assert rank(a @ b) == r


def test_nullspace_annihilates_and_counts():
    for trial in range(10):
        rng = subrng(4, "null", trial)
        m = random_exact_matrix(3, 6, rng, 20)
        ns = nullspace_rows(m)
        assert rank(m) + len(ns) == 6
        for row in ns:
            assert not (m @ row).any()


def test_invert_roundtrip_and_singular():
    rng = subrng(4, "inv", 0)
    for trial in range(10):
        m = random_exact_matrix(3, 3, rng, 50)
        if rank(m) < 3:
            continue
        assert (invert(m) @ m == identity(3)).all()
    singular = exact_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(SingularMatrixError):
        invert(singular)


def test_solve_consistent_and_inconsistent():
    rng = subrng(4, "solve", 0)
    a = random_exact_matrix(4, 3, rng, 20)
    assert rank(a) == 3
    x = random_exact_matrix(3, 2, rng, 20)
    got = solve(a, a @ x)
    assert got is not None
    assert (a @ got == a @ x).all()
    # a left-null vector is never in the column span (it is not self-orthogonal)
    left_null = nullspace_rows(a.T)
    assert len(left_null) == 1
    assert solve(a, left_null[0]) is None


def test_float_rank_agrees_with_exact():
    for trial in range(10):
        rng = subrng(4, "cross", trial)
        r = rng.randint(1, 3)
        a = random_exact_matrix(4, r, rng, 9)
        b = random_exact_matrix(r, 4, rng, 9)
        m = a @ b
        assert rank(m.astype(float)) == rank(m)


def test_subspace_canonical_basis():
    v1 = exact_matrix([1, 2, 0, 1])
    v2 = exact_matrix([0, 1, 1, 0])
    s1 = Subspace.from_spanning([v1, v2], 4)
    s2 = Subspace.from_spanning([v1 + v2 * 3, v2 * 2, v1], 4)
    assert s1.dim == 2 and s2.dim == 2
    assert (s1.basis == s2.basis).all()
    assert s1.equals(s2)
    assert s1.contains(v1 * 7 - v2)
    assert not s1.contains(exact_matrix([0, 0, 0, 1]))


def test_subspace_containment_and_equality():
    a, b, c = random_exact_matrix(3, 6, subrng(4, "contains-subspace", 0), 9)
    for cast in (lambda v: v, linalg.to_float):
        big = Subspace.from_spanning([cast(a), cast(b), cast(c)], 6)
        small = Subspace.from_spanning([cast(a + b * 2)], 6)
        other = Subspace.from_spanning([cast(a), cast(b), cast(c + 1)], 6)
        assert big.contains_subspace(small) and not small.contains_subspace(big)
        assert big.contains_subspace(Subspace.from_spanning([], 6))
        # All-zero spanning vectors give the zero space on both backends.
        zero = Subspace.from_spanning([cast(a * 0), cast(b * 0)], 6)
        assert zero.basis.shape == (0, 6) and big.contains_subspace(zero)
        assert big.equals(Subspace.from_spanning([cast(b), cast(c), cast(a - c)], 6))
        assert not big.equals(small) and not big.equals(other)


def test_subspace_intersection_and_join():
    rng = subrng(4, "meet", 0)
    shared = random_exact_matrix(1, 5, rng, 9)[0]
    a_only = random_exact_matrix(1, 5, rng, 9)[0]
    b_only = random_exact_matrix(1, 5, rng, 9)[0]
    a = Subspace.from_spanning([shared, a_only], 5)
    b = Subspace.from_spanning([shared, b_only], 5)
    meet = a.intersection(b)
    assert meet.dim == 1
    assert meet.contains(shared)
    join = a.join(b)
    assert join.dim == a.dim + b.dim - meet.dim


def test_sherman_morrison_matches_direct():
    for trial in range(20):
        rng = subrng(4, "sm", trial)
        q = random_rational_matrix(3, 3, rng, 100)
        x = random_rational_matrix(1, 3, rng, 100)[0]
        if rank(q) < 3:
            continue
        m = np.outer(ones_vector(3), x) - q.T
        if rank(m) < 3:
            continue
        assert (sherman_morrison_inverse(q, x) == invert(m)).all()


def test_sherman_morrison_refuses_affine_span():
    rng = subrng(4, "sm-span", 0)
    q = random_exact_matrix(3, 3, rng, 50)
    assert rank(q) == 3
    # x is an affine combination of q's columns, so 1 x^T - q^T is singular
    lam = exact_matrix([frac("1/2"), frac("1/3"), frac("1/6")])
    x = q @ lam
    with pytest.raises(OnAffineSpanError):
        sherman_morrison_inverse(q, x)
    with pytest.raises(SingularMatrixError):
        invert(np.outer(ones_vector(3), x) - q.T)


def test_zeros_and_ones_dtypes():
    z = zeros((2, 3))
    assert z.dtype == object and not z.any()
    zf = zeros((2, 3), exact=False)
    assert zf.dtype == float
    assert ones_vector(4).sum() == 4


def test_is_zero_exact_values():
    assert not is_zero(Fraction(1, 10**40))
    assert is_zero(Fraction(0))
    assert is_zero(exact_matrix([[0, 0], [0, 0]]))
    assert not is_zero(exact_matrix([0, Fraction(1, 10**40)]))
    # the scale never enters an exact decision
    assert not is_zero(Fraction(1, 10**40), scale=10**60)


def test_is_zero_empty_array():
    assert is_zero(np.zeros(0))
    assert is_zero(zeros((0, 3)))


def test_is_zero_float_values():
    assert is_zero(1e-10)
    assert not is_zero(1e-8)
    assert is_zero(np.float64(-1e-10))
    assert is_zero(np.array([1e-10, -5e-10]))
    assert not is_zero(np.array([1e-10, -1e-8]))
    assert is_zero(1e-8, scale=100)
    assert is_zero(1e-8, scale=np.array([100, -3]))
    assert is_zero(np.array([1e-8]), scale=np.array([-100.0]))
    assert not is_zero(1e-8, scale=np.array([0.5, -3]))
    # a scale below 1 does not shrink the tolerance
    assert is_zero(5e-10, scale=1e-3)
    assert is_zero(np.array([5e-10]), scale=np.array([1e-3]))
    assert not is_zero(2e-9, scale=1e-3)
    assert is_zero(1e-6, tol=1e-5)
    assert not is_zero(1e-6, tol=1e-7)


def _entries(max_den):
    return st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                     st.fractions(-10 ** 6, 10 ** 6, max_denominator=max_den))


def _grid(draw, nrows, ncols, max_den):
    return [draw(st.lists(_entries(max_den), min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


@st.composite
def rational_matrices(draw):
    """(rows, ncols): plain or low-rank products A @ B, with some rows and
    columns zeroed, 0 to 6 rows, 0 to 7 columns, denominators up to 1e6."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    max_den = draw(st.sampled_from([1, 12, 10 ** 6]))
    if nrows and ncols and draw(st.booleans()):
        inner = draw(st.integers(1, min(nrows, ncols)))
        a = _grid(draw, nrows, inner, max_den)
        b = _grid(draw, inner, ncols, max_den)
        rows = [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
                 for j in range(ncols)] for i in range(nrows)]
    else:
        rows = _grid(draw, nrows, ncols, max_den)
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            rows[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        if j < ncols:
            for row in rows:
                row[j] = Fraction(0)
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_reference(case):
    rows, ncols = case
    red, pivots = _rref_exact(rows, ncols)
    want_red, want_pivots = reference_rref(rows, ncols)
    assert pivots == want_pivots
    # Gauss-Jordan leaves every pivot row with the same pivot: over it, the
    # rows are the reduced row echelon form; the rows below are zero.
    assert len({row[pc] for row, pc in zip(red, pivots)}) <= 1
    assert [over_entry(row) for row in red[:len(pivots)]] == want_red
    assert not any(v for row in red[len(pivots):] for v in row)
    # The rank-only mode eliminates forward only and finds the same pivots;
    # with pivots allowed in every column, the rows below the rank are zero.
    forward, pivots = _rref_exact(rows, ncols, reduce=False)
    assert pivots == want_pivots
    assert len(forward) == len(rows)
    assert not any(v for row in forward[len(pivots):] for v in row)
    assert all(type(v) is int for mat in (red, forward) for row in mat for v in row)
    m = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        m[i, :] = row
    assert rank(m) == len(want_pivots)


def _spanning(rows, ncols) -> Subspace:
    return Subspace.from_spanning([exact_matrix(r).reshape(ncols) for r in rows], ncols)


def _is_primitive(row, at) -> bool:
    return all(type(v) is int for v in row) and gcd(*row) == 1 and row[at] > 0


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_subspace_basis_is_primitive_rref(case):
    """Each exact basis row is a primitive integer row with a positive
    pivot, zero before it, and over its pivot it is the reduced row of the
    Fraction reference."""
    rows, ncols = case
    want, pivots = reference_rref(rows, ncols)
    basis = _spanning(rows, ncols).basis
    assert basis.shape == (len(want), ncols)
    for row, pc in zip(basis.tolist(), pivots):
        assert _is_primitive(row, pc) and not any(row[:pc])
    assert [over_entry(row) for row in basis.tolist()] == want


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_equal_spans_give_identical_bases(case, data):
    """Shuffled, rescaled and recombined spanning sets, with dependent and
    zero rows added, give the identical basis array."""
    rows, ncols = case
    nonzero = st.fractions(-50, 50, max_denominator=20).filter(bool)
    other = [list(r) for r in data.draw(st.permutations(rows))]
    for i in range(len(other)):
        scale = data.draw(nonzero)
        other[i] = [v * scale for v in other[i]]
        j = data.draw(st.integers(0, len(other) - 1))
        if j != i:
            c = data.draw(nonzero)
            other[i] = [a + c * b for a, b in zip(other[i], other[j])]
    if other and data.draw(st.booleans()):
        c = data.draw(nonzero)
        other.append([c * v for v in other[0]])
    other.append([Fraction(0)] * ncols)
    got, want = _spanning(other, ncols).basis, _spanning(rows, ncols).basis
    assert got.shape == want.shape and got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_nullspace_rows_are_primitive_kernel_rows(case):
    """n - rank primitive integer rows in the kernel, each positive at its
    last nonzero entry (its free column), and over that entry the
    free-column row of the Fraction reference."""
    rows, ncols = case
    m = np.array(rows, dtype=object).reshape(len(rows), ncols)
    want = reference_nullspace(rows, ncols)
    got = nullspace_rows(m)
    assert got.shape == (ncols - len(reference_rref(rows, ncols)[1]), ncols)
    for row in got.tolist():
        assert _is_primitive(row, max(j for j, v in enumerate(row) if v))
        assert not any(m.dot(np.array(row, dtype=object)))
    assert [over_entry(row, last=True) for row in got.tolist()] == want


@st.composite
def rank_stacks(draw):
    """(k x r x c exact stack, k scales): planted low-rank integer products
    with zeroed rows and columns, and all-zero matrices; k may be 0.  Each
    matrix gets its own scale for its float copy."""
    k = draw(st.integers(0, 5))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    stack = zeros((k, nrows, ncols))
    ints = st.integers(-9, 9)
    for m in stack:
        if not nrows or not ncols or draw(st.booleans()) and draw(st.booleans()):
            continue  # all zero
        inner = draw(st.integers(1, min(nrows, ncols)))
        a = exact_matrix(draw(st.lists(st.lists(ints, min_size=inner, max_size=inner),
                                       min_size=nrows, max_size=nrows)))
        b = exact_matrix(draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                                       min_size=inner, max_size=inner)))
        m[:] = a @ b
        m[sorted(draw(st.sets(st.integers(0, nrows - 1), max_size=2))), :] = Fraction(0)
        m[:, sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=2)))] = Fraction(0)
    scales = st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8])
    return stack, draw(st.lists(scales, min_size=k, max_size=k))


@settings(max_examples=200, deadline=None)
@given(rank_stacks())
def test_stacked_rank_is_the_rank_of_each_matrix(case):
    stack, scales = case
    ranks = rank(stack)
    assert ranks == [rank(m) for m in stack]
    assert ranks == [len(reference_rref(m.tolist(), m.shape[1])[1]) for m in stack]
    floats = linalg.to_float(stack) * np.reshape(scales, (-1, 1, 1))
    assert rank(floats) == [rank(m) for m in floats]
    assert all(type(r) is int for r in ranks + rank(floats))
    for m, rk in zip(floats, rank(floats)):
        if not m.any():
            assert rk == 0
    assert rank(stack[:0]) == rank(floats[:0]) == []


def test_stacked_rank_of_zero_and_empty_stacks():
    assert rank(zeros((3, 2, 4))) == rank(np.zeros((3, 2, 4))) == [0, 0, 0]
    assert rank(zeros((2, 0, 3))) == rank(np.zeros((2, 3, 0))) == [0, 0]
    assert rank(zeros((0, 3, 3))) == rank(np.zeros((0, 3, 3))) == []


@st.composite
def row_space_cases(draw):
    """(m, c): r x n and k x n exact matrices, r, k or n possibly 0.  m is
    a planted low-rank integer product with zeroed rows and columns; each
    row of c is a combination of m's factor rows (in the row space unless
    zeroing cut it) or a free integer row."""
    r, k, n = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    ints = st.integers(-9, 9)

    def grid(rows, cols):
        return draw(st.lists(st.lists(ints, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    inner = draw(st.integers(1, 3))
    factor = exact_matrix(grid(inner, n)).reshape(inner, n)
    m = exact_matrix(grid(r, inner)).reshape(r, inner) @ factor
    c = zeros((k, n))
    for row in c:
        row[:] = (exact_matrix(grid(1, inner)).reshape(inner) @ factor
                  if draw(st.booleans()) else exact_matrix(grid(1, n)).reshape(n))
    m[sorted(draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=2))) if r else [], :] = 0
    m[:, sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))) if n else []] = 0
    return m, c


@settings(max_examples=200, deadline=None)
@given(row_space_cases())
def test_spanned_columns_is_the_row_space_test(case):
    """Row j of c lies in the row space of m exactly when column j of
    [m^T | c^T] is spanned by the first r columns."""
    m, c = case
    got = linalg.spanned_columns(np.hstack([m.T, c.T]), len(m))
    base = len(reference_rref(m.tolist(), m.shape[1])[1])
    assert got == [len(reference_rref([*m.tolist(), row.tolist()], m.shape[1])[1]) == base
                   for row in c]


def test_spanned_columns_with_empty_parts():
    # No spanning columns: only a zero column is spanned.
    assert linalg.spanned_columns(exact_matrix([[0, 1], [0, 0]]), 0) == [True, False]
    # No columns to test, and no rows at all.
    assert linalg.spanned_columns(exact_matrix([[1, 2], [3, 4]]), 2) == []
    assert linalg.spanned_columns(zeros((0, 3)), 1) == [True, True]


def test_cleared_returns_python_ints_as_they_are():
    ints = [3, -7, 0, 2 ** 80]
    assert linalg.cleared(ints) == (ints, 1)
    assert linalg.cleared(ints)[0] is ints
    mixed = [np.int64(4), 6, Fraction(1, 3)]
    got, d = linalg.cleared(mixed)
    assert (got, d) == ([12, 18, 1], 3)
    assert all(type(v) is int for v in got)
    assert all(type(v) is int for v in linalg.cleared([np.int64(5), np.int64(-2)])[0])


@pytest.mark.parametrize("cast", [int, np.int64])
def test_integer_entries_match_fraction_results(cast):
    """Object arrays of Python ints or of np.int64 give the Fraction
    results.  The np.int64 entries lie near 2**62, so any product of two
    of them overflows int64 unless the kernel sees Python ints."""
    rng = random.Random(62)

    def big():
        return rng.choice((-1, 1)) * (2 ** 62 - rng.randint(0, 2 ** 20))

    def both(rows):
        ints = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            ints[i, :] = [cast(v) for v in row]
        return ints, exact_matrix(rows)

    a, b = [big() for _ in range(5)], [big() for _ in range(5)]
    # Rank 3: the third row is the difference of the first two.
    flat, flat_frac = both([a, b, [x - y for x, y in zip(a, b)],
                            [big() for _ in range(5)]])
    square, square_frac = both([[big() for _ in range(4)] for _ in range(4)])
    assert all(type(v) is int for v in linalg.cleared(flat)[0].flat)
    for m, m_frac in ((flat, flat_frac), (square, square_frac)):
        want = reference_rref(m_frac.tolist(), m.shape[1])[1]
        forward, pivots = _rref_exact(m.tolist(), m.shape[1], reduce=False)
        assert pivots == want
        assert not any(v for row in forward[len(pivots):] for v in row)
    assert rank(flat) == rank(flat_frac) == 3
    assert (nullspace_rows(flat) == nullspace_rows(flat_frac)).all()
    assert (solve(flat, flat[:, 0]) == solve(flat_frac, flat_frac[:, 0])).all()
    assert (invert(square) == invert(square_frac)).all()


def test_zero_rule_lives_in_linalg():
    src = Path(linalg.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "linalg.py" and "_tol" in path.read_text()]
    assert offenders == []


def test_exact_kernel_lives_in_linalg():
    src = Path(linalg.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "linalg.py" and "_rref_exact" in path.read_text()]
    assert offenders == []


def test_block_inversion_lives_in_linalg_and_pins():
    # Pin blocks become (adjugate, determinant) in pins.integer_block only.
    src = Path(linalg.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name not in ("linalg.py", "pins.py")
                 and "adjugate(" in path.read_text()]
    assert offenders == []


def test_backend_format_lives_in_linalg():
    src = Path(linalg.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "linalg.py" and "dtype=object" in path.read_text()]
    assert offenders == []


@pytest.mark.parametrize("seed", [1, 4])
def test_float_solve_consistency_matches_exact_at_large_scale(seed):
    """Is a motion of point 1 alone affine?  On five points with
    coordinates in 1e6 * [-9, 9] the least-squares fit puts a large entry
    on the ones column, so the float residual must be judged against
    |A||x| entry by entry, not against max|A| * max|x|."""
    r = random.Random(seed)
    pts = exact_matrix([[r.randint(-9, 9) * 10**6 for _ in range(3)]
                        for _ in range(5)])
    lhs = np.hstack([pts, ones_vector(5).reshape(-1, 1)])
    for axis in range(3):
        rhs = zeros((5, 3))
        rhs[0, axis] = Fraction(1)
        float_x = solve(linalg.to_float(lhs), linalg.to_float(rhs))
        assert (float_x is None) == (solve(lhs, rhs) is None)


def _rationals(max_den):
    return st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                     st.integers(1, max_den))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), max_den=st.sampled_from([1, 10 ** 6, 10 ** 12]))
def test_fraction_free_sherman_morrison_matches_direct_inversion(data, max_den):
    """The fraction-free update equals inverting 1 x^T - q^T, and x on the
    affine span of q's columns is refused, at large denominators."""
    q = exact_matrix(data.draw(st.lists(st.lists(_rationals(max_den), min_size=3,
                                                 max_size=3), min_size=3, max_size=3)))
    if rank(q) < 3:
        with pytest.raises(SingularMatrixError):
            sherman_morrison_inverse(q, exact_matrix([1, 2, 3]))
        return
    x = exact_matrix(data.draw(st.lists(_rationals(max_den), min_size=3, max_size=3)))
    m = np.outer(ones_vector(3), x) - q.T
    if rank(m) == 3:
        assert (sherman_morrison_inverse(q, x) == invert(m)).all()
    else:
        with pytest.raises(OnAffineSpanError):
            sherman_morrison_inverse(q, x)
    lam = data.draw(st.lists(_rationals(max_den), min_size=2, max_size=2))
    on_span = q @ exact_matrix([*lam, 1 - sum(lam)])
    with pytest.raises(OnAffineSpanError):
        sherman_morrison_inverse(q, on_span)


def _rank_mod(rows, ncols, p):
    """Rank of integer rows over GF(p): Gaussian elimination with inverses,
    independent of _bareiss."""
    rows = [[v % p for v in row] for row in rows]
    lead = 0
    for col in range(ncols):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = pow(rows[lead][col], -1, p)
        for i in range(lead + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[lead])]
        lead += 1
    return lead


@st.composite
def bounded_rank_cases(draw):
    """(m, r): an integer object matrix, 0 to 6 by 0 to 7, and its rank
    over Q.  m is a planted low-rank product A @ B with entries up to
    about 10^12 and zeroed rows and columns; then, as drawn, one row loses
    rank only modulo PRIME (it becomes PRIME k alone, or another row plus
    PRIME times an integer row), and m may be transposed."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entries = st.integers(-9, 9) | st.integers(-10 ** 6, 10 ** 6)
    inner = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                      min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                      min_size=inner, max_size=inner))
    rows = [[sum(x * y for x, y in zip(ra, cb)) for cb in zip(*b)] for ra in a]
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)) if nrows else ():
        rows[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else ():
        for row in rows:
            row[j] = 0
    mode = draw(st.sampled_from(["plain", "multiple", "congruent"]))
    if mode == "multiple" and nrows and ncols:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i] = [0] * ncols
        rows[i][j] = linalg.PRIME * draw(st.integers(1, 10 ** 3) | st.integers(-10 ** 3, -1))
    elif mode == "congruent" and nrows > 1 and ncols:
        i, j = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2, unique=True))
        v = draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
        rows[i] = [x + linalg.PRIME * y for x, y in zip(rows[j], v)]
    m = np.array(rows, dtype=object).reshape(nrows, ncols)
    if draw(st.booleans()):
        m = m.T.copy()
    return m, len(reference_rref([[Fraction(v) for v in row] for row in m.tolist()],
                                 m.shape[1])[1])


@settings(max_examples=200, deadline=None)
@given(bounded_rank_cases(), st.integers(0, 3))
def test_rank_with_a_proven_bound_is_the_rank(case, slack):
    """For every upper bound b on the rank, full = min(b, rows, columns)
    is the rank when reaches_mod_p proves it, which happens exactly when
    the rank mod PRIME is full; only a rank short of it is eliminated
    exactly, by rank."""
    m, r = case
    rows, ncols = m.tolist(), m.shape[1]
    mod_p = _rank_mod(rows, ncols, linalg.PRIME)
    assert len(linalg._bareiss(rows, ncols, False, linalg.PRIME)[1]) == mod_p <= r
    assert rank(m) == r
    for bound in (r, r + slack):
        full = min(bound, *m.shape)
        with mock.patch.object(linalg, "_rref_exact", wraps=linalg._rref_exact) as exact:
            reached = linalg.reaches_mod_p(m, full)
            assert (full if reached else rank(m)) == r
        assert reached == (mod_p == full)
        assert exact.called == (m.size > 0 and mod_p < full)


@settings(max_examples=200, deadline=None)
@given(bounded_rank_cases(), st.integers(0, 2), st.data())
def test_spanned_columns_with_a_proven_bound(case, slack, data):
    """When the first k columns reach an upper bound b on the rank of m
    modulo PRIME (reaches_mod_p with ncols k) every column is spanned,
    as spanned_columns finds; only short columns are eliminated exactly."""
    m, r = case
    k = data.draw(st.integers(0, m.shape[1]))
    want = linalg.spanned_columns(m, k)
    reached = _rank_mod(m[:, :k].tolist(), k, linalg.PRIME) == r + slack
    with mock.patch.object(linalg, "_rref_exact", wraps=linalg._rref_exact) as exact:
        proved = linalg.reaches_mod_p(m, r + slack, k)
        got = [True] * (m.shape[1] - k) if proved else linalg.spanned_columns(m, k)
    assert proved == reached
    assert got == want
    assert exact.called != reached
    if reached:
        assert all(want)


def test_prime_is_the_largest_prime_below_2_30():
    # One CPython digit holds each residue.
    p = linalg.PRIME
    assert p < 2 ** 30
    assert all(p % k for k in range(2, isqrt(p) + 1))
    assert not any(all(n % k for k in range(2, isqrt(n) + 1)) for n in range(p + 1, 2 ** 30))


def test_bound_reached_only_over_q_runs_the_exact_rank():
    p = linalg.PRIME
    one = np.array([[3 * p]], dtype=object)
    assert linalg._bareiss(one.tolist(), 1, False, p)[1] == []
    assert not linalg.reaches_mod_p(one, 1)
    assert rank(one) == 1
    congruent = np.array([[1, 2, 3], [1 + p, 2, 3 - 2 * p]], dtype=object)
    assert not linalg.reaches_mod_p(congruent, 2)
    assert rank(congruent) == 2
    assert not linalg.reaches_mod_p(congruent.T.copy(), 2, 1)
    assert linalg.spanned_columns(congruent.T.copy(), 1) == [False]
    row = np.array([[p, 1, 2]], dtype=object)
    assert not linalg.reaches_mod_p(row, 1, 1)
    assert linalg.spanned_columns(row, 1) == [True, True]


def test_spanned_columns_bound_is_reached_by_the_first_columns_only():
    # m has rank 2, its bound, but its first two columns only rank 1: the
    # third column is not spanned, whatever the whole matrix reaches.
    m = np.array([[1, 0, 0], [0, 0, 1]], dtype=object)
    assert linalg.reaches_mod_p(m, 2)
    assert not linalg.reaches_mod_p(m, 2, 2)
    assert linalg.spanned_columns(m, 2) == [False]
    swapped = m[:, [0, 2, 1]].copy()
    assert linalg.reaches_mod_p(swapped, 2, 2)
    assert linalg.spanned_columns(swapped, 2) == [True]


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_bound_zero_and_empty_matrices(shape):
    z = np.zeros(shape, dtype=int).astype(object)
    assert linalg.reaches_mod_p(z, 0)
    assert rank(z) == 0
    full = min(2, *shape)
    assert linalg.reaches_mod_p(z, full) == (full == 0)
    assert not linalg.reaches_mod_p(z, 3)
    for k in range(shape[1] + 1):
        assert linalg.reaches_mod_p(z, 0, k)
        assert linalg.spanned_columns(z, k) == [True] * (shape[1] - k)
    # Float ranks have no modular pass: one SVD.
    assert rank(np.eye(3)) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count, edges", [(1, []), (2, []), (2, [(1, 2)])],
                         ids=["V1", "V2", "V2-edge"])
def test_one_and_two_vertex_graphs(n, count, edges):
    """The bound n V - trivial_dim is 0 for one point and 1 for two: the
    answers are the theory's.  One point moves only trivially; two points
    with no bar have one flex beyond their 2n - 1 trivial motions."""
    g = Graph.from_edges(count, edges)
    p = random_config(n, count, subrng(0, "edge-cases", n))
    trivial = n if count == 1 else 2 * n - 1
    rigid = count == 1 or bool(edges)
    report = analyze(Framework(g, p))
    assert (report.flex_dim, report.trivial_dim) == (trivial + (not rigid), trivial)
    assert report.is_rigid == report.is_isostatic == rigid
    assert is_generically_rigid(g, n) == rigid
    pairs = [(1, 2)] if count == 2 else []
    assert implied_pairs(g, pairs, n) == (set(pairs) if rigid else set())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("call", [
    rank, nullspace_rows, invert, lambda m: solve(m, np.ones(2)),
    lambda m: solve(np.eye(2), m), lambda m: Subspace.from_spanning(list(m))],
    ids=["rank", "nullspace_rows", "invert", "solve-a", "solve-b", "from_spanning"])
def test_float_operands_that_are_not_finite_raise(call, bad):
    # An overflowed entry never reaches LAPACK, where an SVD could hang,
    # fail to converge, or read NaN singular values as rank 0.
    m = np.array([[1.0, 2.0], [3.0, bad]])
    with pytest.raises(DegenerateConfigError, match="not finite"):
        call(m)
