"""Dense linear algebra over two scalar backends.

Matrices are plain numpy arrays.  dtype object means the exact backend;
any float dtype means the float64 backend.  Mixing backends in one call
is a bug.  zero_rows holds the zero rule of each backend, row by row
(is_zero: one value): exact values are zero when every entry == 0,
float values when max|value| <= tol * max(scale, 1); float ranks count
singular values above tol times the largest (a stack: one batched SVD),
and an SVD or least-squares operand that overflowed raises (_finite).
Exact entries are Python ints; a fractions.Fraction enters only as
parsed input (frac, exact_matrix) and is made only by over.  Every exact
rank, nullspace, solve and inverse runs _bareiss, Bareiss elimination on
Python ints: Gauss-Jordan for nullspace, solve and inverse, forward only
for rank, pivot_columns and spanned_columns, the row-space test.
Divisions are exact in both modes.  The one kernel also reduces modulo
PRIME (reaches_mod_p), which these exact functions never do: a minor
nonzero mod PRIME is a nonzero integer, so a rank reached mod PRIME is
reached over Q, and a caller that has proved it an upper bound needs no
exact elimination.  Exact bases (Subspace, nullspace_rows) are primitive
integer rows (gcd 1).  adjugate and solve_parts return integers over one
denominator; invert and solve make Fractions of them (over).  cleared,
the one denominator-clearing helper, scales exact values by the lcm of
their denominators (a list of Python ints passes as it is): a
configuration's points once (motions.PointConfiguration, which every
exact reader of a configuration then uses), elimination rows, motions,
pin samples, the x of sherman_morrison_inverse, check 12's pairs.

Only this module names the array format of a backend: other modules
build their matrices with array, zeros, identity, ones_vector or
exact_matrix.  A float solve is consistent when its least-squares
residual is zero by is_zero against |A||x| and |b|, entry by entry.
sherman_morrison_inverse is the rank-one update as a whole matrix;
pins.pin_stack applies it to stacks of vectors; both are fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DegenerateConfigError, OnAffineSpanError, SingularMatrixError

# Relative tolerance used by every float64 rank/zero decision.  Callers can
# override per call; exact-backend calls ignore it.
DEFAULT_RANK_TOL = 1e-9
PRIME = 2 ** 30 - 35  # the largest prime below 2**30: one CPython digit per residue


def _tol(tol: float | None) -> float:
    return DEFAULT_RANK_TOL if tol is None else float(tol)


def frac(value) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # Accept floats only when they carry an exact decimal intent.
        return Fraction(str(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to Fraction")


def exact_matrix(data) -> np.ndarray:
    """Build an object-dtype matrix of Fractions from nested data."""
    arr = np.array(data, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = frac(v)
    return flat.reshape(arr.shape)


def array(rows, exact: bool = True) -> np.ndarray:
    """One matrix of the backend from nested rows or a list of 1-D arrays.

    Exact entries are kept as given, so they must be Python ints or
    Fractions (a numpy integer can overflow); float entries are
    converted to float64.
    """
    return np.array(rows, dtype=object if exact else float)


def is_exact(m: np.ndarray) -> bool:
    return np.asarray(m).dtype == object


def zeros(shape, exact: bool = True) -> np.ndarray:
    return np.zeros(shape, dtype=object if exact else float)


def identity(n: int, exact: bool = True) -> np.ndarray:
    return np.eye(n, dtype=object if exact else float)


def ones_vector(n: int, exact: bool = True) -> np.ndarray:
    return np.ones(n, dtype=object if exact else float)


def to_float(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=float)


def zero_rows(values: np.ndarray, tol: float | None = None, scale=1.0) -> np.ndarray:
    """The zero rule of both backends, one verdict per row of a 2-D array:
    exact rows are zero when every entry == 0, float rows when max|row| <=
    tol * max(scale, 1), scale a number or an array whose row i's largest
    |entry| scales row i.  A row with no entries is zero."""
    if values.dtype == object:
        return np.array([all(v == 0 for v in row) for row in values.tolist()], bool)
    if isinstance(scale, np.ndarray):
        scale = np.abs(scale).max(axis=1, initial=0.0)
    return np.abs(values).max(axis=1, initial=0.0) <= _tol(tol) * np.maximum(scale, 1.0)


def is_zero(value, tol: float | None = None, scale=1.0) -> bool:
    """zero_rows for one value, a scalar or an array taken as one row (an
    array scale counts its largest |entry|)."""
    if not isinstance(value, (float, np.ndarray)):
        return value == 0
    scale = scale.reshape(1, -1) if isinstance(scale, np.ndarray) else scale
    return bool(zero_rows(np.reshape(value, (1, -1)), tol, scale)[0])


def cleared(values):
    """(ints, d) with values == ints / d: Python ints in a list, or in an
    object array for an array; a float array comes back with d = 1.
    Python ints and Fractions are taken as stored; any other entry
    (np.integer, str, float) goes through frac, so no fixed-width int
    comes back.  A list of Python ints is returned as it is, d = 1."""
    if isinstance(values, np.ndarray):
        if not is_exact(values):
            return values, 1
        ints, d = cleared(values.ravel().tolist())
        return np.array(ints, dtype=object).reshape(values.shape), d
    if type(values) is list and all(type(v) is int for v in values):
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else frac(v) for v in values]
    # A set, not a generator: a resized *args tuple lands in another
    # size's tuple freelist on CPython, and peak RSS creeps up per call.
    d = lcm(*{v.denominator for v in values})
    return [v.numerator * (d // v.denominator) for v in values], d


def _bareiss(rows: list[list], ncols: int, reduce: bool = True,
             modulus: int | None = None):
    """Fraction-free elimination: (integer rows, pivot columns, d), d the
    last pivot (1 when there is none).

    Entries are ints, Fractions or anything frac accepts.  Each row is
    scaled by the lcm of its denominators (cleared), which keeps the row
    space, and Bareiss elimination runs on the integer rows; every entry
    it forms is a minor of the cleared rows, so the division by the
    previous pivot is exact under each mode's rule.  reduce=True is
    Gauss-Jordan: exact provided every row but the pivot row, whatever
    its entry in the pivot column, is updated at every step; each pivot
    row's pivot then ends equal to d, so the reduced row echelon form is
    the pivot rows over d.  reduce=False is forward elimination: only the
    rows below the pivot are updated, exact provided each of them is
    updated at every step, a zero in the pivot column included; every
    row comes back in echelon form, those below the rank zero in the
    first ncols columns.  The rows below never read the rows above, so
    both modes find the same pivots.  With a modulus every entry is a
    residue and each update is (a p - f b) % modulus, with no division:
    a row whose pivot-column entry is 0 is left as it is.
    """
    mat = [cleared(row)[0] for row in rows]
    if modulus:
        mat = [[v % modulus for v in row] for row in mat]
    pivots: list[int] = []
    lead = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(lead, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        base = mat[lead]
        p = base[col]
        for i in range(0 if reduce else lead + 1, len(mat)):
            f = mat[i][col]
            if i == lead or (modulus and not f):
                continue
            if modulus:
                mat[i] = [(a * p - f * b) % modulus for a, b in zip(mat[i], base)]
            else:
                mat[i] = ([(a * p - f * b) // prev for a, b in zip(mat[i], base)] if f
                          else [a * p // prev for a in mat[i]])
        prev = p
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat, pivots, prev


def _rref_exact(rows: list[list], ncols: int, reduce: bool = True):
    """_bareiss without d: the integer rows and the pivot columns."""
    return _bareiss(rows, ncols, reduce)[:2]


def _primitive(row: list, at: int) -> list:
    """A nonzero integer row over the gcd of its entries, signed so that
    entry at is positive."""
    g = gcd(*row) if row[at] > 0 else -gcd(*row)
    return [v // g for v in row]


def _finite(m: np.ndarray) -> np.ndarray:
    """m in float64, where an inf or nan entry (an overflow) raises before
    LAPACK can hang, fail to converge or rank it 0."""
    if not np.isfinite(m := m.astype(float)).all():
        raise DegenerateConfigError("float64 overflow: a matrix entry is not finite")
    return m


def _svd_rank(s: np.ndarray, tol: float | None):
    """Count of singular values (largest first, last axis: one count per
    matrix of a stack) above tol times the largest; all zero counts 0."""
    return (s > _tol(tol) * s[..., :1]).sum(axis=-1)


def reaches_mod_p(m: np.ndarray, target: int, ncols: int | None = None) -> bool:
    """Whether the first ncols columns (every column by default) of the
    exact integer matrix m have rank target modulo PRIME.  A minor
    nonzero mod PRIME is a nonzero integer, so this proves rank >= target
    over Q: a rank with the proven upper bound target is then target with
    no exact elimination, and first ncols columns that reach a proven
    bound on the rank of all of m span every column.  A target above the
    rows or those columns is never reached."""
    ncols = m.shape[1] if ncols is None else ncols
    return (target <= min(m.shape[0], ncols)
            and len(_bareiss(m.tolist(), ncols, False, PRIME)[1]) == target)


def rank(m: np.ndarray, tol: float | None = None):
    """Rank of a matrix or a vector; a 3-D stack gives one per matrix."""
    m = np.asarray(m)
    stack = m if m.ndim == 3 else m.reshape(1, 1, -1) if m.ndim < 2 else m[None]
    if stack.size == 0:
        ranks = [0] * len(stack)
    elif is_exact(stack):
        ncols = stack.shape[2]
        ranks = [len(_rref_exact(rows, ncols, reduce=False)[1])
                 for rows in map(np.ndarray.tolist, stack)]
    else:
        ranks = _svd_rank(np.linalg.svd(_finite(stack), compute_uv=False),
                          tol).tolist()
    return ranks if m.ndim == 3 else ranks[0]


def pivot_columns(m: np.ndarray) -> list[int]:
    """The pivot columns of the exact matrix m's echelon form (forward
    elimination, as rank)."""
    return _rref_exact(m.tolist(), m.shape[1], reduce=False)[1]


def spanned_columns(m: np.ndarray, ncols: int) -> list[bool]:
    """Whether each column of the exact matrix m after the first ncols lies
    in their span: forward elimination with pivots in those columns only,
    and a column is spanned when it is zero in every row below the rank."""
    rows, pivots = _rref_exact(m.tolist(), ncols, reduce=False)
    return [not any(row[j] for row in rows[len(pivots):]) for j in range(ncols, m.shape[1])]


def nullspace_rows(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Basis of the right nullspace, one vector per row.  Exact rows, one
    per free column fc: d e_fc - sum_i R_i[fc] e_(p_i) over the pivot
    rows R_i of _rref_exact (pivot column p_i, pivot d), made primitive
    and positive at fc, its last nonzero entry."""
    m = np.asarray(m)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    n = m.shape[1]
    if is_exact(m):
        red, pivots = _rref_exact(m.tolist(), n)
        d = red[0][pivots[0]] if pivots else 1
        basis = zeros((n - len(pivots), n))
        for row, fc in zip(basis, (c for c in range(n) if c not in pivots)):
            row[fc] = d
            row[pivots] = [-r[fc] for r in red[:len(pivots)]]
            row[:] = _primitive(row.tolist(), fc)
        return basis
    if m.size == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(_finite(m))
    return vh[_svd_rank(s, tol):].copy()


def over(num: np.ndarray, den) -> np.ndarray:
    """num / den, the edge where integer results become Fractions; a
    float array is divided as it is (den 1 returns it unchanged)."""
    if not is_exact(num):
        return num if den == 1 else num / den
    return np.array([Fraction(v, den) for v in num.ravel().tolist()],
                    dtype=object).reshape(num.shape)


def adjugate(m: np.ndarray, tol: float | None = None):
    """(a, d) with m^{-1} = a / d.  A float matrix gives (its inverse, 1).
    An exact one, cleared to M / k, gives integers a = k E and d, where
    Gauss-Jordan on [M | I] ends at [d I | E] (_bareiss), so E = d M^{-1}
    and d = +-det M."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"invert needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if not is_exact(m):
        if rank(m, tol) < n:
            raise SingularMatrixError("matrix is numerically singular")
        return np.linalg.inv(m.astype(float)), 1
    ints, k = cleared(m)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ints.tolist())]
    rows, pivots, d = _bareiss(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return np.array([[k * v for v in row[n:]] for row in rows], dtype=object), d


def invert(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    return over(*adjugate(m, tol))


def solve_parts(a: np.ndarray, b: np.ndarray, tol: float | None = None):
    """(x, d) with a @ (x / d) = b, or None when inconsistent.

    b may be a vector or a matrix of stacked right-hand sides; free
    variables are set to zero.  Exact x is integer and d the last pivot
    of Gauss-Jordan on [a | b] (_bareiss).  Float x is the least-squares
    solution and d = 1; the system is consistent when the residual is
    zero by is_zero, scaled by the largest entry of |a| @ |x| and of |b|.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    vector_rhs = b.ndim == 1
    brows = b.reshape(-1, 1) if vector_rhs else b
    if a.shape[0] != brows.shape[0]:
        raise ValueError("solve: row counts differ")
    ncols, nrhs = a.shape[1], brows.shape[1]
    if is_exact(a):
        aug = [ra + rb for ra, rb in zip(a.tolist(), brows.tolist())]
        rows, pivots, d = _bareiss(aug, ncols + nrhs)
        if any(pc >= ncols for pc in pivots):
            return None
        x = np.zeros((ncols, nrhs), dtype=object)
        for row, pc in zip(rows, pivots):
            x[pc] = row[ncols:]
        return (x[:, 0] if vector_rhs else x), d
    af, bf = _finite(a), _finite(brows)
    x, *_ = np.linalg.lstsq(af, bf, rcond=None)
    if not is_zero(af @ x - bf, tol, np.hstack([np.abs(af) @ np.abs(x), bf])):
        return None
    return (x[:, 0] if vector_rhs else x), 1


def solve(a: np.ndarray, b: np.ndarray, tol: float | None = None):
    """One solution of a @ x = b, or None when inconsistent (solve_parts)."""
    parts = solve_parts(a, b, tol)
    return None if parts is None else over(*parts)


def sym_outer_system(vec: np.ndarray, target: np.ndarray):
    """(rows, rhs) of the linear system Sym(y vec^T) = Sym(target) in the
    unknown y, one equation per entry (a, b) with a <= b in row-major
    order.  Exact off-diagonal equations are doubled, so integer vec and
    target give integer rows."""
    n = len(vec)
    half = 1 if is_exact(vec) else 0.5
    rows = []
    rhs = []
    for a in range(n):
        for b in range(a, n):
            coeff = [0] * n
            if a == b:
                coeff[a] = vec[a]
                rhs.append(target[a, a])
            else:
                coeff[a] = vec[b] * half
                coeff[b] = vec[a] * half
                rhs.append((target[a, b] + target[b, a]) * half)
            rows.append(coeff)
    return rows, rhs


def sherman_morrison_inverse(q: np.ndarray, x: np.ndarray,
                             tol: float | None = None) -> np.ndarray:
    """Inverse of (1 x^T - q^T) computed from q^{-1} by a rank-one update.

    1 is the all-ones column.  Requires q invertible and x off the affine
    span of the columns of q (the update denominator 1 - (q^{-1}x)^T 1
    must not vanish).  Fraction-free: with q^{-1} = A/delta (adjugate),
    x = X/xi and D = delta xi - 1^T A X, the inverse is
    -A^T (D I + 1 (A X)^T) / (delta D), one over; on float64 delta and
    xi are 1.
    """
    q = np.asarray(q)
    x = np.asarray(x)
    n = q.shape[0]
    if q.ndim != 2 or q.shape[1] != n:
        raise ValueError("sherman_morrison_inverse needs a square q")
    if x.shape != (n,):
        raise ValueError("x must be a vector matching q")
    adj, det = adjugate(q, tol)
    x_int, xi = cleared(x)
    ax = adj @ x_int
    d = det * xi - ax.sum()
    if is_zero(d, tol, ax):
        raise OnAffineSpanError("x lies on the affine span of the columns of q")
    update = np.tile(ax, (n, 1))  # 1 (A X)^T, then D I added
    update[range(n), range(n)] += d
    return over(-(adj.T @ update), det * d)


class Subspace:
    """A linear subspace of R^n stored as a reduced row basis.

    Exact bases are primitive integer rows in reduced echelon form, pivots
    positive, so equal subspaces have identical basis arrays; float bases
    are orthonormal rows.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis)
        if basis.size == 0:
            basis = basis.reshape(0, ambient_dim)
        if basis.ndim != 2 or basis.shape[1] != ambient_dim:
            raise ValueError("basis shape does not match ambient dimension")
        self.ambient_dim = int(ambient_dim)
        self.basis = basis

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int | None = None,
                      tol: float | None = None) -> "Subspace":
        rows = [np.asarray(v).reshape(-1) for v in vectors]
        if not rows:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty spanning set")
            return cls(ambient_dim, zeros((0, ambient_dim)))
        n = rows[0].size
        if ambient_dim is not None and ambient_dim != n:
            raise ValueError("spanning vectors do not match ambient_dim")
        if any(is_exact(r) for r in rows):
            red, pivots = _rref_exact([r.tolist() for r in rows], n)
            return cls(n, array([_primitive(row, pc) for row, pc in zip(red, pivots)]))
        _, s, vh = np.linalg.svd(_finite(np.vstack(rows)))
        return cls(n, vh[:_svd_rank(s, tol)].copy())

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def exact(self) -> bool:
        return is_exact(self.basis)

    def contains(self, v: np.ndarray, tol: float | None = None) -> bool:
        v = np.asarray(v).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector does not match ambient dimension")
        if self.dim == 0:
            return is_zero(v, tol)
        stacked = np.vstack([self.basis, v.reshape(1, -1)])
        return rank(stacked, tol) == self.dim

    def contains_subspace(self, other: "Subspace", tol: float | None = None) -> bool:
        self._check_peer(other)
        if other.dim == 0:
            return True
        stacked = np.vstack([self.basis, other.basis])
        return rank(stacked, tol) == self.dim

    def intersection(self, other: "Subspace", tol: float | None = None) -> "Subspace":
        self._check_peer(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient_dim, zeros((0, self.ambient_dim), self.exact))
        m = np.hstack([self.basis.T, -other.basis.T])
        null = nullspace_rows(m, tol)
        vecs = [coeffs[: self.dim] @ self.basis for coeffs in null]
        return Subspace.from_spanning(vecs, self.ambient_dim, tol) if vecs else \
            Subspace(self.ambient_dim, zeros((0, self.ambient_dim), self.exact))

    def join(self, other: "Subspace", tol: float | None = None) -> "Subspace":
        self._check_peer(other)
        return Subspace.from_spanning(
            list(self.basis) + list(other.basis), self.ambient_dim, tol)

    def equals(self, other: "Subspace", tol: float | None = None) -> bool:
        return (self.ambient_dim == other.ambient_dim and self.dim == other.dim
                and self.contains_subspace(other, tol))

    def _check_peer(self, other: "Subspace") -> None:
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
