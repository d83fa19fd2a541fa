"""Point configurations and spaces of infinitesimal motions.

A configuration is an n x k matrix whose column i is the position of
point i, cleared once into Python ints over one denominator: the only
form exact code reads (strains, whose matrix on the unit motions is the
rigidity matrix, affine ranks and the one linear-motion solve).  A
motion assigns a velocity column to each point, stored the same way, and
flattens column-major to length n*k (velocity of point 1 first).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .linalg import Subspace, is_exact, is_zero


class PointConfiguration:
    """Positions of k labelled points in R^n (points are 1-based): a
    read-only copy of the matrix given, cleared once here into Python ints
    over one denominator, points == ints / den (float: ints = points)."""

    __slots__ = ("points", "ints", "den")

    def __init__(self, points: np.ndarray):
        points = np.array(points)
        if points.ndim != 2:
            raise ValueError("points must be an n x k matrix")
        self.ints, self.den = linalg.cleared(points)
        points.flags.writeable = self.ints.flags.writeable = False
        self.points = points

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[1]

    @property
    def exact(self) -> bool:
        return is_exact(self.points)

    def point(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.count:
            raise ValueError(f"point index {i} out of range 1..{self.count}")
        return self.points[:, i - 1]

    def affine_rank(self) -> int:
        """Dimension of the affine span: the rank of the columns p_i - p_1
        (0 for a single point), on the cleared points."""
        return linalg.rank((self.ints[:, 1:] - self.ints[:, :1]).T)

    def is_general_position(self) -> bool:
        """True when every subset of at most dim+1 points is affinely independent."""
        size = min(self.dim + 1, self.count)
        return all(linalg.rank((self.ints[:, s[1:]] - self.ints[:, s[:1]]).T) == size - 1
                   for s in map(list, combinations(range(self.count), size)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointConfiguration)
                and self.points.shape == other.points.shape
                and bool((self.points == other.points).all()))

    def __repr__(self) -> str:
        return f"PointConfiguration(dim={self.dim}, count={self.count})"


def take_points(mat: np.ndarray, ids) -> np.ndarray:
    """Columns of a configuration/motion matrix for the given 1-based points."""
    mat = np.asarray(mat)
    cols = []
    for i in ids:
        if not 1 <= i <= mat.shape[1]:
            raise ValueError(f"point index {i} out of range 1..{mat.shape[1]}")
        cols.append(i - 1)
    return mat[:, cols]


def flatten_motion(u: np.ndarray) -> np.ndarray:
    return np.asarray(u).flatten(order="F")


def unflatten_motion(vec: np.ndarray, dim: int, count: int) -> np.ndarray:
    vec = np.asarray(vec).reshape(-1)
    if vec.size != dim * count:
        raise ValueError("flattened motion has the wrong length")
    return vec.reshape((dim, count), order="F")


def skew_basis(n: int, exact: bool = True) -> list[np.ndarray]:
    """Standard basis E_ij - E_ji (i < j) of the skew-symmetric n x n
    matrices: integer entries, Python ints when exact."""
    return [linalg.array([[((a, b) == (i, j)) - ((a, b) == (j, i)) for b in range(n)]
                          for a in range(n)], exact)
            for i, j in combinations(range(n), 2)]


def pair_indices(pairs) -> tuple[np.ndarray, np.ndarray]:
    """0-based index arrays (i, j) of an iterable of 1-based pairs."""
    return np.array([(a - 1, b - 1) for a, b in pairs], dtype=int).reshape(-1, 2).T


def strains(p: PointConfiguration, motions, pairs) -> np.ndarray:
    """(u_a - u_b) . (p_a - p_b): one row per flattened motion u, one column
    per 1-based pair (a, b); the rigidity matrix is this map on the edges.
    Exact motions are kept as given, so Python ints stay unbounded; the
    sums are taken on p's cleared points and divided by their denominator."""
    i, j = pair_indices(pairs)
    u = linalg.array(motions, p.exact).reshape(-1, p.count, p.dim)
    pts = p.ints.T
    out = ((u[:, i] - u[:, j]) * (pts[i] - pts[j])).sum(axis=2)
    return out if p.den == 1 else out * Fraction(1, p.den)


def _preserves_distances(p: PointConfiguration, motions, ids) -> bool:
    """True when each flattened motion has zero strain on every pair of the
    1-based points ids; a float strain is scaled by (|u_a| + |u_b|)
    (|p_a| + |p_b|), the operands its differences round against."""
    pairs = list(combinations(ids, 2))
    u = linalg.array(motions, p.exact)
    values = strains(p, u, pairs)
    if p.exact:
        return is_zero(values)
    i, j = pair_indices(pairs)
    u, pts = u.reshape(-1, p.count, p.dim), p.points.T
    unorm, pnorm = np.linalg.norm(u, axis=2), np.linalg.norm(pts, axis=1)
    scale = (unorm[:, i] + unorm[:, j]) * (pnorm[i] + pnorm[j])
    return bool(linalg.zero_rows(values.reshape(-1, 1), scale.reshape(-1, 1)).all())


def is_infinitesimal_isometry(p: PointConfiguration, u: np.ndarray) -> bool:
    """True when u preserves every pairwise distance to first order."""
    u = np.asarray(u)
    if u.shape != p.points.shape:
        raise ValueError("motion shape does not match configuration")
    return _preserves_distances(p, [flatten_motion(u)], range(1, p.count + 1))


class MotionSpace:
    """A linear space of motions of one fixed configuration."""

    __slots__ = ("config", "subspace")

    def __init__(self, config: PointConfiguration, subspace: Subspace):
        if subspace.ambient_dim != config.dim * config.count:
            raise ValueError("subspace ambient dimension is not dim*count")
        self.config = config
        self.subspace = subspace

    @classmethod
    def from_motions(cls, config: PointConfiguration, motions) -> "MotionSpace":
        vecs = [flatten_motion(u) for u in motions]
        sub = Subspace.from_spanning(vecs, config.dim * config.count)
        return cls(config, sub)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis_motions(self) -> list[np.ndarray]:
        return [unflatten_motion(v, self.config.dim, self.config.count)
                for v in self.subspace.basis]

    def __repr__(self) -> str:
        return f"MotionSpace(dim={self.dim}, points={self.config.count})"


def trivial_motions(p: PointConfiguration) -> list[np.ndarray]:
    """Generators of the motions induced by translations and
    infinitesimal rotations: the n constant fields e_j 1^T, then the
    fields a (x - p_1) for a in skew_basis(n), on the cleared points.

    A rotation about p_1 differs from one about the origin by a
    translation, so the span is the same, and the translations scaled by
    max|p_i - p_1| keep float generators balanced at any scale and offset.
    """
    rel = p.ints - p.ints[:, :1]
    unit = np.abs(rel).max(initial=0) or 1
    gens = [linalg.array([[unit * (a == b)] * p.count for a in range(p.dim)], p.exact)
            for b in range(p.dim)]
    return gens + [a @ rel for a in skew_basis(p.dim, p.exact)]


def trivial_motion_space(p: PointConfiguration) -> MotionSpace:
    """The span of trivial_motions(p); its dimension is n(n+1)/2
    whenever the affine span of the points has dimension at least n-1."""
    return MotionSpace.from_motions(p, trivial_motions(p))


def _linear_parts(p: PointConfiguration, u: np.ndarray, affine: bool):
    """(x, d) = linalg.solve_parts([ints^T | 1], u^T), the ones only when
    affine, or None: u = m p (+ b 1^T) with m = den x[:dim]^T / d and
    b = x[dim] / d; scaling unknowns by den moves no pivot."""
    u = np.asarray(u)
    if u.shape != p.points.shape:
        raise ValueError("motion shape does not match configuration")
    lhs = p.ints.T
    if affine:
        lhs = np.hstack([lhs, linalg.array([[1]] * p.count, p.exact)])
    return linalg.solve_parts(lhs, u.T)


def linear_motion_matrix(p: PointConfiguration, u: np.ndarray):
    """Matrix m with u = m @ points, or None when no such m exists."""
    parts = _linear_parts(p, u, False)
    return None if parts is None else linalg.over(p.den * parts[0].T, parts[1])


def affine_motion_parts(p: PointConfiguration, u: np.ndarray):
    """Pair (m, b) with u_i = m p_i + b for every point, or None."""
    parts = _linear_parts(p, u, True)
    if parts is None:
        return None
    x, d = parts
    return linalg.over(p.den * x[: p.dim].T, d), linalg.over(x[p.dim], d)


def _ranks_mod_trivial(p: PointConfiguration, motions,
                       blocks=(slice(None),)) -> list[int]:
    """dim(span S + T) - dim T for each row block S = motions[b] of the
    flattened motions, T the trivial motions of p.  At affine rank
    min(k-1, n) K_k is infinitesimally rigid at p (Asimow-Roth), so T is
    the kernel of the strains on all pairs, and an exact S is ranked by
    its rows of the strains, taken once.  Else the answer
    is rank [T basis; S] - dim T, T built once."""
    motions = linalg.array(motions, p.exact)
    if p.exact and p.affine_rank() == min(p.count - 1, p.dim):
        pairs = list(combinations(range(1, p.count + 1), 2))
        rows = strains(p, motions, pairs)
        return [linalg.rank(rows[b]) for b in blocks]
    triv = trivial_motion_space(p).subspace
    return [linalg.rank(np.vstack([triv.basis, motions[b]])) - triv.dim
            for b in blocks]


def p_equivalent(s1: MotionSpace, s2: MotionSpace) -> bool:
    """True when s1 and s2 have equal images modulo the trivial motions."""
    if s1.config != s2.config:
        raise ValueError("motion spaces live on different configurations")
    return s1.dim == s2.dim and same_mod_trivial(
        s1.config, s1.subspace.basis, s2.subspace.basis)


def same_mod_trivial(p: PointConfiguration, b1, b2) -> bool:
    """True when two sets of flattened motions of p span equal images
    modulo the trivial motions."""
    k = len(b1)
    r1, r2, r12 = _ranks_mod_trivial(p, np.vstack([b1, b2]),
                                     (slice(k), slice(k, None), slice(None)))
    return r1 == r2 == r12


def restricts_to_isometry(p: PointConfiguration, s: MotionSpace, subset) -> bool:
    """True when every motion in s preserves distances within the subset:
    each basis motion in turn, up to the first that strains a pair."""
    ids = sorted(set(subset))
    for i in ids:
        if not 1 <= i <= p.count:
            raise ValueError(f"point index {i} out of range 1..{p.count}")
    if s.config != p:
        raise ValueError("motion space does not belong to this configuration")
    return all(_preserves_distances(p, [u], ids) for u in s.subspace.basis)
