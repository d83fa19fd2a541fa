"""Admissible motion subspaces of five points in R^3.

A subspace S of motions is admissible for p when it meets the trivial
motions only in zero and, for almost every pin position x, some nonzero
motion in S extends to a flex of the framework obtained by joining a new
vertex at x to all five points.  The extension through the block
(p1,p4,p5) and the one through (p1,p2,p3) must then agree, so
admissibility is a rank-deficiency condition on the mismatch of the two
pin velocities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .errors import (DegenerateConfigError, HypothesisViolatedError,
                     ParallelSpanError, SingularMatrixError)
from .linalg import (Subspace, exact_matrix, frac, is_zero, ones_vector,
                     sym_outer_system)
from .motions import (MotionSpace, PointConfiguration, _linear_parts,
                      _ranks_mod_trivial, flatten_motion, p_equivalent,
                      same_mod_trivial, take_points)
from .pins import PinContext, integer_block, pin_stack, pin_velocity, scale_factor
from .sampling import (DEFAULT_BOUND, random_float_vector, random_int_vector,
                       subrng)

# The two pin blocks of a five-point configuration share point 1: one
# keeps points (1,4,5), the other points (1,2,3).  Motions split the same
# way.
BLOCK_145 = (1, 4, 5)
BLOCK_123 = (1, 2, 3)


def _require_five_points(p: PointConfiguration, s: MotionSpace | None = None) -> None:
    """p is five points in R^3, and s (when given) a motion space of p."""
    if p.dim != 3 or p.count != 5:
        raise ValueError(f"need 5 points in R^3, got {p.dim} x {p.count}")
    if s is not None and s.config != p:
        raise ValueError("motion space does not belong to this configuration")


def split_blocks(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(columns 1,4,5; columns 1,2,3) of a 5-column matrix."""
    return take_points(mat, BLOCK_145), take_points(mat, BLOCK_123)


def _pin_blocks(p: PointConfiguration, tol: float | None,
                error: type = DegenerateConfigError,
                blocks=(BLOCK_145, BLOCK_123)) -> tuple[PinContext, ...]:
    """One PinContext per block of p, zero velocities, from p's cleared
    points; a block singular at tol raises error("pin block is singular")."""
    zero = linalg.array([[0] * p.dim] * p.dim, p.exact)
    try:
        return tuple(PinContext(take_points(p.points, ids), zero,
                                integer_block(take_points(p.ints, ids), p.den, tol))
                     for ids in blocks)
    except SingularMatrixError as exc:
        raise error(f"pin block is singular: {exc}") from exc


def pin_mismatch_map(p: PointConfiguration, s: MotionSpace, x: np.ndarray,
                     tol: float | None = None) -> np.ndarray:
    """3 x dim(s) matrix whose column for basis motion u is the difference
    of the two pin velocities of u at x.  A nonzero kernel vector is a
    motion that extends to a flex of the cone at x."""
    _require_five_points(p, s)
    side_q, side_r = _pin_blocks(p, tol)
    cols = [pin_velocity(side_q.with_motion(v), x, tol)
            - pin_velocity(side_r.with_motion(w), x, tol)
            for v, w in map(split_blocks, s.basis_motions())]
    return linalg.array(cols, p.exact).T


def _mismatch_sampler(p: PointConfiguration, motions, tol: float | None,
                      blocks=(BLOCK_145, BLOCK_123)):
    """Set up once for motions of p pinned on two blocks of p.dim points,
    each inverted once (_pin_blocks): k cleared positions X = x xi, one
    per row, give (usable rows, the stack sigma_r N_q - sigma_q N_r,
    sigma_q sigma_r as a k x 1 x 1 stack) by pins.pin_stack at s = 1,
    on the cleared motions."""
    motions = [linalg.cleared(u)[0] for u in motions]
    sides = [(side, np.stack([take_points(u, ids).T for u in motions]))
             for side, ids in zip(_pin_blocks(p, tol, blocks=blocks), blocks)]

    def mismatch(x_int: np.ndarray, xi: np.ndarray) -> tuple:
        (ok_q, n_q, sigma_q), (ok_r, n_r, sigma_r) = (
            pin_stack(side, vt, x_int, xi, tol=tol) for side, vt in sides)
        sigma_q, sigma_r = sigma_q[:, None, None], sigma_r[:, None, None]
        return ok_q & ok_r, sigma_r * n_q - sigma_q * n_r, sigma_q * sigma_r
    return mismatch


@dataclass
class AdmissibilityReport:
    candidate_dim: int
    intersects_trivial: bool
    samples_tested: int
    max_mismatch_rank: int
    admissible: bool
    sample_ranks: list = field(default_factory=list)
    witness_failures: list = field(default_factory=list)


def _pin_samples(p: PointConfiguration, samples: int, seed: int, tag: str,
                 evaluate) -> tuple:
    """(positions, *stacks) at the first `samples` usable positions in draw
    order, position idx drawn in R^p.dim from the (seed, tag, idx) stream,
    as Python ints when exact (random_int_vector: the draws of
    random_exact_vector) and float64 at DEFAULT_BOUND; evaluate maps
    cleared positions (X, xi) to (usable mask, *stacks).  The first
    `samples` draws go to one call, each further call draws as many as
    were skipped; after 10*samples draws, DegenerateConfigError."""
    if samples < 1:
        raise ValueError("samples must be positive")
    kept, parts, drawn = [], [], 0
    while len(kept) < samples:
        want = min(samples - len(kept), 10 * samples - drawn)
        if want == 0:
            raise DegenerateConfigError("could not collect enough valid pin samples")
        rngs = [subrng(seed, tag, idx) for idx in range(drawn, drawn + want)]
        xs = [random_int_vector(p.dim, rng) if p.exact
              else random_float_vector(p.dim, rng, float(DEFAULT_BOUND)) for rng in rngs]
        drawn += want
        cols = [linalg.cleared(x) for x in xs]
        usable, *stacks = evaluate(linalg.array([ints for ints, _ in cols], p.exact),
                                   linalg.array([d for _, d in cols], p.exact))
        kept += [x for x, ok in zip(xs, usable) if ok]
        parts.append([stack[usable] for stack in stacks])
    return kept, *(np.concatenate(col) for col in zip(*parts))


def check_admissibility(p: PointConfiguration, s: MotionSpace,
                        samples: int = 20, seed: int = 0,
                        tol: float | None = None) -> AdmissibilityReport:
    """Sampled admissibility test for a motion subspace of five points.

    Condition 1 (trivial intersection) is decided outright; condition 2
    is accepted when the mismatch map is rank-deficient at every valid
    sample position, taken on sigma_r N_q - sigma_q N_r with both blocks
    inverted once: per side, pins.pin_stack at s = 1 on the cleared
    motions u = U/lambda_u, so the pin velocity of u is
    N[:, u]/(sigma lambda_u).  A zero D (by the zero rule against a)
    skips the sample uncounted.  All samples of a query are evaluated
    as one stack (_pin_samples) and ranked by one linalg.rank call.
    Witness positions are returned as Fractions when exact.
    """
    _require_five_points(p, s)
    if s.dim < 1:
        raise ValueError("candidate subspace must have positive dimension")
    intersects = _ranks_mod_trivial(p, s.subspace.basis, tol)[0] < s.dim
    xs, m, _ = _pin_samples(p, samples, seed, "pin-sample",
                            _mismatch_sampler(p, s.basis_motions(), tol))
    ranks = linalg.rank(m, tol)
    failures = [exact_matrix(x) if p.exact else x
                for x, rk in zip(xs, ranks) if rk >= s.dim]
    return AdmissibilityReport(
        candidate_dim=s.dim,
        intersects_trivial=intersects,
        samples_tested=len(ranks),
        max_mismatch_rank=max(ranks),
        admissible=(not intersects) and not failures,
        sample_ranks=ranks,
        witness_failures=failures,
    )


def single_vertex_space(p: PointConfiguration) -> MotionSpace:
    """Motions moving point 1 in the span of e1, e2 and fixing the rest."""
    _require_five_points(p)
    basis = []
    eye = linalg.identity(3, p.exact)
    for axis in (0, 1):
        u = linalg.zeros((3, 5), p.exact)
        u[:, 0] = eye[axis]
        basis.append(u)
    return MotionSpace.from_motions(p, basis)


def proportional_pair_space(p: PointConfiguration, k) -> MotionSpace:
    """Motions with point 2's velocity k times point 1's, both orthogonal
    to the chord p1 - p2, and points 3,4,5 fixed."""
    _require_five_points(p)
    chord = p.ints[:, 0] - p.ints[:, 1]
    if is_zero(chord):
        raise DegenerateConfigError("points 1 and 2 coincide")
    scale = frac(k) if p.exact else float(k)
    plane = linalg.nullspace_rows(chord.reshape(1, 3))
    basis = []
    for direction in plane:
        u = linalg.zeros((3, 5), p.exact)
        u[:, 0] = direction
        u[:, 1] = direction * scale
        basis.append(u)
    return MotionSpace.from_motions(p, basis)


def _stress_gap(sides: tuple[PinContext, PinContext], u: np.ndarray) -> np.ndarray:
    """(q^T)^{-1} diag(v^T q) - (r^T)^{-1} diag(w^T r) for one motion u of
    the two blocks, times delta_q delta_r kappa lambda_u (u = U/lambda_u):
    integers when exact, the gap itself on float64."""
    side_q, side_r = sides
    v, w = split_blocks(linalg.cleared(np.asarray(u))[0])
    left = side_q.adj.T @ (v * side_q.ints).sum(axis=0)
    right = side_r.adj.T @ (w * side_r.ints).sum(axis=0)
    return side_r.det * left - side_q.det * right


def sufficient_check(p: PointConfiguration, s: MotionSpace,
                     tol: float | None = None) -> bool:
    """Sufficient (not necessary) admissibility test: trivial intersection
    zero, every motion linear, and the stress gap vanishing on s."""
    _require_five_points(p, s)
    if _ranks_mod_trivial(p, s.subspace.basis, tol)[0] < s.dim:
        return False
    sides = _pin_blocks(p, tol)
    return all(_linear_parts(p, u, False, tol) is not None
               and is_zero(_stress_gap(sides, u), tol, u) for u in s.basis_motions())


def stress_matched_linear_space(p: PointConfiguration,
                                tol: float | None = None) -> MotionSpace:
    """Linear motions u = m p whose stress gap vanishes.

    The gap is a linear map on the nine-dimensional space of linear
    motions with rank at most two (its first block component cancels), so
    the result has dimension at least seven and meets the trivial motions
    in the three-dimensional space of skew linear motions.
    """
    _require_five_points(p)
    sides = _pin_blocks(p, tol)
    gens = []
    gaps = []
    for a in range(3):
        for b in range(3):
            u = linalg.array([[0] * 5] * 3, p.exact)
            u[a] = p.ints[b]
            gens.append(u)
            gaps.append(_stress_gap(sides, u))
    kernel = linalg.nullspace_rows(linalg.array(gaps, p.exact).T, tol)
    motions = [sum(gen * c for c, gen in zip(coeffs, gens)) for coeffs in kernel]
    return MotionSpace.from_motions(p, motions, tol)


def construct_admissible_family(p: PointConfiguration, trials: int = 20,
                                seed: int = 0,
                                tol: float | None = None) -> list[MotionSpace]:
    """Sample 2-dimensional admissible subspaces of the stress-matched
    linear motions that meet the trivial motions only in zero: integer
    combinations of the rows of its basis.
    """
    _require_five_points(p)
    basis = stress_matched_linear_space(p, tol).subspace.basis
    out: list[MotionSpace] = []
    for attempt in range(100 * trials):
        if len(out) == trials:
            break
        rng = subrng(seed, "family", attempt)
        coeffs = linalg.array([[rng.randint(-9, 9) for _ in basis]
                               for _ in range(2)], p.exact)
        vecs = [sum(c * b for c, b in zip(row, basis)) for row in coeffs]
        if _ranks_mod_trivial(p, vecs, tol)[0] != 2:
            continue
        out.append(MotionSpace(p, Subspace.from_spanning(vecs, tol=tol)))
    if len(out) < trials:
        raise DegenerateConfigError("failed to sample enough admissible subspaces")
    return out


def projected_limit_mismatch(p: PointConfiguration, u: np.ndarray,
                             x: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Difference of the two limit velocities of u at direction x,
    projected onto the plane orthogonal to p1 along (q^T)^{-1} 1.

    Closed form: B^T x - c * (x^T B_w x) / s with B = w r^{-1} - v q^{-1},
    B_w = (w r^{-1})^T, c the gap of the two inverse-transpose row sums,
    and s = (r^{-1} x)^T 1.
    """
    _require_five_points(p)
    u = np.asarray(u)
    if u.shape != (3, 5):
        raise ValueError("motion must be 3 x 5")
    side_q, side_r = _pin_blocks(p, tol)
    q_inv, r_inv = (linalg.over(side.adj, side.det) for side in (side_q, side_r))
    v, w = split_blocks(u)
    ones = ones_vector(3, p.exact)
    c = r_inv.T @ ones - q_inv.T @ ones
    w_r = w @ r_inv
    bmat = (w_r - v @ q_inv).T
    s = scale_factor(side_r, x)
    if is_zero(s, tol):
        raise ParallelSpanError("x is parallel to the affine span of the r block")
    quad = x @ (w_r.T @ x)
    return bmat @ x - c * (quad / s)


def one_dim_space_inadmissible(p: PointConfiguration, u: np.ndarray,
                               samples: int = 20, seed: int = 0,
                               tol: float | None = None) -> bool:
    """Confirm that the line spanned by a nontrivial motion u of n+1
    points in R^n is inadmissible: the two pin extensions disagree at
    every sampled position.

    The pin blocks here drop point n (respectively point n+1).  Returns
    False when any of the stacked samples is zero (the line extends
    there); trivial u is rejected.
    """
    n = p.dim
    if p.count != n + 1:
        raise ValueError(f"need {n + 1} points in R^{n}, got {p.count}")
    u = np.asarray(u)
    if u.shape != p.points.shape:
        raise ValueError("motion shape does not match configuration")
    if _ranks_mod_trivial(p, [flatten_motion(u)], tol)[0] == 0:
        raise ValueError("u is a trivial motion; the test needs a nontrivial one")
    ids_q = tuple(list(range(1, n)) + [n + 1])
    ids_r = tuple(range(1, n + 1))
    # Each sample is sigma_q sigma_r lambda_u times the velocity gap; float64
    # (lambda_u = 1) tests the gap itself against tol.
    _, m, scale = _pin_samples(p, samples, seed, "one-dim",
                               _mismatch_sampler(p, [u], tol, (ids_q, ids_r)))
    gaps = m if p.exact else m / scale
    return not linalg.zero_rows(gaps.reshape(len(m), -1), tol).any()


class ClassificationKind(Enum):
    ALL_AFFINE = "all-affine"
    RANK_ONE_FORM = "rank-one-form"
    ANOMALY = "anomaly"


@dataclass
class Classification:
    kind: ClassificationKind
    plane: Subspace | None
    weights: np.ndarray | None
    details: str

    @property
    def is_anomaly(self) -> bool:
        return self.kind is ClassificationKind.ANOMALY


def _normalize_weights(z: np.ndarray) -> tuple:
    """Canonical representative of integer z modulo all-ones shifts and
    scaling, as (shifted, lead): z less its most frequent entry, and the
    first nonzero entry of that (1 when there is none).

    Shifting z by a multiple of the all-ones vector only changes the
    reconstruction by translations, so the most frequent entry is zeroed
    out and the first nonzero entry scaled to one: shifted / lead.
    """
    values = z.tolist()
    best = max(values, key=lambda v: (values.count(v), -values.index(v)))
    shifted = linalg.array([v - best for v in values])
    return shifted, next((v for v in shifted if v), 1)


def classify_admissible(p: PointConfiguration, s: MotionSpace,
                        tol: float | None = None) -> Classification:
    """Normal form of an admissible 2-dimensional subspace.

    Either every motion in s is affine, or s is p-equivalent to a space
    {outer(direction, weights) : direction in plane} for a 2-dimensional
    plane in R^3 and a per-point weight vector.  Any failure of the
    reconstruction is reported loudly as an anomaly, never silently.
    Requires both pin blocks invertible and their inverse-transpose row
    sums distinct.

    Exact inputs are computed on integers: the cleared points p = P/kappa,
    the basis motions u (integer rows), q^{-1} = A_q/dq and
    r^{-1} = A_r/dr (_pin_blocks), and each solve's numerators over its
    last pivot (linalg.solve_parts).  Every quantity is an integer array
    over one denominator, named where it is formed; only the returned
    weights are Fractions.  On float64 every denominator is 1 and the
    formulas are the float arithmetic as it stands.
    """
    _require_five_points(p, s)
    if s.dim != 2:
        raise ValueError("classification expects a 2-dimensional subspace")
    exact = p.exact
    side_q, side_r = _pin_blocks(p, tol, HypothesisViolatedError)
    q, a_q, dq = side_q.ints, side_q.adj, side_q.det
    r, a_r, dr = side_r.ints, side_r.adj, side_r.det
    ones = linalg.array([1] * 3, exact)
    # The gap of the inverse-transpose row sums: c / (dq dr).
    c = dq * (a_r.T @ ones) - dr * (a_q.T @ ones)
    if is_zero(c, tol):
        raise HypothesisViolatedError(
            "the two pin blocks have equal inverse-transpose row sums "
            "(coplanar configuration)")

    motions = s.basis_motions()
    if all(_linear_parts(p, u, True, tol) is not None for u in motions):
        return Classification(ClassificationKind.ALL_AFFINE, None, None,
                              "every motion in the subspace is affine")

    # p1 x c: d / (kappa dq dr).
    q1 = q[:, 0]
    d = linalg.array([q1[1] * c[2] - q1[2] * c[1], q1[2] * c[0] - q1[0] * c[2],
                      q1[0] * c[1] - q1[1] * c[0]], exact)
    if is_zero(d, tol):
        raise HypothesisViolatedError("first point is zero or aligned with the "
                                      "row-sum gap; translate the configuration")
    cd = linalg.array([c, d], exact).T

    k_vecs = []
    targets = []
    for u in motions:
        v, w = split_blocks(u)
        # [c d] Y = (dq w A_r - dr v A_q)^T on integers, Y = y / eta.  In
        # rationals the mismatch (w r^{-1} - v q^{-1})^T is then
        # c (-shift)^T + d k^T with shift = -y[0] / eta and k = kappa y[1] / eta.
        parts = linalg.solve_parts(cd, (dq * (w @ a_r) - dr * (v @ a_q)).T, tol)
        if parts is None:
            return Classification(
                ClassificationKind.ANOMALY, None, None,
                "mismatch columns leave the plane orthogonal to p1")
        y, eta = parts
        k_vecs.append(y[1])
        # ((w + shift 1^T) r^{-1})^T, times eta dr.
        targets.append(((eta * w - np.outer(y[0], ones)) @ a_r).T)

    plane = Subspace.from_spanning(k_vecs, 3, tol)
    if plane.dim != 2:
        return Classification(
            ClassificationKind.ANOMALY, None, None,
            "direction vectors of the rank-one normal form are dependent")

    rows: list[list] = []
    rhs: list = []
    for k_vec, target in zip(k_vecs, targets):
        k_rows, k_rhs = sym_outer_system(k_vec, target)
        rows += k_rows
        rhs += k_rhs
    # The common linear part l is lvec / (ell kappa dr).
    parts = linalg.solve_parts(linalg.array(rows, exact), linalg.array(rhs, exact), tol)
    if parts is None:
        return Classification(
            ClassificationKind.ANOMALY, None, None,
            "no common linear part solves the symmetric-part equations")
    lvec, ell = parts

    # r^T l and q^T (l - d), both over kappa^2 ell dq dr.
    front = dq * (r.T @ lvec)
    rear = q.T @ (dq * lvec - ell * d)
    weights = linalg.array([*front, *rear[1:]], exact)
    if not is_zero(front[0] - rear[0], tol, np.array([front[0], rear[0]])):
        return Classification(
            ClassificationKind.ANOMALY, None, None,
            "weight consistency across the shared point failed")

    if exact:
        shifted, lead = _normalize_weights(weights)
        weights = linalg.over(shifted, lead)
        recon = [flatten_motion(np.outer(k_vec, shifted)) for k_vec in k_vecs]
        equivalent = (linalg.rank(linalg.array(recon)) == 2
                      and same_mod_trivial(p, s.subspace.basis, recon, tol))
    else:
        recon = MotionSpace.from_motions(
            p, [np.outer(direction, weights) for direction in plane.basis], tol)
        equivalent = recon.dim == 2 and p_equivalent(s, recon, tol)
    if not equivalent:
        return Classification(
            ClassificationKind.ANOMALY, plane, weights,
            "reconstructed rank-one space is not p-equivalent to the input")
    return Classification(
        ClassificationKind.RANK_ONE_FORM, plane, weights,
        "p-equivalent to directions drawn from a fixed plane scaled by "
        "per-point weights")
