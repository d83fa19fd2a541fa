"""Verification battery: twelve named checks over the whole library.

Each check draws its own randomness from (seed, tag, index) substreams,
so results depend only on the seed and the sample counts.  The battery
is what `rigidlab verify` runs and what the acceptance tests assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .admissibility import (check_admissibility, classify_admissible,
                            construct_admissible_family,
                            one_dim_space_inadmissible,
                            proportional_pair_space, single_vertex_space,
                            stress_matched_linear_space, sufficient_check)
from .affinepoly import PolyDependence, affine_poly_dependence
from .applications import (ExtensionTable, conic_probe_graphs,
                           edge_conic_space, skew_matrix_space)
from .errors import OnAffineSpanError, ParallelSpanError, SingularMatrixError
from .linalg import cleared, invert, ones_vector, sherman_morrison_inverse
from .motions import (MotionSpace, PointConfiguration, is_infinitesimal_isometry,
                      p_equivalent, restricts_to_isometry, trivial_motion_space)
from .pins import PinContext, limit_velocity, pin_stack, pin_velocity
from .rigidity import (Framework, Graph, analyze, double_banana,
                       generic_samples, is_implied_edge)
from .sampling import (random_config, random_exact_matrix, random_float_matrix,
                       random_float_vector, random_general_config,
                       random_rational_matrix, subrng)

# Keeps the rationals short in the pin-formula checks; genericity is not
# at stake there.
SMALL_BOUND = 1000


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def record(self) -> dict:
        """Timing-free dict for structured output (byte-stable per seed)."""
        return {"check": self.name, "details": self.details,
                "passed": self.passed}


def _count(samples: int | None, default: int) -> int:
    if samples is None:
        return default
    if samples < 1:
        raise ValueError("samples must be positive")
    return samples


def _general_config(seed: int, tag: str, idx: int,
                    count: int = 5) -> PointConfiguration:
    return random_general_config(3, count, seed, f"{tag}/{idx}", bound=SMALL_BOUND)


def _pin_instance(seed: int, tag: str, idx: int, rational: bool = False):
    """Invertible 3x3 block q, motion v, and a pin x off q's affine span."""
    draw = random_rational_matrix if rational else random_exact_matrix
    for shift in range(50):
        rng = subrng(seed, tag, 50 * idx + shift)
        q = draw(3, 3, rng, SMALL_BOUND)
        v = draw(3, 3, rng, SMALL_BOUND)
        x = draw(1, 3, rng, SMALL_BOUND)[0]
        try:
            ctx = PinContext(q, v)
        except SingularMatrixError:
            continue
        x_int, xi = cleared(x)
        if (x_int @ ctx.adj.T).sum() == ctx.det * xi:  # D = 0: x on q's affine span
            continue
        return ctx, x
    raise RuntimeError("could not sample a valid pin instance")


def _check_sherman_morrison(seed: int, samples: int | None):
    count = _count(samples, 100)
    start = time.perf_counter()
    for idx in range(count):
        ctx, x = _pin_instance(seed, "sherman-morrison", idx, rational=True)
        via_update = sherman_morrison_inverse(ctx.q, x)
        direct = invert(np.outer(ones_vector(3), x) - ctx.q.T)
        if not (via_update == direct).all():
            return False, f"mismatch with direct inversion at instance {idx}"
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        return False, f"{count} instances exact but took {elapsed:.1f}s (limit 5s)"
    return True, f"{count} rational instances match direct inversion exactly"


def _check_pin_flex(seed: int, samples: int | None):
    count = _count(samples, 100)
    for idx in range(count):
        ctx, x = _pin_instance(seed, "pin-flex", idx)
        # Integer draws: pin_stack gives the pin velocity as N / sigma.
        _, n, sigma = pin_stack(ctx, ctx.v.T[None], x[None], linalg.array([1]))
        for i in range(3):
            if (n[0, :, 0] - sigma[0] * ctx.v[:, i]) @ (x - ctx.q[:, i]) != 0:
                return False, f"flex identity violated at instance {idx}, bar {i + 1}"
    return True, f"flex identity exact on {count} instances, all three bars"


def _check_limit_form(seed: int, samples: int | None):
    count = _count(samples, 50)
    t = 10.0 ** 6
    worst = 0.0
    idx = produced = 0
    while produced < count:
        if idx >= 50 * count:
            return False, "could not sample enough well-conditioned instances"
        rng = subrng(seed, "limit-float", idx)
        idx += 1
        q = random_float_matrix(3, 3, rng, 5.0)
        v = random_float_matrix(3, 3, rng, 5.0)
        x = random_float_vector(3, rng, 5.0)
        if np.linalg.cond(q) > 100:
            continue
        ctx = PinContext(q, v)
        try:
            lim = limit_velocity(ctx, x)
            scaled = pin_velocity(ctx, t * x) / t
        except (ParallelSpanError, OnAffineSpanError):
            continue
        produced += 1
        rel = float(np.linalg.norm(scaled - lim)) / max(
            float(np.linalg.norm(lim)), 1e-9)
        worst = max(worst, rel)
        if rel > 1e-4:
            return False, f"relative error {rel:.2e} above 1e-4 at t=1e6"
    for idx in range(count):
        ctx, x = _pin_instance(seed, "limit-exact", idx)
        try:
            lim = limit_velocity(ctx, x)
        except ParallelSpanError:
            continue
        if lim @ x != 0:
            return False, f"exact instance {idx}: limit not orthogonal to x"
    return True, (f"{count} float instances within 1e-4 of the t=1e6 quotient "
                  f"(worst {worst:.1e}); exact orthogonality holds")


def _check_trivial_dim(seed: int, samples: int | None):
    count = _count(samples, 10)
    for idx in range(count):
        p = random_config(3, 5, subrng(seed, "trivial-dim", idx))
        got = trivial_motion_space(p).dim
        if got != 6:
            return False, f"configuration {idx}: dim {got} instead of 6"
    return True, f"dimension 6 at {count} random configurations"


def _check_rigidity_sanity(seed: int, samples: int | None):
    start = time.perf_counter()
    problems = []
    k4 = analyze(Framework(Graph.complete(4),
                           random_config(3, 4, subrng(seed, "sanity-k4", 0))))
    if not (k4.is_rigid and k4.is_isostatic):
        problems.append("K4 not rigid+isostatic")
    k5 = analyze(Framework(Graph.complete(5),
                           random_config(3, 5, subrng(seed, "sanity-k5", 0))))
    if not (k5.is_rigid and not k5.is_isostatic):
        problems.append("K5 not rigid or wrongly isostatic")
    banana = double_banana()
    for idx, p in enumerate(generic_samples(3, 8, seed)):
        rep = analyze(Framework(banana, p))
        if rep.is_rigid or rep.flex_dim != 7:
            problems.append(f"double banana flex_dim {rep.flex_dim} at sample {idx}")
    if not is_implied_edge(banana, 1, 2, 3, seed):
        problems.append("double banana hinge pair not implied")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s (limit 10s)")
    if problems:
        return False, "; ".join(problems)
    return True, "K4, K5, double banana and its hinge all as expected"


def _example_population(seed: int):
    """(p, space, label) triples on 5 configurations, used by two checks."""
    out = []
    for idx in range(5):
        p = _general_config(seed, "example-config", idx)
        rng = subrng(seed, "example-ratio", idx)
        k = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out.append((p, single_vertex_space(p), f"one-point space on config {idx}"))
        out.append((p, proportional_pair_space(p, k),
                    f"paired space (ratio {k}) on config {idx}"))
    return out


def _check_example_spaces(seed: int, samples: int | None):
    nx = _count(samples, 20)
    for p, space, label in _example_population(seed):
        report = check_admissibility(p, space, samples=nx, seed=seed)
        if not report.admissible:
            return False, f"{label} not admissible (max rank {report.max_mismatch_rank})"
    return True, f"both example spaces admissible on 5 configurations, {nx} samples each"


def _family_setup(seed: int, trials: int):
    p = _general_config(seed, "family-config", 0)
    return p, construct_admissible_family(p, trials=trials, seed=seed)


def _check_family(seed: int, samples: int | None):
    trials = _count(samples, 20)
    nx = _count(samples, 20)
    p, family = _family_setup(seed, trials)
    space = stress_matched_linear_space(p)
    if space.dim < 7:
        return False, f"stress-matched space has dim {space.dim} < 7"
    triv = trivial_motion_space(p).subspace
    meet = space.dim + triv.dim - linalg.rank(np.vstack([space.subspace.basis, triv.basis]))
    if meet != 3:
        return False, f"intersection with trivial motions has dim {meet} != 3"
    fully_flexible = 0
    for i, member in enumerate(family):
        if not sufficient_check(p, member):
            return False, f"family member {i} fails the sufficient condition"
        if not check_admissibility(p, member, samples=nx, seed=seed).admissible:
            return False, f"family member {i} fails sampled admissibility"
        if all(not restricts_to_isometry(p, member, sub)
               for sub in combinations(range(1, 6), 3)):
            fully_flexible += 1
    if fully_flexible == 0:
        return False, "no member distorts every 3-point subset"
    return True, (f"dim {space.dim} space meets trivial motions in dim 3; "
                  f"{len(family)} members admissible, {fully_flexible} distort "
                  "every 3-point subset")


def _check_one_dim(seed: int, samples: int | None):
    count = _count(samples, 50)
    for idx in range(count):
        p = _general_config(seed, "one-dim-config", idx, count=4)
        u = None
        for shift in range(20):
            rng = subrng(seed, "one-dim-motion", 20 * idx + shift)
            cand = random_exact_matrix(3, 4, rng, SMALL_BOUND)
            # K4 in general position is infinitesimally rigid (Asimow-Roth),
            # so its trivial motions are exactly its isometries.
            if not is_infinitesimal_isometry(p, cand):
                u = cand
                break
        if u is None:
            return False, f"instance {idx}: could not sample a nontrivial motion"
        if not one_dim_space_inadmissible(p, u, samples=20, seed=seed):
            return False, f"instance {idx}: line admitted an extension"
    return True, f"{count} one-dimensional spaces all inadmissible"


def _check_conic(seed: int, samples: int | None):
    count = _count(samples, 10)
    skew = skew_matrix_space(3)
    for name, edges in conic_probe_graphs().items():
        for idx in range(count):
            p = _general_config(seed, f"conic-{name}", idx)
            space = edge_conic_space(p, edges)
            if space.dim != 3 or not space.equals(skew):
                return False, f"{name}, config {idx}: dim {space.dim}, not the skew space"
    return True, f"all three graphs give exactly the skew space on {count} configs"


def _check_classification(seed: int, samples: int | None):
    trials = _count(samples, 20)
    kinds = {"all-affine": 0, "rank-one-form": 0}
    cases = list(_example_population(seed))
    p, family = _family_setup(seed, trials)
    cases.extend((p, member, f"constructed member {i}")
                 for i, member in enumerate(family))
    for p_i, space, label in cases:
        cls = classify_admissible(p_i, space)
        if cls.is_anomaly:
            return False, f"{label}: anomaly ({cls.details})"
        kinds[cls.kind.value] += 1
        if cls.kind.value == "rank-one-form":
            weights = cleared(cls.weights)[0]
            recon = MotionSpace.from_motions(
                p_i, [np.outer(direction, weights) for direction in cls.plane.basis])
            if not p_equivalent(space, recon):
                return False, f"{label}: reconstruction not p-equivalent"
    return True, (f"{kinds['rank-one-form']} rank-one forms (all reconstructed), "
                  f"{kinds['all-affine']} all-affine, no anomalies")


def _check_extensions(seed: int, samples: int | None):
    base = Graph.complete(5).without_edges([(4, 5)])
    xs = list(range(1, 6))
    table = ExtensionTable(base, 3, seed)
    predicted = blocked = 0
    for e, f in combinations(base.sorted_edges(), 2):
        report = table.report(xs, e, f)
        if not report.consistent:
            return False, f"prediction wrong for removed edges {e}, {f}"
        if report.predicted_rigid is not None:
            predicted += 1
        if report.implied_k4 is not None:
            blocked += 1
            if report.extension_rigid:
                return False, f"extension rigid despite forced quadruple at {e}, {f}"
    if blocked != 6:
        return False, f"expected 6 pairs blocked by a forced quadruple, got {blocked}"
    return True, (f"36 edge pairs: {predicted} predictions all match the oracle, "
                  f"{blocked} blocked pairs all non-rigid")


def _random_affine_linear(rng) -> np.ndarray:
    while True:
        vec = linalg.array([rng.randint(-9, 9) for _ in range(4)])
        if any(vec[1:]):
            return vec


def _random_affine_quadratic(rng) -> np.ndarray:
    """Raw integer coefficients; the part that counts is (raw + raw^T) / 2."""
    return linalg.array([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])


def _poly_case_instance(case: PolyDependence, rng):
    """Integer (l1, q1, l2, q2) of the case.  A dependent pair scales by
    the numerator of a ratio drawn as randint(-9, 9) / randint(1, 9);
    scaling a pair changes neither the case nor the evaluation oracle."""
    if case is PolyDependence.DEPENDENT_PAIR:
        l1 = _random_affine_linear(rng)
        q1 = _random_affine_quadratic(rng)
        num = 0
        while num == 0:
            num, _ = rng.randint(-9, 9), rng.randint(1, 9)
        return l1, q1, l1 * num, q1 * num
    if case is PolyDependence.BOTH_LINEAR_ZERO:
        zero = linalg.array([0] * 4)
        return zero, _random_affine_quadratic(rng), zero.copy(), _random_affine_quadratic(rng)
    if case is PolyDependence.COMMON_LINEAR_FACTOR:
        while True:
            m = _random_affine_linear(rng)
            l1 = _random_affine_linear(rng)
            l2 = _random_affine_linear(rng)
            if linalg.rank(linalg.array([l1, l2])) == 2:
                return l1, np.outer(m, l1), l2, np.outer(m, l2)
    while True:
        l1 = _random_affine_linear(rng)
        l2 = _random_affine_linear(rng)
        q1 = _random_affine_quadratic(rng)
        q2 = _random_affine_quadratic(rng)
        if affine_poly_dependence(l1, q1, l2, q2) is PolyDependence.NONE:
            return l1, q1, l2, q2


def _oracle_draws(rng, count: int):
    """The next count values of rng.randint(-50, 50), drawn in blocks, and
    the generator words used through each; rng comes back unchanged.  The
    value is getrandbits(7), a word's top 7 bits, redrawn while 101 or more,
    and getrandbits(32 k) is the next k words, the first least significant."""
    state, top = rng.getstate(), np.empty(0, np.uint32)
    while len(kept := np.flatnonzero(top < 101)) < count:
        block = rng.getrandbits(32 * 1024).to_bytes(4 * 1024, "little")
        top = np.append(top, np.frombuffer(block, "<u4") >> 25)
    rng.setstate(state)
    return top[kept[:count]].astype(np.int64) - 50, kept[:count] + 1


def _values_dependent(l1, q1, l2, q2, rng) -> bool:
    """Whether l1*q2 - l2*q1 vanishes at 200 random integer points, with
    the draws and final rng state of a loop that stops at the first nonzero
    point.  Pair i scaled by the lcm d_i of its denominators scales
    l1*q2 - l2*q1 by d1*d2: the same zeros, on ints, all points as one
    array (int64 when a coefficient bound rules out overflow)."""
    pairs = []
    for l, q in ((l1, q1), (l2, q2)):
        ints, _ = cleared([*l, *q.flat])
        # zhat^T Q zhat on the upper triangle of Q, off-diagonal terms doubled.
        upper = [ints[4 + 4 * a + b] + (a != b) * ints[4 + 4 * b + a]
                 for a in range(4) for b in range(a, 4)]
        pairs.append([*ints[:4], *upper])
    # Bounds every partial value of a pair: degree <= 2 at |x|, |y|, |w| <= 50.
    bounds = [2500 * sum(map(abs, c)) + 1 for c in pairs]
    coeffs = (np.array(pairs, np.int64) if bounds[0] * bounds[1] < 2 ** 63
              else linalg.array(pairs))
    draws, used = _oracle_draws(rng, 600)
    x, y, w = draws.reshape(-1, 3).T.astype(coeffs.dtype)
    l0, lx, ly, lw, c, cx, cy, cw, cxx, cxy, cxw, cyy, cyw, cww = coeffs.T[:, :, None]
    a = l0 + lx * x + ly * y + lw * w
    b = (c + x * (cx + cxx * x + cxy * y + cxw * w)
         + y * (cy + cyy * y + cyw * w) + w * (cw + cww * w))
    nonzero = np.flatnonzero(a[0] * b[1] != a[1] * b[0])
    rng.getrandbits(32 * int(used[3 * nonzero[0] + 2 if len(nonzero) else 599]))
    return not len(nonzero)


def _check_affine_poly(seed: int, samples: int | None):
    count = _count(samples, 100)
    for case in PolyDependence:
        for idx in range(count):
            rng = subrng(seed, f"poly-{case.value}", idx)
            l1, q1, l2, q2 = _poly_case_instance(case, rng)
            decided = affine_poly_dependence(l1, q1, l2, q2)
            if decided is not case:
                return False, f"{case.value} instance {idx} decided as {decided.value}"
            brute = _values_dependent(l1, q1, l2, q2,
                                      subrng(seed, f"poly-z-{case.value}", idx))
            if brute != (case is not PolyDependence.NONE):
                return False, f"{case.value} instance {idx} disagrees with evaluation"
    return True, (f"{count} instances per case match the 200-point "
                  "evaluation oracle in all four cases")


_CHECKS = (
    ("sherman-morrison-exact", _check_sherman_morrison),
    ("pin-flex-property", _check_pin_flex),
    ("limit-closed-form", _check_limit_form),
    ("trivial-motion-dim", _check_trivial_dim),
    ("rigidity-sanity", _check_rigidity_sanity),
    ("example-spaces-admissible", _check_example_spaces),
    ("admissible-family", _check_family),
    ("one-dim-inadmissible", _check_one_dim),
    ("conic-at-infinity", _check_conic),
    ("classification-trichotomy", _check_classification),
    ("extension-predictions", _check_extensions),
    ("affine-poly-cases", _check_affine_poly),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_check(name: str, seed: int = 0, samples: int | None = None) -> CheckResult:
    table = dict(_CHECKS)
    if name not in table:
        raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
    start = time.perf_counter()
    passed, details = table[name](seed, samples)
    return CheckResult(name, passed, details, time.perf_counter() - start)


def run_battery(seed: int = 0, samples: int | None = None,
                names=None) -> list[CheckResult]:
    selected = CHECK_NAMES if names is None else tuple(names)
    return [run_check(name, seed, samples) for name in selected]
