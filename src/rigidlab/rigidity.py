"""Bar-joint frameworks: rigidity matrices, flexes, generic rank oracles.

The rigidity matrix is scattered from its edge rows on the cleared points
(Python ints at an integer configuration).  Generic properties are
decided by exact arithmetic at random integer configurations: a rigidity
witness at one sample certifies generic rigidity, while negative answers
are only reported after two independent samples agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from . import linalg
from .errors import BadSupportError
from .motions import (MotionSpace, PointConfiguration, flatten_motion, pair_indices,
                      strains, trivial_motions)
from .sampling import random_int_vector, subrng


def normalize_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"loop edge ({i},{i}) is not allowed")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..vertex_count."""

    vertex_count: int
    edges: frozenset

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        for i, j in self.edges:
            if not (1 <= i < j <= self.vertex_count):
                raise ValueError(f"edge ({i},{j}) out of range or unordered")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        return cls(vertex_count, frozenset(normalize_edge(i, j) for i, j in edges))

    @classmethod
    def complete(cls, vertex_count: int) -> "Graph":
        return cls(vertex_count,
                   frozenset(combinations(range(1, vertex_count + 1), 2)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return normalize_edge(i, j) in self.edges

    def with_edge(self, i: int, j: int) -> "Graph":
        return Graph(self.vertex_count, self.edges | {normalize_edge(i, j)})

    def without_edges(self, pairs) -> "Graph":
        drop = {normalize_edge(i, j) for i, j in pairs}
        missing = drop - self.edges
        if missing:
            raise ValueError(f"edges not present: {sorted(missing)}")
        return Graph(self.vertex_count, self.edges - drop)

    def edges_within(self, vertices) -> set[tuple[int, int]]:
        vs = set(vertices)
        return {e for e in self.edges if e[0] in vs and e[1] in vs}


def double_banana() -> Graph:
    """Two complete graphs on five vertices, each missing the shared
    hinge edge {1,2}; the classic flexible circuit in three dimensions."""
    edges = set()
    for banana in ({1, 2, 3, 4, 5}, {1, 2, 6, 7, 8}):
        edges |= {e for e in combinations(sorted(banana), 2) if e != (1, 2)}
    return Graph.from_edges(8, edges)


@dataclass
class Framework:
    graph: Graph
    config: PointConfiguration

    def __post_init__(self):
        if self.graph.vertex_count != self.config.count:
            raise ValueError("graph and configuration disagree on point count")


@dataclass(frozen=True)
class RigidityReport:
    flex_dim: int
    trivial_dim: int
    is_isostatic: bool

    @property
    def is_rigid(self) -> bool:
        return self.flex_dim == self.trivial_dim


def _edge_rows(p: PointConfiguration, pairs) -> np.ndarray:
    """p's denominator times the rigidity rows of the 1-based pairs: row ab
    holds p_a - p_b in block a and p_b - p_a in block b on the cleared
    points, so a float zero is 0.0."""
    i, j = pair_indices(pairs)
    pts = p.ints.T
    rows, at = linalg.zeros((len(i), p.count, p.dim), p.exact), np.arange(len(i))
    rows[at, i] = pts[i] - pts[j]
    rows[at, j] = pts[j] - pts[i]
    return rows.reshape(len(i), p.count * p.dim)


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """The strain map on the edges as a matrix: its row for edge ij is
    (p_i - p_j)^T in block i and its negative in block j, the edge rows
    over p's denominator (Python ints for an integer configuration)."""
    p = fw.config
    rows = _edge_rows(p, fw.graph.sorted_edges())
    return rows if p.den == 1 else linalg.over(rows, p.den)


def flex_space(fw: Framework) -> MotionSpace:
    """Nullspace of the rigidity matrix; always contains the trivial motions."""
    basis = linalg.nullspace_rows(_edge_rows(fw.config, fw.graph.sorted_edges()))
    sub = linalg.Subspace(fw.config.dim * fw.config.count, basis)
    return MotionSpace(fw.config, sub)


def _trivial_dim(p: PointConfiguration) -> int:
    """Dimension of the trivial motions, n(n+1)/2 - (n-a)(n-a-1)/2, a the
    dimension of the points' affine span: rotations fixing the span move
    nothing.  Every strain row vanishes on them, so the rank of any stack
    of strain rows is at most n V minus this."""
    n, a = p.dim, p.affine_rank()
    return n * (n + 1) // 2 - (n - a) * (n - a - 1) // 2


def _unpinned(p: PointConfiguration) -> list[int]:
    """The coordinates outside P, the pivot columns of an echelon form B
    of the trivial motions, on which B is triangular and invertible.  The
    translations pivot on point 1's n coordinates, where every rotation
    about p_1 (trivial_motions) vanishes, so P is those and the pivot
    columns of the rotations alone.  Every strain row s vanishes on B's
    rows, so s on P is -B_P^{-1} B_rest applied to s outside P: a
    rigidity matrix's columns in P, and the rows in P of [R^T | C^T],
    are combinations of the others, and dropping them keeps every rank
    and column relation."""
    total = p.dim * p.count
    rotations = linalg.array([flatten_motion(u) for u in trivial_motions(p)[p.dim:]])
    pinned = linalg.pivot_columns(rotations.reshape(-1, total))
    return [c for c in range(p.dim, total) if c not in pinned]


def analyze(fw: Framework) -> RigidityReport:
    """Flex dimension, trivial dimension, and isostaticity of a framework.

    Isostatic means rigid with every edge load-bearing, which holds
    exactly when the edge rows are independent: one rank decides both.
    On the exact backend that rank is bounded by nV - trivial_dim
    (_trivial_dim) and by the edge count: "rigid", "isostatic" and
    independent edges are settled modulo linalg.PRIME
    (linalg.reaches_mod_p), and only a rank short of both is eliminated
    over Q, on the unpinned coordinates (_unpinned).
    """
    p = fw.config
    total = p.dim * p.count
    trivial_dim = _trivial_dim(p)
    r = _edge_rows(p, fw.graph.sorted_edges())
    full = min(total - trivial_dim, r.shape[0])
    if p.exact and linalg.reaches_mod_p(r, full):
        base_rank = full
    else:
        base_rank = linalg.rank(r[:, _unpinned(p)] if p.exact else r)
    flex_dim = total - base_rank
    isostatic = flex_dim == trivial_dim and base_rank == r.shape[0]
    return RigidityReport(flex_dim=flex_dim, trivial_dim=trivial_dim,
                          is_isostatic=isostatic)


def generic_samples(n: int, count: int, seed: int):
    """The two random configurations of count points in R^n that decide a
    generic verdict, drawn lazily.  Sample idx is n * count draws of
    random_int_vector from the one substream (seed, "generic", idx), taken
    point by point, so the stream is prefix-closed: the first V points of
    a (V + 1)-point sample are the V-point sample."""
    for idx in range(2):
        flat = random_int_vector(n * count, subrng(seed, "generic", idx))
        yield PointConfiguration(linalg.array(flat).reshape(count, n).T)


def is_generically_rigid(g: Graph, n: int, seed: int = 0) -> bool:
    """Rigidity of g in R^n at generic configurations: true when analyze
    finds g rigid at one of the two generic_samples; one witness decides
    (the second is not drawn), "not rigid" needs both to agree.  A wrong
    "not rigid" needs a nonzero minor of degree r, g's generic rank
    (<= nV - n(n+1)/2 for V >= n), to vanish at both draws of 2*10^6 + 1
    values a coordinate: probability <= (r/(2*10^6 + 1))^2 (Schwartz-Zippel)."""
    return any(analyze(Framework(g, p)).is_rigid
               for p in generic_samples(n, g.vertex_count, seed))


def _implied_pairs_at(g: Graph, p: PointConfiguration, candidates) -> set:
    """Candidate pairs whose rigidity row is in g's row space at the exact
    configuration p: the unit motions' strains on the edges, then on the
    candidates, are [R^T | C^T] on ints; one elimination, its pivots in the
    edge columns, decides each candidate alone.  Every column vanishes on
    the trivial motions, so nV - _trivial_dim(p) bounds the rank: when R
    reaches it modulo linalg.PRIME every candidate is implied with no
    exact elimination; otherwise that runs on the unpinned rows (_unpinned)."""
    pairs = [*g.sorted_edges(), *candidates]
    total = p.dim * p.count
    # _edge_rows(p, pairs).T gives these columns times p.den, 14-15% more
    # frameworks verdicts/s, but perfbench keeps a record per verdict: its
    # peak RSS rose 4.4-4.5% in median (two 10-pair rounds), at its 5% bound.
    cols = strains(p, np.eye(total, dtype=int), pairs)
    if linalg.reaches_mod_p(cols, total - _trivial_dim(p), g.edge_count):
        return set(pairs[g.edge_count:])
    spanned = linalg.spanned_columns(cols[_unpinned(p)], g.edge_count)
    return set(compress(pairs[g.edge_count:], spanned))


def implied_pairs(g: Graph, candidates, n: int, seed: int = 0) -> set:
    """Subset of candidate pairs implied by g at both generic_samples; the
    second tests only the pairs the first found implied, and is not drawn
    when there are none.  A wrong "implied" needs a nonzero minor of g plus
    the pair, of degree r as in is_generically_rigid, to vanish at both:
    probability <= (r/(2*10^6 + 1))^2 (Schwartz-Zippel)."""
    implied = [normalize_edge(i, j) for i, j in candidates]
    for p in generic_samples(n, g.vertex_count, seed):
        implied = _implied_pairs_at(g, p, implied)
        if not implied:
            break
    return implied


def is_implied_edge(g: Graph, i: int, j: int, n: int, seed: int = 0) -> bool:
    """True when adding edge (i, j) does not raise the generic rank of g."""
    pair = normalize_edge(i, j)
    for v in pair:
        if not 1 <= v <= g.vertex_count:
            raise ValueError(f"vertex {v} out of range 1..{g.vertex_count}")
    return pair in implied_pairs(g, [pair], n, seed)


def find_implied_k4(g: Graph, x, n: int, seed: int = 0):
    """First 4-subset of x (lexicographic) on which all six pairs are
    implied edges of g, or None."""
    xs = sorted(set(x))
    for v in xs:
        if not 1 <= v <= g.vertex_count:
            raise ValueError(f"vertex {v} out of range 1..{g.vertex_count}")
    if len(xs) < 4:
        return None
    return complete_quadruple(implied_pairs(g, combinations(xs, 2), n, seed), xs)


def complete_quadruple(pairs: set, xs):
    """First 4-subset of the sorted vertices xs (lexicographic) whose six
    pairs all lie in pairs, or None."""
    for quad in combinations(xs, 4):
        if all(pair in pairs for pair in combinations(quad, 2)):
            return quad
    return None


def henneberg_extend(g: Graph, x, f, n: int) -> Graph:
    """Delete the edge set f inside the support x, then add one new vertex
    adjacent to every vertex of x.  Requires |x| = n + |f| and f inside
    the edges spanned by x."""
    xs = sorted(set(x))
    for v in xs:
        if not 1 <= v <= g.vertex_count:
            raise BadSupportError(f"support vertex {v} out of range")
    fs = {normalize_edge(i, j) for i, j in f}
    if len(xs) != n + len(fs):
        raise BadSupportError(
            f"support size {len(xs)} != n + |f| = {n + len(fs)}")
    within = g.edges_within(xs)
    if not fs <= within:
        raise BadSupportError("deleted edges must lie inside the support")
    new = g.vertex_count + 1
    edges = (g.edges - fs) | {(v, new) for v in xs}
    return Graph(new, frozenset(edges))
