"""Conic-at-infinity checks and two-vertex extension reports.

These combine the rigidity oracles with the admissibility machinery:
the conic space detects when affine motions isometric on a set of edges
are forced to be trivial, and the extension report compares the
rigidity predictions available for a Henneberg 2-extension against the
generic-rank oracle; both read a configuration's cleared points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

import numpy as np

from . import linalg, rigidity
from .errors import NotIsostaticError
from .linalg import Subspace
from .motions import PointConfiguration, skew_basis, strains
from .rigidity import (Framework, Graph, _implied_pairs_at, analyze,
                       complete_quadruple, henneberg_extend, normalize_edge,
                       rigidity_matrix)


def edge_conic_space(p: PointConfiguration, edges,
                     tol: float | None = None) -> Subspace:
    """Matrices m with (p_i - p_j)^T m (p_i - p_j) = 0 on every edge.

    Returned as a subspace of R^(n*n) (row-major vec of m), the kernel of
    the rows taken on p's cleared points (each scaled by den^2).  Skew
    matrices always belong; for a generic configuration and any of the
    six-edge probe graphs they are everything, so dimension 3 certifies
    that a 2-dimensional space of affine motions isometric on those
    edges contains a nonzero trivial motion.
    """
    n = p.dim
    seen = set()
    rows = []
    for i, j in edges:
        e = normalize_edge(i, j)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        if not (1 <= e[0] < e[1] <= p.count):
            raise ValueError(f"edge {e} out of range")
        d = p.ints[:, e[0] - 1] - p.ints[:, e[1] - 1]
        rows.append(np.outer(d, d).reshape(-1))
    if not rows:
        return Subspace(n * n, linalg.identity(n * n, p.exact))
    return Subspace(n * n, linalg.nullspace_rows(linalg.array(rows, p.exact), tol))


def skew_matrix_space(n: int = 3, exact: bool = True) -> Subspace:
    """Skew-symmetric n x n matrices as a subspace of R^(n*n), row-major."""
    return Subspace.from_spanning(
        [a.reshape(-1) for a in skew_basis(n, exact)], n * n)


def conic_probe_graphs() -> dict[str, list[tuple[int, int]]]:
    """The three 6-edge graphs on 5 vertices used by the conic battery:
    two triangles sharing an edge with a pendant edge hung off either an
    outer or a shared vertex, and a triangle joined to a 3-edge path."""
    return {
        "double-triangle-pendant-outer":
            [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5)],
        "double-triangle-pendant-shared":
            [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)],
        "triangle-and-path":
            [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (3, 5)],
    }


@dataclass
class ExtensionReport:
    support_edge_count: int
    implied_k4: tuple | None
    implied_probe: tuple | None
    predicted_rigid: bool | None
    prediction_rule: str | None
    extension_rigid: bool
    consistent: bool


def _find_implied_probe(implied: set, xs: list[int]):
    """Triangle plus a pendant edge, all four edges implied; returns
    ((a, b, c), (t, d)) or None."""
    for tri in combinations(xs, 3):
        if not all(pair in implied for pair in combinations(tri, 2)):
            continue
        for d in xs:
            if d in tri:
                continue
            for t in tri:
                if normalize_edge(t, d) in implied:
                    return tri, normalize_edge(t, d)
    return None


class _Stretches:
    """g's stretch motions at p, the first V points of a sample q (its next
    point is the new vertex): u_e changes the length of edge e alone
    (R u_e is the unit vector at e, R g's rigidity matrix at p); the rows
    of W, the numerators of R R^T W = R solved by linalg.solve_parts, are
    the u_e up to one common scale.  r_ij . u_e is the coefficient of edge
    e in pair ij's row expanded in R's rows, so unstrained[e], the pairs
    where it is zero, are those g - e implies.  motions is None when g is
    not isostatic at p; callers then run the per-case oracles on p and q.
    """

    def __init__(self, g: Graph, q: PointConfiguration):
        n, v = q.dim, g.vertex_count
        self.q, self.p = q, PointConfiguration(q.points[:, :v])
        *self.base, self.pv = q.ints.T.tolist()
        self.motions = None
        fw = Framework(g, self.p)
        if analyze(fw).is_isostatic:
            r = rigidity_matrix(fw)
            w = linalg.solve_parts(r @ r.T, r)[0]
            edges, pairs = g.sorted_edges(), list(combinations(range(1, v + 1), 2))
            self.motions = {e: [row[n * k:n * k + n] for k in range(v)]
                            for e, row in zip(edges, w.tolist())}
            rows = strains(self.p, w, pairs).tolist()
            self.unstrained = {e: {ij for ij, s in zip(pairs, row) if s == 0}
                               for e, row in zip(edges, rows)}

    def extension_rigid(self, xs, e, f) -> bool:
        """Flexes of g - e - f are trivial(p) + span(u_e, u_f), so the
        extension is rigid exactly when its n + 2 new bars leave only the
        trivial motions: when the matrix with one row
        [d_k | d_k . b(k) for each rotation b, u_e, u_f] per support
        vertex k, d_k = p_v - p_k, has rank n + 2 (the translations
        repeat the d_k columns and are left out)."""
        rows = []
        for k in xs:
            pk = self.base[k - 1]
            d = [a - b for a, b in zip(self.pv, pk)]
            rows.append(d + [d[a] * pk[b] - d[b] * pk[a]
                             for a, b in combinations(range(len(d)), 2)]
                        + [sum(map(mul, d, self.motions[h][k - 1]))
                           for h in (e, f)])
        return linalg.rank(linalg.array(rows)) == len(rows)


class ExtensionTable:
    """Every Henneberg 2-extension of one isostatic base graph g in R^n.

    Built once per (g, n, seed): one _Stretches per generic sample q of
    V + 1 points.  The stream is prefix-closed, so q's first V points p
    are the sample implied_pairs draws for g - e - f, and q the one
    is_generically_rigid draws for the extension: each report equals the
    one those oracles give case by case.  Where g is isostatic at p, a
    pair is implied by g - e - f when it lies in the zero-strain sets of
    both e and f (_Stretches.unstrained), and rigidity is one (n + 2)-row
    integer rank; elsewhere _implied_pairs_at runs on p and analyze on q.
    g is refused when it is isostatic at neither p.
    """

    def __init__(self, g: Graph, n: int = 3, seed: int = 0):
        self.g, self.n = g, n
        self._samples = [_Stretches(g, q) for q in
                         rigidity.generic_samples(n, g.vertex_count + 1, seed)]
        if all(s.motions is None for s in self._samples):
            raise NotIsostaticError("base graph is not generically isostatic")

    def report(self, x, e, f) -> ExtensionReport:
        """The 2-extension on support x that deletes e and f.

        With e and f removed, an implied complete quadruple in x blocks
        any prediction; otherwise the extension is predicted rigid when
        the support spans at least seven edges, or when a
        triangle-plus-pendant-edge subgraph is implied inside x.  The
        actual verdict is generic rigidity as is_generically_rigid
        decides it.
        """
        e = normalize_edge(*e)
        f = normalize_edge(*f)
        if e == f:
            raise ValueError("e and f must be distinct edges")
        xs = sorted(set(x))
        extension = henneberg_extend(self.g, xs, [e, f], self.n)
        support_edges = self.g.edges_within(xs)

        implied = set(combinations(xs, 2))
        for s in self._samples:
            implied = (_implied_pairs_at(self.g.without_edges([e, f]), s.p, implied)
                       if s.motions is None
                       else implied & s.unstrained[e] & s.unstrained[f])
        k4 = complete_quadruple(implied, xs)
        probe = _find_implied_probe(implied, xs)

        predicted = None
        rule = None
        if k4 is None:
            if len(support_edges) >= 7:
                predicted, rule = True, "seven-support-edges"
            elif probe is not None:
                predicted, rule = True, "implied-triangle-pendant"
        actual = any(analyze(Framework(extension, s.q)).is_rigid if s.motions is None
                     else s.extension_rigid(xs, e, f) for s in self._samples)
        return ExtensionReport(
            support_edge_count=len(support_edges),
            implied_k4=k4,
            implied_probe=probe,
            predicted_rigid=predicted,
            prediction_rule=rule,
            extension_rigid=actual,
            consistent=(predicted is None) or (predicted == actual),
        )


def two_extension_report(g: Graph, x, e, f, n: int = 3,
                         seed: int = 0) -> ExtensionReport:
    """Check a Henneberg 2-extension of an isostatic graph against the
    available rigidity predictions: ExtensionTable(g, n, seed).report."""
    return ExtensionTable(g, n, seed).report(x, e, f)
