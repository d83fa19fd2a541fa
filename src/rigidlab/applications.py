"""Conic-at-infinity checks and two-vertex extension reports.

These combine the rigidity oracles with the admissibility machinery:
the conic space detects when affine motions isometric on a set of edges
are forced to be trivial, and the extension report compares the
rigidity predictions available for a Henneberg 2-extension against the
generic-rank oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .errors import NotIsostaticError
from .linalg import Subspace
from .motions import PointConfiguration, skew_basis
from .rigidity import (Graph, complete_quadruple, henneberg_extend,
                       implied_pairs, is_generically_isostatic,
                       is_generically_rigid, normalize_edge)


def edge_conic_space(p: PointConfiguration, edges,
                     tol: float | None = None) -> Subspace:
    """Matrices m with (p_i - p_j)^T m (p_i - p_j) = 0 on every edge.

    Returned as a subspace of R^(n*n) (row-major vec of m).  Skew
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
        d = p.points[:, e[0] - 1] - p.points[:, e[1] - 1]
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


def two_extension_report(g: Graph, x, e, f, n: int = 3,
                         seed: int = 0) -> ExtensionReport:
    """Check a Henneberg 2-extension of an isostatic graph against the
    available rigidity predictions.

    With the edges e and f removed inside the support x, an implied
    complete quadruple in x blocks any prediction; otherwise the
    extension is predicted rigid when the support spans at least seven
    edges, or when a triangle-plus-pendant-edge subgraph is implied
    inside x.  The actual verdict comes from the generic-rank oracle.
    """
    if not is_generically_isostatic(g, n, seed):
        raise NotIsostaticError("base graph is not generically isostatic")
    e = normalize_edge(*e)
    f = normalize_edge(*f)
    if e == f:
        raise ValueError("e and f must be distinct edges")
    xs = sorted(set(x))
    extension = henneberg_extend(g, xs, [e, f], n)

    support_edges = g.edges_within(xs)
    reduced = g.without_edges([e, f])
    implied = implied_pairs(reduced, combinations(xs, 2), n, seed)
    k4 = complete_quadruple(implied, xs)
    probe = _find_implied_probe(implied, xs)

    predicted = None
    rule = None
    if k4 is None:
        if len(support_edges) >= 7:
            predicted, rule = True, "seven-support-edges"
        elif probe is not None:
            predicted, rule = True, "implied-triangle-pendant"
    actual = is_generically_rigid(extension, n, seed)
    return ExtensionReport(
        support_edge_count=len(support_edges),
        implied_k4=k4,
        implied_probe=probe,
        predicted_rigid=predicted,
        prediction_rule=rule,
        extension_rigid=actual,
        consistent=(predicted is None) or (predicted == actual),
    )
