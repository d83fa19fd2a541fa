import pytest

from rigidlab.applications import (conic_probe_graphs, edge_conic_space,
                                   skew_matrix_space, two_extension_report)
from rigidlab.errors import BadSupportError, NotIsostaticError
from rigidlab.linalg import exact_matrix
from rigidlab.motions import PointConfiguration
from rigidlab.rigidity import Graph, double_banana
from rigidlab.sampling import random_general_config

STANDARD = PointConfiguration(exact_matrix(
    [[1, 0, 0, 1, 1],
     [0, 1, 0, 1, 2],
     [0, 0, 1, 1, 3]]))


def test_no_edges_leaves_full_matrix_space():
    space = edge_conic_space(STANDARD, [])
    assert space.dim == 9


def test_skew_space_is_antisymmetric_dim_three():
    space = skew_matrix_space()
    assert space.dim == 3
    for row in space.basis:
        m = row.reshape(3, 3)
        assert ((m + m.T) == 0).all()


def test_probe_graphs_pin_down_skew_space():
    probes = conic_probe_graphs()
    assert len(probes) == 3
    skew = skew_matrix_space()
    for idx, name in enumerate(sorted(probes)):
        edges = probes[name]
        assert len(set(edges)) == 6
        p = random_general_config(3, 5, 11, f"conic-{idx}", bound=1000)
        assert edge_conic_space(p, edges).equals(skew)


def test_collinear_points_leave_extra_dimensions():
    # all edge directions parallel: one independent constraint in total
    line = PointConfiguration(exact_matrix(
        [[1, 2, 3, 4, 5],
         [2, 4, 6, 8, 10],
         [3, 6, 9, 12, 15]]))
    edges = conic_probe_graphs()["triangle-and-path"]
    assert edge_conic_space(line, edges).dim == 8


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        edge_conic_space(STANDARD, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        edge_conic_space(STANDARD, [(1, 6)])


def _nearly_complete_five() -> Graph:
    return Graph.complete(5).without_edges([(4, 5)])


def test_blocked_pair_has_no_prediction():
    report = two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5],
                                  (1, 4), (2, 4))
    assert report.implied_k4 == (1, 2, 3, 5)
    assert report.predicted_rigid is None
    assert report.prediction_rule is None
    assert not report.extension_rigid
    assert report.consistent


def test_rich_support_predicts_rigid():
    report = two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5],
                                  (1, 2), (1, 3))
    assert report.support_edge_count >= 7
    assert report.implied_k4 is None
    assert report.prediction_rule == "seven-support-edges"
    assert report.predicted_rigid
    assert report.extension_rigid
    assert report.consistent


def test_sparse_support_uses_implied_triangle_pendant():
    edges_x = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 4)]
    rest = [(1, 6), (2, 6), (5, 6), (2, 7), (3, 7), (5, 7), (6, 7),
            (4, 6), (4, 7)]
    g = Graph.from_edges(7, edges_x + rest)
    assert g.edge_count == 3 * 7 - 6
    report = two_extension_report(g, [1, 2, 3, 4, 5], (4, 5), (1, 4))
    assert report.support_edge_count == 6
    assert report.implied_k4 is None
    assert report.implied_probe == ((1, 2, 3), (3, 4))
    assert report.prediction_rule == "implied-triangle-pendant"
    assert report.predicted_rigid
    assert report.extension_rigid
    assert report.consistent


def test_flexible_base_refused():
    with pytest.raises(NotIsostaticError):
        two_extension_report(double_banana(), [1, 2, 3, 4, 5], (1, 3), (1, 4))


def test_short_support_refused():
    with pytest.raises(BadSupportError):
        two_extension_report(_nearly_complete_five(), [1, 2, 3, 4],
                             (1, 2), (1, 3))


def test_equal_removed_edges_refused():
    with pytest.raises(ValueError):
        two_extension_report(_nearly_complete_five(), [1, 2, 3, 4, 5],
                             (1, 2), (2, 1))
