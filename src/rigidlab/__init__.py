"""Infinitesimal rigidity of bar-joint frameworks and admissible motion
subspaces, computed over float64 or exact rationals."""

from .admissibility import (AdmissibilityReport, Classification,
                            ClassificationKind, check_admissibility,
                            classify_admissible, construct_admissible_family,
                            one_dim_space_inadmissible, pin_mismatch_map,
                            projected_limit_mismatch, proportional_pair_space,
                            single_vertex_space, split_blocks,
                            stress_matched_linear_space, sufficient_check)
from .affinepoly import PolyDependence, affine_poly_dependence
from .applications import (ExtensionReport, ExtensionTable,
                           conic_probe_graphs, edge_conic_space,
                           skew_matrix_space, two_extension_report)
from .errors import (BadSupportError, DegenerateConfigError,
                     HypothesisViolatedError, NotIsostaticError,
                     OnAffineSpanError, ParallelSpanError, ParseError,
                     RigidLabError, SingularMatrixError)
from .linalg import (DEFAULT_RANK_TOL, Subspace, exact_matrix, frac, invert,
                     nullspace_rows, rank, sherman_morrison_inverse, solve,
                     tolerance)
from .motions import (MotionSpace, PointConfiguration, affine_motion_parts,
                      flatten_motion, is_infinitesimal_isometry,
                      linear_motion_matrix, p_equivalent, restricts_to_isometry,
                      skew_basis, take_points, trivial_motion_space,
                      unflatten_motion)
from .pins import PinContext, limit_velocity, pin_velocity
from .rigidity import (Framework, Graph, RigidityReport, analyze,
                       double_banana, find_implied_k4, flex_space,
                       henneberg_extend, implied_pairs, is_generically_rigid,
                       is_implied_edge, rigidity_matrix)
from .sampling import random_config, random_general_config, subrng
from .verify import CHECK_NAMES, CheckResult, run_battery, run_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
