"""Volume doubling toolkit for left-invariant metrics on SU(2) x R^n."""

from .algebra import (AlgebraElement, GroupElement, IDENTITY, SU2_BASIS,
                      VOL0_SU2, bracket, exp_group, exp_su2,
                      g0_distance_between, g0_inner, g0_norm, log_su2, mul,
                      quat_to_su2, reference_distance, su2_to_quat)
from .metrics import (DecoupledMetric, InvalidParameters, MetricTensor,
                      NotSPD, canonicalize, decoupled_to_json,
                      extract_milnor_su2, from_parameters, metric_from_flat,
                      metric_to_json, reduce_to_decoupled)
from .frames import (CollisionClass, ControlPath, Coordinates, GimbalLock,
                     IntegrationError, PathSegment, adjoint_rotate,
                     commutator_identity, euler_quat, frame_chart, jacobian,
                     mc_integrate, path_length, psi, psi_collision_classify,
                     word_factors, word_group_element, wrap_circle)
from .volumes import (DoublingExpr, EstimatorInputs, Hexagon,
                      InvalidHexagon, MalformedTree, OutOfRegime, Side,
                      containment_sets, doubling_calculus, hexagon_area,
                      hexagon_area_truncated, hexagon_area_window,
                      hexagon_contains, hexagon_planar_area, linear_upper,
                      m_rho, sample_hexagon, vbar_H, vbar_g,
                      vbar_g_doubling_bound, vbar_g_doubling_tree,
                      wrap_area_upper)
from .balls import (DistanceBracket, OutOfRange, VolumeBracket, ball_volume,
                    default_sweep_grid, distance_bracket, sweep,
                    word_upper_bound)

__all__ = [
    "AlgebraElement", "GroupElement", "IDENTITY",
    "SU2_BASIS", "VOL0_SU2", "bracket", "exp_group", "exp_su2",
    "g0_distance_between", "g0_inner", "g0_norm", "log_su2", "mul",
    "quat_to_su2", "reference_distance", "su2_to_quat",
    "DecoupledMetric", "InvalidParameters", "MetricTensor", "NotSPD",
    "canonicalize", "decoupled_to_json", "extract_milnor_su2",
    "from_parameters", "metric_from_flat", "metric_to_json",
    "reduce_to_decoupled",
    "CollisionClass", "ControlPath", "Coordinates", "GimbalLock",
    "IntegrationError", "PathSegment", "adjoint_rotate",
    "commutator_identity", "euler_quat", "frame_chart", "jacobian",
    "mc_integrate", "path_length", "psi", "psi_collision_classify",
    "word_factors", "word_group_element", "wrap_circle",
    "DoublingExpr", "EstimatorInputs", "Hexagon", "InvalidHexagon",
    "MalformedTree", "OutOfRegime", "Side", "containment_sets",
    "doubling_calculus", "hexagon_area", "hexagon_area_truncated",
    "hexagon_area_window", "hexagon_contains", "hexagon_planar_area",
    "linear_upper", "m_rho", "sample_hexagon", "vbar_H", "vbar_g",
    "vbar_g_doubling_bound", "vbar_g_doubling_tree", "wrap_area_upper",
    "DistanceBracket", "OutOfRange", "VolumeBracket", "ball_volume",
    "default_sweep_grid", "distance_bracket", "sweep", "word_upper_bound",
]
