"""Curvature, Steklov spectra, and Lichnerowicz rigidity on weighted graphs.

The toolkit computes Bakry-Emery curvature and the Laplacian and Steklov
spectra of finite weighted graphs with boundary, verifies the bound
sigma_2 >= nK/(n-1) under the curvature-dimension condition CD(K, n), and
decides and constructs the graphs attaining equality.
"""

__version__ = "0.1.0"

from .curvature import (
    CDReport,
    CurvatureProfile,
    CurvatureResult,
    LichnerowiczReport,
    cd_check,
    curvature_at,
    curvature_profile,
    verify_lichnerowicz,
)
from .errors import SteklovError
from .graphs import (
    INF,
    BoundaryGraph,
    ExampleFamily,
    WeightedGraph,
    attach_boundary,
    boundary_degree,
    build_graph,
    induced_interior_graph,
    join_equality_boundary,
    make_example,
    parse_graph_file,
    serialize_graph,
    weighted_degree,
)
from .operators import (
    OneForm,
    VertexFunction,
    differential,
    inner_product_forms,
    inner_product_functions,
    interior_edges,
    laplacian,
    normal_derivative,
)
from .rigidity import (
    Classification,
    RigidityClass,
    RigidityReport,
    assemble_interior_form,
    check_interior_inequality,
    check_necessary_conditions,
    check_rigidity,
    classify_normalized,
    classify_partial,
    classify_unit_weight,
    construct_rigid_family,
    disjoint_ball_scan,
    two_ball_identity_check,
)
from .spectra import (
    DtNOperator,
    Spectrum,
    SpectrumKind,
    SteklovDiagnostics,
    dtn_operator,
    harmonic_extension,
    laplacian_spectrum,
    steklov_eigenfunction_diagnostics,
    steklov_spectrum,
)

__all__ = [
    "BoundaryGraph", "CDReport", "Classification", "CurvatureProfile", "CurvatureResult", "DtNOperator",
    "ExampleFamily", "INF", "LichnerowiczReport", "OneForm", "RigidityClass", "RigidityReport", "Spectrum",
    "SpectrumKind", "SteklovDiagnostics", "SteklovError", "VertexFunction", "WeightedGraph",
    "assemble_interior_form", "attach_boundary", "boundary_degree", "build_graph", "cd_check",
    "check_interior_inequality", "check_necessary_conditions", "check_rigidity", "classify_normalized",
    "classify_partial", "classify_unit_weight", "construct_rigid_family", "curvature_at", "curvature_profile",
    "differential", "disjoint_ball_scan", "dtn_operator", "harmonic_extension", "induced_interior_graph",
    "inner_product_forms", "inner_product_functions", "interior_edges", "join_equality_boundary", "laplacian",
    "laplacian_spectrum", "make_example", "normal_derivative", "parse_graph_file", "serialize_graph",
    "steklov_eigenfunction_diagnostics", "steklov_spectrum", "two_ball_identity_check", "verify_lichnerowicz",
    "weighted_degree",
]
