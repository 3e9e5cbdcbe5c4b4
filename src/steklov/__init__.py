"""Curvature, Steklov spectra, and Lichnerowicz rigidity on weighted graphs.

The toolkit computes Bakry-Emery curvature and the Laplacian and Steklov
spectra of finite weighted graphs with boundary, verifies the bound
sigma_2 >= nK/(n-1) under the curvature-dimension condition CD(K, n), and
decides and constructs the graphs attaining equality.

`import steklov` loads no library module: the first lookup of a public name
imports the module that defines it (PEP 562) and keeps the name here, so
`steklov.x is steklov.<module>.x` and only what a caller uses is loaded.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "curvature": ("CDReport", "CurvatureProfile", "CurvatureResult", "LichnerowiczReport", "cd_check",
                  "curvature_at", "curvature_profile", "verify_lichnerowicz"),
    "errors": ("SteklovError",),
    "graphs": ("INF", "BoundaryGraph", "ExampleFamily", "WeightedGraph", "attach_boundary", "boundary_degree",
               "build_graph", "induced_interior_graph", "join_equality_boundary", "make_example",
               "parse_graph_file", "serialize_graph", "weighted_degree"),
    "operators": ("OneForm", "VertexFunction", "differential", "inner_product_forms", "inner_product_functions",
                  "interior_edges", "laplacian", "normal_derivative"),
    "rigidity": ("Classification", "RigidityClass", "RigidityReport", "assemble_interior_form",
                 "check_interior_inequality", "check_necessary_conditions", "check_rigidity",
                 "classify_normalized", "classify_partial", "classify_unit_weight", "construct_rigid_family",
                 "disjoint_ball_scan", "two_ball_identity_check"),
    "spectra": ("DtNOperator", "Spectrum", "SpectrumKind", "SteklovDiagnostics", "dtn_operator",
                "harmonic_extension", "laplacian_spectrum", "steklov_eigenfunction_diagnostics",
                "steklov_spectrum"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return __all__
