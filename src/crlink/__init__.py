"""Exact spherical CR geometry on link complements.

Boundary geometry of complex hyperbolic 2-space in Heisenberg coordinates,
CR ideal tetrahedra with their full parameter system, gluing schemes with
invariant-compatibility and edge-cycle equations, and integral holonomy
certificates for the figure-eight knot and Whitehead link fixtures.
"""

from .scalars import (
    CycloNumber,
    I,
    OMEGA,
    OMEGA_BAR,
    ONE,
    SQRT2,
    SQRT3,
    ZERO,
    constant,
    in_ring,
    parse_scalar,
)
from .heisenberg import (
    Chain,
    HPoint,
    INFINITY,
    cartan,
    chain_point,
    chain_through,
    cocycle,
    h_inv,
    h_mul,
    herm,
    inversion_I,
    iota_x,
    lift,
    signature,
)
from .isometry import (
    IsometryClass,
    Mat3,
    ProjIsometry,
    check_unitary,
    classify,
    eval_word,
    from_triples,
    matrix_in_ring,
    translation_part,
)
from .tetra import (
    TetraParams,
    Tetrahedron,
    cartan_tangents,
    face_sample,
    faces_disjoint,
    is_regular,
    is_symmetric,
    params_from_points,
    realize_special,
    special_symmetric,
    symmetry_map,
    ts_from_params,
)
from .complexes import (
    FacePairing,
    GluingScheme,
    cartan_compatibility,
    figure_eight_scheme,
    symmetric_gluing_solver,
)
from .fixtures import (
    build_figure_eight,
    build_whitehead,
    cusp_analysis,
    verify_all,
    verify_figure_eight,
    verify_picard_words,
    verify_whitehead,
)

__all__ = [
    "CycloNumber", "constant", "in_ring", "parse_scalar",
    "I", "OMEGA", "OMEGA_BAR", "ONE", "SQRT2", "SQRT3", "ZERO",
    "HPoint", "INFINITY", "Chain", "h_mul", "h_inv", "lift", "herm",
    "signature", "cartan", "cocycle", "chain_through", "chain_point",
    "inversion_I", "iota_x",
    "Mat3", "ProjIsometry", "IsometryClass", "check_unitary", "classify",
    "from_triples", "translation_part", "eval_word", "matrix_in_ring",
    "Tetrahedron", "TetraParams", "params_from_points", "ts_from_params",
    "is_symmetric", "symmetry_map", "is_regular", "special_symmetric",
    "realize_special", "cartan_tangents", "face_sample", "faces_disjoint",
    "GluingScheme", "FacePairing", "figure_eight_scheme",
    "cartan_compatibility", "symmetric_gluing_solver",
    "build_figure_eight", "build_whitehead", "cusp_analysis",
    "verify_figure_eight", "verify_whitehead", "verify_picard_words",
    "verify_all",
]

__version__ = "0.1.0"
