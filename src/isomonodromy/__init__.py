"""Meromorphic connections on the Riemann sphere at desk scale.

The library builds rank-n connections relative to the trivial flat reference,
twists them across matrix divisors, pairs tangent data with the residue
pairing, assembles spectral Hamiltonians, and realizes monodromy-preserving
deformation flows as a frozen-coefficient lift plus a Hamiltonian correction.
Numerical parallel transport of fundamental solutions serves as the
independent check for every deformation claim.
"""

from .connection import (
    BasePole,
    Connection,
    DiagonalJetPair,
    PolarDivisor,
    eigenvalue_jets,
    formal_diagonalize,
    gauge_transform,
    polar_decompose,
    reconstruction_defect,
    spectral_quadratic,
)
from .errors import (
    DegenerateChartError,
    IntegrationAbort,
    IsomonodromyError,
    MalformedInputError,
    PoleDomainError,
    PreconditionError,
    RegularityError,
)
from .flows import (
    Direction,
    DriftReport,
    FlowPath,
    Trajectory,
    auto_base_point,
    direction_differential,
    extend_state,
    extended_autonomous_rhs,
    integrate_extended,
    integrate_flow,
    isomonodromic_rhs,
    lift_I0,
    section_S,
    verify_isomonodromy,
)
from .monodromy import (
    ArcSegment,
    LineSegment,
    MonodromyRep,
    Path,
    conjugacy_invariants,
    monodromy_rep,
    transport,
)
from .ratfun import (
    INFINITY,
    LaurentJet,
    RatMat,
    RatScalar,
    is_infinity,
    residue,
    residue_quadrature_oracle,
    residue_sum_all_poles,
)
from .states import ExtendedState, FlowState, PoleData
from .symplectic import (
    TangentVec,
    gram_matrix,
    hamiltonian_beta_B,
    hamiltonian_vector_field,
    induced_polar_variations,
    residue_pairing,
    symplectic_form,
    translation_hamiltonian_values,
)
from .twist import (
    MatrixDivisor,
    TwistSite,
    degree,
    normal_form,
    pull_connection,
    push_connection,
    total_trace_residue,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSegment", "BasePole", "Connection", "DegenerateChartError",
    "DiagonalJetPair", "Direction", "DriftReport", "ExtendedState", "FlowPath",
    "FlowState", "INFINITY", "IntegrationAbort", "IsomonodromyError",
    "LaurentJet", "LineSegment", "MalformedInputError", "MatrixDivisor",
    "MonodromyRep", "Path", "PolarDivisor", "PoleData", "PoleDomainError",
    "PreconditionError", "RatMat", "RatScalar", "RegularityError",
    "TangentVec", "Trajectory", "TwistSite", "auto_base_point",
    "conjugacy_invariants", "degree", "direction_differential",
    "eigenvalue_jets", "extend_state", "extended_autonomous_rhs",
    "formal_diagonalize", "gauge_transform", "gram_matrix",
    "hamiltonian_beta_B", "hamiltonian_vector_field",
    "induced_polar_variations", "integrate_extended", "integrate_flow",
    "is_infinity", "isomonodromic_rhs", "lift_I0", "monodromy_rep",
    "normal_form", "polar_decompose", "pull_connection", "push_connection",
    "reconstruction_defect", "residue", "residue_pairing",
    "residue_quadrature_oracle", "residue_sum_all_poles",
    "section_S", "spectral_quadratic", "symplectic_form",
    "total_trace_residue", "translation_hamiltonian_values", "transport",
    "verify_isomonodromy",
]
