"""Locally unitary-invariant states of 2K qudits.

Generalized Werner and isotropic families over K qudit pairs and every
mixture in between: dense operator algebra, projector families, fidelity
simplices, exact and Monte-Carlo twirls, partial transposition on
fidelities, separability criteria, and pair reductions.
"""

from .bits import all_vectors, as_bits
from .operators import (
    Operator,
    Rng,
    basis_ket,
    frobenius_distance,
    haar_unitary,
    identity,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    projector_onto,
    tensor_product,
)
from .projectors import invariant_projector, projector_trace
from .simplex import (
    ConstraintFailure,
    SeparabilityVerdict,
    StateDescriptor,
    biseparable_fidelities,
    check_polytope,
    check_ppt,
    check_ppt_all,
    extremal_fidelities,
    fidelities_of,
    mc_twirl,
    pt_matrix,
    reduce_mixed_pair,
    reduce_pair,
    synthesize,
    transform_fidelities,
)

__version__ = "0.1.0"

__all__ = [
    "Operator",
    "Rng",
    "StateDescriptor",
    "SeparabilityVerdict",
    "ConstraintFailure",
    "all_vectors",
    "as_bits",
    "basis_ket",
    "biseparable_fidelities",
    "check_polytope",
    "check_ppt",
    "check_ppt_all",
    "extremal_fidelities",
    "fidelities_of",
    "frobenius_distance",
    "haar_unitary",
    "identity",
    "invariant_projector",
    "mc_twirl",
    "min_eigenvalue",
    "partial_trace",
    "partial_transpose",
    "projector_onto",
    "projector_trace",
    "pt_matrix",
    "reduce_mixed_pair",
    "reduce_pair",
    "synthesize",
    "tensor_product",
    "transform_fidelities",
]
