"""Locally unitary-invariant states of 2K qudits.

Generalized Werner and isotropic families over K qudit pairs and every
mixture in between: dense operator algebra, projector families, fidelity
simplices, exact and Monte-Carlo twirls, partial-transpose transfer
matrices, separability criteria, and pair reductions.
"""

from .bits import all_vectors, as_bits, bits_str, parse_bits, xor
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
from .projectors import (
    flip,
    invariant_projector,
    isotropic_projector,
    max_entangled_projector,
    pair_projector,
    projector_trace,
    werner_projector,
)
from .simplex import (
    ConstraintFailure,
    SeparabilityVerdict,
    StateDescriptor,
    TransferMatrix,
    biseparable_fidelities,
    check_polytope,
    check_ppt,
    check_ppt_all,
    extract_fidelities,
    extremal_fidelities,
    extremal_product_state,
    fidelities_of,
    isotropic_pt_matrix,
    maximally_mixed_pair,
    mc_twirl,
    pt_matrix,
    reduce_mixed_pair,
    reduce_pair,
    synthesize,
    transform_fidelities,
    werner_pt_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Operator",
    "Rng",
    "StateDescriptor",
    "TransferMatrix",
    "SeparabilityVerdict",
    "ConstraintFailure",
    "all_vectors",
    "as_bits",
    "basis_ket",
    "bits_str",
    "biseparable_fidelities",
    "check_polytope",
    "check_ppt",
    "check_ppt_all",
    "extract_fidelities",
    "extremal_fidelities",
    "extremal_product_state",
    "fidelities_of",
    "flip",
    "frobenius_distance",
    "haar_unitary",
    "identity",
    "invariant_projector",
    "isotropic_projector",
    "isotropic_pt_matrix",
    "max_entangled_projector",
    "maximally_mixed_pair",
    "mc_twirl",
    "min_eigenvalue",
    "pair_projector",
    "parse_bits",
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
    "werner_projector",
    "werner_pt_matrix",
    "xor",
]
