"""Locally unitary-invariant states of 2K qudits.

Generalized Werner and isotropic families over K qudit pairs and every
mixture in between: a dense operator value type, projector traces,
fidelity simplices, exact and Monte-Carlo twirls, partial transposition
on fidelities, separability criteria, and pair reductions.  The dense
brute-force oracles and helpers (identity, partial trace, Frobenius
distance) live in :mod:`.selfcheck`, which this package does not import.
"""

from .bits import all_vectors, as_bits
from .operators import Operator, Rng
from .projectors import projector_trace
from .simplex import (
    ConstraintFailure,
    SeparabilityVerdict,
    StateDescriptor,
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
    "check_polytope",
    "check_ppt",
    "check_ppt_all",
    "extremal_fidelities",
    "fidelities_of",
    "mc_twirl",
    "projector_trace",
    "pt_matrix",
    "reduce_mixed_pair",
    "reduce_pair",
    "synthesize",
    "transform_fidelities",
]
