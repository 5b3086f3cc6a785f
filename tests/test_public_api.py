"""The package's public surface: exactly these names, each importable."""

import invariant_states as iv

PUBLIC = {
    "ConstraintFailure",
    "Operator",
    "Rng",
    "SeparabilityVerdict",
    "StateDescriptor",
    "all_vectors",
    "as_bits",
    "basis_ket",
    "biseparable_fidelities",
    "check_polytope",
    "check_ppt",
    "check_ppt_all",
    "extremal_fidelities",
    "extremal_product_state",
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
}


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 31
    assert len(iv.__all__) == len(set(iv.__all__))
    assert set(iv.__all__) == PUBLIC
    for name in iv.__all__:
        assert getattr(iv, name) is not None


def test_helpers_stay_importable_from_their_modules():
    from invariant_states.bits import bits_str, parse_bits, xor
    from invariant_states.simplex import extract_fidelities, maximally_mixed_pair

    assert bits_str(parse_bits("011")) == "011" and xor((0, 1), (1, 1)) == (1, 0)
    assert callable(extract_fidelities) and maximally_mixed_pair(2).K == 1


def test_one_pair_builders_are_gone():
    for name in ("flip", "max_entangled_projector", "werner_projector", "isotropic_projector"):
        assert not hasattr(iv, name) and not hasattr(iv.projectors, name)
