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
}


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 19
    assert len(iv.__all__) == len(set(iv.__all__))
    assert set(iv.__all__) == PUBLIC
    for name in iv.__all__:
        assert getattr(iv, name) is not None


def test_helpers_stay_importable_from_their_modules():
    from invariant_states.bits import bits_str, parse_bits, xor
    from invariant_states.simplex import maximally_mixed_pair

    assert bits_str(parse_bits("011")) == "011" and xor((0, 1), (1, 1)) == (1, 0)
    assert maximally_mixed_pair(2).K == 1


MOVED = (
    "basis_ket",
    "projector_onto",
    "tensor_product",
    "partial_transpose",
    "min_eigenvalue",
    "invariant_projector",
    "_pair_block",
    "biseparable_fidelities",
    "identity",
    "_check_subsystems",
    "partial_trace",
    "frobenius_distance",
)


def test_dense_oracles_live_in_selfcheck():
    from invariant_states import selfcheck

    assert callable(selfcheck.extremal_product_state) and callable(selfcheck._dense_fidelities)
    for name in ("extract_fidelities", "extremal_product_state"):
        assert not hasattr(iv, name) and not hasattr(iv.simplex, name)
    library = (iv, iv.operators, iv.projectors, iv.simplex)
    for name in MOVED:
        assert callable(getattr(selfcheck, name)), name
        assert not any(hasattr(module, name) for module in library), name
    assert not any(hasattr(module, "haar_unitary") for module in library + (selfcheck,))


def test_one_pair_builders_are_gone():
    for name in ("flip", "max_entangled_projector", "werner_projector", "isotropic_projector"):
        assert not hasattr(iv, name) and not hasattr(iv.projectors, name)
