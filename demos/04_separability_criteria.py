"""Separability geometry of two-pair invariant states.

Two complementary tools:

* PPT tests: transposing any subset of second members acts on fidelities
  through a transfer matrix; negativity of any transformed entry rules
  out the corresponding separability.
* polytope bounds: fidelities of twirled product states obey explicit
  linear inequalities, necessary conditions for full separability.

The two do not coincide: below, one state passes every polytope bound yet
fails a PPT pattern, and another is separable across the global cut while
failing full separability.
"""

import numpy as np

import invariant_states as iv
from invariant_states import StateDescriptor, formats
from invariant_states.bits import bits_str

d = 2
print(f"two qubit pairs (d = {d})\n")

# --- all PPT patterns on a sample point ------------------------------------
desc = StateDescriptor(d, (0, 0), [0.55, 0.15, 0.2, 0.1])
print("sample Werner-family point:", desc.fidelities)
for mu in iv.all_vectors(2):
    transformed = iv.transform_fidelities(desc, mu)
    verdict = iv.check_ppt(desc, mu)
    print(f"  pattern {bits_str(mu)}: transformed fidelities {np.round(transformed, 4)}"
          f"  -> {verdict.outcome}")

# --- the documented disagreement --------------------------------------------
print("\na point where the two criteria part ways:")
tricky = StateDescriptor(d, (0, 0), [0.4, 0.3, 0.3, 0.0])
print("fidelities:", tricky.fidelities)
poly = iv.check_polytope(tricky)
ppt11 = iv.check_ppt(tricky, (1, 1))
print("  polytope bounds:", poly.outcome, "(necessary conditions only)")
print("  all-pairs PPT:  ", ppt11.outcome,
      "->", [(fail.constraint, round(fail.value, 4)) for fail in ppt11.failures])
print("  so the polytope bounds alone cannot certify separability here")

# --- biseparable but not fully separable ------------------------------------
print("\nproduct of two maximally entangled pair projectors across the cut:")
ent = iv.invariant_projector(d, (1,), (1,))
q = iv.biseparable_fidelities(ent, ent)
print("twirled fidelities:", q)
bisep_desc = StateDescriptor(d, (0, 0), q)
full = iv.check_ppt_all(bisep_desc)
print("  biseparability (all-ones PPT):", full.biseparable.outcome)
print("  full separability (all patterns):", full.outcome,
      "->", sorted({fail.constraint for fail in full.failures}))
print("  separable across the global cut, entangled within the pairs")

print("\nverdict JSON for scripting:")
print(" ", formats.dumps_verdict(full).strip())

# --- extremal product points stay inside everything --------------------------
print("\nrandom twirled product states satisfy both criteria (necessity):")
gen = np.random.default_rng(5)
count = 0
for _ in range(200):
    sigma = tuple(gen.integers(0, 2, 2))
    f = iv.extremal_fidelities(sigma, gen.uniform(0, 1, 2), d)
    point = StateDescriptor(d, sigma, f)
    count += iv.check_polytope(point).satisfied and iv.check_ppt_all(point).satisfied
print(f"  {count}/200 random extremal points pass both checks")
