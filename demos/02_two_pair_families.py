"""Two qudit pairs: four projector families and a 3-simplex of states.

With pairs on slots (1,3) and (2,4) of a four-qudit space, each pair
independently picks the Werner or the isotropic resolution, giving
families labeled by sigma in {00, 01, 10, 11}.  Every family consists of
four orthogonal projectors summing to the identity; the invariant states
of that family form a tetrahedron whose barycentric coordinates are the
fidelities.
"""

import numpy as np

import invariant_states as iv
from invariant_states import all_vectors, formats
from invariant_states.bits import bits_str
from invariant_states.selfcheck import frobenius_distance, invariant_projector, partial_trace

d = 2
print(f"local dimension d = {d}, two pairs on slots (1,3) and (2,4)\n")

print("projector traces per family (rows: sigma, columns: alpha):")
header = "  ".join(f"a={bits_str(a)}" for a in all_vectors(2))
print(f"  sigma      {header}")
for sigma in all_vectors(2):
    traces = [iv.projector_trace(d, sigma, a) for a in all_vectors(2)]
    closed = "  ".join(f"{t:4.0f}" for t in traces)
    print(f"  {bits_str(sigma)}        {closed}   (sum = {sum(traces):.0f} = d^4)")

# dense confirmation for one family
sigma = (0, 1)
dense = [invariant_projector(d, sigma, a).trace().real for a in all_vectors(2)]
print(f"\ndense traces for sigma = {bits_str(sigma)}:", dense)

# a simplex vertex is a normalized projector; the all-ones vertex of the
# isotropic family is the product of two maximally entangled pairs
vertex = iv.StateDescriptor(d, (1, 1), [0, 0, 0, 1.0])
rho = iv.synthesize(vertex)
ent = invariant_projector(d, (1,), (1,))
print("\nvertex 11 of family 11 equals the embedded entangled product:",
      frobenius_distance(rho, invariant_projector(d, (1, 1), (1, 1))) < 1e-12)
print("its single-pair marginals are the entangled projector itself:",
      np.allclose(partial_trace(rho, {2, 4}).mat, ent.mat))

# generic point: fidelities round trip through the dense matrix
desc = iv.StateDescriptor(d, (0, 1), [0.42, 0.18, 0.3, 0.1])
back = iv.fidelities_of(iv.synthesize(desc), desc.sigma)
print("\nround trip through synthesis, max deviation:",
      float(np.max(np.abs(back.fidelities - desc.fidelities))))

print("\ncanonical descriptor JSON:")
print(" ", formats.dumps_descriptor(desc).strip())

# reductions: dropping a pair marginalizes its fidelity bit
reduced = iv.reduce_pair(desc, 2)
print("drop pair 2 -> family", bits_str(reduced.sigma),
      "with fidelities", reduced.fidelities)
dense = iv.fidelities_of(partial_trace(iv.synthesize(desc), {2, 4}), (0,)).fidelities
print("dense partial trace agrees:", np.allclose(reduced.fidelities, dense))

# tracing two slots that are not a matched pair destroys all structure
mixed = partial_trace(iv.synthesize(desc), {1, 4})
print("tracing slots 1 and 4 leaves the maximally mixed pair:",
      np.allclose(mixed.mat, np.eye(d * d) / d**2))
