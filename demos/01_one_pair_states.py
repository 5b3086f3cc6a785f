"""One qudit pair: the Werner and isotropic families.

A state commuting with every U (x) U is a mixture of the normalized
symmetric/antisymmetric projectors; a state commuting with every
U (x) conj(U) is a mixture of the maximally entangled projector and its
complement.  Each family is a segment parameterized by one fidelity, and
partial transposition maps one segment onto the other through a 2 x 2
transfer matrix.
"""

import numpy as np

import invariant_states as iv

d = 3
print(f"local dimension d = {d}\n")

# the two resolutions of the identity on a pair: member a of family s is
# invariant_projector(d, (s,), (a,)), and the exchange operator F is the
# difference of the symmetric and antisymmetric projectors
f = iv.invariant_projector(d, (0,), (0,)) - iv.invariant_projector(d, (0,), (1,))
print("exchange operator: trace =", f.trace().real, ", squares to identity:",
      np.allclose((f @ f).mat, np.eye(d * d)))
for a in (0, 1):
    q = iv.invariant_projector(d, (0,), (a,))
    p = iv.invariant_projector(d, (1,), (a,))
    print(f"  component {a}:  Tr(symmetric split) = {q.trace().real:4.1f}   "
          f"Tr(entangled split) = {p.trace().real:4.1f}")

# transposing one slot of the exchange operator produces the maximally
# entangled projector, which is why the two families are linked
pt = iv.partial_transpose(f, {2})
print("\npartial transpose of exchange = d * (max entangled projector):",
      np.allclose(pt.mat, d * iv.invariant_projector(d, (1,), (1,)).mat))

x = iv.pt_matrix((1,), (0,), d)
y = iv.pt_matrix((1,), (1,), d)
print("\nfidelity transfer matrices (rows sum to 1, one entry negative):")
print("Werner side:\n", x)
print("isotropic side:\n", y)
print("product is the identity:", np.allclose(x @ y, np.eye(2)))

# separability thresholds through the PPT test
print("\nWerner family: antisymmetric fidelity q1 sweeps 0 .. 1")
for q1 in (0.0, 0.25, 0.5, 0.5 + 1e-6, 0.75):
    desc = iv.StateDescriptor(d, (0,), [1 - q1, q1])
    verdict = iv.check_ppt(desc, (1,))
    print(f"  q1 = {q1:<12.6g} PPT {verdict.outcome}")
print("threshold sits exactly at q1 = 1/2")

print(f"\nisotropic family: entangled fidelity p1 sweeps around 1/d = {1/d:.4f}")
for p1 in (0.0, 1 / d - 1e-6, 1 / d + 1e-6, 0.9):
    desc = iv.StateDescriptor(d, (1,), [1 - p1, p1])
    verdict = iv.check_ppt(desc, (1,))
    print(f"  p1 = {p1:<12.6g} PPT {verdict.outcome}")
print("threshold sits exactly at p1 = 1/d")

# for these families PPT decides separability, and the same thresholds
# fall out of the extremal product-state bounds
print("\nextremal product state with overlap a:")
for a in (0.0, 0.5, 1.0):
    q = iv.extremal_fidelities((0,), [a], d)
    p = iv.extremal_fidelities((1,), [a], d)
    print(f"  a = {a:3.1f}:  Werner q = {np.round(q, 4)}   isotropic p = {np.round(p, 4)}")
print("the antisymmetric weight never exceeds 1/2, the entangled weight never 1/d")
