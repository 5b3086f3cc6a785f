"""Twirling: group averaging onto an invariant family.

The average of V rho V^dag over local unitaries (drawn per pair, with a
conjugate on the second member where the family demands it) projects any
state onto the invariant simplex.  The exact projection needs no
integral, only the overlaps with the family projectors; the Monte-Carlo
average converges to it at the usual 1/sqrt(N) rate.
"""

import numpy as np

import invariant_states as iv
from invariant_states import Rng
from invariant_states.selfcheck import basis_ket, frobenius_distance, projector_onto

d = 2
sigma = (0,)
rho = projector_onto(d, basis_ket(d, "01"))
print("input: the product basis state |01><01| of one qubit pair\n")

desc = iv.fidelities_of(rho, sigma)
print("exact projection fidelities:", desc.fidelities)
target = iv.synthesize(desc)
print("projected state:\n", np.round(target.mat.real, 4))

print("\nMonte-Carlo average vs sample count (seed 0):")
print(f"  {'N':>6}  distance to exact   sqrt(N) * distance")
for n in (100, 400, 1600, 6400):
    estimate = iv.mc_twirl(rho, sigma, n, Rng(0))
    dist = frobenius_distance(estimate, target)
    print(f"  {n:>6}  {dist:.6f}            {np.sqrt(n) * dist:.3f}")
print("the scaled column is flat: the error shrinks like 1/sqrt(N)")

# determinism: the estimator is a pure function of (state, family, N, rng)
a = iv.mc_twirl(rho, sigma, 500, Rng(123))
b = iv.mc_twirl(rho, sigma, 500, Rng(123))
print("\nsame seed twice gives bit-identical averages:", np.array_equal(a.mat, b.mat))

# an invariant state is fixed by every conjugation, so any N will do
fixed = iv.synthesize(iv.StateDescriptor(d, sigma, [0.7, 0.3]))
est = iv.mc_twirl(fixed, sigma, 8, Rng(7))
print("invariant input passes through unchanged:",
      frobenius_distance(est, fixed) < 1e-12)

# the isotropic-family twirl conjugates the second slot
iso = iv.fidelities_of(rho, (1,))
print("\nisotropic-family projection of the same input:", iso.fidelities)
est_iso = iv.mc_twirl(rho, (1,), 4000, Rng(1))
print("Monte-Carlo agrees to",
      f"{frobenius_distance(est_iso, iv.synthesize(iso)):.4f}")
