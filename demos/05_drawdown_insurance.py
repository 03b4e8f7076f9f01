"""Insurance against repeated relative drawdowns.

The seller pays 1 at every a-drawdown event before maturity.  Two event
conventions:

* without recovery -- after an event the reference maximum restarts at
  the current price (every new a-drop from the post-event high pays);
* with recovery    -- the price must first climb back to the previous
  event's high before the next event can count.

Both prices are Laplace inversions of event-sum fixed points; under a
diffusion the with-recovery sum collapses to a linear-time backward
recursion, and on a translation-invariant lattice both have scalar
closed forms.
"""

import numpy as np

from drawdown_ctmc import ModelSpec, build_generator, build_grid, build_levy_generator
from drawdown_ctmc.laplace import InversionConfig, inversion_nodes_weights, invert_values
from drawdown_ctmc.quantities import (
    QuantityRequest,
    evaluate,
    insurance_no_recovery,
    insurance_with_recovery,
    nth_drawdown_no_recovery,
)

RF = 0.05
A = -np.log(1 - 0.25)        # a 25% relative drawdown
T = 1.0
nodes, _ = inversion_nodes_weights(T, InversionConfig())

print(f"25%-drawdown insurance, maturity {T}y (BS, n_x = 40)\n")
gen = build_generator(ModelSpec.bs(r_f=RF), build_grid(0.0, A, 40, -4.0, 4.0))
no_rec = invert_values(insurance_no_recovery(gen, nodes + RF, A) / nodes, T)
with_rec = invert_values(insurance_with_recovery(gen, nodes + RF, A) / nodes, T)
print(f"  expected discounted payments, no recovery:   {no_rec:.5f}")
print(f"  expected discounted payments, with recovery: {with_rec:.5f}")
print("  (recovery gating always lowers the price)")

print("\nEvent-by-event decomposition at one Laplace argument (q = 1.05):")
total = insurance_no_recovery(gen, 1.05, A).real
running = 0.0
for k in (1, 2, 3, 4, 5):
    term = nth_drawdown_no_recovery(gen, 1.05, A, n=k).real
    running += term
    print(f"  event {k}: transform {term:.6f}, partial sum {running:.6f}")
print(f"  fixed-point total: {total:.6f}")

print("\nSame products under the Kou model via the lattice closed forms:")
dejd = ModelSpec.dejd(r_f=RF)
lat = build_levy_generator(dejd, A / 40, -4.0, 4.0)
no_rec = invert_values(evaluate(lat, QuantityRequest("Hsum", a=A, q=nodes + RF)) / nodes, T)
with_rec = invert_values(evaluate(lat, QuantityRequest("Jsum", a=A, q=nodes + RF)) / nodes, T)
print(f"  no recovery:   {no_rec:.5f}")
print(f"  with recovery: {with_rec:.5f}")
