"""Occupation-time digitals stopped at the drawdown time.

Two products: the holder receives 1 if, up to the first a-drawdown,

* the log price spent less than T below a level xi        (digital B), or
* the relative drawdown spent less than T above a gap xi  (digital C).

Both reduce to one backward recursion over killed drawdown windows; on a
birth-death chain every window's exit weights come from fundamental-
solution pairs, and on a translation-invariant lattice the second one
collapses to a single window solve (the closed lattice form), which
``drawdown_occupation`` picks by itself.  The form takes no payoff, so
passing the payoff of ones sends the same price through the lattice sweep.
"""

import time

import numpy as np

from drawdown_ctmc import ModelSpec, build_generator, build_grid, build_levy_generator
from drawdown_ctmc.laplace import InversionConfig, inversion_nodes_weights, invert_values
from drawdown_ctmc.quantities import (
    drawdown_occupation,
    occupation_below_killing,
    occupation_until_drawdown,
)

RF = 0.05
bs = ModelSpec.bs(r_f=RF)

print("== digital B: occupation of the price below xi until the drawdown ==")
A, XI, T = 0.2, 0.1, 0.5
nodes, _ = inversion_nodes_weights(T, InversionConfig())
for n_x in (20, 40):
    gen = build_generator(bs, build_grid(0.0, A, n_x, -4.0, 4.0))
    vals = occupation_until_drawdown(gen, occupation_below_killing(nodes, XI, RF), A) / nodes
    print(f"  BS n_x={n_x}: {invert_values(vals, T):.5f}")

print("\n== digital C: occupation of the drawdown above xi ==")
A, XI, T = 0.2, 0.1, 0.1
nodes, _ = inversion_nodes_weights(T, InversionConfig())
for n_x in (20, 40):
    gen = build_generator(bs, build_grid(0.0, A, n_x, -4.0, 4.0))
    vals = drawdown_occupation(gen, nodes, A, XI, shift=RF) / nodes
    print(f"  BS n_x={n_x}: {invert_values(vals, T):.5f}")

print("\n== the lattice shortcut under the Kou model ==")
dejd = ModelSpec.dejd(r_f=RF)
gen = build_levy_generator(dejd, A / 40, -4.0, 4.0)
t0 = time.perf_counter()
fast = invert_values(drawdown_occupation(gen, nodes, A, XI, shift=RF) / nodes, T)
t_fast = time.perf_counter() - t0
t0 = time.perf_counter()
slow = invert_values(drawdown_occupation(gen, nodes, A, XI, f=np.ones(gen.n), shift=RF)
                     / nodes, T)
t_slow = time.perf_counter() - t0
print(f"  closed lattice form: {fast:.5f}  in {t_fast * 1e3:.1f} ms")
print(f"  windowed sweep:      {slow:.5f}  in {t_slow * 1e3:.1f} ms")
print(f"  agreement {abs(fast - slow):.2e}, speedup {t_slow / t_fast:.0f}x")
