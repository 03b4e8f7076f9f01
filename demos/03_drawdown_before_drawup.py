"""Probability that a drawdown of size a precedes a drawup of size b.

The quantity is resolved in the Laplace domain by a double recursion over
the running maximum and running minimum, evaluated at all inversion nodes
in one pass, then inverted at the maturity.
Start: price at its running maximum, running minimum 10% below.
"""

import numpy as np

from drawdown_ctmc import ModelSpec, build_generator, build_grid
from drawdown_ctmc.laplace import InversionConfig, inversion_nodes_weights, invert_values, richardson
from drawdown_ctmc.quantities import drawdown_before_drawup, q_drawdown

A, B, T = 0.2, 0.3, 0.5
X, Y = 0.0, float(np.log(0.9))
model = ModelSpec.bs(r_f=0.05)
nodes, _ = inversion_nodes_weights(T, InversionConfig())

print(f"P(drawdown {A} before drawup {B}, within T={T}) under BS\n")
print("  n_x   value      extrapolated")
prev = None
for n_x in (10, 20, 40):
    gen = build_generator(model, build_grid(X, A, n_x, -4.0, 4.0))
    price = invert_values(drawdown_before_drawup(gen, nodes, A, B, x=X, y=Y) / nodes, T)
    extra = "" if prev is None else f"{richardson(prev, price):.5f}"
    print(f"  {n_x:>3}   {price:.5f}    {extra}")
    prev = price

print("\nSanity bounds at one resolution (n_x = 20):")
gen = build_generator(model, build_grid(X, A, 20, -4.0, 4.0))
with_up = invert_values(drawdown_before_drawup(gen, nodes, A, B, x=X, y=Y) / nodes, T)
plain = invert_values(q_drawdown(gen, nodes, A, x=X) / nodes, T)
unreachable = invert_values(drawdown_before_drawup(gen, nodes, A, 7.0, x=X, y=Y) / nodes, T)
print(f"  with the drawup racing:        {with_up:.5f}")
print(f"  plain drawdown probability:    {plain:.5f}   (an upper bound)")
print(f"  drawup level out of reach:     {unreachable:.5f}   (equals the plain value)")

print("\nLower starting minimum = head start for the drawup:")
for y in (0.0, -0.05, -0.10536, -0.2):
    v = invert_values(drawdown_before_drawup(gen, nodes, A, B, x=X, y=y) / nodes, T)
    print(f"  start minimum {y:+.5f}: {v:.5f}")
