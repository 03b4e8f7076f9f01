"""Windowed first-passage solves and the tridiagonal fast machinery.

Everything downstream is built from one primitive: the value of a killed
exit problem on a window (l, r], with a payoff collected outside.  On
birth-death chains any such value is a determinant ratio of two
fundamental solutions, which this demo verifies directly.
"""

import numpy as np

from drawdown_ctmc import (
    ModelSpec,
    build_generator,
    build_grid,
    hitting_coeffs_diffusion,
    psi_pair,
    solve_passage,
)

gen = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 10, -1.0, 0.6))
n = gen.n
q = 1.0

print("== killed exit problem on the window (-0.2, 0] ==")
f = np.zeros(n)
f[gen.grid.index_of(0.02)] = 1.0      # pay 1 when exiting one step above
sol = solve_passage(gen, (-0.2, 0.0), q, f)
i = gen.grid.eta_x
print(f"value at the window top: {sol.at(i).real:.6f}")

print("\n== the same number from the fundamental-solution pair ==")
psi = psi_pair(gen, q)
up, down = hitting_coeffs_diffusion(psi, q, 0.0, 0.2)
print(f"up-exit weight  : {up.real:.6f}   (matches the solve above)")
print(f"down-exit weight: {down.real:.6f}")
print(f"total exit weight under killing: {up.real + down.real:.6f}  (< 1)")

print("\n== behavior of the pair ==")
print("psi+ rises from 0 at the bottom to 1 at the top:")
print("  ", [round(float(psi.psi_plus(k).real), 4) for k in range(0, n, max(1, n // 8))])
print("psi- mirrors it:")
print("  ", [round(float(psi.psi_minus(k).real), 4) for k in range(0, n, max(1, n // 8))])

print("\n== killing dampens the exit weights monotonically ==")
for qq in (1.0, 10.0, 100.0):
    u, d = hitting_coeffs_diffusion(psi_pair(gen, qq), qq, 0.0, 0.2)
    print(f"q = {qq:>5}: |up| + |down| = {abs(u) + abs(d):.6f}")

print("\nscaled storage handles arguments that would overflow raw doubles:")
big = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 160, -4.0, 4.0))
u, d = hitting_coeffs_diffusion(psi_pair(big, 92 + 800j), 92 + 800j, 0.0, 0.2)
print(f"  |up| = {abs(u):.3e}, |down| = {abs(d):.3e} at q = 92+800j on 6401 states")
