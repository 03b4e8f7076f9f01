"""Windowed first-passage solves and the tridiagonal fast machinery.

Everything downstream is built from one primitive: the value of a killed
exit problem on a window (l, r], with a payoff collected outside.  On
birth-death chains any such value is a determinant ratio of two
fundamental solutions, which this demo verifies directly.
"""

import numpy as np

from drawdown_ctmc import ModelSpec, build_generator, build_grid, psi_pair

gen = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 10, -1.0, 0.6))
n = gen.n
q = 1.0

print("== killed exit problem on the window (-0.2, 0] ==")
i = gen.grid.eta_x
lo = i - gen.grid.steps_of(0.2) + 1       # the window's states are lo..i
rhs = np.zeros(i - lo + 1)
rhs[-1] = gen.up[i]                        # pay 1 when exiting one step above
value = np.linalg.solve(q * np.eye(i - lo + 1) - gen.window_block(lo, i), rhs)[-1]
print(f"value at the window top: {value:.6f}")

print("\n== the same number from the fundamental-solution pair ==")
psi = psi_pair(gen, q)
up, down = psi.exit_weights(i, lo - 1, i + 1)
print(f"up-exit weight  : {up[0].real:.6f}   (matches the solve above)")
print(f"down-exit weight: {down[0].real:.6f}")
print(f"total exit weight under killing: {up[0].real + down[0].real:.6f}  (< 1)")

print("\n== behavior of the pair ==")
# psi+ and psi- are the exit weights of the whole chain at its top and bottom
plus, minus = psi.exit_weights(np.arange(0, n, max(1, n // 8)), 0, n - 1)
print("psi+ rises from 0 at the bottom to 1 at the top:")
print("  ", [round(float(v), 4) for v in plus.real])
print("psi- mirrors it:")
print("  ", [round(float(v), 4) for v in minus.real])

print("\n== killing dampens the exit weights monotonically ==")
for qq in (1.0, 10.0, 100.0):
    u, d = psi_pair(gen, qq).exit_weights(i, lo - 1, i + 1)
    print(f"q = {qq:>5}: |up| + |down| = {abs(u[0]) + abs(d[0]):.6f}")

print("\nscaled storage handles arguments that would overflow raw doubles:")
big = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 160, -4.0, 4.0))
top = big.grid.eta_x
u, d = psi_pair(big, 92 + 800j).exit_weights(top, top - 160, top + 1)
print(f"  |up| = {abs(u[0]):.3e}, |down| = {abs(d[0]):.3e} at q = 92+800j on {big.n} states")
