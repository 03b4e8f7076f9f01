"""Convergence order and the two independent verification routes.

First-order error decay in the grid resolution, halved errors under
refinement, and the two oracles that guard the recursions: a one-shot
sparse solve on the augmented (position, running max) chain, and an
unbiased simulation of the jump chain with the holding times integrated
out.
"""

from drawdown_ctmc import ModelSpec, build_generator, build_grid
from drawdown_ctmc.cli import load_config, run_convergence
from drawdown_ctmc.oracle import McConfig, dense_product_solve, mc_estimate
from drawdown_ctmc.quantities import QuantityRequest, q_drawdown

print("== first-order convergence of the occupation digital (BS) ==")
cfg = load_config(None, [
    "model.kind=BS", "model.r_f=0.05", "model.d=0.02", "model.sigma=0.3",
    "quantity.kind=B", "quantity.a=0.2", "quantity.xi=0.1", "quantity.t=0.5",
    "grid.n_x=10,20,40,80", "output.benchmark=0.90338",
])
table, pairs, slope = run_convergence(cfg)
print("  n_x    value     abs err")
for row in table.rows:
    print(f"  {row.n_x:>3}   {row.value:.5f}   {row.abs_err:.5f}")
print(f"  fitted log-log slope: {slope:.3f}  (first order = -1)")

print("\n== oracle 1: augmented-chain solve ==")
gen = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 8, -1.2, 0.8))
req = QuantityRequest("Q", a=0.2, q=1.0)
recursive = q_drawdown(gen, 1.0, 0.2).real
oneshot = dense_product_solve(gen, req).real
print(f"  backward recursion: {recursive:.12f}")
print(f"  product-chain solve: {oneshot:.12f}")
print(f"  |difference| = {abs(recursive - oneshot):.2e}")

print("\n== oracle 2: jump-chain simulation, holding times integrated out ==")
est, stderr = mc_estimate(gen, req, McConfig(n_paths=200_000, seed=7))
z = (est - recursive) / stderr
print(f"  simulation: {est:.5f} +- {stderr:.1e}   (z = {z:+.2f})")
est2, _ = mc_estimate(gen, req, McConfig(n_paths=200_000, seed=7))
print(f"  same seed reproduces bitwise: {est == est2}")

print("\n== stderr shrinks like 1/sqrt(paths) ==")
for n_paths in (10_000, 40_000, 160_000):
    _, e = mc_estimate(gen, req, McConfig(n_paths=n_paths, seed=3))
    print(f"  {n_paths:>7} paths: stderr {e:.2e}")
