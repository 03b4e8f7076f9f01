"""Models and their chain approximation.

Walks through the four log-price models, the coefficient functions the
generator consumes, and the three generator storage regimes.
"""

import numpy as np

from drawdown_ctmc import (
    ModelSpec,
    build_generator,
    build_grid,
    build_levy_generator,
    diffusion_var,
    drift,
    levy_bin_mass,
)
from drawdown_ctmc.models import small_jump_compensators, truncated_drift

print("== model coefficients (per year) ==")
for model in (ModelSpec.bs(), ModelSpec.cev(), ModelSpec.dejd(), ModelSpec.vg()):
    print(f"{model.kind:>4}: drift {drift(model):+.4f}   "
          f"diffusion var {diffusion_var(model):.4f}   jumps: {model.has_jumps}")

print("\n== jump measure of the Kou model ==")
dejd = ModelSpec.dejd()
print("mass of an upward bin [0.1, 0.2]:   ", float(levy_bin_mass(dejd, 0.1, 0.2)))
print("mass of the whole upward tail:      ", float(levy_bin_mass(dejd, 1e-12, np.inf)))
print("  (= lam * p_plus =", dejd.lam * dejd.p_plus, ")")

print("\n== small jumps folded into local drift/variance (VG) ==")
vg = ModelSpec.vg()
h = 0.01
b_bar, s2_bar = small_jump_compensators(vg, -h / 2, h / 2)
print(f"window [-h/2, h/2] with h={h}: b_bar={b_bar:+.4f}  sigma2_bar={s2_bar:.6f}")
print(f"compensated drift fed to the generator: {truncated_drift(vg) - b_bar:+.4f}")

print("\n== three storage regimes ==")
grid = build_grid(0.0, 0.2, 20, -1.0, 1.0)
for model in (ModelSpec.bs(), ModelSpec.dejd()):
    gen = build_generator(model, grid)
    print(f"{model.kind:>4} via build_generator: {gen.structure:15s} ({gen.n} states)")
lat = build_levy_generator(ModelSpec.dejd(), 0.01, -1.0, 1.0)
print(f"DEJD via build_levy_generator: {lat.structure} ({lat.n} states)")
print("DEJD and VG rates have one builder; build_generator's chain is its dense copy:",
      np.array_equal(build_generator(ModelSpec.dejd(), grid).to_dense(), lat.to_dense()))

print("\nrow sums vanish (conservative rates):",
      float(np.abs(build_generator(ModelSpec.dejd(), grid).to_dense().sum(axis=1)).max()))
i = grid.eta_x
gen = build_generator(ModelSpec.bs(sigma=0.3, r_f=0.5, d=0.02), grid)
print(f"BS neighbor rates at the anchor: up {gen.up[i]:.2f}, down {gen.down[i]:.2f}")
print("  (drift/(2h) +- variance/(2h^2) with h=0.01)")
