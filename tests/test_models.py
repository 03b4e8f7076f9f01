import math

import numpy as np
import pytest

from drawdown_ctmc.models import (
    ModelSpec,
    UnboundedMass,
    diffusion_var,
    drift,
    levy_bin_mass,
    levy_bin_mean,
    levy_density,
    small_jump_compensators,
    truncated_drift,
)


def riemann_mass(model, lo, hi, n=1_000_000):
    y = np.linspace(lo, hi, n + 1)
    mid = 0.5 * (y[1:] + y[:-1])
    return float(np.sum(levy_density(model, mid)) * (hi - lo) / n)


class TestDrift:
    def test_bs_value(self):
        assert drift(ModelSpec.bs(sigma=0.3, r_f=0.5, d=0.02)) == pytest.approx(0.435, abs=1e-15)
        # independent of the state
        assert drift(ModelSpec.bs(), 1.7) == drift(ModelSpec.bs(), -2.0)

    def test_cev_reduces_to_bs_at_origin(self):
        cev = ModelSpec.cev(sigma=0.3, beta=-0.25, r_f=0.5, d=0.02)
        assert drift(cev, 0.0) == pytest.approx(0.435, abs=1e-15)

    def test_cev_beta_zero_matches_bs_pointwise(self):
        cev = ModelSpec.cev(beta=0.0)
        bs = ModelSpec.bs()
        for x in (-2.0, -0.3, 0.0, 1.5):
            assert drift(cev, x) == pytest.approx(drift(bs, x), abs=1e-15)
            assert diffusion_var(cev, x) == pytest.approx(diffusion_var(bs, x), abs=1e-15)

    def test_dejd_drift_direct_arithmetic(self):
        m = ModelSpec.dejd(sigma=0.3, lam=3.0, p_plus=0.5, p_minus=0.5,
                           eta_plus=10.0, eta_minus=10.0, r_f=0.5, d=0.02)
        zeta = 0.5 * 10 / 9 + 0.5 * 10 / 11 - 1.0
        assert drift(m) == pytest.approx(0.435 - 3.0 * zeta, abs=1e-14)

    def test_vg_drift_is_martingale_correction(self):
        m = ModelSpec.vg()
        corr = math.log(1 - m.theta * m.nu_vg - 0.5 * m.sigma**2 * m.nu_vg) / m.nu_vg
        assert drift(m) == pytest.approx(m.r_f - m.d + corr, abs=1e-12)

    def test_truncated_drift_adds_unit_jump_mean(self):
        m = ModelSpec.vg()
        extra = levy_bin_mean(m, -1.0, 0.0) + levy_bin_mean(m, 0.0, 1.0)
        assert truncated_drift(m) == pytest.approx(drift(m) + extra, rel=1e-12)
        # diffusions: no change
        assert truncated_drift(ModelSpec.bs()) == drift(ModelSpec.bs())


class TestDiffusionVar:
    def test_values(self):
        assert diffusion_var(ModelSpec.bs(sigma=0.3), 12.3) == pytest.approx(0.09)
        assert diffusion_var(ModelSpec.cev(sigma=0.3, beta=-0.25), 0.0) == pytest.approx(0.09)
        assert diffusion_var(ModelSpec.vg(), 0.5) == 0.0

    def test_cev_state_dependence(self):
        m = ModelSpec.cev(sigma=0.3, beta=-0.25)
        assert diffusion_var(m, 1.0) == pytest.approx(0.09 * math.exp(-0.5), rel=1e-14)


class TestLevyBinMass:
    def test_dejd_closed_form(self):
        m = ModelSpec.dejd(lam=3.0, p_plus=0.5, eta_plus=10.0)
        expect = 1.5 * (math.exp(-1.0) - math.exp(-2.0))
        val = levy_bin_mass(m, 0.1, 0.2)
        assert np.ndim(val) == 0
        assert val == pytest.approx(expect, rel=1e-14)

    def test_bs_has_no_jumps(self):
        assert levy_bin_mass(ModelSpec.bs(), -3.0, 5.0) == 0.0

    def test_vg_bin_vs_riemann(self):
        m = ModelSpec.vg()
        h = 0.02
        exact = levy_bin_mass(m, h / 2, 4 * h)
        approx = riemann_mass(m, h / 2, 4 * h)
        assert exact == pytest.approx(approx, rel=1e-9)

    def test_vg_infinite_tail_bin(self):
        m = ModelSpec.vg()
        total = levy_bin_mass(m, 0.005, math.inf)
        split = levy_bin_mass(m, 0.005, 0.4) + levy_bin_mass(m, 0.4, math.inf)
        assert total == pytest.approx(split, rel=1e-13)

    def test_unbounded_mass_guard(self):
        with pytest.raises(UnboundedMass):
            levy_bin_mass(ModelSpec.vg(), -0.01, 0.01)
        # every bin lies on one side of 0, finite activity included
        with pytest.raises(UnboundedMass):
            levy_bin_mass(ModelSpec.dejd(), -0.1, 0.1)

    def test_tail_mass_additivity(self):
        m = ModelSpec.dejd()
        c = 0.05
        edges = np.linspace(c, 3.0, 41)
        total = sum(levy_bin_mass(m, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
        total += levy_bin_mass(m, 3.0, math.inf)
        expect = m.lam * m.p_plus * math.exp(-m.eta_plus * c)
        assert total == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_random_bins(self):
        rng = np.random.default_rng(3)
        for m in (ModelSpec.dejd(p_plus=0.7, p_minus=0.3, eta_plus=8.0, eta_minus=12.0), ModelSpec.vg()):
            for _ in range(40):
                side = rng.choice([-1.0, 1.0])
                lo = side * rng.uniform(0.001, 1.0)
                hi = lo + rng.uniform(0.001, 1.0) * (1 if side > 0 else 0.0009)
                lo, hi = min(lo, hi), max(lo, hi)
                if m.kind == "VG" and lo <= 0.0 <= hi:
                    continue
                assert levy_bin_mass(m, lo, hi) >= 0.0

    def test_vg_bins_vs_riemann(self):
        # negative-side bins and bins with an infinite end, in one array
        # call; the sums cut the infinite ends at |y| = 2, where the
        # remaining tail is below 1e-20 of any bin here
        m = ModelSpec.vg()
        lo = np.array([-0.4, -0.06, -np.inf, 0.05])
        hi = np.array([-0.02, -0.01, -0.2, np.inf])
        exact = levy_bin_mass(m, lo, hi)
        assert exact.shape == lo.shape
        for k in range(lo.size):
            approx = riemann_mass(m, max(lo[k], -2.0), min(hi[k], 2.0))
            assert exact[k] == pytest.approx(approx, rel=1e-9)


class TestCompensators:
    def test_bs_zero(self):
        assert small_jump_compensators(ModelSpec.bs(), -0.01, 0.01) == (0.0, 0.0)

    def test_dejd_symmetric_mean_vanishes(self):
        m = ModelSpec.dejd(p_plus=0.5, p_minus=0.5, eta_plus=10.0, eta_minus=10.0)
        b_bar, s2 = small_jump_compensators(m, -0.02, 0.02)
        assert b_bar == pytest.approx(0.0, abs=1e-15)
        assert s2 > 0.0

    def test_vg_window_variance_vs_riemann(self):
        m = ModelSpec.vg()
        h = 0.01
        _, s2 = small_jump_compensators(m, -h / 2, h / 2)
        y = np.linspace(-h / 2, h / 2, 2_000_001)
        mid = 0.5 * (y[1:] + y[:-1])
        ref = 0.5 * float(np.sum(mid**2 * levy_density(m, mid)) * h / 2_000_000)
        assert s2 == pytest.approx(ref, rel=1e-9)

    def test_unit_truncation_is_exact(self):
        # mass in b_bar only comes from |y| <= 1
        m = ModelSpec.dejd(p_plus=0.7, p_minus=0.3)
        b_bar, _ = small_jump_compensators(m, -0.05, 0.05)
        expect = (levy_bin_mean(m, -1.0, -0.05) + levy_bin_mean(m, 0.05, 1.0))
        assert b_bar == pytest.approx(expect, rel=1e-13)

    def test_second_moment_nonnegative(self):
        for m in (ModelSpec.dejd(), ModelSpec.vg()):
            _, s2 = small_jump_compensators(m, -0.03, 0.03)
            assert s2 >= 0.0


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="GBM")

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            ModelSpec.bs(sigma=0.0)

    def test_dejd_eta_plus_must_exceed_one(self):
        with pytest.raises(ValueError):
            ModelSpec.dejd(eta_plus=0.9)

    def test_dejd_probabilities(self):
        with pytest.raises(ValueError):
            ModelSpec.dejd(p_plus=0.7, p_minus=0.7)

    def test_vg_martingale_domain(self):
        with pytest.raises(ValueError):
            ModelSpec.vg(theta=300.0, sigma=1.0, nu_vg=0.01)

    def test_immutability(self):
        m = ModelSpec.bs()
        with pytest.raises(Exception):
            m.sigma = 0.5
