import math
import os

import numpy as np
import pytest

from drawdown_ctmc.ctmc import (
    BadBounds,
    BirthDeathGenerator,
    Grid,
    NegativeRate,
    ToeplitzLevyGenerator,
    TooLarge,
    build_generator,
    build_grid,
    build_levy_generator,
    choose_drift_scheme,
    default_levy_truncation,
    _local_rates,
)
from drawdown_ctmc.models import ModelSpec


class TestGrid:
    def test_benchmark_grid_size(self):
        g = build_grid(0.0, 0.2, 20, -4.0, 4.0)
        assert g.h == pytest.approx(0.01)
        assert g.n == 801
        assert g.states[g.eta_x] == 0.0
        assert g.states[g.eta_x - 20] == pytest.approx(-0.2, abs=1e-14)

    def test_small_explicit_grid(self):
        g = build_grid(0.0, 0.2, 2, -0.3, 0.1)
        assert np.allclose(g.states, [-0.3, -0.2, -0.1, 0.0, 0.1])

    def test_strictly_increasing_and_core_present(self):
        g = build_grid(0.13, 0.35, 7, -2.0, 1.0)
        assert np.all(np.diff(g.states) > 0)
        assert g.states[g.eta_x] == pytest.approx(0.13)
        assert g.index_of(0.13 - 0.35) == g.eta_x - 7

    def test_bad_bounds(self):
        with pytest.raises(BadBounds):
            build_grid(0.0, 0.5, 10, -0.3, 1.0)
        with pytest.raises(BadBounds):
            build_grid(0.0, 0.5, 10, -2.0, -0.1)

    def test_window_helpers(self):
        g = build_grid(0.0, 0.2, 4, -1.0, 1.0)
        assert g.steps_of(0.2) == 4
        assert g.steps_at_least(0.3) == 6
        assert g.steps_at_least(0.25) == 5


class TestBuildGenerator:
    def test_bs_interior_rates(self):
        # up rate 0.435/(2h) + sigma^2/(2h^2), down with the opposite drift sign
        bs = ModelSpec.bs(sigma=0.3, r_f=0.5, d=0.02)
        g = build_grid(0.0, 0.2, 20, -1.0, 1.0)
        gen = build_generator(bs, g)
        assert isinstance(gen, BirthDeathGenerator)
        i = g.eta_x
        assert gen.up[i] == pytest.approx(471.75, rel=1e-12)
        assert gen.down[i] == pytest.approx(428.25, rel=1e-12)

    def test_refinement_changes_rates_exactly(self):
        bs = ModelSpec.bs(sigma=0.3, r_f=0.5, d=0.02)
        for n_x, h in ((20, 0.01), (40, 0.005)):
            gen = build_generator(bs, build_grid(0.0, 0.2, n_x, -1.0, 1.0))
            up = 0.435 / (2 * h) + 0.09 / (2 * h * h)
            assert gen.up[gen.grid.eta_x] == pytest.approx(up, rel=1e-12)

    def test_absorbing_rows_zero(self):
        gen = build_generator(ModelSpec.dejd(), build_grid(0.0, 0.2, 4, -0.6, 0.6))
        assert np.all(gen.row(0) == 0.0)
        assert np.all(gen.row(gen.n - 1) == 0.0)

    def test_row_sums_vanish(self):
        for model in (ModelSpec.bs(), ModelSpec.cev(), ModelSpec.dejd(), ModelSpec.vg()):
            gen = build_generator(model, build_grid(0.0, 0.2, 5, -0.8, 0.8))
            assert np.abs(gen.to_dense().sum(axis=1)).max() < 1e-10 * max(1.0, np.abs(gen.to_dense()).max())

    def test_interior_outflow_positive(self):
        gen = build_generator(ModelSpec.vg(), build_grid(0.0, 0.2, 5, -0.8, 0.8))
        out_rate = -gen.diagonal()
        for i in range(1, gen.n - 1):
            assert out_rate[i] > 0.0

    def test_negative_rate_aborts_central(self):
        # strongly drift-dominated diffusion on a coarse step
        m = ModelSpec.bs(sigma=0.05, r_f=0.5, d=0.0)
        g = build_grid(0.0, 0.4, 2, -1.0, 1.0)
        with pytest.raises(NegativeRate):
            build_generator(m, g, drift_scheme="central")
        gen = build_generator(m, g, drift_scheme="auto")  # one-sided drift keeps rates valid
        assert np.all(gen.up[1:-1] >= 0.0) and np.all(gen.down[1:-1] >= 0.0)


class TestBirthDeathAssembly:
    """build_generator assembles a diffusion with one array call of
    _local_rates; the reference is that formula applied state by state."""

    @staticmethod
    def per_state(model, grid, scheme):
        """up/down rates state by state, or the first NegativeRate's
        (state, neighbor, rate), the up rate checked before the down rate."""
        states = grid.states
        up = np.zeros(grid.n)
        down = np.zeros(grid.n)
        for i in range(1, grid.n - 1):
            u, dn = _local_rates(model, states[i], states[i] - states[i - 1],
                                 states[i + 1] - states[i], scheme=scheme)
            if u < 0.0:
                return states[i], states[i + 1], u
            if dn < 0.0:
                return states[i], states[i - 1], dn
            up[i], down[i] = u, dn
        return up, down

    @pytest.mark.parametrize("scheme", ["central", "upwind", "auto"])
    @pytest.mark.parametrize("model, rtol", [
        (ModelSpec.bs(), 0.0),                                 # same arithmetic, bitwise
        (ModelSpec.bs(sigma=0.05, r_f=0.5, d=0.0), 0.0),
        (ModelSpec.cev(), 1e-14),                              # array exp vs scalar exp
        (ModelSpec.cev(sigma=0.3, beta=-1.0, r_f=0.5, d=0.0), 1e-14),
    ], ids=["BS", "BS-drift-dominated", "CEV", "CEV-steep"])
    def test_rates_match_per_state(self, model, rtol, scheme):
        grid = build_grid(0.0, 0.2, 40, -1.5, 1.0)
        up, down = self.per_state(model, grid, scheme)
        gen = build_generator(model, grid, drift_scheme=scheme)
        np.testing.assert_allclose(gen.up, up, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(gen.down, down, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("model", [
        ModelSpec.bs(sigma=0.05, r_f=0.5, d=0.0),              # down rate, first state
        ModelSpec.bs(sigma=0.05, r_f=0.0, d=0.5),              # up rate, first state
        ModelSpec.cev(sigma=0.3, beta=-1.0, r_f=0.5, d=0.0),   # down rate, mid-grid
        ModelSpec.cev(sigma=0.3, beta=-1.0, r_f=0.0, d=0.5),   # up rate, mid-grid
    ], ids=["BS-down", "BS-up", "CEV-down", "CEV-up"])
    def test_negative_rate_names_the_first_state(self, model):
        grid = build_grid(0.0, 0.2, 4, -1.0, 1.0)
        state, neighbor, rate = self.per_state(model, grid, "central")
        with pytest.raises(NegativeRate) as err:
            build_generator(model, grid, drift_scheme="central")
        assert (err.value.state, err.value.neighbor) == (state, neighbor)
        assert err.value.rate == pytest.approx(rate, rel=1e-14)


class TestDenseJumpAssembly:
    """build_generator's jump branch takes all its bin masses from array
    calls; the reference is each bin's closed form, written out entry by
    entry."""

    GRIDS = [(0.13, 0.35, 7, -2.0, 1.0), (0.0, 0.2, 8, -0.8, 0.4)]

    @staticmethod
    def bin_mass(model, lo, hi):
        """Jump mass of one bin [lo, hi] on one side of 0."""
        if model.kind == "DEJD":
            if lo >= 0.0:
                eta, w = model.eta_plus, model.lam * model.p_plus
            else:
                eta, w, lo, hi = model.eta_minus, model.lam * model.p_minus, -hi, -lo
            return w * (math.exp(-eta * lo) - math.exp(-eta * hi))
        from scipy.special import exp1

        if lo >= 0.0:
            rate = model.vg_decay_pos
        else:
            rate, lo, hi = model.vg_decay_neg, -hi, -lo
        return (exp1(rate * lo) - exp1(rate * hi)) / model.nu_vg

    @staticmethod
    def edges(grid):
        """Bin edges around every state; the end bins reach +/-infinity."""
        s = grid.states
        return np.concatenate([[-np.inf], 0.5 * (s[1:] + s[:-1]), [np.inf]])

    @pytest.mark.parametrize("grid_args", GRIDS, ids=["offset", "small"])
    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()], ids=["DEJD", "VG"])
    def test_far_entries_match_closed_forms(self, model, grid_args):
        grid = build_grid(*grid_args)
        s, n, edges = grid.states, grid.n, self.edges(grid)
        rates = build_generator(model, grid).to_dense()
        # every entry two or more states off the diagonal; that takes in
        # both end columns, whose bins reach +/-infinity
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2)
        expect = np.array([self.bin_mass(model, edges[c] - s[r], edges[c + 1] - s[r])
                           if 0 < r < n - 1 else 0.0 for r, c in zip(i, j)])
        got = rates[i, j]
        assert np.count_nonzero((j == 0) & (expect > 0.0)) == n - 3
        assert np.count_nonzero((j == n - 1) & (expect > 0.0)) == n - 3
        assert np.array_equal(got == 0.0, expect == 0.0)
        nz = expect != 0.0
        assert np.all(np.abs(got[nz] - expect[nz]) <= 1e-13 * np.abs(expect[nz]))

    @pytest.mark.parametrize("grid_args", GRIDS, ids=["offset", "small"])
    @pytest.mark.parametrize("model", [
        ModelSpec.dejd(sigma=0.05, r_f=0.5, d=0.0),     # down rate
        ModelSpec.dejd(sigma=0.05, r_f=0.0, d=0.5),     # up rate
    ], ids=["down", "up"])
    def test_central_failure_names_the_first_state(self, model, grid_args):
        grid = build_grid(*grid_args)
        s, edges = grid.states, self.edges(grid)
        first = None
        for i in range(1, grid.n - 1):
            u, dn = _local_rates(model, s[i], s[i] - s[i - 1], s[i + 1] - s[i], scheme="central")
            up = u + self.bin_mass(model, edges[i + 1] - s[i], edges[i + 2] - s[i])
            down = dn + self.bin_mass(model, edges[i - 1] - s[i], edges[i] - s[i])
            if up < 0.0 or down < 0.0:
                first = (s[i], s[i + 1]) if up < 0.0 else (s[i], s[i - 1])
                break
        assert first is not None
        with pytest.raises(NegativeRate) as err:
            build_generator(model, grid, drift_scheme="central")
        assert (err.value.state, err.value.neighbor) == first


class TestLevyGenerator:
    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()])
    def test_matches_general_builder_row_wise(self, model):
        g = build_grid(0.0, 0.2, 4, -0.5, 0.5)
        dense = build_generator(model, g).to_dense()
        levy = build_levy_generator(model, g.h, -0.5, 0.5).to_dense()
        scale = np.abs(dense).max()
        assert np.abs(dense - levy)[1:-1, :].max() <= 1e-10 * scale

    def test_bs_lattice_is_toeplitz(self):
        gen = build_levy_generator(ModelSpec.bs(), 0.01, -0.3, 0.3)
        assert isinstance(gen, ToeplitzLevyGenerator)
        rows = [gen.row(i) for i in range(2, gen.n - 2)]
        for k in range(1, len(rows)):
            assert np.array_equal(np.roll(rows[k], -k), np.roll(rows[0], 0))

    def test_dejd_offset_bin_mass(self):
        m = ModelSpec.dejd()
        h = 0.01
        gen = build_levy_generator(m, h, -1.0, 1.0)
        i = gen.grid.eta_x
        # rate for a 10-step jump equals the measure of the half-open bin around it
        expect = m.lam * m.p_plus * (math.exp(-m.eta_plus * 9.5 * h) - math.exp(-m.eta_plus * 10.5 * h))
        assert gen.row(i)[i + 10] == pytest.approx(expect, rel=1e-12)

    def test_vg_rates_nonnegative(self):
        gen = build_levy_generator(ModelSpec.vg(), 0.005, -1.0, 1.0)
        row = gen.row(gen.grid.eta_x)
        off = np.delete(row, gen.grid.eta_x)
        assert np.all(off >= 0.0)

    def test_block_column_row_consistency(self):
        for gen in (
            build_levy_generator(ModelSpec.dejd(), 0.05, -0.6, 0.6),
            build_generator(ModelSpec.cev(), build_grid(0.0, 0.2, 4, -0.6, 0.4)),
            build_generator(ModelSpec.vg(), build_grid(0.0, 0.1, 3, -0.4, 0.4)),
        ):
            dense = gen.to_dense()
            n = gen.n
            for j in (0, 1, n // 2, n - 2, n - 1):
                assert np.allclose(gen.column(j), dense[:, j], atol=1e-14)
                assert np.allclose(gen.row(j), dense[j], atol=1e-14)
            blk = gen.window_block(1, n - 2)
            assert np.allclose(blk, dense[1:n - 1, 1:n - 1], atol=1e-14)
            blk = gen.window_block(0, n - 1)
            assert np.allclose(blk, dense, atol=1e-14)
            # a mid-lattice window carries the same floats as the dense matrix
            lo, hi = n // 3, n // 3 + 6
            assert np.array_equal(gen.window_block(lo, hi), dense[lo:hi + 1, lo:hi + 1])

    @pytest.mark.parametrize("chain", ["DEJD", "VG", "BS"])
    def test_to_dense_equals_its_columns_bit_for_bit(self, chain):
        # the one-fill matrix against the column-by-column reference, down
        # to the sign of every zero: both tail columns and the local rates
        # next to the diagonal
        if chain == "BS":
            gen = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 4, -0.6, 0.4))
        else:
            model = ModelSpec.dejd() if chain == "DEJD" else ModelSpec.vg()
            gen = build_levy_generator(model, 0.05, -0.6, 0.6)
            assert np.all(gen.to_dense()[1:-1, [0, -1]] > 0.0)
        n = gen.n
        ref = np.column_stack([gen.column(j) for j in range(n)])
        dense = gen.to_dense()
        assert np.array_equal(dense.view(np.int64), ref.view(np.int64))
        i = np.arange(1, n - 1)
        assert np.all(dense[i, i - 1] > 0.0) and np.all(dense[i, i + 1] > 0.0)

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()], ids=["DEJD", "VG"])
    def test_window_symbol_spans_the_interior_block(self, model):
        from scipy.linalg import toeplitz

        gen = build_levy_generator(model, 0.05, -0.6, 0.6)
        n = gen.n
        for lo, hi in ((1, 1), (1, 6), (n // 3, n // 3 + 6), (3, n - 2), (1, n - 2)):
            blk = gen.window_block(lo, hi)
            sym = toeplitz(*gen.window_symbol(lo, hi))
            off = ~np.eye(hi - lo + 1, dtype=bool)
            assert np.array_equal(sym[off], blk[off])
            assert np.allclose(np.diag(sym), np.diag(blk), rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError):
            gen.window_symbol(0, 4)

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()], ids=["DEJD", "VG"])
    def test_diagonal_matches_per_state_stencil_sums(self, model):
        # the per-state loop with one prefix-sum difference per range
        gen = build_levy_generator(model, 0.01, -1.0, 1.0)
        n, c, csum = gen.n, gen.center, gen._csum
        expect = np.zeros(n)
        for m in range(1, n - 1):
            s = gen.local_up + gen.local_down
            s += float(csum[n - 2 - m + c + 1] - csum[1 - m + c]) - float(csum[c + 1] - csum[c])
            s += gen.tail_bot[m] + gen.tail_top[m]
            expect[m] = -s
        assert np.array_equal(gen.diagonal(), expect)

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg(), ModelSpec.bs()],
                             ids=["DEJD", "VG", "BS"])
    def test_window_exit_masses_match_row_sums(self, model):
        gen = build_levy_generator(model, 0.005, -1.0, 1.0)
        n = gen.n
        for lo, hi in ((1, 1), (1, 6), (20, 60), (n // 2, n - 2), (1, n - 2), (n - 2, n - 2)):
            below, above = gen.window_exit_masses(lo, hi)
            rows = [gen.row(m) for m in range(lo, hi + 1)]
            ref_below = np.array([row[:lo].sum() for row in rows])
            ref_above = np.array([row[hi + 1:].sum() for row in rows])
            assert np.all(np.abs(below - ref_below) <= 1e-14 * np.abs(ref_below)), (lo, hi)
            assert np.all(np.abs(above - ref_above) <= 1e-14 * np.abs(ref_above)), (lo, hi)
        with pytest.raises(ValueError):
            gen.window_exit_masses(0, 5)


class TestSchemeChoice:
    def test_diffusions_keep_central(self):
        assert choose_drift_scheme(ModelSpec.bs(r_f=0.05), 0.2 / 160, np.linspace(-4, 4, 9)) == "central"
        assert choose_drift_scheme(ModelSpec.dejd(r_f=0.05), 0.2 / 160, np.array([0.0])) == "central"

    def test_vg_fine_step_needs_upwind(self):
        assert choose_drift_scheme(ModelSpec.vg(r_f=0.05), 0.5 / 640, np.array([0.0])) == "upwind"

    def test_default_truncation(self):
        assert default_levy_truncation(0.2) == 4.0
        assert default_levy_truncation(0.5) == 5.0


class TestDump:
    def test_dump_csv_roundtrip(self, tmp_path):
        gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 2, -0.5, 0.3))
        path = os.path.join(tmp_path, "gen.csv")
        gen.dump_csv(path)
        dense = gen.to_dense()
        with open(path) as fh:
            header = fh.readline().strip()
            assert header == "i,j,rate"
            seen = {}
            for line in fh:
                i, j, rate = line.strip().split(",")
                seen[(int(i), int(j))] = float(rate)
        for (i, j), rate in seen.items():
            assert rate == pytest.approx(dense[i, j], rel=1e-15)
        assert len(seen) == int(np.count_nonzero(dense))

    def test_dump_csv_refuses_a_large_chain_before_densifying(self, tmp_path, monkeypatch):
        n = 20_001
        states = np.arange(n) * 0.01
        gen = BirthDeathGenerator(Grid(states=states, h=0.01, eta_x=n // 2, x0=0.0),
                                  np.ones(n), np.ones(n))

        def refuse():
            raise AssertionError("densified before the size check")

        monkeypatch.setattr(gen, "to_dense", refuse)
        path = os.path.join(tmp_path, "gen.csv")
        with pytest.raises(TooLarge, match="20001-state"):
            gen.dump_csv(path)
        assert not os.path.exists(path)
