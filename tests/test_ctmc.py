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
from drawdown_ctmc.models import ModelSpec, levy_bin_mass


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
        n = gen.n
        assert np.all(gen.block(0, 0, 0, n - 1) == 0.0)
        assert np.all(gen.block(n - 1, n - 1, 0, n - 1) == 0.0)

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

    def test_direct_construction_names_the_first_state(self):
        # the first offending state, not the most negative rate; at one
        # state the up rate is checked before the down rate
        grid = build_grid(0.0, 0.2, 4, -0.4, 0.4)
        s, up, down = grid.states, np.ones(grid.n), np.ones(grid.n)
        down[2], up[5] = -1.0, -5.0
        with pytest.raises(NegativeRate) as err:
            BirthDeathGenerator(grid, up, down)
        assert (err.value.state, err.value.neighbor, err.value.rate) == (s[2], s[1], -1.0)
        up[2] = -0.5
        with pytest.raises(NegativeRate) as err:
            BirthDeathGenerator(grid, up, down)
        assert (err.value.state, err.value.neighbor, err.value.rate) == (s[2], s[3], -0.5)


class TestDenseJumpAssembly:
    """build_generator's jump chains are dense copies of the lattice of
    build_levy_generator, which takes all its bin masses from array calls;
    the reference is each bin's closed form, written out entry by entry."""

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

    @pytest.mark.parametrize("model, grid_args", [
        pytest.param(model, grid_args, id=f"{side}-{where}")
        for where, grid_args in zip(["offset", "small"], GRIDS)
        for side, model in [("down", ModelSpec.dejd(sigma=0.05, r_f=0.5, d=0.0)),
                            ("up", ModelSpec.dejd(sigma=0.05, r_f=0.0, d=0.5))]
    ] + [
        # row 1's down rate adds the tail below the lattice and stays positive
        pytest.param(ModelSpec.dejd(sigma=0.05, lam=20.0, r_f=0.5, d=0.0), GRIDS[1],
                     id="down-past-the-tail-small"),
    ])
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
    GRIDS = [(0.0, 0.2, 4, -0.5, 0.5), *TestDenseJumpAssembly.GRIDS, (0.0, 0.2, 40, -2.0, 2.0)]

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()])
    def test_matches_general_builder_row_wise(self, model):
        # the dense jump chain is the lattice over the same bounds, bit for bit
        for x0, a, n_x, lo, hi in self.GRIDS:
            dense = build_generator(model, build_grid(x0, a, n_x, lo, hi)).to_dense()
            levy = build_levy_generator(model, a / n_x, lo, hi, x0=x0).to_dense()
            assert np.array_equal(dense, levy), (x0, a, n_x, lo, hi)

    def test_off_lattice_grid_refused(self):
        g = build_grid(0.0, 0.2, 4, -0.5, 0.5)
        states = g.states.copy()
        states[3] += 0.1 * g.h
        moved = Grid(states=states, h=g.h, eta_x=g.eta_x, x0=g.x0)
        for model in (ModelSpec.dejd(), ModelSpec.vg()):
            with pytest.raises(ValueError, match="lattice"):
                build_generator(model, moved)
        assert build_generator(ModelSpec.bs(), moved).n == g.n   # a diffusion takes any grid

    def test_central_failure_names_the_first_assembled_rate(self):
        # an interior down rate is -1.888, but row 1's adds the tail below
        # the lattice and reads +4.985: the first negative rate is row 2's
        model = ModelSpec.dejd(sigma=0.05, lam=20.0, r_f=0.5, d=0.0)
        with pytest.raises(NegativeRate) as err:
            build_levy_generator(model, 0.025, -0.8, 0.4, drift_scheme="central")
        assert (err.value.state, err.value.neighbor) == (-0.75, -0.775)
        assert err.value.rate == pytest.approx(-1.8876469, rel=1e-7)
        gen = build_levy_generator(model, 0.025, -0.8, 0.4, drift_scheme="upwind")
        down = _local_rates(model, 0.0, 0.025, 0.025, scheme="central")[1]
        assert down + (gen.below[0] - gen.below[1]) == err.value.rate
        assert down + gen.below[0] == pytest.approx(4.985, abs=1e-3)

    def test_bs_lattice_is_toeplitz(self):
        gen = build_levy_generator(ModelSpec.bs(), 0.01, -0.3, 0.3)
        assert isinstance(gen, ToeplitzLevyGenerator)
        rows = list(gen.block(2, gen.n - 3, 0, gen.n - 1))
        for k in range(1, len(rows)):
            assert np.array_equal(np.roll(rows[k], -k), np.roll(rows[0], 0))

    def test_dejd_offset_bin_mass(self):
        m = ModelSpec.dejd()
        h = 0.01
        gen = build_levy_generator(m, h, -1.0, 1.0)
        i = gen.grid.eta_x
        # rate for a 10-step jump equals the measure of the half-open bin around it
        expect = m.lam * m.p_plus * (math.exp(-m.eta_plus * 9.5 * h) - math.exp(-m.eta_plus * 10.5 * h))
        assert gen.block(i, i, i + 10, i + 10)[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_vg_rates_nonnegative(self):
        gen = build_levy_generator(ModelSpec.vg(), 0.005, -1.0, 1.0)
        i = gen.grid.eta_x
        row = gen.block(i, i, 0, gen.n - 1)[0]
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
                assert np.allclose(gen.block(0, n - 1, j, j)[:, 0], dense[:, j], atol=1e-14)
                assert np.allclose(gen.block(j, j, 0, n - 1)[0], dense[j], atol=1e-14)
            blk = gen.block(1, n - 2, 1, n - 2)
            assert np.allclose(blk, dense[1:n - 1, 1:n - 1], atol=1e-14)
            blk = gen.block(0, n - 1, 0, n - 1)
            assert np.allclose(blk, dense, atol=1e-14)
            # a mid-lattice window carries the same floats as the dense matrix
            lo, hi = n // 3, n // 3 + 6
            assert np.array_equal(gen.block(lo, hi, lo, hi), dense[lo:hi + 1, lo:hi + 1])

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
        ref = np.hstack([gen.block(0, n - 1, j, j) for j in range(n)])
        dense = gen.to_dense()
        assert np.array_equal(dense.view(np.int64), ref.view(np.int64))
        i = np.arange(1, n - 1)
        assert np.all(dense[i, i - 1] > 0.0) and np.all(dense[i, i + 1] > 0.0)

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg(), ModelSpec.bs()],
                             ids=["DEJD", "VG", "BS"])
    def test_window_symbol_spans_the_interior_block(self, model):
        # an interior window is Toeplitz, diagonal included: its first
        # column and first row (the symbol the Levinson route reads) give
        # every entry
        from scipy.linalg import toeplitz

        for h, bound in ((0.05, 0.6), (0.01, 1.0)):
            gen = build_levy_generator(model, h, -bound, bound)
            n = gen.n
            for lo, hi in ((1, 1), (1, 6), (n // 3, n // 3 + 6), (3, n - 2), (1, n - 2)):
                blk = gen.block(lo, hi, lo, hi)
                sym = toeplitz(gen.block(lo, hi, lo, lo)[:, 0], gen.block(lo, lo, lo, hi)[0])
                assert np.array_equal(sym, blk), (h, lo, hi)
        with pytest.raises(ValueError):
            gen.block(1, 4, 5, 4)

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()], ids=["DEJD", "VG"])
    def test_interior_diagonal_is_one_float_and_rows_sum_to_zero(self, model):
        # every interior row leaves at the one rate local_up + local_down +
        # above[0] + below[0]; the exact sum of its stored rates is 0 to
        # within a tenth of a unit in the last place of the diagonal
        for h, bound in ((0.05, 0.6), (0.01, 1.0), (0.005, 4.0)):
            gen = build_levy_generator(model, h, -bound, bound)
            n, diag = gen.n, gen.diagonal()
            assert diag[0] == diag[-1] == 0.0
            assert np.unique(diag[1:-1]).size == 1
            for row in gen.block(1, n - 2, 0, n - 1):
                assert abs(math.fsum(row)) <= 1e-16 * abs(diag[1]), h

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg(), ModelSpec.bs()],
                             ids=["DEJD", "VG", "BS"])
    def test_window_exit_masses_match_row_sums(self, model):
        gen = build_levy_generator(model, 0.005, -1.0, 1.0)
        n, h = gen.n, gen.grid.h
        for lo, hi in ((1, 1), (1, 6), (20, 60), (n // 2, n - 2), (1, n - 2), (n - 2, n - 2)):
            below, above = gen.window_exit_masses(lo, hi)
            # the masses beyond each row's distance to the window's edges
            dist = np.arange(hi - lo + 1) + 0.5
            expect_below = levy_bin_mass(model, np.full(dist.size, -np.inf), -dist * h)
            expect_above = levy_bin_mass(model, dist[::-1] * h, np.full(dist.size, np.inf))
            expect_below[0] += gen.local_down
            expect_above[-1] += gen.local_up
            assert np.allclose(below, expect_below, rtol=1e-14, atol=0.0), (lo, hi)
            assert np.allclose(above, expect_above, rtol=1e-14, atol=0.0), (lo, hi)
            rows = gen.block(lo, hi, 0, n - 1)
            ref_below = np.array([row[:lo].sum() for row in rows])
            ref_above = np.array([row[hi + 1:].sum() for row in rows])
            assert np.all(np.abs(below - ref_below) <= 1e-14 * np.abs(ref_below)), (lo, hi)
            assert np.all(np.abs(above - ref_above) <= 1e-14 * np.abs(ref_above)), (lo, hi)
        with pytest.raises(ValueError):
            gen.window_exit_masses(0, 5)


def _storages():
    """One chain per storage: lattices with and without jumps, a
    birth-death chain and a dense jump chain."""
    return {
        "DEJD-lattice": build_levy_generator(ModelSpec.dejd(), 0.05, -0.6, 0.6),
        "VG-lattice": build_levy_generator(ModelSpec.vg(), 0.02, -0.5, 0.5),
        "BS-lattice": build_levy_generator(ModelSpec.bs(r_f=0.05), 0.05, -0.6, 0.6),
        "CEV-birth-death": build_generator(ModelSpec.cev(), build_grid(0.0, 0.2, 4, -0.6, 0.4)),
        "DEJD-dense": build_generator(ModelSpec.dejd(), build_grid(0.0, 0.1, 3, -0.4, 0.4)),
    }


def _entrywise(gen):
    """The dense matrix of a lattice or birth-death chain, one entry at a
    time from its stored rates; the absorbing rows hold 0."""
    n, diag = gen.n, gen.diagonal()
    ref = np.zeros((n, n))
    for i in range(1, n - 1):
        if isinstance(gen, BirthDeathGenerator):
            ref[i, i - 1], ref[i, i + 1] = gen.down[i], gen.up[i]
            ref[i, i] = diag[i]
            continue
        for j in range(n):
            d = j - i
            if j == 0:
                ref[i, j] = gen.below[i - 1]
            elif j == n - 1:
                ref[i, j] = gen.above[n - 2 - i]
            elif d > 0:
                ref[i, j] = gen.above[d - 1] - gen.above[d]
            elif d < 0:
                ref[i, j] = gen.below[-d - 1] - gen.below[-d]
            if j == i + 1:
                ref[i, j] += gen.local_up
            elif j == i - 1:
                ref[i, j] += gen.local_down
        ref[i, i] = diag[i]
    return ref


class TestBlock:
    @pytest.mark.parametrize("name", list(_storages()))
    def test_rectangles_are_slices_of_the_dense_matrix(self, name):
        gen = _storages()[name]
        n, dense = gen.n, gen.to_dense()
        if not name.endswith("dense"):
            assert np.array_equal(dense.view(np.int64), _entrywise(gen).view(np.int64))
        rects = [(0, n - 1, 0, 0), (0, n - 1, n - 1, n - 1), (0, n - 1, 0, n - 1),
                 (0, 0, 0, n - 1), (n - 1, n - 1, 0, n - 1), (0, 0, 0, 0),
                 (n - 1, n - 1, n - 1, n - 1), (1, 1, 0, 2), (n - 2, n - 2, n - 3, n - 1)]
        # the strips of quantity A: rows first..T into the states below first
        rects += [(first, min(n - 2, first + 7), 0, first - 1) for first in (1, 2, n // 2, n - 2)]
        rng = np.random.default_rng(7)
        for _ in range(300):
            r0, r1 = np.sort(rng.integers(0, n, 2))
            c0, c1 = np.sort(rng.integers(0, n, 2))
            rects.append((int(r0), int(r1), int(c0), int(c1)))
        for r0, r1, c0, c1 in rects:
            blk = gen.block(r0, r1, c0, c1)
            ref = dense[r0:r1 + 1, c0:c1 + 1]
            assert blk.shape == ref.shape, (r0, r1, c0, c1)
            assert np.array_equal(blk.view(np.int64), ref.view(np.int64)), (r0, r1, c0, c1)

    @pytest.mark.parametrize("name", list(_storages()))
    def test_bounds_outside_the_states_refused(self, name):
        gen = _storages()[name]
        n = gen.n
        for r0, r1, c0, c1 in ((-1, 2, -1, 2), (n - 3, n, n - 3, n), (0, 2, -1, 1),
                               (0, 2, 0, n), (3, 2, 0, 1), (0, 1, 3, 2)):
            with pytest.raises(ValueError, match="not inside"):
                gen.block(r0, r1, c0, c1)


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

    @pytest.mark.parametrize("chain", ["DEJD-lattice", "CEV-birth-death", "DEJD-dense"])
    def test_dump_csv_matches_the_dense_rows(self, tmp_path, chain):
        # byte for byte the text of the dense matrix, over several row blocks
        grid = build_grid(0.0, 0.1, 10, -0.4, 0.4)   # 81 states
        gen = {"DEJD-lattice": lambda: build_levy_generator(ModelSpec.dejd(), 0.01, -0.6, 0.6),
               "CEV-birth-death": lambda: build_generator(ModelSpec.cev(), grid),
               "DEJD-dense": lambda: build_generator(ModelSpec.dejd(), grid)}[chain]()
        dense = gen.to_dense()
        expect = "i,j,rate\n" + "".join(f"{i},{j},{dense[i, j]:.17g}\n"
                                          for i in range(gen.n) for j in np.nonzero(dense[i])[0])
        path = os.path.join(tmp_path, "gen.csv")
        gen.dump_csv(path)
        with open(path) as fh:
            assert fh.read() == expect

    def test_dump_csv_reads_rows_in_blocks(self, tmp_path):
        # a 3,201-state chain is dumped without its 82 MB dense matrix
        import tracemalloc

        gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 100, -3.2, 3.2))
        assert gen.n == 3201
        path = os.path.join(tmp_path, "gen.csv")
        tracemalloc.start()
        try:
            gen.dump_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * gen.n ** 2 * 8
        with open(path) as fh:
            assert sum(1 for _ in fh) == 1 + 3 * (gen.n - 2)

    def test_dump_csv_refuses_a_large_chain_before_densifying(self, tmp_path, monkeypatch):
        n = 20_001
        states = np.arange(n) * 0.01
        gen = BirthDeathGenerator(Grid(states=states, h=0.01, eta_x=n // 2, x0=0.0),
                                  np.ones(n), np.ones(n))

        def refuse(*args):
            raise AssertionError("read rates before the size check")

        monkeypatch.setattr(gen, "to_dense", refuse)
        monkeypatch.setattr(gen, "block", refuse)
        path = os.path.join(tmp_path, "gen.csv")
        with pytest.raises(TooLarge, match="20001-state"):
            gen.dump_csv(path)
        assert not os.path.exists(path)
