import numpy as np
import pytest

from drawdown_ctmc.ctmc import BirthDeathGenerator, Grid, build_generator, build_grid
from drawdown_ctmc.linsolve import DegenerateWindow, NotBirthDeath, psi_pair
from drawdown_ctmc.models import ModelSpec
from helpers import random_jump_chain


def random_birth_death(n, seed, lo=5.0, hi=60.0):
    rng = np.random.default_rng(seed)
    states = np.cumsum(rng.uniform(0.05, 0.15, n))
    up = rng.uniform(lo, hi, n)
    down = rng.uniform(lo, hi, n)
    grid = Grid(states=states, h=float(np.diff(states).min()), eta_x=n // 2, x0=float(states[n // 2]))
    return BirthDeathGenerator(grid, up, down)


def ambient_solve(gen, window, kvals, f):
    """Direct dense solve of the full closed-form system, as the oracle."""
    n = gen.n
    states = gen.states
    dense = gen.to_dense().astype(complex)
    inside = (states > window[0] + 1e-12) & (states <= window[1] + 1e-12)
    M = np.eye(n, dtype=complex)
    rhs = np.asarray(f, dtype=complex).copy()
    for r in np.nonzero(inside)[0]:
        M[r] = -dense[r]
        M[r, r] += kvals[r]
        rhs[r] = 0.0
    return np.linalg.solve(M, rhs)


def raw_values(psi):
    """psi+ and psi- of a one-node pair over the states, from its scaled
    arrays (raw doubles: only for chains short enough not to overflow)."""
    return ((psi._um * np.exp(psi._uL))[:, 0], (psi._dm * np.exp(psi._dL))[:, 0])


class TestPsiPair:
    def test_boundary_conditions(self):
        gen = random_birth_death(9, 6)
        plus, minus = raw_values(psi_pair(gen, 1.3 + 0.2j))
        assert plus[0] == 0.0
        assert plus[8] == pytest.approx(1.0)
        assert minus[8] == 0.0
        assert minus[0] == pytest.approx(1.0)

    def test_cut_chain(self):
        # the pair of the states lo .. N-1: psi+ vanishes at lo, every
        # window inside the range exits as on the whole chain, and a state
        # below the range is refused
        gen = random_birth_death(14, 9)
        q = 1.3 + 0.2j
        whole, cut = psi_pair(gen, q), psi_pair(gen, q, lo=4)
        plus, minus = raw_values(cut)
        assert plus.size == 10 and plus[0] == 0.0 and minus[9] == 0.0
        assert plus[9] == pytest.approx(1.0) and minus[0] == pytest.approx(1.0)
        x = np.arange(5, 13)
        bottom, top = np.maximum(x - 3, 4), x + 1
        for got, ref in zip(cut.exit_weights(x, bottom, top), whole.exit_weights(x, bottom, top)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        with pytest.raises(DegenerateWindow, match="below the pair's range"):
            cut.exit_weights(6, 3, 8)
        for lo in (-1, gen.n - 2):
            with pytest.raises(DegenerateWindow):
                psi_pair(gen, q, lo=lo)

    def test_monotone_for_real_killing(self):
        gen = random_birth_death(11, 7)
        plus, minus = (vec.real.tolist() for vec in raw_values(psi_pair(gen, 2.0)))
        assert all(b >= a - 1e-13 for a, b in zip(plus, plus[1:]))
        assert all(b <= a + 1e-13 for a, b in zip(minus, minus[1:]))
        assert min(plus) >= 0.0 and min(minus) >= 0.0

    def test_interior_recurrence_residual(self):
        gen = random_birth_death(10, 8)
        q = 0.8 + 1.1j
        G = gen.to_dense().astype(complex)
        for vec in raw_values(psi_pair(gen, q)):
            resid = (q * vec - G @ vec)[1:-1]
            assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(vec).max() * np.abs(G).max())

    def test_requires_birth_death(self):
        with pytest.raises(NotBirthDeath):
            psi_pair(random_jump_chain(8, 9), 1.0)

    def test_coeffs_match_passage_solve(self):
        bs = ModelSpec.bs()
        g = build_grid(0.0, 0.2, 10, -0.5, 0.3)
        gen = build_generator(bs, g)
        q = 1.0 + 0.0j
        i = g.eta_x
        up, down = psi_pair(gen, q).exit_weights(i, i - 10, i + 1)
        ind_up = np.zeros(gen.n)
        ind_up[i + 1] = 1.0
        ind_dn = np.zeros(gen.n)
        ind_dn[i - 10] = 1.0
        window, kvals = (gen.states[i - 10], gen.states[i]), np.full(gen.n, q)
        assert up[0] == pytest.approx(ambient_solve(gen, window, kvals, ind_up)[i], abs=1e-10)
        assert down[0] == pytest.approx(ambient_solve(gen, window, kvals, ind_dn)[i], abs=1e-10)
        assert abs(up[0]) + abs(down[0]) <= 1.0 + 1e-12

    def test_single_state_window_closed_form(self):
        # window of one interior state: both weights from one row of G
        gen = random_birth_death(8, 30)
        q = 1.7
        psi = psi_pair(gen, q)
        i = 4
        up, down = psi.exit_weights(i, i - 1, i + 1)
        assert up.shape == down.shape == (1,)
        out = gen.up[i] + gen.down[i]
        assert up[0] == pytest.approx(gen.up[i] / (q + out), rel=1e-12)
        assert down[0] == pytest.approx(gen.down[i] / (q + out), rel=1e-12)
        assert up[0] + down[0] == pytest.approx(out / (q + out), rel=1e-12)

    def test_exit_weights_match_passage_solve(self):
        # random (x, bottom, top) triples with bottom < x < top, including
        # one-state windows and starts next to either end
        rng = np.random.default_rng(31)
        for seed in range(3):
            gen = random_birth_death(14, 40 + seed)
            q = complex(rng.uniform(0.1, 3.0), rng.uniform(-20.0, 20.0))
            psi = psi_pair(gen, q)
            bottom = rng.integers(0, gen.n - 2, size=12)
            top = bottom + 2 + rng.integers(0, gen.n - 1 - (bottom + 2) + 1)
            x = bottom + 1 + rng.integers(0, top - bottom - 1)
            # (bottom, x, top): a one-state window, a start next to the
            # absorbing bottom state, a start next to the absorbing top state
            for k, triple in enumerate([(3, 4, 5), (0, 1, 7), (5, 12, 13)]):
                bottom[k], x[k], top[k] = triple
            up, down = psi.exit_weights(x, bottom, top)
            for k in range(x.size):
                window = (gen.states[bottom[k]], gen.states[top[k] - 1])
                e_top = np.zeros(gen.n)
                e_top[top[k]] = 1.0
                e_bot = np.zeros(gen.n)
                e_bot[bottom[k]] = 1.0
                ref_up = ambient_solve(gen, window, np.full(gen.n, q), e_top)[x[k]]
                ref_dn = ambient_solve(gen, window, np.full(gen.n, q), e_bot)[x[k]]
                assert abs(up[k] - ref_up) < 1e-10
                assert abs(down[k] - ref_dn) < 1e-10
            # a scalar top broadcasts against arrays of starts and bottoms
            xs = np.arange(5, 12)
            bots = xs - 1 - (xs % 3)
            up_b, down_b = psi.exit_weights(xs, bots, 12)
            up_e, down_e = psi.exit_weights(xs, bots, np.full(xs.size, 12))
            assert up_b.shape == (xs.size,)
            assert np.array_equal(up_b, up_e) and np.array_equal(down_b, down_e)

    def test_zero_killing_exit_weights_sum_to_one(self):
        gen = random_birth_death(12, 1)
        up, down = psi_pair(gen, 0.0).exit_weights(np.arange(4, 9), 3, 9)
        assert np.allclose(up + down, 1.0, atol=1e-12)

    def test_exit_weights_fall_as_killing_grows(self):
        for seed in range(4):
            gen = random_birth_death(10, seed + 20)
            x = np.arange(2, 8)
            lo = sum(psi_pair(gen, 0.5).exit_weights(x, 1, 8)).real
            hi = sum(psi_pair(gen, 2.5).exit_weights(x, 1, 8)).real
            assert np.all(lo >= hi - 1e-12)

    def test_coeffs_decrease_in_killing(self):
        gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 10, -0.5, 0.3))
        i = gen.grid.eta_x
        prev = None
        for q in (1.0, 10.0, 100.0):
            up, down = psi_pair(gen, q).exit_weights(i, i - 10, i + 1)
            tot = abs(up[0]) + abs(down[0])
            if prev is not None:
                assert tot < prev
            prev = tot

    def test_scaled_representation_handles_long_chains(self):
        # growth over a long chain overflows raw doubles but bridges stay finite
        bs = ModelSpec.bs(sigma=0.3, r_f=0.05)
        g = build_grid(0.0, 0.2, 160, -4.0, 4.0)
        gen = build_generator(bs, g)
        q = 92.0 + 800.0j
        i = g.eta_x
        up, down = psi_pair(gen, q).exit_weights(i, i - 160, i + 1)
        assert np.isfinite(up.real) and np.isfinite(down.real)
        assert abs(up[0]) <= 1.0 and abs(down[0]) <= 1.0


class TestPsiPairNodeAxis:
    NODES = np.array([0.9, 2.0 + 15.0j, 5.0 - 40.0j, 9.2 + 800.0j])

    def test_node_vector_stacks_scalar_pairs(self):
        gen = random_birth_death(16, 50)
        psi = psi_pair(gen, self.NODES)
        x = np.array([[3, 4], [7, 9]])
        bottom = x - 1 - x % 2
        top = np.array([[5, 11], [12, 15]])
        up, down = psi.exit_weights(x, bottom, top)
        rec = psi.ratio_plus(bottom, x)
        assert up.shape == down.shape == rec.shape == x.shape + (self.NODES.size,)
        for j, q in enumerate(self.NODES):
            one = psi_pair(gen, q)
            up1, down1 = one.exit_weights(x, bottom, top)
            assert up1.shape == x.shape
            for got, ref in ((up[..., j], up1), (down[..., j], down1),
                             (rec[..., j], one.ratio_plus(bottom, x))):
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("model", [ModelSpec.bs(), ModelSpec.cev()], ids=["BS", "CEV"])
    def test_per_state_killing_matches_passage_solve(self, model):
        # B's killing q 1{x < xi} + shift, one column per node, on a long
        # enough chain that |Im q| = 800 needs the scaled arithmetic
        gen = build_generator(model, build_grid(0.0, 0.2, 20, -1.5, 0.5))
        xi, shift = -0.1, 0.05
        below = gen.states < xi
        killing = np.where(below[:, None], self.NODES, 0.0) + shift
        psi = psi_pair(gen, killing)
        tops = np.array([gen.grid.eta_x - 3, gen.grid.eta_x, gen.grid.eta_x + 5])
        bottoms = tops - 20
        up, down = psi.exit_weights(tops, bottoms, tops + 1)
        for j, q in enumerate(self.NODES):
            kvals = np.where(below, q, 0.0) + shift
            for pos, (bot, top) in enumerate(zip(bottoms, tops)):
                window = (gen.states[bot], gen.states[top])
                e_top = np.zeros(gen.n)
                e_top[top + 1] = 1.0
                e_bot = np.zeros(gen.n)
                e_bot[bot] = 1.0
                assert abs(up[pos, j] - ambient_solve(gen, window, kvals, e_top)[top]) < 1e-10
                assert abs(down[pos, j] - ambient_solve(gen, window, kvals, e_bot)[top]) < 1e-10

    def test_ratios_step_as_two_separate_loops(self):
        # the pair steps r upward and s downward in one loop; each ratio
        # must be bitwise the one its own loop gives
        gen = random_birth_death(40, 52)
        n = gen.n
        killing = np.linspace(0.5, 2.0, n)[:, None] * self.NODES
        up, down = gen.up[1:n - 1], gen.down[1:n - 1]
        c = killing[1:n - 1] - gen.diagonal()[1:n - 1, None]
        r, s = np.empty_like(c), np.empty_like(c)
        r[0], s[-1] = c[0] / up[0], c[-1] / down[-1]
        for j in range(1, n - 2):
            r[j] = c[j] / up[j] - (down[j] / up[j]) / r[j - 1]
        for j in range(n - 4, -1, -1):
            s[j] = c[j] / down[j] - (up[j] / down[j]) / s[j + 1]
        uL = np.zeros((n, self.NODES.size))
        uL[2:] = np.cumsum(np.log(np.abs(r)), axis=0)
        dL = np.zeros((n, self.NODES.size))
        dL[:n - 2] = np.cumsum(np.log(np.abs(s))[::-1], axis=0)[::-1]
        um = np.zeros((n, self.NODES.size), dtype=complex)
        um[1] = 1.0
        um[2:] = np.cumprod(r / np.abs(r), axis=0)
        psi = psi_pair(gen, killing)
        assert np.array_equal(psi._uL, uL - uL[n - 1])
        assert np.array_equal(psi._dL, dL - dL[0])
        assert np.array_equal(psi._um, um / um[n - 1])

    def test_adjacent_bridges_are_the_signed_wronskian(self):
        # a call of adjacent pairs only returns the Wronskian directly, with
        # the bits the same pairs get inside a call that also takes a far one
        psi = psi_pair(random_birth_death(16, 50), self.NODES)
        I, J = np.array([5, 6, 9, 2]), np.array([6, 5, 8, 3])
        mixed = psi.bridge_many(np.append(I, 12), np.append(J, 4))
        for alone, part in zip(psi.bridge_many(I, J), mixed):
            assert np.array_equal(alone, part[:-1])

    def test_rejects_killing_of_the_wrong_shape(self):
        gen = random_birth_death(10, 51)
        with pytest.raises(ValueError):
            psi_pair(gen, np.ones((9, 2)))
