import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from drawdown_ctmc.cli import load_config, run_oracle
from drawdown_ctmc.ctmc import (
    BirthDeathGenerator,
    Grid,
    build_generator,
    build_grid,
    build_levy_generator,
)
from drawdown_ctmc.linsolve import Singular
from drawdown_ctmc.models import ModelSpec
from drawdown_ctmc.oracle import HorizonCapHit, McConfig, dense_product_solve, mc_estimate
from drawdown_ctmc.quantities import (
    QuantityRequest,
    TooLarge,
    drawdown_occupation_killing,
    evaluate,
    nth_drawdown_no_recovery,
    q_drawdown,
)


def tiny_chain():
    """Five states, hand-set rates, drawdown of 2 steps."""
    states = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    up = np.array([0.0, 3.0, 2.0, 4.0, 0.0])
    down = np.array([0.0, 1.0, 5.0, 2.0, 0.0])
    grid = Grid(states=states, h=0.1, eta_x=2, x0=0.2)
    return BirthDeathGenerator(grid, up, down)


# Reference assembly of the product chains: one jump at a time, in the
# oracle's state order, each fired payoff added to a running sum.

def row_moves(gen, i):
    """Off-diagonal nonzeros (j, rate) of row i, ascending j; none where
    the out rate is 0."""
    row = gen.block(i, i, 0, gen.n - 1)[0]
    if row[i] == 0.0:
        return []
    return [(j, row[j]) for j in np.nonzero(row)[0] if j != i]


def pair_states(n, a, lo=0, hi=None):
    """Live pairs with a max from lo to hi (default n - 1)."""
    hi = n - 1 if hi is None else hi
    return [(i, m) for m in range(lo, hi + 1) for i in range(max(0, m - a + 1), m + 1)]


def triple_states(n, a, b, ix=0, iy=None):
    """A's states reachable from max ix and min iy (default every state):
    maxes up to iy + b - 1, mins up to iy."""
    iy = n - 1 if iy is None else iy
    return [(i, m, l) for i, m in pair_states(n, a, ix, min(n - 1, iy + b - 1))
            for l in range(max(0, i - b + 1), min(i, iy) + 1)]


def flag_states(n, a, lo=0):
    """Flagged states with a reference max of at least lo."""
    return [s for m in range(lo, n) for s in [(i, m, 1) for i in range(max(0, m - a + 1), m + 1)]
            + [(i, m, 0) for i in range(m + 1)]]


def pair_jumps(gen, a, fired):
    """(target, rate, payoff) of each jump from (i, m); fired(j, m) gives
    the target (None: absorbed) and payoff of a jump that fires the
    drawdown."""
    def jumps(s):
        i, m = s
        for j, rate in row_moves(gen, i):
            if j > m:
                yield (j, j), rate, None
            elif m - j >= a:
                tgt, pay = fired(j, m)
                yield tgt, rate, pay
            else:
                yield (j, m), rate, None
    return jumps


def triple_jumps(gen, a, b, f):
    def jumps(s):
        i, m, l = s
        for j, rate in row_moves(gen, i):
            if j > i:
                if j - l < b:              # else the drawup fires first: value 0
                    yield (j, max(m, j), l), rate, None
            elif m - j >= a:
                yield None, rate, f[j]
            else:
                yield (j, m, min(l, j)), rate, None
    return jumps


def flag_jumps(gen, a, fired):
    def jumps(s):
        i, m, armed = s
        for j, rate in row_moves(gen, i):
            if not armed:
                yield ((j, j, 1) if j >= m else (j, m, 0)), rate, None
            elif j > m:
                yield (j, j, 1), rate, None
            elif m - j >= a:
                tgt, pay = fired(j, m)
                yield tgt, rate, pay
            else:
                yield (j, m, 1), rate, None
    return jumps


def edge_loop_solve(gen, states, kill, jumps):
    """Values over the listed states: killing kill(s) plus the out rate on
    the diagonal, one matrix entry per jump, one sparse solve."""
    idx = {s: k for k, s in enumerate(states)}
    out_rate = -gen.diagonal()
    diag = np.empty(len(states), dtype=complex)
    rhs = np.zeros(len(states), dtype=complex)
    rows, cols, data = [], [], []
    for s, r in idx.items():
        diag[r] = kill(s) + out_rate[s[0]]
        for tgt, rate, pay in jumps(s):
            if pay is not None:
                rhs[r] += rate * pay
            if tgt is not None:
                rows.append(r)
                cols.append(idx[tgt])
                data.append(-rate)
    at = np.arange(len(states))
    mat = sp.csc_matrix((np.concatenate([diag, np.asarray(data, dtype=complex)]),
                         (np.concatenate([at, rows]), np.concatenate([at, cols]))),
                        shape=(len(states),) * 2)
    return dict(zip(states, spla.spsolve(mat, rhs)))


class TestDenseProduct:
    def test_hand_solved_pair_system(self):
        # start at state 2 with fresh max; drawdown fires two steps below the
        # running max.  Live pairs: (2,2), (1,2), (3,3), (2,3), (4,4), (3,4).
        gen = tiny_chain()
        q = 1.0
        req = QuantityRequest("Q", a=0.2, q=q)
        val = dense_product_solve(gen, req)
        pairs = [(2, 2), (1, 2), (3, 3), (2, 3), (4, 4), (3, 4)]
        idx = {p: k for k, p in enumerate(pairs)}
        M = np.zeros((6, 6))
        rhs = np.zeros(6)
        for (i, m), r in idx.items():
            out = gen.up[i] + gen.down[i]
            M[r, r] = q + out
            for j, rate in ((i + 1, gen.up[i]), (i - 1, gen.down[i])):
                if rate == 0.0:
                    continue
                mm = max(m, j)
                if mm - j >= 2:
                    rhs[r] += rate            # event, payoff 1
                else:
                    M[r, idx[(j, mm)]] -= rate
        ref = np.linalg.solve(M, rhs)[idx[(2, 2)]]
        assert val.real == pytest.approx(ref, abs=1e-12)

    def test_hand_solved_event_sum_systems(self):
        # Hsum: an event pays 1 and the reference max restarts at the landing
        # state.  Jsum: an event pays 1 and disarms; disarmed paths re-arm at
        # the first return to the reference max.  Every (position, max) pair
        # and (position, max, armed) triple of the five-state chain is written
        # out, reachable or not.
        gen = tiny_chain()
        q = 0.7
        kill = lambda s: q
        ref = edge_loop_solve(gen, pair_states(5, 2), kill,
                              pair_jumps(gen, 2, lambda j, m: ((j, j), 1.0)))
        val = dense_product_solve(gen, QuantityRequest("Hsum", a=0.2, q=q))
        assert val == pytest.approx(ref[(2, 2)], abs=1e-12)

        ref = edge_loop_solve(gen, flag_states(5, 2), kill,
                              flag_jumps(gen, 2, lambda j, m: ((j, m, 0), 1.0)))
        for y, start in ((0.2, (2, 2, 1)), (0.3, (2, 3, 0)), (0.4, (2, 4, 0))):
            val = dense_product_solve(gen, QuantityRequest("Jsum", a=0.2, q=q, y=y))
            assert val == pytest.approx(ref[start], abs=1e-12)

    def test_edge_loop_reference_bit_for_bit(self):
        # the same systems assembled one jump at a time, over the states
        # reachable from the start, numbered in the oracle's order and with
        # payoffs summed by a running +=, must give the oracle's values
        # exactly: on a lattice whose rows reach every state, and on a
        # birth-death chain, whose rows the oracle reads from up and down.
        # C's killing depends on the (state, max) pair; its reference matrix
        # is built one max at a time.
        bd = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 4, -0.6, 0.45))
        assert isinstance(bd, BirthDeathGenerator)
        for gen in (build_levy_generator(ModelSpec.dejd(), 0.05, -0.6, 0.45), bd):
            n, a, b, x0 = gen.n, 4, 5, gen.grid.eta_x
            f = 1.0 + 0.3 * np.sin(5.0 * gen.states)
            f2 = 1.0 + 0.2 * gen.states[:, None] - 0.1 * gen.states[None, :]
            q = 0.8 + 0.5j
            kill = lambda s: q
            req = lambda kind, **kw: QuantityRequest(kind, a=a * gen.grid.h, q=q, **kw)

            ref = edge_loop_solve(gen, pair_states(n, a, x0), kill,
                                  pair_jumps(gen, a, lambda j, m: (None, f[j])))
            assert dense_product_solve(gen, req("Q", f=f)) == ref[(x0, x0)]
            xi = 1.5 * gen.grid.h
            kf = drawdown_occupation_killing(q, xi, 0.05)
            k2 = np.stack([kf(gen.states, y) for y in gen.states], axis=1)
            ref = edge_loop_solve(gen, pair_states(n, a, x0 + 1), lambda s: k2[s],
                                  pair_jumps(gen, a, lambda j, m: (None, f[j])))
            val = dense_product_solve(gen, req("C", xi=xi, shift=0.05, f=f, x=gen.states[x0 + 1]))
            assert val == ref[(x0 + 1, x0 + 1)]
            ref = edge_loop_solve(gen, pair_states(n, a), kill,
                                  pair_jumps(gen, a, lambda j, m: ((j, j), 1.0)))
            assert dense_product_solve(gen, req("Hsum")) == ref[(x0, x0)]
            ref = edge_loop_solve(gen, triple_states(n, a, b, x0, x0), kill,
                                  triple_jumps(gen, a, b, f))
            assert dense_product_solve(gen, req("A", b=b * gen.grid.h, f=f)) == ref[(x0, x0, x0)]
            ref = edge_loop_solve(gen, flag_states(n, a, x0 + 2), kill,
                                  flag_jumps(gen, a, lambda j, m: ((j, m, 0), 1.0)))
            y = gen.states[x0 + 2]
            assert dense_product_solve(gen, req("Jsum", y=y)) == ref[(x0, x0 + 2, 0)]
            stage1 = edge_loop_solve(gen, flag_states(n, a, x0 + 2), kill,
                                     flag_jumps(gen, a, lambda j, m: (None, f2[j, m])))
            ref = edge_loop_solve(gen, flag_states(n, a, x0 + 2), kill,
                                  flag_jumps(gen, a, lambda j, m: (None, stage1[(j, m, 0)])))
            assert dense_product_solve(gen, req("Jn", n=2, y=y, f2=f2)) == ref[(x0, x0 + 2, 0)]

    def test_reachable_cut_is_exact(self):
        # the oracle numbers only the states reachable from the start; the
        # same systems over every state give the same start values, from the
        # anchor and off it
        bd = build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 4, -0.6, 0.45))
        for gen in (build_levy_generator(ModelSpec.dejd(), 0.05, -0.6, 0.45), bd):
            n, a, b, x0, st = gen.n, 4, 5, gen.grid.eta_x, gen.states
            f = 1.0 + 0.3 * np.sin(5.0 * st)
            f2 = 1.0 + 0.2 * st[:, None] - 0.1 * st[None, :]
            q = 0.8 + 0.5j
            kill = lambda s: q
            req = lambda kind, **kw: QuantityRequest(kind, a=a * gen.grid.h, q=q, **kw)
            close = lambda val, ref: abs(val - ref) <= 1e-12

            ref = edge_loop_solve(gen, pair_states(n, a), kill,
                                  pair_jumps(gen, a, lambda j, m: (None, f[j])))
            xi = 1.5 * gen.grid.h
            kf = drawdown_occupation_killing(q, xi, 0.05)
            k2 = np.stack([kf(st, y) for y in st], axis=1)
            ref_c = edge_loop_solve(gen, pair_states(n, a), lambda s: k2[s],
                                    pair_jumps(gen, a, lambda j, m: (None, f[j])))
            for x in (x0, x0 - 3, x0 + 2):
                assert close(dense_product_solve(gen, req("Q", f=f, x=st[x])), ref[(x, x)])
                val = dense_product_solve(gen, req("C", xi=xi, shift=0.05, f=f, x=st[x]))
                assert close(val, ref_c[(x, x)])

            ref = edge_loop_solve(gen, triple_states(n, a, b), kill, triple_jumps(gen, a, b, f))
            for x, y in ((x0, x0), (x0 - 2, x0 - 3), (x0 + 1, x0 - 2)):
                val = dense_product_solve(gen, req("A", b=b * gen.grid.h, f=f, x=st[x], y=st[y]))
                assert close(val, ref[(x, x, y)])

            ref = edge_loop_solve(gen, flag_states(n, a), kill,
                                  flag_jumps(gen, a, lambda j, m: ((j, m, 0), 1.0)))
            stage1 = edge_loop_solve(gen, flag_states(n, a), kill,
                                     flag_jumps(gen, a, lambda j, m: (None, f2[j, m])))
            ref_jn = edge_loop_solve(gen, flag_states(n, a), kill,
                                     flag_jumps(gen, a, lambda j, m: (None, stage1[(j, m, 0)])))
            for x, y in ((x0, x0), (x0 - 2, x0 + 1), (x0 - 5, x0 - 3)):
                start = (x, y, int(x == y))
                assert close(dense_product_solve(gen, req("Jsum", x=st[x], y=st[y])), ref[start])
                val = dense_product_solve(gen, req("Jn", n=2, x=st[x], y=st[y], f2=f2))
                assert close(val, ref_jn[start])

    def test_absorbing_state_without_killing_is_worth_zero(self):
        # B above its threshold and C with no shift kill nothing at the
        # chain's absorbing ends, so those pairs never leave and never fire:
        # they are worth 0, not a zero row of a singular system
        gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 6, -0.8, 0.5))
        for req in (QuantityRequest("B", a=0.2, q=2.0, xi=-0.05),
                    QuantityRequest("C", a=0.2, q=2.0, xi=0.1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = dense_product_solve(gen, req)
            assert abs(val - evaluate(gen, req)) <= 1e-12

    def test_singular_chain_raises(self):
        # states 1 and 2 jump only to each other, 1 step apart: with no
        # killing and a 2-step drawdown the pair chain never stops, so its
        # system is singular, and the oracle says so rather than return NaN
        grid = Grid(states=np.array([0.0, 0.1, 0.2, 0.3]), h=0.1, eta_x=1, x0=0.1)
        gen = BirthDeathGenerator(grid, np.array([0.0, 1.0, 0.0, 0.0]),
                                  np.array([0.0, 0.0, 1.0, 0.0]))
        with pytest.raises(Singular):
            dense_product_solve(gen, QuantityRequest("Q", a=0.2, q=0.0))

    def test_unreachable_drawup_reduces_to_plain(self):
        gen = tiny_chain()
        a = dense_product_solve(gen, QuantityRequest("A", a=0.2, b=5.0, q=1.3))
        qv = dense_product_solve(gen, QuantityRequest("Q", a=0.2, q=1.3))
        assert abs(a - qv) < 1e-12

    def test_second_event_by_explicit_two_stage_construction(self):
        g = build_grid(0.0, 0.2, 2, -0.5, 0.1)
        gen = build_generator(ModelSpec.bs(), g)
        assert gen.n == 7
        q = 1.5
        # stage one: value of one further event started at each fresh maximum
        stage1 = np.array([dense_product_solve(
            gen, QuantityRequest("Q", a=0.2, q=q, x=gen.states[j])).real
            for j in range(gen.n)])
        # stage two: plain drawdown collecting stage one at the event point
        ref = dense_product_solve(
            gen, QuantityRequest("Q", a=0.2, q=q, f=stage1))
        two = dense_product_solve(gen, QuantityRequest("Hn", a=0.2, q=q, n=2))
        assert abs(two - ref) < 1e-12
        rec = nth_drawdown_no_recovery(gen, q, 0.2, n=2)
        assert abs(two - rec) < 1e-9

    def test_cap_guard(self, monkeypatch):
        # the cap is checked on the arithmetic size of the space reachable
        # from the start, before any row is read
        import drawdown_ctmc.oracle as oracle

        def no_assembly(gen):
            raise AssertionError("assembled a product chain above the cap")

        monkeypatch.setattr(oracle, "_row_table", no_assembly)
        g = build_grid(0.0, 0.2, 40, -0.6, 0.4)
        gen = build_generator(ModelSpec.bs(), g)
        with pytest.raises(TooLarge):
            dense_product_solve(gen, QuantityRequest("Q", a=0.2, q=1.0), cap=100)
        # from the anchor (state 120 of 201) the 3,240 live pairs fit the
        # default cap, and so do Jsum's 16,281 flagged states (27,561 over
        # every max); A's 109,340 triples and Jsum's 27,561 from the lowest
        # state do not
        for req in (QuantityRequest("A", a=0.2, b=0.3, q=1.0),
                    QuantityRequest("Jsum", a=0.2, q=1.0, x=-0.6, y=-0.6)):
            with pytest.raises(TooLarge):
                dense_product_solve(gen, req)
        # sizes right at the cap pass the check: 21 live pairs from the
        # anchor (state 20) of a 41-state chain with a one-step drawdown
        small = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 2, -2.0, 2.0))
        with pytest.raises(AssertionError):
            dense_product_solve(small, QuantityRequest("Q", a=0.1, q=1.0), cap=21)
        with pytest.raises(TooLarge):
            dense_product_solve(small, QuantityRequest("Q", a=0.1, q=1.0), cap=20)

    def test_start_outside_the_space_rejected(self):
        gen = tiny_chain()
        with pytest.raises(ValueError, match="running minimum"):
            dense_product_solve(gen, QuantityRequest("A", a=0.2, b=0.2, q=1.0, y=0.3))
        with pytest.raises(ValueError, match="reference max"):
            dense_product_solve(gen, QuantityRequest("Jsum", a=0.2, q=1.0, y=0.1))

    def test_request_read_as_the_routes_read_it(self):
        # the oracles read payoffs through the analytic side's reader: a
        # payoff array of the wrong length is rejected on both sides, and
        # Hn's product chain keeps a complex payoff
        gen = tiny_chain()
        short = QuantityRequest("Q", a=0.2, q=1.0, f=np.ones(gen.n - 1))
        for solve in (evaluate, dense_product_solve):
            with pytest.raises(ValueError, match="one value per state"):
                solve(gen, short)
        with pytest.raises(ValueError, match="one value per state"):
            mc_estimate(gen, short, McConfig(n_paths=10))
        cplx = (1.0 + 2.0j) * gen.states
        for req in (QuantityRequest("Hn", a=0.2, q=1.0, n=2, f=cplx),
                    QuantityRequest("Q", a=0.2, q=1.0, f=cplx),
                    QuantityRequest("Jn", a=0.2, q=1.0, n=1, f2=lambda z, y: (1.0 + 2.0j) * (y - z))):
            value = evaluate(gen, req)
            assert value.imag > 0.0
            assert abs(dense_product_solve(gen, req) - value) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("kind", ["Q", "Hn", "Jn"])
    def test_mc_refuses_a_complex_payoff(self, kind):
        # as it refuses complex killings: the simulation would keep only
        # the real part
        gen, _ = pinned_chain("BS")
        one = np.ones(gen.n)
        req = {"Q": QuantityRequest("Q", a=0.2, q=1.0, f=(1.0 + 2.0j) * one),
               "Hn": QuantityRequest("Hn", a=0.2, q=1.0, n=2, f=(1.0 + 2.0j) * one),
               "Jn": QuantityRequest("Jn", a=0.2, q=1.0, n=2,
                                     f2=lambda z, y: (1.0 + 2.0j) * np.ones(np.broadcast(z, y).shape))}[kind]
        with pytest.raises(ValueError, match="MC oracle requires a real payoff"):
            mc_estimate(gen, req, McConfig(n_paths=10))

    def test_killing_at_or_below_minus_the_out_rate_refused(self):
        # a holding time's mean discount r / (r + k) is finite only for
        # r + k > 0; a negative killing above -r still runs
        gen, _ = pinned_chain("BS")
        r = -gen.diagonal()[gen.n // 2]
        with pytest.raises(ValueError, match="above minus the out rates"):
            mc_estimate(gen, QuantityRequest("Q", a=0.2, q=-r), McConfig(n_paths=10))
        mean, _ = mc_estimate(gen, QuantityRequest("Q", a=0.2, q=-0.5), McConfig(n_paths=100))
        assert np.isfinite(mean)

    def test_node_vector_rejected(self):
        gen = tiny_chain()
        req = QuantityRequest("Q", a=0.2, q=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            dense_product_solve(gen, req)
        with pytest.raises(ValueError, match="scalar"):
            mc_estimate(gen, req, McConfig(n_paths=10))


@pytest.fixture(scope="module")
def bs_gen():
    g = build_grid(0.0, 0.2, 8, -2.0, 2.0)
    return build_generator(ModelSpec.bs(r_f=0.05), g)


class TestMonteCarlo:
    def test_zero_payoff_exact(self, bs_gen):
        req = QuantityRequest("Q", a=0.2, q=1.0, f=np.zeros(bs_gen.n))
        est, err = mc_estimate(bs_gen, req, McConfig(n_paths=2000, seed=1))
        assert est == 0.0 and err == 0.0

    def test_seed_determinism(self, bs_gen):
        req = QuantityRequest("Q", a=0.2, q=1.0)
        cfg = McConfig(n_paths=5000, seed=42)
        a = mc_estimate(bs_gen, req, cfg)
        b = mc_estimate(bs_gen, req, cfg)
        assert a == b

    def test_within_three_stderr_of_analytic(self, bs_gen):
        req = QuantityRequest("Q", a=0.2, q=1.0)
        est, err = mc_estimate(bs_gen, req, McConfig(n_paths=100_000, seed=7))
        ref = q_drawdown(bs_gen, 1.0, 0.2).real
        assert abs(est - ref) < 3.0 * err

    def test_stderr_scaling(self, bs_gen):
        req = QuantityRequest("Q", a=0.2, q=1.0)
        _, e1 = mc_estimate(bs_gen, req, McConfig(n_paths=10_000, seed=3))
        _, e4 = mc_estimate(bs_gen, req, McConfig(n_paths=40_000, seed=3))
        assert e1 / e4 == pytest.approx(2.0, rel=0.2)

    def test_drawdown_before_drawup_mc(self, bs_gen):
        req = QuantityRequest("A", a=0.2, q=1.0, b=0.3, y=-0.1)
        est, err = mc_estimate(bs_gen, req, McConfig(n_paths=60_000, seed=9))
        from drawdown_ctmc.quantities import drawdown_before_drawup
        ref = drawdown_before_drawup(bs_gen, 1.0, 0.2, 0.3, y=-0.1).real
        assert abs(est - ref) < 3.5 * err

    def test_birth_death_draw_matches_the_cdf_count(self):
        # random rates, one row that only steps up and one that only steps down
        from drawdown_ctmc.ctmc import DenseGenerator
        from drawdown_ctmc.oracle import _jump_tables, _next_state

        rng = np.random.default_rng(11)
        g = build_grid(0.0, 0.1, 4, -1.0, 1.0)
        up, down = rng.uniform(0.0, 5.0, g.n), rng.uniform(0.0, 5.0, g.n)
        up[3] = down[7] = 0.0
        chain = BirthDeathGenerator(g, up, down)
        out_rates, cdf, guide, p_down = _jump_tables(chain)
        assert cdf is None and guide is None and p_down is not None
        # the general tables of the chain's dense copy
        _, cdf, guide, _ = _jump_tables(DenseGenerator(g, chain.to_dense()))
        rows = np.flatnonzero(out_rates > 0.0)
        assert np.array_equal(p_down[rows], cdf[rows, rows - 1])
        pos = rng.integers(1, g.n - 1, 200_000)
        u = rng.random(pos.size)
        assert np.array_equal(_next_state(None, None, p_down, pos, u),
                              _next_state(cdf, guide, None, pos, u))

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()], ids=["DEJD", "VG"])
    def test_lattice_draw_matches_the_cdf_count(self, model):
        from drawdown_ctmc.ctmc import DenseGenerator, build_levy_generator
        from drawdown_ctmc.oracle import _jump_tables, _next_state

        gen = build_levy_generator(model, 0.05, -1.0, 1.0)
        rates = gen.to_dense()
        rates[[5, 20], 8:30] = 0.0            # two rows with flat zero-mass runs
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        rng = np.random.default_rng(17)
        for chain in (gen, DenseGenerator(gen.grid, rates)):
            _, cdf, guide, p_down = _jump_tables(chain)
            assert p_down is None
            n = chain.n
            pos = rng.integers(1, n - 1, 200_000)
            u = rng.random(pos.size)
            # u exactly on CDF entries (flat runs included), and u = 0
            on = rng.integers(0, n, 20_000)
            u[:on.size] = cdf[pos[:on.size], on]
            u[on.size:on.size + 1000] = 0.0
            pos[-1000:] = 5
            u[-1000:] = cdf[5, rng.integers(7, 31, 1000)]
            ref = (cdf[pos] < u[:, None]).sum(axis=1)
            assert np.array_equal(_next_state(cdf, guide, None, pos, u), ref)

    @pytest.mark.parametrize("model", [ModelSpec.dejd(), ModelSpec.vg()], ids=["DEJD", "VG"])
    def test_lattice_draw_on_bucket_edges_and_in_wide_buckets(self, model):
        # on this lattice each row's far tail states share one guide bucket
        from drawdown_ctmc.oracle import _GUIDE as k, _jump_tables, _next_state

        gen = build_levy_generator(model, 0.0125, -2.0, 2.0)
        _, cdf, guide, _ = _jump_tables(gen)
        rows = np.arange(1, gen.n - 1)
        span = np.diff(guide[rows, :k + 1], axis=1)
        assert span.max() > 100
        # u on every bucket edge j / K of every row
        pos = np.repeat(rows, k)
        u = np.tile(np.arange(k) / k, rows.size)
        # u on every CDF entry inside a wide bucket, and uniforms inside those buckets
        r, j = np.nonzero(span)
        at = np.repeat(np.arange(r.size), span[r, j])
        entry = np.arange(at.size) - np.repeat(np.cumsum(span[r, j]) - span[r, j], span[r, j])
        rng = np.random.default_rng(23)
        pos = np.concatenate([pos, rows[r[at]], rows[r]])
        u = np.concatenate([u, cdf[rows[r[at]], guide[rows[r[at]], j[at]] + entry],
                            (j + rng.random(j.size)) / k])
        ref = np.concatenate([np.searchsorted(cdf[i], u[pos == i]) for i in rows])
        order = np.argsort(pos, kind="stable")
        assert np.array_equal(_next_state(cdf, guide, None, pos, u)[order], ref)

    def test_lattice_draw_lands_on_a_state_for_every_uniform(self):
        # on this lattice 191 of the 319 active rows of jump probabilities
        # sum to less than 1 - 2^-53: the largest uniform below 1 must still
        # land on a state the row can reach
        from drawdown_ctmc.oracle import _jump_tables, _next_state

        gen = build_levy_generator(ModelSpec.dejd(), 0.0125, -2.0, 2.0)
        rates = gen.to_dense()
        np.fill_diagonal(rates, 0.0)
        out_rates, cdf, guide, _ = _jump_tables(gen)
        rows = np.flatnonzero(out_rates > 0.0)
        nxt = _next_state(cdf, guide, None, rows, np.full(rows.size, np.nextafter(1.0, 0.0)))
        assert nxt.max() < gen.n
        assert np.all(rates[rows, nxt] > 0.0)

    def test_batch_size_validated(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="batch"):
                McConfig(batch_size=bad)

    def test_seed_and_horizon_validated(self):
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="horizon"):
                McConfig(horizon_cap=bad)

    def test_horizon_cap_guard(self):
        # strong mean reversion keeps paths alive: a tiny cap must trip
        g = build_grid(0.0, 0.2, 4, -2.0, 2.0)
        gen = build_generator(ModelSpec.bs(r_f=0.05), g)
        req = QuantityRequest("B", a=0.2, q=1e-9, xi=-1.9)  # almost no killing
        with pytest.raises(HorizonCapHit):
            mc_estimate(gen, req, McConfig(n_paths=2000, seed=5, horizon_cap=0.05))


@pytest.mark.parametrize("kind", ["Hsum", "Jsum"])
def test_event_sum_mc_matches_product_chain(kind):
    # 14-state BS chain of the shipped no-recovery insurance study, q = 1/T
    path = Path(__file__).resolve().parents[1] / "configs" / "insurance_no_recovery_bs.ini"
    cfg = load_config(str(path), [f"quantity.kind={kind}", "grid.n_x=4",
                                  "grid.y_min=-0.6", "grid.y_max=0.4"])
    (row,) = run_oracle(cfg, McConfig(n_paths=4000, seed=cfg.mc.seed))
    assert row["dense"] == pytest.approx(row["analytic"], abs=1e-9)
    assert abs(row["mc"] - row["dense"]) < 3.0 * row["stderr"]


def test_drawdown_before_drawup_reference_under_the_default_cap(monkeypatch):
    # the shipped A/BS study at n_x = 8: the triples reachable from the start
    # fit the default cap (every triple would not), and the product chain
    # matches the analytic value
    import drawdown_ctmc.oracle as oracle

    sizes = []
    numbering = oracle._triple_numbering

    def counted(*args):
        out = numbering(*args)
        sizes.append(out[2].size)
        return out

    monkeypatch.setattr(oracle, "_triple_numbering", counted)
    path = Path(__file__).resolve().parents[1] / "configs" / "drawdown_before_drawup_bs.ini"
    cfg = load_config(str(path), ["grid.n_x=8"])
    (row,) = run_oracle(cfg, McConfig(n_paths=2000, seed=cfg.mc.seed))
    assert row["dense"] == pytest.approx(row["analytic"], abs=1e-9)
    assert len(sizes) == 1 and sizes[0] < 1000


# (mean, stderr) of 3,000 paths in three batches of 1,024, pinned bit for
# bit: every kind on a birth-death chain (O(1) draws) at q = 6, where Hsum,
# Jn and Jsum keep paths alive up to the e^-36 discount cutoff, four kinds
# on a DEJD lattice and two on a VG lattice (indexed-search draws) at q = 1.
# Regenerate them only for a change meant to move the draws, with
# ``PYTHONPATH=src python tests/test_oracle.py``.
MC_PINS = {
    ("BS", "Q"): (0.16334038388404043, 0.0029990247182672086),
    ("BS", "A"): (0.144583362645333, 0.0031445118218949774),
    ("BS", "B"): (0.30671978450472526, 0.0035501460271366208),
    ("BS", "C"): (0.7276744991480348, 0.00285079737279906),
    ("BS", "Hn"): (0.026762895800486273, 0.0008495913830105662),
    ("BS", "Hsum"): (0.19207075116241798, 0.00368825843824229),
    ("BS", "Jn"): (0.0014953230293769859, 0.00010763040646801395),
    ("BS", "Jsum"): (0.09144667861067877, 0.0022451965408278192),
    ("DEJD", "A"): (0.23225375705286208, 0.006714918568674921),
    ("DEJD", "B"): (0.6724181122691542, 0.006032442451401737),
    ("DEJD", "C"): (0.7661223913557185, 0.006636127890911218),
    ("DEJD", "Hn"): (0.24845545174388908, 0.004328078925917247),
    ("VG", "B"): (0.9643962581674841, 0.0019594447292994636),
    ("VG", "C"): (0.9813534744696721, 0.0019765096052194293),
}


def pinned_request(kind, q):
    return {
        "Q": QuantityRequest("Q", a=0.2, q=q),
        "A": QuantityRequest("A", a=0.2, b=0.3, q=q, y=-0.1),
        "B": QuantityRequest("B", a=0.2, q=q, xi=0.1, shift=0.05),
        "C": QuantityRequest("C", a=0.2, q=q, xi=0.1, shift=0.05),
        "Hn": QuantityRequest("Hn", a=0.2, q=q, n=2),
        "Hsum": QuantityRequest("Hsum", a=0.2, q=q),
        "Jn": QuantityRequest("Jn", a=0.2, q=q, n=2, x=-0.05, y=0.0),
        "Jsum": QuantityRequest("Jsum", a=0.2, q=q, x=-0.05, y=0.0),
    }[kind]


def pinned_chain(model):
    if model == "BS":
        return build_generator(ModelSpec.bs(r_f=0.05), build_grid(0.0, 0.2, 4, -1.0, 1.0)), 6.0
    model = ModelSpec.dejd() if model == "DEJD" else ModelSpec.vg()
    return build_levy_generator(model, 0.05, -1.0, 1.0), 1.0


PIN_CFG = McConfig(n_paths=3000, seed=5, batch_size=1024)


@pytest.mark.parametrize("model, kind", list(MC_PINS), ids=lambda v: v)
def test_mc_pinned_bit_for_bit(model, kind):
    gen, q = pinned_chain(model)
    assert mc_estimate(gen, pinned_request(kind, q), PIN_CFG) == MC_PINS[model, kind]


@pytest.mark.parametrize("model, kind", list(MC_PINS), ids=lambda v: v)
def test_mc_pins_agree_with_the_product_chain(model, kind):
    # a regenerated pin cannot freeze a biased estimator
    gen, q = pinned_chain(model)
    req = pinned_request(kind, q)
    mean, stderr = MC_PINS[model, kind]
    assert abs(mean - dense_product_solve(gen, req).real) < 3.0 * stderr


class CountingDraws:
    """The batch generator's ``random``, recording each call's size; any
    other draw raises AttributeError."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def random(self, size):
        self._sizes.append(size)
        return self._rng.random(size)


@pytest.mark.parametrize("model, kind", [("BS", "A"), ("BS", "Jsum"), ("DEJD", "C"),
                                         ("VG", "B")], ids=lambda v: v)
def test_one_uniform_per_live_path_per_jump(monkeypatch, model, kind):
    import drawdown_ctmc.oracle as oracle

    draws, jumps = [], []
    batch, next_state = oracle._simulate_batch, oracle._next_state

    def counted_batch(rng, *args):
        return batch(CountingDraws(rng, draws), *args)

    def counted_next(*args):
        jumps.append(args[-2].size)   # the live paths' positions
        return next_state(*args)

    monkeypatch.setattr(oracle, "_simulate_batch", counted_batch)
    monkeypatch.setattr(oracle, "_next_state", counted_next)
    gen, q = pinned_chain(model)
    assert mc_estimate(gen, pinned_request(kind, q), PIN_CFG) == MC_PINS[model, kind]
    assert draws == jumps and sum(jumps) > PIN_CFG.n_paths


def test_mc_pins_reach_the_discount_cutoff(monkeypatch):
    # without the cutoff the pinned event sum changes: its run retires
    # paths there
    import drawdown_ctmc.oracle as oracle

    gen, q = pinned_chain("BS")
    monkeypatch.setattr(oracle, "_ACC_CUTOFF", np.inf)
    assert mc_estimate(gen, pinned_request("Hsum", q), PIN_CFG) != MC_PINS["BS", "Hsum"]


if __name__ == "__main__":
    # print the pin table from the current code, for a change meant to move
    # the draws: PYTHONPATH=src python tests/test_oracle.py
    print("MC_PINS = {")
    for model, kind in MC_PINS:
        gen, q = pinned_chain(model)
        print(f'    ("{model}", "{kind}"): {mc_estimate(gen, pinned_request(kind, q), PIN_CFG)!r},')
    print("}")
