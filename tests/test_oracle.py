from pathlib import Path

import numpy as np
import pytest

from drawdown_ctmc.cli import load_config, run_oracle
from drawdown_ctmc.ctmc import BirthDeathGenerator, Grid, build_generator, build_grid
from drawdown_ctmc.models import ModelSpec
from drawdown_ctmc.oracle import HorizonCapHit, McConfig, dense_product_solve, mc_estimate
from drawdown_ctmc.quantities import (
    QuantityRequest,
    TooLarge,
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

    def test_cap_guard(self):
        g = build_grid(0.0, 0.2, 40, -4.0, 4.0)
        gen = build_generator(ModelSpec.bs(), g)
        with pytest.raises(TooLarge):
            dense_product_solve(gen, QuantityRequest("Q", a=0.2, q=1.0), cap=100)


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
        from drawdown_ctmc.oracle import _jump_tables, _next_state

        rng = np.random.default_rng(11)
        g = build_grid(0.0, 0.1, 4, -1.0, 1.0)
        up, down = rng.uniform(0.0, 5.0, g.n), rng.uniform(0.0, 5.0, g.n)
        up[3] = down[7] = 0.0
        _, cdf, p_down = _jump_tables(BirthDeathGenerator(g, up, down))
        pos = rng.integers(1, g.n - 1, 200_000)
        u = rng.random(pos.size)
        assert p_down is not None
        assert np.array_equal(_next_state(cdf, p_down, pos, u), _next_state(cdf, None, pos, u))

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
