import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drawdown_ctmc.ctmc import (
    BirthDeathGenerator,
    DenseGenerator,
    Generator,
    Grid,
    build_generator,
    build_grid,
    build_levy_generator,
)
from drawdown_ctmc.laplace import inversion_nodes_weights
from drawdown_ctmc.linsolve import DegenerateWindow
from drawdown_ctmc.models import ModelSpec
from drawdown_ctmc.oracle import dense_product_solve
from drawdown_ctmc.quantities import (
    NotLevy,
    QuantityRequest,
    TooLarge,
    UnsupportedRegime,
    _EventCore,
    _bipayoff,
    _hn_terms,
    _jn_terms,
    _last_rows,
    _start_pair,
    c_levy_closed_form,
    drawdown_before_drawup,
    drawdown_occupation,
    evaluate,
    h_levy_closed_form,
    insurance_no_recovery,
    insurance_with_recovery,
    j_levy_closed_form,
    nth_drawdown_no_recovery,
    nth_drawdown_with_recovery,
    occupation_below_killing,
    occupation_until_drawdown,
    q_drawdown,
)
from helpers import dense_copy, random_jump_chain


def event_partial_sums(terms, n_max=50):
    """Running sums of the first n_max per-event values: (n_max, k)."""
    return np.cumsum(list(itertools.islice(terms, n_max)), axis=0)


@pytest.fixture(scope="module")
def bs_small():
    g = build_grid(0.0, 0.2, 8, -0.8, 0.4)
    return build_generator(ModelSpec.bs(), g)


@pytest.fixture(scope="module")
def dejd_lattice():
    return build_levy_generator(ModelSpec.dejd(), 0.02, -1.0, 1.0)


class TestQDrawdown:
    def test_absorbing_top_is_zero(self, bs_small):
        top = bs_small.grid.states[-1]
        assert q_drawdown(bs_small, 1.0, 0.2, x=top) == 0.0

    def test_zero_payoff(self, bs_small):
        v = q_drawdown(bs_small, 1.0, 0.2, f=np.zeros(bs_small.n))
        assert v == 0.0

    def test_matches_product_oracle(self):
        g = build_grid(0.0, 0.2, 40, -0.8, 0.4)
        gen = build_generator(ModelSpec.bs(), g)
        v = q_drawdown(gen, 1.0, 0.2, f=None)
        ref = dense_product_solve(gen, QuantityRequest("Q", a=0.2, q=1.0))
        assert abs(v - ref) < 1e-9

    def test_psi_path_equals_generic_complex_argument(self, bs_small):
        for q in (1.0, 2.0 + 3.0j, 20.0 + 60.0j):
            fast = q_drawdown(bs_small, q, 0.2)
            slow = q_drawdown(dense_copy(bs_small), q, 0.2)
            assert abs(fast - slow) < 1e-9

    def test_monotone_in_q(self, bs_small):
        vals = [q_drawdown(bs_small, q, 0.2).real for q in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_killing_rejected(self, bs_small):
        for gen in (bs_small, dense_copy(bs_small)):
            with pytest.raises(ValueError, match="nonnegative real part"):
                q_drawdown(gen, -1.0 + 2.0j, 0.2)


class TestDrawdownBeforeDrawup:
    def test_unreachable_drawup_equals_plain_drawdown(self, bs_small):
        # drawup level beyond the grid span can never fire first
        v = drawdown_before_drawup(bs_small, 1.5, 0.2, 5.0)
        ref = q_drawdown(bs_small, 1.5, 0.2)
        assert abs(v - ref) < 1e-12

    def test_dominated_by_plain_drawdown(self, bs_small):
        states = bs_small.grid.states
        ref = q_drawdown(bs_small, 1.0, 0.2).real
        for y in (0.0, -0.05, -0.15):
            v = drawdown_before_drawup(bs_small, 1.0, 0.2, 0.3, y=y).real
            assert v <= ref + 1e-12

    def test_b_below_a_rejected(self, bs_small):
        with pytest.raises(UnsupportedRegime):
            drawdown_before_drawup(bs_small, 1.0, 0.2, 0.1)

    def test_diffusion_matches_generic(self, bs_small):
        for (x, y) in ((0.0, 0.0), (0.0, -0.1)):
            fast = drawdown_before_drawup(bs_small, 1.2 + 0.7j, 0.2, 0.3, x=x, y=y)
            slow = drawdown_before_drawup(dense_copy(bs_small), 1.2 + 0.7j, 0.2, 0.3, x=x, y=y)
            assert abs(fast - slow) < 1e-10

    def test_y_interpolation_is_linear(self, bs_small):
        h = bs_small.grid.h
        lo = drawdown_before_drawup(bs_small, 1.0, 0.2, 0.3, y=-2 * h)
        hi = drawdown_before_drawup(bs_small, 1.0, 0.2, 0.3, y=-h)
        mid = drawdown_before_drawup(bs_small, 1.0, 0.2, 0.3, y=-1.5 * h)
        assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_started_past_drawup_level_is_zero(self, bs_small):
        assert drawdown_before_drawup(bs_small, 1.0, 0.2, 0.3, y=-0.4) == 0.0

    @pytest.mark.parametrize("y", [-0.85, -1.0, -1.3])
    def test_minimum_below_the_grid_rejected(self, bs_small, y):
        # the lowest state is -0.8: the row of a negative minimum index
        # would read 0 or the value of an unrelated minimum
        with pytest.raises(ValueError, match="below the lowest grid state"):
            drawdown_before_drawup(bs_small, 1.0, 0.2, 0.3, y=y)

    def test_single_step_levels(self):
        # a one step wide: windows have a single state and no interior minima
        g = build_grid(0.0, 0.05, 2, -0.5, 0.4)
        gen = build_generator(ModelSpec.dejd(), g)
        h = g.h
        for b_steps in (1, 3):
            req = QuantityRequest("A", a=h, b=b_steps * h, q=1.3, y=-h)
            val = evaluate(gen, req)   # a dense generator: the generic route
            ref = dense_product_solve(gen, req)
            assert abs(val - ref) < 1e-12

    @pytest.mark.parametrize("model", [ModelSpec.bs(), ModelSpec.cev()], ids=["BS", "CEV"])
    @pytest.mark.parametrize("a_steps", [1, 2, 5])
    @pytest.mark.parametrize("t0", [1, 12])   # 1: windows reaching state 0
    def test_weight_tables_match_the_pair(self, model, a_steps, t0):
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import psi_pair

        gen = build_generator(model, build_grid(0.0, 0.2, 8, -0.8, 0.4))
        nodes = np.array([1.3, 2.0 + 0.7j, 5.0 + 800j, 0.4 - 790j])
        t1 = gen.n - 2
        first = 1 - a_steps   # every state a top can read, the padding rows included
        coeffs = qmod._a_recurrences(gen, nodes, a_steps, first, t1)
        up, omega, down = qmod._a_weights(coeffs, a_steps, t0, t1, first)
        psi = psi_pair(gen, nodes)
        # every (top i, split m = i - d) with m >= 0, d = 1 .. a
        i, d = (x.ravel() for x in np.meshgrid(np.arange(t0, t1 + 1), np.arange(1, a_steps + 1)))
        keep = i >= d
        i, d = i[keep], d[keep]
        m = i - d
        up_top, dn_top = psi.exit_weights(i, m, i + 1)
        up_bot = psi.exit_weights(np.maximum(m, 1), np.maximum(m - 1, 0), i + 1)[0]

        def close(x, y):
            return np.all(np.abs(x - y) <= 1e-11 * np.abs(y))

        assert close(up[i - t0, a_steps - d], up_top)
        split = d < a_steps
        inner = split & (m > 0)
        assert close(omega[(i - t0)[inner], (a_steps - d)[inner]], (dn_top * up_bot)[inner])
        assert np.all(omega[(i - t0)[split & (m == 0)], (a_steps - d)[split & (m == 0)]] == 0.0)
        tops = np.arange(t0, t1 + 1)
        window_dn = psi.exit_weights(tops, np.maximum(tops - a_steps, 0), tops + 1)[1]
        assert close(down[tops >= a_steps], window_dn[tops >= a_steps])
        assert np.all(down[tops < a_steps] == 0.0)

    def test_zero_interior_rate_rejected(self, bs_small):
        from drawdown_ctmc.ctmc import BirthDeathGenerator
        from drawdown_ctmc.linsolve import DegenerateWindow

        up = bs_small.up.copy()
        up[10] = 0.0
        gen = BirthDeathGenerator(bs_small.grid, up, bs_small.down)
        with pytest.raises(DegenerateWindow, match="zero interior rate"):
            drawdown_before_drawup(gen, 1.0, 0.2, 0.3)

    def test_weights_do_not_grow_with_the_grid(self, monkeypatch):
        # the weights come in blocks from the recurrence: no bridge
        # determinant per window top, so the count is the same on every grid
        from drawdown_ctmc.linsolve import PsiPair

        calls = []
        bridge_many = PsiPair.bridge_many

        def counted(self, *args):
            calls.append(1)
            return bridge_many(self, *args)

        monkeypatch.setattr(PsiPair, "bridge_many", counted)
        nodes = np.array([1.0, 5.0 + 800j])
        counts = []
        for n_x in (4, 16):
            gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, n_x, -0.8, 0.4))
            calls.clear()
            fast = drawdown_before_drawup(gen, nodes, 0.2, 0.3, y=-0.1)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3
        slow = drawdown_before_drawup(dense_copy(gen), nodes, 0.2, 0.3, y=-0.1)
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow))


class TestOccupationUntilDrawdown:
    def test_constant_killing_collapses_to_q(self, bs_small):
        q = 1.7 + 0.3j
        v = occupation_until_drawdown(bs_small, q, 0.2)
        assert abs(v - q_drawdown(bs_small, q, 0.2)) < 1e-12

    def test_zero_killing_is_probability(self, bs_small):
        v = occupation_until_drawdown(bs_small, 1e-12, 0.2).real
        assert 0.0 <= v <= 1.0

    def test_threshold_killing_bounds(self, bs_small):
        k = occupation_below_killing(2.0, 0.05, 0.1)
        v = occupation_until_drawdown(bs_small, k, 0.2).real
        assert 0.0 <= v <= 1.0

    def test_linear_in_the_payoff_on_jump_chains(self):
        gen = random_jump_chain(14)
        rng = np.random.default_rng(5)
        f1, f2 = rng.random(14), rng.random(14)
        a, b = 0.7, -1.3
        for x in gen.states[1:13]:
            v1, v2, v12 = (occupation_until_drawdown(gen, 2.0, 0.16, f=f, x=x)
                           for f in (f1, f2, a * f1 + b * f2))
            assert abs(v12 - (a * v1 + b * v2)) < 1e-12

    def test_state_dependent_killing_bounds_on_jump_chains(self):
        for seed in range(4):
            gen = random_jump_chain(12, seed)
            rng = np.random.default_rng(seed + 100)
            f = rng.random(12)
            rates = rng.uniform(0.0, 3.0, 12)
            kill = lambda s: np.interp(s, gen.states, rates)
            for x in gen.states[1:11]:
                v = occupation_until_drawdown(gen, kill, 0.16, f=f, x=x).real
                assert -1e-12 <= v <= 1.0 + 1e-12


class TestDrawdownOccupation:
    def test_max_independent_killing_collapses(self, bs_small):
        # xi < 0: every state of every window carries the killing q
        q = 1.4
        v = drawdown_occupation(bs_small, q, 0.2, -0.05)
        ref = occupation_until_drawdown(bs_small, q, 0.2)
        assert abs(v - ref) < 1e-12

    def test_bounds(self, bs_small):
        v = drawdown_occupation(bs_small, 2.0, 0.2, 0.1, shift=0.3).real
        assert 0.0 <= v <= 1.0

    NODES = np.append(inversion_nodes_weights(0.1)[0], 1.0 + 800.0j)

    @pytest.mark.parametrize("model", [ModelSpec.bs(), ModelSpec.cev()], ids=["BS", "CEV"])
    @pytest.mark.parametrize("xi", [-0.05, 0.0, 0.0125, 0.1, 0.175, 0.2, 0.25])
    def test_pair_route_matches_the_sweep(self, model, xi):
        # h = 0.025 and a = 0.2: the breakpoint sits at the window top for
        # xi < h, at the floor for xi >= a - h, and inside otherwise; started
        # two states above the bottom, the lowest windows reach state 0
        gen = build_generator(model, build_grid(0.0, 0.2, 8, -0.8, 0.4))
        dense = dense_copy(gen)
        for x in (None, gen.states[2]):
            fast = drawdown_occupation(gen, self.NODES, 0.2, xi, x=x, shift=0.05)
            slow = drawdown_occupation(dense, self.NODES, 0.2, xi, x=x, shift=0.05)
            assert np.all(np.abs(fast - slow) <= 1e-10 * np.maximum(1.0, np.abs(slow)))

    def test_levy_closed_form_vs_recursion(self):
        gen = build_levy_generator(ModelSpec.dejd(), 0.02, -4.0, 4.0)
        q = 6.0 + 0.5j
        cf = c_levy_closed_form(gen, q, 0.1, 0.04, shift=0.5)
        rec = drawdown_occupation(gen, q, 0.1, 0.04, f=np.ones(gen.n), shift=0.5)   # the sweep
        assert abs(cf - rec) < 1e-8

    def test_closed_form_gap_comes_from_the_lattice_top(self):
        # the shipped VG digital at n_x=8: the closed form (infinite lattice)
        # and the sweep (truncated chain) differ by the mass that jumps over
        # y_max; widening the top closes the gap, widening the bottom does not
        from pathlib import Path

        from drawdown_ctmc.cli import load_config

        ini = Path(__file__).resolve().parents[1] / "configs" / "drawdown_occupation_digital_vg.ini"
        cfg = load_config(str(ini), ["grid.n_x=8"])
        q, h, shift = 1.0 / cfg.T, cfg.a / 8, cfg.model.r_f

        def gap(y_min, y_max):
            gen = build_levy_generator(cfg.model, h, y_min, y_max, x0=cfg.x,
                                       drift_scheme="central")
            cf = c_levy_closed_form(gen, q, cfg.a, cfg.xi, shift=shift)
            sweep = drawdown_occupation(gen, q, cfg.a, cfg.xi, f=np.ones(gen.n), shift=shift)
            return abs(cf - sweep)

        shipped = gap(cfg.y_min, cfg.y_max)
        assert (cfg.y_min, cfg.y_max) == (-5.0, 5.0)
        assert 4e-7 < shipped < 6e-7
        assert gap(cfg.y_min, 8.0) < 1e-9
        assert gap(-8.0, cfg.y_max) == pytest.approx(shipped, rel=1e-6)

    def test_closed_form_denominator_modulus(self, dejd_lattice):
        # the up-exit weight has modulus < 1 under strict killing
        eta = dejd_lattice.grid.eta_x
        lo = eta - dejd_lattice.grid.steps_of(0.1) + 1
        kv = np.full((eta - lo + 1, 1), 2.0 + 1.0j)
        _, above = dejd_lattice.window_exit_masses(lo, eta)
        p_up = _last_rows(dejd_lattice, lo, eta, kv) @ above
        assert abs(p_up[0]) < 1.0


@pytest.mark.parametrize("closed_form", [
    lambda gen, a: c_levy_closed_form(gen, 2.0, a, 0.04, shift=0.05),
    lambda gen, a: h_levy_closed_form(gen, 2.0, a),
    lambda gen, a: j_levy_closed_form(gen, 2.0, a),
], ids=["C", "Hsum", "Jsum"])
def test_closed_form_guards(closed_form, bs_small):
    # only a translation-invariant lattice qualifies, and its window
    # (-a, 0] must end above the absorbing bottom
    for gen in (bs_small, dense_copy(bs_small)):
        with pytest.raises(NotLevy):
            closed_form(gen, 0.2)
    lattice = build_levy_generator(ModelSpec.dejd(), 0.02, -0.1, 0.4)
    assert lattice.grid.eta_x == 5
    assert np.isfinite(closed_form(lattice, 5 * 0.02))
    for a in (6 * 0.02, 0.2):
        with pytest.raises(DegenerateWindow, match="too narrow below the anchor"):
            closed_form(lattice, a)


@pytest.mark.parametrize("req", [
    QuantityRequest("C", a=0.1, q=2.0, xi=0.05, x=0.9),
    QuantityRequest("Hsum", a=0.1, q=2.0, x=0.9),
    QuantityRequest("Jsum", a=0.1, q=2.0, x=0.9),
], ids=["C", "Hsum", "Jsum"])
def test_lattice_closed_forms_only_at_the_anchor(req):
    # the closed forms hold at the lattice anchor (0 here); started near the
    # top of the lattice the value must come from the recursions
    gen = build_levy_generator(ModelSpec.dejd(), 0.025, -1.0, 1.0)
    fast = evaluate(gen, req)
    slow = evaluate(dense_copy(gen), req)
    assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


class TestNthDrawdownNoRecovery:
    def test_first_event_is_plain_drawdown(self, bs_small):
        q = 1.1 + 0.2j
        assert abs(nth_drawdown_no_recovery(bs_small, q, 0.2, n=1)
                   - q_drawdown(bs_small, q, 0.2)) < 1e-12

    def test_decreasing_in_count(self, bs_small):
        vals = [nth_drawdown_no_recovery(bs_small, 1.0, 0.2, n=n).real for n in (1, 2, 3, 4)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_partial_sums_converge_to_fixed_point(self, bs_small):
        q = 1.0
        total = insurance_no_recovery(bs_small, q, 0.2).real
        terms = _hn_terms(bs_small, np.array([q]), bs_small.grid.steps_of(0.2),
                          np.ones(bs_small.n), bs_small.grid.eta_x)
        sums = event_partial_sums(terms)[:, 0].real
        assert np.all(np.diff(sums) > -1e-15)   # increasing in the event count
        assert abs(sums[-1] - total) < 1e-8

    def test_levy_fixed_point_vs_generic(self):
        gen = build_levy_generator(ModelSpec.dejd(), 0.02, -3.5, 3.5)
        q = 6.0 + 0.5j
        cf = h_levy_closed_form(gen, q, 0.1)
        ref = insurance_no_recovery(dense_copy(gen), q, 0.1)
        assert abs(cf - ref) < 1e-8

    def test_bd_fixed_point_vs_generic(self, bs_small):
        q = 1.5 + 0.5j
        fast = insurance_no_recovery(bs_small, q, 0.2)
        slow = insurance_no_recovery(dense_copy(bs_small), q, 0.2)
        assert abs(fast - slow) < 1e-9


def hsum_system(up, down, a_steps, j):
    """(I - P) and its right-hand side for node j of the birth-death Hsum
    fixed point over window weights shaped as ``_window_weights`` gives
    them (rows are the tops 1..n-2; the two absorbing ends hold 0)."""
    n = up.shape[0] + 2
    mat = np.eye(n, dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    for i in range(1, n - 1):
        mat[i, i + 1] -= up[i - 1, j]
        if i >= a_steps:
            mat[i, i - a_steps] -= down[i - 1, j]
        rhs[i] = down[i - 1, j]
    return mat, rhs


def dense_hsum(up, down, a_steps):
    """Every state's Hsum, one column per node, from dense (I - P) solves."""
    return np.stack([np.linalg.solve(*hsum_system(up, down, a_steps, j))
                     for j in range(up.shape[1])], axis=1)


def banded_hsum(up, down, a_steps, eta):
    """Hsum at eta, one value per node, from LAPACK banded solves (partial
    pivoting) of the same (I - P); they stand in for dense solves, which
    take too long at chain sizes."""
    import scipy.linalg as sla

    n = up.shape[0] + 2
    tops = np.arange(1, n - 1)
    floored = tops >= a_steps
    out = []
    for j in range(up.shape[1]):
        ab = np.zeros((a_steps + 2, n), dtype=complex)   # rows: super, diag, sub 1..a
        ab[1] = 1.0
        ab[0, 2:] = -up[:, j]
        ab[1 + a_steps, tops[floored] - a_steps] = -down[floored, j]
        rhs = np.zeros(n, dtype=complex)
        rhs[1:n - 1] = down[:, j]
        out.append(sla.solve_banded((a_steps, 1), ab, rhs)[eta])
    return np.array(out)


class TestHsumBirthDeathSolve:
    """The birth-death Hsum fixed point against LAPACK solves of the same
    (I - P), built from the same window weights."""

    @staticmethod
    def weights(n, a_steps, k=3, seed=0):
        # |up| + |down| < 1 per row, as for window weights at Re q > 0;
        # the down weight is 0 on tops below a, like _window_weights'
        rng = np.random.default_rng(seed)
        size = (n - 2, k)
        total = rng.uniform(0.05, 0.98, size)
        share = rng.uniform(0.0, 1.0, size)
        up = total * share * np.exp(2j * np.pi * rng.uniform(size=size))
        down = total * (1.0 - share) * np.exp(2j * np.pi * rng.uniform(size=size))
        down[np.arange(1, n - 1) < a_steps] = 0.0
        return up, down

    CASES = [(n, a) for n in (4, 5, 13, 40) for a in sorted({1, 2, 3, n - 2, n + 3})]

    @pytest.mark.parametrize("n, a_steps", CASES, ids=[f"n{n}-a{a}" for n, a in CASES])
    def test_synthetic_weights_match_the_dense_solve(self, n, a_steps):
        from drawdown_ctmc.quantities import _hsum_birth_death

        up, down = self.weights(n, a_steps)
        ref = dense_hsum(up, down, a_steps)
        for eta in range(1, n - 1):
            got = _hsum_birth_death(up, down, a_steps, eta)
            assert got.shape == (up.shape[1],)
            assert np.all(np.abs(got - ref[eta]) <= 1e-12 * np.abs(ref[eta])), eta
        for eta in (0, n - 1):   # the absorbing ends
            assert np.all(_hsum_birth_death(up, down, a_steps, eta) == 0.0)

    @pytest.mark.parametrize("n_x", [20, 40])
    def test_shipped_chain_matches_the_banded_solve(self, n_x):
        from drawdown_ctmc.cli import _build_generator_for, _resolve_scheme, load_config
        from drawdown_ctmc.linsolve import psi_pair
        from drawdown_ctmc.quantities import _window_weights

        path = Path(__file__).resolve().parents[1] / "configs" / "insurance_no_recovery_bs.ini"
        cfg = load_config(str(path))
        gen = _build_generator_for(cfg, n_x, _resolve_scheme(cfg))
        nodes = np.concatenate([[1.3, 2.0 + 0.7j, 5.0 + 800j, 0.4 - 790j],
                                inversion_nodes_weights(cfg.T)[0]])
        a_steps, eta = gen.grid.steps_of(cfg.a), gen.grid.eta_x
        up, down = _window_weights(psi_pair(gen, nodes), np.arange(1, gen.n - 1), a_steps)
        ref = banded_hsum(up, down, a_steps, eta)
        got = insurance_no_recovery(gen, nodes, cfg.a)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("bad", ["singular", "nan"])
    def test_singular_or_nonfinite_system_raises(self, bad):
        from drawdown_ctmc.quantities import FixedPointSingular, _hsum_birth_death

        # n = 4, a = 1: rows H_1 - H_2 = 0 and H_2 - H_1 = 1 have no solution
        up = np.array([[1.0], [0.0]], dtype=complex)
        down = np.array([[0.0], [1.0]], dtype=complex)
        if bad == "nan":
            up, down = self.weights(4, 1, k=1)
            up[1, 0] = np.nan
        with pytest.raises(FixedPointSingular):
            _hsum_birth_death(up, down, 1, 1)

    def test_zero_drawdown_level_raises(self, bs_small):
        # every instant is an event: the sum diverges (no NaN)
        from drawdown_ctmc.quantities import FixedPointSingular

        with pytest.raises(FixedPointSingular):
            insurance_no_recovery(bs_small, np.array([1.0, 2.0 + 3.0j]), 0.0)

    def test_no_sparse_solve_on_birth_death_chains(self, bs_small, monkeypatch):
        import scipy.sparse.linalg as spla

        def refuse(*args, **kwargs):
            raise AssertionError("per-node sparse solve")

        monkeypatch.setattr(spla, "spsolve", refuse)
        nodes = inversion_nodes_weights(1.0)[0]
        vals = insurance_no_recovery(bs_small, nodes, 0.2)
        assert vals.shape == nodes.shape and np.all(np.isfinite(vals))


class TestNthDrawdownWithRecovery:
    def test_diagonal_first_event_matches_plain(self, bs_small):
        q = 1.3
        f = np.cos(bs_small.grid.states)
        f2 = lambda x, y: np.cos(x)
        v = nth_drawdown_with_recovery(bs_small, q, 0.2, f2=f2, n=1)
        ref = q_drawdown(bs_small, q, 0.2, f=f)
        assert abs(v - ref) < 1e-10

    def test_decreasing_in_count(self, bs_small):
        vals = [nth_drawdown_with_recovery(bs_small, 1.0, 0.2, n=n).real for n in (1, 2, 3)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_partial_sums_converge_to_fixed_point(self, bs_small):
        q = 1.0
        total = insurance_with_recovery(bs_small, q, 0.2).real
        eta = bs_small.grid.eta_x
        terms = _jn_terms(bs_small, np.array([q]), bs_small.grid.steps_of(0.2),
                          _bipayoff(bs_small, None), eta, eta, 50)
        sums = event_partial_sums(terms)[:, 0].real
        assert abs(sums[-1] - total) < 1e-8

    def test_diffusion_recursion_vs_generic(self, bs_small):
        q = 1.5 + 0.5j
        for (x, y) in ((0.0, 0.0), (-0.1, 0.05)):
            fast = insurance_with_recovery(bs_small, q, 0.2, x=x, y=y)
            slow = insurance_with_recovery(dense_copy(bs_small), q, 0.2, x=x, y=y)
            assert abs(fast - slow) < 1e-9

    def test_levy_fixed_point_vs_generic(self):
        gen = build_levy_generator(ModelSpec.dejd(), 0.02, -3.5, 3.5)
        q = 6.0 + 0.5j
        cf = j_levy_closed_form(gen, q, 0.1)
        ref = insurance_with_recovery(dense_copy(gen), q, 0.1)
        assert abs(cf - ref) < 1e-8

    @pytest.mark.parametrize("x", [0.0, -0.1], ids=["x=y", "x=y-0.1"])
    def test_levy_closed_form_on_a_deep_lattice(self, x):
        # a recovery window of 3,199 states below the anchor: one Levinson
        # solve per node, no dense block; moving the bottom from -2.9 to
        # -3.2 leaves the sum unchanged to 1e-8
        nodes = np.array([1.0, 3.0 + 2.0j, 20.0 + 40.0j])
        vals = []
        for bottom in (-3.2, -2.9):
            gen = build_levy_generator(ModelSpec.dejd(), 0.001, bottom, 0.5)
            vals.append(j_levy_closed_form(gen, nodes, 0.1, x=x, y=0.0))
        assert np.all(np.abs(vals[0] - vals[1]) <= 1e-8 * np.abs(vals[1]))


class TestTranslationInvariance:
    def test_interior_values_constant_on_lattice(self):
        # constancy holds for starts at least (truncation - a) from the ends
        gen = build_levy_generator(ModelSpec.dejd(), 0.025, -4.0, 4.0)
        q = 6.0
        eta = gen.grid.eta_x
        dense, ones = dense_copy(gen), np.ones(gen.n)
        base_q = q_drawdown(gen, q, 0.1, x=gen.states[eta])
        base_c = drawdown_occupation(gen, q, 0.1, 0.05, ones, x=gen.states[eta], shift=0.4)
        base_h = insurance_no_recovery(dense, q, 0.1, x=gen.states[eta])
        for shift in (-4, 2, 4):
            x = gen.states[eta + shift]
            assert abs(q_drawdown(gen, q, 0.1, x=x) - base_q) < 1e-8
            assert abs(drawdown_occupation(gen, q, 0.1, 0.05, ones, x=x, shift=0.4)
                       - base_c) < 1e-8
            assert abs(insurance_no_recovery(dense, q, 0.1, x=x) - base_h) < 1e-8

    def test_recovery_sum_depends_on_gap_only(self):
        gen = dense_copy(build_levy_generator(ModelSpec.dejd(), 0.05, -3.0, 3.0))
        q = 6.0
        h = gen.grid.h
        v1 = insurance_with_recovery(gen, q, 0.1, x=-3 * h, y=2 * h)
        v2 = insurance_with_recovery(gen, q, 0.1, x=-8 * h, y=-3 * h)
        assert abs(v1 - v2) < 1e-8


class TestVgSmallLattice:
    def test_quantities_vs_product_oracle(self):
        gen = build_levy_generator(ModelSpec.vg(), 0.05, -1.0, 1.0)
        dense = dense_copy(gen)
        q = 2.5
        for req in (QuantityRequest("Q", a=0.2, q=q),
                    QuantityRequest("C", a=0.2, q=q, xi=0.1, shift=0.3),
                    QuantityRequest("Hsum", a=0.2, q=q)):
            val = evaluate(dense, req)
            ref = dense_product_solve(dense, req)
            assert abs(val - ref) < 1e-8, req.kind

    def test_upwind_lattice_matches_dense_builder(self):
        from drawdown_ctmc.ctmc import build_generator as build_dense_gen
        from drawdown_ctmc.ctmc import build_grid as make_grid
        vg = ModelSpec.vg(r_f=0.05)
        h = 0.5 / 320   # fine enough that the one-sided drift engages
        grid = make_grid(0.0, 0.1, round(0.1 / h), -0.3, 0.3)
        dense = build_dense_gen(vg, grid).to_dense()
        lat = build_levy_generator(vg, h, -0.3, 0.3).to_dense()
        scale = np.abs(dense).max()
        assert np.abs(dense - lat)[1:-1, :].max() <= 1e-10 * scale


class TestDispatch:
    def test_evaluate_routes_all_kinds(self, bs_small):
        reqs = [
            QuantityRequest("Q", a=0.2, q=1.0),
            QuantityRequest("A", a=0.2, b=0.3, q=1.0, y=-0.1),
            QuantityRequest("B", a=0.2, q=1.0, xi=0.05, shift=0.1),
            QuantityRequest("C", a=0.2, q=1.0, xi=0.05, shift=0.1),
            QuantityRequest("Hn", a=0.2, q=1.0, n=2),
            QuantityRequest("Hsum", a=0.2, q=1.0),
            QuantityRequest("Jn", a=0.2, q=1.0, n=2),
            QuantityRequest("Jsum", a=0.2, q=1.0),
        ]
        for req in reqs:
            v = evaluate(bs_small, req)
            assert np.isfinite(v.real) and 0.0 <= v.real <= 1.1

    @pytest.mark.parametrize("chain", ["BS-birth-death", "DEJD-lattice"])
    def test_integer_starts_are_levels(self, chain):
        # x = 0 is the level 0.0, not the absorbing state 0
        if chain == "BS-birth-death":
            gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 10, -1.0, 1.0))
        else:
            gen = build_levy_generator(ModelSpec.dejd(), 0.02, -1.0, 1.0)
        q = np.array([2.0, 1.0 + 3.0j])
        assert np.array_equal(q_drawdown(gen, q, 0.2, x=0), q_drawdown(gen, q, 0.2, x=0.0))
        assert q_drawdown(gen, 2.0, 0.2, x=0) != 0.0
        for ints, floats in (((0, None), (0.0, None)), ((-0.1, 0), (-0.1, 0.0))):
            assert np.array_equal(insurance_with_recovery(gen, q, 0.2, *ints),
                                  insurance_with_recovery(gen, q, 0.2, *floats))
        assert np.array_equal(drawdown_before_drawup(gen, q, 0.2, 0.3, x=0, y=-0.1),
                              drawdown_before_drawup(gen, q, 0.2, 0.3, x=0.0, y=-0.1))
        for kind in ("Q", "Jsum"):
            as_int, as_float = (QuantityRequest(kind, a=0.2, q=2.0, x=x) for x in (0, 0.0))
            assert dense_product_solve(gen, as_int) == dense_product_solve(gen, as_float)

    def test_kind_aliases(self):
        assert QuantityRequest("DrawdownBeforeDrawup_A", a=0.1, b=0.2).kind == "A"
        assert QuantityRequest("InsuranceWithRecovery_Jsum", a=0.1).kind == "Jsum"
        with pytest.raises(ValueError):
            QuantityRequest("XYZ", a=0.1)

    def test_monotone_in_q_all_quantities(self, bs_small):
        for kind in ("Q", "B", "C", "Hsum", "Jsum"):
            vals = []
            for q in (0.5, 1.0, 2.0, 4.0):
                req = QuantityRequest(kind, a=0.2, q=q, xi=0.05)
                vals.append(evaluate(bs_small, req).real)
            assert all(b < a + 1e-14 for a, b in zip(vals, vals[1:])), kind


# Lattice and dense routes of the node axis.  Started at the lattice anchor
# ("fast"), C, Hsum and Jsum take the lattice closed forms; started four
# steps above it ("generic"), they take the window sweep and the dense
# fixed points, as every start does on a dense generator.
LATTICE_CASES = [
    QuantityRequest("Q", a=0.1),
    QuantityRequest("B", a=0.1, xi=-0.05, shift=0.05),
    QuantityRequest("C", a=0.1, xi=0.05, shift=0.05),
    QuantityRequest("Hn", a=0.1, n=2),
    QuantityRequest("Hsum", a=0.1),
    QuantityRequest("Jsum", a=0.1, x=-0.05, y=0.0),
]
LATTICE_ROUTES = [(s, route, r) for s in ("DEJD", "VG", "dense") for route in ("fast", "generic")
                  for r in LATTICE_CASES
                  if not (s == "dense" and route == "generic")]


def off_anchor(req):
    """The request started four lattice steps above its start point."""
    return replace(req, x=(req.x or 0.0) + 0.1, y=None if req.y is None else req.y + 0.1)


# The route each kind takes on each structure, all started at the anchor:
# the fundamental-solution pairs, A's recurrence tables, the window sweep,
# one of the lattice closed forms, A's node-batched strip, or the event
# core of Hsum, Jn and Jsum.
ROUTE_NAMES = ("psi_pair", "_a_weights", "backward_window_sweep", "c_levy_closed_form",
               "h_levy_closed_form", "j_levy_closed_form", "_a_strip", "_EventCore")
DISPATCH_CASES = [
    QuantityRequest("Q", a=0.1, q=2.0),
    QuantityRequest("A", a=0.1, b=0.15, q=2.0, y=-0.05),
    QuantityRequest("B", a=0.1, q=2.0, xi=-0.05, shift=0.05),
    QuantityRequest("C", a=0.1, q=2.0, xi=0.05, shift=0.05),
    QuantityRequest("Hn", a=0.1, q=2.0, n=2),
    QuantityRequest("Hsum", a=0.1, q=2.0),
    QuantityRequest("Jn", a=0.1, q=2.0, n=2),
    QuantityRequest("Jsum", a=0.1, q=2.0),
]
SWEEP, STRIP, CORE = {"backward_window_sweep"}, {"_a_strip"}, {"_EventCore"}
EXPECTED_ROUTE = {
    "birth-death": {r.kind: {"_a_weights" if r.kind == "A" else "psi_pair"}
                    for r in DISPATCH_CASES},
    "DEJD": {"Q": SWEEP, "A": STRIP, "B": SWEEP, "C": {"c_levy_closed_form"}, "Hn": SWEEP,
             "Hsum": {"h_levy_closed_form"}, "Jn": CORE, "Jsum": {"j_levy_closed_form"}},
    "dense": {"Q": SWEEP, "A": STRIP, "B": SWEEP, "C": SWEEP, "Hn": SWEEP,
              "Hsum": CORE, "Jn": CORE, "Jsum": CORE},
}
DISPATCH = [(s, r) for s in EXPECTED_ROUTE for r in DISPATCH_CASES]


class TestNodeAxis:
    NODES, _ = inversion_nodes_weights(0.5)

    @staticmethod
    def chain(model):
        return build_generator(model, build_grid(0.0, 0.2, 8, -0.8, 0.4))

    CASES = [
        QuantityRequest("Q", a=0.2),
        QuantityRequest("A", a=0.2, b=0.3, y=-0.137),   # off-lattice minimum
        QuantityRequest("B", a=0.2, xi=-0.05, shift=0.05),
        QuantityRequest("C", a=0.2, xi=0.1, shift=0.05),
        QuantityRequest("Hn", a=0.2, n=3),
        QuantityRequest("Hsum", a=0.2),
        QuantityRequest("Jn", a=0.2, n=3, x=-0.1, y=0.05),
        QuantityRequest("Jsum", a=0.2, x=-0.1, y=0.05),
    ]
    ROUTES = list(itertools.product(CASES, (False, True)))

    # "generic": the dense copy of the chain, where every kind takes the
    # window sweep or the dense generic recursions
    @pytest.mark.parametrize("model", [ModelSpec.bs(), ModelSpec.cev()], ids=["BS", "CEV"])
    @pytest.mark.parametrize("req, generic", ROUTES,
                             ids=[r.kind + ("-generic" if g else "") for r, g in ROUTES])
    def test_batched_matches_per_node(self, model, req, generic):
        gen = dense_copy(self.chain(model)) if generic else self.chain(model)
        batched = evaluate(gen, replace(req, q=self.NODES))
        assert batched.shape == self.NODES.shape
        single = np.array([evaluate(gen, replace(req, q=q)) for q in self.NODES])
        assert np.all(np.abs(batched - single) <= 1e-10 * np.abs(single))

    @pytest.fixture(scope="class")
    def chains(self):
        dejd = build_levy_generator(ModelSpec.dejd(), 0.025, -1.0, 1.0)
        vg = build_levy_generator(ModelSpec.vg(), 0.025, -1.0, 1.0)
        return {"DEJD": dejd, "VG": vg, "dense": dense_copy(dejd),
                "birth-death": TestNodeAxis.chain(ModelSpec.bs())}

    @pytest.mark.parametrize("structure, req", DISPATCH,
                             ids=[f"{s}-{r.kind}" for s, r in DISPATCH])
    def test_dispatch_picks_the_route_from_the_chain(self, chains, structure, req,
                                                     monkeypatch):
        import drawdown_ctmc.quantities as qmod

        ran = set()
        for name in ROUTE_NAMES:
            def recorded(*args, _fn=getattr(qmod, name), _name=name, **kwargs):
                ran.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(qmod, name, recorded)
        evaluate(chains[structure], req)
        assert ran == EXPECTED_ROUTE[structure][req.kind]

    @pytest.mark.parametrize("structure, route, req", LATTICE_ROUTES,
                             ids=[f"{s}-{route}-{r.kind}" for s, route, r in LATTICE_ROUTES])
    def test_lattice_batched_matches_per_node(self, chains, structure, route, req):
        gen = chains[structure]
        if route == "generic":
            req = off_anchor(req)
        batched = evaluate(gen, replace(req, q=self.NODES))
        assert batched.shape == self.NODES.shape
        single = np.array([evaluate(gen, replace(req, q=q)) for q in self.NODES])
        assert np.all(np.abs(batched - single) <= 1e-10 * np.abs(single))

    @pytest.mark.parametrize("req", LATTICE_CASES[:4], ids=[r.kind for r in LATTICE_CASES[:4]])
    def test_lattice_sweep_matches_the_dense_chain(self, chains, req):
        # the cached lattice window solves against uncached dense ones on
        # the same chain (B's killing pattern changes across window tops);
        # a payoff of ones keeps C off its closed form
        req = replace(req, q=self.NODES, f=np.ones(chains["DEJD"].n))
        lattice = evaluate(chains["DEJD"], req)
        dense = evaluate(chains["dense"], req)
        assert np.all(np.abs(lattice - dense) <= 1e-10 * np.abs(dense))

    @pytest.mark.parametrize("structure", ["DEJD", "VG", "dense"])
    def test_blocked_sweep_matches_the_per_top_order(self, chains, structure, monkeypatch):
        # one top per block folds every value into the rows below before
        # the next solve, the order of a per-top sweep; blocks of 2 and 5
        # and one block over the whole chain carry the inflow of the solved
        # tops and the payoff cuts inside the block.  Hn sweeps down to
        # state 0, whose payoff column is the boundary tail bins; Q, B and
        # C started off the anchor stop inside a block of 5 (36 tops).
        import drawdown_ctmc.quantities as qmod

        gen = chains[structure]
        cases = LATTICE_CASES[:4] + [off_anchor(r) for r in LATTICE_CASES[:3]]
        reqs = [replace(r, q=self.NODES, f=np.ones(gen.n)) for r in cases]

        def values(block):
            monkeypatch.setattr(qmod, "_SWEEP_BLOCK", block)
            return [evaluate(gen, req) for req in reqs]

        per_top = values(1)
        for block in (2, 5, gen.n + 1):
            for req, got, ref in zip(reqs, values(block), per_top):
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (block, req.kind)

    @pytest.mark.parametrize("block", [5, 32])
    @pytest.mark.parametrize("structure", ["DEJD", "dense"])
    def test_sweep_loop_runs_per_block(self, chains, structure, block, monkeypatch):
        # one triangular solve per block of tops, the last block partial;
        # the lattice solves one window per cached killing pattern (the
        # interior one and the four that reach state 0, a = 4), and a second
        # sweep on the same solver reads them all from the cache; the dense
        # chain caches none and solves each top's window once per sweep
        import drawdown_ctmc.quantities as qmod

        gen, nodes = chains[structure], self.NODES
        counts = {"_unit_upper_solves": 0, "_last_rows": 0}
        for name in counts:
            def counted(*args, _fn=getattr(qmod, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(qmod, name, counted)
        monkeypatch.setattr(qmod, "_SWEEP_BLOCK", block)
        kill = np.broadcast_to(nodes, (gen.n, nodes.size))
        for stop in (gen.grid.eta_x, 0):
            counts.update(dict.fromkeys(counts, 0))
            solver = qmod._WindowSolver(gen, kill, 4)
            for _ in range(2):
                qmod.backward_window_sweep(gen, 4, kill, np.ones(gen.n), stop, solver=solver)
            tops = gen.n - 2 - stop + 1
            assert counts["_unit_upper_solves"] == 2 * -(-tops // block)
            if structure == "dense":
                assert counts["_last_rows"] == 2 * tops
            else:
                assert counts["_last_rows"] == (1 if stop > 3 else 5)

    def test_lattice_sweep_reads_only_boundary_columns(self, chains, monkeypatch):
        # the inflow comes from the panel of rates by offset: however
        # many window tops a lattice sweep runs, the only generator columns
        # it builds are the boundary ones (full-height blocks; window
        # blocks are not columns)
        from drawdown_ctmc.ctmc import ToeplitzLevyGenerator
        from drawdown_ctmc.quantities import backward_window_sweep

        gen, nodes = chains["VG"], self.NODES
        n, block, read = gen.n, ToeplitzLevyGenerator.block, []

        def recorded(self, r0, r1, c0, c1):
            if (r0, r1) == (0, n - 1):
                read.append((c0, c1))
            return block(self, r0, r1, c0, c1)

        monkeypatch.setattr(ToeplitzLevyGenerator, "block", recorded)
        kfn = lambda i, lo: np.broadcast_to(nodes, (i - lo + 1, nodes.size))
        counts = []
        for stop in (gen.n - 2, gen.grid.eta_x, 0):
            read.clear()
            backward_window_sweep(gen, 4, kfn, np.ones(gen.n), stop)
            assert set(read) <= {(0, 0), (n - 1, n - 1)}
            counts.append(len(read))
        assert counts == [counts[0]] * 3

    def test_lattice_routes_take_one_pass_per_rung(self, chains, monkeypatch):
        import drawdown_ctmc.quantities as qmod

        calls = {"backward_window_sweep": 0, "c_levy_closed_form": 0, "h_levy_closed_form": 0}
        for name in calls:
            def counted(*args, _fn=getattr(qmod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(qmod, name, counted)
        for kind in ("Q", "B", "C", "Hsum"):   # two sweeps and two closed forms
            req = next(r for r in LATTICE_CASES if r.kind == kind)
            evaluate(chains["DEJD"], replace(req, q=self.NODES))
        assert calls == {"backward_window_sweep": 2, "c_levy_closed_form": 1,
                         "h_levy_closed_form": 1}

    @pytest.mark.parametrize("req", LATTICE_CASES, ids=[r.kind for r in LATTICE_CASES])
    def test_lattice_single_node_vector_keeps_its_axis(self, chains, req):
        gen = chains["DEJD"]
        q = self.NODES[:1]
        vec = evaluate(gen, replace(req, q=q))
        one = evaluate(gen, replace(req, q=q[0]))
        assert isinstance(vec, np.ndarray) and vec.shape == (1,)
        assert isinstance(one, complex)
        assert abs(vec[0] - one) <= 1e-14 * abs(one)

    def test_sweep_returns_one_column_per_node(self, chains):
        from drawdown_ctmc.quantities import backward_window_sweep

        gen, nodes = chains["VG"], self.NODES[:3]
        kfn = lambda i, lo: np.broadcast_to(nodes, (i - lo + 1, nodes.size))
        V = backward_window_sweep(gen, 4, kfn, np.ones(gen.n), gen.grid.eta_x)
        assert V.shape == (gen.n, nodes.size)
        for j, q in enumerate(nodes):
            ref = q_drawdown(gen, q, 0.1)
            assert abs(V[gen.grid.eta_x, j] - ref) <= 1e-12 * abs(ref)

    # the window-solve routes each lattice case takes from the anchor: the
    # Levinson recursion on uniformly killed interior windows, B's pattern
    # table for its nested patterns with a free row (a = 4 steps, xi =
    # -0.05: patterns 0 and 1 only), and the reduction for C's fixed
    # pattern and for the windows of the Hn sweep that reach state 0
    WINDOW_ROUTES = {"Q": {"levinson"}, "B": {"table"}, "C": {"reduction"},
                     "Hn": {"levinson", "reduction"}, "Hsum": {"levinson"}, "Jsum": {"levinson"}}

    @pytest.mark.parametrize("req", LATTICE_CASES, ids=[r.kind for r in LATTICE_CASES])
    def test_in_place_node_solves_match_the_stack(self, chains, req, monkeypatch):
        # every window solve a lattice route makes, whichever of the three
        # routes serves it, against one dense complex solve per node; each
        # reduction also in both orientations on the route's own killing
        # (all rows, or a row subset for C), one real node, and two
        # killings that must skip the reduction for one stacked solve (a
        # complex offset on a row shared by the nodes, and a state-dependent
        # killing)
        import drawdown_ctmc.quantities as qmod

        gen = chains["DEJD"]
        dense = gen.to_dense()
        solve, shifted = qmod._node_solves, qmod._shifted_solves
        last_rows, toeplitz = qmod._last_rows, qmod._toeplitz_solves
        table = qmod._NestedKilling.rows
        calls, reduced, windows, routes = [], [], [], set()

        def recorded(blk, kv, rhs, **kwargs):
            routes.add("reduction")
            calls.append((blk, np.array(kv), rhs))
            return solve(blk, kv, rhs, **kwargs)

        def rows_recorded(gen, lo, hi, kv, nested=None):
            out = last_rows(gen, lo, hi, kv, nested)
            windows.append((lo, hi, np.array(kv), np.eye(hi - lo + 1)[-1], True, out))
            return out

        def toeplitz_recorded(gen, lo, hi, nodes, rhs, *, trans=False):
            routes.add("levinson")
            out = toeplitz(gen, lo, hi, nodes, rhs, trans=trans)
            kv = np.broadcast_to(nodes, (hi - lo + 1, nodes.size))
            windows.append((lo, hi, kv, rhs, trans, out))
            return out

        def table_recorded(self, *args):
            routes.add("table")
            return table(self, *args)

        def counted(*args):
            reduced.append(args)
            return shifted(*args)

        monkeypatch.setattr(qmod, "_node_solves", recorded)
        monkeypatch.setattr(qmod, "_last_rows", rows_recorded)
        monkeypatch.setattr(qmod, "_toeplitz_solves", toeplitz_recorded)
        monkeypatch.setattr(qmod._NestedKilling, "rows", table_recorded)
        evaluate(gen, replace(req, q=self.NODES))
        monkeypatch.setattr(qmod, "_shifted_solves", counted)
        assert routes == self.WINDOW_ROUTES[req.kind]
        assert windows
        for lo, hi, kv, rhs, trans, got in windows:
            blk = dense[lo:hi + 1, lo:hi + 1]
            for j in range(kv.shape[1]):
                mat = np.diag(kv[:, j]) - blk
                ref = np.linalg.solve(mat.T if trans else mat, rhs.astype(complex))
                assert np.max(np.abs(got[j] - ref)) <= 1e-12 * np.max(np.abs(ref)), (lo, hi)
        for blk, kv, rhs in calls:
            m = kv.shape[0]
            offset = kv.copy()
            offset[0] = 0.5 + 0.5j
            state = np.linspace(1.0, 2.0, m)[:, None] * self.NODES
            for trans in (False, True):
                for kill, stacked in ((kv, False), (kv[:, :1].real + 0j, False),
                                      (offset, True), (state, m > 1)):
                    before = len(reduced)
                    got = solve(blk, kill, rhs, trans=trans)
                    assert not (stacked and len(reduced) > before)
                    for j in range(kill.shape[1]):
                        mat = np.diag(kill[:, j]) - blk
                        ref = np.linalg.solve(mat.T if trans else mat, rhs.astype(complex))
                        assert np.max(np.abs(got[j] - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the route's own killings took the Hessenberg solves
        assert bool(reduced) == bool(calls)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")   # lu_factor's zero pivot
    @pytest.mark.parametrize("kv", [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 2.0]]],
                             ids=["stacked", "in-place"])
    def test_singular_node_solve_raises(self, kv):
        # "stacked": the second node's banded LU has a zero pivot; "in-place":
        # the node-independent row 0 makes the free-row block singular
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import Singular

        with pytest.raises(Singular):
            qmod._node_solves(np.zeros((2, 2)), np.array(kv, dtype=complex), np.ones(2))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")   # lu_factor's zero pivot
    def test_trapped_window_raises_singular(self):
        # zero killing on a window nothing leaves: its rows only step up
        # and its top row has no rate at all
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import Singular

        states = np.arange(8) * 0.1
        up, down = np.full(8, 5.0), np.zeros(8)
        up[6] = 0.0
        gen = BirthDeathGenerator(Grid(states=states, h=0.1, eta_x=4, x0=float(states[4])),
                                  up, down)
        blk = gen.block(2, 6, 2, 6)
        with pytest.raises(Singular):
            qmod._killed_solve(blk, np.zeros(5), np.ones(5))
        with pytest.raises(Singular):
            qmod._node_solves(blk, np.zeros((5, 2), dtype=complex), np.ones(5))


class TestWindowRoutes:
    """The three window-solve routes of ``_last_rows`` on lattices: the
    Levinson recursion, B's pattern table and the reduction."""

    NODES = np.append(inversion_nodes_weights(0.1)[0], 1.0 + 800.0j)

    @pytest.fixture(scope="class",
                    params=[("DEJD", 0.025), ("DEJD", 0.005), ("VG", 0.025), ("VG", 0.005)],
                    ids=["DEJD81", "DEJD401", "VG81", "VG401"])
    def lattice(self, request):
        model, h = request.param
        return build_levy_generator(ModelSpec.dejd() if model == "DEJD" else ModelSpec.vg(),
                                    h, -1.0, 1.0)

    @pytest.mark.parametrize("T", [0.01, 0.5, 5.0], ids=["T0.01", "T0.5", "T5"])
    def test_every_b_pattern_matches_the_reduction(self, lattice, T):
        # B's killing with its breakpoint inside the lattice: pattern 0 is
        # the free window, 1..m-1 come from the table, m is Levinson's
        # (m = 20 on the 401-state lattices); the inversion nodes of T and
        # 1 + 800i, with shifts small and large, in the reverse of a
        # sweep's order
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import killing_values

        gen = lattice
        m = gen.grid.steps_of(0.1)
        nodes = np.append(inversion_nodes_weights(T)[0], 1.0 + 800.0j)
        e = np.eye(m)[-1]
        for shift in (0.0, 0.05, 2.0):
            kill = killing_values(occupation_below_killing(nodes, 0.3, shift), gen.states)
            nested = qmod._NestedKilling.of(kill)
            assert nested is not None and nested.free == shift
            for p in range(m, -1, -1):
                lo = nested.cut - p
                kv = kill[lo:lo + m]
                assert nested.pattern(lo, m) == p
                got = qmod._last_rows(gen, lo, lo + m - 1, kv, nested)
                ref = qmod._node_solves(gen.block(lo, lo + m - 1, lo, lo + m - 1), kv, e,
                                        trans=True)
                scale = np.max(np.abs(ref), axis=1, keepdims=True)
                assert np.all(np.abs(got - ref) <= 1e-12 * scale), (shift, p)

    PIN_CASES = [
        QuantityRequest("Q", a=0.1),
        QuantityRequest("B", a=0.1, xi=0.3, shift=0.05),   # every pattern 0..m
        QuantityRequest("Hn", a=0.1, n=2),
        QuantityRequest("Hsum", a=0.1),
        QuantityRequest("Jsum", a=0.1),
        QuantityRequest("Jsum", a=0.1, x=-0.05, y=0.0),
    ]

    @pytest.mark.parametrize("req", PIN_CASES,
                             ids=[f"{r.kind}{i}" for i, r in enumerate(PIN_CASES)])
    def test_node_values_match_the_reduction(self, lattice, req, monkeypatch):
        # the same quantity with every window reduced (``_node_solves``).
        # Hn's second event has node values down to 3e-7, where the
        # reduction itself differs from a pivoted dense LU per window by
        # 2.4e-12 (DEJD, 401 states): it is compared on the scale of its
        # largest node value
        import drawdown_ctmc.quantities as qmod

        req = replace(req, q=self.NODES)
        got = evaluate(lattice, req)

        def reduced_rows(gen, lo, hi, kv, nested=None):
            return qmod._node_solves(gen.block(lo, hi, lo, hi), kv, np.eye(hi - lo + 1)[-1],
                                     trans=True)

        def reduced_toeplitz(gen, lo, hi, nodes, rhs, *, trans=False):
            kv = np.broadcast_to(nodes, (hi - lo + 1, nodes.size))
            return qmod._node_solves(gen.block(lo, hi, lo, hi), kv, rhs, trans=trans)

        monkeypatch.setattr(qmod, "_last_rows", reduced_rows)
        monkeypatch.setattr(qmod, "_toeplitz_solves", reduced_toeplitz)
        ref = evaluate(lattice, req)
        scale = np.max(np.abs(ref)) if req.kind == "Hn" else np.abs(ref)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_route_counts(self, monkeypatch):
        # Hessenberg reductions (``dgehrd``, looked up at call time) and
        # dense window blocks (square reads of more than one state) per
        # route on the 81-state DEJD lattice
        import scipy.linalg.lapack as lapack
        from drawdown_ctmc.ctmc import ToeplitzLevyGenerator

        gen = build_levy_generator(ModelSpec.dejd(), 0.025, -1.0, 1.0)
        a_steps = gen.grid.steps_of(0.1)
        dgehrd, block = lapack.dgehrd, ToeplitzLevyGenerator.block
        counts = {"dgehrd": 0, "window_block": 0}

        def counted_dgehrd(*args, **kwargs):
            counts["dgehrd"] += 1
            return dgehrd(*args, **kwargs)

        def counted_block(self, r0, r1, c0, c1):
            counts["window_block"] += (r0, r1) == (c0, c1) and r1 > r0
            return block(self, r0, r1, c0, c1)

        monkeypatch.setattr(lapack, "dgehrd", counted_dgehrd)
        monkeypatch.setattr(ToeplitzLevyGenerator, "block", counted_block)

        def run(req):
            counts.update(dgehrd=0, window_block=0)
            evaluate(gen, replace(req, q=self.NODES))
            return dict(counts)

        none = {"dgehrd": 0, "window_block": 0}
        assert run(QuantityRequest("Hsum", a=0.1)) == none
        assert run(QuantityRequest("Jsum", a=0.1, x=-0.05, y=0.0)) == none
        assert run(QuantityRequest("Q", a=0.1)) == none
        # B from the anchor through every pattern: one block, for pattern 0
        assert run(QuantityRequest("B", a=0.1, xi=0.3, shift=0.05)) == {**none, "window_block": 1}
        # the Hn sweep reduces the a windows that reach state 0, once for
        # both events
        assert run(QuantityRequest("Hn", a=0.1, n=2))["dgehrd"] == a_steps
        assert run(QuantityRequest("C", a=0.1, xi=0.05, shift=0.05)) == {"dgehrd": 1,
                                                                         "window_block": 1}

    @pytest.mark.parametrize("model", ["DEJD", "VG"])
    @pytest.mark.parametrize("shape", ["state-dependent", "suffix"])
    def test_unnested_killings_match_the_dense_chain(self, model, shape):
        # killings that do not classify as nested keep one cache entry per
        # killing value: a state-dependent one, whose windows all have
        # every row killed, and one killing the states above xi (a suffix
        # of each window crossing it)
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import killing_values

        spec = ModelSpec.dejd() if model == "DEJD" else ModelSpec.vg()
        gen = build_levy_generator(spec, 0.025, -1.0, 1.0)
        nodes = self.NODES
        if shape == "state-dependent":
            k = lambda x: (1.0 + x ** 2)[:, None] * nodes
        else:
            k = lambda x: np.where((x > 0.05)[:, None], nodes, 0.0) + 0.05
        assert qmod._NestedKilling.of(killing_values(k, gen.states)) is None
        fast = occupation_until_drawdown(gen, k, 0.1)
        slow = occupation_until_drawdown(dense_copy(gen), k, 0.1)
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow))

    @pytest.fixture
    def zero_lattice(self):
        # five states, no rates: the interior windows of a 0.2 drawdown
        # are 2 x 2 zero blocks
        from drawdown_ctmc.ctmc import ToeplitzLevyGenerator

        grid = build_grid(0.0, 0.2, 2, -0.25, 0.25)
        n = grid.n
        return ToeplitzLevyGenerator(grid, 0.0, 0.0, np.zeros(n), np.zeros(n))

    def test_zero_levinson_pivot_raises(self, zero_lattice):
        from drawdown_ctmc.linsolve import Singular

        with pytest.raises(Singular, match="singular leading block"):
            q_drawdown(zero_lattice, np.zeros(2), 0.2)

    def test_zero_pivot_raises(self, zero_lattice):
        # killing 1 from the anchor up and 0 below it: the free window is
        # the identity, and pattern 1 kills its lower row with d = -1, so
        # I + d A^{-1} has a zero first pivot
        from drawdown_ctmc.linsolve import Singular

        k = occupation_below_killing(-np.ones(2), -0.05, 1.0)
        with pytest.raises(Singular, match="zero pivot"):
            occupation_until_drawdown(zero_lattice, k, 0.2)

    def test_row_exchange_raises(self):
        # a free inverse whose killed leading block would need pivoting:
        # I + d B = [[0.1, 1], [1, 1]] with d = 1 exchanges its rows
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import Singular

        nested = qmod._NestedKilling(5, 0.0, np.array([1.0 + 0.0j]))
        inv = np.array([[-0.9, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 1.0]])
        with pytest.raises(Singular, match="row exchange"):
            nested._patterns(inv)


class TestToeplitzInflow:
    """``_toeplitz_D_init`` against the dense payoff inflow
    sum_{z <= cut, z != m} G(m, z) f[z] of the same lattice."""

    @pytest.fixture(scope="class", params=["DEJD", "VG"])
    def lattice(self, request):
        model = ModelSpec.dejd() if request.param == "DEJD" else ModelSpec.vg()
        gen = build_levy_generator(model, 0.05, -1.0, 1.0)
        return gen, gen.to_dense()

    @staticmethod
    def payoffs(n):
        rng = np.random.default_rng(7)
        real = rng.uniform(-1.0, 1.0, (n, 1))
        cplx = rng.uniform(-1.0, 1.0, (n, 3)) + 1j * rng.uniform(-1.0, 1.0, (n, 3))
        return {"real": real, "complex": cplx}

    @pytest.mark.parametrize("payoff", ["real", "complex"])
    def test_matches_the_dense_sum(self, lattice, payoff):
        from drawdown_ctmc.quantities import _toeplitz_D_init

        gen, dense = lattice
        n = gen.n
        f = self.payoffs(n)[payoff]
        off = dense - np.diag(np.diag(dense))
        for cut in (-1, 0, 1, n // 2, n - 2, n - 1):
            got = _toeplitz_D_init(gen, f, cut)
            ref = off[:, :cut + 1] @ f[:cut + 1]
            ref[[0, n - 1]] = 0.0
            assert got.shape == f.shape
            scale = max(np.max(np.abs(ref)), 1.0e-300)
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale, cut

    @pytest.mark.parametrize("width", [1, 8])
    def test_off_diagonal_blocks_match_the_dense_rates(self, lattice, width):
        # the blocks the windowed sweep folds into its running vector: the
        # columns of solved tops above the rows, and payoff columns reaching
        # up to a steps into them (the diagonal among them), down to the
        # boundary column 0; accumulated in place, the other rows untouched
        from drawdown_ctmc.quantities import _OffDiagonal

        gen, dense = lattice
        n, a = gen.n, 4
        off = dense - np.diag(np.diag(dense))
        x = self.payoffs(n)["complex"]
        rates = _OffDiagonal(gen, a, width)
        for m0, m1, z0 in [(1, 2, 2), (1, n - 1 - width, n - 1 - width), (1, n - 2, n - 2),
                           (n - 2, n - 1, n - 2 - a + 1), (3, 7, 3), (1, a, 0), (2, a, 0),
                           (10, 14, 10), (20, 23, 19)]:
            z1 = min(z0 + width, n - 1)
            start = np.ones((n, x.shape[1]), dtype=complex)
            got = start.copy()
            rates.add_times(m0, m1, z0, z1, x, got, -1.0)
            ref = start.copy()
            ref[m0:m1] -= off[m0:m1, z0:z1] @ x[z0:z1]
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0), (m0, m1, z0)

    @pytest.mark.parametrize("a", [4, 12])
    def test_window_products_match_the_dense_rates(self, lattice, a):
        # each window row times the rates of its rows at the window's bottom
        # columns and at the columns from its top up, on the lattice (one
        # correlation with its line, column 0 from the tail masses) and
        # through a dense copy (gathered rates), for interior windows and
        # windows that reach state 0; columns outside 0 .. n - 2 are never
        # read
        from drawdown_ctmc.quantities import _OffDiagonal

        gen, dense = lattice
        n, width = gen.n, 8
        off = dense - np.diag(np.diag(dense))
        tops = np.array([0, 2, a - 1, a, a + 3, n // 2, n - 2 - width, n - 2])
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(tops.size, a, 2)) + 1j * rng.normal(size=(tops.size, a, 2))
        states = tops[:, None] - a + 1 + np.arange(a)
        rows[states < 1] = 0.0
        ref = np.zeros((tops.size, 2 * width, 2), dtype=complex)
        for u, i in enumerate(tops):
            cols = np.concatenate([np.arange(width) + i - a + 1, np.arange(width) + i + 1])
            keep = (cols >= 0) & (cols <= n - 2)
            ref[u, keep] = off[np.ix_(states[u].clip(0), cols[keep])].T @ rows[u]
            ref[u, ~keep] = np.nan
        for copy in (gen, dense_copy(gen)):
            got = _OffDiagonal(copy, a, width).window_products(rows, tops, width)
            read = ~np.isnan(ref)
            assert np.max(np.abs(got[read] - ref[read])) <= 1e-13 * np.max(np.abs(ref[read]))


class TestEventCore:
    NODES = np.array([2.0, 18.4 + 30.0j, 5.0 + 800.0j])

    @pytest.fixture(scope="class", params=["DEJD", "dense"])
    def chain(self, request):
        if request.param == "DEJD":
            return build_levy_generator(ModelSpec.dejd(), 0.025, -1.0, 1.0)   # 81 states
        return random_jump_chain(30)

    @staticmethod
    def recovery(dense, q, t):
        """First-passage weights from the states below t to t or above,
        from one solve on the window [0, t - 1]."""
        return np.linalg.solve(q * np.eye(t) - dense[:t, :t], dense[:t, t:])

    @pytest.mark.parametrize("a_steps", [1, 4])
    @pytest.mark.parametrize("q", NODES)
    def test_recovery_mix_matches_window_solves(self, chain, a_steps, q):
        # the leading blocks of one LU against a solve per recovery window
        n, eta = chain.n, chain.grid.eta_x
        dense = chain.to_dense()
        mix = None
        for eta_x, eta_y in ((eta - 3, eta + 2), (0, 1), (0, 0), (eta, eta)):
            core = _EventCore(dense, q, a_steps, eta_x, eta_y, True)
            if mix is None:
                mix = np.zeros((n, n), dtype=complex)
                for t in range(1, n):
                    mix[t, t:] = core.below[t, :t] @ self.recovery(dense, q, t)
            assert np.max(np.abs(core.X - mix)) <= 1e-12 * max(1.0, np.max(np.abs(mix)))
            start = np.zeros(n, dtype=complex)
            if eta_x < eta_y:
                start[eta_y:] = self.recovery(dense, q, eta_y)[eta_x]
            else:
                start[eta_y] = 1.0
            assert np.max(np.abs(core.start - start)) <= 1e-12, (eta_x, eta_y)

    @pytest.mark.parametrize("chain_id", ["DEJD-dense", "VG-lattice"])
    def test_exit_matrix_factors_through_the_window_inverses(self, chain_id):
        # I - P = S (qI - G) on the interior rows, row i of S the last row
        # of (qI - G)^{-1} over the window topped at i: Hsum's (I - P) H = c
        # is then H = (qI - G)^{-1} S^{-1} c
        gen = (build_generator(ModelSpec.dejd(), build_grid(0.0, 0.2, 5, -0.8, 0.6))
               if chain_id == "DEJD-dense" else build_levy_generator(ModelSpec.vg(), 0.02, -0.5, 0.5))
        q, a_steps, n, eta = 2.0 + 3.0j, 7, gen.n, gen.grid.eta_x
        dense = gen.to_dense()
        core = _EventCore(dense, q, a_steps, eta, eta, False)
        S = np.zeros((n, n), dtype=complex)
        for i in range(1, n - 1):
            lo = max(0, i - a_steps + 1)
            S[i, lo:i + 1] = np.linalg.inv(q * np.eye(i - lo + 1) - dense[lo:i + 1, lo:i + 1])[-1]
        lhs = (np.eye(n) - core.below - core.above)[1:-1]
        rhs = (S @ (q * np.eye(n) - dense))[1:-1]
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))

    def test_started_at_the_absorbing_bottom_is_zero(self, chain):
        bottom, a = chain.states[0], 4 * chain.grid.h
        assert np.all(insurance_with_recovery(chain, self.NODES, a, x=bottom, y=bottom) == 0.0)
        assert np.all(nth_drawdown_with_recovery(chain, self.NODES, a, x=bottom, y=bottom,
                                                 n=2) == 0.0)

    @pytest.mark.parametrize("kind, n", [("Jn", 1), ("Jn", 3), ("Jsum", 1), ("Hsum", 1)])
    def test_one_step_window_matches_the_product_chain(self, kind, n):
        gen = random_jump_chain(20)
        h, eta = gen.grid.h, gen.grid.eta_x
        x, y = (None, None) if kind == "Hsum" else (gen.states[eta - 2], gen.states[eta + 1])
        req = QuantityRequest(kind, a=h, q=2.0, n=n, x=x, y=y)
        ref = dense_product_solve(gen, req, cap=60_000)
        assert abs(evaluate(gen, req) - ref) < 1e-9

    def test_one_window_solve_per_top_whatever_the_count(self, chain, monkeypatch):
        import drawdown_ctmc.quantities as qmod

        calls = []

        def counted(*args, _fn=qmod._killed_solve, **kwargs):
            calls.append(args[2:4])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(qmod, "_killed_solve", counted)
        eta, a = chain.grid.eta_x, 4 * chain.grid.h
        x, y = chain.states[eta - 3], chain.states[eta + 2]
        for n in (1, 3):
            nth_drawdown_with_recovery(chain, self.NODES, a, x=x, y=y, n=n)
        insurance_with_recovery(chain, self.NODES, a, x=x, y=y)
        assert len(calls) == 3 * self.NODES.size * (chain.n - 2)

    def test_recovery_prices_a_557_state_lattice_off_the_anchor(self):
        a = 0.28768
        gen = build_levy_generator(ModelSpec.dejd(), a / 40, -2.0, 2.0)
        assert gen.n == 557
        eta = gen.grid.eta_x
        x, y = gen.states[eta - 10], gen.states[eta + 3]
        jsum = insurance_with_recovery(gen, self.NODES, a, x=x, y=y)
        second = nth_drawdown_with_recovery(gen, self.NODES, a, x=x, y=y, n=2)
        assert np.all(np.isfinite(jsum)) and np.all(np.isfinite(second))
        # the partial sums step the Jn recursion, not the Jsum fixed point
        terms = _jn_terms(gen, self.NODES, gen.grid.steps_of(a), _bipayoff(gen, None),
                          *_start_pair(gen, x, y), 50)
        sums = event_partial_sums(terms)
        assert np.all(np.abs(sums[-1] - jsum) <= 1e-10 * np.maximum(1.0, np.abs(jsum)))

    @pytest.mark.parametrize("fn", [insurance_no_recovery, insurance_with_recovery])
    def test_one_state_cap(self, fn):
        gen = build_levy_generator(ModelSpec.dejd(), 0.0025, -2.0, 2.0)
        assert gen.n > 1500
        with pytest.raises(TooLarge):
            fn(gen, self.NODES, 0.1, x=gen.states[gen.grid.eta_x + 1])


# ---------------------------------------------------------------------------
# the birth-death and dense routes visit only the states their answers read
# ---------------------------------------------------------------------------

STRIP_NODES = np.array([1.3, 2.0 + 0.7j, 18.4 + 30.0j, 5.0 + 800.0j])


class TestReachableStrip:
    """A sweeps the tops min(N-2, eta + b + 1) .. eta: a top above that
    strip holds 0 on every minimum the answer reads, so the chain's rows
    above it never reach the value, on either route."""

    A, B = 0.2, 0.3

    def strip_top(self, gen):
        return gen.grid.eta_x + gen.grid.steps_at_least(self.B) + 1

    def values(self, gen, nodes=STRIP_NODES):
        h = gen.grid.h
        return [drawdown_before_drawup(gen, nodes, self.A, self.B, y=y)
                for y in (None, -2 * h, -3.5 * h)]

    @pytest.mark.parametrize("model", [ModelSpec.bs(), ModelSpec.cev()], ids=["BS", "CEV"])
    def test_birth_death_rates_above_the_strip_are_never_read(self, model):
        gen = build_generator(model, build_grid(0.0, 0.2, 8, -0.8, 0.8))
        top = self.strip_top(gen)
        assert top < gen.n - 3
        up, down = gen.up.copy(), gen.down.copy()
        up[top + 1:] *= 3.0
        down[top + 1:] *= 0.25
        base = self.values(gen)
        for v, w in zip(base, self.values(BirthDeathGenerator(gen.grid, up, down))):
            assert np.array_equal(v, w)
        # the rates of a top inside the strip do reach the value
        up[top - 2] *= 1.5
        assert not np.array_equal(base[0], self.values(BirthDeathGenerator(gen.grid, up, down))[0])

    @pytest.mark.parametrize("chain", ["BS", "DEJD"])
    def test_dense_rows_above_the_strip_are_never_read(self, chain):
        if chain == "BS":
            gen = dense_copy(build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 8, -0.8, 0.8)))
        else:
            gen = dense_copy(build_levy_generator(ModelSpec.dejd(), 0.025, -1.0, 1.0))
        top = self.strip_top(gen)
        assert top < gen.n - 3
        rates = gen.to_dense()
        rates[top + 1:] = np.random.default_rng(7).uniform(0.0, 50.0, rates[top + 1:].shape)
        nodes = STRIP_NODES[[0, 2]]
        base = self.values(gen, nodes)
        for v, w in zip(base, self.values(DenseGenerator(gen.grid, rates), nodes)):
            assert np.array_equal(v, w)
        rates[top - 2] *= 1.5
        assert not np.array_equal(base[0], self.values(DenseGenerator(gen.grid, rates), nodes)[0])

    def test_work_does_not_grow_with_the_chain(self, monkeypatch):
        # chains that reach further up give A the same strip: the same
        # weight-table tops and the same dense window solves
        import drawdown_ctmc.quantities as qmod

        tops, solves = [], []
        weights, killed = qmod._a_weights, qmod._killed_solve

        def counted_weights(coeffs, a, t0, t1, first):
            tops.append(t1 - t0 + 1)
            return weights(coeffs, a, t0, t1, first)

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return killed(*args, **kwargs)

        monkeypatch.setattr(qmod, "_a_weights", counted_weights)
        monkeypatch.setattr(qmod, "_killed_solve", counted_solve)
        counts = []
        for y_max in (0.8, 3.0):
            gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 8, -0.8, y_max))
            tops.clear()
            solves.clear()
            drawdown_before_drawup(gen, STRIP_NODES, self.A, self.B, y=-0.05)
            drawdown_before_drawup(dense_copy(gen), 1.3, self.A, self.B, y=-0.05)
            counts.append((sum(tops), len(solves)))
        assert counts[0] == counts[1]
        assert counts[0][0] == self.strip_top(gen) - gen.grid.eta_x + 1


def all_tops_recovery(gen, nodes, a_steps, eta_x, eta_y):
    """Jsum and Jn's birth-death weights over every top 1 .. N-2."""
    import drawdown_ctmc.quantities as qmod
    from drawdown_ctmc.linsolve import psi_pair

    psi = psi_pair(gen, nodes)
    idx = np.arange(1, gen.n - 1)
    up, down = qmod._window_weights(psi, idx, a_steps)
    hit = 1.0 if eta_x == eta_y else psi.ratio_plus(eta_x, eta_y)
    return idx, up, down, qmod._recovery_weights(psi, idx, a_steps), hit


class TestRecoveryFromTheStart:
    """Jsum and Jn run down the tops to the start max eta_y only: the
    chain reads the top above, and no count reads a top below eta_y."""

    NODES = np.array([1.0, 2.0 + 0.7j, 18.4 + 30.0j, 5.0 + 800.0j])

    @pytest.fixture(params=["BS", "CEV"])
    def gen(self, request):
        model = ModelSpec.bs() if request.param == "BS" else ModelSpec.cev()
        return build_generator(model, build_grid(0.0, 0.2, 8, -0.8, 0.4))

    def starts(self, gen):
        eta, n = gen.grid.eta_x, gen.n
        return ((eta - 3, eta + 2), (eta - 10, eta), (2, 5), (n - 4, n - 2))

    @pytest.mark.parametrize("a_steps", [3, 8])
    def test_jsum_matches_a_sweep_over_every_top(self, gen, a_steps):
        import drawdown_ctmc.quantities as qmod

        a = a_steps * gen.grid.h
        for eta_x, eta_y in self.starts(gen):
            idx, up, dn, rec, hit = all_tops_recovery(gen, self.NODES, a_steps, eta_x, eta_y)
            cycle = 1.0 - dn * rec
            ref = hit * qmod._chain_down(gen.n, idx, up / cycle, dn / cycle)[eta_y]
            got = insurance_with_recovery(gen, self.NODES, a, x=gen.states[eta_x],
                                          y=gen.states[eta_y])
            assert np.array_equal(got, ref), (eta_x, eta_y)

    @pytest.mark.parametrize("a_steps", [3, 8])
    def test_jn_matches_a_sweep_over_every_top(self, gen, a_steps):
        import drawdown_ctmc.quantities as qmod

        a = a_steps * gen.grid.h
        f2 = lambda z, m: np.exp(-z) + 0.1 * m
        f2_fn = qmod._bipayoff(gen, f2)
        for eta_x, eta_y in self.starts(gen):
            idx, up, down, rec, hit = all_tops_recovery(gen, self.NODES, a_steps, eta_x, eta_y)
            floor = idx >= a_steps
            pay = np.where(floor, f2_fn(np.where(floor, idx - a_steps, 0), idx), 0.0)[:, None]
            for n in (1, 2, 3):
                diag = qmod._chain_down(gen.n, idx, up, down * pay)
                got = nth_drawdown_with_recovery(gen, self.NODES, a, f2=f2, x=gen.states[eta_x],
                                                 y=gen.states[eta_y], n=n)
                assert np.array_equal(got, hit * diag[eta_y]), (eta_x, eta_y, n)
                pay = diag[idx] * rec


class TestChainReadout:
    """The chain recursion, stepped through row views, at the bits of a
    plain per-top loop."""

    NODES, _ = inversion_nodes_weights(0.5)

    @pytest.fixture(scope="class", params=["BS", "CEV"])
    def psi(self, request):
        from drawdown_ctmc.linsolve import psi_pair

        model = ModelSpec.bs() if request.param == "BS" else ModelSpec.cev()
        return psi_pair(build_generator(model, build_grid(0.0, 0.2, 10, -1.0, 0.6)), self.NODES)

    @pytest.mark.parametrize("first", [0, 3, 30])
    def test_chain_matches_a_per_top_loop(self, psi, first):
        import drawdown_ctmc.quantities as qmod

        n = psi.gen.n
        tops = np.arange(first, n - 1)
        up, down = qmod._window_weights(psi, tops, 20)
        src = down * np.linspace(0.5, 1.5, tops.size)[:, None]
        ref = np.zeros((n, self.NODES.size), dtype=complex)
        for pos in range(tops.size - 1, -1, -1):
            ref[tops[pos]] = src[pos] + up[pos] * ref[tops[pos] + 1]
        assert np.array_equal(qmod._chain_down(n, tops, up, src), ref)


class TestOneSplicedPair:
    """C's coefficients read its two killings, q + shift below the
    breakpoint and shift above it, from one pair over k + 1 columns."""

    @staticmethod
    def two_pairs(gen, killing, lo):
        # the node columns and the shift column built as two pairs, joined
        from drawdown_ctmc.linsolve import PsiPair, psi_pair

        low, high = psi_pair(gen, killing[:-1], lo), psi_pair(gen, killing[-1:], lo)
        joined = object.__new__(PsiPair)
        joined.gen, joined.single, joined.lo = gen, False, lo
        for name in ("_um", "_uL", "_dm", "_dL", "_wm", "_wL"):
            setattr(joined, name, np.hstack([getattr(low, name), getattr(high, name)]))
        return joined

    @pytest.mark.parametrize("nodes", [np.array([1.0]), STRIP_NODES, STRIP_NODES[1:3],
                                       STRIP_NODES[2:3]],
                             ids=["one real node", "four nodes", "two complex nodes",
                                  "one complex node"])
    @pytest.mark.parametrize("model", [ModelSpec.bs(), ModelSpec.cev()], ids=["BS", "CEV"])
    def test_coefficients_match_two_separate_pairs(self, monkeypatch, model, nodes):
        import drawdown_ctmc.quantities as qmod

        gen = build_generator(model, build_grid(0.0, 0.2, 8, -0.8, 0.4))
        a_steps = gen.grid.steps_of(0.2)
        cases = [(xi, shift, stop) for xi in (0.05, 0.3, -0.1) for shift in (0.0, 0.05)
                 for stop in (gen.grid.eta_x, 0)]
        one = [qmod._spliced_sweep_coeffs(gen, nodes, a_steps, *case) for case in cases]
        monkeypatch.setattr(qmod, "psi_pair", self.two_pairs)
        for got, case in zip(one, cases):
            ref = qmod._spliced_sweep_coeffs(gen, nodes, a_steps, *case)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref)), case


class TestCutPair:
    """B and C sweep the tops at and above the start eta, whose windows read
    no state below eta - a, so their pairs span only eta - a .. N-1.  On
    the shipped BS studies' node sets this cut pair stays within 2e-14 of
    the dense window sweep, where a pair over the whole chain strays by up
    to 1.5e-13; a start within a steps of state 0 cuts nothing."""

    ROOT = Path(__file__).resolve().parents[1]

    def request(self, name, n_x):
        from drawdown_ctmc import cli

        cfg = cli.load_config(str(self.ROOT / "configs" / f"{name}.ini"), [f"grid.n_x={n_x}"])
        gen = cli._build_generator_for(cfg, n_x, cli._resolve_scheme(cfg))
        nodes, _ = inversion_nodes_weights(cfg.T, cfg.laplace)
        return gen, cli._snap_request(gen, cli._node_request(cfg, nodes)[0])

    @pytest.mark.parametrize("start", ["anchor", "within a of state 0"])
    @pytest.mark.parametrize("n_x", [10, 20])
    @pytest.mark.parametrize("name", ["occupation_digital_bs", "drawdown_occupation_digital_bs"],
                             ids=["B", "C"])
    def test_node_values(self, monkeypatch, name, n_x, start):
        import drawdown_ctmc.quantities as qmod
        from drawdown_ctmc.linsolve import psi_pair

        gen, req = self.request(name, n_x)
        if start == "anchor":
            dense = evaluate(dense_copy(gen), req)
            assert np.max(np.abs(evaluate(gen, req) - dense)) <= 2e-14
        else:
            req = replace(req, x=float(gen.states[gen.grid.steps_of(req.a) // 2]))
            got = evaluate(gen, req)
            monkeypatch.setattr(qmod, "psi_pair", lambda gen, q, lo=0: psi_pair(gen, q))
            assert np.array_equal(got, evaluate(gen, req))


class TestEventCoreMemory:
    def test_one_jsum_node_of_a_557_state_lattice(self):
        # P becomes its part above the top, the weights w are freed once z
        # exists and the LU once K exists: the core used to peak at about
        # 8.5 dense (n, n) complex arrays here, and now at about 5.5, with
        # the same bits
        import tracemalloc

        a = 0.28768
        gen = build_levy_generator(ModelSpec.dejd(), a / 40, -2.0, 2.0)
        eta = gen.grid.eta_x
        x, y = gen.states[eta - 10], gen.states[eta + 3]
        insurance_with_recovery(gen, 2.0, a, x=x, y=y)   # lazy imports outside the trace
        tracemalloc.start()
        try:
            value = insurance_with_recovery(gen, 18.4 + 30.0j, a, x=x, y=y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * gen.n ** 2 * 16
        assert (value.real.hex(), value.imag.hex()) == ("-0x1.3d631dc911a9ap-11",
                                                        "-0x1.710940980c1efp-12")

    def test_one_hsum_node_of_a_557_state_lattice(self):
        # I - above - below is built in above's storage, and above in P's:
        # one Hsum node off the anchor used to peak at about 4.0 dense (n, n)
        # complex arrays here, and now at about 2.6.  Its bits are those of
        # I - above - below built from two temporaries and solved in the same
        # process: a recorded value would pin the BLAS thread count, since
        # the blocked LU of the 557-state system moves its last bits with it
        import tracemalloc

        a, q = 0.28768, 18.4 + 30.0j
        gen = build_levy_generator(ModelSpec.dejd(), a / 40, -2.0, 2.0)
        eta = gen.grid.eta_x - 10
        insurance_no_recovery(gen, 2.0, a, x=gen.states[eta])   # lazy imports outside the trace
        tracemalloc.start()
        try:
            value = insurance_no_recovery(gen, q, a, x=gen.states[eta])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * gen.n ** 2 * 16
        core = _EventCore(gen.to_dense(), q, 40, eta, eta, False)
        mat = np.eye(gen.n) - core.above - core.below
        assert value == complex(core.start @ np.linalg.solve(mat, core.c))


class TestBatchIndependence:
    """A node's value does not depend on its batch: one node alone gives
    the bits of its column in the vector of all 27 inversion nodes."""

    NODES, _ = inversion_nodes_weights(0.5)

    @pytest.fixture(scope="class", params=["BS", "CEV"])
    def chain(self, request):
        model = ModelSpec.bs() if request.param == "BS" else ModelSpec.cev()
        return build_generator(model, build_grid(0.0, 0.2, 40, -2.0, 2.0))   # 801 states

    @pytest.mark.parametrize("req", TestNodeAxis.CASES, ids=[r.kind for r in TestNodeAxis.CASES])
    def test_single_node_is_bitwise_its_column(self, chain, req):
        batched = evaluate(chain, replace(req, q=self.NODES))
        single = np.array([evaluate(chain, replace(req, q=q)) for q in self.NODES])
        assert np.array_equal(batched, single)

    @pytest.mark.parametrize("model", ["BS", "CEV"])
    @pytest.mark.parametrize("req", [QuantityRequest("Jn", a=0.2, n=2),
                                     QuantityRequest("Jn", a=0.2, n=3, x=-0.1, y=0.05)],
                             ids=["anchor", "off-anchor"])
    def test_jn_on_1601_states(self, model, req):
        # from 256 KiB on, NumPy runs `array * temporary` in place as
        # `temporary * array`, and complex products are not commutative bit
        # for bit: Jn's recovery product keeps its operand order at any size
        spec = ModelSpec.bs() if model == "BS" else ModelSpec.cev()
        chain = build_generator(spec, build_grid(0.0, 0.2, 40, -4.0, 4.0))
        batched = evaluate(chain, replace(req, q=self.NODES))
        single = np.array([evaluate(chain, replace(req, q=q)) for q in self.NODES])
        assert np.array_equal(batched, single)


class TestAStrip:
    """A off birth-death chains: one route over the strip's window block
    for all nodes, pinned to the product chain, with no dense generator
    matrix and work that does not grow with the chain."""

    @pytest.fixture(scope="class", params=["DEJD", "VG"])
    def lattice(self, request):
        model = ModelSpec.dejd() if request.param == "DEJD" else ModelSpec.vg()
        return build_levy_generator(model, 0.025, -1.0, 1.0)   # 81 states

    @pytest.mark.parametrize("q", [2.0, 18.4 + 30.0j])
    @pytest.mark.parametrize("steps_below", [0, 2])
    def test_matches_the_product_chain(self, lattice, q, steps_below):
        y = lattice.grid.x0 - steps_below * lattice.grid.h
        req = QuantityRequest("A", a=0.2, b=0.3, q=q, y=y)
        assert abs(evaluate(lattice, req) - dense_product_solve(lattice, req)) <= 1e-9

    def test_never_builds_the_dense_matrix(self, lattice, monkeypatch):
        def refuse(self):
            raise AssertionError("A built the dense generator matrix")

        monkeypatch.setattr(Generator, "to_dense", refuse)
        y = lattice.grid.x0 - 0.05
        assert np.all(np.isfinite(drawdown_before_drawup(lattice, STRIP_NODES, 0.2, 0.3, y=y)))

    def test_dense_chain_reads_only_the_strip_rows(self):
        # the payoff inflow from below the strip reads rows first..T of a
        # dense chain, not a copy of its n x n matrix
        import tracemalloc

        bd = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 40, -2.0, 2.0))   # 801 states
        gen, nodes, y = dense_copy(bd), STRIP_NODES[:2], -0.05
        drawdown_before_drawup(gen, nodes, 0.2, 0.3, y=y)   # lazy imports outside the trace
        tracemalloc.start()
        try:
            value = drawdown_before_drawup(gen, nodes, 0.2, 0.3, y=y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * gen.n ** 2 * 8
        assert np.all(np.abs(value - drawdown_before_drawup(bd, nodes, 0.2, 0.3, y=y)) <= 1e-10)

    def test_solves_do_not_grow_with_the_truncation(self, monkeypatch):
        # +-1, +-2 and +-4 at h = 0.01: the same window and sub-window
        # solves, 32 tops of one window and 19 sub-windows each
        import drawdown_ctmc.quantities as qmod

        calls = []

        def counted(blk, kill, rhs, _fn=qmod._killed_solve):
            calls.append((blk.shape, np.shape(kill), rhs.shape))
            return _fn(blk, kill, rhs)

        monkeypatch.setattr(qmod, "_killed_solve", counted)
        seen = {}
        for width in (1.0, 2.0, 4.0):
            gen = build_levy_generator(ModelSpec.dejd(), 0.01, -width, width)
            calls.clear()
            drawdown_before_drawup(gen, STRIP_NODES[:2], 0.2, 0.3, y=gen.grid.x0 - 0.05)
            seen[gen.n] = list(calls)
        assert list(seen) == [201, 401, 801]
        assert len(seen[201]) == 640
        assert seen[201] == seen[401] == seen[801]
