import itertools
from dataclasses import replace

import numpy as np
import pytest

from drawdown_ctmc.ctmc import build_generator, build_grid, build_levy_generator
from drawdown_ctmc.laplace import inversion_nodes_weights
from drawdown_ctmc.models import ModelSpec
from drawdown_ctmc.oracle import dense_product_solve
from drawdown_ctmc.quantities import (
    QuantityRequest,
    UnsupportedRegime,
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
from helpers import dense_copy


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
        from drawdown_ctmc.quantities import _levy_window_masses
        kv = np.full((dejd_lattice.grid.steps_of(0.1), 1), 2.0 + 1.0j)
        _, p_up, _ = _levy_window_masses(dejd_lattice, kv)
        assert abs(p_up[0]) < 1.0


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
        from drawdown_ctmc.quantities import insurance_partial_sums
        q = 1.0
        total = insurance_no_recovery(bs_small, q, 0.2).real
        sums = insurance_partial_sums(bs_small, q, 0.2).real
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
        from drawdown_ctmc.quantities import insurance_partial_sums
        q = 1.0
        total = insurance_with_recovery(bs_small, q, 0.2).real
        sums = insurance_partial_sums(bs_small, q, 0.2, recovery=True).real
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
# the fundamental-solution pairs, the window sweep, one of the lattice
# closed forms, or (an empty set) the dense generic recursions.
ROUTE_NAMES = ("psi_pair", "backward_window_sweep", "c_levy_closed_form",
               "h_levy_closed_form", "j_levy_closed_form")
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
SWEEP = {"backward_window_sweep"}
EXPECTED_ROUTE = {
    "birth-death": {r.kind: {"psi_pair"} for r in DISPATCH_CASES},
    "DEJD": {"Q": SWEEP, "A": set(), "B": SWEEP, "C": {"c_levy_closed_form"}, "Hn": SWEEP,
             "Hsum": {"h_levy_closed_form"}, "Jn": set(), "Jsum": {"j_levy_closed_form"}},
    "dense": {"Q": SWEEP, "A": set(), "B": SWEEP, "C": SWEEP, "Hn": SWEEP,
              "Hsum": set(), "Jn": set(), "Jsum": set()},
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

    @pytest.mark.parametrize("req", LATTICE_CASES, ids=[r.kind for r in LATTICE_CASES])
    def test_in_place_node_solves_match_the_stack(self, chains, req, monkeypatch):
        # every window solve a lattice route makes, in both orientations,
        # against one dense complex solve per node: the route's own killing
        # (all rows, or a row subset for B and C), one real node, and two
        # killings that must take the per-node LU (a complex offset on a
        # row shared by the nodes, and a state-dependent killing)
        import drawdown_ctmc.quantities as qmod

        solve, shifted = qmod._node_solves, qmod._shifted_solves
        calls, reduced = [], []

        def recorded(blk, kv, rhs, **kwargs):
            calls.append((blk, np.array(kv), rhs))
            return solve(blk, kv, rhs, **kwargs)

        def counted(*args):
            reduced.append(args)
            return shifted(*args)

        monkeypatch.setattr(qmod, "_node_solves", recorded)
        evaluate(chains["DEJD"], replace(req, q=self.NODES))
        monkeypatch.setattr(qmod, "_shifted_solves", counted)
        assert calls
        for blk, kv, rhs in calls:
            m = kv.shape[0]
            offset = kv.copy()
            offset[0] = 0.5 + 0.5j
            state = np.linspace(1.0, 2.0, m)[:, None] * self.NODES
            for trans in (False, True):
                for kill, per_node_lu in ((kv, False), (kv[:, :1].real + 0j, False),
                                          (offset, True), (state, m > 1)):
                    before = len(reduced)
                    got = solve(blk, kill, rhs, trans=trans)
                    assert not (per_node_lu and len(reduced) > before)
                    for j in range(kill.shape[1]):
                        mat = np.diag(kill[:, j]) - blk
                        ref = np.linalg.solve(mat.T if trans else mat, rhs.astype(complex))
                        assert np.max(np.abs(got[j] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert reduced   # the route's own killings took the Hessenberg solves

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
