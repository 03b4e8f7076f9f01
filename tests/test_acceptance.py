"""Acceptance suite: every criterion prints one PASS/FAIL line.

The pinned reference values are the published benchmark prices for the
five product types under the four models (drawdown-before-drawup
probability, two occupation digitals, and the two drawdown-insurance
prices), plus structural checks: oracle agreement on randomized chains,
Monte-Carlo consistency, fast-path equivalences, inversion sanity, and
first-order convergence.
"""

import os
import time

import numpy as np
import pytest

from drawdown_ctmc.cli import load_config, run_table
from drawdown_ctmc.ctmc import (
    BirthDeathGenerator,
    DenseGenerator,
    Grid,
    build_generator,
    build_grid,
    build_levy_generator,
)
from drawdown_ctmc.laplace import invert_values, inversion_nodes_weights, richardson
from drawdown_ctmc.models import ModelSpec
from drawdown_ctmc.oracle import McConfig, dense_product_solve, mc_estimate
from drawdown_ctmc.quantities import (
    QuantityRequest,
    c_levy_closed_form,
    drawdown_occupation,
    evaluate,
    h_levy_closed_form,
    insurance_no_recovery,
    insurance_with_recovery,
    j_levy_closed_form,
    q_drawdown,
)
from helpers import dense_copy

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def table_from(config_name: str, **tweaks):
    cfg = load_config(os.path.join(CONFIG_DIR, config_name),
                      [f"{k}={v}" for k, v in tweaks.items()])
    return run_table(cfg)


@pytest.fixture(scope="module")
def table_a_bs():
    t0 = time.perf_counter()
    table = table_from("drawdown_before_drawup_bs.ini")
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table_b_bs():
    return table_from("occupation_digital_bs.ini")


@pytest.fixture(scope="module")
def table_c_bs():
    return table_from("drawdown_occupation_digital_bs.ini")


@pytest.fixture(scope="module")
def table_h_bs():
    return table_from("insurance_no_recovery_bs.ini")


@pytest.fixture(scope="module")
def table_j_bs():
    return table_from("insurance_with_recovery_bs.ini")


class TestCriterion1DrawdownBeforeDrawup:
    REFERENCE = {20: 0.55212, 40: 0.56000, 80: 0.56387, 160: 0.56580}

    def test_ctmc_column(self, table_a_bs):
        table, _ = table_a_bs
        worst = 0.0
        for row in table.rows:
            diff = abs(row.value - self.REFERENCE[row.n_x])
            worst = max(worst, diff)
        report("criterion 1a (drawdown-before-drawup BS rows)", worst < 1.5e-3,
               f"max row deviation {worst:.2e} (tol 1.5e-3)")

    def test_extrapolated(self, table_a_bs):
        table, _ = table_a_bs
        extra = table.rows[-1].extrapolated
        diff = abs(extra - 0.56773)
        report("criterion 1b (extrapolated at N_x=160)", diff < 3e-4,
               f"{extra:.5f} vs 0.56773, diff {diff:.2e} (tol 3e-4)")

    def test_runtime(self, table_a_bs):
        _, elapsed = table_a_bs
        report("criterion 1c (full study runtime)", elapsed < 120.0,
               f"{elapsed:.1f}s (cap 120s)")


class TestCriterion2OccupationDigital:
    def test_bs(self, table_b_bs):
        extra = table_b_bs.rows[-1].extrapolated
        diff = abs(extra - 0.90338)
        report("criterion 2a (occupation digital BS)", diff < 3e-4,
               f"{extra:.5f} vs 0.90338, diff {diff:.2e} (tol 3e-4)")

    def test_dejd(self):
        table = table_from("occupation_digital_dejd.ini")
        extra = table.rows[-1].extrapolated
        diff = abs(extra - 0.94212)
        report("criterion 2b (occupation digital DEJD)", diff < 5e-4,
               f"{extra:.5f} vs 0.94212, diff {diff:.2e} (tol 5e-4)")


class TestCriterion3DrawdownOccupationDigital:
    def test_bs(self, table_c_bs):
        extra = table_c_bs.rows[-1].extrapolated
        diff = abs(extra - 0.57770)
        report("criterion 3a (drawdown-occupation digital BS)", diff < 5e-4,
               f"{extra:.5f} vs 0.57770, diff {diff:.2e} (tol 5e-4)")

    def test_vg_closed_form_and_cross_check(self):
        table = table_from("drawdown_occupation_digital_vg.ini",
                           **{"grid.n_x": "320,640"})
        extra = table.rows[-1].extrapolated
        diff = abs(extra - 0.63236)
        report("criterion 3b (drawdown-occupation digital VG, lattice form)",
               diff < 1e-3, f"{extra:.5f} vs 0.63236, diff {diff:.2e} (tol 1e-3)")
        # closed form against the generic sweep on the same lattice, which
        # a payoff (of ones) selects
        vg = ModelSpec.vg(r_f=0.05)
        gen = build_levy_generator(vg, 0.5 / 640, -5.0, 5.0)
        q = 18.4 / (2 * 0.1) + 0.0j
        cf = c_levy_closed_form(gen, q, 0.5, 0.2, shift=0.05)
        rec = drawdown_occupation(gen, q, 0.5, 0.2, f=np.ones(gen.n), shift=0.05)
        gap = abs(cf - rec)
        report("criterion 3c (closed form vs generic path)", gap < 1e-8,
               f"gap {gap:.2e} (tol 1e-8)")


class TestCriterion4InsuranceNoRecovery:
    def test_bs(self, table_h_bs):
        extra = table_h_bs.rows[-1].extrapolated
        diff = abs(extra - 0.92475)
        report("criterion 4a (insurance without recovery BS)", diff < 5e-4,
               f"{extra:.5f} vs 0.92475, diff {diff:.2e} (tol 5e-4)")

    def test_vg(self):
        table = table_from("insurance_no_recovery_vg.ini", **{"grid.n_x": "320,640"})
        extra = table.rows[-1].extrapolated
        diff = abs(extra - 1.91007)
        report("criterion 4b (insurance without recovery VG)", diff < 2e-3,
               f"{extra:.5f} vs 1.91007, diff {diff:.2e} (tol 2e-3)")


class TestCriterion5InsuranceWithRecovery:
    def test_bs(self, table_j_bs):
        extra = table_j_bs.rows[-1].extrapolated
        diff = abs(extra - 0.68014)
        report("criterion 5a (insurance with recovery BS)", diff < 3e-4,
               f"{extra:.5f} vs 0.68014, diff {diff:.2e} (tol 3e-4)")

    def test_cev(self):
        table = table_from("insurance_with_recovery_cev.ini")
        extra = table.rows[-1].extrapolated
        diff = abs(extra - 0.65915)
        report("criterion 5b (insurance with recovery CEV)", diff < 3e-4,
               f"{extra:.5f} vs 0.65915, diff {diff:.2e} (tol 3e-4)")


class TestCriterion6ConvergenceOrder:
    def test_first_order_slopes(self, table_a_bs, table_b_bs, table_c_bs,
                                table_h_bs, table_j_bs):
        tables = {
            "drawdown-before-drawup": table_a_bs[0],
            "occupation digital": table_b_bs,
            "drawdown-occupation digital": table_c_bs,
            "insurance no recovery": table_h_bs,
            "insurance with recovery": table_j_bs,
        }
        for name, table in tables.items():
            xs = np.log10([row.n_x for row in table.rows])
            ys = np.log10([row.abs_err for row in table.rows])
            slope = float(np.polyfit(xs, ys, 1)[0])
            report(f"criterion 6 (order, {name})", -1.25 < slope < -0.75,
                   f"slope {slope:.3f} (window [-1.25, -0.75])")


class TestCriterion7RichardsonForensics:
    def test_identities(self):
        a = richardson(0.55212, 0.56000)
        b = richardson(0.87418, 0.89864)
        ok = abs(a - 0.56788) < 1e-12 and abs(a - 0.56789) < 1e-5 \
            and abs(b - 0.92310) < 1e-12 and abs(b - 0.92311) < 1e-5
        report("criterion 7 (extrapolation forensics)", ok,
               f"2*0.56000-0.55212={a:.5f}, 2*0.89864-0.87418={b:.5f}")


def _random_birth_death(rng, n):
    states = np.arange(n) * 0.04
    up = np.concatenate([[0.0], rng.uniform(10.0, 80.0, n - 2), [0.0]])
    down = np.concatenate([[0.0], rng.uniform(10.0, 80.0, n - 2), [0.0]])
    grid = Grid(states=states, h=0.04, eta_x=n // 2, x0=float(states[n // 2]))
    return BirthDeathGenerator(grid, up, down)


def _random_jump_chain(rng, n):
    states = np.arange(n) * 0.04
    rates = rng.uniform(0.0, 30.0, (n, n))
    rates[rng.random((n, n)) < 0.6] = 0.0
    np.fill_diagonal(rates, 0.0)
    rates[0] = 0.0
    rates[-1] = 0.0
    for i in range(1, n - 1):
        if rates[i].sum() == 0.0:
            rates[i, i - 1] = rates[i, i + 1] = 10.0
    np.fill_diagonal(rates, -rates.sum(axis=1))
    grid = Grid(states=states, h=0.04, eta_x=n // 2, x0=float(states[n // 2]))
    return DenseGenerator(grid, rates)


class TestCriterion8OracleKeystone:
    def test_randomized_agreement(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        checks = 0
        worst = 0.0
        kinds = ("Q", "B", "C", "Hn", "Hsum", "A", "Jn", "Jsum")
        for trial in range(8):
            n = int(rng.integers(14, 30))
            gen = _random_birth_death(rng, n) if trial % 2 == 0 else _random_jump_chain(rng, n)
            a_steps = int(rng.integers(2, 5))
            a = round(a_steps * gen.grid.h, 10)
            q = float(rng.uniform(0.5, 4.0))
            for kind in kinds[trial % 2::3] + (kinds[(trial + 3) % 8],):
                start_y = None
                if kind in ("A", "Jn", "Jsum"):
                    off = int(rng.integers(0, 2))
                    start_y = float(gen.states[gen.grid.eta_x + (off if kind != "A" else -off)])
                req = QuantityRequest(
                    kind, a=a, q=q,
                    b=round(a + int(rng.integers(0, 3)) * gen.grid.h, 10),
                    xi=float(rng.uniform(0.0, a)),
                    n=int(rng.integers(1, 4)),
                    shift=float(rng.uniform(0.0, 1.0)),
                    y=start_y,
                )
                val = evaluate(gen, req)
                ref = dense_product_solve(gen, req, cap=60_000)
                worst = max(worst, abs(val - ref))
                checks += 1
        # the min-tracking double recursion on a jump chain, explicitly
        gen = _random_jump_chain(rng, 18)
        req = QuantityRequest("A", a=0.12, b=0.16, q=1.9,
                              y=float(gen.states[gen.grid.eta_x - 1]))
        worst = max(worst, abs(evaluate(gen, req) - dense_product_solve(gen, req, cap=60_000)))
        checks += 1
        elapsed = time.perf_counter() - t0
        report("criterion 8 (oracle keystone)",
               checks >= 20 and worst < 1e-9 and elapsed < 60.0,
               f"{checks} randomized checks, worst |diff| {worst:.2e} (tol 1e-9), "
               f"{elapsed:.1f}s (cap 60s)")


class TestCriterion9MonteCarlo:
    def test_five_quantities_within_three_stderr(self):
        g = build_grid(0.0, 0.2, 8, -2.0, 2.0)
        gen = build_generator(ModelSpec.bs(r_f=0.05), g)
        q = 2.0
        reqs = {
            "drawdown time": QuantityRequest("Q", a=0.2, q=q),
            "occupation": QuantityRequest("B", a=0.2, q=q, xi=0.1, shift=0.05),
            "drawdown occupation": QuantityRequest("C", a=0.2, q=q, xi=0.1, shift=0.05),
            "second event, no recovery": QuantityRequest("Hn", a=0.2, q=q, n=2),
            "second event, with recovery": QuantityRequest("Jn", a=0.2, q=q, n=2,
                                                           x=-0.05, y=0.0),
        }
        cfg = McConfig(n_paths=100_000, seed=20240809)
        for name, req in reqs.items():
            analytic = evaluate(gen, req).real
            est, stderr = mc_estimate(gen, req, cfg)
            z = (est - analytic) / stderr
            report(f"criterion 9 ({name})", abs(z) < 3.0,
                   f"analytic {analytic:.5f}, mc {est:.5f} +- {stderr:.1e}, z {z:+.2f}")
        again, _ = mc_estimate(gen, reqs["drawdown time"], cfg)
        first, _ = mc_estimate(gen, reqs["drawdown time"], cfg)
        report("criterion 9 (seed determinism)", again == first,
               f"repeat delta {abs(again - first):.1e}")


class TestCriterion10FastPathAgreement:
    def test_birth_death_vs_generic(self):
        g = build_grid(0.0, 0.2, 10, -1.2, 0.8)
        gen = build_generator(ModelSpec.bs(r_f=0.05), g)
        dense = dense_copy(gen)
        worst = 0.0
        for q in (1.0, 2.5 + 4.0j):
            worst = max(worst, abs(q_drawdown(gen, q, 0.2) - q_drawdown(dense, q, 0.2)))
            worst = max(worst, abs(insurance_with_recovery(gen, q, 0.2)
                                   - insurance_with_recovery(dense, q, 0.2)))
        report("criterion 10a (fundamental-solution path vs dense path)",
               worst < 1e-9, f"worst |diff| {worst:.2e} (tol 1e-9)")

    def test_lattice_closed_forms_vs_generic(self):
        gen = build_levy_generator(ModelSpec.dejd(), 0.02, -3.5, 3.5)
        dense = dense_copy(gen)
        q = 6.0 + 0.5j
        gaps = {
            "drawdown occupation": abs(
                c_levy_closed_form(gen, q, 0.1, 0.04, shift=0.5)
                - drawdown_occupation(dense, q, 0.1, 0.04, shift=0.5)),
            "insurance no recovery": abs(
                h_levy_closed_form(gen, q, 0.1)
                - insurance_no_recovery(dense, q, 0.1)),
            "insurance with recovery": abs(
                j_levy_closed_form(gen, q, 0.1)
                - insurance_with_recovery(dense, q, 0.1)),
        }
        worst = max(gaps.values())
        report("criterion 10b (lattice closed forms vs generic recursions)",
               worst < 1e-8, "; ".join(f"{k} {v:.2e}" for k, v in gaps.items()))


class TestCriterion11TransformPairs:
    def test_known_pairs(self):
        worst = 0.0
        for T in (0.1, 0.5, 1.0):
            q, _ = inversion_nodes_weights(T)
            worst = max(worst, abs(invert_values(1 / q, T) - 1.0))
            worst = max(worst, abs(invert_values(1 / (q + 1), T) - np.exp(-T)))
            worst = max(worst, abs(invert_values(1 / q**2, T) - T))
        report("criterion 11 (inversion sanity)", worst < 1e-7,
               f"worst abs error {worst:.2e} (tol 1e-7)")


class TestRelativeRuntime:
    def test_fast_paths_beat_generic(self):
        gen = build_levy_generator(ModelSpec.dejd(r_f=0.05), 0.2 / 40, -2.0, 2.0)
        q = 18.4 + 0.05
        t0 = time.perf_counter()
        for _ in range(3):
            h_levy_closed_form(gen, q, 0.2)
        fast = (time.perf_counter() - t0) / 3
        dense = dense_copy(gen)
        t0 = time.perf_counter()
        insurance_no_recovery(dense, q, 0.2)
        slow = time.perf_counter() - t0
        ratio = slow / max(fast, 1e-9)
        report("relative runtime (lattice path vs generic, matched config)",
               ratio > 5.0, f"generic/fast = {ratio:.0f}x (floor 5x)")
