import os

import numpy as np
import pytest

from drawdown_ctmc import cli
from drawdown_ctmc.cli import (
    ConfigError,
    NoBenchmark,
    PriceTable,
    RunConfig,
    load_config,
    main,
    run_convergence,
    run_oracle,
    run_price,
    run_table,
)
from drawdown_ctmc.laplace import InversionConfig, NodeFailure, inversion_nodes_weights, richardson
from drawdown_ctmc.models import ModelSpec
from drawdown_ctmc.oracle import McConfig


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def smoke_config(**extra):
    overrides = [
        "model.kind=BS", "model.sigma=0.3", "model.r_f=0.05", "model.d=0.02",
        "quantity.kind=B", "quantity.a=0.2", "quantity.xi=0.1", "quantity.t=0.5",
        "grid.n_x=10,20", "grid.y_min=-1.5", "grid.y_max=1.0",
    ]
    overrides += [f"{k}={v}" for k, v in extra.items()]
    return load_config(None, overrides)


class TestConfig:
    def test_load_file_with_overrides(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "occupation_digital_bs.ini"),
                          ["grid.n_x=10,20", "laplace.decay=20.0"])
        assert cfg.n_x == (10, 20)
        assert cfg.laplace.decay_param == 20.0
        assert cfg.kind == "B"
        assert cfg.model.kind == "BS"

    def test_defaults_are_the_dataclasses_own(self):
        # the loader passes only the keys a configuration sets
        cfg = load_config(None, ["model.kind=BS", "quantity.kind=Q"])
        assert cfg == RunConfig(model=ModelSpec(kind="BS"))
        assert cfg.laplace == InversionConfig()
        assert cfg.mc == McConfig()

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            smoke_config(**{"grid.n_x": "20,30"})       # not a doubling chain
        with pytest.raises(ConfigError):
            smoke_config(**{"quantity.a": "-0.1"})
        with pytest.raises(ConfigError):
            load_config(None, ["model.kind=BS"])        # no quantity section
        with pytest.raises(ConfigError):
            smoke_config(**{"grid.y_min": "0.0"})       # bounds exclude the window

    def test_one_core_step_only_on_levy_lattices(self):
        with pytest.raises(ConfigError, match="n_x >= 2"):
            smoke_config(**{"grid.n_x": "1"})
        assert load_config(None, ["model.kind=VG", "quantity.kind=Q", "grid.n_x=1"]).n_x == (1,)

    @pytest.mark.parametrize("model", ["model.kind=BS", "model.kind=CEV",
                                       "model.kind=DEJD,model.lambda=0"])
    def test_levy_truncation_only_on_jump_lattices(self, model):
        # a chain without jumps is a diffusion grid, which never reads the key
        model_keys = model.split(",")
        with pytest.raises(ConfigError, match="levy_truncation"):
            load_config(None, [*model_keys, "quantity.kind=Q", "grid.levy_truncation=6"])
        load_config(None, [*model_keys, "quantity.kind=Q"])

    def test_levy_truncation_widens_the_lattice_only_past_the_grid(self):
        # a Levy lattice spans [min(y_min, -t), max(y_max, t)], so a
        # truncation inside the grid bounds (+-4 here) changes nothing
        path = os.path.join(CONFIG_DIR, "occupation_digital_dejd.ini")

        def lattice(*extra):
            cfg = load_config(path, ["grid.n_x=20", *extra])
            gen = cli._build_generator_for(cfg, 20, cli._resolve_scheme(cfg))
            return gen.n, gen.grid.states[0], gen.grid.states[-1]

        n, lo, hi = lattice()
        assert lattice("grid.levy_truncation=0.5") == (n, lo, hi)
        wide, wide_lo, wide_hi = lattice("grid.levy_truncation=6")
        assert wide > n
        assert wide_lo <= -6.0 < lo and hi < 6.0 <= wide_hi

    def test_quantity_a_requires_b(self):
        with pytest.raises(ConfigError):
            smoke_config(**{"quantity.kind": "A"})

    @pytest.mark.parametrize("override", [
        "grid.nx=40", "laplace.decays=5", "quantity.bogus=1", "output.timing=true",
        "mc.paths=10", "model.sigmaa=0.3", "grd.n_x=40",
    ])
    def test_unknown_keys_rejected(self, override):
        with pytest.raises(ConfigError, match="unknown"):
            smoke_config(**dict([override.split("=")]))

    @pytest.mark.parametrize("kind, y", [("A", 0.05), ("Jn", -0.05), ("Jsum", -0.05)])
    def test_start_value_on_the_wrong_side_of_x_rejected(self, kind, y):
        # A's running minimum lies at or below x; J's running maximum at or above
        with pytest.raises(ConfigError, match="running"):
            smoke_config(**{"quantity.kind": kind, "quantity.b": "0.3", "quantity.y": str(y)})
        smoke_config(**{"quantity.kind": kind, "quantity.b": "0.3", "quantity.y": str(-y)})

    @pytest.mark.parametrize("kind", ["Hsum", "Jsum"])
    def test_event_sums_reject_a_payoff(self, kind):
        # the event sums take no payoff, so payoff=zero would be ignored
        with pytest.raises(ConfigError):
            smoke_config(**{"quantity.kind": kind, "quantity.payoff": "zero"})


class TestRunners:
    def test_zero_payoff_prices_to_zero(self):
        cfg = smoke_config(**{"quantity.payoff": "zero", "grid.n_x": "10"})
        table = run_price(cfg)
        assert table.rows[0].value == 0.0

    def test_zero_payoff_bypasses_the_lattice_closed_form(self):
        # the C closed form has no payoff argument; the sweep serves payoffs
        cfg = load_config(os.path.join(CONFIG_DIR, "drawdown_occupation_digital_vg.ini"),
                          ["grid.n_x=8", "quantity.payoff=zero"])
        assert run_price(cfg).rows[0].value == 0.0

    def test_extrapolated_column_is_richardson(self):
        cfg = smoke_config()
        table = run_table(cfg)
        v10, v20 = table.rows[0].value, table.rows[1].value
        assert table.rows[0].extrapolated is None
        assert table.rows[1].extrapolated == richardson(v10, v20)

    def test_csv_byte_identical_across_runs(self):
        cfg = smoke_config()
        a = run_table(cfg).to_csv(cfg.precision, timings=False)
        b = run_table(cfg).to_csv(cfg.precision, timings=False)
        assert a == b
        assert "runtime" not in a.splitlines()[len(a.splitlines()) - 3]

    def test_convergence_slope_near_first_order(self):
        cfg = smoke_config(**{"grid.n_x": "10,20,40", "output.benchmark": "self"})
        table, pairs, slope = run_convergence(cfg)
        assert slope is not None
        assert -1.4 < slope < -0.6

    def test_self_benchmark_builds_no_rung_above_2048(self, monkeypatch):
        # a price that never settles: the ladder doubles up to n_x = 2048
        # and no further
        built = []
        monkeypatch.setattr(cli, "_build_generator_for",
                            lambda cfg, n_x, scheme: built.append(n_x) or n_x)
        monkeypatch.setattr(cli, "_price_at", lambda cfg, n_x, nodes: float(n_x.bit_length() % 2))
        run_table(smoke_config(**{"grid.n_x": "10,20,40", "output.benchmark": "self"}))
        assert built == [10, 20, 40, 80, 160, 320, 640, 1280]

    def test_convergence_needs_benchmark(self):
        with pytest.raises(NoBenchmark):
            run_convergence(smoke_config())

    def test_oracle_rows(self):
        cfg = smoke_config(**{"grid.n_x": "6", "quantity.kind": "Q"})
        rows = run_oracle(cfg, McConfig(n_paths=30_000, seed=11))
        row = rows[0]
        assert abs(row["z"]) < 4.0
        assert row["dense"] is not None
        assert abs(row["analytic"] - row["dense"]) < 1e-9

    def test_oracle_seed_repeat_identical(self):
        cfg = smoke_config(**{"grid.n_x": "6", "quantity.kind": "Q"})
        a = run_oracle(cfg, McConfig(n_paths=5000, seed=3))
        b = run_oracle(cfg, McConfig(n_paths=5000, seed=3))
        assert a == b

    def test_full_precision_output(self):
        cfg = smoke_config(**{"grid.n_x": "10", "output.precision": "full"})
        text = run_price(cfg).to_csv("full")
        cell = text.splitlines()[-1].split(",")[1]
        assert float(cell) == run_price(cfg).rows[0].value
        assert len(cell) > 12   # repr round-trips the double


class TestMain:
    def test_table_exit_zero(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "t.csv")
        code = main(["table",
                     "model.kind=BS", "model.r_f=0.05",
                     "quantity.kind=Q", "quantity.a=0.2", "quantity.t=0.5",
                     "grid.n_x=8,16", "grid.y_min=-1.0", "grid.y_max=0.8",
                     f"output.csv={out}"])
        assert code == 0
        assert os.path.exists(out)
        text = capsys.readouterr().out
        assert "n_x,value" in text

    def test_validation_exit_two(self, capsys):
        code = main(["table", "model.kind=BS", "quantity.kind=Q",
                     "quantity.a=-1", "quantity.t=0.5"])
        assert code == 2

    @pytest.mark.parametrize("bad", ["model.sigma=abc", "model.s0=abc", "quantity.x=abc",
                                     "quantity.a=abc", "output.benchmark=abc"])
    def test_non_numeric_value_exit_two(self, capsys, bad):
        code = main(["price", "model.kind=BS", "quantity.kind=Q", "grid.n_x=8", bad])
        assert code == 2
        assert "could not convert string to float: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("args, code, prefix", [
        (["price", "grid.n_x=0"], 2, "configuration error: "),
        (["price", "grid.n_x=1"], 2, "configuration error: "),   # a diffusion grid
        (["price", "quantity.kind=Hn", "quantity.n=0"], 2, "configuration error: "),
        (["price", "quantity.kind=Jn", "quantity.n=0"], 2, "configuration error: "),
        (["price", "output.precision=abc"], 2, "configuration error: "),
        (["price", "--precision", "-3"], 2, "configuration error: "),
        (["price", "laplace.decay=0"], 2, "configuration error: "),
        (["price", "laplace.decay=-5"], 2, "configuration error: "),
        (["price", "laplace.decay=nan"], 2, "configuration error: "),
        (["price", "--aw-decay", "-5"], 2, "configuration error: "),
        (["price", "grid.levy_truncation=0"], 2, "configuration error: "),
        (["price", "grid.levy_truncation=-2"], 2, "configuration error: "),
        (["price", "grid.levy_truncation=inf"], 2, "configuration error: "),
        (["price", "grid.levy_truncation=4"], 2, "configuration error: "),   # BS has no jumps
        (["oracle", "mc.seed=-1"], 2, "configuration error: "),
        (["oracle", "mc.horizon_cap=nan"], 2, "configuration error: "),
        (["dump-generator", "grid.n_x=1024"], 3, "numerical failure (TooLarge): "),  # 40,961 states
        # a running maximum on or above the absorbing top state (y_max = 4)
        (["price", "quantity.kind=Jn", "quantity.y=5"], 2,
         "configuration error: grid bounds must enclose the running maximum y"),
        (["price", "quantity.kind=Jsum", "quantity.y=4"], 2,
         "configuration error: grid bounds must enclose the running maximum y"),
    ], ids=["n_x=0", "n_x=1", "Hn-n=0", "Jn-n=0", "precision=abc", "precision=-3", "decay=0",
            "decay=-5", "decay=nan", "aw-decay=-5", "levy_truncation=0", "levy_truncation=-2",
            "levy_truncation=inf", "levy_truncation-no-jumps", "seed=-1", "horizon_cap=nan",
            "dump-cap", "Jn-y-above-grid", "Jsum-y-at-grid-top"])
    def test_bad_value_refused(self, capsys, tmp_path, args, code, prefix):
        # refused before any price is computed or any file written
        out = tmp_path / "gen.csv"
        command, *rest = args
        dump = ["--out", str(out)] if command == "dump-generator" else []
        base = ["model.kind=BS", "quantity.kind=Q", "grid.n_x=8"]
        assert main([command, *dump, *base, *rest]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()

    def test_event_sum_payoff_exit_two(self, capsys):
        code = main(["price", "-c", os.path.join(CONFIG_DIR, "insurance_no_recovery_bs.ini"),
                     "grid.n_x=20", "quantity.payoff=zero"])
        assert code == 2
        assert "takes no payoff" in capsys.readouterr().err

    def test_stale_route_key_exit_two(self, capsys):
        # routes follow the generator alone; the removed key must not be
        # accepted and silently ignored
        code = main(["price", "-c", os.path.join(CONFIG_DIR, "insurance_with_recovery_bs.ini"),
                     "grid.n_x=20", "quantity.force_generic=true"])
        assert code == 2
        assert "unknown quantity key" in capsys.readouterr().err

    @pytest.mark.parametrize("config, y", [
        ("insurance_with_recovery_bs.ini", "-0.5"),   # maximum below x
        ("drawdown_before_drawup_bs.ini", "0.1"),     # minimum above x
        ("drawdown_before_drawup_bs.ini", "-4.5"),    # minimum below the grid
    ])
    def test_start_values_exit_two(self, capsys, config, y):
        code = main(["price", "-c", os.path.join(CONFIG_DIR, config),
                     "grid.n_x=20", f"quantity.y={y}"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_convergence_writes_csv_and_stdout(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "c.csv")
        code = main(["convergence", "model.kind=BS", "model.r_f=0.05",
                     "quantity.kind=Q", "quantity.a=0.2", "quantity.t=0.5",
                     "grid.n_x=8,16", "grid.y_min=-1.0", "grid.y_max=0.8",
                     "output.benchmark=0.5", f"output.csv={out}"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("log10_n_x,log10_abs_err\n")
        with open(out) as fh:
            assert fh.read() == text

    def test_numerical_exit_three(self, capsys):
        # drift-dominated coarse step with the abort-on-negative scheme
        code = main(["table",
                     "model.kind=BS", "model.sigma=0.05", "model.r_f=0.5", "model.d=0.0",
                     "quantity.kind=Q", "quantity.a=0.4", "quantity.t=0.5",
                     "grid.n_x=2,4", "grid.y_min=-1.5", "grid.y_max=1.0",
                     "grid.drift_scheme=central"])
        assert code == 3

    def test_dump_generator(self, tmp_path):
        out = os.path.join(tmp_path, "gen.csv")
        code = main(["dump-generator", "--out", out,
                     "model.kind=BS", "model.r_f=0.05",
                     "quantity.kind=Q", "quantity.a=0.2", "quantity.t=0.5",
                     "grid.n_x=4", "grid.y_min=-1.0", "grid.y_max=0.8"])
        assert code == 0
        with open(out) as fh:
            assert fh.readline().strip() == "i,j,rate"

    def test_dump_generator_bounds_its_output(self, capsys, tmp_path):
        # the shipped VG config's 12,927-state lattice has about 167M
        # nonzero rates: refused before the file is opened.  The shipped BS
        # config's dump (19,197 rates) is pinned by its SHA-256
        import hashlib

        out = tmp_path / "gen.csv"
        vg = os.path.join(CONFIG_DIR, "insurance_no_recovery_vg.ini")
        assert main(["dump-generator", "--out", str(out), "-c", vg]) == 3
        assert capsys.readouterr().err.startswith("numerical failure (TooLarge): ")
        assert not out.exists()
        bs = os.path.join(CONFIG_DIR, "occupation_digital_bs.ini")
        assert main(["dump-generator", "--out", str(out), "-c", bs]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "27cdfb2509f4f50219c2454eedb9f9dda06c0efceb5407d2dff20246d779521f")

    def test_aw_flag_aliases(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_price", lambda cfg: seen.append(cfg) or PriceTable([], {}))
        base = ["model.kind=BS", "quantity.kind=Q", "grid.n_x=8"]
        code = main(["price", "--aw-decay", "20", "--aw-terms", "18", "--aw-euler", "12",
                     "--precision", "full", "--timings", *base])
        assert code == 0
        (cfg,) = seen
        assert cfg.laplace == InversionConfig(decay_param=20.0, base_terms=18, euler_terms=12)
        assert cfg.precision == "full" and cfg.timings
        assert cfg == load_config(None, base + [
            "laplace.decay=20", "laplace.base_terms=18", "laplace.euler_terms=12",
            "output.precision=full", "output.timings=true"])

    def test_price_prints_one_row(self, capsys):
        code = main(["price", "-c", os.path.join(CONFIG_DIR, "occupation_digital_bs.ini"),
                     "grid.n_x=8"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("n_x,value,abs_err,rel_err,extrapolated,rel_err_extrapolated")
        (row,) = [line.split(",") for line in lines[header + 1:]]
        assert len(row) == 6 and row[0] == "8"
        assert 0.0 < float(row[1]) < 1.0 and row[4] == row[5] == ""

    def test_oracle_prints_one_row(self, capsys):
        code = main(["oracle", "-c", os.path.join(CONFIG_DIR, "occupation_digital_bs.ini"),
                     "grid.n_x=8", "mc.n_paths=2000"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n_x,analytic,mc,stderr,z,dense"
        (row,) = [line.split(",") for line in lines[1:]]
        assert len(row) == 6 and row[0] == "8"
        analytic, mc, stderr, z, dense = map(float, row[1:])
        assert stderr > 0.0 and abs(z) < 4.0
        # both printed to nine decimals: one unit of the last is rounding
        assert abs(analytic - dense) <= 1.5e-9


class TestNonFiniteNode:
    """A non-finite transform value is a numerical failure (exit 3), never
    a NaN row in the CSV."""

    CONFIG = os.path.join(CONFIG_DIR, "occupation_digital_bs.ini")

    @pytest.fixture
    def nan_at_node_3(self, monkeypatch):
        import drawdown_ctmc.cli as cli

        evaluate = cli.evaluate

        def poisoned(gen, req):
            vals = np.array(evaluate(gen, req), dtype=complex)
            vals[3] = np.nan
            return vals

        monkeypatch.setattr(cli, "evaluate", poisoned)

    def test_run_table_raises(self, nan_at_node_3):
        cfg = load_config(self.CONFIG, ["grid.n_x=8,16"])
        nodes, _ = inversion_nodes_weights(cfg.T, cfg.laplace)
        with pytest.raises(NodeFailure) as err:
            run_table(cfg)
        assert np.array_equal(err.value.node, nodes[3:4])

    def test_main_exit_three(self, capsys, nan_at_node_3):
        code = main(["table", "-c", self.CONFIG, "grid.n_x=8,16"])
        assert code == 3
        out = capsys.readouterr()
        assert "NodeFailure" in out.err
        assert "nan" not in out.out


class TestColdImport:
    """Importing the package loads no scipy module.  The window solves of
    lattice and dense chains load scipy.linalg at their first solve, the
    product-chain oracle scipy.sparse at its first solve, and the VG bin
    masses scipy.special: BS and CEV studies never load scipy."""

    def loaded_after(self, code):
        import subprocess
        import sys

        import drawdown_ctmc

        src = os.path.dirname(os.path.dirname(drawdown_ctmc.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (f"{code}\nimport sys\n"
                 "print('loaded:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        return set(run.stdout.splitlines()[-1].split()[1:])

    IMPORT_ALL = ("import drawdown_ctmc, drawdown_ctmc.cli, drawdown_ctmc.ctmc, drawdown_ctmc.laplace, "
                  "drawdown_ctmc.linsolve, drawdown_ctmc.models, drawdown_ctmc.oracle, "
                  "drawdown_ctmc.quantities\n")

    def test_import_leaves_the_heavy_modules_out(self):
        assert self.loaded_after(self.IMPORT_ALL) == set()

    def test_bs_and_cev_tables_load_no_scipy(self):
        code = self.IMPORT_ALL + "from drawdown_ctmc.cli import load_config, run_table\n"
        for name in ("occupation_digital_bs", "insurance_with_recovery_cev"):
            config = os.path.join(CONFIG_DIR, f"{name}.ini")
            code += f"run_table(load_config({config!r}, ['grid.n_x=8,16']))\n"
        assert self.loaded_after(code) == set()

    def test_dejd_lattice_loads_linalg_only(self):
        config = os.path.join(CONFIG_DIR, "occupation_digital_dejd.ini")
        code = ("from drawdown_ctmc.cli import load_config, run_price\n"
                f"run_price(load_config({config!r}, ['grid.n_x=8']))")
        loaded = self.loaded_after(code)
        assert "scipy.linalg" in loaded
        assert not any(m.startswith(("scipy.sparse", "scipy.special")) for m in loaded)

    def test_product_solve_loads_sparse(self):
        code = ("from drawdown_ctmc import ModelSpec, QuantityRequest, build_generator, build_grid\n"
                "from drawdown_ctmc.oracle import dense_product_solve\n"
                "gen = build_generator(ModelSpec.bs(), build_grid(0.0, 0.2, 4, -0.6, 0.4))\n"
                "dense_product_solve(gen, QuantityRequest('Q', a=0.2, q=1.0, x=0.0))")
        assert "scipy.sparse" in self.loaded_after(code)

    def test_vg_lattice_loads_special(self):
        code = ("from drawdown_ctmc.ctmc import build_levy_generator\n"
                "from drawdown_ctmc.models import ModelSpec\n"
                "build_levy_generator(ModelSpec.vg(), 0.05, -1.0, 1.0)")
        assert "scipy.special" in self.loaded_after(code)
