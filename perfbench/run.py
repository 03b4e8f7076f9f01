"""Benchmark of drawdown-ctmc: time to extrapolated prices, end to end and
per module.

    python3 perfbench/run.py --workload bd_chains --seed 0 --seconds 35 --trace 0

Runs passes over one workload until ``--seconds`` have elapsed and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, from each study's fastest pass with times rescaled to
the host's full speed (``hostspeed.py``); with ``--trace 1`` passes
alternate untraced and traced, and the metrics are the per-module ones
from the traced passes plus the tracing overhead.  Every price is checked
against the committed goldens (``goldens.json``) and every oracle check
against the acceptance tolerances.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
GOLDENS = HERE / "goldens.json"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pricing studies: (shipped config, refinement ladder).  Ladders are
# coarser than the shipped ones, sized so that one pass takes 3-7 s on
# 2 cores and a 35-s run holds four passes or more.
PRICING = {
    # Birth-death chains: per-top fundamental-solution recursions (A, Hsum,
    # Jsum) and one banded solve per window top per node (B, C).
    "bd_chains": [
        ("drawdown_before_drawup_bs", (8, 16)),
        ("occupation_digital_bs", (10, 20)),
        ("drawdown_occupation_digital_bs", (10, 20)),
        ("insurance_no_recovery_bs", (20, 40)),
        ("insurance_with_recovery_bs", (10, 20)),
        ("insurance_with_recovery_cev", (10, 20)),
    ],
    # Translation-invariant lattices: cached window factorizations, closed
    # forms and Toeplitz columns.  The VG ladders end at the shipped finest
    # rung, so the drift scheme resolves as shipped (upwind) and the chains
    # are the largest (12,927 states).
    "levy_lattice": [
        ("occupation_digital_dejd", (20, 40)),
        ("drawdown_occupation_digital_vg", (320, 640)),
        ("insurance_no_recovery_vg", (320, 640)),
    ],
}

# Oracle checks at one real node q = 1/T: (shipped config, n_x, with MC).
# Event sums (Hsum, Jsum) get the product-chain check only, at the largest
# n_x under its 20,000-state cap: their MC takes 44-53 s for 20k paths,
# and ``oracle._simulate_batch`` has no Hsum branch (Hsum runs the Jsum
# code, z = -154 at n_x=8), a defect left to its own fix.
ORACLE = [
    ("drawdown_before_drawup_bs", 8, True),
    ("occupation_digital_bs", 8, True),
    ("drawdown_occupation_digital_bs", 8, True),
    ("occupation_digital_dejd", 8, True),
    ("drawdown_occupation_digital_vg", 8, True),
    ("insurance_no_recovery_bs", 27, False),
    ("insurance_with_recovery_bs", 6, False),
]
WORKLOADS = (*PRICING, "oracle_checks")
MC_PATHS = 10_000   # per check; 20k would leave a 35-s run three passes

RUNG_TOL = 1e-8      # acceptance criterion 10: fast paths vs generic
PRODUCT_TOL = 1e-9   # acceptance criterion 8: analytic vs product chain
Z_LIMIT = 3.0        # acceptance criterion 9: MC within three stderr

# Known defects: (config, n_x) -> largest gap still recorded as the known
# defect rather than a failure.  ``c_levy_closed_form`` differs from both
# the generic sweep and the product chain by 5.0e-7 at n_x=8 (3e-7 at 16);
# criterion 3c checks only n_x=640.  A fix shows as ``gate.known_defects``
# dropping to 0 and oracle_checks' ``max_ref_err`` falling.
KNOWN_DEFECTS = {("drawdown_occupation_digital_vg", 8): 5e-6}

SETUP_REPEATS = 3
PROBABILITY_KINDS = ("Q", "A", "B", "C", "Hn", "Jn")


def make_workload(name: str, seed: int) -> list:
    """The workload's studies in run order.

    Every seed uses the shipped configurations unchanged, so the pinned
    references and the goldens apply to every seed; the seed fixes the
    order in which the studies run (seed 0: the listed order).
    """
    items = list(PRICING.get(name, ORACLE if name == "oracle_checks" else ()))
    if not items:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if seed != 0:
        random.Random(seed).shuffle(items)
    return items


def overrides(item) -> list:
    ladder = item[1] if isinstance(item[1], tuple) else (item[1],)
    return ["grid.n_x=" + ",".join(str(n) for n in ladder)]


def study_key(item) -> str:
    """Golden key of a study: the ladder is part of it, because the drift
    scheme is resolved from the finest rung of the ladder."""
    return f"{item[0]}@{overrides(item)[0].split('=')[1]}"


def config_path(item) -> str:
    return str(CONFIGS / f"{item[0]}.ini")


class Program:
    """The package modules of the checkout under test."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "drawdown_ctmc" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no program at {src / 'drawdown_ctmc'}")
        if not CONFIGS.is_dir():
            raise SystemExit(f"perfbench: no configs at {CONFIGS}")
        sys.path.insert(0, str(src))
        from drawdown_ctmc import cli, ctmc, laplace, linsolve, models, oracle, quantities
        self.cli, self.ctmc, self.laplace = cli, ctmc, laplace
        self.linsolve, self.models, self.oracle, self.quantities = linsolve, models, oracle, quantities


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts operations (one per rung or oracle check) and failures."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = self.failed = self.known_defects = 0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {what}: {why}", file=sys.stderr)

    def check_value(self, what: str, kind: str, value, golden) -> bool:
        if not math.isfinite(value):
            self.fail(what, f"non-finite value {value!r}")
        elif value < -1e-12 or (kind in PROBABILITY_KINDS and value > 1 + 1e-12):
            self.fail(what, f"value {value!r} out of range for {kind}")
        elif golden is not None and abs(value - golden) > RUNG_TOL:
            self.fail(what, f"{value!r} differs from golden {golden!r} by "
                            f"{abs(value - golden):.2e} (tol {RUNG_TOL:g})")
        else:
            return True
        return False


def _timings(times: dict, ref_err: float, raw_wall: float) -> dict:
    """A pass's result: per-study (wall, finest) seconds and their sums,
    and the pass's measured seconds before rescaling."""
    return {"times": times, "max_ref_err": ref_err, "raw_wall_s": raw_wall,
            "wall_s": sum(w for w, _ in times.values()),
            "finest_price_s": sum(f for _, f in times.values())}


def _span(t0: float, speed) -> tuple:
    """Seconds since ``t0`` and the host's slowdown over them (1 without
    a speed probe)."""
    t1 = time.perf_counter()
    return t1 - t0, speed.factor(t0, t1) if speed is not None else 1.0


def pricing_pass(prog: Program, items, gate: Gate, probe, record=None,
                 speed: SpeedProbe | None = None) -> dict:
    """Extrapolated prices of every study; returns the pass's timings,
    rescaled to full host speed when ``speed`` samples it."""
    cli = prog.cli
    times = {}
    ref_err = raw_wall = 0.0
    for item in items:
        name, ladder = item
        probe.reset()
        t0 = time.perf_counter()
        try:
            cfg = cli.load_config(config_path(item), overrides(item))
            table = cli.run_table(cfg)
        except Exception as exc:   # a raising study fails every rung
            gate.attempted += len(ladder)
            for n_x in ladder:
                gate.fail(f"{name} n_x={n_x}", f"{type(exc).__name__}: {exc}")
            continue
        wall, slowdown = _span(t0, speed)
        raw_wall += wall
        builds = probe.stat("assembly").samples
        finest = builds[-1][0] + table.rows[-1].runtime_sec
        times[study_key(item)] = (wall / slowdown, finest / slowdown)
        golden = gate.goldens.get("rungs", {}).get(study_key(item), {})
        for row in table.rows:
            gate.attempted += 1
            gate.check_value(f"{name} n_x={row.n_x}", cfg.kind, row.value,
                             golden.get(str(row.n_x)))
        extra = table.rows[-1].extrapolated
        ref_err = max(ref_err, abs(extra - cfg.benchmark))
        if record is not None:
            record[study_key(item)] = {
                "kind": cfg.kind, "model": cfg.model.kind,
                "drift_scheme": table.metadata["drift_scheme"],
                "n_x": [row.n_x for row in table.rows],
                "n_states": [n for _, n in builds],
                "prices": [row.value for row in table.rows],
                "extrapolated": extra, "benchmark": cfg.benchmark,
                "ref_err": abs(extra - cfg.benchmark),
            }
    return _timings(times, ref_err, raw_wall)


def _product_check(cli, cfg, n_x: int):
    """Analytic value and product-chain reference at q = 1/T, as
    ``cli.run_oracle`` computes them, without the Monte-Carlo leg."""
    gen = cli._build_generator_for(cfg, n_x, cli._resolve_scheme(cfg))
    req, _ = cli._node_request(cfg, 1.0 / cfg.T)
    req = cli._snap_request(gen, req)
    analytic = cli.evaluate(gen, req).real
    try:
        product = cli.dense_product_solve(gen, req).real
    except cli.TooLarge:
        product = None
    return {"analytic": analytic, "dense": product, "z": None}


def oracle_pass(prog: Program, items, gate: Gate, probe, record=None,
                speed: SpeedProbe | None = None) -> dict:
    """Analytic vs product chain (and MC) at one real node per check."""
    cli = prog.cli
    times = {}
    gap_max = raw_wall = 0.0
    for item in items:
        name, n_x, with_mc = item
        what = f"oracle {name} n_x={n_x}"
        probe.reset()
        gate.attempted += 1
        t0 = time.perf_counter()
        try:
            cfg = cli.load_config(config_path(item), overrides(item))
            if with_mc:
                mc_cfg = prog.oracle.McConfig(n_paths=MC_PATHS, seed=cfg.mc.seed)
                row = cli.run_oracle(cfg, mc_cfg)[0]
            else:
                row = _product_check(cli, cfg, n_x)
        except Exception as exc:
            gate.fail(what, f"{type(exc).__name__}: {exc}")
            continue
        wall, slowdown = _span(t0, speed)
        raw_wall += wall
        builds = probe.stat("assembly").samples
        exact_side = sum(dt for dt, _ in builds) + probe.stat("evaluate").total \
            + probe.stat("product").total
        times[study_key(item)] = (wall / slowdown, exact_side / slowdown)
        golden = gate.goldens.get("oracle", {}).get(study_key(item))
        if not gate.check_value(what, cfg.kind, row["analytic"], golden):
            continue
        if row["dense"] is not None:   # None: TooLarge, the product chain's cap
            gap = abs(row["analytic"] - row["dense"])
            gap_max = max(gap_max, gap)
            ceiling = KNOWN_DEFECTS.get((name, n_x))
            if gap >= PRODUCT_TOL and ceiling is not None and gap <= ceiling:
                gate.known_defects += 1
                if gate.known_defects == 1:
                    print(f"KNOWN DEFECT {what}: |analytic - product| = {gap:.2e}",
                          file=sys.stderr)
            elif gap >= PRODUCT_TOL:
                gate.fail(what, f"|analytic - product| = {gap:.2e} (tol {PRODUCT_TOL:g})")
                continue
        if row["z"] is not None and abs(row["z"]) >= Z_LIMIT:
            gate.fail(what, f"MC z = {row['z']:.2f} (limit {Z_LIMIT:g})")
        if record is not None:
            record[study_key(item)] = {
                "kind": cfg.kind, "model": cfg.model.kind,
                "drift_scheme": cli._resolve_scheme(cfg),
                "n_states": [n for _, n in builds],
                "mc_paths": MC_PATHS if with_mc else 0,
                "mc_seed": cfg.mc.seed if with_mc else None,
                "analytic": row["analytic"], "product": row["dense"], "z": row["z"],
            }
    return _timings(times, gap_max, raw_wall)


def pass_function(workload: str):
    return oracle_pass if workload == "oracle_checks" else pricing_pass


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

PATH_FUNCTIONS = (
    "q_drawdown", "drawdown_before_drawup", "occupation_until_drawdown",
    "drawdown_occupation", "c_levy_closed_form", "insurance_no_recovery",
    "h_levy_closed_form", "insurance_with_recovery", "j_levy_closed_form",
    "backward_window_sweep",
)


def install_probe(tracer, prog: Program) -> None:
    """The spans the end-to-end metrics need: generator assembly per rung,
    and the analytic evaluation and product-chain solve of oracle checks.
    They are a few calls per study, so the untraced passes keep them."""
    tracer.wrap(prog.cli, "_build_generator_for", "assembly", keep=True,
                measure=lambda gen: gen.n)
    tracer.wrap(prog.cli, "evaluate", "evaluate")
    tracer.wrap(prog.cli, "dense_product_solve", "product")


def install_layers(tracer, prog: Program) -> None:
    """Wrap the public functions of every package module at the names
    through which the other modules call them."""
    import scipy.linalg

    cli, ctmc, quantities = prog.cli, prog.ctmc, prog.quantities
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "run_table", "cli.run_table")
    tracer.wrap(cli, "run_oracle", "cli.run_oracle")
    for attr, value in list(vars(ctmc).items()):
        if callable(value) and getattr(value, "__module__", None) == prog.models.__name__ \
                and not isinstance(value, type):
            tracer.wrap(ctmc, attr, "models")
    tracer.wrap(cli, "build_grid", "ctmc.build_grid")
    for attr in ("build_generator", "build_levy_generator"):
        tracer.wrap(cli, attr, "ctmc.assembly", measure=lambda gen: gen.n)
    for cls in (ctmc.Generator, *ctmc.Generator.__subclasses__()):
        if "column" in cls.__dict__:
            tracer.wrap(cls, "column", "ctmc.column")
    tracer.wrap(quantities, "psi_pair", "linsolve.psi_pair")
    tracer.wrap(prog.linsolve.PsiPair, "bridge_many", "linsolve.bridge_many")
    tracer.wrap(prog.linsolve.PsiPair, "ratio_many", "linsolve.ratio_many", timed=False)
    tracer.wrap(cli, "evaluate", "quantities.evaluate", keep=True)
    for fn in PATH_FUNCTIONS:
        tracer.wrap(quantities, fn, f"quantities.path.{fn}", timed=False)
    tracer.wrap(scipy.linalg, "solve_banded", "quantities.solve_banded")
    tracer.wrap(scipy.linalg, "lu_factor", "quantities.lu_factor")
    tracer.wrap(cli, "invert_values", "laplace.fold")
    tracer.wrap(cli, "dense_product_solve", "oracle.product_solve")
    tracer.wrap(cli, "mc_estimate", "oracle.mc")


def node_tail(durations) -> float:
    """Highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond
    it; the median when there are too few samples for any."""
    xs = sorted(durations)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(xs) * (1 - pct / 100) >= 10:
            return xs[min(len(xs) - 1, math.ceil(pct / 100 * len(xs)) - 1)]
    return statistics.median(xs) if xs else 0.0


def layer_metrics(t, wall: float, oracle_workload: bool) -> dict:
    """Per-module metrics of one traced pass."""
    s = t.stat
    ev = s("quantities.evaluate")
    nodes = [dt for dt, _ in ev.samples or ()]
    fold = s("laplace.fold")
    mc = s("oracle.mc")
    out = {
        "cli.load_config_s": s("cli.load_config").total,
        "cli.driver_self_s": s("cli.run_table").self_time + s("cli.run_oracle").self_time,
        "models.calls": s("models").calls,
        "models.s": s("models").total,
        "ctmc.assembly_calls": s("ctmc.assembly").calls,
        "ctmc.assembly_s": s("ctmc.assembly").total + s("ctmc.build_grid").total,
        "ctmc.states": s("ctmc.assembly").amount,
        "ctmc.column_calls": s("ctmc.column").calls,
        "ctmc.column_s": s("ctmc.column").total,
        "linsolve.psi_pair_calls": s("linsolve.psi_pair").calls,
        "linsolve.psi_pair_s": s("linsolve.psi_pair").total,
        "linsolve.bridge_many_calls": s("linsolve.bridge_many").calls,
        "linsolve.bridge_many_s": s("linsolve.bridge_many").total,
        "linsolve.ratio_many_calls": s("linsolve.ratio_many").calls,
        "quantities.evaluate_calls": ev.calls,
        "quantities.evaluate_s": ev.total,
        "quantities.evaluate_share": ev.total / wall if wall > 0 else 0.0,
        "quantities.node_s.p50": statistics.median(nodes) if nodes else 0.0,
        "quantities.node_s.tail": node_tail(nodes),
        "quantities.banded_solves": s("quantities.solve_banded").calls,
        "quantities.banded_solve_s": s("quantities.solve_banded").total,
        "quantities.lu_factors": s("quantities.lu_factor").calls,
        "quantities.lu_factor_s": s("quantities.lu_factor").total,
    }
    for fn in PATH_FUNCTIONS:
        out[f"quantities.path.{fn}.calls"] = s(f"quantities.path.{fn}").calls
    out.update({
        "laplace.fold_calls": fold.calls,
        "laplace.fold_s": fold.total,
        "laplace.nodes_per_price": ev.calls / fold.calls if fold.calls else 0.0,
        "oracle.analytic_s": ev.total if oracle_workload else 0.0,
        "oracle.product_solve_calls": s("oracle.product_solve").calls,
        "oracle.product_solve_s": s("oracle.product_solve").total,
        "oracle.product_too_large": s("oracle.product_solve").raised["TooLarge"],
        "oracle.mc_s": mc.total,
        "oracle.mc_paths_per_s": mc.calls * MC_PATHS / mc.total if mc.total > 0 else 0.0,
    })
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, one at a time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def metric_units() -> dict:
    """Metric name -> unit, from the benchmark definition."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, prog: Program,
        goldens: dict) -> dict:
    """Passes until ``seconds`` have elapsed; returns the result object."""
    items = make_workload(workload, seed)
    one_pass = pass_function(workload)
    gate = Gate(goldens)
    setup_s = None if trace else measure_setup(workload, seed)
    untraced, traced = [], []
    probe = Tracer()
    install_probe(probe, prog)
    speed = SpeedProbe()
    speed.start()
    try:
        start = last = time.perf_counter()
        while True:
            tracing = trace and len(untraced) > len(traced)
            if tracing:
                layers = Tracer()
                install_layers(layers, prog)
                try:
                    timings = one_pass(prog, items, gate, probe, speed=speed)
                finally:
                    layers.restore()
                traced.append(layer_metrics(layers, timings["raw_wall_s"],
                                            workload == "oracle_checks"))
                traced[-1]["times"] = timings["times"]
            else:
                timings = one_pass(prog, items, gate, probe, speed=speed)
                untraced.append(timings)
            print(f"pass {len(untraced) + len(traced)}{' traced' if tracing else ''}: "
                  f"wall_s {timings['wall_s']:.3f}", file=sys.stderr)
            now = time.perf_counter()
            # Stop before a pass that would end past ``seconds``.
            if now + (now - last) - start > seconds and (traced or not trace):
                break
            last = now
    finally:
        speed.stop()
        probe.restore()

    def median_of(rows, key):
        values = [row[key] for row in rows]
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)

    def study_times(passes, which):
        """Sum over studies of each study's fastest rescaled time over the
        passes.  Rescaling takes out most of the host's slowdowns; the
        fastest pass drops what the probes missed."""
        keys = {key for p in passes for key in p["times"]}
        return sum(min(p["times"][key][which] for p in passes if key in p["times"])
                   for key in keys)

    if trace:
        metrics = {key: median_of(traced, key) for key in traced[0] if key != "times"}
        metrics["trace.overhead"] = (study_times(traced, 0)
                                     / study_times(untraced, 0) - 1.0)
        metrics["gate.failed_frac"] = gate.failed / gate.attempted
        metrics["gate.known_defects"] = gate.known_defects / (len(untraced) + len(traced))
    else:
        metrics = {
            "wall_s": study_times(untraced, 0),
            "finest_price_s": study_times(untraced, 1),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_ref_err": max(row["max_ref_err"] for row in untraced),
        }
    return {"gate": gate, "passes": len(untraced) + len(traced), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:           # before numpy is first imported
        os.environ[var] = "1"
    prog = Program()
    goldens = load_goldens()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), prog, goldens)
    gate, metrics = result["gate"], result["metrics"]

    unit_of = metric_units()
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"attempted={gate.attempted} failed={gate.failed} "
          f"known_defects={gate.known_defects}")
    if not args.trace:
        print(f"failed_frac = {gate.failed / gate.attempted!r} ratio")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {unit_of[key]}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": value, "unit": unit_of[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
