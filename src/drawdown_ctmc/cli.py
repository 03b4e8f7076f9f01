"""Batch front-end: sectioned key=value run configurations, table/price/
convergence/oracle jobs, CSV artifacts.

A run configuration is an INI file with sections [model], [quantity],
[grid], [laplace], [output] and optionally [mc]; every key can be
overridden on the command line as --section.key=value, and an unknown
section or key is a configuration error.  Subcommands:

    price            one resolution, one CSV row
    table            refinement study with first-order extrapolation
    convergence      (log10 N_x, log10 abs err) pairs plus fitted slope
    oracle           analytic vs Monte-Carlo cross-check rows
    dump-generator   nonzero transition rates as (i, j, rate)

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Prices come from the Laplace-domain quantities via the maturity-T
inversion of value(q)/q, with the model rate r_f entering as the constant
discount part of the killing (occupation quantities) or as a shift of the
Laplace argument (event-sum insurance quantities).
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import ctmc
from .ctmc import (
    BadBounds,
    NegativeRate,
    build_generator,
    build_grid,
    build_levy_generator,
    choose_drift_scheme,
    default_levy_truncation,
)
from .laplace import InversionConfig, NodeFailure, inversion_nodes_weights, invert_values, richardson
from .linsolve import DegenerateWindow, Singular
from .models import ModelSpec
from .oracle import HorizonCapHit, McConfig, dense_product_solve, mc_estimate
from .quantities import (
    FixedPointSingular,
    NotLevy,
    QuantityRequest,
    TooLarge,
    UnsupportedRegime,
    canonical_kind,
    evaluate,
)

__all__ = [
    "RunConfig",
    "PriceTable",
    "ConfigError",
    "NoBenchmark",
    "run_price",
    "run_table",
    "run_convergence",
    "run_oracle",
    "main",
]

NUMERICAL_ERRORS = (Singular, NegativeRate, FixedPointSingular, TooLarge,
                    NodeFailure, HorizonCapHit, DegenerateWindow, NotLevy,
                    UnsupportedRegime, BadBounds, np.linalg.LinAlgError)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NoBenchmark(ValueError):
    """Convergence study needs a benchmark (supplied or self-computed)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Validated run configuration (one quantity, one model, a grid study).
    Its defaults, and those of InversionConfig and McConfig, are the only
    ones: the loader passes just the keys a configuration sets."""

    model: ModelSpec
    kind: str = "Q"
    a: float = 0.2
    T: float = 0.5
    b: float | None = None
    xi: float | None = None
    n: int = 1
    x: float = 0.0
    y: float | None = None
    payoff: str = "one"               # "one" or "zero"
    n_x: tuple = (20, 40, 80, 160)
    y_min: float = -4.0
    y_max: float = 4.0
    levy_truncation: float | None = None
    drift_scheme: str = "auto"
    laplace: InversionConfig = field(default_factory=InversionConfig)
    csv_path: str | None = None
    benchmark: float | str | None = None   # number, "self", or None
    precision: str = "6"               # significant digits or "full"
    timings: bool = False
    mc: McConfig = field(default_factory=McConfig)

    def __post_init__(self):
        self.kind = canonical_kind(self.kind)
        if self.a <= 0.0:
            raise ConfigError("drawdown level a must be positive")
        if self.T <= 0.0:
            raise ConfigError("maturity T must be positive")
        if self.kind == "A":
            if self.b is None:
                raise ConfigError("quantity A needs the drawup level b")
            if self.b < self.a:
                raise ConfigError("quantity A needs b >= a")
        if self.kind == "A" and self.y is not None:
            if self.y > self.x:
                raise ConfigError("quantity A needs the running minimum y <= x")
            if self.y < self.y_min:
                raise ConfigError("grid bounds must enclose the running minimum y")
        if self.kind in ("Jn", "Jsum") and self.y is not None and self.y < self.x:
            raise ConfigError(f"quantity {self.kind} needs the running maximum y >= x")
        if self.kind in ("Jn", "Jsum") and self.y is not None and self.y >= self.y_max:
            raise ConfigError("grid bounds must enclose the running maximum y")
        if self.kind in ("B", "C") and self.xi is None:
            raise ConfigError(f"quantity {self.kind} needs the occupation threshold xi")
        if self.kind in ("Hn", "Jn") and self.n < 1:
            raise ConfigError(f"quantity {self.kind} needs the event count n >= 1")
        if self.precision != "full" and not self.precision.isdecimal():
            raise ConfigError("precision must be 'full' or a non-negative number of digits")
        if self.payoff not in ("one", "zero"):
            raise ConfigError("payoff must be 'one' or 'zero'")
        if self.payoff == "zero" and self.kind in ("Hsum", "Jsum"):
            raise ConfigError(f"quantity {self.kind} sums event discounts and takes no payoff")
        if len(self.n_x) == 0:
            raise ConfigError("need at least one grid resolution")
        if min(self.n_x) < 1:
            raise ConfigError("each n_x must be positive")
        if min(self.n_x) < 2 and not (self.model.is_levy and self.model.has_jumps):
            raise ConfigError("a diffusion grid needs n_x >= 2")
        if any(b <= a for a, b in zip(self.n_x, self.n_x[1:])):
            raise ConfigError("n_x list must be strictly increasing")
        if any(b % a != 0 for a, b in zip(self.n_x, self.n_x[1:])):
            raise ConfigError("each n_x must be a multiple of the previous one")
        if not self.y_min < self.x - self.a or not self.y_max > self.x:
            raise ConfigError("grid bounds must enclose (x - a, x]")
        if self.levy_truncation is not None and not 0.0 < self.levy_truncation < np.inf:
            raise ConfigError("levy_truncation must be positive and finite")
        if self.levy_truncation is not None and not (self.model.is_levy and self.model.has_jumps):
            raise ConfigError("levy_truncation needs a Levy lattice (a model with jumps)")
        if self.drift_scheme not in ctmc.DRIFT_SCHEMES:
            raise ConfigError(f"drift_scheme must be one of {ctmc.DRIFT_SCHEMES}")


def _integer(value: str) -> int:
    """Integer keys take float syntax too ("1e5", "18.0"); a fraction truncates."""
    return int(float(value))


def _n_x_list(value: str) -> tuple:
    try:
        return tuple(int(tok) for tok in value.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"bad n_x list {value!r}") from exc


# section -> key -> (field, parser).  [laplace] fills InversionConfig, [mc]
# McConfig and the other sections RunConfig; [model] is _parse_model's.
_FIELDS = {
    "quantity": {"kind": ("kind", str), "a": ("a", float), "t": ("T", float),
                 "b": ("b", float), "xi": ("xi", float), "n": ("n", _integer),
                 "x": ("x", float), "y": ("y", float), "payoff": ("payoff", str)},
    "grid": {"n_x": ("n_x", _n_x_list), "y_min": ("y_min", float), "y_max": ("y_max", float),
             "levy_truncation": ("levy_truncation", float),
             "drift_scheme": ("drift_scheme", str)},
    "laplace": {"decay": ("decay_param", float), "base_terms": ("base_terms", _integer),
                "euler_terms": ("euler_terms", _integer)},
    "output": {"csv": ("csv_path", str),
               "benchmark": ("benchmark", lambda v: v if v == "self" else float(v)),
               "precision": ("precision", str),
               "timings": ("timings", lambda v: v.lower() == "true")},
    "mc": {"n_paths": ("n_paths", _integer), "seed": ("seed", _integer),
           "horizon_cap": ("horizon_cap", float)},
}

_KEYS = {"model": {f.name for f in fields(ModelSpec)} | {"lambda", "s0"},
         **{section: set(keys) for section, keys in _FIELDS.items()}}


def _parse_model(sec) -> ModelSpec:
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("[model] needs a kind (BS, CEV, DEJD, VG)")
    kwargs = {}
    for key, value in sec.items():
        if key == "kind" or key == "s0":
            continue
        name = "lam" if key == "lambda" else key
        kwargs[name] = float(value)
    try:
        return ModelSpec(kind=kind.upper(), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None, overrides=()) -> RunConfig:
    """Build a RunConfig from an INI file plus --section.key=value overrides."""
    parser = configparser.ConfigParser()
    parser.optionxform = str.lower
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key {key!r} is not section.key")
        section, name = key.lstrip("-").split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, name, value)

    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser[section]) - _KEYS[section])
        if unknown:
            raise ConfigError(f"unknown {section} key(s): {', '.join(unknown)}")
    if not parser.has_section("model"):
        raise ConfigError("missing [model] section")
    if not parser.has_section("quantity"):
        raise ConfigError("missing [quantity] section")
    run, parts = {}, {"laplace": {}, "mc": {}}
    try:
        model = _parse_model(parser["model"])
        for section in parser.sections():
            if section == "model":
                continue
            target = parts.get(section, run)
            for key, value in parser[section].items():
                name, parse = _FIELDS[section][key]
                target[name] = parse(value)
        if "x" not in run and "s0" in parser["model"]:
            run["x"] = float(np.log(float(parser["model"]["s0"])))
        laplace = InversionConfig(**parts["laplace"])
        mc = McConfig(**parts["mc"])
        return RunConfig(model=model, laplace=laplace, mc=mc, **run)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# table artifacts
# ---------------------------------------------------------------------------

@dataclass
class PriceRow:
    n_x: int
    value: float
    abs_err: float | None
    rel_err: float | None
    extrapolated: float | None
    rel_err_extrapolated: float | None
    runtime_sec: float


@dataclass
class PriceTable:
    rows: list
    metadata: dict

    def _fmt(self, value, precision: str) -> str:
        if value is None:
            return ""
        if precision == "full":
            return repr(float(value))
        return f"{float(value):.{int(precision)}g}"

    def to_csv(self, precision: str = "6", timings: bool = False) -> str:
        lines = [f"# {key}={value}" for key, value in sorted(self.metadata.items())]
        header = "n_x,value,abs_err,rel_err,extrapolated,rel_err_extrapolated"
        if timings:
            header += ",runtime_sec"
        lines.append(header)
        for r in self.rows:
            cells = [str(r.n_x)] + [
                self._fmt(v, precision)
                for v in (r.value, r.abs_err, r.rel_err, r.extrapolated, r.rel_err_extrapolated)
            ]
            if timings:
                cells.append(f"{r.runtime_sec:.3f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation pipeline
# ---------------------------------------------------------------------------

def _build_generator_for(cfg: RunConfig, n_x: int, drift_scheme: str):
    model = cfg.model
    h = cfg.a / n_x
    if model.is_levy and model.has_jumps:
        half = cfg.levy_truncation or default_levy_truncation(cfg.a)
        lo = min(cfg.y_min, -half)
        hi = max(cfg.y_max, half)
        return build_levy_generator(model, h, lo, hi, x0=cfg.x, drift_scheme=drift_scheme)
    grid = build_grid(cfg.x, cfg.a, n_x, cfg.y_min, cfg.y_max)
    return build_generator(model, grid, drift_scheme=drift_scheme)


_SELF_BENCHMARK_CAP = 2048   # the finest n_x the self-benchmark builds


def _resolve_scheme(cfg: RunConfig) -> str:
    if cfg.drift_scheme != "auto":
        return cfg.drift_scheme
    finest = max(cfg.n_x)
    if cfg.benchmark == "self":
        finest = max(finest, _SELF_BENCHMARK_CAP)   # the self-benchmark may refine this far
    h = cfg.a / finest
    if cfg.model.is_levy:
        sample = np.array([cfg.x])
    else:
        sample = np.linspace(cfg.y_min, cfg.y_max, 33)[1:-1]
    return choose_drift_scheme(cfg.model, h, sample)


def _node_request(cfg: RunConfig, q) -> tuple[QuantityRequest, complex]:
    """QuantityRequest for one inversion node or a vector of them, and the
    Laplace argument actually passed (after the event-sum shift)."""
    r_f = cfg.model.r_f
    kind = cfg.kind
    f = None
    f2 = None
    if cfg.payoff == "zero":
        f = lambda states: np.zeros(len(states))
        f2 = lambda xv, yv: np.zeros(np.broadcast(np.asarray(xv), np.asarray(yv)).shape)
    if kind in ("Hsum", "Jsum"):
        q_arg = q + r_f
        req = QuantityRequest(kind, a=cfg.a, q=q_arg, x=cfg.x, y=cfg.y)
        return req, q_arg
    shift = r_f if kind in ("B", "C") else 0.0
    req = QuantityRequest(kind, a=cfg.a, q=q, b=cfg.b, xi=cfg.xi, n=cfg.n,
                          x=cfg.x, y=cfg.y, shift=shift, f=f, f2=f2)
    return req, q


def _snap_request(gen, req: QuantityRequest, *, exact_a: bool = True) -> QuantityRequest:
    """Snap start values onto the grid where the quantity requires it
    (quantity A interpolates in y internally and keeps the exact value,
    unless ``exact_a`` is false)."""
    grid = gen.grid
    changes = {}
    if req.x is not None:
        changes["x"] = float(grid.states[grid.nearest_index(req.x)])
    if req.y is not None and not (exact_a and req.kind == "A"):
        changes["y"] = float(grid.states[grid.nearest_index(req.y)])
    return replace(req, **changes)


def _price_at(cfg: RunConfig, gen, nodes) -> float:
    req, _ = _node_request(cfg, nodes)
    req = _snap_request(gen, req)
    try:
        vals = evaluate(gen, req) / nodes
    except NUMERICAL_ERRORS:
        raise
    except Exception as exc:
        raise NodeFailure(nodes, exc) from exc
    bad = ~np.isfinite(vals)
    if np.any(bad):   # a NaN would otherwise fold into a NaN price
        raise NodeFailure(nodes[bad], FloatingPointError("non-finite transform value"))
    return invert_values(vals, cfg.T, cfg.laplace)


def run_price(cfg: RunConfig) -> PriceTable:
    """Evaluate the configured quantity at a single resolution."""
    if len(cfg.n_x) != 1:
        raise ConfigError("price expects exactly one n_x")
    return run_table(cfg, allow_single=True)


def _self_benchmark(cfg: RunConfig, scheme: str, nodes, last_value: float,
                    last_n: int) -> float:
    """Continue doubling until the extrapolated value is stable to 4
    decimals, no rung above ``_SELF_BENCHMARK_CAP``."""
    prev_value = last_value
    prev_extra = None
    n_x = last_n
    while 2 * n_x <= _SELF_BENCHMARK_CAP:
        n_x *= 2
        gen = _build_generator_for(cfg, n_x, scheme)
        value = _price_at(cfg, gen, nodes)
        extra = richardson(prev_value, value)
        if prev_extra is not None and abs(extra - prev_extra) < 5e-5:
            return extra
        prev_extra = extra
        prev_value = value
    return prev_extra if prev_extra is not None else prev_value


def run_table(cfg: RunConfig, *, allow_single: bool = False) -> PriceTable:
    """Refinement study over cfg.n_x with the extrapolated column."""
    if not allow_single and len(cfg.n_x) < 2:
        raise ConfigError("table expects at least two n_x entries")
    scheme = _resolve_scheme(cfg)
    nodes, _ = inversion_nodes_weights(cfg.T, cfg.laplace)
    rows = []
    prev = None
    for n_x in cfg.n_x:
        gen = _build_generator_for(cfg, n_x, scheme)
        t0 = time.perf_counter()
        value = _price_at(cfg, gen, nodes)
        runtime = time.perf_counter() - t0
        extra = None
        if prev is not None and n_x == 2 * prev[0]:
            extra = richardson(prev[1], value)
        rows.append((n_x, value, extra, runtime))
        prev = (n_x, value)

    benchmark = cfg.benchmark
    if benchmark == "self":
        benchmark = _self_benchmark(cfg, scheme, nodes, rows[-1][1], rows[-1][0])

    out = []
    for n_x, value, extra, runtime in rows:
        abs_err = rel_err = rex = None
        if isinstance(benchmark, float):
            abs_err = abs(value - benchmark)
            rel_err = abs_err / abs(benchmark) if benchmark != 0 else None
            if extra is not None:
                rex = abs(extra - benchmark) / abs(benchmark) if benchmark != 0 else None
        out.append(PriceRow(n_x, value, abs_err, rel_err, extra, rex, runtime))
    meta = {
        "model": cfg.model.kind,
        "quantity": cfg.kind,
        "a": cfg.a,
        "T": cfg.T,
        "x": cfg.x,
        "drift_scheme": scheme,
        "y_start_convention": "exact for quantity A (interpolated); nearest grid state otherwise",
        "runtime_scope": "quantity evaluation + inversion, excluding grid/generator assembly",
    }
    if cfg.b is not None:
        meta["b"] = cfg.b
    if cfg.xi is not None:
        meta["xi"] = cfg.xi
    if cfg.y is not None:
        meta["y"] = cfg.y
    if isinstance(benchmark, float):
        meta["benchmark"] = benchmark
    return PriceTable(rows=out, metadata=meta)


def run_convergence(cfg: RunConfig) -> tuple[PriceTable, list, float | None]:
    """Error-vs-resolution data: returns (table, pairs, slope) where pairs
    are (log10 n_x, log10 abs err) and slope the least-squares fit."""
    if cfg.benchmark is None:
        raise NoBenchmark("convergence needs output.benchmark (a number or 'self')")
    table = run_table(cfg, allow_single=True)
    pairs = []
    for row in table.rows:
        if row.abs_err is None:
            raise NoBenchmark("benchmark resolution failed")
        if row.abs_err <= 1e-14:
            continue
        pairs.append((np.log10(row.n_x), np.log10(row.abs_err)))
    if len(pairs) >= 2:
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = None   # errors at machine zero: report as converged
    return table, pairs, slope


def run_oracle(cfg: RunConfig, mc_cfg: McConfig | None = None) -> list:
    """Analytic-vs-Monte-Carlo rows (analytic, mc, stderr, z) at each
    configured resolution, plus the dense product reference when small
    enough.  Uses a real Laplace argument q = 1/T."""
    mc_cfg = mc_cfg or cfg.mc
    scheme = _resolve_scheme(cfg)
    q = 1.0 / cfg.T
    out = []
    for n_x in cfg.n_x:
        gen = _build_generator_for(cfg, n_x, scheme)
        req, _ = _node_request(cfg, q)
        # simulation tracks lattice states, so A's minimum is snapped too
        req = _snap_request(gen, req, exact_a=False)
        analytic = evaluate(gen, req).real
        est, stderr = mc_estimate(gen, req, mc_cfg)
        z = (est - analytic) / stderr if stderr > 0 else 0.0
        dense = None
        try:
            dense = dense_product_solve(gen, req).real
        except TooLarge:
            pass
        out.append({"n_x": n_x, "analytic": analytic, "mc": est,
                    "stderr": stderr, "z": z, "dense": dense})
    return out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", "-c", help="INI run configuration")
    sub.add_argument("overrides", nargs="*", help="section.key=value overrides")
    sub.add_argument("--aw-decay", type=float, help="inversion decay parameter")
    sub.add_argument("--aw-terms", type=int, help="inversion base terms")
    sub.add_argument("--aw-euler", type=int, help="inversion Euler terms")
    sub.add_argument("--precision", help="CSV precision (digits or 'full')")
    sub.add_argument("--timings", action="store_true", help="add runtime column to CSV")


def _config_from_args(args) -> RunConfig:
    overrides = list(args.overrides)
    if args.aw_decay is not None:
        overrides.append(f"laplace.decay={args.aw_decay}")
    if args.aw_terms is not None:
        overrides.append(f"laplace.base_terms={args.aw_terms}")
    if args.aw_euler is not None:
        overrides.append(f"laplace.euler_terms={args.aw_euler}")
    if args.precision is not None:
        overrides.append(f"output.precision={args.precision}")
    if args.timings:
        overrides.append("output.timings=true")
    return load_config(args.config, overrides)


def _emit(cfg: RunConfig, text: str) -> None:
    """Write a command's output to output.csv, if set, and to stdout."""
    if cfg.csv_path:
        with open(cfg.csv_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ddctmc",
                                     description="drawdown functionals by chain approximation")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("price", "table", "convergence", "oracle"):
        _add_common(subs.add_parser(name))
    dump = subs.add_parser("dump-generator")
    _add_common(dump)
    dump.add_argument("--out", required=True, help="CSV output path")
    args = parser.parse_args(argv)

    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "price":
            _emit(cfg, run_price(cfg).to_csv(cfg.precision, cfg.timings))
        elif args.command == "table":
            _emit(cfg, run_table(cfg).to_csv(cfg.precision, cfg.timings))
        elif args.command == "convergence":
            table, pairs, slope = run_convergence(cfg)
            lines = ["log10_n_x,log10_abs_err"]
            lines += [f"{a:.6f},{b:.6f}" for a, b in pairs]
            lines.append(f"# slope={'converged' if slope is None else f'{slope:.4f}'}")
            _emit(cfg, "\n".join(lines) + "\n")
        elif args.command == "oracle":
            rows = run_oracle(cfg)
            lines = ["n_x,analytic,mc,stderr,z,dense"]
            for r in rows:
                dense = "" if r["dense"] is None else f"{r['dense']:.9f}"
                lines.append(f"{r['n_x']},{r['analytic']:.9f},{r['mc']:.9f},"
                             f"{r['stderr']:.3e},{r['z']:.3f},{dense}")
            _emit(cfg, "\n".join(lines) + "\n")
        elif args.command == "dump-generator":
            gen = _build_generator_for(cfg, max(cfg.n_x), _resolve_scheme(cfg))
            gen.dump_csv(args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
