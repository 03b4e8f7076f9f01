"""Self-tests of the benchmark harness (about 5 s).

    python3 -m pytest -q perfbench
"""

import json
import math
import signal
import statistics
import time

import pytest

import hostspeed
import run
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prog():
    return run.Program()


def _attr(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_same_seed_same_workload():
    for workload in run.WORKLOADS:
        assert run.make_workload(workload, 7) == run.make_workload(workload, 7)
        assert sorted(run.make_workload(workload, 7)) == sorted(run.make_workload(workload, 0))
    assert run.make_workload("bd_chains", 0) == run.PRICING["bd_chains"]
    assert run.make_workload("oracle_checks", 0) == run.ORACLE
    with pytest.raises(ValueError):
        run.make_workload("nope", 0)


def test_seed_zero_is_the_shipped_configs(prog):
    for workload in run.WORKLOADS:
        for item in run.make_workload(workload, 0):
            shipped = prog.cli.load_config(run.config_path(item))
            used = prog.cli.load_config(run.config_path(item), run.overrides(item))
            used.n_x = shipped.n_x
            assert used == shipped


def test_corrupted_golden_is_a_failure(prog):
    item = ("insurance_no_recovery_bs", (20, 40))
    goldens = run.load_goldens()
    probe = Tracer()
    run.install_probe(probe, prog)
    try:
        gate = run.Gate(goldens)
        run.pricing_pass(prog, [item], gate, probe)
        assert (gate.attempted, gate.failed) == (2, 0)
        bad = json.loads(json.dumps(goldens))
        bad["rungs"][run.study_key(item)]["40"] += 2 * run.RUNG_TOL
        gate = run.Gate(bad)
        run.pricing_pass(prog, [item], gate, probe)
        assert (gate.attempted, gate.failed) == (2, 1)
    finally:
        probe.restore()


def test_out_of_range_and_nan_are_failures():
    gate = run.Gate({})
    assert not gate.check_value("x", "B", 1.5, None)
    assert not gate.check_value("x", "Hsum", math.nan, None)
    assert gate.check_value("x", "Hsum", 1.5, None)
    assert gate.failed == 2


def test_traced_pass_matches_untraced_and_restores(prog):
    pricing = [("insurance_no_recovery_bs", (10, 20)),
               ("drawdown_occupation_digital_vg", (80, 160))]
    oracle = [("insurance_with_recovery_bs", 6, False)]
    probe = Tracer()
    run.install_probe(probe, prog)
    probe_originals = list(probe.saved)
    try:
        plain_p, plain_o = {}, {}
        run.pricing_pass(prog, pricing, run.Gate({}), probe, plain_p)
        run.oracle_pass(prog, oracle, run.Gate({}), probe, plain_o)

        layers = Tracer()
        run.install_layers(layers, prog)
        originals = list(layers.saved)
        try:
            traced_p, traced_o = {}, {}
            timings = run.pricing_pass(prog, pricing, run.Gate({}), probe, traced_p)
            metrics = run.layer_metrics(layers, timings["raw_wall_s"], False)
            run.oracle_pass(prog, oracle, run.Gate({}), probe, traced_o)
        finally:
            layers.restore()
        assert all(_attr(owner, attr) is raw for owner, attr, raw in originals)
    finally:
        probe.restore()
    assert all(_attr(owner, attr) is raw for owner, attr, raw in probe_originals)
    assert not hasattr(prog.cli.evaluate, "__wrapped__")

    assert traced_p == plain_p and traced_o == plain_o
    assert metrics["ctmc.assembly_calls"] == 4 and metrics["linsolve.psi_pair_calls"] > 0
    assert metrics["laplace.nodes_per_price"] == 27
    assert metrics["quantities.path.c_levy_closed_form.calls"] == 2 * 27
    assert layers.stat("oracle.product_solve").calls == 1


def test_metric_names_match_the_benchmark_definition():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == {"wall_s", "finest_price_s", "setup_s", "peak_rss_mb", "max_ref_err"}
    layer = set(run.layer_metrics(Tracer(), 1.0, False))
    layer |= {"trace.overhead", "gate.failed_frac", "gate.known_defects"}
    assert layer == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_speed_probe_samples_and_restores_the_signal_handler():
    speed = hostspeed.SpeedProbe()
    assert speed.factor(0.0, time.perf_counter()) == 1.0
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    speed.start()
    try:
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    finally:
        speed.stop()
    t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.durations) >= 10
    factor = speed.factor(t0, t1)
    assert 0.2 < factor < 20
    assert speed.rescale(2.0, t0, t1) == 2.0 / factor
    # a span without probes borrows the latest ones before its end
    latest = statistics.median(speed.durations[-hostspeed.MIN_PROBES:])
    assert speed.factor(t1, t1) == latest / hostspeed.PROBE_FAST_S
