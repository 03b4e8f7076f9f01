"""Writes the benchmark's committed records.

    python3 perfbench/record.py goldens        # perfbench/goldens.json
    python3 perfbench/record.py full-ladders   # perfbench/baseline/full_ladders.json
    python3 perfbench/record.py provenance     # perfbench/baseline/provenance.json

``goldens`` prices every workload once at seed 0 and stores each rung's
price and each oracle check's analytic value: the values the gate in
run.py compares against (tolerance 1e-8).  Record them only from a commit
whose prices are trusted.

``full-ladders`` runs the nine shipped studies once on their shipped
ladders through the same pricing pass as the workloads, untraced, and
stores per-study wall time, finest-rung time, reference error, states per
rung and drift scheme with the machine's provenance.

``provenance`` runs one untraced pass of each workload at seed 0 and
stores the machine, versions, BLAS setting, states per rung, drift scheme
per study and MC path counts.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
from tracer import Tracer


def _write(path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _seed_zero_records(prog: run.Program, goldens: dict) -> dict:
    """One untraced pass of every workload at seed 0: workload -> record."""
    out = {}
    probe = Tracer()
    run.install_probe(probe, prog)
    try:
        for workload in run.WORKLOADS:
            record = {}
            gate = run.Gate(goldens)
            run.pass_function(workload)(prog, run.make_workload(workload, 0), gate, probe, record)
            if gate.failed:
                raise SystemExit(f"{workload}: {gate.failed} failed operations")
            out[workload] = record
    finally:
        probe.restore()
    return out


def goldens(prog: run.Program) -> None:
    out = {"rungs": {}, "oracle": {}}
    for record in _seed_zero_records(prog, {}).values():
        for key, rec in record.items():
            if "prices" in rec:
                out["rungs"][key] = {str(n): v for n, v in zip(rec["n_x"], rec["prices"])}
            else:
                out["oracle"][key] = rec["analytic"]
    _write(run.GOLDENS, out)


def _provenance(workload: str, record: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in run.BLAS_ENV},
        "studies": record,
    }


def provenance(prog: run.Program) -> None:
    records = _seed_zero_records(prog, run.load_goldens())
    _write(run.HERE / "baseline" / "provenance.json",
           {workload: _provenance(workload, record) for workload, record in records.items()})


def full_ladders(prog: run.Program) -> None:
    names = sorted(p.stem for p in run.CONFIGS.glob("*.ini"))
    probe = Tracer()
    run.install_probe(probe, prog)
    studies = {}
    total = 0.0
    try:
        for name in names:
            ladder = prog.cli.load_config(str(run.CONFIGS / f"{name}.ini")).n_x
            item = (name, tuple(ladder))
            record = {}
            gate = run.Gate({})
            t0 = time.perf_counter()
            timings = run.pricing_pass(prog, [item], gate, probe, record)
            total += time.perf_counter() - t0
            del timings["times"]
            studies[name] = {**record[run.study_key(item)], **timings, "failed": gate.failed}
            print(f"{name}: {timings['wall_s']:.2f} s, finest {timings['finest_price_s']:.2f} s",
                  flush=True)
    finally:
        probe.restore()
    prov = _provenance("full_ladders", studies)
    prov["total_wall_s"] = total
    _write(run.HERE / "baseline" / "full_ladders.json", prov)


def main() -> int:
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    commands = {"goldens": goldens, "full-ladders": full_ladders, "provenance": provenance}
    if what not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    for var in run.BLAS_ENV:
        os.environ[var] = "1"
    prog = run.Program()
    commands[what](prog)
    return 0


if __name__ == "__main__":
    sys.exit(main())
