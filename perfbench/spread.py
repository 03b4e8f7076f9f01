"""Runs one workload over several seeds and reports each end-to-end
metric's median, quartiles and spread (interquartile range as a share of
the median) against a third of its bound in BENCHMARK.json.

    python3 perfbench/spread.py <workload> <seeds> [--out FILE]

``<seeds>`` is a count n (seeds 1..n) or a comma list.  Runs are made one
at a time with ``run_seconds`` from BENCHMARK.json; ``--out`` stores every
run's result with the summary.  Exits 1 if a run is incorrect or a spread
other than setup_s reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seeds")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = ([int(s) for s in args.seeds.split(",")] if "," in args.seeds
             else list(range(1, int(args.seeds) + 1)))

    runs = []
    for seed in seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    ok = all(run["correct"] for run in runs)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        steady = name == "setup_s" or share < metric["bound"] / 3
        ok &= steady
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                         "bound": metric["bound"], "steady": steady}
        print(f"{name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.4f}  bound/3 {metric['bound'] / 3:.4f}"
              f"{'' if steady else '  NOT STEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "run_seconds": spec["run_seconds"],
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
