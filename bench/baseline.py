"""Repeat bench/run.py over several seeds and record medians and quartiles.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--runs 10] [--seconds 20] [--first-seed 0]
                              [--workload NAME ...] [--out DIR]

For each workload, runs `bench/run.py --trace 0` once per seed, then one
`--trace 1` run, and writes DIR/<workload>.json: every end-to-end metric's
median, quartiles and spread (quartile distance over median) across the runs,
the per-layer metrics, and the environment.  The trace file is copied to
DIR/trace_<workload>.json.  Without --out nothing is written but the table.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench


def invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    return result


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    for workload in args.workload or list(bench.WORKLOADS):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = invoke(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        table = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "n": len(vals),
                           "values": vals,
                           "unit": bench.END_TO_END[name]}
            print(f"{workload:>9} {name:>13} median {med:.4f} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {(q3 - q1) / med:.3f}",
                  flush=True)
        if not args.out:
            continue
        layers = invoke(workload, args.first_seed, args.seconds, 1)
        args.out.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(bench.OUT / workload / "trace.json",
                        args.out / f"trace_{workload}.json")
        record = {"workload": workload,
                  "why": bench.WORKLOADS[workload]["why"],
                  "seconds": args.seconds,
                  "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                  "environment": bench.environment(),
                  "end_to_end": table,
                  "per_layer": layers["metrics"],
                  "trace_file": f"trace_{workload}.json"}
        (args.out / f"{workload}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
