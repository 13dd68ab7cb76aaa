#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
driver takes it: N untraced runs per workload, each with another seed; per
metric the distance between the first and third quartile of the N values
(statistics.quantiles, n=4) as a share of their median, against the bound
in BENCHMARK.json.

    python3 crates/rodain-e2e/spread.py [--runs 10] [--first-seed 1] [--workload W]...

Exit code 1 if a spread (other than setup_s) exceeds its bound or a run
failed.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                bad = True
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                      f" of {result['attempted']}", file=sys.stderr)
                bad = bad or not result["correct"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            over = spread > m["bound"] and m["name"] != "setup_s"
            bad = bad or over
            print(f"{workload} {m['name']} median {median:.6g} {m['unit']} spread {spread:.4f}"
                  f" bound {m['bound']} {'OVER' if over else 'ok'}", flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
