#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and
spread (interquartile range over median, as statistics.quantiles gives
the quartiles).

    python3 e2ebench/spread.py --workload unicast_64b --seeds 1-10 [--seconds N]

--seconds defaults to BENCHMARK.json's run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(arg):
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seeds)
    with open("BENCHMARK.json") as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", default=run_seconds, type=int)
    a = ap.parse_args()
    values = {}
    for s in a.seeds:
        out = subprocess.run(
            ["bash", "e2ebench/run.sh", "--workload", a.workload, "--seed", str(s),
             "--seconds", str(a.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}{out.stdout}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              file=sys.stderr)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:32s} median {med:14.6g}  spread {spread:7.4f}  "
              f"min {min(v):.6g} max {max(v):.6g}")


if __name__ == "__main__":
    main()
