#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 e2ebench/tools/spread.py --workloads sim-poisson,design --seeds 1-10

Run from the repository root. Each run measures for BENCHMARK.json's
run_seconds. For every workload and end-to-end metric it prints the median
and the quartile spread (Q3 - Q1) / median over the seeds, as
statistics.quantiles(values, n=4) gives the quartiles, next to the metric's
bound. A spread above a third of the bound is flagged and makes the script
exit 1. The unbounded figures of the provenance line (median and tail
latency, throughput) are reported the same way, without a flag. Every run
must report correct: true and no failed ops.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

# Figures of the provenance line that have no bound.
INFO = ["op_p50_ms", "op_tail_ms", "ops_per_s"]


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for seed in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"]
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name in INFO:
                values.setdefault(name, []).append(float(info[name]))
            print(f"{w} seed {seed}: {wall:.1f}s wall, attempted {res['attempted']}", flush=True)
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {w:12s} {name:14s} median {med:14.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "  (no bound)") + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
