#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json. Run from the
repository root:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads phone-audit --seeds 1-5 --seconds 10
    python3 perfbench/steadiness.py --seeds 1-10 --json perfbench/STEADINESS.json

Each run's unscaled times and calibration-kernel medians (printed
beside the contract line) are recorded too, so the record shows how far
the host's speed moved and what the scaling took out. With
--trace-seeds, one traced run per listed seed also records
bench.trace_overhead_frac for each workload.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

# Report lines the runs print beside the contract line.
EXTRA = re.compile(r"^\s+((?:unscaled\.|bench\.host_)\S+)\s+(\S+)")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)}: incorrect run:\n{proc.stdout}")
    result["extras"] = {m.group(1): float(m.group(2)) for m in map(EXTRA.match, lines) if m}
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10", help="seeds for end-to-end runs (empty: none)")
    ap.add_argument("--trace-seeds", default="", help="seeds for traced runs")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--json", default="", help="write the record here")
    opts = ap.parse_args()

    bench = json.load(open(opts.benchmark))
    seconds = opts.seconds or bench["run_seconds"]
    workloads = [w for w in opts.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(opts.seeds)
    record = {
        "note": "Run-to-run spread of every end-to-end metric: (q3 - q1) / median over the seeds"
                " (statistics.quantiles, n=4), next to the metric's bound in BENCHMARK.json;"
                " unscaled.* and bench.host_* are the times before host-speed scaling and the calibration"
                " kernels' medians; bench.trace_overhead_frac from traced runs.",
        "seeds": seeds, "seconds": seconds, "workloads": {}}
    for w in workloads:
        runs = [run_once(bench["command"], w, s, seconds, 0) for s in seeds]
        rows = {}
        print(f"{w}: {len(runs)} runs, seeds {opts.seeds}, {seconds} s each")
        for m in bench["end_to_end"] if len(runs) > 1 else []:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, spr = spread(values)
            rows[m["name"]] = {"median": med, "spread": spr, "bound": m["bound"], "values": values}
            flag = "" if spr < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {m['name']:<20} median {med:<12.6g} {m['unit']:<7} spread {spr:7.2%}  bound {m['bound']:.0%}{flag}")
        extras = sorted({k for r in runs for k in r["extras"]}) if len(runs) > 1 else []
        for k in extras:
            values = [r["extras"][k] for r in runs if k in r["extras"]]
            med, spr = spread(values)
            rows[k] = {"median": med, "spread": spr, "values": values}
            print(f"  {k:<28} median {med:<12.6g} spread {spr:7.2%}")
        overhead = []
        for s in parse_seeds(opts.trace_seeds):
            r = run_once(bench["command"], w, s, seconds, 1)
            overhead.append(r["metrics"]["bench.trace_overhead_frac"]["value"])
        if overhead:
            rows["bench.trace_overhead_frac"] = {"median": statistics.median(overhead), "values": overhead}
            print(f"  {'bench.trace_overhead_frac':<20} median {statistics.median(overhead):.4f} over {len(overhead)} traced runs")
        record["workloads"][w] = rows
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
