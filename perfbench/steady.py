#!/usr/bin/env python3
"""Steadiness check for the benchmark: many seeds, workloads interleaved.

    python3 perfbench/steady.py --seeds 1-10 --out set1.jsonl
    python3 perfbench/steady.py --report set1.jsonl [--against set0.jsonl]

Runs ``perfbench/run.py`` once per (seed, workload), cycling through the
workloads for each seed so that an episode of host interference lands on
every workload instead of on one. Each result line is appended to ``--out``
with its workload, seed and host. The report gives, per workload and
end-to-end metric, the median and the quartile spread
``(Q3 - Q1) / median`` computed with ``statistics.quantiles(values, n=4)``,
against the metric's bound in ``BENCHMARK.json``. Every metric is judged
alike, ``setup_s`` included: a spread beyond the bound is flagged as such,
and one above a third of the bound as unsteady. ``--against`` also prints
how far each median moved from an earlier set, in the worse direction, as
a share of that median. The last line counts the breaches. Run it from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_sets(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
            # Per-pass wall times from the benchmark's stderr show host
            # episodes within a run.
            passes = [float(l.split(":")[1].split()[0]) for l in proc.stderr.splitlines()
                      if l.startswith("pass ")]
            result = json.loads(lines[-1])
            record = {"workload": w, "seed": seed, "trace": args.trace, "host": host,
                      "pass_s": passes, **result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            status = "ok" if result["correct"] else f"FAILED {result['failed']}"
            print(f"{w:<18} seed {seed:<4} {status}", flush=True)


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def medians(records, spec):
    """{(workload, metric): (median, spread, n)} over trace-0 records."""
    out = {}
    for w in sorted({r["workload"] for r in records}):
        rows = [r for r in records if r["workload"] == w and r["trace"] == 0]
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rows if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            out[(w, m["name"])] = (med, (q3 - q1) / med if med else float("inf"), len(vals))
    return out


def report(args, spec):
    records = load(args.report)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    now = medians(records, spec)
    before = medians(load(args.against), spec) if args.against else {}
    failed = [r for r in records if not r["correct"]]
    print(f"{len(records)} runs, {len(failed)} incorrect")
    print(f"{'workload':<18} {'metric':<22} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}  worse_by")
    breaches = {"spread beyond bound": 0, "spread above bound/3": 0, "median shift beyond bound": 0}
    for (w, name), (med, spread, n) in now.items():
        m = bounds[name]
        flag = ""
        if spread > m["bound"]:
            flag = "  <-- spread beyond bound"
            breaches["spread beyond bound"] += 1
        elif spread > m["bound"] / 3:
            flag = "  <-- spread > bound/3"
            breaches["spread above bound/3"] += 1
        shift = ""
        if (w, name) in before:
            old = before[(w, name)][0]
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            shift = f"{worse:+.3f}"
            if worse > m["bound"]:
                shift += "  <-- beyond bound"
                breaches["median shift beyond bound"] += 1
        print(f"{w:<18} {name:<22} {n:>3} {med:>14.6g} {spread:>8.4f} {m['bound']:>6}  {shift}{flag}")
    print("breaches: " + ", ".join(f"{k} {v}" for k, v in breaches.items()))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", help="seed list, e.g. 1-10 or 1,5,9")
    p.add_argument("--workloads", help="comma-separated subset (default: all)")
    p.add_argument("--seconds", type=int, help="override run_seconds")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", help="JSONL file the runs are appended to")
    p.add_argument("--report", help="JSONL file to summarize")
    p.add_argument("--against", help="earlier JSONL set to compare medians with")
    args = p.parse_args()
    spec = load_spec()
    if args.seeds:
        if not args.out:
            p.error("--seeds needs --out")
        run_sets(args, spec)
        args.report = args.report or args.out
    if args.report:
        report(args, spec)
    elif not args.seeds:
        p.error("give --seeds or --report")


if __name__ == "__main__":
    main()
