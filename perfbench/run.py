#!/usr/bin/env python3
"""Benchmark command: builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload paper_adaa --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds ``perfbench/`` (a cargo package
of its own that depends on the repository's crates by path) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then runs the workload in a
fresh child process, so ``peak_rss_mib`` is that child's own high-water
mark. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name the host
and print every metric with its unit. See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_adaa", "replay_backlog", "checkpoint_drift")

# End-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("completed_frac", "ratio"),
    ("variation_runs_ratio", "ratio"),
    ("makespan_ratio", "ratio"),
    ("mean_bsld", "ratio"),
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def host_fingerprint():
    """CPU model and CPU counts, recorded with every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        log("the repository's crates are missing; run from a full checkout")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(target, "release", "rush-perfbench")


def run_child(binary, args, scratch):
    """Runs one workload in a fresh process; returns its JSON report or
    None if it failed."""
    cmd = [
        binary,
        args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    binary = build()
    if binary is None:
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        report = run_child(binary, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    if report is None:
        return 2

    if args.trace == 0:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in report["layers"].items()}

    failures = list(report["failures"])
    for name, m in metrics.items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            failures.append(f"metric {name} is not a finite number")
    for f in failures:
        log(f"check failed: {f}")
    attempted = report["attempted"] + len(metrics)
    failed = len(failures)

    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} passes "
        f"{report['passes'][0]} untraced + {report['passes'][1]} traced"
    )
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']!r:>24} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
