#!/usr/bin/env python3
"""Run the benchmark and write its end-to-end medians to BENCH_<name>.json.

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in a fresh interpreter, with the runner as it is.  Runs go round by round
(repeats outermost, then seeds, then workloads), so a slow spell of the
host spreads over all workloads.  The file holds, per workload, the median
and the values of each end-to-end metric over its runs, the runs' digests
per seed, whether every run was correct, how many ops were attempted and
failed, the machine and version info and the git commit of the checkout.

Workloads and the run length default to those ``BENCHMARK.json`` declares.

Usage: python scripts/bench.py --name NAME [--workloads W ...] [--seeds S ...]
       [--repeats N] [--seconds T] [--out PATH]
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"


def git(*args):
    """Output of a git command in the checkout, or None where git cannot say."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(workload, seed, seconds):
    """One benchmark run: its env line as a dict, its digest and its result record."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    # "env nproc=2 python=3.11.7 numpy=2.4.6 blas=<name> <version> ...": values may hold spaces
    env_line = next(line for line in lines if line.startswith("env "))
    env = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", env_line[4:]))
    digest = next(item.split("=", 1)[1] for line in lines if line.startswith("workload=")
                  for item in line.split() if item.startswith("digest="))
    return env, digest, json.loads(lines[-1])


def summarize(runs):
    """Per-workload medians of the end-to-end metrics over (seed, digest, record) runs."""
    names = runs[0][2]["metrics"]
    digests = {}  # one per seed, unless the outputs changed between repeats
    for seed, digest, _ in runs:
        digests.setdefault(str(seed), set()).add(digest)
    return {
        "runs": len(runs),
        "correct": all(record["correct"] for _, _, record in runs),
        "attempted": sum(record["attempted"] for _, _, record in runs),
        "failed": sum(record["failed"] for _, _, record in runs),
        "digests": {seed: sorted(found) for seed, found in digests.items()},
        "metrics": {
            name: {
                "median": statistics.median(r["metrics"][name]["value"] for _, _, r in runs),
                "unit": names[name]["unit"],
                "values": [r["metrics"][name]["value"] for _, _, r in runs],
            }
            for name in names
        },
    }


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="the file is BENCH_<name>.json")
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--out", type=Path, help="default: BENCH_<name>.json in the checkout")
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.seconds > 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")

    runs = {w: [] for w in args.workloads}
    env = {}
    for _ in range(args.repeats):
        for seed in args.seeds:
            for workload in args.workloads:
                try:
                    env, digest, record = run_once(workload, seed, args.seconds)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                runs[workload].append((seed, digest, record))
                ops = record["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed={seed} ops_per_s={ops:.6g} digest={digest[:12]}")

    doc = {
        "name": args.name,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "python": env.get("python"),
            "numpy": env.get("numpy"),
            "blas": env.get("blas"),
        },
        "settings": {"seconds": args.seconds, "seeds": args.seeds, "repeats": args.repeats},
        "workloads": {w: summarize(r) for w, r in runs.items()},
    }
    out = args.out or ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
