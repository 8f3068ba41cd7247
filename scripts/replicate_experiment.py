#!/usr/bin/env python3
"""Synthetic end-to-end run for both circular-mixture states.

Simulates coincidence counts for the two mixtures of circularly polarized
photon pairs (same-handed and opposite-handed), runs the full estimation,
witnessing, and decomposition pipeline with Monte-Carlo error bars, and
prints a compact results table.

A visibility outside [0, 1] makes a mixture weight negative, which the
CLI's spec parser rejects: the script then exits 2.

Usage: python scripts/replicate_experiment.py [--events N] [--mc-samples N]
       [--visibility V] [--seed S] [--workdir DIR]
"""

import argparse
import os
import tempfile

from rebitkit import cli


def run_one(tag, mix_spec, target, args, workdir):
    counts = os.path.join(workdir, f"counts_{tag}.txt")
    report = os.path.join(workdir, f"report_{tag}.json")
    for argv in (
        ["simulate", "--state", mix_spec, "--events", str(args.events),
         "--seed", str(args.seed), "--out", counts],
        ["analyze", "--counts", counts, "--target", target,
         "--mc-samples", str(args.mc_samples), "--seed", str(args.seed + 1),
         "--out", report],
    ):
        rc = cli.main(argv)
        if rc:
            raise SystemExit(rc)  # the CLI has printed the diagnostic
    return cli.read_report(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--mc-samples", type=int, default=10_000)
    parser.add_argument("--visibility", type=float, default=0.96)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workdir", default=None, help="directory for output files")
    args = parser.parse_args(argv)

    v = args.visibility
    w = v / 2.0
    scenarios = [
        ("q=1", f"mix:RR={w},LL={w},mixed={1 - v}", "cfr:q=1"),
        ("q=0", f"mix:RL={w},LR={w},mixed={1 - v}", "cfr:q=0"),
    ]
    for _, mix_spec, _ in scenarios:
        try:
            cli.parse_state_spec(mix_spec)
        except ValueError as exc:
            parser.error(str(exc))

    workdir = args.workdir or tempfile.mkdtemp(prefix="rebitkit_")
    os.makedirs(workdir, exist_ok=True)
    print(f"events/setting: {args.events}, MC samples: {args.mc_samples}, "
          f"visibility: {v}, outputs in {workdir}\n")

    rows = []
    for tag, mix_spec, target in scenarios:
        doc = run_one(tag, mix_spec, target, args, workdir)
        w_ = doc["witness"]
        sim = doc["similarity_to_target"]
        real = doc["decompositions"]["real"]
        cplx = doc["decompositions"]["complex"]
        rows.append(
            (tag,
             f"{w_['expectation']:+.4f} +- {w_['sigma']:.4f}",
             f"{100 * sim['value']:.3f} +- {100 * sim['sigma']:.3f}",
             f"{real['distance']:.6f} +- {real['distance_sigma']:.6f}",
             f"{cplx['distance']:.6f} +- {cplx['distance_sigma']:.6f}")
        )

    header = ("state", "<yy> witness", "similarity [%]", "real distance", "complex distance")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print("\nideal targets: witness +-%.2f, real distance %.2f, complex distance 0"
          % (v, v / 2))


if __name__ == "__main__":
    main()
