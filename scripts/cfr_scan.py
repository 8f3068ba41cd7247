#!/usr/bin/env python3
"""Scan the mixing parameter q and print pipeline quantities as CSV.

Columns: q, witness expectation, real-field distance, residual coefficient,
complex-field distance, real certificate, complex certificate.

Each state is the CLI's ``cfr:q=<q>,v=<visibility>`` spec, so the
visibility gets the CLI's checks: one outside [0, 1] exits 2.  Each row
reads the report document the CLI's ``exact`` writes for that spec.

With ``--events N`` point k is simulated instead: its row reads the report
``analyze --target <spec> --mc-samples M --seed S+2k+1`` writes for the
counts of ``simulate --state <spec> --events N --seed S+2k``, with five
more columns: witness_sigma, similarity (to the spec's state),
similarity_sigma, real_distance_sigma and residual_sigma.  A point the
analysis rejects exits 2 with its diagnostic and its q.

Usage: python scripts/cfr_scan.py [--steps N] [--visibility V]
       [--events N [--mc-samples M] [--seed S]]
"""

import argparse
import os
import sys

import numpy as np

from rebitkit import NumberField
from rebitkit.cli import parse_state_spec, run_analysis
from rebitkit.tomography import DEFAULT_MC_SAMPLES, check_events, check_mc_samples, simulate_counts

HEADER = "q,witness,real_distance,residual,complex_distance,real_sep,complex_sep"
SIGMA_HEADER = ",witness_sigma,similarity,similarity_sigma,real_distance_sigma,residual_sigma"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--visibility", type=float, default=1.0)
    parser.add_argument("--events", type=int, default=None, help="events per setting to simulate")
    parser.add_argument("--mc-samples", type=int, default=None,
                        help=f"Monte-Carlo samples per point (default {DEFAULT_MC_SAMPLES})")
    parser.add_argument("--seed", type=int, default=None, help="seed S of point 0 (default 0)")
    args = parser.parse_args(argv)

    if args.steps < 0:
        parser.exit(2, f"error: --steps must be a non-negative integer, got {args.steps}\n")
    try:
        qs = np.linspace(0.0, 1.0, args.steps)
    except (ValueError, IndexError, MemoryError):  # numpy's ways to refuse a grid too large
        parser.exit(2, f"error: --steps {args.steps} needs more memory than is available\n")
    specs = [f"cfr:q={float(q)!r},v={args.visibility!r}" for q in qs]
    try:
        gammas = [parse_state_spec(spec) for spec in specs]
    except ValueError as exc:
        parser.error(str(exc))

    events, seed = args.events, args.seed or 0
    mc_samples = DEFAULT_MC_SAMPLES if args.mc_samples is None else args.mc_samples
    if events is None and (args.mc_samples, args.seed) != (None, None):
        parser.exit(2, "error: --mc-samples and --seed need --events\n")
    try:
        # the checks and diagnostics of simulate --events and analyze --mc-samples
        if events is not None:
            check_events(events, "--events")
        check_mc_samples(mc_samples, "--mc-samples")
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    if seed < 0:
        parser.exit(2, f"error: --seed must be a non-negative integer, got {seed}\n")

    print(HEADER if events is None else HEADER + SIGMA_HEADER)
    fields = [NumberField.REAL, NumberField.COMPLEX]
    for k, (q, spec, gamma) in enumerate(zip(qs, specs, gammas)):
        try:
            if events is None:
                doc = run_analysis(gamma, fields, "", 0, 0, {})
            else:
                doc = run_analysis(simulate_counts(gamma, events, seed=seed + 2 * k), fields, spec,
                                   mc_samples, seed + 2 * k + 1, {})
        except (ValueError, RuntimeError) as exc:
            parser.exit(2, f"error: at q={float(q)!r}: {exc}\n")
        w = doc["witness"]
        real, cplx = doc["decompositions"]["real"], doc["decompositions"]["complex"]
        row = (
            f"{q:.3f},{w['expectation']:.9g},{real['distance']:.9g},"
            f"{real['residual_coeff']:.9g},{cplx['distance']:.9g},"
            f"{real['certificate']},{cplx['certificate']}"
        )
        if events is not None:
            sim = doc["similarity_to_target"]
            row += "".join(f",{x:.9g}" for x in (
                w["sigma"], sim["value"], sim["sigma"],
                real["distance_sigma"], real["residual_sigma"],
            ))
        print(row)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # the last rows may still sit in the buffer
    except BrokenPipeError:
        # the reader has gone, as head does after its lines: with stdout on the null
        # device the flush at exit cannot fail again, and the scan ends without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
