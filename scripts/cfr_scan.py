#!/usr/bin/env python3
"""Scan the mixing parameter q and print exact pipeline quantities as CSV.

Columns: q, witness expectation, real-field distance, residual coefficient,
complex-field distance, real certificate, complex certificate.

Each state is the CLI's ``cfr:q=<q>,v=<visibility>`` spec, so the
visibility gets the CLI's checks: one outside [0, 1] exits 2.  Each row
reads the report document the CLI's ``exact`` writes for that spec.

Usage: python scripts/cfr_scan.py [--steps N] [--visibility V]
"""

import argparse

import numpy as np

from rebitkit import EstimatedState, NumberField
from rebitkit.cli import parse_state_spec, run_analysis


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--visibility", type=float, default=1.0)
    args = parser.parse_args(argv)

    try:
        qs = np.linspace(0.0, 1.0, args.steps)
        gammas = [parse_state_spec(f"cfr:q={float(q)!r},v={args.visibility!r}") for q in qs]
    except ValueError as exc:
        parser.error(str(exc))

    print("q,witness,real_distance,residual,complex_distance,real_sep,complex_sep")
    fields = [NumberField.REAL, NumberField.COMPLEX]
    for q, gamma in zip(qs, gammas):
        doc = run_analysis(EstimatedState(gamma, np.zeros((4, 4))), fields, None, 0, 0, {})
        real, cplx = doc["decompositions"]["real"], doc["decompositions"]["complex"]
        print(
            f"{q:.3f},{doc['witness']['expectation']:.9g},{real['distance']:.9g},"
            f"{real['residual_coeff']:.9g},{cplx['distance']:.9g},"
            f"{real['certificate']},{cplx['certificate']}"
        )


if __name__ == "__main__":
    main()
