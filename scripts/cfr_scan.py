#!/usr/bin/env python3
"""Scan the mixing parameter q and print exact pipeline quantities as CSV.

Columns: q, witness expectation, real-field distance, residual coefficient,
complex-field distance, real certificate, complex certificate.

Each state is the CLI's ``cfr:q=<q>,v=<visibility>`` spec, so the
visibility gets the CLI's checks: one outside [0, 1] exits 2.

Usage: python scripts/cfr_scan.py [--steps N] [--visibility V]
"""

import argparse

import numpy as np

from rebitkit import NumberField, decompose, evaluate_witness
from rebitkit import separability_certificate
from rebitkit.cli import parse_state_spec
from rebitkit.witness import SIGMA_YY


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
    for q, gamma in zip(qs, gammas):
        verdict = evaluate_witness(gamma, SIGMA_YY)
        d_real, dist_real = decompose(gamma, NumberField.REAL)
        d_cplx, dist_cplx = decompose(gamma, NumberField.COMPLEX)
        print(
            f"{q:.3f},{verdict.expectation:.9g},{dist_real:.9g},"
            f"{d_real.residual_coeff:.9g},{dist_cplx:.9g},"
            f"{separability_certificate(d_real)},{separability_certificate(d_cplx)}"
        )


if __name__ == "__main__":
    main()
