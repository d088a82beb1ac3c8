#!/usr/bin/env python3
"""Pauli spectrum of a noisy 2D brickwork circuit vs the OPT density."""

import argparse
from pathlib import Path

import numpy as np

from pauliscope.circuits import CircuitSpec
from pauliscope.csvio import write_histogram_csv
from pauliscope.driver import simulate_histogram
from pauliscope.fits import weighted_line_fit
from pauliscope.spectrum import opt_bin_mass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lx", type=int, default=3)
    ap.add_argument("--ly", type=int, default=3)
    ap.add_argument("--depth", type=int, default=18)
    ap.add_argument("--gamma-n", type=float, nargs="+", default=[0.28, 1.05])
    ap.add_argument("--realizations", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=90210)
    ap.add_argument("--out", default="results/spectrum2d")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_sites = args.lx * args.ly
    for gn in args.gamma_n:
        spec = CircuitSpec(
            geometry="grid", lx=args.lx, ly=args.ly, depth=args.depth,
            gamma=gn / n_sites, master_seed=args.seed,
        )
        rows = simulate_histogram(spec, [args.depth], args.realizations)
        write_histogram_csv(out / f"histogram_gn{gn:g}.csv", rows)
        lo, hi, density, stderr = (
            np.array([row[col] for row in rows])
            for col in ("bin_lo", "bin_hi", "density", "density_stderr")
        )
        centers = np.sqrt(lo * hi)
        opt = np.array([opt_bin_mass(a, b) for a, b in zip(lo, hi)]) / (hi - lo)
        sel = (centers >= 3) & (centers <= 100) & (density > 0)
        fit = weighted_line_fit(
            np.log(centers[sel]), np.log(density[sel]), stderr[sel] / density[sel]
        )
        mid = (centers >= 0.1) & (centers <= 10)
        pulls = np.abs(density[mid] - opt[mid]) / np.maximum(stderr[mid], 1e-30)
        print(
            f"gammaN={gn}: tail slope {fit.slope:.2f} +- {fit.slope_stderr:.2f}, "
            f"max OPT pull in [0.1,10]: {np.max(pulls):.1f} sigma"
        )


if __name__ == "__main__":
    main()
