#!/usr/bin/env python3
"""Pauli-propagation truncation error vs number of kept strings."""

import argparse
from pathlib import Path

import numpy as np

from pauliscope.circuits import CircuitSpec
from pauliscope.csvio import write_mse_csv
from pauliscope.driver import simulate_mse
from pauliscope.fits import weighted_line_fit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[7, 9])
    ap.add_argument("--gamma-n", type=float, nargs="+", default=[0.1, 1.0])
    ap.add_argument("--realizations", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=31415)
    ap.add_argument("--out", default="results/truncation")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for n in args.sizes:
        for gn in args.gamma_n:
            spec = CircuitSpec(
                geometry="chain", n_sites=n, depth=2 * n, gamma=gn / n,
                master_seed=args.seed,
            )
            rows = simulate_mse(spec, None, args.realizations)
            write_mse_csv(out / f"mse_N{n}_gn{gn:g}.csv", rows)
            pos = [row for row in rows if row["mse"] > 0]
            fit = weighted_line_fit(
                np.log([row["N_P"] for row in pos]),
                np.log([row["mse"] for row in pos]),
                [row["stderr"] / row["mse"] for row in pos],
            )
            print(f"N={n} gammaN={gn}: log-log MSE slope {fit.slope:.3f} +- {fit.slope_stderr:.3f}")


if __name__ == "__main__":
    main()
