#!/usr/bin/env python3
"""Pauli spectrum of a noisy 2D brickwork circuit vs the OPT density, read
from the histogram CSV that ``pauliscope spectrum-hist`` writes."""

import argparse
from collections import defaultdict

import numpy as np

from pauliscope.csvio import HISTOGRAM_HEADER, read_csv_rows
from pauliscope.fits import weighted_line_fit
from pauliscope.spectrum import opt_bin_mass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", nargs="+", required=True, help="histogram CSV(s)")
    args = ap.parse_args()

    spectra = defaultdict(list)  # (N, t, gamma) -> [(bin_lo, bin_hi, density, stderr)]
    for path in args.input:
        for row in read_csv_rows(path, HISTOGRAM_HEADER):
            spectra[int(row["N"]), int(row["t"]), float(row["gamma"])].append(
                [float(row[c]) for c in ("bin_lo", "bin_hi", "density", "density_stderr")])
    for (n, t, gamma), bins in sorted(spectra.items()):
        lo, hi, density, stderr = np.array(bins).T
        centers = np.sqrt(lo * hi)
        opt = np.array([opt_bin_mass(a, b) for a, b in zip(lo, hi)]) / (hi - lo)
        sel = (centers >= 3) & (centers <= 100) & (density > 0)
        fit = weighted_line_fit(
            np.log(centers[sel]), np.log(density[sel]), stderr[sel] / density[sel]
        )
        mid = (centers >= 0.1) & (centers <= 10)
        pulls = np.abs(density[mid] - opt[mid]) / np.maximum(stderr[mid], 1e-30)
        print(
            f"N={n} t={t} gammaN={gamma * n:g}: tail slope {fit.slope:.2f} +- "
            f"{fit.slope_stderr:.2f}, max OPT pull in [0.1,10]: {np.max(pulls):.1f} sigma"
        )


if __name__ == "__main__":
    main()
