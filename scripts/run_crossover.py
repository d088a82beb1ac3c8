#!/usr/bin/env python3
"""Noiseless crossover of the second Pauli moment, read from a moments CSV.

Reads the k=2 ``mu`` rows that ``pauliscope rtn`` (or ``moments``) writes,
locates per N where the deviation from the fully scrambled value first drops
below an absolute threshold, and fits the crossing depth against N; the slope
should match tau*log(2)/2.
"""

import argparse
import math
from collections import defaultdict

from pauliscope.csvio import MOMENTS_HEADER, read_csv_rows
from pauliscope.fits import weighted_line_fit
from pauliscope.rmpu import TAU, t_star
from pauliscope.spectrum import haar_moment


def crossing_depth(curve: dict[int, float], threshold: float) -> float:
    depths = sorted(curve)
    for a, b in zip(depths, depths[1:]):
        da, db = abs(curve[a] - haar_moment(2)), abs(curve[b] - haar_moment(2))
        if da >= threshold > db:
            return a + math.log(da / threshold) / math.log(da / db)
    raise ValueError("threshold not crossed in the computed window")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", nargs="+", required=True, help="moments CSV(s)")
    ap.add_argument("--threshold", type=float, default=0.4)
    args = ap.parse_args()

    curves = defaultdict(dict)  # N -> {t: mu_2}
    for path in args.input:
        for row in read_csv_rows(path, MOMENTS_HEADER):
            if row["quantity"] == "mu" and row["k"] == "2":
                curve, t = curves[int(row["N"])], int(row["t"])
                if t in curve:
                    raise ValueError(f"two k=2 mu rows at N={row['N']}, t={t}")
                curve[t] = float(row["value"])
    crossings = {}
    for n_sites in sorted(curves):
        crossings[n_sites] = crossing_depth(curves[n_sites], args.threshold)
        print(
            f"N={n_sites}: crossing at t={crossings[n_sites]:.2f} "
            f"(t/t* = {crossings[n_sites] / t_star(n_sites, 2):.3f})"
        )
    slope, _, _ = weighted_line_fit(list(crossings), list(crossings.values()))
    print(f"crossing-depth slope vs N: {slope:.3f} (prediction {TAU * math.log(2) / 2:.3f})")


if __name__ == "__main__":
    main()
