#!/usr/bin/env python3
"""Pauli-propagation truncation error vs number of kept strings, read from
the mse CSVs that ``pauliscope truncate-mse`` writes."""

import argparse
from collections import defaultdict

import numpy as np

from pauliscope.csvio import MSE_HEADER, read_csv_rows
from pauliscope.fits import weighted_line_fit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", nargs="+", required=True, help="mse_gamma*.csv file(s)")
    args = ap.parse_args()

    curves = defaultdict(list)  # (N, gamma) -> [(N_P, mse, stderr)]
    for path in args.input:
        for row in read_csv_rows(path, MSE_HEADER):
            curves[int(row["N"]), float(row["gamma"])].append(
                (int(row["N_P"]), float(row["mse"]), float(row["stderr"])))
    for (n, gamma), points in sorted(curves.items()):
        n_p, mse, stderr = np.array([p for p in points if p[1] > 0]).T
        slope, slope_stderr, _ = weighted_line_fit(np.log(n_p), np.log(mse), stderr / mse)
        print(f"N={n} gammaN={gamma * n:g}: log-log MSE slope "
              f"{slope:.3f} +- {slope_stderr:.3f}")


if __name__ == "__main__":
    main()
