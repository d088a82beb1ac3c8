#!/usr/bin/env python3
"""Noiseless crossover of the second Pauli moment (replica-TN engine).

Computes mu2(t) curves for several chain sizes, locates where the deviation
from the fully scrambled value first drops below an absolute threshold, and
fits the crossing depth against N; the slope should match tau*log(2)/2.
"""

import argparse
import csv
import math
from pathlib import Path

from pauliscope.circuits import CircuitSpec
from pauliscope.fits import weighted_line_fit
from pauliscope.rmpu import scaling_predictions
from pauliscope.rtn import contract_brickwork_series
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
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10])
    ap.add_argument("--threshold", type=float, default=0.4)
    ap.add_argument("--chi", type=int, default=192)
    ap.add_argument("--out", default="results/crossover")
    args = ap.parse_args()

    sp = scaling_predictions(k=2)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    crossings = {}
    with open(out / "mu2_curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "t", "t_over_tstar", "mu2", "truncation_error"])
        for n_sites in args.sizes:
            t_max = int(sp.t_star(n_sites)) + 4
            spec = CircuitSpec(n_sites=n_sites, depth=t_max, noise_placement="per_gate_support")
            series = contract_brickwork_series(spec, range(1, t_max + 1), k=2, chi_mps=args.chi)
            curve = {}
            for t, res in series.items():
                curve[t] = res.value
                writer.writerow(
                    [n_sites, t, t / sp.t_star(n_sites), res.value, res.truncation_error]
                )
            crossings[n_sites] = crossing_depth(curve, args.threshold)
            print(
                f"N={n_sites}: crossing at t={crossings[n_sites]:.2f} "
                f"(t/t* = {crossings[n_sites] / sp.t_star(n_sites):.3f})"
            )
    fit = weighted_line_fit(list(crossings), list(crossings.values()))
    print(f"crossing-depth slope vs N: {fit.slope:.3f} (prediction {sp.tau * math.log(2) / 2:.3f})")


if __name__ == "__main__":
    main()
