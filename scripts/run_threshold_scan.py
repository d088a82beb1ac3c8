#!/usr/bin/env python3
"""Noise scan of the decay rate kappa and the simulability threshold.

For each error-per-cycle value, evolves a brickwork ensemble, fits the decay
of |nu2/F^4 - 3| over the depth window [N, 2N], and interpolates the sign
change of kappa; the large-N prediction is gammaN_c = log((d^2+1)/(2d)).
"""

import argparse
from pathlib import Path

from pauliscope.circuits import CircuitSpec
from pauliscope.csvio import write_kappa_csv
from pauliscope.driver import simulate_moments
from pauliscope.fits import fit_kappa, locate_threshold
from pauliscope.rmpu import scaling_predictions


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-sites", type=int, default=7)
    ap.add_argument("--realizations", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument(
        "--gamma-n", type=float, nargs="+",
        default=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6],
    )
    ap.add_argument("--out", default="results/threshold")
    args = ap.parse_args()

    n = args.n_sites
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for gn in args.gamma_n:
        spec = CircuitSpec(
            geometry="chain", n_sites=n, depth=2 * n, gamma=gn / n,
            master_seed=args.seed,
        )
        estimates = simulate_moments(
            spec, list(range(n, 2 * n + 1)), [2], args.realizations
        )
        pts = sorted(
            (e.meta["t"], e.value, e.stderr)
            for e in estimates
            if e.quantity == "nu_over_F2k"
        )
        t, v, s = zip(*pts)
        fit = fit_kappa(t, v, s)
        rows.append({"gammaN": gn, "kappa": fit.kappa, "kappa_stderr": fit.kappa_stderr,
                     "r_squared": fit.r_squared, "n_points": fit.n_points})
        print(f"gammaN={gn}: kappa={fit.kappa:+.4f} +- {fit.kappa_stderr:.4f}")

    write_kappa_csv(out / "kappa.csv", rows)
    res = locate_threshold(
        [r["gammaN"] for r in rows], [r["kappa"] for r in rows],
        [r["kappa_stderr"] for r in rows],
    )
    print(
        f"threshold gammaN_c = {res.value:.4f} +- {res.stderr:.4f} "
        f"({res.n_sign_changes} sign change(s); prediction log((d^2+1)/(2d)) = "
        f"{scaling_predictions().gamma_c_times_n:.4f})"
    )


if __name__ == "__main__":
    main()
