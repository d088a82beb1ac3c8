"""Command-line entry point for the experiment drivers.

Every run writes its CSV next to a JSON sidecar holding the fully resolved
configuration, package version and wall-clock time, so outputs are
reproducible from the sidecar alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import CircuitSpec, json_fields
from .csvio import (
    MOMENTS_HEADER,
    read_csv_rows,
    write_histogram_csv,
    write_kappa_csv,
    write_moments_csv,
    write_mse_csv,
    write_sidecar,
)
from .driver import ExperimentConfig, SweepSpec, run_ensemble, simulate_histogram, simulate_mse
from .fits import fit_kappa, locate_threshold
from .rmpu import GAMMA_C_TIMES_N


_MOMENT_SWEEPS = ("t", "gamma", "n", "k")

#: subcommand -> (engine it runs, CSV name, sweep keys it reads); the sidecar is
#: <CSV stem>.meta.json, and truncate-mse writes one mse_gamma<g>.csv per gamma
COMMANDS = {
    "moments": ("simulator", "moments.csv", _MOMENT_SWEEPS),
    "rtn": ("rtn", "moments_rtn.csv", _MOMENT_SWEEPS),
    "rmpu-exact": ("rmpu_exact", "moments_rmpu_exact.csv", ("gamma", "n", "k")),
    "rmpu-asymptotic": ("rmpu_asymptotic", "moments_rmpu_asymptotic.csv", ("gamma", "n", "k")),
    "spectrum-hist": ("simulator", "histogram.csv", ("t", "gamma")),
    "truncate-mse": ("simulator", "mse.csv", ("gamma", "n_paulis")),
}


def _load_config(args) -> ExperimentConfig:
    """The JSON config with the flags applied, validated once as a whole.

    Rejected if it has a sweep the subcommand does not read, names another
    engine, writes two gammas to one file, or asks for moments or a spectrum at gamma = 1.
    """
    if not args.config:
        raise ValueError("--config <path.json> is required for this subcommand")
    with open(args.config) as fh:
        d = json.load(fh)
    engine, _, sweeps = COMMANDS[args.command]
    if isinstance(d, dict) and d.get("engine") is None:
        d["engine"] = engine  # left out: the subcommand's engine
    d = json_fields(ExperimentConfig, d, "config")
    for key, value in json_fields(SweepSpec, d.get("sweep", {}), "sweep").items():
        if value is not None and key not in sweeps:
            raise ValueError(f"{args.command} does not use sweep.{key}; remove it")
    if d["engine"] != engine:
        raise ValueError(
            f"{args.command} runs the {engine} engine, not {d['engine']!r}; "
            "set engine to match or leave it out"
        )
    overrides = (
        ("n_realizations", args.realizations),
        ("threads", args.threads),
        ("out_dir", args.out),
    )
    for key, value in overrides:
        if value is not None:
            d[key] = value
    if args.seed is not None:
        d["circuit"] = {**json_fields(CircuitSpec, d.get("circuit"), "circuit"),
                        "master_seed": args.seed}
    cfg = ExperimentConfig.from_dict(d)
    gammas = [spec.gamma for spec in cfg.points()]
    if args.command in ("moments", "rtn", "spectrum-hist") and 1.0 in gammas:
        raise ValueError(f"{args.command} needs gamma < 1: gamma=1 leaves the zero operator")
    if args.command == "truncate-mse":
        names = [_mse_name(gamma) for gamma in gammas]
        clash = [name for name in names if names.count(name) > 1]
        if clash:
            raise ValueError(f"sweep.gamma {cfg.sweep.gamma} would write two values to {clash[0]}")
    return cfg


def _mse_name(gamma: float) -> str:
    return f"mse_gamma{gamma:g}.csv"  # the truncate-mse output file of one gamma


def cmd_run(cfg: ExperimentConfig, command: str) -> int:
    """Run the subcommand's engine, then write its CSVs and the sidecar."""
    t0 = time.time()
    name = COMMANDS[command][1]
    # engines and writers are looked up as module globals at call time:
    # perfbench replaces run_ensemble and simulate_mse here to mark (or stop
    # at) the first engine call, and wraps the writers
    if command == "spectrum-hist":
        write = write_histogram_csv
        tables = {name: [
            row for spec in cfg.points()
            for row in simulate_histogram(spec, cfg.sweep.t or [spec.depth],
                                          cfg.n_realizations, cfg.threads)
        ]}
    elif command == "truncate-mse":
        write = write_mse_csv
        tables = {
            _mse_name(spec.gamma):
                simulate_mse(spec, cfg.sweep.n_paulis, cfg.n_realizations, cfg.threads)
            for spec in cfg.points()
        }
    else:
        write = write_moments_csv
        tables = {name: run_ensemble(cfg)}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, rows in tables.items():
        write(out / file_name, rows)
        print(f"wrote {out / file_name}")
    write_sidecar(out / f"{Path(name).stem}.meta.json", cfg.resolved(), time.time() - t0)
    return 0


def _finite(row: dict, keys, where: str) -> list[float]:
    """The row's ``keys`` read as floats; one that is not finite, or a
    negative standard error, is rejected."""
    values = [float(row[key]) for key in keys]
    for key, value in zip(keys, values):
        if not math.isfinite(value):
            raise ValueError(f"{key} = {row[key]} at {where} is not finite")
        if key.endswith("stderr") and value < 0.0:
            raise ValueError(f"{key} = {row[key]} at {where} is negative")
    return values


def cmd_fit_kappa(args) -> int:
    """kappa per gamma from the k=2 nu/F^4 rows of one system's moments CSV."""
    rows = [
        row for row in read_csv_rows(args.input, MOMENTS_HEADER)
        if row["quantity"] == "nu_over_F2k" and int(row["k"]) == 2
    ]
    if not rows:
        raise ValueError(f"no quantity=nu_over_F2k, k=2 rows in {args.input}; "
                         "only the moments subcommand writes them")
    # gamma*N and the fit assume one system: every series shares N, engine, geometry
    for key in ("N", "engine", "geometry"):
        values = sorted({row[key] for row in rows})
        if len(values) > 1:
            raise ValueError(
                f"fit-kappa needs one {key} per input CSV, found {key} = {', '.join(values)}"
            )
    series = defaultdict(dict)  # gamma -> {t: (value, stderr)}
    for row in rows:
        where = f"gamma={row['gamma']}, t={row['t']}"
        points, t = series[float(row["gamma"])], int(row["t"])
        if t in points:  # two runs joined in one CSV would be fitted as one series
            raise ValueError(f"two k=2 nu_over_F2k rows at {where}")
        points[t] = _finite(row, ("value", "stderr"), where)
    window = tuple(args.window) if args.window else None
    n_sites = int(rows[0]["N"])
    out_rows = []
    for gamma in sorted(series):
        t, v, s = zip(*sorted((t, v, s) for t, (v, s) in series[gamma].items()))
        out_rows.append({"gamma": gamma, "gammaN": gamma * n_sites,
                         **fit_kappa(t, v, s, window=window)})
    out = Path(args.out or "kappa.csv")
    write_kappa_csv(out, out_rows)
    print(f"wrote {out}")
    return 0


def cmd_threshold(args) -> int:
    """The gamma*N where kappa changes sign, next to the large-N prediction."""
    columns = ("gammaN", "kappa", "kappa_stderr")
    rows = read_csv_rows(args.input, columns)
    xs, ks, ss = np.reshape(
        [_finite(row, columns, f"line {line}") for line, row in enumerate(rows, start=2)], (-1, 3)
    ).T
    payload = {**locate_threshold(xs, ks, ss), "gammaN_prediction": GAMMA_C_TIMES_N}
    print(json.dumps(payload, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_selftest(args) -> int:
    """Fast oracle-equivalence sweep (a scaled-down acceptance suite)."""
    from .circuits import run_circuit
    from .rmpu import global_haar_moment, rmpu_moment_exact
    from .rtn import contract_brickwork_series
    from .spectrum import moment_nu
    from .weingarten import _tables, gram_matrix, weingarten_matrix

    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        failures += 0 if ok else 1

    def chain(n_sites, depth):
        return CircuitSpec(n_sites=n_sites, depth=depth, noise_placement="per_gate_support")

    # Wg by class: A A w = A delta_e, and sum_s sgn(s) Wg(s) = 1/prod_{i<n} (q-i), 0 if q < n
    for n, q in ((4, 8.0), (6, 8.0), (8, 16.0), (6, 4.0)):
        a, w, tb = gram_matrix(n, q), weingarten_matrix(n, q), _tables(n)
        resid = float(np.max(np.abs(a @ (a @ w) - a[:, 0])) / np.max(a[:, 0]))
        signs = np.array([(-1) ** (n - len(t)) for t in tb.types])
        want = 1.0 / np.prod([q - i for i in range(n)]) if q >= n else 0.0
        sign_err = abs(float(tb.sizes * signs @ w) - want) / float(tb.sizes @ np.abs(w))
        check(f"weingarten class solve n={n} q={q}", resid < 1e-10 and sign_err < 1e-12,
              f"resid={resid:.1e} sign-sum err={sign_err:.1e}")

    spec = CircuitSpec(geometry="rmpu", n_sites=3, r=1, gamma=0.05,
                       master_seed=11, initial_site=0)
    exact = rmpu_moment_exact([(spec, 2)])[0]
    vals = []
    for real in range(400):
        vals.append(moment_nu(run_circuit(spec, real), [2])[0])
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    check("rmpu transfer vs Monte Carlo", abs(mean - exact) < 3 * se,
          f"{mean:.4f}+-{se:.4f} vs {exact:.4f}")

    r = contract_brickwork_series(chain(2, 1), [1], k=2)[1]
    ref = rmpu_moment_exact([(CircuitSpec(geometry="rmpu", n_sites=2, r=1), 2)])[0]
    check("rtn vs transfer (N=2, t=1)", abs(r.value - ref) < 1e-9 * ref)

    r1 = contract_brickwork_series(chain(5, 4), [4], k=1)[4]
    check("rtn norm identity (nu1=1)", abs(r1.value - 1.0) < 1e-10)

    deep = contract_brickwork_series(chain(4, 20), [20], k=2)[20]
    gh = global_haar_moment(16.0, 2)
    check("rtn deep limit vs global Haar", abs(deep.value - gh) < 1e-3,
          f"{deep.value:.6f} vs {gh:.6f}")

    print("selftest:", "OK" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="pauliscope",
        description="Pauli-spectrum experiments for noisy random circuits",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--realizations", type=int, help="override ensemble size")
        p.add_argument("--threads", type=int, help="worker processes")
        p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fit-kappa")
    p.add_argument("--input", required=True, help="moments CSV")
    p.add_argument("--out", help="output kappa CSV")
    p.add_argument("--window", nargs=2, type=float, help="depth window t_min t_max")
    p.set_defaults(fn=cmd_fit_kappa)

    p = sub.add_parser("threshold")
    p.add_argument("--input", required=True, help="kappa CSV from fit-kappa")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("selftest")
    p.set_defaults(fn=cmd_selftest)

    args = ap.parse_args(argv)
    if args.command == "selftest":
        return args.fn(args)
    try:
        if args.command not in COMMANDS:  # fit-kappa and threshold read only --input
            return args.fn(args)
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:  # bad or unreadable input is a usage error
        ap.exit(2, f"{ap.prog} {args.command}: error: {exc}\n")
    try:
        return args.fn(cfg, args.command)
    except FloatingPointError as exc:  # a non-physical value: cmd_run writes nothing
        ap.exit(1, f"{ap.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
