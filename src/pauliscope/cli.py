"""Command-line entry point for the experiment drivers.

Every run writes its CSV next to a JSON sidecar holding the fully resolved
configuration, package version and wall-clock time, so outputs are
reproducible from the sidecar alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from functools import partial
from pathlib import Path

from . import __version__
from .circuits import CircuitSpec, json_fields
from .csvio import (
    ensure_dir,
    read_csv_rows,
    write_histogram_csv,
    write_kappa_csv,
    write_moments_csv,
    write_mse_csv,
    write_sidecar,
)
from .driver import ExperimentConfig, SweepSpec, run_ensemble, simulate_histogram, simulate_mse
from .fits import fit_kappa, locate_threshold


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

    Rejected if it has a sweep the subcommand does not read or names another
    engine than the subcommand's.
    """
    if not args.config:
        raise ValueError("--config <path.json> is required for this subcommand")
    with open(args.config) as fh:
        d = json_fields(ExperimentConfig, json.load(fh), "config")
    engine, _, sweeps = COMMANDS[args.command]
    for key, value in json_fields(SweepSpec, d.get("sweep", {}), "sweep").items():
        if value is not None and key not in sweeps:
            raise ValueError(f"{args.command} does not use sweep.{key}; remove it")
    if d.get("engine") not in (None, engine):
        raise ValueError(
            f"{args.command} runs the {engine} engine, not {d['engine']!r}; "
            "set engine to match or leave it out"
        )
    overrides = (
        ("engine", engine),
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
    return ExperimentConfig.from_dict(d)


def _finish(cfg: ExperimentConfig, command: str, t0: float, writers: dict) -> None:
    """Write each CSV (file name -> writer taking the path), then the sidecar."""
    out = ensure_dir(cfg.out_dir)
    for name, writer in writers.items():
        writer(out / name)
        print(f"wrote {out / name}")
    stem = Path(COMMANDS[command][1]).stem
    write_sidecar(out / f"{stem}.meta.json", cfg.resolved(), time.time() - t0)


def cmd_moments(cfg: ExperimentConfig, command: str) -> int:
    t0 = time.time()
    rows = run_ensemble(cfg)
    writer = partial(write_moments_csv, estimates=rows, engine=cfg.engine)
    _finish(cfg, command, t0, {COMMANDS[command][1]: writer})
    return 0


def cmd_spectrum_hist(cfg: ExperimentConfig, command: str) -> int:
    t0 = time.time()
    ensembles = []
    for spec in cfg.points():
        depths = cfg.sweep.t if cfg.sweep.t is not None else [spec.depth]
        ensembles.extend(
            simulate_histogram(spec, depths, cfg.n_realizations, threads=cfg.threads)
        )
    writer = partial(write_histogram_csv, ensembles=ensembles, seed=cfg.circuit.master_seed)
    _finish(cfg, command, t0, {COMMANDS[command][1]: writer})
    return 0


def cmd_truncate_mse(cfg: ExperimentConfig, command: str) -> int:
    t0 = time.time()
    writers = {}
    for spec in cfg.points():
        points = simulate_mse(spec, cfg.sweep.n_paulis, cfg.n_realizations, cfg.threads)
        writers[f"mse_gamma{spec.gamma:g}.csv"] = partial(
            write_mse_csv, points=points, spec=spec, seed=spec.master_seed
        )
    _finish(cfg, command, t0, writers)
    return 0


def cmd_fit_kappa(args) -> int:
    rows = [
        row for row in read_csv_rows(args.input)
        if row["quantity"] == "mu" and int(row["k"]) == 2
    ]
    if not rows:
        raise SystemExit("no (quantity=mu, k=2) rows in the input CSV")
    # gamma*N and the fit assume one system: every series shares N, engine, geometry
    for key in ("N", "engine", "geometry"):
        values = sorted({row[key] for row in rows})
        if len(values) > 1:
            raise SystemExit(
                f"fit-kappa needs one {key} per input CSV, found {key} = {', '.join(values)}"
            )
    series = defaultdict(list)
    for row in rows:
        series[float(row["gamma"])].append(
            (int(row["t"]), float(row["value"]), float(row["stderr"]))
        )
    window = tuple(args.window) if args.window else None
    n_sites = int(rows[0]["N"])
    out_rows = []
    for gamma in sorted(series):
        pts = sorted(series[gamma])
        t, v, s = zip(*pts)
        fit = fit_kappa(t, v, s, window=window)
        out_rows.append(
            {
                "gamma": gamma,
                "gammaN": gamma * n_sites,
                "kappa": fit.kappa,
                "kappa_stderr": fit.kappa_stderr,
                "t_min": fit.window[0],
                "t_max": fit.window[1],
                "r_squared": fit.r_squared,
                "n_points": fit.n_points,
            }
        )
    out = Path(args.out or "kappa.csv")
    write_kappa_csv(out, out_rows)
    print(f"wrote {out}")
    return 0


def cmd_threshold(args) -> int:
    rows = read_csv_rows(args.input)
    xs = [float(r["gammaN"]) for r in rows]
    ks = [float(r["kappa"]) for r in rows]
    ss = [float(r["kappa_stderr"]) for r in rows]
    res = locate_threshold(xs, ks, ss)
    payload = {
        "gammaN_critical": res.value,
        "stderr": res.stderr,
        "n_sign_changes": res.n_sign_changes,
        "bracket": list(res.bracket),
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_selftest(args) -> int:
    """Fast oracle-equivalence sweep (a scaled-down acceptance suite)."""
    import numpy as np

    from .circuits import run_circuit
    from .rmpu import global_haar_moment, rmpu_moment_exact
    from .rtn import contract_brickwork_series
    from .spectrum import moment_nu
    from .weingarten import gram_matrix, weingarten_matrix

    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        failures += 0 if ok else 1

    def chain(n_sites, depth):
        return CircuitSpec(n_sites=n_sites, depth=depth, noise_placement="per_gate_support")

    for n, q in ((2, 4.0), (4, 2.0), (4, 8.0)):
        g = gram_matrix(n, q)
        w = weingarten_matrix(n, q)
        rel = float(np.max(np.abs(g @ w @ g - g)) / np.max(np.abs(g)))
        check(f"gram-inverse n={n} q={q}", rel < 1e-10, f"resid={rel:.1e}")

    spec = CircuitSpec(geometry="rmpu", n_sites=3, r=1, gamma=0.05,
                       master_seed=11, initial_site=0)
    exact = rmpu_moment_exact([(spec, 2)])[0]
    vals = []
    for real in range(400):
        vals.append(moment_nu(run_circuit(spec, real), 2))
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

    handlers = {"spectrum-hist": cmd_spectrum_hist, "truncate-mse": cmd_truncate_mse}
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--realizations", type=int, help="override ensemble size")
        p.add_argument("--threads", type=int, help="worker processes")
        p.set_defaults(fn=handlers.get(name, cmd_moments))

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
    if args.command not in COMMANDS:
        return args.fn(args)
    try:
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:  # a bad or unreadable config is a usage error
        ap.exit(2, f"{ap.prog} {args.command}: error: {exc}\n")
    return args.fn(cfg, args.command)


if __name__ == "__main__":
    sys.exit(main())
