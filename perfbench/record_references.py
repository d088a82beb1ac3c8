"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py --size smoke
    python3 perfbench/record_references.py --size full [--workload rtn_chain]

Runs each workload through the same CLI invocation as ``run.py`` (for every
master seed in the pool when the output is seeded) and writes
``references/<size>/<workload>.json``.  Tolerances, stated per row:

* ``rtol`` 1e-6 with ``atol_frac`` 1e-9 (Monte Carlo) or 0 (deterministic
  engines): a million times the <= 1e-12 drift allowed for a change that
  reorders floating-point work, far below any modelling change.
* RTN rows on the boundary-MPS path are compared with a larger-chi
  contraction (``RTN_REF_CHI``) at ``RTN_MPS_RTOL``; the chi-convergence of
  those rows is stored next to them.
* rmpu_exact rows with k = 1 and gamma > 0 come from the F^2 shortcut, a
  known defect: they get no reference value (``rtol`` null).
"""

from __future__ import annotations

import argparse
import json
import shutil
import time

import check
from run import WORK, environment, invoke
from workloads import SEED_POOL, WORKLOADS

RTOL = 1e-6
MC_ATOL_FRAC = 1e-9
RTN_REF_CHI = {"full": 256, "smoke": 64}
RTN_CONVERGENCE_CHIS = {"full": (32, 64, 96, 128, 192, 256), "smoke": (16, 32, 64)}
#: at N = 8, chi = 64 sits within 2.2e-3 of chi = 256 and chi = 192 within
#: 1.7e-4 (see chi_convergence in the reference file)
RTN_MPS_RTOL = 1e-2
K1_DEFECT = ("rmpu_exact k=1 with gamma>0 returns the fidelity shortcut F^2 instead of "
             "the S_2 transfer-matrix value")


def run_rows(workload, master_seed, run_dir, run_id, config=None):
    inv = invoke(workload, master_seed, run_dir, run_id, timeout=3600.0,
                 config_override=config)
    if not inv.ok:
        raise SystemExit(f"{workload.name} seed {master_seed} failed: {inv.stderr}")
    return inv, check.read_outputs(run_dir / run_id / "out")


def make_entry(outputs: dict, compare: list, atol_frac: float) -> dict:
    return {
        "compare": compare,
        "atol_frac": atol_frac,
        "files": {name: [{"row": row, "rtol": RTOL} for row in rows]
                  for name, rows in outputs.items()},
    }


def record(size: str, name: str, run_dir) -> dict:
    workload = WORKLOADS[size][name]
    entries, extra, invs = {}, {}, []
    if workload.command == "moments":
        for seed in SEED_POOL:
            inv, outputs = run_rows(workload, seed, run_dir, f"{name}-{seed}")
            invs.append(inv)
            entries[str(seed)] = make_entry(outputs, ["value", "stderr"], MC_ATOL_FRAC)
    elif workload.command == "truncate-mse":
        for seed in SEED_POOL:
            inv, outputs = run_rows(workload, seed, run_dir, f"{name}-{seed}")
            invs.append(inv)
            entries[str(seed)] = make_entry(outputs, ["mse", "stderr"], MC_ATOL_FRAC)
    elif workload.command == "rtn":
        inv, outputs = run_rows(workload, 0, run_dir, name)
        invs.append(inv)
        entry = make_entry(outputs, ["value"], 0.0)
        extra["chi_convergence"] = rtn_convergence(workload, size, run_dir, entry)
        entries["0"] = entry
    else:
        inv, outputs = run_rows(workload, 0, run_dir, name)
        invs.append(inv)
        entry = make_entry(outputs, ["value"], 0.0)
        for rows in entry["files"].values():
            for ref in rows:
                if ref["row"]["k"] == "1" and float(ref["row"]["gamma"]) > 0.0:
                    ref["rtol"] = None
                    ref["defect"] = K1_DEFECT
        entries["0"] = entry
    return {"workload": name, "size": size, "config": workload.config,
            "recorded": environment(0, invs), "entries": entries, **extra}


def rtn_convergence(workload, size, run_dir, entry) -> dict:
    """Store every row's value at each chi of RTN_CONVERGENCE_CHIS; rows that
    depend on chi (the boundary-MPS path) take the RTN_REF_CHI value as
    their reference, rows that do not (the exact path) keep theirs."""
    table = {}
    for chi in RTN_CONVERGENCE_CHIS[size]:
        t0 = time.monotonic()
        _, outputs = run_rows(workload, 0, run_dir, f"chi{chi}",
                              {**workload.config, "chi_mps": chi})
        for row in next(iter(outputs.values())):
            table.setdefault(check.row_key(row), {})[str(chi)] = float(row["value"])
        print(f"rtn chi={chi}: {time.monotonic() - t0:.1f} s", flush=True)
    ref_chi = str(RTN_REF_CHI[size])
    for rows in entry["files"].values():
        for ref in rows:
            values = table[check.row_key(ref["row"])].values()
            if max(values) - min(values) > 1e-12 * max(abs(v) for v in values):
                ref["row"]["value"] = repr(table[check.row_key(ref["row"])][ref_chi])
                ref["rtol"] = RTN_MPS_RTOL
                ref["reference"] = f"chi={ref_chi} boundary-MPS contraction"
    return {"reference_chi": int(ref_chi), "rows": table}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--workload", action="append", help="default: all")
    args = ap.parse_args()
    run_dir = WORK / "record"
    for name in args.workload or sorted(WORKLOADS[args.size]):
        shutil.rmtree(run_dir, ignore_errors=True)
        payload = record(args.size, name, run_dir)
        path = check.reference_path(args.size, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", flush=True)
    shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
