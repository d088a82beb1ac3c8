"""pauliscope benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload mc_chain --seed 1 --seconds 25 --trace 0

Each iteration runs one ``pauliscope`` CLI invocation in a fresh process
from the checkout's ``src/`` (single-threaded, BLAS at one thread) and
starts the next when it has ended.  Every invocation's CSV rows are checked
against recorded references and the physical invariants (``check.py``).

``--trace 0`` prints the end-to-end metrics; set-up probes (invocations that
stop at the first engine call) add set-up samples.  ``--trace 1`` alternates
traced and untraced invocations and prints the per-layer metrics from the
traced ones, with the tracing overhead measured against the untraced ones.
The last line of standard output is the result as one JSON object.
``--smoke`` runs the small stand-in of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import check
import spans as spanlib
from workloads import WORKLOADS, seed_order

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
#: set-up probes before each measured invocation: one per this many seconds
#: of a typical invocation, from 1 to SETUP_PROBES_MAX
SETUP_PROBE_EVERY_S = 3.0
SETUP_PROBES_MAX = 3
#: no run goes on past this, even if an invocation hangs (it is killed)
HARD_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_anon_mb": "MB",
}

# (metric, unit, span name, field of the span summary)
PER_LAYER_SPANS = [
    ("opsim.gate_s", "s", "opsim.gate", "time_s"),
    ("opsim.gate_calls", "count", "opsim.gate", "calls"),
    ("opsim.gate_bytes", "B", "opsim.gate", "bytes"),
    ("opsim.gate_check_s", "s", "opsim.gate_check", "time_s"),
    ("opsim.noise_s", "s", "opsim.noise", "time_s"),
    ("opsim.noise_calls", "count", "opsim.noise", "calls"),
    ("opsim.noise_bytes", "B", "opsim.noise", "bytes"),
    ("pauli.transform_s", "s", "pauli.transform", "time_s"),
    ("pauli.transform_calls", "count", "pauli.transform", "calls"),
    ("pauli.transform_bytes", "B", "pauli.transform", "bytes"),
    ("circuits.haar_s", "s", "circuits.haar", "time_s"),
    ("circuits.haar_calls", "count", "circuits.haar", "calls"),
    ("spectrum.moments_s", "s", "spectrum.moments", "time_s"),
    ("truncation.self_s", "s", "truncation.mse", "self_s"),
    ("rtn.svd_s", "s", "rtn.svd", "time_s"),
    ("rtn.svd_calls", "count", "rtn.svd", "calls"),
    ("rtn.svd_flops", "flop", "rtn.svd", "flops"),
    ("rtn.qr_s", "s", "rtn.qr", "time_s"),
    ("rtn.exact_s", "s", "rtn.exact", "time_s"),
    ("rtn.mps_s", "s", "rtn.mps_step", "time_s"),
    ("rtn.max_bond", "count", "rtn.mps_step", "max_bond"),
    ("rtn.trunc_err_est", "ratio", "rtn.series", "trunc_err_est"),
    ("rtn.flagged_rows", "count", "rtn.series", "flagged_rows"),
    ("weingarten.tables_s", "s", "weingarten.tables", "time_s"),
    ("weingarten.noisy_wg_s", "s", "weingarten.noisy_wg", "time_s"),
    ("rmpu.transfer_s", "s", "rmpu.transfer", "time_s"),
    ("rmpu.transfer_builds", "count", "rmpu.transfer", "calls"),
    ("rmpu.product_s", "s", "rmpu.product", "time_s"),
    ("rmpu.points", "count", "rmpu.point", "calls"),
    ("csvio.write_s", "s", "csvio.write", "time_s"),
]
PER_LAYER = {name: unit for name, unit, _, _ in PER_LAYER_SPANS} | {
    "weingarten.calls": "count",
    "weingarten.cache_hit_ratio": "ratio",
    "driver.realization_ms_p50": "ms",
    "driver.realization_ms_p95": "ms",
    "driver.realization_samples": "count",
    "check.failed_frac": "ratio",
    "check.max_rel_err": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}
#: the p95 is reported only when at least this many samples exist (0 otherwise)
P95_MIN_SAMPLES = 200


@dataclass
class Invocation:
    rc: int
    t_spawn: float
    t_exit: float
    result: Optional[dict]
    stderr: str
    spans_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.result is not None and self.result["t_entry"] is not None

    @property
    def setup_s(self) -> float:
        return self.result["t_entry"] - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.t_spawn

    @property
    def work_s(self) -> float:
        return self.result["t_end"] - self.result["t_entry"]


def child_env() -> dict:
    # bytecode is cached (under perfbench/.pycache), as for an installed package
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(BENCH / ".pycache"),
    )
    return env


def invoke(workload, master_seed: int, run_dir: Path, run_id: str, *,
           trace: bool = False, probe: bool = False, timeout: float = 120.0,
           config_override: Optional[dict] = None) -> Invocation:
    """Run one CLI invocation of ``workload`` in a fresh process."""
    inv_dir = run_dir / run_id
    inv_dir.mkdir(parents=True)
    config = config_override or workload.config
    (inv_dir / "config.json").write_text(json.dumps(config))
    job = {
        "src": str(ROOT / "src"),
        "argv": [workload.command, "--config", str(inv_dir / "config.json"),
                 "--seed", str(master_seed), "--out", str(inv_dir / "out")],
        "trace": trace,
        "probe": probe,
        "run_id": run_id,
        "result": str(inv_dir / "result.json"),
        "spans": str(inv_dir / "spans.jsonl"),
    }
    (inv_dir / "job.json").write_text(json.dumps(job))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(BENCH / "child.py"), str(inv_dir / "job.json")],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        rc, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stderr = -9, f"timed out after {timeout:.0f} s"
    t_exit = time.monotonic()
    result_path = inv_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return Invocation(rc, t_spawn, t_exit, result, stderr[-2000:],
                      inv_dir / "spans.jsonl" if trace else None)


def environment(seed: int, invocations: list[Invocation]) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = sorted({inv.result["blas_threads"] for inv in invocations if inv.result})
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "cpu": cpu,
        "nproc": nproc,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads},
        # one CLI process at a time, so BLAS threads are the whole compute
        "threads_total_le_nproc": all(t <= nproc for t in blas_threads),
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "seed": seed,
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def per_layer_metrics(traced: list[Invocation], untraced: list[Invocation]) -> dict:
    n = len(traced)
    totals = {name: 0.0 for name in PER_LAYER}
    samples = []
    calls = hits = 0
    unattributed = root = 0.0
    for inv in traced:
        spans = spanlib.load_spans(inv.spans_path)
        summary = spanlib.summarize(spans)
        for name, _, span, key in PER_LAYER_SPANS:
            value = summary.get(span, {}).get(key, 0.0)
            if key in ("max_bond", "trunc_err_est"):
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value / n
        c, h = spanlib.group_calls(spans, "weingarten.")
        calls, hits = calls + c, hits + h
        unattributed += sum(summary.get(name, {}).get("self_s", 0.0)
                            for name in spanlib.CONTAINER_SPANS)
        root += summary["cli.main"]["time_s"]
        samples.extend(spanlib.realization_samples_ms(spans))
    totals["weingarten.calls"] = calls / n
    totals["weingarten.cache_hit_ratio"] = hits / calls if calls else 0.0
    totals["trace.unattributed_frac"] = unattributed / root if root else 0.0
    traced_work = statistics.median(inv.work_s for inv in traced)
    untraced_work = statistics.median(inv.work_s for inv in untraced)
    totals["trace.overhead_frac"] = traced_work / untraced_work - 1.0
    totals["driver.realization_samples"] = len(samples)
    if samples:
        totals["driver.realization_ms_p50"] = statistics.median(samples)
        if len(samples) >= P95_MIN_SAMPLES:
            totals["driver.realization_ms_p95"] = statistics.quantiles(
                samples, n=20, method="inclusive")[-1]
    return totals


def end_to_end_metrics(items: int, runs: list[Invocation], setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(inv.wall_s for inv in runs),
        "work_per_s": statistics.median(items / (inv.wall_s - inv.setup_s) for inv in runs),
        "peak_anon_mb": statistics.median(inv.result["peak_anon_kb"] * 1024 / 1e6
                                          for inv in runs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small stand-in sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pauliscope" / "__init__.py").is_file():
        print(f"no pauliscope source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    if args.workload not in WORKLOADS[size]:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS[size])}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[size][args.workload]
    reference = check.load_reference(size, workload.name)
    seeds = seed_order(args.seed) if workload.seeded else [0]

    start = time.monotonic()
    deadline = start + args.seconds
    # only the latest run's files are kept
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    run_dir = WORK / "runs" / f"{workload.name}-{args.seed}-{args.trace}"
    run_dir.mkdir(parents=True)

    def time_left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    setups = []
    verdict = check.CheckResult()
    runs: list[Invocation] = []
    traced: list[Invocation] = []
    i = 0
    while True:
        master_seed = seeds[i % len(seeds)]
        # probes between invocations spread the set-up samples over the run
        n_probes = 0 if args.trace else SETUP_PROBES_MAX
        if runs and not args.trace:
            typical = statistics.median(r.wall_s for r in runs)
            n_probes = min(SETUP_PROBES_MAX, max(1, round(typical / SETUP_PROBE_EVERY_S)))
        for j in range(n_probes):
            probe = invoke(workload, master_seed, run_dir, f"probe{i}.{j}", probe=True,
                           timeout=max(5.0, time_left()))
            if not probe.ok:
                print(f"set-up probe failed (exit {probe.rc}): {probe.stderr}",
                      file=sys.stderr)
                return 1
            setups.append(probe.setup_s)
        trace_this = bool(args.trace) and i % 2 == 1
        inv = invoke(workload, master_seed, run_dir, f"run{i}", trace=trace_this,
                     timeout=max(5.0, time_left()))
        entry = reference["entries"][str(master_seed)]
        if inv.ok:
            outputs = check.read_outputs(run_dir / f"run{i}" / "out")
            verdict.add(check.check_outputs(entry, outputs))
            (traced if trace_this else runs).append(inv)
        else:
            verdict.add(check.all_failed(
                entry, f"run{i} (seed {master_seed}) exited {inv.rc}: {inv.stderr}"))
        shutil.rmtree(run_dir / f"run{i}" / "out", ignore_errors=True)
        i += 1
        if time_left() < 0 or not inv.ok:
            break
        # at least two measured invocations (one of each kind when tracing);
        # then start another only while half a typical one still fits
        done = runs + traced
        if len(done) < 2 or (args.trace and not (runs and traced)):
            continue
        if deadline - time.monotonic() < 0.5 * statistics.median(r.wall_s for r in done):
            break

    if not runs or (args.trace and not traced):
        for problem in verdict.problems[:20]:
            print("FAIL", problem, file=sys.stderr)
        print("no invocation completed", file=sys.stderr)
        return 1
    setups.extend(inv.setup_s for inv in runs)
    if args.trace:
        metrics = per_layer_metrics(traced, runs)
        metrics["check.failed_frac"] = verdict.failed / verdict.attempted
        metrics["check.max_rel_err"] = verdict.max_rel_err
        units = PER_LAYER
        untraced = sorted({m for inv in traced for m in inv.result["untraced"]})
        if untraced:
            print("trace points not found:", ", ".join(untraced))
    else:
        entry = reference["entries"][str(seeds[0])]
        items = (workload.config["n_realizations"] if workload.unit == "realizations"
                 else check.expected_rows(entry))
        metrics = end_to_end_metrics(items, runs, setups)
        units = END_TO_END

    print("env:", json.dumps(environment(args.seed, runs + traced), sort_keys=True))
    print(f"invocations: {len(runs)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up samples, {time.monotonic() - start:.1f} s; wall_s",
          " ".join(f"{inv.wall_s:.3f}" for inv in runs + traced))
    if verdict.defect_rows:
        print(f"known defect, checked for invariants only ({len(verdict.defect_rows)} rows):",
              " ".join(verdict.defect_rows))
    for problem in verdict.problems[:20]:
        print("FAIL", problem)
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that subprocess.run kills the running invocation
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
