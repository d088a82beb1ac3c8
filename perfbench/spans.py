"""Span tracing of the package's layers from outside the package.

Each trace point wraps one function where the code that calls it looks it
up: ``circuits.apply_gate`` rather than ``opsim.apply_gate``, and
``numpy.linalg.svd``/``qr`` only as the ``rtn`` module reaches them.  A span
records name, start, end, parent span and run id, plus the counters the
point computes from its arguments' shapes.  Spans stay in memory and are
written out once, when the traced CLI run has ended.

``summarize`` turns the spans of one run into per-layer figures; a layer's
self time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np


def _state_bytes(op) -> int:
    """Bytes of the evolved operator, whatever array the state holds."""
    for attr in ("matrix", "values"):
        arr = getattr(op, attr, None)
        if isinstance(arr, np.ndarray):
            return arr.nbytes
    return op.nbytes if isinstance(op, np.ndarray) else 0


# Computed traffic: one full pass reads and writes the operator once.  A gate
# makes two passes (rows, then columns); per-site noise one pass per site;
# joint noise two (gather to the support and scatter back).
def _gate_counts(args, kwargs):
    return {"bytes": 4 * _state_bytes(args[0])}


def _site_noise_counts(args, kwargs):
    sites = args[2] if len(args) > 2 else kwargs.get("sites", ())
    n = len(sites) if hasattr(sites, "__len__") else 1
    return {"bytes": 2 * n * _state_bytes(args[0])}


def _joint_noise_counts(args, kwargs):
    return {"bytes": 4 * _state_bytes(args[0])}


def _transform_counts(args, kwargs, result):
    return {"bytes": _state_bytes(args[0]) + _state_bytes(result)}


def _svd_counts(args, kwargs):
    # thin R-SVD estimate (Golub & Van Loan): 6 m n^2 + 20 n^3, m >= n
    m, n = args[0].shape[-2:]
    m, n = max(m, n), min(m, n)
    return {"flops": 6 * m * n * n + 20 * n**3}


def _rtn_series_counts(args, kwargs, result):
    res = list(result.values())
    return {
        "trunc_err_est": max((r.truncation_error for r in res), default=0.0),
        "flagged_rows": sum(bool(r.flagged) for r in res),
    }


def _mps_bond_counts(args, kwargs, result):
    return {"max_bond": args[0].max_bond}


class CacheProbe:
    """A call is a cache hit when it returns the very object an earlier call
    with the same arguments returned; an uncached function builds anew."""

    def __init__(self):
        self.seen: dict = {}

    def __call__(self, name):
        def counts(args, kwargs, result):
            key = (name, repr(args), repr(sorted(kwargs.items())))
            hit = self.seen.get(key) is result
            self.seen[key] = result
            return {"hit": int(hit)}

        return counts


def trace_points():
    """(module, attribute, span name, counts before call, counts after call)."""
    pkg = "pauliscope"
    cache_probe = CacheProbe()
    return [
        (f"{pkg}.opsim", "apply_gate", "opsim.gate", _gate_counts, None),
        (f"{pkg}.opsim", "GateMatrix", "opsim.gate_check", None, None),
        (f"{pkg}.opsim", "apply_depolarizing", "opsim.noise", _site_noise_counts, None),
        (f"{pkg}.opsim", "apply_depolarizing_support", "opsim.noise",
         _joint_noise_counts, None),
        (f"{pkg}.circuits", "sample_haar_unitary", "circuits.haar", None, None),
        (f"{pkg}.circuits", "run_circuit", "circuits.run_circuit", None, None),
        (f"{pkg}.pauli", "pauli_transform", "pauli.transform", None, _transform_counts),
        (f"{pkg}.spectrum", "moment_mu", "spectrum.moments", None, None),
        (f"{pkg}.spectrum", "moment_nu", "spectrum.moments", None, None),
        (f"{pkg}.truncation", "truncation_mse", "truncation.mse", None, None),
        (f"{pkg}.driver", "_moment_worker", "driver.realization", None, None),
        (f"{pkg}.driver", "run_ensemble", "driver.run_ensemble", None, None),
        (f"{pkg}.driver", "simulate_mse", "driver.simulate_mse", None, None),
        (f"{pkg}.rtn", "contract_brickwork_series", "rtn.series", None,
         _rtn_series_counts),
        (f"{pkg}.rtn", "_ExactState.apply_kernel", "rtn.exact", None, None),
        (f"{pkg}.rtn", "_BoundaryMps.apply_two_site", "rtn.mps_step", None,
         _mps_bond_counts),
        (f"{pkg}.rtn", "np.linalg.svd", "rtn.svd", _svd_counts, None),
        (f"{pkg}.rtn", "np.linalg.qr", "rtn.qr", None, None),
        (f"{pkg}.weingarten", "_tables", "weingarten.tables", None,
         cache_probe("tables")),
        (f"{pkg}.weingarten", "gram_matrix", "weingarten.gram", None,
         cache_probe("gram")),
        (f"{pkg}.weingarten", "weingarten_matrix", "weingarten.wg", None,
         cache_probe("wg")),
        (f"{pkg}.weingarten", "noisy_weingarten", "weingarten.noisy_wg", None,
         cache_probe("noisy")),
        (f"{pkg}.rmpu", "transfer_matrix", "rmpu.transfer", None, None),
        (f"{pkg}.rmpu", "_scaled_product", "rmpu.product", None, None),
        (f"{pkg}.rmpu", "rmpu_moment_exact", "rmpu.point", None, None),
        (f"{pkg}.csvio", "write_moments_csv", "csvio.write", None, None),
        (f"{pkg}.csvio", "write_mse_csv", "csvio.write", None, None),
        (f"{pkg}.csvio", "write_sidecar", "csvio.write", None, None),
    ]


class _AttrProxy(types.ModuleType):
    """Stand-in for a module (or namespace) with some attributes replaced;
    everything else is read through to the original."""

    def __init__(self, target):
        super().__init__(getattr(target, "__name__", "proxy"))
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end, counts)
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            counts = before(args, kwargs) if before else None
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, counts)
            if after:
                counts = {**(counts or {}), **after(args, kwargs, result)}
                spans[sid] = (sid, parent, name, t0, t1, counts)
            return result

        if not isinstance(fn, type):
            functools.update_wrapper(traced, fn)
        return traced

    def install(self, points) -> None:
        """Wrap every trace point in each package module that binds it."""
        for module_name, attr, name, before, after in points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if not self._install_one(module, attr, name, before, after):
                self.missing.append(f"{module_name}.{attr}")

    def _install_one(self, module, attr, name, before, after) -> bool:
        head, _, rest = attr.partition(".")
        if rest and head == "np":
            # numpy.linalg as this module reaches it: swap in a proxy chain
            linalg_name = rest.split(".")[1]
            np_proxy = module.__dict__.get("np")
            if np_proxy is None:
                return False
            if not isinstance(np_proxy, _AttrProxy):
                np_proxy = _AttrProxy(np_proxy)
                np_proxy.linalg = _AttrProxy(np_proxy._target.linalg)
                module.np = np_proxy
            real = getattr(np_proxy._target.linalg, linalg_name)
            setattr(np_proxy.linalg, linalg_name, self.wrap(real, name, before, after))
            return True
        if rest:
            owner = module.__dict__.get(head)
            if owner is None or not hasattr(owner, rest):
                return False
            setattr(owner, rest, self.wrap(getattr(owner, rest), name, before, after))
            return True
        obj = module.__dict__.get(attr)
        if obj is None:
            return False
        traced = self.wrap(obj, name, before, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("pauliscope"):
                continue
            if mod is module and isinstance(obj, type):
                continue  # a class stays itself where it is defined
            for key, value in list(vars(mod).items()):
                if value is obj:
                    setattr(mod, key, traced)
        return True

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, counts in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "counts": counts}) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


#: spans that wrap whole runs or realizations rather than one layer's call
CONTAINER_SPANS = ("cli.main", "driver.run_ensemble", "driver.simulate_mse",
                   "driver.realization", "circuits.run_circuit")


def summarize(spans: list[dict]) -> dict:
    """Per-name figures for one run: time (outermost spans of the name),
    self time, call count and summed counters (maxima for bond and error)."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["self_s"] += dur - child_time[s["id"]]
        if nested_in_same(s):
            continue
        agg["time_s"] += dur
        agg["calls"] += 1
        for key, value in (s["counts"] or {}).items():
            if key in ("max_bond", "trunc_err_est"):
                agg[key] = max(agg[key], value)
            else:
                agg[key] += value
    return {k: dict(v) for k, v in out.items()}


def group_calls(spans: list[dict], prefix: str) -> tuple[int, int]:
    """(calls, cache hits) of spans named ``prefix*`` not nested in another."""
    by_id = {s["id"]: s for s in spans}
    calls = hits = 0
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        p = s["parent"]
        if p is not None and by_id[p]["name"].startswith(prefix):
            continue
        calls += 1
        hits += (s["counts"] or {}).get("hit", 0)
    return calls, hits


def realization_samples_ms(spans: list[dict]) -> list[float]:
    """Per-realization wall times: each Monte Carlo worker span, and for
    truncation runs the gaps between successive circuit starts."""
    out = [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "driver.realization"]
    starts = defaultdict(list)
    for s in spans:
        if s["name"] == "circuits.run_circuit" and s["parent"] is not None:
            starts[s["parent"]].append(s["start"])
    by_id = {s["id"]: s for s in spans}
    for parent, ts in starts.items():
        if by_id[parent]["name"] != "truncation.mse":
            continue
        bounds = sorted(ts) + [by_id[parent]["end"]]
        out.extend(1e3 * (b - a) for a, b in zip(bounds, bounds[1:]))
    return out
