"""The four benchmark workloads: CLI subcommand, config and work unit.

Each workload is one ``pauliscope`` CLI invocation repeated in a closed loop.
``full`` is the measured size; ``smoke`` is a seconds-long stand-in with the
same code paths, used by the benchmark's own tests.  Why each workload exists
is recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: master seeds whose Monte Carlo outputs are recorded in ``references/``;
#: ``--seed`` picks the order in which a run walks this pool
SEED_POOL = tuple(range(101, 117))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: dict  # ExperimentConfig JSON
    unit: str  # what work_per_s counts
    seeded: bool  # output depends on the master seed


def _chain(n_sites, depth, gamma, **extra):
    return {"geometry": "chain", "n_sites": n_sites, "depth": depth,
            "gamma": gamma, **extra}


def _build(size: str) -> dict[str, Workload]:
    full = size == "full"
    mc = Workload(
        "mc_chain", "moments",
        {"circuit": _chain(10, 20, 0.02, noise_placement="per_qubit_per_layer")
         if full else _chain(6, 8, 0.05, noise_placement="per_qubit_per_layer"),
         "sweep": {"t": list(range(10, 21)) if full else [4, 6, 8], "k": [2]},
         "n_realizations": 2 if full else 4, "engine": "simulator", "threads": 1},
        "realizations", True,
    )
    trunc = Workload(
        "trunc_chain", "truncate-mse",
        {"circuit": _chain(7, 14, 1.0 / 7) if full else _chain(6, 6, 1.0 / 6),
         "sweep": {}, "n_realizations": 40 if full else 10,
         "engine": "simulator", "threads": 1},
        "realizations", True,
    )
    rtn = Workload(
        "rtn_chain", "rtn",
        {"circuit": _chain(8, 16, 0.01) if full else _chain(7, 4, 0.01),
         "sweep": {"n": [6, 8] if full else [4, 7],
                   "t": [4, 8, 12, 16] if full else [2, 4], "k": [2]},
         "engine": "rtn", "threads": 1, "chi_mps": 64 if full else 32},
        "rows", False,
    )
    n_max = 64 if full else 12
    rmpu = Workload(
        "rmpu_scan", "rmpu-exact",
        {"circuit": {"geometry": "rmpu", "n_sites": 8, "r": 4, "gamma": 0.0},
         "sweep": {"n": list(range(8, n_max + 1, 2)),
                   "gamma": [0.0, 0.008, 0.016, 0.024, 0.032, 0.04],
                   "k": [1, 2, 3]},
         "engine": "rmpu_exact", "threads": 1},
        "rows", False,
    )
    return {w.name: w for w in (mc, trunc, rtn, rmpu)}


WORKLOADS = {size: _build(size) for size in ("full", "smoke")}


def seed_order(seed: int) -> list[int]:
    """The pool's master seeds in the order a run with ``--seed`` uses them."""
    order = list(SEED_POOL)
    random.Random(seed).shuffle(order)
    return order
