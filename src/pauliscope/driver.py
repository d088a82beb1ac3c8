"""Ensemble driver: sweeps, estimators, and engine dispatch.

Monte-Carlo estimates evolve independent circuit realizations (seeded from
(master_seed, realization), so results are reproducible bit for bit and
independent of worker scheduling) and reduce one per-depth observable of each
(moments, histogram, truncation error) to mean +- stderr in ``ensemble``; the
analytic engines (rmpu_exact, rmpu_asymptotic, rtn) emit the corresponding
deterministic values in the same row format.  Every result is a list of CSV
rows: dicts keyed by the columns of ``csvio``'s headers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .circuits import (GEOMETRIES, CircuitSpec, circuit_fidelity, iter_circuit, json_fields,
                       map_ordered)
from .opsim import MAX_SITES
from .pauli import PauliCoefficients
from .rmpu import rmpu_moment_asymptotic, rmpu_moment_exact
from .rtn import contract_brickwork_series
from .spectrum import HIST_EDGES, moment_nu, spectrum_histogram
from .weingarten import MAX_DEGREE

#: engine -> (geometries it evaluates, noise placement it needs (None: either),
#: closed range of replica orders k), checked at load time and nowhere else
ENGINES = {
    "simulator": (GEOMETRIES, None, (1, math.inf)),
    "rtn": (("chain",), "per_gate_support", (1, 2)),
    "rmpu_exact": (("rmpu",), "per_gate_support", (1, MAX_DEGREE // 2)),
    "rmpu_asymptotic": (("rmpu",), "per_gate_support", (2, math.inf)),
}

#: absolute slack of ``moment_row``'s invariants mu_k >= 1 and nu_1 <= 1; the largest
#: deviation measured on a correct value is |mu_1 - 1| = 6.2e-12 (rtn, chain N=20, gamma=0)
INVARIANT_SLACK = 1e-9


@dataclass
class SweepSpec:
    """Lists of parameter values to scan (None = inherit from the circuit)."""

    t: Optional[list[int]] = None
    gamma: Optional[list[float]] = None
    n: Optional[list[int]] = None
    k: list[int] = field(default_factory=lambda: [2])
    n_paulis: Optional[list[int]] = None

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        return cls(**json_fields(cls, d, "sweep"))


@dataclass
class ExperimentConfig:
    circuit: CircuitSpec
    sweep: SweepSpec = field(default_factory=SweepSpec)
    n_realizations: int = 100
    engine: str = "simulator"
    threads: int = 1
    out_dir: str = "results"
    chi_mps: int = 256

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r} (choose from {tuple(ENGINES)})")
        geometries, placement, (k_lo, k_hi) = ENGINES[self.engine]
        c = self.circuit
        if c.geometry not in geometries or placement not in (None, c.noise_placement):
            raise ValueError(f"the {self.engine} engine evaluates {'/'.join(geometries)} circuits "
                             f"with {placement} noise, not {c.geometry} with {c.noise_placement}")
        if self.n_realizations < 2 and self.engine == "simulator":
            raise ValueError("need n_realizations >= 2 for standard errors")
        if self.threads < 1:
            raise ValueError(f"threads={self.threads} must be >= 1")
        bad_k = [k for k in self.sweep.k if not k_lo <= k <= k_hi]
        if bad_k:
            raise ValueError(f"sweep.k {bad_k} outside [{k_lo}, {k_hi}] for engine {self.engine}")
        if self.chi_mps < 1:
            raise ValueError(f"chi_mps={self.chi_mps} must be >= 1")
        if self.sweep.n is not None and self.circuit.geometry == "grid":
            raise ValueError("sweep.n is not supported for grid circuits (N = lx * ly)")
        empty = [key for key, values in vars(self.sweep).items() if values == []]
        if empty:
            raise ValueError(f"sweep.{empty[0]} is empty; give it values or leave it out")
        for spec in self.points():  # building each swept circuit checks it
            n = spec.n_sites
            if self.engine == "simulator" and n > MAX_SITES:
                raise ValueError(f"N={n} exceeds the simulator's {MAX_SITES} sites")
            if self.engine.startswith("rmpu") and spec.initial_site > spec.r:
                # the analytic boundary vector holds inside the first staircase block only
                raise ValueError(f"the {self.engine} engine needs initial_site in [0, r={spec.r}], "
                                 f"not {spec.initial_site}")
            bad = [t for t in self.sweep.t or () if not 1 <= t <= spec.depth]
            if bad:
                raise ValueError(f"sweep.t {bad} outside [1, {spec.depth}] at N={n}")
            bad = [v for v in self.sweep.n_paulis or () if not 1 <= v <= 4**n]
            if bad:
                raise ValueError(f"sweep.n_paulis {bad} outside [1, {4**n}] at N={n}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = json_fields(cls, d, "config")
        circuit, sweep = d.get("circuit"), d.get("sweep", {})
        _, placement, _ = ENGINES.get(d.get("engine", "simulator"), ((), None, ()))
        if placement and isinstance(circuit, dict) and circuit.get("noise_placement") is None:
            circuit = {**circuit, "noise_placement": placement}
        d["circuit"], d["sweep"] = CircuitSpec.from_dict(circuit), SweepSpec.from_dict(sweep)
        if circuit.get("initial_site") is not None and sweep.get("n") is not None:
            raise ValueError("circuit.initial_site cannot be combined with sweep.n: "
                             "each swept N starts at its default site")
        return cls(**d)

    def resolved(self) -> dict:
        return {**asdict(self), "version": __version__}

    def points(self) -> list[CircuitSpec]:
        """The circuit at every swept (N, gamma), N outermost.

        A swept N starts at its own default site; otherwise the configured
        initial site is kept.
        """
        sw = self.sweep
        sizes = [{}] if sw.n is None else [{"n_sites": n, "initial_site": None} for n in sw.n]
        gammas = sw.gamma if sw.gamma is not None else [self.circuit.gamma]
        return [replace(self.circuit, gamma=g, **size) for size in sizes for g in gammas]


def _moment_worker(args) -> np.ndarray:
    """One realization's ``observe(coefficients)`` at each of the ascending depths."""
    spec, realization, depths, observe = args
    out = []
    for t, coeffs in iter_circuit(spec, realization):
        if t in depths:
            out.append(observe(coeffs))
        if t == depths[-1]:
            break
    return np.stack(out)


def ensemble(
    spec: CircuitSpec,
    depths: Sequence[int],
    observe: Callable[[PauliCoefficients], np.ndarray],
    n_realizations: int,
    threads: int = 1,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Mean and standard error over circuit realizations of ``observe`` at each depth.

    ``observe`` maps the evolved coefficients to an array; it must be a
    module-level function (or a ``functools.partial`` of one) so that spawned
    workers can unpickle it.  Returns the sorted distinct depths and the mean
    and stderr, each of shape ``(len(depths), *observe's shape)``.
    """
    depths = sorted(set(int(t) for t in depths))
    if not depths or depths[0] < 1 or depths[-1] > spec.depth:
        raise ValueError(f"depths {depths} must lie in [1, {spec.depth}]")
    if n_realizations < 2:
        raise ValueError(f"need n_realizations >= 2 for standard errors, got {n_realizations}")
    jobs = [(spec, r, depths, observe) for r in range(n_realizations)]
    samples = np.stack(map_ordered(_moment_worker, jobs, threads))
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    return depths, samples.mean(axis=0), stderr


def _moment_pairs(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """(mu_k, nu_k) for each k, shape (len(ks), 2), from one spectrum reduction;
    a zero operator gives mu = NaN, which ``moment_row`` rejects."""
    nu1, *nu = moment_nu(coeffs, [1, *ks]).tolist()
    return np.array([(v / nu1**k if nu1 > 0.0 else math.nan, v) for k, v in zip(ks, nu)])


def moment_row(engine: str, spec: CircuitSpec, t: int, k: int, quantity: str,
               value: float, stderr: float, n_samples: int) -> dict:
    """The moments CSV row of ``quantity`` (mu, nu or nu_over_F2k) of order k
    at depth t of the circuit ``spec``; deterministic engines have n_samples 0.
    A value that is not finite and >= 0, a mu_k < 1 or a nu_1 > 1 (each beyond
    ``INVARIANT_SLACK``) raises FloatingPointError, whatever the engine."""
    if quantity not in ("mu", "nu", "nu_over_F2k"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(value) and value >= 0.0
            and (quantity != "mu" or value >= 1.0 - INVARIANT_SLACK)
            and (quantity != "nu" or k != 1 or value <= 1.0 + INVARIANT_SLACK)):
        raise FloatingPointError(
            f"{engine} {quantity} at N={spec.n_sites}, t={t}, k={k} gave the non-physical "
            f"value {value!r} (stderr column {stderr:.3g})"
        )
    if not stderr >= 0:  # also rejects NaN
        raise ValueError(f"stderr must be >= 0, got {stderr}")
    return {
        "engine": engine, "geometry": spec.geometry, "N": spec.n_sites, "r": spec.r,
        "t": t, "gamma": spec.gamma, "noise_placement": spec.noise_placement, "k": k,
        "quantity": quantity, "value": value, "stderr": stderr, "n_samples": n_samples,
        "seed": spec.master_seed,
    }


def simulate_moments(
    spec: CircuitSpec,
    depths: Sequence[int],
    ks: Sequence[int],
    n_realizations: int,
    threads: int = 1,
) -> list[dict]:
    """Ensemble mean +- stderr of mu_k, nu_k and nu_k/F^2k at each depth."""
    depths, mean, stderr = ensemble(
        spec, depths, partial(_moment_pairs, ks=list(ks)), n_realizations, threads
    )
    out = []
    for i, t in enumerate(depths):
        fid = circuit_fidelity(spec, t)
        for j, k in enumerate(ks):
            for q, col, scale in (("mu", 0, 1.0), ("nu", 1, 1.0),
                                  ("nu_over_F2k", 1, fid ** (2 * k))):
                out.append(moment_row("simulator", spec, t, k, q,
                                      float(mean[i, j, col]) / scale,
                                      float(stderr[i, j, col]) / scale, n_realizations))
    return out


def run_ensemble(config: ExperimentConfig) -> list[dict]:
    """The moments rows of a full sweep on the configured engine."""
    ks = list(config.sweep.k)
    if config.engine in ("rmpu_exact", "rmpu_asymptotic"):
        points = [(spec, k) for spec in config.points() for k in ks]
        # one call over every point, so each (r, k, gamma) builds one T for all N
        values = (rmpu_moment_exact(points) if config.engine == "rmpu_exact"
                  else [rmpu_moment_asymptotic(spec, k) for spec, k in points])
        return [moment_row(config.engine, spec, spec.depth, k,
                           "mu" if spec.gamma == 0.0 else "nu", value, 0.0, 0)
                for (spec, k), value in zip(points, values)]
    out = []
    for spec in config.points():
        depths = config.sweep.t if config.sweep.t is not None else [spec.depth]
        q = "mu" if spec.gamma == 0.0 else "nu"
        if config.engine == "simulator":
            out.extend(simulate_moments(spec, depths, ks, config.n_realizations, config.threads))
        elif config.engine == "rtn":
            for k in ks:
                series = contract_brickwork_series(spec, depths, k, chi_mps=config.chi_mps)
                # the stderr column carries the truncation-error estimate
                out.extend(moment_row("rtn", spec, t, k, q, res.value, res.truncation_error, 0)
                           for t, res in series.items())
    return out


def simulate_histogram(
    spec: CircuitSpec,
    depths: Sequence[int],
    n_realizations: int,
    threads: int = 1,
) -> list[dict]:
    """The histogram rows: per depth and bin of the fixed grid, the
    ensemble-mean Pauli-spectrum density and its stderr."""
    depths, mean, stderr = ensemble(spec, depths, spectrum_histogram, n_realizations, threads)
    bins = list(zip(HIST_EDGES[:-1].tolist(), HIST_EDGES[1:].tolist()))
    return [
        {"N": spec.n_sites, "t": t, "gamma": spec.gamma, "bin_lo": lo, "bin_hi": hi,
         "density": density, "density_stderr": err, "zero_mass": float(mean[i, -1]),
         "n_samples": n_realizations, "seed": spec.master_seed}
        for i, t in enumerate(depths)
        for (lo, hi), density, err in zip(bins, mean[i, :-1].tolist(), stderr[i, :-1].tolist())
    ]


def simulate_mse(
    spec: CircuitSpec,
    np_grid: Optional[Sequence[int]],
    n_realizations: int,
    threads: int = 1,
) -> list[dict]:
    """``truncation_mse`` under the name the benchmark harness binds.

    ``perfbench/child.py:ENGINE_ENTRIES`` and a ``perfbench/spans.py`` trace
    point look this name up; it goes once they bind ``truncation_mse``.
    Imported in the body, as ``truncation`` imports ``ensemble`` from here.
    """
    from .truncation import truncation_mse

    return truncation_mse(spec, np_grid, n_realizations, threads)
