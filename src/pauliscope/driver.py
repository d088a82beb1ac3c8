"""Ensemble driver: sweeps, estimators, and engine dispatch.

Monte-Carlo estimates evolve independent circuit realizations (seeded from
(master_seed, realization), so results are reproducible bit for bit and
independent of worker scheduling) and reduce one per-depth observable of each
(moments, histogram, truncation error) to mean +- stderr in ``ensemble``; the
analytic engines (rmpu_exact, rmpu_asymptotic, rtn) emit the corresponding
deterministic values in the same row format.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .circuits import CircuitSpec, circuit_fidelity, iter_circuit, map_ordered
from .pauli import PauliCoefficients
from .rmpu import RmpuParams, rmpu_moment_asymptotic, rmpu_moment_exact
from .rtn import contract_brickwork_series
from .spectrum import HIST_EDGES, MomentEstimate, moment_mu, moment_nu, spectrum_histogram
from .weingarten import MAX_DEGREE

ENGINES = ("simulator", "rtn", "rmpu_exact", "rmpu_asymptotic")

#: the replica orders k each engine evaluates, as a closed range
_K_RANGES = {
    "simulator": (1, math.inf),
    "rtn": (1, 2),
    "rmpu_exact": (1, MAX_DEGREE // 2),
    "rmpu_asymptotic": (2, math.inf),
}


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
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class ExperimentConfig:
    circuit: CircuitSpec
    sweep: SweepSpec = field(default_factory=SweepSpec)
    n_realizations: int = 100
    engine: str = "simulator"
    threads: int = 1
    out_dir: str = "results"
    chi_mps: int = 256
    svd_threshold: float = 1e-12

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r} (choose from {ENGINES})")
        if self.n_realizations < 2 and self.engine == "simulator":
            raise ValueError("need n_realizations >= 2 for standard errors")
        if self.threads < 1:
            raise ValueError(f"threads={self.threads} must be >= 1")
        k_lo, k_hi = _K_RANGES[self.engine]
        bad_k = [k for k in self.sweep.k if not k_lo <= k <= k_hi]
        if bad_k:
            raise ValueError(f"sweep.k {bad_k} outside [{k_lo}, {k_hi}] for engine {self.engine}")
        if self.chi_mps < 1:
            raise ValueError(f"chi_mps={self.chi_mps} must be >= 1")
        if not 0.0 <= self.svd_threshold < 1.0:
            raise ValueError(f"svd_threshold={self.svd_threshold} outside [0, 1)")
        if self.sweep.n is not None and self.circuit.geometry == "grid":
            raise ValueError("sweep.n is not supported for grid circuits (N = lx * ly)")
        if self.sweep.t is not None:
            for spec in self.points():
                bad = [t for t in self.sweep.t if not 1 <= t <= spec.n_layers]
                if bad:
                    raise ValueError(
                        f"sweep.t {bad} outside [1, {spec.n_layers}] at N={spec.n_sites}"
                    )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if (d.get("circuit", {}).get("initial_site") is not None
                and d.get("sweep", {}).get("n") is not None):
            raise ValueError("circuit.initial_site cannot be combined with sweep.n: "
                             "each swept N starts at its default site")
        if "circuit" in d:
            d["circuit"] = CircuitSpec.from_dict(d["circuit"])
        if "sweep" in d:
            d["sweep"] = SweepSpec.from_dict(d["sweep"])
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
        return [_variant(self.circuit, gamma=g, **size) for size in sizes for g in gammas]


def _variant(spec: CircuitSpec, **overrides) -> CircuitSpec:
    d = spec.to_dict()
    d.update(overrides)
    if d["geometry"] != "rmpu":
        d["r"] = None
    return CircuitSpec.from_dict(d)


def _moment_worker(args) -> np.ndarray:
    """One realization's ``observe(coefficients)`` at each of the ascending depths."""
    spec_dict, realization, depths, observe = args
    out = []
    for t, coeffs in iter_circuit(CircuitSpec.from_dict(spec_dict), realization):
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
    if not depths or depths[0] < 1 or depths[-1] > spec.n_layers:
        raise ValueError(f"depths {depths} must lie in [1, {spec.n_layers}]")
    if n_realizations < 2:
        raise ValueError(f"need n_realizations >= 2 for standard errors, got {n_realizations}")
    jobs = [(spec.to_dict(), r, depths, observe) for r in range(n_realizations)]
    samples = np.stack(map_ordered(_moment_worker, jobs, threads))
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    return depths, samples.mean(axis=0), stderr


def _moment_pairs(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """(mu_k, nu_k) for each k, shape (len(ks), 2)."""
    return np.array([(moment_mu(coeffs, k), moment_nu(coeffs, k)) for k in ks])


def simulate_moments(
    spec: CircuitSpec,
    depths: Sequence[int],
    ks: Sequence[int],
    n_realizations: int,
    threads: int = 1,
) -> list[MomentEstimate]:
    """Ensemble mean +- stderr of mu_k, nu_k and nu_k/F^2k at each depth."""
    depths, mean, stderr = ensemble(
        spec, depths, partial(_moment_pairs, ks=list(ks)), n_realizations, threads
    )
    out = []
    for i, t in enumerate(depths):
        fid = circuit_fidelity(spec, t)
        for j, k in enumerate(ks):
            meta = {"spec": spec.to_dict(), "t": t}
            for q, col, scale in (("mu", 0, 1.0), ("nu", 1, 1.0),
                                  ("nu_over_F2k", 1, fid ** (2 * k))):
                out.append(MomentEstimate(q, k, float(mean[i, j, col]) / scale,
                                          float(stderr[i, j, col]) / scale, n_realizations, meta))
    return out


def run_ensemble(config: ExperimentConfig) -> list[MomentEstimate]:
    """Dispatch a full sweep on the configured engine."""
    ks = list(config.sweep.k)
    if config.engine in ("rmpu_exact", "rmpu_asymptotic"):
        specs = config.points()
        if any(spec.geometry != "rmpu" for spec in specs):
            raise ValueError("rmpu engines need an rmpu circuit")
        rows = [(spec, RmpuParams(n_sites=spec.n_sites, r=spec.r, k=k, gamma=spec.gamma))
                for spec in specs for k in ks]
        params = [p for _, p in rows]
        # one call over every point, so each (r, k, gamma) builds one T for all N
        values = (rmpu_moment_exact(params) if config.engine == "rmpu_exact"
                  else [rmpu_moment_asymptotic(p) for p in params])
        return [MomentEstimate("mu" if spec.gamma == 0.0 else "nu", p.k, value, 0.0, 0,
                               {"spec": spec.to_dict(), "t": spec.n_layers})
                for (spec, p), value in zip(rows, values)]
    out: list[MomentEstimate] = []
    for spec in config.points():
        depths = config.sweep.t if config.sweep.t is not None else [spec.n_layers]
        q = "mu" if spec.gamma == 0.0 else "nu"
        if config.engine == "simulator":
            out.extend(simulate_moments(spec, depths, ks, config.n_realizations, config.threads))
        elif config.engine == "rtn":
            if spec.geometry != "chain":
                raise ValueError("the rtn engine contracts 1D chains")
            sp = _variant(spec, noise_placement="per_gate_support")
            for k in ks:
                series = contract_brickwork_series(
                    sp.n_sites, depths, k=k, gamma=sp.gamma,
                    chi_mps=config.chi_mps, threshold=config.svd_threshold,
                    op_site=sp.initial_site,
                )
                for t, res in series.items():
                    if not (math.isfinite(res.value) and res.value >= 0.0):
                        raise FloatingPointError(
                            f"rtn contraction at N={sp.n_sites}, t={t}, k={k} gave the "
                            f"non-physical value {res.value!r} (truncation error "
                            f"{res.truncation_error:.3g}); raise chi_mps"
                        )
                    meta = {"spec": sp.to_dict(), "t": t,
                            "truncation_error": res.truncation_error,
                            "max_bond": res.max_bond}
                    # stderr column carries the truncation-error estimate
                    out.append(MomentEstimate(q, k, res.value,
                                              res.truncation_error, 0, meta))
    return out


@dataclass
class HistogramEnsemble:
    n_sites: int
    depth: int
    gamma: float
    bin_edges: np.ndarray
    density_mean: np.ndarray
    density_stderr: np.ndarray
    zero_mass: float
    n_samples: int


def _histogram_row(coeffs: PauliCoefficients) -> np.ndarray:
    """The histogram density on the fixed grid with the zero mass appended."""
    h = spectrum_histogram(coeffs)
    return np.append(h.density, h.zero_mass)


def simulate_histogram(
    spec: CircuitSpec,
    depths: Sequence[int],
    n_realizations: int,
    threads: int = 1,
) -> list[HistogramEnsemble]:
    """Ensemble-averaged Pauli-spectrum histograms at the requested depths."""
    depths, mean, stderr = ensemble(spec, depths, _histogram_row, n_realizations, threads)
    return [
        HistogramEnsemble(
            n_sites=spec.n_sites,
            depth=t,
            gamma=spec.gamma,
            bin_edges=HIST_EDGES,
            density_mean=mean[i, :-1],
            density_stderr=stderr[i, :-1],
            zero_mass=float(mean[i, -1]),
            n_samples=n_realizations,
        )
        for i, t in enumerate(depths)
    ]


def simulate_mse(
    spec: CircuitSpec,
    np_grid: Optional[Sequence[int]],
    n_realizations: int,
    threads: int = 1,
):
    """``truncation_mse`` under the name the benchmark harness binds.

    ``perfbench/child.py:ENGINE_ENTRIES`` and a ``perfbench/spans.py`` trace
    point look this name up; it goes once they bind ``truncation_mse``.
    Imported in the body, as ``truncation`` imports ``ensemble`` from here.
    """
    from .truncation import truncation_mse

    return truncation_mse(spec, np_grid, n_realizations, threads)
