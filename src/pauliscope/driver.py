"""Ensemble driver: sweeps, estimators, and engine dispatch.

Monte-Carlo estimates evolve independent circuit realizations (seeded from
(master_seed, realization), so results are reproducible bit for bit and
independent of worker scheduling) and aggregate per-depth moments; the
analytic engines (rmpu_exact, rmpu_asymptotic, rtn) emit the corresponding
deterministic values in the same row format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .circuits import CircuitSpec, circuit_fidelity, iter_circuit
from .rmpu import RmpuParams, rmpu_moment_asymptotic, rmpu_moment_exact
from .rtn import contract_brickwork_series
from .spectrum import (
    MomentEstimate,
    moment_mu,
    moment_nu,
    spectrum_histogram,
)
from .truncation import truncation_mse

ENGINES = ("simulator", "rtn", "rmpu_exact", "rmpu_asymptotic")


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
        if self.chi_mps < 1:
            raise ValueError(f"chi_mps={self.chi_mps} must be >= 1")
        if not 0.0 <= self.svd_threshold < 1.0:
            raise ValueError(f"svd_threshold={self.svd_threshold} outside [0, 1)")
        if self.sweep.n is not None and self.circuit.geometry == "grid":
            raise ValueError("sweep.n is not supported for grid circuits (N = lx * ly)")
        if self.engine == "simulator" and self.sweep.t is not None:
            for n_sites in self.sweep.n or [self.circuit.n_sites]:
                layers = _variant(self.circuit, n_sites=n_sites, initial_site=None).n_layers
                bad = [t for t in self.sweep.t if not 1 <= t <= layers]
                if bad:
                    raise ValueError(f"sweep.t {bad} outside [1, {layers}] at N={n_sites}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "circuit" in d:
            d["circuit"] = CircuitSpec.from_dict(d["circuit"])
        if "sweep" in d:
            d["sweep"] = SweepSpec.from_dict(d["sweep"])
        return cls(**d)

    def resolved(self) -> dict:
        out = {
            "circuit": self.circuit.to_dict(),
            "sweep": {k: getattr(self.sweep, k) for k in SweepSpec.__dataclass_fields__},
            "n_realizations": self.n_realizations,
            "engine": self.engine,
            "threads": self.threads,
            "out_dir": self.out_dir,
            "chi_mps": self.chi_mps,
            "svd_threshold": self.svd_threshold,
            "version": __version__,
        }
        return out


def _variant(spec: CircuitSpec, **overrides) -> CircuitSpec:
    d = spec.to_dict()
    d.update(overrides)
    if d["geometry"] != "rmpu":
        d["r"] = None
    return CircuitSpec.from_dict(d)


def _pauli_depths(spec_dict: dict, realization: int, depths: Sequence[int]):
    """Pauli coefficients of one realization at each of the ascending depths."""
    spec = CircuitSpec.from_dict(spec_dict)
    want = set(depths)
    for t, coeffs in iter_circuit(spec, realization):
        if t in want:
            yield coeffs
        if t >= max(depths):
            break


def _moment_worker(args) -> np.ndarray:
    spec_dict, realization, depths, ks = args
    out = np.empty((len(depths), len(ks), 2))
    for i, coeffs in enumerate(_pauli_depths(spec_dict, realization, depths)):
        for j, k in enumerate(ks):
            out[i, j, 0] = moment_mu(coeffs, k)
            out[i, j, 1] = moment_nu(coeffs, k)
    return out


def _map_ordered(fn, jobs: list, threads: int) -> list:
    if threads <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with get_context("spawn").Pool(threads) as pool:
        return pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * threads)))


def simulate_moments(
    spec: CircuitSpec,
    depths: Sequence[int],
    ks: Sequence[int],
    n_realizations: int,
    threads: int = 1,
) -> list[MomentEstimate]:
    """Ensemble mean +- stderr of mu_k, nu_k and nu_k/F^2k at each depth."""
    depths = sorted(set(int(t) for t in depths))
    if depths[0] < 1 or depths[-1] > spec.n_layers:
        raise ValueError(f"depths must lie in [1, {spec.n_layers}]")
    jobs = [(spec.to_dict(), r, depths, list(ks)) for r in range(n_realizations)]
    samples = np.stack(_map_ordered(_moment_worker, jobs, threads))
    out = []
    root_n = math.sqrt(n_realizations)
    for i, t in enumerate(depths):
        fid = circuit_fidelity(spec, t)
        for j, k in enumerate(ks):
            meta = {"spec": spec.to_dict(), "t": t}
            for q, col in (("mu", 0), ("nu", 1)):
                vals = samples[:, i, j, col]
                out.append(
                    MomentEstimate(
                        q, k, float(vals.mean()),
                        float(vals.std(ddof=1) / root_n), n_realizations, meta,
                    )
                )
            scale = fid ** (2 * k)
            nu = out[-1]
            out.append(
                MomentEstimate(
                    "nu_over_F2k", k, nu.value / scale, nu.stderr / scale,
                    n_realizations, meta,
                )
            )
    return out


def run_ensemble(config: ExperimentConfig) -> list[MomentEstimate]:
    """Dispatch a full sweep on the configured engine."""
    spec = config.circuit
    sw = config.sweep
    gammas = sw.gamma if sw.gamma is not None else [spec.gamma]
    ns = sw.n if sw.n is not None else [spec.n_sites]
    ks = list(sw.k)
    out: list[MomentEstimate] = []
    for n_sites in ns:
        for gamma in gammas:
            if config.engine == "simulator":
                sp = _variant(spec, n_sites=n_sites, gamma=gamma, initial_site=None)
                depths = sw.t if sw.t is not None else [sp.n_layers]
                out.extend(
                    simulate_moments(sp, depths, ks, config.n_realizations, config.threads)
                )
            elif config.engine in ("rmpu_exact", "rmpu_asymptotic"):
                if spec.geometry != "rmpu":
                    raise ValueError("rmpu engines need an rmpu circuit")
                fn = rmpu_moment_exact if config.engine == "rmpu_exact" else rmpu_moment_asymptotic
                for k in ks:
                    params = RmpuParams(n_sites=n_sites, r=spec.r, k=k, gamma=gamma)
                    meta = {"spec": _variant(spec, n_sites=n_sites, gamma=gamma,
                                             initial_site=None).to_dict(),
                            "t": n_sites - spec.r}
                    q = "mu" if gamma == 0.0 else "nu"
                    out.append(MomentEstimate(q, k, fn(params), 0.0, 0, meta))
            elif config.engine == "rtn":
                if spec.geometry != "chain":
                    raise ValueError("the rtn engine contracts 1D chains")
                sp = _variant(spec, n_sites=n_sites, gamma=gamma, initial_site=None,
                              noise_placement="per_gate_support")
                depths = sw.t if sw.t is not None else [sp.n_layers]
                for k in ks:
                    series = contract_brickwork_series(
                        n_sites, depths, k=k, gamma=gamma,
                        chi_mps=config.chi_mps, threshold=config.svd_threshold,
                        op_site=sp.initial_site,
                    )
                    for t, res in series.items():
                        if not (math.isfinite(res.value) and res.value >= 0.0):
                            raise FloatingPointError(
                                f"rtn contraction at N={n_sites}, t={t}, k={k} gave the "
                                f"non-physical value {res.value!r} (truncation error "
                                f"{res.truncation_error:.3g}); raise chi_mps"
                            )
                        meta = {"spec": sp.to_dict(), "t": t,
                                "truncation_error": res.truncation_error,
                                "max_bond": res.max_bond}
                        q = "mu" if gamma == 0.0 else "nu"
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


def simulate_histogram(
    spec: CircuitSpec,
    depths: Sequence[int],
    n_realizations: int,
    n_bins: int = 60,
    u_min: float = 1e-6,
    u_max: float = 1e3,
    threads: int = 1,
) -> list[HistogramEnsemble]:
    """Ensemble-averaged Pauli-spectrum histograms at the requested depths."""
    depths = sorted(set(int(t) for t in depths))
    jobs = [
        (spec.to_dict(), r, depths, n_bins, u_min, u_max)
        for r in range(n_realizations)
    ]
    rows = _map_ordered(_histogram_worker, jobs, threads)
    out = []
    for i, t in enumerate(depths):
        dens = np.stack([r[0][i] for r in rows])
        zmass = np.array([r[1][i] for r in rows])
        edges = rows[0][2]
        out.append(
            HistogramEnsemble(
                n_sites=spec.n_sites,
                depth=t,
                gamma=spec.gamma,
                bin_edges=edges,
                density_mean=dens.mean(axis=0),
                density_stderr=dens.std(axis=0, ddof=1) / math.sqrt(n_realizations),
                zero_mass=float(zmass.mean()),
                n_samples=n_realizations,
            )
        )
    return out


def _histogram_worker(args):
    spec_dict, realization, depths, n_bins, u_min, u_max = args
    densities = []
    zmasses = []
    edges = None
    for coeffs in _pauli_depths(spec_dict, realization, depths):
        h = spectrum_histogram(coeffs, n_bins, u_min, u_max)
        densities.append(h.density)
        zmasses.append(h.zero_mass)
        edges = h.bin_edges
    return densities, zmasses, edges


def simulate_mse(
    spec: CircuitSpec,
    np_grid: Optional[Sequence[int]],
    n_realizations: int,
):
    """Thin wrapper kept for symmetry with the other drivers."""
    return truncation_mse(spec, np_grid, n_realizations)
