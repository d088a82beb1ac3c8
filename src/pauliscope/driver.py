"""Ensemble driver: sweeps, estimators, and engine dispatch.

Monte-Carlo estimates evolve independent circuit realizations (seeded from
(master_seed, realization), so results are reproducible bit for bit and
independent of worker scheduling) and aggregate per-depth moments; the
analytic engines (rmpu_exact, rmpu_asymptotic, rtn) emit the corresponding
deterministic values in the same row format.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .circuits import CircuitSpec, circuit_fidelity, iter_circuit, map_ordered
from .rmpu import RmpuParams, rmpu_moment_asymptotic, rmpu_moment_exact
from .rtn import contract_brickwork_series
from .spectrum import (
    MomentEstimate,
    moment_mu,
    moment_nu,
    spectrum_histogram,
)
from .truncation import truncation_mse
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
    samples = np.stack(map_ordered(_moment_worker, jobs, threads))
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


def simulate_histogram(
    spec: CircuitSpec,
    depths: Sequence[int],
    n_realizations: int,
    threads: int = 1,
) -> list[HistogramEnsemble]:
    """Ensemble-averaged Pauli-spectrum histograms at the requested depths."""
    depths = sorted(set(int(t) for t in depths))
    jobs = [(spec.to_dict(), r, depths) for r in range(n_realizations)]
    rows = map_ordered(_histogram_worker, jobs, threads)
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
    spec_dict, realization, depths = args
    densities = []
    zmasses = []
    edges = None
    for coeffs in _pauli_depths(spec_dict, realization, depths):
        h = spectrum_histogram(coeffs)
        densities.append(h.density)
        zmasses.append(h.zero_mass)
        edges = h.bin_edges
    return densities, zmasses, edges


def simulate_mse(
    spec: CircuitSpec,
    np_grid: Optional[Sequence[int]],
    n_realizations: int,
    threads: int = 1,
):
    """``truncation_mse`` under the name the benchmark harness binds.

    ``perfbench/child.py:ENGINE_ENTRIES`` and a ``perfbench/spans.py`` trace
    point look this name up; it goes once they bind ``truncation_mse``.
    """
    return truncation_mse(spec, np_grid, n_realizations, threads)
