"""Replica tensor-network contraction of the brickwork ensemble average.

Haar-averaging 2k replicas of a noisy brickwork qubit chain (local
dimension q = 2) leaves one permutation variable per gate, coupled by
plaquette weights

    J[s, p, r] = sum_d Wg~_{r,d}(q^2, gamma) G_{d,s}(q) G_{d,p}(q)

between a gate's variable r and the variables s, p of the two gates below
its legs.  Wires never touched carry the identity permutation e (the
lightcone identity J[e, e, r] = delta_{e,r} pins everything outside the
causal cone), the wire holding the initial Pauli contributes q^#(s) 1_E(s)
at its first gate, and every wire ends on the Pauli-sum weight
q^(#(s) + 2*1_E(s) - 2).

The 2D network is contracted bottom to top, either as one dense state or
as a boundary MPS; both apply a gate as the same (rank^2, rank^2) kernel.
Wire states are kept in an orthonormal basis of the span of the
single-site permutation states (rank 14 for 2k = 4, well below (2k)!): the
Gram matrix G(q) is rank deficient there, and label-basis bonds would
otherwise waste bond dimension on null directions that cannot influence
any contraction.  In this basis the SVD truncation error is an honest
estimate of the error of the reported value.

Only the unnormalized average is polynomial in the gates, so with noise
the contraction returns the nu_k average (equal to mu_k at gamma = 0
where the norm is deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .circuits import CircuitSpec, layer_supports
from .rmpu import rescale_pow2, unscale
from .weingarten import (
    gram_matrix,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
)


@lru_cache(maxsize=None)
def _wire_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, f_top, g_op): coordinates of permutation states in an orthonormal
    basis of their span (C[:, s] are the coordinates of |s>>), plus the top
    and operator-seed boundary functionals expressed in that basis."""
    g = gram_matrix(n, 2.0)
    evals, evecs = np.linalg.eigh(g)
    keep = evals > 1e-12 * evals[-1]
    coords = (evecs[:, keep] * np.sqrt(evals[keep])).T  # (rank, n!)
    top, bottom_op = pauli_sum_weights(n, 2.0), traceless_seed_weights(n, 2.0)
    f_top = np.linalg.lstsq(coords.T, top, rcond=None)[0]
    g_op = np.linalg.lstsq(coords.T, bottom_op, rcond=None)[0]
    for name, vec, target in (("top", f_top, top), ("seed", g_op, bottom_op)):
        resid = np.max(np.abs(coords.T @ vec - target))
        if resid > 1e-8 * max(1.0, float(np.max(np.abs(target)))):
            raise FloatingPointError(f"{name} boundary not in the wire span ({resid:.2e})")
    return coords, f_top, g_op


#: truncation-error estimate above which a result is flagged
FLAG_THRESHOLD = 1e-6


@dataclass
class RtnResult:
    """Contraction value with its accumulated truncation-error estimate."""

    value: float
    truncation_error: float
    flagged: bool
    max_bond: int


class _BoundaryMps:
    """Wire-coordinate boundary MPS with a tracked orthogonality center."""

    def __init__(self, site_vectors: list[np.ndarray]):
        self.tensors = [v.reshape(1, -1, 1) for v in site_vectors]
        self.center: Optional[int] = None
        self.log_scale = 0.0
        self.trunc_error = 0.0
        self.max_bond = 1

    def _shift_right(self, c: int):
        a = self.tensors[c]
        dl, p, dr = a.shape
        q, r = np.linalg.qr(a.reshape(dl * p, dr))
        self.tensors[c] = q.reshape(dl, p, -1)
        self.tensors[c + 1] = np.tensordot(r, self.tensors[c + 1], axes=(1, 0))

    def _shift_left(self, c: int):
        a = self.tensors[c]
        dl, p, dr = a.shape
        q, r = np.linalg.qr(a.reshape(dl, p * dr).T)
        self.tensors[c] = q.T.reshape(-1, p, dr)
        self.tensors[c - 1] = np.tensordot(self.tensors[c - 1], r.T, axes=(2, 0))

    def move_center(self, i: int):
        if self.center is None:
            self.center = i
            return
        while self.center < i:
            self._shift_right(self.center)
            self.center += 1
        while self.center > i:
            self._shift_left(self.center)
            self.center -= 1

    def apply_two_site(self, i: int, kernel: np.ndarray, chi_max: int, threshold: float):
        """Apply the gate kernel at wires (i, i+1) and split by SVD with
        relative-threshold truncation."""
        self.move_center(i)
        theta = np.tensordot(self.tensors[i], self.tensors[i + 1], axes=(2, 0))
        dl, p, _, dr = theta.shape
        theta = np.matmul(kernel, theta.reshape(dl, p * p, dr))
        mat = theta.reshape(dl * p, p * dr)
        try:
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
        except np.linalg.LinAlgError:
            # rare gesdd failure: fall back to the eigensolver route
            w, v = np.linalg.eigh(mat.T @ mat)
            w = np.maximum(w[::-1], 0.0)
            v = v[:, ::-1]
            s = np.sqrt(w)
            nz = s > 0
            u = np.zeros((mat.shape[0], len(s)))
            u[:, nz] = mat @ v[:, nz] / s[nz]
            vt = v.T
        total = float(np.sum(s**2))
        if total == 0.0:
            raise FloatingPointError("contraction vanished (all singular values 0)")
        m = min(chi_max, int(np.count_nonzero(s > threshold * s[0])), len(s))
        m = max(m, 1)
        discarded = float(np.sum(s[m:] ** 2))
        self.trunc_error += math.sqrt(discarded / total)
        b_new = (s[:m, None] * vt[:m]).reshape(m, p, dr)
        self.log_scale += rescale_pow2(b_new, float(s[0]))
        self.tensors[i] = u[:, :m].reshape(dl, p, m)
        self.tensors[i + 1] = b_new
        self.center = i + 1
        self.max_bond = max(self.max_bond, m)

    def contract_with(self, site_vectors: list[np.ndarray]) -> float:
        v = np.ones(1)
        for a, w in zip(self.tensors, site_vectors):
            v = np.einsum("l,lsr,s->r", v, a, w, optimize=True)
        return unscale(float(v[0]), self.log_scale)


class _ExactState:
    """Dense wire-coordinate state; exact but limited to small r^N."""

    def __init__(self, site_vectors: list[np.ndarray]):
        self.r = len(site_vectors[0])
        self.n_sites = len(site_vectors)
        state = site_vectors[0]
        for v in site_vectors[1:]:
            state = np.multiply.outer(state, v)
        self.state = state
        self.log_scale = 0.0
        self.trunc_error = 0.0
        self.max_bond = self.r ** (self.n_sites // 2)

    def apply_kernel(self, i: int, kernel: np.ndarray):
        r = self.r
        a = r**i
        b = r ** (self.n_sites - 2 - i)
        out = np.matmul(kernel, self.state.reshape(a, r * r, b))
        peak = float(np.max(np.abs(out)))
        if peak == 0.0:
            raise FloatingPointError("contraction vanished")
        self.log_scale += rescale_pow2(out, peak)
        self.state = out.reshape((r,) * self.n_sites)

    def contract_with(self, site_vectors: list[np.ndarray]) -> float:
        v = self.state
        for w in reversed(site_vectors):
            v = v @ w
        return unscale(float(v), self.log_scale)


#: largest dense wire-coordinate state the exact engine will allocate
_EXACT_ENTRY_CAP = 9_000_000


class BrickworkContraction:
    """Bottom-to-top sweep over the replica lattice of ``spec``, a brickwork
    chain with per_gate_support noise.

    ``engine='exact'`` contracts the full wire-coordinate state (possible up
    to r^N ~ 9e6 entries, e.g. N <= 6 for k = 2); ``'mps'`` uses the
    truncated boundary MPS; ``'auto'`` picks exact whenever it fits.
    """

    def __init__(
        self,
        spec: CircuitSpec,
        k: int = 2,
        chi_mps: int = 256,
        threshold: float = 1e-12,
        lightcone: bool = True,
        engine: str = "auto",
    ):
        if spec.geometry != "chain" or spec.noise_placement != "per_gate_support":
            raise ValueError("the rtn engine contracts 1D chains with per_gate_support noise, "
                             f"not {spec.geometry} with {spec.noise_placement}")
        if k not in (1, 2):
            raise ValueError("replica contraction supports k in {1, 2}")
        self.spec = spec
        self.k = k
        self.chi_mps = chi_mps
        self.threshold = threshold
        self.lightcone = lightcone
        n_sites, n = spec.n_sites, 2 * k
        w_noisy = noisy_weingarten(n, 4.0, spec.gamma)
        coords, self.f_top, self.g_op = _wire_basis(n)
        rank = coords.shape[0]
        if engine == "auto":
            engine = "exact" if rank**n_sites <= _EXACT_ENTRY_CAP else "mps"
        if engine not in ("exact", "mps"):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        site_vectors = [coords[:, 0].copy() for _ in range(n_sites)]
        site_vectors[spec.initial_site] = self.g_op.copy()
        if engine == "exact":
            if rank**n_sites > _EXACT_ENTRY_CAP:
                raise ValueError(
                    f"exact engine needs {rank}^{n_sites} entries; use engine='mps'"
                )
            self.mps = _ExactState(site_vectors)
        else:
            self.mps = _BoundaryMps(site_vectors)
        # kernel[(s' p'), (s p)] of one gate in wire coordinates
        y = np.einsum("sa,pa,ad->spad", coords, coords, w_noisy)
        y = np.einsum("spad,ud,vd->spuv", y, coords, coords, optimize=True)
        self._kernel = y.reshape(rank * rank, rank * rank)
        self.cone = {spec.initial_site}
        self.op_touched = False
        self.depth_done = 0

    def advance(self, n_layers: int = 1):
        for _ in range(n_layers):
            for (i, j) in layer_supports(self.spec, self.depth_done):
                if self.lightcone and self.cone.isdisjoint((i, j)):
                    continue
                self.cone.update((i, j))
                if self.spec.initial_site in (i, j):
                    self.op_touched = True
                if self.engine == "exact":
                    self.mps.apply_kernel(i, self._kernel)
                else:
                    self.mps.apply_two_site(i, self._kernel, self.chi_mps, self.threshold)
            self.depth_done += 1

    def value(self) -> float:
        vectors = [self.f_top] * self.spec.n_sites
        if not self.op_touched:
            # the raw seed is outside the permutation-state span; its direct
            # top contraction is q^(2k-2) = 4^(k-1) exactly, not f.g_op
            target = 4.0 ** (self.k - 1)
            vectors[self.spec.initial_site] = self.g_op * (target / float(self.g_op @ self.g_op))
        return self.mps.contract_with(vectors)

    def result(self) -> RtnResult:
        err = self.mps.trunc_error
        return RtnResult(
            value=self.value(),
            truncation_error=err,
            flagged=err > FLAG_THRESHOLD,
            max_bond=self.mps.max_bond,
        )


def contract_brickwork_series(
    spec: CircuitSpec,
    depths: Iterable[int],
    k: int = 2,
    chi_mps: int = 256,
    threshold: float = 1e-12,
) -> dict[int, RtnResult]:
    """Ensemble-averaged nu_k of a noisy brickwork chain (per-gate-support
    noise) at each of several depths in [0, spec.depth], from one
    bottom-to-top sweep, contracted up to the reported MPS truncation error."""
    depths = sorted(set(int(t) for t in depths))
    if depths and not 0 <= depths[0] <= depths[-1] <= spec.depth:
        raise ValueError(f"depths {depths} must lie in [0, {spec.depth}]")
    eng = BrickworkContraction(spec, k, chi_mps, threshold)
    out = {}
    for t in depths:
        eng.advance(t - eng.depth_done)
        out[t] = eng.result()
    return out
