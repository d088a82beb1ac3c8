"""Circuit geometries, Haar gate sampling, noise placement and seeding.

Supported geometries:

* ``chain``  -- 1D brickwork: nearest-neighbour pairs (0,1),(2,3),... on even
  layers and (1,2),(3,4),... on odd layers, open boundaries.
* ``grid``   -- 2D brickwork on an Lx x Ly lattice (row-major site order);
  layers cycle through horizontal-even, horizontal-odd, vertical-even,
  vertical-odd pairings, open boundaries.
* ``rmpu``   -- staircase of overlapping (r+1)-site Haar blocks, one gate per
  layer on sites [l, l+r], m = N - r gates in total.

Noise placements:

* ``per_qubit_per_layer`` -- one single-qubit depolarizing channel of rate
  gamma on every qubit after each layer, so the worst-case fidelity factor is
  exactly (1-gamma)^(N t) ("error per cycle" gamma*N).
* ``per_gate_support``    -- one joint depolarizing channel of rate gamma on
  the full support of each gate, immediately after it (the staircase/RMPU
  convention; fidelity (1-gamma)^{#gates}).

``gamma = 0`` is the noiseless circuit under either placement.

A realization (:func:`iter_circuit`) draws all its gates from its own stream
as one stack, in (layer, gate) order, and checks them for unitarity at once;
each layer then builds the transfer matrices of the gates it applies in one
Pauli transform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass
from functools import lru_cache, reduce
from multiprocessing import get_context
from typing import Iterator, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .opsim import (
    GateMatrix,
    apply_depolarizing,
    apply_depolarizing_support,
    apply_gate,
    init_local_pauli,
    pauli_transfer_matrix,
)
from .pauli import PauliCoefficients

GEOMETRIES = ("chain", "grid", "rmpu")
NOISE_PLACEMENTS = ("per_qubit_per_layer", "per_gate_support")


@dataclass
class CircuitSpec:
    """Full description of one circuit ensemble point."""

    geometry: str = "chain"
    n_sites: int = 0
    depth: int = 1  # layers; an rmpu circuit sets it to N - r
    gamma: float = 0.0
    noise_placement: Optional[str] = None
    initial_site: Optional[int] = None
    initial_axis: str = "Z"
    master_seed: int = 0
    r: Optional[int] = None  # rmpu overlap
    lx: Optional[int] = None  # grid dimensions
    ly: Optional[int] = None

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.r is not None and self.geometry != "rmpu":
            raise ValueError(f"r applies to rmpu circuits only, not to {self.geometry}")
        if (self.lx, self.ly) != (None, None) and self.geometry != "grid":
            raise ValueError(f"lx and ly apply to grid circuits only, not to {self.geometry}")
        if self.geometry == "grid":
            if not (self.lx and self.ly):
                raise ValueError("grid geometry needs lx and ly")
            self.n_sites = self.lx * self.ly
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        if self.geometry == "rmpu":
            if self.r is None or not 1 <= self.r <= self.n_sites - 1:
                raise ValueError(f"rmpu needs 1 <= r <= N-1, got r={self.r}")
            self.depth = self.n_sites - self.r
        elif self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [0, 1]")
        if self.noise_placement is None:
            self.noise_placement = (
                "per_gate_support" if self.geometry == "rmpu" else "per_qubit_per_layer"
            )
        if self.noise_placement not in NOISE_PLACEMENTS:
            raise ValueError(f"unknown noise placement {self.noise_placement!r}")
        if self.initial_site is None:
            self.initial_site = self._default_initial_site()
        if not 0 <= self.initial_site < self.n_sites:
            raise ValueError(f"initial_site {self.initial_site} out of range")
        if self.initial_axis not in ("X", "Y", "Z"):
            raise ValueError(f"initial_axis must be X/Y/Z, got {self.initial_axis!r}")

    def _default_initial_site(self) -> int:
        if self.geometry == "grid":
            return (self.ly // 2) * self.lx + self.lx // 2
        if self.geometry == "rmpu":
            # inside the first staircase block, where the analytic boundary
            # vector applies
            return 0
        return self.n_sites // 2

    @classmethod
    def from_dict(cls, d: dict) -> "CircuitSpec":
        return cls(**json_fields(cls, d, "circuit"))


def json_fields(cls, d, what: str) -> dict:
    """The fields of dataclass ``cls`` that JSON object ``d`` sets, each checked
    against its annotated type; a JSON integer is stored as a float where a
    float is wanted."""
    if not isinstance(d, dict):
        kind = "null" if d is None else type(d).__name__
        raise ValueError(f"{what} must be a JSON object, not {kind}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    out = {}
    for key, value in d.items():
        out[key] = _as_json_of(value, hints[key])
        if out[key] is _WRONG_TYPE:
            raise ValueError(
                f"{what}.{key} must be {_json_type(hints[key])}, not {json.dumps(value)}"
            )
    return out


_WRONG_TYPE = object()


def _as_json_of(value, hint):
    """A decoded JSON value as a field of type ``hint`` stores it (an integer
    becomes a float), or ``_WRONG_TYPE``."""
    if get_origin(hint) is Union:  # Optional[X] is Union[X, None]
        for h in get_args(hint):
            stored = _as_json_of(value, h)
            if stored is not _WRONG_TYPE:
                return stored
        return _WRONG_TYPE
    if get_origin(hint) is list:
        if type(value) is not list:
            return _WRONG_TYPE
        items = [_as_json_of(v, get_args(hint)[0]) for v in value]
        return _WRONG_TYPE if any(v is _WRONG_TYPE for v in items) else items
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is hint or (is_dataclass(hint) and type(value) is dict):
        return value
    return _WRONG_TYPE


def _json_type(hint) -> str:
    if get_origin(hint) is Union:
        return " or ".join(_json_type(h) for h in get_args(hint))
    if get_origin(hint) is list:
        return f"a list of {_json_type(get_args(hint)[0])}"
    if is_dataclass(hint):
        return "a JSON object"
    return "null" if hint is type(None) else hint.__name__


def sample_haar_unitary(
    dim: int, rng: np.random.Generator, count: Optional[int] = None
) -> np.ndarray:
    """Haar-random unitary via a Ginibre sample + QR with phase correction.

    With ``count``, a (count, dim, dim) stack from one draw, one stacked QR
    and one phase fix; the stream is read in the same order, so it equals
    ``count`` single draws in turn, bit for bit.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    g = rng.standard_normal((2, dim, dim) if count is None else (count, 2, dim, dim))
    z = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def layer_supports(spec: CircuitSpec, layer: int) -> list[tuple[int, ...]]:
    """Ordered gate supports of one layer."""
    if not 0 <= layer < spec.depth:
        raise ValueError(f"layer {layer} out of range (depth {spec.depth})")
    if spec.geometry == "chain":
        start = 0 if layer % 2 == 0 else 1
        return [(i, i + 1) for i in range(start, spec.n_sites - 1, 2)]
    if spec.geometry == "rmpu":
        return [tuple(range(layer, layer + spec.r + 1))]
    # grid: cycle H-even, H-odd, V-even, V-odd
    lx, ly = spec.lx, spec.ly
    kind = layer % 4
    out = []
    if kind in (0, 1):  # horizontal pairs within each row
        start = 0 if kind == 0 else 1
        for y in range(ly):
            for x in range(start, lx - 1, 2):
                out.append((y * lx + x, y * lx + x + 1))
    else:  # vertical pairs within each column
        start = 0 if kind == 2 else 1
        for x in range(lx):
            for y in range(start, ly - 1, 2):
                out.append((y * lx + x, (y + 1) * lx + x))
    return out


def gates_per_layer(spec: CircuitSpec) -> list[int]:
    return [len(layer_supports(spec, t)) for t in range(spec.depth)]


def circuit_fidelity(spec: CircuitSpec, depth: Optional[int] = None) -> float:
    """Worst-case fidelity factor accumulated after ``depth`` layers.

    per_qubit_per_layer: (1-gamma)^(N*t); per_gate_support: (1-gamma)^{#gates}.
    """
    t = spec.depth if depth is None else depth
    if spec.gamma == 0.0:
        return 1.0
    if spec.noise_placement == "per_qubit_per_layer":
        return (1.0 - spec.gamma) ** (spec.n_sites * t)
    n_gates = sum(gates_per_layer(spec)[:t])
    return (1.0 - spec.gamma) ** n_gates


def realization_rng(master_seed: int, realization: int) -> np.random.Generator:
    """Independent, reproducible stream for one circuit realization."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(realization)]))


def iter_circuit(spec: CircuitSpec, realization: int) -> Iterator[tuple[int, PauliCoefficients]]:
    """Evolve the initial local Pauli layer by layer, yielding (t, coefficients).

    The yielded state is the live object; copy it if it must outlive the
    iteration.  All gates of the realization are drawn first, in (layer,
    gate) order, as one stack from the realization stream, and checked for
    unitarity at once; identical (spec, realization) reproduce identical
    circuits.  Each layer then builds the transfer matrices of the gates it
    applies in one transform and applies them one by one.

    Gates whose support lies outside the causal cone of the initial site are
    drawn but not applied: on the cone's complement the operator is the
    identity, so the gate conjugation and any per-gate noise act as exact
    identities.  This keeps out-of-cone Pauli coefficients exactly zero
    instead of accumulating rounding noise.  The cone does not depend on the
    draws, and since a layer's supports are disjoint, a gate of the layer is
    applied iff it meets the cone before it.

    ``per_qubit_per_layer`` noise on a site that a gate of the layer acts on
    is folded into that gate: the rows of its transfer matrix are scaled by
    the Kronecker power of [1, 1-g, 1-g, 1-g].  This is exact, since a
    layer's supports are disjoint, so the channel on a gate's site commutes
    with every other gate of the layer.  Only the sites no gate touched in
    the layer get a separate depolarizing pass.
    """
    layers = [layer_supports(spec, t) for t in range(spec.depth)]
    supports = [support for layer in layers for support in layer]
    width = len(supports[0])
    rng = realization_rng(spec.master_seed, realization)
    gates = GateMatrix(supports, sample_haar_unitary(2**width, rng, len(supports)))
    op = init_local_pauli(spec.n_sites, spec.initial_site, spec.initial_axis)
    per_site_noise = spec.gamma > 0.0 and spec.noise_placement == "per_qubit_per_layer"
    per_gate_noise = spec.gamma > 0.0 and spec.noise_placement == "per_gate_support"
    cone = {spec.initial_site}
    first = 0
    for t, layer in enumerate(layers):
        idle = set(cone)
        applied = [first + i for i, support in enumerate(layer) if not cone.isdisjoint(support)]
        first += len(layer)
        if applied:
            rs = pauli_transfer_matrix(gates.matrices[applied])
            if per_site_noise:
                rs *= _depolarized_rows(spec.gamma, width)[:, None]
            for i, r in zip(applied, rs):
                support = gates.supports[i]
                cone.update(support)
                idle.difference_update(support)
                apply_gate(op, support, r)
                if per_gate_noise:
                    apply_depolarizing_support(op, spec.gamma, support)
            del rs, r  # free the stack (8 MB at w=5) before the next layer builds one
        if per_site_noise and idle:
            # noise on every idle qubit; on sites where the operator is still
            # the identity the channel is an exact no-op, so only cone sites
            apply_depolarizing(op, spec.gamma, sorted(idle))
        yield t + 1, op


@lru_cache(maxsize=None)
def _depolarized_rows(gamma: float, width: int) -> np.ndarray:
    """Row factors of a width-site transfer matrix followed by a depolarizing
    channel of rate gamma on each of its sites (site 0 = lowest digit)."""
    rows = reduce(np.kron, [np.array([1.0, 1.0 - gamma, 1.0 - gamma, 1.0 - gamma])] * width)
    rows.flags.writeable = False
    return rows


def map_ordered(fn, jobs: list, threads: int) -> list:
    """``[fn(j) for j in jobs]``, spread over ``threads`` spawned processes.

    Each realization draws from its own seeded stream, so the results do not
    depend on how the jobs are scheduled.
    """
    if threads <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with get_context("spawn").Pool(threads) as pool:
        return pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * threads)))


def run_circuit(spec: CircuitSpec, realization: int) -> PauliCoefficients:
    """Heisenberg-evolve the initial operator through the full circuit."""
    for _, op in iter_circuit(spec, realization):
        pass
    return op
