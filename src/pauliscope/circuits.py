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
it then builds the transfer matrices of every gate it applies in as few
Pauli transforms as a fixed size cap allows: one for a chain or a grid, one
per gate for staircase blocks of four or more sites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass
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
#: realigned-matrix entries (16^w per w-site gate) one transfer-matrix build
#: may take, with at least one gate per build: a chain or grid builds every
#: gate of a realization at once, while a staircase of 4 or more sites keeps
#: one gate per build, whose 5-site transform alone peaks near 50 MB
_BUILD_ENTRY_CAP = 4**8


@dataclass
class CircuitSpec:
    """Full description of one circuit ensemble point."""

    geometry: str = "chain"
    n_sites: int = 0
    depth: int = 1  # layers; an rmpu circuit sets it to N - r
    gamma: float = 0.0
    noise_placement: Optional[str] = None
    initial_site: Optional[int] = None
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
            if self.n_sites not in (0, self.lx * self.ly):
                raise ValueError(f"a {self.lx}x{self.ly} grid has {self.lx * self.ly} sites, "
                                 f"not n_sites={self.n_sites}; leave n_sites out")
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
        if self.master_seed < 0:
            raise ValueError(f"master_seed={self.master_seed} must be >= 0")

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


def gate_plan(spec: CircuitSpec) -> tuple[list[tuple[int, ...]], list[tuple[list, list]]]:
    """(supports, plan): every gate's support in (layer, gate) order, and per
    layer the indices into ``supports`` of the gates it applies with the cone
    sites they leave idle.

    Gates whose support lies outside the causal cone of the initial site are
    not applied: on the cone's complement the operator is the identity, so the
    gate conjugation and any per-gate noise act as exact identities.  This
    keeps out-of-cone Pauli coefficients exactly zero instead of accumulating
    rounding noise.  The cone does not depend on the draws, and since a
    layer's supports are disjoint, a gate of the layer is applied iff it meets
    the cone before it.
    """
    layers = [layer_supports(spec, t) for t in range(spec.depth)]
    supports = [support for layer in layers for support in layer]
    cone, plan, first = {spec.initial_site}, [], 0
    for layer in layers:
        applied = [first + i for i, support in enumerate(layer) if not cone.isdisjoint(support)]
        first += len(layer)
        touched = {s for i in applied for s in supports[i]}
        plan.append((applied, sorted(cone - touched)))
        cone |= touched
    return supports, plan


def circuit_fidelity(spec: CircuitSpec, depth: Optional[int] = None) -> float:
    """Worst-case fidelity factor accumulated after ``depth`` layers.

    per_qubit_per_layer: (1-gamma)^(N*t); per_gate_support: (1-gamma)^{#gates}.
    """
    t = spec.depth if depth is None else depth
    if spec.gamma == 0.0:
        return 1.0
    if spec.noise_placement == "per_qubit_per_layer":
        return (1.0 - spec.gamma) ** (spec.n_sites * t)
    n_gates = sum(len(layer_supports(spec, layer)) for layer in range(t))
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
    circuits.  The gates to apply and the idle sites of every layer come from
    :func:`gate_plan` (gates outside the causal cone are drawn but not
    applied), then the transfer matrices of the applied gates are built in
    applied order, as many per transform as ``_BUILD_ENTRY_CAP`` allows, and
    applied one by one.  ``pauli_transform`` gives each operator of a stack
    the same bits whatever the stack size, so the grouping changes no output.

    Noise of either placement is folded into the gates: its channel right
    after a gate rescales exactly the strings that are non-identity on the
    support, so gate and channel are the transfer matrix R with its rows
    scaled by the channel applied to an all-ones vector on the gate's sites.
    This is exact, since a layer's supports are disjoint, so the channel on
    a gate's sites commutes with every other gate of the layer.  Only
    per-qubit noise on the sites no gate touched in the layer gets a pass of
    its own.
    """
    supports, plan = gate_plan(spec)
    width = len(supports[0])
    rng = realization_rng(spec.master_seed, realization)
    gates = GateMatrix(supports, sample_haar_unitary(2**width, rng, len(supports)))
    op = init_local_pauli(spec.n_sites, spec.initial_site, "Z")
    per_site = spec.noise_placement == "per_qubit_per_layer"
    channel = apply_depolarizing if per_site else apply_depolarizing_support
    rows = channel(PauliCoefficients(width, np.ones(4**width)), spec.gamma, range(width)).values
    order = [i for applied, _ in plan for i in applied]
    per_build = max(1, _BUILD_ENTRY_CAP // 16**width)
    done = 0
    for t, (applied, idle) in enumerate(plan):
        for i in applied:
            if done % per_build == 0:
                rs = None  # free the last stack (8 MB at w=5) before building the next
                rs = pauli_transfer_matrix(gates.matrices[order[done:done + per_build]])
                rs *= rows[:, None]
            apply_gate(op, gates.supports[i], rs[done % per_build])
            done += 1
        if per_site and idle:
            # noise on every idle qubit; on sites where the operator is still
            # the identity the channel is an exact no-op, so only cone sites
            apply_depolarizing(op, spec.gamma, idle)
        yield t + 1, op


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
