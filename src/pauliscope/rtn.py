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

The 2D network is contracted bottom to top by one of two wire states, each
handed the gate (C, Wg~) and building only what it applies.  Wire states are
kept in an orthonormal basis of the span of the single-site permutation
states (rank 14 for 2k = 4, well below (2k)!): the Gram matrix G(q) is rank
deficient there, and label-basis bonds would otherwise waste bond dimension
on null directions that cannot influence any contraction.

The exact state, used while the full r^N state has at most 9e6 entries
(N <= 6 at k = 2, N <= 23 at k = 1), holds the gate's (rank^2, rank^2)
kernel K = A (Wg~ A^T), A[(s, p), a] = C[s, a] C[p, a], as its two factors:
K has rank at most (2k)!, so two thin products cost a quarter of one dense
one.  It keeps each gate's output on its (2k)!-dimensional leg, with A
applied only when a later gate needs those wires, and each untouched site as
its vector, so at N = 6 its largest tensor has r^4 (2k)! entries, not r^N.

The boundary MPS holds (C, Wg~) and never forms A: it builds the gate's leg
tensor X = Wg~ A^T theta_in, (2k)! legs wide, from its two site tensors, and
splits the two-site tensor theta = A X by a seeded randomized range finder
(Halko, Martinsson & Tropp, arXiv:0909.4061) without forming theta: each
product runs through C and X, and |theta|^2 comes from C^T C and X.  Its
Gaussian test matrix is drawn once per shape, and its power iterations carry
the span from product to product by shifted CholeskyQR, so a split makes one
Householder QR, for the isometry it keeps.
Singular values below about 1e-8 s_0 are dropped; the weight dropped, by
that floor, the bond cap or the range finder's miss, is read off the split's
own rows, so the accumulated truncation error stays an honest estimate of
the error of the reported value.

Only the unnormalized average is polynomial in the gates, so with noise
the contraction returns the nu_k average (equal to mu_k at gamma = 0
where the norm is deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Optional

import numpy as np

from .circuits import CircuitSpec, gate_plan
from .rmpu import rescale_pow2, unscale
from .weingarten import (
    _tables,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
)


@lru_cache(maxsize=None)
def _wire_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, f_top, g_op): coordinates of permutation states in an orthonormal
    basis of their span (C[:, s] are the coordinates of |s>>), plus the top
    and operator-seed boundary functionals expressed in that basis."""
    tb = _tables(n)
    g = 2.0 ** tb.cycles[tb.reps][tb.pairs(slice(None))[0]]  # G_{p,s}(2) = 2^#(p^-1 s)
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


def _leg_product(c: np.ndarray, x: np.ndarray, y: np.ndarray, transpose: bool = False):
    """theta @ y, or theta^T @ y, as three thin products through C and X,
    where theta[(l, s), (p, m)] = sum_b C[s, b] C[p, b] X[b, l, m]."""
    nf, dl, dr = x.shape
    r, cols = c.shape[0], y.shape[1]
    if transpose:  # y rows (l, s)
        w = np.tensordot(c, y.reshape(dl, r, cols), axes=(0, 1))
        return (c @ (x.transpose(0, 2, 1) @ w).reshape(nf, -1)).reshape(r * dr, cols)
    w = (c.T @ y.reshape(r, dr * cols)).reshape(nf, dr, cols)  # y rows (p, m)
    out = (c @ (x @ w).reshape(nf, -1)).reshape(r, dl, cols)
    return out.transpose(1, 0, 2).reshape(dl * r, cols)


@lru_cache(maxsize=None)
def _omega(rows: int, width: int) -> np.ndarray:
    """The range finder's read-only Gaussian test matrix of a shape, drawn once
    from a fixed local seed (never the global random state)."""
    omega = np.random.default_rng(0).standard_normal((rows, width))
    omega.flags.writeable = False
    return omega


def _span(y: np.ndarray) -> np.ndarray:
    """A well-conditioned basis of y's columns by one pass of shifted CholeskyQR
    (Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa, SIAM J. Sci. Comput.
    42, 2020): the shift s = 11 (mn + n(n+1)) eps tr(y^T y) keeps the Cholesky
    factor R of y^T y + s I from breaking down, even where y is rank deficient."""
    m, n = y.shape
    gram = y.T @ y
    gram[np.diag_indices(n)] += 11 * (m * n + n * (n + 1)) * np.finfo(float).eps * np.trace(gram)
    return y @ np.linalg.inv(np.linalg.cholesky(gram).T)


def _split(c: np.ndarray, x: np.ndarray, chi_max: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(left, right, s_0, discarded): theta (``_leg_product``) ~ left @ right
    with ``left`` an isometry of at most ``chi_max`` columns, the largest
    singular value s_0, and the discarded weight |theta - left @ right|_F^2 /
    |theta|_F^2; X holds one (dl, dr) matrix per leg, and theta is never formed.

    Q is the Householder QR of theta @ Omega, for a Gaussian Omega of chi_max +
    24 columns from a fixed local seed (``_omega``: drawn once per shape, never
    from the global random state), after two power iterations, or none when
    Omega has as many columns as theta's smaller side and Q spans theta's
    range.  The power iterations only carry a span from one product to the
    next, so their bases come from shifted CholeskyQR (``_span``), and Q is
    the split's one QR.  Of the rows v^T B of B = Q^T theta, one per
    eigenvector v of B B^T, the top chi_max whose measured weight exceeds
    eps * w_0 are kept: eigenvalues resolve only to that floor.  The discarded
    weight is the dropped rows' weight plus the range finder's miss
    |theta|^2 - |B|^2 (0 when Q spans), where |theta|^2 = sum((C^T C)^2 *
    X X^T) entrywise.
    """
    (nf, dl, dr), r = x.shape, c.shape[0]
    gram, legs, shape = c.T @ c, x.reshape(nf, -1), (dl * r, r * dr)
    total = float(np.vdot(gram * gram, legs @ legs.T))
    if not 0.0 < total < math.inf:
        raise FloatingPointError(f"the contraction is not finite or vanished (|theta|^2 {total})")
    width = min(chi_max + 24, *shape)
    y = _leg_product(c, x, _omega(shape[1], width))
    if width < min(shape):
        for _ in range(2):
            y = _leg_product(c, x, _span(_leg_product(c, x, _span(y), True)))
    q = np.linalg.qr(y)[0]
    b = _leg_product(c, x, q, True).T
    w, v = np.linalg.eigh(b @ b.T)
    v = v[:, ::-1]  # largest first
    rows = v.T @ b
    weight = np.einsum("ij,ij->i", rows, rows)
    keep = weight > np.finfo(float).eps * w[-1]
    keep &= np.cumsum(keep) <= chi_max
    miss = 0.0 if width == min(shape) else max(0.0, total - float(weight.sum()))
    discarded = (miss + float(weight[~keep].sum())) / total
    return q @ v[:, keep], rows[keep], math.sqrt(w[-1]), discarded


class _BoundaryMps:
    """Wire-coordinate boundary MPS with a tracked orthogonality center; each
    gate (C, Wg~) is applied on its leg and split to at most ``chi_max`` bonds."""

    def __init__(self, site_vectors: list[np.ndarray], gate: tuple[np.ndarray, np.ndarray],
                 chi_max: int):
        self.gate = gate
        self.chi_max = chi_max
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

    def apply_two_site(self, i: int):
        """Apply the gate (C, Wg~) at wires (i, i+1) and split the result by
        ``_split`` into at most ``chi_max`` bonds, counting all dropped weight."""
        self.move_center(i)
        c, w_noisy = self.gate
        # the leg tensor X[b] = sum_a Wg~[b, a] (C^T T_i)[a] (C^T T_i+1)[a]
        y = np.tensordot(c, self.tensors[i], (0, 1)) @ np.tensordot(c, self.tensors[i + 1], (0, 1))
        x = np.tensordot(w_noisy, y, (1, 0))
        left, right, s0, discarded = _split(c, x, self.chi_max)
        (_, dl, dr), p, m = x.shape, c.shape[0], left.shape[1]
        self.trunc_error += math.sqrt(discarded)
        self.log_scale += rescale_pow2(right, s0)
        self.tensors[i] = left.reshape(dl, p, m)
        self.tensors[i + 1] = right.reshape(m, p, dr)
        self.center = i + 1
        self.max_bond = max(self.max_bond, m)

    def contract_with(self, site_vectors: list[np.ndarray]) -> float:
        v = np.ones(1)
        for a, w in zip(self.tensors, site_vectors):
            v = np.einsum("l,lsr,s->r", v, a, w, optimize=True)
        return unscale(float(v[0]), self.log_scale)


class _ExactState:
    """Exact wire-coordinate state, held in factor coordinates.

    ``state`` is one dense tensor whose axes are the legs ``(sites, E)`` in
    site order; the full r^N state is E applied to each leg.  A leg is one
    wire of dimension r (E is None), a site no gate has reached, of
    dimension 1 (E is its site vector as an r x 1 column), or a gate's output
    on two sites, of dimension (2k)! (E = A, the kernel's left factor).  A
    gate expands only the legs that hold its sites, so at N = 6 the largest
    tensor has r^4 (2k)! entries, not r^N."""

    def __init__(self, site_vectors: list[np.ndarray], gate: tuple[np.ndarray, np.ndarray]):
        c, w_noisy = gate
        # the factors (A, Wg~ A^T) of the gate's kernel in wire coordinates
        a = np.einsum("sa,pa->spa", c, c).reshape(c.shape[0] ** 2, -1)
        self.kernel = (a, w_noisy @ a.T)
        self.r = len(site_vectors[0])
        self.n_sites = len(site_vectors)
        self.legs = [((s,), v.reshape(-1, 1)) for s, v in enumerate(site_vectors)]
        self.state = np.ones((1,) * self.n_sites)
        self.log_scale = 0.0
        self.trunc_error = 0.0
        self.max_bond = self.r ** (self.n_sites // 2)

    def _leg(self, site: int) -> int:
        return next(p for p, (sites, _) in enumerate(self.legs) if site in sites)

    def _apply(self, p: int, width: int, m: np.ndarray, dims: tuple[int, ...]):
        """Apply m to the ``width`` axes from axis p on; they become axes ``dims``."""
        shape = self.state.shape
        post = math.prod(shape[p + width:])
        x = self.state.reshape(-1, math.prod(shape[p:p + width]), post)
        # one 2-D product, not a batch of matrix-vector products
        out = x[:, :, 0] @ m.T if post == 1 else m @ x
        self.state = out.reshape(shape[:p] + dims + shape[p + width:])

    def apply_kernel(self, i: int):
        # expand the legs of i + 1, then of i, to wires: that keeps i's axis
        for p in (self._leg(i + 1), self._leg(i)):
            sites, e = self.legs[p]
            if e is not None:
                self._apply(p, 1, e, (self.r,) * len(sites))
                self.legs[p:p + 1] = [((s,), None) for s in sites]
        p = self._leg(i)  # wires i and i + 1 are the axes p and p + 1
        left, right = self.kernel
        self._apply(p, 2, right, (len(right),))
        self.legs[p:p + 2] = [((i, i + 1), left)]
        # a NaN anywhere makes both numpy's max and min NaN
        peak = max(float(self.state.max()), -float(self.state.min()))
        if not 0.0 < peak < math.inf:
            raise FloatingPointError(f"the contraction is not finite or vanished (peak {peak})")
        self.log_scale += rescale_pow2(self.state, peak)

    def contract_with(self, site_vectors: list[np.ndarray]) -> float:
        v = self.state
        for sites, e in reversed(self.legs):
            w = reduce(np.kron, [site_vectors[s] for s in sites])
            v = v @ (w if e is None else e.T @ w)
        return unscale(float(v), self.log_scale)


#: the exact engine is picked when the full r^N wire state has at most this
#: many entries (N <= 6 at k = 2, N <= 23 at k = 1); its factored state stays
#: far smaller
_EXACT_ENTRY_CAP = 9_000_000


def contract_brickwork_series(
    spec: CircuitSpec,
    depths: Iterable[int],
    k: int = 2,
    chi_mps: int = 256,
) -> dict[int, RtnResult]:
    """Ensemble-averaged nu_k (k = 1, 2) of a brickwork chain with
    per-gate-support noise at each of several depths in [0, spec.depth], from
    one bottom-to-top sweep, contracted up to the reported MPS truncation error.

    The exact state runs while r^N <= ``_EXACT_ENTRY_CAP``, the boundary MPS
    of at most ``chi_mps`` bonds beyond.  The gates applied are those of
    ``gate_plan``: a gate outside the causal cone of the initial site is
    skipped, since its kernel fixes the e x e it acts on.  At a depth where no
    gate has touched the seed, the value is the bare Pauli's exact
    nu_k = D^(2k-2) = 4^(N(k-1)): the raw seed lies outside the wire span.
    """
    depths = sorted(set(int(t) for t in depths))
    if depths and not 0 <= depths[0] <= depths[-1] <= spec.depth:
        raise ValueError(f"depths {depths} must lie in [0, {spec.depth}]")
    # k = 3 fits (a chi = 64 split takes about 90 MB) but is unchecked, and
    # truncation already breaks what the noiseless circuit conserves at k = 2
    if k not in (1, 2):
        raise ValueError(f"the replica contraction evaluates k in {{1, 2}}, not {k}")
    n_sites, n = spec.n_sites, 2 * k
    coords, f_top, g_op = _wire_basis(n)
    gate = (coords, noisy_weingarten(n, 4.0, spec.gamma, rows=slice(None)))
    site_vectors = [coords[:, 0].copy() for _ in range(n_sites)]
    site_vectors[spec.initial_site] = g_op.copy()
    if coords.shape[0] ** n_sites <= _EXACT_ENTRY_CAP:
        state = _ExactState(site_vectors, gate)
        step = state.apply_kernel
    else:
        state = _BoundaryMps(site_vectors, gate, chi_mps)
        step = state.apply_two_site
    top, bare = [f_top] * n_sites, 4.0 ** (n_sites * (k - 1))
    supports, plan = gate_plan(spec)
    touched, done, out = False, 0, {}
    for t in depths:
        for applied, _ in plan[done:t]:
            for i in applied:
                step(supports[i][0])
            touched |= bool(applied)
        done = t
        err = state.trunc_error
        out[t] = RtnResult(
            value=state.contract_with(top) if touched else bare,
            truncation_error=err,
            flagged=err > FLAG_THRESHOLD,
            max_bond=state.max_bond,
        )
    return out
