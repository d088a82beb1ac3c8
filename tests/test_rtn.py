import numpy as np
import pytest

from pauliscope.circuits import CircuitSpec
from pauliscope.rmpu import global_haar_moment, rmpu_moment_exact
from pauliscope.rtn import BrickworkContraction, _wire_basis, contract_brickwork_series
from pauliscope.weingarten import (
    _tables,
    gram_matrix,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
)


def chain(n_sites, depth=1, gamma=0.0, **extra):
    """The brickwork chain the contraction evaluates: per-gate-support noise."""
    return CircuitSpec(n_sites=n_sites, depth=depth, gamma=gamma,
                       noise_placement="per_gate_support", **extra)


def perm_index(image):
    return _tables(len(image)).images.tolist().index(list(image))


def plaquette_j(k, gamma):
    """J[s, p, r] = sum_d Wg~_{r,d}(4, gamma) G_{d,s}(2) G_{d,p}(2)."""
    w = noisy_weingarten(2 * k, 4.0, gamma)
    g = gram_matrix(2 * k, 2.0)
    return np.einsum("rd,ds,dp->spr", w, g, g)


def test_plaquette_lightcone_identity():
    # J[e, e, r] = delta_{e,r}: the gate kernel fixes the state e x e
    for k in (1, 2):
        c_e = _wire_basis(2 * k)[0][:, 0]
        ee = np.kron(c_e, c_e)
        for gamma in (0.0, 0.1, 0.7):
            kernel = BrickworkContraction(chain(2, gamma=gamma), k)._kernel
            assert np.max(np.abs(kernel @ ee - ee)) < 1e-12 * np.max(np.abs(ee))


def test_plaquette_uniform_weights():
    j = plaquette_j(2, 0.1)
    images = _tables(4).images
    for idx, image in enumerate(images):
        n_moved = np.count_nonzero(image != np.arange(4))
        assert abs(j[idx, idx, idx] - 0.9**n_moved) < 1e-12
    i_tau = perm_index((1, 0, 3, 2))
    assert abs(j[i_tau, i_tau, i_tau] - 0.6561) < 1e-12
    j0 = plaquette_j(2, 0.0)
    assert np.allclose(np.einsum("iii->i", j0), 1.0, atol=1e-12)
    # the gate kernel maps |s>> x |p>> to sum_r J[s, p, r] |r>> x |r>>
    coords = _wire_basis(4)[0]
    pairs = np.einsum("as,bs->abs", coords, coords).reshape(-1, 24)
    kernel = BrickworkContraction(chain(2, gamma=0.1), 2)._kernel
    for s in range(24):
        got = kernel @ np.einsum("a,bp->abp", coords[:, s], coords).reshape(-1, 24)
        assert np.max(np.abs(got - pairs @ j[s].T)) < 1e-12 * np.max(np.abs(got))


def test_plaquette_rejects_large_k():
    with pytest.raises(ValueError):
        BrickworkContraction(chain(4), k=3)


def test_pauli_sum_and_seed_weights():
    top, bottom = pauli_sum_weights(4, 2.0), traceless_seed_weights(4, 2.0)
    assert top[perm_index((1, 0, 3, 2))] == 4.0  # pairing: 2^(2+2-2)
    assert bottom[0] == 0.0  # identity permutation has odd cycles
    assert bottom[perm_index((1, 2, 3, 0))] == 2.0  # four-cycle: 2^1


def test_single_gate_matches_transfer_matrix():
    res = contract_brickwork_series(chain(2), [1], k=2)[1]
    ref = rmpu_moment_exact([(CircuitSpec(geometry="rmpu", n_sites=2, r=1), 2)])[0]
    assert res.truncation_error == 0.0
    assert abs(res.value - ref) < 1e-10 * ref


def test_unevolved_value_is_d_squared_k():
    eng = BrickworkContraction(chain(4), 2)
    assert abs(eng.value() - 4.0**4) < 1e-9


@pytest.mark.parametrize("n_sites,depth", [(2, 1), (4, 3), (5, 4), (6, 9)])
def test_norm_moment_is_one(n_sites, depth):
    res = contract_brickwork_series(chain(n_sites, depth), [depth], k=1)[depth]
    assert abs(res.value - 1.0) < 1e-10


def test_lightcone_pinning_is_exact():
    on = contract_brickwork_series(chain(4, 3, 0.03), [3], k=2)[3]
    off = BrickworkContraction(chain(4, 3, 0.03), 2, lightcone=False)
    off.advance(3)
    off = off.result()
    assert abs(on.value - off.value) < 1e-9 * abs(off.value)


@pytest.mark.parametrize("k, gamma", [(1, 0.0), (1, 0.02), (2, 0.0), (2, 0.02)])
def test_exact_and_mps_engines_agree(k, gamma):
    results = {}
    for engine in ("exact", "mps"):
        eng = BrickworkContraction(chain(5, 4, gamma), k, chi_mps=512, threshold=1e-13,
                                   engine=engine)
        eng.advance(4)
        results[engine] = eng.result()
    exact, mps = results["exact"], results["mps"]
    assert exact.truncation_error == 0.0
    assert abs(exact.value - mps.value) < 1e-8 * exact.value


def test_truncation_error_monotone_in_chi():
    results = {}
    for chi in (16, 32, 64):
        eng = BrickworkContraction(chain(6, 6), 2, chi_mps=chi, threshold=1e-13, engine="mps")
        eng.advance(6)
        results[chi] = eng.result()
    errs = [results[chi].truncation_error for chi in (16, 32, 64)]
    assert errs[0] >= errs[1] >= errs[2]
    # value deviation from the exact engine stays within a few reported errors
    exact = contract_brickwork_series(chain(6, 6), [6], k=2)[6].value
    for chi in (32, 64):
        res = results[chi]
        assert abs(res.value - exact) <= max(5 * res.truncation_error * exact, 1e-9)


def test_deep_limit_matches_global_haar():
    series = contract_brickwork_series(chain(4, 32), [4, 8, 16, 24, 32], k=2)
    reference = global_haar_moment(16.0, 2)
    gaps = [abs(series[t].value - reference) for t in (4, 8, 16, 24, 32)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6
    assert series[32].truncation_error < 1e-10


def test_series_matches_individual_runs():
    series = contract_brickwork_series(chain(5, 4, 0.05), [2, 4], k=2)
    for t in (2, 4):
        single = contract_brickwork_series(chain(5, 4, 0.05), [t], k=2)[t]
        assert abs(series[t].value - single.value) < 1e-12 * single.value


@pytest.mark.parametrize("spec, depths, message", [
    (CircuitSpec(geometry="grid", lx=2, ly=2, depth=4, noise_placement="per_gate_support"),
     [2], "1D chains"),
    (CircuitSpec(geometry="rmpu", n_sites=4, r=1), [2], "1D chains"),
    (CircuitSpec(n_sites=4, depth=4, noise_placement="per_qubit_per_layer"), [2],
     "per_gate_support noise"),
    (chain(4, 4), [2, 5], r"\[0, 4\]"),
], ids=["grid", "rmpu", "layer_noise", "depth_above_spec"])
def test_series_rejects_other_circuits(spec, depths, message):
    with pytest.raises(ValueError, match=message):
        contract_brickwork_series(spec, depths, k=2)
