import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pauliscope.opsim import init_local_pauli
from pauliscope.pauli import PAULI_MATRICES, pauli_transform
from pauliscope.spectrum import (
    MomentEstimate,
    haar_moment,
    moment_mu,
    moment_nu,
    opt_bin_mass,
    opt_density,
    ose,
    pi_distribution,
    spectrum_histogram,
    stable_sum,
)

from conftest import random_hermitian


def test_local_pauli_moments_exact():
    coeffs = init_local_pauli(2, 0, "Z")
    assert moment_mu(coeffs, 1) == 1.0
    assert moment_mu(coeffs, 2) == 16.0
    assert moment_mu(coeffs, 3) == 4.0**4


def test_two_string_superposition():
    mat = (PAULI_MATRICES["X"] + PAULI_MATRICES["Z"]) / np.sqrt(2)
    coeffs = pauli_transform(mat)
    pi = pi_distribution(coeffs)
    assert np.allclose(np.sort(pi[pi > 1e-15]), [0.5, 0.5])
    assert abs(moment_mu(coeffs, 2) - 2.0) < 1e-12
    assert abs(ose(coeffs, 2) - math.log(2)) < 1e-12


def test_pi_normalization(rng):
    coeffs = pauli_transform(random_hermitian(3, rng))
    assert abs(np.sum(pi_distribution(coeffs)) - 1.0) < 1e-10


def test_unnormalized_moments():
    coeffs = pauli_transform(0.9 * PAULI_MATRICES["X"])
    assert abs(moment_nu(coeffs, 1) - 0.81) < 1e-14
    # nu_k = D^(2k-2) sum a^2k; a single string keeps mu_2 = D^2
    assert abs(moment_nu(coeffs, 2) - 4 * 0.9**4) < 1e-13
    assert abs(moment_mu(coeffs, 2) - 4.0) < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 4))
def test_mu_equals_nu_ratio(seed, k):
    rng = np.random.default_rng(seed)
    coeffs = pauli_transform(random_hermitian(3, rng))
    mu = moment_mu(coeffs, k)
    ratio = moment_nu(coeffs, k) / moment_nu(coeffs, 1) ** k
    assert abs(mu - ratio) < 1e-10 * mu


def test_renyi_monotone(rng):
    coeffs = pauli_transform(random_hermitian(3, rng))
    assert ose(coeffs, 2) >= ose(coeffs, 3) >= ose(coeffs, 4)
    assert 0.0 <= ose(coeffs, 2) <= 2 * 3 * math.log(2)


def test_ose_edge_cases():
    single = init_local_pauli(2, 1, "X")
    assert ose(single, 2) == 0.0
    assert ose(single, 0) == 0.0  # support of size 1
    with pytest.raises(ValueError):
        ose(single, 1)


def test_zero_operator_rejected():
    from pauliscope.pauli import PauliCoefficients

    zero = PauliCoefficients(1, np.zeros(4))
    with pytest.raises(ValueError):
        pi_distribution(zero)
    with pytest.raises(ValueError):
        moment_mu(zero, 2)


def test_haar_moment_double_factorial():
    assert haar_moment(1) == 1.0
    assert haar_moment(2) == 3.0
    assert haar_moment(3) == 15.0
    assert haar_moment(4) == 105.0


def test_opt_density_normalization_and_moments():
    total, _ = quad(lambda u: float(opt_density(u)), 0, np.inf)
    assert abs(total - 1) < 1e-8
    second, _ = quad(lambda u: u * u * float(opt_density(u)), 0, np.inf)
    assert abs(second - 3) < 1e-7
    assert abs(opt_bin_mass(1e-9, 1e6) - 1.0) < 1e-4


def test_histogram_local_operator():
    coeffs = init_local_pauli(2, 0, "Z")
    hist = spectrum_histogram(coeffs)
    assert abs(hist.zero_mass - 15 / 16) < 1e-15
    assert abs(hist.zero_mass + np.sum(hist.density * hist.widths) - 1) < 1e-8
    nz = np.nonzero(hist.density)[0]
    assert len(nz) == 1
    lo, hi = hist.bins[nz[0]]
    assert lo <= 16.0 < hi


def test_histogram_overflow_mass_in_last_bin():
    coeffs = init_local_pauli(8, 3, "Z")  # u = 65536 > 1e3
    hist = spectrum_histogram(coeffs)
    assert hist.density[-1] > 0
    assert abs(hist.zero_mass + np.sum(hist.density * hist.widths) - 1) < 1e-8


def test_histogram_moment_reconstruction(rng):
    # int u^k Pi(u) du = mu_k, up to binning error
    coeffs = pauli_transform(random_hermitian(4, rng))
    hist = spectrum_histogram(coeffs, n_bins=4000, u_min=1e-8, u_max=1e4)
    recon = np.sum(hist.density * hist.centers**2 * hist.widths)
    exact = moment_mu(coeffs, 2)
    assert abs(recon - exact) < 2e-3 * exact


def test_stable_sum_matches_fsum(rng):
    x = rng.normal(size=200001) * 10.0 ** rng.integers(-12, 12, size=200001)
    assert abs(stable_sum(x) - math.fsum(x)) <= 1e-10 * max(1.0, abs(math.fsum(x)))


def test_moment_estimate_validation():
    with pytest.raises(ValueError):
        MomentEstimate("bogus", 2, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        MomentEstimate("mu", 2, 1.0, -0.1, 1)
    with pytest.raises(ValueError, match="nan"):
        MomentEstimate("mu", 2, 1.0, float("nan"), 1)
