import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pauliscope.circuits import CircuitSpec
from pauliscope.csvio import MOMENTS_HEADER
from pauliscope.driver import INVARIANT_SLACK, moment_row
from pauliscope.opsim import init_local_pauli
from pauliscope.pauli import PauliCoefficients, pauli_transform
from pauliscope.spectrum import (
    HIST_EDGES,
    haar_moment,
    moment_mu,
    moment_nu,
    opt_bin_mass,
    ose,
    spectrum_histogram,
)

from conftest import PAULI_MATRICES, random_hermitian


def test_local_pauli_moments_exact():
    coeffs = init_local_pauli(2, 0, "Z")
    assert moment_mu(coeffs, [1, 2, 3]).tolist() == [1.0, 16.0, 4.0**4]


def test_two_string_superposition():
    mat = (PAULI_MATRICES["X"] + PAULI_MATRICES["Z"]) / np.sqrt(2)
    coeffs = pauli_transform(mat)
    a2 = np.square(coeffs.values)
    assert np.allclose(np.sort(a2[a2 > 1e-15]), [0.5, 0.5])
    assert abs(moment_mu(coeffs, [2])[0] - 2.0) < 1e-12
    assert abs(ose(coeffs, 2) - math.log(2)) < 1e-12


def test_unnormalized_moments():
    coeffs = pauli_transform(0.9 * PAULI_MATRICES["X"])
    nu1, nu2 = moment_nu(coeffs, [1, 2])
    assert abs(nu1 - 0.81) < 1e-14
    # nu_k = D^(2k-2) sum a^2k; a single string keeps mu_2 = D^2
    assert abs(nu2 - 4 * 0.9**4) < 1e-13
    assert abs(moment_mu(coeffs, [2])[0] - 4.0) < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 4))
def test_mu_equals_nu_ratio(seed, k):
    rng = np.random.default_rng(seed)
    coeffs = pauli_transform(random_hermitian(3, rng))
    (mu,) = moment_mu(coeffs, [k])
    nu1, nu = moment_nu(coeffs, [1, k])
    ratio = nu / nu1**k
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
    zero = PauliCoefficients(1, np.zeros(4))
    with pytest.raises(ValueError):
        spectrum_histogram(zero)
    with pytest.raises(ValueError):
        moment_mu(zero, [2])


def test_haar_moment_double_factorial():
    assert haar_moment(1) == 1.0
    assert haar_moment(2) == 3.0
    assert haar_moment(3) == 15.0
    assert haar_moment(4) == 105.0


def test_opt_density_normalization_and_moments():
    def density(u):
        return math.exp(-u / 2) / math.sqrt(2 * math.pi * u)

    for lo, hi in ((1e-6, 1e-3), (0.5, 2.0), (3.0, 40.0)):
        assert abs(opt_bin_mass(lo, hi) - quad(density, lo, hi)[0]) < 1e-10
    assert abs(opt_bin_mass(1e-9, 1e6) - 1.0) < 1e-4
    # the bin masses carry the second moment (2k-1)!! = 3
    edges = np.geomspace(1e-12, 1e3, 4001)
    masses = [opt_bin_mass(a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert abs(np.dot(masses, edges[:-1] * edges[1:]) - 3) < 1e-3


def test_histogram_local_operator():
    coeffs = init_local_pauli(2, 0, "Z")
    hist = spectrum_histogram(coeffs)
    density, zero_mass = hist[:-1], hist[-1]
    assert abs(zero_mass - 15 / 16) < 1e-15
    assert abs(zero_mass + np.sum(density * np.diff(HIST_EDGES)) - 1) < 1e-8
    nz = np.nonzero(density)[0]
    assert len(nz) == 1
    lo, hi = HIST_EDGES[nz[0]], HIST_EDGES[nz[0] + 1]
    assert lo <= 16.0 < hi


def test_histogram_overflow_mass_in_last_bin():
    coeffs = init_local_pauli(8, 3, "Z")  # u = 65536 > 1e3
    hist = spectrum_histogram(coeffs)
    density, zero_mass = hist[:-1], hist[-1]
    assert density[-1] > 0
    assert abs(zero_mass + np.sum(density * np.diff(HIST_EDGES)) - 1) < 1e-8


def test_histogram_moment_reconstruction(rng):
    for _ in range(5):
        coeffs = pauli_transform(random_hermitian(4, rng))
        density = spectrum_histogram(coeffs)[:-1]
        edges, widths = HIST_EDGES, np.diff(HIST_EDGES)
        assert len(widths) == 60 and edges[0] == 1e-6 and edges[-1] == pytest.approx(1e3)
        # density * width is each bin's share of the 4^4 strings, the last bin
        # also holding every u at or above the grid's top edge
        a2 = np.square(coeffs.values)
        u = 4.0**4 * a2 / np.sum(a2)
        counts = np.array([np.count_nonzero((lo <= u) & (u < hi))
                           for lo, hi in zip(edges[:-1], edges[1:])])
        counts[-1] += np.count_nonzero(u >= edges[-1])
        assert np.max(np.abs(density * widths - counts / 4.0**4)) < 1e-12
        # int u^2 Pi(u) du = mu_2, up to the 60-bin grid's binning error
        recon = np.sum(density * edges[:-1] * edges[1:] * widths)
        exact = moment_mu(coeffs, [2])[0]
        assert abs(recon - exact) < 0.05 * exact


def test_one_reduction_matches_fsum_at_every_order(rng):
    # N = 9 holds 4^9 coefficients, four times numpy's old 2^16-term chunk;
    # a^2 spans about 30 orders of magnitude
    n = 9
    a = rng.normal(size=4**n) * 10.0 ** rng.uniform(-15.0, 0.0, size=4**n)
    ks = [1, 2, 3, 4, 5]
    nu = moment_nu(PauliCoefficients(n, a), ks)
    a2 = a * a
    for k, value in zip(ks, nu):
        want = 4.0 ** (n * (k - 1)) * math.fsum(a2**k)
        assert abs(value - want) <= 1e-13 * want, k
    # any order and repetition of the requested k
    assert moment_nu(PauliCoefficients(n, a), [3, 1, 3]).tolist() == [nu[2], nu[0], nu[2]]
    with pytest.raises(ValueError, match="must be >= 1"):
        moment_nu(PauliCoefficients(n, a), [0, 2])


def test_moment_estimate_validation():
    # a moments CSV row has a known quantity, k >= 1 and a stderr >= 0
    spec = CircuitSpec(n_sites=4)
    with pytest.raises(ValueError, match="unknown quantity 'bogus'"):
        moment_row("simulator", spec, 1, 2, "bogus", 1.0, 0.0, 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        moment_row("simulator", spec, 1, 0, "mu", 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        moment_row("simulator", spec, 1, 2, "mu", 1.0, -0.1, 1)
    with pytest.raises(ValueError, match="nan"):
        moment_row("simulator", spec, 1, 2, "mu", 1.0, float("nan"), 1)
    row = moment_row("simulator", spec, 1, 2, "mu", 1.0, 0.0, 1)
    assert list(row) == MOMENTS_HEADER


@pytest.mark.parametrize("quantity, k, value", [
    ("mu", 2, math.nan), ("nu", 2, math.inf), ("nu_over_F2k", 2, -1e-300),
    ("nu", 3, -2.0), ("mu", 2, 0.34), ("mu", 1, 1.0 - 10 * INVARIANT_SLACK),
    ("nu", 1, 1.0 + 10 * INVARIANT_SLACK),
])
def test_moment_row_rejects_non_physical_values(quantity, k, value):
    # every engine's rows pass the same invariants: finite, >= 0, mu_k >= 1, nu_1 <= 1
    spec = CircuitSpec(n_sites=5, gamma=0.1)
    with pytest.raises(FloatingPointError,
                       match=rf"N=5, t=3, k={k} .* non-physical value .*stderr column 0.25"):
        moment_row("rtn", spec, 3, k, quantity, value, 0.25, 0)


@pytest.mark.parametrize("quantity, k, value", [
    ("mu", 1, 1.0 - INVARIANT_SLACK / 2), ("mu", 3, 1e6), ("nu", 1, 1.0 + INVARIANT_SLACK / 2),
    ("nu", 1, 0.0), ("nu", 2, 40.0), ("nu_over_F2k", 1, 3.0),
])
def test_moment_row_keeps_physical_values(quantity, k, value):
    row = moment_row("simulator", CircuitSpec(n_sites=5), 3, k, quantity, value, 0.25, 2)
    assert row["value"] == value
