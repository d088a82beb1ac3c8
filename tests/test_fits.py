import numpy as np
import pytest

from pauliscope.fits import fit_kappa, locate_threshold, weighted_line_fit


def test_fit_exact_exponential_decay():
    t = np.arange(4, 21)
    values = 3.0 + 5.0 * np.exp(-0.3 * t)
    fit = fit_kappa(t, values, np.zeros_like(t, dtype=float))
    assert abs(fit["kappa"] - 0.3) < 1e-12
    assert fit["r_squared"] > 1 - 1e-12


def test_fit_growth_gives_negative_kappa():
    t = np.arange(4, 15)
    values = 3.0 + 5.0 * np.exp(0.1 * t)
    fit = fit_kappa(t, values, np.zeros_like(t, dtype=float))
    assert abs(fit["kappa"] + 0.1) < 1e-12


def test_fit_window_and_significance_filter():
    t = np.arange(1, 21, dtype=float)
    values = 3.0 + 10.0 * np.exp(-0.5 * t)
    errs = np.full_like(t, 1e-3)
    fit = fit_kappa(t, values, errs, window=(4, 12))
    assert fit["t_min"] >= 4 and fit["t_max"] <= 12
    # deviations below 3 sigma are dropped; here the tail falls under noise
    deep = fit_kappa(t, values, np.full_like(t, 0.05))
    assert deep["n_points"] < len(t)
    with pytest.raises(ValueError):
        fit_kappa([1, 2, 3], [3.0, 3.0, 3.0], [1.0, 1.0, 1.0])


def test_fit_gives_an_exact_point_the_weight_of_the_most_precise_one():
    """In a series that mixes exact (stderr 0) and noisy points, an exact
    point takes the relative error of the series' most precise point, by
    weighted_line_fit's one rule for a zero stderr (it once took a relative
    error of 1.0, the least weight of the series)."""
    t = np.arange(4.0, 12.0)
    values = 3.0 + 5.0 * np.exp(-0.3 * t) * (1.0 + 0.05 * np.cos(t))  # off the line
    dev = np.abs(values - 3.0)
    stderrs = 0.01 * dev * (1.0 + t / 10.0)
    stderrs[[0, 5]] = 0.0
    rel = stderrs / dev
    rel[[0, 5]] = np.min(rel[rel > 0])
    slope, slope_stderr, r_squared = weighted_line_fit(t, np.log(dev), rel)
    fit = fit_kappa(t, values, stderrs)
    assert (fit["kappa"], fit["kappa_stderr"], fit["r_squared"], fit["n_points"]) == (
        -slope, slope_stderr, r_squared, len(t))
    rel[[0, 5]] = 1.0
    assert fit["kappa"] != -weighted_line_fit(t, np.log(dev), rel)[0]


def test_threshold_interpolation():
    res = locate_threshold([0.2, 0.3], [0.1, -0.1], [0.0, 0.0])
    assert abs(res["gammaN_critical"] - 0.25) < 1e-14
    assert res["n_sign_changes"] == 1
    with pytest.raises(ValueError):
        locate_threshold([0.1, 0.2, 0.3], [0.5, 0.4, 0.2], [0.0] * 3)


def test_threshold_skips_an_exact_zero_kappa():
    # kappa = 0 carries no sign: the change is between its nonzero neighbours
    res = locate_threshold([0.1, 0.2, 0.3], [0.5, 0.0, -0.5], [0.0] * 3)
    assert abs(res["gammaN_critical"] - 0.2) < 1e-15
    assert res["n_sign_changes"] == 1 and res["bracket"] == [0.1, 0.3]


def test_threshold_error_propagation():
    res = locate_threshold([0.0, 1.0], [1.0, -1.0], [0.1, 0.1])
    # d(root)/d(k1) = -k2/(k1-k2)^2 = 1/4, d/d(k2) = k1/(k1-k2)^2 = 1/4
    assert abs(res["stderr"] - np.hypot(0.025, 0.025)) < 1e-12


def test_weighted_line_fit():
    x = np.linspace(0, 10, 20)
    y = 2.5 * x - 1.0
    slope, _, r_squared = weighted_line_fit(x, y)
    assert abs(slope - 2.5) < 1e-12
    assert r_squared > 1 - 1e-12


@pytest.mark.parametrize("x, y", [([6.0], [8.8]), ([6.0, 6.0], [8.8, 9.1]), ([], [])])
def test_weighted_line_fit_needs_two_distinct_x(x, y):
    with pytest.raises(ValueError, match="two distinct x"):
        weighted_line_fit(x, y)
