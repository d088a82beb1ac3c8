import numpy as np
import pytest

from pauliscope.fits import fit_kappa, locate_threshold, weighted_line_fit


def test_fit_exact_exponential_decay():
    t = np.arange(4, 21)
    values = 3.0 + 5.0 * np.exp(-0.3 * t)
    fit = fit_kappa(t, values, np.zeros_like(t, dtype=float))
    assert abs(fit.kappa - 0.3) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_fit_growth_gives_negative_kappa():
    t = np.arange(4, 15)
    values = 3.0 + 5.0 * np.exp(0.1 * t)
    fit = fit_kappa(t, values, np.zeros_like(t, dtype=float))
    assert abs(fit.kappa + 0.1) < 1e-12


def test_fit_window_and_significance_filter():
    t = np.arange(1, 21, dtype=float)
    values = 3.0 + 10.0 * np.exp(-0.5 * t)
    errs = np.full_like(t, 1e-3)
    fit = fit_kappa(t, values, errs, window=(4, 12))
    assert fit.window[0] >= 4 and fit.window[1] <= 12
    # deviations below 3 sigma are dropped; here the tail falls under noise
    deep = fit_kappa(t, values, np.full_like(t, 0.05))
    assert deep.n_points < len(t)
    with pytest.raises(ValueError):
        fit_kappa([1, 2, 3], [3.0, 3.0, 3.0], [1.0, 1.0, 1.0])


def test_threshold_interpolation():
    res = locate_threshold([0.2, 0.3], [0.1, -0.1], [0.0, 0.0])
    assert abs(res.value - 0.25) < 1e-14
    assert res.n_sign_changes == 1
    with pytest.raises(ValueError):
        locate_threshold([0.1, 0.2, 0.3], [0.5, 0.4, 0.2], [0.0] * 3)


def test_threshold_error_propagation():
    res = locate_threshold([0.0, 1.0], [1.0, -1.0], [0.1, 0.1])
    # d(root)/d(k1) = -k2/(k1-k2)^2 = 1/4, d/d(k2) = k1/(k1-k2)^2 = 1/4
    assert abs(res.stderr - np.hypot(0.025, 0.025)) < 1e-12


def test_weighted_line_fit():
    x = np.linspace(0, 10, 20)
    y = 2.5 * x - 1.0
    fit = weighted_line_fit(x, y)
    assert abs(fit.slope - 2.5) < 1e-12
    assert fit.r_squared > 1 - 1e-12
