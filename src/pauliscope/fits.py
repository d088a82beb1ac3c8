"""Decay-rate fits and threshold location for moment-vs-depth series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spectrum import haar_moment


@dataclass
class FitResult:
    """Exponential decay rate of |nu2/F^4 - 3| ~ exp(-kappa t)."""

    kappa: float
    kappa_stderr: float
    window: tuple[float, float]
    r_squared: float
    n_points: int


def fit_kappa(
    depths: Sequence[float],
    values: Sequence[float],
    stderrs: Sequence[float],
    window: Optional[tuple[float, float]] = None,
) -> FitResult:
    """Weighted linear least squares of log|value - 3| against depth, where
    the values are nu_2/F^4 and 3 is its fully scrambled value.

    Points whose deviation is within 3 standard errors of zero carry no
    usable sign and are excluded; at least 3 significant points are
    required.  kappa = -slope, so decay gives kappa > 0 and growth < 0.
    """
    t = np.asarray(depths, dtype=float)
    dev = np.abs(np.asarray(values, dtype=float) - haar_moment(2))
    sig = np.asarray(stderrs, dtype=float)
    keep = dev > 3.0 * sig
    if window is not None:
        keep &= (t >= window[0]) & (t <= window[1])
    if np.count_nonzero(keep) < 3:
        raise ValueError(
            f"only {np.count_nonzero(keep)} significant points in the window, need >= 3"
        )
    t, dev, sig = t[keep], dev[keep], sig[keep]
    # relative errors of the deviation become absolute errors of its log;
    # exact series (stderr 0) get uniform unit weights
    line = weighted_line_fit(t, np.log(dev), np.where(sig > 0, sig / dev, 1.0))
    return FitResult(
        kappa=-line.slope,
        kappa_stderr=line.slope_stderr,
        window=(float(t.min()), float(t.max())),
        r_squared=line.r_squared,
        n_points=int(len(t)),
    )


@dataclass
class ThresholdResult:
    value: float
    stderr: float
    n_sign_changes: int
    bracket: tuple[float, float]


def locate_threshold(
    x: Sequence[float], kappas: Sequence[float], stderrs: Sequence[float]
) -> ThresholdResult:
    """Zero crossing of kappa(x) by linear interpolation of the bracketing
    pair, with error propagation from the kappa uncertainties."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(kappas, dtype=float)
    s = np.asarray(stderrs, dtype=float)
    order = np.argsort(x)
    x, k, s = x[order], k[order], s[order]
    signs = np.sign(k)
    changes = [i for i in range(len(k) - 1) if signs[i] != 0 and signs[i + 1] == -signs[i]]
    if not changes:
        raise ValueError("kappa series does not bracket a sign change")
    i = changes[0]
    dx = x[i + 1] - x[i]
    denom = k[i] - k[i + 1]
    root = x[i] + k[i] * dx / denom
    d_ki = -k[i + 1] * dx / denom**2
    d_kj = k[i] * dx / denom**2
    err = math.sqrt((d_ki * s[i]) ** 2 + (d_kj * s[i + 1]) ** 2)
    return ThresholdResult(
        value=float(root),
        stderr=float(err),
        n_sign_changes=len(changes),
        bracket=(float(x[i]), float(x[i + 1])),
    )


@dataclass
class LineFit:
    slope: float
    slope_stderr: float
    r_squared: float


def weighted_line_fit(
    x: Sequence[float], y: Sequence[float], stderrs: Optional[Sequence[float]] = None
) -> LineFit:
    """Plain weighted least-squares line, used for log-log slope estimates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if stderrs is None:
        w = np.ones_like(x)
    else:
        s = np.asarray(stderrs, dtype=float)
        w = 1.0 / np.where(s > 0, s, np.min(s[s > 0]) if np.any(s > 0) else 1.0) ** 2
    s0, sx, sy = np.sum(w), np.sum(w * x), np.sum(w * y)
    sxx, sxy = np.sum(w * x * x), np.sum(w * x * y)
    delta = s0 * sxx - sx * sx
    slope = (s0 * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    resid = y - (intercept + slope * x)
    ybar = sy / s0
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    r2 = 1.0 - float(np.sum(w * resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return LineFit(float(slope), math.sqrt(s0 / delta), r2)
