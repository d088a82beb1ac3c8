"""Decay-rate fits and threshold location for moment-vs-depth series."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .spectrum import haar_moment


def fit_kappa(
    depths: Sequence[float],
    values: Sequence[float],
    stderrs: Sequence[float],
    window: Optional[tuple[float, float]] = None,
) -> dict:
    """Weighted linear least squares of log|value - 3| against depth, where
    the values are nu_2/F^4 and 3 is its fully scrambled value.

    Points whose deviation is within 3 standard errors of zero carry no
    usable sign and are excluded; at least 3 significant points are
    required.  kappa = -slope, so decay gives kappa > 0 and growth < 0.
    Returns the fit columns of a kappa row: kappa, kappa_stderr, the depths
    t_min and t_max of the points fitted, r_squared and n_points.
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
    # relative errors of the deviation become absolute errors of its log; an
    # exact point (stderr 0) takes weighted_line_fit's rule for a zero stderr
    slope, slope_stderr, r_squared = weighted_line_fit(t, np.log(dev), sig / dev)
    return {"kappa": -slope, "kappa_stderr": slope_stderr, "t_min": float(t.min()),
            "t_max": float(t.max()), "r_squared": r_squared, "n_points": len(t)}


def locate_threshold(
    x: Sequence[float], kappas: Sequence[float], stderrs: Sequence[float]
) -> dict:
    """Zero crossing of kappa(x) by linear interpolation of the bracketing
    pair, with error propagation from the kappa uncertainties; an exact
    kappa = 0 carries no sign, so only the nonzero kappas are compared.
    Returns the threshold payload: gammaN_critical (the root in x), stderr,
    n_sign_changes and the bracket of the first change.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(kappas, dtype=float)
    s = np.asarray(stderrs, dtype=float)
    order = np.argsort(x)
    order = order[k[order] != 0]
    x, k, s = x[order], k[order], s[order]
    changes = np.flatnonzero(np.sign(k[:-1]) != np.sign(k[1:]))
    if not len(changes):
        raise ValueError("kappa series does not bracket a sign change")
    i = changes[0]
    dx = x[i + 1] - x[i]
    denom = k[i] - k[i + 1]
    root = x[i] + k[i] * dx / denom
    d_ki = -k[i + 1] * dx / denom**2
    d_kj = k[i] * dx / denom**2
    err = math.sqrt((d_ki * s[i]) ** 2 + (d_kj * s[i + 1]) ** 2)
    return {"gammaN_critical": float(root), "stderr": float(err),
            "n_sign_changes": len(changes), "bracket": [float(x[i]), float(x[i + 1])]}


def weighted_line_fit(
    x: Sequence[float], y: Sequence[float], stderrs: Optional[Sequence[float]] = None
) -> tuple[float, float, float]:
    """(slope, slope_stderr, r_squared) of the plain weighted least-squares
    line, used for log-log slope estimates; it needs at least two distinct x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(x)) < 2:
        raise ValueError(f"a line fit needs at least two distinct x, got {x.tolist()}")
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
    return float(slope), math.sqrt(s0 / delta), r2
