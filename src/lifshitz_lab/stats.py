"""Small statistical helpers: exact binomial intervals, line fits, bootstrap."""

from __future__ import annotations

import numpy as np
from scipy.stats import beta

__all__ = ["clopper_pearson", "fit_line", "bootstrap_slope_interval"]


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for a frequency."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    alpha = 1.0 - confidence
    lo = 0.0 if successes == 0 else float(beta.ppf(alpha / 2.0, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(beta.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    return lo, hi


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept; returns (slope, intercept, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need two 1d arrays with at least 2 points")
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def bootstrap_slope_interval(x: np.ndarray, y: np.ndarray, n_boot: int = 1000,
                             confidence: float = 0.95, seed: int = 715517) -> tuple[float, float]:
    """Residual-bootstrap percentile interval for the line-fit slope."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept, _ = fit_line(x, y)
    resid = y - (slope * x + intercept)
    rng = np.random.default_rng(seed)
    n = len(x)
    idx = rng.integers(0, n, size=(n_boot, n))
    slopes = np.empty(n_boot)
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    base = slope * x + intercept
    for b in range(n_boot):
        yb = base + resid[idx[b]]
        slopes[b] = float(np.sum(xc * (yb - yb.mean())) / denom)
    alpha = 1.0 - confidence
    lo, hi = np.quantile(slopes, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
