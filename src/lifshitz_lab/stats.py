"""Small statistical helpers: exact binomial intervals, line fits, bootstrap."""

from __future__ import annotations

import math

import numpy as np
import scipy

__all__ = ["mean_stderr", "clopper_pearson", "fit_line", "bootstrap_slope_interval"]

# Level of every interval this module reports.  Both use alpha = 1 - CONFIDENCE,
# which rounds to 0.050000000000000044: a literal 0.05 picks different
# bootstrap quantiles and moves the reported slope intervals.
CONFIDENCE = 0.95


def mean_stderr(samples: np.ndarray):
    """Ensemble mean along axis 0 and its standard error (zero for one sample)."""
    mean = samples.mean(axis=0)
    n = samples.shape[0]
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, stderr


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact two-sided 95% binomial confidence interval for a frequency."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    alpha = 1.0 - CONFIDENCE
    inv = scipy.special.betaincinv  # beta.ppf's kernel, bit for bit, without scipy.stats
    lo = 0.0 if successes == 0 else float(inv(successes, trials - successes + 1, alpha / 2.0))
    hi = 1.0 if successes == trials else float(inv(successes + 1, trials - successes, 1.0 - alpha / 2.0))
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


def _bootstrap_slopes(x: np.ndarray, y: np.ndarray, n_boot: int, seed: int) -> np.ndarray:
    """Line-fit slopes of n_boot residual resamples about the fitted line, one per row."""
    slope, intercept, _ = fit_line(x, y)
    base = slope * x + intercept
    idx = np.random.default_rng(seed).integers(0, len(x), size=(n_boot, len(x)))
    yb = base + (y - base)[idx]
    xc = x - x.mean()
    return np.sum(xc * (yb - yb.mean(axis=1, keepdims=True)), axis=1) / float(np.sum(xc * xc))


def bootstrap_slope_interval(x: np.ndarray, y: np.ndarray, n_boot: int = 1000,
                             seed: int = 715517) -> tuple[float, float]:
    """Residual-bootstrap 95% percentile interval for the line-fit slope."""
    slopes = _bootstrap_slopes(np.asarray(x, dtype=float), np.asarray(y, dtype=float), n_boot, seed)
    alpha = 1.0 - CONFIDENCE
    lo, hi = np.quantile(slopes, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
