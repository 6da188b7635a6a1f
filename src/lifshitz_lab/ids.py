"""Integrated density of states estimators and band-edge diagnostics.

Volume normalization is physical throughout: a box of side L = 2k+1 counts
eigenvalues per L^d, and quasimomentum-averaged counts of a period-L medium
are likewise divided by L^d.  Band-edge tails are probed through the fit of
log |log dN(eps)| against log eps, whose slope is compared to closed-form
targets depending on the coupling tail index and the single-site decay.
The localization-input checks count each window [E - t, E + t] as the
difference of two `counts_below` counts at its edges (`_window_hits`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from .curves import IDSCurve, InsufficientDataError, ensemble_curve
from .disorder import DisorderSpec, ValidationError, cube_hashes, draw_couplings
from .lattice import BoxSpec, PeriodicBackground, SingleSiteProfile, _periodized_plan, operator_sampler
from .runner import frequency, trials
from .spectral import _field_bands, counts_below, periodic_ids_curve
from .stats import bootstrap_slope_interval, clopper_pearson, fit_line, mean_stderr

__all__ = [
    "CheckReport",
    "ExponentFit",
    "empirical_ids",
    "expected_periodic_ids",
    "sandwich_check",
    "lifshitz_exponent",
    "theoretical_exponent",
    "ile_check",
    "wegner_check",
    "decay_diagnostic",
    "shell_decay_rate",
]

DECAY_DENSE_LIMIT = 6000  # largest operator `decay_diagnostic` diagonalizes densely
MIN_SHELL_MASS = 1e-12  # lightest shell `shell_decay_rate` fits


@dataclass
class CheckReport:
    """One-line verdict of a Monte Carlo check against a reference value."""

    name: str
    trials: int
    successes: int
    p_lo: float
    p_hi: float
    bound: float
    verdict: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValidationError("successes must lie in [0, trials]")

    @property
    def frequency(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")


# -- IDS estimators -----------------------------------------------------------


def empirical_ids(background: PeriodicBackground, profile: SingleSiteProfile,
                  disorder: DisorderSpec, box: BoxSpec, n_realizations: int,
                  energies, seed: int = 0, threads: int = 1) -> IDSCurve:
    """Ensemble mean of finite-volume counting functions on a fixed box.

    Failed realizations are dropped as in `curves.ensemble_curve`.
    """
    energies = np.asarray(energies, dtype=float)
    operator = operator_sampler(background, profile, disorder, box, seed)
    return ensemble_curve(lambda i: counts_below(operator(i), energies) / box.volume,
                          n_realizations, energies, box.volume, box.bc, threads, seed=seed)


def _periodic_counts(background, profile, disorder, k: int, n_theta: int, energies, seed: int):
    """Index i -> IDS values (grid-averaged counts per (2k+1)^d) of pattern (seed, i) on lattice_cube(d, k)
    repeated (2k+1)-periodically, from one field plan and one hash of the pattern cube for all."""
    field = _periodized_plan(background, profile, k)
    hashes = cube_hashes(background.d, k)
    return lambda i: periodic_ids_curve(_field_bands(field(draw_couplings(disorder, hashes, seed, i)), n_theta),
                                        energies).values


def expected_periodic_ids(background: PeriodicBackground, profile: SingleSiteProfile,
                          disorder: DisorderSpec, k: int, n_realizations: int,
                          n_theta: int, energies, seed: int = 0, threads: int = 1) -> IDSCurve:
    """Monte Carlo expectation of the periodized-disorder IDS.

    Failed realizations are dropped as in `curves.ensemble_curve`.
    """
    energies = np.asarray(energies, dtype=float)
    counts = _periodic_counts(background, profile, disorder, k, n_theta, energies, seed)
    return ensemble_curve(counts, n_realizations, energies, float((2 * k + 1)**background.d), "floquet",
                          threads, seed=seed, n_theta=n_theta)


def sandwich_check(background: PeriodicBackground, profile: SingleSiteProfile,
                   disorder: DisorderSpec, E: float, eps: float, k: int,
                   n_realizations: int, n_theta: int = 4, k_big: int = None,
                   eta0: float = 1.5, seed: int = 0, threads: int = 1) -> CheckReport:
    """Two-sided comparison of periodized-disorder increments with a large box.

    Checks, within twice the combined standard errors,

        E[N_k(E + eps/2) - N_k(E - eps/2)] - err <= N(E + eps) - N(E)
        N(E + eps) - N(E) <= E[N_k(E + 2 eps) - N_k(E - 2 eps)] + err

    with err = exp(-eps**(-eta0)) and N estimated on an independent Dirichlet
    box of half-side k_big (default 2k), drawn at ensemble seed (seed + 1) mod 2**64.
    A failed realization raises.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if eta0 <= 1.0:
        raise ValidationError("eta0 must exceed 1")
    if k_big is None:
        k_big = 2 * k
    d = background.d
    err = math.exp(-eps ** (-eta0))
    inner_E = np.array([E - 2 * eps, E - eps / 2.0, E + eps / 2.0, E + 2 * eps])
    counts = _periodic_counts(background, profile, disorder, k, n_theta, inner_E, seed)

    def increments(i):
        v = counts(i)
        return np.array([v[2] - v[1], v[3] - v[0]])

    incr = trials(increments, n_realizations, threads)
    # one 1-d reduction per column: an axis-0 reduction of the stack rounds differently
    lower, se_lower = map(float, mean_stderr(incr[:, 0]))
    upper, se_upper = map(float, mean_stderr(incr[:, 1]))
    big_box = BoxSpec(d=d, k=k_big, m=background.m, bc="dirichlet")
    mid_curve = empirical_ids(background, profile, disorder, big_box, n_realizations,
                              np.array([E, E + eps]), seed=(seed + 1) % 2**64, threads=threads)
    if mid_curve.meta["failures"]:
        raise mid_curve.meta["failures"][0]
    middle = float(mid_curve.values[1] - mid_curve.values[0])
    se_mid = float(math.hypot(mid_curve.stderr[0], mid_curve.stderr[1]))
    ok_lower = (lower - err) <= middle + 2.0 * math.hypot(se_lower, se_mid)
    ok_upper = middle <= (upper + err) + 2.0 * math.hypot(se_upper, se_mid)
    successes = int(ok_lower) + int(ok_upper)
    p_lo, p_hi = clopper_pearson(successes, 2)
    return CheckReport(
        name="sandwich", trials=2, successes=successes, p_lo=p_lo, p_hi=p_hi,
        bound=err, verdict="pass" if successes == 2 else "fail",
        details={"lower": lower, "middle": middle, "upper": upper,
                 "se_lower": se_lower, "se_middle": se_mid, "se_upper": se_upper,
                 "E": E, "eps": eps, "k": k, "k_big": k_big, "eta0": eta0})


# -- band-edge tail exponent ---------------------------------------------------


@dataclass
class ExponentFit:
    """Fitted slope of log |log dN| against log eps, with bootstrap CI.

    ci_lo and ci_hi bound the slope under a residual bootstrap about the
    fitted line: they see only the scatter of the admissible points about
    that line, not the ensemble sampling noise of a Monte Carlo curve, so
    they can be far narrower than the seed-to-seed spread of the slope.
    """

    slope: float
    intercept: float
    ci_lo: float
    ci_hi: float
    r2: float
    eps_used: np.ndarray
    dN_used: np.ndarray
    n_points: int


def lifshitz_exponent(curve: IDSCurve, E_plus: float, eps_grid, n_boot: int = 1000,
                      seed: int = 715517) -> ExponentFit:
    """Tail-exponent probe of a counting curve just above the energy E_plus.

    Admissible points keep dN = N(E_plus + eps) - N(E_plus) strictly positive,
    above ten machine epsilons, with |log dN| > 1; Monte Carlo curves must
    additionally have at least 5 raw eigenvalue counts behind the increment.
    Fewer than 4 admissible points raise InsufficientDataError.  The CI is
    a residual-bootstrap percentile interval about the fitted line; it does
    not include the ensemble sampling noise of a Monte Carlo curve.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0):
        raise ValidationError("eps grid must be positive")
    values = curve.value_at(np.concatenate([[E_plus], E_plus + eps_grid]))
    dN = values[1:] - values[0]
    admissible = (dN > 0) & (dN > 10 * np.finfo(float).eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        logdN = np.where(admissible, np.log(np.where(dN > 0, dN, 1.0)), 0.0)
    admissible &= np.abs(logdN) > 1.0
    if curve.stderr is not None and curve.n_realizations > 1:
        raw_counts = dN * curve.volume * curve.n_realizations
        admissible &= raw_counts >= 5.0 - 1e-9
    eps_a, dN_a = eps_grid[admissible], dN[admissible]
    if len(eps_a) < 4:
        raise InsufficientDataError(
            f"only {len(eps_a)} admissible points (need >= 4) for the tail fit")
    x = np.log(eps_a)
    y = np.log(np.abs(np.log(dN_a)))
    slope, intercept, r2 = fit_line(x, y)
    ci_lo, ci_hi = bootstrap_slope_interval(x, y, n_boot=n_boot, seed=seed)
    return ExponentFit(slope=slope, intercept=intercept, ci_lo=ci_lo, ci_hi=ci_hi,
                       r2=r2, eps_used=eps_a, dN_used=dN_a, n_points=len(eps_a))


def theoretical_exponent(d: int, kappa: float, range_kind: str, nu: float = None,
                         nondegenerate: bool = True) -> float | None:
    """Closed-form tail-exponent target, or None where no prediction applies.

    short_range media need the band-edge non-degeneracy; long_range media
    additionally compete with the d/(nu-d) channel, which wins outright when
    kappa + d/2 < d/(nu-d) regardless of degeneracy.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if kappa < 0:
        raise ValidationError("tail index kappa must be >= 0")
    if range_kind in ("short_range", "compact"):
        if range_kind == "short_range" and nu is not None and not nu > d + 2:
            raise ValidationError("short_range requires nu > d + 2")
        return -(d / 2.0 + kappa) if nondegenerate else None
    if range_kind == "long_range":
        if nu is None or not (d < nu <= d + 2):
            raise ValidationError("long_range requires d < nu <= d + 2")
        channel = d / (nu - d)
        if nondegenerate:
            return -max(d / 2.0 + kappa, channel)
        if kappa + d / 2.0 < channel:
            return -channel
        return None
    raise ValidationError("range_kind must be long_range, short_range or compact")


# -- localization-input checks ---------------------------------------------------


def _window_hits(operator, E: float, radii: np.ndarray) -> np.ndarray:
    """Per radius t, whether #{lambda <= E + t} - #{lambda <= E - t} > 0 by `counts_below`: with its
    slack eta, an eigenvalue in E - t + eta <= lambda < E + t + eta (a hit at E + t, none at E - t)."""
    counts = counts_below(operator, np.concatenate([E - radii, E + radii]))
    return counts[len(radii):] > counts[:len(radii)]


def ile_check(background: PeriodicBackground, profile: SingleSiteProfile,
              disorder: DisorderSpec, E_plus: float, k: int, alpha: float,
              p: float, n_trials: int, theta=None, seed: int = 0,
              threads: int = 1) -> CheckReport:
    """Initial-scale estimate: how often a box has an eigenvalue in [E_plus - 1/k, E_plus + 1/k].

    The window is counted by `_window_hits`, with its edge rule.  Boxes have
    half-side round(k**alpha) with quasiperiodic bc; the observed frequency is
    compared against k**(-p) through its Clopper-Pearson upper bound.  Passing
    requires the upper bound below k**(-p), or zero hits.  A failed trial raises.
    """
    if alpha <= 1.0:
        raise ValidationError("box-growth exponent alpha must exceed 1")
    if p <= 0 or k < 2:
        raise ValidationError("need p > 0 and k >= 2")
    d = background.d
    k_box = max(1, int(round(k**alpha)))
    box = BoxSpec(d=d, k=k_box, m=background.m, bc="quasiperiodic", theta=theta)
    operator = operator_sampler(background, profile, disorder, box, seed)
    threshold = 1.0 / k
    _, p_lo, p_hi, successes = frequency(
        lambda i: _window_hits(operator(i), E_plus, np.array([threshold]))[0], n_trials, threads)
    bound = float(k) ** (-p)
    verdict = "pass" if (successes == 0 or p_hi <= bound) else "fail"
    return CheckReport(name="initial_scale", trials=n_trials, successes=successes,
                       p_lo=p_lo, p_hi=p_hi, bound=bound, verdict=verdict,
                       details={"k": k, "k_box": k_box, "alpha": alpha, "p": p,
                                "distance_threshold": threshold})


def wegner_check(background: PeriodicBackground, profile: SingleSiteProfile,
                 disorder: DisorderSpec, E: float, ks, eps_list, n_trials: int,
                 theta=None, seed: int = 0, min_exponent: float = 0.5, volume_ratio_cap: float = 2.5,
                 threads: int = 1) -> CheckReport:
    """Level-repulsion probe: P(an eigenvalue in [E - eps, E + eps]) across eps and box sizes.

    The windows are counted by `_window_hits`, with its edge rule.  Reports
    the fitted eps-exponent on the largest box and whether the hit probability
    grows at most like the volume (ratio capped) between consecutive box sizes.
    Only compactly supported profiles are accepted: level statistics under
    unbounded-range couplings are outside the regime this probe is meant for.
    A failed trial raises.
    """
    if profile.kind != "compact":
        raise ValidationError("level-repulsion probe requires a compact profile")
    ks = tuple(int(k) for k in ks)
    eps_list = np.sort(np.asarray(eps_list, dtype=float))
    if np.any(eps_list <= 0):
        raise ValidationError("eps values must be positive")
    d = background.d
    table = {}
    for k in ks:
        box = BoxSpec(d=d, k=k, m=background.m, bc="quasiperiodic", theta=theta)
        operator = operator_sampler(background, profile, disorder, box, seed)
        table[k] = trials(lambda i: _window_hits(operator(i), E, eps_list), n_trials, threads).mean(axis=0)
    probs_top = table[max(ks)]
    pos = probs_top > 0
    if pos.sum() >= 2:
        n_hat, _, _ = fit_line(np.log(eps_list[pos]), np.log(probs_top[pos]))
    else:
        n_hat = float("nan")
    ratios = []
    for k1, k2 in zip(ks, ks[1:]):
        both = (table[k1] > 0) & (table[k2] > 0)
        if np.any(both):
            ratios.append(float(np.max(table[k2][both] / table[k1][both])))
    max_ratio = max(ratios) if ratios else float("nan")
    volume_ok = (not ratios) or max_ratio <= volume_ratio_cap
    k_top = max(ks)
    succ = int(round(probs_top[np.argmax(pos)] * n_trials)) if pos.any() else 0
    p_lo, p_hi = clopper_pearson(succ, n_trials)
    verdict = "pass" if (np.isfinite(n_hat) and n_hat > min_exponent and volume_ok) else "fail"
    return CheckReport(name="wegner", trials=n_trials, successes=succ, p_lo=p_lo,
                       p_hi=p_hi, bound=min_exponent, verdict=verdict,
                       details={"n_hat": n_hat, "max_volume_ratio": max_ratio,
                                "ks": list(ks), "eps": eps_list.tolist(),
                                "probs": {k: v.tolist() for k, v in table.items()},
                                "E": E, "k_top": k_top})


def shell_decay_rate(vector: np.ndarray, positions: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Exponential decay rate of |vector| away from its largest entry.

    Shell r collects nodes at max-norm distance in [r, r+1) from the peak
    node; the rate is minus the least-squares slope of log shell mass
    against r over shells with mass above MIN_SHELL_MASS.
    """
    v = np.asarray(vector)
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    center = positions[int(np.argmax(np.abs(v)))]
    dist = np.max(np.abs(positions - center[None, :]), axis=1)
    n_shells = int(math.floor(dist.max())) + 1
    masses = np.zeros(n_shells)
    for r in range(n_shells):
        sel = (dist >= r) & (dist < r + 1)
        masses[r] = np.linalg.norm(v[sel]) if np.any(sel) else 0.0
    keep = masses > MIN_SHELL_MASS
    if keep.sum() < 2:
        return float("nan"), float("nan"), masses
    rs = np.arange(n_shells, dtype=float)[keep]
    slope, _, r2 = fit_line(rs, np.log(masses[keep]))
    return -slope, r2, masses


def decay_diagnostic(operator, window: tuple) -> list[dict]:
    """Shell-decay rates of all eigenvectors with eigenvalue inside the window."""
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValidationError("energy window must have positive width")
    mat = operator.matrix
    if mat.shape[0] > DECAY_DENSE_LIMIT:
        raise ValidationError("decay diagnostic is limited to dense-solvable sizes")
    w, v = scipy.linalg.eigh(mat.toarray())
    positions = operator.node_positions()
    out = []
    for i in np.nonzero((w >= lo) & (w <= hi))[0]:
        rate, r2, masses = shell_decay_rate(v[:, i], positions)
        out.append({"eigenvalue": float(w[i]), "decay_rate": rate, "fit_r2": r2,
                    "n_shells": int(np.sum(masses > 0))})
    return out
