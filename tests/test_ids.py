import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lifshitz_lab.ids as ids_mod
import lifshitz_lab.lattice as lattice_mod
from lifshitz_lab.curves import IDSCurve, InsufficientDataError
from lifshitz_lab.disorder import (DisorderSpec, ValidationError, lattice_cube,
                                   sample_realization)
from lifshitz_lab.ids import (empirical_ids, event_E_check, expected_periodic_ids,
                              ile_check, lifshitz_exponent, periodic_approx_ids,
                              sandwich_check, shell_decay_rate, theoretical_exponent,
                              wegner_check)
from lifshitz_lab.lattice import (BoxSpec, PeriodicBackground, assemble_operator,
                                  compact_profile, identity_field,
                                  long_range_profile, operator_sampler,
                                  required_window, sample_coefficient_field)
from lifshitz_lab.runner import TaskFailure
from lifshitz_lab.spectral import counts_below, periodic_ids_curve, floquet_bands
from lifshitz_lab.stats import _bootstrap_slopes, fit_line

UNIFORM = DisorderSpec()
ZERO = DisorderSpec(law="bernoulli", p=1.0, a=0.0)


# -- counting-function basics ------------------------------------------------------


def test_finite_volume_ids_exact_on_diagonal_fixture():
    A = sp.diags([0.5, 1.0, 2.0, 4.0]).tocsr()
    assert np.array_equal(counts_below(A, [0.75, 3.0]), [1, 3])


def test_empirical_ids_monotone_and_bounded():
    box = BoxSpec(d=1, k=3, m=2)
    curve = empirical_ids(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                          UNIFORM, box, n_realizations=5,
                          energies=np.linspace(0.0, 40.0, 9), seed=2)
    assert np.all(np.diff(curve.values) >= 0.0)
    assert curve.values[0] >= 0.0
    n_dofs = box.n_cells - 1
    assert curve.values[-1] <= n_dofs / box.volume + 1e-12
    assert curve.stderr.shape == curve.values.shape


def test_empirical_ids_zero_coupling_matches_free_counts():
    box = BoxSpec(d=1, k=2, m=2)
    op = assemble_operator(identity_field(box))
    energies = np.linspace(0.5, 30.0, 7)
    curve = empirical_ids(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                          ZERO, box, n_realizations=3, energies=energies, seed=0)
    free = counts_below(op, energies) / box.volume
    assert curve.values == pytest.approx(free, abs=1e-14)
    assert np.max(curve.stderr) < 1e-14


def test_periodized_zero_pattern_equals_reference_bands():
    bg = PeriodicBackground.identity(1, 2)
    prof = compact_profile(d=1)
    pattern = sample_realization(ZERO, lattice_cube(1, 1), seed=0, index=0)
    energies = np.linspace(0.0, 16.0, 8)
    per = periodic_approx_ids(bg, prof, pattern, k=1, n_theta=6, energies=energies)
    free = periodic_ids_curve(floquet_bands(bg, n_theta=18), energies)
    # the supercell samples the same bands on a refined quasimomentum grid
    assert np.max(np.abs(per.values - free.values)) < 1e-12


# -- form monotonicity ---------------------------------------------------------------


@given(st.integers(0, 2**16), st.floats(0.05, 0.9))
@settings(max_examples=20, deadline=None)
def test_truncating_couplings_never_lowers_counts(seed, delta):
    box = BoxSpec(d=1, k=3, m=2)
    bg = PeriodicBackground.identity(1, 2)
    prof = compact_profile(d=1)
    omega = sample_realization(UNIFORM, required_window(prof, box), seed, 0)
    A_full = assemble_operator(sample_coefficient_field(bg, prof, omega, box)).matrix
    capped = dataclasses.replace(omega, values=np.minimum(omega.values, delta))
    A_trunc = assemble_operator(sample_coefficient_field(bg, prof, capped, box)).matrix
    lam_full = np.sort(scipy.linalg.eigvalsh(A_full.toarray()))
    lam_trunc = np.sort(scipy.linalg.eigvalsh(A_trunc.toarray()))
    assert np.all(lam_trunc <= lam_full + 1e-10)
    energies = np.linspace(0.0, float(lam_full[-1]), 7)
    assert np.all(counts_below(A_trunc, energies) >= counts_below(A_full, energies))


# -- tail exponent machinery ------------------------------------------------------------


def synthetic_curve(a, eps, E_plus=0.0):
    # N(E_plus) = 0 and N(E_plus + eps) = exp(-eps^-a): the double-log plot
    # of the increment is exactly linear with slope -a
    energies = np.concatenate([[E_plus], E_plus + eps])
    values = np.concatenate([[0.0], np.exp(-eps**-a)])
    order = np.argsort(energies)
    return IDSCurve(energies=energies[order], values=np.sort(values),
                    volume=1.0, n_realizations=1)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.0])
def test_synthetic_exponent_recovered(a):
    eps = np.geomspace(0.1, 0.5, 12)
    fit = lifshitz_exponent(synthetic_curve(a, eps), 0.0, eps, n_boot=100, seed=0)
    assert fit.slope == pytest.approx(-a, abs=1e-3)
    assert fit.r2 > 1.0 - 1e-12
    assert fit.ci_lo - 1e-9 <= fit.slope <= fit.ci_hi + 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_log_factor_tail_needs_corrected_fit(a):
    # ln dN = -c eps^(-a) ln(1/eps), the uniform-coupling tail shape, on the
    # acceptance grid: ln|ln dN| - ln ln(1/eps) is exactly linear in ln eps
    # with slope -a, while the plain slope also carries d ln ln(1/eps)/d ln eps
    # = -1/ln(1/eps), averaged over the fitted points
    eps = np.geomspace(1e-2, 0.3, 40)
    dN = np.exp(-0.5 * eps**-a * np.log(1.0 / eps))
    curve = IDSCurve(energies=np.concatenate([[0.0], eps]),
                     values=np.concatenate([[0.0], dN]), volume=1.0,
                     n_realizations=1)
    fit = lifshitz_exponent(curve, 0.0, eps, n_boot=100, seed=0)
    x = np.log(fit.eps_used)
    y = np.log(np.abs(np.log(fit.dN_used))) - np.log(np.log(1.0 / fit.eps_used))
    assert fit_line(x, y)[0] == pytest.approx(-a, abs=1e-3)
    miss = fit.slope - (-a)
    assert (-1.0 / np.log(1.0 / fit.eps_used.max()) <= miss
            <= -1.0 / np.log(1.0 / fit.eps_used.min()))


@given(st.integers(4, 40), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bootstrap_slopes_equal_the_per_resample_loop(n, n_boot, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-5.0, 0.0, n))
    y = rng.uniform(-2.0, 2.0) * x + rng.standard_normal(n)
    # the loop the vectorized resampling replaced: one fit per resample
    slope, intercept, _ = fit_line(x, y)
    resid = y - (slope * x + intercept)
    idx = np.random.default_rng(seed).integers(0, n, size=(n_boot, n))
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    want = np.empty(n_boot)
    for b in range(n_boot):
        yb = slope * x + intercept + resid[idx[b]]
        want[b] = float(np.sum(xc * (yb - yb.mean())) / denom)
    assert np.array_equal(_bootstrap_slopes(x, y, n_boot, seed), want)


def test_exponent_requires_enough_admissible_points():
    eps = np.geomspace(0.1, 0.5, 3)
    with pytest.raises(InsufficientDataError):
        lifshitz_exponent(synthetic_curve(0.5, eps), 0.0, eps)


def test_exponent_drops_flat_increments():
    # increments below the |log dN| > 1 cut must be excluded, not fitted
    eps = np.geomspace(0.1, 0.5, 8)
    curve = synthetic_curve(0.5, eps)
    values = curve.values.copy()
    values[-1] = 0.9            # dN ~ 0.9, |log dN| ~ 0.1: inadmissible
    curve = IDSCurve(energies=curve.energies, values=np.maximum.accumulate(values),
                     volume=1.0, n_realizations=1)
    fit = lifshitz_exponent(curve, 0.0, eps, n_boot=50, seed=1)
    assert fit.n_points == 7


def test_exponent_monte_carlo_needs_raw_counts():
    # MC curves additionally need >= 5 raw eigenvalues behind each increment
    eps = np.geomspace(0.1, 0.5, 8)
    base = synthetic_curve(0.5, eps)
    vol, n_real = 2.0, 2
    starved = IDSCurve(energies=base.energies, values=base.values, volume=vol,
                       n_realizations=n_real, stderr=np.zeros_like(base.values))
    with pytest.raises(InsufficientDataError):
        lifshitz_exponent(starved, 0.0, eps)


@pytest.mark.parametrize("d,kappa,kind,nu,nondeg,expect", [
    (1, 0.0, "short_range", None, True, -0.5),
    (1, 1.5, "short_range", None, True, -2.0),
    (2, 0.5, "compact", None, True, -1.5),
    (1, 0.5, "long_range", 2.5, True, -1.0),
    (1, 0.0, "long_range", 2.2, True, -1.0 / 1.2),
    (1, 0.0, "long_range", 2.5, False, -1.0 / 1.5),
    (1, 1.0, "long_range", 2.5, False, None),
    (1, 0.5, "short_range", None, False, None),
])
def test_theoretical_exponent_branches(d, kappa, kind, nu, nondeg, expect):
    got = theoretical_exponent(d, kappa, kind, nu=nu, nondegenerate=nondeg)
    if expect is None:
        assert got is None
    else:
        assert got == pytest.approx(expect, rel=1e-12)


@given(st.integers(1, 3), st.floats(0.01, 3.0), st.floats(0.01, 1.99))
@settings(max_examples=50)
def test_theoretical_exponent_long_range_is_min_of_mechanisms(d, kappa, excess):
    nu = d + excess
    got = theoretical_exponent(d, kappa, "long_range", nu=nu, nondegenerate=True)
    assert got == pytest.approx(min(-(d / 2.0 + kappa), -d / (nu - d)), rel=1e-12)


# -- ensemble failure rules ---------------------------------------------------------------


def _lose_realizations(monkeypatch, module, lost):
    # the lattice plan draws through draw_couplings(spec, hashes, seed, index);
    # the periodized drivers draw each pattern through sample_realization
    name = "draw_couplings" if module is lattice_mod else "sample_realization"
    real = getattr(module, name)

    def flaky(spec, sites, seed, index):
        if index in lost:
            raise RuntimeError("synthetic loss")
        return real(spec, sites, seed, index)

    monkeypatch.setattr(module, name, flaky)


def test_empirical_ids_drops_a_failed_realization(monkeypatch):
    bg, prof, box = PeriodicBackground.identity(1, 2), compact_profile(d=1), BoxSpec(d=1, k=2, m=2)
    energies = np.array([1.0, 8.0])
    full = empirical_ids(bg, prof, UNIFORM, box, 4, energies, seed=2)
    assert full.n_realizations == 4 and full.meta["failures"] == []
    operator = operator_sampler(bg, prof, UNIFORM, box, seed=2)
    kept = np.mean([counts_below(operator(i), energies) / box.volume for i in (0, 2, 3)], axis=0)
    _lose_realizations(monkeypatch, lattice_mod, {1})
    curve = empirical_ids(bg, prof, UNIFORM, box, 4, energies, seed=2, threads=2)
    assert curve.n_realizations == 3
    assert [f.index for f in curve.meta["failures"]] == [1]
    assert np.array_equal(curve.values, kept)
    _lose_realizations(monkeypatch, lattice_mod, {0, 1, 2, 3})
    with pytest.raises(TaskFailure):
        empirical_ids(bg, prof, UNIFORM, box, 4, energies, seed=2)


def test_expected_periodic_ids_drops_a_failed_realization(monkeypatch):
    bg, prof = PeriodicBackground.identity(1, 2), compact_profile(d=1)
    _lose_realizations(monkeypatch, ids_mod, {2})
    curve = expected_periodic_ids(bg, prof, UNIFORM, 2, 3, 2, [1.0, 8.0], seed=4, threads=3)
    assert curve.n_realizations == 2
    assert [f.index for f in curve.meta["failures"]] == [2]
    assert curve.bc == "floquet" and curve.volume == 5.0


def test_ensemble_estimators_need_a_realization():
    bg, prof = PeriodicBackground.identity(1, 2), compact_profile(d=1)
    with pytest.raises(ValidationError):
        empirical_ids(bg, prof, UNIFORM, BoxSpec(d=1, k=2, m=2), 0, [1.0])
    with pytest.raises(ValidationError):
        expected_periodic_ids(bg, prof, UNIFORM, 2, 0, 2, [1.0])


def test_ile_check_raises_on_a_failed_trial(monkeypatch):
    _lose_realizations(monkeypatch, lattice_mod, {1})
    with pytest.raises(TaskFailure) as info:
        ile_check(PeriodicBackground.identity(1, 2), compact_profile(d=1), UNIFORM,
                  E_plus=1.0, k=2, alpha=1.2, p=2.0, n_trials=3, threads=2)
    assert info.value.index == 1


def test_sandwich_check_raises_on_a_failed_reference_realization(monkeypatch):
    # the large-box reference is an empirical_ids mean, which drops failures;
    # the check must not compare against a silently thinner ensemble
    _lose_realizations(monkeypatch, lattice_mod, {1})
    with pytest.raises(TaskFailure) as info:
        sandwich_check(PeriodicBackground.identity(1, 2), compact_profile(d=1), UNIFORM,
                       E=0.0, eps=0.2, k=2, n_realizations=3, n_theta=2, k_big=4, threads=2)
    assert info.value.index == 1


# -- localization-input checkers ---------------------------------------------------------


def test_sandwich_check_passes_on_calibrated_instance():
    rep = sandwich_check(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                         UNIFORM, E=0.0, eps=0.2, k=4, n_realizations=20,
                         n_theta=4, k_big=8, seed=31)
    assert rep.verdict == "pass"
    assert rep.trials == 2 and rep.successes == 2


def test_sandwich_check_fails_when_normalization_breaks(monkeypatch):
    # negative control: inflate the reference curve by 5x and the two-sided
    # ordering must be violated
    real = ids_mod.empirical_ids

    def inflated(*args, **kwargs):
        curve = real(*args, **kwargs)
        return IDSCurve(energies=curve.energies,
                        values=5.0 * curve.values, volume=curve.volume,
                        n_realizations=curve.n_realizations, stderr=curve.stderr,
                        bc=curve.bc, meta=curve.meta)

    monkeypatch.setattr(ids_mod, "empirical_ids", inflated)
    rep = sandwich_check(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                         UNIFORM, E=0.0, eps=0.2, k=4, n_realizations=20,
                         n_theta=4, k_big=8, seed=31)
    assert rep.verdict == "fail"


def test_ile_check_rejects_shrinking_boxes():
    bg = PeriodicBackground.identity(1, 2)
    with pytest.raises(ValidationError):
        ile_check(bg, compact_profile(d=1), UNIFORM, E_plus=1.0, k=4, alpha=0.9,
                  p=2.0, n_trials=3)
    with pytest.raises(ValidationError):
        ile_check(bg, compact_profile(d=1), UNIFORM, E_plus=1.0, k=1, alpha=1.2,
                  p=2.0, n_trials=3)


def test_wegner_check_requires_compact_profile():
    bg = PeriodicBackground.identity(1, 2)
    with pytest.raises(ValidationError):
        wegner_check(bg, long_range_profile(d=1, nu=2.5), UNIFORM, E=8.0,
                     ks=[4], eps_list=[0.1], n_trials=2)


def test_event_check_positive_coupling_always_holds():
    rep = event_E_check(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                        UNIFORM, k=2, eps=0.1, n_trials=10, seed=3)
    assert rep.successes == rep.trials == 10
    assert rep.verdict == "pass"
    # eps = 0 degenerates to plain nonnegativity of the random part
    rep0 = event_E_check(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                         UNIFORM, k=2, eps=0.0, n_trials=5, seed=3)
    assert rep0.verdict == "pass"


# -- decay diagnostics ----------------------------------------------------------------------


def test_shell_decay_rate_exact_exponential():
    # peak at the boundary: every shell holds exactly one node, so the
    # log-mass line is exact
    positions = np.arange(0, 21, dtype=float)[:, None]
    vec = np.exp(-0.7 * positions[:, 0])
    rate, r2, masses = shell_decay_rate(vec, positions)
    assert rate == pytest.approx(0.7, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert masses[0] == pytest.approx(1.0)


def test_shell_decay_rate_centered_bump_close():
    positions = np.arange(-10, 11, dtype=float)[:, None]
    vec = np.exp(-0.7 * np.abs(positions[:, 0]))
    rate, r2, _ = shell_decay_rate(vec, positions)
    assert rate == pytest.approx(0.7, abs=0.05)
    assert r2 > 0.99


def test_shell_decay_rate_flat_vector_reports_zero():
    positions = np.arange(-8, 9, dtype=float)[:, None]
    vec = np.ones(len(positions))
    rate, r2, _ = shell_decay_rate(vec, positions)
    assert abs(rate) < 1e-9
