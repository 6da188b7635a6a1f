"""Acceptance suite: eleven numbered criteria, one test each.

Tolerances are pinned; every random input is seeded, so each test is a
deterministic pass/fail verdict, and all eleven must pass.  Criterion 6
fits the uniform-coupling tail with its logarithmic factor removed and
decides the k-trend at the slope's Monte Carlo error; its verdict line
also carries the plain double-log slope.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import scipy.linalg

from lifshitz_lab.anderson import (anderson_ids, chernoff_bound_P1,
                                   mc_chernoff_event, mc_product_event_1,
                                   mc_product_event_2, product_bound_P_eps_alpha_1,
                                   product_bound_P_eps_alpha_2, sample_anderson)
from lifshitz_lab.config import parse_config
from lifshitz_lab.disorder import DisorderSpec, sample_realization
from lifshitz_lab.experiments import run
from lifshitz_lab.ids import (decay_diagnostic, ile_check, lifshitz_exponent,
                              sandwich_check, wegner_check)
from lifshitz_lab.lattice import (BoxSpec, PeriodicBackground, assemble_operator,
                                  compact_profile, identity_field,
                                  required_window, sample_coefficient_field)
from lifshitz_lab.spectral import (count_eigenvalues_below, count_sorted_leq,
                                   counts_below, floquet_bands, periodic_ids_curve)
from lifshitz_lab.stats import fit_line

UNIFORM = DisorderSpec()


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n:2d} ({name}): {status}"
    if detail:
        line += f" - {detail}"
    print(line)
    return line


def random_operator(rng, d, k):
    box = BoxSpec(d=d, k=k, m=2)
    prof = compact_profile(d=d, amplitude=float(rng.uniform(0.2, 2.0)))
    bg = PeriodicBackground.identity(d, 2)
    omega = sample_realization(UNIFORM, required_window(prof, box),
                               seed=int(rng.integers(0, 2**32)), index=0)
    return assemble_operator(sample_coefficient_field(bg, prof, omega, box))


def test_criterion_01_inertia_count_oracle():
    # factored-inertia counts against dense diagonalization, 100 instances
    # per dimension, instances up to ~2000 degrees of freedom, zero mismatches
    t0 = time.time()
    mismatches = 0
    checked = 0
    for d, small_k, big_k, n_big in ((1, 60, 480, 6), (2, 6, 10, 6)):
        rng = np.random.default_rng(1000 + d)
        ks = [int(rng.integers(2, small_k + 1)) for _ in range(100 - n_big)]
        ks += [int(rng.integers(max(big_k - 40, small_k), big_k + 1)) for _ in range(n_big)]
        for k in ks:
            op = random_operator(rng, d, k)
            A = op.matrix
            vals = np.sort(scipy.linalg.eigvalsh(A.toarray()))
            E = float(rng.uniform(vals[0], vals[-1]))
            dense = count_sorted_leq(vals, E)
            fast = count_eigenvalues_below(A, E)
            checked += 1
            if fast != dense:
                mismatches += 1
    wall = time.time() - t0
    ok = mismatches == 0 and wall < 120.0
    line = report(1, "inertia count oracle", ok,
                  f"{checked} instances, {mismatches} mismatches, {wall:.1f}s")
    assert ok, line


def test_criterion_02_free_operator_analytics():
    # Dirichlet chain eigenvalues and two-point-cell band functions in closed form
    box = BoxSpec(d=1, k=3, m=8)
    op = assemble_operator(identity_field(box))
    vals = np.sort(scipy.linalg.eigvalsh(op.matrix.toarray()))
    n = op.matrix.shape[0]
    j = np.arange(1, n + 1)
    exact = (4.0 / box.h**2) * np.sin(j * np.pi / (2.0 * (n + 1)))**2
    rel = float(np.max(np.abs(vals - exact) / exact))

    bands = floquet_bands(PeriodicBackground.identity(1, 2), n_theta=128)
    th = bands.thetas[:, 0]
    branch = np.sort(np.stack([2.0 - 2.0 * np.cos(th / 2.0),
                               2.0 + 2.0 * np.cos(th / 2.0)], axis=1), axis=1)
    band_dev = float(np.max(np.abs(bands.bands * 0.25 - branch)))
    ok = rel < 1e-8 and band_dev < 1e-10
    line = report(2, "free-operator analytics", ok,
                  f"eig rel dev {rel:.2e}, band dev {band_dev:.2e}")
    assert ok, line


def test_criterion_03_van_hove_edge_exponent():
    # reference-medium counting function grows like eps^(d/2) at the bottom edge
    results = {}
    for d, m, n_theta, eps_lo, tol in ((1, 64, 512, 0.05, 0.05),
                                       (2, 16, 64, 0.1, 0.15)):
        bands = floquet_bands(PeriodicBackground.identity(d, m), n_theta=n_theta)
        eps = np.geomspace(eps_lo, 2.0, 15)
        curve = periodic_ids_curve(bands, np.concatenate([[0.0], eps]))
        dN = curve.values[1:] - curve.values[0]
        slope, _, _ = fit_line(np.log(eps), np.log(dN))
        results[d] = (slope, d / 2.0, tol)
    ok = all(abs(s - t) <= tol for s, t, tol in results.values())
    line = report(3, "van Hove edge exponent", ok,
                  ", ".join(f"d={d}: slope {s:.4f} vs {t} +/- {tol}"
                            for d, (s, t, tol) in results.items()))
    assert ok, line


def test_criterion_04_monotonicity_suite():
    # lowering any coupling lowers every eigenvalue and raises every count
    rng = np.random.default_rng(404)
    violations = 0
    for trial in range(50):
        d = 1 if trial % 3 else 2
        k = int(rng.integers(1, 4 if d == 2 else 6))
        box = BoxSpec(d=d, k=k, m=2)
        prof = compact_profile(d=d, amplitude=float(rng.uniform(0.3, 2.0)))
        bg = PeriodicBackground.identity(d, 2)
        omega_hi = sample_realization(UNIFORM, required_window(prof, box),
                                      seed=int(rng.integers(0, 2**32)), index=0)
        omega_lo = dataclasses.replace(
            omega_hi, values=np.minimum(omega_hi.values, float(rng.uniform(0.05, 0.95))))
        A_hi = assemble_operator(sample_coefficient_field(bg, prof, omega_hi, box)).matrix
        A_lo = assemble_operator(sample_coefficient_field(bg, prof, omega_lo, box)).matrix
        lam_hi = np.sort(scipy.linalg.eigvalsh(A_hi.toarray()))
        lam_lo = np.sort(scipy.linalg.eigvalsh(A_lo.toarray()))
        if np.any(lam_lo > lam_hi + 1e-10):
            violations += 1
            continue
        energies = np.linspace(float(lam_hi[0]), float(lam_hi[-1]), 7)
        if np.any(counts_below(A_lo, energies) < counts_below(A_hi, energies)):
            violations += 1
    ok = violations == 0
    line = report(4, "coupling monotonicity", ok, f"50 pairs, {violations} violations")
    assert ok, line


def test_criterion_05_sandwich_ordering():
    # periodized-disorder increments bracket the large-box increment within 2 sigma
    verdicts = {}
    for eps in (0.2, 0.1):
        rep = sandwich_check(PeriodicBackground.identity(1, 2), compact_profile(d=1),
                             UNIFORM, E=0.0, eps=eps, k=8, n_realizations=200,
                             n_theta=4, k_big=16, seed=31)
        verdicts[eps] = rep.verdict
    ok = all(v == "pass" for v in verdicts.values())
    line = report(5, "sandwich ordering", ok,
                  ", ".join(f"eps={e}: {v}" for e, v in verdicts.items()))
    assert ok, line


def log_corrected_slope(eps, dN):
    # slope of ln|ln dN| - ln ln(1/eps) against ln eps; for
    # ln dN = -c eps^(-a) ln(1/eps) it is exactly -a, the eps -> 0 limit of the
    # plain double-log slope, without that slope's -1/ln(1/eps) term
    y = np.log(np.abs(np.log(dN))) - np.log(np.log(1.0 / eps))
    return fit_line(np.log(eps), y)[0]


def poisson_slope_sigma(curve, fit, n_resample=1000, seed=0):
    # Monte Carlo error of the corrected slope: the ensemble's pooled
    # eigenvalue counts between consecutive admissible energies are redrawn as
    # independent Poisson variables and the slope is refitted.  A draw that
    # leaves the lowest energy empty has no logarithm and is dropped.
    scale = curve.volume * curve.n_realizations
    bins = np.diff(np.rint(fit.dN_used * scale), prepend=0.0)
    rng = np.random.default_rng(seed)
    draws = np.cumsum(rng.poisson(bins, size=(n_resample, len(bins))), axis=1)
    slopes = [log_corrected_slope(fit.eps_used, row / scale)
              for row in draws if row[0] > 0]
    return float(np.std(slopes, ddof=1))


def tail_trend_verdict(seed):
    # Uniform couplings put a log factor on the tail,
    # ln dN ~ -c eps^(-1/2) ln(1/eps), so the plain double-log slope sits near
    # -1/2 - 1/ln(1/eps), about -1.2 at the only resolvable eps (0.2-0.3), and
    # approaches -1/2 only as eps -> 0 (eps <= 0.04 puts dN near 1e-19, out of
    # reach of any Monte Carlo count).  Window and trend are therefore checked
    # on the log-corrected slope, which has the same limit.  Its change from
    # k=64 to k=128 is far below its Monte Carlo error, so the trend only asks
    # that k=128 not recede from -1/2 by more than 2 combined sigma.
    eps = np.geomspace(1e-2, 0.3, 40)
    energies = np.concatenate([[0.0], eps])
    fits, slopes, sigmas = {}, {}, {}
    for k in (64, 128):
        curve = anderson_ids(UNIFORM, 1, k, 4.0, energies,
                             n_realizations=500, seed=seed)
        fits[k] = lifshitz_exponent(curve, 0.0, eps, n_boot=1000, seed=202)
        slopes[k] = log_corrected_slope(fits[k].eps_used, fits[k].dN_used)
        sigmas[k] = poisson_slope_sigma(curve, fits[k], seed=202)
    err = {k: abs(s - (-0.5)) for k, s in slopes.items()}
    margin = 2.0 * math.hypot(sigmas[64], sigmas[128])
    in_window = all(-0.8 <= s <= -0.2 for s in slopes.values())
    not_receding = err[128] <= err[64] + margin
    ok = bool(in_window and not_receding)
    detail = "; ".join(
        f"k={k}: corrected slope {slopes[k]:.4f} +/- {sigmas[k]:.3f} "
        f"(plain {f.slope:.4f}, r2={f.r2:.4f}, {f.n_points} admissible points)"
        for k, f in fits.items())
    detail += (f"; window [-0.8,-0.2] {'met' if in_window else 'missed'}; "
               f"|slope+0.5|: {err[64]:.3f} -> {err[128]:.3f}, allowed growth "
               f"{margin:.3f} {'kept' if not_receding else 'exceeded'}")
    return ok, detail


def test_criterion_06_lifshitz_tail_trend():
    # the log-corrected double-log slope of the uniform-coupling tail lands in
    # [-0.8, -0.2] at k=64 and k=128 and does not recede from -1/2 as k doubles
    ok, detail = tail_trend_verdict(seed=101)
    line = report(6, "tail exponent trend", ok, detail)
    assert ok, line


def test_criterion_07_bound_dominance():
    # (a) Chernoff majorizes its event frequency on 5 configurations;
    # (b) the product bounds stay below their event frequencies
    n_trials = 10**4
    t0 = time.time()
    failures = []

    chernoff_cases = [
        dict(spec=UNIFORM, k=2, delta=0.3),
        dict(spec=UNIFORM, k=8, delta=0.1, K=4.0),
        dict(spec=DisorderSpec(law="bernoulli", p=0.5, a=1.0), k=1, delta=0.4,
             truncation=1.0),
        dict(spec=DisorderSpec(law="kappa_tail", kappa=1.0), k=2, delta=0.2),
        dict(spec=UNIFORM, k=3, delta=0.15, K=2.0),
    ]
    for i, case in enumerate(chernoff_cases):
        spec = case.pop("spec")
        # some configurations are vacuous by design (bound clips to 1);
        # dominance must hold regardless, so the optimizer warning is noise here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            be = chernoff_bound_P1(spec, **case)
            freq, lo, hi, successes = mc_chernoff_event(spec, n_trials=n_trials,
                                                        seed=700 + i, **case)
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n_trials)
        if freq > be.bound + 3.0 * se:
            failures.append(f"chernoff[{i}] freq {freq:.4f} > bound {be.bound:.4f}")

    bern = DisorderSpec(law="bernoulli", p=0.3, a=1.0)
    for eps in (0.3, 0.5):
        be = product_bound_P_eps_alpha_1(bern, eps=eps, alpha=0.5, nu=2.5, d=1)
        freq, lo, hi, successes = mc_product_event_1(bern, eps=eps, alpha=0.5,
                                                     nu=2.5, d=1,
                                                     n_trials=n_trials, seed=42)
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n_trials)
        if freq < be.bound - 3.0 * se:
            failures.append(f"product1 eps={eps}: freq {freq:.4f} < bound {be.bound:.4f}")

    for eps in (0.3, 0.5):
        be = product_bound_P_eps_alpha_2(UNIFORM, eps=eps, alpha=0.25, nu=2.5,
                                         d=1, s=1.0, C=3.5)
        freq, lo, hi, successes = mc_product_event_2(UNIFORM, eps=eps, alpha=0.25,
                                                     nu=2.5, d=1, s=1.0,
                                                     n_trials=n_trials, seed=43)
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n_trials)
        if freq < be.bound - 3.0 * se:
            failures.append(f"product2 eps={eps}: freq {freq:.4f} < bound {be.bound:.4f}")

    wall = time.time() - t0
    ok = not failures and wall < 600.0
    line = report(7, "bound dominance", ok,
                  f"9 comparisons, {len(failures)} violations, {wall:.1f}s"
                  + ("; " + "; ".join(failures) if failures else ""))
    assert ok, line


def test_criterion_08_worked_bound_values():
    be1 = product_bound_P_eps_alpha_1(UNIFORM, eps=0.1, alpha=0.5, nu=2.5, d=1)
    core_dev = abs(be1.details["log_p_core"] - (-4.5 * math.log(10.0)))

    be2 = product_bound_P_eps_alpha_2(UNIFORM, eps=0.1, alpha=0.25, nu=2.5, d=1,
                                      s=1.0, C=1.0)
    window_ok = be2.details["n_sites"] == 11
    val_dev = abs(be2.log_bound - 13.75 * math.log(0.1))

    ok = core_dev <= 1e-12 and window_ok and val_dev <= 1e-12
    line = report(8, "worked bound values", ok,
                  f"core dev {core_dev:.1e}, window {be2.details['n_sites']}, "
                  f"value dev {val_dev:.1e}")
    assert ok, line


def test_criterion_09_localization_inputs():
    # gapped medium with zero couplings never puts spectrum near the probe;
    # an in-band probe trips the same check; the level-repulsion exponent
    # on the free 1d medium exceeds 1/2
    gapped = PeriodicBackground.two_phase(m=4, low=1.0, high=4.0)
    zero = DisorderSpec(law="bernoulli", p=1.0, a=0.0)
    rep_gap = ile_check(gapped, compact_profile(d=1), zero, E_plus=22.5, k=16,
                        alpha=1.2, p=2.0, n_trials=25, seed=1)

    free = PeriodicBackground.identity(1, 2)
    rep_band = ile_check(free, compact_profile(d=1), UNIFORM, E_plus=8.0, k=8,
                         alpha=2.0, p=2.0, n_trials=20, theta=(0.7,), seed=2)

    rep_wegner = wegner_check(free, compact_profile(d=1), UNIFORM, E=8.0,
                              ks=[8, 16], eps_list=[0.01, 0.02, 0.05],
                              n_trials=300, theta=(0.7,), seed=5,
                              min_exponent=0.5)

    ok = (rep_gap.verdict == "pass" and rep_gap.successes == 0
          and rep_band.verdict == "fail" and rep_band.frequency >= 0.95
          and rep_wegner.verdict == "pass")
    line = report(9, "localization inputs", ok,
                  f"gapped {rep_gap.successes}/{rep_gap.trials} hits ({rep_gap.verdict}), "
                  f"in-band freq {rep_band.frequency:.2f} ({rep_band.verdict}), "
                  f"repulsion exponent {rep_wegner.details.get('n_hat', float('nan')):.3f} "
                  f"({rep_wegner.verdict})")
    assert ok, line


def test_criterion_10_decay_diagnostic():
    # strong-disorder low eigenvectors decay; free-medium eigenvectors do not
    inst = sample_anderson(UNIFORM, 1, 40, 4.0, 0.0, seed=9, index=0)
    vals = np.sort(scipy.linalg.eigvalsh(inst.matrix.toarray()))
    above = vals[vals > 0.0]
    entries = decay_diagnostic(inst, (0.0, float(above[4]) + 1e-9))
    rates = [e["decay_rate"] for e in entries[:5]]
    r2s = [e["fit_r2"] for e in entries[:5]]
    localized_ok = len(entries) >= 5 and all(r > 0.0 for r in rates) and all(
        q > 0.9 for q in r2s)

    box = BoxSpec(d=1, k=10, m=2, bc="quasiperiodic", theta=(1.5,))
    op = assemble_operator(identity_field(box))
    free_vals = np.sort(scipy.linalg.eigvalsh(op.matrix.toarray()))
    free_entries = decay_diagnostic(op, (float(free_vals[0]) - 1e-9,
                                         float(free_vals[6]) + 1e-9))
    free_rates = [abs(e["decay_rate"]) for e in free_entries]
    free_ok = len(free_entries) >= 7 and max(free_rates) < 0.05

    ok = localized_ok and free_ok
    line = report(10, "decay diagnostic", ok,
                  f"disordered rates {['%.3f' % r for r in rates]}, "
                  f"free max |rate| {max(free_rates):.4f}")
    assert ok, line


def test_criterion_11_bitwise_reproducibility(tmp_path):
    # one experiment, three parallelism degrees, identical bytes out
    doc = {
        "kind": "anderson",
        "geometry": {"d": 1},
        "disorder": {"law": "uniform01"},
        "energies": {"min": 0.05, "max": 0.8, "count": 7},
        "ensemble": {"n_realizations": 24, "seed": 7},
        "params": {"k": 12, "nu": 4.0, "E_plus": 0.0},
    }
    blobs = {}
    for threads in (1, 4, 16):
        out = tmp_path / f"t{threads}"
        result = run(parse_config(dict(doc)), out_dir=str(out), threads=threads)
        assert result.exit_code == 0
        blobs[threads] = ((out / "ids.csv").read_bytes(),
                          (out / "ids.json").read_bytes())
    ok = blobs[1] == blobs[4] == blobs[16]
    line = report(11, "bitwise reproducibility", ok,
                  "threads 1/4/16 " + ("identical" if ok else "DIFFER"))
    assert ok, line
