import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifshitz_lab.anderson as anderson_mod
from lifshitz_lab.anderson import (AndersonInstance, LatticeWindow,
                                   OptimizerWarning, anderson_ids,
                                   assemble_anderson, chernoff_bound_P1,
                                   eigenvalue_below_probability, log_mgf_truncated,
                                   mc_chernoff_event, mc_product_event_1,
                                   mc_product_event_2,
                                   potential_on_box, product_bound_P_eps_alpha_1,
                                   product_bound_P_eps_alpha_2, sample_anderson,
                                   truncation_radius_for, _tail_bound)
from lifshitz_lab.disorder import (DisorderSpec, Realization, ValidationError,
                                   lattice_cube, law_quantile, sample_realization,
                                   site_uniforms)
from lifshitz_lab.runner import TaskFailure

UNIFORM = DisorderSpec()


def indicator_realization(d, radius, hot=()):
    window = lattice_cube(d, radius)
    values = np.zeros(len(window))
    for site in hot:
        values[np.flatnonzero((window == np.asarray(site)).all(axis=1))[0]] = 1.0
    return Realization(spec=DisorderSpec(law="bernoulli", p=0.5, a=1.0),
                       window=window, values=values, seed=0, index=0)


# -- assembly ------------------------------------------------------------------


def test_box_laplacian_k1_fixture():
    inst = assemble_anderson(1, 1, 0.0, np.zeros(3))
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(inst.matrix.toarray(), expect)
    vals = np.linalg.eigvalsh(inst.matrix.toarray())
    assert abs(vals[0]) < 1e-14            # constant kernel of the free box graph


def test_energy_shift_and_potential_enter_diagonal():
    v = np.array([0.5, 0.0, 2.0])
    inst = assemble_anderson(1, 1, 3.0, v)
    free = assemble_anderson(1, 1, 0.0, np.zeros(3))
    diff = inst.matrix.toarray() - free.matrix.toarray()
    assert np.array_equal(np.diag(diff), 3.0 + v)
    assert np.max(np.abs(diff - np.diag(np.diag(diff)))) == 0.0


def test_anderson_rejects_negative_potential():
    with pytest.raises(ValidationError):
        assemble_anderson(1, 1, 0.0, np.array([0.0, -0.1, 0.0]))


def test_2d_box_graph_degrees():
    inst = assemble_anderson(2, 1, 0.0, np.zeros(9))
    deg = np.diag(inst.matrix.toarray())
    # corner 2, edge 3, center 4
    assert sorted(deg.tolist()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
    vals = np.linalg.eigvalsh(inst.matrix.toarray())
    assert abs(vals[0]) < 1e-13


# -- long-range potential ---------------------------------------------------------


def long_range_potential(realization, site, nu, tol=1e-8):
    """Potential at one site, summed directly over its truncation cube."""
    site = np.asarray(site, dtype=np.int64)
    offsets = lattice_cube(site.shape[0], truncation_radius_for(site.shape[0], nu, tol))
    weights = (1.0 + np.max(np.abs(offsets), axis=1)) ** (-nu)
    return float(realization.values_at(site[None, :] + offsets) @ weights)


def test_potential_of_single_unit_coupling():
    radius = truncation_radius_for(1, 3.0, 1e-3)
    omega = indicator_realization(1, radius + 4, hot=[(0,)])
    # nu=3: v(alpha) = (1 + |alpha|)^-3 from the one hot site
    assert long_range_potential(omega, (0,), nu=3.0, tol=1e-3) == pytest.approx(1.0, abs=1e-3)
    assert long_range_potential(omega, (1,), nu=3.0, tol=1e-3) == pytest.approx(0.125, abs=1e-3)
    assert long_range_potential(omega, (3,), nu=3.0, tol=1e-3) == pytest.approx(1.0 / 64.0, abs=1e-3)


def test_potential_on_box_matches_brute_force():
    d, k, nu, tol = 1, 3, 3.0, 1e-6
    radius = truncation_radius_for(d, nu, tol)
    omega = sample_realization(UNIFORM, lattice_cube(d, k + radius), seed=8, index=0)
    v = potential_on_box(omega, d, k, nu, tol)
    sites = lattice_cube(d, k)
    for i, alpha in enumerate(sites):
        src = lattice_cube(d, radius) + alpha
        w = omega.values_at(src)
        dist = np.max(np.abs(src - alpha), axis=1)
        brute = float(np.sum(w * (1.0 + dist) ** (-nu)))
        assert v[i] == pytest.approx(brute, abs=1e-11)


def test_potential_on_box_matches_pointwise_evaluation():
    d, k, nu, tol = 2, 2, 3.9, 1e-2
    radius = truncation_radius_for(d, nu, tol)
    omega = sample_realization(UNIFORM, lattice_cube(d, k + radius), seed=3, index=1)
    v = potential_on_box(omega, d, k, nu, tol)
    sites = lattice_cube(d, k)
    probe = [0, len(sites) // 2, len(sites) - 1]
    for i in probe:
        assert v[i] == pytest.approx(long_range_potential(omega, sites[i], nu, tol), abs=1e-12)


def test_truncation_radius_certifies_tail():
    for d, nu, tol in [(1, 2.5, 1e-6), (1, 4.0, 1e-8), (2, 3.5, 1e-3)]:
        r = truncation_radius_for(d, nu, tol)
        assert _tail_bound(d, nu, r) <= tol
        if r > 1:
            assert _tail_bound(d, nu, r - 1) > tol


def test_truncation_radius_refuses_absurd_windows():
    with pytest.raises(ValidationError):
        truncation_radius_for(3, 3.05, 1e-12)


@given(st.floats(1e-8, 1e-2), st.floats(2.2, 4.0))
@settings(max_examples=30)
def test_truncation_radius_monotone_in_tolerance(tol, nu):
    r_loose = truncation_radius_for(1, nu, tol * 10.0)
    r_tight = truncation_radius_for(1, nu, tol)
    assert r_tight >= r_loose


def test_sample_anderson_deterministic():
    a = sample_anderson(UNIFORM, 1, 5, 4.0, 0.0, seed=3, index=2)
    b = sample_anderson(UNIFORM, 1, 5, 4.0, 0.0, seed=3, index=2)
    assert np.array_equal(a.v, b.v)
    assert np.max(np.abs((a.matrix - b.matrix).toarray())) == 0.0


def test_anderson_ids_monotone():
    energies = np.linspace(0.0, 1.0, 6)
    curve = anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=4, seed=1)
    assert np.all(np.diff(curve.values) >= 0.0)
    assert curve.values[0] >= 0.0
    assert curve.values[-1] <= 1.0 + 1e-12


def test_anderson_ids_drops_a_failed_realization(monkeypatch):
    energies = np.linspace(0.0, 1.0, 6)
    real = anderson_mod.sample_realization
    lost = {1}

    def flaky(spec, window, seed, index):
        if index in lost:
            raise RuntimeError("synthetic loss")
        return real(spec, window, seed, index)

    monkeypatch.setattr(anderson_mod, "sample_realization", flaky)
    curve = anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=4, seed=1, threads=2)
    assert curve.n_realizations == 3
    assert [f.index for f in curve.meta["failures"]] == [1]
    with pytest.raises(TaskFailure):
        eigenvalue_below_probability(UNIFORM, 1, 6, 4.0, E=0.4, n_trials=3, seed=2)
    lost.update(range(4))
    with pytest.raises(TaskFailure):
        anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=4, seed=1)
    with pytest.raises(ValidationError):
        anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=0)


def test_eigenvalue_below_probability_interval():
    freq, lo, hi, successes = eigenvalue_below_probability(
        UNIFORM, 1, 6, 4.0, E=0.4, n_trials=20, seed=2)
    assert 0.0 <= lo <= freq <= hi <= 1.0
    assert successes == round(freq * 20)


# -- truncated-MGF oracles ----------------------------------------------------------


@pytest.mark.parametrize("u,t0", [(2.0, 1.0), (5.0, 0.4), (0.7, 0.25)])
def test_log_mgf_uniform_closed_form(u, t0):
    # E[e^(-u min(w,t0))] = (1 - e^(-u t0))/u + (1 - t0) e^(-u t0) for w ~ U[0,1]
    exact = (1.0 - math.exp(-u * t0)) / u + (1.0 - t0) * math.exp(-u * t0)
    assert log_mgf_truncated(UNIFORM, u, t0) == pytest.approx(math.log(exact), abs=1e-9)


def test_log_mgf_bernoulli_closed_form():
    spec = DisorderSpec(law="bernoulli", p=0.3, a=0.8)
    u, t0 = 2.5, 0.6
    exact = 0.7 + 0.3 * math.exp(-u * min(0.8, t0))
    assert log_mgf_truncated(spec, u, t0) == pytest.approx(math.log(exact), rel=1e-12)


def test_log_mgf_kappa_tail_frozen_quadrature():
    # independent density-form quadrature of the same expectation gave this
    spec = DisorderSpec(law="kappa_tail", kappa=1.0)
    assert log_mgf_truncated(spec, 3.0, 0.5) == pytest.approx(-1.3083719736513757, abs=1e-9)


@given(st.floats(0.01, 50.0), st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_log_mgf_nonpositive_and_monotone(u, t0):
    val = log_mgf_truncated(UNIFORM, u, t0)
    assert val <= 0.0
    # larger truncation keeps more of the decay: MGF can only shrink
    assert log_mgf_truncated(UNIFORM, u, min(1.0, t0 + 0.2)) <= val + 1e-12


# -- Chernoff bound ------------------------------------------------------------------


def test_chernoff_bernoulli_analytic_optimum():
    # k=1, delta=0.4, bern(1/2, 1), truncation 1: objective
    # 0.4 t + 3 log(1/2 + e^(-t/3)/2) minimized at t = 3 ln(3/2)
    be = chernoff_bound_P1(DisorderSpec(law="bernoulli", p=0.5, a=1.0),
                           k=1, delta=0.4, truncation=1.0)
    t_exact = 3.0 * math.log(1.5)
    val_exact = 1.2 * math.log(1.5) + 3.0 * math.log(5.0 / 6.0)
    assert be.t_star == pytest.approx(t_exact, rel=1e-6)
    assert be.log_bound == pytest.approx(val_exact, rel=1e-9)


def test_chernoff_uniform_frozen_grid_value():
    # two-stage log-grid refinement (2001 x 2001 points) of the same
    # objective froze this minimum
    be = chernoff_bound_P1(UNIFORM, k=8, delta=0.1, K=4.0)
    assert be.log_bound == pytest.approx(-42.021103635953054, rel=1e-8)
    assert be.t_star == pytest.approx(1044.18, rel=1e-3)
    assert not be.details["edge"]


def test_chernoff_vacuous_configuration_clips_to_zero():
    # delta above the truncated mean: the bound cannot certify anything
    with pytest.warns(OptimizerWarning):
        be = chernoff_bound_P1(UNIFORM, k=8, delta=0.1)
    assert be.log_bound == 0.0
    assert be.bound == 1.0


def test_chernoff_bound_dominates_mc_frequency():
    spec = DisorderSpec(law="bernoulli", p=0.5, a=1.0)
    be = chernoff_bound_P1(spec, k=1, delta=0.4, truncation=1.0)
    freq, lo, hi, successes = mc_chernoff_event(spec, k=1, delta=0.4,
                                                truncation=1.0,
                                                n_trials=4000, seed=11)
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / 4000)
    assert freq <= be.bound + 3.0 * se
    assert lo <= freq <= hi


# Trial i of every mc_* companion draws its couplings from the stream
# site_uniforms(seed, i, sites).  The oracles below loop over that stream
# directly (d = 1, explicit sums); the successes of every prefix n <= N then
# pin the whole hit sequence, so moving any trial's stream breaks the test.
BERN_HALF = DisorderSpec(law="bernoulli", p=0.5, a=1.0)
BERN_03 = DisorderSpec(law="bernoulli", p=0.3, a=1.0)


def chernoff_oracle(i):
    # k=1, delta=0.4, truncation=1.0, K=C=1: mean of 3 capped couplings <= 0.4
    omega = law_quantile(BERN_HALF, site_uniforms(11, i, lattice_cube(1, 1)))
    return sum(min(w, 1.0) for w in omega) / 3.0 <= 0.4


def product1_oracle(i):
    # eps=0.5, alpha=0.5, nu=2.5: betas |b| <= 1, window padded by 200 sites
    window = lattice_cube(1, 201)
    omega = law_quantile(BERN_03, site_uniforms(42, i, window))
    far = _tail_bound(1, 2.5, 200)
    sums = [sum(w * (1.0 + abs(b - g)) ** -2.5 for w, (g,) in zip(omega, window))
            for b in (-1, 0, 1)]
    return max(sums) + far <= 0.5 ** 1.5


def product2_oracle(i):
    # eps=0.9, alpha=0.1, s=1: window half-side floor(0.9^-0.6) = 1
    omega = law_quantile(UNIFORM, site_uniforms(43, i, lattice_cube(1, 1)))
    return omega[0] * 2.0 ** -2.5 + omega[1] + omega[2] * 2.0 ** -2.5 <= 0.9 ** 1.1 / 2.0


MC_ORACLES = [
    (lambda n: mc_chernoff_event(BERN_HALF, k=1, delta=0.4, truncation=1.0,
                                 n_trials=n, seed=11), chernoff_oracle),
    (lambda n: mc_product_event_1(BERN_03, eps=0.5, alpha=0.5, nu=2.5, d=1,
                                  n_trials=n, seed=42), product1_oracle),
    (lambda n: mc_product_event_2(UNIFORM, eps=0.9, alpha=0.1, nu=2.5, d=1,
                                  n_trials=n, seed=43), product2_oracle),
]


@pytest.mark.parametrize("companion,oracle", MC_ORACLES,
                         ids=["chernoff", "product1", "product2"])
def test_mc_companion_trial_i_draws_stream_i(companion, oracle):
    n = 24
    hits = np.cumsum([oracle(i) for i in range(n)])
    assert 0 < hits[-1] < n
    for m in range(1, n + 1):
        freq, lo, hi, successes = companion(m)
        assert successes == hits[m - 1]
        assert freq == successes / m and lo <= freq <= hi


# -- product bounds -------------------------------------------------------------------


def test_product_bound_1_worked_core_value():
    be = product_bound_P_eps_alpha_1(UNIFORM, eps=0.1, alpha=0.5, nu=2.5, d=1)
    # core cube has half side floor(0.1^-0.25) = 1, so 3 sites, each with
    # P(omega <= 0.1^1.5) = 10^-1.5: log product is exactly -4.5 ln 10
    assert be.details["core_half_side"] == 1
    assert be.details["n_core"] == 3
    assert be.details["log_p_core"] == pytest.approx(-4.5 * math.log(10.0), abs=1e-12)
    assert be.log_bound <= be.details["log_p_core"]


def test_product_bound_2_worked_value():
    be = product_bound_P_eps_alpha_2(UNIFORM, eps=0.1, alpha=0.25, nu=2.5, d=1,
                                     s=1.0, C=1.0)
    assert be.details["n_sites"] == 11
    assert be.log_bound == pytest.approx(13.75 * math.log(0.1), abs=1e-12)


def test_product_bound_validation():
    with pytest.raises(ValidationError):
        product_bound_P_eps_alpha_1(UNIFORM, eps=1.5, alpha=0.5, nu=2.5, d=1)
    with pytest.raises(ValidationError):
        product_bound_P_eps_alpha_1(UNIFORM, eps=0.1, alpha=0.5, nu=4.0, d=1)


def test_product_bound_2_dominated_by_mc():
    be = product_bound_P_eps_alpha_2(UNIFORM, eps=0.5, alpha=0.25, nu=2.5, d=1,
                                     s=1.0, C=3.5)
    freq, lo, hi, successes = mc_product_event_2(UNIFORM, eps=0.5, alpha=0.25,
                                                 nu=2.5, d=1, s=1.0,
                                                 n_trials=2000, seed=17)
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / 2000)
    assert freq >= be.bound - 3.0 * se


def test_lattice_window_cardinality():
    win = LatticeWindow(alpha=0.5, zeta=1.0)
    assert win.cardinality(2) == 9
    assert len(win.sites(2)) == 9
    small = LatticeWindow(alpha=0.5, zeta=0.25)
    assert small.half_side == 4
    assert small.cardinality(1) == 9
