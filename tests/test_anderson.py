import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lifshitz_lab.anderson as anderson_mod
import lifshitz_lab.curves as curves_mod
import lifshitz_lab.spectral as spectral_mod
from lifshitz_lab.anderson import (AndersonInstance, OptimizerWarning, anderson_ids,
                                   assemble_anderson, chernoff_bound_P1,
                                   log_mgf_truncated,
                                   mc_chernoff_event, mc_product_event_1,
                                   mc_product_event_2,
                                   potential_on_box, product_bound_P_eps_alpha_1,
                                   product_bound_P_eps_alpha_2, sample_anderson,
                                   truncation_radius_for, _tail_bound)
from lifshitz_lab.config import parse_config, validate
from lifshitz_lab.disorder import (DisorderSpec, Realization, ValidationError, draw_couplings,
                                   lattice_cube, law_cdf, law_quantile, sample_realization,
                                   site_uniforms)
from lifshitz_lab.experiments import run
from lifshitz_lab.lattice import lattice_correlate
from lifshitz_lab.runner import TaskFailure, frequency
from lifshitz_lab.spectral import SolverError, _norm1, count_sorted_leq, counts_below
from lifshitz_lab.stats import mean_stderr

UNIFORM = DisorderSpec()


def below_event(plan, disorder, seed, E):
    """The event {lambda_min <= E} per realization of a block, as the count #{lambda <= E} > 0."""
    return lambda indices: [plan.counts(v, E) > 0 for v in plan.draws(disorder, seed, indices)]


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


@given(st.integers(1, 2), st.integers(0, 4), st.integers(0, 2**32), st.integers(0, 9))
@settings(max_examples=15, deadline=None)
def test_anderson_ids_potential_is_bitwise_the_looked_up_potential(d, k, seed, index):
    nu, tol = d + 2.0, 1e-3
    radius = truncation_radius_for(d, nu, tol)
    # one site wider than the cube, so potential_on_box has to look the cube up
    wider = sample_realization(UNIFORM, lattice_cube(d, k + radius + 1), seed, index)
    want = potential_on_box(wider, d, k, nu, tol)
    drawn = {}
    real = anderson_mod._AndersonPlan.potential

    def record(plan, couplings, first=0):  # each row of the block method, in index order
        v = real(plan, couplings, first)
        for row in v.reshape(-1, v.shape[-1]):
            drawn[len(drawn)] = row
        return v

    def no_lookup(self, sites):
        raise AssertionError("the Anderson ensemble looked up the window it drew on")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anderson_mod._AndersonPlan, "potential", record)
        patch.setattr(Realization, "values_at", no_lookup)
        curve = anderson_ids(UNIFORM, d, k, nu, [0.5], index + 1, seed=seed, tol=tol)
    assert curve.meta["failures"] == [] and len(drawn) == index + 1
    assert np.array_equal(drawn[index], want)


@given(st.integers(0, 40), st.sampled_from([2.5, 3.0, 4.0]), st.sampled_from([1e-2, 1e-3, 1e-4]),
       st.integers(0, 2**32), st.lists(st.integers(0, 2**16), min_size=4, max_size=4))
@example(1, 2.5, 1e-4, 0, [28, 0, 0, 0])  # a 29-row block whose last row rounds apart alone in row 0
@settings(max_examples=25, deadline=None)
def test_block_potential_of_a_realization_does_not_depend_on_its_block(k, nu, tol, seed, picks):
    # d = 1: the GEMM's rounding depends on the product's shape and a row's place in it,
    # so a realization's potential must be bitwise the same alone, in its full block,
    # in a final partial block and in a run of indices that crosses block boundaries
    plan = anderson_mod._AndersonPlan(1, k, nu, 0.0, tol)
    block = plan.block
    i = picks[0] % (3 * block)
    lo = i - i % block
    alone = plan.draw(UNIFORM, seed, i)
    full = plan.draws(UNIFORM, seed, range(lo, lo + block))
    partial = plan.draws(UNIFORM, seed, range(lo, i + 1 + picks[1] % (lo + block - i)))
    start = i - picks[2] % (min(i, block) + 1)
    crossing = plan.draws(UNIFORM, seed, range(start, i + 1 + picks[3] % (2 * block)))
    assert alone.shape == (2 * k + 1,) and full.shape == (block, 2 * k + 1)
    for row in (full[i - lo], partial[i - lo], crossing[i - start]):
        assert np.array_equal(row, alone)
    for j in (lo, lo + block - 1):  # the last row of a product rounds apart from the rest most often
        assert np.array_equal(full[j - lo], plan.draw(UNIFORM, seed, j))
    couplings = draw_couplings(UNIFORM, plan.hashes, seed, i)
    want = lattice_correlate(couplings, plan.kernel)
    assert np.max(np.abs(alone - want)) <= 1e-13 * np.max(np.abs(want))


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


LAWS = [UNIFORM, DisorderSpec(law="kappa_tail", kappa=1.5), DisorderSpec(law="bernoulli", p=0.3, a=1.0)]


@given(st.sampled_from(LAWS), st.integers(0, 12), st.sampled_from([2.5, 4.0]),
       st.sampled_from([0.0, -0.2]), st.integers(0, 2**32), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_plan_bisection_counts_equal_dense_counts(law, k, nu, E_plus, seed, index):
    # d=1: the tridiagonal skeleton is the dense operator's, and the bisection
    # counts equal the dense counts, slack scale ||A||_1, at grid energies and,
    # inclusively, at the dense eigenvalues themselves
    plan = anderson_mod._AndersonPlan(1, k, nu, E_plus, 1e-4)
    v = plan.draw(law, seed, index)
    dense = assemble_anderson(1, k, E_plus, v).matrix.toarray()
    assert np.array_equal(plan.diagonal + v, np.diag(dense))
    assert np.array_equal(plan.off, np.diag(dense, 1))
    vals = np.linalg.eigvalsh(dense)
    scale = _norm1(dense) or 1.0
    for energies in (E_plus + np.linspace(-0.5, 5.5, 61), vals):
        assert np.array_equal(plan.counts(v, energies), count_sorted_leq(vals, energies, scale))


def _stebz_tolerances(patch, tols):
    # dstebz as before, appending the abstol of every call to tols
    real = scipy.linalg.lapack.dstebz

    def stebz(d, e, kind, vl, vu, il, iu, tol, order):
        tols.append(tol)
        return real(d, e, kind, vl, vu, il, iu, tol, order)

    patch.setattr(scipy.linalg.lapack, "dstebz", stebz)


@given(st.sampled_from(LAWS), st.integers(0, 12), st.sampled_from([2.5, 4.0]),
       st.sampled_from([0.0, -0.2]), st.integers(0, 2**32), st.integers(0, 9), st.integers(0, 2**16))
@example(UNIFORM, 0, 4.0, 0.0, 0, 0, 0)  # one site: no off-diagonal for stebz
@settings(max_examples=40, deadline=None)
def test_bisection_is_bitwise_scipys_tridiagonal_eigensolver(law, k, nu, E_plus, seed, index, pick):
    # the direct stebz calls against the scipy wrapper they replaced: at top energies
    # below, inside, on and above the spectrum the counts are those of
    # eigvalsh_tridiagonal's eigenvalues in (-inf, top], top = max E + 2e-12 ||A||_1;
    # the O(n) scale is ||A||_1; and whenever the tol-0 bisection runs, the eigenvalues
    # handed to count_sorted_leq are bitwise eigvalsh_tridiagonal's
    plan = anderson_mod._AndersonPlan(1, k, nu, E_plus, 1e-4)
    v = plan.draw(law, seed, index)
    mat = assemble_anderson(1, k, E_plus, v).matrix
    vals = np.linalg.eigvalsh(mat.toarray())
    rng = np.random.default_rng(pick)
    lo, hi = np.sort(rng.integers(0, 2 * k + 1, size=2))
    # top energies below, inside, on and above the spectrum
    tops = [vals[0] - 1.0, vals[lo], vals[hi], (vals[lo] + vals[hi]) / 2, vals[-1] + 1.0]
    norm = _norm1(mat)
    for j, top in enumerate(tops):
        seen, tols = [], []

        def record(sorted_vals, energies, scale):
            seen.append((sorted_vals, scale))
            return count_sorted_leq(sorted_vals, energies, scale)

        energies = np.array([vals[0] - 2.0, top])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral_mod, "count_sorted_leq", record)
            _stebz_tolerances(patch, tols)
            counts = plan.counts(v, energies)
        # below the spectrum the screen settles the counts alone, without count_sorted_leq
        assert len(seen) == (0 if k > 0 and j == 0 else 1)
        got, scale = seen[0] if seen else (None, norm)
        assert abs(scale - norm) <= 1e-15 * norm
        want = scipy.linalg.eigvalsh_tridiagonal(plan.diagonal + v, plan.off, select="v",
                                                 select_range=(-np.inf, top + 2e-12 * scale))
        assert np.array_equal(counts, count_sorted_leq(want, energies, scale))
        if 0.0 in tols:
            assert np.array_equal(got, want)
        if k > 0 and j == 0:  # below the spectrum the screen decides alone
            assert tols == []
        elif k > 0:  # otherwise stebz runs, and at an eigenvalue the tol-0 refine too
            assert tols and (j not in (1, 2) or tols[-1] == 0.0)


@given(st.sampled_from(LAWS), st.integers(1, 12), st.sampled_from([2.5, 4.0]),
       st.sampled_from([0.0, -0.2]), st.integers(0, 2**32), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_screened_and_coarse_counts_equal_full_precision_counts(law, k, nu, E_plus, seed, index):
    # the tol-0 eigvalsh_tridiagonal counts, at grid energies (low grids end in the
    # screen, wider ones in the coarse bisection) and, inclusively, at the computed
    # eigenvalues, which force the tol-0 refine
    plan = anderson_mod._AndersonPlan(1, k, nu, E_plus, 1e-4)
    diagonal = plan.diagonal + plan.draw(law, seed, index)
    scale = _norm1(assemble_anderson(1, k, E_plus, diagonal - plan.diagonal).matrix)
    full = scipy.linalg.eigvalsh_tridiagonal(diagonal, plan.off)
    grids = [E_plus + np.linspace(-0.5, hi, 41) for hi in (0.0, 0.3, 1.0, 5.5)]
    for energies in grids + [full]:
        tols = []
        with pytest.MonkeyPatch.context() as patch:
            _stebz_tolerances(patch, tols)
            counts = spectral_mod._tridiagonal_counts(diagonal, plan.off, energies)
        want = scipy.linalg.eigvalsh_tridiagonal(diagonal, plan.off, select="v",
                                                 select_range=(-np.inf, energies.max() + 2e-12 * scale))
        assert np.array_equal(counts, count_sorted_leq(want, energies, scale))
        if want.size == 0:
            assert tols == []
        if energies is full:
            assert tols[-1] == 0.0


@given(st.sampled_from(LAWS), st.integers(0, 12), st.sampled_from([2.5, 4.0]),
       st.sampled_from([0.0, -0.2]), st.integers(0, 2**32), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_block_counts_equal_dense_counts_per_row(law, k, nu, E_plus, seed, rows):
    # one call counts a block of realizations, each row as the dense eigvalsh counts of
    # its own operator and as a call on that row alone, at grid energies and, inclusively,
    # at every computed eigenvalue of the block
    plan = anderson_mod._AndersonPlan(1, k, nu, E_plus, 1e-4)
    potentials = plan.draws(law, seed, range(rows))
    dense = [assemble_anderson(1, k, E_plus, v).matrix.toarray() for v in potentials]
    spectra = [np.linalg.eigvalsh(a) for a in dense]
    for energies in (E_plus + np.linspace(-0.5, 5.5, 61), np.concatenate(spectra)):
        counts = plan.counts(potentials, energies)
        assert counts.shape == (rows, energies.size)
        for row, v, a, vals in zip(counts, potentials, dense, spectra):
            assert np.array_equal(row, count_sorted_leq(vals, energies, _norm1(a) or 1.0))
            assert np.array_equal(row, plan.counts(v, energies))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_tridiagonal_count_refuses_non_finite_entries(value):
    # pttrf passes a NaN pivot, so a NaN matrix would screen as "no eigenvalue <= top"
    for entry in (0, 1):
        tridiagonal = [np.full(6, 2.0), np.full(5, -1.0)]
        tridiagonal[entry][2] = value
        with pytest.raises(SolverError):
            spectral_mod._tridiagonal_counts(*tridiagonal, np.array([0.5, 1.0]))
    with pytest.raises(SolverError):  # a one-site box, which skips the screen
        spectral_mod._tridiagonal_counts(np.array([value]), np.zeros(0), 0.5)
    with pytest.raises(SolverError):  # finite entries whose ||A||_1 overflows
        spectral_mod._tridiagonal_counts(np.full(6, 1e308), np.full(5, 1e308), np.array([0.5]))


def test_bisection_raises_when_stebz_fails(monkeypatch):
    # both bisections map a stebz failure to SolverError: the coarse one, which an
    # energy above the lowest eigenvalue reaches past the screen, and the tol-0 one,
    # which an energy at an eigenvalue forces
    plan = anderson_mod._AndersonPlan(1, 4, 4.0, 0.0, 1e-4)
    v = plan.draw(UNIFORM, 0, 0)
    real = scipy.linalg.lapack.dstebz
    at_eigenvalue = np.linalg.eigvalsh(plan.operator(v).toarray())[:1]
    for energies, failing_tol in ((np.array([5.0]), None), (at_eigenvalue, 0.0)):

        def failing(d, e, kind, vl, vu, il, iu, tol, order):
            if failing_tol is None or tol == failing_tol:
                return 0, np.zeros_like(d), np.zeros(d.size, int), np.zeros(d.size, int), 2
            return real(d, e, kind, vl, vu, il, iu, tol, order)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing)
        with pytest.raises(SolverError):
            plan.counts(v, energies)
        with pytest.raises(TaskFailure):  # the lambda_min event is a count too
            frequency(below_event(plan, UNIFORM, 0, energies[0]), 1, block=plan.block)


def test_plan_rejects_a_nan_potential():
    plan = anderson_mod._AndersonPlan(1, 3, 4.0, 0.0, 1e-3)
    couplings = np.full(plan.hashes.size, 0.5)
    plan.potential(couplings)
    couplings[couplings.size // 2] = np.nan
    with pytest.raises(ValidationError):
        plan.potential(couplings)


@given(st.sampled_from(LAWS), st.integers(0, 3), st.sampled_from([0.0, -0.2]),
       st.integers(0, 2**32), st.integers(0, 9))
@settings(max_examples=15, deadline=None)
def test_plan_operator_is_bitwise_the_assembled_one(law, k, E_plus, seed, index):
    plan = anderson_mod._AndersonPlan(2, k, 4.0, E_plus, 1e-3)
    v = plan.draw(law, seed, index)
    mat = assemble_anderson(2, k, E_plus, v).matrix
    assert np.array_equal(plan.operator(v).toarray(), mat.toarray())
    energies = E_plus + np.linspace(-0.5, 8.5, 19)
    assert np.array_equal(plan.counts(v, energies), counts_below(mat, energies))


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
    real = anderson_mod.draw_couplings
    lost = {1}

    def flaky(spec, hashes, seed, index):  # index: a range of indices, one block draw
        if lost.intersection(index):
            raise RuntimeError("synthetic loss")
        return real(spec, hashes, seed, index)

    monkeypatch.setattr(anderson_mod, "draw_couplings", flaky)
    curve = anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=4, seed=1, threads=2)
    assert curve.n_realizations == 3
    assert [f.index for f in curve.meta["failures"]] == [1]
    plan = anderson_mod._AndersonPlan(1, 6, 4.0, 0.0, anderson_mod.POTENTIAL_TOL)
    with pytest.raises(TaskFailure):  # an event frequency raises where an ensemble drops
        frequency(below_event(plan, UNIFORM, 2, 0.4), 3, block=plan.block)
    lost.update(range(4))
    with pytest.raises(TaskFailure):
        anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=4, seed=1)
    with pytest.raises(ValidationError):
        anderson_ids(UNIFORM, 1, 8, 4.0, energies, n_realizations=0)


@pytest.mark.parametrize("where", ["couplings", "potential"])
def test_anderson_ids_drops_only_the_nan_row_of_a_block(monkeypatch, where):
    # a NaN coupling fails the block's v >= 0 check, a NaN potential the block's count;
    # either way the block is rerun one index at a time, only the NaN index is dropped,
    # and every other realization counts as in the clean run
    energies = np.linspace(0.0, 1.5, 7)
    plan = anderson_mod._AndersonPlan(1, 16, 4.0, 0.0, anderson_mod.POTENTIAL_TOL)
    n, bad = plan.block + 12, plan.block + 5  # the NaN row in the final, partial block
    samples = []

    def recorded(rows):
        samples.append(rows)
        return mean_stderr(rows)

    monkeypatch.setattr(curves_mod, "mean_stderr", recorded)
    clean = anderson_ids(UNIFORM, 1, 16, 4.0, energies, n, seed=3)
    draw, potential = anderson_mod.draw_couplings, anderson_mod._AndersonPlan.potential

    def nan_couplings(spec, hashes, seed, index):
        couplings = draw(spec, hashes, seed, index)
        indices = list(index) if np.ndim(index) else [index]
        if bad in indices:
            couplings.reshape(len(indices), -1)[indices.index(bad), 3] = np.nan
        return couplings

    def nan_potential(plan, couplings, first=0):
        v = potential(plan, couplings, first)
        rows = v.reshape(-1, v.shape[-1])
        if first <= bad < first + len(rows):
            rows[bad - first, 0] = np.nan
        return v

    if where == "couplings":
        monkeypatch.setattr(anderson_mod, "draw_couplings", nan_couplings)
    else:
        monkeypatch.setattr(anderson_mod._AndersonPlan, "potential", nan_potential)
    curve = anderson_ids(UNIFORM, 1, 16, 4.0, energies, n, seed=3)
    assert clean.meta["failures"] == [] and [f.index for f in curve.meta["failures"]] == [bad]
    error = ValidationError if where == "couplings" else SolverError
    assert isinstance(curve.meta["failures"][0].error, error)
    assert curve.n_realizations == n - 1
    assert np.array_equal(samples[1], np.delete(samples[0], bad, axis=0))


def test_anderson_plan_is_built_once_per_geometry(monkeypatch):
    # the plan depends on (d, k, nu, E_plus, tol) and on BLOCK_COUPLINGS, which fixes its block: two
    # identical ensembles, and a draw or a potential of the same geometry, build one plan, and a
    # change of any of them builds its own
    built = []
    init = anderson_mod._AndersonPlan.__init__

    def counted(plan, *args):
        built.append(args)
        init(plan, *args)

    monkeypatch.setattr(anderson_mod._AndersonPlan, "__init__", counted)
    anderson_mod._cached_plan.cache_clear()
    base = dict(d=1, k=6, nu=4.0, E_plus=0.0, tol=1e-3)
    energies = np.linspace(0.0, 1.5, 5)

    def curve(**change):
        p = {**base, **change}
        return anderson_ids(UNIFORM, p["d"], p["k"], p["nu"], energies, 3, E_plus=p["E_plus"], seed=4, tol=p["tol"])

    first = curve()
    plan = anderson_mod._anderson_plan(**base)
    assert np.array_equal(curve().values, first.values)
    sample_anderson(UNIFORM, 1, 6, 4.0, 0.0, seed=4, index=1, tol=1e-3)
    potential_on_box(sample_realization(UNIFORM, lattice_cube(1, plan.hashes.size // 2), 4, 1), 1, 6, 4.0, tol=1e-3)
    assert len(built) == 1 and anderson_mod._anderson_plan(**base) is plan
    for key, value in [("d", 2), ("k", 5), ("nu", 4.5), ("E_plus", 0.3), ("tol", 1e-4)]:
        built.clear()
        curve(**{key: value})
        assert len(built) == 1, key
        changed = anderson_mod._anderson_plan(**{**base, key: value})
        fresh = anderson_mod._AndersonPlan(*{**base, key: value}.values())  # built for its own key, not stale
        assert np.array_equal(changed.diagonal, fresh.diagonal) and np.array_equal(changed.kernel, fresh.kernel)
        assert changed.hashes.size == fresh.hashes.size and changed.block == fresh.block
        curve()  # the base geometry again, for the next key
        plan = anderson_mod._anderson_plan(**base)
    built.clear()
    monkeypatch.setattr(anderson_mod, "BLOCK_COUPLINGS", 1)
    assert plan.block > 1 and anderson_mod._anderson_plan(**base).block == 1 and len(built) == 1


def test_cached_anderson_plan_arrays_are_read_only():
    # one plan serves every thread, so its arrays are read-only; a draw, a count and an
    # operator still work from them, entry for entry as a fresh assembly
    for d in (1, 2):
        plan = anderson_mod._anderson_plan(d, 3, 4.0, 0.5, 1e-3)
        arrays = [plan.hashes, plan.kernel, plan.diagonal, plan.off, plan.free.data, plan.free.indices,
                  plan.free.indptr] + ([plan.tile] if d == 1 else [])
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        v = plan.draw(UNIFORM, 2, 5)
        assert (plan.operator(v) != assemble_anderson(d, 3, 0.5, v).matrix).nnz == 0
        assert plan.counts(v, 2.0) == counts_below(assemble_anderson(d, 3, 0.5, v).matrix, 2.0)


def test_lambda_min_event_frequency_interval():
    # block draws count the event of each realization as its own draw does
    plan = anderson_mod._AndersonPlan(1, 6, 4.0, 0.0, anderson_mod.POTENTIAL_TOL)
    freq, lo, hi, successes = frequency(below_event(plan, UNIFORM, 2, 0.4), 20, block=plan.block)
    assert 0.0 <= lo <= freq <= hi <= 1.0
    assert successes == round(freq * 20) == sum(plan.counts(plan.draw(UNIFORM, 2, i), 0.4) > 0
                                                 for i in range(20))


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


@pytest.mark.parametrize("d", [1, 2])
def test_product_event_1_weights_are_the_difference_cube_formula(d):
    # (1 + |beta - gamma|_inf)^(-nu) from per-axis gaps, bit for bit the (betas, window, d) formula
    for inner, outer, nu in [(0, 3, d + 0.5), (2, 7, d + 1.0), (1, 1 + anderson_mod.PAD_RADIUS, d + 2.0)]:
        betas, window = lattice_cube(d, inner), lattice_cube(d, outer)
        want = (1.0 + np.max(np.abs(betas[:, None, :] - window[None, :, :]), axis=2).astype(float)) ** (-nu)
        got = anderson_mod._cross_weights(d, inner, outer, nu)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def enumerated_annulus(spec, eps, alpha, nu, d):
    """The annulus of product bound 1 site by site over lattice_cube(d, outer half side)."""
    be = product_bound_P_eps_alpha_1(spec, eps=eps, alpha=alpha, nu=nu, d=d)
    core, outer = be.details["core_half_side"], be.details["outer_half_side"]
    dist = np.max(np.abs(lattice_cube(d, outer)), axis=1) - core
    dist = dist[dist > 0]
    terms = [math.log(law_cdf(spec, min(be.details["threshold"] * (1.0 + dv) ** ((nu - d) * (1.0 - alpha)), 1.0)))
             for dv in dist]
    return math.fsum(terms), len(dist), be


@pytest.mark.parametrize("spec", [UNIFORM, DisorderSpec("kappa_tail", kappa=0.5),
                                  DisorderSpec("bernoulli", p=0.4, a=0.9)])
@pytest.mark.parametrize("eps,alpha,nu,d", [(0.1, 0.5, 2.5, 1), (0.05, 0.3, 1.8, 1),
                                            (0.1, 0.5, 3.5, 2), (0.05, 0.25, 3.2, 2)])
def test_product_bound_1_shell_sum_is_the_site_enumeration(spec, eps, alpha, nu, d):
    want, n_sites, be = enumerated_annulus(spec, eps, alpha, nu, d)
    assert n_sites > 0 and be.details["n_annulus"] == n_sites
    assert be.details["log_p_annulus"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert be.log_bound == min(be.details["log_p_core"] + be.details["log_p_annulus"], 0.0)


def test_product_bound_1_doc_at_a_wide_annulus_runs(tmp_path):
    # outer half side floor(0.05^-4) = 159,999: the site cube would hold 1.0e11 sites (763 GiB)
    doc = {"kind": "bounds", "disorder": {"law": "uniform01"},
           "params": {"evaluations": [{"type": "product1", "eps": 0.05, "alpha": 0.5, "nu": 2.5, "d": 2}]}}
    result = run(parse_config(doc), out_dir=str(tmp_path / "bounds"))
    assert result.exit_code == 0
    be = product_bound_P_eps_alpha_1(UNIFORM, eps=0.05, alpha=0.5, nu=2.5, d=2)
    assert be.details["outer_half_side"] == 159999
    assert be.details["n_annulus"] == 319999**2 - be.details["n_core"]
    assert math.isfinite(be.log_bound) and be.log_bound < be.details["log_p_core"] < 0.0


def test_product_bound_1_doc_above_the_shell_limit_is_refused(tmp_path):
    # outer half side 0.01^(-2/0.05) = 1e80: validate refuses it (exit 2); the run used to fail (exit 1)
    doc = {"kind": "bounds", "params": {"evaluations": [
        {"type": "product1", "eps": 0.01, "alpha": 0.5, "nu": 2.05, "d": 2}]}}
    for dry_run in (True, False):
        result = run(parse_config(doc), out_dir=str(tmp_path / "bounds"), dry_run=dry_run)
        assert result.exit_code == 2
        assert any("outer half side" in str(diag) for diag in result.diagnostics)
    assert not (tmp_path / "bounds").exists()
    with pytest.raises(ValidationError, match="outer half side"):
        product_bound_P_eps_alpha_1(UNIFORM, eps=0.01, alpha=0.5, nu=2.05, d=2)
    # d = 1, nu = 3: the outer half side is 1/eps, on either side of PRODUCT1_MAX_SHELLS
    limit = anderson_mod.PRODUCT1_MAX_SHELLS
    with pytest.raises(ValidationError, match="outer half side"):
        product_bound_P_eps_alpha_1(UNIFORM, eps=1.0 / (1.01 * limit), alpha=0.5, nu=3.0, d=1)
    be = product_bound_P_eps_alpha_1(UNIFORM, eps=1.0 / (0.99 * limit), alpha=0.5, nu=3.0, d=1)
    assert be.details["outer_half_side"] == 990000 and math.isfinite(be.log_bound)


def test_bound_evaluations_in_use_pass_validation():
    # every evaluation that scripts/run_bound_checks.py, criteria 7 and 8 and the product-bound
    # tests above run stays inside the shell limit
    chernoff = [{"k": 2, "delta": 0.3}, {"k": 8, "delta": 0.1, "K": 4.0}, {"k": 1, "delta": 0.4, "truncation": 1.0},
                {"k": 2, "delta": 0.2}, {"k": 3, "delta": 0.15, "K": 2.0}]
    product1 = [{"eps": eps, "alpha": 0.5, "nu": 2.5, "d": 1} for eps in (0.1, 0.3, 0.5)]
    product1 += [{"eps": eps, "alpha": alpha, "nu": nu, "d": d}
                 for eps, alpha, nu, d in [(0.05, 0.3, 1.8, 1), (0.1, 0.5, 3.5, 2), (0.05, 0.25, 3.2, 2),
                                           (0.05, 0.5, 2.5, 2)]]
    product2 = [{"eps": eps, "alpha": 0.25, "nu": 2.5, "d": 1, "s": 1.0, "C": C}
                for eps, C in [(0.1, 1.0), (0.3, 3.5), (0.5, 3.5)]]
    evaluations = ([{"type": "chernoff", **a} for a in chernoff] + [{"type": "product1", **a} for a in product1]
                   + [{"type": "product2", **a} for a in product2])
    doc = {"kind": "bounds", "params": {"evaluations": evaluations}}
    assert validate(parse_config(doc)) == []


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
    # product2's window has half side floor((eps^s)^(-(1/2+alpha))) and (2 half + 1)^d sites
    win = product_bound_P_eps_alpha_2(UNIFORM, eps=1.0, alpha=0.5, nu=3.0, d=2).details
    assert win["window_half_side"] == 1 and win["n_sites"] == 9
    small = product_bound_P_eps_alpha_2(UNIFORM, eps=0.25, alpha=0.5, nu=2.0, d=1).details
    assert small["window_half_side"] == 4 and small["n_sites"] == 9


@pytest.mark.parametrize("companion", [
    lambda: mc_product_event_1(UNIFORM, eps=0.3, alpha=0.5, nu=0.5, d=1, n_trials=10),
    lambda: mc_product_event_1(UNIFORM, eps=0.3, alpha=0.5, nu=1.0, d=1, n_trials=10),
    lambda: mc_chernoff_event(UNIFORM, k=2, delta=-1.0, n_trials=10),
    lambda: mc_chernoff_event(UNIFORM, k=2, delta=0.3, truncation=-1.0, n_trials=10),
    lambda: mc_product_event_2(UNIFORM, eps=2.0, alpha=0.25, nu=2.5, d=1, n_trials=10),
    lambda: mc_chernoff_event(UNIFORM, k=-1, delta=0.3, n_trials=10),
    lambda: mc_product_event_2(UNIFORM, eps=0.3, alpha=0.5, nu=1.5, d=0, n_trials=10),
], ids=["product1_nu_below_d", "product1_nu_at_d", "chernoff_delta_negative", "chernoff_truncation_negative",
        "product2_eps_above_1", "chernoff_k_negative", "product2_d0"])
def test_mc_companion_refuses_what_its_bound_refuses(companion):
    # each used to return a frequency (1.0, or ZeroDivisionError at nu = d or k = -1, or TypeError
    # at d = 0) for a bound that raises
    with pytest.raises(ValidationError):
        companion()


@pytest.mark.parametrize("call", [
    lambda: chernoff_bound_P1(UNIFORM, k=-1, delta=0.3, d=2),
    lambda: chernoff_bound_P1(UNIFORM, k=2.5, delta=0.3),
    lambda: chernoff_bound_P1(UNIFORM, k=2, delta=0.3, d=0),
    lambda: product_bound_P_eps_alpha_1(UNIFORM, eps=0.3, alpha=0.5, nu=1.5, d=0),
    lambda: product_bound_P_eps_alpha_2(UNIFORM, eps=0.3, alpha=0.5, nu=1.5, d=0),
], ids=["chernoff_k_negative", "chernoff_k_fractional", "chernoff_d0", "product1_d0", "product2_d0"])
def test_bounds_refuse_the_box_validate_refuses(call):
    # each used to return a log bound, 0.0 for chernoff and -1.505 for the product bounds
    with pytest.raises(ValidationError, match=r"^[kd] must be an integer >= [01], got"):
        call()


def test_mc_product_event_1_is_not_held_to_the_shell_limit():
    # the companion forms no annulus: an outer half side above PRODUCT1_MAX_SHELLS is still sampled
    with pytest.raises(ValidationError, match="outer half side"):
        product_bound_P_eps_alpha_1(UNIFORM, eps=0.5, alpha=0.5, nu=1.1, d=1)
    freq, lo, hi, successes = mc_product_event_1(UNIFORM, eps=0.5, alpha=0.5, nu=1.1, d=1, n_trials=4)
    assert 0.0 <= lo <= freq <= hi <= 1.0
