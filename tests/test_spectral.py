import functools
import itertools
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lifshitz_lab.spectral as spectral
from lifshitz_lab.anderson import _AndersonPlan, assemble_anderson
from lifshitz_lab.curves import IDSCurve
from lifshitz_lab.disorder import DisorderSpec, lattice_cube, sample_realization
from lifshitz_lab.lattice import (BoxSpec, PeriodicBackground, _bloch_family, _cell_periods, _periodized_plan,
                                  _point_symmetries, assemble_operator, background_field, compact_profile,
                                  identity_field, long_range_profile, operator_sampler, required_window,
                                  sample_coefficient_field)
from lifshitz_lab.runner import frequency
from lifshitz_lab.ids import _window_hits
from lifshitz_lab.spectral import (SolverError, count_eigenvalues_below, count_sorted_leq, counts_below,
                                   floquet_bands, periodic_ids_curve, spectral_gaps)


def random_sym(rng, n, sparse=False):
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    return sp.csr_matrix(A) if sparse else A


# -- inertia counting ---------------------------------------------------------------


def test_count_matches_dense_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        A = random_sym(rng, n)
        vals = np.sort(scipy.linalg.eigvalsh(A))
        E = float(rng.normal(scale=2.0))
        assert count_eigenvalues_below(sp.csr_matrix(A), E) == int(np.sum(vals <= E))


def test_count_at_exact_eigenvalue_includes_it():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    assert count_eigenvalues_below(A, 2.0) == 2
    assert count_eigenvalues_below(A, 2.0 - 1e-6) == 1
    assert count_eigenvalues_below(A, 3.0) == 3


def test_counts_below_vectorized_consistent():
    rng = np.random.default_rng(7)
    A = sp.csr_matrix(random_sym(rng, 20))
    Es = np.linspace(-3, 3, 9)
    vec = counts_below(A, Es)
    assert np.array_equal(vec, [count_eigenvalues_below(A, E) for E in Es])
    assert np.all(np.diff(vec) >= 0)


def test_count_sorted_leq_handles_ties():
    vals = np.array([0.0, 1.0, 1.0, 2.0])
    assert count_sorted_leq(vals, 1.0) == 3
    assert count_sorted_leq(vals, 0.999999999999) == 3  # within absolute slack
    assert count_sorted_leq(vals, 0.9) == 1
    assert type(count_sorted_leq(vals, np.float64(0.9))) is int
    grid = [0.9, 0.999999999999, 1.0, 5.0]
    assert count_sorted_leq(vals, grid).tolist() == [count_sorted_leq(vals, E) for E in grid]


# ids operators of every kind the drivers count: d = 1, 2, 3, compact and
# long-range bumps, Dirichlet boxes and complex Floquet fibers at theta != 0
IDS_PROFILES = {
    1: (compact_profile(d=1, radius=0.8), long_range_profile(d=1, nu=2.5), 1e-6),
    2: (compact_profile(d=2, amplitude=2.0), long_range_profile(d=2, nu=3.5), 1e-4),
    3: (compact_profile(d=3, radius=1.2), long_range_profile(d=3, nu=4.5), 1e-2),
}
MAX_K = {1: 8, 2: 3, 3: 1}


def ids_operator(d, long_range, floquet, k, seed, bc="dirichlet"):
    compact, long_range_prof, tol = IDS_PROFILES[d]
    prof = long_range_prof if long_range else compact
    bg = PeriodicBackground.two_phase(m=2, low=1.0, high=3.0, d=d)
    if floquet:
        pattern = sample_realization(DisorderSpec(), lattice_cube(d, k), seed=seed, index=d)
        fld = _periodized_plan(bg, prof, k, tol)(pattern.values)
        return assemble_operator(fld, theta=(0.7,) * d)
    box = BoxSpec(d=d, k=k, m=2, bc=bc)
    omega = sample_realization(DisorderSpec(), required_window(prof, box, tol), seed=seed, index=d)
    return assemble_operator(sample_coefficient_field(bg, prof, omega, box, tol))


@given(st.sampled_from([1, 2, 3]), st.booleans(), st.booleans(), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_counts_below_equals_inertia_on_ids_operators(d, long_range, floquet, k, seed):
    op = ids_operator(d, long_range, floquet, min(k, MAX_K[d]), seed)
    assert op.matrix.dtype == (complex if floquet else float)
    vals = scipy.linalg.eigvalsh(op.matrix.toarray())
    picks = np.linspace(0, len(vals) - 1, 6).astype(int)
    energies = np.concatenate([vals[picks], (vals[picks[:-1]] + vals[picks[:-1] + 1]) / 2,
                               [vals[0] - 1.0, vals[-1] + 1.0]])
    got = counts_below(op, energies)
    assert got.tolist() == [count_eigenvalues_below(op, E) for E in energies]
    # an energy placed on a computed eigenvalue counts it
    assert np.all(got[:len(picks)] >= picks + 1)


def test_counts_below_zero_matrix_keeps_absolute_slack():
    zero = np.zeros((3, 3))
    energies = [-2e-12, -0.5e-12, 0.0]
    assert counts_below(zero, energies).tolist() == [0, 3, 3]
    assert counts_below(sp.csr_matrix(zero), energies).tolist() == \
        [count_eigenvalues_below(zero, E) for E in energies]


def test_counts_below_rejects_nan_matrix():
    A = np.eye(4)
    A[1, 2] = A[2, 1] = np.nan
    with pytest.raises(SolverError):
        counts_below(A, [0.0, 1.0])
    with pytest.raises(SolverError):
        counts_below(sp.csr_matrix(A), [0.0])


@pytest.mark.parametrize("path", ["band", "dense", "inertia", "wide", "tridiagonal"])
def test_a_nan_energy_is_refused_before_any_solve(path, monkeypatch):
    # eigenvalues 1..50; the ring's corner entries make it wide, so with a low
    # DENSE_THRESHOLD counts_below counts it energy by energy
    diagonal = np.arange(1.0, 51.0)
    narrow_op = sp.diags(diagonal).tocsr()
    ring = narrow_op.tolil()
    ring[0, 49] = ring[49, 0] = 0.5
    ring = ring.tocsr()
    if path == "wide":
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 10)
    count = {"band": lambda E: counts_below(narrow_op, E),
             "dense": lambda E: counts_below(narrow_op.toarray(), E),
             "inertia": lambda E: np.array([count_eigenvalues_below(ring, e) for e in E]),
             "wide": lambda E: counts_below(ring, E),
             "tridiagonal": lambda E: spectral._tridiagonal_counts(diagonal, np.zeros(49), E)}[path]
    if path != "tridiagonal":  # +-inf keep their exact counts (a tridiagonal count refuses them)
        assert count([-np.inf, np.inf]).tolist() == [0, 50]
    with spectrum_spy() as spectrum, patch.object(spectral.spla, "splu") as splu, \
            patch.object(scipy.linalg.lapack, "dpttrf") as pttrf, pytest.raises(SolverError):
        count([np.nan] if path == "inertia" else [1.5, np.nan])  # an inertia count is of one energy
    assert not (spectrum.called or splu.called or pttrf.called)


def test_counts_below_maps_eigvalsh_failure_to_solver_error(monkeypatch):
    def eigvalsh(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(scipy.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(SolverError):
        counts_below(np.eye(3), [0.5])


def test_counts_below_leaves_input_array_unchanged():
    # Fortran order is what LAPACK would overwrite in place
    rng = np.random.default_rng(11)
    A = np.asfortranarray(random_sym(rng, 12))
    kept = A.copy()
    H = A + 1j * np.triu(random_sym(rng, 12), 1)
    H = np.asfortranarray(np.triu(H) + np.triu(H, 1).conj().T)
    kept_h = H.copy()
    counts_below(A, [-1.0, 0.0, 1.0])
    counts_below(H, [0.0])
    assert np.array_equal(A, kept)
    assert np.array_equal(H, kept_h)


# -- counting from the band -----------------------------------------------------------

BAND_K = {1: (8, 16), 2: (5, 6), 3: (1, 2)}  # the d = 3 boxes here are too wide for the band rule


def half_bandwidth(mat):
    low = sp.tril(mat, format="coo")
    return int((low.row - low.col).max(initial=0))


def narrow(mat):
    return spectral.BAND_RATIO * (half_bandwidth(mat) + 1) <= mat.shape[0]


def ids_compact_d2_box():
    # the ids_compact_d2 benchmark box: d=2, k=6, m=2 Dirichlet, 625 nodes, kd = 25
    return operator_sampler(PeriodicBackground.identity(d=2, m=2), compact_profile(d=2), DisorderSpec(),
                            BoxSpec(d=2, k=6, m=2), seed=0)(0)


def dense_counts(mat, energies):
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    return count_sorted_leq(np.linalg.eigvalsh(dense), energies, spectral._norm1(mat) or 1.0)


def raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("no convergence")


@given(st.sampled_from([1, 2, 3]), st.booleans(), st.sampled_from(["dirichlet", "periodic"]),
       st.integers(0, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_banded_counts_equal_inertia_and_dense_counts(d, long_range, bc, j, seed):
    lo, hi = BAND_K[d]
    op = ids_operator(d, long_range, False, lo + j % (hi - lo + 1), seed, bc)
    # at these k the d = 1, 2 Dirichlet boxes are narrow; d = 3 boxes and periodic wraps are wide
    assert narrow(op.matrix) == (bc == "dirichlet" and d < 3)
    dense_vals = scipy.linalg.eigvalsh(op.matrix.toarray())
    band_vals = spectral._spectrum(op.matrix, spectral._lower_band(op.matrix))
    scale = spectral._norm1(op.matrix)
    picks = np.linspace(0, len(dense_vals) - 1, 3).astype(int)
    grid = np.linspace(dense_vals[0] - 1.0, dense_vals[-1] + 1.0, 5)
    for energies in (grid, dense_vals[picks], band_vals[picks]):
        got = counts_below(op, energies)
        assert got.tolist() == count_sorted_leq(dense_vals, energies, scale).tolist()
        assert got.tolist() == [count_eigenvalues_below(op, E) for E in energies]
        if energies is not grid:  # an energy placed on a computed eigenvalue counts it
            assert np.all(got >= picks + 1)
    if bc == "dirichlet":  # the band solve itself, also on the d = 3 boxes the rule sends dense
        with patch.object(spectral, "BAND_RATIO", 1):
            forced = spectral._spectrum(op.matrix, spectral._lower_band(op.matrix))
            assert counts_below(op, dense_vals[picks]).tolist() == \
                count_sorted_leq(dense_vals, dense_vals[picks], scale).tolist()
        assert np.max(np.abs(forced - dense_vals)) <= 1e-12 * scale


def test_counts_below_builds_the_band_once():
    # above DENSE_THRESHOLD the band picks the path and is then solved: one build per count
    n = 4000
    mat = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
    assert n > spectral.DENSE_THRESHOLD and narrow(mat)
    energies = [0.5, 2.0, 3.5]
    with patch.object(spectral, "_lower_band", wraps=spectral._lower_band) as band:
        got = counts_below(mat, energies)
    assert band.call_count == 1
    exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))  # the path Laplacian's spectrum
    assert got.tolist() == count_sorted_leq(np.sort(exact), energies, spectral._norm1(mat)).tolist()


def test_narrow_box_counts_without_dense_eigvalsh(monkeypatch):
    op = ids_compact_d2_box()
    assert half_bandwidth(op.matrix) == 25 and narrow(op.matrix)
    energies = np.linspace(0.0, 12.0, 25)
    want = dense_counts(op.matrix, energies)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", raise_linalg_error)
    assert counts_below(op, energies).tolist() == want.tolist()


def test_wide_complex_and_dense_inputs_count_without_band_solver(monkeypatch):
    box = ids_compact_d2_box().matrix
    phase = sp.diags(np.exp(1j * np.arange(box.shape[0])))
    mats = {"periodic": ids_operator(2, False, False, 3, 5, "periodic").matrix,
            "quasiperiodic fiber": ids_operator(2, False, True, 3, seed=5).matrix,
            "narrow complex": (phase @ box @ phase.conj()).tocsr(),  # same spectrum as box
            "dense": box.toarray()}
    assert not narrow(mats["periodic"]) and narrow(mats["narrow complex"])
    energies = np.linspace(0.0, 12.0, 25)
    want = {name: dense_counts(mat, energies).tolist() for name, mat in mats.items()}
    assert want["narrow complex"] == want["dense"]
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", raise_linalg_error)
    assert {name: counts_below(mat, energies).tolist() for name, mat in mats.items()} == want


def test_band_solver_failure_is_a_solver_error(monkeypatch):
    op = ids_compact_d2_box()
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", raise_linalg_error)
    with pytest.raises(SolverError):
        counts_below(op, [1.0])


def test_narrow_operator_with_nan_is_a_solver_error():
    A = sp.diags([np.full(39, -1.0), np.full(40, 2.0), np.full(39, -1.0)], [-1, 0, 1]).tocsr()
    A[5, 4] = A[4, 5] = np.nan
    assert narrow(A)
    with pytest.raises(SolverError):
        counts_below(A, [0.0, 1.0])


def test_band_path_leaves_the_sparse_input_unchanged():
    mat = ids_compact_d2_box().matrix
    kept = (mat.data.copy(), mat.indices.copy(), mat.indptr.copy())
    # the same operator as COO with entry (3, 3) split in two halves, which sum
    coo = mat.tocoo()
    at = np.flatnonzero((coo.row == 3) & (coo.col == 3))
    data = coo.data.copy()
    data[at] /= 2.0
    split = sp.coo_matrix((np.append(data, data[at]), (np.append(coo.row, 3), np.append(coo.col, 3))),
                          shape=mat.shape)
    kept_split = (split.data.copy(), split.row.copy(), split.col.copy())
    energies = np.linspace(0.0, 12.0, 25)
    assert counts_below(mat, energies).tolist() == dense_counts(mat, energies).tolist()
    assert counts_below(split, energies).tolist() == dense_counts(mat, energies).tolist()
    dense_vals = np.linalg.eigvalsh(mat.toarray())
    split_vals = spectral._spectrum(split, spectral._lower_band(split))
    assert np.max(np.abs(split_vals - dense_vals)) <= 1e-12 * spectral._norm1(mat)
    assert spectral._norm1(split) == spectral._norm1(mat)
    assert all(np.array_equal(a, b) for a, b in zip((mat.data, mat.indices, mat.indptr), kept))
    assert all(np.array_equal(a, b) for a, b in zip((split.data, split.row, split.col), kept_split))


@given(st.integers(2, 25), st.integers(0, 10**6), st.floats(-4.0, 4.0))
@settings(max_examples=40, deadline=None)
def test_count_is_sylvester_inertia(n, seed, E):
    A = random_sym(np.random.default_rng(seed), n)
    exact = int(np.sum(np.sort(scipy.linalg.eigvalsh(A)) <= E))
    assert count_eigenvalues_below(sp.csr_matrix(A), E) == exact


# -- sparse inertia and its fallbacks --------------------------------------------------


def spectrum_spy():
    """Counts the calls of `_spectrum`, the fallback of every inertia count, while it is entered."""
    return patch.object(spectral, "_spectrum", wraps=spectral._spectrum)


def big_box(d, complex_fiber, seed):
    """A wide box: real periodic or complex quasiperiodic, d = 1 (122 nodes) or d = 2 (196 nodes)."""
    k = 30 if d == 1 else 3
    bg = PeriodicBackground.two_phase(m=2, low=1.0, high=3.0, d=d)
    box = BoxSpec(d=d, k=k, m=2, bc="quasiperiodic" if complex_fiber else "periodic",
                  theta=(0.7,) * d if complex_fiber else None)
    return operator_sampler(bg, compact_profile(d=d, amplitude=2.0), DisorderSpec(), box, seed)(0).matrix


@given(st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_counts_above_the_dense_threshold_equal_dense_counts(d, complex_fiber, seed):
    mat = big_box(d, complex_fiber, seed)
    assert mat.dtype == (complex if complex_fiber else float) and not narrow(mat)
    vals = np.linalg.eigvalsh(mat.toarray())
    picks = np.linspace(0, len(vals) - 1, 5).astype(int)
    grid = np.linspace(vals[0] - 1.0, vals[-1] + 1.0, 9)
    with spectrum_spy() as spectrum, patch.object(spectral, "DENSE_THRESHOLD", 10):
        for energies in (grid, vals[picks]):
            assert counts_below(mat, energies).tolist() == dense_counts(mat, energies).tolist()
            if energies is grid:  # no pivot this far from an eigenvalue falls back
                assert spectrum.call_count == 0


def test_big_operator_is_counted_without_a_dense_copy(monkeypatch):
    # d = 1 quasiperiodic, 3,202 nodes: complex, with a corner entry that makes it wide
    bg = PeriodicBackground.two_phase(m=2, low=1.0, high=3.0)
    box = BoxSpec(d=1, k=800, m=2, bc="quasiperiodic", theta=(0.7,))
    mat = operator_sampler(bg, compact_profile(d=1), DisorderSpec(), box, seed=3)(0).matrix
    assert mat.shape[0] > spectral.DENSE_THRESHOLD and spectral._lower_band(mat) is None
    norm = spectral._norm1(mat)
    energies = np.array([-1.0, 0.1, 0.3, 1.0, 3.0, norm + 1.0])
    monkeypatch.setattr(spectral, "_spectrum", raise_linalg_error)
    got = counts_below(mat, energies)
    # the operator is positive semidefinite and ||A||_1 bounds its spectrum
    assert got[0] == 0 and got[-1] == mat.shape[0] and np.all(np.diff(got) > 0)
    assert counts_below(mat, 1.0) == got[3]


def test_count_falls_back_on_an_off_diagonal_pivot():
    # at E = -eta the shifted matrix is [[0, 1], [1, 0]]: no diagonal pivot is left to take
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with spectrum_spy() as spectrum:
        assert count_eigenvalues_below(swap, -1e-12) == 1
        assert spectrum.call_count == 1
        assert count_eigenvalues_below(swap, -0.5) == 1 and spectrum.call_count == 1  # the clean path


def test_count_falls_back_on_a_singular_shift():
    # at E = -eta the shifted diag(0, 1, 5) is exactly singular and SuperLU raises;
    # the eigenvalue at E + eta is not below it
    A = sp.diags([0.0, 1.0, 5.0]).tocsr()
    with spectrum_spy() as spectrum:
        assert count_eigenvalues_below(A, -5e-12) == 0
        assert count_eigenvalues_below(A, 0.0) == 1
        assert spectrum.call_count == 1


def test_count_falls_back_on_an_untrusted_pivot():
    # the second pivot of [[1, 1], [1, 1 + 2 eps]] is 2 eps, below n eps || |L| |U| || = 4 eps
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 2 * np.finfo(float).eps]])
    with spectrum_spy() as spectrum:
        assert count_eigenvalues_below(A, -2e-12) == 0
        assert count_eigenvalues_below(A, 3.0) == 2
        assert spectrum.call_count == 1


def test_count_at_a_degenerate_free_eigenvalue_falls_back_and_is_exact():
    # the free d = 2 periodic box has eigenvalues of multiplicity up to 26: at
    # E on one of them several pivots come within rounding of zero
    A = assemble_operator(identity_field(BoxSpec(d=2, k=3, m=2, bc="periodic"))).matrix
    vals = np.linalg.eigvalsh(A.toarray())
    with spectrum_spy() as spectrum:
        assert [count_eigenvalues_below(A, E) for E in vals] == dense_counts(A, vals).tolist()
        assert spectrum.call_count > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_count_falls_back_on_a_non_finite_pivot(bad):
    A = np.eye(4)
    A[1, 2] = A[2, 1] = bad
    with spectrum_spy() as spectrum, pytest.raises(SolverError):
        count_eigenvalues_below(sp.csr_matrix(A), 0.5)
    assert spectrum.call_count == 1


def test_count_fallback_failure_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(scipy.linalg, "eigvalsh", raise_linalg_error)
    with pytest.raises(SolverError):
        count_eigenvalues_below(np.diag([0.0, 1.0, 5.0]), -5e-12)


# -- window counts ----------------------------------------------------------------------


def test_window_hits_pin_the_edge_rule():
    # eigenvalues at E - t and E + t: the upper edge is a hit, the lower one is not
    E, t = 1.0, 0.25
    below, above = sp.diags([0.0, E - t, 5.0]).tocsr(), sp.diags([0.0, E + t, 5.0]).tocsr()
    radii = np.array([t, t * (1 - 1e-9), t * (1 + 1e-9)])
    assert _window_hits(below, E, radii).tolist() == [False, False, True]
    assert _window_hits(above, E, radii).tolist() == [True, False, True]
    assert _window_hits(sp.diags([0.0, 1.2, 5.0]).tocsr(), E, np.array([0.19, 0.2 + 1e-9])).tolist() == \
        [False, True]


@given(st.sampled_from([DisorderSpec(), DisorderSpec(law="kappa_tail", kappa=1.5),
                        DisorderSpec(law="bernoulli", p=0.3, a=1.0)]),
       st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(0, 9))
@settings(max_examples=15, deadline=None)
def test_every_count_takes_the_slack_of_the_operator_norm(law, k, seed, index):
    # at E = lambda_j - 1e-12 (max|lambda| + ||A||_1) / 2 a slack scaled by
    # max|lambda| misses lambda_j and one scaled by ||A||_1 counts it; every
    # counting path must take the latter, the lambda_min event included, which
    # must count lambda_min at E = lambda_min - 1e-12 ||A||_1 / 2
    def between(vals, norm):
        return vals - 1e-12 * (np.abs(vals).max() + norm) / 2.0

    for d, box_k in ((1, 2 * k), (2, k)):
        plan = _AndersonPlan(d, box_k, 4.0, 0.0, 1e-3)
        for i in sorted({0, index}):  # the event's one trial draws realization 0
            v = plan.draw(law, seed, i)
            mat = assemble_anderson(d, box_k, 0.0, v).matrix
            norm = spectral._norm1(mat)
            vals = np.linalg.eigvalsh(mat.toarray())
            energies = between(vals, norm)
            want = counts_below(mat, energies)
            assert np.all(count_sorted_leq(vals, energies) < want)
            assert plan.counts(v, energies).tolist() == want.tolist()
            assert [count_eigenvalues_below(mat, E) for E in energies] == want.tolist()
            if i == 0:  # a hit inside the slack, a miss below it
                for E, hits in ((vals[0] - 1e-12 * norm / 2.0, 1), (vals[0] - 2e-12 * norm, 0)):
                    assert frequency(lambda indices: [plan.counts(v, E) > 0 for v in plan.draws(law, seed, indices)],
                                     1, block=plan.block)[3] == hits
    for d in (1, 2):
        field = floquet_medium(d, True, seed)
        bands = spectral._field_bands(field, 3)
        fibers = [assemble_operator(field, theta=tuple(th)).matrix.toarray() for th in bands.thetas]
        j = index % bands.bands.shape[1]
        energies = np.unique([between(row, spectral._norm1(f))[j] for row, f in zip(bands.bands, fibers)])
        want = np.mean([counts_below(f, energies) for f in fibers], axis=0)
        assert np.array_equal(periodic_ids_curve(bands, energies).values, want / bands.period**d)


# -- Floquet bands ---------------------------------------------------------------------


def test_free_bands_1d_closed_form():
    # two-point cell in mesh units (scale by h^2): branches 2 +- 2 cos(theta/2)
    bg = PeriodicBackground.identity(1, 2)
    bands = floquet_bands(bg, n_theta=32)
    th = bands.thetas[:, 0]
    lo = 2.0 - 2.0 * np.cos(th / 2.0)
    hi = 2.0 + 2.0 * np.cos(th / 2.0)
    exact = np.sort(np.stack([lo, hi], axis=1), axis=1)
    h2 = 0.25
    assert bands.bands.shape == (32, 2)
    assert np.max(np.abs(bands.bands * h2 - exact) / 4.0) < 1e-10


def test_band_grid_is_half_open():
    bands = floquet_bands(PeriodicBackground.identity(1, 2), n_theta=8)
    th = np.sort(bands.thetas[:, 0])
    assert th[0] == 0.0
    assert th[-1] < 2.0 * np.pi
    assert len(np.unique(th)) == 8


def diagonal_background(*stripes, off=0.0):
    """d = 2, rho = [[s0(x_0), off], [off, s1(x_1)]] over the m x m cells of the unit cell."""
    s0, s1 = (np.asarray(s, dtype=float) for s in stripes)
    x0, x1 = np.indices((len(s0),) * 2).reshape(2, -1)
    samples = np.empty((len(x0), 2, 2))
    samples[:, 0, 0], samples[:, 1, 1] = s0[x0], s1[x1]
    samples[:, 0, 1] = samples[:, 1, 0] = off
    return PeriodicBackground(d=2, m=len(s0), samples=samples)


# d = 2 backgrounds with a known symmetry group, beside the two-phase one:
# "anisotropic" has a constant rho_01 = 0.3 and a stripe, so each single-axis
# mirror maps rho_01 to -0.3 and is no symmetry, although |rho| has both;
# "offcentre" has a stripe mirrored about the centre of cell 1 of 5 across
# axis 0 and one with no mirror across axis 1
BACKGROUNDS = {"identity": PeriodicBackground.identity(2, 2),
               "anisotropic": diagonal_background([1.0, 3.0], [1.0, 1.0], off=0.3),
               "offcentre": diagonal_background([1.0, 3.0, 1.0, 2.0, 2.0], [1.0, 2.0, 4.0, 8.0, 16.0])}


def floquet_medium(d, medium, seed=0):
    """The field of a medium whose (2k+1)-periodic repetition `_field_bands` fibers.

    medium: False for a two-phase background's unit cell, True for a k = 1
    pattern on it, or a name in BACKGROUNDS (d = 2).
    """
    bg = BACKGROUNDS[medium] if medium in BACKGROUNDS else \
        PeriodicBackground.two_phase(m=3 if d == 1 else 2, low=1.0, high=3.0, d=d)
    if medium is True:
        pattern = sample_realization(DisorderSpec(), lattice_cube(d, 1), seed=seed, index=0)
        return _periodized_plan(bg, IDS_PROFILES[d][0], 1)(pattern.values)
    return background_field(bg, BoxSpec(d=bg.d, k=0, m=bg.m, bc="quasiperiodic"))


@given(st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 2.0 * np.pi, exclude_max=True), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_bloch_family_fiber_equals_assembled_operator(d, periodized, seed, phi):
    field = floquet_medium(d, periodized, seed)
    phi, period = np.array(phi[:d]), field.box.side
    rows, cols, shifts, coeffs = _bloch_family(field)
    want = assemble_operator(field, theta=tuple(phi / period)).matrix.toarray()
    got = np.zeros_like(want, dtype=complex)
    got[rows, cols] = np.exp(1j * (shifts @ phi)) @ coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


MIRROR_0, MIRROR_1, EXCHANGE = np.diag([-1, 1]), np.diag([1, -1]), np.array([[0, 1], [1, 0]])


# each symmetry with its centre: the least c of a mirror x_j -> c - x_j mod n
# (any c for a constant axis), None for an exchange
@pytest.mark.parametrize("medium,symmetries", [
    (False, [(MIRROR_0, 0), (MIRROR_1, 0)]), (True, []),
    ("identity", [(MIRROR_0, 0), (MIRROR_1, 0), (EXCHANGE, None)]),
    ("anisotropic", []), ("offcentre", [(MIRROR_0, 2)])],
    ids=["two_phase", "periodized", "identity", "anisotropic", "offcentre"])
def test_point_symmetries_are_exact(medium, symmetries):
    field = floquet_medium(2, medium, seed=5)
    found = _point_symmetries(field)
    assert len(found) == len(symmetries)
    assert all(np.array_equal(G, want) for (G, _), (want, _) in zip(found, symmetries))
    assert [c for _, c in found] == [c for _, c in symmetries]


def test_mirror_centres_of_two_phase_stripes():
    # stripes low on cells 0..m/2-1 and high on the rest are mirrored about
    # c = m/2 - 1 across their axis (x -> m/2 - 1 - x swaps the low cells),
    # about c = 0 for odd m (cell 0 low, cells 1..m-1 high), and constant across the other
    for d, m, axis, centres in [(1, 4, 0, [1]), (1, 3, 0, [0]), (2, 4, 1, [0, 1]), (2, 6, 0, [2, 0])]:
        bg = PeriodicBackground.two_phase(m=m, low=1.0, high=3.0, d=d, axis=axis)
        found = _point_symmetries(background_field(bg, BoxSpec(d=d, k=0, m=m, bc="quasiperiodic")))
        assert [c for _, c in found] == centres


def test_a_mirror_must_negate_the_off_diagonal():
    # the anisotropic medium's rows at grid indices j and j with one component
    # negated differ by 5.6% of max|E|: a mirror check blind to rho_01's sign
    # would copy wrong bands (each row is checked against its own fiber below)
    bands = floquet_bands(BACKGROUNDS["anisotropic"], n_theta=6).bands.reshape(6, 6, -1)
    negated = -np.arange(6) % 6
    for mirrored in (bands[negated], bands[:, negated]):
        assert np.max(np.abs(bands - mirrored)) > 0.05 * np.max(np.abs(bands))


@pytest.mark.parametrize("n_theta", [1, 2, 5, 6])
@pytest.mark.parametrize("d,medium", [(1, False), (1, True), (2, False), (2, True),
                                      (2, "identity"), (2, "anisotropic"), (2, "offcentre")])
def test_every_band_row_is_its_own_fiber(d, medium, n_theta):
    # rows copied from a fiber of the same orbit (time reversal, mirrors, exchange) included
    field = floquet_medium(d, medium, seed=5)
    bands = spectral._field_bands(field, n_theta)
    fibers = [assemble_operator(field, theta=tuple(th)).matrix.toarray() for th in bands.thetas]
    direct = np.array([np.linalg.eigvalsh(f) for f in fibers])
    assert np.max(np.abs(bands.bands - direct)) <= 1e-12 * np.max(np.abs(direct))
    # norms: ||H(phi)||_1 of each row's fiber, up to the rounding of its phases
    norms = np.array([spectral._norm1(f) for f in fibers])
    assert np.max(np.abs(bands.norms - norms)) <= 1e-14 * np.max(norms)


def count_solves(monkeypatch, bands_of, n_theta, shapes=None):
    """The batched eigensolves behind bands_of(n_theta), a band structure over the whole grid,
    one per solved fiber; the shape of each stack of blocks is appended to `shapes` when it is given."""
    calls = [] if shapes is None else shapes
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(spectral.np.linalg, "eigvalsh",
                        lambda a, *args, **kw: calls.append(a.shape) or eigvalsh(a, *args, **kw))
    bands = bands_of(n_theta)
    assert bands.bands.shape[0] == n_theta**bands.d
    return len(calls)


def grid_orbits(d, n_theta, group):
    """Number of orbits of the grid {0..n_theta-1}^d under index j -> G j mod n_theta, G in group."""
    return len({frozenset(tuple(np.asarray(G) @ j % n_theta) for G in group)
                for j in itertools.product(range(n_theta), repeat=d)})


def signed_permutations(d, permute):
    """Every diagonal sign matrix, times every axis permutation when permute is set."""
    perms = list(itertools.permutations(range(d))) if permute else [tuple(range(d))]
    return [np.diag(signs) @ np.eye(d, dtype=int)[list(p)]
            for signs in itertools.product([1, -1], repeat=d) for p in perms]


@pytest.mark.parametrize("d,n_theta,solves", [(1, 1, 1), (1, 5, 3), (1, 6, 4),
                                              (2, 2, 4), (2, 5, 13), (2, 6, 20)])
def test_floquet_bands_solves_half_the_grid(monkeypatch, d, n_theta, solves):
    # a periodized random pattern has time reversal alone: (n^d + c) / 2 eigensolves,
    # c = 2^d self-conjugate points for even n, 1 for odd n
    bands_of = functools.partial(spectral._field_bands, floquet_medium(d, True, seed=5))
    time_reversal = [np.eye(d, dtype=int), -np.eye(d, dtype=int)]
    assert count_solves(monkeypatch, bands_of, n_theta) == solves == grid_orbits(d, n_theta, time_reversal)
    assert solves == (n_theta**d + (2**d if n_theta % 2 == 0 else 1)) // 2


@pytest.mark.parametrize("d,n_theta,medium,solves", [
    (1, 1, "two_phase", 1), (1, 5, "two_phase", 3), (1, 6, "two_phase", 4), (2, 2, "two_phase", 4),
    (2, 5, "two_phase", 9), (2, 6, "two_phase", 16), (2, 5, "identity", 6), (2, 6, "identity", 10),
    (3, 4, "identity", 10)])
def test_floquet_bands_solves_one_fiber_per_orbit(monkeypatch, d, n_theta, medium, solves):
    # two-phase stripes along axis 0 have both axis mirrors; the identity has
    # every signed axis permutation (8-fold in d = 2, 48-fold in d = 3)
    bg = (PeriodicBackground.two_phase(m=4, low=1.0, high=3.0, d=d) if medium == "two_phase"
          else PeriodicBackground.identity(d, 2))
    group = signed_permutations(d, permute=medium == "identity")
    assert count_solves(monkeypatch, functools.partial(floquet_bands, bg), n_theta) == solves \
        == grid_orbits(d, n_theta, group)


def fold_medium(d, medium):
    """floquet_medium, with the d = 3 identity background's unit cell beside it."""
    if (d, medium) == (3, "identity"):
        return background_field(PeriodicBackground.identity(3, 2), BoxSpec(d=3, k=0, m=2, bc="quasiperiodic"))
    return floquet_medium(d, medium, seed=5)


def unfolded(field):
    """The period of each axis of the field's box: `_fold` then solves the whole fiber as one block."""
    return (field.box.cells_per_axis,) * field.box.d


def test_cell_periods_are_the_least_divisors_of_the_side():
    for d, m, axis in [(1, 4, 0), (2, 4, 0), (2, 6, 1), (3, 2, 2)]:
        bg = PeriodicBackground.two_phase(m=m, low=1.0, high=3.0, d=d, axis=axis)
        field = background_field(bg, BoxSpec(d=d, k=0, m=m, bc="quasiperiodic"))
        assert _cell_periods(field) == tuple(m if j == axis else 1 for j in range(d))
    for d, m in [(1, 2), (2, 3), (3, 4)]:
        field = background_field(PeriodicBackground.identity(d, m), BoxSpec(d=d, k=0, m=m, bc="quasiperiodic"))
        assert _cell_periods(field) == (1,) * d
    for d in (1, 2):
        field = floquet_medium(d, True, seed=5)
        assert _cell_periods(field) == unfolded(field)
    # 12 cells whose slices 0, 2, 4, 6 and 8 agree: the candidates 6, 4 (and 2)
    # match on slice 0 but are refused on the whole field; the period is 12, then 6
    for scalars, period in [([1, 2, 1, 3, 1, 2, 1, 3, 1, 5, 6, 7], 12), ([1, 2, 1, 3, 1, 2] * 2, 6)]:
        bg = PeriodicBackground(d=1, m=12, samples=np.reshape(scalars, (12, 1, 1)))
        assert _cell_periods(background_field(bg, BoxSpec(d=1, k=0, m=12, bc="quasiperiodic"))) == (period,)


@pytest.mark.parametrize("d,medium,periods", [
    (1, False, (3,)), (2, False, (2, 1)), (2, "identity", (1, 1)), (3, "identity", (1, 1, 1)),
    (1, True, (9,)), (2, True, (6, 6)), (2, "anisotropic", (2, 1)), (2, "offcentre", (5, 5))],
    ids=["two_phase_d1", "two_phase_d2", "identity_d2", "identity_d3",
         "periodized_d1", "periodized_d2", "anisotropic", "offcentre"])
def test_folded_media_solve_blocks_of_the_cell_period(monkeypatch, d, medium, periods):
    # a medium whose cells repeat along an axis solves each fiber as prod N / p_j
    # blocks of prod p_j nodes; a random pattern (periodized) and the offcentre
    # medium repeat only with the box (Q = 1) and solve one block of n nodes
    field = fold_medium(d, medium)
    assert _cell_periods(field) == periods
    shapes = []
    solves = count_solves(monkeypatch, functools.partial(spectral._field_bands, field), 4, shapes)
    size, n = int(np.prod(periods)), field.box.n_nodes
    assert len(shapes) == solves > 0
    assert set(shapes) == {(n // size, size, size)}


@pytest.mark.parametrize("d,medium", [(1, False), (2, False), (2, "identity"), (3, "identity")])
def test_folded_fibers_keep_norms_and_move_rows_by_rounding(d, medium):
    # the same medium with the fold switched off: one block of the whole fiber
    field = fold_medium(d, medium)
    folded = spectral._field_bands(field, 5)
    with patch.object(spectral, "_cell_periods", unfolded):
        whole = spectral._field_bands(field, 5)
    assert np.array_equal(folded.norms, whole.norms)
    assert np.max(np.abs(folded.bands - whole.bands)) <= 1e-13 * np.max(np.abs(whole.bands))


def repeating_background(d, m, axis, seed):
    """Random symmetric positive definite samples whose cells repeat twice across `axis` (m even)."""
    rng = np.random.default_rng(seed)
    shape = tuple(m // 2 if j == axis else m for j in range(d))
    half = rng.uniform(-0.3, 0.3, shape + (d, d))
    half = (half + np.swapaxes(half, -1, -2)) / 2.0 + np.eye(d) * rng.uniform(1.0, 4.0, shape + (1, 1))
    return PeriodicBackground(d=d, m=m, samples=np.concatenate([half, half], axis=axis).reshape(-1, d, d))


@given(st.sampled_from(["two_phase", "identity", "repeating"]), st.integers(1, 3), st.integers(0, 2),
       st.integers(1, 4), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_folded_fibers_match_eigvalsh_of_their_fiber(medium, d, axis, n_theta, low, high, seed):
    m = {1: 6, 2: 4, 3: 2}[d]
    axis %= d
    bg = {"two_phase": lambda: PeriodicBackground.two_phase(m=m, low=low, high=high, d=d, axis=axis),
          "identity": lambda: PeriodicBackground.identity(d, m),
          "repeating": lambda: repeating_background(d, m, axis, seed)}[medium]()
    field = background_field(bg, BoxSpec(d=d, k=0, m=m, bc="quasiperiodic"))
    if medium == "repeating":
        assert _cell_periods(field)[axis] == m // 2
    bands = spectral._field_bands(field, n_theta)
    direct = np.array([np.linalg.eigvalsh(assemble_operator(field, theta=tuple(th)).matrix.toarray())
                       for th in bands.thetas])
    assert np.max(np.abs(bands.bands - direct)) <= 1e-12 * np.max(np.abs(direct))
    with patch.object(spectral, "_cell_periods", unfolded):
        assert np.array_equal(bands.norms, spectral._field_bands(field, n_theta).norms)


def real_fiber(field, phi):
    """The fiber at seam phase phi as the real symmetric matrix that a mirror of every axis makes it.

    The symmetric gauge (a unitary change) multiplies entry (a, b) by
    exp(i phi.(y_b - y_a) / N), node coordinates y in {0..N-1}^d; the mirrors
    about the centres c of `_point_symmetries` map y to P y = c + 1 - y mod N,
    and P S P = conj S.  In the basis e_a (a = Pa), (e_a + e_Pa)/sqrt 2 and
    i (e_a - e_Pa)/sqrt 2 (a < Pa) the fiber is real.
    """
    box = field.box
    N, n = box.cells_per_axis, box.n_nodes
    centres = [c for _, c in _point_symmetries(field) if c is not None]
    assert len(centres) == box.d
    rows, cols, shifts, coeffs = _bloch_family(field)
    y = np.indices(box.node_shape).reshape(box.d, n)
    gauged = np.zeros((n, n), dtype=complex)
    gauged[rows, cols] = (np.exp(1j * (shifts @ phi)) @ coeffs) * np.exp(1j * (phi @ (y[:, cols] - y[:, rows])) / N)
    image = np.ravel_multi_index(tuple((np.reshape(centres, (-1, 1)) + 1 - y) % N), box.node_shape)
    assert np.max(np.abs(gauged[np.ix_(image, image)] - gauged.conj())) <= 1e-13 * np.max(np.abs(gauged))
    basis = []
    for a, b in enumerate(image):
        if a == b:
            basis.append(np.eye(n)[a])
        elif a < b:
            basis += [(np.eye(n)[a] + np.eye(n)[b]) * np.sqrt(0.5), 1j * (np.eye(n)[a] - np.eye(n)[b]) * np.sqrt(0.5)]
    U = np.array(basis).T
    real = U.conj().T @ gauged @ U
    assert np.max(np.abs(real.imag)) <= 1e-13 * np.max(np.abs(real))
    return real.real


@pytest.mark.parametrize("d,medium,real", [
    (1, False, True), (2, False, True), (2, "identity", True), (3, "identity", True),
    (1, True, False), (2, True, False), (2, "anisotropic", False), (2, "offcentre", False)],
    ids=["two_phase_d1", "two_phase_d2", "identity_d2", "identity_d3",
         "periodized_d1", "periodized_d2", "anisotropic", "offcentre"])
def test_media_with_every_mirror_solve_real_fibers(d, medium, real):
    # a mirror of every axis makes the inversion a symmetry, and each fiber real
    # symmetric in the mirrors' basis; a random pattern, the anisotropic medium
    # (whose constant rho_01 no single mirror keeps) and the offcentre one (no
    # mirror across axis 1) lack one.  The real fibers solve to the folded rows.
    field = fold_medium(d, medium)
    assert (len([c for _, c in _point_symmetries(field) if c is not None]) == d) == real
    if real:
        bands = spectral._field_bands(field, 4)
        direct = np.array([scipy.linalg.eigvalsh(real_fiber(field, th * bands.period)) for th in bands.thetas])
        assert np.max(np.abs(bands.bands - direct)) <= 1e-12 * np.max(np.abs(direct))


@given(st.integers(1, 2), st.integers(2, 6), st.integers(0, 1), st.integers(1, 5),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_two_phase_real_fibers_match_complex_eigvalsh(d, m, axis, n_theta, low, high):
    bg = PeriodicBackground.two_phase(m=m, low=low, high=high, d=d, axis=axis % d)
    field = background_field(bg, BoxSpec(d=d, k=0, m=m, bc="quasiperiodic"))
    bands = spectral._field_bands(field, n_theta)
    direct = np.array([scipy.linalg.eigvalsh(assemble_operator(field, theta=tuple(th)).matrix.toarray())
                       for th in bands.thetas])
    real = np.array([scipy.linalg.eigvalsh(real_fiber(field, th * bands.period)) for th in bands.thetas])
    assert np.max(np.abs(real - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert np.max(np.abs(bands.bands - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_two_phase_gap_values_frozen():
    # medium with m=4 cells alternating 1 and 4 opens these gaps (64-point scan)
    bg = PeriodicBackground.two_phase(m=4, low=1.0, high=4.0)
    gaps = spectral_gaps(floquet_bands(bg, n_theta=64))
    assert len(gaps) >= 2
    lo0, hi0 = gaps[0][0], gaps[0][1]
    lo1, hi1 = gaps[1][0], gaps[1][1]
    assert lo0 == pytest.approx(10.362400714242993, rel=1e-9)
    assert hi0 == pytest.approx(23.01515499505873, rel=1e-9)
    assert lo1 == pytest.approx(41.209137585631154, rel=1e-9)
    assert hi1 == pytest.approx(80.0, rel=1e-9)


def test_free_medium_has_no_gap():
    assert spectral_gaps(floquet_bands(PeriodicBackground.identity(1, 4), n_theta=64)) == []


def test_periodic_ids_curve_normalization():
    bg = PeriodicBackground.identity(1, 2)
    bands = floquet_bands(bg, n_theta=64)
    top = float(bands.bands.max()) + 1.0
    curve = periodic_ids_curve(bands, [top])
    # all m states per unit cell lie below the spectrum top
    assert curve.values[0] == pytest.approx(2.0)
    below = periodic_ids_curve(bands, [-1.0])
    assert below.values[0] == 0.0


def test_ids_curve_validation():
    with pytest.raises(Exception):
        IDSCurve(energies=np.array([0.0, 1.0]), values=np.array([0.5, 0.2]),
                 volume=1.0)
