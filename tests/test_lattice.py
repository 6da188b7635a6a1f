import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lifshitz_lab.disorder as disorder_mod
from lifshitz_lab.config import parse_config
from lifshitz_lab.disorder import (CoverageError, DisorderSpec, Realization, ValidationError,
                                   lattice_cube, sample_realization)
from lifshitz_lab.experiments import run
from lifshitz_lab.ids import empirical_ids
from lifshitz_lab.lattice import (BoxSpec, CoefficientField, PeriodicBackground, _bloch_family,
                                  _FieldPlan, _periodized_plan,
                                  assemble_operator, background_field, compact_profile, identity_field,
                                  lattice_correlate, long_range_profile,
                                  operator_sampler, required_window, sample_coefficient_field,
                                  short_range_profile)


def free_op(d, k, m, bc="dirichlet", theta=None):
    return assemble_operator(identity_field(BoxSpec(d=d, k=k, m=m, bc=bc, theta=theta)))


# -- spec validation ------------------------------------------------------------


def test_box_spec_rejects_bad_input():
    with pytest.raises(ValidationError):
        BoxSpec(d=0, k=1, m=2)
    with pytest.raises(ValidationError):
        BoxSpec(d=1, k=1, m=1)
    with pytest.raises(ValidationError):
        BoxSpec(d=1, k=1, m=2, bc="open")
    with pytest.raises(ValidationError):
        BoxSpec(d=1, k=1, m=2, bc="dirichlet", theta=(0.3,))
    with pytest.raises(ValidationError):
        BoxSpec(d=2, k=1, m=2, bc="quasiperiodic", theta=(0.3,))


def test_box_geometry():
    box = BoxSpec(d=2, k=3, m=4)
    assert box.side == 7
    assert box.volume == 49.0
    assert box.n_cells == 28**2
    assert box.h == 0.25
    # a Dirichlet box drops one node per axis; its first node sits at -side/2 + h
    assert box.node_shape == (27, 27)
    assert box.n_nodes == 729
    assert box.node_positions()[[0, 1, 27, -1]].tolist() == [[-3.25, -3.25], [-3.25, -3.0],
                                                             [-3.0, -3.25], [3.25, 3.25]]
    line = BoxSpec(d=1, k=0, m=4)
    assert (line.node_shape, line.n_nodes) == ((3,), 3)
    assert line.node_positions().tolist() == [[-0.25], [0.0], [0.25]]
    torus = BoxSpec(d=2, k=0, m=2, bc="periodic")
    assert (torus.node_shape, torus.n_nodes) == ((2, 2), 4)
    assert torus.node_positions().tolist() == [[-0.5, -0.5], [-0.5, 0.0], [0.0, -0.5], [0.0, 0.0]]
    twisted = BoxSpec(d=1, k=1, m=2, bc="quasiperiodic", theta=(0.4,))
    assert (twisted.node_shape, twisted.n_nodes) == ((6,), 6)
    assert twisted.node_positions().ravel().tolist() == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0]


def test_theta_override_is_validated_by_the_box():
    field = identity_field(BoxSpec(d=2, k=1, m=2, bc="quasiperiodic"))
    for theta in [(7.0, 0.1), (-0.1, 0.0), (2 * math.pi, 0.0), (0.3,), (0.1, 0.2, 0.3)]:
        with pytest.raises(ValidationError):
            assemble_operator(field, theta=theta)
    for bc in ("dirichlet", "periodic"):
        with pytest.raises(ValidationError):
            assemble_operator(identity_field(BoxSpec(d=2, k=1, m=2, bc=bc)), theta=(0.3, 0.3))
    op = assemble_operator(field, theta=[0.3, 1.2])
    assert op.box.theta == (0.3, 1.2)
    own = free_op(2, 1, 2, bc="quasiperiodic", theta=(0.3, 1.2)).matrix
    assert (op.matrix != own).nnz == 0


def test_background_requires_ellipticity():
    with pytest.raises(ValidationError):
        PeriodicBackground(d=1, m=2, samples=np.zeros((2, 1, 1)))
    with pytest.raises(ValidationError):
        PeriodicBackground(d=2, m=2,
                           samples=np.tile(np.array([[1.0, 2.0], [0.0, 1.0]]), (4, 1, 1)))


# -- free operator oracles ---------------------------------------------------------


def test_dirichlet_laplacian_1d_eigenvalues():
    # (4/h^2) sin^2(j pi / (2 (n+1))) for the n-point Dirichlet chain
    op = free_op(1, 2, 4)
    n = op.matrix.shape[0]
    h = 0.25
    vals = np.sort(scipy.linalg.eigvalsh(op.matrix.toarray()))
    j = np.arange(1, n + 1)
    exact = (4.0 / h**2) * np.sin(j * np.pi / (2.0 * (n + 1)))**2
    assert np.max(np.abs(vals - exact) / exact) < 1e-8


def test_identity_coefficient_gives_graph_laplacian():
    op = free_op(1, 1, 2)
    A = op.matrix.toarray() * op.h**2
    n = A.shape[0]
    expect = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    assert np.max(np.abs(A - expect)) < 1e-12


def test_free_operator_2d_kron_structure():
    op = free_op(2, 1, 2)
    one = free_op(1, 1, 2).matrix.toarray()
    n = one.shape[0]
    expect = np.kron(one, np.eye(n)) + np.kron(np.eye(n), one)
    assert np.max(np.abs(op.matrix.toarray() - expect)) < 1e-10


def test_periodic_vs_dirichlet_eigenvalue_interlacing():
    # Dirichlet restriction can only push eigenvalues up
    dir_vals = np.sort(scipy.linalg.eigvalsh(free_op(1, 2, 2).matrix.toarray()))
    per_vals = np.sort(scipy.linalg.eigvalsh(
        free_op(1, 2, 2, bc="quasiperiodic", theta=(0.0,)).matrix.toarray()))
    assert per_vals[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(dir_vals >= per_vals[: len(dir_vals)] - 1e-10)


def test_quasiperiodic_phase_moves_bottom_eigenvalue():
    flat = free_op(1, 2, 2, bc="quasiperiodic", theta=(0.0,))
    twisted = free_op(1, 2, 2, bc="quasiperiodic", theta=(0.9,))
    v0 = scipy.linalg.eigvalsh(flat.matrix.toarray())[0]
    v1 = scipy.linalg.eigvalsh(twisted.matrix.toarray())[0]
    assert v1 > v0 + 1e-6


def test_quasiperiodic_operator_is_hermitian():
    op = free_op(2, 1, 2, bc="quasiperiodic", theta=(1.1, 2.7))
    M = op.matrix.toarray()
    assert np.max(np.abs(M - M.conj().T)) < 1e-12


def cell_form_loop(cells, box, u, theta):
    """sum_cells (grad u)* rho (grad u), cell by cell from the module docstring's form.

    A Dirichlet boundary corner carries 0; a corner across the periodic seam of
    axis j carries exp(1j * theta_j * side) times the node value it wraps to.
    """
    d, n, h = box.d, box.cells_per_axis, box.h
    seam = np.exp(1j * np.asarray(theta) * box.side) if theta is not None else np.ones(d)
    nodes = u.reshape((n - 1,) * d if box.bc == "dirichlet" else (n,) * d)
    total = 0.0
    for c, rho in zip(np.ndindex(*(n,) * d), cells):
        corner = {}
        for a in np.ndindex(*(2,) * d):
            x = np.add(c, a)
            if box.bc == "dirichlet":
                inside = np.all((x > 0) & (x < n))
                corner[a] = nodes[tuple(x - 1)] if inside else 0.0
            else:
                corner[a] = nodes[tuple(x % n)] * np.prod(seam[x == n])
        diffs = []  # per axis: the 2^(d-1) edge differences along it
        for j in range(d):
            diffs.append(np.array([(corner[a[:j] + (1,) + a[j + 1:]] - corner[a]) / h
                                   for a in np.ndindex(*(2,) * d) if a[j] == 0]))
            total += rho[j, j] * np.mean(np.abs(diffs[j]) ** 2)
        for i in range(d):
            for j in range(d):
                if i != j:
                    total += rho[i, j] * np.conj(diffs[i].mean()) * diffs[j].mean()
    return total


@pytest.mark.parametrize("d,k,m", [(1, 2, 3), (2, 1, 2), (3, 0, 2)])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic", "quasiperiodic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_assembled_form_matches_cell_loop(d, k, m, bc, seed):
    # random SPD cells with off-diagonal entries, so every rho_ij term is checked
    rng = np.random.default_rng(seed)
    theta = tuple(rng.uniform(0.0, 2.0 * np.pi, d)) if bc == "quasiperiodic" else None
    box = BoxSpec(d=d, k=k, m=m, bc=bc, theta=theta)
    g = rng.standard_normal((box.n_cells, d, d))
    cells = g @ np.transpose(g, (0, 2, 1)) + 0.1 * np.eye(d)
    cells = (cells + np.transpose(cells, (0, 2, 1))) / 2.0
    field = CoefficientField(box=box, cells=cells)
    A = assemble_operator(field).matrix
    u = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    want = cell_form_loop(cells, box, u, theta)
    forms = [np.vdot(u, A @ u)]
    if bc == "quasiperiodic":
        rows, cols, shifts, coeffs = _bloch_family(field)
        fiber = np.zeros(A.shape, dtype=complex)
        fiber[rows, cols] = np.exp(1j * (shifts @ (np.asarray(theta) * box.side))) @ coeffs
        forms.append(np.vdot(u, fiber @ u))
    for got in forms:
        assert abs(got - want) <= 1e-12 * abs(want)


# -- profiles and fields ----------------------------------------------------------


def test_profile_constructor_ranges():
    with pytest.raises(ValidationError):
        long_range_profile(d=1, nu=1.0)     # needs nu > d
    with pytest.raises(ValidationError):
        long_range_profile(d=1, nu=3.5)     # needs nu <= d + 2
    with pytest.raises(ValidationError):
        short_range_profile(d=1, nu=2.5)    # needs nu > d + 2
    assert compact_profile(d=2).kind == "compact"


def test_compact_profile_window_is_local():
    box = BoxSpec(d=1, k=2, m=2)
    win = required_window(compact_profile(d=1, radius=0.5), box)
    assert np.max(np.abs(win)) <= box.k + 1


def test_long_range_window_grows_with_tolerance():
    box = BoxSpec(d=1, k=2, m=2)
    loose = required_window(long_range_profile(d=1, nu=2.5), box, tol=1e-4)
    tight = required_window(long_range_profile(d=1, nu=2.5), box, tol=1e-8)
    assert len(tight) > len(loose)


def test_sample_field_requires_coverage():
    box = BoxSpec(d=1, k=3, m=2)
    prof = compact_profile(d=1)
    omega = sample_realization(DisorderSpec(), lattice_cube(1, 1), seed=0, index=0)
    with pytest.raises(CoverageError):
        sample_coefficient_field(PeriodicBackground.identity(1, 2), prof, omega, box)


def _no_lookup(self, sites):
    raise AssertionError("values_at called for a realization on the required window")


@pytest.mark.parametrize("prof,tol", [(compact_profile(d=2, radius=0.7), 1e-10),
                                      (long_range_profile(d=2, nu=3.5), 1e-4)],
                         ids=["compact", "long_range"])
def test_field_on_its_own_window_skips_the_lookup(monkeypatch, prof, tol):
    # the sampler draws each realization on its own window and builds the
    # field from the drawn values: the same matrix as the lookup path
    bg = PeriodicBackground.two_phase(m=2, low=1.0, high=3.0, d=2)
    box = BoxSpec(d=2, k=2, m=2)
    omega = sample_realization(DisorderSpec(), required_window(prof, box, tol), seed=8, index=1)
    want = assemble_operator(sample_coefficient_field(bg, prof, omega, box, tol)).matrix
    sampler = operator_sampler(bg, prof, DisorderSpec(), box, seed=8, tol=tol)
    with monkeypatch.context() as patch:
        patch.setattr(Realization, "values_at", _no_lookup)
        got = sampler(1).matrix
    assert np.array_equal(got.toarray(), want.toarray())


def test_ids_drivers_never_look_up_sites(monkeypatch, tmp_path):
    monkeypatch.setattr(Realization, "values_at", _no_lookup)
    # the window is packed once per ensemble, not once per realization
    packed = []
    encode = disorder_mod.encode_sites

    def counted(sites):
        packed.append(len(sites))
        return encode(sites)

    monkeypatch.setattr(disorder_mod, "encode_sites", counted)
    prof = long_range_profile(d=1, nu=2.5)
    curve = empirical_ids(PeriodicBackground.identity(1, 2), prof, DisorderSpec(),
                          BoxSpec(d=1, k=2, m=2), 2, [1.0, 4.0], seed=1)
    assert np.all(curve.values > 0)
    assert len(packed) == 1
    doc = {"kind": "ids", "geometry": {"d": 1, "k": 2, "m": 2, "bc": "dirichlet"},
           "profile": {"kind": "long_range", "nu": 2.5},
           "disorder": {"law": "uniform01"},
           "energies": {"min": 0.5, "max": 10.0, "count": 4},
           "ensemble": {"n_realizations": 2, "seed": 3}}
    assert run(parse_config(doc), out_dir=str(tmp_path / "ids")).exit_code == 0
    assert len(packed) == 2


def test_field_on_a_permuted_window_looks_sites_up(monkeypatch):
    bg = PeriodicBackground.identity(2, 2)
    prof = compact_profile(d=2, radius=0.7)
    box = BoxSpec(d=2, k=2, m=2)
    sites = required_window(prof, box)
    omega = sample_realization(DisorderSpec(), sites, seed=8, index=1)
    perm = np.random.default_rng(0).permutation(len(sites))
    shuffled = sample_realization(DisorderSpec(), sites[perm], seed=8, index=1)
    calls = []
    lookup = Realization.values_at

    def counted(self, query):
        calls.append(len(query))
        return lookup(self, query)

    monkeypatch.setattr(Realization, "values_at", counted)
    fld = sample_coefficient_field(bg, prof, shuffled, box)
    assert calls == [len(sites)]
    assert np.array_equal(fld.cells, sample_coefficient_field(bg, prof, omega, box).cells)
    # a window of the same length that does not cover the box still fails
    shifted = sample_realization(DisorderSpec(), sites + 1, seed=8, index=1)
    with pytest.raises(CoverageError):
        sample_coefficient_field(bg, prof, shifted, box)


def test_zero_couplings_reduce_to_background():
    box = BoxSpec(d=1, k=2, m=2)
    bg = PeriodicBackground.two_phase(m=2, low=1.0, high=3.0)
    prof = compact_profile(d=1)
    omega = sample_realization(DisorderSpec(law="bernoulli", p=1.0, a=0.0),
                               required_window(prof, box), seed=0, index=0)
    fld = sample_coefficient_field(bg, prof, omega, box)
    ref = background_field(bg, box)
    assert np.max(np.abs(fld.cells - ref.cells)) == 0.0


def test_two_phase_tiling_repeats_unit_cell():
    bg = PeriodicBackground.two_phase(m=2, low=1.0, high=5.0)
    box = BoxSpec(d=1, k=1, m=2)
    tiles = bg.tile(box)[:, 0, 0]
    assert np.array_equal(tiles, np.array([1.0, 5.0] * 3))


def test_periodized_field_wraps_pattern():
    bg = PeriodicBackground.identity(1, 2)
    prof = compact_profile(d=1)
    pattern = sample_realization(DisorderSpec(), lattice_cube(1, 1), seed=4, index=0)
    fld = _periodized_plan(bg, prof, 1)(pattern.values)
    m = assemble_operator(fld).matrix
    assert abs((m - m.conj().T).toarray()).max() < 1e-12


def direct_sum_cells(background, profile, sites, couplings, box, tol):
    """The field summed over every (site, cell-centre) pair: the reference.

    Sites whose whole contribution stays below tol are dropped, as the
    package's truncation prescribes.
    """
    axis = -box.side / 2.0 + (np.arange(box.cells_per_axis) + 0.5) * box.h
    centers = np.stack([g.ravel() for g in np.meshgrid(*[axis] * box.d, indexing="ij")], axis=1)
    dist = np.maximum(np.max(np.abs(sites), axis=1) - box.side / 2.0, 0.0)
    keep = couplings * np.array([float(profile.norm_bound(r)) for r in dist]) > tol
    disp = centers[None, :, :] - sites[keep][:, None, :].astype(float)
    env = profile.envelope(disp.reshape(-1, box.d)).reshape(int(keep.sum()), -1)
    return background.tile(box) + (couplings[keep] @ env)[:, None, None] * profile.template


FIELD_CASES = [
    (1, compact_profile(d=1, radius=0.8), 1e-10),
    (1, short_range_profile(d=1, nu=3.5), 1e-5),
    (1, long_range_profile(d=1, nu=2.5), 1e-6),
    (2, compact_profile(d=2, radius=0.5, amplitude=2.0), 1e-10),
    (2, short_range_profile(d=2, nu=4.5), 1e-4),
    (2, long_range_profile(d=2, nu=3.5), 1e-4),
    (3, compact_profile(d=3, radius=1.2), 1e-10),
    (3, short_range_profile(d=3, nu=5.5), 1e-2),
    (3, long_range_profile(d=3, nu=4.5), 1e-2),
]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("d,prof,tol", FIELD_CASES,
                         ids=[f"d{d}-{p.kind}" for d, p, _ in FIELD_CASES])
def test_field_matches_direct_sum(d, prof, tol, m):
    bg = PeriodicBackground.two_phase(m=m, low=1.0, high=3.0, d=d)
    k = 2 if d < 3 else 1
    box = BoxSpec(d=d, k=k, m=m)
    sites = required_window(prof, box, tol)
    omega = sample_realization(DisorderSpec(), sites, seed=17, index=d)
    capped = dataclasses.replace(omega, values=np.minimum(omega.values, 0.4))
    pattern = sample_realization(DisorderSpec(), lattice_cube(d, k), seed=5, index=m)
    periodic = BoxSpec(d=d, k=k, m=m, bc="quasiperiodic")
    periodic_sites = required_window(prof, periodic, tol)
    pairs = [
        (sample_coefficient_field(bg, prof, omega, box, tol),
         direct_sum_cells(bg, prof, sites, omega.values_at(sites), box, tol)),
        (sample_coefficient_field(bg, prof, capped, box, tol),
         direct_sum_cells(bg, prof, sites, capped.values_at(sites), box, tol)),
        (_periodized_plan(bg, prof, k, tol)(pattern.values),
         direct_sum_cells(bg, prof, periodic_sites,
                          pattern.values_at((periodic_sites + k) % (2 * k + 1) - k), periodic, tol)),
    ]
    for fld, want in pairs:
        scale = np.max(np.abs(want - bg.tile(fld.box)))
        assert scale > 0.0
        assert np.max(np.abs(fld.cells - want)) <= 1e-12 * scale


def displacement_field(background, profile, sites, couplings, box, tol):
    """The field as first assembled, the bitwise reference for the plan: an (n, d)
    displacement cube per sub-lattice and a bincount mirror of the couplings."""
    d, m, k = box.d, box.m, box.k
    reach = np.max(np.abs(sites), axis=1, initial=0)
    weights = np.where(couplings * profile.norm_bound(reach - box.side / 2.0) > tol, couplings, 0.0)
    R = int(np.max(reach, initial=0))
    shape = (2 * R + 1,) * d
    flat = np.ravel_multi_index(tuple((R - sites).T), shape)
    grid = np.bincount(flat, weights, minlength=math.prod(shape)).reshape(shape)
    disp = lattice_cube(d, k + R).astype(float)
    scalar = np.empty((m,) * d + (box.side,) * d)
    for r in np.ndindex(*(m,) * d):
        kernel = profile.envelope(disp + ((np.array(r) + 0.5) / m - 0.5))
        scalar[r] = lattice_correlate(kernel.reshape((2 * (k + R) + 1,) * d), grid)
    scalar = scalar.transpose([a + s for a in range(d) for s in (d, 0)]).reshape(-1)
    return background.tile(box) + scalar[:, None, None] * profile.template[None, :, :]


PLAN_PROFILES = {"compact": lambda d: compact_profile(d=d, radius=0.7),
                 "short_range": lambda d: short_range_profile(d=d, nu=d + 2.5),
                 "long_range": lambda d: long_range_profile(d=d, nu=d + 1.0)}


def _plan_case(kind, d, m):
    bg = PeriodicBackground.two_phase(m=m, low=1.0, high=3.0, d=d)
    return bg, PLAN_PROFILES[kind](d), (1e-2 if d == 3 else 1e-5), (1 if d == 3 else 2)


@given(st.sampled_from(sorted(PLAN_PROFILES)), st.integers(1, 3), st.sampled_from([2, 3]),
       st.sampled_from(["dirichlet", "periodic"]), st.integers(0, 2**32), st.integers(0, 9))
@settings(max_examples=30, deadline=None)
def test_operator_sampler_is_bitwise_the_lookup_path(kind, d, m, bc, seed, index):
    bg, prof, tol, k = _plan_case(kind, d, m)
    box = BoxSpec(d=d, k=k, m=m, bc=bc)
    sites = required_window(prof, box, tol)
    omega = sample_realization(DisorderSpec(), sites[::-1], seed, index)  # looked up, not in order
    lookup = sample_coefficient_field(bg, prof, omega, box, tol)
    assert np.array_equal(lookup.cells,
                          displacement_field(bg, prof, sites, omega.values_at(sites), box, tol))
    got = operator_sampler(bg, prof, DisorderSpec(), box, seed, tol)(index).matrix
    want = assemble_operator(lookup).matrix
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


@given(st.sampled_from(sorted(PLAN_PROFILES)), st.integers(1, 3), st.sampled_from([2, 3]),
       st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_periodized_plan_is_bitwise_the_wrapped_lookup(kind, d, m, seed):
    bg, prof, tol, k = _plan_case(kind, d, m)
    pattern = sample_realization(DisorderSpec(), lattice_cube(d, k), seed, 0)
    periodic = BoxSpec(d=d, k=k, m=m, bc="quasiperiodic")
    sites = required_window(prof, periodic, tol)
    wrapped = pattern.values_at((sites + k) % (2 * k + 1) - k)
    want = displacement_field(bg, prof, sites, wrapped, periodic, tol)
    assert np.array_equal(_periodized_plan(bg, prof, k, tol)(pattern.values).cells, want)


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_lattice_correlate_matches_loop(d, big_extra, small_side, seed):
    rng = np.random.default_rng(seed)
    small = rng.standard_normal((small_side + 1,) * d)
    big = rng.standard_normal((small_side + 1 + big_extra,) * d)
    want = np.zeros((big_extra + 1,) * d)
    for x in np.ndindex(*want.shape):
        for j in np.ndindex(*small.shape):
            want[x] += big[tuple(a + b for a, b in zip(x, j))] * small[j]
    assert np.allclose(lattice_correlate(big, small), want, rtol=1e-13, atol=1e-13)


def test_lattice_correlate_refuses_a_short_big_operand():
    # in 1-d, np.correlate would swap the operands instead
    with pytest.raises(ValueError):
        lattice_correlate(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        lattice_correlate(np.ones((3, 5)), np.ones((4, 4)))


def test_lattice_correlate_1d_matches_loop_at_the_tail_size():
    # the d=1 Anderson potential of the tail workload: k=128, nu=4, radius 405
    rng = np.random.default_rng(5)
    big, small = rng.uniform(size=1067), (1.0 + np.abs(np.arange(-405, 406))) ** -4.0
    want = [math.fsum(big[x + j] * small[j] for j in range(small.size)) for x in range(257)]
    assert np.allclose(lattice_correlate(big, small), want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", sorted(PLAN_PROFILES))
def test_field_plan_kernels_are_the_envelope_at_each_offset(kind, d, m):
    # a kernel flipped from its mirror sub-lattice must still be bitwise the envelope;
    # for m = 5 and 6 some offsets o_{m-1-a} are not exactly -o_a
    bg, prof, tol, k = _plan_case(kind, d, m)
    plan = _FieldPlan(bg, prof, BoxSpec(d=d, k=k, m=m), tol)
    disp = lattice_cube(d, k + plan.R).astype(float)
    for r, kernel in zip(np.ndindex(*(m,) * d), plan.kernels):
        want = prof.envelope(disp + ((np.array(r) + 0.5) / m - 0.5)).reshape(kernel.shape)
        assert kernel.flags.c_contiguous and np.array_equal(kernel, want)


def test_field_plan_rejects_a_nan_coupling():
    # the site-level truncation (coupling * bound > tol) would give NaN weight 0
    bg, prof, tol, k = _plan_case("long_range", 1, 2)
    box = BoxSpec(d=1, k=k, m=2)
    plan = _FieldPlan(bg, prof, box, tol)
    couplings = np.full(2 * plan.R + 1, 0.5)
    plan.field(couplings)
    couplings[plan.R] = np.nan
    with pytest.raises(ValidationError):
        plan.field(couplings)


# -- structural invariants (property-based) ------------------------------------------


@st.composite
def random_fields(draw):
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(0, 2 if d == 2 else 4))
    box = BoxSpec(d=d, k=k, m=2)
    prof = compact_profile(d=d, amplitude=draw(st.floats(0.1, 3.0)))
    seed = draw(st.integers(0, 2**16))
    omega = sample_realization(DisorderSpec(), required_window(prof, box), seed, 0)
    bg = PeriodicBackground.identity(d, 2)
    return sample_coefficient_field(bg, prof, omega, box)


@given(random_fields())
@settings(max_examples=25, deadline=None)
def test_assembled_operator_symmetric_psd(field):
    A = assemble_operator(field).matrix.toarray()
    assert np.max(np.abs(A - A.T)) < 1e-12
    assert scipy.linalg.eigvalsh(A)[0] > -1e-9


def check_ellipticity(field):
    """(min, max) eigenvalue over the cell matrices, which must be symmetric."""
    cells = field.cells
    assert np.max(np.abs(cells - np.transpose(cells, (0, 2, 1)))) <= 1e-12
    eigs = np.linalg.eigvalsh(cells)
    return float(eigs.min()), float(eigs.max())


@given(random_fields())
@settings(max_examples=25, deadline=None)
def test_coefficient_cells_stay_elliptic(field):
    lo, hi = check_ellipticity(field)
    assert lo > 0.0
    assert hi < np.inf
