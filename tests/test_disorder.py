import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitz_lab.disorder import (CoverageError, DisorderSpec, Realization,
                                   ValidationError, encode_sites, lattice_cube, law_cdf,
                                   law_quantile, sample_realization,
                                   site_uniforms)


def cube(d, r):
    return lattice_cube(d, r)


# -- counter RNG -------------------------------------------------------------


def test_site_uniforms_deterministic():
    sites = cube(2, 3)
    a = site_uniforms(12345, 7, sites)
    b = site_uniforms(12345, 7, sites)
    assert np.array_equal(a, b)


def test_site_uniforms_vary_with_seed_and_index():
    sites = cube(1, 50)
    base = site_uniforms(1, 0, sites)
    assert not np.array_equal(base, site_uniforms(2, 0, sites))
    assert not np.array_equal(base, site_uniforms(1, 1, sites))


def test_site_uniforms_open_interval():
    u = site_uniforms(9, 0, cube(2, 20))
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_site_uniforms_independent_of_site_ordering():
    # value attaches to the site, not to its position in the query array
    sites = cube(2, 4)
    perm = np.random.default_rng(0).permutation(len(sites))
    direct = site_uniforms(3, 5, sites)
    shuffled = site_uniforms(3, 5, sites[perm])
    assert np.array_equal(direct[perm], shuffled)


def test_site_uniforms_mean_near_half():
    u = site_uniforms(4, 0, cube(2, 40))
    assert abs(u.mean() - 0.5) < 0.01


@given(st.integers(-(2**30) + 1, 2**30 - 1), st.integers(-(2**30) + 1, 2**30 - 1),
       st.integers(-(2**30) + 1, 2**30 - 1), st.integers(-(2**30) + 1, 2**30 - 1))
def test_encode_sites_injective_pairs(x1, y1, x2, y2):
    codes = encode_sites(np.array([[x1, y1], [x2, y2]], dtype=np.int64))
    assert (codes[0] == codes[1]) == ((x1, y1) == (x2, y2))


def bit_loop_codes(sites):
    """Morton codes one bit at a time: the reference for encode_sites."""
    sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
    n, d = sites.shape
    folded = np.where(sites >= 0, 2 * sites, -2 * sites - 1).astype(np.uint64)
    if d == 1:
        return folded[:, 0]
    code = np.zeros(n, dtype=np.uint64)
    for b in range(63 // d):
        for axis in range(d):
            bit = (folded[:, axis] >> np.uint64(b)) & np.uint64(1)
            code |= bit << np.uint64(d * b + axis)
    return code


@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_encode_sites_matches_bit_loop(d, seed):
    # coordinates of every magnitude up to the edges of the packable range
    half = 2 ** (63 // d - 1)
    rng = np.random.default_rng(seed)
    sites = rng.integers(-half, half, size=(64, d)) >> rng.integers(0, 63 // d, size=(64, d))
    sites[:2] = [[-half] * d, [half - 1] * d]
    assert np.array_equal(encode_sites(sites), bit_loop_codes(sites))


def test_encode_sites_rejects_unpackable_coordinates():
    with pytest.raises(ValidationError):
        encode_sites(np.array([[2**30, 0]]))
    assert encode_sites(np.array([[-(2**30), 0]]))[0] == bit_loop_codes([[-(2**30), 0]])[0]


# -- laws ---------------------------------------------------------------------


def test_uniform_cdf_identity():
    spec = DisorderSpec()
    assert law_cdf(spec, 0.37) == 0.37
    assert spec.tail_index == 0.0


@pytest.mark.parametrize("kappa,eps", [(1.0, 0.5), (0.5, 0.1), (2.0, 0.9)])
def test_kappa_tail_cdf_formula(kappa, eps):
    spec = DisorderSpec(law="kappa_tail", kappa=kappa)
    assert law_cdf(spec, eps) == pytest.approx(math.exp(1.0 - eps**-kappa), rel=1e-14)
    assert law_cdf(spec, 1.0) == pytest.approx(1.0)
    assert law_cdf(spec, 0.0) == 0.0


def test_bernoulli_cdf_steps():
    spec = DisorderSpec(law="bernoulli", p=0.3, a=0.6)
    assert law_cdf(spec, 0.0) == pytest.approx(0.7)
    assert law_cdf(spec, 0.59) == pytest.approx(0.7)
    assert law_cdf(spec, 0.6) == pytest.approx(1.0)


@given(st.sampled_from(["uniform01", "kappa_tail"]),
       st.floats(0.25, 3.0), st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=60)
def test_quantile_inverts_cdf(law, kappa, u):
    spec = DisorderSpec(law=law, kappa=kappa)
    x = law_quantile(spec, u)
    assert 0.0 <= x <= 1.0
    assert law_cdf(spec, x) == pytest.approx(u, abs=1e-9)


def test_bernoulli_quantile_mass():
    spec = DisorderSpec(law="bernoulli", p=0.25, a=0.8)
    assert law_quantile(spec, 0.7) == 0.0
    assert law_quantile(spec, 0.8) == 0.8


def test_law_validation():
    with pytest.raises(ValidationError):
        DisorderSpec(law="gaussian")
    with pytest.raises(ValidationError):
        DisorderSpec(law="kappa_tail", kappa=0.0)
    with pytest.raises(ValidationError):
        DisorderSpec(law="bernoulli", a=1.5)
    with pytest.raises(ValidationError):
        law_cdf(DisorderSpec(), 1.2)


def test_degenerate_bernoulli_is_allowed_with_diagnostic():
    # omega == 0 identically: legal (reference-medium control), but flagged
    spec = DisorderSpec(law="bernoulli", p=1.0, a=0.0)
    notes = spec.diagnostics()
    assert len(notes) == 1
    assert "degenerate" in notes[0]
    assert DisorderSpec(law="bernoulli", p=0.3, a=0.6).diagnostics() == []


# -- realizations --------------------------------------------------------------


def test_realization_values_and_coverage():
    spec = DisorderSpec()
    window = cube(2, 3)
    omega = sample_realization(spec, window, seed=5, index=0)
    vals = omega.values_at(window)
    assert vals.shape == (len(window),)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    with pytest.raises(CoverageError):
        omega.values_at(np.array([[4, 0]]))


def test_realization_reproducible_across_windows():
    # same (seed, index, site) gives the same coupling in any window
    spec = DisorderSpec(law="kappa_tail", kappa=0.7)
    small = sample_realization(spec, cube(1, 2), seed=11, index=3)
    large = sample_realization(spec, cube(1, 10), seed=11, index=3)
    sites = cube(1, 2)
    assert np.array_equal(small.values_at(sites), large.values_at(sites))


@st.composite
def window_queries(draw):
    """A shuffled non-cube window and a query mixing covered and missing sites."""
    d = draw(st.integers(1, 3))
    site = st.tuples(*[st.integers(-6, 6)] * d)
    window = draw(st.lists(site, min_size=1, max_size=60, unique=True))
    far = st.tuples(*[st.sampled_from([-(2**40), 7, 2**40])] * d)
    query = draw(st.lists(st.one_of(st.sampled_from(window), site, far), max_size=80))
    return d, window, query


@given(window_queries())
@settings(max_examples=200)
def test_values_at_matches_dict_lookup(case):
    d, window, query = case
    omega = Realization(spec=DisorderSpec(), window=np.array(window, dtype=np.int64),
                        values=np.arange(len(window), dtype=float), seed=0, index=0)
    position = {site: i for i, site in enumerate(window)}
    missing = [site for site in query if site not in position]
    sites = np.array(query, dtype=np.int64).reshape(len(query), d)
    if missing:
        with pytest.raises(CoverageError) as err:
            omega.values_at(sites)
        assert err.value.missing_sites == missing
    else:
        assert np.array_equal(omega.values_at(sites), [position[s] for s in query])


def test_values_at_treats_wrong_dimension_as_missing():
    omega = sample_realization(DisorderSpec(), cube(2, 2), seed=0, index=0)
    with pytest.raises(CoverageError):
        omega.values_at(np.array([[1]]))


@given(st.floats(0.0, 1.0), st.integers(0, 2**32))
@settings(max_examples=40)
def test_truncation_caps_at_delta(delta, seed):
    # a capped realization is the same window with capped values; site
    # lookup, cached on the base before the copy, must still line up
    omega = sample_realization(DisorderSpec(), cube(1, 5), seed=seed, index=0)
    sites = cube(1, 5)[::-1]
    raw = omega.values_at(sites)
    trunc = dataclasses.replace(omega, values=np.minimum(omega.values, delta))
    capped = trunc.values_at(sites)
    assert np.array_equal(capped, np.minimum(raw, delta))
    assert np.all(capped <= raw)


def test_lattice_cube_counts():
    assert len(cube(1, 3)) == 7
    assert len(cube(2, 3)) == 49
    assert len(cube(3, 1)) == 27
    w = cube(2, 2)
    assert np.max(np.abs(w)) == 2
    # symmetric around the origin
    assert sorted(map(tuple, w)) == sorted(map(tuple, -w))
