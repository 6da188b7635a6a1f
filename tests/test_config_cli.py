import argparse
import copy
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifshitz_lab.anderson as anderson_mod
import lifshitz_lab.config as config_mod
import lifshitz_lab.experiments as experiments_mod
import lifshitz_lab.ids as ids_mod
import lifshitz_lab.lattice as lattice_mod
from lifshitz_lab.cli import build_parser, main
from lifshitz_lab.config import (EXPERIMENT_KINDS, MODELS, ExperimentConfig, config_hash, energy_grid,
                                 eps_grid, load_config, parse_config, validate)
from lifshitz_lab.disorder import ValidationError
from lifshitz_lab.experiments import _DRIVERS, run
from lifshitz_lab.lattice import PeriodicBackground
from lifshitz_lab.spectral import BandStructure, floquet_bands
from lifshitz_lab.runner import (THREADS_ENV, TaskFailure, ensemble, frequency,
                                 indexed_map, resolve_threads, trials)

IDS_DOC = {
    "kind": "ids",
    "geometry": {"d": 1, "k": 2, "m": 2, "bc": "dirichlet"},
    "profile": {"kind": "compact", "radius": 0.5, "amplitude": 1.0},
    "disorder": {"law": "uniform01"},
    "energies": {"min": 0.5, "max": 10.0, "count": 4},
    "ensemble": {"n_realizations": 4, "seed": 3},
}

_COMPACT = {"kind": "compact", "radius": 0.5, "amplitude": 1.0}
# one small config per kind that fans realizations or trials out
ENSEMBLE_DOCS = {
    "ids": IDS_DOC,
    "anderson": {"kind": "anderson", "geometry": {"d": 1}, "disorder": {"law": "uniform01"},
                 "energies": {"min": 0.0, "max": 2.0, "count": 5},
                 "ensemble": {"n_realizations": 6, "seed": 5},
                 "params": {"k": 8, "nu": 4.0, "E_plus": 0.1}},
    "lifshitz": {"kind": "lifshitz", "geometry": {"d": 1}, "disorder": {"law": "uniform01"},
                 "ensemble": {"n_realizations": 8, "seed": 6},
                 "params": {"k": 16, "nu": 4.0, "E_plus": 0.0, "n_boot": 50,
                            "eps_min": 0.01, "eps_max": 0.3, "eps_count": 8}},
    "ile": {"kind": "ile", "geometry": {"d": 1, "m": 4},
            "background": {"type": "two_phase", "low": 1.0, "high": 4.0},
            "profile": _COMPACT, "disorder": {"law": "uniform01"}, "ensemble": {"seed": 1},
            "params": {"E_plus": 22.5, "k": 4, "alpha": 1.2, "p": 2.0, "n_trials": 6}},
    "wegner": {"kind": "wegner", "geometry": {"d": 1, "m": 2}, "profile": _COMPACT,
               "disorder": {"law": "uniform01"}, "ensemble": {"seed": 4},
               "params": {"E": 1.0, "ks": [3, 5], "n_trials": 6, "eps_values": [0.3, 0.1]}},
    "sandwich": {"kind": "sandwich", "geometry": {"d": 1, "m": 2}, "profile": _COMPACT,
                 "disorder": {"law": "uniform01"},
                 "ensemble": {"n_realizations": 6, "seed": 31}, "n_theta": 2,
                 "params": {"E": 0.0, "eps": 0.2, "k": 2, "k_big": 4}},
}


DECAY_DOC = {"kind": "decay", "geometry": {"d": 1, "k": 2, "m": 2, "bc": "dirichlet"},
             "profile": _COMPACT, "disorder": {"law": "uniform01"}, "ensemble": {"seed": 2},
             "params": {"n_states": 3}}
# the anderson model reads no profile, and of the geometry only d
DECAY_BARE = {**{k: v for k, v in DECAY_DOC.items() if k != "profile"}, "geometry": {"d": 1}}
SHIPPED_IDS = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "ids_uniform_box.json"
BOUNDS_DOC = {"kind": "bounds", "disorder": {"law": "uniform01"},
              "params": {"nu": 4.0, "evaluations": [
                  {"type": "chernoff", "k": 2, "delta": 0.3},
                  {"type": "product1", "eps": 0.3, "alpha": 0.5, "nu": 2.5},
                  {"type": "product2", "eps": 0.3, "alpha": 0.25, "nu": 2.5, "C": 3.5}]}}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- runner ---------------------------------------------------------------------


def test_indexed_map_preserves_order():
    out = indexed_map(lambda i: i * i, 20, threads=4)
    assert out == [i * i for i in range(20)]


def test_indexed_map_raises_without_collection():
    def flaky(i):
        if i in (2, 3, 5):
            raise RuntimeError(f"boom {i}")
        return i

    for threads in (1, 2):
        with pytest.raises(TaskFailure) as info:
            indexed_map(flaky, 7, threads=threads)
        assert info.value.index == 2
        assert str(info.value.error) == "boom 2"


def test_ensemble_drops_failures_and_keeps_order():
    def flaky(i):
        if i == 1:
            raise RuntimeError("boom")
        return np.array([i, 2.0 * i])

    samples, failures = ensemble(flaky, 4, threads=3)
    assert np.array_equal(samples, [[0, 0], [2, 4], [3, 6]])
    assert [f.index for f in failures] == [1]
    with pytest.raises(TaskFailure):
        trials(flaky, 4, threads=3)
    with pytest.raises(TaskFailure) as info:
        ensemble(lambda i: 1 / 0, 3)
    assert info.value.index == 0
    with pytest.raises(ValidationError):
        ensemble(lambda i: i, 0)


def test_ensemble_blocks_rerun_a_failed_block_one_index_at_a_time():
    # blocks range(0, 3), range(3, 6), range(6, 7); the block holding index 4
    # fails as a whole, and only index 4 is dropped, under its own index
    calls = []

    def block_task(indices):
        calls.append(indices)
        if 4 in indices:
            raise RuntimeError("boom")
        return [np.array([i, 2.0 * i]) for i in indices]

    for threads in (1, 2):
        calls.clear()
        samples, failures = ensemble(block_task, 7, threads=threads, block=3)
        assert np.array_equal(samples, [[i, 2.0 * i] for i in (0, 1, 2, 3, 5, 6)])
        assert [f.index for f in failures] == [4]
        assert sorted(calls, key=lambda r: (r.start, -len(r))) == [
            range(0, 3), range(3, 6), range(3, 4), range(4, 5), range(5, 6), range(6, 7)]
    assert frequency(lambda indices: [i % 2 == 0 for i in indices], 7, block=3)[3] == 4
    with pytest.raises(TaskFailure) as info:
        frequency(block_task, 7, block=3)
    assert info.value.index == 4


def test_frequency_is_thread_independent_and_exact():
    def event(i):
        return (i * 7919) % 5 < 2

    result = frequency(event, 50, threads=1)
    assert frequency(event, 50, threads=4) == result
    assert result[3] == sum(event(i) for i in range(50)) == 20
    assert result[0] == 0.4 and result[1] <= 0.4 <= result[2]


def test_frequency_raises_on_a_failed_trial_and_needs_a_trial():
    def flaky(i):
        if i == 3:
            raise RuntimeError("boom")
        return True

    with pytest.raises(TaskFailure) as info:
        frequency(flaky, 5, threads=2)
    assert info.value.index == 3
    with pytest.raises(ValidationError):
        frequency(lambda i: True, 0)


def test_resolve_threads_env(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(6) == 6
    monkeypatch.setenv(THREADS_ENV, "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2
    # an explicit count is read as config counts are: a float equal to an integer, never a bool
    assert resolve_threads(2.0) == 2 and resolve_threads(np.int64(4)) == 4
    for bad in (1.5, True, False, float("nan"), float("inf"), 0, -2, [2]):
        with pytest.raises(ValueError):
            resolve_threads(bad)
    for bad in ("1.5", "2.0", "true", ""):
        monkeypatch.setenv(THREADS_ENV, bad)
        with pytest.raises(ValueError):
            resolve_threads(None)


@pytest.mark.parametrize("threads", [1.5, True])
def test_run_refuses_a_thread_count_it_would_truncate(tmp_path, threads):
    result = run(parse_config(dict(IDS_DOC)), out_dir=str(tmp_path / "res"), threads=threads)
    assert result.exit_code == 2 and not (tmp_path / "res").exists()
    assert any("threads: thread count must be an integer >= 1" in d.message for d in result.diagnostics)


# -- config parsing -----------------------------------------------------------------


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config({**IDS_DOC, "mystery": 1})


def test_config_hash_stable_and_ignores_out():
    a = parse_config(dict(IDS_DOC))
    b = parse_config({**IDS_DOC, "out": "elsewhere"})
    assert config_hash(a) == config_hash(b)
    a.ensemble = {**a.ensemble, "seed": 4}
    assert config_hash(a) != config_hash(b)


def test_energy_grid_forms():
    cfg = parse_config(dict(IDS_DOC))
    assert np.allclose(energy_grid(cfg), np.linspace(0.5, 10.0, 4))
    cfg2 = parse_config({**IDS_DOC, "energies": {"values": [1.0, 2.0, 5.0]}})
    assert np.array_equal(energy_grid(cfg2), [1.0, 2.0, 5.0])


def test_eps_grid_geometric():
    doc = {**IDS_DOC, "kind": "lifshitz",
           "params": {"nu": 4.0, "k": 4, "eps_min": 0.01, "eps_max": 0.1,
                      "eps_count": 5}}
    grid = eps_grid(parse_config(doc))
    assert len(grid) == 5
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])


def test_validate_flags_incoherent_profile():
    doc = {**IDS_DOC, "profile": {"kind": "long_range", "nu": 9.0}}
    diags = validate(parse_config(doc))
    assert any(d.severity == "error" for d in diags)


def test_validate_rejects_stray_keys_in_nested_blocks():
    # a typo that falls back to a default is worse than an error
    cases = [
        {"background": {"type": "two_phase", "m": 4}},
        {"profile": {"kind": "compact", "radius": 0.5, "amplitdue": 1.0}},
        {"geometry": {"d": 1, "k": 2, "cells": 2}},
        {"ensemble": {"n_realizations": 3, "sede": 7}},
        {"solver": {"method": "dense"}},  # no solver option is read
    ]
    for patch in cases:
        diags = validate(parse_config({**IDS_DOC, **patch}))
        assert any(d.severity == "error" for d in diags), patch
    empty = parse_config({**IDS_DOC, "solver": {}})
    assert validate(empty) == []
    assert config_hash(empty) == config_hash(parse_config(IDS_DOC))


@pytest.mark.parametrize("law", [{"p": 1.0, "a": 0.5}, {"p": 0.5, "a": 0.0}],
                         ids=["p1", "a0"])
def test_degenerate_bernoulli_runs_with_one_warning(tmp_path, law):
    doc = {**IDS_DOC, "disorder": {"law": "bernoulli", **law}}
    diags = validate(parse_config(doc))
    assert [d.severity for d in diags] == ["warning"]
    assert "degenerate" in diags[0].message
    assert run(parse_config(doc), out_dir=str(tmp_path / "out")).exit_code == 0


def test_validate_checks_gap_for_initial_scale_probe():
    base = {
        "kind": "ile",
        "geometry": {"d": 1, "m": 4},
        "background": {"type": "two_phase", "low": 1.0, "high": 4.0},
        "profile": {"kind": "compact", "radius": 0.5, "amplitude": 1.0},
        "disorder": {"law": "bernoulli", "p": 1.0, "a": 0.0},
        "params": {"E_plus": 22.5, "k": 4, "alpha": 1.2, "p": 2.0, "n_trials": 2},
    }
    assert not [d for d in validate(parse_config(base)) if d.severity == "error"]
    in_band = {**base, "params": {**base["params"], "E_plus": 5.0}}
    diags = validate(parse_config(in_band))
    assert any("gap" in d.message for d in diags if d.severity == "error")


# -- experiment runs -------------------------------------------------------------------


def test_run_writes_artifacts_and_manifest(tmp_path):
    cfg = parse_config(dict(IDS_DOC))
    result = run(cfg, out_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == ["ids.csv", "ids.json", "manifest.json"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["seed"] == 3
    assert manifest["failures"] == []
    doc = json.loads((tmp_path / "out" / "ids.json").read_text())
    assert doc["kind"] == "ids"
    assert doc["config"]["ensemble"]["seed"] == 3
    header = (tmp_path / "out" / "ids.csv").read_text().splitlines()[0]
    assert header == "E,N_mean,N_stderr,n_realizations"


def test_run_seed_override_changes_hash_and_data(tmp_path):
    cfg = parse_config(dict(IDS_DOC))
    base = run(cfg, out_dir=str(tmp_path / "a"))
    cfg2 = parse_config(dict(IDS_DOC))
    other = run(cfg2, out_dir=str(tmp_path / "b"), seed=99)
    assert other.manifest.seed == 99
    assert base.manifest.config_hash != other.manifest.config_hash


def test_run_rejects_invalid_config_before_compute(tmp_path):
    docs = {**ENSEMBLE_DOCS, "decay": DECAY_DOC, "decay_bare": DECAY_BARE, "bounds": BOUNDS_DOC}
    for kind, doc in docs.items():
        assert validate(parse_config(doc)) == [], kind
    unsorted = {"energies": {"values": [0.5, 0.1]}}
    cases = [
        {**IDS_DOC, "profile": {"kind": "long_range", "nu": 9.0}},
        {**IDS_DOC, **unsorted},
        {**ENSEMBLE_DOCS["anderson"], **unsorted},
        {**ENSEMBLE_DOCS["wegner"], "profile": {"kind": "short_range", "nu": 3.5}},
        # a key nothing reads, and a value given two ways
        {**IDS_DOC, "disorder": {"law": "uniform01", "kappa": 2.0}},
        {**IDS_DOC, "disorder": {"law": "bernoulli", "kappa": 3.0}},
        {**IDS_DOC, "energies": {**IDS_DOC["energies"], "step": 0.5}},
        {**IDS_DOC, "energies": {"values": [0.0, 1.0], "count": 7}},
        {**IDS_DOC, "profile": {"kind": "long_range", "nu": 1.5, "g_minus": 0.1}},
    ]
    for kind, patch in [("ile", {"n_trials": 0}), ("wegner", {"n_trials": 0}),
                        ("wegner", {"eps_values": [0.1, 0.0]}),
                        ("lifshitz", {"eps_values": [-0.1, 0.1, 0.2]}),
                        ("lifshitz", {"eps_values": [0.1, 0.3, 0.2]}),
                        ("ile", {"theta": [7.0]}), ("wegner", {"theta": [0.5, 0.5]}),
                        ("ile", {"theta": 0.5}),
                        ("decay_bare", {"model": "anderson", "nu": 4.0}),
                        ("decay", {"model": "nonsense"}),
                        ("decay", {"window": [1.0, 0.5]}), ("decay", {"n_states": 0}),
                        ("decay", {"n_states": 50}),
                        ("decay_bare", {"model": "anderson", "k": 2, "nu": 4.0, "n_states": 6}),
                        ("bounds", {"evaluations": [{"type": "chernof", "k": 2, "delta": 0.3}]}),
                        ("bounds", {"evaluations": [{"type": "product1", "eps": 0.3, "nu": 2.5}]}),
                        ("bounds", {"evaluations": ["chernoff"]}),
                        ("bounds", {"evaluations": [{"type": "chernoff", "k": 2, "delta": 2.0}]}),
                        ("bounds", {"evaluations": [{"type": "product1", "eps": 0.3,
                                                     "alpha": 1.5, "nu": 2.5}]}),
                        ("anderson", {"k": -3}), ("anderson", {"k": "x"}), ("anderson", {"k": 2.5}),
                        ("lifshitz", {"k": -3}), ("lifshitz", {"k": "x"}),
                        ("decay_bare", {"model": "anderson", "k": -3, "nu": 4.0, "window": [0.0, 1.0]}),
                        ("ile", {"n_trials": "x"}), ("wegner", {"n_trials": 2.5}),
                        ("lifshitz", {"n_boot": "x"}), ("lifshitz", {"fit_seed": "x"}),
                        ("lifshitz", {"E_plus": "x"}), ("lifshitz", {"E_plus": float("nan")}),
                        ("anderson", {"E_plus": float("inf")}),
                        ("wegner", {"ks": ["x"]}), ("wegner", {"ks": [-2]}), ("wegner", {"ks": []}),
                        ("wegner", {"E": "x"}), ("wegner", {"min_exponent": "x"}),
                        ("sandwich", {"k": -1}), ("sandwich", {"k_big": "x"}), ("sandwich", {"eps": "x"}),
                        ("sandwich", {"eta0": "x"}), ("sandwich", {"eps": 0.0}), ("sandwich", {"eta0": 1.0}),
                        ("ile", {"alpha": "x"}), ("ile", {"p": "x"}), ("ile", {"E_plus": "x"}),
                        ("ile", {"alpha": 1.0}), ("ile", {"p": 0.0}), ("ile", {"k": 1}),
                        ("ile", {"gap_scan_n_theta": "x"}), ("decay", {"index": "x"}),
                        ("decay", {"index": -1}),
                        ("lifshitz", {"eps_values": [0.1, 0.2], "eps_min": 0.01}),
                        ("decay", {"window": [0.0, 2.0], "n_states": 3}), ("wegner", {"ks": 8})]:
        doc = docs[kind]
        cases.append({**doc, "params": {**doc["params"], **patch}})
    # malformed scalars outside params
    cases.append({**ENSEMBLE_DOCS["anderson"], "ensemble": {"n_realizations": "x", "seed": 5}})
    for seed in ("x", -1, 2**64, 2.5):
        cases.append({**ENSEMBLE_DOCS["lifshitz"], "ensemble": {"n_realizations": 8, "seed": seed}})
    cases.append({**ENSEMBLE_DOCS["sandwich"], "n_theta": "4"})
    # decay operators above ids.DECAY_DENSE_LIMIT: 81^2 = 6,561 nodes, and (2k+1)^d sites
    cases.append({**DECAY_DOC, "geometry": {"d": 2, "k": 20, "m": 2, "bc": "dirichlet"},
                  "params": {"window": [0.0, 1.0]}})
    cases.append({**DECAY_BARE, "geometry": {"d": 2},
                  "params": {"model": "anderson", "k": 40, "nu": 4.0, "window": [0.0, 1.0]}})
    # Anderson potentials whose truncation cube truncation_radius_for refuses
    # (d=2, nu=4.5: radius 2,968 at the default potential_tol)
    too_wide = {"k": 3, "nu": 4.5}
    wide = [{**ENSEMBLE_DOCS[kind], "geometry": {"d": 2},
             "params": {**ENSEMBLE_DOCS[kind]["params"], **too_wide}} for kind in ("anderson", "lifshitz")]
    wide.append({**DECAY_BARE, "geometry": {"d": 2},
                 "params": {"model": "anderson", **too_wide, "window": [0.0, 1.0]}})
    for doc in wide:
        assert any("truncation cube" in str(diag) for diag in validate(parse_config(doc))), doc
    cases.extend(wide)
    for kind, key in [("anderson", "nu"), ("lifshitz", "k"), ("wegner", "E"),
                      ("sandwich", "eps"), ("ile", "k"), ("ile", "E_plus")]:
        doc = docs[kind]
        cases.append({**doc, "params": {p: v for p, v in doc["params"].items() if p != key}})
    # each reader refuses what its cast would change, and a value the library would refuse
    chernoff, product1 = {"type": "chernoff", "k": 2, "delta": 0.3}, {"type": "product1", "eps": 0.3, "alpha": 0.5}
    for evaluation in [{**chernoff, "k": -1}, {**chernoff, "k": "x"}, {**chernoff, "truncation": "x"},
                       {**chernoff, "truncation": -1}, {**chernoff, "k": 2.5}, {**chernoff, "d": 0},
                       {**product1, "nu": 3.5, "d": 2.5}, {**product1, "eps": 0.01, "nu": 2.05, "d": 2}]:
        cases.append({**BOUNDS_DOC, "params": {"evaluations": [evaluation]}})
    cases.append({**BOUNDS_DOC, "params": {"evaluations": 3}})
    cases.append({**DECAY_BARE, "params": {"model": "anderson", "k": 2, "nu": 4.0, "E_plus": "x",
                                          "window": [0.0, 1.0]}})
    cases.append({**DECAY_DOC, "params": {"n_states": 2.5}})
    bands = {"kind": "bands", "geometry": {"d": 1, "m": 4}, "n_theta": 3}
    cases.append({**bands, "background": {"type": "two_phase", "axis": 3}})
    # a block the kind does not read
    cases.append({**bands, "energies": {"junk": 1, "values": "x"}})
    cases.append({**ENSEMBLE_DOCS["lifshitz"], "profile": {"kind": "long_range", "nu": 1.5},
                  "energies": {"count": 3}})
    cases.append({**bands, "geometry": {"d": 1, "m": 2.5}})
    cases.append({**IDS_DOC, "geometry": {**IDS_DOC["geometry"], "k": 2.5}})
    cases.append({**IDS_DOC, "energies": {"min": 0.5, "max": 10.0, "count": 2.5}})
    for kind, patch in [("lifshitz", {"nondegenerate": "x"}), ("anderson", {"k": True}),
                        ("anderson", {"E_plus": True}), ("wegner", {"ks": True})]:
        cases.append({**docs[kind], "params": {**docs[kind]["params"], **patch}})
    cases.append({**ENSEMBLE_DOCS["anderson"], "ensemble": {"n_realizations": True, "seed": 5}})
    for i, doc in enumerate(cases):
        result = run(parse_config(doc), out_dir=str(tmp_path / f"never{i}"))
        assert result.exit_code == 2, doc
        assert not (tmp_path / f"never{i}").exists()


def test_an_anderson_decay_operator_above_the_dense_limit_is_refused(tmp_path):
    # nu = 12 truncates the potential at radius 6, so the 81^2-site box reaches the
    # dense limit check (at nu = 4 the truncation cube is refused first)
    doc = {**DECAY_BARE, "geometry": {"d": 2},
           "params": {"model": "anderson", "k": 40, "nu": 12.0, "window": [0.0, 1.0]}}
    assert anderson_mod.truncation_radius_for(2, 12.0, anderson_mod.POTENTIAL_TOL) == 6
    assert [str(d) for d in validate(parse_config(doc))] == [
        "error: params: the operator's dimension 6561 exceeds the dense limit 6000"]
    out = tmp_path / "never"
    assert run(parse_config(doc), out_dir=str(out)).exit_code == 2 and not out.exists()


def test_validate_refuses_each_block_the_kind_does_not_read():
    doc = {**ENSEMBLE_DOCS["lifshitz"], "profile": {"kind": "long_range", "nu": 1.5}, "energies": {"count": 3}}
    assert [str(d) for d in validate(parse_config(doc))] == [
        "error: profile: a lifshitz run does not read it; remove it",
        "error: energies: a lifshitz run does not read it; remove it"]
    bands = {"kind": "bands", "geometry": {"d": 1, "m": 4}, "n_theta": 3}
    for name, value in [("profile", _COMPACT), ("disorder", {"law": "bernoulli"}), ("energies", {"count": 3})]:
        assert [str(d) for d in validate(parse_config({**bands, name: value}))] == [
            f"error: {name}: a bands run does not read it; remove it"]
    assert [str(d) for d in validate(parse_config({**BOUNDS_DOC, "geometry": {"d": 2}, "n_theta": 2}))] == [
        "error: geometry: a bounds run does not read it; remove it",
        "error: n_theta: a bounds run does not read it; remove it"]
    # decay's anderson model builds no background and no profile
    anderson = {**DECAY_BARE, "params": {"model": "anderson", "k": 2, "nu": 4.0, "window": [0.0, 2.0]}}
    assert validate(parse_config(anderson)) == []
    assert [str(d) for d in validate(parse_config({**anderson, "profile": _COMPACT,
                                                   "background": {"type": "two_phase"}}))] == [
        "error: background: a decay run of the anderson model does not read it; remove it",
        "error: profile: a decay run of the anderson model does not read it; remove it"]
    # a field given at its default value is indistinguishable from one left out
    assert validate(parse_config({**bands, "disorder": {"law": "uniform01"}})) == []


# a valid doc of each row of MODELS, and the optional fields its driver does not read
_ROW_DOCS = {
    ("bands", None): ({"kind": "bands", "geometry": {"d": 1, "m": 4}, "n_theta": 3},
                      ("profile", "disorder", "energies")),
    ("ids", None): (IDS_DOC, ("n_theta",)),
    ("lifshitz", None): (ENSEMBLE_DOCS["lifshitz"], ("background", "profile", "energies", "n_theta")),
    ("anderson", None): (ENSEMBLE_DOCS["anderson"], ("background", "profile", "n_theta")),
    ("bounds", None): (BOUNDS_DOC, ("geometry", "background", "profile", "energies", "n_theta")),
    ("wegner", None): (ENSEMBLE_DOCS["wegner"], ("energies", "n_theta")),
    ("ile", None): (ENSEMBLE_DOCS["ile"], ("energies", "n_theta")),
    ("decay", None): (DECAY_DOC, ("energies", "n_theta")),
    ("decay", "anderson"): ({**DECAY_BARE, "params": {"model": "anderson", "k": 2, "nu": 4.0,
                                                      "window": [0.0, 2.0]}},
                            ("background", "profile", "energies", "n_theta")),
    ("sandwich", None): (ENSEMBLE_DOCS["sandwich"], ("energies",)),
}
# a value other than its default of each optional field
_OTHER_VALUES = {"geometry": {"d": 2}, "background": {"type": "two_phase"},
                 "profile": {"kind": "long_range", "nu": 1.5}, "disorder": {"law": "bernoulli"},
                 "energies": {"count": 3}, "n_theta": 2}


def test_every_model_refuses_each_block_it_does_not_read():
    assert set(_ROW_DOCS) == set(MODELS)
    for (kind, model), row in MODELS.items():
        doc, unread = _ROW_DOCS[kind, model]
        assert unread == tuple(block for block in _OTHER_VALUES if block not in row.blocks), (kind, model)
        assert validate(parse_config(doc)) == [], (kind, model)
        run_label = f"a{'n' * (kind[0] in 'aeiou')} {kind} run" + (f" of the {model} model" if model else "")
        for block in unread:
            assert [str(d) for d in validate(parse_config({**doc, block: _OTHER_VALUES[block]}))] == [
                f"error: {block}: {run_label} does not read it; remove it"], (kind, model, block)
        both = {**doc, **{block: _OTHER_VALUES[block] for block in unread}}
        assert [str(d) for d in validate(parse_config(both))] == [
            f"error: {block}: {run_label} does not read it; remove it" for block in unread], (kind, model)


# the geometry and ensemble keys each row of MODELS reads (bounds reads no geometry block)
_ROW_KEYS = {
    ("bands", None): ("d", "m", "seed"), ("ids", None): ("d", "k", "m", "bc", "theta", "n_realizations", "seed"),
    ("lifshitz", None): ("d", "n_realizations", "seed"), ("anderson", None): ("d", "n_realizations", "seed"),
    ("bounds", None): ("seed",), ("wegner", None): ("d", "m", "seed"), ("ile", None): ("d", "m", "seed"),
    ("decay", None): ("d", "k", "m", "bc", "theta", "seed"), ("decay", "anderson"): ("d", "seed"),
    ("sandwich", None): ("d", "m", "n_realizations", "seed"),
}
# a value other than its default, and the default, of each key a run may leave unread
_KEY_VALUES = {("geometry", "k"): (3, 1), ("geometry", "m"): (3, 2), ("geometry", "bc"): ("periodic", "dirichlet"),
               ("geometry", "theta"): ([0.5], None), ("ensemble", "n_realizations"): (5, 1)}


def _with_key(doc, block, key, value):
    return {**doc, block: {**doc.get(block, {}), key: value}}


def test_every_model_refuses_each_geometry_and_ensemble_key_it_does_not_read(tmp_path):
    assert set(_ROW_KEYS) == set(MODELS)
    refused = []
    for (kind, model), keys in _ROW_KEYS.items():
        doc = _ROW_DOCS[kind, model][0]
        run_label = f"a{'n' * (kind[0] in 'aeiou')} {kind} run" + (f" of the {model} model" if model else "")
        for (block, key), (other, default) in _KEY_VALUES.items():
            if block == "geometry" and block not in MODELS[kind, model].blocks:
                continue  # the whole block is refused (test_every_model_refuses_each_block_it_does_not_read)
            if key in keys:  # read: a value other than the default is accepted
                patch = {"bc": "quasiperiodic", "theta": [0.5]} if key == "theta" else {key: other}
                assert validate(parse_config({**doc, block: {**doc.get(block, {}), **patch}})) == [], (kind, key)
                continue
            bad = _with_key(doc, block, key, other)
            assert [str(d) for d in validate(parse_config(bad))] == [
                f"error: {block}.{key}: {run_label} does not read it; remove it"], (kind, model, key)
            out = tmp_path / f"never{len(refused)}"
            assert run(parse_config(bad), out_dir=str(out)).exit_code == 2 and not out.exists()
            assert validate(parse_config(_with_key(doc, block, key, default))) == [], (kind, model, key)
            refused.append((kind, model, key))
    assert len(refused) == 30
    # true == 1 in Python, yet a bool is not the default 1: an unread key of true is refused
    for (kind, model), block, key in [(("lifshitz", None), "geometry", "k"), (("bands", None), "ensemble",
                                                                            "n_realizations")]:
        bad = _with_key(_ROW_DOCS[kind, model][0], block, key, True)
        assert [str(d) for d in validate(parse_config(bad))] == [
            f"error: {block}.{key}: a {kind} run does not read it; remove it"], (kind, key)
        out = tmp_path / f"never_true_{kind}"
        assert run(parse_config(bad), out_dir=str(out)).exit_code == 2 and not out.exists()
    ile = _with_key(ENSEMBLE_DOCS["ile"], "ensemble", "n_realizations", 5)
    assert [str(d) for d in validate(parse_config({**ile, "energies": {"count": 3}}))] == [
        "error: energies: an ile run does not read it; remove it",
        "error: ensemble.n_realizations: an ile run does not read it; remove it"]


@pytest.mark.parametrize("model", [[], {}, [1]], ids=["list", "dict", "one"])
def test_an_unhashable_decay_model_is_refused(model):
    for doc in (DECAY_DOC, DECAY_BARE):
        assert [str(d) for d in validate(parse_config({**doc, "params": {**doc["params"], "model": model}}))] == [
            f"error: params.model must be one of ['anderson', 'lattice'], got {model!r}"]


# media whose unit cell (m**d * d**2 values) a build would not survive: validate
# refuses each before forming any power of d or m
_HUGE_GEOMETRIES = [
    {"kind": "bands", "geometry": {"d": 40, "m": 2}, "n_theta": 1},
    {"kind": "bands", "geometry": {"d": 1, "m": 10**10}, "n_theta": 1},
    {"kind": "bands", "geometry": {"d": 40, "m": 2}, "background": {"type": "two_phase"}, "n_theta": 1},
    {**ENSEMBLE_DOCS["ile"], "geometry": {"d": 40, "m": 4}},
    *({**doc, "geometry": {**doc["geometry"], "d": d}} for doc in (IDS_DOC, ENSEMBLE_DOCS["wegner"],
      ENSEMBLE_DOCS["sandwich"], DECAY_DOC) for d in (10**30, 1e308)),
    {**ENSEMBLE_DOCS["anderson"], "geometry": {"d": 10**30},
     "params": {**ENSEMBLE_DOCS["anderson"]["params"], "nu": 1e308}},
]
_DRY_RUNS = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))
from lifshitz_lab.cli import main
start, out = time.perf_counter(), []
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out.append([main([json.load(open(path))["kind"], "--config", path, "--dry-run"]), err.getvalue()])
print(json.dumps({"seconds": time.perf_counter() - start, "runs": out}))
"""


def test_a_unit_cell_too_large_to_build_is_refused(tmp_path):
    # in a child process capped at 2 GB of address space and stopped after 60 s,
    # so that a build that does start fails this test without taking the runner down
    paths = [write_config(tmp_path, doc, f"cfg{i}.json") for i, doc in enumerate(_HUGE_GEOMETRIES)]
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                                  if p])
    proc = subprocess.run([sys.executable, "-c", _DRY_RUNS, *paths], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["seconds"] < 5
    for doc, (code, err) in zip(_HUGE_GEOMETRIES, report["runs"]):
        assert code == 2 and "error: geometry: a unit cell of m**d * d**2 coefficient values" in err, (doc, err)


_TWO_PHASE = {"type": "two_phase", "low": 1.0, "high": 4.0}
_BIG_CELL_BANDS = {"kind": "bands", "geometry": {"d": 1, "m": 65536}, "background": _TWO_PHASE, "n_theta": 1}
# docs whose largest Floquet block exceeds spectral.DENSE_THRESHOLD (3000 nodes), with the
# diagnostic's label and the block: a d = 1 two-phase cell repeats only with itself, and a
# sandwich run's random pattern only with its supercell of (2k+1) m nodes
_HUGE_BLOCKS = [
    (_BIG_CELL_BANDS, "background", 65536),
    ({**ENSEMBLE_DOCS["ile"], "geometry": {"d": 1, "m": 65536}}, "params", 65536),  # the gap scan
    ({**ENSEMBLE_DOCS["sandwich"], "params": {**ENSEMBLE_DOCS["sandwich"]["params"], "k": 750}}, "params", 3002),
]


def test_a_floquet_block_too_large_to_solve_is_refused(tmp_path):
    # capped as above: at 65,536 nodes one dense fiber would take 68 GB
    paths = [write_config(tmp_path, doc, f"cfg{i}.json") for i, (doc, _, _) in enumerate(_HUGE_BLOCKS)]
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                                  if p])
    proc = subprocess.run([sys.executable, "-c", _DRY_RUNS, *paths], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["seconds"] < 5
    for (doc, label, nodes), (code, err) in zip(_HUGE_BLOCKS, report["runs"]):
        assert code == 2 and err.splitlines() == [
            f"error: {label}: a Floquet fiber's largest block has {nodes} nodes, above the dense limit 3000",
            "error: configuration rejected"], (doc, err)


def test_layered_media_fold_under_the_dense_limit():
    # stripes constant across d - 1 axes fold to blocks of m nodes, the identity to blocks of one
    for d, m in [(2, 256), (3, 16)]:
        assert validate(parse_config({**_BIG_CELL_BANDS, "geometry": {"d": d, "m": m}})) == []
    assert validate(parse_config({**_BIG_CELL_BANDS, "background": {"type": "identity"}})) == []
    sandwich = ENSEMBLE_DOCS["sandwich"]
    assert validate(parse_config({**sandwich, "params": {**sandwich["params"], "k": 749}})) == []


# config_hash of each shipped config: every artifact of a run records it, so it keeps its bytes
_SHIPPED_HASHES = {
    "bands_two_phase.json": "1eb0b85a86892d4de03d6dc5bafb76a47ba8dd05404d3fe50dcc989810977f27",
    "ids_uniform_box.json": "a1eada6e2af7bc4f3d345f5c2012f72005e8605dfdcd987f751d1816a943d451",
    "ile_gapped.json": "d4c347df7cc0e755fe08db007fa4295a9202adc24f9a51bc58b098ccff9d51e6",
    "sandwich_check.json": "b32c4b7fa6c2601761fd5417bdb2c802f25f94ed3bf3486aa9f53536555db512",
    "tail_probe_small.json": "6b8d9e251b4d47f921aad39ed4080d17db656873a60434979fc2e7b41dca5037",
    "wegner_free.json": "51da73a55a20ed3acf3ba26f00db37eed7ecde0f167cf0b858bd9720b0dbbca9",
}


def test_shipped_configs_keep_their_config_hash():
    configs = SHIPPED_IDS.parent
    assert sorted(p.name for p in configs.glob("*.json")) == sorted(_SHIPPED_HASHES)
    for name, digest in _SHIPPED_HASHES.items():
        assert config_hash(load_config(str(configs / name))) == digest, name


# every key of the closed blocks, and every params key a driver reads (kind -> paths)
_BLOCK_PATHS = [("n_theta",), ("ensemble", "n_realizations"), ("ensemble", "seed"),
                *(("geometry", key) for key in ("d", "k", "m", "bc", "theta")),
                *(("background", key) for key in ("type", "low", "high", "axis")),
                *(("profile", key) for key in ("kind", "radius", "amplitude", "nu")),
                *(("disorder", key) for key in ("law", "p", "a", "kappa")),
                *(("energies", key) for key in ("values", "min", "max", "count"))]
_EPS_KEYS = ("eps_values", "eps_min", "eps_max", "eps_count")
_PARAM_KEYS = {
    "bands": (), "ids": (),
    "anderson": ("k", "nu", "E_plus", "potential_tol"),
    "lifshitz": ("k", "nu", "E_plus", "potential_tol", "n_boot", "fit_seed", "nondegenerate", *_EPS_KEYS),
    "wegner": ("E", "ks", "n_trials", "theta", "min_exponent", "volume_ratio_cap", *_EPS_KEYS),
    "ile": ("E_plus", "k", "alpha", "p", "n_trials", "theta", "gap_scan_n_theta"),
    "sandwich": ("E", "eps", "k", "k_big", "eta0"),
    "decay": ("model", "index", "window", "n_states"),
    "decay_anderson": ("model", "index", "window", "n_states", "k", "nu", "E_plus"),
    "bounds": ("evaluations",),
}
_EVALUATION_KEYS = [("type", "k", "delta", "K", "C", "d", "truncation"), ("type", "eps", "alpha", "nu", "d"),
                    ("type", "eps", "alpha", "nu", "d", "s", "C")]  # BOUNDS_DOC's three evaluations
_SCHEMA_DOCS = {**ENSEMBLE_DOCS, "decay": DECAY_DOC, "bounds": BOUNDS_DOC,
                "decay_anderson": {**DECAY_BARE, "params": {"model": "anderson", "k": 2, "nu": 4.0,
                                                           "window": [0.0, 2.0]}},
                "bands": {"kind": "bands", "geometry": {"d": 1, "m": 4}, "n_theta": 3,
                          "background": {"type": "two_phase", "low": 1.0, "high": 4.0}}}
# small values only: a valid count drawn from here keeps every run tiny
_POOL = [0, 1, 2, -1, 2.5, 0.5, 2.0, "x", "3", True, False, None, float("nan"), float("inf"),
         float("-inf"), [], {}, [0.5], [0.0, 1.0], "dirichlet", "two_phase"]


def _schema_paths(name):
    return (_BLOCK_PATHS + [("params", key) for key in _PARAM_KEYS[name]]
            + ([("params", "evaluations", i, key) for i, keys in enumerate(_EVALUATION_KEYS) for key in keys]
               if name == "bounds" else []))


@st.composite
def _schema_docs(draw):
    name = draw(st.sampled_from(sorted(_SCHEMA_DOCS)))
    doc = copy.deepcopy(_SCHEMA_DOCS[name])
    for path in draw(st.lists(st.sampled_from(_schema_paths(name)), min_size=1, max_size=2, unique=True)):
        *blocks, key = path
        owner = doc
        for block in blocks:  # a missing block is added; one the first replacement took away ends the walk
            owner = (owner.setdefault(block, {}) if isinstance(owner, dict) else
                     owner[block] if isinstance(owner, list) and block < len(owner) else None)
        if isinstance(owner, dict):
            base = [owner[key]] if owner.get(key) is not None else []
            owner[key] = draw(st.sampled_from(_POOL + base))
    return doc


@pytest.mark.filterwarnings("ignore::lifshitz_lab.anderson.OptimizerWarning")
@given(_schema_docs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_config_validate_accepts_runs(doc):
    # a tiny doc per kind with one or two keys replaced: an accepted doc runs to
    # exit 0 or 3 and never raises; a refused doc exits 2 before any output exists
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        result = run(parse_config(doc), out_dir=out)
        assert result.exit_code in ((2,) if not os.path.exists(out) else (0, 3)), (doc, result.diagnostics)


def test_sandwich_runs_at_the_largest_seed(tmp_path):
    # the reference box draws at seed + 1, which wraps to 0 rather than leaving the seed range
    doc = {**ENSEMBLE_DOCS["sandwich"], "ensemble": {"n_realizations": 6, "seed": 2**64 - 1},
           "params": {"E": 0.0, "eps": 0.2, "k": 1, "k_big": 2}}
    assert run(parse_config(doc), out_dir=str(tmp_path / "s")).exit_code == 0


@pytest.mark.filterwarnings("ignore::lifshitz_lab.anderson.OptimizerWarning")
def test_bounds_runs_without_params_nu(tmp_path):
    # each evaluation carries its own nu; the driver reads no params.nu (the
    # chernoff evaluation is vacuous and warns, which is beside the point here)
    doc = {**BOUNDS_DOC, "params": {k: v for k, v in BOUNDS_DOC["params"].items() if k != "nu"}}
    assert validate(parse_config(doc)) == []
    assert run(parse_config(doc), out_dir=str(tmp_path / "b")).exit_code == 0


def test_validate_names_every_refused_bounds_evaluation(tmp_path, capsys):
    # the second evaluation is out of its bound's domain, the third does not read: both are reported
    evaluations = [{"type": "chernoff", "k": 2, "delta": 0.3},
                   {"type": "product1", "eps": 0.1, "alpha": 0.5, "nu": 4.5, "d": 1},
                   {"type": "chernoff", "k": "x", "delta": 0.3}]
    doc = {"kind": "bounds", "params": {"evaluations": evaluations}}
    assert [str(d) for d in validate(parse_config(doc))] == [
        "error: params.evaluations[1]: need nu in (d, d+2]",
        "error: params.evaluations[2].k must be an integer >= 0, got 'x'"]
    assert main(["bounds", "--config", write_config(tmp_path, doc), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert "params.evaluations[1]: need nu" in err and "params.evaluations[2].k" in err


def test_bounds_types_are_the_library_table():
    assert set(config_mod.BOUND_EVALUATIONS) == set(anderson_mod.BOUNDS)


def test_decay_runs_up_to_the_operator_dimension(tmp_path):
    # DECAY_DOC's d=1, k=2, m=2 Dirichlet box has 9 nodes
    doc = {**DECAY_DOC, "params": {"n_states": 9}}
    assert validate(parse_config(doc)) == []
    assert run(parse_config(doc), out_dir=str(tmp_path / "d")).exit_code == 0
    entries = json.loads((tmp_path / "d" / "decay.json").read_text())["results"]["entries"]
    assert len(entries) == 9
    # a box that does not build is reported once, under geometry
    bad = {**DECAY_DOC, "geometry": {**DECAY_DOC["geometry"], "m": 1}}
    assert [str(d) for d in validate(parse_config(bad))] == [
        "error: geometry: mesh resolution m must be >= 2"]


@pytest.mark.parametrize("kind,module", [("ids", lattice_mod), ("anderson", anderson_mod)],
                         ids=["ids", "anderson"])
def test_run_records_task_failures(tmp_path, monkeypatch, kind, module):
    # the realization is drawn where the library's plan draws it, through draw_couplings
    real = module.draw_couplings

    def flaky(spec, hashes, seed, index):  # the Anderson plan draws a range of indices at once
        if 2 in np.atleast_1d(index):
            raise RuntimeError("synthetic loss")
        return real(spec, hashes, seed, index)

    monkeypatch.setattr(module, "draw_couplings", flaky)
    doc = ENSEMBLE_DOCS[kind]
    result = run(parse_config(dict(doc)), out_dir=str(tmp_path / "o"))
    assert result.exit_code == 3
    assert len(result.manifest.failures) == 1
    assert "task 2 failed" in result.manifest.failures[0]
    out = json.loads((tmp_path / "o" / "ids.json").read_text())
    assert out["results"]["n_realizations"] == doc["ensemble"]["n_realizations"] - 1


def test_lifshitz_blocks_write_the_per_realization_bytes(tmp_path, monkeypatch):
    # 100 realizations in blocks of 38, 38 and 24 at k=16, nu=4 (a window of 843
    # sites): threads 1 and 2 and one realization per block write the same bytes; each
    # draw is recorded with its plan's block, so the last leg provably ran on blocks of one
    doc = {**ENSEMBLE_DOCS["lifshitz"], "ensemble": {"n_realizations": 100, "seed": 11},
           "params": {**ENSEMBLE_DOCS["lifshitz"]["params"], "eps_min": 0.3, "eps_max": 1.5}}
    assert anderson_mod._AndersonPlan(1, 16, 4.0, 0.0, 1e-8).block == 38
    draws, blocks = anderson_mod._AndersonPlan.draws, []

    def recorded(plan, disorder, seed, indices):
        blocks.append((plan.block, len(indices)))
        return draws(plan, disorder, seed, indices)

    monkeypatch.setattr(anderson_mod._AndersonPlan, "draws", recorded)
    blobs = []
    for threads, block_couplings in ((1, None), (2, None), (2, 1)):
        if block_couplings:
            monkeypatch.setattr(anderson_mod, "BLOCK_COUPLINGS", block_couplings)
        out = tmp_path / f"t{threads}b{block_couplings}"
        blocks.clear()
        result = run(parse_config(doc), out_dir=str(out), threads=threads)
        assert result.exit_code == 0
        assert sorted(blocks) == ([(1, 1)] * 100 if block_couplings else [(38, 24), (38, 38), (38, 38)])
        blobs.append({name: (out / name).read_bytes() for name in result.manifest.files})
    assert blobs[0] == blobs[1] == blobs[2]
    assert json.loads(blobs[0]["expfit.json"])["results"]["n_points"] == 8


@pytest.mark.parametrize("kind", sorted(ENSEMBLE_DOCS))
def test_identical_bytes_across_thread_counts(tmp_path, kind):
    # IDS_DOC's 9-node box is counted densely; the shipped 33-node box from its band.
    # A kappa_tail law carries its tail index into expfit.json's kappa and target.
    kappa_tail = {**ENSEMBLE_DOCS["lifshitz"], "disorder": {"law": "kappa_tail", "kappa": 2.0}}
    docs = [ENSEMBLE_DOCS[kind]] + ([json.loads(SHIPPED_IDS.read_text())] if kind == "ids" else
                                    [kappa_tail] if kind == "lifshitz" else [])
    for j, doc in enumerate(docs):
        blobs = {}
        for threads in (1, 4, 16):
            out = tmp_path / f"{j}t{threads}"
            result = run(parse_config(dict(doc)), out_dir=str(out), threads=threads)
            assert result.exit_code == 0
            blobs[threads] = {name: (out / name).read_bytes()
                              for name in result.manifest.files}
        assert len(blobs[1]) == 2
        assert blobs[1] == blobs[4] == blobs[16]
    if kind == "lifshitz":  # blobs holds the kappa_tail doc's bytes, run last
        fit = json.loads(blobs[1]["expfit.json"])["results"]
        assert (fit["kappa"], fit["target"]) == (2.0, -2.5)  # -(d/2 + kappa) at d = 1


def test_run_overrides_leave_the_callers_config_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config({**IDS_DOC, "out": "plain"})
    kept = copy.deepcopy(cfg)

    def artifacts(result):
        assert result.exit_code == 0
        return {name: (Path(result.out_dir) / name).read_bytes() for name in result.manifest.files}

    overridden = artifacts(run(cfg, out_dir="over", seed=9))
    assert cfg == kept and cfg.ensemble == {"n_realizations": 4, "seed": 3} and cfg.out == "plain"
    # the overridden run writes what a config holding the override writes
    assert overridden == artifacts(run(parse_config({**IDS_DOC, "ensemble": {"n_realizations": 4, "seed": 9}}),
                                       out_dir="direct"))
    # and a later run without overrides reads the caller's own seed and directory
    plain = run(cfg)
    assert plain.out_dir == "plain" and plain.manifest.seed == 3
    assert artifacts(plain) == artifacts(run(parse_config(dict(IDS_DOC)), out_dir="fresh")) != overridden
    assert run(cfg, out_dir="bad", seed=1.5).exit_code == 2 and cfg == kept


# -- command line ------------------------------------------------------------------------


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_bands_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a d = 2 two-phase medium of 144 nodes: its bands.csv rows moved by rounding
    # between one and two OpenBLAS threads until the package pinned BLAS to one
    cfg = write_config(tmp_path, {"kind": "bands", "geometry": {"d": 2, "m": 12}, "n_theta": 3,
                                  "background": {"type": "two_phase", "low": 1.0, "high": 4.0}})
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    trees = {}
    for setting in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env.update(dict.fromkeys(_BLAS_VARS, setting) if setting else {}, PYTHONPATH=path)
        out = tmp_path / f"blas{setting}"
        subprocess.run([sys.executable, "-m", "lifshitz_lab.cli", "bands", "--config", cfg, "--out", str(out)],
                       env=env, cwd=root, check=True, capture_output=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == dict.fromkeys(_BLAS_VARS, "1")
        trees[setting] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert sorted(trees["1"]) == ["bands.csv", "bands.json"]
    assert trees["1"] == trees["2"] == trees[None]


def test_experiment_kinds_are_one_list():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_DRIVERS) == set(EXPERIMENT_KINDS) == set(sub.choices)


def test_cli_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, {**IDS_DOC, "out": str(tmp_path / "res")})
    assert main(["ids", "--config", path]) == 0
    assert (tmp_path / "res" / "ids.csv").exists()


def test_bands_csv_rows_keep_their_bytes(tmp_path, monkeypatch):
    # _run_bands renders its rows itself, once per distinct row; they must be csv.writer's bytes
    e = [-0.0, 0.0, 1e-17, 0.1 + 0.2, 2.5, -3.75e300, 4.0]
    shapes = {"repeated": [[e[3], e[4], e[6]], [e[2], e[3], e[4]], [e[3], e[4], e[6]], [e[3], e[4], e[6]],
                           [e[2], e[3], e[4]]],
              "distinct": [[e[5], e[2], e[3]], [e[2], e[3], e[4]], [e[3], e[4], e[6]], [e[1], e[4], e[6]]],
              "signed_zero": [[e[0], e[4], e[6]], [e[1], e[4], e[6]]]}
    cases = [(f"d{d}", floquet_bands(PeriodicBackground.two_phase(m=4, low=1.0, high=4.0, d=d), n_theta=3))
             for d in (1, 2)]
    for name, rows in shapes.items():
        thetas = np.linspace(-0.5, 0.5, 2 * len(rows)).reshape(len(rows), 2) * np.pi
        cases.append((name, BandStructure(thetas=thetas, bands=np.array(rows), norms=np.ones(len(rows)),
                                          period=4, m=4, d=2)))
    for name, bands in cases:
        monkeypatch.setattr(experiments_mod, "floquet_bands", lambda *a, **kw: bands)
        d = bands.d
        doc = {"kind": "bands", "geometry": {"d": d, "m": 4}, "n_theta": 3,
               "background": {"type": "two_phase", "low": 1.0, "high": 4.0}}
        assert run(parse_config(doc), out_dir=str(tmp_path / name)).exit_code == 0
        rows = [tuple(float(t) for t in bands.thetas[i]) + (n, float(bands.bands[i, n]))
                for i in range(bands.thetas.shape[0]) for n in range(bands.bands.shape[1])]
        header = [f"theta_{j + 1}" for j in range(d)] + ["band_index", "energy"]
        with open(tmp_path / f"writer_{name}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        assert (tmp_path / name / "bands.csv").read_bytes() == (tmp_path / f"writer_{name}.csv").read_bytes(), name
    assert b",0,-0.0\r\n" in (tmp_path / "signed_zero" / "bands.csv").read_bytes()


@pytest.mark.parametrize("array", [
    np.array(0.1 + 0.2), np.array([-0.0, 1e-300, 2.5]), np.arange(6.0).reshape(2, 3) / 7,
    np.array([1.5, 2.5], dtype=np.float32), np.array(7), np.arange(-3, 3, dtype=np.int8).reshape(3, 2),
    np.array([2**64 - 1], dtype=np.uint64), np.array(True), np.array([[True, False]]),
    np.array(np.nan), np.array([1.0, np.inf, -np.inf]), np.array([[np.nan, 0.5], [-np.inf, 1.0]])],
    ids=["float_0d", "float_1d", "float_2d", "float32", "int_0d", "int8_2d", "uint64", "bool_0d",
         "bool_2d", "nan_0d", "inf_1d", "nonfinite_2d"])
def test_jsonable_array_fast_path_is_the_element_walk(array):
    # the walk over the array's python values, as _jsonable takes it for a nonfinite float array
    walk = experiments_mod._jsonable(array.tolist())
    got = experiments_mod._jsonable(array)
    assert got == walk
    assert repr(got) == repr(walk) and json.dumps(got) == json.dumps(walk)


def test_jsonable_keeps_the_repr_of_nonfinite_floats():
    assert experiments_mod._jsonable(np.array([[1.0, np.nan], [np.inf, -np.inf]])) == [[1.0, "nan"],
                                                                                        ["inf", "-inf"]]
    assert experiments_mod._jsonable(np.array([True, False])) == [True, False]


def test_cli_exits_3_on_a_task_failure(tmp_path, capsys, monkeypatch):
    real = ids_mod.operator_sampler

    def flaky_sampler(*args, **kwargs):
        operator = real(*args, **kwargs)

        def flaky(index):
            if index == 1:
                raise RuntimeError("synthetic loss")
            return operator(index)
        return flaky

    monkeypatch.setattr(ids_mod, "operator_sampler", flaky_sampler)
    out = tmp_path / "res"
    assert main(["ids", "--config", write_config(tmp_path, {**IDS_DOC, "out": str(out)})]) == 3
    assert "task failure: task 1 failed: RuntimeError('synthetic loss')" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == ["task 1 failed: RuntimeError('synthetic loss')"]
    results = json.loads((out / "ids.json").read_text())["results"]
    assert results["n_realizations"] == IDS_DOC["ensemble"]["n_realizations"] - 1


def test_cli_dry_run_skips_compute(tmp_path, capsys):
    path = write_config(tmp_path, {**IDS_DOC, "out": str(tmp_path / "res")})
    assert main(["ids", "--config", path, "--dry-run"]) == 0
    assert not (tmp_path / "res").exists()
    assert "dry run ok" in capsys.readouterr().out


def test_cli_kind_mismatch_is_config_error(tmp_path):
    path = write_config(tmp_path, IDS_DOC)
    assert main(["bands", "--config", path]) == 2


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    doc = {**IDS_DOC, "profile": {"kind": "long_range", "nu": 9.0}}
    assert main(["ids", "--config", write_config(tmp_path, doc)]) == 2


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("flag,env", [("0", None), ("-1", None), (None, "x")])
def test_cli_bad_thread_count_exits_2_before_output(tmp_path, capsys, monkeypatch, flag, env, dry_run):
    if env is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, env)
    path = write_config(tmp_path, {**IDS_DOC, "out": str(tmp_path / "res")})
    argv = ["ids", "--config", path] + (["--threads", flag] if flag else []) + (["--dry-run"] if dry_run else [])
    assert main(argv) == 2
    assert not (tmp_path / "res").exists()
    assert "error: threads: thread count must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("ensemble", [5, [1, 2]])
def test_a_seed_override_leaves_an_ensemble_that_is_no_object_to_validate(tmp_path, capsys, ensemble):
    doc = {**IDS_DOC, "ensemble": ensemble, "out": str(tmp_path / "cli")}
    error = f"error: ensemble must be an object, got {ensemble!r}"
    result = run(parse_config(doc), out_dir=str(tmp_path / "lib"), seed=3)
    assert result.exit_code == 2 and [str(d) for d in result.diagnostics] == [error]
    for argv in ([], ["--dry-run"]):
        assert main(["ids", "--config", write_config(tmp_path, doc), "--seed", "3", *argv]) == 2
        assert error in capsys.readouterr().err
    assert not (tmp_path / "lib").exists() and not (tmp_path / "cli").exists()


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["ids", "--config", str(tmp_path / "nope.json")]) == 2


def test_load_config_parses_file(tmp_path):
    path = write_config(tmp_path, IDS_DOC)
    cfg = load_config(path)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.kind == "ids"
    assert cfg.n_realizations == 4
