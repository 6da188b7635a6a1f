import argparse
import json
import os

import numpy as np
import pytest

import lifshitz_lab.anderson as anderson_mod
import lifshitz_lab.experiments as experiments_mod
import lifshitz_lab.lattice as lattice_mod
from lifshitz_lab.cli import build_parser, main
from lifshitz_lab.config import (EXPERIMENT_KINDS, ExperimentConfig, config_hash,
                                 energy_grid, eps_grid, load_config, parse_config,
                                 validate)
from lifshitz_lab.disorder import ValidationError
from lifshitz_lab.experiments import _DRIVERS, run
from lifshitz_lab.lattice import PeriodicBackground
from lifshitz_lab.spectral import floquet_bands
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


def test_indexed_map_collects_failures():
    def flaky(i):
        if i % 3 == 0:
            raise RuntimeError(f"boom {i}")
        return i

    results, failures = indexed_map(flaky, 7, threads=2, collect_errors=True)
    assert [r for r in results if r is not None] == [1, 2, 4, 5]
    assert sorted(f.index for f in failures) == [0, 3, 6]
    assert all(isinstance(f, TaskFailure) for f in failures)


def test_indexed_map_raises_without_collection():
    with pytest.raises(RuntimeError):
        indexed_map(lambda i: 1 / 0, 3, threads=1)


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
    docs = {**ENSEMBLE_DOCS, "decay": DECAY_DOC, "bounds": BOUNDS_DOC}
    for kind, doc in docs.items():
        assert validate(parse_config(doc)) == [], kind
    unsorted = {"energies": {"values": [0.5, 0.1]}}
    cases = [
        {**IDS_DOC, "profile": {"kind": "long_range", "nu": 9.0}},
        {**IDS_DOC, **unsorted},
        {**ENSEMBLE_DOCS["anderson"], **unsorted},
    ]
    for kind, patch in [("ile", {"n_trials": 0}), ("wegner", {"n_trials": 0}),
                        ("wegner", {"eps_values": [0.1, 0.0]}),
                        ("lifshitz", {"eps_values": [-0.1, 0.1, 0.2]}),
                        ("lifshitz", {"eps_values": [0.1, 0.3, 0.2]}),
                        ("ile", {"theta": [7.0]}), ("wegner", {"theta": [0.5, 0.5]}),
                        ("ile", {"theta": 0.5}),
                        ("decay", {"model": "anderson", "nu": 4.0}),
                        ("decay", {"model": "nonsense"}),
                        ("decay", {"window": [1.0, 0.5]}), ("decay", {"n_states": 0}),
                        ("decay", {"n_states": 50}),
                        ("decay", {"model": "anderson", "k": 2, "nu": 4.0, "n_states": 6}),
                        ("bounds", {"evaluations": [{"type": "chernof", "k": 2, "delta": 0.3}]}),
                        ("bounds", {"evaluations": [{"type": "product1", "eps": 0.3, "nu": 2.5}]}),
                        ("bounds", {"evaluations": ["chernoff"]})]:
        doc = docs[kind]
        cases.append({**doc, "params": {**doc["params"], **patch}})
    for kind, key in [("anderson", "nu"), ("lifshitz", "k"), ("wegner", "E"),
                      ("sandwich", "eps"), ("ile", "k"), ("ile", "E_plus")]:
        doc = docs[kind]
        cases.append({**doc, "params": {p: v for p, v in doc["params"].items() if p != key}})
    for i, doc in enumerate(cases):
        result = run(parse_config(doc), out_dir=str(tmp_path / f"never{i}"))
        assert result.exit_code == 2, doc
        assert not (tmp_path / f"never{i}").exists()


@pytest.mark.filterwarnings("ignore::lifshitz_lab.anderson.OptimizerWarning")
def test_bounds_runs_without_params_nu(tmp_path):
    # each evaluation carries its own nu; the driver reads no params.nu (the
    # chernoff evaluation is vacuous and warns, which is beside the point here)
    doc = {**BOUNDS_DOC, "params": {k: v for k, v in BOUNDS_DOC["params"].items() if k != "nu"}}
    assert validate(parse_config(doc)) == []
    assert run(parse_config(doc), out_dir=str(tmp_path / "b")).exit_code == 0


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
    # the realization is drawn where the library's realization function draws it
    real = module.sample_realization

    def flaky(spec, window, seed, index):
        if index == 2:
            raise RuntimeError("synthetic loss")
        return real(spec, window, seed, index)

    monkeypatch.setattr(module, "sample_realization", flaky)
    doc = ENSEMBLE_DOCS[kind]
    result = run(parse_config(dict(doc)), out_dir=str(tmp_path / "o"))
    assert result.exit_code == 3
    assert len(result.manifest.failures) == 1
    assert "task 2 failed" in result.manifest.failures[0]
    out = json.loads((tmp_path / "o" / "ids.json").read_text())
    assert out["results"]["n_realizations"] == doc["ensemble"]["n_realizations"] - 1


@pytest.mark.parametrize("kind", sorted(ENSEMBLE_DOCS))
def test_identical_bytes_across_thread_counts(tmp_path, kind):
    blobs = {}
    for threads in (1, 4, 16):
        out = tmp_path / f"t{threads}"
        result = run(parse_config(dict(ENSEMBLE_DOCS[kind])), out_dir=str(out), threads=threads)
        assert result.exit_code == 0
        blobs[threads] = {name: (out / name).read_bytes()
                          for name in result.manifest.files}
    assert len(blobs[1]) == 2
    assert blobs[1] == blobs[4] == blobs[16]


# -- command line ------------------------------------------------------------------------


def test_experiment_kinds_are_one_list():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_DRIVERS) == set(EXPERIMENT_KINDS) == set(sub.choices)


def test_cli_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, {**IDS_DOC, "out": str(tmp_path / "res")})
    assert main(["ids", "--config", path]) == 0
    assert (tmp_path / "res" / "ids.csv").exists()


def test_bands_csv_rows_keep_their_bytes(tmp_path, monkeypatch):
    # _run_bands rows against the per-element loop that built them before
    bands = floquet_bands(PeriodicBackground.two_phase(m=4, low=1.0, high=4.0, d=2), n_theta=3)
    monkeypatch.setattr(experiments_mod, "floquet_bands", lambda *a, **kw: bands)
    doc = {"kind": "bands", "geometry": {"d": 2, "m": 4}, "n_theta": 3,
           "background": {"type": "two_phase", "low": 1.0, "high": 4.0}}
    assert run(parse_config(doc), out_dir=str(tmp_path / "run")).exit_code == 0
    rows = [tuple(float(t) for t in bands.thetas[i]) + (n, float(bands.bands[i, n]))
            for i in range(bands.thetas.shape[0]) for n in range(bands.bands.shape[1])]
    experiments_mod._write_csv(str(tmp_path / "loop.csv"),
                               ["theta_1", "theta_2", "band_index", "energy"], rows)
    assert (tmp_path / "run" / "bands.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


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


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["ids", "--config", str(tmp_path / "nope.json")]) == 2


def test_load_config_parses_file(tmp_path):
    path = write_config(tmp_path, IDS_DOC)
    cfg = load_config(path)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.kind == "ids"
    assert cfg.n_realizations == 4
