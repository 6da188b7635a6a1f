"""Experiment drivers: config in, CSV + JSON + manifest out.

The ensemble kinds (ids, anderson, lifshitz, ile, wegner, sandwich) call the
library estimators, which fan realizations/trials out as numbered tasks and
reduce them in index order, so outputs do not depend on the parallelism
degree; bands, bounds and decay are single computations.  CSV headers are
part of the artifact contract and must not be reordered.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from . import version
from .anderson import (anderson_ids, chernoff_bound_P1, product_bound_P_eps_alpha_1,
                       product_bound_P_eps_alpha_2, sample_anderson)
from .config import (ExperimentConfig, build_background, build_box, build_disorder,
                     build_profile, config_hash, energy_grid, eps_grid, resolved_dict,
                     validate)
from .curves import InsufficientDataError
from .ids import (decay_diagnostic, empirical_ids, ile_check, lifshitz_exponent,
                  sandwich_check, theoretical_exponent, wegner_check)
from .lattice import operator_sampler
from .runner import resolve_threads
from .spectral import floquet_bands, spectral_gaps
# Not called here (the ensemble kinds go through the library estimators), but
# kept as attributes of this module: perfbench/tracing.py patches these names.
from .disorder import sample_realization  # noqa: F401
from .lattice import assemble_operator, sample_coefficient_field  # noqa: F401
from .runner import indexed_map  # noqa: F401
from .spectral import counts_below  # noqa: F401

__all__ = ["RunManifest", "RunResult", "run"]


@dataclass
class RunManifest:
    config_hash: str
    version: str
    kind: str
    seed: int
    threads: int
    wall_time_s: float
    files: list = field(default_factory=list)
    failures: list = field(default_factory=list)


@dataclass
class RunResult:
    exit_code: int
    diagnostics: list
    manifest: RunManifest = None
    out_dir: str = None


# -- serialization helpers -------------------------------------------------------


def _write_csv(path: str, header: list, rows):
    """Rows hold str, int and float only: csv writes floats by repr, but a bool as True.

    `rows` may also be one str of rows already rendered as csv renders them,
    each ending in "\\r\\n".
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if isinstance(rows, str):
            fh.write(rows)
        else:
            w.writerows(rows)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: str, config: ExperimentConfig, results: dict):
    doc = {"kind": config.kind, "config": resolved_dict(config),
           "config_hash": config_hash(config), "results": _jsonable(results)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


CHECKS_HEADER = ["name", "trials", "successes", "p_lo", "p_hi", "bound", "verdict"]


def _write_check(config, out_dir, r) -> tuple[list, list]:
    """checks.csv and checks.json of one check report; returns (files, failures)."""
    _write_csv(os.path.join(out_dir, "checks.csv"), CHECKS_HEADER,
               [(r.name, r.trials, r.successes, r.p_lo, r.p_hi, r.bound, r.verdict)])
    _write_json(os.path.join(out_dir, "checks.json"), config, {"report": asdict(r)})
    return ["checks.csv", "checks.json"], []


IDS_HEADER = ["E", "N_mean", "N_stderr", "n_realizations"]


def _write_ids(config, out_dir, curve, **extra) -> tuple[list, list]:
    """ids.csv and ids.json of an ensemble curve; returns (files, failures)."""
    rows = [(float(E), float(m), float(s), curve.n_realizations)
            for E, m, s in zip(curve.energies, curve.values, curve.stderr)]
    _write_csv(os.path.join(out_dir, "ids.csv"), IDS_HEADER, rows)
    results = {"energies": curve.energies, "N_mean": curve.values, "N_stderr": curve.stderr,
               "n_realizations": curve.n_realizations, "volume": curve.volume, **extra}
    _write_json(os.path.join(out_dir, "ids.json"), config, results)
    return ["ids.csv", "ids.json"], [str(f) for f in curve.meta["failures"]]


# -- drivers ------------------------------------------------------------------------


def _run_bands(config, out_dir, threads):
    bg = build_background(config)
    bands = floquet_bands(bg, n_theta=config.n_theta)
    d = bg.d
    header = [f"theta_{j+1}" for j in range(d)] + ["band_index", "energy"]
    # csv.writer's rendering (floats by repr, "\r\n" endings), each fiber's thetas formatted once
    middles = [f",{n}," for n in range(bands.bands.shape[1])]
    rows = []
    for th, row in zip(bands.thetas.tolist(), bands.bands.tolist()):
        fiber = ",".join(map(repr, th))
        rows.extend(f"{fiber}{mid}{e!r}\r\n" for mid, e in zip(middles, row))
    _write_csv(os.path.join(out_dir, "bands.csv"), header, "".join(rows))
    results = {"band_ranges": bands.band_ranges(), "gaps": spectral_gaps(bands),
               "n_theta": config.n_theta, "period": bands.period}
    _write_json(os.path.join(out_dir, "bands.json"), config, results)
    return ["bands.csv", "bands.json"], []


def _run_ids(config, out_dir, threads):
    box = build_box(config)
    curve = empirical_ids(build_background(config), build_profile(config),
                          build_disorder(config), box, config.n_realizations,
                          energy_grid(config), seed=config.seed, threads=threads)
    return _write_ids(config, out_dir, curve, bc=box.bc)


def _anderson_curve(config, energies, threads):
    p = config.params
    return anderson_ids(build_disorder(config), int(config.geometry.get("d", 1)), int(p["k"]),
                        float(p["nu"]), energies, config.n_realizations,
                        E_plus=float(p.get("E_plus", 0.0)), seed=config.seed,
                        tol=float(p.get("potential_tol", 1e-8)), threads=threads)


def _run_anderson(config, out_dir, threads):
    return _write_ids(config, out_dir, _anderson_curve(config, energy_grid(config), threads))


def _run_lifshitz(config, out_dir, threads):
    p = config.params
    eps = eps_grid(config)
    E_plus = float(p.get("E_plus", 0.0))
    curve = _anderson_curve(config, np.concatenate([[E_plus], E_plus + eps]), threads)
    d = int(config.geometry.get("d", 1))
    nu = float(p["nu"])
    dis = build_disorder(config)
    kappa = dis.tail_index if dis.law != "bernoulli" else 0.0
    range_kind = "short_range" if nu > d + 2 else "long_range"
    target = theoretical_exponent(d, kappa, range_kind, nu=None if range_kind == "short_range" else nu,
                                  nondegenerate=bool(p.get("nondegenerate", True)))
    results = {"E_plus": E_plus, "target": target, "nu": nu, "kappa": kappa}
    rows = []
    try:
        fit = lifshitz_exponent(curve, E_plus, eps, n_boot=int(p.get("n_boot", 1000)),
                                seed=int(p.get("fit_seed", 715517)))
        rows = [(float(e), float(dn), float(np.log(np.abs(np.log(dn)))))
                for e, dn in zip(fit.eps_used, fit.dN_used)]
        results.update({"slope": fit.slope, "intercept": fit.intercept,
                        "ci_lo": fit.ci_lo, "ci_hi": fit.ci_hi, "r2": fit.r2,
                        "n_points": fit.n_points})
    except InsufficientDataError as exc:
        results["insufficient_data"] = str(exc)
    _write_csv(os.path.join(out_dir, "expfit.csv"),
               ["eps", "dN", "log_abs_log_dN"], rows)
    _write_json(os.path.join(out_dir, "expfit.json"), config, results)
    return ["expfit.csv", "expfit.json"], [str(f) for f in curve.meta["failures"]]


def _run_bounds(config, out_dir, threads):
    dis = build_disorder(config)
    rows, details = [], []
    for spec in config.params.get("evaluations", []):
        kind, d = spec["type"], int(spec.get("d", 1))
        if kind == "chernoff":
            be = chernoff_bound_P1(dis, k=int(spec["k"]), delta=float(spec["delta"]),
                                   K=float(spec.get("K", 1.0)), C=float(spec.get("C", 1.0)),
                                   d=d, truncation=spec.get("truncation"))
        else:  # product1 or product2; validate() admits only BOUND_EVALUATIONS types
            args = {key: float(spec[key]) for key in ("eps", "alpha", "nu")}
            be = (product_bound_P_eps_alpha_1(dis, **args, d=d) if kind == "product1" else
                  product_bound_P_eps_alpha_2(dis, **args, d=d, s=float(spec.get("s", 1.0)),
                                              C=float(spec.get("C", 1.0))))
        rows.append((be.name, *(be.params.get(key, "") for key in ("eps", "alpha", "nu")),
                     be.params["d"], be.log_bound, be.t_star if kind == "chernoff" else ""))
        details.append({"name": be.name, "params": be.params, "details": be.details,
                        "log_bound": be.log_bound, "t_star": be.t_star})
    _write_csv(os.path.join(out_dir, "bounds.csv"),
               ["name", "eps", "alpha", "nu", "d", "log_bound", "t_star"], rows)
    _write_json(os.path.join(out_dir, "bounds.json"), config, {"evaluations": details})
    return ["bounds.csv", "bounds.json"], []


def _run_wegner(config, out_dir, threads):
    bg, prof, dis = build_background(config), build_profile(config), build_disorder(config)
    p = config.params
    theta = p.get("theta")
    rep = wegner_check(bg, prof, dis, E=float(p["E"]), ks=p.get("ks", [8, 16]),
                       eps_list=eps_grid(config), n_trials=int(p.get("n_trials", 100)),
                       theta=theta, seed=config.seed,
                       min_exponent=float(p.get("min_exponent", 0.5)),
                       volume_ratio_cap=float(p.get("volume_ratio_cap", 2.5)),
                       threads=threads)
    return _write_check(config, out_dir, rep)


def _run_ile(config, out_dir, threads):
    bg, prof, dis = build_background(config), build_profile(config), build_disorder(config)
    p = config.params
    rep = ile_check(bg, prof, dis, E_plus=float(p["E_plus"]), k=int(p["k"]),
                    alpha=float(p.get("alpha", 1.2)), p=float(p.get("p", 2.0)),
                    n_trials=int(p.get("n_trials", 100)), theta=p.get("theta"),
                    seed=config.seed, threads=threads)
    return _write_check(config, out_dir, rep)


def _run_decay(config, out_dir, threads):
    p = config.params
    if p.get("model", "lattice") == "anderson":
        op = sample_anderson(build_disorder(config), d=int(config.geometry.get("d", 1)), k=int(p["k"]),
                             nu=float(p["nu"]), E_plus=float(p.get("E_plus", 0.0)),
                             seed=config.seed, index=int(p.get("index", 0)))
    else:  # lattice; validate() admits only DECAY_MODELS
        op = operator_sampler(build_background(config), build_profile(config),
                              build_disorder(config), build_box(config),
                              config.seed)(int(p.get("index", 0)))
    if "window" in p:
        lo, hi = float(p["window"][0]), float(p["window"][1])
    else:
        n_states = int(p.get("n_states", 5))
        vals = scipy.linalg.eigvalsh(op.matrix.toarray(),
                                     subset_by_index=[0, n_states - 1])
        lo, hi = float(vals[0]) - 1e-9, float(vals[-1]) + 1e-9
    entries = decay_diagnostic(op, (lo, hi))
    rows = [(e["eigenvalue"], e["decay_rate"], e["fit_r2"]) for e in entries]
    _write_csv(os.path.join(out_dir, "decay.csv"),
               ["eigenvalue", "decay_rate", "fit_r2"], rows)
    _write_json(os.path.join(out_dir, "decay.json"), config,
                {"window": [lo, hi], "entries": entries})
    return ["decay.csv", "decay.json"], []


def _run_sandwich(config, out_dir, threads):
    bg, prof, dis = build_background(config), build_profile(config), build_disorder(config)
    p = config.params
    rep = sandwich_check(bg, prof, dis, E=float(p["E"]), eps=float(p["eps"]),
                         k=int(p["k"]), n_realizations=config.n_realizations,
                         n_theta=config.n_theta, k_big=p.get("k_big"),
                         eta0=float(p.get("eta0", 1.5)), seed=config.seed,
                         threads=threads)
    return _write_check(config, out_dir, rep)


_DRIVERS = {
    "bands": _run_bands,
    "ids": _run_ids,
    "anderson": _run_anderson,
    "lifshitz": _run_lifshitz,
    "bounds": _run_bounds,
    "wegner": _run_wegner,
    "ile": _run_ile,
    "decay": _run_decay,
    "sandwich": _run_sandwich,
}


def run(config: ExperimentConfig, out_dir: str = None, threads: int = None,
        seed: int = None, dry_run: bool = False) -> RunResult:
    """Validate, dispatch, persist.  Exit codes: 0 ok, 2 invalid, 3 task failures."""
    if seed is not None:
        config.ensemble = {**config.ensemble, "seed": int(seed)}
    if out_dir is not None:
        config.out = out_dir
    diags = validate(config)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        return RunResult(exit_code=2, diagnostics=diags)
    if dry_run:
        return RunResult(exit_code=0, diagnostics=diags)
    threads = resolve_threads(threads)
    target = config.out
    os.makedirs(target, exist_ok=True)
    t0 = time.time()
    files, failures = _DRIVERS[config.kind](config, target, threads)
    manifest = RunManifest(config_hash=config_hash(config), version=version.__version__,
                           kind=config.kind, seed=config.seed, threads=threads,
                           wall_time_s=time.time() - t0, files=sorted(files),
                           failures=failures)
    with open(os.path.join(target, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(_jsonable(asdict(manifest)), fh, indent=2, sort_keys=True)
        fh.write("\n")
    code = 3 if failures else 0
    return RunResult(exit_code=code, diagnostics=diags, manifest=manifest,
                     out_dir=target)
