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
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy

from . import _BLAS_THREADS, version
from .anderson import BOUNDS, anderson_ids, sample_anderson
from .config import (Diagnostic, ExperimentConfig, _digest, build_background, build_box, build_disorder,
                     build_params, build_profile, energy_grid, eps_grid, resolved_dict, validate)
from .curves import InsufficientDataError
from .ids import (decay_diagnostic, empirical_ids, ile_check, lifshitz_exponent,
                  sandwich_check, theoretical_exponent, wegner_check)
from .lattice import operator_sampler
from .runner import _integral, resolve_threads
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
    blas_threads: object = None  # the BLAS thread variables in effect, or a note (lifshitz_lab/__init__.py)


@dataclass
class RunResult:
    exit_code: int
    diagnostics: list
    manifest: RunManifest = None
    out_dir: str = None


# -- serialization helpers -------------------------------------------------------


def _write_csv(path: str, header: list, rows):
    """`rows` is a list of row tuples of str, int and float only (csv writes floats by repr, but
    a bool as True), or an iterator of str chunks already rendered as csv renders them, each
    ending in "\\r\\n"; the chunks are streamed to the file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if isinstance(rows, list):
            w.writerows(rows)
        else:
            fh.writelines(rows)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # no element of an int, bool or finite float array needs the walk (a nonfinite float's repr)
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _dump_json(path: str, doc: dict):
    """doc as indented, key-sorted JSON and a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_json(path: str, head: dict, results: dict):
    """head is the run's kind, resolved config and config hash, built once per run."""
    _dump_json(path, {**head, "results": _jsonable(results)})


CHECKS_HEADER = ["name", "trials", "successes", "p_lo", "p_hi", "bound", "verdict"]


def _check_output(r):
    """The checks.csv and checks.json output of one check report."""
    return ("checks", CHECKS_HEADER, [(r.name, r.trials, r.successes, r.p_lo, r.p_hi, r.bound, r.verdict)],
            {"report": asdict(r)}, ())


IDS_HEADER = ["E", "N_mean", "N_stderr", "n_realizations"]


def _ids_output(curve, **extra):
    """The ids.csv and ids.json output of an ensemble curve."""
    rows = [(float(E), float(m), float(s), curve.n_realizations)
            for E, m, s in zip(curve.energies, curve.values, curve.stderr)]
    results = {"energies": curve.energies, "N_mean": curve.values, "N_stderr": curve.stderr,
               "n_realizations": curve.n_realizations, "volume": curve.volume, **extra}
    return "ids", IDS_HEADER, rows, results, curve.meta["failures"]


# -- drivers ------------------------------------------------------------------------
# Each returns its output as (stem, csv header, csv rows, json results, task failures);
# `run` writes <stem>.csv and <stem>.json.


def _bands_rows(bands):
    """csv.writer's rendering of the bands rows (floats by repr, "\\r\\n" endings), one chunk per
    fiber.  A row's ",n,energy" tails are rendered once per distinct row: fibers of one symmetry
    orbit share their row, and equal bits (`tobytes`, which tells 0.0 from -0.0) give equal reprs."""
    tails = {}
    for th, row in zip(bands.thetas.tolist(), bands.bands):
        key = row.tobytes()
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = [f",{n},{e!r}" for n, e in enumerate(row.tolist())]
        prefix = ",".join(map(repr, th))
        yield prefix + ("\r\n" + prefix).join(tail) + "\r\n"


def _run_bands(config, threads):
    bg, n_theta = build_background(config), config.theta_points
    bands = floquet_bands(bg, n_theta=n_theta)
    header = [f"theta_{j+1}" for j in range(bg.d)] + ["band_index", "energy"]
    results = {"band_ranges": bands.band_ranges(), "gaps": spectral_gaps(bands),
               "n_theta": n_theta, "period": bands.period}
    return "bands", header, _bands_rows(bands), results, ()


def _run_ids(config, threads):
    box = build_box(config)
    curve = empirical_ids(build_background(config), build_profile(config),
                          build_disorder(config), box, config.n_realizations,
                          energy_grid(config), seed=config.seed, threads=threads)
    return _ids_output(curve, bc=box.bc)


def _anderson_curve(config, p, energies, threads):
    return anderson_ids(build_disorder(config), build_box(config).d, p["k"], p["nu"], energies,
                        config.n_realizations, E_plus=p["E_plus"], seed=config.seed,
                        tol=p["potential_tol"], threads=threads)


def _run_anderson(config, threads):
    curve = _anderson_curve(config, build_params(config), energy_grid(config), threads)
    return _ids_output(curve)


def _run_lifshitz(config, threads):
    p = build_params(config)
    eps, E_plus, nu = eps_grid(config), p["E_plus"], p["nu"]
    curve = _anderson_curve(config, p, np.concatenate([[E_plus], E_plus + eps]), threads)
    d = build_box(config).d
    dis = build_disorder(config)
    kappa = dis.tail_index if dis.law != "bernoulli" else 0.0
    range_kind = "short_range" if nu > d + 2 else "long_range"
    target = theoretical_exponent(d, kappa, range_kind, nu=None if range_kind == "short_range" else nu,
                                  nondegenerate=p["nondegenerate"])
    results = {"E_plus": E_plus, "target": target, "nu": nu, "kappa": kappa}
    rows = []
    try:
        fit = lifshitz_exponent(curve, E_plus, eps, n_boot=p["n_boot"], seed=p["fit_seed"])
        rows = [(float(e), float(dn), float(np.log(np.abs(np.log(dn)))))
                for e, dn in zip(fit.eps_used, fit.dN_used)]
        results.update({"slope": fit.slope, "intercept": fit.intercept,
                        "ci_lo": fit.ci_lo, "ci_hi": fit.ci_hi, "r2": fit.r2,
                        "n_points": fit.n_points})
    except InsufficientDataError as exc:
        results["insufficient_data"] = str(exc)
    return "expfit", ["eps", "dN", "log_abs_log_dN"], rows, results, curve.meta["failures"]


def _run_bounds(config, threads):
    dis = build_disorder(config)
    rows, details = [], []
    for args in build_params(config)["evaluations"]:
        be = BOUNDS[args.pop("type")][0](dis, **args)  # a product bound's t_star is nan
        rows.append((be.name, *(be.params.get(key, "") for key in ("eps", "alpha", "nu")),
                     be.params["d"], be.log_bound, "" if math.isnan(be.t_star) else be.t_star))
        details.append({"name": be.name, "params": be.params, "details": be.details,
                        "log_bound": be.log_bound, "t_star": be.t_star})
    header = ["name", "eps", "alpha", "nu", "d", "log_bound", "t_star"]
    return "bounds", header, rows, {"evaluations": details}, ()


def _run_wegner(config, threads):
    bg, prof, dis = build_background(config), build_profile(config), build_disorder(config)
    p = build_params(config)
    rep = wegner_check(bg, prof, dis, E=p["E"], ks=p["ks"], eps_list=eps_grid(config),
                       n_trials=p["n_trials"], theta=p["theta"], seed=config.seed,
                       min_exponent=p["min_exponent"], volume_ratio_cap=p["volume_ratio_cap"],
                       threads=threads)
    return _check_output(rep)


def _run_ile(config, threads):
    bg, prof, dis = build_background(config), build_profile(config), build_disorder(config)
    p = build_params(config)
    rep = ile_check(bg, prof, dis, E_plus=p["E_plus"], k=p["k"], alpha=p["alpha"], p=p["p"],
                    n_trials=p["n_trials"], theta=p["theta"], seed=config.seed, threads=threads)
    return _check_output(rep)


def _run_decay(config, threads):
    p = build_params(config)
    if p["model"] == "anderson":
        op = sample_anderson(build_disorder(config), d=build_box(config).d, k=p["k"], nu=p["nu"],
                             E_plus=p["E_plus"], seed=config.seed, index=p["index"])
    else:  # lattice
        op = operator_sampler(build_background(config), build_profile(config),
                              build_disorder(config), build_box(config), config.seed)(p["index"])
    if p["window"] is not None:
        lo, hi = p["window"]
    else:
        vals = scipy.linalg.eigvalsh(op.matrix.toarray(), subset_by_index=[0, p["n_states"] - 1])
        lo, hi = float(vals[0]) - 1e-9, float(vals[-1]) + 1e-9
    entries = decay_diagnostic(op, (lo, hi))
    rows = [(e["eigenvalue"], e["decay_rate"], e["fit_r2"]) for e in entries]
    return "decay", ["eigenvalue", "decay_rate", "fit_r2"], rows, {"window": [lo, hi], "entries": entries}, ()


def _run_sandwich(config, threads):
    bg, prof, dis = build_background(config), build_profile(config), build_disorder(config)
    p = build_params(config)
    rep = sandwich_check(bg, prof, dis, E=p["E"], eps=p["eps"], k=p["k"],
                         n_realizations=config.n_realizations, n_theta=config.theta_points,
                         k_big=p["k_big"], eta0=p["eta0"], seed=config.seed, threads=threads)
    return _check_output(rep)


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
    """Validate, dispatch, persist; seed and out_dir override a copy of config.  Exit codes: 0 ok,
    2 invalid, 3 task failures."""
    if seed is not None and isinstance(config.ensemble, dict):  # else validate refuses the ensemble
        n = _integral(seed)  # a seed that is no integer is kept as given, for validate to refuse
        config = replace(config, ensemble={**config.ensemble, "seed": seed if n is None else n})
    if out_dir is not None:
        config = replace(config, out=out_dir)
    diags = validate(config)
    try:
        threads = resolve_threads(threads)
    except ValueError as exc:
        diags.append(Diagnostic("error", f"threads: {exc}"))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        return RunResult(exit_code=2, diagnostics=diags)
    if dry_run:
        return RunResult(exit_code=0, diagnostics=diags)
    target = config.out
    os.makedirs(target, exist_ok=True)
    t0 = time.time()
    stem, header, rows, results, failures = _DRIVERS[config.kind](config, threads)
    resolved = resolved_dict(config)
    head = {"kind": config.kind, "config": resolved, "config_hash": _digest(resolved)}
    _write_csv(os.path.join(target, f"{stem}.csv"), header, rows)
    _write_json(os.path.join(target, f"{stem}.json"), head, results)
    failures = [str(f) for f in failures]
    manifest = RunManifest(config_hash=head["config_hash"], version=version.__version__,
                           kind=config.kind, seed=config.seed, threads=threads,
                           wall_time_s=time.time() - t0, files=[f"{stem}.csv", f"{stem}.json"],
                           failures=failures, blas_threads=_BLAS_THREADS)
    _dump_json(os.path.join(target, "manifest.json"), _jsonable(asdict(manifest)))
    code = 3 if failures else 0
    return RunResult(exit_code=code, diagnostics=diags, manifest=manifest,
                     out_dir=target)
