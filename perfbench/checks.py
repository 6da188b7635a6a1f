"""Output checks for the benchmark's driver runs.

Three kinds, each returning a list of problems (empty when the check holds):

* `sanity` - every timed batch: exit code, no task failures, and invariants
  of the artifacts (integer counts, monotone counting functions, sorted
  fibers, admissible fit points).
* `compare` - the warm-up batch at the reference seed against
  reference/<workload>.json, recorded from the package's seed commit by
  record_reference.py.  Integer-derived values must match exactly;
  floating values within RTOL of the field's largest magnitude.
* `independent` - one batch at the run's own seed, recounted by a path that
  shares no counting code with the driver: dense eigvalsh for inertia
  counts, inertia for the eigvalsh-based bands, and a numpy rebuild of the
  Anderson potential and Laplacian for the tail workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
import scipy.linalg

from lifshitz_lab.anderson import truncation_radius_for
from lifshitz_lab.config import (build_background, build_box, build_disorder,
                                 build_profile, energy_grid, parse_config)
from lifshitz_lab.disorder import lattice_cube, law_quantile, sample_realization, site_uniforms
from lifshitz_lab.experiments import run
from lifshitz_lab.lattice import (BoxSpec, assemble_operator, background_field,
                                  required_window, sample_coefficient_field)
from lifshitz_lab.spectral import counts_below

RTOL = 1e-9
INT_TOL = 1e-6  # a count recovered from a mean must be this close to an integer
# fixed energies at which bands are counted; none sits on a band edge
BANDS_COUNT_GRID = np.geomspace(0.137, 9000.0, 24)
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _results(out_dir: str, stem: str) -> dict:
    with open(os.path.join(out_dir, f"{stem}.json"), encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _csv_rows(out_dir: str, stem: str) -> np.ndarray:
    with open(os.path.join(out_dir, f"{stem}.csv"), encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _counts(x) -> tuple[list, float]:
    """Round to integers; also return the largest rounding distance."""
    x = np.asarray(x, dtype=float)
    r = np.rint(x)
    return r.astype(int).tolist(), float(np.max(np.abs(x - r), initial=0.0))


def summarize(wl, size: str, out_dir: str) -> dict:
    """Values compared with the reference: {"exact": ..., "float": ...}."""
    if wl.kind == "ids":
        r = _results(out_dir, "ids")
        n, vol = r["n_realizations"], r["volume"]
        counts, _ = _counts(np.asarray(r["N_mean"]) * vol * n)
        return {"exact": {"n_realizations": n, "counts": counts},
                "float": {"energies": r["energies"], "N_stderr": r["N_stderr"]}}
    if wl.kind == "bands":
        r = _results(out_dir, "bands")
        energy = _csv_rows(out_dir, "bands")[:, -1]
        return {"exact": {"rows": len(energy), "n_gaps": len(r["gaps"]),
                          "counts": [int(np.sum(energy <= e)) for e in BANDS_COUNT_GRID]},
                "float": {"band_ranges": np.ravel(r["band_ranges"]).tolist(),
                          "gaps": np.ravel(r["gaps"]).tolist()}}
    r = _results(out_dir, "expfit")
    rows = _csv_rows(out_dir, "expfit")
    scale = (2 * wl.base["params"]["k"] + 1) ** wl.base["geometry"]["d"] * wl.units(size)
    raw, _ = _counts(rows[:, 1] * scale) if len(rows) else ([], 0.0)
    fit = {key: r[key] for key in ("slope", "intercept", "ci_lo", "ci_hi", "r2") if key in r}
    return {"exact": {"n_points": r.get("n_points", 0), "raw_counts": raw},
            "float": {"eps": rows[:, 0].tolist() if len(rows) else [], **fit}}


def compare(reference: dict, got: dict) -> list:
    problems = []
    for key, want in reference["exact"].items():
        if got["exact"].get(key) != want:
            problems.append(f"{key}: {got['exact'].get(key)} != reference {want}")
    for key, want in reference["float"].items():
        want = np.asarray(want, dtype=float)
        have = np.asarray(got["float"].get(key, []), dtype=float)
        if have.shape != want.shape:
            problems.append(f"{key}: shape {have.shape} != reference {want.shape}")
            continue
        tol = RTOL * max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
        worst = float(np.max(np.abs(have - want), initial=0.0))
        if not worst <= tol:
            problems.append(f"{key}: off by {worst:.3e} > {tol:.3e}")
    return problems


def load_reference(wl, size: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{wl.name}.json"), encoding="utf-8") as fh:
        return json.load(fh)[size]


def digest(out_dir: str) -> str:
    """sha256 over the artifacts; the manifest carries wall time, so it is left out."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _nodes(wl) -> int:
    geo = wl.base["geometry"]
    if wl.kind == "bands":
        return geo["m"] ** geo["d"]
    return ((2 * geo["k"] + 1) * geo["m"] - 1) ** geo["d"]


def sanity(wl, size: str, result, out_dir: str) -> list:
    if result.exit_code != 0 or result.manifest.failures:
        return [f"exit code {result.exit_code}, task failures {result.manifest.failures}"]
    problems = []
    n = wl.units(size)
    if wl.kind == "ids":
        r = _results(out_dir, "ids")
        counts, off = _counts(np.asarray(r["N_mean"]) * r["volume"] * n)
        if r["n_realizations"] != n:
            problems.append(f"n_realizations {r['n_realizations']} != {n}")
        if off > INT_TOL:
            problems.append(f"ensemble count off an integer by {off:.2e}")
        if np.any(np.diff(counts) < 0) or min(counts) < 0 or max(counts) > n * _nodes(wl):
            problems.append("counting function not monotone within [0, n * nodes]")
        if not np.all(np.isfinite(r["N_stderr"])):
            problems.append("non-finite stderr")
    elif wl.kind == "bands":
        energy = _csv_rows(out_dir, "bands")[:, -1]
        if len(energy) != n * _nodes(wl):
            problems.append(f"{len(energy)} band rows, expected {n * _nodes(wl)}")
        fibers = energy.reshape(-1, _nodes(wl))
        if not np.all(np.isfinite(fibers)) or np.any(np.diff(fibers, axis=1) < 0):
            problems.append("fiber eigenvalues not finite and sorted")
    else:
        rows = _csv_rows(out_dir, "expfit")
        raw = rows[:, 1] * (2 * wl.base["params"]["k"] + 1) ** wl.base["geometry"]["d"] * n
        if len(rows):
            _, off = _counts(raw)
            if len(rows) < 4 or off > INT_TOL or np.any(raw < 5 - 1e-9):
                problems.append("fit points not admissible integer counts")
            if not np.isfinite(_results(out_dir, "expfit")["slope"]):
                problems.append("non-finite slope")
    return problems


# -- independent recounts ---------------------------------------------------------


def _leq(vals: np.ndarray, energies, eta: float) -> np.ndarray:
    # the package counts "<= E" as "strictly below E + eta"
    return np.searchsorted(vals, np.asarray(energies) + eta, side="left")


def independent(wl, size: str, seed: int, out_dir: str, work: str) -> list:
    """Recount one batch run at `seed` (artifacts in out_dir) another way."""
    cfg = parse_config(wl.config(size, seed))
    if wl.kind == "ids":
        bg, prof, dis, box = (build_background(cfg), build_profile(cfg),
                              build_disorder(cfg), build_box(cfg))
        energies = energy_grid(cfg)
        window = required_window(prof, box)
        total = np.zeros(len(energies), dtype=int)
        for i in range(cfg.n_realizations):
            field = sample_coefficient_field(bg, prof, sample_realization(dis, window, seed, i), box)
            dense = assemble_operator(field).matrix.toarray()
            vals = scipy.linalg.eigvalsh(dense)
            total += _leq(vals, energies, 1e-12 * float(np.abs(dense).sum(axis=0).max()))
        got = summarize(wl, size, out_dir)["exact"]["counts"]
        return [] if got == total.tolist() else [f"inertia counts {got} != eigvalsh {total.tolist()}"]
    if wl.kind == "bands":
        rows = _csv_rows(out_dir, "bands")
        n = _nodes(wl)
        fiber = seed % wl.units(size)
        block = rows[fiber * n:(fiber + 1) * n]
        theta, vals = tuple(block[0, :-2]), block[:, -1]
        geo = cfg.geometry
        field = background_field(build_background(cfg),
                                 BoxSpec(d=geo["d"], k=0, m=geo["m"], bc="quasiperiodic"))
        op = assemble_operator(field, theta=theta)
        gaps = np.diff(vals)
        idx = [j for j in np.linspace(0, n - 2, 8).astype(int)
               if gaps[j] > 1e-6 * max(abs(vals[-1]), 1.0)]
        want = [j + 1 for j in idx]
        got = counts_below(op, [(vals[j] + vals[j + 1]) / 2 for j in idx]).tolist()
        return [] if got == want else [f"fiber {fiber}: inertia {got} != eigvalsh {want}"]
    # lifshitz: one Anderson realization through the driver, against a numpy
    # rebuild of the potential (direct convolution) and the box Laplacian.  The
    # tail energies rarely hold an eigenvalue of a single realization, so it is
    # counted across its whole spectrum (Laplacian in [0, 4] plus v <= 1.2).
    p = cfg.params
    k, nu, e_plus, tol = int(p["k"]), float(p["nu"]), float(p["E_plus"]), 1e-8
    energies = e_plus + np.linspace(0.0, 5.5, 221)
    one = parse_config({**wl.config(size, seed), "kind": "anderson",
                        "energies": {"values": energies.tolist()},
                        "ensemble": {"n_realizations": 1, "seed": seed}})
    res = run(one, out_dir=os.path.join(work, "independent"), threads=1)
    if res.exit_code != 0:
        return [f"anderson driver exit code {res.exit_code}"]
    r = _results(os.path.join(work, "independent"), "ids")
    got, _ = _counts(np.asarray(r["N_mean"]) * r["volume"])
    radius = truncation_radius_for(1, nu, tol)
    omega = law_quantile(build_disorder(cfg),
                         site_uniforms(seed, 0, lattice_cube(1, k + radius)))
    kernel = (1.0 + np.abs(np.arange(-radius, radius + 1))) ** (-nu)
    v = np.convolve(omega, kernel, mode="valid")
    n = 2 * k + 1
    degree = np.full(n, 2.0)
    degree[[0, -1]] = 1.0
    vals = scipy.linalg.eigvalsh(np.diag(degree + e_plus + v) - np.eye(n, k=1) - np.eye(n, k=-1))
    want = _leq(vals, energies, 1e-12 * float(np.max(np.abs(vals)))).tolist()
    return [] if got == want else [f"driver counts {got} != rebuilt {want}"]
