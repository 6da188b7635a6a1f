"""Declarative experiment descriptions: JSON schema, validation, hashing.

A config is one JSON document.  validate() returns diagnostics instead of
raising so a caller can list every problem at once; run pipelines refuse to
start when any diagnostic has severity "error".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .disorder import DisorderSpec, ValidationError
from .lattice import (BoxSpec, PeriodicBackground, SingleSiteProfile, compact_profile,
                      long_range_profile, short_range_profile)

__all__ = [
    "EXPERIMENT_KINDS",
    "Diagnostic",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "resolved_dict",
    "config_hash",
    "validate",
    "build_background",
    "build_profile",
    "build_disorder",
    "energy_grid",
]

EXPERIMENT_KINDS = ("bands", "ids", "lifshitz", "anderson", "bounds",
                    "wegner", "ile", "decay", "sandwich")
# params keys each kind reads without a default; then the choices `bounds`
# (evaluations[*].type) and `decay` (model) dispatch on, with the keys each reads
REQUIRED_PARAMS = {"anderson": ("k", "nu"), "lifshitz": ("k", "nu"), "wegner": ("E",),
                   "ile": ("E_plus", "k"), "sandwich": ("E", "eps", "k")}
BOUND_EVALUATIONS = {"chernoff": ("k", "delta"), "product1": ("eps", "alpha", "nu"),
                     "product2": ("eps", "alpha", "nu")}
DECAY_MODELS = {"lattice": (), "anderson": ("k", "nu")}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"{self.severity}: {self.message}"


@dataclass
class ExperimentConfig:
    kind: str
    geometry: dict = field(default_factory=dict)
    background: dict = field(default_factory=lambda: {"type": "identity"})
    profile: dict = field(default_factory=lambda: {"kind": "compact"})
    disorder: dict = field(default_factory=lambda: {"law": "uniform01"})
    energies: dict = field(default_factory=dict)
    ensemble: dict = field(default_factory=lambda: {"n_realizations": 1, "seed": 0})
    n_theta: int = 4
    params: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    out: str = "runs/out"

    @property
    def seed(self) -> int:
        return int(self.ensemble.get("seed", 0))

    @property
    def n_realizations(self) -> int:
        return int(self.ensemble.get("n_realizations", 1))


_KNOWN_TOP_KEYS = {"kind", "geometry", "background", "profile", "disorder",
                   "energies", "ensemble", "n_theta", "params", "solver", "out"}


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    unknown = set(doc) - _KNOWN_TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in doc:
        raise ValidationError("config requires a 'kind'")
    return ExperimentConfig(**doc)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def resolved_dict(config: ExperimentConfig) -> dict:
    """Canonical plain-dict form used for echoes and hashing.

    The output directory is where results land, not what the experiment is,
    so it is excluded; runs differing only in destination hash identically.
    """
    plain = asdict(config)
    plain.pop("out", None)
    return json.loads(json.dumps(plain, sort_keys=True))


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(resolved_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- builders -------------------------------------------------------------------


def _reject_unknown(block: dict, allowed: set, label: str):
    # typos in nested blocks would otherwise fall back to defaults silently
    unknown = set(block) - allowed
    if unknown:
        raise ValidationError(f"unknown {label} keys {sorted(unknown)}; "
                              f"allowed: {sorted(allowed)}")


_BACKGROUND_KEYS = {"identity": {"type"},
                    "two_phase": {"type", "low", "high", "axis"}}
_PROFILE_KEYS = {"compact": {"kind", "radius", "amplitude"},
                 "short_range": {"kind", "nu", "g_plus"},
                 "long_range": {"kind", "nu", "g_plus", "g_minus"}}
GEOMETRY_KEYS = {"d", "k", "m", "bc", "theta"}
ENSEMBLE_KEYS = {"n_realizations", "seed"}


def build_background(config: ExperimentConfig) -> PeriodicBackground:
    geo = config.geometry
    d, m = int(geo.get("d", 1)), int(geo.get("m", 2))
    bg = config.background
    kind = bg.get("type", "identity")
    if kind not in _BACKGROUND_KEYS:
        raise ValidationError(f"unknown background type {kind!r}")
    _reject_unknown(bg, _BACKGROUND_KEYS[kind], "background")
    if kind == "identity":
        return PeriodicBackground.identity(d=d, m=m)
    return PeriodicBackground.two_phase(m=m, low=float(bg.get("low", 1.0)),
                                        high=float(bg.get("high", 4.0)), d=d,
                                        axis=int(bg.get("axis", 0)))


def build_profile(config: ExperimentConfig) -> SingleSiteProfile:
    d = int(config.geometry.get("d", 1))
    p = config.profile
    kind = p.get("kind", "compact")
    if kind not in _PROFILE_KEYS:
        raise ValidationError(f"unknown profile kind {kind!r}")
    _reject_unknown(p, _PROFILE_KEYS[kind], "profile")
    if kind == "compact":
        return compact_profile(d=d, radius=float(p.get("radius", 0.5)),
                               amplitude=float(p.get("amplitude", 1.0)))
    if kind == "short_range":
        return short_range_profile(d=d, nu=float(p["nu"]),
                                   g_plus=float(p.get("g_plus", 1.0)))
    return long_range_profile(d=d, nu=float(p["nu"]),
                              g_plus=float(p.get("g_plus", 1.0)),
                              g_minus=p.get("g_minus"))


def build_disorder(config: ExperimentConfig) -> DisorderSpec:
    d = dict(config.disorder)
    law = d.pop("law", "uniform01")
    return DisorderSpec(law=law, **{k: float(v) for k, v in d.items()})


def build_box(config: ExperimentConfig) -> BoxSpec:
    geo = config.geometry
    theta = geo.get("theta")
    return BoxSpec(d=int(geo.get("d", 1)), k=int(geo.get("k", 1)),
                   m=int(geo.get("m", 2)), bc=geo.get("bc", "dirichlet"),
                   theta=tuple(theta) if theta is not None else None)


def energy_grid(config: ExperimentConfig) -> np.ndarray:
    e = config.energies
    if "values" in e:
        return np.asarray(e["values"], dtype=float)
    if {"min", "max", "count"} <= set(e):
        return np.linspace(float(e["min"]), float(e["max"]), int(e["count"]))
    raise ValidationError("energies need either 'values' or min/max/count")


def eps_grid(config: ExperimentConfig) -> np.ndarray:
    p = config.params
    if "eps_values" in p:
        return np.asarray(p["eps_values"], dtype=float)
    if {"eps_min", "eps_max", "eps_count"} <= set(p):
        return np.geomspace(float(p["eps_min"]), float(p["eps_max"]),
                            int(p["eps_count"]))
    raise ValidationError("params need either 'eps_values' or eps_min/eps_max/eps_count")


# -- validation -------------------------------------------------------------------


def _increasing(grid: np.ndarray):
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")


def _check_eps(config: ExperimentConfig):
    eps = eps_grid(config)
    if not np.all(eps > 0):
        raise ValidationError("eps values must be positive")
    if config.kind == "lifshitz":  # its energies are E_plus + eps
        _increasing(eps)


def _require(block: dict, keys, label: str):
    missing = [key for key in keys if key not in block]
    if missing:
        raise ValidationError(f"{label} requires {missing}")


def _check_choice(block: dict, key: str, default, table: dict):
    if not isinstance(block, dict):
        raise ValidationError(f"expected an object with a {key!r}, got {block!r}")
    choice = block.get(key, default)
    if choice not in table:
        raise ValidationError(f"unknown {key} {choice!r}; expected one of {sorted(table)}")
    _require(block, table[choice], f"{key} {choice!r}")


def _check_decay(config: ExperimentConfig, box_ok: bool):
    p = config.params
    _check_choice(p, "model", "lattice", DECAY_MODELS)
    if "window" in p:
        lo, hi = (float(v) for v in p["window"])
        if not lo < hi:
            raise ValidationError("window must be [lo, hi] with lo < hi")
        return
    if p.get("model", "lattice") == "anderson":
        dim = (2 * int(p["k"]) + 1) ** int(config.geometry.get("d", 1))
    elif box_ok:
        dim = build_box(config).n_nodes
    else:  # the geometry diagnostic already names the fault
        return
    if not 1 <= int(p.get("n_states", 5)) <= dim:
        raise ValidationError(f"n_states must lie in [1, {dim}], the operator's dimension")


def _try(diags: list, severity: str, fn, label: str):
    try:
        fn()
        return True
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        diags.append(Diagnostic(severity, f"{label}: {exc}"))
        return False


def validate(config: ExperimentConfig) -> list[Diagnostic]:
    """Coherence diagnostics; errors block a run, warnings do not."""
    diags: list[Diagnostic] = []
    if config.kind not in EXPERIMENT_KINDS:
        diags.append(Diagnostic("error",
                     f"unknown kind {config.kind!r}; expected one of {EXPERIMENT_KINDS}"))
        return diags
    _try(diags, "error",
         lambda: _reject_unknown(config.geometry, GEOMETRY_KEYS, "geometry"),
         "geometry")
    _try(diags, "error",
         lambda: _reject_unknown(config.ensemble, ENSEMBLE_KEYS, "ensemble"),
         "ensemble")
    if config.solver:
        diags.append(Diagnostic("error", f"solver: no solver options are supported; "
                                f"remove {sorted(config.solver)}"))
    geo_ok = _try(diags, "error", lambda: build_background(config), "background")
    profile_ok = _try(diags, "error", lambda: build_profile(config), "profile")
    if _try(diags, "error", lambda: build_disorder(config), "disorder"):
        diags.extend(Diagnostic("warning", f"disorder: {note}")
                     for note in build_disorder(config).diagnostics())
    if config.n_realizations < 1:
        diags.append(Diagnostic("error", "ensemble.n_realizations must be >= 1"))
    if config.n_theta < 1:
        diags.append(Diagnostic("error", "n_theta must be >= 1"))
    box_ok = config.kind in ("ids", "decay") and _try(
        diags, "error", lambda: build_box(config), "geometry")
    if config.kind in ("ids", "anderson"):
        _try(diags, "error", lambda: _increasing(energy_grid(config)), "energies")
    if config.kind in ("lifshitz", "wegner"):
        _try(diags, "error", lambda: _check_eps(config), "eps grid")
    if config.kind in ("ile", "wegner") and geo_ok and "theta" in config.params:
        bg = build_background(config)  # the boxes these kinds build are quasiperiodic
        _try(diags, "error", lambda: BoxSpec(d=bg.d, k=0, m=bg.m, bc="quasiperiodic",
                                             theta=tuple(config.params["theta"])), "params.theta")
    _try(diags, "error", lambda: _require(config.params, REQUIRED_PARAMS.get(config.kind, ()),
                                          f"kind {config.kind!r}"), "params")
    if config.kind == "bounds":
        for i, spec in enumerate(config.params.get("evaluations", [])):
            _try(diags, "error", lambda: _check_choice(spec, "type", None, BOUND_EVALUATIONS),
                 f"params.evaluations[{i}]")
    if config.kind == "decay":
        _try(diags, "error", lambda: _check_decay(config, box_ok), "params")
    if int(config.params.get("n_trials", 1)) < 1:
        diags.append(Diagnostic("error", "params.n_trials must be >= 1"))

    if profile_ok:
        prof = build_profile(config)
        d = prof.d
        if prof.kind == "long_range" and not d < prof.nu <= d + 2:
            diags.append(Diagnostic("error",
                         f"long_range decay nu={prof.nu} outside ({d}, {d+2}]"))
        if prof.kind == "short_range" and not prof.nu > d + 2:
            diags.append(Diagnostic("error",
                         f"short_range decay nu={prof.nu} must exceed d+2={d+2}"))
        if config.kind == "wegner" and prof.kind != "compact":
            diags.append(Diagnostic("warning",
                         "level-repulsion probe assumes a compactly supported "
                         "profile; results with unbounded range are not covered "
                         "by the estimate being tested"))

    if config.kind == "ile" and geo_ok and "E_plus" in config.params:
        _validate_gap(config, diags)
    return diags


def _validate_gap(config: ExperimentConfig, diags: list[Diagnostic]):
    """Numeric scan: the probe energy must sit inside a spectral gap."""
    from .spectral import floquet_bands, spectral_gaps
    E_probe = config.params["E_plus"]
    bg = build_background(config)
    bands = floquet_bands(bg, n_theta=int(config.params.get("gap_scan_n_theta", 32)))
    gaps = spectral_gaps(bands)
    inside = any(lo < float(E_probe) < hi for lo, hi, _, _ in gaps)
    if not inside:
        diags.append(Diagnostic("error",
                     f"probe energy {E_probe} is not inside any spectral gap of the "
                     f"reference medium (gaps: {[(round(a, 4), round(b, 4)) for a, b, _, _ in gaps]})"))
