"""Declarative experiment descriptions: JSON schema, validation, hashing.

A config is one JSON document.  Each block is read in one place (`build_box`
reads geometry; `build_params` reads the params keys `PARAMS` lists for the
kind) by readers that refuse any value their cast would change; the drivers
take every value from these functions.  validate() runs them and returns
diagnostics instead of raising, one per bad key, so a caller can list every
problem at once; run pipelines refuse to start on any "error" diagnostic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .anderson import POTENTIAL_TOL, check_bound_args, truncation_radius_for
from .disorder import DisorderSpec, ValidationError
from .ids import DECAY_DENSE_LIMIT
from .lattice import (BCS, BoxSpec, PeriodicBackground, SingleSiteProfile, compact_profile,
                      long_range_profile, short_range_profile)
from .runner import _integral

__all__ = [
    "EXPERIMENT_KINDS",
    "PARAMS",
    "BLOCKS",
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
    "build_params",
    "energy_grid",
]

# -- readers --------------------------------------------------------------------
# A reader takes (value, label) and returns the value as the library receives
# it, or raises ValidationError.  A table maps each key to (reader, default); a
# key whose default is _REQUIRED must be given, and a null value stands for a
# null default.

_REQUIRED = object()


def _count(low: int = 0, high=math.inf):
    """Reader of an integer in [low, high): a JSON integer, or a float equal to one."""
    bound = f">= {low}" if high == math.inf else f"in [{low}, {high})"

    def read(value, label):
        n = _integral(value)
        if n is None or not low <= n < high:
            raise ValidationError(f"{label} must be an integer {bound}, got {value!r}")
        return n
    return read


def _number(above: float = -math.inf, cast=float):
    """Reader of a finite number > above, passed on as cast(value)."""
    def read(value, label):
        try:
            ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value) and float(value) == value and value > above)
        except OverflowError:  # an integer beyond float range
            ok = False
        if not ok:
            bound = "" if above == -math.inf else f" > {above}"
            raise ValidationError(f"{label} must be a finite number{bound}, got {value!r}")
        return cast(value)
    return read


def _flag(value, label):
    if not isinstance(value, bool):
        raise ValidationError(f"{label} must be true or false, got {value!r}")
    return value


def _listed(reader, least: int = 1):
    """Reader of a list of at least `least` items, each read by `reader`."""
    def read(value, label):
        if not isinstance(value, (list, tuple)) or len(value) < least:
            raise ValidationError(f"{label} must be a list of at least {least} items, got {value!r}")
        return [reader(item, f"{label}[{i}]") for i, item in enumerate(value)]
    return read


class _Choice(dict):
    """Reader of one of this dict's keys; each maps to the table of keys that choice reads."""

    def __call__(self, value, label):
        if not isinstance(value, str) or value not in self:
            raise ValidationError(f"{label} must be one of {sorted(self)}, got {value!r}")
        return value


_COUNT, _NUMBER, _NUMBERS = _count(), _number(), _listed(_number())
_COUNTS = _listed(_COUNT)


def _window(value, label):
    window = _NUMBERS(value, label)
    if len(window) != 2 or not window[0] < window[1]:
        raise ValidationError(f"{label} must be [lo, hi] with lo < hi, got {value!r}")
    return tuple(window)


def _read(block, table: dict, label: str, closed: bool = False, errors: list = None) -> dict:
    """The values of `table`'s keys in `block`; a choice's own table of keys follows it.

    The first error raises; with an `errors` list each key that does not read
    appends its error there instead and is left out.  A closed block refuses
    keys that no table read lists.
    """
    values, found, tables = {}, [], [table]
    if not isinstance(block, dict):
        found, block, tables = [ValidationError(f"{label} must be an object, got {block!r}")], {}, []
    for table in tables:  # grows as choices are read
        for key, (reader, default) in table.items():
            value = block.get(key, default)
            try:
                if value is _REQUIRED:
                    raise ValidationError(f"{label} requires {key!r}")
                values[key] = value if value is None and default is None else reader(value, f"{label}.{key}")
                if isinstance(reader, _Choice):
                    tables.append(reader[values[key]])
            except ValidationError as exc:
                found.append(exc)
    unknown = set(block).difference(*tables)
    if closed and unknown and not found:
        found.append(ValidationError(f"unknown {label} keys {sorted(unknown)}; "
                                     f"allowed: {sorted(set().union(*tables))}"))
    if found:
        if errors is None:
            raise found[0]
        errors.extend(found)
    return values


# -- tables ---------------------------------------------------------------------

GEOMETRY = {"d": (_COUNT, 1), "k": (_COUNT, 1), "m": (_COUNT, 2),
            "bc": (_Choice.fromkeys(BCS, {}), "dirichlet"), "theta": (_NUMBERS, None)}
ENSEMBLE = {"n_realizations": (_count(1), 1), "seed": (_count(0, 2**64), 0)}
BACKGROUNDS = _Choice(identity={}, two_phase={"low": (_NUMBER, 1.0), "high": (_NUMBER, 4.0),
                                              "axis": (_COUNT, 0)})
PROFILES = _Choice(compact={"radius": (_NUMBER, 0.5), "amplitude": (_NUMBER, 1.0)},
                   short_range={"nu": (_NUMBER, _REQUIRED), "g_plus": (_NUMBER, 1.0)},
                   long_range={"nu": (_NUMBER, _REQUIRED), "g_plus": (_NUMBER, 1.0)})
DISORDER_LAWS = _Choice(uniform01={}, kappa_tail={"kappa": (_NUMBER, DisorderSpec.kappa)},
                        bernoulli={"p": (_NUMBER, DisorderSpec.p), "a": (_NUMBER, DisorderSpec.a)})
ENERGIES = {"values": (_NUMBERS, None), "min": (_NUMBER, None), "max": (_NUMBER, None),
            "count": (_count(1), None)}

# a `bounds` evaluation: its type, then the arguments of that bound function;
# chernoff's truncation reaches the library (and bounds.json) as given
BOUND_EVALUATIONS = _Choice(
    chernoff={"k": (_COUNT, _REQUIRED), "delta": (_NUMBER, _REQUIRED), "K": (_NUMBER, 1.0),
              "C": (_NUMBER, 1.0), "d": (_count(1), 1),
              "truncation": (_number(0.0, cast=lambda v: v), None)},
    product1={"eps": (_NUMBER, _REQUIRED), "alpha": (_NUMBER, _REQUIRED), "nu": (_NUMBER, _REQUIRED),
              "d": (_count(1), 1)},
    product2={"eps": (_NUMBER, _REQUIRED), "alpha": (_NUMBER, _REQUIRED), "nu": (_NUMBER, _REQUIRED),
              "d": (_count(1), 1), "s": (_NUMBER, 1.0), "C": (_NUMBER, 1.0)})


def _evaluation(spec, label):
    """The type and arguments of one bound evaluation, its arguments in the bound's domain."""
    args = _read(spec, {"type": (BOUND_EVALUATIONS, _REQUIRED)}, label)
    check_bound_args(args["type"], args)
    return args


_ANDERSON = {"k": (_COUNT, _REQUIRED), "nu": (_NUMBER, _REQUIRED), "E_plus": (_NUMBER, 0.0)}
_ANDERSON_TOL = {**_ANDERSON, "potential_tol": (_number(0.0), POTENTIAL_TOL)}
_EPS = {"eps_values": (_listed(_number(0.0)), None), "eps_min": (_number(0.0), None),
        "eps_max": (_number(0.0), None), "eps_count": (_count(1), None)}
# kind -> {params key its driver reads: (reader, default)}; the least values are
# those its estimator enforces, and a null k_big is sandwich_check's 2k
PARAMS = {
    "bands": {},
    "ids": {},
    "lifshitz": {**_ANDERSON_TOL, **_EPS, "n_boot": (_count(1), 1000), "fit_seed": (_COUNT, 715517),
                 "nondegenerate": (_flag, True)},
    "anderson": _ANDERSON_TOL,
    "bounds": {"evaluations": (_listed(_evaluation, 0), [])},
    "wegner": {"E": (_NUMBER, _REQUIRED), **_EPS, "ks": (_COUNTS, [8, 16]),
               "n_trials": (_count(1), 100), "theta": (_NUMBERS, None),
               "min_exponent": (_NUMBER, 0.5), "volume_ratio_cap": (_NUMBER, 2.5)},
    "ile": {"E_plus": (_NUMBER, _REQUIRED), "k": (_count(2), _REQUIRED), "alpha": (_number(1.0), 1.2),
            "p": (_number(0.0), 2.0), "n_trials": (_count(1), 100), "theta": (_NUMBERS, None),
            "gap_scan_n_theta": (_count(1), 32)},
    "decay": {"model": (_Choice(lattice={}, anderson=_ANDERSON), "lattice"),
              "index": (_count(0, 2**64), 0), "window": (_window, None), "n_states": (_count(1), 5)},
    "sandwich": {"E": (_NUMBER, _REQUIRED), "eps": (_number(0.0), _REQUIRED), "k": (_COUNT, _REQUIRED),
                 "k_big": (_COUNT, None), "eta0": (_number(1.0), 1.5)},
}
EXPERIMENT_KINDS = tuple(PARAMS)
# kind -> the fields besides ensemble and params that its driver builds from
# (geometry also as the d and m of the background); validate refuses any other
# field given a value other than its default, since nothing would read it
_LATTICE = ("geometry", "background", "profile", "disorder")
BLOCKS = {
    "bands": ("geometry", "background", "n_theta"),
    "ids": (*_LATTICE, "energies"),
    "lifshitz": ("geometry", "disorder"),
    "anderson": ("geometry", "disorder", "energies"),
    "bounds": ("disorder",),
    "wegner": _LATTICE,
    "ile": _LATTICE,
    "decay": _LATTICE,
    "sandwich": (*_LATTICE, "n_theta"),
}
_DECAY_ANDERSON_BLOCKS = ("geometry", "disorder")  # decay with params.model "anderson"


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
        return _read(self.ensemble, ENSEMBLE, "ensemble")["seed"]

    @property
    def n_realizations(self) -> int:
        return _read(self.ensemble, ENSEMBLE, "ensemble")["n_realizations"]

    @property
    def theta_points(self) -> int:
        """n_theta, the quasimomenta per axis, as the drivers pass it on."""
        return _count(1)(self.n_theta, "n_theta")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(ExperimentConfig)}
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


def build_box(config: ExperimentConfig) -> BoxSpec:
    """The geometry block; its d and m are those of every medium the config builds."""
    return BoxSpec(**_read(config.geometry, GEOMETRY, "geometry", closed=True))


def build_background(config: ExperimentConfig) -> PeriodicBackground:
    box = build_box(config)
    bg = _read(config.background, {"type": (BACKGROUNDS, "identity")}, "background", closed=True)
    if bg.pop("type") == "identity":
        return PeriodicBackground.identity(d=box.d, m=box.m)
    if not bg["axis"] < box.d:
        raise ValidationError(f"background.axis must be below d = {box.d}, got {bg['axis']}")
    return PeriodicBackground.two_phase(m=box.m, d=box.d, **bg)


_PROFILE_BUILDERS = {"compact": compact_profile, "short_range": short_range_profile,
                     "long_range": long_range_profile}


def build_profile(config: ExperimentConfig) -> SingleSiteProfile:
    p = _read(config.profile, {"kind": (PROFILES, "compact")}, "profile", closed=True)
    return _PROFILE_BUILDERS[p.pop("kind")](d=build_box(config).d, **p)


def build_disorder(config: ExperimentConfig) -> DisorderSpec:
    return DisorderSpec(**_read(config.disorder, {"law": (DISORDER_LAWS, "uniform01")}, "disorder",
                                closed=True))


def build_params(config: ExperimentConfig) -> dict:
    """The value of every params key the kind's driver reads, defaults filled in.

    `params` is open: a key `PARAMS` does not list for the kind is not read.
    """
    return _read(config.params, PARAMS[config.kind], "params")


def _grid(values, lo, hi, count, spacing, need: str) -> np.ndarray:
    if values is not None and {lo, hi, count} == {None}:
        return np.asarray(values)
    if values is None and None not in (lo, hi, count):
        return spacing(lo, hi, count)
    raise ValidationError(need)


def energy_grid(config: ExperimentConfig) -> np.ndarray:
    e = _read(config.energies, ENERGIES, "energies", closed=True)
    return _grid(e["values"], e["min"], e["max"], e["count"], np.linspace,
                 "energies need either 'values' or min/max/count, not both")


def eps_grid(config: ExperimentConfig) -> np.ndarray:
    p = build_params(config)
    return _grid(p["eps_values"], p["eps_min"], p["eps_max"], p["eps_count"], np.geomspace,
                 "params need either 'eps_values' or eps_min/eps_max/eps_count, not both")


# -- validation -------------------------------------------------------------------
# The readers refuse single values; these checks span keys and read built values.


def _increasing(grid: np.ndarray):
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")


def _check_eps(config: ExperimentConfig):
    eps = eps_grid(config)
    if config.kind == "lifshitz":  # its energies are E_plus + eps
        _increasing(eps)


def _check_truncation(d: int, params: dict):
    # the Anderson potential's truncation cube; decay draws at the library's tolerance
    truncation_radius_for(d, params["nu"], params.get("potential_tol", POTENTIAL_TOL))


def _check_decay(box: BoxSpec, params: dict, given: dict):
    # given is the params block as written: params holds n_states's default either way
    if params["window"] is not None and "n_states" in given:
        raise ValidationError("params.n_states is not read when params.window is given; give one of them")
    if params["model"] == "anderson":
        _check_truncation(box.d, params)
        dim = (2 * params["k"] + 1) ** box.d
    else:
        dim = box.n_nodes
    if dim > DECAY_DENSE_LIMIT:
        raise ValidationError(f"the operator's dimension {dim} exceeds the dense limit {DECAY_DENSE_LIMIT}")
    if params["window"] is None and not params["n_states"] <= dim:
        raise ValidationError(f"n_states must lie in [1, {dim}], the operator's dimension")


def _try(diags: list, fn, label: str):
    try:
        fn()
        return True
    except (ValidationError, KeyError, TypeError, ValueError, OverflowError) as exc:
        message = str(exc)  # a reader's message starts with the key's path
        diags.append(Diagnostic("error", message if message.startswith(f"{label}.") else f"{label}: {message}"))
        return False


def validate(config: ExperimentConfig) -> list[Diagnostic]:
    """Coherence diagnostics; errors block a run, warnings do not."""
    diags: list[Diagnostic] = []
    if config.kind not in EXPERIMENT_KINDS:
        diags.append(Diagnostic("error",
                     f"unknown kind {config.kind!r}; expected one of {EXPERIMENT_KINDS}"))
        return diags
    if config.solver:
        diags.append(Diagnostic("error", f"solver: no solver options are supported; "
                                f"remove {config.solver!r}"))
    if not isinstance(config.out, str):
        diags.append(Diagnostic("error", f"out must be a path, got {config.out!r}"))
    reads, run_label = BLOCKS[config.kind], f"a {config.kind} run"
    if config.kind == "decay" and isinstance(config.params, dict) and config.params.get("model") == "anderson":
        reads, run_label = _DECAY_ANDERSON_BLOCKS, "a decay run of the anderson model"
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in (*reads, "kind", "ensemble", "params", "solver", "out"):
            continue
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if getattr(config, f.name) != default:
            diags.append(Diagnostic("error", f"{f.name}: {run_label} does not read it; remove it"))
    box_ok = "geometry" in reads and _try(diags, lambda: build_box(config), "geometry")
    geo_ok = box_ok and "background" in reads and _try(diags, lambda: build_background(config), "background")
    profile_ok = box_ok and "profile" in reads and _try(diags, lambda: build_profile(config), "profile")
    if "disorder" in reads and _try(diags, lambda: build_disorder(config), "disorder"):
        diags.extend(Diagnostic("warning", f"disorder: {note}")
                     for note in build_disorder(config).diagnostics())
    if "n_theta" in reads:
        _try(diags, lambda: config.theta_points, "n_theta")
    if "energies" in reads:
        _try(diags, lambda: _increasing(energy_grid(config)), "energies")
    errors = []  # one per key of the ensemble and params blocks that does not read
    _read(config.ensemble, ENSEMBLE, "ensemble", closed=True, errors=errors)
    params = _read(config.params, PARAMS[config.kind], "params", errors=errors)
    diags.extend(Diagnostic("error", str(exc)) for exc in errors)
    if not errors:
        if config.kind in ("lifshitz", "wegner"):
            _try(diags, lambda: _check_eps(config), "eps grid")
        if box_ok and params.get("theta") is not None:  # the boxes ile and wegner build are quasiperiodic
            _try(diags, lambda: dataclasses.replace(
                build_box(config), bc="quasiperiodic", theta=params["theta"]), "params.theta")
        if config.kind in ("anderson", "lifshitz") and box_ok:
            _try(diags, lambda: _check_truncation(build_box(config).d, params), "params")
        if config.kind == "decay" and box_ok:
            _try(diags, lambda: _check_decay(build_box(config), params, config.params), "params")
        if config.kind == "ile" and geo_ok:
            _try(diags, lambda: _check_gap(config, params), "params")
    if profile_ok and config.kind == "wegner" and build_profile(config).kind != "compact":
        diags.append(Diagnostic("error", "profile: the level-repulsion probe (wegner_check) "
                                "needs a compactly supported profile"))
    return diags


def _check_gap(config: ExperimentConfig, params: dict):
    """Numeric scan: the probe energy must sit inside a spectral gap."""
    from .spectral import floquet_bands, spectral_gaps
    gaps = spectral_gaps(floquet_bands(build_background(config), n_theta=params["gap_scan_n_theta"]))
    if not any(lo < params["E_plus"] < hi for lo, hi, _, _ in gaps):
        raise ValidationError(f"probe energy {params['E_plus']} is not inside any spectral gap of the "
                              f"reference medium (gaps: {[(round(a, 4), round(b, 4)) for a, b, _, _ in gaps]})")
