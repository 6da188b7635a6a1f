"""Declarative experiment descriptions: JSON schema, validation, hashing.

A config is one JSON document.  `MODELS` gives each (kind, model) the blocks (and
geometry and ensemble keys) its driver reads, its params table and its
cross-key checks.  Each block is read in one place (`build_box` reads geometry,
`build_params` the params keys of the run's row) by readers that refuse any
value their cast would change; the drivers take every value from these
functions.  validate() refuses every other block and key, runs the readers and
the checks whose inputs read, and returns diagnostics instead of raising, one
per bad key; run pipelines refuse to start on any "error" diagnostic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .anderson import POTENTIAL_TOL, check_bound_args, truncation_radius_for
from .disorder import DisorderSpec, ValidationError
from .ids import DECAY_DENSE_LIMIT
from .lattice import (BCS, BoxSpec, PeriodicBackground, SingleSiteProfile, _cell_periods, background_field,
                      compact_profile, long_range_profile, short_range_profile)
from .runner import _integral
from .spectral import DENSE_THRESHOLD, floquet_bands, spectral_gaps

__all__ = ["MODELS", "EXPERIMENT_KINDS", "Diagnostic", "ExperimentConfig", "load_config", "parse_config",
           "resolved_dict", "config_hash", "validate", "build_background", "build_profile", "build_disorder",
           "build_params", "energy_grid"]

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


class _Errors(ValidationError):
    """The errors of several items of one list, its args; `_read` reports each on its own."""


def _listed(reader, least: int = 1):
    """Reader of a list of at least `least` items, each read by `reader`; every item that does not
    read adds its error."""
    def read(value, label):
        if not isinstance(value, (list, tuple)) or len(value) < least:
            raise ValidationError(f"{label} must be a list of at least {least} items, got {value!r}")
        items, found = [], []
        for i, item in enumerate(value):
            try:
                items.append(reader(item, f"{label}[{i}]"))
            except ValidationError as exc:
                found.append(exc)
        if found:
            raise found[0] if len(found) == 1 else _Errors(*found)
        return items
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


def _read(block, table: dict, label: str, closed: bool = False, errors: list = None, keys: tuple = None) -> dict:
    """The values of `table`'s keys in `block`; a choice's own table of keys follows it.

    The first error raises; with an `errors` list each key that does not read
    appends its error there instead and is left out.  A closed block refuses
    keys that no table lists.  A key not among `keys` (if given) keeps its default.
    """
    values, found, tables = {}, [], [table]
    if not isinstance(block, dict):
        found, block, tables = [ValidationError(f"{label} must be an object, got {block!r}")], {}, []
    for table in tables:  # grows as choices are read
        for key, (reader, default) in table.items():
            value = block.get(key, default) if keys is None or key in keys else default
            try:
                if value is _REQUIRED:
                    raise ValidationError(f"{label} requires {key!r}")
                values[key] = value if value is None and default is None else reader(value, f"{label}.{key}")
                if isinstance(reader, _Choice):
                    tables.append(reader[values[key]])
            except ValidationError as exc:
                found.extend(exc.args if isinstance(exc, _Errors) else [exc])
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
_KEYED = {"geometry": GEOMETRY, "ensemble": ENSEMBLE}  # the blocks a row of MODELS may read in part
BACKGROUNDS = _Choice(identity={}, two_phase={"low": (_NUMBER, 1.0), "high": (_NUMBER, 4.0),
                                              "axis": (_COUNT, 0)})
PROFILES = _Choice(compact={"radius": (_NUMBER, 0.5), "amplitude": (_NUMBER, 1.0)},
                   short_range={"nu": (_NUMBER, _REQUIRED), "g_plus": (_NUMBER, 1.0)},
                   long_range={"nu": (_NUMBER, _REQUIRED), "g_plus": (_NUMBER, 1.0)})
DISORDER_LAWS = _Choice(uniform01={}, kappa_tail={"kappa": (_NUMBER, DisorderSpec.kappa)},
                        bernoulli={"p": (_NUMBER, DisorderSpec.p), "a": (_NUMBER, DisorderSpec.a)})
ENERGIES = {"values": (_NUMBERS, None), "min": (_NUMBER, None), "max": (_NUMBER, None),
            "count": (_count(1), None)}

# a `bounds` evaluation: its type (a key of anderson.BOUNDS), then the arguments of that
# bound function; chernoff's truncation reaches the library (and bounds.json) as given
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
    try:
        check_bound_args(args["type"], args)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from None
    return args


_ANDERSON = {"k": (_COUNT, _REQUIRED), "nu": (_NUMBER, _REQUIRED), "E_plus": (_NUMBER, 0.0)}
_ANDERSON_TOL = {**_ANDERSON, "potential_tol": (_number(0.0), POTENTIAL_TOL)}
_EPS = {"eps_values": (_listed(_number(0.0)), None), "eps_min": (_number(0.0), None),
        "eps_max": (_number(0.0), None), "eps_count": (_count(1), None)}
_DECAY = {"model": (_Choice(lattice={}, anderson=_ANDERSON), "lattice"),
          "index": (_count(0, 2**64), 0), "window": (_window, None), "n_states": (_count(1), 5)}


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
        return _read(self.ensemble, ENSEMBLE, "ensemble", keys=("seed",))["seed"]

    @property
    def n_realizations(self) -> int:
        return _read(self.ensemble, ENSEMBLE, "ensemble", keys=("n_realizations",))["n_realizations"]

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
    return _digest(resolved_dict(config))


def _digest(resolved: dict) -> str:
    """config_hash of the config whose resolved_dict is `resolved`."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- builders -------------------------------------------------------------------


# log2 of the most coefficient values, m**d * d**2, that a medium's unit cell may hold (128 MB)
CELL_LOG2 = 24


def build_box(config: ExperimentConfig) -> BoxSpec:
    """The geometry block; its d and m are those of every medium the config builds.

    Its unit cell is bounded on logarithms, so no power of d or m is formed; a
    d above CELL_LOG2 exceeds the bound alone (m >= 2), and is refused before
    any float of it is formed.
    """
    box = BoxSpec(**_read(config.geometry, GEOMETRY, "geometry", closed=True,
                          keys=MODELS[_model(config)].blocks["geometry"]))
    if box.d > CELL_LOG2 or box.d * math.log2(box.m) + 2 * math.log2(box.d) > CELL_LOG2:
        raise ValidationError(f"a unit cell of m**d * d**2 coefficient values above 2**{CELL_LOG2} "
                              f"is too large (d = {box.d}, m = {box.m})")
    return box


def build_background(config: ExperimentConfig) -> PeriodicBackground:
    box = build_box(config)
    bg = _read(config.background, {"type": (BACKGROUNDS, "identity")}, "background", closed=True)
    if bg.pop("type") == "identity":
        return PeriodicBackground.identity(d=box.d, m=box.m)
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
    """The value of every params key the run's driver reads, defaults filled in.

    `params` is open: a key its row of `MODELS` does not list is not read.
    """
    return _read(config.params, MODELS[_model(config)].params, "params")


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


# -- models ---------------------------------------------------------------------
# The readers refuse single values; a model's checks span keys and read built values.


def _increasing(grid: np.ndarray):
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")


def _check_truncation(config: ExperimentConfig, params: dict) -> int:
    """The box's d, after checking the Anderson potential's truncation cube (decay's at the library's tol)."""
    d = build_box(config).d
    truncation_radius_for(d, params["nu"], params.get("potential_tol", POTENTIAL_TOL))
    return d


def _check_decay(dim, config: ExperimentConfig, params: dict):
    """The decay check of an operator of dimension dim(config, params)."""
    # config.params is the block as written: params holds n_states's default either way
    if params["window"] is not None and "n_states" in config.params:
        raise ValidationError("params.n_states is not read when params.window is given; give one of them")
    n = dim(config, params)
    if n > DECAY_DENSE_LIMIT:
        raise ValidationError(f"the operator's dimension {n} exceeds the dense limit {DECAY_DENSE_LIMIT}")
    if params["window"] is None and not params["n_states"] <= n:
        raise ValidationError(f"n_states must lie in [1, {n}], the operator's dimension")


def _check_block(nodes, config: ExperimentConfig, params: dict):
    """A Floquet fiber's largest dense block, nodes(config, params), must not exceed DENSE_THRESHOLD."""
    if (n := nodes(config, params)) > DENSE_THRESHOLD:
        raise ValidationError(f"a Floquet fiber's largest block has {n} nodes, above the dense limit {DENSE_THRESHOLD}")


_FOLDED = partial(_check_block, lambda config, p: math.prod(_cell_periods(background_field(
    build_background(config), dataclasses.replace(build_box(config), k=0, bc="quasiperiodic")))))


def _check_gap(config: ExperimentConfig, params: dict):
    """Numeric scan, once the medium's blocks are bounded: the probe energy must sit inside a spectral gap."""
    _FOLDED(config, params)
    gaps = spectral_gaps(floquet_bands(build_background(config), n_theta=params["gap_scan_n_theta"]))
    if not any(lo < params["E_plus"] < hi for lo, hi, _, _ in gaps):
        raise ValidationError(f"probe energy {params['E_plus']} is not inside any spectral gap of the "
                              f"reference medium (gaps: {[(round(a, 4), round(b, 4)) for a, b, _, _ in gaps]})")


def _check_compact(config: ExperimentConfig, params: dict):
    if build_profile(config).kind != "compact":
        raise ValidationError("the level-repulsion probe (wegner_check) needs a compactly supported profile")


# (kind, model) -> Model; model is params.model in a row that names one, else None.
#   blocks: each field besides params its driver reads -> its keys read, or None for
#     all (ensemble.seed by every run, for manifest.json); validate refuses any other
#     field or key given a value other than its default, since nothing would read it.
#   params: params key -> (reader, default); the least values are those its
#     estimator enforces, and a null k_big is sandwich_check's 2k.
#   checks: (label, what it reads, fn(config, params)), run in order once each
#     block it names reads, and "params" once the ensemble and params blocks do.
Model = namedtuple("Model", "blocks params checks", defaults=[()])
_LATTICE = {"geometry": ("d", "m"), "background": None, "profile": None, "disorder": None}
_ANDERSON_BLOCKS, _SEED, _ENSEMBLE = {"geometry": ("d",), "disorder": None}, {"ensemble": ("seed",)}, {"ensemble": None}
# the boxes ile and wegner build are quasiperiodic
_THETA = ("params.theta", ("geometry", "params"), lambda config, p: p["theta"] is None or dataclasses.replace(
    build_box(config), bc="quasiperiodic", theta=p["theta"]))
_TRUNCATION = ("params", ("geometry", "params"), _check_truncation)
MODELS = {
    ("bands", None): Model({"geometry": ("d", "m"), "background": None, "n_theta": None, **_SEED}, {},
                           (("background", ("background",), _FOLDED),)),
    ("ids", None): Model({**_LATTICE, "geometry": None, "energies": None, **_ENSEMBLE}, {}),
    ("lifshitz", None): Model({**_ANDERSON_BLOCKS, **_ENSEMBLE}, {  # its energies, E_plus + eps, must increase
        **_ANDERSON_TOL, **_EPS, "n_boot": (_count(1), 1000), "fit_seed": (_COUNT, 715517),
        "nondegenerate": (_flag, True)},
        (("eps grid", ("params",), lambda config, p: _increasing(eps_grid(config))), _TRUNCATION)),
    ("anderson", None): Model({**_ANDERSON_BLOCKS, "energies": None, **_ENSEMBLE}, _ANDERSON_TOL, (_TRUNCATION,)),
    ("bounds", None): Model({"disorder": None, **_SEED}, {"evaluations": (_listed(_evaluation, 0), [])}),
    ("wegner", None): Model({**_LATTICE, **_SEED}, {
        "E": (_NUMBER, _REQUIRED), **_EPS, "ks": (_COUNTS, [8, 16]), "n_trials": (_count(1), 100),
        "theta": (_NUMBERS, None), "min_exponent": (_NUMBER, 0.5), "volume_ratio_cap": (_NUMBER, 2.5)},
        (("eps grid", ("params",), lambda config, p: eps_grid(config)), _THETA,
         ("profile", ("profile",), _check_compact))),
    ("ile", None): Model({**_LATTICE, **_SEED}, {
        "E_plus": (_NUMBER, _REQUIRED), "k": (_count(2), _REQUIRED), "alpha": (_number(1.0), 1.2),
        "p": (_number(0.0), 2.0), "n_trials": (_count(1), 100), "theta": (_NUMBERS, None),
        "gap_scan_n_theta": (_count(1), 32)},
        (_THETA, ("params", ("background", "params"), _check_gap))),
    ("decay", None): Model({**_LATTICE, "geometry": None, **_SEED}, _DECAY, (("params", ("geometry", "params"), partial(
        _check_decay, lambda config, p: build_box(config).n_nodes)),)),
    ("decay", "anderson"): Model({**_ANDERSON_BLOCKS, **_SEED}, _DECAY, (("params", ("geometry", "params"), partial(
        _check_decay, lambda config, p: (2 * p["k"] + 1) ** _check_truncation(config, p))),)),
    ("sandwich", None): Model({**_LATTICE, "n_theta": None, **_ENSEMBLE}, {
        "E": (_NUMBER, _REQUIRED), "eps": (_number(0.0), _REQUIRED), "k": (_COUNT, _REQUIRED),
        "k_big": (_COUNT, None), "eta0": (_number(1.0), 1.5)},
        (("params", ("geometry", "params"), partial(  # a random pattern's fibers fold to one block
            _check_block, lambda config, p: ((2 * p["k"] + 1) * build_box(config).m) ** build_box(config).d)),)),
}
EXPERIMENT_KINDS = tuple(kind for kind, model in MODELS if model is None)


def _model(config: ExperimentConfig) -> tuple:
    """config's key in MODELS: its kind, and its params.model where a row names that model."""
    model = config.params.get("model") if isinstance(config.params, dict) else None
    key = (config.kind, model)
    return key if isinstance(model, str) and key in MODELS else (config.kind, None)


# -- validation -------------------------------------------------------------------


def _try(diags: list, fn, label: str):
    try:
        fn()
        return True
    except (ValidationError, KeyError, TypeError, ValueError, OverflowError) as exc:
        message = str(exc)  # a reader's message starts with the key's path
        diags.append(Diagnostic("error", message if message.startswith(f"{label}.") else f"{label}: {message}"))
        return False


def _at_default(value, default) -> bool:
    """value == default, except that a bool never equals a non-bool (in Python True == 1)."""
    return isinstance(value, bool) == isinstance(default, bool) and value == default


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
    kind, model = _model(config)
    row, run_label = MODELS[kind, model], f"a{'n' * (kind[0] in 'aeiou')} {kind} run" + (
        f" of the {model} model" if model else "")
    for f in dataclasses.fields(ExperimentConfig):
        value, keys = getattr(config, f.name), row.blocks.get(f.name)
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        read_by_row = f.name in (*row.blocks, "kind", "params", "solver", "out")
        unread = [] if read_by_row or _at_default(value, default) else [f.name]
        if keys and isinstance(value, dict):  # a block the row reads in part
            unread = [f"{f.name}.{key}" for key, (_, default) in _KEYED[f.name].items()
                      if key not in keys and not _at_default(value.get(key, default), default)]
        diags.extend(Diagnostic("error", f"{name}: {run_label} does not read it; remove it") for name in unread)
    read = set()  # the blocks that read, and "params" once the ensemble and params blocks do
    for block, needs, fn in [
            ("geometry", (), build_box), ("background", ("geometry",), build_background),
            ("profile", ("geometry",), build_profile),
            ("disorder", (), lambda c: diags.extend(Diagnostic("warning", f"disorder: {note}")
                                                    for note in build_disorder(c).diagnostics())),
            ("n_theta", (), lambda c: c.theta_points), ("energies", (), lambda c: _increasing(energy_grid(c)))]:
        if block in row.blocks and read.issuperset(needs) and _try(diags, lambda: fn(config), block):
            read.add(block)
    errors = []  # one per key of the ensemble and params blocks that does not read
    _read(config.ensemble, ENSEMBLE, "ensemble", closed=True, errors=errors, keys=row.blocks["ensemble"])
    params = _read(config.params, row.params, "params", errors=errors)
    diags.extend(Diagnostic("error", str(exc)) for exc in errors)
    if not errors:
        read.add("params")
    for label, needs, check in row.checks:
        if read.issuperset(needs):
            _try(diags, lambda: check(config, params), label)
    return diags
