"""The four benchmark workloads, as configs for `lifshitz_lab.experiments.run`.

A batch is one driver call.  Its size (realizations, or quasimomenta per
axis for `bands`) is chosen so a batch takes one to a few seconds on a
2-core machine with one BLAS thread; the timed loop runs as many batches as
fit in the run.  The `smoke` size only proves that every code path and
metric runs.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEED = 0  # seed of the warm-up batch compared with reference/*.json


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict          # config without ensemble / n_theta
    batch: dict         # size -> realizations, or n_theta for bands

    def config(self, size: str, seed: int) -> dict:
        doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in self.base.items()}
        if self.kind == "bands":
            doc["n_theta"] = self.batch[size]
        else:
            doc["ensemble"] = {"n_realizations": self.batch[size], "seed": int(seed)}
        return doc

    @property
    def kind(self) -> str:
        return self.base["kind"]

    def units(self, size: str) -> int:
        """Units per batch: realizations, or fibers for bands."""
        n = self.batch[size]
        return n ** self.base["geometry"]["d"] if self.kind == "bands" else n


_ENERGIES = {"min": 0.0, "max": 12.0, "count": 25}
_COMPACT = {"kind": "compact", "radius": 0.5, "amplitude": 1.0}

# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="ids_compact_d2",
        base={"kind": "ids", "geometry": {"d": 2, "k": 6, "m": 2, "bc": "dirichlet"},
              "profile": _COMPACT, "disorder": {"law": "uniform01"},
              "energies": _ENERGIES},
        batch={"full": 2, "smoke": 1}),
    Workload(
        name="ids_longrange_d2",
        base={"kind": "ids", "geometry": {"d": 2, "k": 2, "m": 2, "bc": "dirichlet"},
              "profile": {"kind": "long_range", "nu": 4.0},
              "disorder": {"law": "uniform01"}, "energies": _ENERGIES},
        batch={"full": 1, "smoke": 1}),
    Workload(
        name="bands_d2",
        base={"kind": "bands", "geometry": {"d": 2, "m": 16},
              "background": {"type": "two_phase", "low": 1.0, "high": 4.0}},
        batch={"full": 6, "smoke": 2}),
    Workload(
        name="tail_anderson_d1",
        base={"kind": "lifshitz", "geometry": {"d": 1}, "disorder": {"law": "uniform01"},
              "params": {"k": 128, "nu": 4.0, "E_plus": 0.0, "n_boot": 1000,
                         "fit_seed": 202, "eps_min": 0.01, "eps_max": 0.3,
                         "eps_count": 40}},
        batch={"full": 250, "smoke": 20}),
]}
