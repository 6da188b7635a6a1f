"""Integrated-density-of-states curves on fixed energy grids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .disorder import ValidationError
from .runner import ensemble
from .stats import mean_stderr

__all__ = ["IDSCurve", "InsufficientDataError", "ensemble_curve"]


class InsufficientDataError(ValueError):
    """A fit or lookup has too little admissible data to proceed."""


@dataclass
class IDSCurve:
    """Counting-function values N(E) on an energy grid, per unit volume.

    values must be nonnegative and nondecreasing in E; stderr carries the
    ensemble standard error when the curve is a Monte Carlo mean.
    """

    energies: np.ndarray
    values: np.ndarray
    volume: float
    n_realizations: int = 1
    stderr: np.ndarray = None
    bc: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.energies.ndim != 1 or self.energies.shape != self.values.shape:
            raise ValidationError("energies and values must be 1d arrays of equal length")
        if np.any(np.diff(self.energies) <= 0):
            raise ValidationError("energy grid must be strictly increasing")
        scale = max(float(np.max(self.values, initial=0.0)), 1.0)
        if np.any(self.values < -1e-12 * scale):
            raise ValidationError("IDS values must be nonnegative")
        if np.any(np.diff(self.values) < -1e-12 * scale):
            raise ValidationError("IDS values must be nondecreasing in E")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)
            if self.stderr.shape != self.values.shape:
                raise ValidationError("stderr must match the energy grid")

    def value_at(self, E):
        """N at the grid energy E (a float), or at each energy of an array E (an array)."""
        values = self.values[self.index_of(E)]
        return float(values) if values.ndim == 0 else values

    def index_of(self, E):
        """The grid index of E, or of each energy of an array E, in one lookup: the first grid
        energy within 1e-9 (1 + max |energy|); InsufficientDataError names the first E off the grid."""
        E = np.asarray(E, dtype=float)
        scale = 1.0 + np.max(np.abs(self.energies))
        hits = np.abs(self.energies - E[..., None]) <= 1e-9 * scale
        missing = ~hits.any(axis=-1)
        if missing.any():
            raise InsufficientDataError(f"energy {E[missing].flat[0]} is not on the curve's grid")
        return hits.argmax(axis=-1)


def ensemble_curve(task, n: int, energies, volume: float, bc: str, threads: int = 1,
                   block: int = None, **meta) -> IDSCurve:
    """Ensemble mean of the counting functions task(i) on the grid, i < n
    (with `block`, task takes blocks of indices as in `runner.ensemble`).

    A failed realization is dropped, listed in meta["failures"] and left out
    of n_realizations; when every realization fails the first failure is
    raised.
    """
    samples, failures = ensemble(task, n, threads, block)
    mean, stderr = mean_stderr(samples)
    return IDSCurve(energies=energies, values=mean, volume=volume,
                    n_realizations=samples.shape[0], stderr=stderr, bc=bc,
                    meta={"counting": "monte_carlo", **meta, "failures": failures})
