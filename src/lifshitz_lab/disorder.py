"""Disorder laws on [0,1] and counter-based sampling of coupling fields.

Each lattice site gamma carries an i.i.d. coupling omega_gamma in [0,1].
Site values are produced by a stateless counter construction: a 64-bit hash
of (seed, realization index, packed site coordinates) is pushed through the
SplitMix64 finalizer and mapped to a uniform variate, which is then sent
through the inverse CDF of the configured law.  The same (seed, index, site)
triple therefore yields bit-identical values on every platform, independent
of evaluation order or parallelism.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DisorderSpec",
    "Realization",
    "CoverageError",
    "ValidationError",
    "law_cdf",
    "law_quantile",
    "site_uniforms",
    "encode_sites",
    "sample_realization",
    "lattice_cube",
]

LAWS = ("uniform01", "kappa_tail", "bernoulli")

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


class ValidationError(ValueError):
    """A spec or argument fails its declared constraints."""


class CoverageError(ValueError):
    """A realization does not cover all requested lattice sites."""

    def __init__(self, missing):
        self.missing_sites = [tuple(int(c) for c in row) for row in missing]
        preview = ", ".join(map(str, self.missing_sites[:8]))
        more = "" if len(self.missing_sites) <= 8 else f" (+{len(self.missing_sites) - 8} more)"
        super().__init__(f"realization window misses {len(self.missing_sites)} sites: {preview}{more}")


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer; z is a uint64 ndarray, arithmetic wraps mod 2^64.
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _fold_signed(coords: np.ndarray) -> np.ndarray:
    # Zig-zag fold Z -> N: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
    c = np.asarray(coords, dtype=np.int64)
    return ((c << 1) ^ (c >> 63)).view(np.uint64)


@functools.lru_cache(maxsize=None)
def _byte_spread(d: int) -> np.ndarray:
    # bit i of a byte moves to bit d*i; read-only, shared by every caller
    byte = np.arange(256, dtype=np.uint64)
    table = np.zeros(256, dtype=np.uint64)
    for i in range(min(8, 63 // d)):
        table |= ((byte >> _U64(i)) & _U64(1)) << _U64(d * i)
    table.flags.writeable = False
    return table


def encode_sites(sites: np.ndarray) -> np.ndarray:
    """Pack integer lattice sites into uint64 codes (Morton bit interleave).

    Coordinates are zig-zag folded to nonnegative integers first, so the
    packing is injective over the permitted range |coordinate| < 2**(bits-1)
    with bits = 63 // d per axis.  Bit b of axis a lands on bit d*b + a; the
    interleave goes a byte at a time through a 256-entry spread table.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
    n, d = sites.shape
    bits = 63 // d
    folded = _fold_signed(sites)
    if np.any(folded >= (1 << bits)):
        raise ValidationError(f"site coordinate out of packable range for d={d} (|c| < 2**{bits - 1})")
    if d == 1:
        return folded[:, 0]
    table = _byte_spread(d)
    octets = np.ascontiguousarray(folded, dtype="<u8").view(np.uint8).reshape(n, d, 8)
    code = np.zeros(n, dtype=np.uint64)
    for byte in range(-(-bits // 8)):
        for axis in range(d):
            code |= table[octets[:, axis, byte]] << _U64(8 * d * byte + axis)
    return code


def site_uniforms(seed: int, index: int, sites: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variates attached to (seed, index, site) triples.

    Pure function of its arguments; returns float64 strictly inside (0,1).
    """
    if not 0 <= int(seed) < 2**64:
        raise ValidationError("seed must be a uint64")
    if not 0 <= int(index) < 2**64:
        raise ValidationError("index must be a uint64")
    code = encode_sites(sites)
    h_seed = _mix64(np.array([np.uint64(seed) + _GOLDEN], dtype=np.uint64))
    h_index = _mix64(np.array([np.uint64(index) + _GOLDEN], dtype=np.uint64))
    h = _mix64(h_seed ^ h_index)
    h = _mix64(h ^ _mix64(code + _GOLDEN))
    # 53-bit mantissa, offset by half a step: never exactly 0 or 1.
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class DisorderSpec:
    """Single-site coupling law.

    law = "uniform01":  omega ~ Uniform[0,1], tail index kappa = 0.
    law = "kappa_tail": P(omega <= eps) = exp(1 - eps**-kappa) on (0,1];
                        tail index kappa > 0 in the double-log sense.
    law = "bernoulli":  P(omega = a) = p, P(omega = 0) = 1 - p, a in [0,1].
    """

    law: str = "uniform01"
    kappa: float = 1.0
    p: float = 0.5
    a: float = 1.0

    def __post_init__(self):
        if self.law not in LAWS:
            raise ValidationError(f"unknown law {self.law!r}, expected one of {LAWS}")
        if self.law == "kappa_tail" and not self.kappa > 0:
            raise ValidationError("kappa_tail law requires kappa > 0")
        if self.law == "bernoulli":
            if not 0.0 <= self.p <= 1.0:
                raise ValidationError("bernoulli weight p must lie in [0,1]")
            if not 0.0 <= self.a <= 1.0:
                raise ValidationError("bernoulli amplitude a must lie in [0,1]")

    def diagnostics(self) -> list[str]:
        """Non-fatal warnings, e.g. a degenerate (constant) law."""
        notes = []
        if self.law == "bernoulli" and (self.p in (0.0, 1.0) or self.a == 0.0):
            notes.append("bernoulli law is degenerate (constant omega); tail probes are meaningless")
        return notes

    @property
    def tail_index(self) -> float:
        if self.law == "uniform01":
            return 0.0
        if self.law == "kappa_tail":
            return self.kappa
        raise ValidationError("bernoulli law has no polynomial tail index")


def law_cdf(spec: DisorderSpec, eps) -> np.ndarray | float:
    """P(omega <= eps) for eps in [0,1]."""
    e = np.asarray(eps, dtype=float)
    if np.any(e < 0.0) or np.any(e > 1.0):
        raise ValidationError("cdf argument must lie in [0,1]")
    if spec.law == "uniform01":
        out = e.copy()
    elif spec.law == "kappa_tail":
        out = np.zeros_like(e)
        pos = e > 0.0
        out[pos] = np.exp(1.0 - e[pos] ** (-spec.kappa))
    else:
        out = np.where(e >= spec.a, 1.0, 1.0 - spec.p)
        # mass 1-p sits at 0, so F(eps) = 1-p already for eps in [0, a)
    return out if np.ndim(eps) else float(out)


def law_quantile(spec: DisorderSpec, u) -> np.ndarray | float:
    """Inverse CDF on (0,1); maps uniforms to couplings in [0,1]."""
    uu = np.asarray(u, dtype=float)
    if np.any(uu <= 0.0) or np.any(uu >= 1.0):
        raise ValidationError("quantile argument must lie strictly inside (0,1)")
    if spec.law == "uniform01":
        out = uu.copy()
    elif spec.law == "kappa_tail":
        out = (1.0 - np.log(uu)) ** (-1.0 / spec.kappa)
    else:
        out = np.where(uu > 1.0 - spec.p, spec.a, 0.0)
    return out if np.ndim(u) else float(out)


@dataclass
class Realization:
    """Couplings over a finite lattice window, pinned to (seed, index)."""

    spec: DisorderSpec
    window: np.ndarray  # (n, d) int64 site coordinates
    values: np.ndarray  # (n,) float64 couplings in [0,1]
    seed: int
    index: int
    _sorted: tuple = field(default=None, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.window.shape[1]

    def _index_of(self, sites: np.ndarray) -> np.ndarray:
        # window positions by binary search over the sorted Morton codes; a
        # site listed twice resolves to its last position
        sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
        if sites.shape[1] != self.d:
            raise CoverageError(sites)
        if self._sorted is None:
            codes = encode_sites(self.window)
            order = np.argsort(codes, kind="stable")
            self._sorted = (codes[order], order)
        keys, order = self._sorted
        half = 1 << (63 // self.d - 1)
        packable = np.all((sites >= -half) & (sites < half), axis=1)
        codes = encode_sites(np.where(packable[:, None], sites, 0))
        pos = np.searchsorted(keys, codes, side="right") - 1
        found = packable & (pos >= 0)
        found[found] = keys[pos[found]] == codes[found]
        if not found.all():
            raise CoverageError(sites[~found])
        return order[pos]

    def values_at(self, sites: np.ndarray) -> np.ndarray:
        """Couplings on the given sites; CoverageError if any lie outside."""
        return self.values[self._index_of(sites)]


def lattice_cube(d: int, radius: int) -> np.ndarray:
    """All integer sites with max-norm at most radius, row-major order, (n,d)."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def sample_realization(spec: DisorderSpec, window: np.ndarray, seed: int, index: int) -> Realization:
    """Draw the coupling field on a window of lattice sites.

    The draw is a pure function of (spec, seed, index, site); windows may be
    grown or reordered later without changing values on shared sites.
    """
    window = np.atleast_2d(np.asarray(window, dtype=np.int64))
    u = site_uniforms(seed, index, window)
    values = np.asarray(law_quantile(spec, u), dtype=float)
    return Realization(spec=spec, window=window, values=values, seed=int(seed), index=int(index))
