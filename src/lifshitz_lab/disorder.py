"""Disorder laws on [0,1] and counter-based sampling of coupling fields.

Each lattice site gamma carries an i.i.d. coupling omega_gamma in [0,1].
Site values are produced by a stateless counter construction: a 64-bit hash
of (seed, realization index, packed site coordinates) is pushed through the
SplitMix64 finalizer and mapped to a uniform variate, which is then sent
through the inverse CDF of the configured law.  The same (seed, index, site)
triple therefore yields bit-identical values on every platform, independent
of evaluation order or parallelism.  The hash splits in two: a per-site hash
mix64(code + GOLDEN) of the Morton code (`site_hash`) and a per-draw key
mix64(mix64(seed + GOLDEN) ^ mix64(index + GOLDEN)) meet in mix64(key ^ site
hash), so a window is hashed once for all its draws (`draw_couplings`), and
a cube's hashes once per process until another cube replaces them (`cube_hashes`).
A draw mixes its hashes in the memory of its output, viewed as uint64, and
casts them to float there, so it keeps at most one temporary of a slice's size
live: freeing several at once handed the heap's top back to the system, and
the next block faulted its pages in again.
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
    "cube_codes",
    "site_hash",
    "cube_hashes",
    "draw_couplings",
    "sample_realization",
    "lattice_cube",
    "max_norm_cube",
]

LAWS = ("uniform01", "kappa_tail", "bernoulli")

# couplings one slice of a draw or a site hash holds at most (256 kB per array), so
# window-sized passes run in cache, and one block draw of an ensemble, whatever the
# thread count (`anderson`).  It fixes the block, so the d = 1 GEMM's shape and bytes.
# 2^15 draws the 1,067-site d = 1 tail window fastest per row (5.5-7.0 us, against
# 7.4-11 at 2^14 and 14-16 at 2^16, where the output and its temporary pass glibc's
# trim threshold and each block faults its pages in again)
BLOCK_COUPLINGS = 2**15

_U64 = np.uint64
_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ValidationError(ValueError):
    """A spec or argument fails its declared constraints."""


class CoverageError(ValueError):
    """A realization does not cover all requested lattice sites."""

    def __init__(self, missing):
        self.missing_sites = [tuple(int(c) for c in row) for row in missing]
        preview = ", ".join(map(str, self.missing_sites[:8]))
        more = "" if len(self.missing_sites) <= 8 else f" (+{len(self.missing_sites) - 8} more)"
        super().__init__(f"realization window misses {len(self.missing_sites)} sites: {preview}{more}")


def _mix64(z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    # SplitMix64 finalizer; z is a uint64 ndarray, arithmetic wraps mod 2^64.  The result is
    # written to out (z itself mixes in place), with one temporary of z's size live at a time.
    z = np.bitwise_xor(z, z >> _U64(30), out=out)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


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


def cube_codes(d: int, radius: int) -> np.ndarray:
    """encode_sites(lattice_cube(d, radius)): each axis's bits, masked out of the
    packed diagonal sites (c, ..., c), are ORed together under broadcasting."""
    diagonal = encode_sites(np.repeat(np.arange(-radius, radius + 1)[:, None], d, axis=1))
    lanes = [diagonal & _U64(sum(1 << bit for bit in range(a, d * (63 // d), d))) for a in range(d)]
    return functools.reduce(np.bitwise_or.outer, lanes).ravel()


def site_hash(codes: np.ndarray) -> np.ndarray:
    """Per-site half of the counter hash, mix64(code + GOLDEN) of each Morton code."""
    codes = np.asarray(codes, dtype=np.uint64)
    hashes = np.empty_like(codes, order="C")
    flat, out = codes.reshape(-1), hashes.reshape(-1)
    for a in range(0, flat.size, BLOCK_COUPLINGS):
        out[a:a + BLOCK_COUPLINGS] = _mix64(flat[a:a + BLOCK_COUPLINGS] + _U64(_GOLDEN))
    return hashes


@functools.lru_cache(maxsize=1)
def cube_hashes(d: int, radius: int) -> np.ndarray:
    """site_hash(cube_codes(d, radius)), read-only: the last cube's hashes are kept for the next caller."""
    hashes = site_hash(cube_codes(d, radius))
    hashes.flags.writeable = False
    return hashes


def site_uniforms(seed: int, index: int, sites: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variates attached to (seed, index, site) triples.

    Pure function of its arguments; returns float64 strictly inside (0,1).
    """
    return draw_couplings(DisorderSpec(), site_hash(encode_sites(sites)), seed, index)  # quantile = identity


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
    if not np.all((uu > 0.0) & (uu < 1.0)):  # NaN fails too
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

    def values_at(self, sites: np.ndarray) -> np.ndarray:
        """Couplings on the given sites, its own window in place; CoverageError if any lie outside."""
        # window positions by binary search over the sorted Morton codes; a
        # site listed twice resolves to its last position
        sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
        if sites.shape[1] != self.d:
            raise CoverageError(sites)
        if np.array_equal(sites, self.window):  # equal to the lookup: a draw gives a repeated site one value
            return self.values
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
        return self.values[order[pos]]


def lattice_cube(d: int, radius: int) -> np.ndarray:
    """All integer sites with max-norm at most radius, row-major order, (n,d)."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def max_norm_cube(f, d: int, radius: int) -> np.ndarray:
    """f(|x|_inf) on lattice_cube(d, radius), shaped (2 radius + 1,)*d, from f on one axis; f must
    not increase with distance, so that min_j f(|x_j|) = f(max_j |x_j|)."""
    return functools.reduce(np.minimum.outer, [f(np.abs(np.arange(-radius, radius + 1)))] * d)


def draw_couplings(spec: DisorderSpec, hashes: np.ndarray, seed: int, index) -> np.ndarray:
    """Couplings of realization (seed, index) on the sites with these `site_hash` values.

    For a sequence of indices the result has one row per index, each bitwise
    the draw of that index alone: the keys are built on uint64 arrays, whose
    adds wrap silently (a numpy scalar's warns), and the (block, window) array
    is drawn in slices of at most BLOCK_COUPLINGS entries, each written in place.
    """
    block = np.ndim(index) == 1
    seed, indices = int(seed), [int(i) for i in index] if block else [int(index)]
    for name, value in (("seed", seed), *(("index", i) for i in indices)):
        if not 0 <= value <= _MASK:
            raise ValidationError(f"{name} must be a uint64")
    seed_key = _mix64(np.array([seed], dtype=np.uint64) + _U64(_GOLDEN))
    keys = _mix64(seed_key ^ _mix64(np.array(indices, dtype=np.uint64) + _U64(_GOLDEN)))[:, None]
    couplings = np.empty((len(indices), hashes.size))
    # C-contiguous slices of at most BLOCK_COUPLINGS entries: whole rows, or a part of one row
    rows, cols = max(1, BLOCK_COUPLINGS // max(1, hashes.size)), max(1, min(hashes.size, BLOCK_COUPLINGS))
    for r in range(0, len(indices), rows):
        for c in range(0, hashes.size, cols):
            _couplings(spec, keys[r:r + rows], hashes[c:c + cols], couplings[r:r + rows, c:c + cols])
    return couplings if block else couplings[0]


def _couplings(spec: DisorderSpec, keys: np.ndarray, hashes: np.ndarray, out: np.ndarray):
    """Write to out, C-contiguous, the couplings of the draws with these keys (a column) on the
    sites with these hashes (a row).  The hash is mixed in out's memory viewed as uint64, whose
    bits are then cast to float in place, so at most one temporary of out's size is live at a
    time (and a law other than uniform01 adds its quantile's)."""
    bits, flat = out.view(np.uint64), out.reshape(-1)
    _mix64(np.bitwise_xor(keys, hashes, out=bits), out=bits)
    bits >>= _U64(11)
    flat[...] = bits.reshape(-1)  # a one-dimensional cast over its own memory copies nothing
    # 53-bit mantissa, offset by half a step: never exactly 0 or 1.
    flat += 0.5
    flat *= 2.0**-53
    if spec.law != "uniform01":  # whose quantile is the identity
        out[...] = law_quantile(spec, out)


def sample_realization(spec: DisorderSpec, window: np.ndarray, seed: int, index: int) -> Realization:
    """Draw the coupling field on a window of lattice sites.

    The draw is a pure function of (spec, seed, index, site); windows may be
    grown or reordered later without changing values on shared sites.
    """
    window = np.atleast_2d(np.asarray(window, dtype=np.int64))
    values = draw_couplings(spec, site_hash(encode_sites(window)), seed, index)
    return Realization(spec=spec, window=window, values=values, seed=int(seed), index=int(index))
