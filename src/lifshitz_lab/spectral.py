"""Eigenvalue counting, Bloch band structure, and spectral gaps.

Counting "<= E" means "strictly below E + eta", eta = SLACK * ||A||_1 of the
operator counted (SLACK = 1e-12 for A = 0), on every path: `counts_below`,
`count_eigenvalues_below`, `_tridiagonal_counts` and `periodic_ids_curve`
(each fiber H(phi)).  This module is the only one that solves for eigenvalues
in order to count them.  `count_eigenvalues_below` counts one energy by the
inertia of A - (E + eta) I: the negative pivots of SuperLU's symmetric-mode
factorization, or the spectrum when a pivot cannot be trusted.  `counts_below`
counts a whole energy grid from one spectrum (`_spectrum`): a real sparse
operator whose lower band (half-bandwidth kd) is narrow, BAND_RATIO * (kd + 1)
<= n, is solved from that band by `eigvals_banded` (LAPACK sbevd, an
O(n^2 kd) band reduction), any other operator up to DENSE_THRESHOLD nodes by
one dense `eigvalsh`; a larger one that is not narrow is counted energy by
energy through `count_eigenvalues_below`.  `_tridiagonal_counts` counts a
block of symmetric tridiagonal matrices (the d = 1 Anderson boxes of a block
of realizations) by a positive-definite screen at the top energy, then a
coarse Sturm bisection up to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .curves import IDSCurve
from .disorder import ValidationError
from .lattice import (AssembledOperator, BoxSpec, PeriodicBackground, _bloch_family, _cell_periods,
                      _point_symmetries, background_field)
from .lattice import assemble_operator  # noqa: F401  (perfbench/tracing.py patches this name)

__all__ = [
    "BandStructure",
    "SolverError",
    "count_eigenvalues_below",
    "counts_below",
    "count_sorted_leq",
    "floquet_bands",
    "spectral_gaps",
    "periodic_ids_curve",
]

DENSE_THRESHOLD = 3000  # above this, counts_below counts a wide operator by inertia; validate refuses a Floquet block
# counts_below solves from the band when BAND_RATIO * (kd + 1) <= n.  Banded
# was faster on d = 2 boxes from n / (kd + 1) = 12 (2x at 32) but 15-30% slower
# on d = 3 boxes up to 17, so 16 keeps d = 3 boxes up to k = 3 (m = 2) dense
BAND_RATIO = 16
COARSE_TOL = 1e-6  # relative to ||A||_1: the first bisection of a tridiagonal count
SLACK = 1e-12  # relative to ||A||_1: every count of eigenvalues <= E counts those below E + eta


class SolverError(RuntimeError):
    """An eigen- or factorization routine failed to meet its tolerance."""


def _checked_matrix(A, energies):
    if np.any(np.isnan(energies)):  # no count is defined at NaN; +-inf count none and all
        raise SolverError("NaN energy in an eigenvalue count")
    if isinstance(A, AssembledOperator):
        return A.matrix
    if sp.issparse(A):
        return A
    return np.asarray(A)


def _norm1(mat) -> float:
    if sp.issparse(mat):
        if not (mat.format == "csr" and mat.has_canonical_format):
            mat = mat.tocsr(copy=True)  # abs() would merge duplicate entries of the input in place
        return float(abs(mat).sum(axis=0).max()) if mat.nnz else 0.0
    return float(np.abs(mat).sum(axis=0).max()) if mat.size else 0.0


def count_eigenvalues_below(A, E: float) -> int:
    """#{eigenvalues of A <= E}: the negative pivots of SuperLU's P (A - (E + eta) I) P^T = L U.

    In symmetric mode with diagonal pivots, U's diagonal is the D of an LDL^H
    (Sylvester's inertia).  The spectrum counts instead when SuperLU pivots off
    the diagonal, raises (an exactly singular shift), or leaves a pivot that is
    not finite or lies within n eps || |L| |U| ||_inf of zero: L U is exact for
    a matrix that far from the shifted one, so that pivot's sign is not trusted.
    """
    mat = _checked_matrix(A, E)
    n, scale = mat.shape[0], _norm1(mat) or 1.0
    shifted = sp.csc_matrix(mat) - (E + SLACK * scale) * sp.identity(n, dtype=mat.dtype, format="csc")
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        lu = None
    if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
        pivots = lu.U.diagonal().real
        growth = (abs(lu.L) @ (abs(lu.U) @ np.ones(n))).max()  # not finite: no pivot passes
        if np.all(np.abs(pivots) > n * np.finfo(float).eps * growth):
            return int(np.count_nonzero(pivots < 0.0))
    return count_sorted_leq(_spectrum(mat, _lower_band(mat)), E, scale)


def _lower_band(mat):
    """LAPACK lower band storage of a real sparse `mat` that is narrow, BAND_RATIO * (kd + 1) <= n; else None."""
    if not sp.issparse(mat) or np.iscomplexobj(mat):
        return None
    coo = mat.tocoo()  # read only: for a COO input these are the caller's arrays
    offset = coo.row - coo.col
    low = offset >= 0
    kd = int(offset[low].max(initial=0))
    if BAND_RATIO * (kd + 1) > mat.shape[0]:
        return None
    band = np.zeros((kd + 1, mat.shape[0]))
    np.add.at(band, (offset[low], coo.col[low]), coo.data[low])  # duplicate entries sum
    return band


def _spectrum(mat, band) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose lower triangle `mat` holds: from `band`,
    its `_lower_band` (which the solve overwrites), or densely where that is None."""
    try:
        if band is not None:
            return scipy.linalg.eigvals_banded(band, lower=True, overwrite_a_band=True)
        dense = mat.toarray() if sp.issparse(mat) else np.array(mat)  # a copy to overwrite
        return scipy.linalg.eigvalsh(dense, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"eigensolve failed on a {mat.shape} operator: {exc}") from exc


def counts_below(A, energies) -> np.ndarray:
    """#{eigenvalues of A <= E} for each energy of a grid: from one banded spectrum, from one
    dense spectrum up to DENSE_THRESHOLD nodes, and else one inertia count per energy."""
    mat = _checked_matrix(A, energies)
    band = _lower_band(mat)  # built once: it picks the path, and the banded path solves it
    if mat.shape[0] > DENSE_THRESHOLD and band is None:
        counts = [count_eigenvalues_below(mat, E) for E in np.ravel(energies)]
        return np.array(counts, dtype=np.intp).reshape(np.shape(energies))
    return count_sorted_leq(_spectrum(mat, band), energies, scale=_norm1(mat) or 1.0)


def _tridiagonal_counts(diagonal: np.ndarray, off: np.ndarray, energies):
    """`counts_below` of the symmetric tridiagonal matrix with this diagonal and off-diagonal;
    for a (B, n) block of diagonals sharing the off-diagonal, one row of counts per diagonal.

    ||A||_1 costs O(n), and the block's norms, top energies and finiteness are
    found together.  The counts are those of Sturm bisection (LAPACK stebz
    with the arguments of scipy's eigvalsh_tridiagonal: tol 0, order "E") for
    the eigenvalues up to twice the slack above the top energy, so that the
    strict count of count_sorted_leq decides each energy, not stebz's bound.
    Two cheaper steps come first, matrix by matrix:
    1. A screen: when the LDL^T of A - top I (LAPACK pttrf, whose pivots are
       stebz's Sturm sequence at top) has only positive pivots, no eigenvalue
       lies <= top and every count is 0.
    2. Bisection to abstol = COARSE_TOL * ||A||_1.  Each eigenvalue lies within
       abstol / 2 of its coarse value, so the coarse values count every energy
       exactly unless one lies within 2 abstol of some E + eta; only then is
       the bisection run again at tol 0.
    A non-finite entry or energy raises SolverError for the whole block: pttrf
    passes NaN pivots.
    """
    block = np.atleast_2d(diagonal)
    hops, weights = np.zeros(block.shape[1]), np.abs(off)  # hops: the |off-diagonal| column sums
    hops[:-1] = weights
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scale raises below
        hops[1:] += weights
        scales = np.max(np.abs(block) + hops, axis=1)
        scales[scales == 0.0] = 1.0
        tops = float(np.max(energies)) + 2 * SLACK * scales
    if not np.all(np.isfinite(tops)):  # NaN in any entry or energy propagates to top
        raise SolverError(f"non-finite entry or energy in a tridiagonal count of order {block.shape[1]}")
    energies = np.asarray(energies, dtype=float)
    counts = np.zeros(block.shape[:1] + energies.shape, dtype=np.intp)
    screens = block - tops[:, None]  # A - top I, overwritten by pttrf
    for i, (row, top, scale, screen) in enumerate(zip(block, tops, scales, screens)):
        if block.shape[1] == 1:  # stebz takes no empty off-diagonal
            vals = row[row <= top]
        elif scipy.linalg.lapack.dpttrf(screen, off, overwrite_d=1)[2] == 0:
            continue  # no eigenvalue <= top: its counts stay 0
        else:
            abstol = COARSE_TOL * scale
            vals = _bisect(row, off, top, abstol)
            shifted = energies + SLACK * scale  # E + eta
            near = np.searchsorted(vals, shifted - 2 * abstol) != np.searchsorted(vals, shifted + 2 * abstol, "right")
            if np.any(near):
                vals = _bisect(row, off, top, 0.0)
        counts[i] = count_sorted_leq(vals, energies, scale)
    if diagonal.ndim == 2:
        return counts
    return int(counts[0]) if energies.ndim == 0 else counts[0]


def _bisect(diagonal: np.ndarray, off: np.ndarray, top: float, abstol: float) -> np.ndarray:
    """Ascending eigenvalues <= top of the tridiagonal matrix, each to abstol (0: full precision)."""
    m, vals, _, _, info = scipy.linalg.lapack.dstebz(diagonal, off, 1, -np.inf, top, 1, 1, abstol, "E")
    if info:
        raise SolverError(f"stebz failed with info={info} on a tridiagonal matrix of order {diagonal.size}")
    return vals[:m]


def count_sorted_leq(sorted_vals: np.ndarray, energies, scale: float = None):
    """#{v <= E} per energy (an int for a scalar E), slack SLACK * scale; scale defaults to max|v|."""
    if scale is None:
        scale = float(np.max(np.abs(sorted_vals), initial=0.0))
    eta = SLACK * max(scale, 1e-300)
    counts = np.searchsorted(sorted_vals, np.asarray(energies, dtype=float) + eta, side="left")
    return int(counts) if counts.ndim == 0 else counts


@dataclass
class BandStructure:
    """Sorted eigenvalue branches of the Bloch fibers over a quasimomentum grid.

    The grid is uniform and half-open with the seam phase per axis sweeping
    [0, 2*pi); quasimomenta are the phases divided by the supercell period.
    """

    thetas: np.ndarray  # (T, d) physical quasimomenta
    bands: np.ndarray   # (T, n_bands), each row sorted ascending
    norms: np.ndarray   # (T,) ||H(phi)||_1 of each fiber, the scale of its counting slack
    period: int
    m: int
    d: int

    def band_ranges(self) -> np.ndarray:
        return np.stack([self.bands.min(axis=0), self.bands.max(axis=0)], axis=1)


def floquet_bands(background: PeriodicBackground, n_theta: int = 64) -> BandStructure:
    """Bloch eigenvalue branches of the unit-periodic background medium.

    The medium is assembled once, as a family sum_t C_t exp(i t.phi) over seam
    shifts t in {-1,0,1}^d with real C_t; a fiber is one evaluation of that
    sum on a fixed pattern.  Fibers that a symmetry maps onto each other share
    their eigenvalues, and one fiber per orbit of the grid is solved: real
    coefficients give time reversal, H(-phi) = conj H(phi), and each point
    symmetry G of the medium's cells (`lattice._point_symmetries`: axis mirrors
    about any centre, exchanges of adjacent axes) maps phi to G phi.  Each
    solved fiber splits into the Bloch blocks that the translations of the
    cells (`lattice._cell_periods`) fold it into, all solved at once.
    """
    box = BoxSpec(d=background.d, k=0, m=background.m, bc="quasiperiodic")
    return _field_bands(background_field(background, box), n_theta)


def _field_bands(field, n_theta: int) -> BandStructure:
    """`floquet_bands` of the medium that repeats the field's quasiperiodic box.

    Each generator, time reversal -I and the point symmetries (in d = 1 the
    mirror repeats time reversal), maps grid index j to G j mod n_theta; `rep`
    is the least index of each orbit, by rep = min(rep, rep[g]) to a fixpoint.
    Only the fibers with rep[t] == t are solved, as the blocks of `_fold` in one
    batched `np.linalg.eigvalsh`, and each row is copied from its orbit's.
    """
    d, m, period, n = field.box.d, field.box.m, field.box.side, field.box.n_cells
    if n_theta < 1:
        raise ValidationError("need at least one quasimomentum per axis")
    rows, cols, shifts, coeffs = _bloch_family(field)
    index = np.indices((n_theta,) * d).reshape(d, -1).T
    phase_pts = 2.0 * np.pi * index / n_theta
    generators = [-np.eye(d, dtype=int)] + [G for G, _ in _point_symmetries(field)]
    maps = [np.ravel_multi_index(tuple((index @ G.T % n_theta).T), (n_theta,) * d) for G in generators]
    rep, previous = np.arange(len(index)), None
    while not np.array_equal(rep, previous):
        previous, rep = rep, functools.reduce(lambda r, g: np.minimum(r, r[g]), maps, rep)
    fold = _fold(field.box, rows, cols, _cell_periods(field))
    phases = np.exp(1j * (phase_pts @ shifts.T))
    bands, norms = np.empty((len(index), n)), np.empty(len(index))
    for t in np.flatnonzero(rep == np.arange(len(index))):
        # a broadcast sum, not a BLAS product: a small threaded BLAS call between
        # eigensolves more than doubled their time with two BLAS threads
        values = (phases[t][:, None] * coeffs).sum(axis=0)
        # the column sums of _norm1 of the fiber, added in its (sorted) row order
        norms[t] = np.bincount(cols, np.abs(values), minlength=n).max()
        bands[t] = np.sort(np.linalg.eigvalsh(fold(values, phase_pts[t])), axis=None)
    return BandStructure(thetas=phase_pts / period, bands=bands[rep], norms=norms[rep], period=period,
                         m=m, d=d)


def _fold(box: BoxSpec, rows, cols, periods):
    """(pattern values at seam phase phi, phi) -> the fiber as a (Q, P, P) stack of Bloch blocks.

    Cells p_j-periodic along each axis (Q_j = N / p_j) split the fiber (band folding; Kuchment,
    Floquet Theory for PDEs, 1993) into Q = prod Q_j blocks on the P = prod p_j nodes y < p:
    block q acts on u(y + p_j e_j) = exp(i k_j) u(y), k_j = (phi_j + 2 pi q_j) / Q_j, and each
    entry (a, b) of a row a < p adds its value times exp(i k . floor(y_b / p)) to its entry
    (a, b mod p).  The map is built once; with p = N the one block is the fiber, unchanged.
    """
    p, y = np.reshape(periods, (-1, 1)), np.indices(box.node_shape).reshape(box.d, -1)
    slab = np.flatnonzero(np.all(y[:, rows] < p, axis=0))
    cells, wraps = np.divmod(y[:, cols[slab]], p)  # floor(y_b / p), y_b mod p
    quotients = np.reshape(box.node_shape, (-1, 1)) // p
    twists = 2.0 * np.pi * np.indices(quotients.ravel()).reshape(box.d, -1)  # 2 pi q, one column per block
    shape = (twists.shape[1], *periods, *periods)
    flat = np.ravel_multi_index((np.arange(shape[0])[:, None], *y[:, rows[slab]], *wraps), shape).ravel()
    blocks = np.empty(math.prod(shape), dtype=complex)

    def fiber(values, phi):
        z = values[slab] * np.exp(1j * (((phi[:, None] + twists) / quotients).T @ cells))
        blocks.real, blocks.imag = (np.bincount(flat, w.ravel(), minlength=blocks.size) for w in (z.real, z.imag))
        return blocks.reshape(shape[0], math.prod(periods), -1)
    return fiber


def spectral_gaps(bands: BandStructure) -> list:
    """Open gaps (left, right, band_below, band_above) between merged band ranges.

    Gaps narrower than 1e-3 of the total band width are not reported.
    """
    ranges = bands.band_ranges()
    resolution = 1e-3 * max(float(bands.bands.max() - bands.bands.min()), 1e-300)
    order = np.argsort(ranges[:, 0])
    gaps, cur_right, cur_idx = [], ranges[order[0], 1], int(order[0])
    for idx in order[1:]:
        lo, hi = ranges[idx]
        if lo > cur_right + resolution:
            gaps.append((float(cur_right), float(lo), cur_idx, int(idx)))
        if hi >= cur_right:
            cur_right, cur_idx = hi, int(idx)
    return gaps


def periodic_ids_curve(bands: BandStructure, energies) -> IDSCurve:
    """Quasimomentum-averaged counting function per unit volume."""
    energies = np.asarray(energies, dtype=float)
    counts = np.array([count_sorted_leq(row, energies, norm or 1.0)
                       for row, norm in zip(bands.bands, bands.norms)])
    vol = float(bands.period**bands.d)
    values = counts.mean(axis=0) / vol
    return IDSCurve(energies=energies, values=values, volume=vol, n_realizations=1,
                    bc="floquet", meta={"period": bands.period, "m": bands.m,
                                        "n_theta_total": bands.bands.shape[0]})
