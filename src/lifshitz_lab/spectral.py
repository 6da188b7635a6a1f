"""Eigenvalue counting, Bloch band structure, and spectral gaps.

Counting "<= E" means "strictly below E + eta", eta = 1e-12 * ||A||_1 of the
operator counted (1e-12 for A = 0), on every path: `counts_below`,
`count_eigenvalues_below`, `_tridiagonal_counts` and `periodic_ids_curve`
(each fiber H(phi)).  This module is the only one that solves for eigenvalues
in order to count them.  `counts_below` counts a whole energy grid from one
spectrum (`_spectrum`): a real sparse operator whose lower band
(half-bandwidth kd) is narrow, BAND_RATIO * (kd + 1) <= n, is solved from that
band by `eigvals_banded` (LAPACK sbevd, an O(n^2 kd) band reduction), and any
other operator by one dense `eigvalsh`.  `_tridiagonal_counts` counts a
symmetric tridiagonal matrix (the d = 1 Anderson box) by a positive-definite
screen at the top energy, then a coarse Sturm bisection up to it.
`count_eigenvalues_below` counts one energy by the inertia of the
Bunch-Kaufman LDL^T of A - (E + eta) I, retrying with eta doubled (up to
MAX_RETRIES times) when a pivot block is numerically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .curves import IDSCurve
from .disorder import ValidationError
from .lattice import (AssembledOperator, BoxSpec, PeriodicBackground, _bloch_family,
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
    "distance_to_spectrum",
    "periodic_ids_curve",
]

DENSE_THRESHOLD = 3000  # above this, iterative shift-invert paths kick in
MAX_RETRIES = 10  # eta doublings before an inertia count gives up
# counts_below solves from the band when BAND_RATIO * (kd + 1) <= n.  Banded
# was faster on d = 2 boxes from n / (kd + 1) = 12 (2x at 32) but 15-30% slower
# on d = 3 boxes up to 17, so 16 keeps d = 3 boxes up to k = 3 (m = 2) dense
BAND_RATIO = 16
COARSE_TOL = 1e-6  # relative to ||A||_1: the first bisection of a tridiagonal count


class SolverError(RuntimeError):
    """An eigen- or factorization routine failed to meet its tolerance."""


def _as_matrix(A):
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


def _block_diag_eigs(d: np.ndarray) -> np.ndarray:
    """Eigenvalues of the (1x1 / 2x2) block diagonal factor from an LDL^T."""
    eigs = np.diagonal(d).real.copy()
    off = np.diagonal(d, 1)
    i = np.flatnonzero(off != 0)  # 2x2 block starts; blocks of D never touch
    a, c = eigs[i], eigs[i + 1]
    root = np.sqrt((a - c) ** 2 / 4.0 + np.abs(off[i]) ** 2)
    mid = (a + c) / 2.0
    eigs[i], eigs[i + 1] = mid - root, mid + root
    return eigs


def count_eigenvalues_below(A, E: float) -> int:
    """#{eigenvalues of A <= E}, by inertia of the shifted LDL^T factorization."""
    mat = _as_matrix(A)
    n = mat.shape[0]
    norm1 = _norm1(mat)
    eta = 1e-12 * norm1
    if eta == 0.0:
        eta = 1e-12
    dense = mat.toarray() if sp.issparse(mat) else np.array(mat)
    hermitian = np.iscomplexobj(dense)
    tiny = max(norm1, 1.0) * 1e-30
    for _ in range(MAX_RETRIES + 1):
        shifted = dense - (E + eta) * np.eye(n, dtype=dense.dtype)
        try:
            _, dblk, _ = scipy.linalg.ldl(shifted, hermitian=True) if hermitian \
                else scipy.linalg.ldl(shifted)
            eigs = _block_diag_eigs(dblk)
        except (np.linalg.LinAlgError, ValueError):
            eta *= 2.0
            continue
        if not np.all(np.isfinite(eigs)) or np.any(np.abs(eigs) <= tiny):
            eta *= 2.0  # factorization breakdown at the shift; nudge and retry
            continue
        return int(np.sum(eigs < 0.0))
    raise SolverError(f"inertia count failed after {MAX_RETRIES} retries at E={E}")


def _spectrum(mat) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose lower triangle `mat` holds."""
    try:
        if sp.issparse(mat) and not np.iscomplexobj(mat):
            coo = mat.tocoo()  # read only: for a COO input these are the caller's arrays
            offset = coo.row - coo.col
            low = offset >= 0
            kd = int(offset[low].max(initial=0))
            if BAND_RATIO * (kd + 1) <= mat.shape[0]:
                band = np.zeros((kd + 1, mat.shape[0]))
                np.add.at(band, (offset[low], coo.col[low]), coo.data[low])  # duplicate entries sum
                return scipy.linalg.eigvals_banded(band, lower=True, overwrite_a_band=True)
        dense = mat.toarray() if sp.issparse(mat) else np.array(mat)  # a copy to overwrite
        return scipy.linalg.eigvalsh(dense, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"eigensolve failed on a {mat.shape} operator: {exc}") from exc


def counts_below(A, energies) -> np.ndarray:
    """#{eigenvalues of A <= E} for each energy of a grid, from one banded or dense spectrum."""
    mat = _as_matrix(A)
    return count_sorted_leq(_spectrum(mat), energies, scale=_norm1(mat) or 1.0)


def _tridiagonal_counts(diagonal: np.ndarray, off: np.ndarray, energies):
    """`counts_below` of the symmetric tridiagonal matrix with this diagonal and off-diagonal.

    ||A||_1 costs O(n).  The counts are those of Sturm bisection (LAPACK stebz
    with the arguments of scipy's eigvalsh_tridiagonal: tol 0, order "E") for
    the eigenvalues up to twice the slack above the top energy, so that the
    strict count of count_sorted_leq decides each energy, not stebz's bound.
    Two cheaper steps come first:
    1. A screen: when the LDL^T of A - top I (LAPACK pttrf, whose pivots are
       stebz's Sturm sequence at top) has only positive pivots, no eigenvalue
       lies <= top and every count is 0.
    2. Bisection to abstol = COARSE_TOL * ||A||_1.  Each eigenvalue lies within
       abstol / 2 of its coarse value, so the coarse values count every energy
       exactly unless one lies within 2 abstol of some E + eta; only then is
       the bisection run again at tol 0.
    A non-finite entry or energy raises SolverError: pttrf passes NaN pivots.
    """
    hops, weights = np.zeros(diagonal.size), np.abs(off)  # hops: the |off-diagonal| column sums
    hops[:-1] = weights
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scale raises below
        hops[1:] += weights
        scale = float(np.max(np.abs(diagonal) + hops)) or 1.0
    top = float(np.max(energies)) + 2e-12 * scale
    if not math.isfinite(top):  # NaN in any entry or energy propagates to top
        raise SolverError(f"non-finite entry or energy in a tridiagonal count of order {diagonal.size}")
    if diagonal.size == 1:  # stebz takes no empty off-diagonal
        return count_sorted_leq(diagonal[diagonal <= top], energies, scale)
    if scipy.linalg.lapack.dpttrf(diagonal - top, off, overwrite_d=1)[2] == 0:
        return count_sorted_leq(diagonal[:0], energies, scale)
    abstol = COARSE_TOL * scale
    vals = _bisect(diagonal, off, top, abstol)
    shifted = np.asarray(energies, dtype=float) + 1e-12 * scale  # E + eta
    near = np.searchsorted(vals, shifted - 2 * abstol) != np.searchsorted(vals, shifted + 2 * abstol, "right")
    if np.any(near):
        vals = _bisect(diagonal, off, top, 0.0)
    return count_sorted_leq(vals, energies, scale)


def _bisect(diagonal: np.ndarray, off: np.ndarray, top: float, abstol: float) -> np.ndarray:
    """Ascending eigenvalues <= top of the tridiagonal matrix, each to abstol (0: full precision)."""
    m, vals, _, _, info = scipy.linalg.lapack.dstebz(diagonal, off, 1, -np.inf, top, 1, 1, abstol, "E")
    if info:
        raise SolverError(f"stebz failed with info={info} on a tridiagonal matrix of order {diagonal.size}")
    return vals[:m]


def count_sorted_leq(sorted_vals: np.ndarray, energies, scale: float = None):
    """#{v <= E} per energy (an int for a scalar E), slack 1e-12 * scale; scale defaults to max|v|."""
    if scale is None:
        scale = float(np.max(np.abs(sorted_vals), initial=0.0))
    eta = 1e-12 * max(scale, 1e-300)
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
    sum on a fixed pattern, diagonalized densely.  Fibers that a symmetry maps
    onto each other share their eigenvalues, and one fiber per orbit of the
    grid is solved: real coefficients give time reversal, H(-phi) = conj H(phi),
    and each point symmetry G of the medium's cells (`lattice._point_symmetries`:
    axis mirrors about any centre, exchanges of adjacent axes) maps phi to G phi.
    Without a point symmetry the fibers at grid indices j and (-j) mod n_theta
    are solved once, and the self-conjugate points phi in {0, pi}^d alone.
    """
    box = BoxSpec(d=background.d, k=0, m=background.m, bc="quasiperiodic")
    return _field_bands(background_field(background, box), n_theta)


def _field_bands(field, n_theta: int) -> BandStructure:
    """`floquet_bands` of the medium that repeats the field's quasiperiodic box.

    Each generator, time reversal -I and the point symmetries (none searched in
    d = 1, where a mirror is time reversal), maps grid index j to G j mod
    n_theta; `rep` is the least index of each orbit, by rep = min(rep, rep[g])
    to a fixpoint.  Only the fibers with rep[t] == t are solved, and every row
    is copied from its orbit's representative.
    """
    d, m, period = field.box.d, field.box.m, field.box.side
    if n_theta < 1:
        raise ValidationError("need at least one quasimomentum per axis")
    rows, cols, shifts, coeffs = _bloch_family(field)
    n = field.box.n_cells
    grids = np.meshgrid(*([np.arange(n_theta)] * d), indexing="ij")
    index = np.stack([g.ravel() for g in grids], axis=1)
    phase_pts = 2.0 * np.pi * index / n_theta
    generators = [-np.eye(d, dtype=int)] + (_point_symmetries(field) if d > 1 else [])
    maps = [np.ravel_multi_index(tuple((index @ G.T % n_theta).T), (n_theta,) * d) for G in generators]
    rep, previous = np.arange(len(index)), None
    while not np.array_equal(rep, previous):
        previous = rep
        for g in maps:
            rep = np.minimum(rep, rep[g])
    phases = np.exp(1j * (phase_pts @ shifts.T))
    bands, norms = np.empty((len(index), n)), np.empty(len(index))
    for t in np.flatnonzero(rep == np.arange(len(index))):
        dense = np.zeros((n, n), dtype=complex)
        # a broadcast sum, not a BLAS product: a small threaded BLAS call between
        # eigensolves more than doubled their time with two BLAS threads
        dense[rows, cols] = (phases[t][:, None] * coeffs).sum(axis=0)
        norms[t] = _norm1(dense)
        bands[t] = scipy.linalg.eigvalsh(dense, overwrite_a=True)
    return BandStructure(thetas=phase_pts / period, bands=bands[rep], norms=norms[rep], period=period,
                         m=m, d=d)


def spectral_gaps(bands: BandStructure) -> list:
    """Open gaps (left, right, band_below, band_above) between merged band ranges.

    Gaps narrower than 1e-3 of the total band width are not reported.
    """
    ranges = bands.band_ranges()
    resolution = 1e-3 * max(float(bands.bands.max() - bands.bands.min()), 1e-300)
    order = np.argsort(ranges[:, 0])
    gaps = []
    cur_right = ranges[order[0], 1]
    cur_idx = int(order[0])
    for idx in order[1:]:
        lo, hi = ranges[idx]
        if lo > cur_right + resolution:
            gaps.append((float(cur_right), float(lo), cur_idx, int(idx)))
        if hi >= cur_right:
            cur_right, cur_idx = hi, int(idx)
    return gaps


def distance_to_spectrum(A, E: float) -> float:
    """min |lambda - E| over the spectrum of A: all of it up to DENSE_THRESHOLD, else ARPACK shift-invert.

    A shift that SuperLU finds exactly singular is an eigenvalue (distance 0);
    any other failure of shift-invert raises SolverError.
    """
    mat = _as_matrix(A)
    if mat.shape[0] <= DENSE_THRESHOLD:
        return float(np.min(np.abs(_spectrum(mat) - E)))
    try:
        w = spla.eigsh(sp.csc_matrix(mat), k=1, sigma=E, which="LM", return_eigenvectors=False)
        return float(np.min(np.abs(w - E)))
    except spla.ArpackNoConvergence as exc:  # a RuntimeError too, so caught first
        raise SolverError(f"distance_to_spectrum failed to converge at E={E}") from exc
    except RuntimeError as exc:
        if "Factor is exactly singular" not in str(exc):
            raise SolverError(f"distance_to_spectrum: shift-invert failed at E={E}: {exc}") from exc
        return 0.0  # SuperLU found the shift singular: E is an eigenvalue


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
