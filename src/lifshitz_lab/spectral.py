"""Eigenvalue counting, low-lying eigenpairs, and Bloch band structure.

Counting "<= E" means "strictly below E + eta", eta = 1e-12 * ||A||_1 (1e-12
for A = 0).  `counts_below` counts a whole energy grid from one dense
`eigvalsh`; `count_eigenvalues_below` counts one energy by the inertia of the
Bunch-Kaufman LDL^T of A - (E + eta) I, retrying with eta doubled (up to ten
times) when a pivot block is numerically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .curves import IDSCurve
from .disorder import ValidationError
from .lattice import (AssembledOperator, BoxSpec, PeriodicBackground, TAIL_TOL,
                      assemble_operator, background_field, periodized_coefficient_field)

__all__ = [
    "SpectrumSummary",
    "BandStructure",
    "GapReport",
    "SolverError",
    "count_eigenvalues_below",
    "counts_below",
    "count_sorted_leq",
    "lowest_eigenpairs",
    "floquet_bands",
    "spectral_gaps",
    "distance_to_spectrum",
    "periodic_ids_curve",
]

DENSE_THRESHOLD = 3000  # above this, iterative shift-invert paths kick in


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


def count_eigenvalues_below(A, E: float, max_retries: int = 10) -> int:
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
    for _ in range(max_retries + 1):
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
    raise SolverError(f"inertia count failed after {max_retries} retries at E={E}")


def counts_below(A, energies) -> np.ndarray:
    """#{eigenvalues of A <= E} for each energy of a grid, from one eigvalsh."""
    mat = _as_matrix(A)
    dense = mat.toarray() if sp.issparse(mat) else np.array(mat)  # a copy to overwrite
    try:
        vals = scipy.linalg.eigvalsh(dense, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"eigvalsh failed on a {dense.shape} operator: {exc}") from exc
    return count_sorted_leq(vals, energies, scale=_norm1(mat) or 1.0)


def count_sorted_leq(sorted_vals: np.ndarray, energies, scale: float = None):
    """#{v <= E} in a sorted array, per energy (an int for a scalar E), with inertia's offset."""
    if scale is None:
        scale = float(np.max(np.abs(sorted_vals), initial=0.0))
    eta = 1e-12 * max(scale, 1e-300)
    counts = np.searchsorted(sorted_vals, np.asarray(energies, dtype=float) + eta, side="left")
    return int(counts) if counts.ndim == 0 else counts


@dataclass
class SpectrumSummary:
    """Lowest eigenpairs with their verified residual bound."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # (n, n_pairs), orthonormal columns
    residual_bound: float
    method: str


def lowest_eigenpairs(A, n_pairs: int, dense_threshold: int = DENSE_THRESHOLD,
                      residual_tol: float = 1e-8) -> SpectrumSummary:
    """The n_pairs smallest eigenvalues and orthonormal eigenvectors of A."""
    mat = _as_matrix(A)
    n = mat.shape[0]
    if not 1 <= n_pairs <= n:
        raise ValidationError("n_pairs must lie in [1, dim]")
    scale = max(_norm1(mat), 1e-300)
    if n <= dense_threshold:
        dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
        w, v = scipy.linalg.eigh(dense, subset_by_index=[0, n_pairs - 1])
        method = "dense"
    else:
        smat = sp.csc_matrix(mat)
        sigma = -1e-3 * scale
        try:
            w, v = spla.eigsh(smat, k=n_pairs, sigma=sigma, which="LM")
        except Exception:
            w, v = spla.eigsh(smat, k=n_pairs, which="SA", maxiter=50 * n)
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        method = "shift-invert"
    ortho_err = np.max(np.abs(v.conj().T @ v - np.eye(n_pairs)))
    if ortho_err > 1e-10:
        v, _ = np.linalg.qr(v)
        small = v.conj().T @ (mat @ v)
        ws, rot = np.linalg.eigh(small)
        w, v = ws, v @ rot
    res = mat @ v - v * w[None, :]
    res_max = float(np.max(np.linalg.norm(res, axis=0)))
    if res_max > residual_tol * scale:
        raise SolverError(f"eigenpair residual {res_max:.2e} exceeds {residual_tol:.1e} * ||A||")
    return SpectrumSummary(eigenvalues=np.asarray(w, dtype=float), vectors=v,
                           residual_bound=res_max, method=method)


@dataclass
class BandStructure:
    """Sorted eigenvalue branches of the Bloch fibers over a quasimomentum grid.

    The grid is uniform and half-open with the seam phase per axis sweeping
    [0, 2*pi); quasimomenta are the phases divided by the supercell period.
    """

    thetas: np.ndarray  # (T, d) physical quasimomenta
    bands: np.ndarray   # (T, n_bands), each row sorted ascending
    period: int
    m: int
    d: int

    def band_ranges(self) -> np.ndarray:
        return np.stack([self.bands.min(axis=0), self.bands.max(axis=0)], axis=1)


def floquet_bands(background: PeriodicBackground, n_theta: int = 64, profile=None,
                  pattern=None, k: int = 0, tol: float = TAIL_TOL) -> BandStructure:
    """Bloch eigenvalue branches of the periodic medium (optionally disordered).

    Without a pattern this fibers the unit-periodic background operator; with
    a disorder pattern on {-k..k}^d the medium is the pattern repeated with
    period 2k+1, and each fiber lives on the supercell.
    """
    d, m = background.d, background.m
    if n_theta < 1:
        raise ValidationError("need at least one quasimomentum per axis")
    if pattern is not None:
        if profile is None:
            raise ValidationError("a disorder pattern needs a single-site profile")
        field = periodized_coefficient_field(background, profile, pattern, k=k, m=m, tol=tol)
        period = 2 * k + 1
    else:
        field = background_field(background, BoxSpec(d=d, k=0, m=m, bc="quasiperiodic"))
        period = 1
    phis = 2.0 * np.pi * np.arange(n_theta) / n_theta
    grids = np.meshgrid(*([phis] * d), indexing="ij")
    phase_pts = np.stack([g.ravel() for g in grids], axis=1)
    bands = np.empty((len(phase_pts), field.box.n_cells))
    for t, phi in enumerate(phase_pts):
        op = assemble_operator(field, theta=tuple(phi / period))
        dense = op.matrix.toarray()
        bands[t] = scipy.linalg.eigvalsh(dense)
    return BandStructure(thetas=phase_pts / period, bands=bands, period=period, m=m, d=d)


@dataclass
class GapReport:
    """Open intervals free of spectrum, between merged band ranges."""

    gaps: list          # [(left, right, band_below, band_above)]
    band_ranges: np.ndarray
    resolution: float


def spectral_gaps(bands: BandStructure, resolution: float = None) -> GapReport:
    """Merge per-band ranges and report gaps wider than the resolution."""
    ranges = bands.band_ranges()
    width = float(bands.bands.max() - bands.bands.min())
    if resolution is None:
        resolution = 1e-3 * max(width, 1e-300)
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
    return GapReport(gaps=gaps, band_ranges=ranges, resolution=float(resolution))


def distance_to_spectrum(A, E: float, dense_threshold: int = DENSE_THRESHOLD) -> float:
    """min |lambda - E| over the spectrum of A."""
    mat = _as_matrix(A)
    n = mat.shape[0]
    if n <= dense_threshold:
        dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
        w = scipy.linalg.eigvalsh(dense)
        return float(np.min(np.abs(w - E)))
    smat = sp.csc_matrix(mat)
    try:
        w = spla.eigsh(smat, k=1, sigma=E, which="LM", return_eigenvectors=False)
        return float(np.min(np.abs(w - E)))
    except spla.ArpackNoConvergence as exc:  # a RuntimeError too, so caught first
        raise SolverError(f"distance_to_spectrum failed to converge at E={E}") from exc
    except RuntimeError:
        return 0.0  # singular shift factorization: E is an eigenvalue


def periodic_ids_curve(bands: BandStructure, energies) -> IDSCurve:
    """Quasimomentum-averaged counting function per unit volume."""
    energies = np.asarray(energies, dtype=float)
    scale = float(np.max(np.abs(bands.bands), initial=0.0))
    counts = np.array([count_sorted_leq(row, energies, scale) for row in bands.bands])
    vol = float(bands.period**bands.d)
    values = counts.mean(axis=0) / vol
    return IDSCurve(energies=energies, values=values, volume=vol, n_realizations=1,
                    bc="floquet", meta={"period": bands.period, "m": bands.m,
                                        "n_theta_total": bands.bands.shape[0]})
