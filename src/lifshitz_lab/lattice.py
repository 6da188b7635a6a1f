"""Boxes, coefficient fields, and finite-volume assembly of -div(rho grad).

The operator on a box of odd integer side L = 2k+1 is discretized on a
uniform mesh with m cells per unit length (h = 1/m).  Unknowns live on mesh
nodes; the matrix realizes the quadratic form

    sum_cells (grad u)* rho(cell center) (grad u)

with forward differences along cell edges.  Diagonal entries of rho weight
per-edge squared differences (averaged over the 2^(d-1) parallel edges of
the cell); off-diagonal entries couple gradient components averaged to the
cell center.  For rho = identity this reduces exactly to the graph Laplacian
stencil divided by h^2.  Boundary conditions: dirichlet (boundary nodes
dropped), periodic, or quasiperiodic with seam phase exp(i * theta_j * L)
per axis, theta being `BoxSpec.theta` (zero when unset) or the override
passed to `assemble_operator`.

Assembly is element by element: cell c adds the 2^d x 2^d form
sum_ij rho_ij(c) B_ij over its corners a in {0,1}^d.  With sigma_a =
(2a - 1)/h, B_jj[a, b] = sigma_aj sigma_bj [a, b agree off axis j] / 2^(d-1)
averages the edges along axis j, and B_ij[a, b] = sigma_ai sigma_bj / 4^(d-1)
(i != j) is the product of two edge means.  A Dirichlet boundary corner is
dropped and a corner across a periodic seam carries its phase, so the seam
shift s_b - s_a of a coupling is its Floquet shift.

Random fields come from a plan built once per ensemble (`_FieldPlan`): each
window site's truncation bound, the m^d sub-lattice envelope kernels (built
axis by axis, as envelopes on product grids) and the background tile, so a
realization costs a mask, a reversal, m^d correlations and the tile sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .disorder import ValidationError, cube_codes, draw_couplings, lattice_cube, site_hash

__all__ = [
    "BoxSpec",
    "PeriodicBackground",
    "SingleSiteProfile",
    "CoefficientField",
    "AssembledOperator",
    "long_range_profile",
    "short_range_profile",
    "compact_profile",
    "required_window",
    "sample_coefficient_field",
    "operator_sampler",
    "background_field",
    "identity_field",
    "assemble_operator",
    "lattice_correlate",
]

BCS = ("dirichlet", "periodic", "quasiperiodic")
TAIL_TOL = 1e-10  # default single-site tail truncation, in operator norm


@dataclass(frozen=True)
class BoxSpec:
    """Cube of physical side 2k+1 with m mesh cells per unit length."""

    d: int
    k: int
    m: int
    bc: str = "dirichlet"
    theta: tuple | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("dimension must be >= 1")
        if self.k < 0:
            raise ValidationError("box index k must be >= 0")
        if self.m < 2:
            raise ValidationError("mesh resolution m must be >= 2")
        if self.bc not in BCS:
            raise ValidationError(f"bc must be one of {BCS}")
        if self.theta is not None:
            th = tuple(float(t) for t in self.theta)
            if len(th) != self.d:
                raise ValidationError("theta must have one component per axis")
            if any(not 0.0 <= t < 2.0 * math.pi for t in th):
                raise ValidationError("theta components must lie in [0, 2*pi)")
            if self.bc != "quasiperiodic":
                raise ValidationError("theta is only meaningful for quasiperiodic bc")
            object.__setattr__(self, "theta", th)

    @property
    def side(self) -> int:
        return 2 * self.k + 1

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def cells_per_axis(self) -> int:
        return self.side * self.m

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis**self.d

    @property
    def volume(self) -> float:
        return float(self.side**self.d)

    @property
    def node_shape(self) -> tuple:
        """Nodes per axis: a Dirichlet box drops its boundary nodes, one per axis."""
        return (self.cells_per_axis - (self.bc == "dirichlet"),) * self.d

    @property
    def n_nodes(self) -> int:
        return math.prod(self.node_shape)

    def node_positions(self) -> np.ndarray:
        """Node coordinates (n_nodes, d), C order; the first Dirichlet node sits at h."""
        first = 1 if self.bc == "dirichlet" else 0
        axis = -self.side / 2.0 + np.arange(first, self.cells_per_axis) * self.h
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


# -- backgrounds ------------------------------------------------------------


@dataclass
class PeriodicBackground:
    """Unit-periodic coefficient rho+ sampled at the m^d cell centers of C0."""

    d: int
    m: int
    samples: np.ndarray  # (m^d, d, d)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        expected = (self.m**self.d, self.d, self.d)
        if self.samples.shape != expected:
            raise ValidationError(f"background samples must have shape {expected}")
        sym_err = np.max(np.abs(self.samples - np.transpose(self.samples, (0, 2, 1))))
        if sym_err > 1e-12:
            raise ValidationError(f"background samples not symmetric (max dev {sym_err:.2e})")
        lo = float(np.linalg.eigvalsh(self.samples).min())
        if lo <= 0.0:
            raise ValidationError(f"background not uniformly elliptic (min eigenvalue {lo:.3e})")

    @classmethod
    def identity(cls, d: int, m: int) -> "PeriodicBackground":
        n = m**d
        samples = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        return cls(d=d, m=m, samples=samples)

    @classmethod
    def two_phase(cls, m: int, low: float, high: float, d: int = 1, axis: int = 0) -> "PeriodicBackground":
        """Scalar coefficient taking value `low` on one half cell, `high` on the other."""
        if low <= 0 or high <= 0:
            raise ValidationError("two-phase values must be positive")
        centers = -0.5 + (np.arange(m) + 0.5) / m
        scalar_axis = np.where(centers < 0.0, low, high)
        grids = np.meshgrid(*([np.arange(m)] * d), indexing="ij")
        scalars = scalar_axis[grids[axis].ravel()]
        samples = scalars[:, None, None] * np.eye(d)[None, :, :]
        return cls(d=d, m=m, samples=samples)

    def tile(self, box: BoxSpec) -> np.ndarray:
        """Background matrices at every cell center of the box, C-order."""
        if box.d != self.d or box.m != self.m:
            raise ValidationError("background sampled at different (d, m) than the box")
        idx_axis = np.arange(box.cells_per_axis) % self.m
        return self.samples[np.ravel_multi_index(np.ix_(*[idx_axis] * self.d), (self.m,) * self.d).ravel()]


# -- single-site profiles ----------------------------------------------------


@dataclass
class SingleSiteProfile:
    """Nonnegative single-site coefficient bump rho0 centered at a lattice site.

    rho0(x) = envelope(x) * template, with template the all-ones matrix for
    long_range and the identity otherwise.  Envelope kinds:

    long_range :  g_plus * (1 + |x|_2)^(-nu), d < nu <= d + 2
    short_range:  g_plus * (1 + |x|_2)^(-nu), nu > d + 2
    compact    :  g_plus on the cube |x|_inf <= radius, zero outside
    """

    d: int
    kind: str
    g_plus: float
    nu: float = None
    radius: float = None
    template: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in ("long_range", "short_range", "compact"):
            raise ValidationError("profile kind must be long_range, short_range or compact")
        if self.g_plus <= 0:
            raise ValidationError("profile amplitude g_plus must be positive")
        if self.kind == "compact":
            if self.radius is None or self.radius <= 0:
                raise ValidationError("compact profile needs a positive radius")
        else:
            if self.nu is None:
                raise ValidationError("power-law profile needs a decay exponent")
            if self.kind == "long_range" and not (self.d < self.nu <= self.d + 2):
                raise ValidationError(f"long_range requires d < nu <= d+2, got nu={self.nu}, d={self.d}")
            if self.kind == "short_range" and not self.nu > self.d + 2:
                raise ValidationError(f"short_range requires nu > d+2, got nu={self.nu}, d={self.d}")
        # all-ones template keeps every entry of rho0 inside the two-sided
        # envelope; it is PSD of rank one
        self.template = np.ones((self.d, self.d)) if self.kind == "long_range" else np.eye(self.d)
        self._template_norm = float(np.linalg.eigvalsh(self.template).max())

    def envelope(self, points: np.ndarray) -> np.ndarray:
        """Scalar envelope at displacements from the site center, shape (n,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        compact = self.kind == "compact"
        return self._radial(np.max(np.abs(pts), axis=1) if compact else np.sum(pts * pts, axis=1))

    def _radial(self, dist: np.ndarray) -> np.ndarray:
        """The one distance -> envelope formula; dist is the max-norm (compact) or squared 2-norm."""
        if self.kind == "compact":
            return self.g_plus * (dist <= self.radius + 1e-15).astype(float)
        return self.g_plus * (1.0 + np.sqrt(dist)) ** (-self.nu)

    def norm_bound(self, dist) -> np.ndarray:
        """Upper bound on ||rho0(x)||_2 over |x| >= dist (any norm), elementwise."""
        dist = np.maximum(dist, 0.0)
        if self.kind == "compact":
            return np.where(dist > self.radius, 0.0, self.g_plus * self._template_norm)
        return self.g_plus * self._template_norm * (1.0 + dist) ** (-self.nu)

    def truncation_radius(self, tol: float = TAIL_TOL) -> float:
        """Distance beyond which a unit-coupling site contributes < tol in norm."""
        if self.kind == "compact":
            return self.radius
        return max((self.g_plus * self._template_norm / tol) ** (1.0 / self.nu) - 1.0, 0.0)


def long_range_profile(d: int, nu: float, g_plus: float = 1.0) -> SingleSiteProfile:
    return SingleSiteProfile(d=d, kind="long_range", nu=nu, g_plus=g_plus)


def short_range_profile(d: int, nu: float, g_plus: float = 1.0) -> SingleSiteProfile:
    return SingleSiteProfile(d=d, kind="short_range", nu=nu, g_plus=g_plus)


def compact_profile(d: int, radius: float = 0.5, amplitude: float = 1.0) -> SingleSiteProfile:
    return SingleSiteProfile(d=d, kind="compact", g_plus=amplitude, radius=radius)


# -- coefficient fields -------------------------------------------------------


@dataclass
class CoefficientField:
    """Cell-centered coefficient matrices over a box."""

    box: BoxSpec
    cells: np.ndarray  # (n_cells, d, d)

    def __post_init__(self):
        expected = (self.box.n_cells, self.box.d, self.box.d)
        if self.cells.shape != expected:
            raise ValidationError(f"cells must have shape {expected}")


def _window_radius(profile: SingleSiteProfile, box: BoxSpec, tol: float) -> int:
    return int(math.ceil(box.side / 2.0 + profile.truncation_radius(tol)))


def required_window(profile: SingleSiteProfile, box: BoxSpec, tol: float = TAIL_TOL) -> np.ndarray:
    """Lattice sites whose bump can touch the box above the tail tolerance."""
    return lattice_cube(box.d, _window_radius(profile, box, tol))


def lattice_correlate(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Valid-mode correlation out[x] = sum_j big[x + j] * small[j], any dimension.

    `big` must be at least as long as `small` on every axis.  In one dimension
    this is `np.correlate`, one BLAS dot per lag; in more it is summed directly
    over a strided window view of `big`, with no copy.
    """
    if small.ndim == 1:
        if big.size < small.size:  # np.correlate would swap the operands
            raise ValueError("big must be at least as long as small")
        return np.correlate(big, small, "valid")
    axes = list(range(2 * small.ndim))
    view = np.lib.stride_tricks.sliding_window_view(big, small.shape)
    return np.einsum(view, axes, small, axes[small.ndim:], axes[:small.ndim])


class _FieldPlan:
    """What every field of an ensemble on one box shares, over the window lattice_cube(d, R)."""

    def __init__(self, background: PeriodicBackground, profile: SingleSiteProfile, box, tol):
        # Mesh sub-lattice r has its cell centres at x + o_r, x in {-k..k}^d and
        # o_r = (r + 1/2)/m - 1/2, so its scalar field sum_gamma w_gamma env(x - gamma
        # + o_r) is one lattice correlation of the couplings with a shifted envelope.
        d, m, k = box.d, box.m, box.k
        self.R = R = _window_radius(profile, box, tol)
        reach = functools.reduce(np.maximum.outer, [np.abs(np.arange(-R, R + 1))] * d).ravel()
        self.bound = profile.norm_bound(np.arange(R + 1) - box.side / 2.0)[reach]
        outer, part = (np.maximum.outer, np.abs) if profile.kind == "compact" else (np.add.outer, np.square)
        disp = np.arange(-(k + R), k + R + 1, dtype=float)
        axis = [part(disp + ((a + 0.5) / m - 0.5)) for a in range(m)]
        # where axis m-1-a is exactly axis a reversed (o_{m-1-a} = -o_a in floating
        # point), the kernel of sub-lattice m-1-r is the kernel of r flipped
        mirrored = [np.array_equal(axis[a][::-1], axis[m - 1 - a]) for a in range(m)]
        kernels = {}
        for r in np.ndindex(*(m,) * d):
            flip = tuple(m - 1 - a for a in r)
            if flip in kernels and all(mirrored[a] for a in r):
                kernels[r] = np.ascontiguousarray(np.flip(kernels[flip]))
            else:
                kernels[r] = profile._radial(functools.reduce(outer, [axis[a] for a in r]))
        self.kernels = list(kernels.values())
        self.tile = background.tile(box)
        self.profile, self.box, self.tol = profile, box, tol

    def field(self, couplings: np.ndarray) -> CoefficientField:
        """The field of couplings listed in window order."""
        if not np.all(couplings >= 0):  # NaN fails too
            raise ValidationError("couplings must be nonnegative")
        d, m, side = self.box.d, self.box.m, self.box.side
        # site-level truncation: a site whose whole contribution stays below tol gets weight zero
        weights = np.where(couplings * self.bound > self.tol, couplings, 0.0)
        # the mirrored cube (index j holds gamma = R - j) is the window reversed;
        # contiguous, since the correlation's summation order follows the strides
        grid = np.ascontiguousarray(weights[::-1]).reshape((2 * self.R + 1,) * d)
        scalar = np.stack([lattice_correlate(kernel, grid) for kernel in self.kernels])
        scalar = scalar.reshape((m,) * d + (side,) * d)
        # interleave (r_1..r_d, x_1..x_d) into C-ordered cells (x_1, r_1, ..., x_d, r_d)
        scalar = scalar.transpose([a + s for a in range(d) for s in (d, 0)]).reshape(-1)
        cells = self.tile + scalar[:, None, None] * self.profile.template[None, :, :]
        return CoefficientField(box=self.box, cells=cells)


def _accumulate(background: PeriodicBackground, profile: SingleSiteProfile,
                sites: np.ndarray, couplings: np.ndarray, box: BoxSpec,
                tol: float) -> CoefficientField:
    return _FieldPlan(background, profile, box, tol).field(couplings)


def sample_coefficient_field(background: PeriodicBackground, profile: SingleSiteProfile,
                             realization, box: BoxSpec, tol: float = TAIL_TOL) -> CoefficientField:
    """Coefficient field rho+ + sum_gamma omega_gamma rho0(. - gamma) on the box.

    The realization must cover every site within the profile's truncation
    reach of the box; a CoverageError names any missing sites.
    """
    sites = required_window(profile, box, tol)
    return _accumulate(background, profile, sites, realization.values_at(sites), box, tol)


def operator_sampler(background: PeriodicBackground, profile: SingleSiteProfile,
                     disorder, box: BoxSpec, seed: int, tol: float = TAIL_TOL):
    """Function index -> assembled operator of that realization on the box.

    The plan and its window's site hash are built once; a draw needs only its key.
    """
    plan = _FieldPlan(background, profile, box, tol)
    hashes = site_hash(cube_codes(box.d, plan.R))
    return lambda index: assemble_operator(plan.field(draw_couplings(disorder, hashes, seed, index)))


def _periodized_plan(background: PeriodicBackground, profile: SingleSiteProfile, k, tol: float = TAIL_TOL):
    """Pattern values on lattice_cube(d, k) -> the field with that pattern repeated
    (2k+1)-periodically, on the quasiperiodic box of half-side k, planned once."""
    d, period = background.d, 2 * k + 1
    plan = _FieldPlan(background, profile, BoxSpec(d=d, k=k, m=background.m, bc="quasiperiodic"), tol)
    wrapped = (np.arange(-plan.R, plan.R + 1) + k) % period  # folded into {-k..k}, plus k
    take = np.ravel_multi_index(np.ix_(*[wrapped] * d), (period,) * d).ravel()
    return lambda values: plan.field(values[take])


def background_field(background: PeriodicBackground, box: BoxSpec) -> CoefficientField:
    return CoefficientField(box=box, cells=background.tile(box))


def identity_field(box: BoxSpec) -> CoefficientField:
    cells = np.broadcast_to(np.eye(box.d), (box.n_cells, box.d, box.d)).copy()
    return CoefficientField(box=box, cells=cells)


# -- assembly -----------------------------------------------------------------


@dataclass
class AssembledOperator:
    """Sparse Hermitian finite-volume matrix plus the box (with its theta) it was built on."""

    matrix: sp.csr_matrix
    box: BoxSpec

    @property
    def h(self) -> float:
        return self.box.h

    def node_positions(self) -> np.ndarray:
        return self.box.node_positions()


def _cell_scatter(cells: np.ndarray, box: BoxSpec):
    """(form, node, seams) over cells c and corners a in {0,1}^d (C order).

    form[c] = sum_ij rho_ij(c) B_ij (module docstring); node[c, a] is -1 for a
    Dirichlet boundary corner; seams[j, c, a] counts the seams of axis j it lies across.
    """
    d, n = box.d, box.cells_per_axis
    cells = np.asarray(cells, dtype=float)
    if cells.shape != (box.n_cells, d, d):
        raise ValidationError(f"cells must have shape {(box.n_cells, d, d)}")
    corners = np.array(list(np.ndindex(*(2,) * d)))
    sigma = (2.0 * corners - 1.0) / box.h
    B = np.einsum("ai,bj->ijab", sigma, sigma) / 4.0 ** (d - 1)
    for j in range(d):
        agree = np.all(np.delete(corners[:, None, :] == corners[None, :, :], j, axis=2), axis=2)
        B[j, j] = np.outer(sigma[:, j], sigma[:, j]) * agree / 2.0 ** (d - 1)
    form = np.einsum("cij,ijab->cab", cells, B)
    pos = np.indices((n,) * d).reshape(d, -1, 1) + corners.T[:, None, :]  # pos[j, c, a]
    if box.bc != "dirichlet":
        return form, np.ravel_multi_index(tuple(pos), (n,) * d, mode="wrap"), pos // n
    node = np.ravel_multi_index(tuple(pos - 1), box.node_shape, mode="clip")
    return form, np.where(np.all((pos > 0) & (pos < n), axis=0), node, -1), np.zeros_like(pos)


def _bloch_family(field: CoefficientField):
    """The quasiperiodic operator of a field at every theta, from one cell scatter.

    Returns (rows, cols, shifts, coeffs): a fixed pattern, the shifts
    t in {-1,0,1}^d as an int (3^d, d) array, and one real row C_t per shift
    over the pattern, so that `assemble_operator(field, theta)` has the entries
    exp(1j * shifts @ (theta * side)) @ coeffs there.  C_t sums the corner
    forms of the couplings whose corners a, b lie across seams s_a, s_b with
    s_b - s_a = t.  Rows are symmetrized as (C_t + C_-t^T) / 2, and node pairs
    that are zero at every shift are dropped.
    """
    d, n_nodes = field.box.d, field.box.n_nodes
    form, node, seams = _cell_scatter(field.cells, field.box)
    shift = np.ravel_multi_index(tuple(seams[:, :, None, :] - seams[:, :, :, None] + 1), (3,) * d)
    pairs, where = np.unique(node[:, :, None] * n_nodes + node[:, None, :], return_inverse=True)
    coeffs = np.bincount(shift.ravel() * len(pairs) + where.ravel(), form.ravel(),
                         minlength=3**d * len(pairs)).reshape(3**d, len(pairs))
    rows, cols = np.divmod(pairs, n_nodes)
    transpose = np.searchsorted(pairs, cols * n_nodes + rows)
    coeffs = (coeffs + coeffs[::-1, transpose]) * 0.5  # row 3^d - 1 - s holds shift -t
    nonzero = np.any(coeffs != 0.0, axis=0)
    return rows[nonzero], cols[nonzero], np.array(list(np.ndindex(*(3,) * d))) - 1, coeffs[:, nonzero]


def _point_symmetries(field: CoefficientField) -> list:
    """Point symmetries of the field's cells on the torus of its quasiperiodic box.

    Each is a signed axis permutation G, an int (d, d) matrix, for which a map g
    of the cell torus has rho(g x) = G rho(x) G^T in every cell x.  The cell
    forms then map onto each other corner by corner, so the operator commutes
    with the node map of g, and its fiber at phi is unitarily equivalent to the
    fiber at G phi.  Two kinds are searched, with exact equality:
    - a mirror of axis j, G = I with -1 at (j, j) (rho_jl, l != j, negated),
      about any centre of the torus: x_j -> c - x_j for some c mod n;
    - the exchange of axes a and a+1 (rho's indices swapped), the reflection in
      the diagonal x_a = x_(a+1), which fixes each of its points.
    A mirror's candidate centres are those whose slice across axis j equals
    the image of slice 0, so a field with no mirror is refused after one
    O(n_cells) comparison per candidate, and there is one for distinct slices.
    """
    d, n = field.box.d, field.box.cells_per_axis
    cells = field.cells.reshape((n,) * d + (d, d))
    t = np.arange(n)
    found = []
    for j in range(d):
        G = np.eye(d, dtype=int)
        G[j, j] = -1
        image = cells * np.outer(G.diagonal(), G.diagonal())  # G rho G^T
        own, image = (np.moveaxis(a, j, 0).reshape(n, -1) for a in (cells, image))
        # centre c: the slice at c - t is the image of the slice at t, for every t
        centres = np.flatnonzero(np.all(own == image[0], axis=1))
        if any(np.array_equal(own[(c - t) % n], image) for c in centres):
            found.append(G)
    for a in range(d - 1):
        perm = np.arange(d)
        perm[[a, a + 1]] = a + 1, a
        if np.array_equal(np.swapaxes(cells, a, a + 1), cells[..., perm, :][..., perm]):
            found.append(np.eye(d, dtype=int)[perm])
    return found


def assemble_operator(field: CoefficientField, theta=None) -> AssembledOperator:
    """Finite-volume operator for a coefficient field under the box's bc.

    A theta override stands in for the box's own theta.  Entry (node_a, node_b)
    of cell c gets conj(phi_a) phi_b form[c, a, b], with phi_a the product of
    the seam phases exp(1j * theta_j * side) corner a lies across.
    """
    box = field.box if theta is None else replace(field.box, theta=tuple(theta))
    form, node, seams = _cell_scatter(field.cells, box)
    phases = [np.exp(1j * t * box.side) for t in box.theta or (0.0,) * box.d]
    if any(p != 1.0 for p in phases):
        phi = np.prod(np.where(seams > 0, np.reshape(phases, (-1, 1, 1)), 1.0), axis=0)
        form = phi.conj()[:, :, None] * form * phi[:, None, :]
    keep = (node[:, :, None] >= 0) & (node[:, None, :] >= 0)
    rows = np.broadcast_to(node[:, :, None], form.shape)[keep]
    cols = np.broadcast_to(node[:, None, :], form.shape)[keep]
    matrix = sp.csr_matrix((form[keep], (rows, cols)), shape=(box.n_nodes,) * 2)
    matrix = (matrix + matrix.getH()) * 0.5  # exact Hermitian symmetry of stored entries
    matrix.sort_indices()
    return AssembledOperator(matrix=matrix, box=box)
