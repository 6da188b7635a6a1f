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
per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .disorder import CoverageError, ValidationError, lattice_cube, sample_realization

__all__ = [
    "BoxSpec",
    "Grid",
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
    "periodized_coefficient_field",
    "background_field",
    "identity_field",
    "assemble_operator",
    "assemble_grid",
    "check_ellipticity",
    "lattice_correlate",
    "wrap_sites",
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

    def grid(self, theta=None) -> "Grid":
        if self.bc == "quasiperiodic":
            th = theta if theta is not None else (self.theta or (0.0,) * self.d)
            phases = tuple(complex(np.exp(1j * t * self.side)) for t in th)
            return Grid(shape=(self.cells_per_axis,) * self.d, h=self.h,
                        bc="periodic", phases=phases,
                        origin=(-self.side / 2.0,) * self.d)
        if theta is not None:
            raise ValidationError("theta override requires quasiperiodic bc")
        return Grid(shape=(self.cells_per_axis,) * self.d, h=self.h,
                    bc=self.bc, phases=(1.0 + 0.0j,) * self.d,
                    origin=(-self.side / 2.0,) * self.d)


@dataclass(frozen=True)
class Grid:
    """Low-level mesh: cells per axis, spacing, bc, and seam phases."""

    shape: tuple
    h: float
    bc: str  # "dirichlet" | "periodic"
    phases: tuple = None
    origin: tuple = None

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(n < 2 for n in shape):
            raise ValidationError("need at least two cells per axis")
        if self.h <= 0:
            raise ValidationError("mesh width must be positive")
        if self.bc not in ("dirichlet", "periodic"):
            raise ValidationError("grid bc must be dirichlet or periodic")
        if self.phases is None:
            object.__setattr__(self, "phases", (1.0 + 0.0j,) * len(shape))
        else:
            object.__setattr__(self, "phases", tuple(complex(p) for p in self.phases))
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * len(shape))

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def node_shape(self) -> tuple:
        if self.bc == "dirichlet":
            return tuple(n - 1 for n in self.shape)
        return self.shape

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def is_complex(self) -> bool:
        return any(p != 1.0 for p in self.phases)

    def node_positions(self) -> np.ndarray:
        axes = []
        for j in range(self.d):
            if self.bc == "dirichlet":
                axes.append(self.origin[j] + (np.arange(1, self.shape[j])) * self.h)
            else:
                axes.append(self.origin[j] + np.arange(self.shape[j]) * self.h)
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


# -- backgrounds ------------------------------------------------------------


@dataclass
class PeriodicBackground:
    """Unit-periodic coefficient rho+ sampled at the m^d cell centers of C0."""

    d: int
    m: int
    samples: np.ndarray  # (m^d, d, d)
    rho_star: float = field(init=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        expected = (self.m**self.d, self.d, self.d)
        if self.samples.shape != expected:
            raise ValidationError(f"background samples must have shape {expected}")
        sym_err = np.max(np.abs(self.samples - np.transpose(self.samples, (0, 2, 1))))
        if sym_err > 1e-12:
            raise ValidationError(f"background samples not symmetric (max dev {sym_err:.2e})")
        eigs = np.linalg.eigvalsh(self.samples)
        lo, hi = float(eigs.min()), float(eigs.max())
        if lo <= 0.0:
            raise ValidationError(f"background not uniformly elliptic (min eigenvalue {lo:.3e})")
        self.rho_star = max(hi, 1.0 / lo, 1.0 + 1e-12)

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
        shape = (m,) * d
        grids = np.meshgrid(*([np.arange(m)] * d), indexing="ij")
        scalars = scalar_axis[grids[axis].ravel()]
        samples = scalars[:, None, None] * np.eye(d)[None, :, :]
        return cls(d=d, m=m, samples=samples)

    def tile(self, box: BoxSpec) -> np.ndarray:
        """Background matrices at every cell center of the box, C-order."""
        if box.d != self.d or box.m != self.m:
            raise ValidationError("background sampled at different (d, m) than the box")
        n_ax = box.cells_per_axis
        idx_axis = np.arange(n_ax) % self.m
        grids = np.meshgrid(*([idx_axis] * self.d), indexing="ij")
        flat = np.zeros(box.n_cells, dtype=np.int64)
        for g in grids:
            flat = flat * self.m + g.ravel()
        return self.samples[flat]


# -- single-site profiles ----------------------------------------------------


@dataclass
class SingleSiteProfile:
    """Nonnegative single-site coefficient bump rho0 centered at a lattice site.

    rho0(x) = envelope(x) * template, with template a fixed symmetric PSD
    matrix.  Envelope kinds:

    long_range :  g_plus * (1 + |x|_2)^(-nu), d < nu <= d + 2
    short_range:  g_plus * (1 + |x|_2)^(-nu), nu > d + 2
    compact    :  g_plus on the cube |x|_inf <= radius, zero outside
    """

    d: int
    kind: str
    g_plus: float
    nu: float = None
    g_minus: float = 0.0
    radius: float = None
    template: np.ndarray = None

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
            if self.kind == "long_range" and not self.g_minus > 0:
                raise ValidationError("long_range profile needs a positive lower envelope g_minus")
        if self.template is None:
            # all-ones template keeps every entry of rho0 inside the two-sided
            # envelope; it is PSD of rank one
            t = np.ones((self.d, self.d)) if self.kind == "long_range" else np.eye(self.d)
            self.template = t
        self.template = np.asarray(self.template, dtype=float)
        if self.template.shape != (self.d, self.d):
            raise ValidationError("template must be a (d,d) matrix")
        if np.max(np.abs(self.template - self.template.T)) > 1e-12:
            raise ValidationError("template must be symmetric")
        tev = np.linalg.eigvalsh(self.template)
        if tev.min() < -1e-12:
            raise ValidationError("template must be positive semidefinite")
        self._template_norm = float(tev.max())

    def envelope(self, points: np.ndarray) -> np.ndarray:
        """Scalar envelope at displacements from the site center, shape (n,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "compact":
            return self.g_plus * (np.max(np.abs(pts), axis=1) <= self.radius + 1e-15).astype(float)
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return self.g_plus * (1.0 + r) ** (-self.nu)

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


def long_range_profile(d: int, nu: float, g_plus: float = 1.0, g_minus: float = None,
                       template: np.ndarray = None) -> SingleSiteProfile:
    if g_minus is None:
        # valid two-sided constant: worst case is gamma = 0, |x| <= sqrt(d)/2
        g_minus = g_plus * (1.0 + math.sqrt(d) / 2.0) ** (-nu)
    return SingleSiteProfile(d=d, kind="long_range", nu=nu, g_plus=g_plus,
                             g_minus=g_minus, template=template)


def short_range_profile(d: int, nu: float, g_plus: float = 1.0,
                        template: np.ndarray = None) -> SingleSiteProfile:
    return SingleSiteProfile(d=d, kind="short_range", nu=nu, g_plus=g_plus, template=template)


def compact_profile(d: int, radius: float = 0.5, amplitude: float = 1.0,
                    template: np.ndarray = None) -> SingleSiteProfile:
    return SingleSiteProfile(d=d, kind="compact", g_plus=amplitude, radius=radius, template=template)


# -- coefficient fields -------------------------------------------------------


@dataclass
class CoefficientField:
    """Cell-centered coefficient matrices over a box, with provenance."""

    box: BoxSpec
    cells: np.ndarray  # (n_cells, d, d)
    background: PeriodicBackground = None
    profile: SingleSiteProfile = None

    def __post_init__(self):
        expected = (self.box.n_cells, self.box.d, self.box.d)
        if self.cells.shape != expected:
            raise ValidationError(f"cells must have shape {expected}")


def required_window(profile: SingleSiteProfile, box: BoxSpec, tol: float = TAIL_TOL) -> np.ndarray:
    """Lattice sites whose bump can touch the box above the tail tolerance."""
    reach = box.side / 2.0 + profile.truncation_radius(tol)
    return lattice_cube(box.d, int(math.ceil(reach)))


def lattice_correlate(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Valid-mode correlation out[x] = sum_j big[x + j] * small[j], any dimension.

    Summed directly over a strided window view of `big`, with no copy.
    """
    axes = list(range(2 * small.ndim))
    view = np.lib.stride_tricks.sliding_window_view(big, small.shape)
    return np.einsum(view, axes, small, axes[small.ndim:], axes[:small.ndim])


def _accumulate(background: PeriodicBackground, profile: SingleSiteProfile,
                sites: np.ndarray, couplings: np.ndarray, box: BoxSpec,
                tol: float) -> CoefficientField:
    # Mesh sub-lattice r has its cell centres at x + o_r, x in {-k..k}^d and
    # o_r = (r + 1/2)/m - 1/2, so its scalar field sum_gamma w_gamma env(x - gamma
    # + o_r) is one lattice correlation of the couplings with a shifted envelope.
    if np.any(couplings < 0):
        raise ValidationError("couplings must be nonnegative")
    d, m, k = box.d, box.m, box.k
    # site-level truncation: a site whose whole contribution stays below tol
    # gets weight zero
    reach = np.max(np.abs(sites), axis=1, initial=0)
    bound = profile.norm_bound(reach - box.side / 2.0)
    weights = np.where(couplings * bound > tol, couplings, 0.0)
    # couplings on the cube of radius R, mirrored: index j holds gamma = R - j
    R = int(np.max(reach, initial=0))
    shape = (2 * R + 1,) * d
    flat = np.ravel_multi_index(tuple((R - np.asarray(sites, dtype=np.int64)).T), shape)
    grid = np.bincount(flat, weights, minlength=math.prod(shape)).reshape(shape)
    del reach, bound, weights, flat  # release the per-site arrays before the kernel loop
    disp = lattice_cube(d, k + R).astype(float)
    scalar = np.empty((m,) * d + (box.side,) * d)
    for r in np.ndindex(*(m,) * d):
        kernel = profile.envelope(disp + ((np.array(r) + 0.5) / m - 0.5))
        scalar[r] = lattice_correlate(kernel.reshape((2 * (k + R) + 1,) * d), grid)
    # interleave (r_1..r_d, x_1..x_d) into C-ordered cells (x_1, r_1, ..., x_d, r_d)
    scalar = scalar.transpose([a + s for a in range(d) for s in (d, 0)]).reshape(-1)
    cells = background.tile(box) + scalar[:, None, None] * profile.template[None, :, :]
    return CoefficientField(box=box, cells=cells, background=background, profile=profile)


def sample_coefficient_field(background: PeriodicBackground, profile: SingleSiteProfile,
                             realization, box: BoxSpec, tol: float = TAIL_TOL) -> CoefficientField:
    """Coefficient field rho+ + sum_gamma omega_gamma rho0(. - gamma) on the box.

    The realization must cover every site within the profile's truncation
    reach of the box; a CoverageError names any missing sites.
    """
    sites = required_window(profile, box, tol)
    # a realization drawn on exactly this window needs no lookup: its values
    # are already in site order, and the window has no repeated sites
    couplings = (realization.values if np.array_equal(realization.window, sites)
                 else realization.values_at(sites))
    return _accumulate(background, profile, sites, couplings, box, tol)


def operator_sampler(background: PeriodicBackground, profile: SingleSiteProfile,
                     disorder, box: BoxSpec, seed: int, tol: float = TAIL_TOL):
    """Function index -> assembled operator of that realization on the box.

    The realization window is computed here, once for the whole ensemble.
    """
    window = required_window(profile, box, tol)

    def operator(index: int) -> AssembledOperator:
        omega = sample_realization(disorder, window, seed, index)
        return assemble_operator(sample_coefficient_field(background, profile, omega, box, tol))

    return operator


def wrap_sites(sites: np.ndarray, k: int) -> np.ndarray:
    """Fold sites into the centered cube {-k..k}^d coordinatewise."""
    period = 2 * k + 1
    return ((np.asarray(sites, dtype=np.int64) + k) % period) - k


def periodized_coefficient_field(background: PeriodicBackground, profile: SingleSiteProfile,
                                 pattern, k: int, m: int, tol: float = TAIL_TOL) -> CoefficientField:
    """Field with the disorder pattern on {-k..k}^d repeated (2k+1)-periodically."""
    box = BoxSpec(d=background.d, k=k, m=m, bc="quasiperiodic")
    sites = required_window(profile, box, tol)
    couplings = pattern.values_at(wrap_sites(sites, k))
    return _accumulate(background, profile, sites, couplings, box, tol)


def background_field(background: PeriodicBackground, box: BoxSpec) -> CoefficientField:
    return CoefficientField(box=box, cells=background.tile(box), background=background)


def identity_field(box: BoxSpec) -> CoefficientField:
    cells = np.broadcast_to(np.eye(box.d), (box.n_cells, box.d, box.d)).copy()
    return CoefficientField(box=box, cells=cells)


def check_ellipticity(field: CoefficientField) -> tuple[float, float]:
    """(min, max) eigenvalue over all cell matrices; error if not elliptic."""
    sym_err = np.max(np.abs(field.cells - np.transpose(field.cells, (0, 2, 1))))
    if sym_err > 1e-12:
        raise ValidationError(f"cell matrices not symmetric (max dev {sym_err:.2e})")
    eigs = np.linalg.eigvalsh(field.cells)
    lo, hi = float(eigs.min()), float(eigs.max())
    if lo <= 0.0:
        raise ValidationError(f"field is not uniformly elliptic (min eigenvalue {lo:.3e})")
    return lo, hi


# -- assembly -----------------------------------------------------------------


@dataclass
class AssembledOperator:
    """Sparse Hermitian finite-volume matrix plus the geometry that built it."""

    matrix: sp.csr_matrix
    grid: Grid
    box: BoxSpec = None
    theta: tuple = None
    _norm1: float = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def bc(self) -> str:
        if self.box is not None:
            return self.box.bc
        return self.grid.bc

    def norm_1(self) -> float:
        if self._norm1 is None:
            self._norm1 = float(abs(self.matrix).sum(axis=1).max())
        return self._norm1

    def node_positions(self) -> np.ndarray:
        return self.grid.node_positions()


def _selectors_1d(n: int, bc: str, phase: complex, dtype) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    # E0 picks the low corner of each cell, E1 the high corner; Dirichlet
    # boundary corners map to zero rows, the periodic seam picks up `phase`.
    if bc == "dirichlet":
        rows0, cols0 = np.arange(1, n), np.arange(0, n - 1)
        e0 = sp.csr_matrix((np.ones(n - 1, dtype=dtype), (rows0, cols0)), shape=(n, n - 1))
        rows1, cols1 = np.arange(0, n - 1), np.arange(0, n - 1)
        e1 = sp.csr_matrix((np.ones(n - 1, dtype=dtype), (rows1, cols1)), shape=(n, n - 1))
        return e0, e1
    e0 = sp.identity(n, dtype=dtype, format="csr")
    data = np.ones(n, dtype=dtype)
    data[n - 1] = phase if dtype is complex else float(np.real(phase))
    rows = np.arange(n)
    cols = np.concatenate([np.arange(1, n), [0]])
    e1 = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return e0, e1


def assemble_grid(cells: np.ndarray, grid: Grid) -> sp.csr_matrix:
    """Assemble the finite-volume matrix for cell coefficients on a grid."""
    d = grid.d
    n_cells = grid.n_cells
    cells = np.asarray(cells, dtype=float)
    if cells.shape != (n_cells, d, d):
        raise ValidationError(f"cells must have shape {(n_cells, d, d)}")
    dtype = complex if grid.is_complex else float
    sel_axis = [_selectors_1d(grid.shape[j], grid.bc, grid.phases[j], dtype) for j in range(d)]

    def corner(offsets):
        mat = sel_axis[0][offsets[0]]
        for j in range(1, d):
            mat = sp.kron(mat, sel_axis[j][offsets[j]], format="csr")
        return mat

    inv_h = 1.0 / grid.h
    # per-axis edge-difference operators, one per perpendicular corner offset
    edge_ops = []
    mean_ops = []
    perp_offsets = list(np.ndindex(*([2] * (d - 1)))) if d > 1 else [()]
    for j in range(d):
        ops = []
        for po in perp_offsets:
            lo = list(po[:j]) + [0] + list(po[j:])
            hi = list(po[:j]) + [1] + list(po[j:])
            ops.append((corner(hi) - corner(lo)) * inv_h)
        edge_ops.append(ops)
        mean_ops.append(sum(ops[1:], ops[0]) * (1.0 / len(ops)))

    n_nodes = grid.n_nodes
    acc = sp.csr_matrix((n_nodes, n_nodes), dtype=dtype)
    share = 1.0 / len(perp_offsets)
    for j in range(d):
        w = sp.diags(cells[:, j, j])
        for g in edge_ops[j]:
            acc = acc + (g.getH() @ (w @ g)) * share
    for i in range(d):
        for j in range(i + 1, d):
            w = sp.diags(cells[:, i, j])
            t = mean_ops[i].getH() @ (w @ mean_ops[j])
            acc = acc + t + t.getH()
    acc = (acc + acc.getH()) * 0.5  # exact Hermitian symmetry of stored entries
    acc = sp.csr_matrix(acc)
    acc.sort_indices()
    return acc


def assemble_operator(field: CoefficientField, theta=None) -> AssembledOperator:
    """Finite-volume operator for a coefficient field under the box's bc."""
    box = field.box
    if theta is not None:
        if box.bc != "quasiperiodic":
            raise ValidationError("theta override requires quasiperiodic bc")
        theta = tuple(float(t) for t in theta)
        if len(theta) != box.d:
            raise ValidationError("theta must have one component per axis")
    grid = box.grid(theta=theta)
    matrix = assemble_grid(field.cells, grid)
    eff_theta = theta if theta is not None else box.theta
    return AssembledOperator(matrix=matrix, grid=grid, box=box, theta=eff_theta)
