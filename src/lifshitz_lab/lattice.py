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

Random fields come from a plan (`_FieldPlan`): each window site's truncation
bound and one envelope kernel per class of sub-lattices equal up to axis flips
(built axis by axis, as an envelope on a product grid), built once per process
per geometry (`_plan_geometry`), and the background tile.  A realization costs
a mask, one correlation per class, which flips the coupling grid rather than
the kernel (for d >= 2 one `_gemm_correlate` of the kernel with all the class's
flipped grids), and the tile sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .disorder import (BLOCK_COUPLINGS, ValidationError, cube_hashes, draw_couplings, lattice_cube,
                       max_norm_cube)

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
# bytes of the rows one product of _gemm_correlate copies (Hankel rows of the big
# operand, or Toeplitz rows of the grids); on the 757^2 window of a 5^2 box (2-core
# host), 17-69 window rows per product gave an 18-26 ms field, and 4 or 138 rows 29-34 ms
ROW_BYTES = 2**20


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
        return cls(d=d, m=m, samples=np.broadcast_to(np.eye(d), (m**d, d, d)).copy())

    @classmethod
    def two_phase(cls, m: int, low: float, high: float, d: int = 1, axis: int = 0) -> "PeriodicBackground":
        """Scalar coefficient taking value `low` on the half cell below 0 along `axis`, `high` on the other."""
        if low <= 0 or high <= 0:
            raise ValidationError("two-phase values must be positive")
        if not 0 <= axis < d:
            raise ValidationError(f"two-phase axis must lie in [0, d) = [0, {d}), got {axis}")
        centers = -0.5 + (np.arange(m) + 0.5) / m
        scalar_axis = np.where(centers < 0.0, low, high)
        scalars = scalar_axis[np.indices((m,) * d)[axis].ravel()]
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
        env = np.sqrt(dist)  # g_plus (1 + sqrt(dist))^(-nu), in place in one array
        env += 1.0
        env **= -self.nu
        env *= self.g_plus
        return env

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
    this is `np.correlate`, one BLAS dot per lag; in more it is `_gemm_correlate`.
    """
    # np.correlate would swap a longer small with big
    if big.ndim != small.ndim or any(b < s for b, s in zip(big.shape, small.shape)):
        raise ValueError("big must be at least as long as small on every axis")
    if big.ndim == 1:
        return np.correlate(big, small, "valid")
    return _gemm_correlate(big, [small])[..., 0]


def _gemm_correlate(big: np.ndarray, grids: list) -> np.ndarray:
    """lattice_correlate of big with each of grids (d >= 2, one shape), stacked on a last axis.

    The products are BLAS GEMMs in one of two layouts.  `_hankel_gemm` copies
    rows of `big` and shares them among the grids, `_toeplitz_gemm` copies rows
    of each grid and shares them among the output rows; for d = 2 it is the one
    whose copies (at most about ROW_BYTES at a time) hold fewer entries.  Many
    grids and few outputs (a field plan's flip class) favour the first, one grid
    and many outputs (the Anderson potential) the second.  For d >= 3 it is the
    Toeplitz layout, faster on every field and potential measured.
    """
    if big.ndim > 2:
        return _toeplitz_gemm(big, grids)
    G = grids[0].shape
    L = [n - g + 1 for n, g in zip(big.shape, G)]
    t, c = _hankel_blocks(L, G, big.itemsize)
    hankel = -(-L[0] // t) * -(-G[0] // c) * (t + c - 1) * L[1] * G[1]  # entries each layout copies
    toeplitz = len(grids) * G[0] * big.shape[1] * L[1]
    return (_hankel_gemm if hankel < toeplitz else _toeplitz_gemm)(big, grids)


def _hankel_blocks(L, G, itemsize: int) -> tuple:
    """Output rows t and window rows c of one `_hankel_gemm` product: its t + c - 1 Hankel
    rows of L_2 G_2 entries fit ROW_BYTES, or are one row where a single row is larger."""
    rows = max(1, ROW_BYTES // (itemsize * L[1] * G[1]))
    t = min(L[0], (rows + 1) // 2)
    return t, min(G[0], rows + 1 - t)


def _hankel_gemm(big: np.ndarray, grids: list) -> np.ndarray:
    """The d = 2 correlations over the Hankel rows H[i, x_2, :] = big[i, x_2 : x_2 + G_2].

    Window row j_1 adds H[j_1 + x_1, x_2, :] @ grid[j_1, :] to out[x_1, x_2].  For
    output rows x..x+t-1 and window rows a..a+c-1 (`_hankel_blocks`) the copied
    rows a+x..a+x+t+c-2 of H serve every product: output row (x_1 - x) L_2 + x_2
    of batch j_1 - a reads them through one stride view, `np.matmul` batches the
    window rows, and the grids' rows a..a+c-1 are the columns.
    """
    G, n = grids[0].shape, len(grids)
    L = [N - g + 1 for N, g in zip(big.shape, G)]
    t, c = _hankel_blocks(L, G, big.itemsize)
    # one buffer for every block's Hankel rows, with its C strides written out
    buffer = np.empty((t + c - 1) * L[1] * G[1])
    strides = (L[1] * G[1] * buffer.itemsize, G[1] * buffer.itemsize, buffer.itemsize)
    out = np.zeros((L[0], L[1], n))
    for a in range(0, G[0], c):
        cc = min(c, G[0] - a)
        cols = np.stack([grid[a:a + cc] for grid in grids], axis=1).transpose(0, 2, 1)
        for x in range(0, L[0], t):
            tt = min(t, L[0] - x)
            hankel = buffer[:(cc + tt - 1) * L[1] * G[1]].reshape(cc + tt - 1, L[1], G[1])
            rows = np.lib.stride_tricks.as_strided(big[a + x:], hankel.shape, (*big.strides, big.strides[1]),
                                                   writeable=False)
            np.copyto(hankel, rows)
            lhs = np.lib.stride_tricks.as_strided(hankel, (cc, tt * L[1], G[1]), strides, writeable=False)
            out[x:x + tt] += np.matmul(lhs, cols).sum(axis=0).reshape(tt, L[1], n)
    return out


def _toeplitz_gemm(big: np.ndarray, grids: list) -> np.ndarray:
    """The correlations against the Toeplitz rows T[j, i, y] = grid[j, i - y] of each grid.

    Write j = (j_0, .., j_{d-1}) and x alike, with b = d - 2.  Window row (j_0..j_b)
    adds big[x_0 + j_0, .., x_b + j_b, :] @ T[j_0..j_b, :, x_{d-1}] to out[x].  For
    each x_0..x_{b-1} (a Python loop, empty for d = 2) those rows of `big`, over
    x_b, are a stride view (no copy); `np.matmul` batches the window rows, and T
    is copied for a run of leading window indices j_0, ROW_BYTES at a time.
    """
    G, n, N = grids[0].shape, len(grids), big.shape
    L = [a - b + 1 for a, b in zip(N, G)]
    inner = math.prod(G[1:-1]) * n * L[-1] * max(N[-1], L[-2])  # T and product entries per j_0
    step = min(G[0], max(1, ROW_BYTES // (big.itemsize * inner)))
    # padded[j, .., p, g] = grids[g][j, .., p - L_{d-1} + 1] (zero off the grid), so its
    # window at p = i + y is T[j, .., i, L_{d-1} - 1 - y] of grid g
    padded = np.zeros((step, *G[1:-1], N[-1] + L[-1] - 1, n))
    windows = np.lib.stride_tricks.as_strided(padded, (*padded.shape[:-2], N[-1], n, L[-1]),
                                              (*padded.strides, padded.strides[-2]), writeable=False)
    toeplitz = np.empty(windows.shape)
    shape, strides = (*G[1:-1], L[-2], N[-1]), (*big.strides[:-1], *big.strides[-2:])
    out = np.zeros((*L[:-1], n * L[-1]))
    for a in range(0, G[0], step):
        c = min(step, G[0] - a)
        for g, grid in enumerate(grids):
            padded[:c, ..., L[-1] - 1:L[-1] - 1 + G[-1], g] = grid[a:a + c]
        np.copyto(toeplitz[:c], windows[:c])
        rhs = toeplitz[:c].reshape(c, *G[1:-1], N[-1], n * L[-1])
        for x in np.ndindex(*L[:-2]):
            lhs = np.lib.stride_tricks.as_strided(big[a:][x], (c, *shape), strides, writeable=False)
            out[x] += np.matmul(lhs, rhs).sum(axis=tuple(range(big.ndim - 1)))
    return out.reshape(*L[:-1], n, L[-1])[..., ::-1].swapaxes(-1, -2)


@functools.lru_cache(maxsize=1)
def _plan_geometry(kind: str, g_plus: float, nu, radius, d: int, k: int, m: int, tol: float) -> tuple:
    """(R, bound, kernels, members) of `_FieldPlan` for the profile with these fields on the
    d-dimensional box (k, m), whatever its background and bc: a pure function of its arguments,
    whose last result is kept for the next caller.  Its arrays are read-only, as they are shared."""
    # Mesh sub-lattice r has its cell centres at x + o_r, x in {-k..k}^d and
    # o_r = (r + 1/2)/m - 1/2, so its scalar field sum_gamma w_gamma env(x - gamma
    # + o_r) is one lattice correlation of the couplings with a shifted envelope.
    profile = SingleSiteProfile(d=d, kind=kind, g_plus=g_plus, nu=nu, radius=radius)
    box = BoxSpec(d=d, k=k, m=m)
    R = _window_radius(profile, box, tol)
    bound = max_norm_cube(lambda r: profile.norm_bound(r - box.side / 2.0), d, R).ravel()
    outer, part = (np.maximum.outer, np.abs) if kind == "compact" else (np.add.outer, np.square)
    disp = np.arange(-(k + R), k + R + 1, dtype=float)
    axis = [part(disp + ((a + 0.5) / m - 0.5)) for a in range(m)]
    # where axis m-1-a is exactly axis a reversed (o_{m-1-a} = -o_a in floating
    # point), the kernel of sub-lattice r is that of its representative, the lesser
    # of r_j and m-1-r_j on each such axis, flipped on the axes where they differ
    mirrored = [np.array_equal(axis[a][::-1], axis[m - 1 - a]) for a in range(m)]
    classes, kernels, members = {}, [], []
    for r in np.ndindex(*(m,) * d):
        rep = tuple(min(a, m - 1 - a) if mirrored[a] else a for a in r)
        if rep not in classes:
            classes[rep] = len(kernels)
            kernels.append(profile._radial(functools.reduce(outer, [axis[a] for a in rep])))
            members.append([])
        members[classes[rep]].append((r, tuple(j for j in range(d) if r[j] != rep[j])))
    for array in (bound, *kernels):
        array.flags.writeable = False
    return R, bound, tuple(kernels), tuple(map(tuple, members))


class _FieldPlan:
    """What every field on one box shares, over the window lattice_cube(d, R).

    `kernels` holds one envelope per class of sub-lattices equal up to axis
    flips, and `members[c]` each sub-lattice r of class c with the axes F on
    which its kernel is kernels[c] flipped.  For d >= 2 `field` flips the
    couplings instead, corr(flip(K, F), g) = flip(corr(K, flip(g, F)), F), so a
    class is one `_gemm_correlate` of its kernel with each member's flipped
    grid; for d = 1 `np.correlate` copies each flipped kernel view and sums it
    in the order that a stored flipped kernel had, which keeps the d = 1 bytes.
    All but the background tile comes from `_plan_geometry`, so a driver call
    that repeats the last geometry builds none of it.
    """

    def __init__(self, background: PeriodicBackground, profile: SingleSiteProfile, box, tol):
        if profile.d != box.d:
            raise ValidationError("profile and box have different dimensions")
        self.tile = background.tile(box)
        self.R, self.bound, self.kernels, self.members = _plan_geometry(
            profile.kind, profile.g_plus, profile.nu, profile.radius, box.d, box.k, box.m, tol)
        self.profile, self.box, self.tol = profile, box, tol

    def field(self, couplings: np.ndarray) -> CoefficientField:
        """The field of couplings listed in window order."""
        d, m, side = self.box.d, self.box.m, self.box.side
        # site-level truncation: a site whose whole contribution stays below tol gets weight
        # zero; c * (c * bound > tol) is np.where(c * bound > tol, c, 0) for finite c >= 0
        weights = np.empty(couplings.shape)
        for a in range(0, couplings.size, BLOCK_COUPLINGS):
            part = slice(a, a + BLOCK_COUPLINGS)
            c = couplings[part]
            if not np.all(c >= 0):  # NaN fails too
                raise ValidationError("couplings must be nonnegative")
            np.multiply(c, c * self.bound[part] > self.tol, out=weights[part])
        # the mirrored cube (index j holds gamma = R - j), a view of the window reversed
        grid = np.flip(weights.reshape((2 * self.R + 1,) * d))
        scalar = np.empty((m,) * d + (side,) * d)
        for kernel, members in zip(self.kernels, self.members):
            if d == 1:  # np.correlate copies the flipped kernel, so it sums as one stored flipped
                outs = [lattice_correlate(np.flip(kernel, flips), grid) for _, flips in members]
            else:  # one correlation per class: corr(flip(K, F), g) = flip(corr(K, flip(g, F)), F)
                outs = _gemm_correlate(kernel, [np.flip(grid, flips) for _, flips in members])
                outs = [np.flip(outs[..., i], flips) for i, (_, flips) in enumerate(members)]
            for (r, _), out in zip(members, outs):
                scalar[r] = out
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

    The plan and its window's site hash are built once (and kept for the next call
    on the same geometry); a draw needs only its key.
    """
    plan = _FieldPlan(background, profile, box, tol)
    hashes = cube_hashes(box.d, plan.R)
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
    """Point symmetries (G, c) of the field's cells on the torus of its quasiperiodic box.

    Each G is a signed axis permutation, an int (d, d) matrix, for which a map g
    of the cell torus has rho(g x) = G rho(x) G^T in every cell x.  The cell
    forms then map onto each other corner by corner, so the operator commutes
    with the node map of g, and its fiber at phi is unitarily equivalent to the
    fiber at G phi.  Two kinds are searched, with exact equality:
    - a mirror of axis j, G = I with -1 at (j, j) (rho_jl, l != j, negated),
      about any centre of the torus: x_j -> c - x_j for some c mod n, the
      least such c;
    - the exchange of axes a and a+1 (rho's indices swapped), the reflection in
      the diagonal x_a = x_(a+1), which fixes each of its points (c is None).
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
        centre = next((int(c) for c in centres if np.array_equal(own[(c - t) % n], image)), None)
        if centre is not None:
            found.append((G, centre))
    for a in range(d - 1):
        perm = np.arange(d)
        perm[[a, a + 1]] = a + 1, a
        if np.array_equal(np.swapaxes(cells, a, a + 1), cells[..., perm, :][..., perm]):
            found.append((np.eye(d, dtype=int)[perm], None))
    return found


def _cell_periods(field: CoefficientField) -> tuple:
    """Per axis j, the least p_j dividing the torus side n with rho(x + p_j e_j) = rho(x) in every cell
    x: the periods are its multiples, so each prime factor r of n is divided out of p_j = n while
    p_j / r stays a period, compared exactly, on one slice before the whole field."""
    d, n = field.box.d, field.box.cells_per_axis
    cells, periods = field.cells.reshape((n,) * d + (d, d)), []
    for j in range(d):
        own, p, rest, r = np.moveaxis(cells, j, 0), n, n, 1
        while rest > 1:
            r = r + 1 if r * r < rest else rest  # past sqrt(rest), rest is prime
            while rest % r == 0:
                rest //= r
                if np.array_equal(own[p // r], own[0]) and np.array_equal(np.roll(own, p // r, axis=0), own):
                    p //= r
        periods.append(p)
    return tuple(periods)


def assemble_operator(field: CoefficientField, theta=None) -> AssembledOperator:
    """Finite-volume operator for a coefficient field under the box's bc.

    A theta override stands in for the box's own theta.  Entry (node_a, node_b)
    of cell c gets conj(phi_a) phi_b form[c, a, b], with phi_a the product of
    the seam phases exp(1j * theta_j * side) corner a lies across.
    """
    box = field.box if theta is None else replace(field.box, theta=theta)
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
