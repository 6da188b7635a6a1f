"""Discrete lattice comparison model with long-range random potential.

The operator acts on functions over the cube {-k..k}^d: a graph Laplacian
whose edge sums stay inside the box (degree-dependent diagonal), an energy
offset, and a diagonal potential v(alpha) = sum_beta omega_beta
(1 + |alpha - beta|)^(-nu).  All lattice distances in this module are
max-norm; hopping connects axis-neighbors.

Alongside Monte Carlo estimates the module evaluates analytic bounds on
small-eigenvalue probabilities: a Chernoff upper bound for the empirical
mean of truncated couplings, and two product-form lower bounds obtained by
forcing every coupling in an explicit lattice window to be small.  Bound
values are returned in log form and never exceed 0.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from .curves import IDSCurve, ensemble_curve
from .disorder import (BLOCK_COUPLINGS, DisorderSpec, Realization, ValidationError, cube_hashes,
                       draw_couplings, lattice_cube, law_cdf, max_norm_cube)
from .disorder import sample_realization  # noqa: F401  (perfbench/tracing.py patches this name)
from .lattice import lattice_correlate
from .runner import _integral, frequency
from .spectral import _tridiagonal_counts, counts_below

__all__ = [
    "AndersonInstance",
    "BoundEvaluation",
    "check_bound_args",
    "OptimizerWarning",
    "truncation_radius_for",
    "potential_on_box",
    "assemble_anderson",
    "sample_anderson",
    "anderson_ids",
    "log_mgf_truncated",
    "chernoff_bound_P1",
    "product_bound_P_eps_alpha_1",
    "product_bound_P_eps_alpha_2",
    "mc_chernoff_event",
    "mc_product_event_1",
    "mc_product_event_2",
]


T_BRACKET = (1e-6, 1e12)  # range of t that chernoff_bound_P1 searches
PAD_RADIUS = 200  # extra radius of the window mc_product_event_1 samples
PRODUCT1_MAX_SHELLS = 10**6  # largest outer half side of product_bound_P_eps_alpha_1 (one term per shell)
POTENTIAL_TOL = 1e-8  # default neglected tail of the truncated potential
CHUNK = 32  # most box sites one GEMM of the d = 1 potential computes


class OptimizerWarning(UserWarning):
    """Flat or edge-pinned objective in a bound optimization."""


# -- model assembly -----------------------------------------------------------


@dataclass
class AndersonInstance:
    """One realization of the discrete model on the cube {-k..k}^d."""

    d: int
    k: int
    E_plus: float
    v: np.ndarray
    sites: np.ndarray
    matrix: scipy.sparse.csr_matrix

    def __post_init__(self):
        if np.any(self.v < 0):
            raise ValidationError("potential values must be nonnegative")
        dev = abs(self.matrix - self.matrix.T)
        if dev.nnz and dev.max() > 1e-12:
            raise ValidationError("assembled matrix must be symmetric")

    def node_positions(self) -> np.ndarray:
        return self.sites.astype(float)


def assemble_anderson(d: int, k: int, E_plus: float, v) -> AndersonInstance:
    """Box graph Laplacian + E_plus + diag(v), edges truncated at the box."""
    sites = lattice_cube(d, k)
    n = sites.shape[0]
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValidationError(f"potential must cover all {n} sites")
    # hopping: the Kronecker sum over the axes of the (2k+1)-site path, in lattice_cube's row-major order
    path, eye = scipy.sparse.diags([-np.ones(2 * k)] * 2, [-1, 1]), scipy.sparse.identity(2 * k + 1)
    off = sum(functools.reduce(scipy.sparse.kron, [path if j == axis else eye for j in range(d)])
              for axis in range(d))
    degree = -np.asarray(off.sum(axis=1)).ravel()
    mat = (off + scipy.sparse.diags(degree + E_plus + v)).tocsr()
    return AndersonInstance(d=d, k=k, E_plus=E_plus, v=v, sites=sites, matrix=mat)


# -- long-range potential with certified truncation ----------------------------


def truncation_radius_for(d: int, nu: float, tol: float) -> int:
    """Smallest shell radius R with sum_{|r|>R} (1+|r|)^(-nu) <= tol (omega <= 1).

    Uses the shell count (2r+1)^d - (2r-1)^d <= 2d*3^(d-1)*r^(d-1) and an
    integral comparison, so the result is a guaranteed overestimate.
    """
    if not nu > d:
        raise ValidationError("need nu > d for a summable potential")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    lead = 2 * d * 3 ** (d - 1)
    r = lead / ((nu - d) * tol)
    radius = max(0, math.ceil(r ** (1.0 / (nu - d)) - 1.0))
    if (2 * radius + 1) ** d > 2 * 10**7:
        raise ValidationError(
            f"truncation cube ({radius=}) too large for d={d}, nu={nu}, tol={tol}")
    return radius


def _tail_bound(d: int, nu: float, radius: int) -> float:
    lead = 2 * d * 3 ** (d - 1)
    return lead * (1.0 + radius) ** (d - nu) / (nu - d)


def _block(hashes: np.ndarray) -> int:
    """Realizations per block of an ensemble that draws on these sites."""
    return max(1, BLOCK_COUPLINGS // hashes.size)


class _AndersonPlan:
    """What every realization of an Anderson ensemble on {-k..k}^d shares.

    The site hashes of the window lattice_cube(d, k + R), R the truncation
    radius, and the realizations per block draw (`block`); the potential
    kernel (1 + |r|)^(-nu) over lattice_cube(d, R); and the box operator at
    v = 0.  The potential is the correlation of the couplings with the
    kernel, computed a block of realizations at a time (`potential`).  For
    d = 1 it is a GEMM per chunk of box sites against one Toeplitz tile of
    the kernel, and its rounding depends on the shape of the product and on
    a row's place in it, so every product has the plan's `block` rows and
    realization i sits in row i mod `block`, whatever call draws it.  For
    d >= 2 it is one `lattice_correlate` per realization.  `spectral` counts
    the box: for d = 1 the operator is symmetric tridiagonal, its diagonal
    degree + E_plus + v and its off-diagonal -1, and `_tridiagonal_counts`
    screens and bisects a whole block; for d >= 2 `counts_below` counts the
    sparse operator of each realization.  Its arrays are read-only, and it
    holds no per-call buffer, so one plan serves every thread (`_anderson_plan`).
    """

    def __init__(self, d: int, k: int, nu: float, E_plus: float, tol: float):
        radius = truncation_radius_for(d, nu, tol)
        self.hashes = cube_hashes(d, k + radius)
        self.window_shape = (2 * (k + radius) + 1,) * d
        self.kernel = max_norm_cube(lambda r: (1.0 + r) ** (-nu), d, radius)
        self.free = assemble_anderson(d, k, E_plus, np.zeros((2 * k + 1) ** d)).matrix
        self.diagonal, self.off = self.free.diagonal(), self.free.diagonal(1)  # off read when d = 1
        self.d, self.block = d, _block(self.hashes)
        if d == 1:
            # the box in chunks of CHUNK sites (all of it when shorter); the last one
            # overlaps its neighbour rather than shrink, so every product has one shape
            n = 2 * k + 1
            width = min(CHUNK, n)
            self.starts = [*range(0, n - width, width), n - width]
            # tile[i, c] = kernel[i - c]: couplings x..x + width + 2R - 1 times tile
            # is the potential on box sites x..x + width - 1
            self.tile = np.zeros((width + 2 * radius, width))
            for c in range(width):
                self.tile[c:c + 2 * radius + 1, c] = self.kernel
            self.tile.flags.writeable = False
        for array in (self.kernel, self.diagonal, self.off, self.free.data, self.free.indices, self.free.indptr):
            array.flags.writeable = False

    def potential(self, couplings: np.ndarray, first: int = 0) -> np.ndarray:
        """The potentials on the box of realizations first, first + 1, ..., one per row of
        couplings listed in window order (a 1-d couplings is one realization); they must be
        nonnegative."""
        rows = couplings.reshape(-1, couplings.shape[-1])
        if self.d == 1:
            v = self._products(rows, first)
        else:
            v = np.stack([lattice_correlate(row.reshape(self.window_shape), self.kernel).ravel()
                          for row in rows])
        if not np.all(v >= 0):  # NaN fails too
            raise ValidationError("potential values must be nonnegative")
        return v.reshape(couplings.shape[:-1] + v.shape[-1:])

    def _products(self, rows: np.ndarray, first: int) -> np.ndarray:
        """The d = 1 potentials of realizations first, first + 1, ...: each block they fall
        in is one (block, window) operand, zero in the rows not drawn, times the tile per chunk."""
        width = self.tile.shape[1]
        v = np.empty((len(rows), self.diagonal.size))
        done = 0
        while done < len(rows):
            slot = (first + done) % self.block
            take = min(self.block - slot, len(rows) - done)
            if take == self.block:
                operand = rows[done:done + take]
            else:
                operand = np.zeros((self.block, rows.shape[1]))
                operand[slot:slot + take] = rows[done:done + take]
            for x in self.starts:
                product = operand[:, x:x + self.tile.shape[0]] @ self.tile
                v[done:done + take, x:x + width] = product[slot:slot + take]
            done += take
        return v

    def draw(self, disorder: DisorderSpec, seed: int, index: int) -> np.ndarray:
        """The potential of realization (seed, index)."""
        return self.potential(draw_couplings(disorder, self.hashes, seed, index), index)

    def draws(self, disorder: DisorderSpec, seed: int, indices: range) -> np.ndarray:
        """The potential of each realization (seed, i), i in indices (consecutive), one row
        each, from one block draw."""
        return self.potential(draw_couplings(disorder, self.hashes, seed, indices), indices.start)

    def operator(self, v: np.ndarray) -> scipy.sparse.csr_matrix:
        """The box operator with potential v, entry for entry assemble_anderson(d, k, E_plus, v).matrix."""
        return self.free + scipy.sparse.diags(v)

    def counts(self, v: np.ndarray, energies):
        """#{eigenvalues of the box operator with potential v <= E} per energy (an int for a
        scalar E); for a block of potentials, one row of counts per row of v."""
        if self.d == 1:
            return _tridiagonal_counts(self.diagonal + v, self.off, energies)
        counts = [counts_below(self.operator(row), energies) for row in v.reshape(-1, v.shape[-1])]
        return counts[0] if v.ndim == 1 else np.array(counts)


def _anderson_plan(d: int, k: int, nu: float, E_plus: float, tol: float) -> _AndersonPlan:
    """_AndersonPlan(d, k, nu, E_plus, tol), kept for the next caller until another geometry or
    BLOCK_COUPLINGS, which fixes the plan's block, replaces it."""
    return _cached_plan(d, k, nu, E_plus, tol, BLOCK_COUPLINGS)


@functools.lru_cache(maxsize=1)
def _cached_plan(d: int, k: int, nu: float, E_plus: float, tol: float, block_couplings: int) -> _AndersonPlan:
    return _AndersonPlan(d, k, nu, E_plus, tol)  # block_couplings keys the cache: the plan reads BLOCK_COUPLINGS


def potential_on_box(realization: Realization, d: int, k: int, nu: float,
                     tol: float = POTENTIAL_TOL) -> np.ndarray:
    """Potential on every site of {-k..k}^d, same truncation certificate."""
    values = realization.values_at(lattice_cube(d, k + truncation_radius_for(d, nu, tol)))
    return _anderson_plan(d, k, nu, 0.0, tol).potential(values, realization.index)


def sample_anderson(disorder: DisorderSpec, d: int, k: int, nu: float,
                    E_plus: float, seed: int, index: int,
                    tol: float = POTENTIAL_TOL) -> AndersonInstance:
    """Draw one realization and assemble the instance."""
    return assemble_anderson(d, k, E_plus, _anderson_plan(d, k, nu, E_plus, tol).draw(disorder, seed, index))


# -- Monte Carlo spectral statistics -------------------------------------------


def anderson_ids(disorder: DisorderSpec, d: int, k: int, nu: float, energies,
                 n_realizations: int, E_plus: float = 0.0, seed: int = 0,
                 tol: float = POTENTIAL_TOL, threads: int = 1) -> IDSCurve:
    """Mean normalized eigenvalue counts of the box model.

    Realizations are drawn in blocks; failed realizations are dropped as in
    `curves.ensemble_curve`.
    """
    energies = np.asarray(energies, dtype=float)
    vol = float((2 * k + 1) ** d)
    plan = _anderson_plan(d, k, nu, E_plus, tol)

    def block(indices):
        return plan.counts(plan.draws(disorder, seed, indices), energies) / vol

    return ensemble_curve(block, n_realizations, energies, vol, "box", threads, plan.block,
                          model="anderson", seed=seed, nu=nu, E_plus=E_plus)


# -- analytic bounds ------------------------------------------------------------


@dataclass
class BoundEvaluation:
    """Log-domain value of an analytic probability bound plus diagnostics."""

    name: str
    log_bound: float
    t_star: float
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.log_bound > 0:
            raise ValidationError("log probability bound cannot exceed 0")

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound)


def log_mgf_truncated(spec: DisorderSpec, u: float, truncation: float) -> float:
    """log E[exp(-u * min(omega, truncation))], stable for large u.

    Continuous laws use E = exp(-u*t0) + u * int_0^t0 exp(-u x) F(x) dx
    (integration by parts); the integral is evaluated in the scaled variable
    y = u x.  Atomic laws get closed forms.
    """
    if u < 0:
        raise ValidationError("u must be >= 0")
    t0 = min(truncation, 1.0)
    if t0 <= 0:
        raise ValidationError("truncation level must be positive")
    if u == 0.0:
        return 0.0
    if spec.law == "bernoulli":
        jump = min(spec.a, t0)
        return float(np.logaddexp(math.log1p(-spec.p) if spec.p < 1 else -np.inf,
                                  math.log(spec.p) - u * jump) if spec.p > 0
                     else 0.0)
    y_max = min(u * t0, 700.0)

    def integrand(y):
        return math.exp(-y) * law_cdf(spec, min(y / u, 1.0))

    import scipy.integrate  # deferred: it loads scipy.optimize, which nothing else needs
    q, _ = scipy.integrate.quad(integrand, 0.0, y_max, limit=200)
    log_tail = -u * t0
    log_int = math.log(q) if q > 0 else -np.inf
    return float(np.logaddexp(log_tail, log_int))


def _golden_minimize(fn, lo: float, hi: float, iters: int = 200):
    """Golden-section minimum of fn over [lo, hi]; returns (x, fn(x))."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d_ = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d_)
    for _ in range(iters):
        if fc <= fd:
            b, d_, fd = d_, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + phi * (b - a)
            fd = fn(d_)
        if b - a < 1e-12:
            break
    x = c if fc <= fd else d_
    return x, min(fc, fd)


def chernoff_bound_P1(spec: DisorderSpec, k: int, delta: float, K: float = 1.0,
                      C: float = 1.0, d: int = 1, truncation: float = None) -> BoundEvaluation:
    """Upper bound on P{ (1/(C N)) sum of truncated couplings <= delta/K }.

    N = (2k+1)^d sites; the exponent t*delta/K + N log E[exp(-t w/(C N))] is
    minimized by golden-section search over log t in T_BRACKET.  The bound
    is clipped at probability 1.  A minimizer pinned at the bracket edge or a
    flat objective triggers OptimizerWarning.
    """
    check_bound_args("chernoff", {"k": k, "delta": delta, "K": K, "C": C, "d": d, "truncation": truncation})
    n_sites = (2 * k + 1) ** d
    trunc = delta if truncation is None else truncation

    def objective_log(logt):
        t = math.exp(logt)
        val = t * delta / K + n_sites * log_mgf_truncated(spec, t / (C * n_sites), trunc)
        if not math.isfinite(val) and val > 0:
            raise ValidationError("non-finite bound objective")
        return val

    log_lo, log_hi = (math.log(t) for t in T_BRACKET)
    x, fx = _golden_minimize(objective_log, log_lo, log_hi)
    t_star = math.exp(x)
    edge = x - log_lo < 1e-6 or log_hi - x < 1e-6
    probes = [objective_log(log_lo + f * (log_hi - log_lo)) for f in (0.25, 0.5, 0.75)]
    flat = max(probes) - min(probes) <= 1e-12 * max(1.0, abs(probes[1]))
    if edge or flat:
        warnings.warn("bound objective flat or minimized at bracket edge; "
                      "t* is not interior", OptimizerWarning)
    log_bound = min(fx, 0.0)
    return BoundEvaluation(
        name="chernoff_small_mean", log_bound=log_bound, t_star=t_star,
        params={"k": k, "d": d, "delta": delta, "K": K, "C": C, "truncation": trunc},
        details={"n_sites": n_sites, "edge": edge, "flat": flat,
                 "raw_min": fx})


def _log_cdf_clipped(spec: DisorderSpec, x: float) -> float:
    val = law_cdf(spec, min(x, 1.0))
    return math.log(val) if val > 0 else -np.inf


def product_bound_P_eps_alpha_1(spec: DisorderSpec, eps: float, alpha: float,
                                nu: float, d: int) -> BoundEvaluation:
    """Product lower bound forcing small couplings on a core cube + annulus.

    Core: every site |gamma| <= eps^(-(1-alpha)/2) has coupling below
    eps^(1+alpha).  Annulus: sites out to eps^(-(1+2alpha)/(nu-d)) get the
    relaxed threshold eps^(1+alpha) * (1+dist)^((nu-d)(1-alpha)), dist being
    the max-norm distance to the integer core cube.  The annulus is summed per
    max-norm shell r, whose (2r+1)^d - (2r-1)^d sites share one term (the
    shell count in the form 2 sum_{j odd} C(d, j) (2r)^(d-j), positive terms
    only); CDF arguments clipped at 1.
    """
    check_bound_args("product1", {"eps": eps, "alpha": alpha, "nu": nu, "d": d})
    core_r = eps ** (-(1.0 - alpha) / 2.0)
    outer_r = eps ** (-(1.0 + 2.0 * alpha) / (nu - d))
    core_half = int(math.floor(core_r))
    outer_half = int(math.floor(outer_r))
    n_core = (2 * core_half + 1) ** d
    threshold = eps ** (1.0 + alpha)
    log_core = n_core * _log_cdf_clipped(spec, threshold)
    annulus_empty = outer_half <= core_half
    log_annulus = 0.0
    n_annulus = 0
    if not annulus_empty:
        n_annulus = (2 * outer_half + 1) ** d - n_core
        dist = np.arange(1, outer_half - core_half + 1)
        two_r = 2.0 * (core_half + dist)
        shells = 2.0 * sum(math.comb(d, j) * two_r ** (d - j) for j in range(1, d + 1, 2))
        cdf = law_cdf(spec, np.minimum(threshold * (1.0 + dist) ** ((nu - d) * (1.0 - alpha)), 1.0))
        with np.errstate(divide="ignore"):  # a CDF of 0 makes the bound -inf
            log_annulus = float(np.sum(shells * np.log(cdf)))
    log_bound = log_core + log_annulus
    return BoundEvaluation(
        name="product_forced_small_all_sites", log_bound=min(log_bound, 0.0),
        t_star=float("nan"),
        params={"eps": eps, "alpha": alpha, "nu": nu, "d": d},
        details={"log_p_core": log_core, "log_p_annulus": log_annulus,
                 "n_core": n_core, "n_annulus": n_annulus,
                 "core_half_side": core_half, "outer_half_side": outer_half,
                 "annulus_empty": annulus_empty, "threshold": threshold})


def _window_half_side(eps: float, alpha: float, s: float) -> int:
    """Half side of product2's window, floor((eps^s)^(-(1/2+alpha)))."""
    return int(math.floor((eps ** s) ** -(0.5 + alpha)))


def product_bound_P_eps_alpha_2(spec: DisorderSpec, eps: float, alpha: float,
                                nu: float, d: int, s: float = 1.0,
                                C: float = 1.0) -> BoundEvaluation:
    """Product lower bound over the window of half-side (eps^s)^(-(1/2+alpha))."""
    check_bound_args("product2", {"eps": eps, "alpha": alpha, "nu": nu, "d": d, "s": s, "C": C})
    half = _window_half_side(eps, alpha, s)
    n_sites = (2 * half + 1) ** d
    arg = eps ** (1.0 + alpha) / C
    log_bound = n_sites * _log_cdf_clipped(spec, arg)
    return BoundEvaluation(
        name="product_forced_small_window", log_bound=min(log_bound, 0.0),
        t_star=float("nan"),
        params={"eps": eps, "alpha": alpha, "nu": nu, "d": d, "s": s, "C": C},
        details={"window_half_side": half, "n_sites": n_sites,
                 "cdf_argument": min(arg, 1.0)})


# bounds-config type -> (its bound, {argument: (upper end, upper end included)}); each
# argument lies above 0, and a product bound's nu in (d, d+2] besides
BOUNDS = {"chernoff": (chernoff_bound_P1, {"delta": (1.0, True), "K": (math.inf, False), "C": (math.inf, False),
                                            "truncation": (math.inf, False)}),
          "product1": (product_bound_P_eps_alpha_1, {"eps": (1.0, False), "alpha": (1.0, False)}),
          "product2": (product_bound_P_eps_alpha_2, {"eps": (1.0, True), "alpha": (1.0, False), "s": (1.0, True),
                                                      "C": (math.inf, False)})}


def check_bound_args(kind: str, args: dict, annulus: bool = True):
    """Raise ValidationError unless `args` (by name: the integers d >= 1 and chernoff's k >= 0, a
    product bound's nu and each argument of BOUNDS[kind]'s domain that args holds, None standing
    for one not given) lie in the domain of bound `kind`, a bounds-config type, and, with
    `annulus`, product1's outer half side is at most PRODUCT1_MAX_SHELLS.  A Monte Carlo companion
    passes the arguments it shares with its bound; mc_product_event_1 forms no annulus."""
    for key, low in (("k", 0), ("d", 1)):
        n = _integral(args.get(key, low))
        if n is None or n < low:
            raise ValidationError(f"{key} must be an integer >= {low}, got {args[key]!r}")
    for key, (hi, closed) in BOUNDS[kind][1].items():
        value = args.get(key)
        if value is not None and not (0 < float(value) < hi or (closed and float(value) == hi)):
            raise ValidationError(f"{key} must lie in (0, {hi:g}{']' if closed else ')'}")
    d = int(args["d"])
    if kind != "chernoff" and not d < float(args["nu"]) <= d + 2:
        raise ValidationError("need nu in (d, d+2]")
    if kind == "product1" and annulus:  # outer half side eps^(-(1+2 alpha)/(nu-d)), in logs: the power overflows
        exponent = (1.0 + 2.0 * float(args["alpha"])) / (float(args["nu"]) - d)
        log10_outer = -exponent * math.log10(float(args["eps"]))
        if log10_outer > math.log10(PRODUCT1_MAX_SHELLS):
            raise ValidationError(f"outer half side eps^(-(1+2 alpha)/(nu-d)) = 10^{log10_outer:.2f} "
                                  f"exceeds {PRODUCT1_MAX_SHELLS:,}, the most shells product1 sums")


# -- Monte Carlo companions of the bounds ----------------------------------------


def _mc_frequency(spec: DisorderSpec, d: int, half_side: int, n_trials: int, seed: int, event):
    """runner.frequency of event(omega), omega the couplings on lattice_cube(d, half_side) in
    cube order; trial i draws stream (seed, i)."""
    hashes = cube_hashes(d, half_side)

    def hits(indices):
        return [event(omega) for omega in draw_couplings(spec, hashes, seed, indices)]

    return frequency(hits, n_trials, block=_block(hashes))


def mc_chernoff_event(spec: DisorderSpec, k: int, delta: float, K: float = 1.0,
                      C: float = 1.0, d: int = 1, n_trials: int = 10000,
                      seed: int = 0, truncation: float = None):
    """Frequency of the small-empirical-mean event the Chernoff bound majorizes."""
    check_bound_args("chernoff", {"k": k, "delta": delta, "K": K, "C": C, "d": d, "truncation": truncation})
    scale = C * (2 * k + 1) ** d
    trunc = delta if truncation is None else truncation
    thr = delta / K
    return _mc_frequency(spec, d, k, n_trials, seed, lambda omega: np.minimum(omega, trunc).sum() / scale <= thr)


def _cross_weights(d: int, inner: int, outer: int, nu: float) -> np.ndarray:
    """(1 + |beta - gamma|_inf)^(-nu) for beta in lattice_cube(d, inner) (rows) and gamma in
    lattice_cube(d, outer) (columns).  1 + the max-norm distance is the largest per-axis
    1 + |beta_j - gamma_j|, broadcast on axes (beta_1..beta_d, gamma_1..gamma_d): no
    (rows, columns, d) difference array."""
    gap = 1.0 + np.abs(np.arange(-inner, inner + 1)[:, None] - np.arange(-outer, outer + 1))

    def axis_gap(j):
        shape = [1] * (2 * d)
        shape[j], shape[d + j] = gap.shape
        return gap.reshape(shape)

    return functools.reduce(np.maximum, map(axis_gap, range(d))).reshape(gap.shape[0] ** d, -1) ** (-nu)


def mc_product_event_1(spec: DisorderSpec, eps: float, alpha: float, nu: float,
                       d: int, n_trials: int = 10000, seed: int = 0):
    """Certified-from-below frequency of the uniform small-field event.

    Event: for every |beta| <= eps^(-(1+alpha)/2), the weighted coupling sum
    sum_gamma omega_gamma (1+|beta-gamma|)^(-nu) stays below eps^(1+alpha).
    Couplings outside a window of extra radius PAD_RADIUS are budgeted at
    their worst case (omega = 1), so a counted hit implies the true event.
    """
    check_bound_args("product1", {"eps": eps, "alpha": alpha, "nu": nu, "d": d}, annulus=False)
    beta_half = int(math.floor(eps ** (-(1.0 + alpha) / 2.0)))
    pad_half = beta_half + PAD_RADIUS
    # worst-case contribution of all sites beyond the sampled window
    far = _tail_bound(d, nu, PAD_RADIUS)
    weights = _cross_weights(d, beta_half, pad_half, nu)
    threshold = eps ** (1.0 + alpha)
    return _mc_frequency(spec, d, pad_half, n_trials, seed, lambda omega: np.max(weights @ omega) + far <= threshold)


def mc_product_event_2(spec: DisorderSpec, eps: float, alpha: float, nu: float,
                       d: int, s: float = 1.0, n_trials: int = 10000,
                       seed: int = 0):
    """Frequency of {sum over the window of omega*(1+|gamma|)^(-nu) <= eps^(1+alpha)/2}."""
    check_bound_args("product2", {"eps": eps, "alpha": alpha, "nu": nu, "d": d, "s": s})
    half = _window_half_side(eps, alpha, s)
    weights = max_norm_cube(lambda r: (1.0 + r) ** (-nu), d, half).ravel()
    threshold = eps ** (1.0 + alpha) / 2.0
    return _mc_frequency(spec, d, half, n_trials, seed, lambda omega: float(weights @ omega) <= threshold)
