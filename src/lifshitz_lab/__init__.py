"""Numerical laboratory for low-energy spectra of random divergence-form
lattice operators: finite-volume assembly, Floquet bands, integrated density
of states, band-edge tail exponents, and the probabilistic estimates feeding
localization proofs."""

import os as _os
import sys as _sys

# BLAS runs on one thread, so that artifacts do not depend on the host's pool:
# d = 2 bands rows moved by rounding between one and two OpenBLAS threads, and
# a second thread made these small dense solves no faster on a two-core host.
# The variables are read once, when numpy loads its BLAS, so they are set (over
# any value in the environment) before the first numpy import; a caller that
# loaded numpy first keeps its pool, and manifest.json's blas_threads says so.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in _sys.modules:
    _BLAS_THREADS = "numpy was loaded before lifshitz_lab, with " + ", ".join(
        f"{var}={_os.environ.get(var, 'unset')}" for var in _BLAS_VARS)
else:
    _BLAS_THREADS = dict.fromkeys(_BLAS_VARS, "1")
    _os.environ.update(_BLAS_THREADS)

from .anderson import (AndersonInstance, BoundEvaluation, OptimizerWarning,
                       anderson_ids, assemble_anderson,
                       chernoff_bound_P1, log_mgf_truncated, mc_chernoff_event,
                       mc_product_event_1, mc_product_event_2, potential_on_box,
                       product_bound_P_eps_alpha_1, product_bound_P_eps_alpha_2,
                       sample_anderson, truncation_radius_for)
from .config import (Diagnostic, ExperimentConfig, config_hash, load_config,
                     parse_config, validate)
from .curves import IDSCurve, InsufficientDataError, ensemble_curve
from .disorder import (CoverageError, DisorderSpec, Realization, ValidationError,
                       lattice_cube, sample_realization, site_uniforms)
from .experiments import RunManifest, RunResult, run
from .ids import (CheckReport, ExponentFit, decay_diagnostic, empirical_ids,
                  expected_periodic_ids, ile_check, lifshitz_exponent, sandwich_check,
                  shell_decay_rate, theoretical_exponent, wegner_check)
from .lattice import (AssembledOperator, BoxSpec, CoefficientField,
                      PeriodicBackground, SingleSiteProfile, assemble_operator,
                      background_field, compact_profile, identity_field,
                      long_range_profile, operator_sampler, required_window,
                      sample_coefficient_field, short_range_profile)
from .runner import (TaskFailure, ensemble, frequency, indexed_map, resolve_threads,
                     trials)
from .spectral import (BandStructure, SolverError, count_eigenvalues_below,
                       count_sorted_leq, counts_below, floquet_bands, periodic_ids_curve, spectral_gaps)
from .stats import bootstrap_slope_interval, clopper_pearson, fit_line, mean_stderr
from .version import __version__
