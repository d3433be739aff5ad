"""Spectral separation-of-variables filter for diffusions in correlated noise.

The offline half projects the density evolution on a Hermite-function
basis and precomputes chaos-coefficient flow matrices per multi-index;
the online half reduces each observation window to a handful of mode
integrals and advances the density coefficients by one dense matrix
product per step.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .galerkin import FilterModel, GalerkinSystem, assemble, dissipativity_gap
from .hermite import (QuadratureGrid, SpatialBasis, build_basis, eval_basis, gauss_hermite_grid,
                      gram_matrix, lambda_power_norm, project)
from .models import ModelBundle, build_model, correlated_ou, cubic_sensor, ou_linear
from .multiindex import MultiIndex, enumerate_counts, enumerate_truncated
from .propagator import (PropagatorTable, TemporalBasis, brownian_second_moment,
                         closed_form_order1, cosine_basis, load_table, parseval_mass,
                         precompute_table, save_table, truncation_certificate)
from .reference import ComparisonSummary, LinearModel, compare_on_path, kalman_bucy
from .runtime import (DegenerateNormalizationError, FilterRun, FilterState, ObservationWindow,
                      advance, cut_windows, density_at, estimate, functional, read_observations,
                      run_filter, step_matrix, write_observations, xi_integrals)
from .simulate import SimulationConfig, sample_initial, simulate_paths

__version__ = "0.1.0"
