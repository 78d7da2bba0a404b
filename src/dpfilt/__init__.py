"""dpfilt: design, analysis and simulation of differentially private
approximations of MIMO LTI filters processing event streams."""

from . import errors
from .df import (DfDesign, design_df, df_factorizations,
                 df_theory_mse, optimal_feedback, run_df_mechanism)
from .lms import (CausalWienerFilter, assemble_lms, causal_wiener,
                  lms_objective, optimize_prefilter_general, postfilter_mse,
                  waterfill_diagonal, wiener_smoother, wiener_spectra)
from .lti import (DEFAULT_GRID, RationalFilter, TransferMatrix,
                  column_energies, effective_length, freq_response,
                  grid_omega, h2_norm, observability_gramian, simulate,
                  trapezoid_mean)
from .markov import (MarkovSource, autocovariance, chain_spectrum,
                     sample_chain, server_example, server_stationary,
                     stationary_distribution)
from .privacy import (PrivacySpec, gaussian_delta, kappa, noise_sigma,
                      q_function, q_inverse)
from .sensitivity import (SensitivityReport, brute_force_sensitivity,
                          diagonal_sensitivity, mimo_bounds, mimo_exact)
from .sim import (FixedStreamSource, OccupancySource, compare_mechanisms,
                  demo_filter, empirical_mse, gaussian_fir, moving_average,
                  occupancy_filter_bank, run_mechanism)
from .spectral import (MatrixFactorization, factor_grid_error,
                       matrix_canonical_factor, paley_wiener_check,
                       scalar_spectral_factor)
from .zfe import (MechanismDesign, assemble_output_perturbation, assemble_zfe,
                  design_diag_prefilter,
                  zfe_general_lower_bound, zfe_mse_diag_bound)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
