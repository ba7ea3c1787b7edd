"""Sparse-angle tomographic reconstruction over compactly supported wavelet
dictionaries, with numerical certification of the recovery machinery."""

from .weights import (SparseApproxResult, WeightVector, quasi_best_sparse_approx,
                      stechkin_bound, weighted_norm, weighted_size)
from .wavelets import (AtomIndex, DictionaryAtlas, GridSpec, WaveletFilter,
                       analysis, build_atlas, build_filter, discrete_gram,
                       synthesis, truncation_positions)
from .models import (FanBeamModel, FourierWaveletModel, LegendrePointModel,
                     RadonModel, SampledSystem, assemble_system, draw_samples,
                     population_gram_matrix)
from .certify import (GramCertificate, RipEstimate, compute_gram,
                      delta_star_montecarlo, sample_complexity)
from .solve import SolveConfig, SolveResult, solve_constrained_l1
from .phantoms import PhantomSpec, make_phantom
from .io import SweepRecord
from .experiments import (ExperimentConfig, calibrate_recovery_constant, fit_scaling,
                          fit_scaling_windowed, j0_for_beta,
                          recovery_rule_m, run_certification_report,
                          run_recovery_sweep)

__version__ = "0.1.0"
