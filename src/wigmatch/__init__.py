"""wigmatch: robust matching of correlated Gaussian Wigner matrices.

Pipeline: generate a correlated pair, apply adversarial principal-minor
corruption, re-inject noise and spectrally clean, run a vector-AMP
iteration from oracle seed tuples, finish with an exact linear assignment,
refine with thresholded co-neighbourhood swaps, and select the best
candidate permutation by indicator overlap.
"""

__version__ = "0.1.0"

from .amp import (AmpIterate, SeedPair, SpectralRounds, advance, amp_round, bad_seed_pair,
                  good_seed_pair, init_iterate, run_amp, spectral_rounds)
from .assign import AssignmentProblem, assemble_pi, build_scores, solve_lap
from .config import RunConfig, make_config
from .denoiser import (Denoiser, Schedule, build_schedule, lambda_bound,
                       make_denoiser, reference_k0_bound, phi_map,
                       phi_second_deriv_at_zero, taylor_coefficients)
from .errors import (NumericalError, ParameterError, RecordError, ScheduleError,
                     SpectralDeficiencyError)
from .model import (CorrelatedInstance, CorruptionPlan, ObservedPair, corrupt,
                    generate, overlap)
from .pipeline import compare_clean_corrupted, run_pipeline, sweep, validate_record
from .preprocess import CleanedPair, clean_pair, reinject_noise, spectral_clean
from .refine import (RefineParams, compute_alpha, compute_psi, final_select,
                     neighborhood_stat, seeded_refine, selection_score)
from .spectral import (RoundMatrices, SpectralStep, build_xi, initial_round,
                       sample_beta, sample_sign_matrix, update_round)
