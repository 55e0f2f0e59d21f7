"""Spectral recovery of initial states in semilinear parabolic problems
from nonlocal-in-time observations."""

from .errors import (AdmissibilityError, ConfigError, IllPosedModeError,
                     InvalidParameterError, NumericFailureError, SpecrecError)
from .spectral import (FractionalNormSpec, SpectralOperator, TimeGrid,
                       Trajectory, analyze, build_fourth_order,
                       build_second_order, default_grading, default_shift,
                       fractional_norm, make_graded_grid, synthesize,
                       weighted_sup_norm)
from .kernels import ModeWeights, WeightFunction, beta_function, mode_weights
from .nonlinearity import (MemoryKernel, Nonlinearity, PowerLaw, Zero,
                           check_growth_condition)
from .duhamel import duhamel_convolve, forward_solve, observe
from .recover import (ConditionE, ConditionE100, ConditionE200,
                      FixedPointReport, GrowthExponents, NonlocalCondition,
                      RecoveryPlan, WellPosednessEstimate, apply_psi_E,
                      build_plan, check_spectral_condition, picard_recover,
                      theoretical_threshold)
from .config import ExperimentConfig, config_from_dict, emit_csv, emit_json, parse_config
from .harness import (RoundTripResult, SweepRow, roundtrip,
                      sweep_threshold, synthesize_observation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
