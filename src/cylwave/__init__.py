"""Traveling waves of reaction-diffusion equations in truncated cylinders.

Computes the selected front speed and its minimizing profile, cross-section
eigenvalues and spectral gaps, and verifies moving-frame exponential
convergence by tracking the front of simulated initial-value problems.
"""

__version__ = "0.1.0"

from .grids import (CylinderGrid, CrossSectionField, Field, GridConfig,
                    apply_boundary, build_grid)
from .reactions import (CubicBistable, HeterogeneousCubic, ReactionModel,
                        StackedBistable, check_hypotheses, make_model)
from .sections import (CriticalPoint, EigenResult, check_speed_admissible,
                       find_critical_point, principal_eigenpair, section_energy)
from .evolve import (EvolutionState, Stepper, compare_evolutions, dt_max,
                     weighted_energy)
from .waves import (GapResult, WaveSolution, front_seed, secondary_speed,
                    solve_wave, spectral_gap, translation_profile)
from .tracking import (FrontState, FrontTrace, fit_decay, locate_front,
                       mismatch, mismatch_derivatives, track, z_delta)
from .weighted import (WeightedMeasure, translate, weighted_inner,
                       weighted_norm_h1, weighted_norm_h2, weighted_norm_l2)
from .config import ExperimentConfig, parse_config, parse_config_file
from .scenarios import RunManifest, read_manifest, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
