"""Exact solver and analysis toolkit for a scalar delay equation with
piecewise-constant negative feedback: closed-form limit cycle, single-pulse
response (case classification, cycle length, extrema), therapy planning, and
the three-level deep-suppression extension, all cross-checked against a
brute-force dense integrator."""

from .arcs import ExpArc, History
from .engine import FeedbackTable, PulseWindow, Trajectory, Zero, evolve
from .exceptions import (DomainError, HorizonExhausted, IdenticallyZeroHistory,
                         MismatchedExperiment, NoUndershoot, NonTransversalArc,
                         OutOfDomainError, PlanInfeasible, RegimeError,
                         RelayDDEError, StandingHypothesisViolated, StepTooLarge,
                         ValidationError)
from .oracle import DenseTrajectory, OraclePulse, compare, integrate_dense
from .orbit import (MergeInfo, MergePhase, PeriodicOrbit, merge_time,
                    merge_window, periodic_solution)
from .params import (ModelParams, PulseSpec, RawParams, Regime, check_pulse,
                     equilibrium, nondimensionalize, regime)
from .pulse import (Case, CaseCode, CycleStats, PulseContext, Responses, Thresholds,
                    case_cycle_length, classify, pulsed_trajectory,
                    response_closed_form, response_simulated, thresholds)
from .sweep import (CaseInterval, MonotonicityReport, SweepTable, case_sequence,
                    cycle_length_map, monotonicity_report)
from .therapy import (TherapyChecks, TherapyInput, TherapyOutcome, TherapyPlan,
                      apply_plan, plan, predict_t_d)
from .threelevel import (ThreeLevelParams, ThreeLevelResponse, simulate_pulse,
                         three_level_pulse, undershoot_threshold)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
