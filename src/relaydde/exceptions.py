"""Exception types shared across the package.

Validation failures carry a machine-readable ``clause`` naming the violated
invariant, so callers (and tests) can distinguish e.g. a non-positive decay
rate from a degenerate production level without parsing messages.
"""

from __future__ import annotations


class RelayDDEError(Exception):
    """Base class for all package errors."""


class ValidationError(RelayDDEError, ValueError):
    """An input violated a documented invariant.

    Attributes:
        clause: stable identifier of the violated invariant.
    """

    def __init__(self, clause: str, message: str):
        super().__init__(f"{clause}: {message}")
        self.clause = clause


class RegimeError(RelayDDEError):
    """Operation requires the oscillatory regime (beta_L, beta_U > 0)."""


class OutOfDomainError(RelayDDEError):
    """A pulse onset or query time lies outside its admissible interval."""


class StandingHypothesisViolated(RelayDDEError):
    """Closed forms need a < beta_U; use the simulated route instead."""


class IdenticallyZeroHistory(RelayDDEError):
    """History contains an identically-zero stretch, so it is not in Z."""


class HorizonExhausted(RelayDDEError):
    """Trajectory is too short to contain the guaranteed merge window."""


class PlanInfeasible(RelayDDEError):
    """apply_plan called with a therapy plan whose checks failed."""


class StepTooLarge(RelayDDEError):
    """Dense integrator step must satisfy h <= tau / 100."""


class MismatchedExperiment(RelayDDEError):
    """Exact and dense runs cover different spans or setups."""


class NoUndershoot(RelayDDEError):
    """Every tau > 0 undershoots, so no positive threshold tau0 exists."""


class DomainError(RelayDDEError):
    """Scalar argument outside the documented domain."""


class NonTransversalArc(RelayDDEError):
    """Arc is identically zero (c = k = 0); crossings are undefined."""
