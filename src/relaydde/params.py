"""Parameter containers, validation, and nondimensionalization.

The raw model

    x'(t) = -gamma*x(t) + b_L   if x(t - tau_raw) <  theta
    x'(t) = -gamma*x(t) + b_U   if x(t - tau_raw) >= theta

with gamma, theta > 0 and 0 < b_U < b_L reduces, via

    x_hat(t) = x(t/gamma) - theta,
    tau      = gamma * tau_raw,
    beta_L   = -theta + b_L/gamma,
    beta_U   =  theta - b_U/gamma,

to the three-parameter form

    x'(t) = -x(t) + beta_L   if x(t - tau) <  0
    x'(t) = -x(t) - beta_U   if x(t - tau) >= 0.

The degenerate cases b_L = gamma*theta and b_U = gamma*theta (beta_L = 0 or
beta_U = 0) are rejected: there the state set Z is not positively invariant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .exceptions import ValidationError


class Regime(enum.Enum):
    """Long-term behaviour of the unperturbed system."""

    OSCILLATORY = "oscillatory"   # beta_L > 0 and beta_U > 0: stable limit cycle
    GAS_UPPER = "gas_upper"       # beta_U < 0: equilibrium -beta_U, globally stable
    GAS_LOWER = "gas_lower"       # beta_L < 0: equilibrium beta_L, globally stable


@dataclass(frozen=True)
class RawParams:
    """Parameters of the dimensional model.

    Units: gamma is 1/time, b_L and b_U are amount/time, theta is amount,
    tau_raw is time.
    """

    gamma: float
    b_l: float
    b_u: float
    theta: float
    tau_raw: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError("gamma_positive", f"gamma = {self.gamma} must be > 0")
        if not self.theta > 0:
            raise ValidationError("theta_positive", f"theta = {self.theta} must be > 0")
        if not self.tau_raw > 0:
            raise ValidationError("tau_raw_positive", f"tau_raw = {self.tau_raw} must be > 0")
        if not self.b_u > 0:
            raise ValidationError("b_u_positive", f"b_U = {self.b_u} must be > 0")
        if not self.b_u < self.b_l:
            raise ValidationError("b_order", f"need b_U < b_L, got b_U = {self.b_u}, b_L = {self.b_l}")
        if self.b_l == self.gamma * self.theta:
            raise ValidationError("b_l_degenerate",
                                  "b_L = gamma*theta is the excluded degenerate case (beta_L = 0)")
        if self.b_u == self.gamma * self.theta:
            raise ValidationError("b_u_degenerate",
                                  "b_U = gamma*theta is the excluded degenerate case (beta_U = 0)")


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the nondimensional model (delay tau, levels beta_L, -beta_U)."""

    tau: float
    beta_l: float
    beta_u: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValidationError("tau_positive", f"tau = {self.tau} must be > 0")
        if not (math.isfinite(self.beta_l) and math.isfinite(self.beta_u)):
            raise ValidationError("beta_finite", f"beta_L = {self.beta_l} and "
                                  f"beta_U = {self.beta_u} must be finite")
        if self.beta_l == 0:
            raise ValidationError("beta_l_nonzero", "beta_L = 0 is the excluded degenerate case")
        if self.beta_u == 0:
            raise ValidationError("beta_u_nonzero", "beta_U = 0 is the excluded degenerate case")
        if not -self.beta_u < self.beta_l:
            raise ValidationError("beta_sum_positive",
                                  f"need -beta_U < beta_L, got beta_L = {self.beta_l}, "
                                  f"beta_U = {self.beta_u}")


@dataclass(frozen=True)
class PulseSpec:
    """A single production pulse: amplitude a, onset delta, duration sigma.

    The standing hypothesis a < beta_U guards every closed-form result; the
    ``relaxed`` flag (off by default) admits a >= beta_U for simulation-only
    exploration of the FNFP regime.
    """

    a: float
    delta: float
    sigma: float
    relaxed: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValidationError("amp_positive", f"amplitude a = {self.a} must be finite and > 0")
        if not self.sigma > 0:
            raise ValidationError("sigma_positive", f"sigma = {self.sigma} must be > 0")
        if not self.delta >= 0:
            raise ValidationError("delta_nonnegative", f"delta = {self.delta} must be >= 0")


def nondimensionalize(raw: RawParams) -> ModelParams:
    """Map the five raw parameters to the three nondimensional ones.

    Guarantees beta_L + beta_U > 0 (from b_U < b_L).
    """
    return ModelParams(
        tau=raw.gamma * raw.tau_raw,
        beta_l=-raw.theta + raw.b_l / raw.gamma,
        beta_u=raw.theta - raw.b_u / raw.gamma,
    )


def regime(params: ModelParams) -> Regime:
    """Classify the long-term behaviour (globally stable point vs limit cycle)."""
    if params.beta_u < 0:
        return Regime.GAS_UPPER
    if params.beta_l < 0:
        return Regime.GAS_LOWER
    return Regime.OSCILLATORY


def equilibrium(params: ModelParams) -> float | None:
    """Equilibrium value in the GAS regimes, None in the oscillatory one."""
    r = regime(params)
    if r is Regime.GAS_UPPER:
        return -params.beta_u
    if r is Regime.GAS_LOWER:
        return params.beta_l
    return None


def check_pulse(params: ModelParams, pulse: PulseSpec) -> None:
    """Validate the parameter-dependent pulse clauses.

    sigma <= tau always; a < beta_U unless the pulse is flagged relaxed.
    """
    if not pulse.sigma <= params.tau:
        raise ValidationError("sigma_le_tau",
                              f"sigma = {pulse.sigma} must be <= tau = {params.tau}")
    if not pulse.relaxed and not pulse.a < params.beta_u:
        raise ValidationError("amp_standing",
                              f"standing hypothesis needs a < beta_U "
                              f"(a = {pulse.a}, beta_U = {params.beta_u}); "
                              "set relaxed=True for simulation-only runs")
