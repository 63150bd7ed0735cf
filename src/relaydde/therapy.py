"""Single-cycle therapy planning: keep the state above a critical level.

Given a positive history (yesterday's measurements), the untreated solution
is predicted to cross a critical level x_d at

    t_d = z1 + ln(beta_U / (x_d + beta_U)),   z1 = ln((phi(0) + beta_U)/beta_U),

on its way down to the cycle minimum at z1 + tau. Raising production by a_d
over [t_M, t_M + sigma] with t_M = t_d - tau - sigma lifts the minimum to
exactly x_d, where

    a_d = (x_d - xmin) e^tau (x_d + beta_U) / (beta_U (1 - e^-sigma)).

Feasibility is data, not an exception: the plan carries the four checks
(medication time positive, sigma window, treated level still negative at
t_d, amplitude small enough) and is feasible iff all hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arcs import History
from .engine import PulseWindow, Trajectory, evolve
from .exceptions import DomainError, PlanInfeasible
from .orbit import periodic_solution
from .params import ModelParams


@dataclass(frozen=True)
class TherapyInput:
    params: ModelParams
    sigma: float
    x_d: float
    history: History

    def __post_init__(self):
        orb = periodic_solution(self.params)   # the regime gate
        object.__setattr__(self, "_orbit", orb)
        if not orb.x_min < self.x_d < 0:
            raise DomainError(f"critical level x_d = {self.x_d} must lie in "
                              f"(xmin = {orb.x_min}, 0)")
        if not self.sigma > 0:
            raise DomainError(f"sigma = {self.sigma} must be > 0")
        # arcs are monotone: positive on (t_start, t_end] iff start >= 0 < end
        if not all(arc.start_value >= 0 < arc.end_value for arc in self.history.arcs):
            raise DomainError("history must be positive on (-tau, 0]")

    @property
    def phi0(self) -> float:
        return self.history.value(0.0)


@dataclass(frozen=True)
class TherapyChecks:
    t_m_positive: bool        # t_d - tau - sigma > 0: not too late for medication
    sigma_window: bool        # z1 < t_d - sigma: pulse starts after the zero
    x_d_negative: bool        # x_d + a_d (1 - e^-sigma) < 0: stays below zero
    amplitude: bool           # (x_d - xmin) e^tau (x_d + beta_U) < -beta_U x_d
    t_m_relaxed: bool         # tau < t_d: the weaker necessary condition

    @property
    def feasible(self) -> bool:
        return (self.t_m_positive and self.sigma_window
                and self.x_d_negative and self.amplitude)


@dataclass(frozen=True)
class TherapyPlan:
    z1: float
    t_d: float
    t_m: float
    a_d: float
    checks: TherapyChecks
    predicted_period: float

    @property
    def feasible(self) -> bool:
        return self.checks.feasible

    def to_dict(self) -> dict:
        return {"z1": self.z1, "t_d": self.t_d, "t_M": self.t_m, "a_d": self.a_d,
                "checks": {"tMpos": self.checks.t_m_positive,
                           "sigma_window": self.checks.sigma_window,
                           "xdneg": self.checks.x_d_negative,
                           "ad": self.checks.amplitude,
                           "tM_relaxed": self.checks.t_m_relaxed},
                "feasible": self.feasible,
                "predicted_period": self.predicted_period}


def predict_t_d(params: ModelParams, phi0: float, x_d: float) -> tuple[float, float]:
    """First zero z1 of the untreated prediction and its x_d crossing time t_d.

    t_d always lands in (z1, z1 + tau): the crossing happens on the way down
    to the minimum.
    """
    orb = periodic_solution(params)
    if not phi0 > 0:
        raise DomainError(f"phi(0) = {phi0} must be > 0")
    if not orb.x_min < x_d < 0:
        raise DomainError(f"x_d = {x_d} must lie in (xmin = {orb.x_min}, 0)")
    return _t_d(params.beta_u, phi0, x_d)


def _t_d(bu: float, phi0: float, x_d: float) -> tuple[float, float]:
    """predict_t_d's (z1, t_d) for arguments already in its domain."""
    z1 = math.log((phi0 + bu) / bu)
    return z1, z1 + math.log(bu / (x_d + bu))


def plan(inp: TherapyInput) -> TherapyPlan:
    """Medication time, unique amplitude, and the four feasibility checks."""
    p, orb = inp.params, inp._orbit
    z1, t_d = _t_d(p.beta_u, inp.phi0, inp.x_d)
    t_m = t_d - p.tau - inp.sigma
    gain = -math.expm1(-inp.sigma)          # 1 - e^-sigma
    dose = (inp.x_d - orb.x_min) * math.exp(p.tau) * (inp.x_d + p.beta_u)
    a_d = dose / (p.beta_u * gain)
    checks = TherapyChecks(
        t_m_positive=t_m > 0,
        sigma_window=z1 < t_d - inp.sigma,
        x_d_negative=inp.x_d + a_d * gain < 0,
        amplitude=dose < -p.beta_u * inp.x_d,
        t_m_relaxed=p.tau < t_d,
    )
    z2 = z1 + p.tau + math.log((p.beta_l - inp.x_d) / p.beta_l)
    return TherapyPlan(z1=z1, t_d=t_d, t_m=t_m, a_d=a_d, checks=checks,
                       predicted_period=z2 + p.tau)


@dataclass(frozen=True)
class TherapyOutcome:
    trajectory: Trajectory
    achieved_min: float       # x(z1 + tau), the lifted nadir
    cycle_min: float          # min over the whole first cycle
    achieved_period: float    # z2 + tau


def apply_plan(inp: TherapyInput, therapy: TherapyPlan,
               amplitude: Optional[float] = None) -> TherapyOutcome:
    """Simulate the treated solution and measure what the plan achieved.

    Production is raised on [t_M, t_M + sigma], so release is raised on
    [t_d - sigma, t_d]. ``amplitude`` overrides a_d (for dose-response
    experiments); the feasibility gate applies only to the planned dose.
    """
    if amplitude is None:
        if not therapy.feasible:
            raise PlanInfeasible(f"plan checks failed: {therapy.to_dict()['checks']}")
        amplitude = therapy.a_d
    elif not (math.isfinite(amplitude) and amplitude >= 0):
        raise DomainError(f"amplitude = {amplitude} must be finite and >= 0")
    p = inp.params
    horizon = therapy.predicted_period + p.tau + 1.0
    pulse = PulseWindow(amplitude, therapy.t_d - inp.sigma, therapy.t_d) \
        if amplitude > 0 else None
    traj = evolve(p, inp.history, horizon, pulse=pulse)
    achieved_min = traj.value(therapy.z1 + p.tau)
    zs = [z.t for z in traj.zeros if z.t > therapy.z1 + 1e-12]
    achieved_period = (zs[0] + p.tau) if zs else math.inf
    cycle_min, _ = traj.breakpoint_extrema(0.0, min(achieved_period, traj.horizon))
    return TherapyOutcome(trajectory=traj, achieved_min=achieved_min,
                          cycle_min=cycle_min, achieved_period=achieved_period)
