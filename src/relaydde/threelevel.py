"""Three-level production: strong suppression above the orbit maximum.

With production

    beta_L   for x < 0,  -beta_U  for 0 <= x < xi,  -beta*  for x >= xi,

xi fixed at the orbit maximum and beta* > beta_U, the two-level periodic
solution still solves the equation (it only grazes xi). A pulse over
[z1, z1 + tau] in the rising phase pushes the state above xi; one delay
later the deep suppression -beta* drives it down, and for large enough tau
the post-pulse minimum falls strictly below the unperturbed minimum. The
four checkpoint values have closed forms:

    x(z1 + tau)   = (beta_L + a)(1 - e^-tau)
    e^{z1 - t*}   = (a + beta_L e^-tau) / (a + beta_L)     (t*: xi upcrossing)
    x(t* + tau)   = -beta_U + (x(z1 + tau) + beta_U) e^{z1 - t*}
    x(z1 + 2 tau) = -beta* + (x(t* + tau) + beta*) e^{t* - z1} e^-tau

Substituting them, with E = e^-tau, the undershoot gap is

    g(tau) = x(z1 + 2 tau) - x_min = (1 - E) h(E) / (a + beta_L E),
    h(E)   = (beta_L + a) E (a + beta_L E) - (beta* - beta_U) a.

On 0 < E < 1, h is strictly increasing and h(0) < 0, so g changes sign at
most once, from positive (short tau) to negative (long tau), and does so
exactly when h(1) = (beta_L + a)^2 - (beta* - beta_U) a > 0. The threshold
tau0 = -log E0 is then the root E0 in (0, 1) of the quadratic h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .engine import FeedbackTable, PulseWindow, Trajectory, evolve
from .exceptions import DomainError, NoUndershoot
from .orbit import PeriodicOrbit, periodic_solution
from .params import ModelParams


@dataclass(frozen=True)
class ThreeLevelParams:
    """Two-level base plus the deep-suppression level beta* > beta_U.

    The upper threshold is fixed at the orbit maximum; other choices have no
    closed forms and are not supported.
    """

    base: ModelParams
    beta_star: float

    def __post_init__(self):
        object.__setattr__(self, "_orbit", periodic_solution(self.base))   # the regime gate
        if not (math.isfinite(self.beta_star) and self.beta_star > self.base.beta_u):
            raise DomainError(f"beta* = {self.beta_star} must be finite and exceed "
                              f"beta_U = {self.base.beta_u}")

    @property
    def xi(self) -> float:
        return self._orbit.x_max

    def feedback(self) -> FeedbackTable:
        return FeedbackTable((0.0, self.xi),
                             (self.base.beta_l, -self.base.beta_u, -self.beta_star))


@dataclass(frozen=True)
class ThreeLevelResponse:
    x_at_z1_tau: float          # top of the boosted rise, above xi
    t_star: float               # first xi upcrossing after z1
    x_at_tstar_tau: float
    x_at_z1_2tau: float         # checkpoint that can undershoot the minimum
    xmin_base: float
    undershoot: bool

    def to_dict(self) -> dict:
        return {"x_tmax": self.x_at_z1_tau, "t_star": self.t_star,
                "x_tstar_tau": self.x_at_tstar_tau, "x_z1_2tau": self.x_at_z1_2tau,
                "xmin_base": self.xmin_base, "undershoot": self.undershoot}


def three_level_pulse(p: ThreeLevelParams, a: float) -> ThreeLevelResponse:
    """Closed-form checkpoints of the pulse (onset z1, duration tau)."""
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"amplitude a = {a} must be finite and > 0")
    base = p.base
    tau, bl, bu = base.tau, base.beta_l, base.beta_u
    orb = p._orbit
    em = -math.expm1(-tau)                      # 1 - e^-tau
    x_top = (bl + a) * em
    q = (a + bl * math.exp(-tau)) / (a + bl)    # e^{z1 - t*}
    t_star = orb.z1 - math.log(q)
    x_mid = -bu + (x_top + bu) * q
    x_deep = -p.beta_star + (x_mid + p.beta_star) * math.exp(-tau) / q
    return ThreeLevelResponse(x_at_z1_tau=x_top, t_star=t_star,
                              x_at_tstar_tau=x_mid, x_at_z1_2tau=x_deep,
                              xmin_base=orb.x_min,
                              undershoot=x_deep < orb.x_min)


def simulate_pulse(p: ThreeLevelParams, a: float,
                   horizon: Optional[float] = None) -> tuple[Trajectory, PeriodicOrbit]:
    """Event-driven run of the three-level system with the section's pulse."""
    orb = p._orbit
    tau = p.base.tau
    if horizon is None:
        horizon = orb.z1 + 2 * tau + orb.period
    traj = evolve(p.base, orb.history_min_phase(), horizon,
                  pulse=PulseWindow(a, orb.z1, orb.z1 + tau),
                  feedback=p.feedback())
    return traj, orb


def undershoot_threshold(p: ThreeLevelParams, a: float) -> float:
    """Smallest tau at which x(z1 + 2 tau) drops below the cycle minimum.

    The module docstring's gap g(tau) has the sign of the quadratic
    h(E) = A E^2 + B E - C in E = e^-tau, with A = beta_L (beta_L + a),
    B = a (beta_L + a) and C = (beta* - beta_U) a, all positive. Its one
    positive root E0 = 2C / (B + sqrt(B^2 + 4AC)) (the form without
    cancellation) gives tau0 = -log E0. The base delay p.base.tau plays no
    part. Raises NoUndershoot when tau0 is not positive, i.e. when
    (beta_L + a)^2 <= (beta* - beta_U) a and every tau > 0 undershoots.
    """
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"amplitude a = {a} must be finite and > 0")
    bl, bu = p.base.beta_l, p.base.beta_u
    A, B, C = bl * (bl + a), a * (bl + a), (p.beta_star - bu) * a
    tau0 = -math.log(2 * C / (B + math.sqrt(B * B + 4 * A * C)))
    if not tau0 > 0:
        raise NoUndershoot(f"every tau > 0 undershoots: (beta_L + a)^2 <= "
                           f"(beta* - beta_U) a (tau0 = {tau0})")
    return tau0
