"""Closed-form periodic solution and orbit-merge detection.

In the oscillatory regime (beta_L, beta_U > 0) the slowly oscillating
periodic solution has minimum at t = 0 and consists of three arcs:

    [-tau, 0]            x = -beta_U + beta_U * exp(-(t + tau))   (fall to min)
    [0, z1 + tau]        x = beta_L + (xmin - beta_L) * exp(-t)   (rise to max)
    [z1 + tau, z2 + tau] x = -beta_U + (xmax + beta_U) * exp(-(t - z1 - tau))

with

    xmin = -beta_U*(1 - e^-tau),  xmax = beta_L*(1 - e^-tau),
    z1 = ln((beta_L - xmin)/beta_L),  z2 = z1 + tau + ln((xmax + beta_U)/beta_U),
    T = z2 + tau  (minimal period).

Every solution from a Z0 history lands exactly on this orbit at its first
zero, in one of two phases: decreasing toward the minimum (Min) or rising
toward the maximum (Max).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arcs import ExpArc, History, _ArcChain, _tie, chain_values
from .engine import Trajectory, Zero
from .exceptions import HorizonExhausted, RegimeError, ValidationError
from .params import ModelParams, Regime, regime


class MergePhase(enum.Enum):
    MIN = "min"   # joined at a downward zero, heading to the minimum
    MAX = "max"   # joined at an upward zero, heading to the maximum


@dataclass(frozen=True)
class MergeInfo:
    zero: float
    phase: MergePhase


@dataclass(frozen=True)
class PeriodicOrbit(_ArcChain):
    """Closed-form data of the slowly oscillating periodic solution."""

    params: ModelParams
    z1: float
    z2: float
    period: float
    x_min: float
    x_max: float
    arcs: tuple[ExpArc, ...]   # the pieces on [-tau, 0], [0, z1+tau], [z1+tau, T]

    @property
    def t_max(self) -> float:
        return self.z1 + self.params.tau

    def value(self, t: float) -> float:
        """x~ at any finite time (reduced mod the period into [-tau, z2))."""
        if not math.isfinite(t):
            raise ValidationError("orbit_time_finite", f"t = {t} must be finite")
        tau = self.params.tau
        s = math.fmod(t + tau, self.period)
        if s < 0:
            s += self.period
        s -= tau
        return self._arc_at(s).value(s)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """x~ at an array of times, reduced as in ``value``; a time on an arc
        end takes the later arc."""
        tau = self.params.tau
        s = np.fmod(np.asarray(times, dtype=float) + tau, self.period)
        s[s < 0] += self.period
        s -= tau
        return chain_values(self.chain, s)

    def history_min_phase(self) -> History:
        """The segment x~_0: falling through zero at -tau down to the minimum."""
        tau = self.params.tau
        return History((ExpArc(-tau, 0.0, -self.params.beta_u, self.params.beta_u),))

    def history_pre_max(self) -> History:
        """The rising segment ending at the maximum: x~(z1 + tau + s), s in [-tau, 0]."""
        tau = self.params.tau
        return History((ExpArc(-tau, 0.0, self.params.beta_l, -self.params.beta_l),))

    def summary(self) -> dict:
        return {"z1": self.z1, "z2": self.z2, "T": self.period,
                "xmin": self.x_min, "xmax": self.x_max, "tmax": self.t_max}


def periodic_solution(params: ModelParams) -> PeriodicOrbit:
    """The slowly oscillating periodic solution; RegimeError outside oscillatory."""
    if (r := regime(params)) is not Regime.OSCILLATORY:
        raise RegimeError(f"no periodic orbit in regime {r.value}")
    tau, bl, bu = params.tau, params.beta_l, params.beta_u
    em = -math.expm1(-tau)            # 1 - e^-tau
    x_min = -bu * em
    x_max = bl * em
    z1 = math.log((bl - x_min) / bl)
    z2 = z1 + tau + math.log((x_max + bu) / bu)
    period = z2 + tau
    arcs = (
        ExpArc(-tau, 0.0, -bu, bu),
        ExpArc(0.0, z1 + tau, bl, x_min - bl),
        ExpArc(z1 + tau, period, -bu, x_max + bu),
    )
    return PeriodicOrbit(params=params, z1=z1, z2=z2, period=period,
                         x_min=x_min, x_max=x_max, arcs=arcs)


def merge_window(orbit: PeriodicOrbit) -> float:
    """Length of the window within which any Z0 start is guaranteed merged.

    Generous version of the T + 2*tau + 2*rho stability bound: rho exists but
    never needs to be computed, T covers it.
    """
    return orbit.period + 2 * orbit.params.tau + orbit.period


def _zero_before(marks: Sequence[tuple[float, int]]) -> float:
    """A history's last sign change in (-tau, 0), from its two-level
    ``branch_markers``; -inf when there is none: the gap of a run's first
    zero is measured from it."""
    return marks[-1][0] if marks else -math.inf


class _MergeScan:
    """Merge search over a run's zeros, each zero once, in time order.

    The solution after a zero z depends only on the sign of x over
    [z - tau, z). The first zero z >= t_free whose previous zero (``prev``
    before the run's first) lies at least tau earlier, within two ties, has
    the state of the orbit's zero of its direction: it is the merge. A zero
    with a shorter gap never is, since x changes sign on [z - tau, z).
    """

    def __init__(self, tau: float, t_free: float, prev: float):
        self.tau, self.prev = tau, prev
        self._free_from = t_free - _tie(t_free)
        self.found: Optional[MergeInfo] = None
        self.done = 0      # zeros decided

    def advance(self, zeros: Sequence[Zero]) -> Optional[MergeInfo]:
        """Decide the zeros booked since the last call; the merge once found."""
        while self.found is None and self.done < len(zeros):
            zero = zeros[self.done]
            self.done += 1
            z = zero.t
            if z >= self._free_from and z - self.prev >= self.tau - 2 * _tie(z):
                self.found = MergeInfo(zero=z, phase=MergePhase.MAX if zero.up else MergePhase.MIN)
            self.prev = z
        return self.found


def merge_time(traj: Trajectory, orbit: PeriodicOrbit,
               t_free: float = 0.0) -> Optional[MergeInfo]:
    """Earliest zero z >= t_free where the trajectory joins the orbit: the
    first whose previous zero lies at least tau earlier.

    Returns None when the trajectory has no merge zero before its horizon
    and the horizon reaches t_free + merge_window; raises HorizonExhausted
    when it has none and the horizon ends earlier.
    """
    if not math.isfinite(t_free):
        raise ValidationError("merge_t_free", f"t_free = {t_free} must be finite")
    if orbit.params != traj.params:
        raise ValidationError("merge_params", f"orbit of {orbit.params} does not "
                                              f"belong to a run of {traj.params}")
    prev = _zero_before(traj.history.branch_markers())
    found = _MergeScan(orbit.params.tau, t_free, prev).advance(traj.zeros)
    if found is None and traj.horizon < t_free + merge_window(orbit):
        raise HorizonExhausted(
            f"horizon {traj.horizon} too short to decide merge after t = {t_free}")
    return found
