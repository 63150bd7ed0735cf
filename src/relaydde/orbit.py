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

from .arcs import ExpArc, History, _ArcChain, _tie, chain_values, chains_equal
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

    def zeros_in(self, lo: float, hi: float) -> list[float]:
        """Orbit zeros (z1 + nT and z2 + nT alike) inside [lo, hi]."""
        out = []
        n = math.floor((lo - self.z2) / self.period)
        while True:
            block = [self.z1 + n * self.period, self.z2 + n * self.period]
            if all(z > hi for z in block):
                break
            out.extend(z for z in block if lo <= z <= hi)
            n += 1
        return out

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


def _expected_arcs(orbit: PeriodicOrbit, z: float, phase: MergePhase) -> tuple[ExpArc, ExpArc]:
    """The two orbit arcs following a merge zero at z, translated to z."""
    p = orbit.params
    tau = p.tau
    if phase is MergePhase.MIN:
        first = ExpArc(z, z + tau, -p.beta_u, p.beta_u)
        second = ExpArc(z + tau, z + tau + orbit.z1 + tau, p.beta_l, orbit.x_min - p.beta_l)
    else:
        first = ExpArc(z, z + tau, p.beta_l, -p.beta_l)
        second = ExpArc(z + tau, z + orbit.z2 - orbit.z1 + tau, -p.beta_u,
                        orbit.x_max + p.beta_u)
    return first, second


def merge_window(orbit: PeriodicOrbit) -> float:
    """Length of the window within which any Z0 start is guaranteed merged.

    Generous version of the T + 2*tau + 2*rho stability bound: rho exists but
    never needs to be computed, T covers it.
    """
    return orbit.period + 2 * orbit.params.tau + orbit.period


def _zero_before(history: History) -> float:
    """The history's last sign change in (-tau, 0), -inf when there is none:
    the gap of a run's first zero is measured from it."""
    marks = history.branch_markers((0.0,))
    return marks[-1][0] if marks else -math.inf


class _MergeScan:
    """Merge search over a chain's zeros, each zero once, in time order.

    The solution after a zero z depends only on the sign of x over
    [z - tau, z). So a zero z >= t_free whose previous zero lies at least
    tau earlier (within two ties) has the state of the orbit's zero of its
    direction: it is the merge as soon as it is booked. A zero with a
    shorter gap is a merge when the chain on its check window
    [z, min(second.t_end, z + 2*tau)] equals the two orbit arcs following z
    (translated to z) within 1e-10 in (c, k) data. ``prev`` is the zero
    before the chain's first one; ``chain`` holds the history arcs and then
    the solution arcs. A caller may keep appending arcs: a short-gap zero is
    checked as soon as the chain covers its window.
    """

    def __init__(self, orbit: PeriodicOrbit, chain: list[ExpArc], t_free: float,
                 prev: float):
        self.orbit, self.chain, self.t_free, self.prev = orbit, chain, t_free, prev
        self._free_from = t_free - _tie(t_free)
        self.found: Optional[MergeInfo] = None
        self.done = 0      # zeros decided, or skipped as earlier than t_free
        self.first = 0     # chain arcs before this one end before the next zero
        # the short-gap zero being checked: time, phase, expected arcs, window
        # end, its tie, and the bounds z + tie(z) and end - tie(end) of the
        # arcs it keeps
        self._next: Optional[tuple] = None

    def advance(self, zeros: Sequence[Zero], covered: float,
                final: bool = False) -> Optional[MergeInfo]:
        """Decide the zeros that the chain, which ends at ``covered``, now
        decides; the merge once found.

        Until ``final`` (no arc will follow) a short-gap zero's window also
        waits for the chain to pass the point where a later arc could still
        reach into it.
        """
        tau = self.orbit.params.tau
        while self.found is None and self.done < len(zeros):
            if self._next is None:
                zero = zeros[self.done]
                z = zero.t
                if z < self._free_from:
                    self.prev = z
                    self.done += 1
                    continue
                phase = MergePhase.MAX if zero.up else MergePhase.MIN
                if z - self.prev >= tau - 2 * _tie(z):
                    self.found = MergeInfo(zero=z, phase=phase)
                    self.done += 1
                    break
                first, second = _expected_arcs(self.orbit, z, phase)
                end = min(second.t_end, z + 2 * tau)
                tie_end = _tie(end)
                self._next = (z, phase, (first, second), end, tie_end,
                              z + _tie(z), end - tie_end)
            z, phase, expected, end, tie_end, z_in, end_in = self._next
            if end > covered + tie_end or (not final and covered < end_in):
                return None
            # the arcs chains_equal keeps on [z, end]: the chain is sorted
            chain, i = self.chain, self.first
            while i < len(chain) and chain[i].t_end <= z_in:
                i += 1
            self.first = j = i
            while j < len(chain) and chain[j].t_start < end_in:
                j += 1
            if chains_equal(chain[i:j], expected, z, end, tol=1e-10):
                self.found = MergeInfo(zero=z, phase=phase)
            self.prev = z
            self._next = None
            self.done += 1
        return self.found

    def finish(self, zeros: Sequence[Zero], horizon: float) -> Optional[MergeInfo]:
        """The merge of a chain that ends at ``horizon``; None when there
        provably is none, HorizonExhausted when the horizon cannot decide:
        a short-gap zero's window is not covered, or no merge was found and
        the horizon ends before t_free + merge_window."""
        if self.advance(zeros, horizon, final=True) is not None:
            return self.found
        if self.done < len(zeros) or horizon < self.t_free + merge_window(self.orbit):
            raise HorizonExhausted(
                f"horizon {horizon} too short to decide merge after t = {self.t_free}")
        return None


def merge_time(traj: Trajectory, orbit: PeriodicOrbit,
               t_free: float = 0.0) -> Optional[MergeInfo]:
    """Earliest zero z >= t_free where the trajectory joins the orbit.

    The join is decided from the zeros: a zero whose previous zero lies at
    least tau earlier is on the orbit. A zero with a shorter gap is a merge
    when the two arcs following it equal the orbit arcs (translated to z)
    within 1e-10 in (c, k) data; matching on a full delay interval pins the
    state onto the orbit. Returns None when the trajectory provably has no
    merge zero before the horizon; raises HorizonExhausted when the horizon
    is too short to decide.
    """
    scan = _MergeScan(orbit, [*traj.history.arcs, *traj.arcs], t_free,
                      _zero_before(traj.history))
    return scan.finish(traj.zeros, traj.horizon)
