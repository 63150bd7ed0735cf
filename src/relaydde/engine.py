"""Event-driven method-of-steps solver with exact exponential arcs.

On every maximal interval where the delayed feedback branch and the pulse
state are constant, the solution is a single arc c + k*exp(-(t - t0)) with

    c = feedback level (+ pulse amplitude inside the pulse window).

The engine advances from event to event: feedback switches at (crossing
time + tau), pulse edges, and the horizon. Threshold crossings of emitted
arcs are located analytically and schedule future switches; nothing is ever
integrated numerically here.

The feedback rule is an ordered threshold -> level table; the two-level
model is the special case with the single threshold 0.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .arcs import TIE_EPS, ExpArc, History, _ArcChain, _T_END, _tie, chain_values
from .exceptions import NonTransversalArc, ValidationError
from .params import ModelParams


@dataclass(frozen=True)
class FeedbackTable:
    """Ordered feedback rule: levels[b] applies when the delayed value sits in
    [thresholds[b-1], thresholds[b]), with open ends at +-infinity."""

    thresholds: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.thresholds) + 1:
            raise ValidationError("feedback_shape", "need one more level than thresholds")
        if any(lo >= hi for lo, hi in zip(self.thresholds, self.thresholds[1:])):
            raise ValidationError("feedback_order", "thresholds must be strictly increasing")
        if not all(map(math.isfinite, (*self.thresholds, *self.levels))):
            raise ValidationError("feedback_finite", "thresholds and levels must be finite")

    @staticmethod
    def two_level(params: ModelParams) -> "FeedbackTable":
        return FeedbackTable((0.0,), (params.beta_l, -params.beta_u))


@dataclass(frozen=True)
class PulseWindow:
    """Additive feedback offset a on the absolute time window [t_on, t_off]."""

    a: float
    t_on: float
    t_off: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValidationError("pulse_amp_finite", f"amplitude a = {self.a} must be finite")
        if not self.t_on < self.t_off:
            raise ValidationError("pulse_window", f"need t_on < t_off, got [{self.t_on}, {self.t_off}]")


@dataclass(frozen=True)
class Zero:
    """A transversal zero of the solution: time and crossing direction."""

    t: float
    up: bool


@dataclass(frozen=True)
class Trajectory(_ArcChain):
    """Solution on [0, horizon] as an exact arc chain, plus its history."""

    params: ModelParams
    history: History
    arcs: tuple[ExpArc, ...]
    zeros: tuple[Zero, ...]
    #: crossings of every feedback threshold: (time, threshold index, upward)
    crossings: tuple[tuple[float, int, bool], ...] = field(repr=False, default=())

    @property
    def horizon(self) -> float:
        return self.arcs[-1].t_end

    def value(self, t: float) -> float:
        """x(t); a breakpoint takes the earlier arc's value."""
        if t <= 0:
            return self.history.value(t)
        arc = self._arc_at(t)
        if arc is None:
            raise ValidationError("traj_domain", f"t = {t} beyond horizon {self.horizon}")
        return arc.value(t)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at sorted times within [-tau, horizon]."""
        t = np.asarray(times, dtype=float)
        out = np.empty_like(t)
        neg = t <= 0
        if neg.any():
            out[neg] = self.history.values(t[neg])
        if (~neg).any():
            out[~neg] = chain_values(self.chain, t[~neg])
        return out

    def segment_at(self, t: float) -> History:
        """The state x_t as a history on [-tau, 0] (shifted arc chain)."""
        tau = self.params.tau
        if not 0 <= t <= self.horizon:
            raise ValidationError("traj_domain", f"segment time {t} outside [0, horizon]")
        lo, hi = t - tau, t
        pieces: list[ExpArc] = []
        for arc in list(self.history.arcs) + list(self.arcs):
            a0, a1 = max(arc.t_start, lo), min(arc.t_end, hi)
            if a1 - a0 > _tie(a1):
                pieces.append(ExpArc(a0 - t, a1 - t, arc.c,
                                     arc.k * math.exp(-(a0 - arc.t_start))))
        return History(tuple(pieces))

    def breakpoint_extrema(self, lo: float, hi: float) -> tuple[float, float]:
        """(min, max) of the solution over [lo, hi]; arcs are monotone, so the
        extrema sit at arc endpoints clipped to the window."""
        mn = mx = self.value(lo)
        v = self.value(hi)
        if v < mn:
            mn = v
        elif v > mx:
            mx = v
        hist = self.history.arcs
        # the arcs that can have an endpoint in [lo, hi]: from the first one
        # ending at or after lo to the first one ending after hi
        arcs = self.arcs
        near = arcs[bisect.bisect_left(arcs, lo, key=_T_END):
                    bisect.bisect_right(arcs, hi, key=_T_END) + 1]
        for arc in (hist + near if lo <= hist[-1].t_end else near):
            for tt in (arc.t_start, arc.t_end):
                if lo <= tt <= hi:
                    v = arc.value(tt)
                    # a running min and max: the first of equal values
                    # stays, as with min() and max()
                    if v < mn:
                        mn = v
                    elif v > mx:
                        mx = v
        return mn, mx

    def arcs_json(self) -> str:
        """Arc chain as JSON; plain repr floats round-trip exactly."""
        return json.dumps([{"t_start": a.t_start, "t_end": a.t_end, "c": a.c, "k": a.k}
                           for a in self.arcs])

    @staticmethod
    def arcs_from_json(text: str) -> tuple[ExpArc, ...]:
        return tuple(ExpArc(d["t_start"], d["t_end"], d["c"], d["k"])
                     for d in json.loads(text))


def evolve(params: ModelParams, history: History, horizon: float,
           pulse: Optional[PulseWindow] = None,
           feedback: Optional[FeedbackTable] = None) -> Trajectory:
    """Solve forward from the history for ``horizon`` time units.

    The pulse, when present, adds ``pulse.a`` to the feedback term exactly on
    [t_on, t_off]. Ties between events closer than the tie tolerance are
    processed together, pulse edges first; a crossing landing exactly on a
    segment end is only booked once the next arc confirms the threshold is
    actually crossed, so grazing contact schedules no feedback switch.
    """
    return _evolve(params, history, horizon, pulse, _run_start(params, history, feedback))


class _RunStart(NamedTuple):
    """What a run from one history under one feedback table starts with; it
    depends on neither the horizon nor the pulse, so runs may share it."""

    thresholds: tuple[float, ...]
    levels: tuple[float, ...]
    branch: int                                 # feedback branch at t = 0
    markers: tuple[tuple[float, int], ...]      # history.branch_markers(thresholds)
    switches: tuple[tuple[float, int, int], ...]   # the markers' switch events
    x: float                                    # x(0)
    above: tuple[bool, ...]                     # the side of each threshold at t = 0
    pending: tuple[int, ...]                    # thresholds x(0) sits on


def _run_start(params: ModelParams, history: History,
               feedback: Optional[FeedbackTable]) -> _RunStart:
    """The start of a run from ``history``; the two-level table by default."""
    fb = feedback if feedback is not None else FeedbackTable.two_level(params)
    thresholds = fb.thresholds
    markers = tuple(history.branch_markers(thresholds))
    x = history.value(0.0)
    # the side of each threshold the solution is on; a value on a threshold
    # takes the side the history's last arc comes from, and its crossing is
    # pending: the first arc books it at its start if it moves away from that side
    # (tuples built from lists: every evolve() call builds a start, and
    # tuple() of a generator is slower)
    pending = tuple([i for i, th in enumerate(thresholds)
                     if abs(x - th) <= 1e-12 * max(1.0, abs(x), abs(th))])
    above = tuple([history.arcs[-1].k >= 0 if i in pending else x > th
                   for i, th in enumerate(thresholds)])
    return _RunStart(thresholds, fb.levels, history.initial_branch(thresholds), markers,
                     tuple([(tm + params.tau, 1, b) for tm, b in markers]), x, above, pending)


#: called after each emitted arc with that arc and the zeros booked so far,
#: in time order; returning True ends the run after the arc
StopHook = Callable[[ExpArc, list[Zero]], bool]


def _evolve(params: ModelParams, history: History, horizon: float,
            pulse: Optional[PulseWindow], start: _RunStart,
            stop: Optional[StopHook] = None) -> Trajectory:
    """evolve() from ``start``, the _run_start of ``history``, optionally
    ended early by ``stop``: the arcs emitted up to then are the same floats
    a run to the full horizon emits."""
    if not horizon > 0:
        raise ValidationError("horizon_positive", f"horizon = {horizon} must be > 0")
    if horizon == math.inf:
        raise ValidationError("horizon_finite", "horizon = inf must be finite")
    if abs(history.tau - params.tau) > _tie(params.tau):
        raise ValidationError("history_tau", f"history spans tau = {history.tau}, "
                                             f"params say {params.tau}")
    thresholds, levels, branch, _, switches, x, above, pending = start
    above = list(above)
    tau = params.tau
    events: list[tuple[float, int, int]] = list(switches)   # (time, priority, branch | -1)
    if pulse is None:
        t_on = t_off = math.inf    # the pulse window test below is never true
        amp = 0.0
    else:
        t_on, t_off, amp = pulse.t_on, pulse.t_off, pulse.a
        events += ((t_on, 0, -1), (t_off, 0, -1))
    heapq.heapify(events)
    zeros: list[Zero] = []
    crossings: list[tuple[float, int, bool]] = []

    t = 0.0
    arcs: list[ExpArc] = []
    upward = range(len(thresholds))
    downward = upward[::-1]
    t_last = horizon - _tie(horizon)
    while t < t_last:
        tie_t = TIE_EPS * max(1.0, abs(t))   # _tie(t), inline: once per arc
        while events and events[0][0] <= t + tie_t:
            _, _, b = heapq.heappop(events)
            if b >= 0:
                branch = b
        level = levels[branch]
        if t_on - tie_t <= t < t_off - tie_t:
            level += amp
        k = x - level      # the arc from t is level + k*exp(-(s - t))
        seg_end = min(events[0][0], horizon) if events else horizon

        ended_on, pending = pending, []
        if k != 0.0:
            # a monotone arc can only cross the thresholds it moves away from
            # the side of, and meets them in its direction of travel
            falling = k > 0
            for i in (downward if falling else upward):
                th = thresholds[i]
                if above[i] != falling or level == th:
                    continue
                if i in ended_on:
                    s = t
                else:
                    r = -k / (level - th)
                    if r <= 0.0:
                        continue
                    s = max(t + math.log(r), t)
                    tie_end = TIE_EPS * max(1.0, abs(seg_end))   # _tie(seg_end), inline
                    if s > seg_end + tie_end:
                        continue
                    if s >= seg_end - tie_end:
                        pending.append(i)
                        continue
                # booked: the side flips and the switch lands a delay later
                above[i] = not falling
                crossings.append((s, i, not falling))
                if th == 0.0 and s > TIE_EPS:
                    zeros.append(Zero(s, not falling))
                heapq.heappush(events, (s + tau, 1, i if falling else i + 1))
                seg_end = min(seg_end, s + tau)
        elif level == 0.0 and 0.0 in thresholds:
            raise NonTransversalArc("arc is identically zero")

        arc = ExpArc(t, seg_end, level, k)
        arcs.append(arc)
        if stop is not None and stop(arc, zeros):
            break
        x = level + k * math.exp(-(seg_end - t))   # arc.end_value
        t = seg_end

    return Trajectory(params=params, history=history, arcs=tuple(arcs),
                      zeros=tuple(zeros), crossings=tuple(crossings))

