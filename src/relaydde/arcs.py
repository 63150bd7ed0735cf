"""Exponential arcs and arc-chain histories.

Every solution piece of the model has the shape

    x(t) = c + k * exp(-(t - t_start))        on [t_start, t_end],

the general solution of x' = -x + c. Solutions and admissible histories are
chains of such arcs; sampling is only ever a view of this exact form.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from .exceptions import IdenticallyZeroHistory, NonTransversalArc, ValidationError

#: zeros/events closer than TIE_EPS*max(1,|t|) are treated as coincident
TIE_EPS = 1e-13


def _tie(t: float) -> float:
    return TIE_EPS * max(1.0, abs(t))


@dataclass(frozen=True)
class ExpArc:
    """One solution piece x(t) = c + k*exp(-(t - t_start)) on [t_start, t_end]."""

    t_start: float
    t_end: float
    c: float
    k: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValidationError("arc_span", f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")

    def value(self, t: float) -> float:
        return self.c + self.k * math.exp(-(t - self.t_start))

    @property
    def start_value(self) -> float:
        return self.c + self.k

    @property
    def end_value(self) -> float:
        return self.value(self.t_end)

    def crossing(self, level: float = 0.0) -> Optional[float]:
        """Time where the arc crosses ``level`` more than a tie inside its span,
        else None: a crossing within a tie of an end belongs to the junction
        there. Raises NonTransversalArc for the identically-zero arc at level 0."""
        ceff = self.c - level
        if ceff == 0.0:
            if self.k == 0.0 and level == 0.0:
                raise NonTransversalArc("arc is identically zero")
            return None  # approaches the level asymptotically, or sits on it
        r = -self.k / ceff
        if r <= 0.0:
            return None
        t = self.t_start + math.log(r)
        if self.t_start + _tie(self.t_start) < t < self.t_end - _tie(self.t_end):
            return t
        return None


def chain_arrays(arcs: Iterable[ExpArc]) -> np.ndarray:
    """Rows t_start, t_end, c, k of an ordered arc chain, read-only."""
    table = np.array([(a.t_start, a.t_end, a.c, a.k) for a in arcs]).T.copy()
    table.flags.writeable = False
    return table


def chain_values(chain: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at sorted times of a chain given by chain_arrays().

    A time on a breakpoint takes the later arc's value. The span check reads
    only the first and last time, so unsorted times must lie in the span.
    """
    t_start, t_end, c, k = chain
    lo, hi = t_start[0], t_end[-1]
    t = np.asarray(times, dtype=float)
    if t.size and (t[0] < lo - _tie(lo) or t[-1] > hi + _tie(hi)):
        raise ValidationError("chain_domain", "sample times outside chain span")
    idx = np.searchsorted(t_start, t, side="right")
    idx -= 1
    np.clip(idx, 0, t_start.size - 1, out=idx)
    # c + k * exp(-(t - t_start)), in place: sample grids can be 10^6 points
    x = t - t_start[idx]
    np.negative(x, out=x)
    np.exp(x, out=x)
    x *= k[idx]
    x += c[idx]
    return x


#: bisection key of an arc chain: arcs are ordered by their end times
_T_END = attrgetter("t_end")


class _ArcChain:
    """An ordered arc chain ``arcs``: its chain_arrays() table and its arc at a time."""

    @property
    def chain(self) -> np.ndarray:
        """The arcs as chain_arrays() rows."""
        return chain_arrays(self.arcs)

    def _arc_at(self, t: float) -> Optional[ExpArc]:
        """The first arc ending at or after t if it starts by t, else None:
        a breakpoint takes the earlier arc."""
        i = bisect.bisect_left(self.arcs, t, key=_T_END)
        if i < len(self.arcs) and self.arcs[i].t_start <= t:
            return self.arcs[i]
        return None


@dataclass(frozen=True)
class History(_ArcChain):
    """An admissible initial state: an arc chain covering exactly [-tau, 0].

    Membership in Z requires finitely many zeros and no identically-zero
    stretch; both hold by construction for non-degenerate arc chains.
    """

    arcs: tuple[ExpArc, ...]

    def __post_init__(self):
        if not self.arcs:
            raise ValidationError("history_empty", "history needs at least one arc")
        if not self.arcs[0].t_start < 0 <= self.arcs[-1].t_end:
            raise ValidationError("history_span",
                                  f"history must cover [-tau, 0], got "
                                  f"[{self.arcs[0].t_start}, {self.arcs[-1].t_end}]")
        if abs(self.arcs[-1].t_end) > _tie(1.0):
            raise ValidationError("history_span", "history must end at t = 0")
        prev = None
        for arc in self.arcs:
            if not (math.isfinite(arc.c) and math.isfinite(arc.k)):
                raise ValidationError("history_finite", f"arc at t = {arc.t_start} is not finite")
            if arc.c == 0.0 and arc.k == 0.0:
                raise IdenticallyZeroHistory("history has an identically-zero arc")
            if prev is not None:
                if abs(arc.t_start - prev.t_end) > _tie(arc.t_start):
                    raise ValidationError("history_gap",
                                          f"chain gap at t = {arc.t_start}")
                scale = max(1.0, abs(prev.end_value))
                if abs(arc.start_value - prev.end_value) > 1e-9 * scale:
                    raise ValidationError("history_continuity",
                                          f"discontinuity at t = {arc.t_start}")
            prev = arc

    @property
    def tau(self) -> float:
        return -self.arcs[0].t_start

    def value(self, t: float) -> float:
        """x(t) on [-tau, 0]; a breakpoint takes the earlier arc's value."""
        arc = self._arc_at(t)
        if arc is not None:
            return arc.value(t)
        # tolerate boundary jitter at the extreme ends
        if abs(t - self.arcs[0].t_start) <= _tie(t):
            return self.arcs[0].start_value
        if abs(t - self.arcs[-1].t_end) <= _tie(t):
            return self.arcs[-1].end_value
        raise ValidationError("chain_domain", f"t = {t} outside chain span")

    def values(self, times: np.ndarray) -> np.ndarray:
        return chain_values(self.chain, times)

    def walk(self, thresholds: tuple[float, ...]
             ) -> tuple[int, list[tuple[float, int]], list[bool], list[int]]:
        """Book the history's crossings by _evolve's per-arc rule, sides set by
        x(-tau), a value on a threshold above. Returns the branch at -tau (set
        by crossings within a tie of -tau), the (time, branch_after) markers in
        (-tau, 0), the side of each threshold at t = 0 (True: above) and the
        thresholds pending there, crossed within a tie of the history's end."""
        t_first = self.arcs[0].t_start + _tie(self.arcs[0].t_start)
        above = [self.arcs[0].start_value >= th for th in thresholds]
        branch, markers, pending = sum(above), [], []
        for arc in self.arcs:
            ended_on, pending = pending, []
            if arc.k == 0.0:
                continue
            falling = arc.k > 0
            tie_end = _tie(arc.t_end)
            for i in range(len(thresholds))[::-1 if falling else 1]:
                th = thresholds[i]
                if above[i] != falling or arc.c == th:
                    continue
                if i in ended_on:
                    s = arc.t_start
                else:
                    r = -arc.k / (arc.c - th)
                    if r <= 0.0:
                        continue
                    s = max(arc.t_start + math.log(r), arc.t_start)
                    if s > arc.t_end + tie_end:
                        continue
                    if s >= arc.t_end - tie_end:
                        pending.append(i)
                        continue
                above[i] = not falling
                if s <= t_first:
                    branch = i if falling else i + 1
                else:
                    markers.append((s, i if falling else i + 1))
        return branch, markers, above, pending

    def branch_markers(self, thresholds: tuple[float, ...] = (0.0,)) -> list[tuple[float, int]]:
        """The markers of ``walk``."""
        return self.walk(thresholds)[1]

    def zeros(self) -> list[float]:
        """All zeros of the history in (-tau, 0], crossings and touches alike."""
        zs: list[float] = []
        for arc in self.arcs:
            t = arc.crossing(0.0)
            if t is not None:
                zs.append(t)
            if abs(arc.end_value) <= _tie(1.0):
                zs.append(arc.t_end)
        zs.sort()
        out = [zs[0]] if zs else []
        for z in zs[1:]:
            if z - out[-1] > _tie(z):
                out.append(z)
        return out

    def is_z0(self) -> bool:
        """Membership in Z0: at most one zero in (-tau, 0), with a sign change."""
        interior = [z for z in self.zeros() if z < -_tie(1.0)]
        if len(interior) > 1:
            return False
        if not interior:
            return True
        z = interior[0]
        before = self.value((z - self.tau) / 2)   # midpoint of (-tau, z)
        after = self.value(z / 2)                 # midpoint of (z, 0)
        return before * after < 0

    @staticmethod
    def constant(value: float, tau: float) -> "History":
        if value == 0.0:
            raise IdenticallyZeroHistory("constant-zero history is not in Z")
        return History((ExpArc(-tau, 0.0, value, 0.0),))
