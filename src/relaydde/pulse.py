"""Response of the periodic solution to a single production pulse.

A pulse (amplitude a, onset Delta in [0, T), duration sigma <= tau) deforms
one cycle of the orbit. The onset/offset position relative to the rising and
falling phases and the solution sign there sort every pulse into one of ten
cases (RNRN ... FNRP; an eleventh, FNFP, exists only when a >= beta_U).
Each case has a closed-form cycle length and closed-form extrema; the same
quantities are also measured from an event-driven simulation, which is the
route of record when the standing hypothesis a < beta_U fails.

The response is a function of the onset: a PulseContext holds what depends
only on (params, a, sigma) -- the orbit, the thresholds and the partition of
[0, T) into case intervals -- and classifies and evaluates whole arrays of
onsets. The scalar entry points are its length-1 views. All case formulas
evaluate exponentials of bounded time differences (exp-space zero
identities), finishing with a single logarithm.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import sub
from typing import Optional

import numpy as np

from .arcs import History
from .engine import PulseWindow, StopHook, Trajectory, _evolve, _run_start, _RunStart
from .exceptions import OutOfDomainError, StandingHypothesisViolated, ValidationError
from .orbit import (MergeInfo, MergePhase, PeriodicOrbit, _MergeScan, _zero_before,
                    merge_window, periodic_solution)
from .params import ModelParams, PulseSpec, check_pulse


class CaseCode(enum.Enum):
    """Four letters: phase (R/F) and sign (N/P) at onset, then at offset."""

    RNRN = "RNRN"
    RNRP = "RNRP"
    RPRP = "RPRP"
    RPFP = "RPFP"
    RPFN = "RPFN"
    FPFP = "FPFP"
    FPFN = "FPFN"
    FNFN = "FNFN"
    FNFP = "FNFP"   # only reachable when a >= beta_U (relaxed mode)
    FNRN = "FNRN"
    FNRP = "FNRP"


#: the case codes in onset order; PulseContext arrays hold indices into it
CODES = tuple(CaseCode)
_IX = {code: i for i, code in enumerate(CODES)}


@dataclass(frozen=True)
class Case:
    code: CaseCode
    #: RNRP splits at delta1_hat into RNRP1 (offset value <= beta_L) / RNRP2
    sub: Optional[str] = None

    @staticmethod
    def of(code: int, rnrp2: bool) -> "Case":
        """The case of one PulseContext.classify entry."""
        c = CODES[code]
        if c is CaseCode.RNRP:
            return Case(c, "RNRP2" if rnrp2 else "RNRP1")
        return Case(c)


@dataclass(frozen=True)
class Thresholds:
    """Onset thresholds separating the cases (times; may fall outside [0, T))."""

    delta1: float
    delta1_hat: float
    delta2: float
    delta_bar: float
    #: relaxed mode only: a >= beta_U, so delta2 >= z2 (cases FNFP possible);
    #: delta2 may be inf
    delta2_relaxed: bool = False


@dataclass(frozen=True)
class CycleStats:
    """Measured or closed-form response of one pulsed cycle."""

    case: Case
    T: float                   # cycle length; math.inf when no merge occurs
    x_min: float
    x_max: float
    J: int                     # j_Delta: index of the last orbit zero <= Delta
    zeros: tuple[float, ...]   # the zeros z_{Delta,j} entering the formulas
    diagnostics: Optional[dict] = field(default=None, compare=False)

    def to_dict(self, delta: float) -> dict:
        return {"delta": delta, "case": self.case.code.value,
                "sub": self.case.sub, "T": self.T, "xmin": self.x_min,
                "xmax": self.x_max, "J": self.J, "zeros": list(self.zeros)}


@dataclass(frozen=True, eq=False)
class Responses:
    """Closed-form response over an array of onsets, one entry per onset."""

    code: np.ndarray       # indices into CODES
    rnrp2: np.ndarray      # RNRP onsets past delta1_hat
    T: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    J: np.ndarray
    zeros: np.ndarray      # (3, n): the case's zeros, then nan
    n_zeros: np.ndarray

    def stats(self, i: int) -> CycleStats:
        """Onset i as the CycleStats the scalar entry points return."""
        return CycleStats(Case.of(self.code[i], self.rnrp2[i]), float(self.T[i]),
                          float(self.x_min[i]), float(self.x_max[i]), int(self.J[i]),
                          tuple(self.zeros[:self.n_zeros[i], i].tolist()))


@dataclass(frozen=True)
class CaseInterval:
    """The onsets of one case: from lo to hi, each end in or out."""

    code: CaseCode
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, d: float) -> bool:
        if d < self.lo or d > self.hi:
            return False
        if d == self.lo and not self.lo_closed:
            return False
        if d == self.hi and not self.hi_closed:
            return False
        return True

    def label(self) -> str:
        return (("[" if self.lo_closed else "(") + f"{self.lo:.6g}, {self.hi:.6g}"
                + ("]" if self.hi_closed else ")"))


def _end(x: float, closed: bool) -> tuple[float, float, bool]:
    """An interval's upper end, led by the first double it excludes so that
    ends compare as tuples."""
    return (math.nextafter(x, math.inf) if closed else x, x, closed)


def _j_delta(orb: PeriodicOrbit, delta):
    """j_Delta: how many of the orbit zeros z1, z2 lie at or before the onset(s)."""
    return 0 + (delta >= orb.z1) + (delta >= orb.z2)   # 0 + makes bool arrays add as ints


def _log_ratio(num: float, den: float) -> float:
    """log(num/den); the logs apart where the quotient leaves the normal doubles."""
    q = num / den
    return math.log(q) if sys.float_info.min <= q < math.inf else math.log(num) - math.log(den)


class PulseContext:
    """Orbit, onset thresholds and case partition of one (params, a, sigma), computed once.

    Classifies and evaluates arrays of onsets: every case formula is a numpy
    expression over the onsets of that case, with the onset-free factors
    evaluated once in scalar math.
    """

    def __init__(self, params: ModelParams, a: float, sigma: float):
        # relaxed for the simulated a >= beta_U route; onsets are checked per call
        check_pulse(params, PulseSpec(a, 0.0, sigma, relaxed=True))
        self.params, self.a, self.sigma = params, a, sigma
        self.orbit = orb = periodic_solution(params)
        bl, bu, tau = params.beta_l, params.beta_u, params.tau
        gain = a * -math.expm1(-sigma)            # a(1 - e^-sigma)
        d1 = orb.z1 - sigma - _log_ratio(bl + gain, bl)
        # a(1 - e^-sigma) underflows to 0 only for a*sigma below the double range
        d1_hat = orb.z1 - sigma + _log_ratio(bl, gain) if gain else math.inf
        if gain < bu:
            d2 = orb.z2 - sigma + math.log(bu / (bu - gain))
            if a < bu and not d2 < orb.z2:         # delta2 < z2 exactly when a < beta_U
                d2 = math.nextafter(orb.z2, -math.inf)
        else:
            d2 = math.inf                          # offset value never negative
        try:
            u = a * math.expm1(sigma) * math.exp(tau) / bu
        except OverflowError:
            u = math.inf
        if u < math.inf:
            d_bar = orb.period - math.log(0.5 + math.sqrt(0.25 + u))
        else:   # log(0.5 + sqrt(0.25 + e^L)) for u = e^L, scaled by e^-h to stay finite
            L = math.log(a) - math.log(bu) + tau + sigma + math.log(-math.expm1(-sigma))
            h = max(L, 0.0) / 2
            d_bar = orb.period - h - math.log(
                0.5 * math.exp(-h) + math.sqrt(0.25 * math.exp(-2 * h) + math.exp(L - 2 * h)))
        self.thresholds = Thresholds(delta1=d1, delta1_hat=d1_hat, delta2=d2,
                                     delta_bar=d_bar, delta2_relaxed=not a < bu)
        # each case's upper end, by the rule of ``classify``
        z1, z2, t_max, T = orb.z1, orb.z2, orb.t_max, orb.period
        ends = (
            (CaseCode.RNRN, min(_end(d1, False), _end(z1, False))),
            (CaseCode.RNRP, _end(z1, False)),
            (CaseCode.RPRP, min(_end(t_max - sigma, True), _end(t_max, False))),
            (CaseCode.RPFP, min(_end(d2, True), _end(t_max, False))),
            (CaseCode.RPFN, _end(t_max, False)),
            (CaseCode.FPFP, min(_end(d2, True), _end(z2, True))),
            (CaseCode.FPFN, _end(z2, True)),
            (CaseCode.FNFP, min(_end(d2, True), _end(T - sigma, False))),
            (CaseCode.FNFN, _end(T - sigma, False)),
            (CaseCode.FNRN, min(_end(T + d1, False), _end(T, False))),
            (CaseCode.FNRP, _end(T, False)),
        )
        kept, start = [], _end(0.0, False)
        for code, end in ends:
            if end[0] > start[0]:   # the interval holds a double
                kept.append((code, end))
                start = end
        #: the case and upper end of each interval of the partition
        self._case_ends = tuple(kept)
        #: the first double past each interval of the partition, and its case
        self._cuts = (np.array([end[0] for _, end in kept]),
                      np.array([_IX[code] for code, _ in kept]))

    @property
    def partition(self) -> tuple[CaseInterval, ...]:
        """The nonempty case intervals of [0, T) in onset order; each starts
        where the one before it ends. Built on each read: only sweeps and
        case_sequence need them."""
        intervals, start = [], _end(0.0, False)
        for code, end in self._case_ends:
            intervals.append(CaseInterval(code, start[1], end[1], not start[2], end[2]))
            start = end
        return tuple(intervals)

    @cached_property
    def _start(self) -> tuple[History, _RunStart, float]:
        """The orbit's min-phase segment, where every simulated run starts,
        the engine start those runs share, and the segment's last sign
        change before t = 0 (none: -inf)."""
        history = self.orbit.history_min_phase()
        start = _run_start(self.params, history, None)
        return history, start, _zero_before(start.markers)

    def _onsets(self, deltas) -> np.ndarray:
        """The onsets as a float array; OutOfDomainError unless all are in [0, T)."""
        d = np.atleast_1d(np.asarray(deltas, dtype=float))
        bad = ~((d >= 0) & (d < self.orbit.period))
        if bad.any():
            raise OutOfDomainError(f"delta = {float(d[bad][0])} outside "
                                   f"[0, T = {self.orbit.period})")
        return d

    def classify(self, deltas) -> tuple[np.ndarray, np.ndarray]:
        """Case indices into CODES and the RNRP2 flag of each onset.

        Each case has one upper end, the least of the bounds its letters put
        on the onset, and ends compare by the first double they exclude. An
        onset's case is the first case in onset order whose end lies above
        it; so t_max is in the falling phase. ``partition`` holds the
        resulting intervals; RNRP2 is RNRP past delta1_hat.
        """
        return self._classify(self._onsets(deltas))

    def _classify(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cuts, codes = self._cuts
        code = codes[np.searchsorted(cuts, d, side="right")]
        rnrp2 = (code == _IX[CaseCode.RNRP]) & (d > self.thresholds.delta1_hat)
        return code, rnrp2

    def case(self, delta: float) -> Case:
        code, rnrp2 = self.classify(delta)
        return Case.of(code[0], rnrp2[0])

    @cached_property
    def _rows(self) -> dict:
        """Each case's T(Delta) = T + log1p(A e^(Delta-s) + B expm1(Delta-r)) as (A, s)
        or (A, s, B, r), the shifts in s and r subtracted in turn as the formula rounds;
        a case with no closed form holds the reason. Simulating contexts never build it."""
        p, orb, a, sigma = self.params, self.orbit, self.a, self.sigma
        bl, bu, z1, z2, T = p.beta_l, p.beta_u, orb.z1, orb.z2, orb.period
        try:
            es = a * math.expm1(sigma)
        except OverflowError:
            raise ValidationError("sigma_closed_form", f"sigma = {sigma} > log(DBL_MAX) = 709.78 "
                                  "overflows the closed forms; use the simulated route") from None
        rise = a * (bl + bu) * math.exp(p.tau + z1 - z2) / (bu * (bl + a))
        if a < bu:
            fall = -(a * (bl + bu) * math.exp(-z1) / (bl * (bu - a)))
            down = (-es / bl, (z1, T), fall, (z2,))
        else:
            down = f"case {{}} formula needs a < beta_U (a = {a}, beta_U = {bu})"
        up, late = (es / bu, (z2,)), (-es / bl, (z1, T))
        return {CaseCode.RNRN: (-es / bl, (z1,)), CaseCode.RNRP: (*up, rise, (z1,)),
                CaseCode.RPRP: up, CaseCode.RPFP: up, CaseCode.FPFP: up,
                CaseCode.RPFN: down, CaseCode.FPFN: down, CaseCode.FNFN: late, CaseCode.FNRN: late,
                CaseCode.FNFP: "no closed form for case {}",
                CaseCode.FNRP: (es / bu, (z2, T), rise, (z1, T))}

    def cycle_length(self, deltas, code: CaseCode) -> np.ndarray:
        """T(Delta) by the named case's formula, without classifying.

        Adjacent case formulas agree at their shared onset threshold, so any
        onset may be passed, also T itself (the left limit of the map).
        """
        row = self._rows[code]
        if isinstance(row, str):
            raise StandingHypothesisViolated(row.format(code.value))
        d = np.asarray(deltas, dtype=float)
        u = row[0] * np.exp(reduce(sub, row[1], d))
        if len(row) == 4:
            u = u + row[2] * np.expm1(reduce(sub, row[3], d))
        return self.orbit.period + np.log1p(u)

    def _extrema(self, code: CaseCode, d: np.ndarray, T_d: np.ndarray):
        """(x_min, x_max, zeros) of one case's onsets; None marks an extremum
        the pulse leaves unchanged (exactly the orbit's)."""
        p, orb, a, sigma = self.params, self.orbit, self.a, self.sigma
        bl, bu, tau = p.beta_l, p.beta_u, p.tau
        z1, z2, T, t_max = orb.z1, orb.z2, orb.period, orb.t_max
        x_min, x_max = orb.x_min, orb.x_max
        es = a * math.expm1(sigma)                 # a(e^sigma - 1)
        gain = a * -math.expm1(-sigma)             # a(1 - e^-sigma)

        if code is CaseCode.RNRN:
            return None, None, (z1 + (T_d - T),)

        if code is CaseCode.RNRP:
            zd1 = z1 + np.log((bl + a * np.exp(d - z1)) / (bl + a))
            x_off = bl - bl * np.exp(z1 - d - sigma) + gain
            x_after = bl - (bl + a) * math.exp(-tau) + a * np.exp(-tau + sigma + d - zd1)
            return None, np.maximum(x_off, x_after), (zd1, z2 + (T_d - T))

        if code in (CaseCode.RPRP, CaseCode.RPFP, CaseCode.FPFP):
            if code is CaseCode.RPRP:
                x_off = bl - bl * np.exp(z1 - d - sigma) + gain
                x_at_tmax = x_max + es * np.exp(d - t_max)
                x_mx = np.maximum(x_off, x_at_tmax)
            elif code is CaseCode.RPFP:
                x_mx = x_max + a * -np.expm1(d - t_max)
            else:
                x_mx = None
            return None, x_mx, (z1, z2 + (T_d - T))

        if code in (CaseCode.RPFN, CaseCode.FPFN):
            zd2 = z2 + np.log((bu - a * np.exp(d - z2)) / (bu - a))
            x_mn = x_min + a * math.exp(-tau) * np.expm1(d + sigma - zd2)
            x_mx = x_max + a * -np.expm1(d - t_max) if code is CaseCode.RPFN else None
            return x_mn, x_mx, (z1, zd2, z1 + T_d)

        x_on = -bu + bu * np.exp(z2 - d)           # still on the orbit at onset
        if code in (CaseCode.FNFN, CaseCode.FNRN):
            if code is CaseCode.FNFN:
                x_at_T = x_min + es * np.exp(d - T)
            else:
                x_at_T = x_min + a * -np.expm1(d - T)
            return np.minimum(x_on, x_at_T), None, (z1 + T_d,)

        # FNRP (cycle_length has already rejected FNFP)
        zd3 = z1 + T + np.log((bl + a * np.exp(d - z1 - T)) / (bl + a))
        x_at_T = x_min + a * -np.expm1(d - T)
        # the maximum candidates mirror RNRP: one delay after the re-zero, or the
        # pulse end when the offset value overshoots beta_L
        x_after = x_max + a * math.exp(-tau) * np.expm1(sigma + d - zd3)
        x_off = bl - bl * np.exp(z1 - (d + sigma - T)) + gain
        return (np.minimum(x_on, x_at_T), np.maximum(x_after, x_off),
                (zd3, z2 + T_d))

    def response(self, deltas) -> Responses:
        """Closed-form cycle length, extrema and zeros of every onset.

        Raises StandingHypothesisViolated for the whole call when any onset
        falls in a case without a closed form: FNFP, or RPFN and FPFN when
        a >= beta_U.
        """
        d = self._onsets(deltas)
        code, rnrp2 = self._classify(d)
        orb = self.orbit
        T = np.empty_like(d)
        x_min = np.full_like(d, orb.x_min)
        x_max = np.full_like(d, orb.x_max)
        zeros = np.full((3, d.size), np.nan)
        n_zeros = np.empty(d.size, dtype=np.intp)
        for i in np.flatnonzero(np.bincount(code, minlength=len(CODES))):
            m = code == i
            dm = d[m]
            T[m] = T_d = self.cycle_length(dm, CODES[i])
            lo, hi, zs = self._extrema(CODES[i], dm, T_d)
            if lo is not None:
                x_min[m] = lo
            if hi is not None:
                x_max[m] = hi
            for row, z in zip(zeros, zs):
                row[m] = z
            n_zeros[m] = len(zs)
        return Responses(code, rnrp2, T, x_min, x_max, _j_delta(orb, d), zeros, n_zeros)

    def stats(self, delta: float, simulated: bool = False) -> CycleStats:
        """CycleStats of one onset: by the closed forms, or from an
        event-driven run when ``simulated``.

        The closed forms raise StandingHypothesisViolated unless a < beta_U.
        """
        if simulated:
            return self.simulated(delta, self.case(delta))
        if not self.a < self.params.beta_u:
            raise StandingHypothesisViolated(
                f"closed forms need a < beta_U (a = {self.a}, beta_U = {self.params.beta_u})")
        return self.response(delta).stats(0)

    def simulated(self, delta: float, case: Case) -> CycleStats:
        """Cycle length and extrema of one onset measured from an event-driven
        run; ``case`` is the onset's classification.

        The run ends on the first arc past z_def, the zero that ends the
        perturbed cycle; without a merge it runs to the full horizon, which
        reaches past t_free + merge_window, so no merge means T = inf.
        """
        params, orb = self.params, self.orbit
        J = int(_j_delta(orb, delta))
        scan = _MergeScan(params.tau, delta + self.sigma, self._start[2])
        z_def = math.inf

        def stop(arc, zeros):
            # Once the merge is found, the arc that ends past z_def has booked
            # the zero at z_def and covers the extrema up to it.
            nonlocal z_def
            if scan.found is None:
                if len(zeros) == scan.done or scan.advance(zeros) is None:
                    return False
                z_def = self._z_def(scan.found, J)
            return arc.t_end > z_def + 1e-12

        traj = self._run(delta, stop=stop)
        if scan.found is None:
            zs = tuple(z.t for z in traj.zeros)
            return CycleStats(case, math.inf, math.nan, math.nan, J, zs,
                              diagnostics={"zeros_seen": list(zs), "horizon": traj.horizon})
        lo = (-params.tau, orb.z1, orb.z2)[J]
        x_mn, x_mx = traj.breakpoint_extrema(lo, min(z_def, traj.horizon))
        zs = tuple(z.t for z in traj.zeros if lo < z.t <= z_def + 1e-12)
        return CycleStats(case, z_def - lo, x_mn, x_mx, J, zs)

    def _run(self, delta: float, horizon: Optional[float] = None,
             stop: Optional[StopHook] = None) -> Trajectory:
        """The run from the orbit's min-phase segment with the pulse on at
        ``delta``; by default to delta + sigma + merge_window + T."""
        orb = self.orbit
        if not 0 <= delta < orb.period:
            raise OutOfDomainError(f"delta = {delta} outside [0, T = {orb.period})")
        if horizon is None:
            horizon = delta + self.sigma + merge_window(orb) + orb.period
        history, start, _ = self._start
        window = PulseWindow(self.a, delta, delta + self.sigma)
        return _evolve(self.params, history, horizon, window, start, stop)

    def _z_def(self, merged: MergeInfo, J: int) -> float:
        """The zero that ends the perturbed cycle: the first zero from the
        merge on with the phase of the reference zero z~_J. After a merge in
        the other phase it comes one half-swing later (z1 + tau after a
        falling zero, z2 - z1 after a rising one).
        """
        if merged.phase is _PHASE_OF_ZERO[J]:
            return merged.zero
        orb = self.orbit
        gap = orb.z1 - (-self.params.tau) if J == 1 else orb.z2 - orb.z1
        return merged.zero + gap


def thresholds(params: ModelParams, a: float, sigma: float) -> Thresholds:
    """The four onset thresholds delta1, delta1_hat, delta2, delta_bar."""
    return PulseContext(params, a, sigma).thresholds


def classify(params: ModelParams, pulse: PulseSpec) -> Case:
    """The unique case whose onset interval contains pulse.delta."""
    check_pulse(params, pulse)
    return PulseContext(params, pulse.a, pulse.sigma).case(pulse.delta)


def case_cycle_length(params: ModelParams, a: float, sigma: float,
                      delta: float, code: CaseCode) -> float:
    """T(Delta) by the named case's formula, without classifying.

    Adjacent case formulas agree at their shared onset threshold; this
    entry point lets callers check exactly that.
    """
    return float(PulseContext(params, a, sigma).cycle_length([delta], code)[0])


def response_closed_form(params: ModelParams, pulse: PulseSpec) -> CycleStats:
    """Cycle length and extrema from the per-case formulas.

    Valid only under the standing hypothesis a < beta_U; raises
    StandingHypothesisViolated otherwise (use response_simulated there).
    """
    check_pulse(params, pulse)
    return PulseContext(params, pulse.a, pulse.sigma).stats(pulse.delta)


def pulsed_trajectory(params: ModelParams, pulse: PulseSpec,
                      horizon: Optional[float] = None) -> tuple[Trajectory, PeriodicOrbit]:
    """The pulsed solution x^(Delta): orbit history, pulse on [Delta, Delta+sigma]."""
    check_pulse(params, pulse)
    ctx = PulseContext(params, pulse.a, pulse.sigma)
    return ctx._run(pulse.delta, horizon), ctx.orbit


_PHASE_OF_ZERO = {0: MergePhase.MIN, 1: MergePhase.MAX, 2: MergePhase.MIN}


def response_simulated(params: ModelParams, pulse: PulseSpec) -> CycleStats:
    """Cycle length and extrema measured from an event-driven run.

    Works in relaxed mode too; reports T = inf with diagnostics when the
    solution never rejoins the orbit before the guaranteed merge window
    (possible only for a >= beta_U).
    """
    check_pulse(params, pulse)
    return PulseContext(params, pulse.a, pulse.sigma).stats(pulse.delta, simulated=True)
