"""Dense onset sweeps of the cycle length map and Tables-style verification.

Case intervals are read from PulseContext.partition; the grid only validates.
The monotonicity report checks, per nonempty case interval, the expected
behaviour of the cycle minimum, maximum and length against the summary-table
arrows: U (unchanged, exact equality), strictly increasing or decreasing,
value strictly above/below the unperturbed one, and the increase-then-
decrease of the minimum around delta_bar inside FNFN.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ValidationError
from .orbit import PeriodicOrbit
from .params import ModelParams, PulseSpec, check_pulse
from .pulse import CODES, Case, CaseCode, CaseInterval, PulseContext, Thresholds

_TOL = 1e-12


@dataclass(frozen=True)
class SweepRow:
    delta: float
    case: str
    sub: Optional[str]
    T: float
    x_min: float
    x_max: float


#: (case, sub) of every (code index, RNRP2 flag) pair
_LABELS = {(c, s): (CODES[c].value, Case.of(c, s).sub)
           for c in range(len(CODES)) for s in (False, True)}
_CASE_NAMES = np.array([code.value for code in CODES], dtype=object)
_CASE_BYTES = _CASE_NAMES.astype("S")
_COLUMNS = ("delta", "code", "rnrp2", "T", "x_min", "x_max")


@dataclass(frozen=True, eq=False)
class SweepTable:
    """The map on an onset grid, held as read-only columns (one entry per
    onset): ``code`` indexes CODES and ``rnrp2`` marks RNRP onsets past
    delta1_hat. ``rows`` views the columns as SweepRow records;
    ``partition`` holds the case intervals of [0, T)."""

    params: ModelParams
    a: float
    sigma: float
    delta: np.ndarray
    code: np.ndarray
    rnrp2: np.ndarray
    T: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    markers: dict
    thresholds: Thresholds
    orbit: PeriodicOrbit
    partition: tuple[CaseInterval, ...]

    def __post_init__(self):
        for name in _COLUMNS:
            col = np.asarray(getattr(self, name)).view()
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def n_grid(self) -> int:
        return self.delta.size

    @property
    def rows(self) -> "SweepRows":
        return SweepRows(self)

    def cases(self) -> list[str]:
        """The case code of every onset, as text."""
        return _CASE_NAMES[self.code].tolist()

    def csv_text(self) -> str:
        """The rows as CSV text with a header line, floats as ``.17g``."""
        from ._csv import csv_text    # on first use, not at package import
        return csv_text("delta,case,T,xmin,xmax",
                        (self.delta, _CASE_BYTES[self.code], self.T, self.x_min, self.x_max))


class SweepRows(Sequence):
    """The rows of a SweepTable, built from its columns only when indexed
    or iterated; ``len`` builds none."""

    __slots__ = ("_table",)

    def __init__(self, table: SweepTable):
        self._table = table

    def __len__(self) -> int:
        return self._table.delta.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        t = self._table
        return SweepRow(float(t.delta[i]), *_LABELS[int(t.code[i]), bool(t.rnrp2[i])],
                        float(t.T[i]), float(t.x_min[i]), float(t.x_max[i]))

    def __iter__(self):
        t = self._table
        labels = map(_LABELS.__getitem__, zip(t.code.tolist(), t.rnrp2.tolist()))
        for d, (case, sub), T, lo, hi in zip(t.delta.tolist(), labels, t.T.tolist(),
                                             t.x_min.tolist(), t.x_max.tolist()):
            yield SweepRow(d, case, sub, T, lo, hi)


def cycle_length_map(params: ModelParams, a: float, sigma: float, n_grid: int,
                     simulated: bool = False) -> SweepTable:
    """Closed-form stats on a uniform onset grid over [0, T).

    With ``simulated=True`` the columns come from the event-driven route
    instead, a cross-check of the closed forms. Both routes need the
    standing hypothesis a < beta_U (ValidationError ``amp_standing``
    otherwise); single relaxed pulses go through response_simulated.
    """
    if not (isinstance(n_grid, (int, np.integer)) and n_grid >= 16):
        raise ValidationError("grid_size", f"n_grid = {n_grid} must be an integer >= 16")
    check_pulse(params, PulseSpec(a, 0.0, sigma))   # a < beta_U: no relaxed sweeps
    ctx = PulseContext(params, a, sigma)
    orb, th = ctx.orbit, ctx.thresholds
    deltas = orb.period * np.arange(n_grid) / n_grid
    if simulated:
        code, rnrp2 = ctx.classify(deltas)
        stats = [ctx.simulated(d, Case.of(c, s)) for d, c, s
                 in zip(deltas.tolist(), code.tolist(), rnrp2.tolist())]
        T, x_min, x_max = (np.array([getattr(st, f) for st in stats], dtype=float)
                           for f in ("T", "x_min", "x_max"))
    else:
        r = ctx.response(deltas)
        code, rnrp2, T, x_min, x_max = r.code, r.rnrp2, r.T, r.x_min, r.x_max
    partition = ctx.partition
    # the map lives on [0, T); report the left limit toward T separately
    t_left_limit = float(ctx.cycle_length(orb.period, partition[-1].code))
    markers = {"delta1": th.delta1, "z1": orb.z1, "tmax_minus_sigma": orb.t_max - sigma,
               "delta2": th.delta2, "tmax": orb.t_max, "z2": orb.z2,
               "T_minus_sigma": orb.period - sigma, "T": orb.period,
               "delta_bar": th.delta_bar, "delta1_hat": th.delta1_hat,
               "T_left_limit": t_left_limit}
    return SweepTable(params, a, sigma, deltas, code, rnrp2, T, x_min, x_max,
                      markers, th, orb, partition)


def case_sequence(params: ModelParams, a: float, sigma: float) -> list[CaseInterval]:
    """Nonempty onset intervals in left-endpoint order, partitioning [0, T)."""
    return list(PulseContext(params, a, sigma).partition)


#: expected per-case behaviour: (min, max, T) verdicts plus above/below claims.
#: verdict letters: U unchanged-exact, I increasing, D decreasing,
#: B increase-then-decrease at delta_bar; claims: +1 above base, -1 below, 0 none
_EXPECTED = {
    CaseCode.RNRN: (("U", 0), ("U", 0), ("D", -1)),
    CaseCode.RNRP: (("U", 0), ("I", +1), ("I", 0)),
    CaseCode.RPRP: (("U", 0), ("I", +1), ("I", +1)),
    CaseCode.RPFP: (("U", 0), ("D", +1), ("I", +1)),
    CaseCode.RPFN: (("I", +1), ("D", +1), ("D", 0)),
    CaseCode.FPFP: (("U", 0), ("U", 0), ("I", +1)),
    CaseCode.FPFN: (("I", +1), ("U", 0), ("D", 0)),
    CaseCode.FNFN: (("B", +1), ("U", 0), ("D", -1)),
    CaseCode.FNRN: (("D", +1), ("U", 0), ("D", -1)),
    CaseCode.FNRP: (("D", +1), ("I", +1), ("I", 0)),
}


@dataclass(frozen=True)
class IntervalVerdict:
    case: str
    interval: str
    n_rows: int
    column_ok: dict
    ok: bool


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    verdicts: tuple[IntervalVerdict, ...]
    failures: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "failures": list(self.failures),
                "intervals": [{"case": v.case, "interval": v.interval,
                               "rows": v.n_rows, "columns": v.column_ok}
                              for v in self.verdicts]}


def _check_column(vals: np.ndarray, base: float, verdict: str, claim: int,
                  dbar_pos: Optional[int]) -> tuple[bool, str]:
    if verdict == "U":
        bad = vals[vals != base]
        return (not bad.size, "exact-equality" if not bad.size else
                f"expected unchanged {base!r}, saw deviation up to "
                f"{max(abs(v - base) for v in bad.tolist()):.3g}")
    if claim == +1 and (vals < base - _TOL).any():
        return False, "value fell below the unperturbed one"
    if claim == -1 and (vals > base + _TOL).any():
        return False, "value rose above the unperturbed one"
    if vals.size < 2:
        return True, "single-row"
    diffs = np.diff(vals)
    up = bool((diffs > -_TOL).all() and vals[-1] > vals[0])
    down = bool((diffs < _TOL).all() and vals[-1] < vals[0])
    if verdict == "I":
        return up, "increasing" if up else "not increasing"
    if verdict == "D":
        return down, "decreasing" if down else "not decreasing"
    if verdict == "B":
        if dbar_pos is None or dbar_pos <= 0:
            return down, "decreasing (delta_bar left of interval)" if down else "not decreasing"
        if dbar_pos >= vals.size:
            return up, "increasing (delta_bar right of interval)" if up else "not increasing"
        # diffs[dbar_pos - 1] straddles delta_bar and may go either way
        ok = bool((diffs[:dbar_pos - 1] > -_TOL).all() and (diffs[dbar_pos:] < _TOL).all())
        return ok, "increase-then-decrease" if ok else "no turn at delta_bar"
    return False, f"unknown verdict {verdict}"


def monotonicity_report(table: SweepTable) -> MonotonicityReport:
    """PASS iff every nonempty case interval matches the summary-table arrows."""
    orb, th = table.orbit, table.thresholds
    cuts = [0, *(np.flatnonzero(np.diff(table.code)) + 1).tolist(), table.code.size]
    verdicts = []
    failures = []
    for lo, hi in zip(cuts, cuts[1:]):
        code = CODES[table.code[lo]]
        case_name = code.value
        if code not in _EXPECTED:
            failures.append(f"{case_name}: no summary-table column")
            continue
        exp = _EXPECTED[code]
        cols = {}
        deltas = table.delta[lo:hi]
        span = f"[{float(deltas[0]):.6g}, {float(deltas[-1]):.6g}]"
        dbar_pos = None
        if code is CaseCode.FNFN:
            dbar_pos = int(np.count_nonzero(deltas < th.delta_bar))
        for name, col, base, (verdict, claim) in (
                ("xmin", table.x_min, orb.x_min, exp[0]),
                ("xmax", table.x_max, orb.x_max, exp[1]),
                ("T", table.T, orb.period, exp[2])):
            ok, why = _check_column(col[lo:hi], base, verdict, claim, dbar_pos)
            cols[name] = {"ok": ok, "detail": why}
            if not ok:
                failures.append(f"{case_name}/{name}: {why} (delta in {span})")
        verdicts.append(IntervalVerdict(case_name, span, hi - lo, cols,
                                        all(c["ok"] for c in cols.values())))
    return MonotonicityReport(passed=not failures, verdicts=tuple(verdicts),
                              failures=tuple(failures))
