"""Dense onset sweeps of the cycle length map and Tables-style verification.

Case boundaries come from the analytic thresholds; the grid only validates.
The monotonicity report checks, per nonempty case interval, the expected
behaviour of the cycle minimum, maximum and length against the summary-table
arrows: U (unchanged, exact equality), strictly increasing or decreasing,
value strictly above/below the unperturbed one, and the increase-then-
decrease of the minimum around delta_bar inside FNFN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ValidationError
from .orbit import PeriodicOrbit, periodic_solution
from .params import ModelParams, PulseSpec, check_pulse
from .pulse import CODES, Case, CaseCode, PulseContext, Thresholds, thresholds

_TOL = 1e-12


@dataclass(frozen=True)
class SweepRow:
    delta: float
    case: str
    sub: Optional[str]
    T: float
    x_min: float
    x_max: float


@dataclass(frozen=True)
class CaseInterval:
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


@dataclass(frozen=True)
class SweepTable:
    params: ModelParams
    a: float
    sigma: float
    n_grid: int
    rows: tuple[SweepRow, ...]
    markers: dict = field(compare=False)
    thresholds: Thresholds = field(compare=False, default=None)
    orbit: PeriodicOrbit = field(compare=False, default=None)

    def csv_lines(self) -> list[str]:
        out = ["delta,case,T,xmin,xmax"]
        for r in self.rows:
            out.append(f"{r.delta:.17g},{r.case},{r.T:.17g},{r.x_min:.17g},{r.x_max:.17g}")
        return out


def cycle_length_map(params: ModelParams, a: float, sigma: float, n_grid: int,
                     simulated: bool = False) -> SweepTable:
    """Closed-form stats on a uniform onset grid over [0, T).

    With ``simulated=True`` the columns come from the event-driven route
    instead, a cross-check of the closed forms. Both routes need the
    standing hypothesis a < beta_U (ValidationError ``amp_standing``
    otherwise); single relaxed pulses go through response_simulated.
    """
    if n_grid < 16:
        raise ValidationError("grid_size", f"n_grid = {n_grid} must be >= 16")
    ctx = PulseContext(params, a, sigma)
    check_pulse(params, PulseSpec(a, 0.0, sigma))   # a < beta_U: no relaxed sweeps
    orb, th = ctx.orbit, ctx.thresholds
    deltas = orb.period * np.arange(n_grid) / n_grid
    if simulated:
        code, rnrp2 = ctx.classify(deltas)
        stats = [ctx.simulated(d, Case.of(c, s)) for d, c, s
                 in zip(deltas.tolist(), code.tolist(), rnrp2.tolist())]
        cols = ([st.T for st in stats], [st.x_min for st in stats],
                [st.x_max for st in stats])
    else:
        r = ctx.response(deltas)
        code, rnrp2 = r.code, r.rnrp2
        cols = (r.T.tolist(), r.x_min.tolist(), r.x_max.tolist())
    cases = {(c, s): Case.of(c, s) for c in range(len(CODES)) for s in (False, True)}
    labels = {key: (case.code.value, case.sub) for key, case in cases.items()}
    rows = tuple(SweepRow(d, *labels[key], T, lo, hi) for d, key, T, lo, hi in zip(
        deltas.tolist(), zip(code.tolist(), rnrp2.tolist()), *cols))
    # the map lives on [0, T); report the left limit toward T separately
    last, _ = ctx.classify(orb.period * (1 - 1e-9))
    t_left_limit = float(ctx.cycle_length(orb.period, CODES[last[0]]))
    markers = {"delta1": th.delta1, "z1": orb.z1, "tmax_minus_sigma": orb.t_max - sigma,
               "delta2": th.delta2, "tmax": orb.t_max, "z2": orb.z2,
               "T_minus_sigma": orb.period - sigma, "T": orb.period,
               "delta_bar": th.delta_bar, "delta1_hat": th.delta1_hat,
               "T_left_limit": t_left_limit}
    return SweepTable(params, a, sigma, n_grid, rows, markers, th, orb)


def case_sequence(params: ModelParams, a: float, sigma: float) -> list[CaseInterval]:
    """Nonempty onset intervals in left-endpoint order, partitioning [0, T)."""
    ctx = PulseContext(params, a, sigma)
    orb, th = ctx.orbit, ctx.thresholds
    t_max, z1, z2, T = orb.t_max, orb.z1, orb.z2, orb.period
    d1, d2 = th.delta1, th.delta2
    iv: list[CaseInterval] = []

    def add(code, lo, hi, lc, hc):
        if hi > lo or (hi == lo and lc and hc):
            iv.append(CaseInterval(code, lo, hi, lc, hc))

    if d1 > 0:
        add(CaseCode.RNRN, 0.0, min(d1, z1), True, False)
    add(CaseCode.RNRP, max(0.0, d1), z1, True, False)
    add(CaseCode.RPRP, z1, t_max - sigma, True, True)
    add(CaseCode.RPFP, t_max - sigma, min(t_max, d2), False, d2 < t_max)
    if d2 < t_max:
        add(CaseCode.RPFN, d2, t_max, False, False)
        add(CaseCode.FPFN, t_max, z2, True, True)
    else:
        add(CaseCode.FPFP, t_max, min(d2, z2), True, True)
        if d2 < z2:
            add(CaseCode.FPFN, d2, z2, False, True)
    if d2 > z2:   # relaxed mode: a >= beta_U
        add(CaseCode.FNFP, z2, min(d2, T - sigma), False, d2 < T - sigma)
        add(CaseCode.FNFN, min(max(d2, z2), T - sigma), T - sigma, False, False)
    else:
        add(CaseCode.FNFN, z2, T - sigma, False, False)
    # with sigma == tau, T - sigma is z2, which belongs to the FP cases
    lo_r = max(T - sigma, z2)
    add(CaseCode.FNRN, lo_r, min(T, T + d1), lo_r > z2, False)
    if d1 < 0:   # d1 < -sigma only in relaxed mode; clamp to keep the partition
        lo = max(T + d1, lo_r)
        add(CaseCode.FNRP, lo, T, lo > z2, False)
    return iv


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


def _check_column(vals, base, verdict, claim, dbar_pos: Optional[int]) -> tuple[bool, str]:
    if verdict == "U":
        bad = [v for v in vals if v != base]
        return (not bad, "exact-equality" if not bad else
                f"expected unchanged {base!r}, saw deviation up to "
                f"{max(abs(v - base) for v in bad):.3g}")
    if claim == +1 and any(v < base - _TOL for v in vals):
        return False, "value fell below the unperturbed one"
    if claim == -1 and any(v > base + _TOL for v in vals):
        return False, "value rose above the unperturbed one"
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if not diffs:
        return True, "single-row"
    if verdict == "I":
        ok = all(d > -_TOL for d in diffs) and vals[-1] > vals[0]
        return ok, "increasing" if ok else "not increasing"
    if verdict == "D":
        ok = all(d < _TOL for d in diffs) and vals[-1] < vals[0]
        return ok, "decreasing" if ok else "not decreasing"
    if verdict == "B":
        if dbar_pos is None or dbar_pos <= 0:
            ok = all(d < _TOL for d in diffs) and vals[-1] < vals[0]
            return ok, "decreasing (delta_bar left of interval)" if ok else "not decreasing"
        if dbar_pos >= len(vals):
            ok = all(d > -_TOL for d in diffs) and vals[-1] > vals[0]
            return ok, "increasing (delta_bar right of interval)" if ok else "not increasing"
        # diffs[dbar_pos - 1] straddles delta_bar and may go either way
        up, down = diffs[:dbar_pos - 1], diffs[dbar_pos:]
        ok = all(d > -_TOL for d in up) and all(d < _TOL for d in down)
        return ok, "increase-then-decrease" if ok else "no turn at delta_bar"
    return False, f"unknown verdict {verdict}"


def monotonicity_report(table: SweepTable) -> MonotonicityReport:
    """PASS iff every nonempty case interval matches the summary-table arrows."""
    orb = table.orbit or periodic_solution(table.params)
    th = table.thresholds or thresholds(table.params, table.a, table.sigma)
    groups: list[tuple[str, list[SweepRow]]] = []
    for row in table.rows:
        if groups and groups[-1][0] == row.case:
            groups[-1][1].append(row)
        else:
            groups.append((row.case, [row]))
    verdicts = []
    failures = []
    for case_name, rows in groups:
        code = CaseCode(case_name)
        if code not in _EXPECTED:
            failures.append(f"{case_name}: no summary-table column")
            continue
        exp = _EXPECTED[code]
        cols = {}
        deltas = [r.delta for r in rows]
        dbar_pos = None
        if code is CaseCode.FNFN:
            dbar_pos = sum(1 for d in deltas if d < th.delta_bar)
        for name, vals, base, (verdict, claim) in (
                ("xmin", [r.x_min for r in rows], orb.x_min, exp[0]),
                ("xmax", [r.x_max for r in rows], orb.x_max, exp[1]),
                ("T", [r.T for r in rows], orb.period, exp[2])):
            ok, why = _check_column(vals, base, verdict, claim, dbar_pos)
            cols[name] = {"ok": ok, "detail": why}
            if not ok:
                failures.append(f"{case_name}/{name}: {why} "
                                f"(delta in [{deltas[0]:.6g}, {deltas[-1]:.6g}])")
        iv = f"[{deltas[0]:.6g}, {deltas[-1]:.6g}]"
        verdicts.append(IntervalVerdict(case_name, iv, len(rows), cols,
                                        all(c["ok"] for c in cols.values())))
    return MonotonicityReport(passed=not failures, verdicts=tuple(verdicts),
                              failures=tuple(failures))
