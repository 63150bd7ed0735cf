"""Seeded job generators and output checks for the three benchmark workloads.

A job is a list of operations. Each operation has a ``run`` callable that
only sees the generated inputs (CLI argv lists or plain floats) and a
``check`` callable that validates its result afterwards, outside the timed
region. CLI operations call ``relaydde.cli.main`` in-process with stdout and
stderr captured, so formatting cost is measured but terminal I/O is not.

Inputs come from a Weyl sequence ``frac(offset + i * alpha)`` whose offset is
drawn from the seed. Every prefix of jobs then covers the parameter box
evenly, so runs of different seeds see nearly the same mix of job sizes,
which keeps medians steady across seeds without fixing the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from typing import Optional

import numpy as np

import relaydde
from ops import CliResult, Op, Open
from relaydde import cli

# closed form vs simulation and the oracle bounds, as in tests/test_acceptance.py
TOL_RESPONSE = 1e-9
TOL_ORACLE = 1e-5
TOL_ORACLE_ZERO = 1e-6
TOL_THERAPY = 1e-9
# CSV export against the exact arc chain: rounding of exp() only
TOL_CSV = 1e-12

#: a in the edge slice, as a fraction of beta_U (ROADMAP item 4)
EDGE_FRACTIONS = (1 - 1e-6, 1 - 1e-9)
SWEEP_GRID = (2048, 8192)
SIM_GRID = 512
LONG_HORIZON = 1000.0
LONG_SAMPLES = 100_000
ORACLE_STEP = 1e-4
CHECKED_ROWS = 12
CHECKED_CSV_ROWS = 64

_ALPHA = np.sqrt(np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37], dtype=float)) % 1.0


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


class JobSource:
    """Deterministic job inputs for one workload and seed."""

    def __init__(self, workload: str, seed: int, stream: int = 0):
        self.seed = seed
        self.stream = stream
        self.offset = np.random.default_rng([seed, stream, 7919]).random(_ALPHA.size)
        self.make = {"closed-form": closed_form_job, "simulated": simulated_job,
                     "long-run": long_run_job}[workload]

    def job(self, index: int) -> list[Op]:
        u = ((self.offset + index * _ALPHA) % 1.0).tolist()
        rng = np.random.default_rng([self.seed, self.stream, index])
        return self.make(u, rng, index)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _model(u) -> relaydde.ModelParams:
    return relaydde.ModelParams(tau=_log_uniform(u[0], 0.05, 5.0),
                                beta_l=_log_uniform(u[1], 0.05, 5.0),
                                beta_u=_log_uniform(u[2], 0.05, 5.0))


def _flags(p: relaydde.ModelParams) -> list[str]:
    # repr() round-trips doubles exactly through argparse's float()
    return ["--tau", repr(p.tau), "--beta-l", repr(p.beta_l), "--beta-u", repr(p.beta_u)]


def _num(v) -> float:
    return float(v) if v is not None else math.nan


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _cli_failure(res: CliResult, allowed=(0,)) -> Optional[str]:
    if res.code not in allowed:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    return None


def _stats_mismatch(got: tuple[float, float, float], want, tol: float) -> Optional[str]:
    for name, g, w in zip(("T", "xmin", "xmax"), got, (want.T, want.x_min, want.x_max)):
        if not _close(g, w, tol):
            return f"{name}: {g!r} vs {w!r}"
    return None


def pinned_onsets(p: relaydde.ModelParams, a: float, sigma: float) -> list[float]:
    """Every analytic case threshold in [0, T) and the next double above it."""
    orb = relaydde.periodic_solution(p)
    th = relaydde.thresholds(p, a, sigma)
    T = orb.period
    cands = {th.delta1, th.delta1_hat, th.delta2, th.delta_bar, orb.z1,
             orb.t_max - sigma, orb.t_max, orb.z2, T - sigma, T + th.delta1}
    out = set()
    for d in cands:
        for x in (d, math.nextafter(d, math.inf)):
            if 0.0 <= x < T:
                out.add(x)
    return sorted(out)


def _classify_op(p, a, sigma, delta, edge: bool) -> Op:
    argv = ["classify", *_flags(p), "--amp", repr(a), "--delta", repr(delta),
            "--sigma", repr(sigma)]

    def check(res: CliResult) -> Optional[str]:
        bad = _cli_failure(res)
        if bad:
            return bad
        d = json.loads(res.out)
        sim = relaydde.response_simulated(p, relaydde.PulseSpec(a, delta, sigma))
        bad = _stats_mismatch((_num(d["T"]), _num(d["xmin"]), _num(d["xmax"])),
                              sim, TOL_RESPONSE)
        return f"closed form vs simulated at delta={delta!r}: {bad}" if bad else None

    if not edge:
        return Op("classify", lambda: run_cli(argv), check)

    def check_edge(res: CliResult) -> Optional[str]:
        try:
            bad = check(res)
        except relaydde.RelayDDEError as exc:  # the simulated reference failed
            return Open(f"{type(exc).__name__} at delta={delta!r}: {exc}")
        return Open(bad) if bad else None

    return Op("classify-edge", lambda: run_cli(argv), check_edge, open_defect="edge")


def _sweep_op(p, a, sigma, grid: int, rng) -> Op:
    argv = ["sweep", *_flags(p), "--amp", repr(a), "--sigma", repr(sigma),
            "--grid", str(grid)]
    rows = sorted(rng.choice(grid, CHECKED_ROWS, replace=False).tolist())

    def check(res: CliResult) -> Optional[str]:
        bad = _cli_failure(res)
        if bad:
            return bad
        lines = res.out.split("\n")
        report = json.loads("\n".join(lines[grid + 1:]))
        if not report["monotonicity"]["passed"]:
            return f"monotonicity: {report['monotonicity']['failures'][:3]}"
        for i in rows:
            delta, _case, T, xmin, xmax = lines[1 + i].split(",")
            sim = relaydde.response_simulated(p, relaydde.PulseSpec(a, float(delta), sigma))
            bad = _stats_mismatch((float(T), float(xmin), float(xmax)), sim, TOL_RESPONSE)
            if bad:
                return f"sweep row {i} vs simulated: {bad}"
        return None

    return Op("sweep", lambda: run_cli(argv), check)


def _therapy_op(p, sigma, x_d) -> Op:
    argv = ["therapy", *_flags(p), "--sigma", repr(sigma), "--x-d", repr(x_d)]

    def check(res: CliResult) -> Optional[str]:
        # exit 3 is an infeasible plan, which is a result, not a failure
        bad = _cli_failure(res, allowed=(0, 3))
        if bad:
            return bad
        d = json.loads(res.out)
        if d["feasible"] != (res.code == 0):
            return f"feasible={d['feasible']} but exit {res.code}"
        if d["feasible"] and not _close(float(d["achieved_min"]), x_d, TOL_THERAPY):
            return f"achieved_min {d['achieved_min']!r} vs x_d {x_d!r}"
        return None

    return Op("therapy", lambda: run_cli(argv), check)


def _threelevel_op(p, beta_star, amp) -> Op:
    argv = ["threelevel", *_flags(p), "--beta-star", repr(beta_star),
            "--amp", repr(amp), "--find-tau0"]

    def check(res: CliResult) -> Optional[str]:
        bad = _cli_failure(res)
        if bad:
            return bad
        tau0 = float(json.loads(res.out)["tau0"])
        step = 0.01 * tau0
        for d, want in ((-step, False), (step, True)):
            trial = relaydde.ThreeLevelParams(
                relaydde.ModelParams(tau0 + d, p.beta_l, p.beta_u), beta_star)
            traj, orb = relaydde.simulate_pulse(trial, amp)
            if (traj.value(orb.z1 + 2 * (tau0 + d)) < orb.x_min) != want:
                return f"tau0 = {tau0!r} bracket fails at {tau0 + d!r}"
        return None

    return Op("threelevel", lambda: run_cli(argv), check)


def closed_form_job(u, rng, index: int) -> list[Op]:
    """Sweep, threshold-pinned classify (plus the edge slice), therapy, tau0."""
    p = _model(u)
    a = p.beta_u * (0.05 + 0.9 * u[3])
    sigma = p.tau * (0.05 + 0.95 * u[4])
    grid = int(round(_log_uniform(u[5], *SWEEP_GRID)))
    orb = relaydde.periodic_solution(p)
    x_d = orb.x_min * (0.05 + 0.9 * u[6])
    amp3 = p.beta_l * _log_uniform(u[8], 0.2, 2.0)
    # tau0 exists in (0, inf) only while the undershoot gap is positive for
    # tau -> 0, i.e. (beta_L + a)^2 > (beta* - beta_U) a; past that bound every
    # tau undershoots and NoUndershoot is the documented answer
    beta_star = p.beta_u + (0.1 + 0.7 * u[7]) * (p.beta_l + amp3) ** 2 / amp3
    a_edge = p.beta_u * EDGE_FRACTIONS[index % 2]

    ops = [_sweep_op(p, a, sigma, grid, rng)]
    ops += [_classify_op(p, a, sigma, d, False) for d in pinned_onsets(p, a, sigma)]
    ops += [_classify_op(p, a_edge, sigma, d, True)
            for d in pinned_onsets(p, a_edge, sigma)]
    ops.append(_therapy_op(p, sigma, x_d))
    ops.append(_threelevel_op(p, beta_star, amp3))
    return ops


def _relaxed_op(p, a, sigma, delta) -> Op:
    argv = ["classify", *_flags(p), "--amp", repr(a), "--delta", repr(delta),
            "--sigma", repr(sigma), "--relaxed"]

    pulse = relaydde.PulseSpec(a, delta, sigma, relaxed=True)

    def check(res: CliResult) -> Optional[str]:
        bad = _cli_failure(res)
        if bad:
            # the CLI drops the error type; reproduce the call to learn it
            try:
                relaydde.response_simulated(p, pulse)
            except relaydde.HorizonExhausted as exc:
                return Open(f"HorizonExhausted at delta={delta!r}: {exc}")
            except relaydde.RelayDDEError:
                pass
            return bad
        T = _num(json.loads(res.out)["T"])
        if math.isinf(T):
            st = relaydde.response_simulated(p, pulse)
            if not (math.isinf(st.T) and st.diagnostics and st.diagnostics["zeros_seen"]):
                return f"T = inf without diagnostics at delta={delta!r}"
            return None
        return None if T > 0 else f"T = {T!r} at delta={delta!r}"

    return Op("classify-relaxed", lambda: run_cli(argv), check, open_defect="relaxed")


def _simulated_map_op(p, a, sigma, rng) -> Op:
    rows = sorted(rng.choice(SIM_GRID, CHECKED_ROWS, replace=False).tolist())

    def run():
        return relaydde.cycle_length_map(p, a, sigma, SIM_GRID, simulated=True)

    def check(table) -> Optional[str]:
        for i in rows:
            r = table.rows[i]
            cf = relaydde.response_closed_form(p, relaydde.PulseSpec(a, r.delta, sigma))
            bad = _stats_mismatch((r.T, r.x_min, r.x_max), cf, TOL_RESPONSE)
            if bad:
                return f"simulated row {i} vs closed form: {bad}"
        return None

    return Op("cycle_length_map-simulated", run, check, is_cli=False)


def simulated_job(u, rng, index: int) -> list[Op]:
    """Relaxed (a >= beta_U) classify runs and a simulated 512-onset map."""
    p = _model(u)
    sigma = p.tau * (0.05 + 0.95 * u[4])
    a = p.beta_u * (0.05 + 0.9 * u[3])
    a_relaxed = p.beta_u * (1.0 + 2.0 * u[5])
    orb = relaydde.periodic_solution(p)
    th = relaydde.thresholds(p, a_relaxed, sigma)
    # half the onsets anywhere, half in the FNFP interval (z2, min(delta2, T - sigma))
    hi = min(th.delta2, orb.period - sigma)
    onsets = rng.uniform(0.0, orb.period, 2).tolist()
    if hi > orb.z2:
        onsets += rng.uniform(orb.z2, hi, 2).tolist()
    else:
        onsets += rng.uniform(0.0, orb.period, 2).tolist()
    ops = [_relaxed_op(p, a_relaxed, sigma, d) for d in onsets]
    ops.append(_simulated_map_op(p, a, sigma, rng))
    return ops


def z0_history(rng, tau: float) -> relaydde.History:
    """Constant, one-arc or two-arc history in Z0, drawn as in tests/conftest.py."""
    ExpArc, History = relaydde.ExpArc, relaydde.History
    while True:
        kind = rng.integers(0, 3)
        if kind == 0:
            v = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            hist = History.constant(v, tau)
        elif kind == 1:
            c = float(rng.uniform(-1.5, 1.5))
            k = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
            hist = History((ExpArc(-tau, 0.0, c, k),))
        else:
            cut = float(rng.uniform(0.25, 0.75)) * -tau
            first = ExpArc(-tau, cut, float(rng.uniform(0.2, 1.5)),
                           float(rng.uniform(-0.5, 0.5)))
            c2 = float(rng.uniform(-1.5, 1.5))
            hist = History((first, ExpArc(cut, 0.0, c2, first.end_value - c2)))
        if hist.is_z0() and abs(hist.value(0.0)) > 1e-6:
            return hist


def _history_spec(u: float, rng) -> str:
    if u < 1 / 3:
        v = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        return f"const:{v!r}"
    return "orbit" if u < 2 / 3 else "premax"


def _history(spec: str, p: relaydde.ModelParams) -> relaydde.History:
    """The history the CLI builds from ``--history spec``."""
    if spec.startswith("const:"):
        return relaydde.History.constant(float(spec[6:]), p.tau)
    orb = relaydde.periodic_solution(p)
    return orb.history_min_phase() if spec == "orbit" else orb.history_pre_max()


def _simulate_op(p, spec: str, rng) -> Op:
    argv = ["simulate", *_flags(p), "--history", spec, "--horizon", repr(LONG_HORIZON),
            "--samples", str(LONG_SAMPLES)]
    rows = sorted(rng.choice(LONG_SAMPLES, CHECKED_CSV_ROWS, replace=False).tolist())

    def check(res: CliResult) -> Optional[str]:
        bad = _cli_failure(res)
        if bad:
            return bad
        lines = res.out.split("\n")
        zeros = json.loads("\n".join(lines[LONG_SAMPLES + 1:]))["zeros"]
        hist = _history(spec, p)
        traj = relaydde.evolve(p, hist, LONG_HORIZON)
        if len(zeros) != len(traj.zeros):
            return f"{len(zeros)} zeros exported, {len(traj.zeros)} in the run"
        for i in rows:
            t, x = map(float, lines[1 + i].split(","))
            want = traj.value(t)
            if abs(x - want) > TOL_CSV * max(1.0, abs(want)):
                return f"CSV row {i}: x({t!r}) = {x!r}, arc chain gives {want!r}"
        return None

    return Op("simulate", lambda: run_cli(argv), check)


def _certify_op(p, hist) -> Op:
    def run():
        orb = relaydde.periodic_solution(p)
        dense = relaydde.integrate_dense(p, hist, 3 * orb.period, h=ORACLE_STEP)
        traj = relaydde.evolve(p, hist, float(dense.t[-1]))
        return relaydde.compare(traj, dense)

    def check(rep) -> Optional[str]:
        if not rep.zero_counts_match:
            return f"zero counts {rep.zero_count_exact} exact vs {rep.zero_count_dense} dense"
        if rep.max_abs_dev > TOL_ORACLE or rep.max_zero_dev > TOL_ORACLE_ZERO:
            return f"oracle deviation {rep.max_abs_dev:.3g}, zeros {rep.max_zero_dev:.3g}"
        return None

    return Op("certify", run, check, is_cli=False)


def long_run_job(u, rng, index: int) -> list[Op]:
    """A long CSV export plus one engine-vs-oracle certification."""
    p = _model(u)
    return [_simulate_op(p, _history_spec(u[3], rng), rng),
            _certify_op(p, z0_history(rng, p.tau))]
