"""Command-line front end emitting CSV/JSON artifacts for all analyses.

Subcommands: orbit, simulate, classify, sweep, therapy, threelevel, verify.
Exit codes: 0 success, 2 validation error, 3 infeasible plan / failed verify.
CSV columns write floats with 17 significant digits (.17g, computed for whole
columns at once) and JSON writes each double's shortest repr; both round-trip
every double exactly, and output is byte-identical for identical flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple, Optional

import numpy as np

from . import oracle
from .arcs import History
from .engine import PulseWindow, evolve
from .exceptions import PlanInfeasible, RelayDDEError, ValidationError
from .orbit import periodic_solution
from .params import (ModelParams, PulseSpec, RawParams, Regime, check_pulse,
                     nondimensionalize, regime)
from .pulse import PulseContext
from .sweep import cycle_length_map, monotonicity_report
from .therapy import TherapyInput, apply_plan, plan
from .threelevel import ThreeLevelParams, three_level_pulse, undershoot_threshold

PRESETS = {
    "p1": ModelParams(tau=1.0, beta_l=0.4, beta_u=0.8),
    "p2": ModelParams(tau=1.0, beta_l=1.4, beta_u=0.8),
}


def _dump_json(obj) -> str:
    """obj as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it, with
    every float (numpy floats too) as its shortest repr, or as the string
    "inf", "-inf" or "nan"; numpy integers as ints; tuples as lists. Dict keys
    must be str. TypeError for any other value. ``_Records`` are written as
    lists of objects. json's own indenting encoder runs in pure Python and
    takes several times as long."""
    out: list[str] = []
    _json(obj, "\n", out)
    return "".join(out)


class _Records(NamedTuple):
    """A list of JSON objects given as columns: object i maps keys[j] to
    columns[j][i]. A column is an array, or a list of Python floats, of bools
    or of str; its first value's type is taken for all."""

    keys: tuple[str, ...]
    columns: tuple


_JSON_CONST = {None: "null", False: "false", True: "true"}


def _json_float(x: float) -> str:
    """Shortest repr; inf, -inf and nan as JSON strings."""
    return float.__repr__(x) if x - x == 0.0 else f'"{float.__repr__(x)}"'


def _json(o, nl: str, out: list[str]) -> None:
    """Append o's JSON text to out; nl is a newline plus the indent of o's
    first line. Pieces are joined once, so long texts are not copied again
    at each level."""
    if isinstance(o, (float, np.floating)):
        out.append(_json_float(float(o)))
    elif isinstance(o, str):
        out.append(_quote(o))
    elif o is None or o is True or o is False:
        out.append(_JSON_CONST[o])
    elif isinstance(o, (int, np.integer)):
        out.append(int.__repr__(int(o)))
    elif isinstance(o, _Records):
        _records_json(o, nl, out)
    elif isinstance(o, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _quote(k) + ": ")
            _json(o[k], inner, out)
            sep = "," + inner
        out.append(nl + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]" if o else "[]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_column(column) -> list[str]:
    """The JSON text of each value of one _Records column."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if not values:
        return []
    if type(values[0]) is bool:
        return list(map(_JSON_CONST.__getitem__, values))
    if type(values[0]) is not float:
        return list(map(_quote, values))
    if math.isfinite(sum(values)):   # then no inf or nan is among them
        return list(map(repr, values))
    return list(map(_json_float, values))


def _records_json(records: _Records, nl: str, out: list[str]) -> None:
    """Append every object of records, laid out by one pattern: each
    value's text after the fixed text that comes before it."""
    keys, columns = records
    n = len(columns[0])
    if not n:
        out.append("[]")
        return
    inner, field = nl + "  ", nl + "    "
    order = sorted(range(len(keys)), key=keys.__getitem__)
    heads = [_quote(keys[j]) + ": " for j in order]
    before = [inner + "}," + inner + "{" + field + heads[0]]
    before += ["," + field + h for h in heads[1:]]
    step = 2 * len(order)
    parts = [""] * (step * n + 1)
    for i, j in enumerate(order):
        parts[2 * i:-1:step] = [before[i]] * n
        parts[2 * i + 1:-1:step] = _json_column(columns[j])
    parts[0] = "[" + inner + "{" + field + heads[0]
    parts[-1] = inner + "}" + nl + "]"
    out += parts


def _check_samples(n: int) -> None:
    if n < 0:
        raise ValidationError("samples_nonnegative", f"samples = {n} must be >= 0")


def _trajectory_csv(traj, n: int) -> str:
    """``t,x`` CSV of the trajectory at n evenly spaced times on [-tau, horizon]."""
    from ._csv import csv_text    # on first use, not at package import
    ts = np.linspace(-traj.params.tau, traj.horizon, n)
    return csv_text("t,x", (ts, traj.sample(ts)))


def _write(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="parameter preset")
    p.add_argument("--tau", type=float, help="nondimensional delay")
    p.add_argument("--beta-l", type=float, help="low-branch level beta_L")
    p.add_argument("--beta-u", type=float, help="high-branch level beta_U")
    p.add_argument("--gamma", type=float, help="raw decay rate (raw-model entry)")
    p.add_argument("--b-l", type=float, help="raw low-branch production")
    p.add_argument("--b-u", type=float, help="raw high-branch production")
    p.add_argument("--theta", type=float, help="raw switching threshold")
    p.add_argument("--tau-raw", type=float, help="raw delay")


def _params_from(args) -> ModelParams:
    if args.preset:
        return PRESETS[args.preset]
    raw = (args.gamma, args.b_l, args.b_u, args.theta, args.tau_raw)
    if any(v is not None for v in raw):
        if any(v is None for v in raw):
            raise RelayDDEError("raw-model entry needs all of "
                                "--gamma --b-l --b-u --theta --tau-raw")
        return nondimensionalize(RawParams(*raw))
    if args.tau is None or args.beta_l is None or args.beta_u is None:
        raise RelayDDEError("need --preset, or --tau --beta-l --beta-u, "
                            "or the full raw-model flags")
    return ModelParams(tau=args.tau, beta_l=args.beta_l, beta_u=args.beta_u)


def _history_from(spec: str, params: ModelParams) -> History:
    if spec == "orbit":
        return periodic_solution(params).history_min_phase()
    if spec == "premax":
        return periodic_solution(params).history_pre_max()
    if spec.startswith("const:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError:
            pass
        else:
            return History.constant(value, params.tau)
    raise RelayDDEError(f"unknown history spec {spec!r} "
                        "(use const:<value>, orbit, or premax)")


def _cmd_orbit(args) -> int:
    orb = periodic_solution(_params_from(args))
    _write(_dump_json(orb.summary()), args.out)
    return 0


def _cmd_simulate(args) -> int:
    _check_samples(args.samples)
    params = _params_from(args)
    hist = _history_from(args.history, params)
    pulse = None
    if args.amp is not None:
        if args.delta is None or args.sigma is None:
            raise RelayDDEError("pulse needs --amp --delta --sigma")
        pulse = PulseWindow(args.amp, args.delta, args.delta + args.sigma)
    traj = evolve(params, hist, args.horizon, pulse=pulse)
    if args.format == "json":
        # exact arc-chain export; plain repr floats round-trip exactly
        _write(traj.arcs_json(), args.out)
    else:
        _write(_trajectory_csv(traj, args.samples), args.out)
    zeros = _Records(("t", "up"), ([z.t for z in traj.zeros], [z.up for z in traj.zeros]))
    _write(_dump_json({"zeros": zeros}), args.zeros_out)
    return 0


def _cmd_classify(args) -> int:
    params = _params_from(args)
    pulse = PulseSpec(args.amp, args.delta, args.sigma, relaxed=args.relaxed)
    check_pulse(params, pulse)   # without --relaxed: a >= beta_U fails before any orbit
    ctx = PulseContext(params, args.amp, args.sigma)
    stats = ctx.stats(args.delta, simulated=args.relaxed)
    th = ctx.thresholds
    payload = stats.to_dict(args.delta)
    payload["thresholds"] = {"delta1": th.delta1, "delta1_hat": th.delta1_hat,
                             "delta2": th.delta2, "delta_bar": th.delta_bar}
    _write(_dump_json(payload), args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _params_from(args)
    table = cycle_length_map(params, args.amp, args.sigma, args.grid)
    if args.format == "json":
        rows = _Records(("delta", "case", "T", "xmin", "xmax"),
                        (table.delta, table.cases(), table.T, table.x_min, table.x_max))
        _write(_dump_json(rows), args.out)
    else:
        _write(table.csv_text(), args.out)
    report = monotonicity_report(table)
    payload = {
        "cases": [{"case": iv.code.value, "interval": iv.label()} for iv in table.partition],
        "sequence": [iv.code.value for iv in table.partition],
        "markers": table.markers,
        "monotonicity": report.to_dict(),
    }
    _write(_dump_json(payload), args.report_out)
    return 0


def _cmd_therapy(args) -> int:
    _check_samples(args.samples)
    params = _params_from(args)
    hist = _history_from(args.history, params)
    inp = TherapyInput(params=params, sigma=args.sigma, x_d=args.x_d, history=hist)
    therapy = plan(inp)
    payload = therapy.to_dict()
    code = 0
    if therapy.feasible:
        outcome = apply_plan(inp, therapy)
        payload["achieved_min"] = outcome.achieved_min
        payload["achieved_period"] = outcome.achieved_period
        if args.trajectory_out:
            _write(_trajectory_csv(outcome.trajectory, args.samples), args.trajectory_out)
    else:
        payload["achieved_min"] = None
        payload["achieved_period"] = None
        code = 3
    _write(_dump_json(payload), args.out)
    return code


def _cmd_threelevel(args) -> int:
    params = _params_from(args)
    p3 = ThreeLevelParams(base=params, beta_star=args.beta_star)
    payload = three_level_pulse(p3, args.amp).to_dict()
    if args.find_tau0:
        payload["tau0"] = undershoot_threshold(p3, args.amp)
    _write(_dump_json(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValidationError("verify_tolerance",
                              f"tolerance = {args.tolerance} must be finite and >= 0")
    runs = []
    if args.preset or args.tau is not None or args.gamma is not None:
        runs.append(("given", _params_from(args)))
    else:
        runs = [("p1", PRESETS["p1"]), ("p2", PRESETS["p2"])]
    report = {"runs": [], "passed": True}
    for name, params in runs:
        if regime(params) is Regime.OSCILLATORY:
            horizon = 3 * periodic_solution(params).period
        else:
            horizon = 20 * params.tau
        hist = _history_from(args.history, params)
        dense = oracle.integrate_dense(params, hist, horizon, h=args.oracle_step)
        traj = evolve(params, hist, float(dense.t[-1]))
        rep = oracle.compare(traj, dense)
        ok = rep.max_abs_dev <= args.tolerance and rep.max_zero_dev <= 1e-6 \
            and rep.zero_counts_match
        report["runs"].append({"name": name, "max_abs_dev": rep.max_abs_dev,
                               "max_zero_dev": rep.max_zero_dev,
                               "zeros_exact": rep.zero_count_exact,
                               "zeros_dense": rep.zero_count_dense,
                               "ok": ok})
        report["passed"] = report["passed"] and ok
    _write(_dump_json(report), args.out)
    return 0 if report["passed"] else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="relaydde", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="closed-form periodic orbit summary")
    _add_model_flags(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("simulate", help="event-driven trajectory CSV + zeros JSON")
    _add_model_flags(p)
    p.add_argument("--history", default="const:1.0",
                   help="const:<v>, orbit, or premax (default const:1.0)")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--amp", type=float, help="pulse amplitude (optional)")
    p.add_argument("--delta", type=float, help="pulse onset")
    p.add_argument("--sigma", type=float, help="pulse duration")
    p.add_argument("--samples", type=int, default=1001, help="CSV sample count")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="csv samples or exact arc-chain json")
    p.add_argument("--out", help="trajectory path (default stdout)")
    p.add_argument("--zeros-out", help="zeros JSON path (default stdout)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("classify", help="case code and cycle stats for one pulse")
    _add_model_flags(p)
    p.add_argument("--amp", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--relaxed", action="store_true",
                   help="allow a >= beta_U; stats via simulation")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("sweep", help="cycle-length map CSV + case/monotonicity JSON")
    _add_model_flags(p)
    p.add_argument("--amp", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="row output format")
    p.add_argument("--out", help="rows path (default stdout)")
    p.add_argument("--report-out", help="JSON report path (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("therapy", help="plan a pulse lifting the nadir to x_d")
    _add_model_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--x-d", type=float, required=True, help="critical level (negative)")
    p.add_argument("--history", default="premax",
                   help="const:<v>, orbit, or premax (default premax)")
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--out", help="plan JSON path (default stdout)")
    p.add_argument("--trajectory-out", help="treated trajectory CSV path")
    p.set_defaults(fn=_cmd_therapy)

    p = sub.add_parser("threelevel", help="deep-suppression pulse checkpoints")
    _add_model_flags(p)
    p.add_argument("--beta-star", type=float, required=True)
    p.add_argument("--amp", type=float, required=True)
    p.add_argument("--find-tau0", action="store_true",
                   help="also give the smallest undershooting tau (closed form)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_threelevel)

    p = sub.add_parser("verify", help="exact engine vs dense oracle comparison")
    _add_model_flags(p)
    p.add_argument("--history", default="const:1.0")
    p.add_argument("--oracle-step", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(fn=_cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses: building one costs milliseconds, and
    parse_args leaves it unchanged."""
    return build_parser()


@functools.cache
def _commands(ap: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """ap's subcommand parsers by name."""
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = _parser()
    sub = _commands(ap).get(argv[0]) if argv else None
    try:
        if sub is None:
            args = ap.parse_args(argv)
        else:
            # the main parser would hand argv[1:] to sub after scanning it
            # once more itself
            args, extra = sub.parse_known_args(argv[1:])
            args.command = argv[0]
            if extra:   # the main parser reports them, in its own words
                args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except PlanInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except RelayDDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
