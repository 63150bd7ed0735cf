import dataclasses
import json
import math

import numpy as np
import pytest

import relaydde
from relaydde import (ModelParams, PulseContext, PulseSpec, ValidationError, classify,
                      case_sequence, cli, cycle_length_map, monotonicity_report,
                      periodic_solution, thresholds)
from relaydde.pulse import CODES, Case, CaseCode
from relaydde.sweep import SweepRow

import _expected as exp
from conftest import count_calls, random_oscillatory

A, SIGMA = 0.2, 0.4

P1_SEQUENCE = ["RNRN", "RNRP", "RPRP", "RPFP", "RPFN", "FPFN", "FNFN", "FNRN"]
P2_SEQUENCE = ["RNRP", "RPRP", "RPFP", "FPFP", "FPFN", "FNFN", "FNRN", "FNRP"]


def test_case_sequence_p1(p1):
    seq = [iv.code.value for iv in case_sequence(p1, A, SIGMA)]
    assert seq == P1_SEQUENCE


def test_case_sequence_p2(p2):
    seq = [iv.code.value for iv in case_sequence(p2, A, SIGMA)]
    assert seq == P2_SEQUENCE


def test_case_sequence_delta1_zero(p1):
    # amplitude tuned so delta1 = 0: starts with RNRP, ends with FNRN
    a0 = exp.P1_A_D1_ZERO
    assert abs(thresholds(p1, a0, SIGMA).delta1) < 1e-12
    seq = [iv.code.value for iv in case_sequence(p1, a0, SIGMA)]
    assert seq[0] == "RNRP" and seq[-1] == "FNRN"
    assert "RNRN" not in seq and "FNRP" not in seq


def test_case_sequence_rules_random():
    rng = np.random.default_rng(13)
    for _ in range(60):
        params = random_oscillatory(rng)
        a = float(rng.uniform(0.05, 0.95)) * params.beta_u
        sigma = float(rng.uniform(0.05, 1.0)) * params.tau
        th = thresholds(params, a, sigma)
        seq = [iv.code.value for iv in case_sequence(params, a, sigma)]
        for required in ("RNRP", "RPRP", "RPFP"):
            assert required in seq
        if th.delta1 > 0:
            assert seq[0] == "RNRN" and seq[-1] == "FNRN"
        else:
            assert seq[0] == "RNRP"
            assert seq[-1] == ("FNRN" if th.delta1 == 0 else "FNRP")
        orb = periodic_solution(params)
        middle = ("RPFN", "FPFN") if th.delta2 < orb.t_max else ("FPFP", "FPFN")
        for code in middle:
            assert code in seq, (seq, th.delta2, orb.t_max)


def test_partition_covers_domain(p1, orb1):
    ivs = case_sequence(p1, A, SIGMA)
    assert ivs[0].lo == 0.0 and ivs[0].lo_closed
    assert math.isclose(ivs[-1].hi, orb1.period, abs_tol=1e-12)
    assert not ivs[-1].hi_closed
    for a, b in zip(ivs, ivs[1:]):
        assert math.isclose(a.hi, b.lo, abs_tol=1e-12)
        assert a.hi_closed != b.lo_closed   # exactly one side owns the endpoint
    # grid classification agrees with interval membership
    for i in range(512):
        d = orb1.period * i / 512
        code = classify(p1, PulseSpec(A, d, SIGMA)).code
        owner = [iv for iv in ivs if iv.contains(d)]
        assert len(owner) == 1
        assert owner[0].code is code


def _assert_one_owner_each(ivs, onsets, codes):
    for d, code in zip(onsets, codes):
        owner = [iv for iv in ivs if iv.contains(d)]
        assert len(owner) == 1, (d, [iv.code.value for iv in owner])
        assert owner[0].code is code, d


def _end_neighbours(ivs, period):
    """Every interval end below T with the doubles on either side of it."""
    ends = {e for iv in ivs for e in (iv.lo, iv.hi)}
    near = {x for e in ends for x in (math.nextafter(e, -math.inf), e,
                                      math.nextafter(e, math.inf))}
    return sorted(x for x in near if 0.0 <= x < period)


@pytest.mark.parametrize("a, sigma", [(0.2, 0.4), (0.79, 1.0), (2.0, 0.5), (8.0, 1.0)])
@pytest.mark.parametrize("preset", ["p1", "p2"])
def test_partition_owns_each_onset_once(request, preset, a, sigma):
    # a >= beta_U can put T + delta1 below T - sigma, and sigma = tau puts
    # T - sigma on z2 and t_max - sigma within ulps of z1: neither may give
    # an onset two intervals
    params = request.getfixturevalue(preset)
    period = periodic_solution(params).period
    ivs = case_sequence(params, a, sigma)
    onsets = [period * i / 4096 for i in range(4096)] + _end_neighbours(ivs, period)
    codes = [classify(params, PulseSpec(a, d, sigma, relaxed=True)).code for d in onsets]
    _assert_one_owner_each(ivs, onsets, codes)


def test_partition_owns_each_onset_once_random_sigma_tau():
    # sigma == tau rounds t_max - sigma and T - sigma to within ulps of z1
    # and z2, where two case bounds meet
    rng = np.random.default_rng(29)
    for _ in range(40):
        params = random_oscillatory(rng)
        a = float(rng.uniform(0.05, 3.0)) * params.beta_u
        ctx = PulseContext(params, a, params.tau)
        period = ctx.orbit.period
        ivs = case_sequence(params, a, params.tau)
        for iv in ivs:   # every listed interval holds a double
            first = iv.lo if iv.lo_closed else math.nextafter(iv.lo, math.inf)
            assert first < iv.hi or (first == iv.hi and iv.hi_closed), iv
        onsets = [period * i / 512 for i in range(512)] + _end_neighbours(ivs, period)
        code, _ = ctx.classify(onsets)
        _assert_one_owner_each(ivs, onsets, [CODES[c] for c in code.tolist()])


def test_threshold_equivalences_random():
    rng = np.random.default_rng(19)
    for _ in range(100):
        params = random_oscillatory(rng)
        a = float(rng.uniform(0.05, 0.95)) * params.beta_u
        sigma = float(rng.uniform(0.05, 1.0)) * params.tau
        th = thresholds(params, a, sigma)
        orb = periodic_solution(params)
        lhs1 = (params.beta_l + a) * math.expm1(sigma)
        rhs1 = params.beta_u * -math.expm1(-params.tau)
        assert (th.delta1 > 0) == (lhs1 < rhs1)
        lhs2 = params.beta_l * -math.expm1(-params.tau)
        rhs2 = (params.beta_u - a) * math.expm1(sigma)
        assert (th.delta2 < orb.t_max) == (lhs2 < rhs2)


def test_cycle_length_map_markers(p1):
    table = cycle_length_map(p1, A, SIGMA, 64)
    m = table.markers
    order = [m["delta1"], m["z1"], m["tmax_minus_sigma"], m["delta2"],
             m["tmax"], m["z2"], m["T_minus_sigma"]]
    assert order == sorted(order)
    assert len(table.rows) == 64
    assert table.rows[0].delta == 0.0


def test_cycle_length_map_zero_amplitude(p1, orb1):
    table = cycle_length_map(p1, 1e-12, SIGMA, 32)
    for row in table.rows:
        assert abs(row.T - orb1.period) <= 1e-11


def test_cycle_length_map_grid_validation(p1):
    for n_grid in (8, math.nan, 16.5, 16.0):
        with pytest.raises(ValidationError) as err:
            cycle_length_map(p1, A, SIGMA, n_grid)
        assert err.value.clause == "grid_size"


def test_simulated_map_keeps_the_standing_hypothesis(p1):
    for simulated in (False, True):
        with pytest.raises(ValidationError) as exc:
            cycle_length_map(p1, 0.9, SIGMA, 64, simulated=simulated)
        assert exc.value.clause == "amp_standing"


def test_standing_hypothesis_fails_before_any_orbit(p1, monkeypatch):
    calls = {"periodic_solution": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    for params in (p1, ModelParams(1.0, -0.4, 0.8)):     # oscillatory or not
        for simulated in (False, True):
            with pytest.raises(ValidationError) as exc:
                cycle_length_map(params, 0.9, SIGMA, 64, simulated=simulated)
            assert exc.value.clause == "amp_standing"
    assert calls["periodic_solution"] == 0


def test_case_boundaries_stable_under_refinement(p1):
    coarse = cycle_length_map(p1, A, SIGMA, 256)
    fine = cycle_length_map(p1, A, SIGMA, 512)

    def first_rows(table):
        seen = {}
        for r in table.rows:
            seen.setdefault(r.case, r.delta)
        return seen

    cell = periodic_solution(p1).period / 256
    fa, fb = first_rows(coarse), first_rows(fine)
    assert set(fa) == set(fb)
    for case, d in fa.items():
        assert abs(d - fb[case]) <= cell + 1e-12


def test_simulated_table_matches_closed(p1):
    closed = cycle_length_map(p1, A, SIGMA, 16)
    sim = cycle_length_map(p1, A, SIGMA, 16, simulated=True)
    for rc, rs in zip(closed.rows, sim.rows):
        assert rc.case == rs.case
        assert abs(rc.T - rs.T) <= 1e-9
        assert abs(rc.x_min - rs.x_min) <= 1e-9
        assert abs(rc.x_max - rs.x_max) <= 1e-9


def test_monotonicity_report_p1(p1):
    report = monotonicity_report(cycle_length_map(p1, A, SIGMA, 1024))
    assert report.passed, report.failures
    assert {v.case for v in report.verdicts} == set(P1_SEQUENCE)


def test_monotonicity_report_p2(p2):
    report = monotonicity_report(cycle_length_map(p2, A, SIGMA, 1024))
    assert report.passed, report.failures
    assert {v.case for v in report.verdicts} == set(P2_SEQUENCE)


def test_monotonicity_report_two_branch():
    params = ModelParams(1.0, 1.0, 0.8)
    report = monotonicity_report(cycle_length_map(params, 0.6, 0.2, 1024))
    assert report.passed, report.failures
    fnfn = next(v for v in report.verdicts if v.case == "FNFN")
    assert fnfn.column_ok["xmin"]["detail"] == "increase-then-decrease"


def test_monotonicity_report_detects_tampering(p1):
    table = cycle_length_map(p1, A, SIGMA, 256)
    bad = dataclasses.replace(table, T=-table.T)
    report = monotonicity_report(bad)
    assert not report.passed
    assert any("/T" in f for f in report.failures)


def test_left_limit_toward_period(p1, p2):
    # the cycle length map closes up: its left limit at T equals T(0)
    for params in (p1, p2):
        table = cycle_length_map(params, A, SIGMA, 32)
        assert math.isclose(table.markers["T_left_limit"], table.rows[0].T,
                            abs_tol=1e-12)


def test_orbit_and_thresholds_built_once_per_map(monkeypatch, p1):
    calls = {"periodic_solution": 0, "thresholds": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    count_calls(monkeypatch, relaydde.pulse, "thresholds", calls)
    counts = []
    for n in (256, 4096):
        calls.update(periodic_solution=0, thresholds=0)
        cycle_length_map(p1, A, SIGMA, n)
        counts.append(dict(calls))
    assert counts[0] == counts[1], counts
    assert 1 <= counts[0]["periodic_solution"] <= 2, counts


# ------------------------------------------------- columns against per-row code

def _reference_rows(params, a, sigma, n, simulated=False):
    """The map as one SweepRow per onset, built row by row from PulseContext."""
    ctx = PulseContext(params, a, sigma)
    deltas = ctx.orbit.period * np.arange(n) / n
    if simulated:
        code, rnrp2 = ctx.classify(deltas)
        stats = [ctx.simulated(d, Case.of(c, s)) for d, c, s
                 in zip(deltas.tolist(), code.tolist(), rnrp2.tolist())]
    else:
        resp = ctx.response(deltas)
        stats = [resp.stats(i) for i in range(n)]
    return tuple(SweepRow(d, st.case.code.value, st.case.sub, st.T, st.x_min, st.x_max)
                 for d, st in zip(deltas.tolist(), stats))


def _reference_check(vals, base, verdict, claim, dbar_pos):
    if verdict == "U":
        bad = [v for v in vals if v != base]
        return (not bad, "exact-equality" if not bad else
                f"expected unchanged {base!r}, saw deviation up to "
                f"{max(abs(v - base) for v in bad):.3g}")
    if claim == +1 and any(v < base - 1e-12 for v in vals):
        return False, "value fell below the unperturbed one"
    if claim == -1 and any(v > base + 1e-12 for v in vals):
        return False, "value rose above the unperturbed one"
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if not diffs:
        return True, "single-row"
    if verdict == "I":
        ok = all(d > -1e-12 for d in diffs) and vals[-1] > vals[0]
        return ok, "increasing" if ok else "not increasing"
    if verdict == "D":
        ok = all(d < 1e-12 for d in diffs) and vals[-1] < vals[0]
        return ok, "decreasing" if ok else "not decreasing"
    assert verdict == "B"
    if dbar_pos is None or dbar_pos <= 0:
        ok = all(d < 1e-12 for d in diffs) and vals[-1] < vals[0]
        return ok, "decreasing (delta_bar left of interval)" if ok else "not decreasing"
    if dbar_pos >= len(vals):
        ok = all(d > -1e-12 for d in diffs) and vals[-1] > vals[0]
        return ok, "increasing (delta_bar right of interval)" if ok else "not increasing"
    up, down = diffs[:dbar_pos - 1], diffs[dbar_pos:]
    ok = all(d > -1e-12 for d in up) and all(d < 1e-12 for d in down)
    return ok, "increase-then-decrease" if ok else "no turn at delta_bar"


def _reference_report(rows, orb, th):
    """monotonicity_report(...).to_dict() computed from SweepRow records."""
    expected = relaydde.sweep._EXPECTED
    groups = []
    for row in rows:
        if groups and groups[-1][0] == row.case:
            groups[-1][1].append(row)
        else:
            groups.append((row.case, [row]))
    intervals, failures = [], []
    for case_name, group in groups:
        code = CaseCode(case_name)
        if code not in expected:
            failures.append(f"{case_name}: no summary-table column")
            continue
        deltas = [r.delta for r in group]
        span = f"[{deltas[0]:.6g}, {deltas[-1]:.6g}]"
        dbar_pos = (sum(1 for d in deltas if d < th.delta_bar)
                    if code is CaseCode.FNFN else None)
        cols = {}
        for name, vals, base, (verdict, claim) in (
                ("xmin", [r.x_min for r in group], orb.x_min, expected[code][0]),
                ("xmax", [r.x_max for r in group], orb.x_max, expected[code][1]),
                ("T", [r.T for r in group], orb.period, expected[code][2])):
            ok, why = _reference_check(vals, base, verdict, claim, dbar_pos)
            cols[name] = {"ok": ok, "detail": why}
            if not ok:
                failures.append(f"{case_name}/{name}: {why} (delta in {span})")
        intervals.append({"case": case_name, "interval": span, "rows": len(group),
                          "columns": cols})
    return {"passed": not failures, "failures": failures, "intervals": intervals}


def _csv_reference(rows):
    return ["delta,case,T,xmin,xmax"] + [
        f"{r.delta:.17g},{r.case},{r.T:.17g},{r.x_min:.17g},{r.x_max:.17g}" for r in rows]


def _same_rows(got, want):
    return [repr(r) for r in got] == [repr(r) for r in want]


def _cli_setups():
    rng = np.random.default_rng(29)
    p1, p2 = ModelParams(1.0, 0.4, 0.8), ModelParams(1.0, 1.4, 0.8)
    setups = [(p, a, s, n) for p in (p1, p2) for a, s in ((A, SIGMA), (0.5, 1.0))
              for n in (16, 333, 4096)]
    for k in range(20):
        params = random_oscillatory(rng)
        a = float(rng.uniform(0.05, 0.95)) * params.beta_u
        sigma = params.tau if k % 5 == 0 else float(rng.uniform(0.05, 1.0)) * params.tau
        setups.append((params, a, sigma, (16, 333, 4096)[k % 3]))
    return setups


def test_cli_sweep_bytes_equal_per_row_formatting(capsys):
    """CSV and --format json rows are the per-row f-string and dict output."""
    for params, a, sigma, n in _cli_setups():
        rows = _reference_rows(params, a, sigma, n)
        argv = ["sweep", "--tau", repr(params.tau), "--beta-l", repr(params.beta_l),
                "--beta-u", repr(params.beta_u), "--amp", repr(a),
                "--sigma", repr(sigma), "--grid", str(n)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        want = "\n".join(_csv_reference(rows)) + "\n"
        assert out.startswith(want), (params, a, sigma, n)
        orb, th = periodic_solution(params), thresholds(params, a, sigma)
        report = json.loads(out[len(want):])["monotonicity"]
        assert report == _reference_report(rows, orb, th)
        assert cli.main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        want = cli._dump_json([{"delta": r.delta, "case": r.case, "T": r.T,
                                "xmin": r.x_min, "xmax": r.x_max} for r in rows]) + "\n"
        assert out.startswith(want), (params, a, sigma, n)


def test_rows_view_equals_per_row_tuple(p1, p2):
    for params, n, simulated in ((p1, 4096, False), (p2, 333, False),
                                 (p1, 64, True), (p2, 64, True)):
        table = cycle_length_map(params, A, SIGMA, n, simulated=simulated)
        want = _reference_rows(params, A, SIGMA, n, simulated=simulated)
        assert len(table.rows) == table.n_grid == n
        assert _same_rows(table.rows, want)
        assert _same_rows([table.rows[i] for i in range(-n, n)], want + want)
        assert _same_rows(table.rows[5:-3:7], want[5:-3:7])
        assert table.csv_text() == "\n".join(_csv_reference(want))
        with pytest.raises(IndexError):
            table.rows[n]


def test_len_of_rows_builds_no_row(monkeypatch, p1):
    calls = {"SweepRow": 0}
    count_calls(monkeypatch, relaydde.sweep, "SweepRow", calls)
    table = cycle_length_map(p1, A, SIGMA, 256)
    assert len(table.rows) == 256
    assert calls["SweepRow"] == 0
    table.rows[-1]
    assert calls["SweepRow"] == 1
    list(table.rows)
    assert calls["SweepRow"] == 257


def test_columns_are_read_only(p1):
    table = cycle_length_map(p1, A, SIGMA, 64)
    for col in (table.delta, table.code, table.rnrp2, table.T, table.x_min, table.x_max):
        with pytest.raises(ValueError):
            col[0] = col[1]
    source = np.array(table.T)
    assert dataclasses.replace(table, T=source).T is not source
    assert source.flags.writeable


def _tampered_tables(p1):
    """Tables whose columns are edited to reach every branch of the checks."""
    base = cycle_length_map(p1, A, SIGMA, 256)
    orb, th = base.orbit, base.thresholds
    code = base.code.tolist()

    def run(name):
        i = code.index(CODES.index(CaseCode(name)))
        return i, i + code.count(CODES.index(CaseCode(name)))

    def edit(table, column, lo, hi, fn):
        col = np.array(getattr(table, column))
        col[lo:hi] = fn(col[lo:hi])
        return dataclasses.replace(table, **{column: col})

    rnrn, rnrp, rprp = run("RNRN"), run("RNRP"), run("RPRP")
    fnfn, fnrn = run("FNFN"), run("FNRN")
    two = cycle_length_map(ModelParams(1.0, 1.0, 0.8), 0.6, 0.2, 1024)
    two_fnfn = two.code.tolist().index(CODES.index(CaseCode.FNFN))
    yield "untampered", base
    yield "U deviation", edit(base, "x_min", rnrn[0], rnrn[0] + 1, lambda v: v + 1e-3)
    yield "U deviation below", edit(base, "x_max", rnrn[1] - 1, rnrn[1], lambda v: v - 1e-3)
    yield "claim +1", edit(base, "T", rprp[0], rprp[0] + 1, lambda v: v - 1.0)
    yield "claim -1", edit(base, "T", rnrn[0], rnrn[0] + 1, lambda v: v + 1.0)
    yield "I", edit(base, "T", *rnrp, lambda v: v[::-1])
    yield "D", edit(base, "T", *fnrn, lambda v: v[::-1])
    for where, dbar in (("left", 0.0), ("right", orb.period)):
        moved = dataclasses.replace(base, thresholds=dataclasses.replace(th, delta_bar=dbar))
        yield f"B {where}", moved
        yield f"B {where} reversed", edit(moved, "x_min", *fnfn, lambda v: v[::-1])
    yield "B inside", two
    yield "B inside reversed", edit(two, "x_min", two_fnfn, two_fnfn + 40, lambda v: v[::-1])
    mid = (rprp[0] + rprp[1]) // 2
    yield "single-row", edit(base, "code", mid, mid + 1,
                             lambda v: CODES.index(CaseCode.FPFN))
    yield "no column", edit(base, "code", mid, mid + 1,
                            lambda v: CODES.index(CaseCode.FNFP))


def test_monotonicity_report_equals_per_row_reference(p1):
    details = set()
    for name, table in _tampered_tables(p1):
        got = monotonicity_report(table).to_dict()
        assert got == _reference_report(table.rows, table.orbit, table.thresholds), name
        assert json.loads(cli._dump_json(got)) == got, name
        details |= {c["detail"] for iv in got["intervals"] for c in iv["columns"].values()}
        details |= {f.partition(": ")[0] for f in got["failures"]}
    assert {"exact-equality", "increasing", "decreasing", "not increasing",
            "not decreasing", "value fell below the unperturbed one",
            "value rose above the unperturbed one",
            "decreasing (delta_bar left of interval)",
            "increasing (delta_bar right of interval)", "increase-then-decrease",
            "no turn at delta_bar", "single-row", "FNFP"} <= details
    assert any(d.startswith("expected unchanged") for d in details)
