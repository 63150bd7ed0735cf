import math

import numpy as np
import pytest

import relaydde
from relaydde import (ModelParams, PulseSpec, ValidationError, classify,
                      case_sequence, cycle_length_map, monotonicity_report,
                      periodic_solution, thresholds)
from relaydde.sweep import SweepRow, SweepTable

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


@pytest.mark.parametrize("a, sigma", [(0.2, 0.4), (0.79, 1.0), (2.0, 0.5), (8.0, 1.0)])
@pytest.mark.parametrize("preset", ["p1", "p2"])
def test_partition_owns_each_onset_once(request, preset, a, sigma):
    # a >= beta_U can put T + delta1 below T - sigma, and sigma = tau puts
    # T - sigma on z2: neither may give an onset two intervals
    params = request.getfixturevalue(preset)
    period = periodic_solution(params).period
    ivs = case_sequence(params, a, sigma)
    ends = {e for iv in ivs for e in (iv.lo, iv.hi) if e < period}
    for d in [period * i / 4096 for i in range(4096)] + sorted(ends):
        owner = [iv for iv in ivs if iv.contains(d)]
        assert len(owner) == 1, (d, [iv.code.value for iv in owner])
        code = classify(params, PulseSpec(a, d, sigma, relaxed=True)).code
        assert owner[0].code is code, d


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
    with pytest.raises(ValidationError):
        cycle_length_map(p1, A, SIGMA, 8)


def test_simulated_map_keeps_the_standing_hypothesis(p1):
    for simulated in (False, True):
        with pytest.raises(ValidationError) as exc:
            cycle_length_map(p1, 0.9, SIGMA, 64, simulated=simulated)
        assert exc.value.clause == "amp_standing"


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
    rows = tuple(SweepRow(r.delta, r.case, r.sub, -r.T, r.x_min, r.x_max)
                 for r in table.rows)
    bad = SweepTable(table.params, table.a, table.sigma, table.n_grid, rows,
                     table.markers, table.thresholds, table.orbit)
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
