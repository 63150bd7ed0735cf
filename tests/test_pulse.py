import math

import numpy as np
import pytest

from relaydde import (CaseCode, ModelParams, OutOfDomainError, PulseContext, PulseSpec,
                      StandingHypothesisViolated, ValidationError,
                      case_cycle_length, case_sequence, classify, cycle_length_map,
                      periodic_solution, response_closed_form, response_simulated,
                      thresholds)
from relaydde.pulse import CODES, Case

import _expected as exp
from conftest import random_oscillatory

A, SIGMA = 0.2, 0.4


def _pulse(delta, a=A, sigma=SIGMA, relaxed=False):
    return PulseSpec(a, delta, sigma, relaxed=relaxed)


def random_pulse_setup(rng):
    """Random oscillatory params with an admissible (a, sigma)."""
    params = random_oscillatory(rng)
    a = float(rng.uniform(0.05, 0.95)) * params.beta_u
    sigma = float(rng.uniform(0.05, 1.0)) * params.tau
    return params, a, sigma


# ---------------------------------------------------------------- thresholds

def test_thresholds_p1(p1, orb1):
    th = thresholds(p1, A, SIGMA)
    assert math.isclose(th.delta1, exp.P1_D1, abs_tol=1e-13)
    assert math.isclose(th.delta1_hat, exp.P1_D1HAT, abs_tol=1e-13)
    assert math.isclose(th.delta2, exp.P1_D2, abs_tol=1e-13)
    assert math.isclose(th.delta_bar, exp.P1_DBAR, abs_tol=1e-13)
    assert th.delta1 > 0 and th.delta2 < orb1.t_max      # the Table-1 regime


def test_thresholds_p2(p2, orb2):
    th = thresholds(p2, A, SIGMA)
    assert math.isclose(th.delta1, exp.P2_D1, abs_tol=1e-13)
    assert math.isclose(th.delta2, exp.P2_D2, abs_tol=1e-13)
    assert -SIGMA < th.delta1 < 0                        # the Table-2 regime
    assert orb2.t_max < th.delta2 < orb2.z2


def test_threshold_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        params, a, sigma = random_pulse_setup(rng)
        orb = periodic_solution(params)
        th = thresholds(params, a, sigma)
        assert th.delta1 < orb.z1
        assert th.delta1 > -sigma
        assert th.delta2 > orb.t_max - sigma
        assert th.delta2 < orb.z2            # equivalent to a < beta_U
        assert th.delta1_hat > th.delta1
        assert not th.delta2_relaxed


def test_threshold_relaxed_flag():
    params = ModelParams(1.0, 0.3, 0.6)
    th = thresholds(params, 0.95, 0.4)
    assert th.delta2 >= periodic_solution(params).z2
    assert th.delta2_relaxed


def test_thresholds_zero_amplitude_limit(p1, orb1):
    th = thresholds(p1, 1e-12, SIGMA)
    assert math.isclose(th.delta1, orb1.z1 - SIGMA, abs_tol=1e-9)
    assert math.isclose(th.delta2, orb1.z2 - SIGMA, abs_tol=1e-9)
    # a(1 - e^-sigma) underflows to 0: delta1_hat takes its limit
    assert thresholds(p1, 1e-200, 1e-200).delta1_hat == math.inf
    assert classify(p1, _pulse(0.1, a=1e-200, sigma=1e-200)).code is CaseCode.RNRN


def test_delta_bar_placement():
    # delta_bar inside the FNFN interval iff beta_U e^{sigma-tau} < a
    p1 = ModelParams(1.0, 0.4, 0.8)
    th = thresholds(p1, A, SIGMA)                 # 0.8 e^{-0.6} > 0.2
    orb = periodic_solution(p1)
    assert th.delta_bar >= orb.period - SIGMA
    two_branch = ModelParams(1.0, 1.0, 0.8)       # 0.8 e^{-0.8} < 0.6
    th2 = thresholds(two_branch, 0.6, 0.2)
    orb2 = periodic_solution(two_branch)
    assert orb2.z2 < th2.delta_bar < orb2.period - 0.2
    assert math.isclose(th2.delta_bar, exp.D2B_DBAR, abs_tol=1e-12)


def test_delta_bar_past_the_double_range():
    # e^tau, or a(e^sigma - 1)e^tau/beta_U, overflows a double here
    for tau, a, sigma in ((800.0, 0.2, 0.4), (400.0, 0.4, 400.0), (400.0, 0.4, 399.0)):
        params = ModelParams(tau, 0.4, 0.8)
        ctx = PulseContext(params, a, sigma)
        d_bar, T = ctx.thresholds.delta_bar, ctx.orbit.period
        # y = e^(T - delta_bar) solves y(y - 1) = a(e^sigma - 1)e^tau/beta_U
        y = math.exp(T - d_bar)
        log_u = math.log(a / 0.8) + tau + sigma + math.log(-math.expm1(-sigma))
        assert math.isclose(math.log(y) + math.log(y - 1), log_u, rel_tol=1e-12)
    # at sigma = 399 delta_bar lies inside the FNFN interval
    assert ctx.orbit.z2 < d_bar < T - sigma
    # e^tau overflows but u = e^L is far below the double range: delta_bar -> T
    ctx = PulseContext(ModelParams(710.0, 0.4, 100.0), 5e-324, 1e-300)
    assert ctx.thresholds.delta_bar == ctx.orbit.period
    ctx = PulseContext(ModelParams(800.0, 0.4, 0.8), 0.2, 0.4)
    onsets = ctx.orbit.period * np.arange(16) / 16
    closed = ctx.response(onsets)
    for i, d in enumerate(onsets.tolist()):
        sim = ctx.simulated(d, Case.of(closed.code[i], closed.rnrp2[i]))
        for got, want in ((sim.T, closed.T[i]), (sim.x_min, closed.x_min[i]),
                          (sim.x_max, closed.x_max[i])):
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (d, CODES[closed.code[i]])


# ------------------------------------------------------------ classification

def test_classify_examples(p1, p2):
    assert classify(p1, _pulse(0.1)).code is CaseCode.RNRN
    assert classify(p1, _pulse(1.0)).code is CaseCode.RPRP
    assert classify(p2, _pulse(3.0)).code is CaseCode.FNRP


def test_classify_out_of_domain(p1, orb1):
    with pytest.raises(OutOfDomainError):
        classify(p1, _pulse(orb1.period))
    with pytest.raises(ValidationError):
        classify(p1, _pulse(0.5, sigma=1.5))      # sigma > tau


def test_classify_matches_letter_definitions():
    """Interval classification equals the direct phase/sign letter coding,
    with the pulsed-solution values read off the exact engine."""
    from relaydde import pulsed_trajectory
    rng = np.random.default_rng(29)
    for _ in range(8):
        params, a, sigma = random_pulse_setup(rng)
        orb = periodic_solution(params)
        for frac in np.linspace(0.0, 0.999, 41):
            d = float(frac * orb.period)
            pulse = PulseSpec(a, d, sigma)
            code = classify(params, pulse).code.value
            traj, _ = pulsed_trajectory(params, pulse,
                                        horizon=d + sigma + params.tau)
            x_on = traj.value(d) if d > 0 else orb.value(0.0)
            x_off = traj.value(d + sigma)
            end = d + sigma if d + sigma < orb.period else d + sigma - orb.period
            want = ("R" if d < orb.t_max else "F") \
                + ("N" if x_on < -1e-12 else "P") \
                + ("R" if end < orb.t_max else "F") \
                + ("N" if x_off < -1e-12 else "P")
            # exactly-zero onset/offset values are coded P by convention;
            # stay off the measure-zero boundaries
            if min(abs(x_on), abs(x_off)) > 1e-9:
                assert code == want, (params, a, sigma, d, x_on, x_off)


def test_classify_sub_label():
    # larger pulses push the offset value above beta_L: RNRP2
    params = ModelParams(2.0, 0.4, 0.9)
    a, sigma = 0.85, 0.5
    th = thresholds(params, a, sigma)
    orb = periodic_solution(params)
    assert max(0.0, th.delta1) < th.delta1_hat < orb.z1
    d_lo = (max(0.0, th.delta1) + th.delta1_hat) / 2
    d_hi = (th.delta1_hat + orb.z1) / 2
    case_lo = classify(params, PulseSpec(a, d_lo, sigma))
    case_hi = classify(params, PulseSpec(a, d_hi, sigma))
    assert case_lo.code is CaseCode.RNRP and case_lo.sub == "RNRP1"
    assert case_hi.code is CaseCode.RNRP and case_hi.sub == "RNRP2"
    # the split decides which candidate attains the maximum: offset value
    # is above beta_L exactly in RNRP2
    from relaydde import pulsed_trajectory
    traj_hi, _ = pulsed_trajectory(params, PulseSpec(a, d_hi, sigma))
    traj_lo, _ = pulsed_trajectory(params, PulseSpec(a, d_lo, sigma))
    assert traj_hi.value(d_hi + sigma) > params.beta_l
    assert traj_lo.value(d_lo + sigma) <= params.beta_l


# ------------------------------------------------------------- closed forms

def test_response_examples_p1(p1, orb1):
    st = response_closed_form(p1, _pulse(0.1))
    assert st.case.code is CaseCode.RNRN
    assert math.isclose(st.T, exp.P1_T_RNRN_AT_0P1, abs_tol=1e-13)
    assert st.T < orb1.period
    assert st.x_min == orb1.x_min and st.x_max == orb1.x_max
    assert st.J == 0

    st = response_closed_form(p1, _pulse(1.0))
    assert st.case.code is CaseCode.RPRP
    assert math.isclose(st.T, exp.P1_T_RPRP_AT_1P0, abs_tol=1e-13)
    assert st.T > orb1.period
    assert math.isclose(st.x_max, exp.P1_XMAXD_RPRP_AT_1P0, abs_tol=1e-13)
    assert st.x_max > orb1.x_max
    assert st.J == 1


def test_zero_amplitude_limit_all_cases(p1, orb1):
    for d in (0.1, 0.5, 1.0, 1.5, 1.79, 1.9, 2.3, 2.75, 3.05):
        st = response_closed_form(p1, _pulse(d, a=1e-12))
        assert abs(st.T - orb1.period) <= 1e-9
        assert abs(st.x_min - orb1.x_min) <= 1e-9
        assert abs(st.x_max - orb1.x_max) <= 1e-9


def test_closed_vs_simulated_grids(p1, p2):
    rng = np.random.default_rng(31)
    setups = [(p1, A, SIGMA), (p2, A, SIGMA)]
    setups += [random_pulse_setup(rng) for _ in range(4)]
    for params, a, sigma in setups:
        orb = periodic_solution(params)
        for i in range(64):
            d = orb.period * i / 64
            cf = response_closed_form(params, PulseSpec(a, d, sigma))
            sim = response_simulated(params, PulseSpec(a, d, sigma))
            assert cf.case.code == sim.case.code
            assert abs(cf.T - sim.T) <= 1e-9, (params, a, sigma, d)
            assert abs(cf.x_min - sim.x_min) <= 1e-9
            assert abs(cf.x_max - sim.x_max) <= 1e-9


def test_boundary_agreement(p1):
    th = thresholds(p1, A, SIGMA)
    orb = periodic_solution(p1)
    t_a = case_cycle_length(p1, A, SIGMA, th.delta1, CaseCode.RNRN)
    t_b = case_cycle_length(p1, A, SIGMA, th.delta1, CaseCode.RNRP)
    assert abs(t_a - t_b) <= 1e-12
    assert t_a < orb.period
    t_c = case_cycle_length(p1, A, SIGMA, th.delta2, CaseCode.RPFP)
    t_d = case_cycle_length(p1, A, SIGMA, th.delta2, CaseCode.RPFN)
    assert abs(t_c - t_d) <= 1e-12
    assert t_c > orb.period


def test_boundary_agreement_random():
    rng = np.random.default_rng(37)
    for _ in range(50):
        params, a, sigma = random_pulse_setup(rng)
        th = thresholds(params, a, sigma)
        d1 = abs(case_cycle_length(params, a, sigma, th.delta1, CaseCode.RNRN)
                 - case_cycle_length(params, a, sigma, th.delta1, CaseCode.RNRP))
        d2 = abs(case_cycle_length(params, a, sigma, th.delta2, CaseCode.RPFP)
                 - case_cycle_length(params, a, sigma, th.delta2, CaseCode.RPFN))
        assert d1 <= 1e-12 and d2 <= 1e-12


def _seams(ctx):
    """(T, x_min, x_max) of the two neighbouring cases at each interior end
    of the partition; an extremum that _extrema leaves unchanged counts as
    the orbit's."""
    orb = ctx.orbit
    parts = ctx.partition
    for left, right in zip(parts, parts[1:]):
        d = np.array([left.hi])
        sides = []
        for code in (left.code, right.code):
            T = ctx.cycle_length(d, code)
            lo, hi, _ = ctx._extrema(code, d, T)
            sides.append((float(T[0]), orb.x_min if lo is None else float(lo[0]),
                          orb.x_max if hi is None else float(hi[0])))
        yield sides


def test_case_boundaries_are_seams():
    """At every interior end of the partition the two neighbouring cases give
    the same T and extrema: on log-uniform sets at a <= beta_U/2 up to the
    cancellation in the formulas, on the presets to the last bits."""
    rng = np.random.default_rng(1)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    ends = 0
    for _ in range(40):
        params = ModelParams(*np.exp(rng.uniform(lo, hi)).tolist())
        for fs in (1e-6, 0.5, 1.0):
            for fa in (1e-6, 0.5):
                ctx = PulseContext(params, fa * params.beta_u, fs * params.tau)
                for (Ta, *xa), (Tb, *xb) in _seams(ctx):
                    assert abs(Ta - Tb) <= 1e-10 * max(1.0, abs(Ta)), (params, fa, fs, Ta)
                    for u, v in zip(xa, xb):
                        assert abs(u - v) <= 1e-12 * max(1.0, abs(u)), (params, fa, fs, u)
                    ends += 1
    assert ends > 1500, ends
    for params in (ModelParams(1.0, 0.4, 0.8), ModelParams(1.0, 1.4, 0.8)):
        for a, sigma in ((0.2, 0.4), (0.2, params.tau), (0.7, 0.4)):
            for left, right in _seams(PulseContext(params, a, sigma)):
                assert max(abs(u - v) for u, v in zip(left, right)) <= 1e-15, \
                    (params, a, sigma, left, right)


def test_sign_claims(p1, p2, orb1, orb2):
    # T below the period on RNRN and FNFN, above on RPRP/RPFP/FPFP
    for params, orb in ((p1, orb1), (p2, orb2)):
        for i in range(256):
            d = orb.period * i / 256
            st = response_closed_form(params, PulseSpec(A, d, SIGMA))
            if st.case.code in (CaseCode.RNRN, CaseCode.FNFN):
                assert st.T < orb.period
            if st.case.code in (CaseCode.RPRP, CaseCode.RPFP, CaseCode.FPFP):
                assert st.T > orb.period


def _grid_stats(params, a, sigma, n=512):
    orb = periodic_solution(params)
    rows = []
    for i in range(n):
        d = orb.period * i / n
        rows.append((d, response_closed_form(params, PulseSpec(a, d, sigma))))
    return orb, rows


def test_monotonicity_directions(p1):
    orb, rows = _grid_stats(p1, A, SIGMA)
    inc_T = {CaseCode.RNRP, CaseCode.RPRP, CaseCode.RPFP, CaseCode.FPFP, CaseCode.FNRP}
    dec_T = {CaseCode.RNRN, CaseCode.RPFN, CaseCode.FPFN, CaseCode.FNFN, CaseCode.FNRN}
    for (d0, s0), (d1, s1) in zip(rows, rows[1:]):
        if s0.case.code != s1.case.code:
            continue
        code = s0.case.code
        if code in inc_T:
            assert s1.T > s0.T - 1e-12
        elif code in dec_T:
            assert s1.T < s0.T + 1e-12
        if code in (CaseCode.RNRP, CaseCode.RPRP):
            assert s1.x_max > s0.x_max - 1e-12
        if code is CaseCode.RPFP:
            assert s1.x_max < s0.x_max + 1e-12
        if code in (CaseCode.RPFN, CaseCode.FPFN):
            assert s1.x_min > s0.x_min - 1e-12
        if code in (CaseCode.FNRN, CaseCode.FNRP):
            assert s1.x_min < s0.x_min + 1e-12


def test_fnfn_two_branch_minimum():
    params = ModelParams(1.0, 1.0, 0.8)
    a, sigma = 0.6, 0.2
    orb = periodic_solution(params)
    th = thresholds(params, a, sigma)
    assert orb.z2 < th.delta_bar < orb.period - sigma
    before = [orb.z2 + f * (th.delta_bar - orb.z2) for f in (0.2, 0.5, 0.8)]
    after = [th.delta_bar + f * (orb.period - sigma - th.delta_bar) for f in (0.2, 0.5, 0.8)]
    mins_b = [response_closed_form(params, PulseSpec(a, d, sigma)).x_min for d in before]
    mins_a = [response_closed_form(params, PulseSpec(a, d, sigma)).x_min for d in after]
    assert mins_b[0] < mins_b[1] < mins_b[2]      # increasing left of delta_bar
    assert mins_a[0] > mins_a[1] > mins_a[2]      # decreasing right of it
    assert all(m > orb.x_min for m in mins_b + mins_a)
    # simulation agrees on both branches
    for d in (before[1], after[1]):
        sim = response_simulated(params, PulseSpec(a, d, sigma))
        cf = response_closed_form(params, PulseSpec(a, d, sigma))
        assert abs(sim.x_min - cf.x_min) <= 1e-9


def test_u_cells_exact(p1, orb1):
    orb, rows = _grid_stats(p1, A, SIGMA, n=256)
    u_min = {CaseCode.RNRN, CaseCode.RNRP, CaseCode.RPRP, CaseCode.RPFP, CaseCode.FPFP}
    u_max = {CaseCode.RNRN, CaseCode.FPFP, CaseCode.FPFN, CaseCode.FNFN, CaseCode.FNRN}
    seen_min, seen_max = set(), set()
    for _, st in rows:
        if st.case.code in u_min:
            assert st.x_min == orb1.x_min    # exact, not approximate
            seen_min.add(st.case.code)
        if st.case.code in u_max:
            assert st.x_max == orb1.x_max
            seen_max.add(st.case.code)
    assert CaseCode.RNRN in seen_min and CaseCode.FNFN in seen_max


def test_extrema_never_below_base(p1, p2, orb1, orb2):
    for params, orb in ((p1, orb1), (p2, orb2)):
        _, rows = _grid_stats(params, A, SIGMA, n=256)
        for _, st in rows:
            assert st.x_min >= orb.x_min - 1e-12
            assert st.x_max >= orb.x_max - 1e-12


def test_zeros_match_simulation(p1):
    from relaydde import pulsed_trajectory
    for d in (0.5, 1.0, 1.79, 2.3):
        cf = response_closed_form(p1, _pulse(d))
        traj, _ = pulsed_trajectory(p1, _pulse(d))
        sim_zeros = [z.t for z in traj.zeros]
        for z in cf.zeros:
            assert any(abs(z - zs) <= 1e-9 for zs in sim_zeros), (d, z, sim_zeros)


def test_exact_onset_at_orbit_zero(p1, orb1):
    """Pulse starting exactly on an orbit zero: the half-swing-early merge."""
    for d in (orb1.z1, orb1.z2):
        cf = response_closed_form(p1, _pulse(d))
        sim = response_simulated(p1, _pulse(d))
        assert abs(cf.T - sim.T) <= 1e-9
        eps = 1e-7
        near = response_simulated(p1, _pulse(d + eps))
        assert abs(near.T - sim.T) <= 1e-4   # continuity across the boundary


def test_standing_hypothesis_errors():
    params = ModelParams(1.0, 0.3, 0.6)
    with pytest.raises(ValidationError) as exc:
        response_closed_form(params, PulseSpec(0.95, 2.2, 0.4))
    assert exc.value.clause == "amp_standing"
    with pytest.raises(StandingHypothesisViolated):
        response_closed_form(params, PulseSpec(0.95, 2.2, 0.4, relaxed=True))


def test_rpfn_fpfn_formula_needs_a_below_beta_u(p1):
    # 1/(beta_U - a) in the RPFN/FPFN formula: a typed error at and above
    # beta_U, never a ZeroDivisionError or a meaningless value
    assert p1.beta_u == 0.8
    for a in (0.8, 0.9):
        for code in (CaseCode.RPFN, CaseCode.FPFN):
            with pytest.raises(StandingHypothesisViolated):
                case_cycle_length(p1, a, 0.4, 1.5, code)
    assert math.isfinite(case_cycle_length(p1, 0.79, 0.4, 1.5, CaseCode.FPFN))


def test_relaxed_fnfp_simulation():
    params = ModelParams(1.0, 0.3, 0.6)
    orb = periodic_solution(params)
    for d in (2.15, 2.3):
        pulse = PulseSpec(0.95, d, 0.4, relaxed=True)
        assert classify(params, pulse).code is CaseCode.FNFP
        st = response_simulated(params, pulse)
        assert st.T == math.inf or st.T > 0
        if st.T == math.inf:
            assert st.diagnostics and "zeros_seen" in st.diagnostics
        else:
            assert st.zeros, "finite cycle must report its zeros"


from hypothesis import given, settings
from hypothesis import strategies as st


@given(tau=st.floats(0.3, 4.0), bl=st.floats(0.1, 2.0), bu=st.floats(0.1, 2.0),
       fa=st.floats(0.05, 0.95), fs=st.floats(0.05, 1.0))
@settings(max_examples=150, deadline=None)
def test_threshold_invariants_property(tau, bl, bu, fa, fs):
    params = ModelParams(tau, bl, bu)
    a, sigma = fa * bu, fs * tau
    orb = periodic_solution(params)
    th = thresholds(params, a, sigma)
    assert -sigma < th.delta1 < orb.z1
    assert orb.t_max - sigma < th.delta2 < orb.z2
    assert th.delta1_hat > th.delta1


# ------------------------------------------------- the array path at the edges

U_MIN = {CaseCode.RNRN, CaseCode.RNRP, CaseCode.RPRP, CaseCode.RPFP, CaseCode.FPFP}
U_MAX = {CaseCode.RNRN, CaseCode.FPFP, CaseCode.FPFN, CaseCode.FNFN, CaseCode.FNRN}


def _pinned_onsets(params, a, sigma):
    """Every analytic case threshold in [0, T) and the doubles next to it."""
    orb = periodic_solution(params)
    th = thresholds(params, a, sigma)
    T = orb.period
    out = set()
    for d in (th.delta1, th.delta1_hat, th.delta2, th.delta_bar, orb.z1,
              orb.t_max - sigma, orb.t_max, orb.z2, T - sigma, T + th.delta1):
        for x in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf)):
            if 0.0 <= x < T:
                out.add(x)
    return sorted(out)


def _same_stats(st, want):
    return (st.case == want.case and st.J == want.J and st.zeros == want.zeros
            and (st.T, st.x_min, st.x_max) == (want.T, want.x_min, want.x_max))


def test_array_path_at_thresholds_and_on_grid(p1, p2):
    """One implementation: the array path agrees with the interval partition,
    its rows equal the scalar view bit for bit, and U columns stay exact."""
    rng = np.random.default_rng(41)
    setups = [(p1, A, SIGMA), (p2, A, SIGMA)]
    setups += [random_pulse_setup(rng) for _ in range(20)]
    n = 4096
    for k, (params, a, sigma) in enumerate(setups):
        ctx = PulseContext(params, a, sigma)
        orb, th = ctx.orbit, ctx.thresholds
        pinned = _pinned_onsets(params, a, sigma)
        table = cycle_length_map(params, a, sigma, n)
        onsets = np.array([r.delta for r in table.rows] + pinned)
        resp = ctx.response(onsets)
        ivs = case_sequence(params, a, sigma)
        codes = [CODES[c] for c in resp.code.tolist()]
        for d, code in zip(onsets.tolist(), codes):
            owner = [iv.code for iv in ivs if iv.contains(d)]
            assert owner == [code], (k, d)
        rnrp = resp.code == CODES.index(CaseCode.RNRP)
        assert np.array_equal(resp.rnrp2, rnrp & (onsets > th.delta1_hat))
        u_min = np.isin(resp.code, [CODES.index(c) for c in U_MIN])
        u_max = np.isin(resp.code, [CODES.index(c) for c in U_MAX])
        assert u_min.any() and u_max.any()
        assert (resp.x_min[u_min] == orb.x_min).all()
        assert (resp.x_max[u_max] == orb.x_max).all()
        subs = [("RNRP2" if s else "RNRP1") if r else None
                for r, s in zip(rnrp.tolist(), resp.rnrp2.tolist())]
        want = zip([c.value for c in codes], subs, resp.T.tolist(),
                   resp.x_min.tolist(), resp.x_max.tolist())
        assert [(r.case, r.sub, r.T, r.x_min, r.x_max) for r in table.rows] \
            == list(want)[:n], k
        # the scalar view on every pinned onset and a grid subsample (~0.1 ms a call)
        step = 4 if k < 2 else 64
        for i in [*range(0, n, step), *range(n, onsets.size)]:
            want = response_closed_form(params, PulseSpec(a, float(onsets[i]), sigma))
            assert _same_stats(resp.stats(i), want), (k, onsets[i])


def test_array_path_rejects_fnfp_for_the_whole_call():
    params = ModelParams(1.0, 0.3, 0.6)
    ctx = PulseContext(params, 0.95, 0.4)
    onsets = [0.1, 2.15, 2.9]
    code, _ = ctx.classify(onsets)
    assert CODES[code[1]] is CaseCode.FNFP
    with pytest.raises(StandingHypothesisViolated):
        ctx.response(onsets)
    with pytest.raises(OutOfDomainError):
        ctx.classify([0.1, ctx.orbit.period])


# ------------------------------------- the simulated route stops at the merge

def _full_horizon_simulated(params, a, sigma, delta, case):
    """The simulated route from public calls: a run to the full horizon, one
    merge search over its whole chain, extrema up to z_def."""
    from relaydde import CycleStats, MergePhase, merge_time, pulsed_trajectory
    traj, orb = pulsed_trajectory(params, PulseSpec(a, delta, sigma, relaxed=True))
    J = int(delta >= orb.z1) + int(delta >= orb.z2)
    ref = (-params.tau, orb.z1, orb.z2)[J]
    merged = merge_time(traj, orb, t_free=delta + sigma)
    if merged is None:
        zs = tuple(z.t for z in traj.zeros)
        return CycleStats(case, math.inf, math.nan, math.nan, J, zs,
                          diagnostics={"zeros_seen": list(zs), "horizon": traj.horizon})
    z_def = merged.zero
    if merged.phase is not (MergePhase.MAX if J == 1 else MergePhase.MIN):
        z_def += orb.z1 - (-params.tau) if J == 1 else orb.z2 - orb.z1
    x_mn, x_mx = traj.breakpoint_extrema(ref, min(z_def, traj.horizon))
    zs = tuple(z.t for z in traj.zeros if ref < z.t <= z_def + 1e-12)
    return CycleStats(case, z_def - ref, x_mn, x_mx, J, zs)


def _outcome(fn):
    """Every field of a CycleStats, floats by repr, or the typed error."""
    from relaydde import RelayDDEError
    try:
        st = fn()
    except RelayDDEError as exc:
        return type(exc).__name__, str(exc)
    return (st.case, repr(st.T), repr(st.x_min), repr(st.x_max), st.J,
            tuple(map(repr, st.zeros)), repr(st.diagnostics))


#: (params, a/beta_U, sigma/tau) run in relaxed mode: the first two lie on the
#: edge of the ROADMAP item "Close the a -> beta_U edge", where the engine once
#: lost or doubled a zero; the third (a = 2.5 beta_U) has runs that end in T = inf
_UNDECIDED = [
    (ModelParams(1.194248598062565, 0.26050940086337315, 0.2161689777779397), 1 - 1e-9, 1e-3),
    (ModelParams(0.2544, 50.44, 7.33e-4), 1 - 1e-9, 1.0),
    (ModelParams(10.351702795234694, 5.871456158334371, 13.312064246902397), 2.5, 0.5),
]


def test_simulated_stop_equals_full_horizon_run(p1, p2):
    """Stopping at the validated merge changes no field of any result."""
    rng = np.random.default_rng(43)
    setups = [(p1, A, SIGMA), (p2, A, SIGMA)]
    setups += [random_pulse_setup(rng) for _ in range(6)]
    # z1 + tau > 2 tau or z2 - z1 > 2 tau: after a merge in the other phase
    # z_def lies past the check window, yet the stopped run must cover it
    setups += [(ModelParams(0.3, 0.1, 1.9), 0.5, 0.2), (ModelParams(0.3, 1.9, 0.1), 0.05, 0.2)]
    relaxed = [(params, f * params.beta_u, sigma) for params, _, sigma in setups[:2]
               for f in (1.2, 2.5)]
    relaxed += [(params, f * params.beta_u, g * params.tau) for params, f, g in _UNDECIDED]
    seen = set()
    for k, (params, a, sigma) in enumerate(setups + relaxed):
        ctx = PulseContext(params, a, sigma)
        T = ctx.orbit.period
        n = 256 if k < len(setups) else 32
        onsets = sorted({*(T * np.arange(n) / n).tolist(), *_pinned_onsets(params, a, sigma)})
        code, rnrp2 = ctx.classify(onsets)
        for d, c, s in zip(onsets, code.tolist(), rnrp2.tolist()):
            case = Case.of(c, s)
            got = _outcome(lambda: ctx.simulated(d, case))
            assert got == _outcome(lambda: _full_horizon_simulated(params, a, sigma, d, case)), \
                (k, d)
            seen.add(got[0] if isinstance(got[0], str) else got[1] == "inf")
    assert seen == {True, False}, seen
    # numpy-scalar onsets on both sides of z1 and z2 give the same values, J an int
    for params, a, sigma in setups[:2]:
        ctx = PulseContext(params, a, sigma)
        z1, z2 = ctx.orbit.z1, ctx.orbit.z2
        for d in (0.0, z1 - 0.1, z1, z1 + 0.1, z2 - 0.1, z2, z2 + 0.1):
            want = ctx.simulated(d, ctx.case(d))
            nd = np.float64(d)
            for st in (ctx.simulated(nd, ctx.case(nd)), ctx.stats(nd, simulated=True),
                       response_simulated(params, PulseSpec(a, nd, sigma))):
                assert st == want and type(st.J) is int, d


def test_merged_runs_end_before_the_full_horizon(monkeypatch, p1, p2):
    import relaydde.pulse as pulse_mod
    runs = []
    evolve_ = pulse_mod._evolve

    def recorded(*args):
        runs.append((args[2], evolve_(*args)))
        return runs[-1][1]

    monkeypatch.setattr(pulse_mod, "_evolve", recorded)
    cases = [(p1, A, SIGMA, d) for d in (0.1, 1.0, 2.3)]
    cases += [(p2, A, SIGMA, d) for d in (0.5, 3.0)]
    params, f, g = _UNDECIDED[0]
    cases.append((params, f * params.beta_u, g * params.tau, 2.2604678636509097))
    params, f, g = _UNDECIDED[2]
    cases.append((params, f * params.beta_u, g * params.tau, 13.907939666916146))
    ends = []
    for params, a, sigma, d in cases:
        st = response_simulated(params, PulseSpec(a, d, sigma, relaxed=True))
        horizon, traj = runs[-1]
        if st.T == math.inf:     # no merge: the run still decides it at the full horizon
            assert traj.horizon == horizon == st.diagnostics["horizon"]
        else:
            assert max(st.zeros) < traj.horizon < horizon, (d, traj.horizon, horizon)
        ends.append(st.T)
    assert ends[5] == 3.455910710311537     # the closed form's value
    assert [T == math.inf for T in ends] == [False] * 6 + [True]


def test_a_shared_run_start_does_not_leak_between_runs(p1, p2):
    # a context's simulated runs share one engine start: whatever the order
    # of the onsets, each gets what a fresh context gives it
    from relaydde.engine import _run_start
    rng = np.random.default_rng(24)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    setups = [(p1, A, SIGMA), (p2, A, SIGMA)]
    for _ in range(2):
        params = ModelParams(*np.exp(rng.uniform(lo, hi)).tolist())
        setups.append((params, 0.5 * params.beta_u, 0.5 * params.tau))
    for params, a, sigma in setups:
        ctx = PulseContext(params, a, sigma)
        deltas = np.sort(rng.uniform(0.0, ctx.orbit.period, 64)).tolist()
        forward = [_outcome(lambda: ctx.stats(d, simulated=True)) for d in deltas]
        backward = [_outcome(lambda: ctx.stats(d, simulated=True)) for d in deltas[::-1]]
        fresh = [_outcome(lambda: response_simulated(params, PulseSpec(a, d, sigma)))
                 for d in deltas]
        assert forward == backward[::-1] == fresh, params
        history, start, _ = ctx._start
        assert start == _run_start(params, history, None)


def test_maps_merge_on_the_zero_gap_alone(p1, p2):
    for params in (p1, p2):
        table = cycle_length_map(params, A, SIGMA, 512, simulated=True)
        assert np.isfinite(table.T).all()


def test_onset_on_a_zero_books_it_once():
    # The orbit's falling zero lies about 6e-16 past the onset, so the arc
    # before the onset ends on it and the pulse arc books it at its start:
    # once, with no second falling zero when the pulse arc crosses. The
    # rising zero then lies a delay past it and is the merge. The closed
    # form reads 10.154663577975843; one ulp of the onset moves T by
    # about 1e-6 here.
    params, f, g = _UNDECIDED[1]
    ctx = PulseContext(params, f * params.beta_u, g * params.tau)
    d = 9.900265065770649
    st = ctx.stats(d, simulated=True)
    assert st.T == 10.154661801594845
    assert st.zeros == (9.900265065770649, 10.154665065770653)
    assert st.zeros[1] - st.zeros[0] >= params.tau
    assert float(ctx.response(d).T[0]) == 10.154663577975843


def test_fnfp_only_when_a_reaches_beta_u():
    # delta2 rounded onto z2 here, so the onset classified FNFP and the closed
    # form raised although a < beta_U
    params = ModelParams(0.0013474090080196335, 3.319545700893536, 0.16937912278178052)
    a, sigma, d = (1 - 1e-9) * params.beta_u, 1e-6 * params.tau, 0.027463090588376197
    ctx = PulseContext(params, a, sigma)
    assert not ctx.thresholds.delta2_relaxed
    assert ctx.thresholds.delta2 < ctx.orbit.z2
    assert ctx.case(d).code is CaseCode.FNFN
    closed, sim = ctx.stats(d), ctx.stats(d, simulated=True)
    for got, want in ((sim.T, closed.T), (sim.x_min, closed.x_min), (sim.x_max, closed.x_max)):
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))
    # at a = beta_U the flag is set whatever delta2 rounds to
    assert PulseContext(params, params.beta_u, sigma).thresholds.delta2_relaxed


def test_infinite_amplitude_rejected(p1):
    # a = inf once reached log(beta_L / inf) and raised a bare ValueError
    for make in (lambda: PulseContext(p1, math.inf, 0.4),
                 lambda: PulseSpec(math.inf, 0.1, 0.4, relaxed=True)):
        with pytest.raises(ValidationError) as exc:
            make()
        assert exc.value.clause == "amp_positive"


def test_context_builds_the_orbit_history_on_the_first_simulated_run(p1, monkeypatch):
    from relaydde import PeriodicOrbit
    built = []
    history_min_phase = PeriodicOrbit.history_min_phase
    monkeypatch.setattr(PeriodicOrbit, "history_min_phase",
                        lambda self: built.append(1) or history_min_phase(self))
    ctx = PulseContext(p1, 0.2, 0.4)
    z1, z2, T = ctx.orbit.z1, ctx.orbit.z2, ctx.orbit.period
    onsets = (0.0, z1, (z1 + z2) / 2, z2, (z2 + T) / 2)
    closed = ctx.response(onsets)
    assert ctx.partition and built == []
    for i, d in enumerate(onsets):
        J = ctx.stats(d, simulated=True).J
        assert type(J) is int and J == closed.J[i] == (0, 1, 1, 2, 2)[i], d
    assert built == [1]


# ------------------------------------------- agreement on the whole domain

def test_closed_form_equals_simulation_on_the_whole_domain():
    """Far beyond random_pulse_setup: log-uniform tau in [1e-3, 50] and betas
    in [1e-4, 100], sigma down to 1e-6 tau, a <= beta_U/2, and onsets on 0 and
    on every threshold in [0, T), each also one ulp above. The a -> beta_U
    edge is left out: the two routes are known to disagree there."""
    rng = np.random.default_rng(47)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    pulses = 0
    for _ in range(40):
        params = ModelParams(*np.exp(rng.uniform(lo, hi)).tolist())
        for fs in (1e-6, 0.5, 1.0):
            for fa in (1e-6, 0.5):
                a, sigma = fa * params.beta_u, fs * params.tau
                ctx = PulseContext(params, a, sigma)
                orb, th, T = ctx.orbit, ctx.thresholds, ctx.orbit.period
                onsets = {0.0}
                for d in (th.delta1, th.delta1_hat, th.delta2, th.delta_bar, orb.z1, orb.z2,
                          orb.t_max, orb.t_max - sigma, T - sigma, T + th.delta1):
                    onsets |= {x for x in (d, math.nextafter(d, math.inf)) if 0.0 <= x < T}
                onsets = sorted(onsets)
                closed = ctx.response(onsets)
                for i, d in enumerate(onsets):
                    sim = ctx.simulated(d, Case.of(closed.code[i], closed.rnrp2[i]))
                    for got, want in ((sim.T, closed.T[i]), (sim.x_min, closed.x_min[i]),
                                      (sim.x_max, closed.x_max[i])):
                        assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), \
                            (params, a, sigma, d, CODES[closed.code[i]])
                pulses += len(onsets)
    assert pulses > 3000


def test_simulated_runs_merge_at_the_a_to_beta_u_edge():
    """Up to a -> beta_U every simulated run finds its merge: the engine books
    a crossing that rounds onto an arc's start at that start, so no zero is
    lost and no run reads T = inf. At a <= beta_U/2 it also agrees with the
    closed form."""
    rng = np.random.default_rng(1)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    pulses = 0
    for _ in range(10):
        params = ModelParams(*np.exp(rng.uniform(lo, hi)).tolist())
        for fs in (1e-6, 0.5, 1.0):
            for fa in (1e-6, 0.5, 1 - 1e-6, 1 - 1e-9):
                a, sigma = fa * params.beta_u, fs * params.tau
                ctx = PulseContext(params, a, sigma)
                orb, th, T = ctx.orbit, ctx.thresholds, ctx.orbit.period
                onsets = set()
                for d in (0.0, th.delta1, th.delta1_hat, th.delta2, th.delta_bar, orb.z1,
                          orb.z2, orb.t_max, orb.t_max - sigma, T - sigma, T + th.delta1):
                    onsets |= {x for x in (d, math.nextafter(d, math.inf)) if 0.0 <= x < T}
                onsets = sorted(onsets)
                code, rnrp2 = ctx.classify(onsets)
                closed = ctx.response(onsets) if fa <= 0.5 else None
                for i, d in enumerate(onsets):
                    sim = ctx.simulated(d, Case.of(code[i], rnrp2[i]))
                    assert sim.T < math.inf, (params, a, sigma, d)
                    if closed is not None:
                        for got, want in ((sim.T, closed.T[i]), (sim.x_min, closed.x_min[i]),
                                          (sim.x_max, closed.x_max[i])):
                            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), \
                                (params, a, sigma, d, CODES[code[i]])
                pulses += len(onsets)
    assert pulses > 2000, pulses
    # the traced lost zero: the falling crossing after the pulse came about
    # 1e-15 past an arc's start and was dropped, so the run read T = inf
    params = ModelParams(7.750855865968448, 0.028522974799058354, 0.19840934620783574)
    ctx = PulseContext(params, 0.999999 * params.beta_u, 1e-6 * params.tau)
    d = ctx.thresholds.delta2
    assert d == 9.958686877544608
    assert ctx.stats(d, simulated=True).T == 17.70955049436892
    assert ctx.stats(d).T == 17.709550494368923


def test_onset_on_a_zero_agrees_with_the_50_digit_formula():
    """On _UNDECIDED[1] one ulp of the onset moves T by about 1.8e-6. The FPFN
    formula evaluated at 50 digits from the same doubles is the reference;
    the simulated and the closed-form T both lie within that spread of it."""
    mpmath = pytest.importorskip("mpmath")
    params, f, g = _UNDECIDED[1]
    a, sigma = f * params.beta_u, g * params.tau
    ctx = PulseContext(params, a, sigma)
    d = 9.900265065770649
    assert ctx.case(d).code is CaseCode.FPFN

    def fpfn(delta):
        with mpmath.workdps(50):
            tau, bl, bu, am, sm, dm = map(mpmath.mpf, (params.tau, params.beta_l,
                                                       params.beta_u, a, sigma, delta))
            em = -mpmath.expm1(-tau)
            z1 = mpmath.log((bl + bu * em) / bl)
            z2 = z1 + tau + mpmath.log((bl * em + bu) / bu)
            period = z2 + tau
            return period + mpmath.log1p(
                -am * mpmath.expm1(sm) / bl * mpmath.exp(dm - z1 - period)
                - am * (bl + bu) * mpmath.exp(-z1) / (bl * (bu - am)) * mpmath.expm1(dm - z2))

    want = fpfn(d)
    assert mpmath.nstr(want, 20) == "10.154662374552153672"
    spread = max(abs(fpfn(math.nextafter(d, x)) - want) for x in (-math.inf, math.inf))
    assert 1.7e-6 < spread < 1.8e-6
    for got in (ctx.stats(d, simulated=True).T, float(ctx.response(d).T[0])):
        assert abs(got - want) <= spread, got
