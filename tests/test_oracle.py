import math

import numpy as np
import pytest

from relaydde import (ExpArc, History, MismatchedExperiment, ModelParams,
                      OraclePulse, PulseWindow, StepTooLarge, Trajectory, ValidationError,
                      compare, evolve, integrate_dense, periodic_solution)
from relaydde.oracle import _rk4_a

import _expected as exp


def test_step_validation(p1):
    with pytest.raises(StepTooLarge):
        integrate_dense(p1, lambda t: 1.0, 3.0, h=0.02)
    for h in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValidationError) as err:
            integrate_dense(p1, lambda t: 1.0, 3.0, h=h)
        assert err.value.clause == "oracle_step"
    for horizon in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValidationError) as err:
            integrate_dense(p1, lambda t: 1.0, horizon, h=1e-3)
        assert err.value.clause == "oracle_horizon"


def test_step_in_the_pulse_slot_is_a_typed_error(p1):
    # the step passed positionally lands in ``pulse``
    for pulse in (1e-4, PulseWindow(0.2, 1.0, 1.4)):
        with pytest.raises(ValidationError) as err:
            integrate_dense(p1, lambda t: 1.0, 3.0, pulse)
        assert err.value.clause == "oracle_pulse"


def test_first_zero_constant_history(p1):
    dense = integrate_dense(p1, lambda t: 1.0, 3.0, h=1e-4)
    assert dense.zeros.size >= 1
    assert abs(dense.zeros[0] - exp.CONST1_FIRST_ZERO) <= 1e-6
    assert dense.zero_dirs[0] == -1


def test_gas_upper_terminal_value():
    params = ModelParams(tau=1.0, beta_l=0.4, beta_u=-0.3)
    dense = integrate_dense(params, lambda t: 1.0, 20.0, h=1e-3)
    assert abs(dense.x[-1] - 0.3) <= 1e-6


def test_grid_covers_span(p1):
    dense = integrate_dense(p1, lambda t: 1.0, 2.5, h=1e-3)
    assert dense.t[0] == -1.0
    assert dense.t[-1] >= 2.5 - 1e-12
    assert np.allclose(np.diff(dense.t), dense.h)


def test_matches_engine_orbit_run(p1, orb1):
    hist = orb1.history_min_phase()
    dense = integrate_dense(p1, hist.value, 2 * orb1.period, h=1e-4)
    traj = evolve(p1, hist, float(dense.t[-1]))
    rep = compare(traj, dense)
    assert rep.max_abs_dev <= 1e-5
    assert rep.zero_counts_match
    assert rep.max_zero_dev <= 1e-6


def test_matches_engine_pulsed_run(p1, orb1):
    hist = orb1.history_min_phase()
    pulse = OraclePulse(0.2, 1.0, 1.4)
    dense = integrate_dense(p1, hist.value, 2 * orb1.period, pulse=pulse, h=1e-4)
    from relaydde import PulseWindow
    traj = evolve(p1, hist, float(dense.t[-1]), pulse=PulseWindow(0.2, 1.0, 1.4))
    rep = compare(traj, dense)
    assert rep.max_abs_dev <= 1e-5
    assert rep.zero_counts_match
    assert rep.max_zero_dev <= 1e-6


def test_order_of_accuracy(p1):
    """Halving the step at least halves the error away from events."""
    hist = History.constant(1.0, 1.0)
    horizon = 6.0
    traj = evolve(p1, hist, horizon + 1.0)
    events = [z.t for z in traj.zeros]
    events += [z + 1.0 for z in events]
    errs = []
    for h in (8e-3, 4e-3):
        dense = integrate_dense(p1, hist.value, horizon, h=h)
        keep = dense.t > 0
        for e in events:
            keep &= np.abs(dense.t - e) > 0.1
        dev = np.abs(traj.sample(dense.t[keep]) - dense.x[keep])
        errs.append(float(np.max(dev)))
    assert errs[0] >= 1.9 * errs[1] or errs[1] < 1e-12


def test_compare_detects_corruption(p1):
    hist = History.constant(1.0, 1.0)
    dense = integrate_dense(p1, hist.value, 3.0, h=1e-3)
    traj = evolve(p1, hist, float(dense.t[-1]))
    arcs = list(traj.arcs)
    bad = ExpArc(arcs[0].t_start, arcs[0].t_end, arcs[0].c + 0.01, arcs[0].k)
    tampered = Trajectory(params=traj.params, history=traj.history,
                          arcs=tuple([bad] + arcs[1:]), zeros=traj.zeros)
    rep = compare(tampered, dense)
    assert rep.max_abs_dev > 1e-3


def test_compare_mismatched_spans(p1):
    hist = History.constant(1.0, 1.0)
    dense = integrate_dense(p1, hist.value, 5.0, h=1e-3)
    short = evolve(p1, hist, 2.0)
    with pytest.raises(MismatchedExperiment):
        compare(short, dense)


def test_history_with_interior_zero(p1, orb1):
    # sign change inside the history must seed the right feedback switch
    hist = History((ExpArc(-1.0, 0.0, 1.0, -2.0),))
    dense = integrate_dense(p1, hist.value, orb1.period, h=1e-4)
    traj = evolve(p1, hist, float(dense.t[-1]))
    rep = compare(traj, dense)
    assert rep.max_abs_dev <= 1e-5
    assert rep.zero_counts_match


def test_step_snaps_to_delay(p1):
    dense = integrate_dense(p1, lambda t: 1.0, 1.0, h=9.7e-4)
    assert math.isclose(1.0 / dense.h, round(1.0 / dense.h), abs_tol=1e-9)


def test_relaxed_mode_comparison_reported():
    """Beyond the standing hypothesis the comparison still runs; zero counts
    are reported (near-tangencies may legitimately differ), deviations hold."""
    from relaydde import ModelParams, PulseWindow
    params = ModelParams(1.0, 0.3, 0.6)
    orb = periodic_solution(params)
    hist = orb.history_min_phase()
    for d in (2.15, 2.3):
        pulse = OraclePulse(0.95, d, d + 0.4)
        dense = integrate_dense(params, hist, d + 0.4 + 2 * orb.period,
                                pulse=pulse, h=1e-4)
        traj = evolve(params, hist, float(dense.t[-1]),
                      pulse=PulseWindow(0.95, d, d + 0.4))
        rep = compare(traj, dense)
        assert rep.max_abs_dev <= 1e-5
        assert isinstance(rep.zero_counts_match, bool)   # reported, not asserted


def test_affine_step_equals_rk4_stages():
    # the collapsed update A*x + (1-A)*F is the exact stage-form RK4 result
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = float(rng.normal())
        f = float(rng.normal())
        h = float(rng.uniform(1e-5, 1e-2))
        k1 = f - x
        k2 = f - (x + 0.5 * h * k1)
        k3 = f - (x + 0.5 * h * k2)
        k4 = f - (x + h * k3)
        staged = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        affine = f + (x - f) * _rk4_a(h)
        assert abs(staged - affine) <= 1e-14 * max(1.0, abs(staged))


def _rk4_stage_loop(params, hist, dense, pulse=None):
    """Literal stage-by-stage RK4 on the grid of ``dense``.

    Steps are split at the feedback switches (history crossings and
    ``dense.zeros``, one delay later) and at the pulse edges, so only the
    run-collapsed stepping of ``integrate_dense`` is under test.
    """
    tau, h, t = params.tau, dense.h, dense.t
    i0 = int(round(tau / h))
    xs = np.empty(t.size)
    xs[:i0 + 1] = [hist(s) for s in t[:i0 + 1]]
    switches = [z + tau for z in dense.zeros]
    for i in range(i0):
        x0, x1 = xs[i], xs[i + 1]
        if (x0 < 0) != (x1 < 0):
            switches.append(t[i] - x0 * (t[i + 1] - t[i]) / (x1 - x0) + tau)
    switches.sort()
    edges = [pulse.t_on, pulse.t_off] if pulse is not None else []
    cuts = sorted(switches + edges)

    def forcing(lo, hi):
        flips = sum(1 for s in switches if s <= lo + 1e-12)
        neg = (xs[0] < 0) != (flips % 2 == 1)
        f = params.beta_l if neg else -params.beta_u
        if pulse is not None and pulse.t_on <= 0.5 * (lo + hi) <= pulse.t_off:
            f += pulse.a
        return f

    def stage(x, f, dt):
        k1 = f - x
        k2 = f - (x + 0.5 * dt * k1)
        k3 = f - (x + 0.5 * dt * k2)
        k4 = f - (x + dt * k3)
        return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    eps = 1e-9 * h
    x, c = xs[i0], 0
    for j in range(i0, t.size - 1):
        t_cur, s_end = t[j], t[j + 1]
        while c < len(cuts) and cuts[c] <= s_end - eps:
            if cuts[c] - t_cur > eps:
                x = stage(x, forcing(t_cur, cuts[c]), cuts[c] - t_cur)
                t_cur = cuts[c]
            c += 1
        if s_end - t_cur > eps:
            x = stage(x, forcing(t_cur, s_end), s_end - t_cur)
        xs[j + 1] = x
    return xs


@pytest.mark.parametrize("pulse", [None, OraclePulse(0.2, 1.0, 1.4)],
                         ids=["plain", "pulsed"])
def test_run_collapse_matches_stage_loop(p1, orb1, pulse):
    hist = orb1.history_min_phase()
    horizon = 2 * orb1.period if pulse is None else orb1.period + 2.0
    h = 1e-4 if pulse is None else 2e-4
    dense = integrate_dense(p1, hist.value, horizon, pulse=pulse, h=h)
    ref = _rk4_stage_loop(p1, hist.value, dense, pulse)
    assert float(np.max(np.abs(ref - dense.x))) <= 1e-9
    ref_pos = ref[dense.t > 0]
    assert int(np.count_nonzero((ref_pos[:-1] < 0) != (ref_pos[1:] < 0))) == dense.zeros.size
