import math

import numpy as np
import pytest

from relaydde import (DomainError, ExpArc, History, ModelParams, PlanInfeasible,
                      TherapyInput, apply_plan, evolve, periodic_solution, plan,
                      predict_t_d)

from _chains import chains_equal
import _expected as exp
from conftest import random_oscillatory

SIGMA, X_D = 0.05, -0.45


@pytest.fixture
def inp(p1, orb1):
    return TherapyInput(params=p1, sigma=SIGMA, x_d=X_D,
                        history=orb1.history_pre_max())


def test_predict_example(p1, orb1):
    z1, t_d = predict_t_d(p1, orb1.x_max, X_D)
    assert math.isclose(z1, exp.TH_Z1, abs_tol=1e-14)
    assert math.isclose(t_d, exp.TH_TD, abs_tol=1e-14)
    assert z1 < t_d < z1 + p1.tau
    # the untreated run crosses x_d exactly at t_d
    traj = evolve(p1, periodic_solution(p1).history_pre_max(), 3.0)
    assert math.isclose(traj.value(t_d), X_D, abs_tol=1e-12)


def test_predict_limits(p1, orb1):
    z1, _ = predict_t_d(p1, 1e-12, X_D)
    assert abs(z1) < 1e-11                                  # crossing now
    _, t_d = predict_t_d(p1, orb1.x_max, orb1.x_min * (1 - 1e-11))
    z1 = predict_t_d(p1, orb1.x_max, X_D)[0]
    assert math.isclose(t_d, z1 + p1.tau, abs_tol=1e-7)     # nadir crossing


def test_predict_domain_errors(p1, orb1):
    with pytest.raises(DomainError):
        predict_t_d(p1, -0.1, X_D)
    with pytest.raises(DomainError):
        predict_t_d(p1, orb1.x_max, 0.1)
    with pytest.raises(DomainError):
        predict_t_d(p1, orb1.x_max, orb1.x_min - 0.1)


def test_plan_example(inp, orb1):
    tp = plan(inp)
    assert math.isclose(tp.t_m, exp.TH_TM, abs_tol=1e-13)
    assert math.isclose(tp.a_d, exp.TH_AD, abs_tol=1e-12)
    assert tp.checks.t_m_positive and tp.checks.sigma_window
    assert tp.checks.x_d_negative and tp.checks.amplitude
    assert tp.feasible
    assert math.isclose(X_D + tp.a_d * -math.expm1(-SIGMA), exp.TH_XDNEG, abs_tol=1e-12)
    assert exp.TH_AD_LHS < -inp.params.beta_u * X_D        # the amplitude check
    assert math.isclose(tp.predicted_period, exp.TH_PERIOD, abs_tol=1e-12)
    assert tp.predicted_period < orb1.period


def test_plan_too_late_is_infeasible(p1, orb1):
    # sigma = t_d - tau makes the medication time nonpositive
    _, t_d = predict_t_d(p1, orb1.x_max, X_D)
    inp = TherapyInput(params=p1, sigma=t_d - p1.tau, x_d=X_D,
                       history=orb1.history_pre_max())
    tp = plan(inp)
    assert not tp.checks.t_m_positive
    assert not tp.feasible
    with pytest.raises(PlanInfeasible):
        apply_plan(inp, tp)


def test_plan_xd_near_zero_violates_amplitude(p1, orb1):
    inp = TherapyInput(params=p1, sigma=SIGMA, x_d=-0.05,
                       history=orb1.history_pre_max())
    tp = plan(inp)
    assert not tp.checks.amplitude
    assert not tp.feasible


def test_apply_plan_achieves_min(inp, orb1):
    tp = plan(inp)
    out = apply_plan(inp, tp)
    assert abs(out.achieved_min - X_D) <= 1e-9
    assert out.cycle_min >= X_D - 1e-9
    assert out.achieved_period < orb1.period
    assert math.isclose(out.achieved_period, tp.predicted_period, abs_tol=1e-9)


def test_apply_plan_periodic_for_canonical_history(inp, p1):
    tp = plan(inp)
    out = apply_plan(inp, tp)
    seg = out.trajectory.segment_at(out.achieved_period)
    assert chains_equal(seg.arcs, inp.history.arcs, -p1.tau, 0.0, tol=1e-10)


def test_apply_plan_underdose(inp):
    tp = plan(inp)
    out = apply_plan(inp, tp, amplitude=tp.a_d / 2)
    assert out.achieved_min < X_D


def test_apply_plan_zero_amplitude(inp, orb1):
    tp = plan(inp)
    out = apply_plan(inp, tp, amplitude=0.0)
    assert math.isclose(out.achieved_min, orb1.x_min, abs_tol=1e-12)
    assert math.isclose(out.achieved_period, orb1.period, abs_tol=1e-10)


def test_apply_plan_rejects_a_negative_or_non_finite_amplitude(inp):
    tp = plan(inp)
    for amplitude in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            apply_plan(inp, tp, amplitude=amplitude)


def test_amplitude_uniqueness(inp, orb1, p1):
    tp = plan(inp)
    out = apply_plan(inp, tp)
    gain = -math.expm1(-SIGMA) * math.exp(-(tp.z1 + p1.tau - tp.t_d))
    a_rec = (out.achieved_min - orb1.x_min) / gain
    assert abs(a_rec - tp.a_d) <= 1e-10


def test_treated_dominates_untreated(inp, p1):
    tp = plan(inp)
    treated = apply_plan(inp, tp).trajectory
    untreated = evolve(p1, inp.history, treated.horizon)
    ts = np.linspace(tp.t_d - SIGMA, tp.t_d, 64)
    lift = treated.sample(ts) - untreated.sample(ts)
    want = tp.a_d * -np.expm1(-(ts - (tp.t_d - SIGMA)))
    assert float(np.max(np.abs(lift - want))) <= 1e-12
    assert np.all(lift >= -1e-15)


def test_sufficient_condition_for_timeliness():
    # when tau < ln((q xmax + beta_U)/(xmin + beta_U)), medication for x_d
    # near the minimum with small sigma is never too late
    rng = np.random.default_rng(43)
    found = 0
    while found < 25:
        params = random_oscillatory(rng)
        orb = periodic_solution(params)
        q = 0.9
        bound = math.log((q * orb.x_max + params.beta_u)
                         / (orb.x_min + params.beta_u))
        if params.tau >= bound:
            continue
        found += 1
        x_d = orb.x_min + 1e-3 * (0 - orb.x_min)
        inp = TherapyInput(params=params, sigma=1e-3 * params.tau, x_d=x_d,
                           history=History.constant(q * orb.x_max, params.tau))
        assert plan(inp).checks.t_m_positive


def test_history_must_be_positive(p1):
    with pytest.raises(DomainError):
        TherapyInput(params=p1, sigma=SIGMA, x_d=X_D,
                     history=History.constant(-1.0, p1.tau))


def test_needs_oscillatory_regime():
    from relaydde import RegimeError
    gas = ModelParams(1.0, 0.4, -0.3)
    with pytest.raises(RegimeError):
        TherapyInput(params=gas, sigma=SIGMA, x_d=-0.1,
                     history=History.constant(1.0, 1.0))


def test_history_dip_between_samples_is_rejected(p1):
    # negative only on about (-0.99005, -0.98995), between any two of 64
    # evenly spaced samples of (-tau, 0]
    fall = ExpArc(-1.0, -0.99, -100.0, 101.0)
    dip = History((fall, ExpArc(-0.99, 0.0, 100.0, fall.end_value - 100.0)))
    zs = dip.zeros()
    assert len(zs) == 2 and -0.99006 < zs[0] < -0.99 < zs[1] < -0.98994
    assert dip.value(0.0) > 0
    with pytest.raises(DomainError):
        TherapyInput(params=p1, sigma=SIGMA, x_d=X_D, history=dip)


def test_plan_and_apply_reuse_the_input_orbit(inp, monkeypatch):
    import relaydde
    from conftest import count_calls
    calls = {"periodic_solution": 0, "regime": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    count_calls(monkeypatch, relaydde.params, "regime", calls)
    therapy = plan(inp)
    assert therapy.feasible
    apply_plan(inp, therapy)
    apply_plan(inp, therapy, amplitude=0.5 * therapy.a_d)
    assert calls == {"periodic_solution": 0, "regime": 0}
