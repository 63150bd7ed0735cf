import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from relaydde import (DomainError, FeedbackTable, ModelParams, NoUndershoot, PulseSpec,
                      PulseWindow, RegimeError, ThreeLevelParams, evolve,
                      periodic_solution, response_closed_form, simulate_pulse,
                      three_level_pulse, undershoot_threshold)

import _expected as exp
from conftest import random_oscillatory

BASE5 = ModelParams(5.0, 0.4, 0.8)
P3 = ThreeLevelParams(BASE5, 2.0)


def test_checkpoint_values():
    res = three_level_pulse(P3, 0.6)
    assert math.isclose(res.x_at_z1_tau, exp.TL_X_Z1TAU, abs_tol=1e-14)
    assert math.isclose(res.x_at_tstar_tau, exp.TL_X_TSTAR_TAU, abs_tol=1e-14)
    assert math.isclose(res.x_at_z1_2tau, exp.TL_X_Z1_2TAU, abs_tol=1e-13)
    assert math.isclose(res.xmin_base, exp.TL_XMIN5, abs_tol=1e-14)
    assert res.undershoot and res.x_at_z1_2tau < res.xmin_base
    orb = periodic_solution(BASE5)
    assert math.isclose(math.exp(orb.z1 - res.t_star), exp.TL_Q, abs_tol=1e-14)
    assert orb.z1 < res.t_star < orb.z1 + 5.0


def test_invariants():
    with pytest.raises(DomainError):
        ThreeLevelParams(BASE5, 0.5)          # beta* must exceed beta_U
    with pytest.raises(RegimeError):
        ThreeLevelParams(ModelParams(1.0, 0.4, -0.3), 2.0)
    with pytest.raises(DomainError):
        three_level_pulse(P3, 0.0)


def test_engine_cross_check():
    traj, orb = simulate_pulse(P3, 0.6)
    res = three_level_pulse(P3, 0.6)
    tau = 5.0
    assert abs(traj.value(orb.z1 + tau) - res.x_at_z1_tau) <= 1e-10
    assert abs(traj.value(res.t_star + tau) - res.x_at_tstar_tau) <= 1e-10
    assert abs(traj.value(orb.z1 + 2 * tau) - res.x_at_z1_2tau) <= 1e-10
    assert abs(traj.value(res.t_star) - P3.xi) <= 1e-10


def test_engine_cross_check_random():
    rng = np.random.default_rng(59)
    done = 0
    while done < 12:
        base = random_oscillatory(rng)
        if base.tau < 0.5:
            continue
        p3 = ThreeLevelParams(base, base.beta_u * float(rng.uniform(1.1, 3.0)))
        a = float(rng.uniform(0.1, 1.0))
        res = three_level_pulse(p3, a)
        traj, orb = simulate_pulse(p3, a)
        tau = base.tau
        assert abs(traj.value(orb.z1 + tau) - res.x_at_z1_tau) <= 1e-10
        assert abs(traj.value(res.t_star + tau) - res.x_at_tstar_tau) <= 1e-10
        assert abs(traj.value(orb.z1 + 2 * tau) - res.x_at_z1_2tau) <= 1e-10
        done += 1


def test_large_tau_limits():
    p3 = ThreeLevelParams(ModelParams(50.0, 0.4, 0.8), 2.0)
    a = 0.6
    res = three_level_pulse(p3, a)
    assert abs(res.x_at_z1_tau - (0.4 + a)) <= 1e-10
    orb = periodic_solution(p3.base)
    assert abs(math.exp(orb.z1 - res.t_star) - a / (a + 0.4)) <= 1e-10
    assert abs(res.x_at_z1_2tau - (-2.0)) <= 1e-10


def test_zero_amplitude_limit():
    res = three_level_pulse(P3, 1e-14)
    orb = periodic_solution(BASE5)
    assert abs(res.x_at_z1_tau - orb.x_max) <= 1e-12
    # with a vanishing pulse the three-level run stays on the orbit: the
    # grazing contact with the upper threshold schedules no switch
    traj, _ = simulate_pulse(P3, 1e-14, horizon=2 * orb.period)
    ts = np.linspace(0.0, 2 * orb.period, 800)
    assert float(np.max(np.abs(traj.sample(ts) - orb.sample(ts)))) <= 1e-10


def test_unpulsed_three_level_keeps_orbit():
    orb = periodic_solution(BASE5)
    traj = evolve(BASE5, orb.history_min_phase(), 2.5 * orb.period,
                  feedback=P3.feedback())
    ts = np.linspace(0.0, 2.5 * orb.period, 1000)
    assert float(np.max(np.abs(traj.sample(ts) - orb.sample(ts)))) <= 1e-12


def test_degenerate_third_level_equals_two_level():
    # equal suppression levels collapse to the two-level system
    base = ModelParams(1.0, 0.4, 0.8)
    orb = periodic_solution(base)
    fb = FeedbackTable((0.0, orb.x_max), (0.4, -0.8, -0.8))
    pulse = PulseWindow(0.6, orb.z1, orb.z1 + 1.0)
    horizon = orb.z1 + 1.0 + 3 * orb.period
    three = evolve(base, orb.history_min_phase(), horizon, pulse=pulse, feedback=fb)
    two = evolve(base, orb.history_min_phase(), horizon, pulse=pulse)
    ts = np.linspace(0.0, horizon, 1200)
    assert float(np.max(np.abs(three.sample(ts) - two.sample(ts)))) <= 1e-12
    # the two-level pulse at onset z1 with sigma = tau sits in RPRP: min unchanged
    stats = response_closed_form(base, PulseSpec(0.6, orb.z1, 1.0))
    assert stats.case.code.value == "RPRP"
    assert stats.x_min == orb.x_min
    lo = orb.z1
    hi = min(lo + stats.T + 1.0, three.horizon)
    assert three.breakpoint_extrema(lo, hi)[0] >= orb.x_min - 1e-12


def test_tau0_bisection():
    tau0 = undershoot_threshold(P3, 0.6)
    assert math.isclose(tau0, exp.TL_TAU0_BSTAR2, rel_tol=1e-13)
    for d, want in ((-0.01, False), (+0.01, True)):
        trial = ThreeLevelParams(ModelParams(tau0 + d, 0.4, 0.8), 2.0)
        assert three_level_pulse(trial, 0.6).undershoot == want


def test_tau0_brackets_verified_by_simulation():
    tau0 = undershoot_threshold(P3, 0.6)
    for d, want in ((-0.01, False), (+0.01, True)):
        tau = tau0 + d
        trial = ThreeLevelParams(ModelParams(tau, 0.4, 0.8), 2.0)
        traj, orb = simulate_pulse(trial, 0.6)
        x_check = traj.value(orb.z1 + 2 * tau)
        assert (x_check < orb.x_min) == want


def test_undershoot_persists_beyond_tau0():
    tau0 = undershoot_threshold(P3, 0.6)
    for tau in np.linspace(tau0 + 1e-4, 4 * tau0, 16):
        trial = ThreeLevelParams(ModelParams(float(tau), 0.4, 0.8), 2.0)
        assert three_level_pulse(trial, 0.6).undershoot


def test_tau0_monotone_in_beta_star():
    t09 = undershoot_threshold(ThreeLevelParams(BASE5, 0.9), 0.6)
    t10 = undershoot_threshold(ThreeLevelParams(BASE5, 1.0), 0.6)
    t20 = undershoot_threshold(ThreeLevelParams(BASE5, 2.0), 0.6)
    assert math.isclose(t09, exp.TL_TAU0_BSTAR09, rel_tol=1e-13)
    assert math.isclose(t10, exp.TL_TAU0_BSTAR1, rel_tol=1e-13)
    assert t09 > t10 > t20   # weaker suppression needs a longer delay



def _decimal_gap(bl, bu, bs, a, tau):
    """x(z1 + 2 tau) - x_min from the module docstring's checkpoints, in
    45-digit decimal; x_min = -beta_U (1 - e^-tau) is the orbit minimum."""
    bl, bu, bs, a = (Decimal(v) for v in (bl, bu, bs, a))
    E = (-tau).exp()
    x_top = (bl + a) * (1 - E)
    q = (a + bl * E) / (a + bl)
    x_mid = -bu + (x_top + bu) * q
    x_deep = -bs + (x_mid + bs) * E / q
    return x_deep + bu * (1 - E)


def _decimal_tau0(bl, bu, bs, a):
    """Bisect the decimal gap from positive (short tau) to negative."""
    with localcontext() as ctx:
        ctx.prec = 45
        lo = hi = Decimal(1)
        while _decimal_gap(bl, bu, bs, a, lo) <= 0:
            lo /= 2
        while _decimal_gap(bl, bu, bs, a, hi) >= 0:
            hi *= 2
        while hi - lo > hi * Decimal("1e-30"):
            mid = (lo + hi) / 2
            if _decimal_gap(bl, bu, bs, a, mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def test_tau0_matches_decimal_bisection():
    rng = np.random.default_rng(83)
    # (base, a, fraction of the span): wide amplitudes make B^2 >> 4AC,
    # where -B + sqrt(B^2 + 4AC) cancels; the last setup is the extreme one
    setups = [(random_oscillatory(rng),
               float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3)))),
               float(rng.uniform(0.05, 0.95))) for _ in range(60)]
    setups.append((ModelParams(1.0, 0.1, 0.5), 1e4, 0.05))
    for base, a, frac in setups:
        span = (base.beta_l + a) ** 2 / a          # undershoot needs beta* - beta_U < span
        bs = base.beta_u + frac * span
        tau0 = undershoot_threshold(ThreeLevelParams(base, bs), a)
        want = _decimal_tau0(base.beta_l, base.beta_u, bs, a)
        assert math.isclose(tau0, want, rel_tol=1e-13), (base, bs, a)


def test_tau0_below_the_old_search_bracket():
    # close to the boundary the threshold is short; the closed form still
    # returns it. tau0 is proportional to the distance of beta* from the
    # boundary here, so one ulp of beta* moves it by about 3e-13 relative
    a = 0.6
    bs = 0.8 + 0.999 * (0.4 + a) ** 2 / a
    tau0 = undershoot_threshold(ThreeLevelParams(BASE5, bs), a)
    assert 0 < tau0 < 1e-3
    assert math.isclose(tau0, _decimal_tau0(0.4, 0.8, bs, a), rel_tol=1e-12)


def test_no_undershoot_beyond_the_boundary():
    a = 0.6
    edge = 0.8 + (0.4 + a) ** 2 / a                # h(1) = 0: beta* - beta_U = span
    with pytest.raises(NoUndershoot):
        undershoot_threshold(ThreeLevelParams(BASE5, 1.01 * edge), a)
    bs = edge
    for _ in range(10):
        bs = math.nextafter(bs, math.inf)
    outcomes = set()
    for _ in range(20):
        try:
            assert undershoot_threshold(ThreeLevelParams(BASE5, bs), a) > 0
            outcomes.add("tau0")
        except NoUndershoot:
            outcomes.add("none")
        bs = math.nextafter(bs, 0.0)
    assert outcomes == {"tau0", "none"}            # the walk crosses the boundary


def test_full_simulation_minimum_below_base():
    tau0 = undershoot_threshold(P3, 0.6)
    tau = tau0 + 1.0
    trial = ThreeLevelParams(ModelParams(tau, 0.4, 0.8), 2.0)
    traj, orb = simulate_pulse(trial, 0.6, horizon=orb_horizon(trial, tau))
    lo, hi = traj.breakpoint_extrema(0.0, traj.horizon)
    assert lo < orb.x_min


def orb_horizon(p3, tau):
    orb = periodic_solution(p3.base)
    return orb.z1 + 2 * tau + orb.period


def test_non_finite_beta_star_rejected():
    for beta_star in (math.inf, math.nan):
        with pytest.raises(DomainError):
            ThreeLevelParams(BASE5, beta_star)


def test_entry_points_reuse_the_stored_orbit(monkeypatch):
    import relaydde
    from conftest import count_calls
    p3 = ThreeLevelParams(BASE5, 2.0)
    calls = {"periodic_solution": 0, "regime": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    count_calls(monkeypatch, relaydde.params, "regime", calls)
    assert [p3.xi for _ in range(3)] == [P3.xi] * 3
    three_level_pulse(p3, 0.6)
    simulate_pulse(p3, 0.6)
    p3.feedback()
    assert calls == {"periodic_solution": 0, "regime": 0}


def test_non_finite_amplitude_rejected():
    # a = inf once gave NaN checkpoints and a NoUndershoot with tau0 = nan
    for a in (math.inf, math.nan):
        for fn in (three_level_pulse, undershoot_threshold):
            with pytest.raises(DomainError):
                fn(P3, a)
