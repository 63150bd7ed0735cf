import math

import numpy as np
import pytest

from relaydde import (ExpArc, History, HorizonExhausted, MergePhase, ModelParams, PulseSpec,
                      RegimeError, ValidationError, evolve, merge_time, periodic_solution,
                      pulsed_trajectory)

from _chains import chains_equal
import _expected as exp
from conftest import random_oscillatory, random_z0_history


def test_p1_closed_form_values(orb1):
    assert math.isclose(orb1.x_min, exp.P1_XMIN, abs_tol=1e-15)
    assert math.isclose(orb1.x_max, exp.P1_XMAX, abs_tol=1e-15)
    assert math.isclose(orb1.z1, exp.P1_Z1, abs_tol=1e-14)
    assert math.isclose(orb1.z2, exp.P1_Z2, abs_tol=1e-14)
    assert math.isclose(orb1.period, exp.P1_T, abs_tol=1e-14)
    assert math.isclose(orb1.t_max, exp.P1_TMAX, abs_tol=1e-14)


def test_p2_closed_form_values(orb2):
    assert math.isclose(orb2.x_min, exp.P2_XMIN, abs_tol=1e-15)
    assert math.isclose(orb2.x_max, exp.P2_XMAX, abs_tol=1e-15)
    assert math.isclose(orb2.z1, exp.P2_Z1, abs_tol=1e-14)
    assert math.isclose(orb2.z2, exp.P2_Z2, abs_tol=1e-14)
    assert math.isclose(orb2.period, exp.P2_T, abs_tol=1e-14)


def test_zero_identity(orb1, orb2):
    # beta_L e^{z1} + beta_U e^{z2} = (beta_L + beta_U) e^{tau + z1}
    rng = np.random.default_rng(5)
    orbits = [orb1, orb2] + [periodic_solution(random_oscillatory(rng))
                             for _ in range(20)]
    for orb in orbits:
        p = orb.params
        lhs = p.beta_l * math.exp(orb.z1) + p.beta_u * math.exp(orb.z2)
        rhs = (p.beta_l + p.beta_u) * math.exp(p.tau + orb.z1)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_periodicity(p1, orb1):
    traj = evolve(p1, orb1.history_min_phase(), 3 * orb1.period)
    ts = np.linspace(0.0, 2 * orb1.period, 1000)
    dev = np.abs(traj.sample(ts) - traj.sample(ts + orb1.period))
    assert float(np.max(dev)) <= 1e-12


def test_extremum_placement(orb1):
    ts = np.linspace(-orb1.params.tau, orb1.period, 20001)
    xs = orb1.sample(ts)
    grid = ts[1] - ts[0]
    assert abs(ts[np.argmax(xs)] - orb1.t_max) <= grid
    t_min = ts[np.argmin(xs)]
    assert min(abs(t_min - 0.0), abs(t_min - orb1.period)) <= grid
    # the extrema are corners, so sampled values miss by at most grid * slope
    assert math.isclose(float(np.max(xs)), orb1.x_max, abs_tol=2 * grid)
    assert math.isclose(float(np.min(xs)), orb1.x_min, abs_tol=2 * grid)
    assert float(np.max(xs)) <= orb1.x_max + 1e-12
    assert float(np.min(xs)) >= orb1.x_min - 1e-12


def test_sample_agrees_with_value(p1, p2):
    rng = np.random.default_rng(17)
    for params in [p1, p2] + [random_oscillatory(rng) for _ in range(10)]:
        orb = periodic_solution(params)
        T = orb.period
        ends = [arc.t_start for arc in orb.arcs] + [orb.arcs[-1].t_end]
        ts = [x for n in range(-5, 6) for e in ends for t in (e + n * T,)
              for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
        ts += rng.uniform(-5 * T, 5 * T, 10_000).tolist()
        want = np.array([orb.value(t) for t in ts])
        got = orb.sample(np.array(ts))
        assert (np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))).all()


def test_symmetric_levels_mirror():
    params = ModelParams(tau=1.3, beta_l=0.7, beta_u=0.7)
    orb = periodic_solution(params)
    assert math.isclose(orb.x_max, -orb.x_min, abs_tol=1e-15)
    assert math.isclose(orb.z2, 2 * orb.z1 + params.tau, abs_tol=1e-12)
    # the falling half-wave is the mirrored rising one
    for s in np.linspace(0.0, orb.z1 + params.tau, 200):
        assert abs(orb.value(orb.t_max + s) + orb.value(s)) <= 1e-12


def test_regime_error():
    with pytest.raises(RegimeError):
        periodic_solution(ModelParams(tau=1.0, beta_l=0.4, beta_u=-0.3))


def test_merge_constant_history(p1, orb1):
    traj = evolve(p1, History.constant(1.0, 1.0), 4 * orb1.period)
    info = merge_time(traj, orb1)
    assert info is not None
    assert math.isclose(info.zero, exp.CONST1_FIRST_ZERO, abs_tol=1e-12)
    assert info.phase is MergePhase.MIN
    # decreasing through the whole delay interval after the merge zero
    ts = np.linspace(info.zero, info.zero + 1.0, 50)
    xs = traj.sample(ts)
    assert np.all(np.diff(xs) < 0)


def test_merge_orbit_start_immediate(p1, orb1):
    traj = evolve(p1, orb1.history_min_phase(), 3 * orb1.period)
    info = merge_time(traj, orb1)
    assert info is not None
    assert math.isclose(info.zero, orb1.z1, abs_tol=1e-12)
    assert info.phase is MergePhase.MAX


def test_merge_universality(p1, orb1):
    rng = np.random.default_rng(23)
    horizon = orb1.period * 2 + 2 * p1.tau + orb1.period
    for _ in range(100):
        hist = random_z0_history(rng, p1.tau)
        traj = evolve(p1, hist, horizon)
        info = merge_time(traj, orb1)
        assert info is not None
        z1_phi = traj.zeros[0].t
        assert info.zero <= z1_phi + p1.tau + 1e-12
        want = MergePhase.MAX if traj.zeros[0].up else MergePhase.MIN
        assert info.phase is want


def test_merge_horizon_exhausted(p1, orb1):
    # the first zero has no zero before it, so it is the merge as soon as the
    # run books it; a run that ends before it cannot decide
    info = merge_time(evolve(p1, History.constant(1.0, 1.0), 1.5), orb1)
    assert info is not None and info.zero == exp.CONST1_FIRST_ZERO
    traj = evolve(p1, History.constant(1.0, 1.0), exp.CONST1_FIRST_ZERO - 0.1)
    assert not traj.zeros
    with pytest.raises(HorizonExhausted):
        merge_time(traj, orb1)


def test_merge_rejects_a_non_finite_t_free_and_a_foreign_orbit(p1, p2, orb1, orb2):
    # t_free = inf or nan once compared every zero against nan and returned
    # the first zero, 0.81 here
    traj = evolve(p1, History.constant(1.0, 1.0), 4 * orb1.period)
    for t_free in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError) as err:
            merge_time(traj, orb1, t_free=t_free)
        assert err.value.clause == "merge_t_free", t_free
    with pytest.raises(ValidationError) as err:
        merge_time(traj, orb2)
    assert err.value.clause == "merge_params"


def test_merge_random_params():
    rng = np.random.default_rng(41)
    for _ in range(10):
        params = random_oscillatory(rng)
        orb = periodic_solution(params)
        hist = random_z0_history(rng, params.tau)
        traj = evolve(params, hist, 2 * orb.period + 2 * params.tau + orb.period)
        info = merge_time(traj, orb)
        assert info is not None
        assert info.zero <= traj.zeros[0].t + params.tau + 1e-12


def test_value_takes_the_earlier_arc_at_every_arc_end(p1, p2):
    rng = np.random.default_rng(29)
    differs = 0
    for params in [p1, p2] + [random_oscillatory(rng) for _ in range(10)]:
        orb = periodic_solution(params)
        tau, T = params.tau, orb.period
        for arc, nxt in zip(orb.arcs, orb.arcs[1:]):
            t = arc.t_end
            if math.fmod(t + tau, T) - tau != t:    # value would read a shifted time
                continue
            assert orb.value(t).hex() == arc.value(t).hex(), (params, t)
            differs += nxt.value(t) != arc.value(t)
    # the later arc gives other bits at some breakpoints, so a switch to it shows
    assert differs


def test_value_at_extreme_times_and_a_non_finite_time(orb1, orb2):
    for orb in (orb1, orb2):
        # every finite time reduces onto an arc, so no fall-back arc is needed
        for t in (1e300, -1e300, 5e-324, -5e-324, *(a.t_end for a in orb.arcs)):
            for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)):
                assert orb.x_min - 1e-12 <= orb.value(x) <= orb.x_max + 1e-12, x
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError) as err:
                orb.value(t)
            assert err.value.clause == "orbit_time_finite", t


def _chain_merge(traj, orb, t_free):
    """The merge by the chain check alone: the first zero z >= t_free after
    which the run equals the orbit's arcs, translated to z, on [z, z + 2 tau]
    within 1e-10 in (c, k) data."""
    tau = orb.params.tau
    chain = [*traj.history.arcs, *traj.arcs]
    for zero in traj.zeros:
        if zero.t < t_free - 1e-13 * max(1.0, t_free):
            continue
        assert zero.t + 2 * tau <= traj.horizon
        shift = zero.t - (orb.z1 if zero.up else -tau)
        orbit_arcs = [ExpArc(a.t_start + shift, a.t_end + shift, a.c, a.k) for a in orb.arcs]
        if chains_equal(chain, orbit_arcs, zero.t, zero.t + 2 * tau, tol=1e-10):
            return zero
    return None


def test_merge_zero_is_the_chain_check_merge(p1, p2):
    """The zero-gap rule picks the zero the chain check picks, and the run
    equals the orbit's two arcs after it: on the p1 and p2 maps and on
    log-uniform sets at a <= beta_U/2."""
    rng = np.random.default_rng(53)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    setups = [(params, 0.2, 0.4, 128) for params in (p1, p2)]
    for _ in range(20):
        params = ModelParams(*np.exp(rng.uniform(lo, hi)).tolist())
        setups += [(params, fa * params.beta_u, fs * params.tau, 8)
                   for fs in (1e-6, 0.5, 1.0) for fa in (1e-6, 0.5)]
    runs = 0
    for params, a, sigma, n in setups:
        orb = periodic_solution(params)
        for delta in (orb.period * np.arange(n) / n).tolist():
            traj, _ = pulsed_trajectory(params, PulseSpec(a, delta, sigma))
            info = merge_time(traj, orb, t_free=delta + sigma)
            want = _chain_merge(traj, orb, delta + sigma)
            assert info is not None and want is not None, (params, a, sigma, delta)
            assert info.zero == want.t, (params, a, sigma, delta)
            assert info.phase is (MergePhase.MAX if want.up else MergePhase.MIN)
            runs += 1
    assert runs == 2 * 128 + 20 * 6 * 8
