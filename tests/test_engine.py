import json
import math

import numpy as np
import pytest

from relaydde import (ExpArc, History, ModelParams, ValidationError, compare,
                      equilibrium, evolve, integrate_dense)

from _chains import chains_equal
from _expected import CONST1_FIRST_ZERO


def test_constant_history_first_arc(p1):
    traj = evolve(p1, History.constant(1.0, 1.0), 3.0)
    first = traj.arcs[0]
    assert first.t_start == 0.0
    assert first.c == -0.8 and first.k == 1.8
    assert math.isclose(first.t_end, CONST1_FIRST_ZERO + 1.0, abs_tol=1e-12)
    zs = list(traj.zeros)
    assert math.isclose(zs[0].t, CONST1_FIRST_ZERO, abs_tol=1e-12)
    assert not zs[0].up


def test_evolve_matches_oracle_at_random_times(p1):
    rng = np.random.default_rng(7)
    hist = History.constant(1.0, 1.0)
    traj = evolve(p1, hist, 9.0)
    dense = integrate_dense(p1, hist.value, 9.0, h=1e-4)
    ts = np.sort(rng.uniform(0.0, 9.0, size=100))
    exact = traj.sample(ts)
    approx = np.interp(ts, dense.t, dense.x)
    assert float(np.max(np.abs(exact - approx))) < 1e-5


def test_orbit_history_is_fixed_point(p1, orb1):
    traj = evolve(p1, orb1.history_min_phase(), 2.5 * orb1.period)
    ts = np.linspace(0.0, traj.horizon, 1500)
    dev = np.abs(traj.sample(ts) - orb1.sample(ts))
    assert float(np.max(dev)) <= 1e-12


def test_gas_upper_contraction():
    params = ModelParams(tau=1.0, beta_l=0.4, beta_u=-0.3)
    eq = equilibrium(params)
    assert eq == 0.3
    for x0 in (0.05, 1.0, 7.0):
        traj = evolve(params, History.constant(x0, 1.0), 12.0)
        # monotone approach, never crossing the equilibrium
        assert abs(traj.value(12.0) - eq) <= math.exp(-12.0) * abs(x0 - eq) + 1e-15
        assert list(traj.zeros) == []


def test_gas_lower_convergence():
    params = ModelParams(tau=2.0, beta_l=-0.1, beta_u=0.5)
    traj = evolve(params, History.constant(1.0, 2.0), 40.0)
    assert abs(traj.value(40.0) - (-0.1)) < 1e-6
    assert len(list(traj.zeros)) <= 2   # transient zeros only


def test_zero_transversality(p1):
    traj = evolve(p1, History.constant(1.0, 1.0), 12.0)
    for z in traj.zeros:
        assert abs(traj.value(z.t)) <= 1e-12
        arc = next(a for a in traj.arcs if a.t_start <= z.t <= a.t_end)
        assert arc.c != 0.0
        eps = 1e-6
        assert traj.value(z.t - eps) * traj.value(z.t + eps) < 0


def test_zero_spacing_z0(p1, orb1):
    from conftest import random_z0_history
    rng = np.random.default_rng(11)
    for _ in range(200):
        hist = random_z0_history(rng, p1.tau)
        traj = evolve(p1, hist, 2.0 * orb1.period + 2.0)
        zs = [z.t for z in traj.zeros]
        for a, b in zip(zs, zs[1:]):
            assert b - a > p1.tau - 1e-12


def _shift_arcs(arcs, dt):
    return [ExpArc(a.t_start + dt, a.t_end + dt, a.c, a.k) for a in arcs]


def test_semigroup_property(p1):
    from conftest import random_z0_history
    rng = np.random.default_rng(3)
    for _ in range(20):
        hist = random_z0_history(rng, p1.tau)
        t1 = float(rng.uniform(1.1, 3.0))
        t2 = float(rng.uniform(1.1, 3.0))
        full = evolve(p1, hist, t1 + t2)
        restart = evolve(p1, full.segment_at(t1), t2)
        shifted = _shift_arcs(restart.arcs, t1)
        assert chains_equal(full.arcs, shifted, t1, t1 + t2, tol=1e-12)


def test_numerical_continuity(p1, orb1):
    eps = 1e-6
    hist = History.constant(1.0, 1.0)
    bumped = History.constant(1.0 + eps, 1.0)
    t_end = orb1.period
    a = evolve(p1, hist, t_end)
    b = evolve(p1, bumped, t_end)
    ts = np.linspace(0.0, t_end, 400)
    dev = float(np.max(np.abs(a.sample(ts) - b.sample(ts))))
    assert dev <= 200 * eps


def test_pulse_window_splits_arcs(p1):
    from relaydde import PulseWindow
    traj = evolve(p1, History.constant(1.0, 1.0), 3.0,
                  pulse=PulseWindow(0.2, 0.5, 0.9))
    bounds = {round(a.t_start, 12) for a in traj.arcs}
    assert 0.5 in bounds and 0.9 in bounds
    # inside the window the asymptote carries the +a offset
    inside = next(a for a in traj.arcs if a.t_start == 0.5)
    assert inside.c == -0.8 + 0.2


def test_segment_at_roundtrip(p1):
    traj = evolve(p1, History.constant(1.0, 1.0), 5.0)
    seg = traj.segment_at(2.0)
    assert math.isclose(seg.tau, 1.0, abs_tol=1e-12)
    for s in np.linspace(-1.0, 0.0, 50):
        assert math.isclose(seg.value(s), traj.value(2.0 + s), abs_tol=1e-12)


def test_arcs_json_roundtrip(p1):
    traj = evolve(p1, History.constant(1.0, 1.0), 4.0)
    arcs = tuple(ExpArc(**d) for d in json.loads(traj.arcs_json()))
    assert arcs == traj.arcs


def test_identically_zero_arc_raises_typed(p1):
    # the history falls to exactly 0 at t = 0 while the active level is 0,
    # so the first arc is x = 0: no crossing time exists
    from relaydde import FeedbackTable, NonTransversalArc
    hist = History((ExpArc(-1.0, 0.0, -math.exp(-1.0), 1.0),))
    assert hist.value(0.0) == 0.0
    with pytest.raises(NonTransversalArc):
        evolve(p1, hist, 5.0, feedback=FeedbackTable((0.0,), (0.4, 0.0)))


def test_crossings_alternate_per_threshold():
    """A threshold is crossed once per change of side: its booked crossings
    alternate up and down, on random two-level and three-level runs and on a
    pulse whose onset lies within 1e-15 of an orbit zero (once booked twice)."""
    from relaydde import PulseSpec, ThreeLevelParams, periodic_solution, pulsed_trajectory, \
        simulate_pulse
    from relaydde.engine import PulseWindow
    from conftest import random_oscillatory, random_z0_history
    rng = np.random.default_rng(59)
    runs = []
    for i in range(40):
        params = random_oscillatory(rng)
        pulse = None
        if i % 2:
            t_on = float(rng.uniform(0.0, 3 * params.tau))
            pulse = PulseWindow(float(rng.uniform(0.05, 1.5)) * params.beta_u, t_on,
                                t_on + float(rng.uniform(0.05, 1.0)) * params.tau)
        horizon = 3 * periodic_solution(params).period
        runs.append(evolve(params, random_z0_history(rng, params.tau), horizon, pulse))
    for _ in range(10):
        base = random_oscillatory(rng)
        p = ThreeLevelParams(base, float(rng.uniform(1.1, 4.0)) * base.beta_u)
        runs.append(simulate_pulse(p, float(rng.uniform(0.05, 2.0)) * base.beta_l)[0])
    params = ModelParams(0.2544, 50.44, 7.33e-4)
    pulse = PulseSpec((1 - 1e-9) * params.beta_u, 9.900265065770649, params.tau)
    runs.append(pulsed_trajectory(params, pulse)[0])
    for traj in runs:
        for i in {j for _, j, _ in traj.crossings}:
            ups = [up for _, j, up in traj.crossings if j == i]
            assert all(u != v for u, v in zip(ups, ups[1:])), (traj.params, i, traj.crossings)


def test_one_arc_built_per_emitted_arc(p1, orb1, monkeypatch):
    # the engine builds only the arcs it emits, and the merge scan, which
    # decides from the zeros alone, builds none
    from relaydde import engine, orbit, pulse
    built = {"engine": 0, "orbit": 0}

    def counting(where):
        class Counted(ExpArc):
            def __post_init__(self):
                built[where] += 1
                super().__post_init__()
        return Counted

    runs = []
    evolve_ = pulse._evolve
    monkeypatch.setattr(pulse, "_evolve", lambda *args: runs.append(evolve_(*args)) or runs[-1])
    monkeypatch.setattr(engine, "ExpArc", counting("engine"))
    monkeypatch.setattr(orbit, "ExpArc", counting("orbit"))
    ctx = pulse.PulseContext(p1, 0.2, 0.4)
    ctx.stats(0.0, simulated=True)     # builds the context's orbit history
    for delta in np.linspace(0.0, orb1.period, 13, endpoint=False).tolist():
        built.update(engine=0, orbit=0)
        assert math.isfinite(ctx.stats(delta, simulated=True).T)
        assert built["engine"] == len(runs[-1].arcs)
        assert built["orbit"] == 0


def test_a_prebuilt_run_start_gives_the_same_run():
    # evolve builds its start from the history; a start built beforehand and
    # shared by several runs gives each of them the same floats
    from relaydde import ThreeLevelParams, periodic_solution
    from relaydde.engine import PulseWindow, _evolve, _run_start
    from conftest import random_oscillatory, random_z0_history

    def floats(traj):
        return repr((traj.arcs, traj.zeros, traj.crossings))

    rng = np.random.default_rng(24)
    for i in range(30):
        params = random_oscillatory(rng)
        hist = random_z0_history(rng, params.tau)
        fb = None
        if i % 3 == 2:
            fb = ThreeLevelParams(params, float(rng.uniform(1.1, 4.0)) * params.beta_u).feedback()
        start = _run_start(params, hist, fb)
        t_on = float(rng.uniform(0.0, 3 * params.tau))
        pulse = PulseWindow(float(rng.uniform(0.05, 1.5)) * params.beta_u, t_on,
                            t_on + float(rng.uniform(0.05, 1.0)) * params.tau)
        horizon = 3 * periodic_solution(params).period
        for window in (pulse, None, pulse):
            want = floats(evolve(params, hist, horizon, window, fb))
            assert floats(_evolve(params, hist, horizon, window, start)) == want, (params, i)
        assert start == _run_start(params, hist, fb)


def test_horizon_validation(p1):
    with pytest.raises(ValidationError):
        evolve(p1, History.constant(1.0, 1.0), 0.0)
    with pytest.raises(ValidationError) as err:
        evolve(p1, History.constant(1.0, 1.0), math.inf)
    assert err.value.clause == "horizon_finite"
    # a horizon within one tie of t = 0 leaves the run no arc
    with pytest.raises(ValidationError) as err:
        evolve(p1, History.constant(1.0, 1.0), 1e-14)
    assert err.value.clause == "horizon_tie"


def test_history_tau_mismatch(p1):
    with pytest.raises(ValidationError):
        evolve(p1, History.constant(1.0, 2.0), 1.0)


@pytest.mark.parametrize("spec", ["const", "orbit", "premax"])
def test_sample_equals_per_arc_loop(p1, orb1, spec):
    hist = {"const": History.constant(1.0, 1.0), "orbit": orb1.history_min_phase(),
            "premax": orb1.history_pre_max()}[spec]
    traj = evolve(p1, hist, 40.0)
    breaks = [a.t_start for a in hist.arcs + traj.arcs] + [traj.horizon]
    ts = np.unique(np.concatenate([np.linspace(-1.0, traj.horizon, 10_001), breaks]))
    want = np.empty_like(ts)
    # the arc owning each time: history up to 0, later arcs win at breakpoints
    for chain, part in ((hist.arcs, ts <= 0), (traj.arcs, ts > 0)):
        for arc in chain:
            m = part & (ts >= arc.t_start) & (ts <= arc.t_end)
            want[m] = arc.c + arc.k * np.exp(-(ts[m] - arc.t_start))
    assert np.array_equal(traj.sample(ts), want)


@pytest.mark.parametrize("spec", ["const", "orbit", "premax", "kink"])
def test_value_and_extrema_equal_per_arc_scan(p1, orb1, spec):
    rise = ExpArc(-1.0, -0.5, 1.0, -0.5)     # "kink": a maximum inside the history
    hist = {"const": History.constant(1.0, 1.0), "orbit": orb1.history_min_phase(),
            "premax": orb1.history_pre_max(),
            "kink": History((rise, ExpArc(-0.5, 0.0, -0.8, rise.end_value + 0.8)))}[spec]
    traj = evolve(p1, hist, 40.0)
    chain = hist.arcs + traj.arcs
    breaks = [a.t_start for a in chain] + [traj.horizon]
    rng = np.random.default_rng(13)
    ts = breaks + np.sort(rng.uniform(-1.0, traj.horizon, 2_000)).tolist()

    def value(t):
        # the first arc holding t: a breakpoint takes the earlier arc
        arcs = hist.arcs if t <= 0 else traj.arcs
        return next(a.value(t) for a in arcs if a.t_start <= t <= a.t_end)

    assert [traj.value(t).hex() for t in ts] == [value(t).hex() for t in ts]
    windows = np.sort(rng.uniform(-1.0, traj.horizon, (300, 2)), axis=1).tolist()
    windows += [[lo, hi] for lo, hi in zip(breaks, breaks[1:])]
    windows += [[breaks[i], breaks[j]] for i, j in np.sort(
        rng.integers(0, len(breaks), (300, 2)), axis=1).tolist()]
    for lo, hi in windows:
        vals = [value(lo), value(hi)] + [a.value(t) for a in chain
                                         for t in (a.t_start, a.t_end) if lo <= t <= hi]
        want = (min(vals), max(vals))
        assert [x.hex() for x in traj.breakpoint_extrema(lo, hi)] == [x.hex() for x in want]
    for t in (traj.horizon + 1e-9, math.nan):
        with pytest.raises(ValidationError):
            traj.value(t)


def test_non_finite_pulse_and_feedback_rejected():
    from relaydde import FeedbackTable, PulseWindow
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as err:
            PulseWindow(a, 0.5, 0.9)
        assert err.value.clause == "pulse_amp_finite"
    for thresholds, levels in (((0.0, math.nan), (0.4, -0.8, -2.0)),
                               ((0.0, math.inf), (0.4, -0.8, -2.0)),
                               ((math.nan,), (0.4, -0.8)),
                               ((0.0,), (math.inf, -0.8)),
                               ((0.0,), (0.4, math.nan))):
        with pytest.raises(ValidationError) as err:
            FeedbackTable(thresholds, levels)
        assert err.value.clause == "feedback_finite"


def test_value_takes_the_earlier_arc_at_every_arc_end(p1, orb1):
    rise = ExpArc(-1.0, -0.5, 1.0, -0.5)
    differs = 0
    for hist in (History.constant(1.0, 1.0), orb1.history_min_phase(),
                 History((rise, ExpArc(-0.5, 0.0, -0.8, rise.end_value + 0.8)))):
        traj = evolve(p1, hist, 40.0)
        chain = hist.arcs + traj.arcs
        for arc, nxt in zip(chain, chain[1:] + (None,)):
            t = arc.t_end
            assert traj.value(t).hex() == arc.value(t).hex(), t
            differs += nxt is not None and nxt.value(t) != arc.value(t)
    # the later arc gives other bits at some breakpoints, so a switch to it shows
    assert differs


def test_value_past_the_horizon_raises_traj_domain(p1):
    traj = evolve(p1, History.constant(1.0, 1.0), 5.0)
    assert traj.value(traj.horizon) == traj.arcs[-1].end_value
    for t in (math.nextafter(traj.horizon, math.inf), traj.horizon + 1.0, math.inf):
        with pytest.raises(ValidationError) as err:
            traj.value(t)
        assert err.value.clause == "traj_domain", t


def test_arc_chains_keep_no_derived_tables(p1, orb1):
    """Lookups, extrema and samples are computed from ``arcs``: they leave
    nothing in the instance beyond its dataclass fields."""
    from dataclasses import fields
    traj = evolve(p1, orb1.history_min_phase(), 10.0)
    hist = traj.history
    traj.value(-0.5), traj.value(3.0), traj.breakpoint_extrema(-1.0, 8.0)
    traj.sample(np.linspace(-1.0, 10.0, 50))
    hist.value(-0.5), hist.values(np.linspace(-1.0, 0.0, 5))
    orb1.value(7.0), orb1.sample(np.linspace(0.0, 20.0, 50))
    for obj in (traj, hist, orb1):
        assert vars(obj).keys() == {f.name for f in fields(obj)}, type(obj)


def _restart_deviation(params, traj, s, feedback=None, pulse=None):
    """Largest |x - y| on (s, horizon], where y is the run restarted at s from
    the state traj.segment_at(s), with the rest of ``pulse`` shifted along."""
    from relaydde.engine import PulseWindow
    rest = None
    if pulse is not None and pulse.t_off > s:
        rest = PulseWindow(pulse.a, pulse.t_on - s, pulse.t_off - s)
    again = evolve(params, traj.segment_at(s), traj.horizon - s, rest, feedback)
    ts = np.linspace(s, traj.horizon, 301)[1:]
    return float(np.max(np.abs(traj.sample(ts) - again.sample(ts - s))))


@pytest.mark.parametrize("beta_l,zero", [(0.4, 3.9028125084985614),
                                         (0.4, 5.720052163900639),
                                         (0.4, 6.994694800780794),
                                         (1.4, 8.225837274997817)])
def test_a_restart_a_delay_after_a_zero_continues_the_run(beta_l, zero):
    # the state x_{z + tau} starts within 1e-15 of 0, on a crossing its walk
    # books at -tau; a starting branch taken from the sign of x(-tau) alone
    # once put the restart a whole delay off
    params = ModelParams(1.0, beta_l, 0.8)
    traj = evolve(params, History.constant(1.0, 1.0), 20.0)
    assert min(abs(z.t - zero) for z in traj.zeros) < 1e-9
    assert abs(traj.segment_at(zero + 1.0).arcs[0].start_value) < 1e-15
    assert _restart_deviation(params, traj, zero + 1.0) <= 1e-12


def test_restarts_at_zeros_continue_the_run_on_log_uniform_sets():
    # a state taken at a zero, or a delay after one, is an admissible history
    # whose walk books its crossings as the run did
    from relaydde import periodic_solution
    rng = np.random.default_rng(30)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    for _ in range(40):
        params = ModelParams(*np.exp(rng.uniform(lo, hi)).tolist())
        period = periodic_solution(params).period
        traj = evolve(params, History.constant(1.0, params.tau), 3 * period + 3 * params.tau)
        scale = max(1.0, params.beta_l, params.beta_u)
        for z in traj.zeros[:2]:
            for s in (z.t, z.t + params.tau):
                assert _restart_deviation(params, traj, s) <= 1e-10 * scale, (params, s)


def test_three_level_restarts_at_every_crossing_continue_the_run():
    from relaydde import ThreeLevelParams, simulate_pulse
    from relaydde.engine import PulseWindow
    from conftest import random_oscillatory
    rng = np.random.default_rng(31)
    for _ in range(12):
        base = random_oscillatory(rng)
        p = ThreeLevelParams(base, float(rng.uniform(1.1, 4.0)) * base.beta_u)
        a = float(rng.uniform(0.05, 2.0)) * base.beta_l
        traj, orb = simulate_pulse(p, a)
        pulse = PulseWindow(a, orb.z1, orb.z1 + base.tau)     # simulate_pulse's window
        scale = max(1.0, base.beta_l, p.beta_star)
        for s, _, _ in traj.crossings:
            if s < traj.horizon - 0.1:
                dev = _restart_deviation(base, traj, s, p.feedback(), pulse)
                assert dev <= 1e-10 * scale, (p, s)


def _junction(c: float, k: float, c2: float) -> History:
    """Two arcs meeting at t = -0.5, the second with asymptote c2."""
    first = ExpArc(-1.0, -0.5, c, k)
    return History((first, ExpArc(-0.5, 0.0, c2, first.end_value - c2)))


@pytest.mark.parametrize("hist", [
    # a sign change 1e-14 after an arc junction
    _junction(-1.0, (1 + 1e-14) * math.exp(0.5), -1.0),
    # a dip 1e-14 below 0 at a junction, grazing: nothing to book
    _junction(-1.0, (1 - 1e-14) * math.exp(0.5), 1.0),
    # a history starting 1e-16 above 0 and falling
    History((ExpArc(-1.0, 0.0, -0.5, math.nextafter(0.5, 1.0)),)),
], ids=["sign-change-after-junction", "dip-at-junction", "starts-above-0-falling"])
def test_histories_booked_at_a_tie_agree_with_the_oracle(p1, hist):
    traj = evolve(p1, hist, 9.0)
    rep = compare(traj, integrate_dense(p1, hist.value, 9.0, h=1e-4))
    assert rep.max_abs_dev <= 1e-6
    assert rep.zero_counts_match
