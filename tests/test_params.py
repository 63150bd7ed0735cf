import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydde import (ModelParams, RawParams, Regime, ValidationError, equilibrium,
                      evolve, nondimensionalize, regime)
from relaydde.arcs import History


def test_nondimensionalize_example():
    raw = RawParams(gamma=1.0, b_l=1.4, b_u=0.2, theta=1.0, tau_raw=1.0)
    p = nondimensionalize(raw)
    assert p.tau == 1.0
    assert math.isclose(p.beta_l, 0.4, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(p.beta_u, 0.8, rel_tol=0, abs_tol=1e-15)


def test_rejects_nonpositive_b_u():
    with pytest.raises(ValidationError) as exc:
        RawParams(gamma=2.0, b_l=4.0, b_u=0.0, theta=1.0, tau_raw=1.0)
    assert exc.value.clause == "b_u_positive"


def test_rejects_degenerate_b_l():
    # b_L = gamma*theta would give beta_L = 0
    with pytest.raises(ValidationError) as exc:
        RawParams(gamma=1.0, b_l=1.0, b_u=0.5, theta=1.0, tau_raw=3.0)
    assert exc.value.clause == "b_l_degenerate"


def test_rejects_degenerate_b_u():
    with pytest.raises(ValidationError) as exc:
        RawParams(gamma=1.0, b_l=1.4, b_u=1.0, theta=1.0, tau_raw=1.0)
    assert exc.value.clause == "b_u_degenerate"


@pytest.mark.parametrize("clause,kwargs", [
    ("gamma_positive", dict(gamma=0.0, b_l=1.4, b_u=0.2, theta=1.0, tau_raw=1.0)),
    ("theta_positive", dict(gamma=1.0, b_l=1.4, b_u=0.2, theta=-1.0, tau_raw=1.0)),
    ("tau_raw_positive", dict(gamma=1.0, b_l=1.4, b_u=0.2, theta=1.0, tau_raw=0.0)),
    ("b_order", dict(gamma=1.0, b_l=0.2, b_u=1.4, theta=1.0, tau_raw=1.0)),
])
def test_raw_validation_clauses(clause, kwargs):
    with pytest.raises(ValidationError) as exc:
        RawParams(**kwargs)
    assert exc.value.clause == clause


@pytest.mark.parametrize("clause,kwargs", [
    ("tau_positive", dict(tau=0.0, beta_l=0.4, beta_u=0.8)),
    ("beta_l_nonzero", dict(tau=1.0, beta_l=0.0, beta_u=0.8)),
    ("beta_u_nonzero", dict(tau=1.0, beta_l=0.4, beta_u=0.0)),
    ("beta_sum_positive", dict(tau=1.0, beta_l=-0.9, beta_u=0.8)),
])
def test_model_validation_clauses(clause, kwargs):
    with pytest.raises(ValidationError) as exc:
        ModelParams(**kwargs)
    assert exc.value.clause == clause


def test_regime_examples(p1):
    assert regime(p1) is Regime.OSCILLATORY
    gu = ModelParams(tau=1.0, beta_l=0.4, beta_u=-0.3)
    assert regime(gu) is Regime.GAS_UPPER
    assert equilibrium(gu) == 0.3
    gl = ModelParams(tau=2.0, beta_l=-0.1, beta_u=0.5)
    assert regime(gl) is Regime.GAS_LOWER
    assert equilibrium(gl) == -0.1
    assert equilibrium(p1) is None


@given(gamma=st.floats(0.1, 5.0), theta=st.floats(0.1, 3.0),
       b_u=st.floats(0.01, 2.0), extra=st.floats(0.01, 3.0),
       tau_raw=st.floats(0.1, 5.0))
@settings(max_examples=200)
def test_nondimensionalize_total_and_sum_positive(gamma, theta, b_u, extra, tau_raw):
    b_l = b_u + extra
    gt = gamma * theta
    if b_l == gt or b_u == gt:
        return
    p = nondimensionalize(RawParams(gamma, b_l, b_u, theta, tau_raw))
    assert p.beta_l + p.beta_u > 0
    assert p.tau > 0


def _raw_rk4(raw: RawParams, x0: float, horizon: float, h: float) -> tuple:
    """Plain fixed-step RK4 for the dimensional equation, no event handling.

    Good to O(h) at feedback switches; only used to confirm that the change
    of variables is the right one.
    """
    n_hist = int(round(raw.tau_raw / h))
    h = raw.tau_raw / n_hist
    n = n_hist + int(math.ceil(horizon / h))
    xs = np.empty(n + 1)
    xs[:n_hist + 1] = x0
    for i in range(n_hist, n):
        def rhs(x, xd):
            return -raw.gamma * x + (raw.b_l if xd < raw.theta else raw.b_u)

        xd0 = xs[i - n_hist]
        xd1 = 0.5 * (xs[i - n_hist] + xs[i - n_hist + 1])
        x = xs[i]
        k1 = rhs(x, xd0)
        k2 = rhs(x + 0.5 * h * k1, xd1)
        k3 = rhs(x + 0.5 * h * k2, xd1)
        k4 = rhs(x + h * k3, xs[i - n_hist + 1])
        xs[i + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    t = -raw.tau_raw + h * np.arange(n + 1)
    return t, xs


def test_round_trip_raw_vs_nondimensional():
    raw = RawParams(gamma=1.0, b_l=1.4, b_u=0.2, theta=1.0, tau_raw=1.0)
    p = nondimensionalize(raw)
    x0 = 1.8   # above theta, maps to x_hat = 0.8
    t_raw, x_raw = _raw_rk4(raw, x0, horizon=8.0, h=2e-5)
    traj = evolve(p, History.constant(x0 - raw.theta, p.tau), 8.0 * raw.gamma)
    # x_hat(t) = x(t/gamma) - theta on the nondimensional clock
    keep = t_raw >= 0
    mapped = x_raw[keep] - raw.theta
    exact = traj.sample(t_raw[keep] * raw.gamma)
    assert float(np.max(np.abs(mapped - exact))) < 1e-3


def test_round_trip_raw_vs_nondimensional_scaled_gamma():
    raw = RawParams(gamma=2.0, b_l=3.0, b_u=0.4, theta=1.0, tau_raw=0.5)
    p = nondimensionalize(raw)
    assert p.tau == 1.0
    x0 = 1.6
    t_raw, x_raw = _raw_rk4(raw, x0, horizon=5.0, h=1e-5)
    traj = evolve(p, History.constant(x0 - raw.theta, p.tau), 5.0 * raw.gamma)
    keep = t_raw >= 0
    mapped = x_raw[keep] - raw.theta
    exact = traj.sample(t_raw[keep] * raw.gamma)
    assert float(np.max(np.abs(mapped - exact))) < 1e-3


@pytest.mark.parametrize("beta_l,beta_u", [
    (math.inf, 0.8), (math.nan, 0.8), (-math.inf, 0.8),
    (0.4, math.inf), (0.4, math.nan), (0.4, -math.inf),
])
def test_model_rejects_non_finite_levels(beta_l, beta_u):
    with pytest.raises(ValidationError) as exc:
        ModelParams(1.0, beta_l, beta_u)
    assert exc.value.clause == "beta_finite"
