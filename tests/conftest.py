import sys

import numpy as np
import pytest

from relaydde import History, ModelParams, periodic_solution


@pytest.fixture(scope="session")
def p1():
    return ModelParams(tau=1.0, beta_l=0.4, beta_u=0.8)


@pytest.fixture(scope="session")
def p2():
    return ModelParams(tau=1.0, beta_l=1.4, beta_u=0.8)


@pytest.fixture(scope="session")
def orb1(p1):
    return periodic_solution(p1)


@pytest.fixture(scope="session")
def orb2(p2):
    return periodic_solution(p2)


def random_oscillatory(rng: np.random.Generator) -> ModelParams:
    return ModelParams(tau=float(rng.uniform(0.3, 3.0)),
                       beta_l=float(rng.uniform(0.1, 2.0)),
                       beta_u=float(rng.uniform(0.1, 2.0)))


def _candidate_history(rng: np.random.Generator, tau: float) -> History:
    from relaydde import ExpArc
    kind = rng.integers(0, 3)
    if kind == 0:
        v = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        return History.constant(v, tau)
    if kind == 1:
        c = float(rng.uniform(-1.5, 1.5))
        k = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        return History((ExpArc(-tau, 0.0, c, k),))
    cut = float(rng.uniform(0.25, 0.75)) * -tau
    first = ExpArc(-tau, cut, float(rng.uniform(0.2, 1.5)),
                   float(rng.uniform(-0.5, 0.5)))
    c2 = float(rng.uniform(-1.5, 1.5))
    return History((first, ExpArc(cut, 0.0, c2, first.end_value - c2)))


def random_z0_history(rng: np.random.Generator, tau: float) -> History:
    """A random admissible history with at most one interior sign change."""
    while True:
        hist = _candidate_history(rng, tau)
        if hist.is_z0() and abs(hist.value(0.0)) > 1e-6:
            return hist


def count_calls(monkeypatch, module, name, calls):
    """Count calls of module.name made through any relaydde module holding it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "relaydde" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
