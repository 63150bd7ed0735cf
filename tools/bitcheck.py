"""Print sha256 digests of the program's outputs, to show that a refactor
leaves every bit unchanged.

Run it on two checkouts and compare the lines:

    python3 tools/bitcheck.py

Digested, each on its own line:

- eleven CLI commands run as processes: exit code, stdout and stderr;
- the closed forms on 60 log-uniform parameter sets (seed 1, tau in
  [1e-3, 50], betas in [1e-4, 100]) at a in {1e-6, 0.5, 0.999, 1 - 1e-9}
  beta_U and sigma in {1e-6, 0.5, 1} tau: every column of
  ``PulseContext.response`` on 512 onsets, and every case's
  ``cycle_length`` at those onsets and at T, or its error message; at
  a in {1, 2} beta_U, ``cycle_length`` alone;
- the simulated map's T, x_min and x_max on 10 of those sets x 128 onsets;
- ``History.walk`` of 2,000 random 1-3-arc histories under a two-level and
  a three-level table, 30 % of them with an arc start or end aimed within
  a few ulps of a threshold, and the runs restarted from a trajectory's
  state at its zeros, a delay after them and at its three-level crossings.

The script imports ``relaydde`` from the ``src`` directory next to it.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relaydde import (ExpArc, History, ModelParams, RelayDDEError,   # noqa: E402
                      ThreeLevelParams, evolve, periodic_solution, simulate_pulse)
from relaydde.pulse import CODES, PulseContext   # noqa: E402
from relaydde.sweep import cycle_length_map   # noqa: E402

CLI_COMMANDS = (
    "orbit --preset p1",
    "simulate --preset p1 --history const:1.0 --horizon 9",
    "simulate --preset p2 --history orbit --horizon 9 --format json",
    "simulate --preset p1 --history premax --horizon 200",
    "simulate --preset p1 --history const:1.0 --horizon 20 --amp 0.2 --delta 1.0 --sigma 0.4",
    "classify --preset p1 --amp 0.2 --sigma 0.4 --delta 0.1",
    "classify --preset p2 --amp 1.2 --sigma 0.6 --delta 2.0 --relaxed",
    "sweep --preset p1 --amp 0.2 --sigma 0.4 --grid 1024",
    "therapy --preset p1 --sigma 0.05 --x-d -0.45",
    "threelevel --tau 5 --beta-l 0.4 --beta-u 0.8 --beta-star 2 --amp 0.6 --find-tau0",
    "verify --preset p1",
)


def _log_uniform_sets(n: int) -> list[ModelParams]:
    rng = np.random.default_rng(1)
    lo, hi = np.log([1e-3, 1e-4, 1e-4]), np.log([50.0, 100.0, 100.0])
    return [ModelParams(*np.exp(rng.uniform(lo, hi)).tolist()) for _ in range(n)]


def _feed(h, fn) -> None:
    """Digest fn()'s arrays, or the type and message of the error it raises."""
    try:
        out = fn()
    except RelayDDEError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return
    for col in out:
        h.update(np.ascontiguousarray(col).tobytes())


def cli_digest(command: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "relaydde.cli", *command.split()],
                         capture_output=True, env=env, cwd=ROOT)
    h = hashlib.sha256(str(run.returncode).encode())
    h.update(run.stdout)
    h.update(b"\0")
    h.update(run.stderr)
    return h.hexdigest()


def closed_form_digest() -> str:
    h = hashlib.sha256()
    for params in _log_uniform_sets(60):
        for fs in (1e-6, 0.5, 1.0):
            for fa in (1e-6, 0.5, 0.999, 1 - 1e-9, 1.0, 2.0):
                ctx = PulseContext(params, fa * params.beta_u, fs * params.tau)
                T = ctx.orbit.period
                deltas = T * np.arange(512) / 512
                if fa < 1:
                    _feed(h, lambda: vars(ctx.response(deltas)).values())
                for code in CODES:
                    _feed(h, lambda: (ctx.cycle_length(np.append(deltas, T), code),))
    return h.hexdigest()


def simulated_map_digest() -> str:
    h = hashlib.sha256()
    for params in _log_uniform_sets(10):
        for fs in (1e-6, 0.5, 1.0):
            for fa in (1e-6, 0.5, 0.999):
                table = cycle_length_map(params, fa * params.beta_u, fs * params.tau, 128,
                                         simulated=True)
                _feed(h, lambda: (table.T, table.x_min, table.x_max))
    return h.hexdigest()


def _random_history(rng, thresholds: tuple[float, ...]) -> History:
    """1-3 arcs over [-tau, 0]; with probability 0.3 one arc start or end
    sits on a threshold plus an offset of 0, 1e-16, 1e-15 or 1e-14 of either sign."""
    tau = float(rng.uniform(0.1, 5.0))
    cuts = [-tau, *sorted(rng.uniform(-tau, 0.0, rng.integers(0, 3)).tolist()), 0.0]
    aim = int(rng.integers(0, len(cuts))) if rng.random() < 0.3 else -1
    target = (float(rng.choice(thresholds))
              + float(rng.choice([0.0, 1e-16, 1e-15, 1e-14])) * float(rng.choice([-1.0, 1.0])))
    v = target if aim == 0 else float(rng.uniform(-2.0, 2.0))
    arcs = []
    for j, (t0, t1) in enumerate(zip(cuts, cuts[1:]), start=1):
        if j == aim:   # the asymptote that puts this arc's end on the target
            e = math.exp(-(t1 - t0))
            c = (target - v * e) / (1.0 - e)
        else:
            c = float(rng.uniform(-2.0, 2.0))
        arcs.append(ExpArc(t0, t1, c, v - c))
        v = arcs[-1].end_value
    return History(tuple(arcs))


def walk_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(2)
    for _ in range(2000):
        tables = ((0.0,), (0.0, float(rng.uniform(0.1, 1.5))))
        hist = _random_history(rng, tables[1])
        for thresholds in tables:
            h.update(repr(hist.walk(thresholds)).encode())

    def restart(params, traj, s, feedback=None):
        again = evolve(params, traj.segment_at(s), traj.horizon - s, None, feedback)
        h.update(repr((again.arcs, again.zeros, again.crossings)).encode())

    sets = [ModelParams(1.0, 0.4, 0.8), ModelParams(1.0, 1.4, 0.8), *_log_uniform_sets(40)]
    for params in sets:
        orb = periodic_solution(params)
        traj = evolve(params, History.constant(1.0, params.tau), 3 * (orb.period + params.tau))
        for z in traj.zeros[:3]:
            restart(params, traj, z.t)
            restart(params, traj, z.t + params.tau)
        p3 = ThreeLevelParams(params, 2 * params.beta_u)
        traj, orb = simulate_pulse(p3, params.beta_l)
        for s, _, _ in traj.crossings:
            if orb.z1 + params.tau < s < traj.horizon - 1e-9:   # after the pulse
                restart(params, traj, s, p3.feedback())
    return h.hexdigest()


def main() -> None:
    for command in CLI_COMMANDS:
        print(f"{cli_digest(command)}  cli {command}")
    with np.errstate(all="ignore"):   # log1p of values below -1 in off-case formulas
        print(f"{closed_form_digest()}  closed-form")
        print(f"{simulated_map_digest()}  simulated-map")
    print(f"{walk_digest()}  walk-and-restarts")


if __name__ == "__main__":
    main()
