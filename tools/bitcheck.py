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
- the simulated map's T, x_min and x_max on 10 of those sets x 128 onsets.

The script imports ``relaydde`` from the ``src`` directory next to it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relaydde import ModelParams, RelayDDEError   # noqa: E402
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


def main() -> None:
    for command in CLI_COMMANDS:
        print(f"{cli_digest(command)}  cli {command}")
    with np.errstate(all="ignore"):   # log1p of values below -1 in off-case formulas
        print(f"{closed_form_digest()}  closed-form")
        print(f"{simulated_map_digest()}  simulated-map")


if __name__ == "__main__":
    main()
