"""Brute-force dense integrator used to certify the exact engine.

Fixed-step classical RK4 on a uniform grid over [-tau, horizon], with the
delayed feedback branch maintained by event bookkeeping: sign changes of the
stored samples are bisected on the linear interpolant to 1e-12 and schedule
feedback switches one delay later; steps containing a switch or a pulse edge
are split there. This module shares no arc algebra with the exact engine --
histories enter only as callables to be sampled.

Chunks of at most one delay length are filled by ``_chunk_numpy``. Between
feedback switches and pulse edges the forcing F is constant, and the
classical RK4 update for x' = -x + F is the affine map x -> F + (x - F)*A(h)
with A(h) = 1 - h + h^2/2 - h^3/6 + h^4/24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import MismatchedExperiment, StepTooLarge, ValidationError
from .params import ModelParams


@dataclass(frozen=True)
class OraclePulse:
    a: float
    t_on: float
    t_off: float


@dataclass(frozen=True)
class DenseTrajectory:
    """Uniform samples of the dense solution plus bisection-refined zeros."""

    h: float
    t: np.ndarray
    x: np.ndarray
    zeros: np.ndarray       # refined crossing times with t > 0
    zero_dirs: np.ndarray   # +1 upward, -1 downward


def _rk4_a(h: float) -> float:
    return 1.0 + h * (-1.0 + h * (0.5 + h * (-1.0 / 6.0 + h / 24.0)))


def _chunk_numpy(xs: np.ndarray, j0: int, j1: int, t0: float, h: float,
                 bounds: np.ndarray, levels: np.ndarray,
                 bvals: np.ndarray) -> None:
    """Fill xs[j0+1 .. j1] given run boundaries; record values at boundaries.

    Within a run the forcing F is constant, so m whole steps collapse to
    x_m = F + (x_0 - F) * A^m; only the partial steps at run edges need
    scalar work.
    """
    x = float(xs[j0])
    bvals[0] = x
    a_full = _rk4_a(h)
    eps = 1e-9 * h
    for r in range(levels.size):
        lo, hi, f = float(bounds[r]), float(bounds[r + 1]), float(levels[r])
        first = int(np.ceil((lo - t0) / h - 1e-9))          # first grid idx > lo
        if t0 + first * h <= lo + eps:
            first += 1
        last = int(np.floor((hi - t0) / h + 1e-9))          # last grid idx <= hi
        t_cur = lo
        if first <= last and first <= j1:
            last = min(last, j1)
            dt = (t0 + first * h) - t_cur
            if dt > eps:
                x = f + (x - f) * _rk4_a(dt)
            xs[first] = x
            m = last - first
            if m > 0:
                vals = f + (x - f) * np.power(a_full, np.arange(1, m + 1))
                xs[first + 1:last + 1] = vals
                x = float(vals[-1])
            t_cur = t0 + last * h
        dt = hi - t_cur
        if dt > eps:
            x = f + (x - f) * _rk4_a(dt)
        bvals[r + 1] = x


def _bisect_interp(t0: float, x0: float, t1: float, x1: float) -> float:
    """Root of the linear interpolant on [t0, t1] by bisection to 1e-12."""
    if x0 == 0.0:
        return t0
    if x1 == 0.0:
        return t1
    lo, hi = t0, t1
    flo = x0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fm = x0 + (x1 - x0) * (mid - t0) / (t1 - t0)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_crossings(times: Sequence[float], vals: Sequence[float]) -> list[tuple[float, int]]:
    """Sign changes (negative <-> nonnegative) in a sampled sequence."""
    t = np.asarray(times)
    v = np.asarray(vals)
    neg = v < 0.0
    idx = np.nonzero(neg[:-1] != neg[1:])[0]
    out = []
    for i in idx:
        z = _bisect_interp(float(t[i]), float(v[i]), float(t[i + 1]), float(v[i + 1]))
        out.append((z, +1 if neg[i] else -1))
    return out


def integrate_dense(params: ModelParams, history,
                    horizon: float, pulse: Optional[OraclePulse] = None,
                    h: float = 1e-4) -> DenseTrajectory:
    """Integrate the two-level model densely; see the module docstring.

    ``history`` is a callable t -> x on [-tau, 0] (anything exposing a
    vectorized ``.values`` works too). The step is snapped to
    tau/round(tau/h) so the grid contains t = 0.
    """
    if not (pulse is None or isinstance(pulse, OraclePulse)):
        raise ValidationError("oracle_pulse", f"pulse must be an OraclePulse or None, "
                                              f"got {pulse!r}")
    if not (math.isfinite(h) and h > 0):
        raise ValidationError("oracle_step", f"h = {h} must be finite and > 0")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValidationError("oracle_horizon", f"horizon = {horizon} must be finite and > 0")
    tau, bl, bu = params.tau, params.beta_l, params.beta_u
    if h > tau / 100:
        raise StepTooLarge(f"h = {h} must be <= tau/100 = {tau / 100}")

    i0 = int(round(tau / h))
    h = tau / i0
    n = i0 + int(math.ceil(horizon / h - 1e-9))
    t0 = -tau
    tgrid = t0 + h * np.arange(n + 1)
    xs = np.zeros(n + 1)
    if hasattr(history, "values"):
        xs[:i0 + 1] = history.values(tgrid[:i0 + 1])
    else:
        xs[:i0 + 1] = [history(t) for t in tgrid[:i0 + 1]]

    # crossings of the history seed future feedback switches; one at -tau
    # itself only fixes the starting sign
    crossings: list[tuple[float, int]] = []
    for z, d in _scan_crossings(tgrid[:i0 + 1], xs[:i0 + 1]):
        if z > t0 + 1e-12:
            crossings.append((z, d))
    tol0 = 1e-13 * max(1.0, float(np.max(np.abs(xs[:i0 + 1]))))
    big = np.nonzero(np.abs(xs[:i0 + 1]) > tol0)[0]
    if big.size == 0:
        sign_neg = False
    else:
        sign_at_big = xs[big[0]] < 0.0
        flips = sum(1 for z, _ in crossings if z < tgrid[big[0]])
        sign_neg = sign_at_big if flips % 2 == 0 else not sign_at_big

    switch_q: list[float] = [z + tau for z, _ in crossings]
    edges = []
    if pulse is not None:
        edges = [e for e in (pulse.t_on, pulse.t_off) if 0.0 < e < tgrid[-1]]

    max_chunk = min(i0, 65536)
    j = i0
    consumed = 0           # switches already applied to sign_neg
    while j < n:
        j_end = min(j + max_chunk, n)
        lo_t, hi_t = tgrid[j], tgrid[j_end]
        cuts = [s for s in switch_q[consumed:] if lo_t < s <= hi_t]
        cuts += [e for e in edges if lo_t < e < hi_t]
        cuts = sorted(set(cuts))
        bounds = np.array([lo_t] + cuts + [hi_t])
        levels = np.empty(bounds.size - 1)
        neg = sign_neg
        k = consumed
        for r in range(levels.size):
            while k < len(switch_q) and switch_q[k] <= bounds[r] + 1e-12:
                neg = not neg
                k += 1
            lvl = bl if neg else -bu
            if pulse is not None:
                mid = 0.5 * (bounds[r] + bounds[r + 1])
                if pulse.t_on <= mid <= pulse.t_off:
                    lvl += pulse.a
            levels[r] = lvl
        bvals = np.empty(bounds.size)
        _chunk_numpy(xs, j, j_end, t0, h, bounds, levels, bvals)

        # scan for new crossings over grid + boundary points of this chunk
        pts_t = np.concatenate([tgrid[j:j_end + 1], bounds])
        pts_x = np.concatenate([xs[j:j_end + 1], bvals])
        order = np.argsort(pts_t, kind="stable")
        pts_t, pts_x = pts_t[order], pts_x[order]
        keep = np.concatenate([[True], np.diff(pts_t) > 1e-15])
        for z, d in _scan_crossings(pts_t[keep], pts_x[keep]):
            if not crossings or z - crossings[-1][0] > 1e-12:
                crossings.append((z, d))
                switch_q.append(z + tau)

        # advance the sign state past switches consumed by this chunk
        while consumed < len(switch_q) and switch_q[consumed] <= hi_t + 1e-12:
            sign_neg = not sign_neg
            consumed += 1
        j = j_end

    zs = [(z, d) for z, d in crossings if z > 1e-12]
    return DenseTrajectory(h=h, t=tgrid, x=xs,
                           zeros=np.array([z for z, _ in zs]),
                           zero_dirs=np.array([d for _, d in zs], dtype=int))


@dataclass(frozen=True)
class CompareReport:
    max_abs_dev: float
    zero_time_devs: np.ndarray
    zero_count_exact: int
    zero_count_dense: int

    @property
    def zero_counts_match(self) -> bool:
        return self.zero_count_exact == self.zero_count_dense

    @property
    def max_zero_dev(self) -> float:
        return float(np.max(self.zero_time_devs)) if self.zero_time_devs.size else 0.0


def compare(exact, dense: DenseTrajectory) -> CompareReport:
    """Pointwise deviation on the dense grid plus per-zero time deviations.

    ``exact`` is a Trajectory from the event-driven engine over the same
    setup; zeros are paired in order.
    """
    if dense.t[-1] > exact.horizon + 1e-9 or abs(dense.t[0] + exact.params.tau) > 1e-9:
        raise MismatchedExperiment(
            f"dense grid spans [{dense.t[0]}, {dense.t[-1]}], exact run covers "
            f"[-{exact.params.tau}, {exact.horizon}]")
    xe = exact.sample(dense.t)
    dev = float(np.max(np.abs(xe - dense.x)))
    ez = np.array([z.t for z in exact.zeros if z.t <= dense.t[-1]])
    m = min(ez.size, dense.zeros.size)
    zdev = np.abs(ez[:m] - dense.zeros[:m])
    return CompareReport(max_abs_dev=dev, zero_time_devs=zdev,
                         zero_count_exact=int(ez.size),
                         zero_count_dense=int(dense.zeros.size))
