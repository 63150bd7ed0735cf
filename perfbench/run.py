"""End-to-end and per-layer benchmark for relaydde.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, nothing needs installing, and a tree without ``src/relaydde``
is refused with exit code 2.

One process, one job in flight, closed loop, no extra threads: the next job
starts when the previous one returns. A run

1. runs two warm-up jobs from a separate input stream, untimed;
2. runs seeded jobs (see workloads.py) until ``--seconds`` of job time have
   been measured. Between jobs, outside the timed region, it checks each
   job's outputs, times a fixed reference kernel, and now and then starts
   ``python -m relaydde.cli orbit --preset p1`` in a fresh interpreter, whose
   median wall time is ``setup_s`` (import, argparse and the orbit, paid by
   every CLI call);
3. with ``--trace 1``, runs the same jobs again with every traced function
   wrapped (see tracing.py) and reports per-layer numbers; the difference of
   the two passes' wall times is the tracing overhead.

Job times are reported in ``ref_s``: wall seconds rescaled to the host speed
at which the reference kernel takes REF_KERNEL_S. The shared host's speed
drifts by 20-40% over tens of seconds, which the rescaling mostly cancels;
raw wall times are printed next to them. ``setup_s`` and ``peak_rss_mb`` are
raw.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or the per-layer ones
with ``--trace 1``). Failures caused by a known open defect (ops.OPEN_DEFECTS:
the a -> beta_U edge slice of ROADMAP item 4, and HorizonExhausted in relaxed
mode) are counted in ``failed_ratio`` and ``checks.<defect>_failed_ratio``
but leave ``failed`` and ``correct`` alone; every other failure, and every
untyped exception, counts in ``failed`` and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ops import OPEN_DEFECTS, Open
from tracing import NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("closed-form", "simulated", "long-run")
SETUP_CLI = ["orbit", "--preset", "p1"]
SETUP_ARGV = ["-m", "relaydde.cli", *SETUP_CLI]
SETUP_RUNS = 7
WARMUP_JOBS = 2
DIGEST_JOBS = 10
TAIL_BEYOND = 10
SHOWN_FAILURES = 5
#: reference-kernel time that defines the reference speed, and the number of
#: neighbouring jobs on each side whose kernel times set a job's local speed
REF_KERNEL_S = 0.003
REF_WINDOW = 3


@dataclass
class Tally:
    """Outcome of every operation run in a pass."""

    attempted: int = 0
    #: every failed operation, known open defects included
    failed_any: int = 0
    #: the gated count: every failure not caused by a known open defect
    failed: int = 0
    #: per known open defect: operations that could hit it, and that did
    open_attempted: Counter = field(default_factory=Counter)
    open_failed: Counter = field(default_factory=Counter)
    untyped: Counter = field(default_factory=Counter)
    messages: list = field(default_factory=list)

    def fail(self, op, why: str, open_defect: bool = False) -> None:
        self.failed_any += 1
        if open_defect:
            self.open_failed[op.open_defect] += 1
        else:
            self.failed += 1
        if len(self.messages) < SHOWN_FAILURES:
            self.messages.append(f"{op.name}: {why}")


@dataclass
class Pass:
    job_s: list = field(default_factory=list)
    #: reference-kernel time measured just before each job
    ref_s: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    digest: object = field(default_factory=hashlib.sha256)
    digest_jobs: int = 0


def reference_kernel() -> None:
    """Fixed work sharing no code with relaydde, timed before every job.

    The host's speed drifts by 20-40% over tens of seconds (other tenants of
    a shared machine), and this kernel slows down with it. Its mix of
    interpreted float arithmetic, one numpy pass and float formatting mirrors
    what the jobs do. It allocates next to no containers, so it rarely
    triggers a garbage collection of a job's leftovers.
    """
    acc = 0.0
    for i in range(3000):
        x = 0.001 * i
        acc += math.exp(-x) * math.log1p(x)
    b = np.exp(-np.linspace(0.0, 1.0, 50_000))
    "\n".join(f"{v:.17g}" for v in b[:3000])


def at_reference_speed(run: Pass) -> list:
    """Job times rescaled to the speed at which the reference kernel takes REF_KERNEL_S.

    A job's local speed is the median kernel time over the REF_WINDOW jobs on
    either side, so one slow kernel run does not distort a job.
    """
    out = []
    for i, dt in enumerate(run.job_s):
        local = statistics.median(run.ref_s[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        out.append(dt * REF_KERNEL_S / local)
    return out


def execute(ops) -> list:
    """Run a job's operations in order; one failing operation does not stop the rest."""
    out = []
    for op in ops:
        try:
            out.append((True, op.run()))
        except Exception as exc:  # counted and reported, never fatal
            out.append((False, exc))
    return out


def record(ops, results, run: Pass, relaydde_error, digest: bool) -> None:
    tally = run.tally
    for op, (ok, value) in zip(ops, results):
        tally.attempted += 1
        if op.open_defect:
            tally.open_attempted[op.open_defect] += 1
        if not ok:
            if not isinstance(value, relaydde_error):
                tally.untyped[type(value).__name__] += 1
            tally.fail(op, f"{type(value).__name__}: {value}")
            continue
        if digest and op.is_cli:
            for part in (op.name, str(value.code), value.out, value.err):
                run.digest.update(part.encode())
                run.digest.update(b"\0")
        try:
            why = op.check(value)
        except Exception as exc:  # a check that crashes is a failed check
            if not isinstance(exc, relaydde_error):
                tally.untyped[f"check:{type(exc).__name__}"] += 1
            tally.fail(op, f"check raised {type(exc).__name__}: {exc}")
            continue
        if why:
            tally.fail(op, why, open_defect=isinstance(why, Open))
    run.digest_jobs += digest


def run_pass(source, relaydde_error, seconds=None, n_jobs=None, tracer=None,
             between_jobs=None) -> Pass:
    """Closed loop over jobs 0, 1, ... until the time budget or job count is spent.

    ``between_jobs(timed)`` runs after each job and before its checks, which
    warm the caches it may evict before the next job starts.
    """
    run = Pass()
    timed = 0.0
    i = 0
    while (timed < seconds) if n_jobs is None else (i < n_jobs):
        ops = source.job(i)
        k0 = time.perf_counter()
        reference_kernel()
        run.ref_s.append(time.perf_counter() - k0)
        if tracer is not None:
            tracer.install(i)
        t0 = time.perf_counter()
        results = execute(ops)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.end_job()
        run.job_s.append(dt)
        timed += dt
        if between_jobs is not None:
            between_jobs(timed)
        record(ops, results, run, relaydde_error, digest=i < DIGEST_JOBS)
        i += 1
    return run


class SetupProbe:
    """Times ``python -m relaydde.cli orbit --preset p1`` in fresh interpreters.

    The SETUP_RUNS launches are spread evenly over the timed pass, between
    jobs, so their median samples the same stretch of host speed as the jobs
    instead of one short moment. A launch evicts caches and slowed the next
    job by 10-15%; the checks that run between a launch and the next job
    warm them again.
    """

    def __init__(self, expected: str, seconds: float):
        self.expected = expected
        self.seconds = seconds
        self.times: list[float] = []
        self.same = True
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)

    def __call__(self, timed: float) -> None:
        while len(self.times) < SETUP_RUNS and timed >= len(self.times) * self.seconds / SETUP_RUNS:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=60)
            self.times.append(time.perf_counter() - t0)
            self.same = self.same and proc.returncode == 0 and proc.stdout == self.expected

    def finish(self) -> None:
        self(math.inf)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git unavailable)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def oracle_backend() -> str:
    try:
        from relaydde import _kernels
    except ImportError:
        return "numpy (no backend choice)"
    return _kernels.BACKEND


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "relaydde").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail(job_s: list) -> tuple[float, float, int]:
    """The highest sample with TAIL_BEYOND samples above it: (value, percentile, beyond)."""
    s = sorted(job_s)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def end_to_end(run: Pass, setup: list) -> dict:
    job_s = at_reference_speed(run)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s_p50": (statistics.median(job_s), "ref_s"),
        "job_s_tail": (tail(job_s)[0], "ref_s"),
        "jobs_per_s": (len(job_s) / sum(job_s), "1/ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass) -> dict:
    n = len(traced.job_s)
    idx = {name: i for i, name in enumerate(NAMES)}
    c = tracer.counts
    m = {}
    for i, name in enumerate(NAMES):
        m[f"{name}.calls"] = (tracer.calls[i] / n, "calls/job")
        m[f"{name}.self_s"] = (tracer.self_s[i] / n, "s/job")
        m[f"{name}.total_s"] = (tracer.total_s[i] / n, "s/job")

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    onsets = c["sweep.onsets"]
    arcs = c["engine.arcs"]
    steps = c["oracle.integrate_dense.steps"]
    sweep_total = tracer.total_s[idx["sweep.cycle_length_map"]]
    m["sweep.onsets"] = (onsets / n, "onsets/job")
    # whole-sweep time per onset: the closed-form or simulated pulse response
    # plus the row bookkeeping around it
    m["pulse.us_per_onset"] = (ratio(sweep_total, onsets, 1e6), "us/onset")
    m["orbit.periodic_solution.calls_per_onset"] = (
        ratio(c["sweep.onsets_periodic_solution_calls"], onsets), "calls/onset")
    m["orbit.merge_found_ratio"] = (
        ratio(c["orbit.merge_found"], tracer.calls[idx["orbit.merge_time"]]), "1")
    m["engine.arcs"] = (arcs / n, "arcs/job")
    m["engine.crossings"] = (c["engine.crossings"] / n, "crossings/job")
    m["engine.us_per_arc"] = (ratio(tracer.total_s[idx["engine.evolve"]], arcs, 1e6), "us/arc")
    m["engine.Trajectory.sample.points"] = (c["engine.Trajectory.sample.points"] / n,
                                            "points/job")
    m["oracle.integrate_dense.steps"] = (steps / n, "steps/job")
    m["oracle.integrate_dense.msteps_per_s"] = (
        ratio(steps, tracer.total_s[idx["oracle.integrate_dense"]], 1e-6), "Msteps/s")
    m["trace.wall_s"] = (sum(traced.job_s), "s")
    m["trace.untraced_wall_s"] = (sum(untraced.job_s), "s")
    # the passes run a minute apart, so compare them at the reference speed
    m["trace.overhead_s"] = (sum(at_reference_speed(traced)) - sum(at_reference_speed(untraced)),
                             "ref_s")
    m["trace.spans"] = (tracer.n_spans / n, "spans/job")
    t = traced.tally
    for key in OPEN_DEFECTS:
        m[f"checks.{key}_failed_ratio"] = (ratio(t.open_failed[key], t.open_attempted[key]), "1")
    return m


def show_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<48} {value:>16.6g} {unit:<12} {note}".rstrip())


def show_pass(label: str, run: Pass) -> None:
    t = run.tally
    print(f"{label}: {len(run.job_s)} jobs, {t.attempted} operations, "
          f"{t.failed} failed (gated)")
    show_metric("failed_ratio", t.failed_any / t.attempted, "1",
                f"({t.failed_any}/{t.attempted} operations, known open defects included)")
    for key, text in OPEN_DEFECTS.items():
        if t.open_attempted[key]:
            print(f"  known open defect '{key}': {t.open_failed[key]}/{t.open_attempted[key]} "
                  f"operations failed ({text})")
    print("  untyped exceptions: "
          + (", ".join(f"{k} x{v}" for k, v in sorted(t.untyped.items())) or "none"))
    for msg in t.messages:
        print(f"  failure: {msg[:300]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="job time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "relaydde" / "__init__.py").is_file():
        print(f"error: {SRC / 'relaydde'} not found; run from a relaydde source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relaydde
    from workloads import JobSource, run_cli

    env = {"git": git_revision(), "source_sha256": source_digest(),
           "python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "oracle_backend": oracle_backend(),
           "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace, "load": "closed loop, 1 process, 1 job in flight"}

    expected = run_cli(SETUP_CLI).out
    run_pass(JobSource(args.workload, args.seed, stream=1), relaydde.RelayDDEError,
             n_jobs=WARMUP_JOBS)
    setup = SetupProbe(expected, args.seconds)
    source = JobSource(args.workload, args.seed)
    main_pass = run_pass(source, relaydde.RelayDDEError, seconds=args.seconds,
                         between_jobs=setup)
    setup.finish()
    metrics = end_to_end(main_pass, setup.times)
    _, t_pct, t_beyond = tail(main_pass.job_s)
    n = len(main_pass.job_s)
    env.update(tail_percentile=t_pct, tail_samples=n, tail_beyond=t_beyond,
               cli_digest=main_pass.digest.hexdigest(), cli_digest_jobs=main_pass.digest_jobs)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"setup: {SETUP_RUNS} fresh `python {' '.join(SETUP_ARGV)}`, output "
          f"{'identical to' if setup.same else 'DIFFERENT from'} the in-process CLI")
    notes = {"job_s_tail": f"(p{t_pct:.1f} of {n} jobs, {t_beyond} beyond)",
             "setup_s": f"(median of {SETUP_RUNS})"}
    print(f"end-to-end [{args.workload}, seed {args.seed}]")
    for name, (value, unit) in metrics.items():
        show_metric(name, value, unit, notes.get(name, ""))
    raw = main_pass.job_s
    print(f"  ref_s: seconds at the speed where the reference kernel takes "
          f"{REF_KERNEL_S * 1e3:g} ms; here it took {statistics.median(main_pass.ref_s) * 1e3:.3f} ms "
          f"(median). Raw wall time: p50 {statistics.median(raw):.6g} s, tail "
          f"{tail(raw)[0]:.6g} s, {len(raw) / sum(raw):.6g} jobs/s")
    show_pass("checks", main_pass)
    runs = [main_pass]

    if args.trace:
        tracer = Tracer()
        traced = run_pass(source, relaydde.RelayDDEError, n_jobs=n, tracer=tracer)
        show_pass("checks (traced pass)", traced)
        runs.append(traced)
        metrics = per_layer(tracer, traced, main_pass)
        print(f"per-layer [{args.workload}, seed {args.seed}, {n} jobs, per job unless noted]")
        for name, (value, unit) in metrics.items():
            show_metric(name, value, unit)

    correct = setup.same and all(r.tally.failed == 0 for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.tally.attempted for r in runs),
        "failed": sum(r.tally.failed for r in runs),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
