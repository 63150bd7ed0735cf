"""In-memory span tracer that wraps relaydde's public functions from outside.

``Tracer.install`` replaces each traced function in every ``relaydde``
module namespace that holds it (``from .x import f`` copies the reference,
so patching only the defining module would miss most calls) and each traced
method on its class; ``uninstall`` puts the originals back. A span is
``(name id, start, end, parent span, job id)``; spans live in memory for one
job and are folded into per-function totals by ``end_job``. Self time is a
span's duration minus the durations of its direct children, which never
overlap because the benchmark runs one job at a time on one thread.

Tiny hot methods such as ``ExpArc.crossing`` are not wrapped: a wrapper
costs about a microsecond, more than the method itself. Their work is
counted from the outputs of the functions that call them instead.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

import numpy as np

# counters taken from the result of a traced call
Counter = Callable[[dict, object], None]


def _count_onsets(c, table):
    c["sweep.onsets"] += len(table.rows)


def _count_merge(c, info):
    c["orbit.merge_found"] += info is not None


def _count_evolve(c, traj):
    c["engine.arcs"] += len(traj.arcs)
    c["engine.crossings"] += len(traj.crossings)


def _count_sample(c, xs):
    c["engine.Trajectory.sample.points"] += len(xs)


def _count_dense(c, dense):
    c["oracle.integrate_dense.steps"] += dense.t.size - 1


#: (metric prefix, module, attribute path, counter); the prefix drops the
#: leading underscore of ``_kernels`` because metric names start alphanumeric
TARGETS: tuple[tuple[str, str, str, Optional[Counter]], ...] = (
    ("cli.main", "relaydde.cli", "main", None),
    ("sweep.cycle_length_map", "relaydde.sweep", "cycle_length_map", _count_onsets),
    ("sweep.monotonicity_report", "relaydde.sweep", "monotonicity_report", None),
    ("sweep.case_sequence", "relaydde.sweep", "case_sequence", None),
    ("pulse.response_closed_form", "relaydde.pulse", "response_closed_form", None),
    ("pulse.classify", "relaydde.pulse", "classify", None),
    ("pulse.thresholds", "relaydde.pulse", "thresholds", None),
    ("pulse.case_cycle_length", "relaydde.pulse", "case_cycle_length", None),
    ("pulse.response_simulated", "relaydde.pulse", "response_simulated", None),
    ("orbit.periodic_solution", "relaydde.orbit", "periodic_solution", None),
    ("orbit.merge_time", "relaydde.orbit", "merge_time", _count_merge),
    ("engine.evolve", "relaydde.engine", "evolve", _count_evolve),
    ("engine.Trajectory.sample", "relaydde.engine", "Trajectory.sample", _count_sample),
    ("engine.Trajectory.value", "relaydde.engine", "Trajectory.value", None),
    ("engine.Trajectory.breakpoint_extrema", "relaydde.engine",
     "Trajectory.breakpoint_extrema", None),
    ("arcs.chains_equal", "relaydde.arcs", "chains_equal", None),
    ("arcs.chain_values", "relaydde.arcs", "chain_values", None),
    ("oracle.integrate_dense", "relaydde.oracle", "integrate_dense", _count_dense),
    ("oracle.compare", "relaydde.oracle", "compare", None),
    ("kernels.chunk_fill", "relaydde._kernels", "chunk_fill", None),
    ("therapy.plan", "relaydde.therapy", "plan", None),
    ("therapy.apply_plan", "relaydde.therapy", "apply_plan", None),
    ("threelevel.undershoot_threshold", "relaydde.threelevel", "undershoot_threshold", None),
    ("threelevel.three_level_pulse", "relaydde.threelevel", "three_level_pulse", None),
)
COUNTS = ("sweep.onsets", "sweep.onsets_periodic_solution_calls", "orbit.merge_found",
          "engine.arcs", "engine.crossings", "engine.Trajectory.sample.points",
          "oracle.integrate_dense.steps")
NAMES = tuple(t[0] for t in TARGETS)
_SWEEP = NAMES.index("sweep.cycle_length_map")
_ORBIT = NAMES.index("orbit.periodic_solution")


class Tracer:
    """Span recorder plus the per-function totals folded from its spans."""

    def __init__(self):
        self.spans: list = []
        self.current = -1
        self.job = -1
        self.calls = np.zeros(len(NAMES))
        self.total_s = np.zeros(len(NAMES))
        self.self_s = np.zeros(len(NAMES))
        self.counts = dict.fromkeys(COUNTS, 0)
        self.n_spans = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, sid: int, fn, count: Optional[Counter]):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.current = parent
                spans[idx] = (sid, t0, t1, parent, self.job)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def install(self, job: int) -> None:
        self.job = job
        modules = [m for name, m in sys.modules.items()
                   if name == "relaydde" or name.startswith("relaydde.")]
        for sid, (_, mod_name, path, count) in enumerate(TARGETS):
            # a target that a refactor removed is skipped; its metrics read 0
            mod = sys.modules.get(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                original = vars(getattr(mod, cls_name, object)).get(attr)
                if original is not None:
                    self._patch(getattr(mod, cls_name), attr, original,
                                self._wrap(sid, original, count))
                continue
            original = getattr(mod, path, None)
            if original is None:
                continue
            wrapper = self._wrap(sid, original, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_job(self) -> None:
        """Fold this job's spans into the per-function totals and drop them."""
        if self.spans:
            arr = np.array([s[:4] for s in self.spans])
            sid = arr[:, 0].astype(int)
            dur = arr[:, 2] - arr[:, 1]
            parent = arr[:, 3].astype(int)
            has = parent >= 0
            child = np.bincount(parent[has], weights=dur[has], minlength=sid.size)
            n = len(NAMES)
            self.calls += np.bincount(sid, minlength=n)
            self.total_s += np.bincount(sid, weights=dur, minlength=n)
            self.self_s += np.bincount(sid, weights=dur - child, minlength=n)
            # periodic_solution calls made anywhere below a sweep span
            is_sweep = sid == _SWEEP
            under = np.zeros(sid.size, dtype=bool)
            anc = parent.copy()
            while (up := anc >= 0).any():
                under[up] |= is_sweep[anc[up]]
                anc[up] = parent[anc[up]]
            self.counts["sweep.onsets_periodic_solution_calls"] += int(
                np.count_nonzero(under & (sid == _ORBIT)))
            self.n_spans += sid.size
        self.spans.clear()
        self.current = -1
