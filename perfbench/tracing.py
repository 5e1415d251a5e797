"""Outside-in layer tracing for the benchmark.

The library is not instrumented. Instead, the benchmark replaces the name
each caller module imported (for example ``curelay.analysis.sample_fading``)
with a wrapper that records a span ``[name, start, end, parent]`` and a few
counters. Spans stay in memory until the run ends; ``self_times`` derives
each layer's self time from them (its duration minus its direct children).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _points(args, kwargs, result):
    return int(np.size(args[0]))


def _panels(args, kwargs, result):
    return result.panels


def _fading_draws(args, kwargs, result):
    return int(np.size(result.h2))


def _sir_draws(args, kwargs, result):
    return int(np.size(result.gamma1))


def timed_call(fn, *args):
    """Run one pooled task; return its result and how long it ran."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# (module, attribute, span name, extra counter, function computing it).
# Every attribute is the name the calling module imported or defined, so
# the wrapper sees each call the library makes across a module boundary.
TARGETS = (
    ("curelay.power", "integrate", "mathkernel.integrate", "panels", _panels),
    ("curelay.power", "solve_root_monotone", "mathkernel.solve_root_monotone", None, None),
    ("curelay.power", "tricomi_psi11", "mathkernel.tricomi_psi11", "points", _points),
    ("curelay.channels", "tricomi_psi11", "mathkernel.tricomi_psi11", "points", _points),
    ("curelay.analysis", "gauss_2f1", "mathkernel.gauss_2f1", None, None),
    ("curelay.analysis", "gauss_2f1_near_unit", "mathkernel.gauss_2f1_near_unit", None, None),
    ("curelay.analysis", "sample_fading", "channels.sample_fading", "draws", _fading_draws),
    ("curelay.power", "dist_t", "channels.dist_t", "points", _points),
    ("curelay.analysis", "dist_t", "channels.dist_t", "points", _points),
    ("curelay.channels", "derive_etas", "channels.derive_etas", None, None),
    ("curelay.power", "derive_etas", "channels.derive_etas", None, None),
    ("curelay.relaying", "derive_etas", "channels.derive_etas", None, None),
    ("curelay.analysis", "derive_etas", "channels.derive_etas", None, None),
    ("curelay.expcli", "solve_water_level", "power.solve_water_level", None, None),
    ("curelay.power", "solve_water_level", "power.solve_water_level", None, None),
    ("curelay.power", "constraint_lhs", "power.constraint_lhs", None, None),
    ("curelay.expcli", "closed_form_check", "power.closed_form_check", None, None),
    ("curelay.power", "closed_form_check", "power.closed_form_check", None, None),
    ("curelay.analysis", "optimal_power", "power.optimal_power", None, None),
    ("curelay.relaying", "optimal_power", "power.optimal_power", None, None),
    ("curelay.analysis", "sir_sample", "relaying.sir_sample", "draws", _sir_draws),
    ("curelay.expcli", "outage_mc", "analysis.outage_mc", None, None),
    ("curelay.expcli", "rate_curve", "analysis.rate_curve", None, None),
    ("curelay.analysis", "outage_bs_bounds", "analysis.outage_bs_bounds", None, None),
    ("curelay.analysis", "su_outage_closed_form", "analysis.su_outage_closed_form", None, None),
    ("curelay.analysis", "dist_su_upper", "analysis.dist_su_upper", "points", _points),
    ("curelay.expcli", "load_config", "expcli.load_config", None, None),
    ("curelay.expcli", "run_experiment", "expcli.run_experiment", None, None),
)
POOL_TARGET = ("curelay.analysis", "ProcessPoolExecutor", "analysis.pool")


class Tracer:
    """In-memory span and counter store for one traced section of a run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)  # per pool span name: task seconds / workers
        self._stack = [-1]

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(idx)
        self.counts[name + ".calls"] += 1
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def wrap(self, fn, name, counter=None, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter:
                self.counts[f"{name}.{counter}"] += measure(args, kwargs, result)
            return result
        return wrapper

    def pool_class(self, base, name):
        """A pool class whose instances record one span from creation to
        exit. Tasks given to ``map`` are timed in the workers and their time,
        divided by the worker count, is added to ``busy[name]``, so that the
        span minus ``busy`` is the pool's own cost: start-up, dispatch and
        shut-down."""
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._span = tracer.begin(name)
                self._workers = max_workers or os.cpu_count()
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                timed = super().map(functools.partial(timed_call, fn), *iterables, **kwargs)

                def results():
                    for result, seconds in timed:
                        tracer.busy[name] += seconds / self._workers
                        yield result
                return results()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

        return TracedPool

    def self_times(self):
        """Per span name: (inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextmanager
def installed(tracer):
    """Patch every wrapped name for the duration of the block, then restore
    the originals (also when the block raises)."""
    saved = []
    try:
        for mod_name, attr, name, counter, measure in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, name, counter, measure))
        mod_name, attr, name = POOL_TARGET
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, tracer.pool_class(original, name))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
