"""Timing, tracing and metric assembly for one benchmark run.

With tracing off a run times whole passes and reports the end-to-end
metrics. With tracing on it alternates untraced and traced passes (both at
one worker), derives the per-layer metrics from the traced passes' spans,
and reports the tracing overhead from the two sets of pass times. A
workload that runs at more than one worker gets two more passes at its own
worker count, one traced for the pool metrics and one untraced for
``draws_per_s``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from . import tracing
from .workloads import CONFIG, ROOT, golden_digests

GOLDEN = ROOT / "perfbench" / "golden.json"
CI_TARGET = 1e-3  # the 95% half-width time_to_ci_s projects to
SETUP_REPEATS = 7

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("time_to_ci_s", "s"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

# Names ending in .calls/.panels/.points/.draws are counters, .self_s a span
# name's self time and .s its inclusive time, all per traced pass.
PER_LAYER = (
    ("mathkernel.integrate.calls", "count"),
    ("mathkernel.integrate.panels", "count"),
    ("mathkernel.integrate.self_s", "s"),
    ("mathkernel.solve_root_monotone.s", "s"),
    ("mathkernel.tricomi_psi11.calls", "count"),
    ("mathkernel.tricomi_psi11.points", "count"),
    ("mathkernel.tricomi_psi11.s", "s"),
    ("mathkernel.gauss_2f1.calls", "count"),
    ("mathkernel.gauss_2f1_near_unit.calls", "count"),
    ("mathkernel.gauss_2f1_near_unit.s", "s"),
    ("channels.sample_fading.calls", "count"),
    ("channels.sample_fading.draws", "count"),
    ("channels.sample_fading.s", "s"),
    ("channels.dist_t.calls", "count"),
    ("channels.dist_t.points", "count"),
    ("channels.dist_t.self_s", "s"),
    ("channels.derive_etas.calls", "count"),
    ("power.solve_water_level.calls", "count"),
    ("power.solve_water_level.s", "s"),
    ("power.constraint_lhs.calls", "count"),
    ("power.closed_form_check.s", "s"),
    ("power.optimal_power.calls", "count"),
    ("power.optimal_power.s", "s"),
    ("relaying.sir_sample.calls", "count"),
    ("relaying.sir_sample.draws", "count"),
    ("relaying.sir_sample.self_s", "s"),
    ("analysis.outage_mc.calls", "count"),
    ("analysis.outage_mc.self_s", "s"),
    ("analysis.rate_curve.self_s", "s"),
    ("analysis.outage_bs_bounds.s", "s"),
    ("analysis.dist_su_upper.points", "count"),
    ("analysis.dist_su_upper.s", "s"),
    ("analysis.su_outage_closed_form.s", "s"),
    ("analysis.pools_started", "count"),
    ("analysis.pool_s", "s"),
    ("analysis.counted_frac", "frac"),
    ("expcli.load_config.s", "s"),
    ("expcli.run_experiment.self_s", "s"),
    ("expcli.csv_bytes", "bytes"),
    ("expcli.csv_digest_match", "bool"),
    ("trace.overhead_frac", "frac"),
    ("draws_per_s", "1/s"),
    ("error_frac", "frac"),
)


def environment():
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def setup_seconds(config=CONFIG):
    """Median time for a fresh interpreter to import curelay and load the
    config, after one unmeasured start that fills the bytecode cache."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import curelay; "
            "from curelay.expcli import load_config; load_config(sys.argv[2])")
    cmd = [sys.executable, "-c", code, str(ROOT / "src"), str(config)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mib():
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_passes(workload, seconds, workers, tracer=None):
    """Passes until the next one would end past ``seconds``; at least one.

    With a tracer every other pass is traced, starting with a traced one, so
    that drift in the machine's speed falls on both sets alike and the first
    pass's warm-up is charged to tracing. Returns (untraced, traced).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) >= len(traced):
            with tracing.installed(tracer):
                traced.append(workload.run_pass(workers))
        else:
            plain.append(workload.run_pass(workers))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.seconds for p in plain + traced)
        if elapsed + typical > seconds and (tracer is None or plain):
            return plain, traced


def _fractions(passes):
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    errors = failed + sum(len(p.known_errors) for p in passes)
    return attempted, failed, errors


def end_to_end(workload, seconds):
    setup = setup_seconds(workload.config)
    passes, _ = run_passes(workload, seconds, workload.workers)
    wall = statistics.median(p.seconds for p in passes)
    max_ci = max(p.max_ci for p in passes)
    # deterministic results already meet the accuracy: no extrapolation
    to_ci = wall * (max_ci / CI_TARGET) ** 2 if max_ci > 0 else wall
    values = {
        "wall_s": wall,
        "setup_s": setup,
        "time_to_ci_s": to_ci,
        "solves_per_s": statistics.median(p.solves / p.seconds for p in passes),
        "peak_rss_mib": peak_rss_mib(),
    }
    summary = {"passes": len(passes), "pass_s": [p.seconds for p in passes],
               "op_s": {op: statistics.median(p.op_seconds[op] for p in passes)
                        for op in passes[0].op_seconds}}
    return values, passes, summary


def per_layer(workload, seconds):
    tracer = tracing.Tracer()
    plain, traced = run_passes(workload, seconds, 1, tracer)
    n = len(traced)
    total, own = tracer.self_times()
    values = {}
    for name, _unit in PER_LAYER:
        if name.endswith((".calls", ".panels", ".points", ".draws")):
            values[name] = tracer.counts.get(name, 0) / n
        elif name.endswith(".self_s"):
            values[name] = own.get(name[:-len(".self_s")], 0.0) / n
        elif name.endswith(".s"):
            values[name] = total.get(name[:-len(".s")], 0.0) / n

    # pool metrics and draws_per_s come from passes at the workload's own
    # worker count; pool_s is the pools' time not spent in the pooled tasks
    extra_passes, rate_passes = [], plain
    pool_tracer, pool_n = tracer, n
    if workload.workers > 1:
        pool_tracer, pool_n = tracing.Tracer(), 1
        with tracing.installed(pool_tracer):
            extra_passes.append(workload.run_pass(workload.workers))
        rate_passes = [workload.run_pass(workload.workers)]
        extra_passes += rate_passes
    pool_total = pool_tracer.self_times()[0].get("analysis.pool", 0.0)
    values["analysis.pools_started"] = pool_tracer.counts.get("analysis.pool.calls", 0) / pool_n
    values["analysis.pool_s"] = (pool_total - pool_tracer.busy["analysis.pool"]) / pool_n
    values["draws_per_s"] = statistics.median(p.draws / p.seconds for p in rate_passes)

    requested = sum(p.requested for p in traced)
    values["analysis.counted_frac"] = sum(p.counted for p in traced) / requested if requested else 0.0
    values["expcli.csv_bytes"] = statistics.median(p.csv_bytes for p in traced)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = golden_digests(workload)
    values["expcli.csv_digest_match"] = int(all(golden.get(c) == d for c, d in digests.items()))
    plain_s = statistics.median(p.seconds for p in plain)
    values["trace.overhead_frac"] = statistics.median(p.seconds for p in traced) / plain_s - 1.0
    passes = plain + traced + extra_passes
    attempted, _, errors = _fractions(passes)
    values["error_frac"] = errors / attempted

    tracer.dump(workload.out_dir / "spans.jsonl")
    summary = {"passes": len(plain), "traced_passes": n, "golden": digests}
    return values, passes, summary


def run(workload, seed, seconds, trace):
    """One benchmark run of a workload built from ``seed``; returns the
    result line and a summary of the run."""
    if trace:
        values, passes, summary = per_layer(workload, seconds)
        units = dict(PER_LAYER)
    else:
        values, passes, summary = end_to_end(workload, seconds)
        units = dict(END_TO_END)
    attempted, failed, errors = _fractions(passes)
    summary.update(environment=environment(), seed=seed,
                   failures=[f for p in passes for f in p.failures],
                   known_errors=sorted({e for p in passes for e in p.known_errors}),
                   error_frac=errors / attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, summary
