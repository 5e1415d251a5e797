"""Measure a baseline: run every workload over several seeds and summarise.

    python3 perfbench/collect.py --out perfbench/baseline.json

Every workload in BENCHMARK.json runs at seeds 201 to 210 for the declared
``run_seconds``, each run a separate ``perfbench/run.py`` process started
with the same arguments as any benchmark run. For every end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread (q3 - q1) / median next to the metric's bound;
per-layer metrics are the medians of traced runs at the first two seeds. The
environment (nproc, CPU model, Python, numpy, git commit) is recorded with
the results.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(201, 211)
TRACE_SEEDS = SEEDS[:2]


def environment(run_env):
    """The environment a run reports, plus the CPU model and git commit."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return dict(run_env, cpu=cpu, git_commit=commit)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarise(values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "values": values}
    if med:
        out["spread"] = (q3 - q1) / med
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [one_run(name, s, seconds, 0) for s in SEEDS]
        traced = [one_run(name, s, seconds, 1) for s in TRACE_SEEDS]
        entry = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r, _ in runs + traced),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "error_frac": statistics.mean(s["error_frac"] for _, s in runs),
            "known_errors": sorted({tuple(e) for _, s in runs for e in s["known_errors"]}),
            "failures": [f for _, s in runs + traced for f in s["failures"]],
            "passes": [s["passes"] for _, s in runs],
            "op_s": {op: statistics.median(s["op_s"][op] for _, s in runs)
                     for op in runs[0][1]["op_s"]},
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r, _ in runs], bounds[m])
                           for m in bounds},
            "per_layer": {m: statistics.median(r["metrics"][m]["value"] for r, _ in traced)
                          for m in traced[0][0]["metrics"]},
        }
        report["workloads"][name] = entry
        report["environment"] = environment(runs[0][1]["environment"])
        for m, s in entry["end_to_end"].items():
            print(f"{name:14s} {m:14s} median {s['median']:.4g}  spread {s.get('spread', 0):.3f}"
                  f"  bound {s['bound']}", flush=True)
        if args.out:  # after every workload, so that a long collection keeps its results
            Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    if not args.out:
        print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
