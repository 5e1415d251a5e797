"""Benchmark entry point.

    python3 perfbench/run.py --workload mc_outage --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The library is imported from the
checkout's ``src`` directory; without it (or without ``configs/default.cfg``)
the benchmark prints an error and exits with code 2. The last line of
standard output is the JSON result; the lines before it summarise the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_outage", "mc_rate_pool", "analytic_grid")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    for needed in (src / "curelay" / "__init__.py", ROOT / "configs" / "default.cfg"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a source checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import curelay
    if Path(curelay.__file__).resolve().parent != src / "curelay":
        print(f"error: imported curelay from {curelay.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.measure import run
    from perfbench.workloads import make_workload
    workload = make_workload(args.workload, args.seed)
    result, summary = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
