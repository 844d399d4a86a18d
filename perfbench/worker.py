"""One round of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --round K \
        --trace 0|1 --spawned T --out DIR

``--spawned`` is the ``CLOCK_MONOTONIC`` reading of the parent just before
it started this process, so set-up time runs from process start until the
inputs are ready: interpreter start, ``import dualfilter``, specs, models
and data.  The round then times the workload's calls (with the span
recorder installed when ``--trace 1``), checks the outputs and prints one
JSON object on its last stdout line.  A fresh process per round makes every
round pay the package's per-process caches, as a command-line user does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import dualfilter
    if Path(dualfilter.__file__).resolve().parent != ROOT / "src" / "dualfilter":
        print(f"imported dualfilter from {dualfilter.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    inputs = workloads.setup(args.workload, args.seed, args.round)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned

    args.out.mkdir(parents=True, exist_ok=True)
    rec = tracing.Recorder() if args.trace else None
    restore = tracing.install(rec) if rec else None
    t0 = time.perf_counter()
    outputs = workloads.execute(args.workload, inputs, args.out)
    timed_s = time.perf_counter() - t0
    if restore:
        restore()

    result = workloads.check(args.workload, inputs, outputs, args.out)
    result.update(setup_s=setup_s, timed_s=timed_s, trace=args.trace, round=args.round,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if rec:
        rec.write(args.out / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(rec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
