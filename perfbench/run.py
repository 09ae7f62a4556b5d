"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload edit-rs --seed 1 --seconds 20 --trace 0

Prints one ``name value unit`` line per metric (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``), the path of the
run record, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exits 1 when any decode returned a
wrong track, crashed or did not repeat itself, and 3 when rtcodec's sources
are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rtcodec" / "__init__.py").is_file():
        print(f"error: rtcodec sources not found under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT))
    from perfbench.core import WORKLOADS, BenchError, run

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 3
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), SRC, OUT)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(result.record, indent=2, sort_keys=True) + "\n")
    rec = result.record
    print(f"# {workload.name} seed={args.seed} samples={rec['samples']} repetitions={rec['repetitions']} "
          f"tail=p{rec['tail_percentile']:g} fail_rate={rec['fail_rate']:g} digest={rec['digest']}")
    if args.trace == 0:
        print(f"fail_rate {rec['fail_rate']!r} ratio")
    for name, metric in result.metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
