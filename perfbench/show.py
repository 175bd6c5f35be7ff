"""Print every benchmark metric by name and unit, workload by workload.

Usage (from the root of a checkout):

    python3 perfbench/show.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``perfbench/run.py`` untraced and traced on each workload of
BENCHMARK.json (or the ones named) and prints the end-to-end metrics
with their regression bounds, the
per-layer metrics with the end-to-end metric each should move, the
output-check results and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def _run(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument(
        "--workload", nargs="*", choices=workloads.WORKLOADS, default=[w["name"] for w in bench["workloads"]]
    )
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for name in args.workload:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s per run)")
        for trace in (0, 1):
            result, notes = _run(name, args.seed, args.seconds, trace)
            for note in notes:
                print(note)
            print(
                f"  checks: correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4f}"
            )
            for metric, m in result["metrics"].items():
                if trace:
                    note = f"-> {run.PER_LAYER[metric][2]} on {run.PER_LAYER[metric][3]}"
                else:
                    note = f"bound {bounds[metric]}"
                print(f"  {metric:42s} {m['value']:>16.6g} {m['unit']:8s} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
