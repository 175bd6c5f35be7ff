"""Record the stdout digests that ``run.py`` expects, into perfbench/digests.json.

Usage (from the root of a checkout): python3 perfbench/record.py FIRST_SEED LAST_SEED

Run it only on a commit whose output is known to be right: the recorded
digests are what later commits are held to. Each operation's output
passes the program-independent checks before its digest is kept.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def record(wl: workloads.Workload, work: Path) -> dict:
    _, _, outputs, _ = run.run_op(wl, run.ROOT / work)
    checker = run.Checker(wl, None)
    checker.check(outputs)  # without expected digests this sets them
    return {"inputs": wl.files_sha256, "stdout": checker.expected}


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    work = run.WORK / "record"
    (run.ROOT / work).mkdir(parents=True, exist_ok=True)
    table.setdefault("bundled", {})["*"] = record(workloads.build(run.ROOT, "bundled", 0, work), work)
    for seed in range(first, last + 1):
        for name in ("wide_vectors", "wide_rules", "matrix_roundtrip"):
            wl = workloads.build(run.ROOT, name, seed, work)
            table.setdefault(name, {})[str(seed)] = record(wl, work)
        run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
