"""Audit benchmark: one workload through the ``sig-audit`` CLI, closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one operation at a time, each a fresh CLI process (the
``matrix_roundtrip`` operation is two processes in sequence), until the
next operation would end after ``--seconds``. Every operation's output is
checked. End-to-end times are scaled by a reference task run next to each
operation (see ``REFERENCE``). With ``--trace 1`` untraced operations
alternate with operations run under ``perfbench/trace.py``, and the
difference of their median wall times is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")  # relative to ROOT; listed in .gitignore
DIGESTS = ROOT / "perfbench" / "digests.json"

MIN_OPS = 3  # operations per run at least, so a median exists
MIN_TRACED = 2  # traced operations per run at least, so counts can be compared
SETUP_REPEATS = 4  # set-ups before the loop; one more runs before each operation
# Every process still running this long after the run started is killed, so
# a hung program fails its operations instead of hanging the benchmark.
RUN_LIMIT_S = 150

LAUNCH = "import sys; from sig_audit.cli import main; sys.exit(main())"
SETUP = (
    "import sys; from pathlib import Path; import sig_audit; from sig_audit import corpus; "
    "corpus.load_corpus(Path(sys.argv[1]), Path(sys.argv[2]))"
)

# A fixed pure-Python task (interpreter start, a regex, string building, a
# dict) that shares no code with sig_audit. The machine this benchmark runs
# on changes speed by up to 1.8x for minutes at a time, and the reference
# task slows down with it, so end-to-end times are scaled to a machine on
# which the reference task takes REFERENCE_S seconds; the raw wall times are
# printed beside them.
REFERENCE = (
    "import re\n"
    "pat = re.compile(r'(?:union|select)\\s+\\w+|\\bor\\b\\s*\\d+=\\d+')\n"
    "seen = {}\n"
    "for i in range(80000):\n"
    "    text = f'{i} or {i % 7}={i % 7} union select x{i}'\n"
    "    seen[text[-6:]] = pat.search(text) is not None\n"
)
REFERENCE_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> (unit, better, end-to-end metrics it should move, workloads it shows on).
PER_LAYER = {
    "corpus.load_corpus.self_s": ("s", "lower", "setup_s wall_s", "wide_vectors"),
    "corpus.fingerprint.self_s": ("s", "lower", "setup_s wall_s", "wide_vectors"),
    "normalize.apply.calls": ("count", "lower", "wall_s", "wide_vectors"),
    "normalize.apply.self_s": ("s", "lower", "wall_s", "wide_vectors"),
    "normalize.prefilter_pass.calls": ("count", "lower", "wall_s", "wide_vectors"),
    "matcher.parse_pattern.calls": ("count", "lower", "wall_s", "bundled wide_rules"),
    "matcher.parse_pattern.self_s": ("s", "lower", "wall_s", "bundled wide_rules"),
    "matcher.compile_signature.calls": ("count", "lower", "wall_s", "wide_rules"),
    "matcher.compile_signature.self_s": ("s", "lower", "wall_s", "wide_rules"),
    "matcher.detection_matrix.calls": ("count", "lower", "wall_s cells_per_s", "wide_vectors; no change on matrix_roundtrip"),
    "matcher.detection_matrix.self_s": ("s", "lower", "wall_s cells_per_s", "wide_vectors; no change on matrix_roundtrip"),
    "matcher.cells": ("cells", "lower", "wall_s", "wide_vectors"),
    "matcher.hit_ratio": ("ratio", "higher", "wall_s", "wide_vectors"),
    "matcher.full_pipeline_bypass.calls": ("count", "lower", "wall_s", "wide_vectors"),
    "matcher.full_pipeline_bypass.total_s": ("s", "lower", "wall_s", "wide_vectors"),
    "matcher.matches.calls": ("count", "lower", "wall_s", "wide_rules"),
    "matcher.DetectionMatrix.to_json.self_s": ("s", "lower", "wall_s", "matrix_roundtrip"),
    "matcher.DetectionMatrix.from_json.self_s": ("s", "lower", "wall_s", "matrix_roundtrip"),
    "structural.extract_operators.calls": ("count", "lower", "wall_s", "bundled wide_rules"),
    "structural.extract_operators.self_s": ("s", "lower", "wall_s", "bundled wide_rules"),
    "structural.expand_subrules.self_s": ("s", "lower", "wall_s", "wide_rules"),
    "structural.subrules": ("count", "lower", "wall_s", "wide_rules"),
    "structural.bounded_specials.self_s": ("s", "lower", "wall_s", "wide_rules"),
    "structural.bounds": ("count", "lower", "wall_s", "wide_rules"),
    "mutate.targeted_repeats.calls": ("count", "lower", "wall_s", "wide_rules"),
    "mutate.targeted_repeats.self_s": ("s", "lower", "wall_s", "wide_rules"),
    "mutate.mutants": ("count", "lower", "wall_s", "wide_rules"),
    "classify.classify_semirelevant.self_s": ("s", "lower", "wall_s", "wide_vectors"),
    "classify.probe_susceptible.total_s": ("s", "lower", "wall_s", "wide_rules"),
    "classify.escape_ratio": ("ratio", "higher", "wall_s", "wide_rules"),
    "classify.classify_redundant.self_s": ("s", "lower", "wall_s", "wide_rules"),
    "classify.classify_inconsistent.self_s": ("s", "lower", "wall_s", "wide_vectors"),
    "classify.classify_inconsistent.total_s": ("s", "lower", "wall_s", "wide_vectors"),
    "stats.contribution.self_s": ("s", "lower", "wall_s", "matrix_roundtrip"),
    "stats.overlap.self_s": ("s", "lower", "wall_s", "matrix_roundtrip"),
    "report.run_audit.self_s": ("s", "lower", "wall_s", "wide_vectors"),
    "report.render.self_s": ("s", "lower", "wall_s", "wide_rules"),
    "report.bytes": ("bytes", "lower", "wall_s", "wide_rules"),
    "cli.main.self_s": ("s", "lower", "wall_s", "bundled"),
    "trace.overhead_s": ("s", "lower", "wall_s", "bundled"),
}

# Per-layer metrics that are counts taken at span boundaries, not times.
COUNT_METRICS = {
    "matcher.cells": "cells",
    "structural.subrules": "subrules",
    "structural.bounds": "bounds",
    "mutate.mutants": "mutants",
    "report.bytes": "report_bytes",
}


class Failure(Exception):
    """An operation whose exit code or output check failed."""


def _env() -> dict:
    """The caller's environment, with the checkout's sources first on the path
    and byte-code caching and stdout buffering as in a default install."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(cmd: list[str], stdout_path: Path, deadline: float | None) -> tuple[int, float, float]:
    """Run one process to exit, killing it at ``deadline`` (a perf_counter time).

    Returns the exit code, wall seconds and peak RSS in MiB."""
    err_path = stdout_path.with_name(stdout_path.name + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill) if deadline else None
        if killer:
            killer.start()
        # wait4, unlike Popen.wait, returns this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        if killer:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        detail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        print(f"  exit {proc.returncode}: {' '.join(cmd[-6:])}: {detail}")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# output checks


def recorded_digests(wl: workloads.Workload) -> list[str] | None:
    """The stdout digests recorded for this workload and seed, if any."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8")).get(wl.name, {})
    entry = table.get(str(wl.seed)) or table.get("*")
    if entry is None:
        return None
    if entry["inputs"] != wl.files_sha256:
        raise ValueError(f"the inputs of {wl.name} seed {wl.seed} differ from the recorded ones")
    return entry["stdout"]


def _check_audit(wl: workloads.Workload, report: dict) -> None:
    profile = report["profile"]
    if profile["total_vectors"] != wl.vectors:
        raise Failure(f"total_vectors {profile['total_vectors']} != {wl.vectors}")
    counts = {row["signature"]: row["count"] for row in profile["ranking"]}
    if wl.name == "bundled":
        if profile["ranking"][0] != workloads.BUNDLED_TOP:
            raise Failure(f"top contributor {profile['ranking'][0]} != {workloads.BUNDLED_TOP}")
        if report["overlap"] != workloads.BUNDLED_OVERLAP:
            raise Failure(f"overlap {report['overlap']} != {workloads.BUNDLED_OVERLAP}")
        if report["bypass"]["vector_ids"] != sorted(workloads.BUNDLED_BYPASS):
            raise Failure(f"bypass set {report['bypass']['vector_ids']}")
    for sid, expected in wl.oracle_rows.items():
        if counts.get(sid) != expected:
            raise Failure(f"row count of {sid}: program {counts.get(sid)}, oracle {expected}")


def _check_roundtrip(wl: workloads.Workload, matrix: dict, stats_doc: dict) -> None:
    if len(matrix["signature_ids"]) != wl.rules or len(matrix["vector_ids"]) != wl.vectors:
        raise Failure("exported matrix has the wrong shape")
    index = {vid: i for i, vid in enumerate(matrix["vector_ids"])}
    for sid, vid, bit in wl.oracle_cells:
        if matrix["rows"][sid][index[vid]] != bit:
            raise Failure(f"exported cell ({sid}, {vid}) != oracle {bit}")
    counts = {row["signature"]: row["count"] for row in stats_doc["profile"]["ranking"]}
    for sid, cells in matrix["rows"].items():
        if counts.get(sid) != sum(cells):
            raise Failure(f"stats count of {sid} {counts.get(sid)} != exported row sum {sum(cells)}")


class Checker:
    """Compares each operation's stdout with the expected digests and the oracles.

    Without expected digests the first checked operation sets them.
    """

    def __init__(self, wl: workloads.Workload, expected: list[str] | None):
        self.wl = wl
        self.expected = expected

    def check(self, outputs: list[Path]) -> None:
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs]
        if self.expected is None:
            self.expected = digests
        if digests != self.expected:
            raise Failure(f"stdout sha256 {digests} != expected {self.expected}")
        try:
            docs = [json.loads(p.read_bytes()) for p in outputs]
            if self.wl.name == "matrix_roundtrip":
                _check_roundtrip(self.wl, *docs)
            else:
                _check_audit(self.wl, docs[0])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise Failure(f"malformed output: {exc!r}") from exc


# ---------------------------------------------------------------------------
# operations


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *args]


def run_op(wl: workloads.Workload, work: Path, traced: bool = False, deadline: float | None = None):
    """One operation; returns (wall seconds, peak RSS MiB, outputs, trace summaries)."""
    outputs, summaries = [], []
    wall = rss = 0.0
    matrix_out = work / "matrix.json"
    for k, args in enumerate(wl.steps(matrix_out)):
        out = matrix_out if k == 0 and wl.name == "matrix_roundtrip" else work / f"stdout{k}"
        if traced:
            summary_path = work / f"trace{k}.json"
            cmd = [
                sys.executable, str(ROOT / "perfbench" / "trace.py"),
                str(ROOT), str(work / f"spans{k}.tsv"), str(summary_path), str(out), "--", *args,
            ]
            status, step_wall, step_rss = _spawn(cmd, work / f"trace{k}.log", deadline)
        else:
            status, step_wall, step_rss = _spawn(_cli(args), out, deadline)
        if status != 0:
            raise Failure(f"step {k} exited with {status}")
        if traced:
            summary = json.loads((work / f"trace{k}.json").read_text(encoding="utf-8"))
            step_wall -= summary["post_s"]
            summaries.append(summary)
        wall += step_wall
        rss = max(rss, step_rss)
        outputs.append(out)
    return wall, rss, outputs, summaries


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest order statistic with min(10, n // 4) samples beyond it, and that count.

    A run holds 3 to 25 operations, too few for a percentile with ten
    samples beyond it that lies above the median, so with fewer than 40
    samples this is about the 75th percentile. On the workloads with 3 to 6
    operations per run it spread up to 0.17 of its median over ten runs, so
    it is printed but not reported as a gated metric.
    """
    ordered = sorted(samples)
    beyond = min(10, len(ordered) // 4)
    return ordered[len(ordered) - 1 - beyond], beyond


def reference_time(work: Path, deadline: float) -> float:
    """Wall time of the reference task in a fresh interpreter."""
    status, wall, _ = _spawn([sys.executable, "-c", REFERENCE], work / "reference.out", deadline)
    if status != 0:
        raise Failure("reference task failed")
    return wall


def setup_once(wl: workloads.Workload, work: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing sig_audit and loading the corpus."""
    cmd = [sys.executable, "-c", SETUP, str(wl.sig_path), str(wl.vec_path)]
    status, wall, _ = _spawn(cmd, work / "setup.out", deadline)
    if status != 0:
        raise Failure("corpus set-up failed")
    return wall


def closed_loop(seconds: float, op, min_calls: int) -> int:
    """Call ``op`` at least ``min_calls`` times, then until the next call would
    end after ``seconds``; returns the calls made."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        op()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_calls and elapsed + statistics.median(durations) > seconds:
            return len(durations)


def layer_metrics(summaries: list[dict], overhead: float) -> dict:
    """Per-layer metrics of one traced operation (its steps summed)."""
    layers: dict = {}
    counts: dict = {}
    for s in summaries:
        for name, row in s["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    values = {}
    for metric in PER_LAYER:
        if metric in COUNT_METRICS:
            values[metric] = counts[COUNT_METRICS[metric]]
        elif metric.startswith("trace."):
            values[metric] = overhead
        elif metric == "matcher.hit_ratio":
            values[metric] = counts["hits"] / counts["cells"] if counts["cells"] else 0.0
        elif metric == "classify.escape_ratio":
            calls = layers["matcher.matches"]["calls"]
            values[metric] = counts["witnesses"] / calls if calls else 0.0
        else:
            layer, stat = metric.rsplit(".", 1)
            if layer == "corpus.fingerprint":
                layer = "corpus.Corpus.fingerprint"
            values[metric] = layers[layer][stat]
    return values


def _check_trace(summaries: list[dict]) -> None:
    for s in summaries:
        if abs(s["self_sum_s"] - s["root_s"]) > 1e-6 * max(1.0, s["root_s"]):
            raise Failure(f"self times sum to {s['self_sum_s']} s, root span is {s['root_s']} s")


def _counts_of(summaries: list[dict]) -> list:
    return [(s["counts"], {k: v["calls"] for k, v in s["layers"].items()}) for s in summaries]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    for needed in ("src/sig_audit/cli.py", "tests/oracles.py", workloads.BUNDLED_SIGS):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {ROOT / needed} is missing; run from the root of a sig-audit checkout", file=sys.stderr)
            return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if listed != END_TO_END | {name: row[0] for name, row in PER_LAYER.items()}:
        print("perfbench: BENCHMARK.json and perfbench/run.py list different metrics", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}"
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    wl = workloads.build(ROOT, args.workload, args.seed, work)
    print(f"workload {wl.name} seed {wl.seed}: {workloads.dump(wl)}")
    try:
        expected = recorded_digests(wl)
    except ValueError as exc:
        print(f"perfbench: {exc}; record the digests again with perfbench/record.py", file=sys.stderr)
        return 2
    print(f"  stdout digests: {'recorded' if expected else 'not recorded for this seed; first operation is the reference'}")
    checker = Checker(wl, expected)
    attempted = failed = 0
    traced: list[list[dict]] = []  # trace summaries of each traced operation

    def one(trace_it: bool):
        """One checked operation; returns (wall, peak RSS, trace summaries) or None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            wall, rss, outputs, summaries = run_op(wl, ROOT / work, trace_it, deadline)
            checker.check(outputs)
            if trace_it:
                _check_trace(summaries)
                if traced and _counts_of(summaries) != _counts_of(traced[0]):
                    raise Failure("counts differ between traced operations")
        except Failure as exc:
            failed += 1
            print(f"  operation {attempted} FAILED: {exc}")
            return None
        return wall, rss, summaries

    if args.trace:
        walls, traced_walls = [], []

        def pair() -> None:
            got = one(False)
            if got is not None:
                walls.append(got[0])
            got = one(True)
            if got is not None:
                traced_walls.append(got[0])
                traced.append(got[2])

        closed_loop(args.seconds, pair, MIN_TRACED)
        ok = bool(walls) and len(traced) >= MIN_TRACED
        overhead = statistics.median(traced_walls) - statistics.median(walls) if ok else 0.0
        per_op = [layer_metrics(s, overhead) for s in traced] if ok else []
        metrics = {
            name: {"value": statistics.median(op[name] for op in per_op) if per_op else 0.0, "unit": PER_LAYER[name][0]}
            for name in PER_LAYER
        }
        print(f"  traced operations {len(traced)}, untraced {len(walls)}, tracing overhead {overhead:.4f} s")
    else:
        # The first set-up writes byte code and fills the file cache. After
        # that the reference task runs before the set-ups and after every
        # operation, and each set-up and operation time is scaled to
        # REFERENCE_S by the reference time(s) next to it.
        setup_once(wl, ROOT / work, deadline)
        refs = [reference_time(ROOT / work, deadline)]
        setups = [setup_once(wl, ROOT / work, deadline) * REFERENCE_S / refs[0] for _ in range(SETUP_REPEATS)]
        walls, scaled, rsses = [], [], []

        def step() -> None:
            setups.append(setup_once(wl, ROOT / work, deadline) * REFERENCE_S / refs[-1])
            got = one(False)
            refs.append(reference_time(ROOT / work, deadline))
            if got is not None:
                walls.append(got[0])
                rsses.append(got[1])
                scaled.append(got[0] * REFERENCE_S * 2 / (refs[-2] + refs[-1]))

        closed_loop(args.seconds, step, MIN_OPS)
        ok = bool(walls)
        wall = statistics.median(scaled) if ok else 0.0
        wall_tail, beyond = tail(scaled) if ok else (0.0, 0)
        values = {
            "wall_s": wall,
            "cells_per_s": wl.cells / wall if ok else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rsses) if ok else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"  raw wall times of {len(walls)} operations (s): {' '.join(f'{w:.3f}' for w in walls)}")
        print(f"  reference task times (s): {' '.join(f'{r:.3f}' for r in refs)}")
        if ok:
            print(f"  raw wall_s {statistics.median(walls):.4f} s; scaled wall_s {wall:.4f} s")
        # Printed, not reported: see tail().
        print(f"  scaled wall_tail_s {wall_tail:.4f} s with {beyond} of {len(scaled)} samples beyond it")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    result = {"correct": failed == 0 and ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
