"""Run one ``sig-audit`` command in-process with timing spans around each layer.

Usage: python3 perfbench/trace.py ROOT SPANS_OUT SUMMARY_OUT STDOUT_OUT -- CLI_ARGS...

Wraps the public functions of every module named in ``TARGETS`` from
outside the program, calls ``sig_audit.cli.main`` with stdout captured,
keeps spans in memory (name, start, end, parent span) and writes them
out when the command has finished. The summary holds per-function call
counts, self and total times, and the work counts taken at the same
boundaries.
"""

from __future__ import annotations

import io
import json
import sys
import time
from array import array
from pathlib import Path

TARGETS = {
    "corpus": ["load_corpus", "Corpus.fingerprint"],
    "normalize": ["apply", "prefilter_pass"],
    "matcher": [
        "parse_pattern",
        "compile_signature",
        "detection_matrix",
        "full_pipeline_bypass",
        "matches",
        "DetectionMatrix.to_json",
        "DetectionMatrix.from_json",
    ],
    "structural": ["extract_operators", "expand_subrules", "bounded_specials"],
    "mutate": ["targeted_repeats"],
    "classify": [
        "classify_semirelevant",
        "probe_susceptible",
        "classify_redundant",
        "classify_inconsistent",
    ],
    "stats": ["contribution", "overlap"],
    "report": ["run_audit", "render"],
    "cli": ["main"],
}

# Names bound by ``from .x import y`` that must resolve to the wrapper.
ALIASES = [("classify", "compile_signature"), ("structural", "parse_pattern")]


COUNTERS = {
    "matcher.detection_matrix": lambda m: {
        "cells": len(m.signature_ids) * len(m.vector_ids),
        "hits": sum(row.bit_count() for row in m.rows),
    },
    "structural.expand_subrules": lambda subs: {"subrules": len(subs.subrules)},
    "structural.bounded_specials": lambda bounds: {"bounds": len(bounds)},
    "mutate.targeted_repeats": lambda mutants: {"mutants": len(mutants)},
    "classify.probe_susceptible": lambda f: {"witnesses": len(f.evidence["witnesses"]) if f else 0},
    "report.render": lambda data: {"report_bytes": len(data)},
}


class Tracer:
    """Span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = dict.fromkeys(
            ("cells", "hits", "subrules", "bounds", "mutants", "witnesses", "report_bytes"), 0
        )

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack, counts = self.stack, self.counts
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "sig_audit") -> dict:
        """Wrap every target and rebind each module-level name that refers to it."""
        import importlib

        modules = {m: importlib.import_module(f"{package}.{m}") for m in TARGETS}
        replaced = {}
        for mod_name, attrs in TARGETS.items():
            mod = modules[mod_name]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, property):
                        setattr(cls, meth, property(self.wrap(name, raw.fget)))
                    elif isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
                else:
                    orig = getattr(mod, attr)
                    replaced[id(orig)] = (orig, self.wrap(name, orig))
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(package):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        for mod_name, attr in ALIASES:
            if not hasattr(getattr(modules[mod_name], attr), "__wrapped__"):
                raise RuntimeError(f"{mod_name}.{attr} was not rebound to its wrapper")
        return modules

    def summary(self) -> dict:
        """Per-name calls, self and total seconds; checks span nesting."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                if not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                    raise RuntimeError(f"span {i} is not inside its parent {p}")
                child[p] += dur[i]
        layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        roots = 0.0
        self_sum = 0.0
        for i in range(n):
            nid = self.name_id[i]
            row = layers[self.names[nid]]
            row["calls"] += 1
            own = dur[i] - child[i]
            row["self_s"] += own
            self_sum += own
            # total time counts only the outermost span of a name on each path
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                row["total_s"] += dur[i]
            if self.parent[i] < 0:
                roots += dur[i]
        return {"spans": n, "root_s": roots, "self_sum_s": self_sum, "layers": layers, "counts": self.counts}

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    root, spans_out, summary_out, stdout_out = (Path(a) for a in argv[:sep])
    cli_args = argv[sep + 1 :]
    sys.path.insert(0, str(root / "src"))

    tracer = Tracer()
    modules = tracer.install()
    if not Path(modules["cli"].__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"sig_audit imported from {modules['cli'].__file__}, not from {root}/src")

    captured = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        status = modules["cli"].main(cli_args)
    finally:
        sys.stdout = real_stdout
    done = time.perf_counter()

    stdout_out.write_bytes(captured.buffer.getvalue())
    tracer.write_spans(spans_out)
    summary = tracer.summary()
    summary["status"] = status
    summary["post_s"] = time.perf_counter() - done
    summary_out.write_text(json.dumps(summary, sort_keys=True), encoding="utf-8")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
