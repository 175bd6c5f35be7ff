"""Seeded workload corpora for the audit benchmark.

Every generated corpus is built from the bundled data files and this
module's own transforms, never from ``sig_audit.mutate``, so a change to
the program cannot change the workload. The same seed gives
byte-identical files.

Expected answers that do not trust the program are computed here, once
per generated corpus, with the brute-force matcher of ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("bundled", "wide_vectors", "wide_rules", "matrix_roundtrip")

DATA = Path("src/sig_audit/data")
BUNDLED_SIGS = DATA / "phpids_sqli_signatures.tsv"
BUNDLED_VECS = DATA / "phpids_sqli_vectors.tsv"

VARIANTS_PER_VECTOR = 18
UNION_RULES = 166
ORACLE_ROWS = {"wide_vectors": 3, "wide_rules": 12}
ORACLE_CELLS = 1500

# The published figures of the paper's corpus (see README "Bundled dataset").
BUNDLED_TOP = {"signature": "S_7", "count": 209, "share_pct": 50.4}
BUNDLED_OVERLAP = {"both": 355, "only_a": 31, "only_b": 29, "neither": 0}
BUNDLED_BYPASS = {
    "v08_1": '(1)or (5/"1")',
    "v09_1": "1 or @user",
    "v75_1": "1 and 1 or 1 having 1",
}


@dataclass
class Workload:
    """Files, shape and program-independent expectations of one workload."""

    name: str
    seed: int
    sig_path: Path  # relative to the checkout root
    vec_path: Path
    rules: int
    vectors: int
    files_sha256: dict = field(default_factory=dict)
    oracle_rows: dict = field(default_factory=dict)  # raw pipeline row counts
    oracle_cells: list = field(default_factory=list)  # [sid, vid, bit], default pipeline

    @property
    def cells(self) -> int:
        return self.rules * self.vectors

    def steps(self, matrix_out: Path) -> list[list[str]]:
        """CLI argument lists of one operation, run one after another."""
        corpus = ["--signatures", str(self.sig_path), "--vectors", str(self.vec_path)]
        if self.name == "bundled":
            return [["audit"]]
        if self.name == "matrix_roundtrip":
            return [["matrix", "--format", "json", *corpus], ["stats", "--matrix", str(matrix_out)]]
        return [["audit", *corpus]]


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [l.split("\t") for l in lines if l.strip() and not l.startswith("#")]


# ---------------------------------------------------------------------------
# tamper variants of one payload

_SPACE_RUN = re.compile(r" +")
_DIGITS = re.compile(r"\d+")


def _pick(pattern: re.Pattern, payload: str, rng: random.Random):
    found = list(pattern.finditer(payload))
    return rng.choice(found) if found else None


def _splice(payload: str, m, text: str) -> str:
    return payload[: m.start()] + text + payload[m.end() :]


def _case_toggle(payload: str, rng: random.Random) -> str:
    return "".join(c.swapcase() if c.isalpha() and rng.random() < 0.5 else c for c in payload)


def _wider_space(payload: str, rng: random.Random) -> str:
    m = _pick(_SPACE_RUN, payload, rng)
    return payload if m is None else _splice(payload, m, " " * rng.randint(2, 6))


def _reencode_space(payload: str, rng: random.Random) -> str:
    return _SPACE_RUN.sub(lambda m: rng.choice(("%20", "%A0")) * len(m.group()), payload)


def _inline_comment(payload: str, rng: random.Random) -> str:
    m = _pick(_SPACE_RUN, payload, rng)
    return payload if m is None else _splice(payload, m, "/**/")


def _extra_parens(payload: str, rng: random.Random) -> str:
    m = _pick(_DIGITS, payload, rng)
    return payload if m is None else _splice(payload, m, f"({m.group()})")


TAMPERS = (_case_toggle, _wider_space, _reencode_space, _inline_comment, _extra_parens)


def tamper_variants(payload: str, rng: random.Random) -> list[str]:
    """Up to VARIANTS_PER_VECTOR distinct tampered copies of a payload.

    Each variant applies one to three tampers in a seeded order; copies
    equal to the payload or to an earlier variant are dropped, and a fixed
    number of draws bounds the search for payloads with few variants.
    """
    seen = {payload}
    out = []
    for _ in range(3 * VARIANTS_PER_VECTOR):
        if len(out) == VARIANTS_PER_VECTOR:
            break
        variant = payload
        for tamper in rng.sample(TAMPERS, rng.randint(1, 3)):
            variant = tamper(variant, rng)
        if variant not in seen and "\t" not in variant and "\n" not in variant:
            seen.add(variant)
            out.append(variant)
    return out


# ---------------------------------------------------------------------------
# corpus generation


def _write(path: Path, rows: list[list[str]]) -> None:
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")


def _wide_vectors(root: Path, seed: int) -> tuple[list, list]:
    rng = random.Random(f"wide_vectors/{seed}")
    sigs = _rows(root / BUNDLED_SIGS)
    vecs = []
    for vid, target, intent, dialects, payload in _rows(root / BUNDLED_VECS):
        vecs.append([vid, target, intent, dialects, payload])
        for n, variant in enumerate(tamper_variants(payload, rng), start=1):
            vecs.append([f"{vid}_t{n:02d}", target, intent, dialects, variant])
    return sigs, vecs


def _balanced_pairs(n: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """``count`` distinct unordered pairs of range(n) in which every index
    appears equally often (neighbours on seeded random cycles), so the
    workload's cost does not hinge on which rules the seed happens to pick."""
    while True:
        pairs: list[tuple[int, int]] = []
        while len(pairs) < count:
            cycle = rng.sample(range(n), n)
            pairs += [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
        pairs = pairs[:count]
        if len({frozenset(p) for p in pairs}) == count:
            return pairs


def _wide_rules(root: Path, seed: int) -> tuple[list, list]:
    rng = random.Random(f"wide_rules/{seed}")
    sigs = _rows(root / BUNDLED_SIGS)
    pairs = _balanced_pairs(len(sigs), UNION_RULES, rng)
    unions = [
        [f"U_{n:03d}", f"(?:{sigs[a][1]})|(?:{sigs[b][1]})", f"union of {sigs[a][0]} and {sigs[b][0]}"]
        for n, (a, b) in enumerate(pairs, start=1)
    ]
    return sigs + unions, _rows(root / BUNDLED_VECS)


def _oracles(root: Path):
    """The brute-force matcher and pipeline, imported from the checkout."""
    for path in (root / "src", root / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import oracles
    from sig_audit import normalize

    return oracles.naive_search, normalize


def build(root: Path, name: str, seed: int, work: Path) -> Workload:
    """Write the workload's files under ``work`` (an existing directory relative
    to ``root``) and compute its expectations."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if name == "bundled":
        sigs, vecs = _rows(root / BUNDLED_SIGS), _rows(root / BUNDLED_VECS)
        sig_path, vec_path = BUNDLED_SIGS, BUNDLED_VECS
    else:
        gen = _wide_rules if name == "wide_rules" else _wide_vectors
        sigs, vecs = gen(root, seed)
        sig_path, vec_path = work / "signatures.tsv", work / "vectors.tsv"
        _write(root / sig_path, sigs)
        _write(root / vec_path, vecs)
    wl = Workload(name, seed, sig_path, vec_path, rules=len(sigs), vectors=len(vecs))
    wl.files_sha256 = {
        p.name: hashlib.sha256((root / p).read_bytes()).hexdigest() for p in (sig_path, vec_path)
    }
    if name == "bundled":
        payloads = {v[0]: v[4] for v in vecs}
        if any(payloads.get(vid) != p for vid, p in BUNDLED_BYPASS.items()):
            raise ValueError("bundled vectors no longer hold the three documented bypass payloads")
        return wl

    naive_search, normalize = _oracles(root)
    rng = random.Random(f"{name}/{seed}/oracle")
    if name in ORACLE_ROWS:
        for sid, pattern, *_ in rng.sample(sigs, ORACLE_ROWS[name]):
            wl.oracle_rows[sid] = sum(naive_search(pattern, v[4]) for v in vecs)
    else:
        pipeline = normalize.default_pipeline()
        for _ in range(ORACLE_CELLS):
            sid, pattern, *_ = rng.choice(sigs)
            vec = rng.choice(vecs)
            vid, payload = vec[0], vec[4]
            hit = naive_search(pattern, normalize.apply(pipeline, payload))
            wl.oracle_cells.append([sid, vid, int(hit)])
    return wl


def dump(wl: Workload) -> str:
    """The workload's shape, input digests and oracle row counts as one JSON line."""
    return json.dumps(
        {
            "workload": wl.name,
            "seed": wl.seed,
            "rules": wl.rules,
            "vectors": wl.vectors,
            "cells": wl.cells,
            "files_sha256": wl.files_sha256,
            "oracle_rows": wl.oracle_rows,
        },
        sort_keys=True,
    )
