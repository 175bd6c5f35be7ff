"""Signature compilation and the detection matrix.

Signatures compile in a bounded regex dialect (literals, classes,
groups, alternation, ^/$ anchors, finite and infinite quantifiers with
lazy variants, the usual class escapes). Backreferences, lookaround and
inline flags are rejected so evaluation cost stays predictable across a
whole rule set.

The detection matrix holds one packed bit row per signature, bit i set
when the signature matches transformed vector i. Row subset tests are
plain integer masking.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

try:  # renamed to a private module in newer interpreters
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_constants
    import sre_parse

from . import normalize
from .errors import ParseError, RegexDialectError

_ALLOWED_CATEGORIES = {
    sre_constants.CATEGORY_DIGIT,
    sre_constants.CATEGORY_NOT_DIGIT,
    sre_constants.CATEGORY_SPACE,
    sre_constants.CATEGORY_NOT_SPACE,
    sre_constants.CATEGORY_WORD,
    sre_constants.CATEGORY_NOT_WORD,
}

_ALLOWED_ANCHORS = {
    sre_constants.AT_BEGINNING,
    sre_constants.AT_END,
}


def parse_pattern(source: str, signature_id: str | None = None):
    """Parse a pattern and verify it stays inside the supported dialect.

    Returns the parsed node sequence so structural analysis can reuse it.
    """
    try:
        tree = sre_parse.parse(source)
    except re.error as exc:
        raise RegexDialectError(signature_id, f"unparsable pattern: {exc}") from exc
    # a str pattern always carries the unicode flag; (?u) adds nothing
    if tree.state.flags & ~sre_constants.SRE_FLAG_UNICODE:
        raise RegexDialectError(signature_id, "inline flags are not supported")
    _check_nodes(tree, signature_id)
    return tree


def validate_dialect(source: str, signature_id: str | None = None) -> None:
    parse_pattern(source, signature_id)


def _check_nodes(nodes, sig_id) -> None:
    for op, arg in nodes:
        if op in (sre_constants.LITERAL, sre_constants.NOT_LITERAL, sre_constants.ANY):
            continue
        if op is sre_constants.IN:
            for mop, marg in arg:
                if mop in (sre_constants.LITERAL, sre_constants.RANGE, sre_constants.NEGATE):
                    continue
                if mop is sre_constants.CATEGORY and marg in _ALLOWED_CATEGORIES:
                    continue
                raise RegexDialectError(sig_id, f"unsupported class item: {mop}")
        elif op is sre_constants.AT:
            if arg not in _ALLOWED_ANCHORS:
                raise RegexDialectError(sig_id, f"unsupported anchor: {arg}")
        elif op in (sre_constants.MAX_REPEAT, sre_constants.MIN_REPEAT):
            _check_nodes(arg[2], sig_id)
        elif op is sre_constants.SUBPATTERN:
            group, add_flags, del_flags, body = arg
            if add_flags or del_flags:
                raise RegexDialectError(sig_id, "inline flags are not supported")
            _check_nodes(body, sig_id)
        elif op is sre_constants.BRANCH:
            for branch in arg[1]:
                _check_nodes(branch, sig_id)
        elif op in (sre_constants.GROUPREF, sre_constants.GROUPREF_EXISTS):
            raise RegexDialectError(sig_id, "backreferences are not supported")
        elif op in (sre_constants.ASSERT, sre_constants.ASSERT_NOT):
            raise RegexDialectError(sig_id, "lookaround is not supported")
        else:
            raise RegexDialectError(sig_id, f"unsupported construct: {op}")


@dataclass(frozen=True)
class CompiledSignature:
    signature_id: str
    pattern: re.Pattern
    case_insensitive: bool = True


def compile_signature(signature, case_sensitive: bool = False) -> CompiledSignature:
    """Validate the dialect (through the signature's one parse,
    ``Signature.tree``) and compile. Matching is case-insensitive by
    default; rule sets are written lowercase but must catch mixed-case
    payloads even in raw mode."""
    signature.tree  # parses and checks the dialect on first use
    flags = 0 if case_sensitive else re.IGNORECASE
    return CompiledSignature(
        signature_id=signature.id,
        pattern=re.compile(signature.pattern_source, flags),
        case_insensitive=not case_sensitive,
    )


def matches(compiled: CompiledSignature, text: str) -> bool:
    """Unanchored substring search: true iff the pattern occurs anywhere."""
    return compiled.pattern.search(text) is not None


@dataclass(frozen=True)
class DetectionMatrix:
    """Boolean signature x vector matrix with packed bit rows.

    Bit i of ``rows[n]`` is set when signature n matched vector i after
    the pipeline's transforms. Row n materializes the set of vectors the
    signature detects under that pipeline.
    """

    signature_ids: tuple[str, ...]
    vector_ids: tuple[str, ...]
    rows: tuple[int, ...]
    pipeline_fingerprint: str

    # id -> position indexes, built on first use (not compared or exported)
    @functools.cached_property
    def _row_of(self) -> dict[str, int]:
        return {sid: n for n, sid in enumerate(self.signature_ids)}

    @functools.cached_property
    def _column_of(self) -> dict[str, int]:
        return {vid: i for i, vid in enumerate(self.vector_ids)}

    def cell(self, signature_id: str, vector_id: str) -> bool:
        return bool(self.row_bits(signature_id) >> self._column_of[vector_id] & 1)

    def row_bits(self, signature_id: str) -> int:
        return self.rows[self._row_of[signature_id]]

    def detected_indices(self, signature_id: str) -> list[int]:
        """Positions in ``vector_ids`` of the vectors the signature detects."""
        return bit_indices(self.row_bits(signature_id))

    def detected_ids(self, signature_id: str) -> frozenset[str]:
        return frozenset(self.vector_ids[i] for i in self.detected_indices(signature_id))

    def row_counts(self) -> dict[str, int]:
        return {
            sid: row.bit_count()
            for sid, row in zip(self.signature_ids, self.rows)
        }

    def union_bits(self, signature_ids) -> int:
        bits = 0
        for sid in signature_ids:
            bits |= self.row_bits(sid)
        return bits

    def to_csv(self) -> str:
        n = len(self.vector_ids)
        lines = ["signature_id," + ",".join(self.vector_ids)]
        for sid, row in zip(self.signature_ids, self.rows):
            lines.append(f"{sid}," + ",".join(_cell_digits(row, n)))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "pipeline_fingerprint": self.pipeline_fingerprint,
            "vector_ids": list(self.vector_ids),
            "rows": {
                sid: list(map(int, _cell_digits(row, len(self.vector_ids))))
                for sid, row in zip(self.signature_ids, self.rows)
            },
            "signature_ids": list(self.signature_ids),
            "row_sums": self.row_counts(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DetectionMatrix":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid matrix JSON: {exc}") from exc
        try:
            signature_ids = tuple(doc["signature_ids"])
            vector_ids = tuple(doc["vector_ids"])
            rows = []
            for sid in signature_ids:
                cells = doc["rows"][sid]
                if len(cells) != len(vector_ids):
                    raise ParseError(
                        f"matrix row {sid} has {len(cells)} cells for {len(vector_ids)} vectors"
                    )
                rows.append(_row_of_cells(cells))
            fingerprint = doc.get("pipeline_fingerprint", "")
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad matrix JSON: {exc!r}") from exc
        return cls(
            signature_ids=signature_ids,
            vector_ids=vector_ids,
            rows=tuple(rows),
            pipeline_fingerprint=fingerprint,
        )


def _cell_digits(row: int, n: int) -> str:
    """The row's n cells as '0'/'1' digits, vector 0 first."""
    return format(row, f"0{n}b")[::-1] if n else ""  # format(0, "00b") is "0"


def _row_of_cells(cells) -> int:
    """The packed row of a cell list (any truthy cell is a hit)."""
    return int("".join("1" if cell else "0" for cell in reversed(cells)) or "0", 2)


def bit_indices(bits: int) -> list[int]:
    """Ascending positions of the set bits of ``bits``."""
    digits = bin(bits)[:1:-1]  # least significant first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _row_bits(compiled: CompiledSignature, texts: list[str], forwarded: list[bool]) -> int:
    bits = 0
    for i, text in enumerate(texts):
        if forwarded[i] and compiled.pattern.search(text) is not None:
            bits |= 1 << i
    return bits


def detection_matrix(
    corpus,
    pipeline: normalize.Pipeline,
    case_sensitive: bool = False,
    apply_prefilter: bool = False,
    compiled: list[CompiledSignature] | None = None,
) -> DetectionMatrix:
    """Evaluate every signature against every transformed payload.

    The prefilter is not applied unless asked for: rows describe what
    the rules themselves can detect. ``apply_prefilter=True`` gives the
    deployed view where skipped payloads reach no rule. ``compiled``
    holds the corpus signatures already compiled, in corpus order.
    """
    if compiled is None:
        compiled = [compile_signature(s, case_sensitive) for s in corpus.signatures]
    texts = [normalize.apply(pipeline, v.payload) for v in corpus.vectors]
    if apply_prefilter:
        forwarded = [normalize.prefilter_pass(pipeline, t) for t in texts]
    else:
        forwarded = [True] * len(texts)
    return DetectionMatrix(
        signature_ids=tuple(s.id for s in corpus.signatures),
        vector_ids=tuple(v.id for v in corpus.vectors),
        rows=tuple(_row_bits(c, texts, forwarded) for c in compiled),
        pipeline_fingerprint=pipeline.fingerprint,
    )


def full_pipeline_bypass(
    corpus,
    pipeline: normalize.Pipeline,
    case_sensitive: bool = False,
    deployed: DetectionMatrix | None = None,
) -> frozenset[str]:
    """Vector ids that sail through the whole stack.

    A vector is bypassed when the prefilter skips it or no signature
    matches its transformed payload. ``deployed`` is the corpus matrix
    under ``pipeline`` with the prefilter applied, when the caller has
    already built it.
    """
    if deployed is None:
        deployed = detection_matrix(
            corpus, pipeline, case_sensitive=case_sensitive, apply_prefilter=True
        )
    covered = 0
    for row in deployed.rows:
        covered |= row
    uncovered = ~covered & ((1 << len(deployed.vector_ids)) - 1)
    return frozenset(deployed.vector_ids[i] for i in bit_indices(uncovered))
