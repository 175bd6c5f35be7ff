"""Signature compilation and the detection matrix.

Signatures compile in a bounded regex dialect (literals, classes,
groups, alternation, ^/$ anchors, finite and infinite quantifiers with
lazy variants, the usual class escapes). Backreferences, lookaround and
inline flags are rejected so evaluation cost stays predictable across a
whole rule set.

A pattern compiles from its one parse: ``parse_pattern`` reads the
source once, and the tree it returns is checked, read by the structural
passes and handed to the compiler, which is given the flags as a plain
int. A pattern compiled that way has ``Pattern.pattern`` None; its
``.flags`` and its searches are those of ``re.compile(source, flags)``.

The detection matrix holds one packed bit row per signature, bit i set
when the signature matches transformed vector i. Row subset tests are
plain integer masking.

A row is built over match keys, not over the cells. A key is a
distinct forwarded text; under case-insensitive matching an ASCII text
is keyed by its lowercase form, so texts differing only in case are
searched once and share the result. Folding is exact: under
``re.IGNORECASE`` every opcode reads a character through its lowercase
form, and ``.``, ``\\d``, ``\\s``, ``\\w`` and the anchors do not depend
on case. A text that is not ASCII stays its own key (``re.IGNORECASE``
matches the long s to ``s`` and the Kelvin sign to ``k``). One
``TextIndex`` can hold several views, a view being a pipeline with or
without its prefilter; an audit's raw and deployed matrices share one,
so a rule searches each key once for both.

Each rule carries the literals its parse requires (every match contains
at least one of them), read off the parse when an index first asks for
them, and a key is searched only when it contains one.
Containment comes from ``str.find`` over one NUL-joined buffer of the
keys whose offsets map back to keys, so the precheck never drops a
match; a literal found across a separator only costs a search. Under
case-insensitive matching literals are compared lowercased, and the
precheck is skipped where that is not exact: a key that is not ASCII is
always searched, and so is every key for a rule with a literal that is
not ASCII. A rule whose parse requires no literal is searched against
every key.
"""

from __future__ import annotations

import functools
import json
import re
import warnings
from bisect import bisect_right
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field

try:  # renamed to private modules in newer interpreters
    from re import _compiler as sre_compile
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_compile
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
    # bad syntax, a huge count, deep nesting, or a construct whose meaning
    # is slated to change (the parser warns of the nested set in ``[[a]``)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tree = sre_parse.parse(source)
        except (re.error, OverflowError, RecursionError, Warning) as exc:
            raise RegexDialectError(signature_id, f"unparsable pattern: {exc}") from exc
    # a str pattern always carries the unicode flag; (?u) adds nothing
    if tree.state.flags & ~sre_constants.SRE_FLAG_UNICODE:
        raise RegexDialectError(signature_id, "inline flags are not supported")
    _check_nodes(tree, signature_id)
    return tree


def compile_pattern(source: str, signature_id: str | None = None) -> re.Pattern:
    """``re.compile(source)`` for a source in the dialect, built from its
    one parse (the pattern's ``.pattern`` is None)."""
    return sre_compile.compile(parse_pattern(source, signature_id), 0)


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


def required_literals(nodes) -> frozenset[str]:
    """Literals of which every match of ``nodes`` contains at least one,
    read off the parse; empty when the parse guarantees none.

    A run of consecutive literal nodes is one literal; a group's body
    and a repeat with minimum one or more count; a branch counts when
    every alternative has literals, giving their union. Of the parts of
    a sequence, the one whose shortest literal is longest is kept.
    """
    parts: list[frozenset[str]] = []
    run: list[str] = []
    for op, arg in nodes:
        if op is sre_constants.LITERAL:
            run.append(chr(arg))
            continue
        if run:
            parts.append(frozenset(["".join(run)]))
            run = []
        if op is sre_constants.SUBPATTERN:
            parts.append(required_literals(arg[3]))
        elif op in (sre_constants.MAX_REPEAT, sre_constants.MIN_REPEAT) and arg[0] >= 1:
            parts.append(required_literals(arg[2]))
        elif op is sre_constants.BRANCH:
            alternatives = [required_literals(branch) for branch in arg[1]]
            if all(alternatives):
                parts.append(frozenset().union(*alternatives))
    if run:
        parts.append(frozenset(["".join(run)]))
    return max(filter(None, parts), key=_selectivity, default=frozenset())


def _selectivity(literals: frozenset[str]) -> tuple[int, int]:
    # a longer shortest literal first, then fewer literals
    return min(map(len, literals)), -len(literals)


@dataclass(frozen=True)
class CompiledSignature:
    signature_id: str
    pattern: re.Pattern
    case_insensitive: bool
    tree: object = field(compare=False, repr=False)  # the parse ``pattern`` was compiled from

    @functools.cached_property
    def literals(self) -> frozenset[str]:
        """Every match contains one of these, as written in the rule
        (empty: no such literal). Read off the parse on first use: only
        a ``TextIndex`` asks, so a sub-rule compile never walks it."""
        return required_literals(self.tree)


def compile_signature(signature, case_sensitive: bool = False) -> CompiledSignature:
    """Compile the signature's one parse, ``Signature.tree`` (which also
    checks the dialect). Matching is case-insensitive by default; rule
    sets are written lowercase but must catch mixed-case payloads even
    in raw mode.

    The pattern is built from the tree, so its ``.pattern`` is None; its
    ``.flags`` and every search equal ``re.compile(source, flags)``'s.
    The flags go in as a plain int: a ``RegexFlag`` would make each flag
    test inside the compiler an enum operation, which more than triples
    the compile time.
    """
    tree = signature.tree  # parses and checks the dialect on first use
    flags = 0 if case_sensitive else re.IGNORECASE.value
    return CompiledSignature(
        signature_id=signature.id,
        pattern=sre_compile.compile(tree, flags),
        case_insensitive=not case_sensitive,
        tree=tree,
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
        """The bytes of ``json.dumps(doc, sort_keys=True)`` for the document
        whose ``rows`` hold each row as a list of 0/1 ints: each row's list
        is written from its digit string, ``json`` encodes the rest."""
        n = len(self.vector_ids)
        table = ", ".join(
            f"{encode_basestring_ascii(sid)}: [{', '.join(_cell_digits(row, n))}]"
            for sid, row in sorted(dict(zip(self.signature_ids, self.rows)).items())
        )
        head = json.dumps(
            {"pipeline_fingerprint": self.pipeline_fingerprint, "row_sums": self.row_counts()}, sort_keys=True
        )
        tail = json.dumps({"signature_ids": list(self.signature_ids), "vector_ids": list(self.vector_ids)})
        return f'{head[:-1]}, "rows": {{{table}}}, {tail[1:]}'

    @classmethod
    def from_json(cls, text: str) -> "DetectionMatrix":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid matrix JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("matrix JSON must be an object")
        signature_ids, vector_ids = _id_list(doc, "signature_ids"), _id_list(doc, "vector_ids")
        table = doc.get("rows")
        if not isinstance(table, dict):
            raise ParseError("matrix JSON 'rows' must be an object")
        rows = []
        for sid in signature_ids:
            cells = table.get(sid)
            row = _row_of_cells(cells)
            if row is None:
                raise ParseError(f"matrix row {sid} must be a list of 0/1 cells")
            if len(cells) != len(vector_ids):
                raise ParseError(f"matrix row {sid} has {len(cells)} cells for {len(vector_ids)} vectors")
            rows.append(row)
        fingerprint = doc.get("pipeline_fingerprint", "")
        if not isinstance(fingerprint, str):
            raise ParseError("matrix JSON 'pipeline_fingerprint' must be a string")
        return cls(
            signature_ids=signature_ids,
            vector_ids=vector_ids,
            rows=tuple(rows),
            pipeline_fingerprint=fingerprint,
        )


def _id_list(doc: dict, key: str) -> tuple[str, ...]:
    ids = doc.get(key)
    if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
        raise ParseError(f"matrix JSON {key!r} must be a list of id strings")
    seen = set()
    for x in ids:
        if x in seen:
            raise ParseError(f"matrix JSON {key!r} repeats id {x!r}")
        seen.add(x)
    return tuple(ids)


def _cell_digits(row: int, n: int) -> str:
    """The row's n cells as '0'/'1' digits, vector 0 first."""
    return format(row, f"0{n}b")[::-1] if n else ""  # format(0, "00b") is "0"


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _row_of_cells(cells) -> int | None:
    """The packed row of a list of 0/1 cells, None when ``cells`` is not one."""
    if not isinstance(cells, list):
        return None
    try:
        raw = bytes(cells)
    except (TypeError, ValueError):  # a cell that is not an integer in 0..255
        return None
    if raw.translate(None, b"\0\1"):
        return None
    return int(raw[::-1].translate(_DIGITS) or b"0", 2)


def bit_indices(bits: int) -> list[int]:
    """Ascending positions of the set bits of ``bits``."""
    digits = bin(bits)[:1:-1]  # least significant first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class TextIndex:
    """The distinct match keys of one or more views of a corpus.

    A view is a ``(pipeline, apply_prefilter)`` pair. Each forwarded
    column of a view maps to the key of its transformed text: the text
    itself, or under case-insensitive matching the lowercase form of an
    ASCII text (a text that is not ASCII stays its own key). The index
    keeps one NUL-joined precheck buffer of the keys, where a key that
    is not ASCII stands as an empty part and is always searched when
    folding; the mask of the keys holding each literal, a bit set over
    key positions; and for each rule the keys it matches, searched on
    first use and reused by every view.
    """

    def __init__(self, corpus, views, case_sensitive: bool = False):
        self.case_sensitive = case_sensitive
        self._size = len(corpus.vectors)
        fold = not case_sensitive
        position: dict[str, int] = {}
        grouped = {}
        for pipeline, apply_prefilter in views:
            texts: dict[str, list[int]] = {}
            for i, vector in enumerate(corpus.vectors):
                text = normalize.apply(pipeline, vector.payload)
                if not apply_prefilter or normalize.prefilter_pass(pipeline, text):
                    texts.setdefault(text, []).append(i)
            columns = grouped[pipeline, apply_prefilter] = {}
            for text, cols in texts.items():
                key = text.lower() if fold and text.isascii() else text
                columns.setdefault(position.setdefault(key, len(position)), []).extend(cols)
        self.keys = list(position)
        # per view, the columns of each key (none where the view lacks it)
        self._columns = {view: [cols.get(k, ()) for k in range(len(self.keys))] for view, cols in grouped.items()}
        unchecked = [fold and not key.isascii() for key in self.keys]
        parts = ["" if skip else key for key, skip in zip(self.keys, unchecked)]
        self._buffer = "\0".join(parts)
        self._starts = list(accumulate((len(part) + 1 for part in parts), initial=0))
        self._unchecked = _mask([k for k, skip in enumerate(unchecked) if skip], len(parts))
        self._found: dict[str, int] = {}
        self._hits: dict[CompiledSignature, list[int]] = {}

    def _containing(self, literal: str) -> int:
        """Mask of the prechecked keys that contain ``literal``."""
        found = self._found.get(literal)
        if found is None:
            buffer, starts = self._buffer, self._starts
            positions = []
            at = buffer.find(literal)
            while at >= 0:
                k = bisect_right(starts, at) - 1
                positions.append(k)
                at = buffer.find(literal, starts[k + 1])
            found = self._found[literal] = _mask(positions, len(self.keys))
        return found

    def candidates(self, compiled: CompiledSignature):
        """Positions of the keys the rule may match."""
        literals = compiled.literals
        if compiled.case_insensitive:
            if not all(lit.isascii() for lit in literals):
                return range(len(self.keys))
            literals = {lit.lower() for lit in literals}
        if not literals:
            return range(len(self.keys))
        mask = self._unchecked
        for lit in literals:
            mask |= self._containing(lit)
        return bit_indices(mask)

    def hits(self, compiled: CompiledSignature) -> list[int]:
        """Positions of the keys the rule matches, searched on first use."""
        found = self._hits.get(compiled)
        if found is None:
            if compiled.case_insensitive == self.case_sensitive:
                raise ValueError(f"{compiled.signature_id} is compiled in the other case mode than the text index")
            search, keys = compiled.pattern.search, self.keys
            found = self._hits[compiled] = [k for k in self.candidates(compiled) if search(keys[k]) is not None]
        return found

    def rows(self, compiled, pipeline: normalize.Pipeline, apply_prefilter: bool) -> tuple[int, ...]:
        """The packed rows of the rules in one indexed view."""
        columns = self._columns.get((pipeline, apply_prefilter))
        if columns is None:
            raise ValueError("the text index does not hold this view")
        return tuple(_mask([i for k in self.hits(c) for i in columns[k]], self._size) for c in compiled)


def _mask(positions: list[int], size: int) -> int:
    """The bit set of ``positions``, each below ``size``, built from one digit string."""
    digits = bytearray(b"0") * size
    for k in positions:
        digits[k] = 49  # "1"
    return int(digits[::-1] or b"0", 2)


def detection_matrix(
    corpus,
    pipeline: normalize.Pipeline,
    case_sensitive: bool = False,
    apply_prefilter: bool = False,
    compiled: list[CompiledSignature] | None = None,
    index: TextIndex | None = None,
) -> DetectionMatrix:
    """Evaluate every signature against every transformed payload.

    The prefilter is not applied unless asked for: rows describe what
    the rules themselves can detect. ``apply_prefilter=True`` gives the
    deployed view where skipped payloads reach no rule. ``compiled``
    holds the corpus signatures already compiled, in corpus order.
    ``index`` is a ``TextIndex`` of the corpus in the same case mode
    that holds this view, when the caller shares one between matrices;
    each rule then searches each key once across all of them.
    """
    if compiled is None:
        compiled = [compile_signature(s, case_sensitive) for s in corpus.signatures]
    if index is None:
        index = TextIndex(corpus, [(pipeline, apply_prefilter)], case_sensitive)
    return DetectionMatrix(
        signature_ids=tuple(s.id for s in corpus.signatures),
        vector_ids=tuple(v.id for v in corpus.vectors),
        rows=index.rows(compiled, pipeline, apply_prefilter),
        pipeline_fingerprint=pipeline.fingerprint,
    )


def full_pipeline_bypass(deployed: DetectionMatrix) -> frozenset[str]:
    """Vector ids that sail through the whole stack.

    ``deployed`` is the corpus matrix under the deployed pipeline with
    its prefilter applied; a vector is bypassed when the prefilter
    skips it or no signature matches its transformed payload.
    """
    covered = 0
    for row in deployed.rows:
        covered |= row
    uncovered = ~covered & ((1 << len(deployed.vector_ids)) - 1)
    return frozenset(deployed.vector_ids[i] for i in bit_indices(uncovered))
