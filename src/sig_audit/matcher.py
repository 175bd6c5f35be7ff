"""Signature compilation and the detection matrix.

Signatures compile in a bounded regex dialect (literals, classes,
groups, alternation, ^/$ anchors, finite and infinite quantifiers with
lazy variants, the usual class escapes). Backreferences, lookaround and
inline flags are rejected so evaluation cost stays predictable across a
whole rule set.

A pattern compiles from its one parse: ``parse_pattern`` reads the
source once, and the tree it returns is checked, read by the structural
passes and handed to the compiler, which is given the flags as a plain
int. A pattern compiled that way has ``Pattern.pattern`` None.

A rule is searched in its search form (``search_form``): the repeats at
its unanchored edges cut to their minimum, so the engine does not
backtrack through a leading ``\\w+`` at every start position. A search
finds a match in the same texts as ``re.compile(source, flags)``; only
the span may differ at the edges, and no caller reads a span.

Under case-insensitive matching an ASCII text is searched lowercased,
with the ASCII fold of the search form (``ascii_fold``) compiled without
flags: each literal, negated literal and class becomes the characters
of ``FOLD_ALPHABET`` (ASCII without ``A``-``Z``) that ``re`` says it
matches under ``re.IGNORECASE``. On a lowercase ASCII text each folded
atom answers as its original does under ``re.IGNORECASE``, and nothing
else in the dialect depends on case, so the answer is the same; ``re``
keeps its literal prefix scan and plain opcodes, which it gives up for
cased literals under ``re.IGNORECASE``. A text that is not ASCII is
searched with the search form under ``re.IGNORECASE``, compiled the
first time such a text comes.

The detection matrix holds one packed bit row per signature, bit i set
when the signature matches transformed vector i. Row subset tests are
plain integer masking.

A row is built over match keys, not over the cells. A key is a
distinct forwarded text (``match_key``); under case-insensitive matching
an ASCII text is keyed by its lowercase form, so texts differing only in
case are searched once and share the result. Keying is exact: under
``re.IGNORECASE`` every opcode reads a character through its lowercase
form, and ``.``, ``\\d``, ``\\s``, ``\\w`` and the anchors do not depend
on case. A text that is not ASCII stays its own key (``re.IGNORECASE``
matches the long s to ``s`` and the Kelvin sign to ``k``). One
``TextIndex`` can hold several views, a view being a pipeline with or
without its prefilter; an audit's raw and deployed views share one,
so a rule searches each key once for both matrices. The index
transforms the payloads of each view with ``normalize.apply_all``,
which gives ``apply`` of each payload and runs each transform once
per 512 payloads joined with NUL (a chunk holding a NUL, raw or decoded
from ``%00``, is run again payload by payload), and skips a text of a
prefiltered view by the prefilter's ``fullmatch``, as
``normalize.prefilter_pass`` does.

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
import os
import re
import sys
import warnings
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import add

try:  # renamed to private modules in newer interpreters
    from re import _compiler as sre_compile
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_compile
    import sre_constants
    import sre_parse

from . import normalize
from .errors import ParseError, RegexDialectError, load_json

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
    # one frame per tree level, where the parser takes two per group; the
    # passes after it take as many, so a parse may fill half the stack
    try:
        _check_nodes(tree, signature_id, 1, sys.getrecursionlimit() // 2)
    except RecursionError as exc:
        raise RegexDialectError(signature_id, f"unparsable pattern: {exc}") from exc
    return tree


def compile_pattern(source: str, signature_id: str | None = None) -> re.Pattern:
    """``re.compile(source)`` for a source in the dialect, built from its
    one parse (the pattern's ``.pattern`` is None)."""
    return sre_compile.compile(parse_pattern(source, signature_id), 0)


def search_form(tree):
    """``tree`` with the repeats on its edges cut to their minimum, for
    an unanchored search: it finds a match in the same texts, though not
    always the same span. ``tree`` itself when nothing is cut.

    Left of a match the text is free, so ``A{m,n}R`` is found wherever
    ``A{m}R`` is: the last m copies of A and then R match the same
    stretch, with anchors tested at the same positions. The right edge
    is the mirror image. On each edge a repeat with m = 0 is dropped and
    the next node cut; a group, and a repeat with m = 1, gives way to
    its body, which is cut in turn; a branch has each alternative cut; a
    repeat with m > 1 becomes ``{m}`` and, like ``^``, ``$`` and any
    other node, ends the cut. Untouched nodes are shared and ``tree`` is
    not changed. Exact in the dialect only, which has no lookaround or
    backreferences to read past a match.
    """
    data = list(tree.data)
    cut_left = _cut_edge(data, left=True)
    cut_right = _cut_edge(data, left=False)
    return sre_parse.SubPattern(tree.state, data) if cut_left or cut_right else tree


def _cut_edge(data: list, left: bool) -> bool:
    """Cut the repeats on one edge of the node list ``data``, in place;
    true when a repeat lost a count it could match."""
    cut = False
    while data:
        k = 0 if left else len(data) - 1
        op, arg = data[k]
        if op is sre_constants.SUBPATTERN:  # the dialect has no group flags
            data[k : k + 1] = arg[3].data
        elif op in (sre_constants.MAX_REPEAT, sre_constants.MIN_REPEAT):
            low, high, body = arg
            cut = cut or high != low
            if low == 0:
                del data[k]
            elif low == 1:
                data[k : k + 1] = body.data
            else:
                data[k] = (op, (low, low, body))
                break
        elif op is sre_constants.BRANCH:
            alternatives = []
            for branch in arg[1]:
                nodes = list(branch.data)
                if _cut_edge(nodes, left):
                    branch, cut = sre_parse.SubPattern(branch.state, nodes), True
                alternatives.append(branch)
            if cut:
                data[k] = (op, (arg[0], alternatives))
            break
        else:  # an anchor, a character or a class
            break
    return cut


# The characters of a lowercased ASCII text.
FOLD_ALPHABET = "".join(chr(c) for c in range(128) if not "A" <= chr(c) <= "Z")


def compile_atom(node, flags: int) -> re.Pattern:
    """The one-node parse tree ``node`` compiled as a str pattern (the
    flags as a plain int, as ``compile_signature`` passes them)."""
    state = sre_parse.State()
    state.flags = sre_constants.SRE_FLAG_UNICODE
    return sre_compile.compile(sre_parse.SubPattern(state, [node]), flags)


def ascii_class(folded: re.Pattern):
    """The node that matches the characters of ``FOLD_ALPHABET`` which
    ``folded``, one character wide and compiled under ``re.IGNORECASE``,
    matches, and no other character of it.

    One character is a literal, so it can start a literal prefix. Any
    other set is a class holding one bitmap, which the compiler copies
    as it is, where ranges would be expanded character by character on
    every compile; an empty bitmap matches nothing."""
    found = folded.findall(FOLD_ALPHABET)
    if len(found) == 1:
        return (sre_constants.LITERAL, ord(found[0]))
    charmap = bytearray(256)
    for ch in found:
        charmap[ord(ch)] = 1
    return (sre_constants.IN, [(sre_constants.CHARSET, sre_compile._mk_bitmap(charmap))])


def ascii_class_of(node):
    """``ascii_class`` of one literal, negated literal or class node,
    asked of ``re`` anew."""
    return ascii_class(compile_atom(node, re.IGNORECASE.value))


def atom_key(node):
    """A hashable key of one parsed literal, class or dot: equal nodes
    get equal keys."""
    op, arg = node
    return (op, tuple(arg)) if op is sre_constants.IN else node


def _fold_each_atom_once():
    """A ``fold_atom`` that asks ``ascii_class_of`` once per distinct
    atom, for rules compiled together outside an audit."""
    folds = {}

    def fold_atom(node):
        key = atom_key(node)
        found = folds.get(key)
        if found is None:
            found = folds[key] = ascii_class_of(node)
        return found

    return fold_atom


def ascii_fold(tree, fold_atom):
    """``tree`` for a lowercase ASCII text, to compile without flags: it
    finds a match in such a text iff ``tree`` under ``re.IGNORECASE``
    does.

    Every literal, negated literal or class becomes ``fold_atom`` of
    it, which is ``ascii_class_of`` or gives the same node (an ASCII
    letter comes out lowercased). Anchors, ``.``, repeats, groups and
    branches stay: none depends on case. ``tree`` is not changed. One
    frame per tree level, as the dialect check that loading runs takes.
    """
    C = sre_constants
    out = []
    for node in tree.data:
        op, arg = node
        if op is C.LITERAL or op is C.NOT_LITERAL or op is C.IN:
            node = fold_atom(node)
        elif op is C.SUBPATTERN:
            node = (op, (*arg[:3], ascii_fold(arg[3], fold_atom)))
        elif op is C.MAX_REPEAT or op is C.MIN_REPEAT:
            node = (op, (arg[0], arg[1], ascii_fold(arg[2], fold_atom)))
        elif op is C.BRANCH:
            branches = []
            for branch in arg[1]:  # a loop, not a comprehension: no frame of its own
                branches.append(ascii_fold(branch, fold_atom))
            node = (op, (arg[0], branches))
        out.append(node)
    return sre_parse.SubPattern(tree.state, out)


def _check_nodes(nodes, sig_id, depth: int, bound: int) -> None:
    """Check the tree level ``nodes``, at ``depth``, and the levels
    below it, of which there may be ``bound`` in all."""
    if depth > bound:
        raise RegexDialectError(sig_id, f"unparsable pattern: nested deeper than {bound} levels")
    # ``.data``: a SubPattern has no ``__iter__``, so a loop over it makes
    # one ``__getitem__`` call per node and ends on an IndexError
    for op, arg in nodes.data:
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
            _check_nodes(arg[2], sig_id, depth + 1, bound)
        elif op is sre_constants.SUBPATTERN:
            group, add_flags, del_flags, body = arg
            if add_flags or del_flags:
                raise RegexDialectError(sig_id, "inline flags are not supported")
            _check_nodes(body, sig_id, depth + 1, bound)
        elif op is sre_constants.BRANCH:
            for branch in arg[1]:
                _check_nodes(branch, sig_id, depth + 1, bound)
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
    for op, arg in nodes.data:
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
            alternatives = []
            for branch in arg[1]:  # a loop, not a comprehension: no frame of its own
                alternatives.append(required_literals(branch))
            if all(alternatives):
                parts.append(frozenset().union(*alternatives))
    if run:
        parts.append(frozenset(["".join(run)]))
    return max(filter(None, parts), key=_selectivity, default=frozenset())


def _selectivity(literals: frozenset[str]) -> tuple[int, int]:
    # a longer shortest literal first, then fewer literals
    return min(map(len, literals)), -len(literals)


class CompiledSignature:
    """A pattern source ready to search, compiled from ``tree``, its
    parse as written. ``pattern`` is the search form, and under
    case-insensitive matching its ASCII fold (without flags), which
    searches the keys that are ASCII."""

    def __init__(self, pattern, case_insensitive, tree):
        self.pattern, self.case_insensitive, self.tree = pattern, case_insensitive, tree

    @functools.cached_property
    def literals(self) -> frozenset[str]:
        """Every match contains one of these, as written in the rule
        (empty: no such literal). Read off the parse on first use: only
        a ``TextIndex`` asks, so a sub-rule compile never walks it."""
        return required_literals(self.tree)

    @functools.cached_property
    def prechecks(self) -> frozenset[str]:
        """The literals a key must contain one of for the rule to be
        searched in it, as the keys are written (empty: every key): under
        case-insensitive matching ``literals`` lowercased, or none when
        one of them is not ASCII."""
        if not self.case_insensitive:
            return self.literals
        exact = all(map(str.isascii, self.literals))
        return frozenset(map(str.lower, self.literals)) if exact else frozenset()

    @functools.cached_property
    def ignorecase(self) -> re.Pattern:
        """The search form under ``re.IGNORECASE``, which searches a key
        that is not ASCII; compiled when the first such key comes."""
        return sre_compile.compile(search_form(self.tree), re.IGNORECASE.value)

    def search(self, key: str) -> re.Match | None:
        """Search one match key (``match_key`` of a text, in this case mode)."""
        if self.case_insensitive and not key.isascii():
            return self.ignorecase.search(key)
        return self.pattern.search(key)


def match_key(text: str, case_sensitive: bool) -> str:
    """The key ``text`` is searched as: under case-insensitive matching
    an ASCII text is lowercased, any other text is itself."""
    return text if case_sensitive or not text.isascii() else text.lower()


def compile_signature(signature, case_sensitive: bool = False, fold_atom=ascii_class_of) -> CompiledSignature:
    """Compile the search form of the signature's one parse,
    ``Signature.tree`` (which also checks the dialect). Matching is
    case-insensitive by default; rule sets are written lowercase but
    must catch mixed-case payloads even in raw mode.

    Case-insensitive matching compiles the ASCII fold of the search form
    (``ascii_fold``, with ``fold_atom``) without flags; the form under
    ``re.IGNORECASE`` is compiled only if a text that is not ASCII is
    searched. ``fold_atom`` is ``ascii_class_of`` or gives the same
    node; an audit passes its ``PatternTable``'s, which reads each
    distinct atom off the compile its charset already holds.

    The pattern is built from a tree, so its ``.pattern`` is None.
    ``CompiledSignature.search`` of a text's ``match_key`` finds a match
    iff ``re.compile(source, flags)`` finds one in the text; the span may
    differ at the edges (see ``search_form``). The flags go in as a
    plain int: a ``RegexFlag`` would make each flag test inside the
    compiler an enum operation, which more than triples the compile
    time.
    """
    tree = signature.tree  # parses and checks the dialect on first use
    form = search_form(tree)
    return CompiledSignature(
        pattern=sre_compile.compile(form if case_sensitive else ascii_fold(form, fold_atom), 0),
        case_insensitive=not case_sensitive,
        tree=tree,
    )


def matches(compiled: CompiledSignature, text: str) -> bool:
    """Unanchored substring search: true iff the pattern occurs anywhere."""
    return compiled.search(match_key(text, not compiled.case_insensitive)) is not None


class DetectionMatrix(namedtuple("DetectionMatrix", "signature_ids vector_ids rows pipeline_fingerprint")):
    """Boolean signature x vector matrix with packed bit rows.

    Bit i of ``rows[n]`` is set when signature n matched vector i after
    the pipeline's transforms. Row n materializes the set of vectors the
    signature detects under that pipeline. ``signature_ids``,
    ``vector_ids`` and ``rows`` are tuples.
    """

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
        """One line per signature; ids are escaped with ``csv_field``."""
        n = len(self.vector_ids)
        lines = ["signature_id," + ",".join(map(csv_field, self.vector_ids))]
        for sid, row in zip(self.signature_ids, self.rows):
            lines.append(f"{csv_field(sid)}," + _joined_cells(row, n, b","))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The bytes of ``json.dumps(doc, sort_keys=True)`` for the document
        whose ``rows`` hold each row as a list of 0/1 ints: each row's list
        is written from its digit string, ``json`` encodes the rest."""
        n = len(self.vector_ids)
        table = ", ".join(
            f"{encode_basestring_ascii(sid)}: [{_joined_cells(row, n, b', ')}]"
            for sid, row in sorted(dict(zip(self.signature_ids, self.rows)).items())
        )
        head = json.dumps(
            {"pipeline_fingerprint": self.pipeline_fingerprint, "row_sums": self.row_counts()}, sort_keys=True
        )
        tail = json.dumps({"signature_ids": list(self.signature_ids), "vector_ids": list(self.vector_ids)})
        return f'{head[:-1]}, "rows": {{{table}}}, {tail[1:]}'

    @classmethod
    def from_json(cls, text: str) -> "DetectionMatrix":
        """The matrix of a JSON document. A canonical export is read off
        its row digits (``_canonical_matrix``); any other document goes
        through ``json.loads`` and the checks below, and gets the same
        matrix, or the same error, either way."""
        m = _canonical_matrix(text)
        if m is not None:
            return m
        doc = load_json(text, "invalid matrix JSON")
        if not isinstance(doc, dict):
            raise ParseError("matrix JSON must be an object")
        signature_ids, vector_ids = _id_list(doc, "signature_ids"), _id_list(doc, "vector_ids")
        table = doc.get("rows")
        if not isinstance(table, dict):
            raise ParseError("matrix JSON 'rows' must be an object")
        known = set(signature_ids)
        for key in table:
            if key not in known:
                raise ParseError(f"matrix row {key!r} is not in 'signature_ids'")
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


# where a canonical export's row table opens and closes: its keys are
# sorted first after "row_sums" and before "signature_ids"
_ROWS_OPEN = ', "rows": {'
_ROWS_CLOSE = '}, "signature_ids": ['


def _canonical_matrix(text: str) -> DetectionMatrix | None:
    """The matrix whose ``to_json`` is ``text``, less at most one trailing
    newline, or None when there is none.

    The text outside the row table goes through ``json.loads`` with
    ``from_json``'s checks; each row, at its sorted signature id, is read
    off every third character of its cells. The result is kept only if
    it renders back to ``text``: ``json.loads`` reads that rendering as
    the same matrix, so a text kept here gets the result the general
    parser would give, and any other text is left to it."""
    start = text.find(_ROWS_OPEN)
    end = text.find(_ROWS_CLOSE, start)
    if start < 0 or end < 0:
        return None
    start += len(_ROWS_OPEN)
    try:
        doc = json.loads(text[:start] + text[end:])  # the row table left empty
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("pipeline_fingerprint"), str):
        return None
    try:
        signature_ids, vector_ids = _id_list(doc, "signature_ids"), _id_list(doc, "vector_ids")
    except ParseError:
        return None
    n = len(vector_ids)
    width = 3 * n - 2 if n else 0  # "d, d, ..., d"
    row_of = {}
    at = start
    for sid in sorted(signature_ids):
        key = encode_basestring_ascii(sid) + ": ["
        if not text.startswith(key, at):
            return None
        at += len(key)
        try:
            row = int(text[at : at + width][::3][::-1] or "0", 2)
        except ValueError:
            return None
        if row < 0:  # rendered as a "-" cell, which no JSON reads
            return None
        row_of[sid] = row
        at += width + len("], ")
    rows = tuple(row_of[sid] for sid in signature_ids)
    m = DetectionMatrix(signature_ids, vector_ids, rows, doc["pipeline_fingerprint"])
    body = m.to_json()
    # compared in place: slicing the newline off would copy the text
    if not text.startswith(body) or text[len(body) :] not in ("", "\n"):
        return None
    return m


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


# a line break becomes its backslash escape, so one record stays on one
# line; in a CSV field a comma also becomes ";"
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
_CSV_FIELD = {**_ONE_LINE, ord(","): ";"}


def one_line(text: str) -> str:
    """``text`` with each line break escaped."""
    return text.translate(_ONE_LINE)


def csv_field(text: str) -> str:
    """``one_line(text)`` with each comma as ``;``: one CSV field."""
    return text.translate(_CSV_FIELD)


def _joined_cells(row: int, n: int, sep: bytes) -> str:
    """The row's n cells as '0'/'1' digits, vector 0 first, joined by
    ``sep``: one slice assignment writes the digits to every
    (1 + len(sep))-th byte of a run of separators, where a join would
    take one item per cell."""
    if not n:
        return ""  # format(0, "00b") is "0"
    buf = bytearray(b"0" + sep) * n
    buf[:: 1 + len(sep)] = format(row, f"0{n}b")[::-1].encode()
    return buf[: -len(sep)].decode()


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _row_of_cells(cells) -> int | None:
    """The packed row of a list of 0/1 cells, None when ``cells`` is not
    one. A cell is the int 0 or 1: ``true`` and ``false`` are not cells,
    though ``bytes`` would read them as 1 and 0."""
    if not isinstance(cells, list) or not set(map(type, cells)) <= {int}:
        return None
    try:
        raw = bytes(cells)
    except ValueError:  # an integer outside 0..255
        return None
    if raw.translate(None, b"\0\1"):
        return None
    return int(raw[::-1].translate(_DIGITS) or b"0", 2)


def bit_indices(bits: int) -> list[int]:
    """Ascending positions of the set bits of ``bits``, with no Python
    step per bit: each position is the one before plus the run of zeros
    between them plus one."""
    gaps = bin(bits)[:1:-1].split("1")  # zero runs, least significant first; the last is above the top bit
    out = list(accumulate(map(add, map(len, gaps[:-1]), repeat(1)), initial=-1))
    del out[0]
    return out


class TextIndex:
    """The distinct match keys of one or more views of a corpus.

    A view is a ``(pipeline, apply_prefilter)`` pair. Each forwarded
    column of a view maps to the ``match_key`` of its transformed text;
    ``skipped`` holds, per view in view order, the frozenset of the ids
    of the vectors its prefilter skips (empty without one).
    The index keeps one NUL-joined precheck buffer of the keys, where a
    key that is not ASCII stands as an empty part and is always searched
    when folding; and the mask of the keys holding each literal, a bit
    set over key positions.

    ``costs`` gives each compile's search cost in cells: its candidate
    keys, read off the masks of its ``prechecks``, each built on first use
    in the calling process, so forked workers inherit them. ``rule_rows``
    gives a compile's packed row in every view, from one search of its
    candidate keys. A caller fans its rules out over ``rule_rows`` and
    keeps the rows it gets back (``detection_matrix``,
    ``report.run_audit``); the index stores none of them.
    """

    def __init__(self, corpus, views, case_sensitive: bool = False):
        self.case_sensitive = case_sensitive
        self._size = len(corpus.vectors)
        position: dict[str, int] = {}
        grouped = []
        self.skipped = []
        payloads = [vector.payload for vector in corpus.vectors]
        for pipeline, apply_prefilter in views:
            # as ``normalize.prefilter_pass``: a text the prefilter fully matches is skipped
            prefilter = pipeline._prefilter_re if apply_prefilter else None
            harmless = prefilter.fullmatch if prefilter is not None else None
            texts: dict[str, list[int]] = {}
            skipped = []
            for i, text in enumerate(normalize.apply_all(pipeline, payloads)):
                if harmless is not None and harmless(text) is not None:
                    skipped.append(corpus.vectors[i].id)
                else:
                    texts.setdefault(text, []).append(i)
            self.skipped.append(frozenset(skipped))
            columns = {}
            for text, cols in texts.items():
                key = match_key(text, case_sensitive)
                columns.setdefault(position.setdefault(key, len(position)), []).extend(cols)
            grouped.append(columns)
        self.keys = list(position)
        # per view, in view order, the columns of each key (none where the view lacks it)
        self._columns = [[cols.get(k, ()) for k in range(len(self.keys))] for cols in grouped]
        unchecked = [not case_sensitive and not key.isascii() for key in self.keys]
        parts = ["" if skip else key for key, skip in zip(self.keys, unchecked)]
        self._buffer = "\0".join(parts)
        self._starts = list(accumulate((len(part) + 1 for part in parts), initial=0))
        self._unchecked = _mask([k for k, skip in enumerate(unchecked) if skip], len(parts))
        self._found: dict[str, int] = {}

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

    def _candidate_mask(self, compiled: CompiledSignature) -> int | None:
        """Mask of the keys the rule may match; None: every key."""
        literals = compiled.prechecks
        if not literals:
            return None
        mask = self._unchecked
        for lit in literals:
            mask |= self._containing(lit)
        return mask

    def candidates(self, compiled: CompiledSignature):
        """Positions of the keys the rule may match."""
        mask = self._candidate_mask(compiled)
        return range(len(self.keys)) if mask is None else bit_indices(mask)

    def costs(self, compiled) -> list[int]:
        """The cells each compile's search takes: its candidate keys. Every
        compile's ``prechecks`` and every mask they read are built here,
        so a fan-out over them inherits them."""
        masks = map(self._candidate_mask, compiled)
        return [len(self.keys) if mask is None else mask.bit_count() for mask in masks]

    def hits(self, compiled: CompiledSignature) -> list[int]:
        """Positions of the keys the rule matches, one search of each candidate."""
        if compiled.case_insensitive == self.case_sensitive:
            raise ValueError("a rule is compiled in the other case mode than the text index")
        keys, candidates = self.keys, self.candidates(compiled)
        # a key that is not ASCII is searched in ``ignorecase``
        search = compiled.search if self._unchecked else compiled.pattern.search
        return list(compress(candidates, map(search, map(keys.__getitem__, candidates))))

    def rule_rows(self, compiled: CompiledSignature) -> tuple[int, ...]:
        """The rule's packed row in each view, in view order."""
        hits = self.hits(compiled)
        return tuple(_mask([i for k in hits for i in columns[k]], self._size) for columns in self._columns)


# A cell is one candidate key searched by one rule: about 1.3 us (1.0-1.5
# us on bundled, wide_rules-0 and wide_vectors-0).
# The cells each worker of a ``fan_out`` must take, measured on a 2-CPU
# Linux VM: a fan-out of trivial items costs the caller 3.6 ms per child
# (0.85 ms of it the fork), and the first import of ``pickle`` 3.2 ms,
# which the one fan-out of an audit or a matrix pays alone. So a worker
# costs about 3.6 + 3.2 = 6.8 ms, and 6.8 ms / 1.3 us is about 5,200
# cells. Those figures predate the pinning of each child to its own CPU;
# pinned, the same VM measured 1.4 ms per child and 1.7 ms for the
# ``pickle`` import. The value is kept: a new one changes W, which is a
# change of its own to measure.
FAN_OUT_CELLS = 5_200

_MISSING = object()  # an item no worker delivered


def fan_out(fn, costs, setup: int = 0) -> list:
    """``[fn(i) for i in range(len(costs))]``, its items shared among
    forked workers when their ``costs``, in cells, add up to at least
    twice the break-even, ``FAN_OUT_CELLS`` plus ``setup``: the cells a
    forked worker spends redoing what the caller had cached for ``fn``.

    The CPU set is read once, as the process's affinity set in ascending
    order, and W, the shares and the pins all come from that list. W is
    the least of the items, the CPUs in the set and the total cost // the
    break-even, so each worker carries at least its break-even share. The
    shares are dealt longest item first (``_shares``): the caller
    computes share 0 and one forked child each other share, so the split
    depends only on ``costs`` and the CPU set, and equal costs send item
    i to worker i mod W. Child w pins itself to CPU w of the list as its
    first act, so the shares run in parallel even where the kernel would
    keep every child on the caller's CPU. A pin the kernel refuses (a CPU
    outside the cpuset, or offline) is ignored, and that child runs where
    it was allowed to. The caller never pins: its mask is the one it had.
    A child pipes back the pickled results of its whole share, or exits
    without writing when one of its items raises; either way it leaves by
    ``os._exit``: it never returns into the caller's code, flushes no
    inherited stream and runs no ``atexit`` hook. The caller computes its
    own share up to its first error, then every item that was not
    delivered, in index order, so it raises the error a plain loop would
    raise first, from its own frame, and a child that raised, was killed
    or could not be forked costs a recompute of its share. Every child is
    reaped before this returns or raises.

    One process does it all when W is below 2, on one CPU, where
    ``os.fork`` or ``os.sched_getaffinity`` is missing (the CPU list is
    then empty), and while another thread is alive (a fork copies only
    the calling thread). ``fn`` reads the caller's state as it was at the
    fork; what a child changes stays in the child.
    """
    count = len(costs)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else []
    workers = min(count, len(cpus), sum(costs) // (FAN_OUT_CELLS + setup))
    if workers > 1:
        import threading

        if threading.active_count() > 1:
            workers = 1
    if workers < 2:
        return [fn(i) for i in range(count)]
    import pickle  # only a fan-out needs these
    import signal

    shares = _shares(costs, workers)
    results = [_MISSING] * count
    children = []  # (share, pid, read end of its pipe)
    try:
        for cpu, share in zip(cpus[1:], shares[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller computes the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                try:
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except OSError:  # refused: the child stays where it was
                        pass
                    os.close(read)
                    data = memoryview(pickle.dumps([fn(i) for i in share], pickle.HIGHEST_PROTOCOL))
                    while data:
                        data = data[os.write(write, data) :]
                    os.close(write)
                finally:  # an item that raised ends the child here, with nothing sent
                    os._exit(0)
            children.append((share, pid, read))
            os.close(write)
        for i in shares[0]:
            try:
                results[i] = fn(i)
            except Exception:  # computed again below, which raises the plain loop's first error
                break
        for share, _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            try:
                done = pickle.loads(sent)
            except (EOFError, pickle.UnpicklingError):  # the child sent nothing, or died before it sent all
                continue
            for i, found in zip(share, done):
                results[i] = found
    finally:
        for _, pid, read in children:
            os.close(read)
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:  # still running, or about to exit
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, where SIGCHLD is ignored
                pass
    for i, found in enumerate(results):
        if found is _MISSING:
            results[i] = fn(i)
    return results


def _shares(costs, workers: int) -> list[list[int]]:
    """The item positions of each of ``workers`` shares, each in index
    order. Items are dealt longest first, each to the share with the
    least cost so far (on a tie the one with fewer items, then the
    lower-numbered), so no share exceeds the total / ``workers`` plus the
    largest item, and equal costs deal item i to share i mod ``workers``."""
    import heapq

    loads = [(0, 0, w) for w in range(workers)]  # a heap of (cost so far, items, share)
    shares = [[] for _ in range(workers)]
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):  # stable: ties in index order
        load, items, w = heapq.heappop(loads)
        shares[w].append(i)
        heapq.heappush(loads, (load + costs[i], items + 1, w))
    for share in shares:
        share.sort()
    return shares


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
    rows: list[int] | None = None,
) -> DetectionMatrix:
    """Evaluate every signature against every transformed payload.

    The prefilter is not applied unless asked for: rows describe what
    the rules themselves can detect. ``apply_prefilter=True`` gives the
    deployed view where skipped payloads reach no rule.

    Without ``rows`` the rules compile and a one-view ``TextIndex`` of
    the corpus gives each rule's row (``TextIndex.rule_rows``), the
    searches shared among forked workers when their candidate keys reach
    twice ``FAN_OUT_CELLS`` (see ``fan_out``); the rows are the same.
    ``rows`` holds the packed rows already searched in this view, in
    corpus order, as an audit's per-rule items return them; the matrix
    only wraps them, and reads nothing but the corpus ids and the
    pipeline's fingerprint (``case_sensitive`` and ``apply_prefilter``
    go unread). ``rows`` of another length than the signatures raises
    ``ValueError``.
    """
    if rows is None:
        fold_atom = _fold_each_atom_once()
        compiled = [compile_signature(s, case_sensitive, fold_atom) for s in corpus.signatures]
        index = TextIndex(corpus, [(pipeline, apply_prefilter)], case_sensitive)
        rows = [row for (row,) in fan_out(lambda n: index.rule_rows(compiled[n]), index.costs(compiled))]
    elif len(rows) != len(corpus.signatures):
        raise ValueError(f"{len(rows)} rows for {len(corpus.signatures)} signatures")
    return DetectionMatrix(
        signature_ids=tuple(s.id for s in corpus.signatures),
        vector_ids=tuple(v.id for v in corpus.vectors),
        rows=tuple(rows),
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
