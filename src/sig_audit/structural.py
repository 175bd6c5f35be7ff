"""Structural analysis of signature patterns.

Three views of a rule:

* operator extraction, from one recursive walk of the rule's parse:
  which SQL operators the rule can actually match as standalone tokens
  (word operators only count where the pattern admits a word boundary
  on both sides, so ``or`` buried in a longer literal like ``preorder``
  never counts; which characters an atom matches is asked of ``re``
  itself). The walk carries, as one int, the set of progress values
  through every token that the text read so far can reach: an atom
  moves the set through its move table, a sequence composes, a branch
  ORs, and a repeat applies its body exactly as its count says, each
  body's result kept per input set, so neither deep nesting nor a large
  count multiplies the work;
* sub-rule expansion, from span scans of the source and of each source
  it splices: cross product of the alternations inside unquantified
  groups, giving the individual criteria a rule ORs together;
* quantifier bounds, from the span scan of the source: finitely capped
  atoms over characters an attacker may repeat freely (whitespace,
  parentheses, quotes), each a plain value that names the repeatable
  characters its atom matches.

A ``PatternTable`` lets the passes of one audit share their patterns:
rules and sub-rules compile through it, so each distinct source is
parsed once and compiled at most once per case mode (rules sharing a
source, or a sub-rule spelled like a rule, share one compile, which
belongs to the source and names no rule), each distinct source is
scanned once for expansion and bound analysis, and each distinct atom
has one charset, which operator extraction and bound analysis both
read. Every parse, an atom's included, goes through
``matcher.parse_pattern``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import accumulate

from .corpus import Signature
from .matcher import CompiledSignature, ascii_class, atom_key, compile_atom, compile_signature, parse_pattern, sre_constants

# Characters usable an unbounded number of times in an attack payload
# without changing what the query does.
DEFAULT_REPEATABLE = " \t()'\""

# The operator tokens looked for when none are given. A token of word
# characters only needs token boundaries; any other token is matched
# verbatim as a maximal run (a literal ``\\|\\|`` yields ``||``, not
# two ``|``).
DEFAULT_OPERATORS = frozenset({"and", "or", "xor", "nand", "not", "||", "&&", "^", "|", "&"})


class TokenizedSignature(namedtuple("TokenizedSignature", "signature_id operators")):
    """The operator tokens (a frozenset) a rule can match."""

    __slots__ = ()


class SubRuleSet(namedtuple("SubRuleSet", "signature_id subrules expansion_complete")):
    """The sub-rule sources (a tuple) a rule ORs together."""

    __slots__ = ()


class QuantifierBound(
    namedtuple("QuantifierBound", "signature_id position char_class max_occurrences repeatable")
):
    """A finitely capped atom over repeatable characters: ``repeatable``
    holds the characters of ``DEFAULT_REPEATABLE`` the atom matches, in
    the order of that constant."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# character set abstraction over parsed class nodes

_PROBE_CHARS = [chr(c) for c in range(32, 127)] + ["\t", "\n", "\xa0"]
_PROBE_TEXT = "".join(_PROBE_CHARS)
_PROBE_BIT = {ch: 1 << i for i, ch in enumerate(_PROBE_CHARS)}
_WORD = re.compile(r"\w")
# the parse nodes of one character: literal, negated literal, dot, class
_ATOM_OPS = (sre_constants.LITERAL, sre_constants.NOT_LITERAL, sre_constants.ANY, sre_constants.IN)


def _probe_mask(pattern: re.Pattern) -> int:
    """Bit mask of the probe characters that ``pattern``, one character
    wide, matches."""
    return sum(_PROBE_BIT[ch] for ch in pattern.findall(_PROBE_TEXT))


_WORD_PROBES = _probe_mask(_WORD)


class _CharSet:
    """Membership of one parsed atom (literal, class, dot), as ``re``
    decides it.

    The atom is compiled twice, plain and under ``re.IGNORECASE``, and
    ``mask`` and ``folded`` hold the probe characters each matches, read
    once, so operator extraction answers its questions with integer
    masking. Characters outside the probe set (custom family members can
    hold any) ask the compiled atom. Move tables are cached per lexicon,
    since one atom serves every rule of an audit. ``ascii`` is the atom's
    ``matcher.ascii_class``, read off the same folded compile, which a
    case-insensitive rule is searched with.
    """

    __slots__ = ("_match", "_match_ci", "mask", "folded", "ascii", "narrow", "can_word", "can_nonword", "_tables")

    # atoms realizing more probe characters than this are treated as
    # wildcards: they can carry a boundary but never spell an operator
    _NARROW = 16

    def __init__(self, node):
        plain, ci = compile_atom(node, 0), compile_atom(node, re.IGNORECASE.value)
        self._match, self._match_ci = plain.fullmatch, ci.fullmatch
        self.mask, self.folded = _probe_mask(plain), _probe_mask(ci)
        self.ascii = ascii_class(ci)
        self.narrow = self.mask.bit_count() <= self._NARROW
        self.can_word = bool(self.mask & _WORD_PROBES)
        self.can_nonword = bool(self.mask & ~_WORD_PROBES)
        self._tables: dict[tuple[str, ...], tuple] = {}

    def contains(self, ch: str) -> bool:
        bit = _PROBE_BIT.get(ch)
        if bit is None:
            return self._match(ch) is not None
        return bool(self.mask & bit)

    def contains_ci(self, ch: str) -> bool:
        bit = _PROBE_BIT.get(ch)
        if bit is None:
            return self._match_ci(ch) is not None
        return bool(self.folded & bit)

    def moves(self, lexicon: tuple[str, ...]) -> tuple:
        """The ``_move_table`` of ``_char_moves`` for each token of
        ``lexicon``, computed once."""
        table = self._tables.get(lexicon)
        if table is None:
            table = self._tables[lexicon] = _move_table(_char_moves(self, token) for token in lexicon)
        return table

    def can_other_than(self, ch: str) -> bool:
        return bool(self.mask & ~_PROBE_BIT.get(ch, 0))


# ---------------------------------------------------------------------------
# the patterns of one audit

class PatternTable:
    """The patterns of one audit: each distinct rule or sub-rule source
    is parsed and checked once and compiled at most once per case mode,
    through one ``Signature``, each distinct source is span-scanned
    once, and each distinct atom has one charset. A charset keeps one
    move table per lexicon for operator extraction, whose walk of a
    rule's parse applies every count exactly, never cut.

    Seeded with the audit's rules, which compile through ``compiled``
    as sub-rules do, so rules that share a source share one compile, and
    a sub-rule spelled like a rule needs no parse or code of its own. A
    source's parse is handed to its compiled form. Atoms are keyed by
    parse node, so a rule's atom and the same atom quantified share one
    charset and its cached move tables, and a case-insensitive rule or
    sub-rule folds each atom through it; the atom a bound caps is parsed
    by ``parse_pattern``. A source's scan
    serves every pass and rule that reaches it: bound analysis reads the
    scan that expansion made of its rule, and a sub-rule spliced by
    several rules is scanned for the first. The table lives as long as
    the audit that made it; a standalone pass without one uses a fresh
    table.
    """

    def __init__(self, signatures=()):
        self._signatures: dict[str, Signature] = {}  # every source checked
        for sig in signatures:
            self._signatures.setdefault(sig.pattern_source, sig)
        self._compiled: dict[tuple[str, bool], CompiledSignature] = {}
        # keyed by atom node, and by quantified-atom source (None: no atom)
        self._atoms: dict[tuple | str, _CharSet | None] = {}
        self._scans: dict[str, tuple] = {}

    def check(self, source: str, signature_id: str) -> None:
        """Parse ``source`` and check its dialect, once per table."""
        if source not in self._signatures:
            sig = Signature(id=signature_id, pattern_source=source)
            sig.tree  # parses and checks the dialect; a bad source is not kept
            self._signatures[source] = sig

    def compiled(self, source: str, signature_id: str, case_sensitive: bool = False) -> CompiledSignature:
        """``compile_signature`` of ``source``, from its parse when the
        table holds one; a new signature takes ``signature_id``."""
        key = (source, case_sensitive)
        found = self._compiled.get(key)
        if found is None:
            sig = self._signatures.get(source) or Signature(id=signature_id, pattern_source=source)
            found = self._compiled[key] = compile_signature(sig, case_sensitive, self.fold_atom)
            self._signatures[source] = sig
        return found

    def scan(self, source: str):
        """``_scan(source)``, once per table."""
        found = self._scans.get(source)
        if found is None:
            found = self._scans[source] = _scan(source)
        return found

    def atom(self, node) -> _CharSet:
        """The charset of one parsed literal, class or dot."""
        key = atom_key(node)
        cs = self._atoms.get(key)
        if cs is None:
            cs = self._atoms[key] = _CharSet(node)
        return cs

    def fold_atom(self, node):
        """``matcher.ascii_class_of(node)``, read off the atom's charset."""
        return self.atom(node).ascii

    def charset(self, atom_source: str) -> _CharSet | None:
        """``atom`` of the one node ``atom_source`` parses to, parsed once
        by ``parse_pattern`` (a source outside the dialect raises); None
        when it does not parse to one literal, class or dot."""
        if atom_source not in self._atoms:
            tree = parse_pattern(atom_source)
            atomic = len(tree) == 1 and tree[0][0] in _ATOM_OPS
            self._atoms[atom_source] = self.atom(tree[0]) if atomic else None
        return self._atoms[atom_source]


# ---------------------------------------------------------------------------
# operator extraction: one walk over the parse, every token at once

# Token progress along the walk: _GLUED and _SEARCH before the token
# (_GLUED right after a character that would glue onto its first
# character), 1..len(token) characters spelled, then len(token) + 1 once
# the closing boundary is seen. ``_char_moves`` lists are indexed by
# progress + 2 (slot 2, progress 0, is never used), and so is each
# token's stretch of a progress set: token by token, in lexicon order,
# len(token) + 4 bits each, one bit per progress value.
_GLUED = -2
_SEARCH = -1
_REPEATS = (sre_constants.MAX_REPEAT, sre_constants.MIN_REPEAT)


def _char_moves(cs: _CharSet, token: str) -> list[tuple[int, ...]]:
    """Progress reachable over one ``cs`` character, for each progress value."""
    n = len(token)
    if all(map(_WORD.match, token)):
        opens = closes = cs.can_nonword
        glues = cs.can_word
    else:
        opens, closes = cs.can_other_than(token[0]), cs.can_other_than(token[-1])
        glues = cs.contains(token[0])
    spells = [cs.narrow and cs.contains_ci(ch) for ch in token]
    search = ((_SEARCH,) if opens else ()) + ((_GLUED,) if glues else ())
    moves = [search, search + ((1,) if spells[0] else ()), ()]
    moves += [(k + 1,) if spells[k] else () for k in range(1, n)]
    moves += [(n + 1,) if closes else (), (n + 1,)]
    return moves


def _move_table(moves_per_token) -> tuple[tuple[int, int, int], ...]:
    """The moves of each token of a lexicon as ``(mask, up, down)``
    triples over its progress sets: a set ``s`` moves to the OR of
    ``(s & mask) << up >> down``. A move changes progress by at most two
    slots, so there are at most four triples."""
    masks: dict[int, int] = {}
    base = 0
    for moves in moves_per_token:
        for slot, succ in enumerate(moves):
            for k in succ:
                shift = k + 2 - slot
                masks[shift] = masks.get(shift, 0) | 1 << (base + slot)
        base += len(moves)
    return tuple((mask, max(shift, 0), max(-shift, 0)) for shift, mask in masks.items())


def _walk(nodes, s: int, tables: dict, memo: dict) -> int:
    """The progress set after ``nodes``, entered with the set ``s``;
    ``tables`` holds the ``_move_table`` of each character and anchor
    node, by node id.

    A sequence composes, a branch ORs its alternatives and a group is
    its body. A repeat ``{lo,hi}`` applies its body exactly ``lo``
    times, skipping whole periods once the sets repeat, then ORs in up
    to ``hi - lo`` more applications, stopping once the set is stable.
    A body's result is kept in ``memo`` per input set, so the cost is
    bounded by the tree size times the distinct sets, however deep the
    nesting and however large the counts. One frame per tree level.
    """
    C = sre_constants
    for node in nodes.data:  # the node list: iterating a SubPattern indexes it node by node
        if not s:
            return 0
        op, arg = node
        if op is C.SUBPATTERN:
            s = _walk(arg[3], s, tables, memo)
        elif op is C.BRANCH:
            out = 0
            for branch in arg[1]:
                out |= _walk(branch, s, tables, memo)
            s = out
        elif op in _REPEATS:
            lo, hi, body = arg
            # the sets met in the first lo applications; applications made; the set after lo
            seen, done, floor = {}, 0, 0
            while done < hi:
                if done < lo:
                    first = seen.setdefault(s, done)
                    if first < done:  # the sets repeat with period done - first
                        done, seen = lo - (lo - done) % (done - first), {}
                        continue
                elif done == lo:
                    floor = s
                after = memo.get((body, s))
                if after is None:
                    after = memo[body, s] = _walk(body, s, tables, memo)
                after |= floor
                if after == s:  # a fixed point: every further application gives s
                    break
                s, done = after, done + 1
        else:  # a character or an anchor
            out = 0
            for mask, up, down in tables[id(node)]:
                out |= (s & mask) << up >> down
            s = out
    return s


def _leaves(tree, patterns: PatternTable) -> dict[int, _CharSet | None]:
    """The charset of each character node of ``tree``, and None for each
    anchor, by node id: every node read once however it is repeated, from
    a stack rather than by recursion, so a charset is built near the top
    of the call stack however deep its node sits."""
    C = sre_constants
    leaves: dict[int, _CharSet | None] = {}
    stack = [tree]
    while stack:
        for node in stack.pop().data:
            op, arg = node
            if op is C.SUBPATTERN:
                stack.append(arg[3])
            elif op is C.BRANCH:
                stack += arg[1]
            elif op in _REPEATS:
                stack.append(arg[2])
            else:  # in the dialect, a character or an anchor
                leaves[id(node)] = patterns.atom(node) if op in _ATOM_OPS else None
    return leaves


def extract_operators(
    signature, tokens: frozenset[str] = DEFAULT_OPERATORS, patterns: PatternTable | None = None
) -> TokenizedSignature:
    """Every one of ``tokens`` the pattern can match as a standalone token.

    Standalone means: for word tokens, non-word characters (or the match
    edge) on both sides; for symbol tokens, the occurrence is a maximal
    run (not extendable with the token's own characters). Token
    characters must come from the rule's narrow atoms; a wildcard like
    ``[^\\n]`` admits every operator and says nothing about what the
    rule was written to catch. The tokens some narrow atom spells are
    answered together by one ``_walk`` of the parse, counts exact; each
    atom's charset, with its cached move tables, comes from ``patterns``.
    """
    patterns = patterns or PatternTable()
    leaves = _leaves(signature.tree, patterns)
    narrow = {cs for cs in leaves.values() if cs is not None and cs.narrow}
    spelled = 0
    for cs in narrow:
        spelled |= cs.folded
    lexicon = tuple(
        token
        for token in tokens
        if all(
            spelled & _PROBE_BIT[ch] if ch in _PROBE_BIT else any(cs.contains_ci(ch) for cs in narrow)
            for ch in token
        )
    )
    if not lexicon:  # some character of each token is spelled by no narrow atom
        return TokenizedSignature(signature_id=signature.id, operators=frozenset())
    # a match edge is a boundary before or after a token, and never inside it
    anchor = _move_table([(_SEARCH,), (_SEARCH,), ()] + [()] * (len(t) - 1) + [(len(t) + 1,)] * 2 for t in lexicon)
    tables = {key: anchor if cs is None else cs.moves(lexicon) for key, cs in leaves.items()}
    bases = list(accumulate((len(t) + 4 for t in lexicon), initial=0))[:-1]
    final = _walk(signature.tree, sum(2 << base for base in bases), tables, {})  # _SEARCH in every token
    # a token is found where the walk ends at progress len(t) or past it
    found = frozenset(t for t, base in zip(lexicon, bases) if final >> (base + len(t) + 2) & 3)
    return TokenizedSignature(signature_id=signature.id, operators=found)


# ---------------------------------------------------------------------------
# span scans of a source, read by expansion and bound analysis, in the
# token grammar of the sources `parse_pattern` accepts

# A comment or the no-op ``(?u)`` (the one inline flag the load check
# lets through) is transparent: a quantifier after one still binds to
# the item before it.
_SKIP = r"\(\?(?:#(?:\\.|[^\\)])*|u+)\)"
_ESCAPE = r"\\(?:x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|N\{[^}]*\}|0[0-7]{0,2}|[0-7]{3}|.)"
_CLASS = r"\[\^?\]?(?:\\.|[^\]\\])*\]"
# One token per match: a skip, '(', '|', or a ')' or atom with the
# quantifier after it, if any, read in the same match ({,n} is {0,n} and
# {,} is *; {} is two literals). Only a quantified ')' or atom sets a
# count group: the quantifier's symbol or the text between its braces.
_TOKEN = re.compile(
    "(?:" + _SKIP + "|[$^])"
    r"|(\((?:\?:|\?P<[^>]*>)?)|(\|)"
    r"|(?:(\))|(" + _ESCAPE + "|" + _CLASS + "|.))"
    "(?:(?:" + _SKIP + r")*(?:([?*+])|\{([0-9]*,[0-9]*|[0-9]+)\})\??)?",
    re.S,
)


class _Group(namedtuple("_Group", "start end branches children quantified depth")):
    """A group of a scanned source: ``start`` is the index of '(' and
    ``end`` one past ')'; ``branches`` are its branch spans and
    ``children`` its inner groups."""

    __slots__ = ()


def _scan(src: str) -> tuple[list[tuple[int, int]], list[_Group], list[tuple[int, int, int | None]]]:
    """Read a dialect source once, in one pass over its tokens.

    Returns its top-level branch spans, its top-level groups (each with
    its own branch spans and child groups) and every quantified
    character atom at any depth as ``(start, end, max)`` in source
    order, ``max`` None when unbounded. ``src`` is balanced, as every
    checked source and every source expansion splices from one is.
    """
    atoms = []
    branches, groups, start = [], [], 0
    outer = []  # the enclosing levels: (index of '(', branches, groups, branch start)
    for tok in _TOKEN.finditer(src):
        opened, bar, closed, _, sym, braces = tok.groups()
        if opened:
            outer.append((tok.start(), branches, groups, start))
            branches, groups, start = [], [], tok.end()
        elif bar:
            branches.append((start, tok.start()))
            start = tok.end()
        elif closed:
            branches.append((start, tok.start()))
            at, up_branches, up_groups, start = outer.pop()
            up_groups.append(_Group(at, tok.end(3), branches, groups, bool(sym or braces), len(outer) + 1))
            branches, groups = up_branches, up_groups
        elif sym:
            atoms.append((tok.start(), tok.end(4), 1 if sym == "?" else None))
        elif braces:
            hi = braces.rpartition(",")[2]
            atoms.append((tok.start(), tok.end(4), int(hi) if hi else None))
    branches.append((start, len(src)))
    return branches, groups, atoms


# Expansion caps: alternations deeper than this many groups stay intact,
# and a rule never yields more sub-rules than this.
MAX_DEPTH = 3
MAX_SUBRULES = 64


def _first_expandable(src: str, patterns: PatternTable) -> tuple[tuple[int, int, list[str]] | None, bool]:
    """Locate the leftmost expandable alternation.

    Returns ((span_start, span_end, branch_texts) or None, hit_depth_cap).
    Pattern-level alternation expands as the whole source; group-level
    alternation expands by substituting the branch for the group,
    parentheses included. Quantified groups are never entered: splitting
    them would change what the rule matches.
    """
    branches, groups, _ = patterns.scan(src)
    if len(branches) > 1:
        return (0, len(src), [src[a:b] for a, b in branches]), False
    return _leftmost_alternation(src, groups)


def _leftmost_alternation(src: str, groups) -> tuple[tuple[int, int, list[str]] | None, bool]:
    """``_first_expandable`` within ``groups``: the leftmost alternation
    neither inside a quantified group nor deeper than ``MAX_DEPTH``, and
    whether a deeper one was passed over on the way. A module-level
    function, not a closure, so that a scan leaves no reference cycle."""
    capped = False
    for g in groups:
        if g.quantified:
            continue
        if len(g.branches) > 1:
            if g.depth > MAX_DEPTH:
                capped = True
            else:
                return (g.start, g.end, [src[a:b] for a, b in g.branches]), capped
        found, below = _leftmost_alternation(src, g.children)
        capped = capped or below
        if found:
            return found, capped
    return None, capped


# The end of a spliced piece that the text after it could extend: a
# literal '{' with the digits and comma after it, which a following '}'
# would close into a quantifier, or a short octal escape. A branch
# spliced after or ending in one is wrapped in a group.
_OPEN_END = re.compile(r"(?<!\\)(?:\\\\)*(?:\{[0-9]*(?:,[0-9]*)?|\\0[0-7]?)\Z")


def expand_subrules(signature, patterns: PatternTable | None = None) -> SubRuleSet:
    """Cross-product expansion of a rule's alternations into sub-rules.

    Expansion is leftmost-first and recursive, so a rule like
    ``(?:(?:;|#|--)\\s*(?:drop|alter))`` yields its six criteria in
    reading order. When the product would exceed ``MAX_SUBRULES`` or an
    alternation sits deeper than ``MAX_DEPTH`` groups, the remaining
    groups are left intact and ``expansion_complete`` is False. Each
    source is scanned, and each sub-rule's dialect checked, through
    ``patterns``.
    """
    patterns = patterns or PatternTable()
    src = signature.pattern_source
    signature.tree  # the source itself must be in the dialect

    sources = [src]
    complete = True
    i = 0
    while i < len(sources):
        found, capped = _first_expandable(sources[i], patterns)
        if capped:
            complete = False
        if found is None:
            i += 1
            continue
        gstart, gend, branch_texts = found
        if len(sources) - 1 + len(branch_texts) > MAX_SUBRULES:
            complete = False
            i += 1
            continue
        s = sources[i]
        head, tail = s[:gstart], s[gend:]
        wrap = _OPEN_END.search(head) is not None
        sources[i : i + 1] = [
            head + (f"(?:{bt})" if wrap or (tail and _OPEN_END.search(bt)) else bt) + tail
            for bt in branch_texts
        ]

    for sub in sources:
        if sub != src:
            patterns.check(sub, signature.id)
    return SubRuleSet(
        signature_id=signature.id,
        subrules=tuple(sources),
        expansion_complete=complete,
    )


# ---------------------------------------------------------------------------
# bounded quantifiers on freely repeatable characters

def bounded_specials(signature, patterns: PatternTable | None = None) -> list[QuantifierBound]:
    """Finitely bounded atoms whose class covers a repeatable character.

    An attacker can exceed any finite cap on whitespace, parentheses or
    quotes without changing the query, so each such bound is a candidate
    bypass point. Unbounded atoms are never reported. The source's scan
    and each bound's atom charset come from ``patterns``; a bound keeps
    the repeatable characters its atom matches, not the charset.
    """
    patterns = patterns or PatternTable()
    src = signature.pattern_source
    signature.tree  # the source must be in the dialect

    bounds: list[QuantifierBound] = []
    for start, end, hi in patterns.scan(src)[2]:
        if hi is None:
            continue
        atom_src = src[start:end]
        cs = patterns.charset(atom_src)
        repeatable = "".join(filter(cs.contains, DEFAULT_REPEATABLE)) if cs is not None else ""
        if repeatable:
            bounds.append(QuantifierBound(signature.id, start, atom_src, hi, repeatable))
    return bounds
