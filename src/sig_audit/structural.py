"""Structural analysis of signature patterns.

Three views of a rule:

* operator extraction, from an NFA built off the rule's parse, with a
  loop for each repeat without an upper bound: which SQL operators the
  rule can actually match as standalone tokens (word operators only
  count where the pattern admits a word boundary on both sides, so
  ``or`` buried in a longer literal like ``preorder`` never counts;
  which characters an atom matches is asked of ``re`` itself);
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

from .corpus import Signature
from .errors import RegexDialectError
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
    once, so the NFA walk answers its questions with integer masking.
    Characters outside the probe set (custom family members can hold
    any) ask the compiled atom. Move tables are cached per token, since
    one atom serves every rule of an audit. ``ascii`` is the atom's
    ``matcher.ascii_class``, read off the same folded compile, which a
    case-insensitive rule is searched with.
    """

    __slots__ = ("_match", "_match_ci", "mask", "folded", "ascii", "narrow", "can_word", "can_nonword", "_moves")

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
        self._moves: dict[str, list[tuple[int, ...]]] = {}

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

    def moves(self, token: str) -> list[tuple[int, ...]]:
        """``_char_moves(self, token)``, computed once."""
        table = self._moves.get(token)
        if table is None:
            table = self._moves[token] = _char_moves(self, token)
        return table

    def can_other_than(self, ch: str) -> bool:
        return bool(self.mask & ~_PROBE_BIT.get(ch, 0))


# ---------------------------------------------------------------------------
# the patterns of one audit

class PatternTable:
    """The patterns of one audit: each distinct rule or sub-rule source
    is parsed and checked once and compiled at most once per case mode,
    through one ``Signature``, each distinct source is span-scanned
    once, and each distinct atom has one charset.

    Seeded with the audit's rules, which compile through ``compiled``
    as sub-rules do, so rules that share a source share one compile, and
    a sub-rule spelled like a rule needs no parse or code of its own. A
    source's parse is handed to its compiled form. Atoms are keyed by
    parse node, so a rule's atom and the same atom quantified share one
    charset and its cached moves, and a case-insensitive rule or
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
# operator extraction via a small NFA over abstract character edges

_EPS = "eps"
_CHAR = "char"
_ANCHOR = "anchor"


class _Nfa:
    def __init__(self):
        self.edges: dict[int, list[tuple[str, object, int]]] = {}
        self.atoms: set[_CharSet] = set()  # the charsets on this rule's edges
        self._next = 0

    def state(self) -> int:
        s = self._next
        self._next += 1
        self.edges[s] = []
        return s

    def add(self, src: int, kind: str, payload, dst: int) -> None:
        self.edges[src].append((kind, payload, dst))


def _build_nfa(nodes, nfa: _Nfa, entry: int, repeat_cap: int, patterns: PatternTable) -> int:
    """Thompson-style construction, each atom's charset from ``patterns``;
    returns the exit state.

    A repeat without an upper bound is ``min(lo, repeat_cap)`` copies of
    its body and a loop; a counted repeat is cut at ``repeat_cap`` copies,
    enough context around any token the caller looks for."""
    C = sre_constants
    cur = entry
    for node in nodes.data:  # the node list: iterating a SubPattern indexes it node by node
        op, arg = node
        if op in _ATOM_OPS:
            cs = patterns.atom(node)
            nfa.atoms.add(cs)
            nxt = nfa.state()
            nfa.add(cur, _CHAR, cs, nxt)
            cur = nxt
        elif op is C.AT:
            nxt = nfa.state()
            nfa.add(cur, _ANCHOR, arg, nxt)
            cur = nxt
        elif op is C.SUBPATTERN:
            cur = _build_nfa(arg[3], nfa, cur, repeat_cap, patterns)
        elif op is C.BRANCH:
            exits = []
            for branch in arg[1]:
                b_entry = nfa.state()
                nfa.add(cur, _EPS, None, b_entry)
                exits.append(_build_nfa(branch, nfa, b_entry, repeat_cap, patterns))
            nxt = nfa.state()
            for e in exits:
                nfa.add(e, _EPS, None, nxt)
            cur = nxt
        elif op in (C.MAX_REPEAT, C.MIN_REPEAT):
            lo, hi, body = arg
            lo = min(lo, repeat_cap)
            for _ in range(lo):
                cur = _build_nfa(body, nfa, cur, repeat_cap, patterns)
            if hi is C.MAXREPEAT:
                # a fresh loop state, and a fresh exit with no edge back
                # into the body: looping on ``cur`` would interleave two
                # loops in a row, and an optional group ending in this
                # repeat skips to its exit
                loop, out = nfa.state(), nfa.state()
                nfa.add(cur, _EPS, None, loop)
                nfa.add(_build_nfa(body, nfa, loop, repeat_cap, patterns), _EPS, None, loop)
                nfa.add(loop, _EPS, None, out)
                cur = out
            else:
                for _ in range(min(hi, repeat_cap) - lo):
                    skip_from = cur
                    cur = _build_nfa(body, nfa, cur, repeat_cap, patterns)
                    nfa.add(skip_from, _EPS, None, cur)
        else:
            raise RegexDialectError(None, f"unsupported construct: {op}")
    return cur


# Token progress along an NFA walk: _GLUED and _SEARCH before the token
# (_GLUED right after a character that would glue onto its first
# character), 1..len(token) characters spelled, then len(token) + 1 once
# the closing boundary is seen. Move tables are indexed by progress + 2
# (slot 2, progress 0, is never used).
_GLUED = -2
_SEARCH = -1


def _char_moves(cs: _CharSet, token: str) -> list[tuple[int, ...]]:
    """Progress reachable over one ``cs`` edge, for each progress value."""
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


def _token_realizable(nfa: _Nfa, start: int, accept: int, token: str, narrow: list[_CharSet], spelled: int) -> bool:
    """Can the pattern spell ``token`` as a standalone occurrence?

    Standalone means: for word tokens, non-word characters (or the match
    edge) on both sides; for symbol tokens, the occurrence is a maximal
    run (not extendable with the token's own characters). Token
    characters must come from ``narrow``, the NFA's narrow atoms, whose
    ``folded`` masks OR to ``spelled``; a wildcard like ``[^\\n]``
    admits every operator and says nothing about what the rule was
    written to catch.
    """
    if not all(
        spelled & _PROBE_BIT[ch] if ch in _PROBE_BIT else any(cs.contains_ci(ch) for cs in narrow) for ch in token
    ):
        return False  # some character of the token is spelled by no atom
    n = len(token)
    moves = {cs: cs.moves(token) for cs in nfa.atoms}
    # an anchor is a match edge: a boundary before or after the token,
    # and never inside it
    anchor_moves = [(_SEARCH,), (_SEARCH,), ()] + [()] * (n - 1) + [(n + 1,), (n + 1,)]

    seen = {(start, _SEARCH)}
    queue = [(start, _SEARCH)]
    while queue:
        state, k = queue.pop()
        if state == accept and k >= n:
            return True
        for kind, payload, dst in nfa.edges[state]:
            if kind == _EPS:
                succ = (k,)
            elif kind == _ANCHOR:
                succ = anchor_moves[k + 2]
            else:
                succ = moves[payload][k + 2]
            for ts in succ:
                nxt = (dst, ts)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def extract_operators(
    signature, tokens: frozenset[str] = DEFAULT_OPERATORS, patterns: PatternTable | None = None
) -> TokenizedSignature:
    """Every one of ``tokens`` the pattern can match as a standalone token.

    Each atom's charset, with its cached moves, comes from ``patterns``."""
    patterns = patterns or PatternTable()
    cap = max(map(len, tokens), default=1) + 2
    nfa = _Nfa()
    entry = nfa.state()
    accept = _build_nfa(signature.tree, nfa, entry, cap, patterns)
    narrow = [cs for cs in nfa.atoms if cs.narrow]
    spelled = 0
    for cs in narrow:
        spelled |= cs.folded
    found = frozenset(token for token in tokens if _token_realizable(nfa, entry, accept, token, narrow, spelled))
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

    capped = False

    def walk(groups) -> tuple[int, int, list[str]] | None:
        nonlocal capped
        for g in groups:
            if g.quantified:
                continue
            if len(g.branches) > 1:
                if g.depth > MAX_DEPTH:
                    capped = True
                else:
                    return (g.start, g.end, [src[a:b] for a, b in g.branches])
            found = walk(g.children)
            if found:
                return found
        return None

    found = walk(groups)
    return found, capped


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
