"""Structural analysis of signature patterns.

Three views of a rule:

* operator extraction, from the rule's parse: which SQL operators the
  rule can actually match as standalone tokens (word operators only
  count where the pattern admits a word boundary on both sides, so
  ``or`` buried in a longer literal like ``preorder`` never counts);
* sub-rule expansion, from one span scan of the source: cross product
  of the alternations inside unquantified groups, giving the individual
  criteria a rule ORs together;
* quantifier bounds, from the same scan: finitely capped atoms over
  characters an attacker may repeat freely (whitespace, parentheses,
  quotes).

A ``PatternTable`` lets the passes of one audit share their patterns:
each distinct sub-rule source is parsed once and compiled at most once
per case mode, a sub-rule spelled like a rule reuses the rule's, and
each distinct quantified atom is parsed once.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

try:
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_constants
    import sre_parse

from .corpus import Signature
from .errors import RegexDialectError
# parse_pattern stays bound here: perfbench/trace.py checks that its wrapper replaces it
from .matcher import CompiledSignature, compile_signature, parse_pattern  # noqa: F401

# Characters usable an unbounded number of times in an attack payload
# without changing what the query does.
DEFAULT_REPEATABLE = frozenset(" \t()'\"")


@dataclass(frozen=True)
class OperatorLexicon:
    """Operator tokens split by how they are located in a pattern.

    Word operators need token boundaries; symbol operators are matched
    verbatim as maximal runs (a literal ``\\|\\|`` yields ``||``, not
    two ``|``).
    """

    word_ops: frozenset[str]
    symbol_ops: frozenset[str]

    @property
    def tokens(self) -> frozenset[str]:
        return self.word_ops | self.symbol_ops

    @functools.cached_property
    def _atoms(self) -> dict[tuple, "_CharSet"]:
        """One charset per distinct parsed atom, shared by every rule
        extracted with this lexicon; each caches its per-token moves.
        It lives as long as the lexicon (not compared or exported)."""
        return {}


def default_lexicon() -> OperatorLexicon:
    return OperatorLexicon(
        word_ops=frozenset({"and", "or", "xor", "nand", "not"}),
        symbol_ops=frozenset({"||", "&&", "^", "|", "&"}),
    )


@dataclass(frozen=True)
class TokenizedSignature:
    signature_id: str
    operators: frozenset[str]


@dataclass(frozen=True)
class SubRuleSet:
    signature_id: str
    subrules: tuple[str, ...]
    expansion_complete: bool


@dataclass(frozen=True)
class QuantifierBound:
    signature_id: str
    position: int
    char_class: str
    max_occurrences: int
    # the parsed ``char_class`` (not compared or exported)
    charset: _CharSet = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# character set abstraction over parsed class nodes

_PROBE_CHARS = [chr(c) for c in range(32, 127)] + ["\t", "\n", "\xa0"]
_PROBE_BIT = {ch: 1 << i for i, ch in enumerate(_PROBE_CHARS)}
_ALL_PROBES = (1 << len(_PROBE_CHARS)) - 1


def _is_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _probe_mask(pred) -> int:
    """Bit mask of the probe characters that satisfy ``pred``."""
    return sum(bit for ch, bit in _PROBE_BIT.items() if pred(ch))


_WORD_PROBES = _probe_mask(_is_word)


class _CharSet:
    """Membership of one parsed atom (literal, class, dot).

    ``mask`` holds the atom's probe characters, computed once, so the
    NFA walk answers its questions with integer masking. Characters
    outside the probe set (custom family members can hold any) fall
    back to the predicate. Case-insensitive membership is cached per
    character and move tables per token, since one atom serves every
    rule extracted with a lexicon.
    """

    __slots__ = ("_pred", "mask", "narrow", "can_word", "can_nonword", "_ci", "_moves")

    # atoms realizing more probe characters than this are treated as
    # wildcards: they can carry a boundary but never spell an operator
    _NARROW = 16

    def __init__(self, predicate, mask: int):
        self._pred = predicate
        self.mask = mask
        self.narrow = mask.bit_count() <= self._NARROW
        self.can_word = bool(mask & _WORD_PROBES)
        self.can_nonword = bool(mask & ~_WORD_PROBES)
        self._ci: dict[str, bool] = {}
        self._moves: dict[tuple[str, bool], list[tuple[int, ...]]] = {}

    def contains(self, ch: str) -> bool:
        bit = _PROBE_BIT.get(ch)
        if bit is None:
            return self._pred(ch)
        return bool(self.mask & bit)

    def contains_ci(self, ch: str) -> bool:
        hit = self._ci.get(ch)
        if hit is None:
            # re.IGNORECASE uses the simple, one-character case mapping:
            # the swap of "ß" is "SS", which no single character matches
            swapped = ch.swapcase()
            hit = self.contains(ch) or (len(swapped) == 1 and self.contains(swapped))
            self._ci[ch] = hit
        return hit

    def moves(self, token: str, word_token: bool) -> list[tuple[int, ...]]:
        """``_char_moves(self, token, word_token)``, computed once."""
        key = (token, word_token)
        table = self._moves.get(key)
        if table is None:
            table = self._moves[key] = _char_moves(self, token, word_token)
        return table

    def can_other_than(self, ch: str) -> bool:
        return bool(self.mask & ~_PROBE_BIT.get(ch, 0))


def _category_pred(category):
    C = sre_constants
    if category == C.CATEGORY_DIGIT:
        return lambda ch: ch.isdigit()
    if category == C.CATEGORY_NOT_DIGIT:
        return lambda ch: not ch.isdigit()
    if category == C.CATEGORY_SPACE:
        return lambda ch: ch.isspace()
    if category == C.CATEGORY_NOT_SPACE:
        return lambda ch: not ch.isspace()
    if category == C.CATEGORY_WORD:
        return _is_word
    if category == C.CATEGORY_NOT_WORD:
        return lambda ch: not _is_word(ch)
    raise RegexDialectError(None, f"unsupported category: {category}")


def _range_mask(lo: int, hi: int) -> int:
    return sum(bit for ch, bit in _PROBE_BIT.items() if lo <= ord(ch) <= hi)


def _in_charset(items) -> _CharSet:
    C = sre_constants
    negate = bool(items) and items[0][0] is C.NEGATE
    if negate:
        items = items[1:]
    preds = []
    mask = 0
    for op, arg in items:
        if op is C.LITERAL:
            preds.append(lambda ch, c=chr(arg): ch == c)
            mask |= _PROBE_BIT.get(chr(arg), 0)
        elif op is C.RANGE:
            lo, hi = arg
            preds.append(lambda ch, lo=lo, hi=hi: lo <= ord(ch) <= hi)
            mask |= _range_mask(lo, hi)
        elif op is C.CATEGORY:
            preds.append(_category_pred(arg))
            mask |= _probe_mask(preds[-1])
        else:
            raise RegexDialectError(None, f"unsupported class item: {op}")

    def pred(ch):
        hit = any(p(ch) for p in preds)
        return not hit if negate else hit

    return _CharSet(pred, _ALL_PROBES & ~mask if negate else mask)


def _node_charset(op, arg) -> _CharSet:
    C = sre_constants
    if op is C.LITERAL:
        c = chr(arg)
        return _CharSet(lambda ch: ch == c, _PROBE_BIT.get(c, 0))
    if op is C.NOT_LITERAL:
        c = chr(arg)
        return _CharSet(lambda ch: ch != c, _ALL_PROBES & ~_PROBE_BIT.get(c, 0))
    if op is C.ANY:
        return _CharSet(lambda ch: ch != "\n", _ALL_PROBES & ~_PROBE_BIT["\n"])
    if op is C.IN:
        return _in_charset(arg)
    raise RegexDialectError(None, f"not a character atom: {op}")


# ---------------------------------------------------------------------------
# the patterns of one audit

class PatternTable:
    """The patterns of one audit: each distinct sub-rule source is parsed
    and checked once and compiled at most once per case mode, through
    one ``Signature``, and each distinct quantified atom source has one
    charset.

    Seeded with the audit's rules and, in rule order, their compiled
    forms, so a sub-rule spelled like a rule needs no parse or code of
    its own. A sub-rule's parse is handed to its compiled form. The table
    lives as long as the audit that made it; a standalone pass without
    one uses a fresh table.
    """

    def __init__(self, signatures=(), compiled=()):
        self._checked = {sig.pattern_source for sig in signatures}
        self._parsed: dict[str, Signature] = {}  # checked sub-rules not compiled yet
        self._compiled: dict[tuple[str, bool], CompiledSignature] = {}
        for sig, found in zip(signatures, compiled):
            self._compiled.setdefault((sig.pattern_source, not found.case_insensitive), found)
        self._charsets: dict[str, _CharSet | None] = {}

    def check(self, source: str, signature_id: str) -> None:
        """Parse ``source`` and check its dialect, once per table."""
        if source not in self._checked:
            sig = Signature(id=signature_id, pattern_source=source)
            sig.tree  # parses and checks the dialect
            self._parsed[source] = sig
            self._checked.add(source)

    def compiled(self, source: str, signature_id: str, case_sensitive: bool = False) -> CompiledSignature:
        """``compile_signature`` of ``source``, from its parse when ``check``
        made one; a new signature takes ``signature_id``."""
        key = (source, case_sensitive)
        found = self._compiled.get(key)
        if found is None:
            sig = self._parsed.pop(source, None) or Signature(id=signature_id, pattern_source=source)
            found = self._compiled[key] = compile_signature(sig, case_sensitive)
            self._checked.add(source)
        return found

    def charset(self, atom_source: str) -> _CharSet | None:
        """``_atom_charset(atom_source)``, parsed once."""
        if atom_source not in self._charsets:
            self._charsets[atom_source] = _atom_charset(atom_source)
        return self._charsets[atom_source]


# ---------------------------------------------------------------------------
# operator extraction via a small NFA over abstract character edges

_EPS = "eps"
_CHAR = "char"
_ANCHOR = "anchor"


class _Nfa:
    def __init__(self, table: dict[tuple, _CharSet] | None = None):
        self.edges: dict[int, list[tuple[str, object, int]]] = {}
        self.atoms: dict[tuple, _CharSet] = {}  # one charset per distinct atom of this rule
        self._table = {} if table is None else table  # charsets shared across rules
        self._next = 0

    def state(self) -> int:
        s = self._next
        self._next += 1
        self.edges[s] = []
        return s

    def add(self, src: int, kind: str, payload, dst: int) -> None:
        self.edges[src].append((kind, payload, dst))

    def charset(self, op, arg) -> _CharSet:
        key = (op, tuple(arg)) if op is sre_constants.IN else (op, arg)
        cs = self._table.get(key)
        if cs is None:
            cs = self._table[key] = _node_charset(op, arg)
        self.atoms[key] = cs
        return cs


def _build_nfa(nodes, nfa: _Nfa, entry: int, repeat_cap: int) -> int:
    """Thompson-style construction; returns the exit state."""
    C = sre_constants
    cur = entry
    for op, arg in nodes:
        if op in (C.LITERAL, C.NOT_LITERAL, C.ANY, C.IN):
            nxt = nfa.state()
            nfa.add(cur, _CHAR, nfa.charset(op, arg), nxt)
            cur = nxt
        elif op is C.AT:
            nxt = nfa.state()
            nfa.add(cur, _ANCHOR, arg, nxt)
            cur = nxt
        elif op is C.SUBPATTERN:
            cur = _build_nfa(arg[3], nfa, cur, repeat_cap)
        elif op is C.BRANCH:
            exits = []
            for branch in arg[1]:
                b_entry = nfa.state()
                nfa.add(cur, _EPS, None, b_entry)
                exits.append(_build_nfa(branch, nfa, b_entry, repeat_cap))
            nxt = nfa.state()
            for e in exits:
                nfa.add(e, _EPS, None, nxt)
            cur = nxt
        elif op in (C.MAX_REPEAT, C.MIN_REPEAT):
            lo, hi, body = arg
            lo = min(lo, repeat_cap)
            hi = repeat_cap if hi is C.MAXREPEAT or hi > repeat_cap else hi
            for _ in range(lo):
                cur = _build_nfa(body, nfa, cur, repeat_cap)
            for _ in range(hi - lo):
                skip_from = cur
                cur = _build_nfa(body, nfa, cur, repeat_cap)
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


def _char_moves(cs: _CharSet, token: str, word_token: bool) -> list[tuple[int, ...]]:
    """Progress reachable over one ``cs`` edge, for each progress value."""
    n = len(token)
    if word_token:
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


def _token_realizable(nfa: _Nfa, start: int, accept: int, token: str, word_token: bool) -> bool:
    """Can the pattern spell ``token`` as a standalone occurrence?

    Standalone means: for word tokens, non-word characters (or the match
    edge) on both sides; for symbol tokens, the occurrence is a maximal
    run (not extendable with the token's own characters). Token
    characters must come from narrow atoms; a wildcard like ``[^\\n]``
    admits every operator and says nothing about what the rule was
    written to catch.
    """
    narrow = [cs for cs in nfa.atoms.values() if cs.narrow]
    if not all(any(cs.contains_ci(ch) for cs in narrow) for ch in token):
        return False  # some character of the token is spelled by no atom
    n = len(token)
    moves = {cs: cs.moves(token, word_token) for cs in nfa.atoms.values()}
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


def extract_operators(signature, lexicon: OperatorLexicon | None = None) -> TokenizedSignature:
    """Every lexicon operator the pattern can match as a standalone token.

    Rules extracted with one lexicon share its atom table."""
    lexicon = lexicon or default_lexicon()
    cap = max((len(t) for t in lexicon.tokens), default=1) + 2
    nfa = _Nfa(lexicon._atoms)
    entry = nfa.state()
    accept = _build_nfa(signature.tree, nfa, entry, cap)
    found = set()
    for token in lexicon.word_ops:
        if _token_realizable(nfa, entry, accept, token, word_token=True):
            found.add(token)
    for token in lexicon.symbol_ops:
        if _token_realizable(nfa, entry, accept, token, word_token=False):
            found.add(token)
    return TokenizedSignature(signature_id=signature.id, operators=frozenset(found))


# ---------------------------------------------------------------------------
# one span scan of the source, shared by expansion and bound analysis,
# in the token grammar of the sources `parse_pattern` accepts

# A comment or the no-op ``(?u)`` (the one inline flag the load check
# lets through) is transparent: a quantifier after one still binds to
# the item before it.
_SKIP = r"\(\?(?:#(?:\\.|[^\\)])*|u+)\)"
_ESCAPE = r"\\(?:x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|N\{[^}]*\}|0[0-7]{0,2}|[0-7]{3}|.)"
_CLASS = r"\[\^?\]?(?:\\.|[^\]\\])*\]"
_TOKEN = re.compile(
    "(?P<skip>" + _SKIP + "|[$^])"
    r"|(?P<open>\((?:\?:|\?P<[^>]*>)?)|(?P<close>\))|(?P<bar>\|)"
    "|(?P<atom>" + _ESCAPE + "|" + _CLASS + "|.)",
    re.S,
)
# {,n} is {0,n} and {,} is *; {} is two literals
_QUANT = re.compile("(?:" + _SKIP + r")*(?:([?*+])|\{([0-9]*,[0-9]*|[0-9]+)\})\??")


def _quantifier(src: str, i: int) -> tuple[int, int | None] | None:
    """(end, max) of the quantifier at i, max None when unbounded; None
    when no quantifier starts there."""
    q = _QUANT.match(src, i)
    if q is None:
        return None
    sym, braces = q.groups()
    if sym:
        return q.end(), 1 if sym == "?" else None
    hi = braces.rpartition(",")[2]
    return q.end(), int(hi) if hi else None


@dataclass
class _Group:
    start: int          # index of '('
    end: int            # index one past ')'
    branches: list[tuple[int, int]]
    children: list["_Group"]
    quantified: bool
    depth: int


def _scan(src: str) -> tuple[list[tuple[int, int]], list[_Group], list[tuple[int, int, int | None]]]:
    """Read a dialect source once.

    Returns its top-level branch spans, its top-level groups (each with
    its own branch spans and child groups) and every quantified
    character atom at any depth as ``(start, end, max)`` in source
    order, ``max`` None when unbounded.
    """
    atoms = []

    def level(i: int, depth: int):
        # branches and groups from i up to the ')' closing this level
        branches, groups, start = [], [], i
        while i < len(src):
            tok = _TOKEN.match(src, i)
            kind, j = tok.lastgroup, tok.end()
            if kind == "close":
                break
            if kind == "bar":
                branches.append((start, i))
                start = j
            elif kind == "open":
                inner, children, close = level(j, depth + 1)
                quant = _quantifier(src, close + 1)
                groups.append(_Group(i, close + 1, inner, children, quant is not None, depth + 1))
                j = quant[0] if quant else close + 1
            elif kind == "atom" and (quant := _quantifier(src, j)):
                atoms.append((i, j, quant[1]))
                j = quant[0]
            i = j
        branches.append((start, i))
        return branches, groups, i

    branches, groups, _ = level(0, 0)
    return branches, groups, atoms


# Expansion caps: alternations deeper than this many groups stay intact,
# and a rule never yields more sub-rules than this.
MAX_DEPTH = 3
MAX_SUBRULES = 64


def _first_expandable(src: str) -> tuple[tuple[int, int, list[str]] | None, bool]:
    """Locate the leftmost expandable alternation.

    Returns ((span_start, span_end, branch_texts) or None, hit_depth_cap).
    Pattern-level alternation expands as the whole source; group-level
    alternation expands by substituting the branch for the group,
    parentheses included. Quantified groups are never entered: splitting
    them would change what the rule matches.
    """
    branches, groups, _ = _scan(src)
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
    sub-rule's dialect is checked through ``patterns``.
    """
    patterns = patterns or PatternTable()
    src = signature.pattern_source
    signature.tree  # the source itself must be in the dialect

    sources = [src]
    complete = True
    i = 0
    while i < len(sources):
        found, capped = _first_expandable(sources[i])
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

def _atom_charset(atom_src: str) -> _CharSet | None:
    try:
        tree = sre_parse.parse(atom_src)
    except Exception:
        return None
    if len(tree) != 1:
        return None
    op, arg = tree[0]
    C = sre_constants
    if op in (C.LITERAL, C.NOT_LITERAL, C.ANY, C.IN):
        return _node_charset(op, arg)
    return None


def bounded_specials(signature, patterns: PatternTable | None = None) -> list[QuantifierBound]:
    """Finitely bounded atoms whose class covers a repeatable character.

    An attacker can exceed any finite cap on whitespace, parentheses or
    quotes without changing the query, so each such bound is a candidate
    bypass point. Unbounded atoms are never reported. Each bound carries
    its atom's charset from ``patterns``.
    """
    patterns = patterns or PatternTable()
    src = signature.pattern_source
    signature.tree  # the source must be in the dialect

    bounds: list[QuantifierBound] = []
    for start, end, hi in _scan(src)[2]:
        if hi is None:
            continue
        atom_src = src[start:end]
        cs = patterns.charset(atom_src)
        if cs is not None and any(cs.contains(c) for c in DEFAULT_REPEATABLE):
            bounds.append(
                QuantifierBound(
                    signature_id=signature.id,
                    position=start,
                    char_class=atom_src,
                    max_occurrences=hi,
                    charset=cs,
                )
            )
    return bounds
