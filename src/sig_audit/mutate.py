"""Semantics-preserving payload mutants.

Implements the classic tamper schemes (case changes, whitespace games,
non-breaking spaces, inline comments, redundant parentheses, URL
re-encoding) plus targeted repetition of characters a rule has capped
with a finite quantifier. Schemes only rewrite between SQL tokens or
inside whitespace runs, which is what makes the mutants attack-
equivalent; that construction rule is the probing assumption, no live
database verifies it.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple

_SQL_KEYWORDS = frozenset(
    {
        "select", "union", "insert", "update", "delete", "drop", "alter",
        "create", "rename", "truncate", "load", "having", "where", "like",
        "from", "and", "or", "xor", "not", "order", "group", "by", "all",
        "distinct", "if", "while", "begin", "end", "exec", "declare",
        "cast", "convert", "waitfor", "delay", "top", "limit", "sleep",
        "benchmark", "case", "when", "then", "null", "values", "into",
        "set", "table", "database",
    }
)

_TOKEN_RE = re.compile(
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>\d+)"
    r"|(?P<string>'[^']*'|\"[^\"]*\")"
    r"|(?P<space>\s+)"
    r"|(?P<other>.)",
    re.DOTALL,
)


class MutationScheme(namedtuple("MutationScheme", "kind char count normalizable", defaults=(None, 2, True))):
    """One tamper scheme. ``normalizable`` records whether an input
    normalization stage could undo it; comment injection and extra
    parentheses survive normalization and must be handled by rules."""

    __slots__ = ()

    @property
    def name(self) -> str:
        if self.kind == "bounded_repeat":
            return f"bounded_repeat({self.char!r},{self.count})"
        return self.kind


CASE_TOGGLE = MutationScheme("case_toggle")
WHITESPACE_VARIANT = MutationScheme("whitespace_variant")
NBSP_SUBSTITUTE = MutationScheme("nbsp_substitute")
COMMENT_INJECT = MutationScheme("comment_inject", normalizable=False)
REDUNDANT_PARENS = MutationScheme("redundant_parens", normalizable=False)
URL_REENCODE = MutationScheme("url_reencode")

DEFAULT_SCHEMES = (
    CASE_TOGGLE,
    WHITESPACE_VARIANT,
    NBSP_SUBSTITUTE,
    COMMENT_INJECT,
    REDUNDANT_PARENS,
    URL_REENCODE,
)


# The largest repeat count a mutant may reach: a ``bounded_repeat``
# scheme repeats its character at most this many times, and
# ``targeted_repeats`` makes no mutant for a bound that only a longer run
# exceeds (a rule's cap would otherwise set the length, and the cost, of
# every mutant).
MAX_REPEAT_COUNT = 4096


def bounded_repeat(char: str, count: int) -> MutationScheme:
    return MutationScheme(
        "bounded_repeat",
        char=char,
        count=count,
        normalizable=char not in "()",
    )


def parse_scheme(token: str) -> MutationScheme:
    """Parse a CLI scheme token, e.g. ``case_toggle`` or ``bounded_repeat=(:3``.

    ``bounded_repeat=C:N`` repeats C, which is ``(`` (the default), ``)``
    or one whitespace character, to a run of N (default 2), from 2 to
    ``MAX_REPEAT_COUNT``; anything else raises ``ValueError``.
    """
    if token.startswith("bounded_repeat="):
        char, _, count = token.split("=", 1)[1].partition(":")
        char, count = char or "(", count or "2"
        if len(char) != 1 or not (char in "()" or char.isspace()):
            raise ValueError(f"bounded_repeat repeats '(', ')' or one whitespace character, not {char!r}")
        if not (count.isdecimal() and 2 <= int(count) <= MAX_REPEAT_COUNT):
            raise ValueError(f"bounded_repeat count must be an integer from 2 to {MAX_REPEAT_COUNT}, not {count!r}")
        return bounded_repeat(char, int(count))
    named = {s.kind: s for s in DEFAULT_SCHEMES}
    if token not in named:
        raise ValueError(f"unknown mutation scheme: {token!r}")
    return named[token]


class MutationConfig(namedtuple("MutationConfig", "schemes budget seed")):
    """The schemes (a tuple) to apply, the most mutants to yield and the
    case-toggle seed."""

    __slots__ = ()

    def __new__(cls, schemes=DEFAULT_SCHEMES, budget=32, seed=0):
        if budget < 1:
            raise ValueError("budget must be at least 1")
        return super().__new__(cls, schemes, budget, seed)

    @classmethod
    def _make(cls, fields):
        # so that _replace checks the budget too
        return cls(*fields)


def _tokens(payload: str):
    return list(_TOKEN_RE.finditer(payload))


def _keyword_spans(payload: str) -> list[tuple[int, int]]:
    return [
        m.span()
        for m in _tokens(payload)
        if m.lastgroup == "word" and m.group().lower() in _SQL_KEYWORDS
    ]


def _space_spans(payload: str) -> list[tuple[int, int]]:
    """Whitespace runs at token boundaries (string literals excluded)."""
    return [m.span() for m in _tokens(payload) if m.lastgroup == "space"]


def _space_runs(payload: str) -> list[tuple[int, int]]:
    """Every whitespace run, including runs inside quoted literals.

    Extending an existing run never creates a new token boundary, so
    these are all legal sites for run-length games.
    """
    return [m.span() for m in re.finditer(r"\s+", payload)]


def _paren_pairs(payload: str) -> list[tuple[int, int]]:
    """Spans (open_idx, close_idx) of balanced parenthesis pairs."""
    stack = []
    pairs = []
    for i, ch in enumerate(payload):
        if ch == "(":
            stack.append(i)
        elif ch == ")" and stack:
            pairs.append((stack.pop(), i))
    pairs.sort()
    return pairs


def _case_toggle(payload: str, rng: random.Random) -> list[str]:
    spans = _keyword_spans(payload)
    if not spans:
        return []
    out = []
    # flip one letter per keyword, walking the flip position along
    chars = list(payload)
    for k, (a, b) in enumerate(spans):
        pos = a + (k % (b - a))
        chars[pos] = chars[pos].swapcase()
    out.append("".join(chars))
    chars = list(payload)
    for a, b in spans:
        chars[a:b] = payload[a:b].upper()
    out.append("".join(chars))
    chars = list(payload)
    for a, b in spans:
        chars[a:b] = [c.upper() if rng.random() < 0.5 else c.lower() for c in payload[a:b]]
    out.append("".join(chars))
    return out


def _whitespace_variant(payload: str) -> list[str]:
    out = []
    runs = _space_runs(payload)
    for a, b in runs:
        out.append(payload[:b] + " " + payload[b:])
    if runs:
        a, b = runs[0]
        out.append(payload[:a] + "\t" + payload[b:])
    return out


def _nbsp_substitute(payload: str) -> list[str]:
    # emitted in submitted (url-encoded) form
    return [payload[:a] + "%A0" + payload[b:] for a, b in _space_spans(payload)]


def _comment_inject(payload: str) -> list[str]:
    out = [payload[:a] + "/**/" + payload[b:] for a, b in _space_spans(payload)]
    for a, b in _keyword_spans(payload):
        out.append(payload[:a] + "/*!" + payload[a:b] + "*/" + payload[b:])
    return out


def _redundant_parens(payload: str) -> list[str]:
    out = []
    for a, b in _paren_pairs(payload):
        out.append(payload[:a] + "(" + payload[a : b + 1] + ")" + payload[b + 1 :])
    for m in _tokens(payload):
        if m.lastgroup == "number":
            a, b = m.span()
            if a > 0 and payload[a - 1] == "(" and b < len(payload) and payload[b] == ")":
                continue
            out.append(payload[:a] + "(" + payload[a:b] + ")" + payload[b:])
    return out


_REENCODE = [(" ", "%20"), ("'", "%27"), ('"', "%22"), (";", "%3B"), ("(", "%28"), (")", "%29")]


def _url_reencode(payload: str) -> list[str]:
    out = []
    for raw, enc in _REENCODE:
        if raw in payload:
            out.append(payload.replace(raw, enc))
    return out


def _bounded_repeat(payload: str, char: str, count: int) -> list[str]:
    out = []
    if char in "()":
        for a, b in _paren_pairs(payload):
            depth_open = "(" * (count - 1)
            depth_close = ")" * (count - 1)
            out.append(
                payload[:a] + depth_open + payload[a : b + 1] + depth_close + payload[b + 1 :]
            )
    elif char.isspace():
        for a, b in _space_runs(payload):
            if b - a >= count:
                continue
            out.append(payload[:b] + char * (count - (b - a)) + payload[b:])
    return out


def generate(payload: str, config: MutationConfig | None = None) -> list[tuple[str, MutationScheme]]:
    """Generate up to ``config.budget`` mutants of a payload.

    Deterministic for a fixed seed; every mutant differs from the input
    and carries the scheme that produced it.
    """
    if not payload:
        raise ValueError("payload must be non-empty")
    config = config or MutationConfig()
    rng = random.Random(config.seed)
    seen = {payload}
    out: list[tuple[str, MutationScheme]] = []
    for scheme in config.schemes:
        if scheme.kind == "case_toggle":
            mutants = _case_toggle(payload, rng)
        elif scheme.kind == "whitespace_variant":
            mutants = _whitespace_variant(payload)
        elif scheme.kind == "nbsp_substitute":
            mutants = _nbsp_substitute(payload)
        elif scheme.kind == "comment_inject":
            mutants = _comment_inject(payload)
        elif scheme.kind == "redundant_parens":
            mutants = _redundant_parens(payload)
        elif scheme.kind == "url_reencode":
            mutants = _url_reencode(payload)
        elif scheme.kind == "bounded_repeat":
            mutants = _bounded_repeat(payload, scheme.char, scheme.count)
        else:
            raise ValueError(f"unknown scheme kind: {scheme.kind}")
        for mutant in mutants:
            if mutant in seen:
                continue
            seen.add(mutant)
            out.append((mutant, scheme))
            if len(out) >= config.budget:
                return out
    return out


def _past_cap(bound) -> bool:
    """Whether exceeding ``bound`` takes a run longer than ``MAX_REPEAT_COUNT``."""
    return bound.max_occurrences + 1 > MAX_REPEAT_COUNT


def targeted_repeats(payload: str, bound) -> list[tuple[str, MutationScheme]]:
    """Mutants that exceed one finite quantifier bound, a
    ``structural.QuantifierBound``.

    Repeats each of the bound's ``repeatable`` characters past its cap:
    parenthesis pairs are wrapped (balanced) and whitespace runs are
    extended in place. Quote bounds have no safe insertion site and
    yield nothing. A class holding both parentheses wraps once, under
    the ``(`` scheme. A bound that only a run longer than
    ``MAX_REPEAT_COUNT`` exceeds yields nothing.
    """
    if _past_cap(bound):
        return []
    count = bound.max_occurrences + 1
    out: list[tuple[str, MutationScheme]] = []
    for char in bound.repeatable:
        if char == ")" and "(" in bound.repeatable:
            continue
        scheme = bounded_repeat(char, count)
        for mutant in _bounded_repeat(payload, char, count):
            if mutant != payload:
                out.append((mutant, scheme))
    return out
