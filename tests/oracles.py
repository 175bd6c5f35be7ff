"""Independent brute-force oracles used to cross-check the library.

The matcher oracle is a small backtracking evaluator over the parsed
pattern tree: it shares the parser with the stdlib but none of the
matching machinery, so agreement with ``re`` based results is a real
check. Signature sources in this project are lowercase, so
case-insensitive matching is modelled by folding the subject text.

The definition oracles recompute each weakness class with plain loops
and set operations, straight from the set-theoretic statements.
"""

from __future__ import annotations

import json
import random
import re

try:
    from re import _constants as C
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_constants as C
    import sre_parse

from sig_audit import normalize, structural
from sig_audit.classify import AuditFinding, Label
from sig_audit.corpus import AttackVector, Corpus, Dialect, Intent, Signature


# ---------------------------------------------------------------------------
# naive regex engine

def _is_word(ch):
    return ch.isalnum() or ch == "_"


def _category_match(category, ch):
    if category == C.CATEGORY_DIGIT:
        return ch.isdigit()
    if category == C.CATEGORY_NOT_DIGIT:
        return not ch.isdigit()
    if category == C.CATEGORY_SPACE:
        return ch.isspace()
    if category == C.CATEGORY_NOT_SPACE:
        return not ch.isspace()
    if category == C.CATEGORY_WORD:
        return _is_word(ch)
    if category == C.CATEGORY_NOT_WORD:
        return not _is_word(ch)
    raise ValueError(f"category {category}")


def _in_match(items, ch):
    negate = False
    hit = False
    for op, arg in items:
        if op is C.NEGATE:
            negate = True
        elif op is C.LITERAL:
            hit = hit or ch == chr(arg)
        elif op is C.RANGE:
            hit = hit or arg[0] <= ord(ch) <= arg[1]
        elif op is C.CATEGORY:
            hit = hit or _category_match(arg, ch)
        else:
            raise ValueError(f"class item {op}")
    return hit != negate


def _ends(nodes, idx, text, i):
    """Yield every end position of nodes[idx:] matching text at i."""
    if idx == len(nodes):
        yield i
        return
    op, arg = nodes[idx]
    if op is C.LITERAL:
        if i < len(text) and text[i] == chr(arg):
            yield from _ends(nodes, idx + 1, text, i + 1)
    elif op is C.NOT_LITERAL:
        if i < len(text) and text[i] != chr(arg):
            yield from _ends(nodes, idx + 1, text, i + 1)
    elif op is C.ANY:
        if i < len(text) and text[i] != "\n":
            yield from _ends(nodes, idx + 1, text, i + 1)
    elif op is C.IN:
        if i < len(text) and _in_match(arg, text[i]):
            yield from _ends(nodes, idx + 1, text, i + 1)
    elif op is C.AT:
        if arg == C.AT_BEGINNING:
            if i == 0:
                yield from _ends(nodes, idx + 1, text, i)
        elif arg == C.AT_END:
            if i == len(text) or (i == len(text) - 1 and text[i] == "\n"):
                yield from _ends(nodes, idx + 1, text, i)
        else:
            raise ValueError(f"anchor {arg}")
    elif op is C.SUBPATTERN:
        body = list(arg[3])
        for end in _ends(body, 0, text, i):
            yield from _ends(nodes, idx + 1, text, end)
    elif op is C.BRANCH:
        for branch in arg[1]:
            for end in _ends(list(branch), 0, text, i):
                yield from _ends(nodes, idx + 1, text, end)
    elif op in (C.MAX_REPEAT, C.MIN_REPEAT):
        lo, hi, body = arg
        hi = len(text) - i + 1 if hi is C.MAXREPEAT else hi
        body = list(body)

        def reps(count, pos):
            if count >= lo:
                yield pos
            if count < hi:
                for end in _ends(body, 0, text, pos):
                    if end == pos and count >= lo:
                        return  # zero-width body, no progress
                    yield from reps(count + 1, end)

        seen = set()
        for end in reps(0, i):
            if end not in seen:
                seen.add(end)
                yield from _ends(nodes, idx + 1, text, end)
    else:
        raise ValueError(f"node {op}")


def naive_search(pattern_src: str, text: str, case_insensitive: bool = True) -> bool:
    """True iff the pattern matches anywhere in text.

    With case_insensitive the subject is folded; pattern sources here
    are lowercase, so this mirrors IGNORECASE for this rule corpus.
    """
    if case_insensitive:
        text = text.lower()
    nodes = list(sre_parse.parse(pattern_src))
    for start in range(len(text) + 1):
        for _ in _ends(nodes, 0, text, start):
            return True
    return False


# ---------------------------------------------------------------------------
# reference forms of the structural passes

class Nfa:
    """A Thompson-style NFA over character, anchor and epsilon edges."""

    def __init__(self):
        self.edges: dict[int, list[tuple[str, object, int]]] = {}
        self.atoms: set = set()  # the charsets on this NFA's edges
        self._next = 0

    def state(self) -> int:
        s = self._next
        self._next += 1
        self.edges[s] = []
        return s

    def add(self, src: int, kind: str, payload, dst: int) -> None:
        self.edges[src].append((kind, payload, dst))


EPS, CHAR, ANCHOR = "eps", "char", "anchor"


def unrolled_nfa(nodes, nfa, entry, repeat_cap, patterns):
    """Thompson construction of a parse with every repeat unrolled: a
    repeat is cut at ``repeat_cap`` copies of its body, unbounded ones
    included, and has no loop. Returns the exit state."""
    cur = entry
    for node in nodes:
        op, arg = node
        if op in structural._ATOM_OPS:
            cs = patterns.atom(node)
            nfa.atoms.add(cs)
            nxt = nfa.state()
            nfa.add(cur, CHAR, cs, nxt)
            cur = nxt
        elif op is C.AT:
            nxt = nfa.state()
            nfa.add(cur, ANCHOR, arg, nxt)
            cur = nxt
        elif op is C.SUBPATTERN:
            cur = unrolled_nfa(arg[3], nfa, cur, repeat_cap, patterns)
        elif op is C.BRANCH:
            exits = []
            for branch in arg[1]:
                b_entry = nfa.state()
                nfa.add(cur, EPS, None, b_entry)
                exits.append(unrolled_nfa(branch, nfa, b_entry, repeat_cap, patterns))
            nxt = nfa.state()
            for e in exits:
                nfa.add(e, EPS, None, nxt)
            cur = nxt
        elif op in (C.MAX_REPEAT, C.MIN_REPEAT):
            lo, hi, body = arg
            lo = min(lo, repeat_cap)
            hi = repeat_cap if hi is C.MAXREPEAT or hi > repeat_cap else hi
            for _ in range(lo):
                cur = unrolled_nfa(body, nfa, cur, repeat_cap, patterns)
            for _ in range(hi - lo):
                skip_from = cur
                cur = unrolled_nfa(body, nfa, cur, repeat_cap, patterns)
                nfa.add(skip_from, EPS, None, cur)
        else:
            raise ValueError(f"node {op}")
    return cur


def _nfa_spells(nfa, start, accept, token):
    """Depth-first search of the NFA paired with the token progress of
    ``structural._char_moves``: can the NFA spell ``token`` standalone?"""
    n = len(token)
    search = structural._SEARCH
    moves = {cs: structural._char_moves(cs, token) for cs in nfa.atoms}
    anchor_moves = [(search,), (search,), ()] + [()] * (n - 1) + [(n + 1,), (n + 1,)]
    seen = {(start, search)}
    queue = [(start, search)]
    while queue:
        state, k = queue.pop()
        if state == accept and k >= n:
            return True
        for kind, payload, dst in nfa.edges[state]:
            if kind == EPS:
                succ = (k,)
            elif kind == ANCHOR:
                succ = anchor_moves[k + 2]
            else:
                succ = moves[payload][k + 2]
            for ts in succ:
                if (dst, ts) not in seen:
                    seen.add((dst, ts))
                    queue.append((dst, ts))
    return False


def nfa_operators(signature, tokens, patterns) -> frozenset[str]:
    """``structural.extract_operators(signature, tokens, patterns)``
    answered by an NFA: the rule's parse unrolled with each repeat cut at
    the longest token's length plus two copies, enough context around any
    token, and one search per token."""
    nfa = Nfa()
    entry = nfa.state()
    accept = unrolled_nfa(signature.tree, nfa, entry, max(map(len, tokens), default=1) + 2, patterns)
    return frozenset(token for token in tokens if _nfa_spells(nfa, entry, accept, token))


_SCAN_TOKEN = re.compile(
    "(?P<skip>" + structural._SKIP + "|[$^])"
    r"|(?P<open>\((?:\?:|\?P<[^>]*>)?)|(?P<close>\))|(?P<bar>\|)"
    "|(?P<atom>" + structural._ESCAPE + "|" + structural._CLASS + "|.)",
    re.S,
)
_SCAN_QUANT = re.compile("(?:" + structural._SKIP + r")*(?:([?*+])|\{([0-9]*,[0-9]*|[0-9]+)\})\??")


def _scan_quantifier(src, i):
    """(end, max) of the quantifier at i, max None when unbounded; None
    when no quantifier starts there."""
    q = _SCAN_QUANT.match(src, i)
    if q is None:
        return None
    sym, braces = q.groups()
    if sym:
        return q.end(), 1 if sym == "?" else None
    hi = braces.rpartition(",")[2]
    return q.end(), int(hi) if hi else None


def recursive_scan(src):
    """``structural._scan`` read one level per call, token by token, with
    each quantifier matched apart from the item before it."""
    atoms = []

    def level(i, depth):
        branches, groups, start = [], [], i
        while i < len(src):
            tok = _SCAN_TOKEN.match(src, i)
            kind, j = tok.lastgroup, tok.end()
            if kind == "close":
                break
            if kind == "bar":
                branches.append((start, i))
                start = j
            elif kind == "open":
                inner, children, close = level(j, depth + 1)
                quant = _scan_quantifier(src, close + 1)
                groups.append(structural._Group(i, close + 1, inner, children, quant is not None, depth + 1))
                j = quant[0] if quant else close + 1
            elif kind == "atom" and (quant := _scan_quantifier(src, j)):
                atoms.append((i, j, quant[1]))
                j = quant[0]
            i = j
        branches.append((start, i))
        return branches, groups, i

    branches, groups, _ = level(0, 0)
    return branches, groups, atoms


# ---------------------------------------------------------------------------
# definition oracles (plain loops and sets)

def naive_rows(corpus: Corpus, pipeline=normalize.RAW_PIPELINE) -> dict[str, frozenset[str]]:
    """Detected-vector sets per signature via the naive engine."""
    texts = [(v.id, normalize.apply(pipeline, v.payload)) for v in corpus.vectors]
    out = {}
    for sig in corpus.signatures:
        out[sig.id] = frozenset(
            vid for vid, text in texts if naive_search(sig.pattern_source, text)
        )
    return out


def naive_logical(corpus: Corpus) -> frozenset[str]:
    return frozenset(v.id for v in corpus.vectors if v.intent is not Intent.PROBE)


def oracle_incomplete(operators: frozenset[str], families) -> list[str]:
    """Names of families violated per the incompleteness condition."""
    out = []
    for fam in families:
        inter = {m for m in fam.members if m in operators}
        subset = all(m in operators for m in fam.members)
        if inter and not subset:
            out.append(fam.name)
    return out


def oracle_irrelevant(corpus: Corpus) -> set[str]:
    rows = naive_rows(corpus)
    logical = naive_logical(corpus)
    return {sid for sid, row in rows.items() if not (row & logical)}


def oracle_semirelevant(corpus: Corpus, subrule_map: dict[str, tuple[str, ...]]) -> set[str]:
    """Signatures with at least one dead and one live sub-rule."""
    logical = naive_logical(corpus)
    texts = [(v.id, v.payload) for v in corpus.vectors if v.id in logical]
    out = set()
    for sid, subrules in subrule_map.items():
        if len(subrules) < 2:
            continue
        alive = dead = 0
        for src in subrules:
            if any(naive_search(src, text) for _, text in texts):
                alive += 1
            else:
                dead += 1
        if alive and dead:
            out.add(sid)
    return out


def oracle_redundant(corpus: Corpus) -> set[tuple[str, str, str]]:
    """(signature, kind, other) triples per the strict-subset definition."""
    rows = naive_rows(corpus)
    out = set()
    ids = [s.id for s in corpus.signatures]
    for n in ids:
        if not rows[n]:
            continue
        for m in ids:
            if n == m or not rows[m]:
                continue
            if rows[n] == rows[m]:
                if n > m:
                    out.add((n, "duplicate_of", m))
            elif rows[n] < rows[m]:
                out.add((n, "superseded_by", m))
    return out


def naive_redundant(matrix) -> list:
    """``classify_redundant`` as a pairwise loop over the matrix rows:
    row i strictly inside row j gives i ``superseded_by`` j, and equal
    non-empty rows give the larger id ``duplicate_of`` the smaller.
    Sorted by id, label and the evidence's ``json.dumps`` text."""
    findings = []
    ids = matrix.signature_ids
    rows = matrix.rows
    n = len(ids)
    for i in range(n):
        if rows[i] == 0:
            continue
        for j in range(n):
            if i == j or rows[j] == 0:
                continue
            if rows[i] == rows[j]:
                if ids[i] > ids[j]:
                    findings.append(AuditFinding(ids[i], Label.REDUNDANT, {"duplicate_of": ids[j]}))
            elif rows[i] & ~rows[j] == 0:
                findings.append(AuditFinding(ids[i], Label.REDUNDANT, {"superseded_by": ids[j]}))
    findings.sort(key=lambda f: (f.signature_id, f.label.value, json.dumps(f.evidence, sort_keys=True)))
    return findings


def oracle_bypass(corpus: Corpus, pipeline) -> set[str]:
    out = set()
    for v in corpus.vectors:
        text = normalize.apply(pipeline, v.payload)
        if not normalize.prefilter_pass(pipeline, text):
            out.add(v.id)
            continue
        if not any(
            naive_search(s.pattern_source, text) for s in corpus.signatures
        ):
            out.add(v.id)
    return out


def oracle_inconsistent(corpus: Corpus, pipeline) -> set[str]:
    bypassed = oracle_bypass(corpus, pipeline)
    rows = naive_rows(corpus)
    return {sid for sid, row in rows.items() if row & bypassed}


# ---------------------------------------------------------------------------
# random corpora for definition-equivalence sweeps

_LITERALS = "abcdeghinorstux01259"
_CLASSES = [r"\d", r"\w", r"\s", "[abc]", "[0-9]", "[^a]", "[;')(]", "."]
_QUANTS = ["", "", "", "?", "*", "+", "{1,2}", "{2}"]
_WORDS = ["or", "and", "xor", "select", "union", "drop", "having", "like", "not"]


def random_pattern(rng: random.Random) -> str:
    parts = []
    n = rng.randint(1, 4)
    for _ in range(n):
        kind = rng.random()
        if kind < 0.35:
            atom = rng.choice(_WORDS)
            parts.append(atom)
            continue
        if kind < 0.55:
            a = rng.choice(_WORDS)
            b = rng.choice(_WORDS + ["--", ";"])
            parts.append(f"(?:{a}|{b})")
            if rng.random() < 0.2:
                parts.append(rng.choice(["?", ""]))
            continue
        if kind < 0.8:
            atom = rng.choice(_CLASSES)
        else:
            ch = rng.choice(_LITERALS + " ;')(=")
            atom = re_escape(ch)
        parts.append(atom + rng.choice(_QUANTS))
    pat = "".join(parts)
    if rng.random() < 0.1:
        pat = pat + "$"
    return pat


# repeats with and without an upper bound, lazy ones, and counts above
# any token's repeat cap
_NESTED_QUANTS = ["?", "*", "+", "*?", "+?", "??", "{2}", "{1,3}", "{,2}", "{0,9}", "{3,}", "{7,}", "{2,}?"]
_NESTED_ATOMS = [r"\s", r"\W", r"\w", r"\d", "[|&^]", r"\|", "&", "[&|]", "[;')(]", "[^a]", "."]
_NESTED_WORDS = _WORDS + ["nand", "&&", r"\|\|", "^", "o", "r"]


def random_nested_pattern(rng: random.Random, depth: int = 0) -> str:
    """A pattern of quantified and nested groups (capturing, non-capturing
    and named), lazy and unbounded repeats, counts above the repeat cap,
    and anchors at the edges and inside alternations."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.3 and depth < 2:
            branches = [random_nested_pattern(rng, depth + 1) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.2:
                branches.append(rng.choice(["^", "$"]))
            opener = rng.choice(["(?:", "(?:", "(", f"(?P<g{rng.randrange(10**6)}>"])
            item = opener + "|".join(branches) + ")"
        elif kind < 0.55:
            item = rng.choice(_NESTED_WORDS)
        elif kind < 0.85:
            item = rng.choice(_NESTED_ATOMS)
        else:
            item = re_escape(rng.choice(_LITERALS + " ;')(=|&^"))
        if rng.random() < 0.45:
            item += rng.choice(_NESTED_QUANTS)
        parts.append(item)
    pat = "".join(parts)
    if depth == 0:
        pat = ("^" if rng.random() < 0.15 else "") + pat + ("$" if rng.random() < 0.15 else "")
    return pat


def re_escape(ch: str) -> str:
    if ch in ".^$*+?{}[]\\|()":
        return "\\" + ch
    return ch


def random_payload(rng: random.Random) -> str:
    pool = _LITERALS + "  ;')(=\"<>-#/"
    n = rng.randint(1, 14)
    body = "".join(rng.choice(pool) for _ in range(n))
    if rng.random() < 0.5:
        body += " " + rng.choice(_WORDS) + " " + rng.choice(["1", "'1'", '"x"'])
    return body.strip() or "1"


def random_corpus(rng: random.Random, max_sigs: int = 8, max_vecs: int = 20) -> Corpus:
    n_sigs = rng.randint(1, max_sigs)
    sigs = []
    for k in range(n_sigs):
        # retry until the pattern compiles in the dialect
        for _ in range(50):
            pat = random_pattern(rng)
            try:
                from sig_audit.matcher import parse_pattern

                parse_pattern(pat)
                break
            except Exception:
                continue
        sigs.append(Signature(id=f"R_{k + 1}", pattern_source=pat))
    n_vecs = rng.randint(1, max_vecs)
    vecs = []
    for k in range(n_vecs):
        intent = rng.choice([Intent.EXEC_UNAUTHORIZED, Intent.LOGIC_ERROR, Intent.PROBE])
        vecs.append(
            AttackVector(
                id=f"p_{k + 1}",
                target_signature_id="none",
                payload=random_payload(rng),
                intent=intent,
                dialects=frozenset({Dialect.GENERIC}),
            )
        )
    return Corpus(signatures=tuple(sigs), vectors=tuple(vecs))


def with_unions(corpus: Corpus, count: int, rng: random.Random) -> Corpus:
    """``corpus`` plus ``count`` distinct pairwise unions ``(?:A)|(?:B)``
    of its rules, ids ``U_1``, ``U_2``, ...: rules that share sub-rules
    with the rules they join and with each other."""
    sigs = corpus.signatures
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        pair = tuple(sorted(rng.sample(range(len(sigs)), 2)))
        if pair not in pairs:
            pairs.append(pair)
    unions = tuple(
        Signature(f"U_{n}", f"(?:{sigs[a].pattern_source})|(?:{sigs[b].pattern_source})")
        for n, (a, b) in enumerate(pairs, start=1)
    )
    return Corpus(signatures=sigs + unions, vectors=corpus.vectors)
