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

import random

try:
    from re import _constants as C
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_constants as C
    import sre_parse

from sig_audit import normalize
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
