import random
import re

import pytest
from oracles import _in_match, nfa_operators, random_nested_pattern, with_unions

from sig_audit import structural
from sig_audit.classify import default_families
from sig_audit.corpus import Signature
from sig_audit.errors import RegexDialectError
from sig_audit.matcher import parse_pattern
from sig_audit.structural import (
    DEFAULT_OPERATORS,
    PatternTable,
    bounded_specials,
    expand_subrules,
    extract_operators,
)


def sig(pattern, sid="S_x"):
    return Signature(sid, pattern)


# ---------------------------------------------------------------------------
# operator extraction

def test_quote_or_digit_rule():
    t = extract_operators(sig(r'(?:"\s*or\s*"?\d)', "S_6"))
    assert t.operators == {"or"}


def test_boolean_function_rule():
    t = extract_operators(sig(r"(?:(?:(n?and|x?or|not)\s+|\|\||\&\&)\s*\w+\()", "S_5"))
    assert t.operators == {"nand", "and", "or", "xor", "not", "||", "&&"}


def test_no_lexicon_tokens():
    assert extract_operators(sig(r"(?:select\s+from)")).operators == frozenset()


@pytest.mark.parametrize("pattern", [r"projector", r"actor", r"preorder", r"\w+or\w+"])
def test_embedded_words_do_not_count(pattern):
    assert "or" not in extract_operators(sig(pattern)).operators


def test_double_pipe_does_not_imply_single_pipe():
    t = extract_operators(sig(r"(?:\|\|\s*\w)"))
    assert "||" in t.operators
    assert "|" not in t.operators


def test_single_pipe_in_class_counts():
    t = extract_operators(sig(r'(?:"\s*[|&^]\s*\w)'))
    assert {"|", "&", "^"} <= t.operators


def test_caret_anchor_is_not_an_operator():
    assert "^" not in extract_operators(sig(r"^\d+or\s")).operators


def _atoms(nodes):
    """Every character atom (literal, negated literal, dot, class) of a parse tree."""
    C = structural.sre_constants
    for op, arg in nodes:
        if op in (C.LITERAL, C.NOT_LITERAL, C.ANY, C.IN):
            yield op, arg
        elif op is C.SUBPATTERN:
            yield from _atoms(arg[3])
        elif op is C.BRANCH:
            for branch in arg[1]:
                yield from _atoms(branch)
        elif op in (C.MAX_REPEAT, C.MIN_REPEAT):
            yield from _atoms(arg[2])


def _class_items(op, arg):
    """The atom as the items of a class: (negated, items)."""
    C = structural.sre_constants
    if op is C.IN:
        negate = bool(arg) and arg[0][0] is C.NEGATE
        return negate, arg[1:] if negate else arg
    if op is C.LITERAL:
        return False, [(C.LITERAL, arg)]
    if op is C.NOT_LITERAL:
        return True, [(C.LITERAL, arg)]
    return True, [(C.LITERAL, ord("\n"))]  # ANY


def test_atom_masks_agree_with_predicates(corpus):
    """Each bundled atom's membership, plain and case-insensitive, equals
    the oracle's class matcher on the probe characters (all ASCII or
    caseless, so folding is trying both cases before any negation)."""
    checked = 0
    for s in corpus.signatures:
        for op, arg in _atoms(parse_pattern(s.pattern_source, s.id)):
            cs = structural._CharSet((op, arg))
            negate, items = _class_items(op, arg)
            for ch in structural._PROBE_CHARS:
                assert cs.contains(ch) == (_in_match(items, ch) != negate), (s.id, op, arg, ch)
                folded = any(_in_match(items, c) for c in {ch, ch.lower(), ch.upper()})
                assert cs.contains_ci(ch) == (folded != negate), (s.id, op, arg, ch)
            checked += 1
    assert checked > 500


def _extracted_charsets(monkeypatch, patterns, pattern):
    """The charsets ``PatternTable.atom`` returns while the operators of
    ``pattern`` are extracted through ``patterns``, one per call."""
    returned, real_atom = [], PatternTable.atom

    def atom(self, node):
        cs = real_atom(self, node)
        returned.append(cs)
        return cs

    with monkeypatch.context() as m:
        m.setattr(PatternTable, "atom", atom)
        extract_operators(sig(pattern), patterns=patterns)
    return returned


def test_one_charset_per_distinct_atom(monkeypatch):
    patterns = PatternTable()
    first = _extracted_charsets(monkeypatch, patterns, r"(?:\s*or\s*[0-9]\s*(?:and|or)\s*[0-9])")
    assert len(first) == 13  # each atom node read once
    assert len(set(map(id, first))) == 7  # \s, o, r, [0-9], a, n, d: one object each
    # a second rule read through the same table reuses its objects
    second = _extracted_charsets(monkeypatch, patterns, r"\s*xor\s*[0-9]")
    assert len(set(map(id, second)) & set(map(id, first))) == 4
    assert len(set(map(id, second))) == 5 and len(patterns._atoms) == 8  # x is the one new atom


def test_case_insensitive_compiles_build_every_literal_and_class_charset(corpus):
    """A case-insensitive compile folds each literal, negated literal and
    class through its charset, so after the bundled rules compile through
    one table, operator extraction adds no charset but that of ``.``."""
    patterns = PatternTable(corpus.signatures)
    for s in corpus.signatures:
        patterns.compiled(s.pattern_source, s.id)
    built = set(patterns._atoms)
    tokens = frozenset().union(*(fam.members for fam in default_families()))
    for s in corpus.signatures:
        extract_operators(s, tokens, patterns)
    any_op = parse_pattern(".")[0][0]
    assert {key[0] for key in set(patterns._atoms) - built} <= {any_op}


def test_shared_atom_table_gives_the_fresh_extraction(corpus):
    """Extracting every rule through one pattern table, so one atom table
    and its cached moves, in any order, equals extracting each with a
    fresh one."""
    rng = random.Random(12)
    from oracles import random_pattern

    patterns = [s.pattern_source for s in corpus.signatures] + [random_pattern(rng) for _ in range(300)]
    patterns += [r"1\s*[a-c]\s*1", r"1\s*[¬ßs]\s*1", r"1\s*(?:ß|¬)\s*1", r"1\s*SS\s*1"]
    signatures = []
    for k, pattern in enumerate(patterns):
        s = sig(pattern, f"R_{k}")
        try:
            s.tree
        except RegexDialectError:
            continue
        signatures.append(s)
    for tokens in [DEFAULT_OPERATORS, DEFAULT_OPERATORS | {"ß", "¬"}]:
        fresh = {s.id: extract_operators(s, tokens).operators for s in signatures}
        shared = PatternTable()
        for s in rng.sample(signatures, len(signatures)):
            assert extract_operators(s, tokens, shared).operators == fresh[s.id], s.pattern_source
        assert len(shared._atoms) > 20


def test_member_whose_case_swap_is_two_characters():
    """``"ß".swapcase()`` is ``"SS"``; IGNORECASE maps case one character
    at a time, so only a class or literal holding ``ß`` spells it."""
    tokens = frozenset({"ß", "~"})
    assert extract_operators(sig(r"1\s*[a-c]\s*1", "S_1"), tokens).operators == frozenset()
    assert extract_operators(sig(r"1\s*[a-z]+\s*1"), tokens).operators == frozenset()
    assert extract_operators(sig(r"1\s*[ßs]\s*1"), tokens).operators == {"ß"}
    assert extract_operators(sig(r"1\s*~\s*1"), tokens).operators == {"~"}
    assert re.search("[a-z]", "ß", re.IGNORECASE) is None


def test_digit_class_does_not_spell_superscript_two():
    """``"²".isdigit()`` holds, but ``re``'s ``\\d`` takes decimal digits only."""
    tokens = frozenset({"²"})
    assert extract_operators(sig(r"1 \d 1"), tokens).operators == frozenset()
    assert extract_operators(sig(r"1 [²] 1"), tokens).operators == {"²"}


@pytest.mark.parametrize(
    "pattern,text,token",
    [
        ("[\u212a]or", "kor", "kor"),
        ("1 [\u212a] 1", "1 k 1", "k"),
        ("1 [s]elect 1", "1 \u017felect 1", "\u017felect"),
        ("1 \u017felect 1", "1 select 1", "select"),
    ],
)
def test_atoms_read_through_case_folding(pattern, text, token):
    """Under ``re.IGNORECASE`` the Kelvin sign matches ``k`` and the long s
    matches ``s``, though neither is the other's ``swapcase``."""
    assert re.fullmatch(pattern, text, re.IGNORECASE)
    assert extract_operators(sig(pattern), frozenset({token})).operators == {token}


def test_family_member_lexicon_gives_the_default_lexicons_members(corpus):
    """Looking for the family members only (so ``repeat_cap`` is 5, not
    6) gives each member the answer the default tokens give."""
    from oracles import random_pattern

    members = frozenset().union(*(fam.members for fam in default_families()))
    rng = random.Random(13)
    patterns = [s.pattern_source for s in corpus.signatures] + [random_pattern(rng) for _ in range(500)]
    patterns += [r"x(?:a|n|d|\s){4,9}y", r"(?:[|&]\s?){3,}", r"\W(?:x|o|r){2,6}\W", r"o\s{0,6}r"]
    checked = 0
    for k, pattern in enumerate(patterns):
        s = sig(pattern, f"R_{k}")
        try:
            s.tree
        except RegexDialectError:
            continue
        assert extract_operators(s, members).operators == extract_operators(s).operators & members, pattern
        checked += 1
    assert checked > 400


def test_walk_gives_the_nfa_answers(corpus):
    """The walk over the parse answers every operator question as an NFA
    with each repeat unrolled to the longest token's length plus two
    copies does, for the family members, the default tokens and the
    default tokens with two members outside the probe set: on the bundled
    rules, 40 pairwise unions of them, and patterns of quantified and
    nested groups, lazy repeats, counts above that cut and anchors."""
    rng = random.Random(18)
    sources = [s.pattern_source for s in with_unions(corpus, 40, rng).signatures]
    sources += [random_nested_pattern(rng) for _ in range(1100)]
    signatures = []
    for k, source in enumerate(sources):
        s = sig(source, f"R_{k}")
        try:
            s.tree
        except RegexDialectError:
            continue
        signatures.append(s)
    assert len(signatures) > 83 + 40 + 1000
    members = frozenset().union(*(fam.members for fam in default_families()))
    patterns = PatternTable()
    for tokens in (members, DEFAULT_OPERATORS, DEFAULT_OPERATORS | {"ß", "¬"}):
        walked = [extract_operators(s, tokens, patterns).operators for s in signatures]
        for s, found in zip(signatures, walked):
            assert found == nfa_operators(s, tokens, patterns), s.pattern_source
        assert sum(map(bool, walked)) > 500


@pytest.mark.parametrize(
    "nest, tokens, expected",
    [
        (lambda d: "x" + "(?:" * d + "a" + "){1,2}" * d, DEFAULT_OPERATORS | {"xa"}, {"xa"}),
        (lambda d: "x" + "(?:" * d + "o" + "){0,5}" * d + "r", DEFAULT_OPERATORS, {"xor"}),
        (lambda d: "1" + "(?:" * d + r"\s|or" + "){2,65535}" * d, DEFAULT_OPERATORS, {"or"}),
    ],
    ids=["doubling", "quintupling", "huge_counts"],
)
def test_nested_counts_cost_linear_in_depth(monkeypatch, nest, tokens, expected):
    """Counted repeats nested ``depth`` deep: an NFA that copies each
    body once per count has a number of atoms exponential in the depth.
    The walk reads each atom node once and walks each body once per
    distinct progress set, so both counts grow at most linearly."""
    costs = []
    for depth in (4, 8, 12):
        atoms, walks = [], []
        real_atom, real_walk = PatternTable.atom, structural._walk
        with monkeypatch.context() as m:
            m.setattr(PatternTable, "atom", lambda self, node: atoms.append(node) or real_atom(self, node))
            m.setattr(structural, "_walk", lambda *args: walks.append(args) or real_walk(*args))
            assert extract_operators(sig(nest(depth)), tokens).operators == expected
        costs.append((len(atoms), len(walks)))
    for cost_4, cost_8, cost_12 in zip(*costs):
        assert 0 < cost_4 <= cost_8 and cost_12 - cost_8 <= cost_8 - cost_4, costs


@pytest.mark.parametrize("pattern", [r"1\s*¬\s*1", r"1\s*[¬!]\s*1", r"1 (?:¬|~) 1"])
def test_member_outside_probe_set_is_extracted(pattern):
    tokens = frozenset({"not", "¬", "!"})
    assert "¬" in extract_operators(sig(pattern), tokens).operators


def test_glued_member_outside_probe_set_is_not_standalone():
    tokens = frozenset({"¬", "¬¬"})
    assert extract_operators(sig(r"1¬¬1"), tokens).operators == {"¬¬"}


def test_lexicon_monotonicity():
    small = frozenset({"or"})
    big = DEFAULT_OPERATORS
    rng = random.Random(7)
    from oracles import random_pattern

    for _ in range(40):
        pat = random_pattern(rng)
        try:
            a = extract_operators(sig(pat), small).operators
            b = extract_operators(sig(pat), big).operators
        except Exception:
            continue
        assert a <= b, pat


# ---------------------------------------------------------------------------
# sub-rule expansion

def test_stacked_command_rule_expands_to_six():
    subs = expand_subrules(sig(r"(?:(?:;|#|--)\s*(?:drop|alter))", "S_52"))
    assert subs.expansion_complete
    assert subs.subrules == (
        r"(?:;\s*drop)",
        r"(?:;\s*alter)",
        r"(?:#\s*drop)",
        r"(?:#\s*alter)",
        r"(?:--\s*drop)",
        r"(?:--\s*alter)",
    )


def test_alternation_free_pattern_is_single_subrule():
    subs = expand_subrules(sig(r"abc\d+\s*"))
    assert subs.subrules == (r"abc\d+\s*",)
    assert subs.expansion_complete


def test_metadata_keyword_rule_expands_to_two():
    subs = expand_subrules(sig(r"(?:\Winformation_schema|table_name\W)", "S_12"))
    assert len(subs.subrules) == 2
    assert subs.expansion_complete


def test_quantified_groups_are_not_expanded():
    subs = expand_subrules(sig(r"(?:union\s*(?:all|distinct)?\s*select)"))
    assert len(subs.subrules) == 1


def test_caps_stop_expansion():
    branch = "(?:" + "|".join("abcdefghij") + ")"
    pat = branch * 3  # 10^3 combinations
    subs = expand_subrules(sig(pat))
    assert not subs.expansion_complete


def test_depth_cap_marks_incomplete():
    pat = r"(?:a(?:b(?:c(?:d|e)f)g)h)"  # the alternation sits at depth 4
    subs = expand_subrules(sig(pat))
    assert not subs.expansion_complete
    assert subs.subrules == (pat,)


def test_subrule_soundness_on_bundled_rules(corpus):
    rng = random.Random(99)
    alphabet = "abcdehinorstux 0129;'\"()=<>#-/*"
    payloads = [v.payload for v in corpus.vectors]
    for s in corpus.signatures:
        subs = expand_subrules(s)
        assert subs.expansion_complete, s.id
        whole = re.compile(s.pattern_source, re.IGNORECASE)
        parts = [re.compile(src, re.IGNORECASE) for src in subs.subrules]
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
            for _ in range(15)
        ] + rng.sample(payloads, 10)
        for text in texts:
            assert bool(whole.search(text)) == any(p.search(text) for p in parts), (
                s.id,
                text,
            )


# ---------------------------------------------------------------------------
# bounded quantifiers

def test_paren_class_bound_reported():
    bounds = bounded_specials(
        sig(r"(?:;\s*(?:select|drop)\s*[\(]?\w{2,})", "S_63")
    )
    assert len(bounds) == 1
    b = bounds[0]
    assert b.char_class == r"[\(]"
    assert b.max_occurrences == 1


def test_optional_space_bound_reported():
    bounds = bounded_specials(sig(r"(?:waitfor\s*delay\s?['\"]+\s?\d)", "S_68"))
    assert [b.char_class for b in bounds] == [r"\s", r"\s"]
    assert all(b.max_occurrences == 1 for b in bounds)


def test_unbounded_atoms_not_reported():
    assert bounded_specials(sig(r"a\s*b\s+c[(]{2,}")) == []


def test_exact_and_lazy_brace_bounds():
    bounds = bounded_specials(sig(r"union\s{1}?all\s{2,3}select"))
    assert [(b.char_class, b.max_occurrences) for b in bounds] == [(r"\s", 1), (r"\s", 3)]


def test_non_repeatable_classes_ignored():
    assert bounded_specials(sig(r"\d?\w?[abc]?")) == []


def test_positions_are_valid_and_atoms_reparse(corpus):
    for s in corpus.signatures:
        for b in bounded_specials(s):
            assert s.pattern_source[b.position : b.position + len(b.char_class)] == b.char_class
            re.compile(b.char_class)
