"""Sub-rules and bounds read in the dialect's own grammar: ``{,n}``,
named groups, comments, ``(?u)``, lazy quantifiers and long escapes,
plus the load-time rejection of every other inline flag."""

import json
import random
import re

import pytest
from oracles import random_nested_pattern, random_pattern, recursive_scan, with_unions

from sig_audit import cli
from sig_audit.corpus import Signature, load_signatures
from sig_audit.errors import RegexDialectError
from sig_audit.structural import _scan, bounded_specials, expand_subrules

# pattern, its sub-rules (None: the pattern alone), its bounds as (char_class, max)
CASES = [
    (r"union\s{,1}select", None, [(r"\s", 1)]),
    (r"[(]{,2}select\s{2,}x", None, [("[(]", 2)]),
    (r"^(?:a|b){,2}c", None, []),
    (r"(?:\s|')(?#c){,3}or", None, []),
    (r"(?P<x>union|select)\s?x", [r"union\s?x", r"select\s?x"], [(r"\s", 1)]),
    (r"(?:(?P<k>or|and)|xor)\s?1", [r"or\s?1", r"and\s?1", r"xor\s?1"], [(r"\s", 1)]),
    (r"a(?#c)\s?b", None, [(r"\s", 1)]),
    (r"a(?#x|y\))\s?b", None, [(r"\s", 1)]),
    (r"a\s(?#c){,2}b", None, [(r"\s", 2)]),
    (r"(?u)(?:or|and)\s?1", [r"(?u)or\s?1", r"(?u)and\s?1"], [(r"\s", 1)]),
    (r"(?u)or\s?1|and", [r"(?u)or\s?1", "and"], [(r"\s", 1)]),
    (r"(?:'|\")\s{,2}?or", [r"'\s{,2}?or", r"\"\s{,2}?or"], [(r"\s", 2)]),
    (r"\x20?or\N{SPACE}{1,2}\d?", None, [(r"\x20", 1), (r"\N{SPACE}", 2)]),
    (r"x{}\s{,}y", None, []),
    # a branch ending in a literal '{' is spliced as a group, so the '{' stays literal
    (r"(?:a|\w{1}{),}", ["a,}", r"(?:\w{1}{),}"], []),
    (r"(?:a|\w{),}", ["a,}", r"(?:\w{),}"], []),
    (r"(?:a|b{)1}", ["a1}", "(?:b{)1}"], []),
]


@pytest.mark.parametrize("pattern, subrules, bounds", CASES)
def test_scan_reads_the_dialect(pattern, subrules, bounds):
    s = Signature("S_s", pattern)
    subs = expand_subrules(s)
    assert subs.subrules == tuple(subrules or [pattern])
    assert subs.expansion_complete
    found = bounded_specials(s)
    assert [(b.char_class, b.max_occurrences) for b in found] == bounds
    for b in found:
        assert pattern[b.position : b.position + len(b.char_class)] == b.char_class
        re.compile(b.char_class)


def test_subrule_soundness_on_scanned_constructs():
    rng = random.Random(5)
    alphabet = "abcorxdnsuelt 01'\"()"
    for pattern, _, _ in CASES:
        whole = re.compile(pattern, re.IGNORECASE)
        parts = [re.compile(src, re.IGNORECASE) for src in expand_subrules(Signature("S_s", pattern)).subrules]
        texts = ["abc", "bbc", "union  x", "and 1"] + [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(200)
        ]
        for text in texts:
            assert bool(whole.search(text)) == any(p.search(text) for p in parts), (pattern, text)


# the constructs the scanner reads a token at a time: a comment between an
# atom and its quantifier, (?u), brace counts with and without bounds and
# ones that are literals, escaped and classed parentheses, named groups,
# lazy quantifiers and octal escapes
SCAN_CASES = [
    r"a(?#c)*b(?#c)(?#d){2,}c",
    r"(?u)(?:or|and)(?#c)?\s",
    r"x{,3}y{}z{3,}w{,}v{2}",
    r"\(+[)]?(?:\)|[(])*",
    r"(?P<n>or|and)+?(?P<m>x)",
    r"a*?b+?c??d{1,2}?(?:e|f)*?",
    r"\07?\0{2}\012+\x20?\N{SPACE}*",
    r"(a(?#x|y\))|b)?|c",
]


def test_one_pass_scan_equals_the_recursive_scan(corpus):
    """The one-pass scanner reads every source as the recursive scanner
    with a quantifier matched apart does: hand-written constructs, the
    bundled rules and 40 unions of them with their sub-rules, and random
    sources."""
    rng = random.Random(18)
    sources = SCAN_CASES + [pattern for pattern, _, _ in CASES]
    for s in with_unions(corpus, 40, rng).signatures:
        sources += expand_subrules(s).subrules
    sources += [random_pattern(rng) for _ in range(300)] + [random_nested_pattern(rng) for _ in range(300)]
    for source in sources:
        assert _scan(source) == recursive_scan(source), source
    assert len(set(sources)) > 800


def _write_corpus(tmp_path, rules, payload="union select 1"):
    sigs = tmp_path / "s.tsv"
    sigs.write_text("".join(f"S_{i}\t{rule}\n" for i, rule in enumerate(rules, 1)))
    vecs = tmp_path / "v.tsv"
    vecs.write_text(f"v1\tS_1\texec\tgeneric\t{payload}\n")
    return ["--signatures", str(sigs), "--vectors", str(vecs)]


def test_brace_bound_without_minimum_is_susceptible(tmp_path, capsys):
    args = _write_corpus(tmp_path, [r"union\s{,1}select"])
    assert cli.main(["classify", "--raw", "--only", "susceptible"] + args) == 0
    (finding,) = json.loads(capsys.readouterr().out)
    assert finding["signature"] == "S_1"
    assert finding["evidence"]["witnesses"][0]["mutant"] == "union  select 1"


def test_named_groups_and_comments_audit(tmp_path, capsys):
    args = _write_corpus(tmp_path, [r"(?P<x>union|select)\s?x", r"a(?#c)\s?b"], "union x")
    assert cli.main(["audit", "--raw"] + args) == 0
    capsys.readouterr()
    assert cli.main(["structure", "S_1"] + args) == 0
    assert json.loads(capsys.readouterr().out)["subrules"] == [r"union\s?x", r"select\s?x"]


@pytest.mark.parametrize("flag", ["i", "m", "s", "x", "a"])
def test_global_inline_flags_rejected_at_load(flag, tmp_path, capsys):
    with pytest.raises(RegexDialectError, match="inline flags"):
        load_signatures(f"S_1\t(?{flag})union\\s?select\n")
    args = _write_corpus(tmp_path, [f"(?{flag})union\\s?select"])
    assert cli.main(["matrix", "--raw"] + args) == 1
    assert cli.main(["audit", "--raw"] + args) == 1
    assert "inline flags" in capsys.readouterr().err
