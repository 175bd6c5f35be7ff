import dataclasses
import random

import pytest

from audit_inputs import inconsistent, logical_payloads
from oracles import (
    naive_logical,
    naive_rows,
    oracle_incomplete,
    oracle_inconsistent,
    oracle_irrelevant,
    oracle_redundant,
    oracle_semirelevant,
    random_corpus,
)
from sig_audit import classify, normalize, structural
from sig_audit.classify import (
    AuditFinding,
    Label,
    RelatedOperatorFamily,
    classify_incomplete,
    classify_irrelevant,
    classify_redundant,
    classify_semirelevant,
    default_families,
    probe_susceptible,
)
from sig_audit.corpus import AttackVector, Corpus, Dialect, Intent, Signature, logical_subset
from sig_audit.errors import IndeterminateExpansion, ParseError
from sig_audit.matcher import compile_signature, detection_matrix, matches
from sig_audit.report import run_audit
from sig_audit.structural import expand_subrules, extract_operators


def tokenized(sid, ops):
    return structural.TokenizedSignature(signature_id=sid, operators=frozenset(ops))


# ---------------------------------------------------------------------------
# incomplete

def test_quote_or_rule_incomplete_against_word_family():
    finding = classify_incomplete(tokenized("S_6", {"or"}))
    assert finding is not None and finding.label is Label.INCOMPLETE
    v = {e["family"]: e for e in finding.evidence["violations"]}
    assert set(v) == {"logical_words"}
    assert v["logical_words"]["missing"] == ["and", "xor"]


def test_boolean_function_rule_incomplete_against_symbols_only():
    finding = classify_incomplete(
        tokenized("S_5", {"nand", "and", "or", "xor", "not", "||", "&&"})
    )
    v = {e["family"]: e for e in finding.evidence["violations"]}
    assert set(v) == {"logical_symbols"}
    assert v["logical_symbols"]["missing"] == sorted({"^", "|", "&"})


def test_superset_operators_yield_no_finding():
    ops = {"and", "or", "xor", "||", "&&", "^", "|", "&"}
    assert classify_incomplete(tokenized("S_x", ops)) is None


def test_incomplete_invariant_under_reordering():
    fams = default_families()
    finding_a = classify_incomplete(tokenized("S_6", {"or"}), fams)
    finding_b = classify_incomplete(tokenized("S_6", {"or"}), list(reversed(fams)))
    assert {v["family"] for v in finding_a.evidence["violations"]} == {
        v["family"] for v in finding_b.evidence["violations"]
    }


@pytest.mark.parametrize("members", ["[]", '["or"]', '["or", "or"]'])
def test_load_families_rejects_fewer_than_two_members(members):
    with pytest.raises(ParseError, match="at least 2 distinct members"):
        classify.load_families(f'[{{"name": "x", "members": {members}}}]')


# ---------------------------------------------------------------------------
# irrelevant

def test_empty_row_on_logical_corpus_is_irrelevant():
    f = classify_irrelevant("S_x", frozenset(), frozenset({"v1", "v2"}))
    assert f is not None and f.label is Label.IRRELEVANT


def test_table_rule_is_relevant(corpus, raw_matrix):
    logical = logical_subset(corpus)
    f = classify_irrelevant("S_79", raw_matrix.detected_ids("S_79"), logical)
    assert f is None


def test_shipped_irrelevant_examples_flag_on_bundled_corpus(corpus):
    from sig_audit.corpus import data_dir, load_signatures

    examples = load_signatures(data_dir() / "irrelevant_examples.tsv")
    logical = logical_subset(corpus)
    big = Corpus(signatures=corpus.signatures + tuple(examples), vectors=corpus.vectors)
    m = detection_matrix(big, normalize.RAW_PIPELINE)
    for ex in examples:
        f = classify_irrelevant(ex.id, m.detected_ids(ex.id), logical)
        assert f is not None, ex.id


# ---------------------------------------------------------------------------
# semi-relevant

def test_stacked_command_rule_semirelevant(corpus):
    subs = expand_subrules(corpus.signature("S_52"))
    f = classify_semirelevant(subs, logical_payloads(corpus))
    assert f is not None and f.label is Label.SEMI_RELEVANT
    assert [d["index"] for d in f.evidence["dead_subrules"]] == [2, 3, 4, 5]


def test_quoted_stack_rule_while_branch_dead(corpus):
    subs = expand_subrules(corpus.signature("S_83"))
    f = classify_semirelevant(subs, logical_payloads(corpus))
    assert f is not None
    dead_sources = {d["source"] for d in f.evidence["dead_subrules"]}
    assert dead_sources == {r'(?:";\s*while)'}


def test_single_subrule_never_semirelevant(corpus):
    subs = expand_subrules(corpus.signature("S_79"))
    assert classify_semirelevant(subs, logical_payloads(corpus)) is None


def test_incomplete_expansion_raises():
    pat = "(?:a|b|c)" * 4  # 81 sub-rules, past the cap of 64
    subs = expand_subrules(Signature("S_big", pat))
    with pytest.raises(IndeterminateExpansion):
        classify_semirelevant(subs, [])


def test_all_dead_subrules_not_semirelevant():
    sig = Signature("S_d", r"(?:zzzq|qqqz)")
    vec = AttackVector("v1", "none", "nothing here", Intent.EXEC_UNAUTHORIZED,
                       frozenset({Dialect.GENERIC}))
    subs = expand_subrules(sig)
    assert classify_semirelevant(subs, [vec.payload]) is None


def _some_payloads_upper(c: Corpus, rng: random.Random) -> Corpus:
    """``c`` with about a third of its payloads upper-cased, so the case mode matters."""
    vectors = tuple(
        dataclasses.replace(v, payload=v.payload.upper()) if rng.random() < 0.3 else v
        for v in c.vectors
    )
    return Corpus(c.signatures, vectors)


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_audit_semirelevance_equals_search_of_every_logical_payload(corpus, case_sensitive):
    # run_audit searches only the logical payloads in each rule's raw row;
    # the standalone classifier, given all of them, searches all of them
    rng = random.Random(2026)
    corpora = [corpus] + [
        _some_payloads_upper(random_corpus(rng, max_sigs=10, max_vecs=30), rng) for _ in range(150)
    ]
    flagged = 0
    for c in corpora:
        texts = logical_payloads(c)
        expected = []
        for s in c.signatures:
            subs = expand_subrules(s)
            if subs.expansion_complete:
                finding = classify_semirelevant(subs, texts, case_sensitive=case_sensitive)
                expected += [finding] if finding else []
        audit = run_audit(corpus=c, case_sensitive=case_sensitive)
        got = [f for f in audit.findings if f.label is Label.SEMI_RELEVANT]
        assert got == sorted(expected, key=AuditFinding.sort_key), c.signatures
        flagged += len(got)
    assert flagged >= 10  # the sweep reaches the classifier, not only empty answers


# ---------------------------------------------------------------------------
# susceptible

def test_probe_flags_stacked_keyword_rule(corpus, raw_matrix):
    sig = corpus.signature("S_63")
    bounds = structural.bounded_specials(sig)
    detected = [v for v in corpus.vectors if v.id in raw_matrix.detected_ids("S_63")]
    f = probe_susceptible(compile_signature(sig), detected, bounds)
    assert f is not None and f.label is Label.SUSCEPTIBLE
    assert any(w["mutant"] == "1; Select ((234))" for w in f.evidence["witnesses"])


def test_probe_flags_delay_rule(corpus, raw_matrix):
    sig = corpus.signature("S_68")
    bounds = structural.bounded_specials(sig)
    detected = [v for v in corpus.vectors if v.id in raw_matrix.detected_ids("S_68")]
    f = probe_susceptible(compile_signature(sig), detected, bounds)
    assert f is not None
    assert any(
        w["mutant"] == "1 ; waitfor delay'  00:00:01'" for w in f.evidence["witnesses"]
    )


def test_probe_without_bounds_returns_nothing(corpus, raw_matrix):
    sig = corpus.signature("S_79")
    detected = [v for v in corpus.vectors if v.id in raw_matrix.detected_ids("S_79")]
    assert probe_susceptible(compile_signature(sig), detected, []) is None


def test_probe_witnesses_reverify(corpus, raw_matrix):
    for sid in ("S_63", "S_68", "S_21"):
        sig = corpus.signature(sid)
        bounds = structural.bounded_specials(sig)
        detected = [v for v in corpus.vectors if v.id in raw_matrix.detected_ids(sid)]
        f = probe_susceptible(compile_signature(sig), detected, bounds)
        assert f is not None, sid
        compiled = compile_signature(sig)
        for w in f.evidence["witnesses"]:
            assert matches(compiled, w["seed_payload"])
            assert not matches(compiled, w["mutant"])


# ---------------------------------------------------------------------------
# redundant

def test_specific_like_rule_superseded(raw_matrix):
    findings = classify_redundant(raw_matrix)
    assert any(
        f.signature_id == "S_32" and f.evidence.get("superseded_by") == "S_26"
        for f in findings
    )


def test_stacked_select_rules_superseded_by_generic(raw_matrix):
    findings = classify_redundant(raw_matrix)
    named = {
        (f.signature_id, f.evidence.get("superseded_by")) for f in findings
    }
    assert ("S_58", "S_72") in named
    assert ("S_60", "S_72") in named


def test_disjoint_rows_not_redundant():
    m = detection_matrix(
        Corpus(
            (Signature("S_1", "aaa"), Signature("S_2", "bbb")),
            (
                AttackVector("v1", "S_1", "aaa", Intent.EXEC_UNAUTHORIZED,
                             frozenset({Dialect.GENERIC})),
                AttackVector("v2", "S_2", "bbb", Intent.EXEC_UNAUTHORIZED,
                             frozenset({Dialect.GENERIC})),
            ),
        ),
        normalize.RAW_PIPELINE,
    )
    assert classify_redundant(m) == []


def test_equal_rows_tagged_duplicate():
    m = detection_matrix(
        Corpus(
            (Signature("S_1", "abc"), Signature("S_2", "ab")),
            (
                AttackVector("v1", "none", "xxabcxx", Intent.EXEC_UNAUTHORIZED,
                             frozenset({Dialect.GENERIC})),
            ),
        ),
        normalize.RAW_PIPELINE,
    )
    findings = classify_redundant(m)
    dups = [f for f in findings if "duplicate_of" in f.evidence]
    assert [(f.signature_id, f.evidence["duplicate_of"]) for f in dups] == [("S_2", "S_1")]


def test_redundancy_transitively_consistent(raw_matrix):
    under = {}
    for f in classify_redundant(raw_matrix):
        m = f.evidence.get("superseded_by")
        if m:
            under.setdefault(f.signature_id, set()).add(m)
    for n, supers in under.items():
        for m in supers:
            for k in under.get(m, ()):
                if k == n:
                    continue
                assert raw_matrix.row_bits(n) & ~raw_matrix.row_bits(k) == 0, (n, m, k)


# ---------------------------------------------------------------------------
# inconsistent

def test_documented_inconsistencies(corpus, default_pipeline):
    findings = inconsistent(corpus, default_pipeline)
    by_id = {f.signature_id: f for f in findings}
    assert "S_9" in by_id
    assert {v["id"]: v["stage"] for v in by_id["S_9"].evidence["vectors"]}["v09_1"] == "prefilter-skip"
    assert "S_75" in by_id
    assert {v["id"]: v["stage"] for v in by_id["S_75"].evidence["vectors"]}["v75_1"] == "prefilter-skip"
    assert "S_8" in by_id
    assert {v["id"]: v["stage"] for v in by_id["S_8"].evidence["vectors"]}["v08_1"] == "transform-mangle"


def test_raw_pipeline_gives_no_inconsistency(corpus):
    assert inconsistent(corpus, normalize.RAW_PIPELINE) == []


# ---------------------------------------------------------------------------
# definition-oracle spot checks (the full sweep runs in the acceptance suite)

def test_oracle_equivalence_sample():
    rng = random.Random(42)
    pipeline = normalize.default_pipeline()
    for _ in range(20):
        c = random_corpus(rng)
        rows = {sid: detection_matrix(c, normalize.RAW_PIPELINE).detected_ids(sid)
                for sid in (s.id for s in c.signatures)}
        logical = logical_subset(c)

        got_irr = {
            s.id for s in c.signatures
            if classify_irrelevant(s.id, rows[s.id], logical)
        }
        assert got_irr == oracle_irrelevant(c)

        m = detection_matrix(c, normalize.RAW_PIPELINE)
        got_red = set()
        for f in classify_redundant(m):
            kind = "superseded_by" if "superseded_by" in f.evidence else "duplicate_of"
            got_red.add((f.signature_id, kind, f.evidence[kind]))
        assert got_red == oracle_redundant(c)

        got_inc = {f.signature_id for f in inconsistent(c, pipeline)}
        assert got_inc == oracle_inconsistent(c, pipeline)


def test_incomplete_matches_family_logic_oracle(corpus):
    fams = default_families()
    for s in corpus.signatures:
        t = extract_operators(s)
        finding = classify_incomplete(t, fams)
        expected = oracle_incomplete(t.operators, fams)
        if expected:
            assert finding is not None
            assert [v["family"] for v in finding.evidence["violations"]] == expected
        else:
            assert finding is None


def test_irrelevant_and_semirelevant_mutually_exclusive(corpus, raw_matrix):
    logical = logical_subset(corpus)
    for s in corpus.signatures:
        irr = classify_irrelevant(s.id, raw_matrix.detected_ids(s.id), logical)
        subs = expand_subrules(s)
        semi = classify_semirelevant(subs, logical_payloads(corpus))
        assert not (irr and semi), s.id
