"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line once its assertions hold, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
Exemplar behaviors are held exactly; whole-corpus statistics are held
to tolerances because the reconstructed rule set cannot be bit-exact
to the damaged original listing.
"""

import json
import random
import time

from oracles import (
    naive_rows,
    oracle_incomplete,
    oracle_inconsistent,
    oracle_irrelevant,
    oracle_redundant,
    oracle_semirelevant,
    random_corpus,
)
from sig_audit import classify, mutate, normalize, structural
from sig_audit.classify import (
    Label,
    classify_incomplete,
    classify_inconsistent,
    classify_irrelevant,
    classify_redundant,
    classify_semirelevant,
    default_families,
    probe_susceptible,
)
from sig_audit.corpus import logical_subset
from sig_audit.matcher import compile_signature, detection_matrix, full_pipeline_bypass, matches
from sig_audit.report import AuditReport, render, run_audit
from sig_audit.stats import contribution, overlap, partition
from sig_audit.structural import bounded_specials, expand_subrules, extract_operators


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_definition_oracle_equivalence():
    """Classifier output equals brute-force evaluation on 200 random corpora."""
    rng = random.Random(20240601)
    families = default_families()
    pipeline = normalize.default_pipeline()
    started = time.monotonic()
    for trial in range(200):
        c = random_corpus(rng, max_sigs=8, max_vecs=20)
        m = detection_matrix(c, normalize.RAW_PIPELINE)
        rows = {sid: m.detected_ids(sid) for sid in m.signature_ids}
        logical = logical_subset(c)

        # incompleteness: family logic over extracted operator sets
        for s in c.signatures:
            t = extract_operators(s)
            finding = classify_incomplete(t, families)
            expected = oracle_incomplete(t.operators, families)
            got = [v["family"] for v in finding.evidence["violations"]] if finding else []
            assert got == expected, (trial, s.pattern_source)

        # irrelevance
        got_irr = {
            s.id for s in c.signatures if classify_irrelevant(s.id, rows[s.id], logical)
        }
        assert got_irr == oracle_irrelevant(c), trial

        # semi-relevance, over the same expansions both ways
        subrule_map = {}
        got_semi = set()
        for s in c.signatures:
            subs = expand_subrules(s)
            if not subs.expansion_complete:
                continue
            subrule_map[s.id] = subs.subrules
            if s.id in got_irr:
                continue
            if classify_semirelevant(subs, c, logical):
                got_semi.add(s.id)
        want_semi = oracle_semirelevant(c, subrule_map) - oracle_irrelevant(c)
        assert got_semi == want_semi, trial

        # redundancy, including the duplicate tie rule
        got_red = set()
        for f in classify_redundant(m):
            kind = "superseded_by" if "superseded_by" in f.evidence else "duplicate_of"
            got_red.add((f.signature_id, kind, f.evidence[kind]))
        assert got_red == oracle_redundant(c), trial

        # inconsistency under the stock pipeline
        got_inc = {f.signature_id for f in classify_inconsistent(c, pipeline)}
        assert got_inc == oracle_inconsistent(c, pipeline), trial

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"definition sweep took {elapsed:.1f}s"
    ok(1, f"200 random corpora, zero mismatches, {elapsed:.1f}s")


def test_criterion_2_susceptibility_exemplars(corpus, raw_matrix):
    """The two documented repetition bypasses, byte for byte."""
    s63 = compile_signature(corpus.signature("S_63"))
    assert matches(s63, "1; Select (234)")
    assert not matches(s63, "1; Select ((234))")

    s68 = compile_signature(corpus.signature("S_68"))
    assert matches(s68, "1 ; waitfor delay' 00:00:01'")
    assert not matches(s68, "1 ; waitfor delay'  00:00:01'")

    for sid, witness in [
        ("S_63", "1; Select ((234))"),
        ("S_68", "1 ; waitfor delay'  00:00:01'"),
    ]:
        sig = corpus.signature(sid)
        detected = [v for v in corpus.vectors if v.id in raw_matrix.detected_ids(sid)]
        finding = probe_susceptible(sig, detected, bounded_specials(sig))
        assert finding is not None and finding.label is Label.SUSCEPTIBLE
        assert witness in [w["mutant"] for w in finding.evidence["witnesses"]]
    ok(2, "repetition mutants escape S_63 and S_68 with the documented witnesses")


def test_criterion_3_redundancy_exemplar(corpus, raw_matrix):
    """The specific like-rule sits strictly inside the generic one."""
    r32 = raw_matrix.detected_ids("S_32")
    r26 = raw_matrix.detected_ids("S_26")
    assert r32 < r26
    findings = classify_redundant(raw_matrix)
    assert any(
        f.signature_id == "S_32" and f.evidence.get("superseded_by") == "S_26"
        for f in findings
    )
    ok(3, f"row(S_32) ({len(r32)}) strictly inside row(S_26) ({len(r26)}), finding emitted")


def test_criterion_4_inconsistency_exemplars(corpus, default_pipeline, raw_matrix):
    """Prefilter skips and a normalizer rewrite discard detectable vectors."""
    bypassed = full_pipeline_bypass(corpus, default_pipeline)
    payload_of = {v.id: v.payload for v in corpus.vectors}
    cases = {
        "S_9": "1 or @user",
        "S_75": "1 and 1 or 1 having 1",
        "S_8": '(1)or (5/"1")',
    }
    findings = classify_inconsistent(corpus, default_pipeline)
    flagged = {f.signature_id: f for f in findings}
    for sid, payload in cases.items():
        vid = next(v.id for v in corpus.vectors if v.payload == payload)
        assert vid in bypassed, payload
        assert raw_matrix.cell(sid, vid), (sid, payload)
        assert sid in flagged
        assert vid in {v["id"] for v in flagged[sid].evidence["vectors"]}
    ok(4, "the three documented bypasses are flagged against S_9, S_75 and S_8")


def test_criterion_5_incompleteness_exemplars(corpus):
    """Missing related operators reported exactly."""
    f6 = classify_incomplete(extract_operators(corpus.signature("S_6")))
    v6 = {e["family"]: e for e in f6.evidence["violations"]}
    assert set(v6) == {"logical_words"}
    assert v6["logical_words"]["missing"] == ["and", "xor"]

    f5 = classify_incomplete(extract_operators(corpus.signature("S_5")))
    v5 = {e["family"]: e for e in f5.evidence["violations"]}
    assert set(v5) == {"logical_symbols"}
    assert set(v5["logical_symbols"]["missing"]) == {"^", "|", "&"}
    ok(5, "S_6 missing {and, xor}; S_5 incomplete against the symbol family only")


def test_criterion_6_semirelevance_exemplar(corpus):
    """Six criteria, the four comment-prefixed ones dead corpus-wide."""
    import re as _re

    subs = expand_subrules(corpus.signature("S_52"))
    assert len(subs.subrules) == 6

    # independent sweep: every sub-rule against every logical payload
    logical = logical_subset(corpus)
    payloads = [v.payload for v in corpus.vectors if v.id in logical]
    alive = []
    for src in subs.subrules:
        pat = _re.compile(src, _re.IGNORECASE)
        alive.append(any(pat.search(p) for p in payloads))
    assert alive == [True, True, False, False, False, False]

    finding = classify_semirelevant(subs, corpus, logical)
    assert finding is not None
    assert [d["index"] for d in finding.evidence["dead_subrules"]] == [2, 3, 4, 5]
    ok(6, "S_52 expands to 6 sub-rules; indexes 2-5 detect nothing logical")


def test_criterion_7_contribution(raw_matrix):
    """Top rule and its share of the corpus."""
    prof = contribution(raw_matrix)
    top = prof.top()
    assert top.signature_id == "S_7"
    assert abs(top.share_pct - 50.1) <= 5.0
    ok(7, f"S_7 top ranked at {top.share_pct}% (target 50.1 +/- 5)")


def test_criterion_8_overlap(raw_matrix, set_a_ids):
    """Two-set coverage statistics within tolerance."""
    a, b = partition(raw_matrix, ids=set_a_ids)
    o = overlap(raw_matrix, a, b)
    union_a = o.both + o.only_a
    union_b = o.both + o.only_b
    assert abs(union_a - 386) <= 0.05 * 415, union_a
    assert abs(union_b - 384) <= 0.05 * 415, union_b
    assert abs(100.0 * o.both / o.total - 85.5) <= 5.0
    assert abs(100.0 * o.only_a / o.total - 7.5) <= 3.0
    ok(8, f"set A detects {union_a}/415, set B {union_b}/415, "
          f"both {100.0 * o.both / o.total:.1f}%, A-only {100.0 * o.only_a / o.total:.1f}%")


def test_criterion_9_property_suites(corpus, raw_matrix, default_pipeline):
    """Cross-cutting properties: soundness, determinism, round trips."""
    import re as _re

    rng = random.Random(5)

    # sub-rule soundness fuzz over a sample of rules
    sample = rng.sample(list(corpus.signatures), 12)
    for s in sample:
        subs = expand_subrules(s)
        whole = _re.compile(s.pattern_source, _re.IGNORECASE)
        parts = [_re.compile(x, _re.IGNORECASE) for x in subs.subrules]
        for _ in range(20):
            text = "".join(
                rng.choice("abcdehinorstux 0129;'\"()=<>#-/*") for _ in range(rng.randint(0, 30))
            )
            assert bool(whole.search(text)) == any(p.search(text) for p in parts)

    # pipeline idempotence and identity
    for payload in [v.payload for v in corpus.vectors[:50]]:
        once = normalize.apply(default_pipeline, payload)
        assert normalize.apply(default_pipeline, once) == once
        assert normalize.apply(normalize.RAW_PIPELINE, payload) == payload

    # matrix determinism and small-instance oracle equality
    assert detection_matrix(corpus, normalize.RAW_PIPELINE) == raw_matrix
    from oracles import naive_search

    small = random_corpus(random.Random(11), max_sigs=10, max_vecs=10)
    m = detection_matrix(small, normalize.RAW_PIPELINE)
    for s in small.signatures:
        for v in small.vectors:
            assert m.cell(s.id, v.id) == naive_search(s.pattern_source, v.payload)

    # mutation determinism, balance, budget
    for payload in ["1; Select (234)", "union select", "a (b) 'c' 2"]:
        cfg = mutate.MutationConfig(budget=10, seed=3)
        out1 = mutate.generate(payload, cfg)
        assert out1 == mutate.generate(payload, cfg)
        assert len(out1) <= 10
        for mutant, scheme in out1:
            assert mutant != payload
            if scheme.kind in ("redundant_parens", "bounded_repeat"):
                assert mutant.count("(") - mutant.count(")") == payload.count("(") - payload.count(")")

    # report round trip and run-to-run determinism
    rep1 = run_audit(corpus=corpus)
    rep4 = run_audit(corpus=corpus)
    assert render(rep1, "json") == render(rep4, "json")
    assert AuditReport.from_json(rep1.to_json()) == rep1
    ok(9, "soundness fuzz, idempotence, determinism and round trips all hold")
