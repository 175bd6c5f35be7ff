"""Integrity checks for the bundled dataset.

The vector set is crafted so the audit reproduces the published case
study; these tests freeze the properties the rest of the suite and the
documentation rely on. The data files are the dataset's only source and
are edited directly; with the acceptance suite, these tests are their
design checks.
"""

import re

import pytest

from audit_inputs import bypass
from sig_audit import classify, normalize
from sig_audit.corpus import Dialect, data_dir, load_signatures, logical_subset
from sig_audit.stats import contribution, overlap, partition
from sig_audit.structural import extract_operators


def test_shape(corpus):
    assert len(corpus.signatures) == 83
    assert len(corpus.vectors) == 415
    per_target = {}
    for v in corpus.vectors:
        per_target[v.target_signature_id] = per_target.get(v.target_signature_id, 0) + 1
    assert set(per_target.values()) == {5}


def test_every_vector_is_logical(corpus):
    # the sub-rule checks search the logical payloads: here, every payload
    assert logical_subset(corpus) == {v.id for v in corpus.vectors}


def test_ids_are_sequential(corpus):
    assert [s.id for s in corpus.signatures] == [f"S_{k}" for k in range(1, 84)]


def test_reconstruction_flags_present(corpus):
    flagged = [s.id for s in corpus.signatures if s.reconstructed]
    verbatim = [s.id for s in corpus.signatures if not s.reconstructed]
    assert "S_79" in verbatim and "S_52" in verbatim and "S_5" in verbatim
    assert "S_7" in flagged and "S_15" in flagged and "S_9" in flagged


def test_every_vector_raw_matched_by_target(corpus, raw_matrix):
    for v in corpus.vectors:
        assert raw_matrix.cell(v.target_signature_id, v.id), v.id


def test_no_empty_or_duplicate_rows(raw_matrix):
    rows = list(raw_matrix.rows)
    assert all(rows)
    assert len(set(rows)) == len(rows)


def test_bypass_is_exactly_the_three_documented(corpus, default_pipeline):
    assert bypass(corpus, default_pipeline) == {"v08_1", "v09_1", "v75_1"}


def test_comment_prefixed_stacked_commands_never_occur(corpus):
    dead = re.compile(r"(?:#|--)\s*(?:drop|alter|update|insert)", re.IGNORECASE)
    for v in corpus.vectors:
        assert not dead.search(v.payload), v.id


def test_dialect_specific_examples(corpus):
    by_payload = {v.payload: v for v in corpus.vectors}
    limit = by_payload["1;select id from customers limit 3"]
    top = by_payload["1;select top 3 * from customers"]
    assert limit.dialects == frozenset({Dialect.MYSQL})
    assert top.dialects == frozenset({Dialect.MSSQL})


def test_set_a_file_matches_matrix(set_a_ids, raw_matrix):
    assert len(set_a_ids) == 10
    assert set(set_a_ids) <= set(raw_matrix.signature_ids)


def test_irrelevant_examples_compile():
    examples = load_signatures(data_dir() / "irrelevant_examples.tsv")
    assert [s.id for s in examples] == ["IR_1", "IR_2"]


def test_prefilter_skips_only_documented(corpus, default_pipeline):
    skipped = {
        v.id
        for v in corpus.vectors
        if not normalize.prefilter_pass(
            default_pipeline, normalize.apply(default_pipeline, v.payload)
        )
    }
    assert skipped == {"v09_1", "v75_1"}


def test_irrelevant_examples_match_no_bundled_vector(corpus):
    for example in load_signatures(data_dir() / "irrelevant_examples.tsv"):
        pattern = re.compile(example.pattern_source, re.IGNORECASE)
        assert not [v.id for v in corpus.vectors if pattern.search(v.payload)], example.id


@pytest.mark.parametrize("small,big", [("S_59", "S_60"), ("S_56", "S_52")])
def test_designed_strict_row_inclusion(raw_matrix, small, big):
    assert raw_matrix.detected_ids(small) < raw_matrix.detected_ids(big)


def test_top_rule_share_and_lead(raw_matrix):
    top, second = contribution(raw_matrix).entries[:2]
    assert top.signature_id == "S_7"
    assert 46.1 <= 100.0 * top.count / 415 <= 54.1
    assert top.count - second.count >= 15


@pytest.mark.parametrize(
    "count,target,tolerance",
    [
        (lambda o: o.both + o.only_a, 386, 12),
        (lambda o: o.both + o.only_b, 384, 12),
        (lambda o: o.both, 355, 12),
        (lambda o: o.only_a, 31, 9),
        (lambda o: o.neither, 0, 0),
    ],
    ids=["union_a", "union_b", "both", "only_a", "neither"],
)
def test_overlap_bands(raw_matrix, set_a_ids, count, target, tolerance):
    o = overlap(raw_matrix, *partition(raw_matrix, ids=set_a_ids))
    assert abs(count(o) - target) <= tolerance


@pytest.mark.parametrize(
    "sid,operators",
    [
        ("S_6", {"or"}),
        ("S_5", {"nand", "and", "or", "xor", "not", "||", "&&"}),
    ],
)
def test_default_token_operators(corpus, sid, operators):
    assert extract_operators(corpus.signature(sid)).operators == operators


def test_top_rule_incomplete_against_the_symbol_family(corpus):
    finding = classify.classify_incomplete(extract_operators(corpus.signature("S_7")))
    missing = {v["family"]: set(v["missing"]) for v in finding.evidence["violations"]}
    assert missing["logical_symbols"] == {"^", "|", "&"}


@pytest.mark.parametrize("dialect", [Dialect.MYSQL, Dialect.MSSQL])
def test_dialect_coverage(corpus, dialect):
    assert sum(dialect in v.dialects for v in corpus.vectors) >= 20
