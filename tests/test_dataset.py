"""Integrity checks for the bundled dataset.

The vector set is crafted so the audit reproduces the published case
study; these tests freeze the properties the rest of the suite and the
documentation rely on.
"""

import re

from audit_inputs import bypass
from sig_audit import normalize
from sig_audit.corpus import Dialect, data_dir, load_signatures


def test_shape(corpus):
    assert len(corpus.signatures) == 83
    assert len(corpus.vectors) == 415
    per_target = {}
    for v in corpus.vectors:
        per_target[v.target_signature_id] = per_target.get(v.target_signature_id, 0) + 1
    assert set(per_target.values()) == {5}


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
