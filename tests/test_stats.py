import pytest

from sig_audit import normalize
from sig_audit.corpus import Corpus
from sig_audit.errors import UnknownId
from sig_audit.matcher import DetectionMatrix, detection_matrix
from sig_audit.stats import contribution, overlap, partition


def matrix_from_rows(rows):
    """rows: {sig_id: iterable of vector indexes (over v0..v3)}"""
    vec_ids = tuple(f"v{i}" for i in range(4))
    packed = []
    sig_ids = tuple(rows)
    for sid in sig_ids:
        bits = 0
        for i in rows[sid]:
            bits |= 1 << i
        packed.append(bits)
    return DetectionMatrix(sig_ids, vec_ids, tuple(packed), "test")


def test_contribution_direct_sums():
    m = DetectionMatrix(("a", "b"), ("v0", "v1"), (0b11, 0b10), "t")
    prof = contribution(m)
    assert [(e.signature_id, e.count) for e in prof.entries] == [("a", 2), ("b", 1)]
    assert prof.entries[0].share_pct == 100.0


def test_contribution_all_false_ranks_by_id():
    m = DetectionMatrix(("b", "a"), ("v0",), (0, 0), "t")
    prof = contribution(m)
    assert [e.signature_id for e in prof.entries] == ["a", "b"]
    assert all(e.count == 0 for e in prof.entries)


def test_contribution_bundled_top_rule(raw_matrix):
    prof = contribution(raw_matrix)
    top = prof.top()
    assert top.signature_id == "S_7"
    assert abs(top.share_pct - 50.1) <= 5.0


def test_contribution_permutation_invariant(corpus, raw_matrix):
    reordered = Corpus(corpus.signatures, tuple(reversed(corpus.vectors)))
    m2 = detection_matrix(reordered, normalize.RAW_PIPELINE)
    c1 = {e.signature_id: e.count for e in contribution(raw_matrix).entries}
    c2 = {e.signature_id: e.count for e in contribution(m2).entries}
    assert c1 == c2


def test_partition_explicit_list(raw_matrix, set_a_ids):
    a, b = partition(raw_matrix, ids=set_a_ids)
    assert len(a) == 10
    assert len(b) == 73
    assert a | b == set(raw_matrix.signature_ids)
    assert not a & b


def test_partition_unknown_id():
    m = matrix_from_rows({"a": [0]})
    with pytest.raises(UnknownId):
        partition(m, ids=["a", "zz"])


def test_overlap_extremes():
    m = matrix_from_rows({"a": [0, 1, 2, 3], "b": []})
    o = overlap(m, {"a"}, {"b"})
    assert (o.only_a, o.only_b, o.both, o.neither) == (4, 0, 0, 0)
    o = overlap(m, set(), set())
    assert o.neither == 4
    assert o.total == 4


def test_overlap_bundled_split(raw_matrix, set_a_ids):
    a, b = partition(raw_matrix, ids=set_a_ids)
    o = overlap(raw_matrix, a, b)
    total = o.total
    assert total == 415
    assert abs(100.0 * o.both / total - 85.5) <= 5.0
    assert abs(100.0 * o.only_a / total - 7.5) <= 3.0


def test_overlap_identity():
    m = matrix_from_rows({"a": [0, 1], "b": [1, 2], "c": [3]})
    o = overlap(m, {"a"}, {"b", "c"})
    union_a = 2
    assert o.both + o.only_a == union_a
    assert o.total == 4
