"""``errors.dump_json``, the one pretty JSON writer, against
``json.dumps(doc, sort_keys=True, indent=2)``."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sig_audit import corpus as corpus_mod, normalize
from sig_audit.errors import dump_json
from sig_audit.report import render, run_audit

ROOT = Path(__file__).resolve().parent.parent


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# keys that escape, that are not ASCII, or whose escaped order differs
# from their raw order
KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x01", "\x7f", "é", " ", "\U0001f600", "a\nb", ""])
FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 1e-7, 1e22, 1e16, 5e-324, float("nan"), float("inf"), float("-inf")])
INTS = st.integers() | st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**100])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | KEYS
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS)
def test_dump_json_writes_the_bytes_of_json_dumps(doc):
    assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        [True, 1, False, 0, 1.0, -0.0],
        {"é": 1, "e": 2, '"': 3, "\\": 4, "\x01": 5},
        [float("nan"), float("inf"), float("-inf"), 1e-7, 1e22],
        [[[]], [{}], {"x": [[1]]}],
    ],
)
def test_dump_json_edge_documents(doc):
    assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{"b": 1, 2.5: 0}], {True: 1}])
def test_a_key_that_is_not_a_string_raises_type_error(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


@pytest.mark.parametrize("value", [{1, 2}, b"x", object()])
def test_a_value_json_cannot_write_raises_type_error(value):
    with pytest.raises(TypeError):
        dump_json({"a": [value]})


def _workload_corpus(name: str):
    """The corpus of perfbench's ``name`` workload at seed 0, in memory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    make = {"wide_rules": workloads._wide_rules, "wide_vectors": workloads._wide_vectors}[name]
    sigs, vecs = make(ROOT, 0)
    tsv = lambda rows: "".join("\t".join(row) + "\n" for row in rows)  # noqa: E731
    return corpus_mod.load_corpus(tsv(sigs), tsv(vecs))


@pytest.mark.parametrize(
    "name, pipeline",
    [("bundled", None), ("bundled", normalize.RAW_PIPELINE), ("wide_rules", None), ("wide_vectors", None)],
)
def test_audit_reports_are_the_bytes_of_json_dumps(name, pipeline):
    corpus = corpus_mod.bundled_corpus() if name == "bundled" else _workload_corpus(name)
    report = run_audit(corpus, pipeline)
    assert render(report, "json") == (reference(report.to_dict()) + "\n").encode("utf-8")
