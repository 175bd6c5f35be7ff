"""Fuzzed inputs for every loader and document parser: whatever the
bytes, only an ``AuditError`` may escape, and no warning.

Each strategy mixes arbitrary JSON (or TSV text) with near-valid
documents built from the expected keys, so the search reaches the field
checks behind the top-level shape check.
"""

import json
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sig_audit import classify, normalize
from sig_audit.corpus import Signature, load_signatures, load_vectors
from sig_audit.errors import AuditError
from sig_audit.matcher import DetectionMatrix
from sig_audit.report import AuditReport

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# documents nested deeper than ``json`` reads: every parser is tried on both
DEEP_ARRAY = "[" * 100_000
DEEP_OBJECT = '{"a":' * 100_000


def deep(test):
    return example(DEEP_ARRAY)(example(DEEP_OBJECT)(test))

SIGNATURES = [Signature("S_1", "a")]
TOKENS = ["S_1", "S_2", "none", "exec", "error", "probe", "mysql", "mssql", "generic", "x", "", "0", "1", "a{4294967296}"]
PATTERN_TEXT = st.text(alphabet="ab1,{}()[]|?*+\\^$.:P<>#=!-s", max_size=12)

scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) | st.text(max_size=6)
tokens = st.sampled_from(TOKENS) | PATTERN_TEXT
values = st.recursive(
    scalars | tokens,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4) | tokens, inner, max_size=4),
    max_leaves=10,
)


def objects(keys, value=values):
    """Lists of objects whose keys are mostly the expected ones."""
    key = st.sampled_from(keys) | st.text(max_size=4)
    return st.lists(st.dictionaries(key, value, max_size=len(keys) + 1), max_size=4)


def documents(near_valid):
    return (values | near_valid).map(json.dumps)


def tsv(fields):
    row = st.lists(tokens | PATTERN_TEXT, min_size=fields - 1, max_size=fields + 1).map("\t".join)
    return st.lists(row | st.sampled_from(["", "# c", "\t"]), max_size=5).map("\n".join)


def only_audit_errors(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse(text)
        except AuditError:
            pass
    assert not caught, [str(w.message) for w in caught]


@FUZZ
@deep
@given(documents(objects(["id", "pattern", "note"], values | PATTERN_TEXT)))
def test_signature_json(text):
    only_audit_errors(lambda t: load_signatures(t, format="json"), text)


@FUZZ
@deep
@given(tsv(2))
def test_signature_tsv(text):
    only_audit_errors(load_signatures, text)


@FUZZ
@deep
@given(documents(objects(["id", "target", "intent", "dialects", "payload"], values | st.lists(tokens, max_size=3))))
def test_vector_json(text):
    only_audit_errors(lambda t: load_vectors(t, SIGNATURES, format="json"), text)


@FUZZ
@deep
@given(tsv(5))
def test_vector_tsv(text):
    only_audit_errors(lambda t: load_vectors(t, SIGNATURES), text)


transform_names = st.lists(st.sampled_from(list(normalize.TRANSFORMS)), max_size=3)


@FUZZ
@deep
@given(documents(st.fixed_dictionaries({}, optional={"transforms": values | transform_names, "prefilter": values | PATTERN_TEXT})))
def test_pipeline_json(text):
    only_audit_errors(normalize.Pipeline.from_json, text)


ids = st.lists(tokens | st.integers(-1, 2), max_size=3) | values
cells = st.lists(st.sampled_from([0, 1, 2, True, -1, 1.0, "1", None]), max_size=3)


@FUZZ
@deep
@given(
    documents(
        st.fixed_dictionaries(
            {},
            optional={
                "signature_ids": ids,
                "vector_ids": ids,
                "rows": st.dictionaries(tokens, cells | values, max_size=3) | values,
                "pipeline_fingerprint": values,
            },
        )
    )
)
def test_matrix_json(text):
    only_audit_errors(DetectionMatrix.from_json, text)


@FUZZ
@deep
@given(documents(objects(["name", "members"], values | st.lists(tokens, max_size=3))))
def test_families_json(text):
    only_audit_errors(classify.load_families, text)


REPORT = {
    "version": "1",
    "corpus_fingerprint": "c",
    "pipeline_fingerprint": "p",
    "capability_fingerprint": "k",
    "findings": [{"signature": "S_1", "label": "Redundant", "evidence": {}}],
    "profile": {"ranking": [{"signature": "S_1", "count": 1, "share_pct": 100.0}], "total_vectors": 1},
    "overlap": None,
    "set_a": None,
    "bypass": {"count": 0, "vector_ids": []},
    "category_counts": {},
    "notes": [],
}


@st.composite
def reports(draw):
    """The valid report above with one field, at depth one or two, replaced."""
    doc = json.loads(json.dumps(REPORT))
    key = draw(st.sampled_from(sorted(doc)))
    inner = doc[key]
    if isinstance(inner, dict) and inner and draw(st.booleans()):
        inner[draw(st.sampled_from(sorted(inner)))] = draw(values)
    elif isinstance(inner, list) and inner and draw(st.booleans()):
        inner[0] = draw(values)
    else:
        doc[key] = draw(values)
    return doc


@FUZZ
@deep
@given(documents(reports()))
def test_report_json(text):
    only_audit_errors(AuditReport.from_json, text)
