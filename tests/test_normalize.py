import json
from urllib.parse import unquote

import pytest
from hypothesis import given, settings, strategies as st

from sig_audit import normalize
from sig_audit.errors import ParseError
from sig_audit.normalize import CHUNK, TRANSFORMS, Pipeline, RAW_PIPELINE, apply, apply_all, prefilter_pass

PAYLOADS = st.text(
    alphabet="abcXYZ0129 \t;'\"()=<>#-/%@.\xa0", min_size=0, max_size=30
)


def test_url_decode_then_collapse():
    p = Pipeline(transforms=("url_decode", "whitespace_collapse"))
    assert apply(p, "union%20%20select") == "union select"


@settings(max_examples=500)
@given(st.text(alphabet="%%%0123456789abcdefABCDEFgGzZ +/;'\xa0\u00e9", max_size=24))
def test_url_decode_equals_urllib_unquote_latin1(payload):
    assert normalize._url_decode(payload) == unquote(payload, encoding="latin-1")


def test_nbsp_variant_normalizes():
    out = apply(normalize.default_pipeline(), "union%A0select")
    assert out == "union select"


def test_case_fold():
    assert apply(Pipeline(transforms=("case_fold",)), "Union sElect") == "union select"


def test_quoted_digit_simplify():
    p = Pipeline(transforms=("quoted_digit_simplify",))
    assert apply(p, '(1)or (5/"1")') == "(1)or (5/1)"
    assert apply(p, "(1)or (5/'1')") == "(1)or (5/1)"
    # only digit-only interiors are rewritten
    assert apply(p, '"a1"') == '"a1"'
    assert apply(p, "' 00:00:01'") == "' 00:00:01'"


def test_empty_pipeline_is_identity():
    assert apply(RAW_PIPELINE, "anything %A0 Union  sElect") == "anything %A0 Union  sElect"


def test_lenient_decode_passes_bad_escape_through():
    p = Pipeline(transforms=("url_decode",))
    assert apply(p, "100%zz") == "100%zz"
    assert apply(p, "50% off") == "50% off"


def test_unknown_transform_rejected():
    with pytest.raises(ParseError):
        Pipeline(transforms=("rot13",))


def test_prefilter_skips_the_documented_payloads():
    p = normalize.default_pipeline()
    assert prefilter_pass(p, "1 or @user") is False
    assert prefilter_pass(p, "1 and 1 or 1 having 1") is False
    assert prefilter_pass(p, "1; Select 234") is True


def test_prefilter_absent_forwards_everything():
    assert prefilter_pass(RAW_PIPELINE, "harmless words") is True


def test_pipeline_json_round_trip():
    p = normalize.default_pipeline()
    again = Pipeline.from_json(p.to_json())
    assert again == p
    assert again.fingerprint == p.fingerprint


@pytest.mark.parametrize("key", ["transfroms", "Prefilter", ""])
def test_pipeline_json_names_an_unknown_key(key):
    """A misspelt key is an error naming it, not the empty pipeline."""
    with pytest.raises(ParseError, match=f"unknown pipeline key: {key!r}"):
        Pipeline.from_json(json.dumps({key: ["url_decode", "case_fold"]}))
    with pytest.raises(ParseError, match=f"unknown pipeline key: {key!r}"):
        Pipeline.from_json(json.dumps({"transforms": [], key: None}))


def test_fingerprint_distinguishes_pipelines():
    assert RAW_PIPELINE.fingerprint != normalize.default_pipeline().fingerprint


@given(PAYLOADS)
def test_default_pipeline_fixed_point(payload):
    p = normalize.default_pipeline()
    once = apply(p, payload)
    assert apply(p, once) == once


@given(PAYLOADS)
def test_transforms_idempotent_except_decode(payload):
    for name in ("nbsp_to_space", "case_fold", "whitespace_collapse", "quoted_digit_simplify"):
        p = Pipeline(transforms=(name,))
        once = apply(p, payload)
        assert apply(p, once) == once


@given(PAYLOADS)
def test_collapse_leaves_no_adjacent_whitespace(payload):
    out = apply(Pipeline(transforms=("whitespace_collapse",)), payload)
    assert not any(a.isspace() and b.isspace() for a, b in zip(out, out[1:]))


@given(PAYLOADS)
def test_quoted_digit_simplify_only_touches_digit_spans(payload):
    out = apply(Pipeline(transforms=("quoted_digit_simplify",)), payload)
    if out != payload:
        # the rewrite only ever deletes quote pairs around digits
        assert len(out) < len(payload)
        assert out.count('"') <= payload.count('"')
        assert out.count("'") <= payload.count("'")


@given(PAYLOADS)
def test_empty_transform_list_identity(payload):
    assert apply(RAW_PIPELINE, payload) == payload


# Pieces that meet each transform at a chunk's NUL separators: raw and
# encoded NULs (a decoded %00 splits a payload), a double encoding, a lone
# %, hex digits, nbsp, whitespace runs, quoted digits, the final sigma
# (lowercased by its neighbours) and a capital that lowercases to two
# characters.
_PIECES = ["\0", "%00", "%2500", "%", "0", "a", "F", "\xa0", " ", "  ", "\n", "\t", "'", '"', "1", "Σ", "İ", "X", ";"]
_BATCH_PAYLOADS = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
_PAYLOAD_LISTS = st.one_of(
    st.lists(_BATCH_PAYLOADS, max_size=12),
    # past one chunk: drawn payloads before and after a run of filler
    st.tuples(
        st.lists(_BATCH_PAYLOADS, max_size=6),
        st.integers(CHUNK - 8, 2 * CHUNK + 8),
        st.sampled_from(["", "Ab", "x  Σ"]),
        st.lists(_BATCH_PAYLOADS, max_size=6),
    ).map(lambda t: t[0] + [t[2]] * t[1] + t[3]),
)
_ORDERED_SUBSETS = st.permutations(list(TRANSFORMS)).flatmap(
    lambda names: st.integers(0, len(names)).map(lambda k: tuple(names[:k]))
)


@settings(max_examples=300, deadline=None)
@given(_ORDERED_SUBSETS, _PAYLOAD_LISTS)
def test_apply_all_equals_apply_per_payload(transforms, payloads):
    p = Pipeline(transforms=transforms)
    assert apply_all(p, payloads) == [apply(p, payload) for payload in payloads]
