import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from audit_inputs import bypass, logical_payloads, skipped
from oracles import naive_search, random_corpus, random_pattern, random_payload
from sig_audit import matcher, normalize
from sig_audit.classify import Label, classify_semirelevant
from sig_audit.corpus import AttackVector, Corpus, Dialect, Intent, Signature
from sig_audit.errors import ParseError, RegexDialectError
from sig_audit.matcher import (
    CompiledSignature,
    DetectionMatrix,
    TextIndex,
    bit_indices,
    compile_signature,
    detection_matrix,
    full_pipeline_bypass,
    match_key,
    matches,
    parse_pattern,
    required_literals,
    search_form,
)
from sig_audit.report import run_audit
from sig_audit.structural import PatternTable, bounded_specials, expand_subrules, extract_operators


def sig(pattern, sid="S_x"):
    return Signature(sid, pattern)


def test_compile_table_rule():
    compiled = compile_signature(sig(r"(?:--[^\n]*$)", "S_79"))
    assert compiled.case_insensitive


@pytest.mark.parametrize(
    "pattern,why",
    [
        (r"(a)\1", "backreference"),
        (r"foo(?=bar)", "lookaround"),
        (r"(?i:x)", "inline flags"),
        (r"(?P=name)", "backreference"),
    ],
)
def test_dialect_rejections(pattern, why):
    with pytest.raises(RegexDialectError):
        parse_pattern(pattern)


@pytest.mark.parametrize("pattern", [r"\b", r"\B", r"\A", r"\Z", "(?>ab)c", "a*+b", "a++"])
def test_dialect_rejects_other_anchors_atomic_groups_and_possessive_repeats(pattern):
    """Only ``^`` and ``$`` anchor. Atomic groups and possessive repeats
    parse from 3.11 on and are refused as constructs; 3.10 cannot parse
    them."""
    if pattern.startswith("\\"):
        why = "unsupported anchor"
    elif sys.version_info >= (3, 11):
        why = "unsupported construct: (ATOMIC_GROUP|POSSESSIVE_REPEAT)"
    else:
        why = "unparsable pattern"
    with pytest.raises(RegexDialectError, match=why):
        parse_pattern(pattern)


def test_dialect_accepts_supported_constructs():
    for pat in [
        r"(?:union\s+select)",
        r"^[\W\d]+\s*(?:a|b)$",
        r"[^\n]{1,3}?x+?\d*",
        r"(n?and|x?or|not)\s+",
        r"a.b",
    ]:
        parse_pattern(pat)


def test_matches_case_insensitive_substring():
    c = compile_signature(sig(r"(?:union\s+select)"))
    assert matches(c, "1 union select 2")
    assert matches(c, "1 UNION  SELECT 2")
    assert not matches(c, "union/**/select")
    assert not matches(c, "")


def test_case_sensitive_override():
    c = compile_signature(sig(r"(?:union\s+select)"), case_sensitive=True)
    assert not matches(c, "UNION SELECT")
    assert matches(c, "union select")


def one_by_one(pattern, payload, pipeline):
    signatures = (Signature("S_1", pattern),)
    vectors = (
        AttackVector("v1", "S_1", payload, Intent.EXEC_UNAUTHORIZED,
                     frozenset({Dialect.GENERIC})),
    )
    return Corpus(signatures, vectors), detection_matrix(
        Corpus(signatures, vectors), pipeline
    )


def test_matrix_single_cell():
    _, m = one_by_one(r"(?:--[^\n]*$)", "1%20--%20h", normalize.default_pipeline())
    assert m.cell("S_1", "v1") is True


def test_matrix_empty_corpus():
    m = detection_matrix(Corpus((), ()), normalize.RAW_PIPELINE)
    assert m.signature_ids == ()
    assert m.vector_ids == ()
    assert m.rows == ()


def test_matrix_determinism_and_fingerprint(corpus, raw_matrix):
    again = detection_matrix(corpus, normalize.RAW_PIPELINE)
    assert again == raw_matrix
    assert again.pipeline_fingerprint == normalize.RAW_PIPELINE.fingerprint


def test_matrix_oracle_equivalence_small_corpora():
    rng = random.Random(1234)
    for _ in range(25):
        corpus = random_corpus(rng, max_sigs=10, max_vecs=10)
        m = detection_matrix(corpus, normalize.RAW_PIPELINE)
        for s in corpus.signatures:
            for v in corpus.vectors:
                assert m.cell(s.id, v.id) == naive_search(s.pattern_source, v.payload), (
                    s.pattern_source,
                    v.payload,
                )


def test_matrix_oracle_equivalence_with_nul_payloads(default_pipeline):
    # a raw NUL, or one decoded from %00, splits the NUL-joined batch the
    # pipeline runs over; the columns after it must still get their own texts
    payloads = ["1 or 1", "x\0union select", "a%00b or 1", "%2500 union%20select", "b", "Union  SELECT", "@a"]
    sigs = (Signature("S_or", r"or\s+1"), Signature("S_union", r"union\s+select"), Signature("S_b", "b$"))
    vectors = tuple(
        AttackVector(f"v{i}", "none", payload, Intent.PROBE, frozenset({Dialect.GENERIC}))
        for i, payload in enumerate(payloads)
    )
    corpus = Corpus(sigs, vectors)
    for apply_prefilter in (False, True):
        m = detection_matrix(corpus, default_pipeline, apply_prefilter=apply_prefilter)
        for v in vectors:
            text = normalize.apply(default_pipeline, v.payload)
            forwarded = not apply_prefilter or normalize.prefilter_pass(default_pipeline, text)
            for s in sigs:
                assert m.cell(s.id, v.id) == (forwarded and naive_search(s.pattern_source, text)), (s.id, v.payload)


def test_every_bundled_vector_detected_by_its_target_raw(corpus, raw_matrix):
    for v in corpus.vectors:
        assert raw_matrix.cell(v.target_signature_id, v.id), v.id


def test_bypass_documented_vectors(corpus, default_pipeline):
    bypassed = bypass(corpus, default_pipeline)
    payload_of = {v.id: v.payload for v in corpus.vectors}
    assert {payload_of[vid] for vid in bypassed} == {
        "1 or @user",
        "1 and 1 or 1 having 1",
        '(1)or (5/"1")',
    }
    # the table-rule exemplar vector is caught, hence not bypassed
    assert "v79_1" not in bypassed


def test_bypass_zero_signature_corpus():
    vectors = (
        AttackVector("v1", "none", "anything", Intent.EXEC_UNAUTHORIZED,
                     frozenset({Dialect.GENERIC})),
    )
    c = Corpus((), vectors)
    assert bypass(c, normalize.default_pipeline()) == {"v1"}


def test_bypass_monotone_in_prefilter(corpus):
    transforms = normalize.DEFAULT_TRANSFORMS
    without = normalize.Pipeline(transforms=transforms)
    with_pf = normalize.Pipeline(transforms=transforms, prefilter=normalize.DEFAULT_PREFILTER)
    assert bypass(corpus, without) <= bypass(corpus, with_pf)


def test_bypass_disjoint_from_prefiltered_matrix(corpus, default_pipeline):
    deployed = detection_matrix(corpus, default_pipeline, apply_prefilter=True)
    covered = set()
    for sid in deployed.signature_ids:
        covered |= deployed.detected_ids(sid)
    assert not covered & full_pipeline_bypass(deployed)


def test_matrix_csv_and_json_round_trip(raw_matrix):
    again = DetectionMatrix.from_json(raw_matrix.to_json())
    assert again == raw_matrix
    csv = raw_matrix.to_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + 83
    assert lines[0].startswith("signature_id,")


def test_matrix_csv_escapes_ids_like_the_report_csv():
    m = DetectionMatrix(("S,1", "S\n2"), ("v,0", "v1"), (0b01, 0b10), "fp")
    assert m.to_csv() == "signature_id,v;0,v1\nS;1,1,0\nS\\n2,0,1\n"


def _reference_json(m):
    """``to_json`` as ``json.dumps`` of the document with per-bit int cells."""
    cells = {sid: [row >> i & 1 for i in range(len(m.vector_ids))] for sid, row in zip(m.signature_ids, m.rows)}
    doc = {
        "pipeline_fingerprint": m.pipeline_fingerprint,
        "vector_ids": list(m.vector_ids),
        "rows": cells,
        "signature_ids": list(m.signature_ids),
        "row_sums": {sid: sum(c) for sid, c in cells.items()},
    }
    return json.dumps(doc, sort_keys=True)


_ESCAPED = ('"', "\\", "\x01", "caf\u00e9", "\U0001f600")  # quote, backslash, control, non-ASCII, astral


@pytest.mark.parametrize(
    "signature_ids,vector_ids",
    [
        pytest.param(tuple(f"S_{k}" for k in range(6)), tuple(f"v{i}" for i in range(n)), id=str(n))
        for n in (0, 1, 5, 64, 301)
    ]
    + [
        pytest.param(_ESCAPED, _ESCAPED, id="escaped_ids"),
        pytest.param(("S_2", "S_10", "S_1", "S_20"), ("v10", "v2", "v1"), id="sorted_is_not_corpus_order"),
        pytest.param(("S_a", "s_a", "S_A"), ("V", "v"), id="ids_differ_in_case"),
        pytest.param((), ("v0", "v1"), id="zero_signatures"),
        pytest.param((), (), id="empty"),
    ],
)
def test_cell_codec_matches_per_bit_reference(signature_ids, vector_ids):
    n_vectors = len(vector_ids)
    rng = random.Random(n_vectors)
    rows = (0, (1 << n_vectors) - 1) + tuple(rng.getrandbits(n_vectors) for _ in range(4))
    rows = rows[: len(signature_ids)]
    m = DetectionMatrix(signature_ids, vector_ids, rows, "fp")
    csv = ["signature_id," + ",".join(m.vector_ids)]
    csv += [f"{sid}," + ",".join(str(row >> i & 1) for i in range(n_vectors)) for sid, row in zip(signature_ids, rows)]
    assert m.to_csv() == "\n".join(csv) + "\n"
    assert m.to_json() == _reference_json(m)
    assert DetectionMatrix.from_json(m.to_json()) == m
    _assert_read_canonically(m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_to_json_equals_reference_for_any_ids_and_rows(data):
    ids = st.lists(st.text(max_size=4), max_size=6, unique=True).map(tuple)
    signature_ids, vector_ids = data.draw(ids), data.draw(ids)
    rows = tuple(data.draw(st.integers(0, (1 << len(vector_ids)) - 1)) for _ in signature_ids)
    m = DetectionMatrix(signature_ids, vector_ids, rows, data.draw(st.text(max_size=4)))
    assert m.to_json() == _reference_json(m)
    assert DetectionMatrix.from_json(m.to_json()) == m
    _assert_read_canonically(m)


def _outcome(text):
    """``DetectionMatrix.from_json(text)``, or the message of its error."""
    try:
        return DetectionMatrix.from_json(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _loads_outcome(text):
    """``_outcome`` with the canonical read turned off: every text goes
    through ``json.loads``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcher, "_canonical_matrix", lambda text: None)
        return _outcome(text)


def _assert_read_canonically(m):
    """The export of ``m``, with and without the newline the CLI adds, is
    read off its row digits: ``json.loads`` gets only the text around an
    empty row table, and the matrix is the one the general parser gives."""
    real_loads = json.loads
    for text in (m.to_json(), m.to_json() + "\n"):
        parsed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(json, "loads", lambda s: parsed.append(s) or real_loads(s))
            got = DetectionMatrix.from_json(text)
        assert [real_loads(s)["rows"] for s in parsed] == [{}]
        assert matcher._canonical_matrix(text) == got == _loads_outcome(text) == m


def test_bundled_exports_are_read_canonically(corpus, default_pipeline, raw_matrix):
    _assert_read_canonically(raw_matrix)
    _assert_read_canonically(detection_matrix(corpus, default_pipeline, apply_prefilter=True))


_SMALL = DetectionMatrix(("S_1", "S_2", "S_3"), ("v1", "v2", "v3", "v4"), (0b0101, 0, 0b1111), "fp")
_SMALL_JSON = _SMALL.to_json() + "\n"


@pytest.mark.parametrize(
    "edits, expected",
    [
        pytest.param({'"S_1": [1,': '"S_1": [2,'}, "matrix row S_1 must be a list of 0/1 cells", id="cell_2"),
        # ``bytes`` would read true and false as 1 and 0
        pytest.param({'"S_3": [1, 1,': '"S_3": [1, true,'}, "matrix row S_3 must be a list of 0/1 cells", id="cell_true"),
        pytest.param({'"S_2": [0, 0,': '"S_2": [0, false,'}, "matrix row S_2 must be a list of 0/1 cells", id="cell_false"),
        pytest.param({'"S_1": [1, 0, 1,': '"S_1": [1, 0, 1.0,'}, "matrix row S_1 must be", id="cell_1.0"),
        # the digits read as the row -7, which renders back as "1, 1, 1, -"
        # with a row sum of 3; no JSON reads a bare "-"
        pytest.param(
            {'"S_3": [1, 1, 1, 1]': '"S_3": [1, 1, 1, -]', '"S_3": 4}': '"S_3": 3}'},
            "invalid matrix JSON: Expecting value",
            id="minus_cell",
        ),
        pytest.param({'"fp", "row_sums"': '"fp",  "row_sums"'}, _SMALL, id="extra_space"),
        pytest.param({'"S_2": [0, 0,': '"S_2": [0,  0,'}, _SMALL, id="extra_space_in_row"),
        pytest.param(
            {'"pipeline_fingerprint": "fp", "row_sums": {"S_1": 2, "S_2": 0, "S_3": 4}':
             '"row_sums": {"S_1": 2, "S_2": 0, "S_3": 4}, "pipeline_fingerprint": "fp"'},
            _SMALL,
            id="swapped_keys",
        ),
        pytest.param(
            {'["S_1", "S_2", "S_3"]': '["S_1", "S_2", "S_1"]'},
            "matrix JSON 'signature_ids' repeats id 'S_1'",
            id="repeated_id",
        ),
        pytest.param({'"S_2": 0,': '"S_2": 1,'}, _SMALL, id="wrong_row_sums"),
        pytest.param({"}\n": "}\n\n"}, _SMALL, id="two_newlines"),
        pytest.param({"}\n": "}\nx"}, "invalid matrix JSON: Extra data", id="trailing_garbage"),
        pytest.param({"}\n": "} {}"}, "invalid matrix JSON: Extra data", id="trailing_object"),
        pytest.param(
            {'1]}, "signature_ids"': '1], "S_9": [0, 0, 0, 0]}, "signature_ids"'},
            "matrix row 'S_9' is not in 'signature_ids'",
            id="stray_row",
        ),
    ],
)
def test_non_canonical_matrix_json_takes_the_general_parser(edits, expected):
    """A text that is not a canonical export gets no result from the
    canonical read, and from ``from_json`` the matrix, or the error, that
    ``json.loads`` and its checks give."""
    text = _SMALL_JSON
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert matcher._canonical_matrix(text) is None
    got = _outcome(text)
    assert got == _loads_outcome(text)
    if isinstance(expected, DetectionMatrix):
        assert got == expected
    else:
        assert got.startswith("ParseError: " + expected)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, len(_SMALL_JSON)), st.integers(0, 3), st.text("01-2 ,:[]{}\"S_\n", max_size=3))
def test_edited_export_reads_as_the_general_parser_reads_it(at, cut, insert):
    """Any small edit of a canonical export: ``from_json`` gives the
    matrix, or the error, that ``json.loads`` and its checks give."""
    text = _SMALL_JSON[:at] + insert + _SMALL_JSON[at + cut :]
    assert _outcome(text) == _loads_outcome(text)


def test_row_counts_match_cells(raw_matrix):
    counts = raw_matrix.row_counts()
    sid = "S_79"
    assert counts[sid] == len(raw_matrix.detected_ids(sid))


def test_bit_indices():
    rng = random.Random(3)
    for bits in [0, 1, 2, 0b1011, 1 << 700, (1 << 9000) - 1] + [rng.getrandbits(300) for _ in range(20)]:
        assert bit_indices(bits) == [i for i in range(bits.bit_length()) if bits >> i & 1]


def test_row_lookups_agree_with_cells(corpus, raw_matrix):
    for sid in raw_matrix.signature_ids[:10]:
        detected = raw_matrix.detected_ids(sid)
        assert detected == {v.id for v in corpus.vectors if raw_matrix.cell(sid, v.id)}
        assert [raw_matrix.vector_ids[i] for i in raw_matrix.detected_indices(sid)] == [
            v.id for v in corpus.vectors if v.id in detected
        ]


def test_precompiled_signatures_give_the_same_matrices(corpus, raw_matrix, default_pipeline):
    """Rows searched for precompiled rules in a two-view index and passed
    by value give the matrices a plain build gives."""
    compiled = [compile_signature(s) for s in corpus.signatures]
    index = TextIndex(corpus, [(normalize.RAW_PIPELINE, False), (default_pipeline, True)])
    rows = [index.rule_rows(c) for c in compiled]
    assert detection_matrix(corpus, normalize.RAW_PIPELINE, rows=[r[0] for r in rows]) == raw_matrix
    deployed = detection_matrix(corpus, default_pipeline, apply_prefilter=True)
    again = detection_matrix(corpus, default_pipeline, apply_prefilter=True, rows=[r[1] for r in rows])
    assert again == deployed


# payloads the distinct-text index must treat exactly: repeats, case flips,
# characters IGNORECASE folds onto ASCII letters (long s, Kelvin sign,
# dotted I), NUL (raw and encoded)
AWKWARD = ["ſelect 1", "SELECT 1", "\u212aey like 1", "İnsert", "straße or 1", "or\x001", "1%00union select", "x or 1"]
AWKWARD_RULES = ["select", "SeLeCt\\s", "ſelect", "\u212a", "or\x001", "(?:or|and)\\s+1", "\\d+", "(?:union|ſ)"]


def per_cell_rows(corpus, pipeline, case_sensitive, apply_prefilter):
    """Reference rows: one ``re.search`` per cell."""
    flags = 0 if case_sensitive else re.IGNORECASE
    texts = [normalize.apply(pipeline, v.payload) for v in corpus.vectors]
    forwarded = [not apply_prefilter or normalize.prefilter_pass(pipeline, t) for t in texts]
    rows = []
    for s in corpus.signatures:
        pattern = re.compile(s.pattern_source, flags)
        rows.append(sum(1 << i for i, t in enumerate(texts) if forwarded[i] and pattern.search(t)))
    return tuple(rows)


def awkward_corpus(rng):
    corpus = random_corpus(rng, max_sigs=6, max_vecs=12)
    payloads = [v.payload for v in corpus.vectors]
    payloads += rng.sample(payloads, min(3, len(payloads)))  # duplicates
    payloads += [p.swapcase() for p in rng.sample(payloads, 2)]
    payloads += rng.sample(AWKWARD, 3)
    patterns = [s.pattern_source for s in corpus.signatures] + rng.sample(AWKWARD_RULES, 2)
    signatures = tuple(Signature(f"R_{k}", p) for k, p in enumerate(patterns))
    vectors = tuple(
        AttackVector(f"p_{i}", "none", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
        for i, p in enumerate(payloads)
    )
    return Corpus(signatures, vectors)


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_matrix_matches_per_cell_search(case_sensitive):
    rng = random.Random(77)
    pipelines = [
        (normalize.RAW_PIPELINE, False),
        (normalize.default_pipeline(), True),
        (normalize.default_pipeline(), False),
    ]
    for _ in range(60):
        corpus = awkward_corpus(rng)
        for pipeline, deployed in pipelines:
            m = detection_matrix(corpus, pipeline, case_sensitive=case_sensitive, apply_prefilter=deployed)
            assert m.rows == per_cell_rows(corpus, pipeline, case_sensitive, deployed), (
                [s.pattern_source for s in corpus.signatures],
                [v.payload for v in corpus.vectors],
            )


def with_case_variants(corpus, rng):
    """The corpus plus payloads differing from one of its own only in
    case, and payloads and rules with characters IGNORECASE folds onto
    ASCII letters."""
    payloads = [v.payload for v in corpus.vectors]
    payloads += [p.upper() for p in rng.sample(payloads, 3)] + [p.title() for p in rng.sample(payloads, 2)]
    # "İ".lower() is two characters, while IGNORECASE reads it as "i"
    payloads += ["ſELECT 1", "\u212aEY LIKE 1", "select \u212a or 1", "İNSERT into t"]
    patterns = [s.pattern_source for s in corpus.signatures] + ["ſelect\\s+1", "[\u212a]ey", "(?:K|ſ)", "insert\\s"]
    return Corpus(
        tuple(Signature(f"R_{k}", p) for k, p in enumerate(patterns)),
        tuple(
            AttackVector(f"p_{i}", "none", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(payloads)
        ),
    )


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_shared_index_matches_per_cell_search(case_sensitive):
    """One index over several views gives each view the rows of one
    ``re.search`` per cell and of a one-view build."""
    rng = random.Random(78)
    default = normalize.default_pipeline()
    no_fold = normalize.Pipeline(
        transforms=tuple(t for t in normalize.DEFAULT_TRANSFORMS if t != "case_fold"),
        prefilter=normalize.DEFAULT_PREFILTER,
    )
    views = [(normalize.RAW_PIPELINE, False), (default, True), (default, False), (no_fold, True)]
    for _ in range(40):
        corpus = with_case_variants(awkward_corpus(rng), rng)
        compiled = [compile_signature(s, case_sensitive) for s in corpus.signatures]
        index = TextIndex(corpus, views, case_sensitive)
        rows = [index.rule_rows(c) for c in compiled]
        for at, (pipeline, deployed) in enumerate(views):
            shared = detection_matrix(corpus, pipeline, case_sensitive, deployed, rows=[r[at] for r in rows])
            assert shared.rows == per_cell_rows(corpus, pipeline, case_sensitive, deployed), (
                [s.pattern_source for s in corpus.signatures],
                [v.payload for v in corpus.vectors],
            )
            assert shared == detection_matrix(corpus, pipeline, case_sensitive=case_sensitive, apply_prefilter=deployed)


def test_shared_index_refuses_a_case_mode_it_does_not_hold(corpus):
    rule = corpus.signatures[0]
    for case_sensitive in (False, True):
        index = TextIndex(corpus, [(normalize.RAW_PIPELINE, False)], case_sensitive)
        with pytest.raises(ValueError, match="other case mode"):
            index.rule_rows(compile_signature(rule, not case_sensitive))


def test_matrix_refuses_rows_of_another_count(corpus, raw_matrix):
    """One row per signature: a short or long list would give a matrix
    with fewer or more rows than ids."""
    rows = list(raw_matrix.rows)
    for wrong in (rows[:-1], rows + rows[:1], []):
        with pytest.raises(ValueError, match="rows for 83 signatures"):
            detection_matrix(corpus, normalize.RAW_PIPELINE, rows=wrong)
    assert detection_matrix(corpus, normalize.RAW_PIPELINE, rows=rows) == raw_matrix


def test_required_literals_are_sound(corpus):
    """Every text a rule matches contains one of its literals, compared
    in the rule's case mode."""
    rng = random.Random(8)
    patterns = [s.pattern_source for s in corpus.signatures] + AWKWARD_RULES
    patterns += [random_pattern(rng) for _ in range(300)]
    texts = [v.payload for v in corpus.vectors]
    texts += [normalize.apply(normalize.default_pipeline(), t) for t in texts]
    texts += AWKWARD + [random_payload(rng) for _ in range(300)]
    texts += [t.swapcase() for t in texts[::4]]
    for case_sensitive in (False, True):
        flags = 0 if case_sensitive else re.IGNORECASE
        for pattern in patterns:
            try:
                compiled = compile_signature(Signature("S_x", pattern), case_sensitive)
            except RegexDialectError:
                continue
            literals = [re.compile(re.escape(lit), flags) for lit in compiled.literals]
            for text in texts:
                if literals and matches(compiled, text):
                    assert any(lit.search(text) for lit in literals), (pattern, compiled.literals, text)


def test_required_literals_read_off_the_parse():
    for pattern, literals in [
        (r"union\s+select", {"select"}),
        (r"(?:union|select)\s", {"union", "select"}),
        (r"(?:union|\d)\s", set()),
        (r"\d?(?:or)+", {"or"}),
        (r"(?:or)?\d", set()),
        (r"[ab]c*", set()),
    ]:
        assert compile_signature(sig(pattern)).literals == literals, pattern


def test_literals_are_walked_only_for_rules_an_index_searches(monkeypatch, corpus):
    walks, depth = [], [0]
    real = matcher.required_literals

    def counting(nodes):
        if not depth[0]:
            walks.append(nodes)
        depth[0] += 1
        try:
            return real(nodes)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(matcher, "required_literals", counting)
    # sub-rules compile for semi-relevance and never reach an index
    rule = corpus.signature("S_52")
    patterns = PatternTable([rule])
    patterns.compiled(rule.pattern_source, rule.id)
    subs = expand_subrules(rule, patterns)
    assert classify_semirelevant(subs, logical_payloads(corpus), patterns=patterns)
    assert walks == []
    # an audit walks each rule's parse once, for the index
    rep = run_audit(corpus=corpus)
    assert any(f.label is Label.SEMI_RELEVANT for f in rep.findings)
    assert sorted(map(id, walks)) == sorted(id(s.tree) for s in corpus.signatures)


class CountingPattern:
    def __init__(self, pattern):
        self.pattern, self.texts = pattern, []

    def search(self, text):
        self.texts.append(text)
        return self.pattern.search(text)


def counting(c):
    """A compile of the same parse whose ``pattern`` counts its searches."""
    return CompiledSignature(CountingPattern(c.pattern), c.case_insensitive, c.tree)


def test_hits_are_kept_per_compile_even_where_the_code_is_equal():
    """``é`` and ``[é-ü]`` both fold to an empty ASCII class, so their
    case-insensitive compiles hold equal code, yet only the class matches
    ``ü`` under ``re.IGNORECASE``: one index answers each compile with its
    own search."""
    vectors = tuple(
        AttackVector(f"v{i}", "none", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
        for i, p in enumerate(["ü", "é", "e u"])
    )
    index = TextIndex(Corpus((), vectors), [(normalize.RAW_PIPELINE, False)])
    compiled = [compile_signature(Signature("x", source)) for source in ("é", "[é-ü]")]
    assert compiled[0].pattern == compiled[1].pattern
    for c in compiled:
        assert index.hits(c) == [k for k, key in enumerate(index.keys) if c.search(key)]
    assert [index.hits(c) for c in compiled] == [[1], [0, 1]]


def test_matrix_searches_each_distinct_text_at_most_once(monkeypatch):
    rng = random.Random(21)
    base = awkward_corpus(rng)
    copies = 3
    vectors = tuple(
        AttackVector(f"{v.id}_{k}", "none", v.payload, v.intent, v.dialects)
        for k in range(copies)
        for v in base.vectors
    )
    corpus = Corpus(base.signatures, vectors)
    distinct = len({v.payload for v in vectors})
    # the matrix's own one-view build, its compiles counting their searches
    counted = []
    real = matcher.compile_signature

    def counting_compile(*args):
        counted.append(counting(real(*args)))
        return counted[-1]

    monkeypatch.setattr(matcher, "compile_signature", counting_compile)
    m = detection_matrix(corpus, normalize.RAW_PIPELINE)
    monkeypatch.undo()
    assert m.rows == per_cell_rows(corpus, normalize.RAW_PIPELINE, False, False)
    assert len(counted) == len(corpus.signatures)
    for c in counted:
        assert len(c.pattern.texts) <= distinct < len(vectors)
        assert len(set(c.pattern.texts)) == len(c.pattern.texts)

    # one index shared by the raw and the deployed view: each rule
    # searches each key at most once across both; asked again, it gives
    # the same rows from the same searches, as the index keeps no rows
    views = [(normalize.RAW_PIPELINE, False), (normalize.default_pipeline(), True)]
    for case_sensitive in (False, True):
        counted = [counting(compile_signature(s, case_sensitive)) for s in corpus.signatures]
        index = TextIndex(corpus, views, case_sensitive)
        rows = [index.rule_rows(c) for c in counted]
        for at, (pipeline, deployed) in enumerate(views):
            m = detection_matrix(corpus, pipeline, case_sensitive, deployed, rows=[r[at] for r in rows])
            assert m.rows == per_cell_rows(corpus, pipeline, case_sensitive, deployed)
        searched = [list(c.pattern.texts) for c in counted]
        for texts in searched:
            assert len(texts) <= len(index.keys)
            assert len(set(texts)) == len(texts)
        assert [index.rule_rows(c) for c in counted] == rows
        assert [c.pattern.texts for c in counted] == [texts + texts for texts in searched]


@pytest.mark.parametrize("case_sensitive,raw_searches,shared_searches", [(False, 1, 1), (True, 2, 3)])
def test_texts_differing_in_case_share_a_key_when_case_insensitive(case_sensitive, raw_searches, shared_searches):
    corpus = Corpus(
        (Signature("S_1", r"\w+\s+\w+ 1'"),),  # matches both in either case mode
        tuple(
            AttackVector(f"v{i}", "S_1", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(["UNION select 1'", "union SELECT 1'"])
        ),
    )
    # the default pipeline folds both to "union select 1'", which its prefilter forwards
    views = [(normalize.RAW_PIPELINE, False), (normalize.default_pipeline(), True)]
    for shared_views, searches in ((views[:1], raw_searches), (views, shared_searches)):
        counted = counting(compile_signature(corpus.signatures[0], case_sensitive))
        index = TextIndex(corpus, shared_views, case_sensitive)
        rows = index.rule_rows(counted)
        for at, (pipeline, deployed) in enumerate(shared_views):
            m = detection_matrix(corpus, pipeline, case_sensitive, deployed, rows=[rows[at]])
            assert m.rows == per_cell_rows(corpus, pipeline, case_sensitive, deployed) == (0b11,)
        assert len(counted.pattern.texts) == searches


def _dialect_patterns(corpus):
    """The bundled rules, their sub-rules, the awkward rules and 300
    random patterns that load."""
    patterns = [s.pattern_source for s in corpus.signatures]
    patterns += [sub for s in corpus.signatures for sub in expand_subrules(s).subrules]
    patterns += AWKWARD_RULES
    rng = random.Random(31)
    for _ in range(300):
        pattern = random_pattern(rng)
        try:
            parse_pattern(pattern)
        except RegexDialectError:
            continue
        patterns.append(pattern)
    return list(dict.fromkeys(patterns))


def test_tree_compiled_pattern_equals_re_compile(corpus):
    """A pattern compiled from its parse finds a match in the same texts
    as ``re.compile`` of its source, in both case modes, through
    ``matches``; where its search form is its parse, the spans are the
    same too. The form a text that is not ASCII is searched with has the
    flags of ``re.compile``."""
    rng = random.Random(32)
    texts = [v.payload for v in corpus.vectors]
    texts += [v.payload for _ in range(5) for v in with_case_variants(awkward_corpus(rng), rng).vectors]
    texts += [t.swapcase() for t in rng.sample(texts, 40)] + AWKWARD
    texts = list(dict.fromkeys(texts))
    for pattern in _dialect_patterns(corpus):
        signature = sig(pattern)
        uncut = search_form(signature.tree) is signature.tree
        for case_sensitive in (False, True):
            compiled = compile_signature(signature, case_sensitive)
            reference = re.compile(pattern, 0 if case_sensitive else re.IGNORECASE)
            unfolded = compiled.pattern if case_sensitive else compiled.ignorecase
            assert compiled.pattern.pattern is None and unfolded.pattern is None
            assert unfolded.flags == reference.flags, pattern
            for text in texts:
                found, expected = compiled.search(match_key(text, case_sensitive)), reference.search(text)
                assert matches(compiled, text) == (expected is not None), (pattern, text)
                if uncut:
                    assert (found and found.span()) == (expected and expected.span()), (pattern, text)


def test_compiling_leaves_the_parse_as_it_was(corpus):
    """The structural passes read the same tree before and after it is
    compiled, in either case mode."""
    for pattern in _dialect_patterns(corpus):
        before = sig(pattern)
        after = sig(pattern)
        compile_signature(after)
        compile_signature(after, case_sensitive=True)
        assert repr(after.tree) == repr(before.tree), pattern
        assert extract_operators(after) == extract_operators(before), pattern
        assert required_literals(after.tree) == required_literals(before.tree), pattern
        assert bounded_specials(after) == bounded_specials(before), pattern


def _search_form_patterns(corpus, rng):
    """The bundled rules and sub-rules, unions ``(?:A)|(?:B)`` of rules
    and 1,000 random patterns that load."""
    rules = [s.pattern_source for s in corpus.signatures]
    patterns = rules + [sub for s in corpus.signatures for sub in expand_subrules(s).subrules]
    patterns += [f"(?:{a})|(?:{b})" for a, b in (rng.sample(rules, 2) for _ in range(40))]
    drawn = 0
    while drawn < 1000:
        pattern = random_pattern(rng)
        try:
            parse_pattern(pattern)
        except RegexDialectError:
            continue
        patterns.append(pattern)
        drawn += 1
    return list(dict.fromkeys(patterns))


def test_search_form_finds_a_match_in_the_same_texts(corpus):
    """A rule compiled in its search form finds a match in a text iff
    ``re.compile`` of its source does, and iff the brute-force oracle
    does, in both case modes, texts ending in a line break included."""
    rng = random.Random(15)
    texts = [v.payload for v in corpus.vectors][::3] + [random_payload(rng) for _ in range(60)]
    texts += [t + "\n" for t in texts[::4]] + [t.swapcase() for t in texts[::5]] + ["", "\n"]
    texts = list(dict.fromkeys(texts))
    patterns = _search_form_patterns(corpus, rng)
    trees = [sig(p).tree for p in patterns]
    assert sum(search_form(tree) is not tree for tree in trees) > len(patterns) // 4  # many are cut
    for pattern in patterns:
        for case_sensitive in (False, True):
            flags = 0 if case_sensitive else re.IGNORECASE
            compiled = compile_signature(sig(pattern), case_sensitive)
            reference = re.compile(pattern, flags).search
            found = [matches(compiled, t) for t in texts]
            assert found == [reference(t) is not None for t in texts], pattern
            # the oracle folds the text, exact for these lowercase rules
            # and ASCII texts; half the sample is texts the rule matches
            hit = [t for t, f in zip(texts, found) if f]
            sample = rng.sample(hit, min(4, len(hit))) + rng.sample(texts, 4)
            for text in sample:
                assert naive_search(pattern, text, not case_sensitive) == matches(compiled, text), (pattern, text)


# atoms whose answer under IGNORECASE on ASCII text is not plain
# lowercase matching: the Kelvin sign and the long s match k and s, é and
# [é-ü] match no ASCII character, and a negated literal, \W and \s reach
# the control characters and DEL
FOLD_RULES = [
    "\u212a", "ſ", "é", "[é-ü]", "[^a]", "\\W", "\\s", "[\u212a]", "[^\u212a]", "[^ſ]", "[^é]",
    "\u212aey", "ſelect", "[k-s]", "[^k]", "\\S", "\\w", "\\D", "É", "[A-Z]", "[^A-Z]", "SeLeCt\\s", "İ", "ı",
]
FOLD_TEXTS = [
    "k", "K", "\u212a", "s", "S", "ſ", "é", "É", "ü", "a", "A", "b", "i", "I", "İ", "ı", "\x1c", "\x1d",
    "\x1e", "\x1f", "\x7f", "\x00", " \t\n", "\xa0or 1", "ſELECT 1", "KEY like 1", "x\x1fselect\x00",
]


def test_ascii_fold_answers_as_ignorecase(corpus):
    """A case-insensitive rule finds a match in a text iff ``re.compile(
    source, re.IGNORECASE)`` does, texts that are ASCII (searched
    lowercased in the ASCII fold) or not (searched under IGNORECASE)
    alike, through ``matches`` and through a detection matrix; the
    brute-force oracle agrees on a sample."""
    rng = random.Random(18)
    texts = [v.payload for v in corpus.vectors][::5]
    texts += [t.swapcase() for t in texts] + [random_payload(rng) for _ in range(40)] + AWKWARD + FOLD_TEXTS
    texts = list(dict.fromkeys(texts))
    assert sum(not t.isascii() for t in texts) >= 12 and sum(t != t.lower() for t in texts) >= 60
    patterns = _search_form_patterns(corpus, rng)
    for pattern in patterns + FOLD_RULES:
        compiled = compile_signature(sig(pattern))
        search = re.compile(pattern, re.IGNORECASE).search
        assert [matches(compiled, t) for t in texts] == [search(t) is not None for t in texts], pattern
    # the oracle folds the text, exact for these lowercase rules and ASCII texts
    ascii_texts = [t for t in texts if t.isascii()]
    for pattern in rng.sample(patterns, 150):
        compiled = compile_signature(sig(pattern))
        for text in rng.sample(ascii_texts, 6):
            assert naive_search(pattern, text) == matches(compiled, text), (pattern, text)
    # a matrix searches each key once, lowercased when it is ASCII
    rules = FOLD_RULES + [s.pattern_source for s in corpus.signatures]
    wide = Corpus(
        tuple(Signature(f"R_{k}", p) for k, p in enumerate(rules)),
        tuple(
            AttackVector(f"t_{i}", "none", t, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, t in enumerate(texts)
        ),
    )
    raw = normalize.RAW_PIPELINE
    assert detection_matrix(wide, raw).rows == per_cell_rows(wide, raw, False, False)


@pytest.mark.parametrize(
    "pattern, text",
    [(r"^\w+x", "abx"), (r"x\w+$", "xab"), (r"x\w+$", "xab\n"), (r"(?:^a|b)+c", "abc"), (r"a(?:b|c$)*", "ac\n")],
)
def test_search_form_keeps_anchors_where_they_were(pattern, text):
    """A cut never moves an anchor: a repeat next to ``^`` or ``$`` is
    not an edge, and an anchor inside a cut repeat tests the same place."""
    expected = re.search(pattern, text) is not None
    assert matches(compile_signature(sig(pattern)), text) == expected
    assert matches(compile_signature(sig(pattern), case_sensitive=True), text) == expected


def test_search_form_shape(corpus):
    """The search form cuts each unanchored edge repeat to its minimum,
    is its own search form, is the tree itself when nothing is cut, and
    leaves the parse as it was."""
    cases = {
        r"\w+\s*(?:and|or)\s+1": r"\w\s*(?:and|or)\s+1",
        r"x\w*": "x",
        r"(?:a+b|c{2,5})\s?": "(?:ab|c{2})",
        r"a{3,}": "a{3}",
        r"^\w+x\s*$": r"^\w+x\s*$",
        r"(?:\w+x)+y": r"\wxy",
        r"a*": "",
    }
    for pattern, form in cases.items():
        assert repr(search_form(sig(pattern).tree)) == repr(sig(form).tree), pattern
    for pattern in _search_form_patterns(corpus, random.Random(16)):
        tree = sig(pattern).tree
        before = repr(tree)
        form = search_form(tree)
        assert repr(tree) == before, pattern
        assert search_form(form) is form, pattern
        if repr(form) == before:
            assert form is tree, pattern


def test_nesting_too_deep_to_check_is_a_dialect_error():
    """A capturing group holding a branch, repeated, is three tree levels
    a group, where the parser takes two frames: nested as deep as the
    parser reads, the dialect check runs out of stack, which is a
    ``RegexDialectError`` and not a ``RecursionError``."""
    def nest(depth):
        return "x" + "(o|" * depth + "or" + ")?" * depth

    lo, hi = 1, sys.getrecursionlimit()  # the parser reads lo, and not hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            matcher.sre_parse.parse(nest(mid))
            lo = mid
        except RecursionError:
            hi = mid
    depth = lo - 10  # the parse itself succeeds one call deeper
    with pytest.raises(RegexDialectError, match="unparsable pattern"):
        parse_pattern(nest(depth))
    assert parse_pattern(nest(depth // 4))  # well within the stack


def test_prefilter_is_not_cut():
    """The prefilter is used whole (``fullmatch``), so it compiles from
    its parse as written: ``a+`` skips ``aa``."""
    pipeline = normalize.Pipeline(prefilter="a+")
    assert not normalize.prefilter_pass(pipeline, "aa")
    assert normalize.prefilter_pass(pipeline, "ab")


def test_matrix_json_fingerprint_must_be_a_string(raw_matrix):
    doc = json.loads(raw_matrix.to_json())
    doc["pipeline_fingerprint"] = 7
    text = json.dumps(doc, indent=1)  # not a canonical export: read through ``json.loads``
    assert matcher._canonical_matrix(text) is None
    with pytest.raises(ParseError, match="'pipeline_fingerprint' must be a string"):
        DetectionMatrix.from_json(text)
    doc["pipeline_fingerprint"] = "fp"
    assert DetectionMatrix.from_json(json.dumps(doc, indent=1)) == raw_matrix._replace(pipeline_fingerprint="fp")


def _assert_skipped_is_the_replay(corpus, pipeline):
    """A prefiltered view records the vectors whose transformed payload
    its prefilter fully matches; a view without its prefilter skips none."""
    index = TextIndex(corpus, [(normalize.RAW_PIPELINE, False), (pipeline, True), (pipeline, False)])
    assert index.skipped == [frozenset(), skipped(corpus, pipeline), frozenset()]


def test_index_skips_the_vectors_the_prefilter_skips(corpus, default_pipeline):
    _assert_skipped_is_the_replay(corpus, default_pipeline)
    assert skipped(corpus, default_pipeline) == {"v09_1", "v75_1"}  # of the three bypassed
    _assert_skipped_is_the_replay(corpus, normalize.RAW_PIPELINE)
    assert skipped(corpus, normalize.RAW_PIPELINE) == frozenset()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("aZ1 _.,!?%20%2'\"<>-\x00\xa0ſ"), min_size=1, max_size=10), max_size=12))
def test_index_skips_what_the_prefilter_replay_skips(payloads):
    corpus = Corpus(
        (),
        tuple(
            AttackVector(f"v{i}", "none", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(payloads)
        ),
    )
    _assert_skipped_is_the_replay(corpus, normalize.default_pipeline())
    _assert_skipped_is_the_replay(corpus, normalize.RAW_PIPELINE)


def test_index_keeps_a_repeated_view_as_its_own(corpus, default_pipeline):
    """Views are kept in the order given, a repeated one included: a rule
    gets one row per view."""
    views = [(default_pipeline, True), (normalize.RAW_PIPELINE, False), (default_pipeline, True)]
    index = TextIndex(corpus, views)
    deployed = detection_matrix(corpus, default_pipeline, apply_prefilter=True)
    raw = detection_matrix(corpus, normalize.RAW_PIPELINE)
    for n, sig in enumerate(corpus.signatures):
        assert index.rule_rows(compile_signature(sig)) == (deployed.rows[n], raw.rows[n], deployed.rows[n])
