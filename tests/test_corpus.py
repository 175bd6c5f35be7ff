import json

import pytest
from hypothesis import given, settings, strategies as st

from sig_audit.corpus import (
    FREE_FLOATING,
    AttackVector,
    Corpus,
    Dialect,
    Intent,
    Signature,
    filter_by_dialect,
    load_corpus,
    load_signatures,
    load_vectors,
    logical_subset,
    open_corpus,
    set_a_ids,
    signatures_to_json,
    vectors_to_json,
)
from sig_audit.errors import (
    AuditError,
    DuplicateId,
    ParseError,
    RegexDialectError,
    UnknownIntent,
    UnknownSignatureRef,
)


def test_load_signatures_single_row():
    sigs = load_signatures("S_79\t(?:--[^\\n]*$)\n")
    assert len(sigs) == 1
    assert sigs[0].id == "S_79"
    assert sigs[0].pattern_source == r"(?:--[^\n]*$)"


def test_load_signatures_empty_stream():
    assert load_signatures(b"") == []


def test_load_signatures_duplicate_id():
    with pytest.raises(DuplicateId):
        load_signatures("S_1\ta\nS_1\tb\n")


def test_load_signatures_comments_and_notes():
    sigs = load_signatures("# header\nS_1\tabc\treconstructed: guessed\n")
    assert sigs[0].note == "reconstructed: guessed"
    assert sigs[0].reconstructed


def test_load_signatures_bad_pattern():
    with pytest.raises(RegexDialectError):
        load_signatures("S_1\t(a)\\1\n")


def test_load_signatures_malformed_row_has_line_number():
    with pytest.raises(ParseError) as exc:
        load_signatures("S_1\ta\njust-one-field\n")
    assert exc.value.line == 2


def test_load_vectors_basic():
    sigs = load_signatures("S_79\t(?:--[^\\n]*$)\n")
    vecs = load_vectors(
        "v1\tS_79\texec\tgeneric\t1%20--%20h\n", sigs
    )
    assert vecs[0].payload == "1%20--%20h"  # stored still url-encoded
    assert vecs[0].intent is Intent.EXEC_UNAUTHORIZED
    assert vecs[0].dialects == frozenset({Dialect.GENERIC})


def test_load_vectors_probe_token():
    sigs = load_signatures("S_1\tabc\n")
    vecs = load_vectors("v1\tnone\tprobe\tgeneric\txyz'\n", sigs)
    assert vecs[0].intent is Intent.PROBE


def test_load_vectors_unknown_ref():
    sigs = load_signatures("S_1\tabc\n")
    with pytest.raises(UnknownSignatureRef):
        load_vectors("v1\tS_999\texec\tgeneric\tx\n", sigs)


def test_load_vectors_unknown_intent():
    sigs = load_signatures("S_1\tabc\n")
    with pytest.raises(UnknownIntent):
        load_vectors("v1\tS_1\tbogus\tgeneric\tx\n", sigs)


def test_repeated_fields_load_the_same_and_a_bad_one_names_its_row():
    """The loaders parse each distinct intent and dialect field once per
    load; a bad field is still reported at its own vector and line."""
    sigs = [Signature("S_1", "a")]
    tsv = "v1\tS_1\texec\tmysql,generic\ta\nv2\tS_1\texec\tmysql,generic\tb\n"
    v1, v2 = load_vectors(tsv, sigs)
    expected = (Intent.EXEC_UNAUTHORIZED, {Dialect.MYSQL, Dialect.GENERIC})
    assert (v1.intent, v1.dialects) == (v2.intent, v2.dialects) == expected
    with pytest.raises(ParseError, match=r"^line 4: vector v4 has no dialect tags$"):
        load_vectors(tsv + "# note\nv4\tS_1\texec\t,\tc\n", sigs)
    with pytest.raises(UnknownIntent, match="'bogus'"):
        load_vectors(tsv + "v3\tS_1\tbogus\tmysql,generic\tc\n", sigs)
    rows = [{"id": f"v{i}", "target": "S_1", "intent": "exec", "dialects": ["mysql"], "payload": "a"} for i in (1, 2)]
    rows.append({"id": "v3", "target": "S_1", "intent": "exec", "dialects": [" "], "payload": "a"})
    with pytest.raises(ParseError, match=r"^vector v3 has no dialect tags$"):
        load_vectors(json.dumps(rows), sigs, format="json")
    rows[2] = dict(rows[0], id="v3", intent="bogus")
    with pytest.raises(UnknownIntent, match="'bogus'"):
        load_vectors(json.dumps(rows), sigs, format="json")


_ID_FAULTS = [
    ("S_1\ta\nS_1\tb\n", "v1\tS_1\texec\tgeneric\tx\n", DuplicateId),
    ("S_1\ta\n", "v1\tS_1\texec\tgeneric\tx\nv1\tS_1\texec\tgeneric\ty\n", DuplicateId),
    ("S_1\ta\n", "v1\tS_9\texec\tgeneric\tx\n", UnknownSignatureRef),
]


@pytest.mark.parametrize("sig_tsv, vec_tsv, error", _ID_FAULTS)
def test_id_checks_fire_from_every_entry_point(sig_tsv, vec_tsv, error):
    with pytest.raises(error):
        load_corpus(sig_tsv, vec_tsv)
    with pytest.raises(error):
        load_vectors(vec_tsv, load_signatures(sig_tsv))
    sigs = tuple(Signature(*line.split("\t")) for line in sig_tsv.splitlines())
    vecs = tuple(
        AttackVector(vid, target, payload, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
        for vid, target, _, _, payload in (line.split("\t") for line in vec_tsv.splitlines())
    )
    with pytest.raises(error):
        Corpus(sigs, vecs)


def test_logical_subset_mixed_intents():
    sigs = (Signature("S_1", "a"),)
    vecs = tuple(
        AttackVector(f"v{i}", "none", "p", intent, frozenset({Dialect.GENERIC}))
        for i, intent in enumerate(
            [Intent.EXEC_UNAUTHORIZED, Intent.PROBE, Intent.LOGIC_ERROR]
        )
    )
    c = Corpus(sigs, vecs)
    assert logical_subset(c) == {"v0", "v2"}


def test_logical_subset_all_probe():
    sigs = (Signature("S_1", "a"),)
    vecs = (AttackVector("v1", "none", "p", Intent.PROBE, frozenset({Dialect.GENERIC})),)
    assert logical_subset(Corpus(sigs, vecs)) == frozenset()


def test_logical_subset_bundled_is_everything(corpus):
    assert logical_subset(corpus) == {v.id for v in corpus.vectors}
    assert len(corpus.vectors) == 415


def test_filter_by_dialect():
    sigs = (Signature("S_1", "select"),)
    mk = lambda vid, payload, d: AttackVector(
        vid, "S_1", payload, Intent.EXEC_UNAUTHORIZED, frozenset({d})
    )
    c = Corpus(
        sigs,
        (
            mk("v1", "select * from customers limit 3", Dialect.MYSQL),
            mk("v2", "select top 3 * from customers", Dialect.MSSQL),
            mk("v3", "select 1", Dialect.GENERIC),
        ),
    )
    mysql = filter_by_dialect(c, Dialect.MYSQL)
    assert [v.id for v in mysql.vectors] == ["v1", "v3"]
    assert mysql.signatures == c.signatures
    mssql = filter_by_dialect(c, Dialect.MSSQL)
    assert [v.id for v in mssql.vectors] == ["v2", "v3"]


def test_filter_never_returns_untagged(corpus):
    for d in (Dialect.MYSQL, Dialect.MSSQL):
        sub = filter_by_dialect(corpus, d)
        for v in sub.vectors:
            assert d in v.dialects or Dialect.GENERIC in v.dialects


def test_round_trip_bundled(corpus):
    sig_json = signatures_to_json(corpus.signatures)
    vec_json = vectors_to_json(corpus.vectors)
    again = load_corpus(sig_json, vec_json, format="json")
    assert again == corpus
    assert again.fingerprint == corpus.fingerprint


def test_round_trip_json(corpus):
    again = load_corpus(
        signatures_to_json(corpus.signatures),
        vectors_to_json(corpus.vectors),
        format="json",
    )
    assert again == corpus


def test_json_serialization_is_canonical(corpus):
    blob = vectors_to_json(corpus.vectors)
    assert blob == json.dumps(json.loads(blob), sort_keys=True)


def test_tab_payload_rejected_by_tsv_but_fine_in_json():
    sigs = (Signature("S_1", "a"),)
    vec = AttackVector("v1", "S_1", "a\tb", Intent.EXEC_UNAUTHORIZED,
                       frozenset({Dialect.GENERIC}))
    with pytest.raises(ParseError):  # the tab splits the row into six fields
        load_vectors("v1\tS_1\texec\tgeneric\ta\tb\n", sigs)
    again = load_vectors(vectors_to_json((vec,)), sigs, format="json")
    assert again[0].payload == "a\tb"


_ident = st.text(alphabet="abcdefgh123", min_size=1, max_size=6)
_payload = st.text(
    alphabet="abcdef0123 ;'\"()=<>#-/%", min_size=1, max_size=20
).filter(lambda s: "\t" not in s)


@given(
    payloads=st.lists(_payload, min_size=1, max_size=8, unique=True),
    intents=st.lists(st.sampled_from(["exec", "error", "probe"]), min_size=8, max_size=8),
)
def test_round_trip_random_vectors(payloads, intents):
    sigs = (Signature("S_1", "select"),)
    vecs = tuple(
        AttackVector(
            f"v{i}", "S_1", p, Intent.from_token(intents[i]),
            frozenset({Dialect.GENERIC, Dialect.MYSQL}) if i % 2 else frozenset({Dialect.MSSQL}),
        )
        for i, p in enumerate(payloads)
    )
    c = Corpus(sigs, vecs)
    again = load_corpus(signatures_to_json(sigs), vectors_to_json(vecs), format="json")
    assert again == c
    # logical ids and probe ids partition the corpus
    logical = logical_subset(c)
    probes = {v.id for v in c.vectors if v.intent is Intent.PROBE}
    assert logical | probes == {v.id for v in c.vectors}
    assert not logical & probes


def _outcome(load):
    """What ``load()`` returns, or the ``AuditError`` it raises."""
    try:
        return load()
    except AuditError as exc:
        return exc


@pytest.mark.parametrize(
    "tokens, expected",
    [
        (["mysql", "", "generic"], {Dialect.MYSQL, Dialect.GENERIC}),
        ([" MSSQL ", " "], {Dialect.MSSQL}),
        (["", ""], "vector v1 has no dialect tags"),
        ([" "], "vector v1 has no dialect tags"),
        (["mysql", "oracle"], "unknown dialect token: 'oracle'"),
    ],
    ids=["blank_between", "blank_and_padded", "all_blank", "one_blank", "unknown"],
)
def test_dialect_tokens_read_the_same_from_tsv_and_json(tokens, expected):
    """Both vector loaders skip blank dialect tokens and need one left."""
    sigs = [Signature("S_1", "a")]
    row = {"id": "v1", "target": "S_1", "intent": "exec", "dialects": tokens, "payload": "a"}
    from_tsv = _outcome(lambda: load_vectors(f"v1\tS_1\texec\t{','.join(tokens)}\ta\n", sigs))
    from_json = _outcome(lambda: load_vectors(json.dumps([row]), sigs, format="json"))
    if isinstance(expected, str):
        assert isinstance(from_json, ParseError) and str(from_json) == expected
        assert isinstance(from_tsv, ParseError) and str(from_tsv) in (expected, f"line 1: {expected}")
    else:
        assert from_tsv == from_json
        assert from_json[0].dialects == expected


def _tsv(rows) -> str | None:
    """Tab-joined ``rows``, one a line, or None when some row would not
    load back as written: a field holds a tab or a line break, or the
    row starts with '#' or is blank, which the loaders skip."""
    lines = ["\t".join(row) for row in rows]
    for line, row in zip(lines, rows):
        if line.count("\t") != len(row) - 1 or line.splitlines() != [line]:
            return None
        if line.startswith("#") or not line.strip():
            return None
    return "".join(line + "\n" for line in lines)


def _signature_rows(sigs):
    return [[s.id, s.pattern_source, *([s.note] if s.note else [])] for s in sigs]


def _vector_rows(vecs):
    return [
        [v.id, v.target_signature_id, v.intent.value, ",".join(sorted(d.value for d in v.dialects)), v.payload]
        for v in vecs
    ]


_GENERIC = frozenset({Dialect.GENERIC})


@pytest.mark.parametrize(
    "sigs, vecs",
    [
        ([Signature("S_1", "a\tb")], []),
        ([Signature("S_1", "a", "note\twith tab")], []),
        ([Signature("S_1", "a\x85b")], []),
        ([Signature("S_1", "a\x0cb")], []),
        ([Signature("S_1", "a\nb")], []),
        ([Signature("S_1", "a", "line\u2028break")], []),
        ([Signature("#S_1", "a")], []),
        ([Signature(" ", " ")], []),
        ([Signature("S_1", "a")], [AttackVector("v1", "S_1", "a\nb", Intent.PROBE, _GENERIC)]),
        ([Signature("S_1", "a")], [AttackVector("v1", "S_1", "a\rb", Intent.PROBE, _GENERIC)]),
        ([Signature("S_1", "a")], [AttackVector("#v1", "S_1", "a", Intent.PROBE, _GENERIC)]),
        ([Signature("S\t1", "a")], [AttackVector("v1", "S\t1", "a", Intent.PROBE, _GENERIC)]),
    ],
    ids=[
        "tab_in_pattern", "tab_in_note", "next_line_in_pattern", "form_feed_in_pattern", "newline_in_pattern",
        "line_separator_in_note", "hash_signature_id", "blank_signature_row", "newline_in_payload",
        "return_in_payload", "hash_vector_id", "tab_in_target",
    ],
)
def test_json_carries_rows_that_tsv_cannot(sigs, vecs):
    """A field with a tab or a line break, an id starting with '#', a
    blank row: the JSON writers and loader carry each, where the same
    fields joined by tabs load as something else, or not at all."""
    rows = (tuple(sigs), tuple(vecs))
    assert load_corpus(signatures_to_json(sigs), vectors_to_json(vecs), format="json") == rows
    assert _tsv(_signature_rows(sigs)) is None or _tsv(_vector_rows(vecs)) is None
    joined = ["".join("\t".join(row) + "\n" for row in table) for table in (_signature_rows(sigs), _vector_rows(vecs))]
    assert _outcome(lambda: load_corpus(*joined)) != rows


# fields that may hold a tab, a line break, blanks or a leading '#'
_plain = st.text(alphabet="ab1# ", max_size=4)
_special = st.sampled_from(["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "#", " "])
_any_field = st.one_of(_plain, _plain, _plain, _plain, st.builds("{}{}{}".format, _plain, _special, _plain))


@st.composite
def _corpora(draw):
    sigs = draw(st.lists(st.builds(Signature, _any_field, _any_field, st.none() | _any_field), max_size=2))
    targets = st.sampled_from([s.id for s in sigs] + [FREE_FLOATING])
    vecs = draw(
        st.lists(
            st.builds(
                AttackVector, _any_field, targets, _any_field, st.sampled_from(Intent),
                st.frozensets(st.sampled_from(Dialect), min_size=1),
            ),
            max_size=2,
        )
    )
    return sigs, vecs


@settings(max_examples=300)
@given(_corpora())
def test_tsv_and_json_forms_load_the_same(corpus):
    """Whatever TSV text holds the rows as written loads back as the JSON
    form does."""
    sigs, vecs = corpus
    sig_tsv, vec_tsv = _tsv(_signature_rows(sigs)), _tsv(_vector_rows(vecs))
    if sig_tsv is None or vec_tsv is None:
        return
    from_tsv = _outcome(lambda: load_corpus(sig_tsv, vec_tsv))
    from_json = _outcome(
        lambda: load_corpus(signatures_to_json(sigs), vectors_to_json(vecs), format="json")
    )
    if isinstance(from_json, AuditError):
        assert isinstance(from_tsv, AuditError)
    else:
        assert from_tsv == from_json


# strings that json escapes: quotes, backslashes, control characters,
# non-ASCII (below and above the BMP)
_json_text = st.text(alphabet=st.sampled_from('ab"\\/\x00\x1f\x7f\t\né ſ\U0001f600'), max_size=6)


@settings(max_examples=300)
@given(
    sigs=st.lists(st.builds(Signature, _json_text, _json_text, st.none() | _json_text), max_size=3),
    vecs=st.lists(
        st.builds(
            AttackVector, _json_text, _json_text, _json_text, st.sampled_from(Intent),
            st.frozensets(st.sampled_from(Dialect), min_size=1),
        ),
        max_size=4,
    ),
)
def test_json_writers_give_the_bytes_of_json_dumps(sigs, vecs):
    """The row-by-row JSON writers equal ``json.dumps(rows, sort_keys=True)``."""
    sig_rows = [
        {"id": s.id, "pattern": s.pattern_source, **({"note": s.note} if s.note else {})} for s in sigs
    ]
    vec_rows = [
        {
            "id": v.id,
            "target": v.target_signature_id,
            "intent": v.intent.value,
            "dialects": sorted(d.value for d in v.dialects),
            "payload": v.payload,
        }
        for v in vecs
    ]
    assert signatures_to_json(sigs) == json.dumps(sig_rows, sort_keys=True)
    assert vectors_to_json(vecs) == json.dumps(vec_rows, sort_keys=True)


def test_open_corpus_takes_str_or_path(tmp_path, corpus):
    signatures = corpus.signatures[:6]
    targets = {s.id for s in signatures}
    vectors = tuple(v for v in corpus.vectors if v.target_signature_id in targets)
    (tmp_path / "s.tsv").write_text(_tsv(_signature_rows(signatures)), encoding="utf-8")
    (tmp_path / "v.tsv").write_text(_tsv(_vector_rows(vectors)), encoding="utf-8")
    (tmp_path / "s.json").write_text(signatures_to_json(signatures), encoding="utf-8")
    (tmp_path / "v.json").write_text(vectors_to_json(vectors), encoding="utf-8")
    for ext in ("tsv", "json"):  # the signature file's name picks the format
        sig_path, vec_path = tmp_path / f"s.{ext}", tmp_path / f"v.{ext}"
        assert open_corpus(sig_path, vec_path) == open_corpus(str(sig_path), str(vec_path)) == (signatures, vectors)


def test_set_a_ids_rejects_a_repeated_id_as_the_file_reader_does():
    ids = ["S_1", "S_2"]
    assert set_a_ids(iter(["S_2", "S_1"]), ids) == ("S_2", "S_1")
    assert set_a_ids([], ids) == ()
    for given_ids in (["S_1", "S_1"], ("S_2", "S_1", "S_2"), iter(["S_1", "S_1"])):
        with pytest.raises(DuplicateId):
            set_a_ids(given_ids, ids)


@pytest.mark.parametrize("load", [load_signatures, lambda text, format: load_vectors(text, [], format=format)])
def test_loaders_reject_an_unknown_format(load):
    with pytest.raises(ParseError, match="unknown format: 'xml'"):
        load("", format="xml")


def test_json_signature_note_must_be_a_string():
    rows = [{"id": "S_1", "pattern": "a", "note": 7}]
    with pytest.raises(ParseError, match="'note' must be a string"):
        load_signatures(json.dumps(rows), format="json")
    rows[0]["note"] = "kept"
    assert load_signatures(json.dumps(rows), format="json")[0].note == "kept"


def test_json_vector_dialects_must_be_a_list():
    sigs = [Signature("S_1", "a")]
    row = {"id": "v1", "target": "S_1", "intent": "exec", "dialects": "mysql", "payload": "a"}
    with pytest.raises(ParseError, match="'dialects' must be a list of strings"):
        load_vectors(json.dumps([row]), sigs, format="json")
    row["dialects"] = ["mysql"]
    assert load_vectors(json.dumps([row]), sigs, format="json")[0].dialects == {Dialect.MYSQL}
