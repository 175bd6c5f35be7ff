import json
import re
import subprocess
import sys

import pytest

from sig_audit import classify, cli, matcher, normalize, report, structural
from sig_audit.classify import Label
from sig_audit.corpus import (
    AttackVector,
    Corpus,
    Dialect,
    Intent,
    Signature,
    data_dir,
    load_signatures,
    load_vectors,
    signatures_to_json,
    signatures_to_tsv,
    vectors_to_json,
    vectors_to_tsv,
)
from sig_audit.errors import ParseError
from sig_audit.report import AuditReport, render, run_audit


@pytest.fixture(scope="module")
def audit():
    return run_audit()


def test_audit_has_expected_categories(audit):
    labels = {f.label for f in audit.findings}
    assert Label.REDUNDANT in labels
    assert Label.SUSCEPTIBLE in labels
    assert Label.INCOMPLETE in labels
    assert Label.SEMI_RELEVANT in labels
    assert Label.INCONSISTENT in labels
    # the bundled set has no dead rules; those ship separately
    assert Label.IRRELEVANT not in labels


def test_audit_fingerprints_set(audit, corpus, default_pipeline):
    assert audit.corpus_fingerprint == corpus.fingerprint
    assert audit.pipeline_fingerprint == default_pipeline.fingerprint
    assert audit.category_counts["Redundant"] > 0
    assert len(audit.bypass_ids) == 3


def test_json_round_trip(audit):
    again = AuditReport.from_json(audit.to_json())
    assert again == audit


def test_report_from_json_rejects_malformed(audit):
    doc = audit.to_dict()
    doc["findings"][0]["label"] = "Unheard"
    for text in ["{", "[]", "{}", json.dumps(doc)]:
        with pytest.raises(ParseError):
            AuditReport.from_json(text)


def test_render_deterministic(audit):
    for fmt in ("json", "text", "csv"):
        assert render(audit, fmt) == render(audit, fmt)


def test_render_csv_contains_redundancy_row(audit):
    csv = render(audit, "csv").decode()
    assert "S_32,Redundant,S_26" in csv.splitlines()


@pytest.mark.parametrize("sid", ["S_1", "S,1\nb"])
def test_render_csv_keeps_each_finding_on_one_row(sid):
    # a JSON corpus may hold line breaks in payloads and ids
    c = Corpus(
        (Signature(sid, r"or\s{0,1}1"),),
        tuple(
            AttackVector(f"v{i}", sid, p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(["x or\n1", "x or 1"])
        ),
    )
    rep = run_audit(corpus=c, raw=True)
    lines = rep.to_csv().splitlines()
    assert len(lines) == 1 + len(rep.findings)
    row = sid.replace(",", ";").replace("\n", "\\n")
    assert f"{row},Susceptible,x or\\n 1" in lines
    assert all(line.count(",") == 2 for line in lines)


def test_render_empty_report():
    from sig_audit.corpus import AttackVector, Corpus, Dialect, Intent, Signature

    c = Corpus(
        (Signature("S_1", "zzz9"),),
        (AttackVector("v1", "S_1", "zzz9", Intent.EXEC_UNAUTHORIZED,
                      frozenset({Dialect.GENERIC})),),
    )
    rep = run_audit(corpus=c, raw=True)
    doc = json.loads(render(rep, "json"))
    assert doc["findings"] == []


def test_raw_audit_never_inconsistent(corpus):
    rep = run_audit(corpus=corpus, raw=True)
    assert all(f.label is not Label.INCONSISTENT for f in rep.findings)


def test_audit_deterministic_across_runs(corpus):
    a = run_audit(corpus=corpus)
    b = run_audit(corpus=corpus)
    assert render(a, "json") == render(b, "json")


def test_case_sensitive_flag_reaches_semirelevance(tmp_path):
    sig_path = tmp_path / "s.tsv"
    sig_path.write_text("S_1\t(?:UNION|select)\n")
    vec_path = tmp_path / "v.tsv"
    vec_path.write_text("v1\tS_1\texec\tgeneric\tunion select 1\n")
    rep = run_audit(sig_path=sig_path, vec_path=vec_path, raw=True, case_sensitive=True)
    semi = [f for f in rep.findings if f.label is Label.SEMI_RELEVANT]
    assert [f.signature_id for f in semi] == ["S_1"]
    assert semi[0].evidence["dead_subrules"] == [{"index": 0, "source": "UNION"}]
    folded = run_audit(sig_path=sig_path, vec_path=vec_path, raw=True)
    assert all(f.label is not Label.SEMI_RELEVANT for f in folded.findings)


def test_family_member_outside_probe_set_reaches_incompleteness(tmp_path):
    sig_path = tmp_path / "s.tsv"
    sig_path.write_text("S_1\t1\\s*¬\\s*1\n", encoding="utf-8")
    vec_path = tmp_path / "v.tsv"
    vec_path.write_text("v1\tS_1\texec\tgeneric\t1 ¬ 1\n", encoding="utf-8")
    families = [classify.RelatedOperatorFamily("negation", frozenset({"¬", "!"}))]
    rep = run_audit(sig_path=sig_path, vec_path=vec_path, raw=True, families=families)
    incomplete = [f for f in rep.findings if f.label is Label.INCOMPLETE]
    assert [f.evidence["violations"] for f in incomplete] == [
        [{"family": "negation", "present": ["¬"], "missing": ["!"]}]
    ]


def test_cli_family_member_whose_case_swap_is_two_characters(tmp_path, capsys):
    """``"ß".swapcase()`` is ``"SS"``; the audit neither crashes on it
    nor finds ``ß`` where no atom holds it."""
    sig_path = tmp_path / "s.tsv"
    sig_path.write_text("S_1\t1\\s*[a-c]\\s*1\nS_2\t1\\s*~\\s*1\n", encoding="utf-8")
    vec_path = tmp_path / "v.tsv"
    vec_path.write_text("v1\tS_1\texec\tgeneric\t1 a 1\n", encoding="utf-8")
    fams = tmp_path / "families.json"
    fams.write_text(json.dumps([{"name": "x", "members": ["ß", "~"]}]), encoding="utf-8")
    rc = cli.main(["audit", "--signatures", str(sig_path), "--vectors", str(vec_path), "--families", str(fams)])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    incomplete = {
        f["signature"]: f["evidence"]["violations"]
        for f in json.loads(captured.out)["findings"]
        if f["label"] == Label.INCOMPLETE.value
    }
    assert incomplete == {"S_2": [{"family": "x", "present": ["~"], "missing": ["ß"]}]}


def test_audit_analyses_each_rule_once(monkeypatch, corpus):
    """One audit builds two matrices, compiles each rule once and parses
    each rule's source once, loading included."""
    calls = {"detection_matrix": [], "compile_signature": [], "parse_pattern": []}

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls[fn.__name__].append(args)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(matcher, "detection_matrix", counting(matcher.detection_matrix))
    compile_ = counting(matcher.compile_signature)
    monkeypatch.setattr(matcher, "compile_signature", compile_)
    monkeypatch.setattr(classify, "compile_signature", compile_)
    parse = counting(matcher.parse_pattern)
    monkeypatch.setattr(matcher, "parse_pattern", parse)
    monkeypatch.setattr(structural, "parse_pattern", parse)

    run_audit()
    assert len(calls["detection_matrix"]) == 2
    compiled = sorted(args[0].id for args in calls["compile_signature"])
    assert compiled == sorted(s.id for s in corpus.signatures)
    for s in corpus.signatures:
        assert calls["parse_pattern"].count((s.pattern_source, s.id)) == 1, s.id


def test_audit_works_out_the_bypass_set_once(monkeypatch):
    calls = []
    real = matcher.full_pipeline_bypass

    def counting(deployed):
        calls.append(deployed)
        return real(deployed)

    monkeypatch.setattr(matcher, "full_pipeline_bypass", counting)
    rep = run_audit()
    assert len(calls) == 1
    assert rep.bypass_ids == ("v08_1", "v09_1", "v75_1")
    inconsistent = {v["id"] for f in rep.findings if f.label is Label.INCONSISTENT for v in f.evidence["vectors"]}
    assert inconsistent == set(rep.bypass_ids)


def _count_parses_and_compiles(monkeypatch):
    """Record the source of every regex parse and the (source, case
    mode) of every code generation, ``re.compile`` calls included."""
    parsed, compiled, source_of = [], [], {}
    real_parse, real_compile = matcher.sre_parse.parse, matcher.sre_compile.compile

    def parse(source, *args, **kwargs):
        tree = real_parse(source, *args, **kwargs)
        parsed.append(source)
        source_of[id(tree)] = (source, tree)  # the tree is kept, so its id stays its own
        return tree

    def compile_(p, flags=0):
        source = p if isinstance(p, str) else source_of[id(p)][0]
        compiled.append((source, bool(flags & re.IGNORECASE)))
        return real_compile(p, flags)

    re.purge()  # a cached pattern would hide a second parse
    monkeypatch.setattr(matcher.sre_parse, "parse", parse)
    monkeypatch.setattr(matcher.sre_compile, "compile", compile_)
    return parsed, compiled


def _shared_subrule_corpus():
    """Rules sharing sub-rules (one spelled like a rule, one twice in
    one rule) and a quantified atom."""
    rules = ["xay", "x(?:a|b)y", "x(?:a|b)y|z|xay", r"a\s?b(?:1|2)", r"a\s?b(?:1|3)", r"c\s?d|e"]
    payloads = ["xay", "xby", "z", "a b1", "a b2", "a b3", "c d", "e"]
    return Corpus(
        tuple(Signature(f"S_{n}", p) for n, p in enumerate(rules, start=1)),
        tuple(
            AttackVector(f"v{n}", "none", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for n, p in enumerate(payloads, start=1)
        ),
    )


@pytest.mark.parametrize("case_sensitive", [False, True])
@pytest.mark.parametrize("shared", [False, True], ids=["bundled", "shared_subrules"])
def test_audit_parses_each_distinct_source_once(monkeypatch, corpus, case_sensitive, shared):
    """Rules, sub-rules, quantified atoms and the prefilter: no source is
    parsed twice in one audit, and none is compiled twice in one case
    mode."""
    corpus = _shared_subrule_corpus() if shared else corpus
    parsed, compiled = _count_parses_and_compiles(monkeypatch)
    if shared:
        run_audit(corpus=corpus, case_sensitive=case_sensitive)
    else:
        run_audit(case_sensitive=case_sensitive)  # the bundled set, loading included
    twice = [source for source in set(parsed) if parsed.count(source) > 1]
    assert twice == []
    assert [c for c in set(compiled) if compiled.count(c) > 1] == []
    mode = not case_sensitive
    rules = {s.pattern_source for s in corpus.signatures}
    assert {(r, mode) for r in rules} <= set(compiled)
    assert normalize.DEFAULT_PREFILTER in parsed
    if shared:
        # shared sub-rules and the atom were reached, and each parsed once
        assert {"xby", "a\\s?b1", "z"} <= set(parsed) and "\\s" in parsed
        assert {("xby", mode), ("a\\s?b1", mode), ("z", mode)} <= set(compiled)
    else:
        assert len(set(parsed) - rules) > len(rules)  # sub-rules and atoms


def test_cli_structure_prints_the_same_document(capsys):
    """A bound's charset stays out of the exported structure."""
    assert cli.main(["structure", "S_6"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "bounds": [\n    {\n      "char_class": "\\"",\n      "max_occurrences": 1,\n'
        '      "position": 12\n    }\n  ],\n  "expansion_complete": true,\n  "operators": [\n'
        '    "or"\n  ],\n  "pattern": "(?:\\"\\\\s*or\\\\s*\\"?\\\\d)",\n  "signature": "S_6",\n'
        '  "subrules": [\n    "(?:\\"\\\\s*or\\\\s*\\"?\\\\d)"\n  ]\n}\n'
    )


def test_empty_vector_file_marks_all_irrelevant(tmp_path):
    sig_path = data_dir() / "phpids_sqli_signatures.tsv"
    vec_path = tmp_path / "empty.tsv"
    vec_path.write_text("")
    rep = run_audit(sig_path=sig_path, vec_path=vec_path)
    irrelevant = {f.signature_id for f in rep.findings if f.label is Label.IRRELEVANT}
    assert len(irrelevant) == 83
    assert any("WARNING" in n for n in rep.notes)


def test_findings_carry_fingerprints(audit):
    doc = json.loads(render(audit, "json"))
    for row in doc["findings"]:
        assert row["corpus_fingerprint"] == doc["corpus_fingerprint"]
        assert row["pipeline_fingerprint"] == doc["pipeline_fingerprint"]


# ---------------------------------------------------------------------------
# command line

def test_cli_audit_json(capsys):
    rc = cli.main(["audit", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["category_counts"]["Redundant"] > 0


def test_cli_fail_on_findings(capsys):
    rc = cli.main(["audit", "--fail-on-findings"])
    capsys.readouterr()
    assert rc == 2


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("onlyonefield\n")
    vec = tmp_path / "v.tsv"
    vec.write_text("")
    rc = cli.main(["audit", "--signatures", str(bad), "--vectors", str(vec)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 1" in err


def test_cli_structure(capsys):
    rc = cli.main(["structure", "S_52"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["subrules"]) == 6
    assert doc["expansion_complete"] is True


def test_cli_mutate(capsys):
    rc = cli.main([
        "mutate", "--payload", "union select", "--schemes",
        "comment_inject", "--budget", "4", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "union%2F%2A%2A%2Fselect" in out.splitlines()  # url-encoded mutants


def test_cli_matrix_and_stats(tmp_path, capsys):
    rc = cli.main(["matrix", "--raw", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(out)
    rc = cli.main(["stats", "--matrix", str(matrix_file)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["profile"]["ranking"][0]["signature"] == "S_7"
    assert doc["overlap"]["neither"] == 0


def test_cli_stats_histogram(capsys):
    rc = cli.main(["stats", "--raw", "--histogram"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "signature,count"
    assert len(out.strip().splitlines()) == 84


def test_cli_classify_only(capsys):
    rc = cli.main(["classify", "--only", "redundant"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    assert rows and all(r["label"] == "Redundant" for r in rows)


def test_cli_classify_only_unknown_label(capsys):
    rc = cli.main(["classify", "--only", "redundnat", "--fail-on-findings"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "'redundnat'" in captured.err
    assert "valid labels: incomplete, irrelevant, semirelevant" in captured.err


def test_cli_classify_rows_are_the_audit_findings(capsys):
    assert cli.main(["classify", "--raw"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert cli.main(["audit", "--raw"]) == 0
    assert rows == json.loads(capsys.readouterr().out)["findings"]


# options no subcommand reads, options stats --matrix does not read, a usage conflict and a typo
_USAGE_ERRORS = [
    ["audit", "--seed", "7"],
    ["audit", "--jobs", "8"],
    ["matrix", "--seed", "7"],
    ["matrix", "--jobs", "8"],
    ["matrix", "--format", "text"],
    ["stats", "--seed", "7"],
    ["stats", "--jobs", "8"],
    ["stats", "--format", "csv"],
    ["stats", "--matrix", "m.json", "--signatures", "s.tsv"],
    ["stats", "--matrix", "m.json", "--vectors", "v.tsv"],
    ["stats", "--matrix", "m.json", "--pipeline", "p.json"],
    ["stats", "--matrix", "m.json", "--raw"],
    ["stats", "--matrix", "m.json", "--case-sensitive"],
    ["structure", "S_1", "--pipeline", "p.json"],
    ["structure", "S_1", "--raw"],
    ["structure", "S_1", "--format", "json"],
    ["structure", "S_1", "--seed", "3"],
    ["structure", "S_1", "--jobs", "8"],
    ["structure", "S_1", "--case-sensitive"],
    ["classify", "--seed", "7"],
    ["classify", "--jobs", "8"],
    ["classify", "--format", "text"],
    ["audit", "--pipeline", "p.json", "--raw"],
    ["stats", "--pipeline", "p.json", "--raw"],
    ["audit", "--bogus"],
    ["audit", "--fail-on-findings", "--bogus"],
    ["audit", "--fail-on-findings", "--seed", "7"],
    ["classify", "--fail-on-findings", "--pipeline", "p.json", "--raw"],
    ["mutate", "--payload", "a", "--budget", "x"],
    [],
]


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no-command")
def test_cli_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("sig-audit: error: ")


@pytest.mark.parametrize("argv", [["--help"], ["audit", "--help"], ["structure", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sig-audit")


def test_cli_option_count():
    """Each subcommand has only the options it reads."""
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    counts = {
        name: sum(bool(a.option_strings) and a.dest != "help" for a in p._actions)
        for name, p in sub.choices.items()
    }
    assert counts == {"audit": 9, "matrix": 6, "stats": 8, "structure": 2, "mutate": 4, "classify": 8}
    assert sum(counts.values()) == 37


def test_cli_json_corpus_matches_tsv_corpus(tmp_path, capsysbinary, corpus):
    sig_json, vec_json = tmp_path / "s.json", tmp_path / "v.json"
    sig_json.write_text(signatures_to_json(corpus.signatures), encoding="utf-8")
    vec_json.write_text(vectors_to_json(corpus.vectors), encoding="utf-8")
    base = data_dir()
    tsv = ["--signatures", str(base / "phpids_sqli_signatures.tsv"),
           "--vectors", str(base / "phpids_sqli_vectors.tsv")]
    as_json = ["--signatures", str(sig_json), "--vectors", str(vec_json)]
    for command in (["audit"], ["classify"]):
        assert cli.main(command + tsv) == 0
        expected = capsysbinary.readouterr().out
        assert cli.main(command + as_json) == 0
        assert capsysbinary.readouterr().out == expected


@pytest.mark.parametrize("command", [["audit"], ["classify"], ["matrix"], ["stats"], ["structure", "S_1"]])
def test_cli_half_given_corpus_exits_1(command, capsys):
    sig = data_dir() / "phpids_sqli_signatures.tsv"
    assert cli.main(command + ["--signatures", str(sig)]) == 1
    assert "must be given together" in capsys.readouterr().err


def test_cli_matrix_parses_each_rule_once(monkeypatch, capsys, corpus):
    calls = {"parse_pattern": []}

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls[fn.__name__].append(args)
            return fn(*args, **kwargs)
        return wrapped

    parse = counting(matcher.parse_pattern)
    monkeypatch.setattr(matcher, "parse_pattern", parse)
    monkeypatch.setattr(structural, "parse_pattern", parse)

    assert cli.main(["matrix"]) == 0
    capsys.readouterr()
    for s in corpus.signatures:
        assert calls["parse_pattern"].count((s.pattern_source, s.id)) == 1, s.id
    # the one other parse is the stock prefilter's dialect check
    assert len(calls["parse_pattern"]) == len(corpus.signatures) + 1


def _vector_json(**fields) -> str:
    row = {"id": "v1", "target": "S_1", "intent": "exec", "dialects": ["generic"], "payload": "a"}
    return json.dumps([row | fields])


def _json_signatures(text):
    return load_signatures(text, format="json")


def _json_vectors(text):
    return load_vectors(text, [Signature("S_1", "a")], format="json")


@pytest.mark.parametrize(
    "command, flag, text, parse",
    [
        (["audit"], "--pipeline", '{"prefilter": 5}', normalize.Pipeline.from_json),
        (["stats"], "--matrix", "{}", matcher.DetectionMatrix.from_json),
        (
            ["stats"], "--matrix",
            '{"signature_ids": ["S_1"], "vector_ids": ["v1"], "rows": {"S_1": [1, 1]}}',
            matcher.DetectionMatrix.from_json,
        ),
        (["classify"], "--families", '[{"nam": "x"}]', classify.load_families),
        (["matrix", "--vectors", "{tmp}/v.json"], "--signatures", "null", _json_signatures),
        (["matrix", "--vectors", "{tmp}/v.json"], "--signatures", '[{"id": "S_1", "pattern": ["a"]}]', _json_signatures),
        (["matrix", "--signatures", "{tmp}/s.json"], "--vectors", _vector_json(intent=None), _json_vectors),
        (["stats"], "--matrix", '{"signature_ids": [1], "vector_ids": [], "rows": "x"}', matcher.DetectionMatrix.from_json),
        (
            ["stats"], "--matrix",
            '{"signature_ids": ["S_1"], "vector_ids": ["v1", "v2"], "rows": {"S_1": "00"}}',
            matcher.DetectionMatrix.from_json,
        ),
        (
            ["stats"], "--matrix",
            '{"signature_ids": ["S_1", "S_1"], "vector_ids": ["v1", "v1"], "rows": {"S_1": [1, 0]}}',
            matcher.DetectionMatrix.from_json,
        ),
        (["matrix", "--signatures", "{tmp}/s.json"], "--vectors", _vector_json(dialects=[]), _json_vectors),
    ],
    ids=[
        "pipeline", "matrix", "matrix_row_length", "families", "signatures_null",
        "signature_pattern_list", "vector_intent_null", "matrix_id_types", "matrix_row_string",
        "matrix_duplicate_ids", "vector_dialects_empty",
    ],
)
def test_cli_malformed_json_exits_1(tmp_path, capsys, command, flag, text, parse):
    with pytest.raises(ParseError):
        parse(text)
    # well-formed companions for the commands that read a corpus
    (tmp_path / "s.json").write_text('[{"id": "S_1", "pattern": "a"}]')
    (tmp_path / "v.json").write_text(_vector_json())
    path = tmp_path / "in.json"
    path.write_text(text)
    command = [arg.format(tmp=tmp_path) for arg in command]
    assert cli.main(command + [flag, str(path)]) == 1
    assert capsys.readouterr().err.startswith("sig-audit: error: ")


def test_cli_nested_set_is_a_dialect_error(tmp_path):
    (tmp_path / "s.tsv").write_text("S_1\t[[a]\n")
    (tmp_path / "v.tsv").write_text("v1\tS_1\texec\tgeneric\ta\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sig_audit.cli", "matrix",
         "--signatures", str(tmp_path / "s.tsv"), "--vectors", str(tmp_path / "v.tsv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()  # the error line and no warning
    assert line.startswith("sig-audit: error: S_1: ") and "nested set" in line


def test_run_audit_takes_str_or_path(tmp_path, corpus):
    signatures = corpus.signatures[:6]
    targets = {s.id for s in signatures}
    vectors = [v for v in corpus.vectors if v.target_signature_id in targets]
    (tmp_path / "s.tsv").write_text(signatures_to_tsv(signatures), encoding="utf-8")
    (tmp_path / "v.tsv").write_text(vectors_to_tsv(vectors), encoding="utf-8")
    (tmp_path / "s.json").write_text(signatures_to_json(signatures), encoding="utf-8")
    (tmp_path / "v.json").write_text(vectors_to_json(vectors), encoding="utf-8")
    for ext in ("tsv", "json"):
        sig_path, vec_path = tmp_path / f"s.{ext}", tmp_path / f"v.{ext}"
        as_path = render(run_audit(sig_path=sig_path, vec_path=vec_path))
        assert render(run_audit(sig_path=str(sig_path), vec_path=str(vec_path))) == as_path


def test_cli_pipeline_file(tmp_path, capsys):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"transforms": ["url_decode"], "prefilter": None}))
    rc = cli.main(["audit", "--pipeline", str(pipe), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    # no prefilter and no quote rewriting: nothing is bypassed
    assert doc["bypass"]["count"] == 0
    assert doc["category_counts"]["Inconsistent"] == 0


def test_cli_families_file(tmp_path, capsys):
    fams = tmp_path / "families.json"
    fams.write_text(json.dumps([{"name": "comment_ops", "members": ["#", "--"]}]))
    rc = cli.main(["classify", "--only", "incomplete", "--families", str(fams), "--raw"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    # the trailing-comment rule names only the double-dash operator
    s79 = [r for r in rows if r["signature"] == "S_79"]
    assert s79 and any(
        v["family"] == "comment_ops" and v["missing"] == ["#"]
        for v in s79[0]["evidence"]["violations"]
    )


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sig_audit.cli", "structure", "S_6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["operators"] == ["or"]


def test_data_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SIG_AUDIT_DATA", str(tmp_path))
    assert data_dir() == tmp_path
