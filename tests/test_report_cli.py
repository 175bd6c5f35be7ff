import json
import random
import re
import subprocess
import sys

import pytest
from oracles import with_unions

from sig_audit import classify, cli, matcher, normalize, report, structural
from sig_audit.classify import Label
from sig_audit.corpus import (
    AttackVector,
    Corpus,
    Dialect,
    Intent,
    Signature,
    bundled_corpus,
    data_dir,
    load_signatures,
    load_vectors,
    open_corpus,
    signatures_to_json,
    vectors_to_json,
)
from sig_audit.errors import DuplicateId, ParseError, UnknownId
from sig_audit.report import AuditReport, render, run_audit
from sig_audit.stats import overlap, partition


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
    rep = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE)
    lines = rep.to_csv().splitlines()
    assert len(lines) == 1 + len(rep.findings)
    row = sid.replace(",", ";").replace("\n", "\\n")
    assert f"{row},Susceptible,x or\\n 1" in lines
    assert all(line.count(",") == 2 for line in lines)


@pytest.mark.parametrize("sid", ["S_1", "S,1\nb"])
def test_render_text_keeps_each_finding_on_one_line(sid):
    c = Corpus(
        (Signature(sid, r"or\s{0,1}1"),),
        tuple(
            AttackVector(f"v{i}", sid, p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(["x or\n1", "x or 1"])
        ),
    )
    rep = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE)
    lines = rep.to_text().splitlines()
    row = sid.replace("\n", "\\n")
    assert f"  {row:<6} x or\\n 1" in lines
    assert lines[-1] == lines[lines.index("Susceptible (1)") + 1]


def _one_rule_corpus(sid, pattern, payload):
    vector = AttackVector("v1", sid, payload, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
    return Corpus((Signature(sid, pattern),), (vector,))


def test_render_irrelevant_finding_as_text_and_csv():
    # the rule detects its one vector, a probe, which is not logical
    vector = AttackVector("v1", "S_1", "zzz9", Intent.PROBE, frozenset({Dialect.GENERIC}))
    rep = run_audit(corpus=Corpus((Signature("S_1", "zzz9"),), (vector,)), pipeline=normalize.RAW_PIPELINE)
    assert [f.label for f in rep.findings] == [Label.IRRELEVANT]
    assert rep.to_csv().splitlines() == ["signature,label,detail", "S_1,Irrelevant,detects 1 vectors; none logical"]
    lines = rep.to_text().splitlines()
    assert lines[lines.index("Irrelevant (1)") + 1] == "  S_1    detects 1 vectors, none logical"


def test_render_rejects_an_unknown_format(audit):
    with pytest.raises(ValueError, match="unknown format: 'xml'"):
        render(audit, "xml")


def test_render_text_keeps_the_top_contributor_on_one_line():
    rep = run_audit(corpus=_one_rule_corpus("S\n1", "zzz9", "zzz9"), pipeline=normalize.RAW_PIPELINE)
    lines = rep.to_text().splitlines()
    assert "top contributor: S\\n1 (1/1, 100.0%)" in lines
    assert json.loads(render(rep, "json"))["profile"]["ranking"][0]["signature"] == "S\n1"


def test_render_text_keeps_each_note_on_one_line():
    # 2**7 sub-rules exceed the expansion cap, which the audit notes
    rep = run_audit(corpus=_one_rule_corpus("S\n2", "(?:a|b)" * 7, "abababa"), pipeline=normalize.RAW_PIPELINE)
    note = "S\n2: sub-rule expansion hit caps, semi-relevance not classified"
    assert rep.notes == (note,)
    lines = rep.to_text().splitlines()
    assert lines[-1] == "  - " + note.replace("\n", "\\n")
    assert lines[-2] == "notes"
    assert json.loads(render(rep, "json"))["notes"] == [note]


@pytest.mark.parametrize("past_cap", [False, True])
def test_audit_does_not_probe_a_bound_past_the_probe_cap(monkeypatch, past_cap):
    from sig_audit import mutate

    cap = mutate.MAX_REPEAT_COUNT
    reached = set()
    real = mutate._bounded_repeat

    def guarded(payload, char, count):
        if count > cap:  # never build the run
            raise AssertionError(f"a probe reached {count} repeats")
        reached.add(count)
        return real(payload, char, count)

    monkeypatch.setattr(mutate, "_bounded_repeat", guarded)
    # a bound of cap - 1 is probed with runs of the cap; S_2 shows the guard is reached
    hi = 30_000_000 if past_cap else cap - 1
    c = Corpus(
        (Signature("S_1", rf"or\s{{0,{hi}}}1"), Signature("S_2", r"or\s{0,1}1")),
        (AttackVector("v1", "S_1", "x or 1", Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC})),),
    )
    rep = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE)
    susceptible = {f.signature_id for f in rep.findings if f.label is Label.SUSCEPTIBLE}
    note = f"S_1: bound \\s at 2 not probed, exceeding it takes more than the probe cap of {cap} repeats"
    if past_cap:
        assert (susceptible, note in rep.notes, reached) == ({"S_2"}, True, {2})
    else:
        assert (susceptible, note in rep.notes, reached) == ({"S_1", "S_2"}, False, {2, cap})


def test_rules_sharing_a_source_compile_once(monkeypatch):
    """Two rules on one pattern, and a third whose sub-rule is that
    pattern: the pattern is compiled once per case mode, each rule
    searches its own row with the shared compile, and each rule's
    findings carry its own id."""
    source = r"or\s{0,1}1"
    c = Corpus(
        (Signature("S_1", source), Signature("S_2", source), Signature("S_3", rf"(?:{source}|zzz)")),
        tuple(
            AttackVector(f"v{i}", "S_1", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(["x or 1", "y OR 1"])
        ),
    )
    compiled, searched, source_of = [], [], {}
    compile_ = structural.compile_signature
    candidates = matcher.TextIndex.candidates

    def counting_compile(sig, *args):
        compiled.append(sig.pattern_source)
        found = compile_(sig, *args)
        source_of[found] = sig.pattern_source
        return found

    def counting_candidates(index, found):
        searched.append(source_of[found])
        return candidates(index, found)

    monkeypatch.setattr(structural, "compile_signature", counting_compile)
    monkeypatch.setattr(matcher.TextIndex, "candidates", counting_candidates)
    for case_sensitive in (False, True):
        compiled.clear()
        searched.clear()
        rep = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE, case_sensitive=case_sensitive)
        assert compiled.count(source) == 1
        assert sorted(searched) == sorted([source, source, c.signatures[2].pattern_source])
        by_label = {}
        for f in rep.findings:
            by_label.setdefault(f.label, []).append((f.signature_id, f.evidence.get("duplicate_of")))
        assert by_label[Label.INCOMPLETE] == [("S_1", None), ("S_2", None), ("S_3", None)]
        assert by_label[Label.SUSCEPTIBLE] == [("S_1", None), ("S_2", None), ("S_3", None)]
        assert by_label[Label.REDUNDANT] == [("S_2", "S_1"), ("S_3", "S_1"), ("S_3", "S_2")]
        assert by_label[Label.SEMI_RELEVANT] == [("S_3", None)]
        witnesses = [f.evidence["witnesses"] for f in rep.findings if f.label is Label.SUSCEPTIBLE]
        assert witnesses[0] == witnesses[1] == witnesses[2]


def test_render_empty_report():
    from sig_audit.corpus import AttackVector, Corpus, Dialect, Intent, Signature

    c = Corpus(
        (Signature("S_1", "zzz9"),),
        (AttackVector("v1", "S_1", "zzz9", Intent.EXEC_UNAUTHORIZED,
                      frozenset({Dialect.GENERIC})),),
    )
    rep = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE)
    doc = json.loads(render(rep, "json"))
    assert doc["findings"] == []


def test_raw_audit_never_inconsistent(corpus):
    rep = run_audit(corpus=corpus, pipeline=normalize.RAW_PIPELINE)
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
    c = open_corpus(sig_path, vec_path)
    rep = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE, case_sensitive=True)
    semi = [f for f in rep.findings if f.label is Label.SEMI_RELEVANT]
    assert [f.signature_id for f in semi] == ["S_1"]
    assert semi[0].evidence["dead_subrules"] == [{"index": 0, "source": "UNION"}]
    folded = run_audit(corpus=c, pipeline=normalize.RAW_PIPELINE)
    assert all(f.label is not Label.SEMI_RELEVANT for f in folded.findings)


def test_family_member_outside_probe_set_reaches_incompleteness(tmp_path):
    sig_path = tmp_path / "s.tsv"
    sig_path.write_text("S_1\t1\\s*¬\\s*1\n", encoding="utf-8")
    vec_path = tmp_path / "v.tsv"
    vec_path.write_text("v1\tS_1\texec\tgeneric\t1 ¬ 1\n", encoding="utf-8")
    families = [classify.RelatedOperatorFamily("negation", frozenset({"¬", "!"}))]
    rep = run_audit(corpus=open_corpus(sig_path, vec_path), pipeline=normalize.RAW_PIPELINE, families=families)
    incomplete = [f for f in rep.findings if f.label is Label.INCOMPLETE]
    assert [f.evidence["violations"] for f in incomplete] == [
        [{"family": "negation", "present": ["¬"], "missing": ["!"]}]
    ]


def test_audit_extracts_exactly_the_family_members(monkeypatch, tmp_path, capsys):
    """The Incomplete check reads family members only, so the audit looks
    for those tokens and no others, custom ``--families`` members included."""
    looked_for = []
    real = structural.extract_operators

    def recording(signature, tokens=structural.DEFAULT_OPERATORS, patterns=None):
        looked_for.append(tokens)
        return real(signature, tokens, patterns)

    monkeypatch.setattr(structural, "extract_operators", recording)
    stock = frozenset({"and", "or", "xor", "||", "&&", "^", "|", "&"})
    run_audit()
    assert looked_for == [stock] * 83
    fams = tmp_path / "families.json"
    fams.write_text(json.dumps([{"name": "negation", "members": ["not", "!"]}]), encoding="utf-8")
    looked_for.clear()
    assert cli.main(["audit", "--families", str(fams)]) == 0
    capsys.readouterr()
    assert looked_for == [stock | {"not", "!"}] * 83


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
    each rule's source once, loading included. Rules and sub-rules
    compile through the pattern table's binding, and no source is
    compiled twice."""
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
    monkeypatch.setattr(structural, "compile_signature", compile_)
    parse = counting(matcher.parse_pattern)
    monkeypatch.setattr(matcher, "parse_pattern", parse)
    monkeypatch.setattr(structural, "parse_pattern", parse)

    run_audit()
    assert len(calls["detection_matrix"]) == 2
    compiled = [args[0].pattern_source for args in calls["compile_signature"]]
    assert len(compiled) == len(set(compiled))
    for s in corpus.signatures:
        assert compiled.count(s.pattern_source) == 1, s.id
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


def test_audit_sorts_its_findings_once_and_replays_no_payload(monkeypatch):
    """The findings are sorted once, one key each; the stage of an
    inconsistent vector comes from the text index, so no payload goes
    through the pipeline or the prefilter outside it."""
    keyed = []
    real_sort_key = classify.AuditFinding.sort_key

    def sort_key(finding):
        keyed.append(finding)
        return real_sort_key(finding)

    def refused(*args):
        raise AssertionError("a payload went through the pipeline again")

    monkeypatch.setattr(classify.AuditFinding, "sort_key", sort_key)
    monkeypatch.setattr(normalize, "apply", refused)
    monkeypatch.setattr(normalize, "prefilter_pass", refused)
    rep = run_audit()
    assert len(keyed) == len(rep.findings)
    assert list(rep.findings) == sorted(rep.findings, key=real_sort_key)
    stages = {v["id"]: v["stage"] for f in rep.findings if f.label is Label.INCONSISTENT for v in f.evidence["vectors"]}
    assert stages == {"v08_1": "transform-mangle", "v09_1": "prefilter-skip", "v75_1": "prefilter-skip"}


def _count_parses_and_compiles(monkeypatch):
    """Record the source of every regex parse and the (source, case
    mode) of every code generation, ``re.compile`` calls included; the
    search form of a parse and its ASCII fold count as that parse, the
    fold in case-insensitive mode. The sources compiled under
    ``re.IGNORECASE`` are recorded apart too. A character atom compiled
    from its one node, not from a parse, is recorded apart as (node,
    case mode)."""
    parsed, compiled, ignorecase, atoms, source_of = [], [], [], [], {}
    real_parse, real_compile = matcher.sre_parse.parse, matcher.sre_compile.compile
    real_search_form, real_ascii_fold = matcher.search_form, matcher.ascii_fold

    def parse(source, *args, **kwargs):
        tree = real_parse(source, *args, **kwargs)
        parsed.append(source)
        source_of[id(tree)] = (source, tree, False)  # the tree is kept, so its id stays its own
        return tree

    def search_form(tree):
        form = real_search_form(tree)
        if id(tree) in source_of:
            source_of.setdefault(id(form), (source_of[id(tree)][0], form, False))
        return form

    def ascii_fold(tree, *args):
        folded = real_ascii_fold(tree, *args)
        if id(tree) in source_of:
            source_of[id(folded)] = (source_of[id(tree)][0], folded, True)
        return folded

    def compile_(p, flags=0):
        if isinstance(p, str) or id(p) in source_of:
            source, folded = (p, False) if isinstance(p, str) else source_of[id(p)][::2]
            compiled.append((source, bool(flags & re.IGNORECASE) or folded))
            if flags & re.IGNORECASE:
                ignorecase.append(source)
        else:
            (node,) = p.data  # an atom: one literal, class or dot
            C = structural.sre_constants
            assert node[0] in (C.LITERAL, C.NOT_LITERAL, C.ANY, C.IN), node
            atoms.append((repr(node), bool(flags & re.IGNORECASE)))
        return real_compile(p, flags)

    re.purge()  # a cached pattern would hide a second parse
    monkeypatch.setattr(matcher.sre_parse, "parse", parse)
    monkeypatch.setattr(matcher.sre_compile, "compile", compile_)
    monkeypatch.setattr(matcher, "search_form", search_form)
    monkeypatch.setattr(matcher, "ascii_fold", ascii_fold)
    return parsed, compiled, ignorecase, atoms


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
@pytest.mark.parametrize("kind", ["bundled", "shared_subrules", "unions"])
def test_audit_parses_each_distinct_source_once(monkeypatch, one_process, corpus, case_sensitive, kind):
    """Rules, sub-rules, quantified atoms and the prefilter: no source is
    parsed or span-scanned twice in one audit, and none is compiled twice
    in one case mode."""
    shared = kind == "shared_subrules"
    parsed, compiled, ignorecase, atoms = _count_parses_and_compiles(monkeypatch)
    if shared:
        corpus = _shared_subrule_corpus()
    elif kind == "unions":  # loaded here, so the rules' parses are counted
        corpus = with_unions(bundled_corpus(), 40, random.Random(18))
    scanned, real_scan = [], structural._scan
    monkeypatch.setattr(structural, "_scan", lambda source: scanned.append(source) or real_scan(source))
    if kind == "bundled":
        run_audit(case_sensitive=case_sensitive)  # the bundled set, loading included
    else:
        run_audit(corpus=corpus, case_sensitive=case_sensitive)
    twice = [source for source in set(parsed) if parsed.count(source) > 1]
    assert twice == []
    # expansion and bound analysis share a source's scan, and so do the
    # rules whose expansion reaches it
    assert len(scanned) == len(set(scanned)) > len(corpus.signatures) // 2
    assert [c for c in set(compiled) if compiled.count(c) > 1] == []
    mode = not case_sensitive
    rules = {s.pattern_source for s in corpus.signatures}
    assert {(r, mode) for r in rules} <= set(compiled)
    assert normalize.DEFAULT_PREFILTER in parsed
    # every payload is ASCII, so no rule or sub-rule is compiled under
    # re.IGNORECASE: a case-insensitive audit searches the ASCII folds
    assert ignorecase == []
    # an atom compiles plain and folded together, once for operator
    # extraction, bound analysis and the rules' ASCII folds
    assert atoms and sorted(a for a, ci in atoms if ci) == sorted(a for a, ci in atoms if not ci)
    assert max(map(atoms.count, atoms)) == 1
    if shared:
        # shared sub-rules and the atom were reached, and each parsed once
        assert {"xby", "a\\s?b1", "z"} <= set(parsed) and "\\s" in parsed
        assert {("xby", mode), ("a\\s?b1", mode), ("z", mode)} <= set(compiled)
    else:
        assert len(set(parsed) - rules) > len(rules)  # sub-rules and atoms


def test_bound_charset_is_an_atom_its_rule_extracts_with(monkeypatch, capsys, corpus):
    """The charset of a bound's atom, in the table the bound was read
    through, is one that ``PatternTable.atom`` returned while its rule's
    operators were extracted, so operator extraction and bound analysis
    share one atom table, in an audit and in ``structure``."""
    extracted, bounds, returned = {}, [], []
    real_bounds, real_extract = structural.bounded_specials, structural.extract_operators
    real_atom = structural.PatternTable.atom

    def atom(self, node):
        cs = real_atom(self, node)
        returned.append(id(cs))
        return cs

    def extracting(signature, tokens=structural.DEFAULT_OPERATORS, patterns=None):
        returned.clear()
        found = real_extract(signature, tokens, patterns)
        extracted[signature.id] = set(returned)
        return found

    def recording(signature, patterns=None):
        found = real_bounds(signature, patterns)
        bounds.append((signature.id, [patterns.charset(b.char_class) for b in found]))
        return found

    monkeypatch.setattr(structural.PatternTable, "atom", atom)
    monkeypatch.setattr(structural, "extract_operators", extracting)
    monkeypatch.setattr(structural, "bounded_specials", recording)
    run_audit()
    bounded = [(sid, found) for sid, found in bounds if found]
    assert [sid for sid, _ in bounded] == ["S_4", "S_6", "S_21", "S_63", "S_68"]
    for sid, found in bounded:
        assert all(id(cs) in extracted[sid] for cs in found), sid
    for sid, _ in bounded:
        extracted.clear()
        bounds.clear()
        assert cli.main(["structure", sid]) == 0
        capsys.readouterr()
        [(_, found)] = bounds
        assert found and all(id(cs) in extracted[sid] for cs in found), sid


_NESTINGS = {
    "group": lambda depth: "x" + "(" * depth + "or" + ")" * depth,
    "branch": lambda depth: "x" + "(?:a|" * depth + "or" + ")" * depth,
    "repeat": lambda depth: "x" + "(?:" * depth + "a" + "){1,2}" * depth,
    "branch_in_repeat": lambda depth: "x" + "(?:o|" * depth + " or " + ")?" * depth,
    "group_branch_repeat": lambda depth: "x" + "(o|" * depth + " or " + ")?" * depth,
}


@pytest.mark.parametrize("kind", list(_NESTINGS))
def test_deepest_nesting_the_cli_loads_exits_cleanly(tmp_path, capsys, kind):
    """At the deepest nesting of each kind that ``structure`` or
    ``audit`` loads, both exit 0, or 1 with an error line, and never
    raise: every pass after the parse takes at most one frame per tree
    level, where the parser takes two per group, and a group that is
    three tree levels deep fails the dialect check at load. The one
    payload holds no ``x``, so the rule's own search stays trivial."""
    nest = _NESTINGS[kind]
    (tmp_path / "v.tsv").write_text("v1\tD_1\tprobe\tgeneric\t1 or 1\n", encoding="utf-8")
    files = ["--signatures", str(tmp_path / "s.tsv"), "--vectors", str(tmp_path / "v.tsv")]

    def run(command, depth):
        (tmp_path / "s.tsv").write_text(f"D_1\t{nest(depth)}\n", encoding="utf-8")
        status = cli.main(command + files)
        return status, capsys.readouterr().err

    def loads(command, depth):
        return "unparsable pattern" not in run(command, depth)[1]

    commands = (["structure", "D_1"], ["audit"])
    for command in commands:
        lo, hi = 1, sys.getrecursionlimit()  # lo loads, hi does not
        assert loads(command, lo) and not loads(command, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if loads(command, mid) else (lo, mid)
        for other in commands:
            status, err = run(other, lo)
            assert status == 0 or (status == 1 and err.startswith("sig-audit: error: ")), (other, lo, err)


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
    rep = run_audit(corpus=open_corpus(sig_path, vec_path))
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


@pytest.mark.parametrize("only,status", [("redundant", 2), ("irrelevant", 0)])
def test_cli_classify_fail_on_findings(capsys, only, status):
    # the bundled set has redundant rules and no irrelevant one
    assert cli.main(["classify", "--only", only, "--fail-on-findings"]) == status
    assert bool(json.loads(capsys.readouterr().out)) == (status == 2)


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


def test_cli_structure_of_an_unknown_signature_exits_1(capsys):
    assert cli.main(["structure", "NOPE"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sig-audit: error: no such signature: NOPE\n"


def test_cli_mutate(capsys):
    rc = cli.main([
        "mutate", "--payload", "union select", "--schemes",
        "comment_inject", "--budget", "4", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "union%2F%2A%2A%2Fselect" in out.splitlines()  # url-encoded mutants


@pytest.mark.parametrize("scheme", ["bounded_repeat=ab:3", "bounded_repeat=x:3", "bounded_repeat= :-3", "bounded_repeat=(:0", ""])
def test_cli_mutate_malformed_scheme_exits_1(scheme, capsys):
    rc = cli.main(["mutate", "--payload", "a (b) c", "--schemes", scheme])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    # an empty list is one empty token, not the default schemes
    error = "bounded_repeat " if scheme else "unknown mutation scheme: ''"
    assert captured.err.startswith("sig-audit: error: " + error)


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


def test_cli_stats_histogram_escapes_ids_like_the_matrix_csv(tmp_path, capsys):
    # a JSON corpus may hold commas and line breaks in ids
    c = Corpus(
        (Signature("S,1", "aa"), Signature("S\n2", "bb")),
        tuple(
            AttackVector(f"v{i}", "S,1", p, Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))
            for i, p in enumerate(["aa", "aa bb"])
        ),
    )
    sig_json, vec_json = tmp_path / "s.json", tmp_path / "v.json"
    sig_json.write_text(signatures_to_json(c.signatures), encoding="utf-8")
    vec_json.write_text(vectors_to_json(c.vectors), encoding="utf-8")
    corpus_args = ["--signatures", str(sig_json), "--vectors", str(vec_json), "--raw"]
    assert cli.main(["stats", "--histogram"] + corpus_args) == 0
    assert capsys.readouterr().out == "signature,count\nS;1,2\nS\\n2,1\n"
    assert cli.main(["matrix", "--format", "csv"] + corpus_args) == 0
    matrix_ids = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert matrix_ids == ["S;1", "S\\n2"]


@pytest.fixture
def set_a_file(tmp_path):
    def write(*ids):
        path = tmp_path / "set_a.txt"
        path.write_text("".join(f"{sid}\n" for sid in ids), encoding="utf-8")
        return str(path)

    return write


@pytest.mark.parametrize("command", [["audit"], ["stats"]])
def test_cli_set_a_with_an_unknown_id_exits_1(set_a_file, capsys, command):
    assert cli.main(command + ["--set-a", set_a_file("S_1", "NOPE")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sig-audit: error: unknown id: NOPE\n"


# the set-A file is read first, so no m.json need exist
@pytest.mark.parametrize("command", [["audit"], ["stats"], ["stats", "--matrix", "m.json"]])
def test_cli_set_a_file_that_repeats_an_id_exits_1(set_a_file, capsys, command):
    assert cli.main(command + ["--set-a", set_a_file("S_7", "S_6", "S_7")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "sig-audit: error: duplicate id: S_7\n")


@pytest.mark.parametrize("command", [["audit"], ["stats"]])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "repeating"])
def test_cli_set_a_file_fails_before_any_rule_compiles(monkeypatch, tmp_path, set_a_file, capsys, command, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was compiled")

    monkeypatch.setattr(matcher, "compile_signature", refuse)
    monkeypatch.setattr(structural, "compile_signature", refuse)
    (tmp_path / "latin1.txt").write_bytes(b"S_\xe9\n")
    path = {
        "missing": tmp_path / "nonexistent",
        "directory": tmp_path,
        "not_utf8": tmp_path / "latin1.txt",
        "repeating": set_a_file("S_7", "S_7"),
    }[kind]
    corpus_args = ["--signatures", str(data_dir() / "phpids_sqli_signatures.tsv"),
                   "--vectors", str(data_dir() / "phpids_sqli_vectors.tsv")]
    assert cli.main(command + corpus_args + ["--set-a", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("sig-audit: error: ")


def test_library_set_a_that_repeats_an_id_fails_before_any_rule_compiles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was compiled")

    monkeypatch.setattr(matcher, "compile_signature", refuse)
    monkeypatch.setattr(structural, "compile_signature", refuse)
    with pytest.raises(DuplicateId) as info:
        run_audit(set_a=["S_7", "S_6", "S_7"])
    assert info.value.duplicate_id == "S_7"


def test_set_a_with_an_unknown_id_fails_before_any_rule_compiles(monkeypatch, set_a_file, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was compiled")

    monkeypatch.setattr(matcher, "compile_signature", refuse)
    monkeypatch.setattr(structural, "compile_signature", refuse)
    with pytest.raises(UnknownId) as info:
        run_audit(set_a=["S_7", "NOPE", "ALSO_NOPE"])
    assert info.value.missing_id == "NOPE"
    with pytest.raises(DuplicateId):  # a repeat is reported first
        run_audit(set_a=["NOPE", "S_7", "S_7"])
    for command in (["audit"], ["stats"], ["stats", "--raw"]):
        assert cli.main(command + ["--set-a", set_a_file("S_7", "NOPE")]) == 1
        assert capsys.readouterr() == ("", "sig-audit: error: unknown id: NOPE\n")


def test_cli_set_a_file_gives_its_overlap(set_a_file, capsys, raw_matrix):
    path = set_a_file("S_7", "S_6")
    expected = overlap(raw_matrix, *partition(raw_matrix, ids=["S_7", "S_6"])).to_dict()
    assert cli.main(["audit", "--set-a", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["set_a"] == ["S_7", "S_6"]
    assert doc["overlap"] == expected
    assert cli.main(["stats", "--raw", "--set-a", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["partition"]["set_a"] == ["S_6", "S_7"]
    assert doc["overlap"] == expected


def test_cli_classify_only(capsys):
    rc = cli.main(["classify", "--only", "redundant"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    assert rows and all(r["label"] == "Redundant" for r in rows)


def test_cli_classify_only_unknown_label(capsys):
    # an empty list is one empty token, not every label
    for only in ("redundnat", ""):
        rc = cli.main(["classify", "--only", only, "--fail-on-findings"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"unknown label {only!r} in --only" in captured.err
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
        (["audit"], "--pipeline", '{"transfroms": ["url_decode", "case_fold"]}', normalize.Pipeline.from_json),
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
        (
            ["stats"], "--matrix",
            '{"signature_ids": ["S_1"], "vector_ids": ["v1"], "rows": {"S_1": [1], "S_9": [7, 7]}}',
            matcher.DetectionMatrix.from_json,
        ),
    ],
    ids=[
        "pipeline", "pipeline_unknown_key", "matrix", "matrix_row_length", "families", "signatures_null",
        "signature_pattern_list", "vector_intent_null", "matrix_id_types", "matrix_row_string",
        "matrix_duplicate_ids", "vector_dialects_empty", "matrix_stray_row",
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
