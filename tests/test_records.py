"""The records are named tuples: what they keep of a frozen record's
contract, and what importing the package loads."""

import hashlib
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import sig_audit
from sig_audit import matcher, normalize
from sig_audit.classify import RelatedOperatorFamily
from sig_audit.corpus import AttackVector, Corpus, Dialect, Intent, Signature, signatures_to_json, vectors_to_json
from sig_audit.errors import AuditError, DuplicateId, ParseError, sha256_hex
from sig_audit.matcher import compile_signature, detection_matrix
from sig_audit.mutate import MutationConfig
from sig_audit.structural import PatternTable, bounded_specials, expand_subrules, extract_operators

SRC = Path(__file__).resolve().parent.parent / "src"
# stdlib modules the records once pulled in, OpenSSL's hashlib (only for the
# fingerprints), and the package modules that no matrix command runs
HEAVY_MODULES = (
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
    "hashlib",
    "sig_audit.classify",
    "sig_audit.structural",
    "sig_audit.mutate",
    "sig_audit.report",
)
PROBES = {
    "cli": "import sig_audit.cli",
    "corpus": "import sig_audit; from sig_audit import corpus",
    "stats-matrix": "from sig_audit.cli import main; assert main(['stats', '--matrix', sys.argv[2]]) == 0",
}


@pytest.mark.parametrize("statement", PROBES.values(), ids=PROBES.keys())
def test_importing_the_cli_loads_no_heavy_stdlib_modules(statement, corpus, default_pipeline, tmp_path):
    exported = tmp_path / "matrix.json"
    exported.write_text(detection_matrix(corpus, default_pipeline).to_json(), encoding="utf-8")
    # -S: no site packages, so only what sig_audit itself imports is loaded
    probe = (
        f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
        f"print('loaded:', *(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC), str(exported)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


def test_fingerprints_are_the_sha256_of_their_json(corpus, default_pipeline):
    blob = signatures_to_json(corpus.signatures) + vectors_to_json(corpus.vectors)
    assert corpus.fingerprint == hashlib.sha256(blob.encode("utf-8")).hexdigest()
    for pipeline in (default_pipeline, normalize.RAW_PIPELINE):
        assert pipeline.fingerprint == hashlib.sha256(pipeline.to_json().encode("utf-8")).hexdigest()


def test_a_build_without_the_builtin_sha256_falls_back_to_hashlib(monkeypatch):
    text = "S_1\t(?:union)\u00e9"
    expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert sha256_hex(text) == expected
    monkeypatch.setitem(sys.modules, "_sha256", None)  # so importing it raises ImportError
    monkeypatch.setitem(sys.modules, "_sha2", None)
    assert sha256_hex(text) == expected


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")),
    reason="this build has no built-in SHA-256, so fingerprints load hashlib",
)
def test_an_audit_loads_no_openssl():
    probe = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); from sig_audit.cli import main; "
        "sys.stdout = open(os.devnull, 'w'); code = main(['audit']); sys.stdout = sys.__stdout__; "
        "print(code, 'loaded:', *(m for m in ('hashlib', '_hashlib') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 loaded:"


def test_importing_mutate_loads_no_other_package_module():
    """The tamper schemes stand alone: a bound is read by its fields."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sig_audit.mutate; "
        "print('loaded:', *sorted(m for m in sys.modules if m.startswith('sig_audit.')))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: sig_audit.mutate"


def test_package_names_are_their_modules_objects():
    for name in sig_audit.__all__:
        value = getattr(sig_audit, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
        assert name in dir(sig_audit)
    assert set(sig_audit.__all__) >= {"run_audit", "detection_matrix", "apply_all", "load_corpus"}
    with pytest.raises(AttributeError, match="no_such_name"):
        sig_audit.no_such_name


def test_bounds_from_two_tables_compare_equal_without_their_charsets(corpus):
    bounded = [s for s in corpus.signatures if bounded_specials(s)]
    assert bounded
    for sig in bounded:
        tables = PatternTable(), PatternTable()
        first, second = (bounded_specials(sig, table) for table in tables)
        assert first == second and list(map(hash, first)) == list(map(hash, second)), sig.id
        assert [a.repeatable for a in first] == [b.repeatable for b in second], sig.id
        assert all(tables[0].charset(a.char_class) is not tables[1].charset(a.char_class) for a in first), sig.id
    bound = bounded_specials(bounded[0])[0]
    assert bound._replace(max_occurrences=9) == (*bound[:3], 9, bound.repeatable)


def test_equal_pipelines_compare_and_hash_equal():
    a, b = normalize.default_pipeline(), normalize.default_pipeline()
    assert a._prefilter_re is not b._prefilter_re
    assert a == b and hash(a) == hash(b)
    assert a != normalize.RAW_PIPELINE
    assert a._replace(prefilter="x+")._prefilter_re.pattern is None  # compiled from its parse


def _vector(vid):
    return AttackVector(vid, "none", "1 or 1", Intent.EXEC_UNAUTHORIZED, frozenset({Dialect.GENERIC}))


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: MutationConfig(budget=0), ValueError),
        (lambda: MutationConfig()._replace(budget=0), ValueError),
        (lambda: RelatedOperatorFamily("f", frozenset({"", "or"})), ValueError),
        (lambda: RelatedOperatorFamily("f", frozenset({"and", "or"}))._replace(members=frozenset({"or"})), ValueError),
        (lambda: Corpus((Signature("S_1", "a"), Signature("S_1", "b")), ()), DuplicateId),
        (lambda: Corpus((), (_vector("v"), _vector("v"))), DuplicateId),
        (lambda: Corpus((Signature("S_1", "a"),), ())._replace(vectors=(_vector("v"), _vector("v"))), DuplicateId),
        (lambda: normalize.Pipeline(("nope",)), ParseError),
        (lambda: normalize.Pipeline(prefilter="[[a]"), AuditError),
        (lambda: normalize.RAW_PIPELINE._replace(transforms=("nope",)), ParseError),
    ],
)
def test_records_check_their_fields(build, error):
    with pytest.raises(error):
        build()


def test_fields_cannot_be_assigned(corpus):
    sig = corpus.signatures[0]
    records = [
        (sig, "pattern_source"),
        (corpus.vectors[0], "payload"),
        (corpus, "vectors"),
        (normalize.default_pipeline(), "prefilter"),
        (detection_matrix(Corpus((sig,), corpus.vectors[:3]), normalize.RAW_PIPELINE), "rows"),
        (bounded_specials(Signature("S_1", r"\s{0,3}x"))[0], "max_occurrences"),
        (MutationConfig(), "budget"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_a_signature_is_parsed_once(monkeypatch):
    calls = []
    parse = matcher.parse_pattern
    monkeypatch.setattr(matcher, "parse_pattern", lambda *args: calls.append(args) or parse(*args))
    sig = Signature("S_1", r"(?:union|select)\s{1,3}(?:and|or)")
    assert sig.tree is sig.tree
    compile_signature(sig)
    compile_signature(sig, case_sensitive=True)
    extract_operators(sig)
    expand_subrules(sig)
    bounded_specials(sig)
    assert [source for source, _ in calls].count(sig.pattern_source) == 1


def test_a_compiled_copy_holds_the_same_parse():
    sig = Signature("S_1", r"union\s+select")
    compiled, plain = compile_signature(sig), compile_signature(sig, case_sensitive=True)
    assert plain.tree is compiled.tree is sig.tree
    assert plain.literals == compiled.literals == {"select"}


def test_records_unpack_and_compare_as_tuples():
    sig_id, source, note = Signature("S_1", "a")
    assert (sig_id, source, note) == ("S_1", "a", None) == Signature("S_1", "a")
    assert Signature("S_1", "a") == Signature(id="S_1", pattern_source="a", note=None)
