"""Every input file may start with a UTF-8 byte order mark, as editors
that save with one write it: the file loads as it does without one."""

import codecs

import pytest

from sig_audit import cli, corpus as corpus_mod, normalize
from sig_audit.corpus import data_dir, signatures_to_json, vectors_to_json
from sig_audit.matcher import detection_matrix

SIGNATURES = data_dir() / "phpids_sqli_signatures.tsv"
VECTORS = data_dir() / "phpids_sqli_vectors.tsv"


def with_bom(path, tmp_path):
    copy = tmp_path / ("bom-" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def stdout_of(argv, capsysbinary) -> bytes:
    assert cli.main([str(arg) for arg in argv]) == 0, capsysbinary.readouterr().err
    return capsysbinary.readouterr().out


def _json_corpus(tmp_path, corpus):
    signatures, vectors = tmp_path / "s.json", tmp_path / "v.json"
    signatures.write_text(signatures_to_json(corpus.signatures), encoding="utf-8")
    vectors.write_text(vectors_to_json(corpus.vectors), encoding="utf-8")
    return signatures, vectors


def _corpus_file(which, fmt):
    """``matrix`` over the bundled corpus written in ``fmt``; the file
    under test is the signature file (``which`` 0) or the vector file."""
    def case(tmp_path, corpus):
        files = (SIGNATURES, VECTORS) if fmt == "tsv" else _json_corpus(tmp_path, corpus)
        return ["matrix", "--signatures", files[0], "--vectors", files[1]], files[which]
    return case


def _set_a(tmp_path, corpus):
    set_a = data_dir() / "set_a.txt"  # its first line is a comment
    return ["stats", "--set-a", set_a], set_a


def _pipeline(tmp_path, corpus):
    pipeline = tmp_path / "pipeline.json"
    pipeline.write_text(normalize.default_pipeline().to_json(), encoding="utf-8")
    return ["matrix", "--pipeline", pipeline], pipeline


def _families(tmp_path, corpus):
    families = tmp_path / "families.json"
    families.write_text('[{"name": "comment_ops", "members": ["#", "--"]}]', encoding="utf-8")
    return ["classify", "--only", "incomplete", "--families", families], families


def _matrix(tmp_path, corpus):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(detection_matrix(corpus, normalize.default_pipeline()).to_json(), encoding="utf-8")
    return ["stats", "--matrix", matrix], matrix


INPUTS = {
    "signatures-tsv": _corpus_file(0, "tsv"),
    "signatures-json": _corpus_file(0, "json"),
    "vectors-tsv": _corpus_file(1, "tsv"),
    "vectors-json": _corpus_file(1, "json"),
    "set-a": _set_a,
    "pipeline": _pipeline,
    "families": _families,
    "stats-matrix": _matrix,
}


@pytest.mark.parametrize("case", INPUTS.values(), ids=INPUTS.keys())
def test_an_input_file_with_a_bom_gives_the_output_of_the_plain_file(case, tmp_path, corpus, capsysbinary):
    argv, path = case(tmp_path, corpus)
    expected = stdout_of(argv, capsysbinary)
    argv = [with_bom(path, tmp_path) if arg == path else arg for arg in argv]
    assert stdout_of(argv, capsysbinary) == expected


def test_bom_bytes_load_as_the_plain_bytes(corpus):
    signatures = SIGNATURES.read_bytes()
    loaded = corpus_mod.load_signatures(signatures)
    assert corpus_mod.load_signatures(codecs.BOM_UTF8 + signatures) == loaded
    vectors = VECTORS.read_bytes()
    assert (
        corpus_mod.load_vectors(codecs.BOM_UTF8 + vectors, loaded)
        == corpus_mod.load_vectors(vectors, loaded)
    )
