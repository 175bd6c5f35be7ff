"""Signature sets and attack-vector corpora.

Loads, validates and queries the rule/vector data an audit runs over,
including the bundled PHPIDS SQL-injection set (83 signatures, 5 crafted
vectors each). Payloads are stored exactly as submitted, still
URL-encoded; decoding is the pipeline's job, never the loader's.

File formats:
  signature TSV: id<TAB>pattern[<TAB>note]   '#' comment lines ignored
  vector TSV:    id<TAB>target<TAB>intent<TAB>dialects<TAB>payload
  JSON mirrors:  arrays of objects with the same field names
"""

from __future__ import annotations

import enum
import functools
import json
import os
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import matcher
from .errors import (
    AuditError, DuplicateId, ParseError, UnknownId, UnknownIntent, UnknownSignatureRef, load_json, read_text,
    sha256_hex,
)

FREE_FLOATING = "none"  # sentinel target for probes not tied to a rule


class Intent(enum.Enum):
    """What a vector is built to achieve on the target database."""

    EXEC_UNAUTHORIZED = "exec"
    LOGIC_ERROR = "error"
    PROBE = "probe"

    @property
    def is_logical(self) -> bool:
        # Executing a forged query and raising a semantic error are the
        # "logical" outcomes; syntax-error probes are not.
        return self is not Intent.PROBE

    @classmethod
    def from_token(cls, token: str) -> "Intent":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise UnknownIntent(token) from None


class Dialect(enum.Enum):
    """Database system a payload is valid under."""

    MYSQL = "mysql"
    MSSQL = "mssql"
    GENERIC = "generic"  # valid under both systems

    @classmethod
    def from_token(cls, token: str) -> "Dialect":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ParseError(f"unknown dialect token: {token!r}") from None


class Signature(namedtuple("Signature", "id pattern_source note", defaults=(None,))):
    """One detection rule: an id plus its regex source, and an optional
    note."""

    @property
    def reconstructed(self) -> bool:
        """True for rules repaired from a damaged printed listing rather
        than transcribed verbatim."""
        return bool(self.note) and "reconstructed" in self.note

    @functools.cached_property
    def tree(self):
        """The pattern's ``matcher.parse_pattern`` result.

        Parsing also checks the dialect, so touching this validates the
        rule. It is parsed on first use and kept with the signature:
        loading, compiling and every structural pass share one parse.
        """
        return matcher.parse_pattern(self.pattern_source, self.id)


class AttackVector(namedtuple("AttackVector", "id target_signature_id payload intent dialects")):
    """A payload with its ``Intent``, ``Dialect`` tags (a frozenset) and
    designed target."""

    __slots__ = ()


class Corpus(namedtuple("Corpus", "signatures vectors")):
    """Tuples of signatures and of vectors, with ids checked."""

    def __new__(cls, signatures, vectors):
        _check_ids(signatures, vectors)
        return super().__new__(cls, signatures, vectors)

    @classmethod
    def _make(cls, fields):
        # so that _replace checks the ids too
        return cls(*fields)

    @functools.cached_property
    def _sig_index(self) -> dict[str, Signature]:
        return {s.id: s for s in self.signatures}

    def signature(self, signature_id: str) -> Signature:
        return self._sig_index[signature_id]

    @property
    def fingerprint(self) -> str:
        return sha256_hex(signatures_to_json(self.signatures) + vectors_to_json(self.vectors))


def _unique(ids) -> set[str]:
    """The set of ``ids``; an id met twice raises ``DuplicateId``."""
    seen = set()
    for i in ids:
        if i in seen:
            raise DuplicateId(i)
        seen.add(i)
    return seen


def _check_ids(signatures, vectors=()) -> None:
    """Ids are unique within each kind, and every vector targets one of
    ``signatures`` or is free-floating."""
    sig_ids = _unique(sig.id for sig in signatures)
    vec_ids = set()
    for vec in vectors:
        if vec.id in vec_ids:
            raise DuplicateId(vec.id)
        vec_ids.add(vec.id)
        if vec.target_signature_id != FREE_FLOATING and vec.target_signature_id not in sig_ids:
            raise UnknownSignatureRef(vec.target_signature_id)


# ---------------------------------------------------------------------------
# loading

def load_signatures(source, format: str = "tsv") -> list[Signature]:
    """Load signatures from a TSV or JSON document (see ``errors.read_text``).

    Every pattern is parsed (``Signature.tree``) as a validity check, so
    a bad rule fails at load time, not in the middle of an audit.
    """
    text = read_text(source)
    if format == "tsv":
        sigs = _signatures_from_tsv(text)
    elif format == "json":
        sigs = _signatures_from_json(text)
    else:
        raise ParseError(f"unknown format: {format!r}")

    _check_ids(sigs)
    for sig in sigs:
        if not sig.pattern_source:
            raise ParseError(f"empty pattern for {sig.id}")
        sig.tree  # parses and checks the dialect
    return sigs


def _signatures_from_tsv(text: str) -> list[Signature]:
    sigs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ParseError("expected id<TAB>pattern[<TAB>note]", lineno)
        note = parts[2] if len(parts) == 3 and parts[2] else None
        sigs.append(Signature(id=parts[0], pattern_source=parts[1], note=note))
    return sigs


def _json_objects(text: str, kind: str) -> list[dict]:
    """The objects of a JSON array document of ``kind`` rows."""
    doc = load_json(text, "invalid JSON")
    if not isinstance(doc, list):
        raise ParseError(f"{kind} JSON must be an array of objects")
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            raise ParseError(f"bad {kind} object at index {i}: not an object")
    return doc


def _strings(row: dict, names, kind: str, i: int) -> list[str]:
    """The values of ``names`` in ``row``, each required to be a string."""
    values = [row.get(name) for name in names]
    for name, value in zip(names, values):
        if not isinstance(value, str):
            raise ParseError(f"bad {kind} object at index {i}: {name!r} must be a string")
    return values


def _signatures_from_json(text: str) -> list[Signature]:
    sigs = []
    for i, row in enumerate(_json_objects(text, "signature")):
        sid, pattern = _strings(row, ("id", "pattern"), "signature", i)
        note = row.get("note")
        if note is not None and not isinstance(note, str):
            raise ParseError(f"bad signature object at index {i}: 'note' must be a string")
        sigs.append(Signature(id=sid, pattern_source=pattern, note=note))
    return sigs


def load_vectors(source, signatures, format: str = "tsv") -> list[AttackVector]:
    """Load vectors, validating signature references against ``signatures``.

    Payloads are kept byte for byte as read (still URL-encoded).
    """
    text = read_text(source)
    if format == "tsv":
        vecs = _vectors_from_tsv(text)
    elif format == "json":
        vecs = _vectors_from_json(text)
    else:
        raise ParseError(f"unknown format: {format!r}")

    _check_ids(signatures, vecs)
    for vec in vecs:
        if not vec.payload:
            raise ParseError(f"empty payload for {vec.id}")
    return vecs


def _dialects(tokens, vid: str, line: int | None = None) -> frozenset[Dialect]:
    """The dialect tags of vector ``vid``: blank tokens are skipped and
    at least one tag must be left."""
    dialects = frozenset(Dialect.from_token(tok) for tok in tokens if tok.strip())
    if not dialects:
        raise ParseError(f"vector {vid} has no dialect tags", line)
    return dialects


def _vectors_from_tsv(text: str) -> list[AttackVector]:
    vecs = []
    # each distinct field is parsed once per load; a failure is not kept
    intents: dict[str, Intent] = {}
    dialect_sets: dict[str, frozenset[Dialect]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(
                "expected id<TAB>target<TAB>intent<TAB>dialects<TAB>payload", lineno
            )
        vid, target, intent_tok, dialect_field, payload = parts
        intent = intents.get(intent_tok) or intents.setdefault(intent_tok, Intent.from_token(intent_tok))
        dialects = dialect_sets.get(dialect_field) or dialect_sets.setdefault(
            dialect_field, _dialects(dialect_field.split(","), vid, lineno)
        )
        vecs.append(AttackVector(vid, target, payload, intent, dialects))
    return vecs


def _vectors_from_json(text: str) -> list[AttackVector]:
    vecs = []
    # each distinct field is parsed once per load; a failure is not kept
    intents: dict[str, Intent] = {}
    dialect_sets: dict[tuple[str, ...], frozenset[Dialect]] = {}
    for i, row in enumerate(_json_objects(text, "vector")):
        vid, target, payload, intent_tok = _strings(row, ("id", "target", "payload", "intent"), "vector", i)
        tokens = row.get("dialects")
        if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
            raise ParseError(f"bad vector object at index {i}: 'dialects' must be a list of strings")
        key = tuple(tokens)
        intent = intents.get(intent_tok) or intents.setdefault(intent_tok, Intent.from_token(intent_tok))
        dialects = dialect_sets.get(key) or dialect_sets.setdefault(key, _dialects(key, vid))
        vecs.append(AttackVector(vid, target, payload, intent, dialects))
    return vecs


def load_corpus(signature_source, vector_source, format: str = "tsv") -> Corpus:
    """Load signatures and vectors, both in ``format``."""
    sigs = load_signatures(signature_source, format=format)
    vecs = load_vectors(vector_source, sigs, format=format)
    # both loaders checked the ids: build the corpus without a third pass
    return tuple.__new__(Corpus, (tuple(sigs), tuple(vecs)))


def open_corpus(signature_path=None, vector_path=None) -> Corpus:
    """The corpus an audit runs over: the bundled set when neither path
    is given, else both files, read as JSON when the signature file
    name ends in ``.json`` and as TSV otherwise."""
    if signature_path is None and vector_path is None:
        return bundled_corpus()
    if signature_path is None or vector_path is None:
        raise AuditError("--signatures and --vectors must be given together")
    fmt = "json" if str(signature_path).endswith(".json") else "tsv"
    return load_corpus(Path(signature_path), Path(vector_path), format=fmt)


# ---------------------------------------------------------------------------
# serialization

# The JSON writers give the bytes of ``json.dumps(rows, sort_keys=True)``
# for the rows as objects, written field by field in sorted key order
# without building an object per row.

def signatures_to_json(signatures) -> str:
    rows = (
        f'{{"id": {_json_str(sig.id)}, '
        + (f'"note": {_json_str(sig.note)}, ' if sig.note else "")
        + f'"pattern": {_json_str(sig.pattern_source)}}}'
        for sig in signatures
    )
    return "[" + ", ".join(rows) + "]"


def vectors_to_json(vectors) -> str:
    dialects: dict[frozenset[Dialect], str] = {}  # one fragment per distinct tag set
    rows = []
    for vec in vectors:
        tags = dialects.get(vec.dialects)
        if tags is None:
            tags = dialects[vec.dialects] = json.dumps(sorted(d.value for d in vec.dialects))
        rows.append(
            f'{{"dialects": {tags}, "id": {_json_str(vec.id)}, "intent": {_json_str(vec.intent.value)}, '
            f'"payload": {_json_str(vec.payload)}, "target": {_json_str(vec.target_signature_id)}}}'
        )
    return "[" + ", ".join(rows) + "]"


# ---------------------------------------------------------------------------
# queries

def logical_subset(corpus: Corpus) -> frozenset[str]:
    """Ids of the logical vectors: the ones that execute a forged query
    or raise a semantic error, as opposed to syntax-error probes."""
    return frozenset(v.id for v in corpus.vectors if v.intent.is_logical)


def filter_by_dialect(corpus: Corpus, dialect: Dialect) -> Corpus:
    """Keep vectors valid under ``dialect``; generic vectors always stay.
    The signature list is unchanged."""
    kept = tuple(
        v
        for v in corpus.vectors
        if dialect in v.dialects or Dialect.GENERIC in v.dialects
    )
    return Corpus(signatures=corpus.signatures, vectors=kept)


# ---------------------------------------------------------------------------
# bundled data

def data_dir() -> Path:
    """Directory holding the bundled data files. SIG_AUDIT_DATA overrides."""
    override = os.environ.get("SIG_AUDIT_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def bundled_corpus() -> Corpus:
    """The bundled PHPIDS SQL-injection set: 83 signatures, 415 vectors."""
    base = data_dir()
    return load_corpus(base / "phpids_sqli_signatures.tsv", base / "phpids_sqli_vectors.tsv")


def load_id_list(path) -> list[str]:
    """Ids listed one per line; blank lines and '#' comments are skipped.
    An id listed twice raises ``DuplicateId``."""
    ids = [
        line.strip()
        for line in read_text(Path(path)).splitlines()
        if line.strip() and not line.startswith("#")
    ]
    _unique(ids)
    return ids


def bundled_set_a() -> list[str]:
    """Ids of the ten high-contribution signatures (the generic set)."""
    return load_id_list(data_dir() / "set_a.txt")


def set_a_ids(ids, signature_ids) -> tuple[str, ...] | None:
    """The generic set A: ``ids`` as given, where an id listed twice
    raises ``DuplicateId`` and then the first id not among
    ``signature_ids`` raises ``UnknownId``; with None, the bundled list
    when all of it is among ``signature_ids``."""
    known = set(signature_ids)
    if ids is not None:
        ids = tuple(ids)
        _unique(ids)
        for sid in ids:
            if sid not in known:
                raise UnknownId(sid)
        return ids
    bundled = tuple(bundled_set_a())
    return bundled if set(bundled) <= known else None
