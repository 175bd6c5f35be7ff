"""Exception types raised by the audit library, the text and JSON
readers every document loader shares, the pretty JSON writer every
indented document goes through, and the SHA-256 digest every
fingerprint takes."""

import json
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

_INF = float("inf")


class AuditError(Exception):
    """Base class for all library errors."""


class ParseError(AuditError):
    """Malformed row or document in a signature/vector/pipeline file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_text(source) -> str:
    """The text of a document given as ``str``, UTF-8 ``bytes`` or a
    ``Path``. Bytes and files may start with a byte order mark, which is
    dropped (``utf-8-sig``); a file's line ends are read as text mode
    reads them, and a ``str`` is returned as it is. Bytes or a file that
    is not UTF-8 raises ``ParseError``, naming the file ("document" for
    bytes) and the offset of the first bad byte."""
    if not isinstance(source, (bytes, Path)):
        return source
    data = source if isinstance(source, bytes) else source.read_bytes()
    try:  # decoded whole, so the offset counts from the first byte, mark included
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        where = "document" if isinstance(source, bytes) else source
        raise ParseError(f"{where}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    if isinstance(source, Path) and "\r" in text:  # as text mode reads a file: universal newlines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_json(text: str, invalid: str):
    """``json.loads(text)``. A malformed document, or one nested too deep
    to read, raises ``ParseError`` whose message is ``invalid``, a colon
    and the reason."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{invalid}: {exc}") from exc


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def dump_json(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)``, written
    in one recursive pass (on Python 3.12 and earlier ``json`` indents
    only through its pure-Python generators, at about twice the cost).
    ``doc`` holds dicts with string keys, lists, tuples, strings, ints,
    floats, bools and None; anything else, or a key that is not a
    string, raises ``TypeError``."""
    out = []
    _encode(doc, "\n", out.append)
    return "".join(out)


def _encode(value, newline: str, write) -> None:
    """Write ``value`` for ``dump_json`` through ``write``, its nested
    lines indented from ``newline``. A module-level function, not a
    closure, so that a document leaves no reference cycle."""
    if isinstance(value, str):
        write(_json_string(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        write(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            write(separator)
            _encode(item, inner, write)
            separator = "," + inner
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):  # _json_string raises TypeError on a key that is not a str
            write(separator)
            write(_json_string(key))
            write(": ")
            _encode(value[key], inner, write)
            separator = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def sha256_hex(text: str) -> str:
    """The hex SHA-256 digest of ``text`` in UTF-8, from the interpreter's
    built-in module (``_sha256`` up to 3.11, ``_sha2`` from 3.12), so
    that a fingerprint does not load OpenSSL as ``hashlib`` does; a build
    without the built-in module falls back to ``hashlib``."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


class DuplicateId(AuditError):
    """Two rows in the same file share an id."""

    def __init__(self, duplicate_id: str):
        self.duplicate_id = duplicate_id
        super().__init__(f"duplicate id: {duplicate_id}")


class RegexDialectError(AuditError):
    """A pattern uses a construct outside the supported regex dialect."""

    def __init__(self, signature_id: str | None, detail: str):
        self.signature_id = signature_id
        self.detail = detail
        prefix = f"{signature_id}: " if signature_id else ""
        super().__init__(f"{prefix}{detail}")


class UnknownSignatureRef(AuditError):
    """A vector references a signature id that does not exist."""

    def __init__(self, signature_id: str):
        self.signature_id = signature_id
        super().__init__(f"unknown signature reference: {signature_id}")


class UnknownIntent(AuditError):
    """Unrecognized intent token in a vector row."""

    def __init__(self, token: str):
        self.token = token
        super().__init__(f"unknown intent token: {token!r}")


class IndeterminateExpansion(AuditError):
    """Sub-rule expansion hit its caps, so sub-rule analysis is unreliable."""

    def __init__(self, signature_id: str):
        self.signature_id = signature_id
        super().__init__(
            f"{signature_id}: sub-rule expansion incomplete, raise the caps to classify"
        )


class UnknownId(AuditError):
    """An explicit id list names an id missing from the matrix or corpus."""

    def __init__(self, missing_id: str):
        self.missing_id = missing_id
        super().__init__(f"unknown id: {missing_id}")
