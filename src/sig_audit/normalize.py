"""Payload pre-processing pipelines.

Models the normalization stage an IDS runs before its rules: an ordered
list of transforms plus an optional prefilter regex that decides whether
a payload reaches the rule set at all. Pipelines are immutable and every
transform is a pure function on text, so values can be shared freely.

``apply_all(pipeline, payloads)`` equals ``[apply(pipeline, p) for p in
payloads]`` and runs each transform once per chunk of ``CHUNK`` (512)
payloads joined with NUL, instead of once per payload. That is exact
because no transform reads, makes or removes a NUL: a NUL is not a hex
digit, whitespace, a quote or a digit, so no transform's pattern
matches across one, and ``str.lower`` reads it as the end of a word for
the final sigma, as it does the end of the text. A new transform must
keep that. A payload holding a NUL, or one whose ``%00`` decodes to
one, splits its chunk into too many parts; such a chunk is run again
payload by payload with ``apply``.
"""

from __future__ import annotations

import functools
import json
import re
from collections import namedtuple
from pathlib import Path

from .errors import ParseError, load_json, read_text, sha256_hex

# Payloads travel URL-encoded; each %XX escape decodes to the latin-1
# character of its byte, which keeps every byte value addressable as a
# single character (%A0 -> '\xa0', not U+FFFD), as
# ``urllib.parse.unquote(payload, encoding="latin-1")`` does.
_PERCENT_ESCAPE = re.compile("%[0-9A-Fa-f]{2}")
_HEX = "0123456789ABCDEFabcdef"
_BYTE_OF_ESCAPE = {f"%{hi}{lo}": chr(int(hi + lo, 16)) for hi in _HEX for lo in _HEX}

_WS_RUN = re.compile(r"\s{2,}")
_QUOTED_DIGITS = re.compile(r"([\"'])(\d+)\1")

# Alphanumerics plus punctuation harmless on its own; payloads made of
# nothing else are skipped by the default prefilter.
DEFAULT_PREFILTER = r"[A-Za-z0-9\s@_.,!?]+"


def _url_decode(payload: str) -> str:
    if "%" not in payload:
        return payload
    return _PERCENT_ESCAPE.sub(_decode_escape, payload)


def _decode_escape(escape: re.Match) -> str:
    return _BYTE_OF_ESCAPE[escape[0]]


def _nbsp_to_space(payload: str) -> str:
    return payload.replace("\xa0", " ")


def _case_fold(payload: str) -> str:
    return payload.lower()


def _whitespace_collapse(payload: str) -> str:
    # Keep the first byte of each run so newlines are not rewritten.
    return _WS_RUN.sub(lambda m: m.group()[0], payload)


def _quoted_digit_simplify(payload: str) -> str:
    return _QUOTED_DIGITS.sub(lambda m: m.group(2), payload)


TRANSFORMS = {
    "url_decode": _url_decode,
    "nbsp_to_space": _nbsp_to_space,
    "case_fold": _case_fold,
    "whitespace_collapse": _whitespace_collapse,
    "quoted_digit_simplify": _quoted_digit_simplify,
}

# Order matters: decode first so every later transform sees the decoded
# text, collapse after folding, digit simplification last.
DEFAULT_TRANSFORMS = (
    "url_decode",
    "nbsp_to_space",
    "case_fold",
    "whitespace_collapse",
    "quoted_digit_simplify",
)


class Pipeline(namedtuple("Pipeline", "transforms prefilter")):
    """Ordered transforms (a tuple of ``TRANSFORMS`` names) plus an
    optional prefilter regex.

    A payload that fully matches the prefilter is considered harmless
    and never reaches the rules. ``transforms`` may be empty (raw mode).
    """

    def __new__(cls, transforms=(), prefilter=None):
        for name in transforms:
            if name not in TRANSFORMS:
                raise ParseError(f"unknown transform: {name!r}")
        self = super().__new__(cls, transforms, prefilter)
        self._prefilter_re  # compiles, so a bad prefilter fails here
        return self

    @classmethod
    def _make(cls, fields):
        # so that _replace checks the transforms and prefilter too
        return cls(*fields)

    @functools.cached_property
    def _prefilter_re(self) -> re.Pattern | None:
        if self.prefilter is None:
            return None
        # Compiled under the same dialect rules as signatures.
        from .matcher import compile_pattern

        return compile_pattern(self.prefilter, "<prefilter>")

    @property
    def fingerprint(self) -> str:
        return sha256_hex(self.to_json())

    def to_json(self) -> str:
        return json.dumps(
            {"transforms": list(self.transforms), "prefilter": self.prefilter},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Pipeline":
        doc = load_json(text, "invalid pipeline JSON")
        if not isinstance(doc, dict):
            raise ParseError("pipeline JSON must be an object")
        for key in doc:
            if key not in cls._fields:  # a misspelt key would otherwise mean the empty pipeline
                raise ParseError(f"unknown pipeline key: {key!r}")
        transforms = doc.get("transforms", [])
        if not isinstance(transforms, list) or not all(isinstance(t, str) for t in transforms):
            raise ParseError("'transforms' must be a list of transform names")
        prefilter = doc.get("prefilter")
        if prefilter is not None and not isinstance(prefilter, str):
            raise ParseError("'prefilter' must be a regex string or null")
        return cls(transforms=tuple(transforms), prefilter=prefilter)


RAW_PIPELINE = Pipeline()


def default_pipeline() -> Pipeline:
    """The stock pipeline: decode, map nbsp, fold case, collapse runs,
    simplify quoted digit literals, with the stock prefilter."""
    return Pipeline(transforms=DEFAULT_TRANSFORMS, prefilter=DEFAULT_PREFILTER)


def load_pipeline(path, raw: bool = False) -> Pipeline:
    """The empty pipeline when ``raw``, else the pipeline JSON file at ``path``."""
    if raw:
        return RAW_PIPELINE
    return Pipeline.from_json(read_text(Path(path)))


def apply(pipeline: Pipeline, payload: str) -> str:
    """Run the pipeline's transforms left to right over a payload."""
    out = payload
    for name in pipeline.transforms:
        out = TRANSFORMS[name](out)
    return out


# payloads joined per transform call in ``apply_all``: enough to run each
# transform once over many payloads, few enough that the joined text stays small
CHUNK = 512


def apply_all(pipeline: Pipeline, payloads) -> list[str]:
    """``apply`` over each of ``payloads`` (a sequence), running each
    transform once per chunk of them joined with NUL."""
    transforms = [TRANSFORMS[name] for name in pipeline.transforms]
    if not transforms:
        return list(payloads)
    out = []
    for start in range(0, len(payloads), CHUNK):
        chunk = payloads[start : start + CHUNK]
        text = "\0".join(chunk)
        for transform in transforms:
            text = transform(text)
        parts = text.split("\0")
        # a NUL in a payload, or decoded from one, splits it apart
        out += parts if len(parts) == len(chunk) else [apply(pipeline, payload) for payload in chunk]
    return out


def prefilter_pass(pipeline: Pipeline, payload: str) -> bool:
    """True when the payload must be forwarded to the rules.

    The caller passes the decoded payload; a full match against the
    prefilter means the payload looks harmless and is skipped.
    """
    pat = pipeline._prefilter_re
    if pat is None:
        return True
    return pat.fullmatch(payload) is None
