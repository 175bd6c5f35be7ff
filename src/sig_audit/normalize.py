"""Payload pre-processing pipelines.

Models the normalization stage an IDS runs before its rules: an ordered
list of transforms plus an optional prefilter regex that decides whether
a payload reaches the rule set at all. Pipelines are immutable and every
transform is a pure function on text, so values can be shared freely.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote

from .errors import ParseError

# Payloads travel URL-encoded; decoding with latin-1 keeps every byte
# value addressable as a single character (%A0 -> '\xa0', not U+FFFD).
_DECODE_ENCODING = "latin-1"

_WS_RUN = re.compile(r"\s{2,}")
_QUOTED_DIGITS = re.compile(r"([\"'])(\d+)\1")

# Alphanumerics plus punctuation harmless on its own; payloads made of
# nothing else are skipped by the default prefilter.
DEFAULT_PREFILTER = r"[A-Za-z0-9\s@_.,!?]+"


def _url_decode(payload: str) -> str:
    return unquote(payload, encoding=_DECODE_ENCODING)


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


@dataclass(frozen=True)
class Pipeline:
    """Ordered transforms plus an optional prefilter regex.

    A payload that fully matches the prefilter is considered harmless
    and never reaches the rules. ``transforms`` may be empty (raw mode).
    """

    transforms: tuple[str, ...] = ()
    prefilter: str | None = None
    _prefilter_re: re.Pattern | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for name in self.transforms:
            if name not in TRANSFORMS:
                raise ParseError(f"unknown transform: {name!r}")
        if self.prefilter is not None:
            # Compiled under the same dialect rules as signatures.
            from .matcher import compile_pattern

            object.__setattr__(self, "_prefilter_re", compile_pattern(self.prefilter, "<prefilter>"))

    @property
    def fingerprint(self) -> str:
        blob = json.dumps(
            {"transforms": list(self.transforms), "prefilter": self.prefilter},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {"transforms": list(self.transforms), "prefilter": self.prefilter},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Pipeline":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid pipeline JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("pipeline JSON must be an object")
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


def load_pipeline(path=None, raw: bool = False) -> Pipeline:
    """The empty pipeline when ``raw``, else the pipeline JSON file at
    ``path``, else the stock pipeline."""
    if raw:
        return RAW_PIPELINE
    if path is not None:
        return Pipeline.from_json(Path(path).read_text(encoding="utf-8"))
    return default_pipeline()


def apply(pipeline: Pipeline, payload: str) -> str:
    """Run the pipeline's transforms left to right over a payload."""
    out = payload
    for name in pipeline.transforms:
        out = TRANSFORMS[name](out)
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
