"""The six weakness classifiers.

Five are set-theoretic over corpus-relative detection sets (incomplete,
irrelevant, semi-relevant, redundant, inconsistent); susceptibility is
probed by mutation. Coverage sets are corpus-relative by construction:
"what a rule detects" means detected vectors of the supplied corpus,
so findings always travel with the corpus fingerprint.

Capability questions (irrelevant, semi-relevant, redundant, probing)
are answered against raw payloads; only the inconsistency check brings
in the deployed pipeline, since it measures the gap between what rules
could detect and what the deployed stack lets through.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_right
from collections import namedtuple

from . import matcher, mutate
from .corpus import AttackVector
from .errors import IndeterminateExpansion, ParseError, load_json, read_text
# compile_signature stays bound here: perfbench/trace.py checks that its wrapper replaces it
from .matcher import CompiledSignature, DetectionMatrix, compile_signature  # noqa: F401
from .structural import PatternTable, QuantifierBound, SubRuleSet, TokenizedSignature


class Label(str, enum.Enum):
    INCOMPLETE = "Incomplete"
    IRRELEVANT = "Irrelevant"
    SEMI_RELEVANT = "SemiRelevant"
    SUSCEPTIBLE = "Susceptible"
    REDUNDANT = "Redundant"
    INCONSISTENT = "Inconsistent"


class RelatedOperatorFamily(namedtuple("RelatedOperatorFamily", "name members")):
    """Operators (a frozenset) interchangeable in an attack; a rule
    matching some but not all members can be evaded with the missing
    ones."""

    __slots__ = ()

    def __new__(cls, name, members):
        if len(members) < 2 or "" in members:
            raise ValueError("a related-operator family needs at least 2 members, none empty")
        return super().__new__(cls, name, members)

    @classmethod
    def _make(cls, fields):
        # so that _replace checks the members too
        return cls(*fields)


def default_families() -> list[RelatedOperatorFamily]:
    return [
        RelatedOperatorFamily("logical_words", frozenset({"and", "or", "xor"})),
        RelatedOperatorFamily("logical_symbols", frozenset({"||", "&&", "^", "|", "&"})),
    ]


def load_families(source) -> list[RelatedOperatorFamily]:
    """Load extra families from a JSON array of {name, members} objects:
    ``source`` is the document (``str`` or ``bytes``) or a ``Path`` to it."""
    doc = load_json(read_text(source), "invalid families JSON")
    if not isinstance(doc, list):
        raise ParseError("families JSON must be an array of {name, members} objects")
    families = []
    for i, row in enumerate(doc):
        try:
            name, members = row["name"], row["members"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad family object at index {i}: {exc!r}") from exc
        if not (
            isinstance(name, str)
            and isinstance(members, list)
            and all(isinstance(m, str) and m for m in members)
        ):
            raise ParseError(f"family at index {i} needs a name and a list of operator strings")
        if len(set(members)) < 2:
            raise ParseError(f"family at index {i} needs at least 2 distinct members")
        families.append(RelatedOperatorFamily(name, frozenset(members)))
    return families


# ``json.dumps(evidence, sort_keys=True)`` without a new encoder per call
_evidence_key = json.JSONEncoder(sort_keys=True).encode


class AuditFinding(namedtuple("AuditFinding", "signature_id label evidence")):
    """One weakness classification (a ``Label``) with re-checkable
    evidence (a dict)."""

    __slots__ = ()

    def sort_key(self):
        return (self.signature_id, self.label.value, _evidence_key(self.evidence))

    def to_dict(self) -> dict:
        return {
            "signature": self.signature_id,
            "label": self.label.value,
            "evidence": self.evidence,
        }


# ---------------------------------------------------------------------------
# incomplete (related-operator families)

def classify_incomplete(
    tokenized: TokenizedSignature,
    families: list[RelatedOperatorFamily] | None = None,
) -> AuditFinding | None:
    """Flag a rule that names some but not all members of a family."""
    families = families if families is not None else default_families()
    violations = []
    ops = tokenized.operators
    for fam in families:
        if fam.members & ops and not fam.members <= ops:
            violations.append(
                {
                    "family": fam.name,
                    "present": sorted(fam.members & ops),
                    "missing": sorted(fam.members - ops),
                }
            )
    if not violations:
        return None
    return AuditFinding(
        signature_id=tokenized.signature_id,
        label=Label.INCOMPLETE,
        evidence={"violations": violations},
    )


# ---------------------------------------------------------------------------
# irrelevant (no logical vector detected)

def classify_irrelevant(
    signature_id: str,
    detected_ids: frozenset[str],
    logical_ids: frozenset[str],
) -> AuditFinding | None:
    """Flag a rule whose detected set misses the logical class entirely.

    The detected set must come from the raw (empty) pipeline: this is a
    statement about rule capability, not deployment behavior.
    """
    hits = detected_ids & logical_ids
    if hits:
        return None
    return AuditFinding(
        signature_id=signature_id,
        label=Label.IRRELEVANT,
        evidence={"detected_count": len(detected_ids), "logical_hits": []},
    )


# ---------------------------------------------------------------------------
# semi-relevant (dead sub-rules)

def classify_semirelevant(
    subs: SubRuleSet,
    texts: list[str],
    case_sensitive: bool = False,
    patterns: PatternTable | None = None,
) -> AuditFinding | None:
    """Flag a rule where some criteria never fire on logical vectors.

    Needs a complete expansion; a rule whose every sub-rule is dead is
    the irrelevant case and is not reported here. ``texts`` are the
    logical payloads to search: all of them, or only those in the rule's
    raw row, which gives the same answer (a sub-rule puts one branch in
    place of a group, so every text it matches, its rule matches too).
    Each sub-rule is compiled through ``patterns``, once per source.
    """
    if not subs.expansion_complete:
        raise IndeterminateExpansion(subs.signature_id)
    if len(subs.subrules) < 2:
        return None

    patterns = patterns or PatternTable()
    keys = [matcher.match_key(text, case_sensitive) for text in texts]
    plain = case_sensitive or all(map(str.isascii, keys))  # every key searched in ``pattern``
    dead = []
    live = 0
    for idx, source in enumerate(subs.subrules):
        compiled = patterns.compiled(source, subs.signature_id, case_sensitive)
        if any(map(compiled.pattern.search if plain else compiled.search, keys)):
            live += 1
        else:
            dead.append({"index": idx, "source": source})
    if not dead or not live:
        return None
    return AuditFinding(
        signature_id=subs.signature_id,
        label=Label.SEMI_RELEVANT,
        evidence={"dead_subrules": dead, "live_count": live},
    )


# ---------------------------------------------------------------------------
# susceptible (bounded quantifier beaten by repetition)

PROBE_BUDGET = 32  # repetition mutants tried per seed and bound


def probe_susceptible(
    compiled: CompiledSignature,
    detected: list[AttackVector],
    bounds: list[QuantifierBound],
) -> AuditFinding | None:
    """Probe each bound with repetition mutants of detected seeds.

    A rule is susceptible when a semantics-preserving mutant that only
    repeats a freely repeatable character escapes it; mutants are matched
    raw, in the case mode ``compiled`` was compiled in. One witness is
    kept per (bound, first escaping seed). ``bounds`` are the
    ``structural.bounded_specials`` of one rule, whose id the finding
    carries, and ``compiled`` is a compile of its source. A bound past
    ``mutate.MAX_REPEAT_COUNT`` gets no mutant.
    """
    if not detected or not bounds:
        return None
    witnesses = []
    exploited = []
    for bound in bounds:
        found = None
        for seed in detected:
            mutants = mutate.targeted_repeats(seed.payload, bound)[:PROBE_BUDGET]
            for mutant, scheme in mutants:
                if not matcher.matches(compiled, mutant):
                    found = {
                        "seed_vector": seed.id,
                        "seed_payload": seed.payload,
                        "mutant": mutant,
                        "scheme": scheme.name,
                    }
                    break
            if found:
                break
        if found:
            witnesses.append(found)
            exploited.append(
                {
                    "position": bound.position,
                    "char_class": bound.char_class,
                    "max_occurrences": bound.max_occurrences,
                }
            )
    if not witnesses:
        return None
    return AuditFinding(
        signature_id=bounds[0].signature_id,
        label=Label.SUSCEPTIBLE,
        evidence={"bounds": exploited, "witnesses": witnesses},
    )


# ---------------------------------------------------------------------------
# redundant (row strictly inside another row)

def classify_redundant(matrix: DetectionMatrix) -> list[AuditFinding]:
    """Rules whose detected set sits strictly inside another rule's.

    Empty rows are the irrelevant case and are excluded. Equal non-empty
    rows are reported once per pair, on the lexicographically larger id,
    tagged as duplicates. Rules are grouped by row, and each distinct row
    is tested only against the rows with more set bits, since a strict
    superset has more.

    The order is the matrix's: the duplicates first, by row in the order
    rows first occur; then the supersessions, by the set bits of the
    inner row and then of the outer, ties in the order rows first occur;
    ids of one row in matrix order.
    """
    ids_of: dict[int, list[str]] = {}
    for sid, row in zip(matrix.signature_ids, matrix.rows):
        if row:
            ids_of.setdefault(row, []).append(sid)
    findings = [
        AuditFinding(signature_id=a, label=Label.REDUNDANT, evidence={"duplicate_of": b})
        for ids in ids_of.values()
        for a in ids
        for b in ids
        if a > b
    ]
    rows = sorted(ids_of, key=int.bit_count)
    counts = [row.bit_count() for row in rows]
    outside = [~row for row in rows]
    for row, count in zip(rows, counts):
        first = bisect_right(counts, count)
        supersets = [rows[k] for k in range(first, len(rows)) if not row & outside[k]]
        findings += [
            AuditFinding(signature_id=a, label=Label.REDUNDANT, evidence={"superseded_by": b})
            for a in ids_of[row]
            for other in supersets
            for b in ids_of[other]
        ]
    return findings


# ---------------------------------------------------------------------------
# inconsistent (deployed stack passes vectors the rules can detect)

def classify_inconsistent(
    raw: DetectionMatrix,
    bypassed: frozenset[str],
    skipped: frozenset[str],
) -> list[AuditFinding]:
    """Rules that raw-match vectors the deployed pipeline lets through.

    ``raw`` is the corpus matrix under the raw pipeline, ``bypassed`` the
    ``matcher.full_pipeline_bypass`` set of the corpus under the deployed
    pipeline, and ``skipped`` the ids of the vectors its prefilter skips
    (``TextIndex.skipped`` of the deployed view). Evidence names the
    stage responsible per vector: a prefilter skip if the vector is in
    ``skipped``, else a transform that mangles the payload out of the
    rule's reach. One finding per rule, in matrix order.
    """
    if not bypassed:
        return []
    vector_ids = raw.vector_ids
    bypass_mask = matcher._mask([i for i, vid in enumerate(vector_ids) if vid in bypassed], len(vector_ids))
    findings = []
    for sid, row in zip(raw.signature_ids, raw.rows):
        hits = sorted(vector_ids[i] for i in matcher.bit_indices(row & bypass_mask))
        if not hits:
            continue
        detail = [{"id": vid, "stage": "prefilter-skip" if vid in skipped else "transform-mangle"} for vid in hits]
        findings.append(
            AuditFinding(
                signature_id=sid,
                label=Label.INCONSISTENT,
                evidence={"vectors": detail},
            )
        )
    return findings
