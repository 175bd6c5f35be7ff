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
from dataclasses import dataclass

from . import matcher, mutate, normalize
from .corpus import AttackVector, Corpus
from .errors import IndeterminateExpansion, ParseError
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


@dataclass(frozen=True)
class RelatedOperatorFamily:
    """Operators interchangeable in an attack; a rule matching some but
    not all members can be evaded with the missing ones."""

    name: str
    members: frozenset[str]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a related-operator family needs at least 2 members")


def default_families() -> list[RelatedOperatorFamily]:
    return [
        RelatedOperatorFamily("logical_words", frozenset({"and", "or", "xor"})),
        RelatedOperatorFamily("logical_symbols", frozenset({"||", "&&", "^", "|", "&"})),
    ]


def load_families(source) -> list[RelatedOperatorFamily]:
    """Load extra families from a JSON array of {name, members} objects."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source.read_text(encoding="utf-8") if hasattr(source, "read_text") else str(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid families JSON: {exc}") from exc
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


@dataclass(frozen=True)
class AuditFinding:
    """One weakness classification with re-checkable evidence."""

    signature_id: str
    label: Label
    evidence: dict

    def sort_key(self):
        return (self.signature_id, self.label.value, json.dumps(self.evidence, sort_keys=True))

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
    dead = []
    live = 0
    for idx, source in enumerate(subs.subrules):
        search = patterns.compiled(source, subs.signature_id, case_sensitive).pattern.search
        if any(search(text) for text in texts):
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
    kept per (bound, first escaping seed).
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
        signature_id=compiled.signature_id,
        label=Label.SUSCEPTIBLE,
        evidence={"bounds": exploited, "witnesses": witnesses},
    )


# ---------------------------------------------------------------------------
# redundant (row strictly inside another row)

def classify_redundant(matrix: DetectionMatrix) -> list[AuditFinding]:
    """Rules whose detected set sits strictly inside another rule's.

    Empty rows are the irrelevant case and are excluded. Equal non-empty
    rows are reported once, on the lexicographically larger id, tagged
    as duplicates.
    """
    findings = []
    ids = matrix.signature_ids
    rows = matrix.rows
    n = len(ids)
    for i in range(n):
        if rows[i] == 0:
            continue
        for j in range(n):
            if i == j or rows[j] == 0:
                continue
            if rows[i] == rows[j]:
                if ids[i] > ids[j]:
                    findings.append(
                        AuditFinding(
                            signature_id=ids[i],
                            label=Label.REDUNDANT,
                            evidence={"duplicate_of": ids[j]},
                        )
                    )
            elif rows[i] & ~rows[j] == 0:
                findings.append(
                    AuditFinding(
                        signature_id=ids[i],
                        label=Label.REDUNDANT,
                        evidence={"superseded_by": ids[j]},
                    )
                )
    findings.sort(key=AuditFinding.sort_key)
    return findings


# ---------------------------------------------------------------------------
# inconsistent (deployed stack passes vectors the rules can detect)

def classify_inconsistent(
    corpus: Corpus,
    pipeline: normalize.Pipeline,
    raw: DetectionMatrix,
    bypassed: frozenset[str],
) -> list[AuditFinding]:
    """Rules that raw-match vectors the deployed pipeline lets through.

    ``raw`` is the corpus matrix under the raw pipeline and ``bypassed``
    the ``matcher.full_pipeline_bypass`` set of the corpus under
    ``pipeline``. Evidence names the stage responsible per vector, found
    by replaying the stages: a prefilter skip or a transform that
    mangles the payload out of the rule's reach.
    """
    if not bypassed:
        return []
    stages = {}
    for v in corpus.vectors:
        if v.id in bypassed:
            transformed = normalize.apply(pipeline, v.payload)
            if not normalize.prefilter_pass(pipeline, transformed):
                stages[v.id] = "prefilter-skip"
            else:
                stages[v.id] = "transform-mangle"
    findings = []
    for sid in raw.signature_ids:
        hits = sorted(raw.detected_ids(sid) & bypassed)
        if not hits:
            continue
        detail = [{"id": vid, "stage": stages[vid]} for vid in hits]
        findings.append(
            AuditFinding(
                signature_id=sid,
                label=Label.INCONSISTENT,
                evidence={"vectors": detail},
            )
        )
    findings.sort(key=AuditFinding.sort_key)
    return findings
