"""End-to-end audit runs and report rendering.

``run_audit`` wires corpus loading, the pipeline, the detection matrix,
all six classifiers and the coverage analytics into one deterministic
report. Capability figures (contribution, overlap, the definitional
classifiers) are computed on raw payloads; the deployed pipeline only
drives the bypass set and the inconsistency findings, and both views are
reported side by side rather than folded into one number.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import __version__ as VERSION
from . import classify, corpus as corpus_mod, matcher, mutate, normalize, stats, structural
from .classify import AuditFinding, Label
from .corpus import Corpus
from .errors import IndeterminateExpansion, ParseError


class AuditReport(
    namedtuple(
        "AuditReport",
        "version corpus_fingerprint pipeline_fingerprint capability_fingerprint"
        " findings profile overlap set_a bypass_ids category_counts notes",
    )
):
    """An audit's findings (a tuple of ``AuditFinding``), its
    ``stats.ContributionProfile``, its ``stats.OverlapStats`` or None,
    and what the report is rendered from. ``capability_fingerprint`` is
    the fingerprint of the raw pipeline used for rows."""

    __slots__ = ()

    def to_dict(self) -> dict:
        findings = []
        for f in self.findings:
            row = f.to_dict()
            row["corpus_fingerprint"] = self.corpus_fingerprint
            row["pipeline_fingerprint"] = self.pipeline_fingerprint
            findings.append(row)
        return {
            "version": self.version,
            "corpus_fingerprint": self.corpus_fingerprint,
            "pipeline_fingerprint": self.pipeline_fingerprint,
            "capability_fingerprint": self.capability_fingerprint,
            "findings": findings,
            "profile": self.profile.to_dict(),
            "overlap": self.overlap.to_dict() if self.overlap else None,
            "set_a": list(self.set_a) if self.set_a else None,
            "bypass": {"count": len(self.bypass_ids), "vector_ids": list(self.bypass_ids)},
            "category_counts": self.category_counts,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid report JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("report JSON must be an object")
        try:
            findings = tuple(
                AuditFinding(
                    signature_id=row["signature"],
                    label=Label(row["label"]),
                    evidence=row["evidence"],
                )
                for row in doc["findings"]
            )
            profile = stats.ContributionProfile(
                entries=tuple(
                    stats.ContributionEntry(
                        signature_id=row["signature"],
                        count=row["count"],
                        share_pct=row["share_pct"],
                    )
                    for row in doc["profile"]["ranking"]
                ),
                total_vectors=doc["profile"]["total_vectors"],
            )
            overlap = (
                stats.OverlapStats(**doc["overlap"]) if doc.get("overlap") else None
            )
            return cls(
                version=doc["version"],
                corpus_fingerprint=doc["corpus_fingerprint"],
                pipeline_fingerprint=doc["pipeline_fingerprint"],
                capability_fingerprint=doc["capability_fingerprint"],
                findings=findings,
                profile=profile,
                overlap=overlap,
                set_a=tuple(doc["set_a"]) if doc.get("set_a") else None,
                bypass_ids=tuple(doc["bypass"]["vector_ids"]),
                category_counts=doc["category_counts"],
                notes=tuple(doc["notes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: unknown label
            raise ParseError(f"bad report JSON: {exc!r}") from exc

    # rendering ------------------------------------------------------------

    def _finding_detail(self, f: AuditFinding) -> str:
        ev = f.evidence
        if f.label is Label.REDUNDANT:
            return ev.get("superseded_by") or ev.get("duplicate_of", "")
        if f.label is Label.INCOMPLETE:
            missing = sorted({m for v in ev["violations"] for m in v["missing"]})
            return "missing " + " ".join(missing)
        if f.label is Label.SEMI_RELEVANT:
            return "dead subrules " + " ".join(str(d["index"]) for d in ev["dead_subrules"])
        if f.label is Label.SUSCEPTIBLE:
            return ev["witnesses"][0]["mutant"] if ev["witnesses"] else ""
        if f.label is Label.INCONSISTENT:
            return " ".join(v["id"] for v in ev["vectors"])
        if f.label is Label.IRRELEVANT:
            return f"detects {ev['detected_count']} vectors, none logical"
        return ""

    def to_csv(self) -> str:
        lines = ["signature,label,detail"]
        for f in self.findings:
            sid, detail = matcher.csv_field(f.signature_id), matcher.csv_field(self._finding_detail(f))
            lines.append(f"{sid},{f.label.value},{detail}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        out = []
        out.append(f"signature audit report (tool {self.version})")
        out.append(f"corpus   {self.corpus_fingerprint[:16]}")
        out.append(f"pipeline {self.pipeline_fingerprint[:16]}")
        out.append("")
        out.append("category counts")
        for label in Label:
            out.append(f"  {label.value:<13} {self.category_counts.get(label.value, 0)}")
        out.append("")
        top = self.profile.top() if self.profile.entries else None
        if top:
            out.append(
                f"top contributor: {matcher.one_line(top.signature_id)} "
                f"({top.count}/{self.profile.total_vectors}, {top.share_pct}%)"
            )
        if self.overlap:
            o = self.overlap
            out.append(
                f"overlap A/B: both={o.both} only_a={o.only_a} "
                f"only_b={o.only_b} neither={o.neither}"
            )
        out.append(f"bypassed vectors: {len(self.bypass_ids)}")
        for label in Label:
            group = [f for f in self.findings if f.label is label]
            if not group:
                continue
            out.append("")
            out.append(f"{label.value} ({len(group)})")
            for f in group:
                out.append(f"  {matcher.one_line(f.signature_id):<6} {matcher.one_line(self._finding_detail(f))}")
        if self.notes:
            out.append("")
            out.append("notes")
            for note in self.notes:
                out.append(f"  - {matcher.one_line(note)}")
        return "\n".join(out) + "\n"


def render(report: AuditReport, format: str = "json") -> bytes:
    """Serialize a report; json output is canonical (sorted keys)."""
    if format == "json":
        return report.to_json().encode("utf-8")
    if format == "text":
        return report.to_text().encode("utf-8")
    if format == "csv":
        return report.to_csv().encode("utf-8")
    raise ValueError(f"unknown format: {format!r}")


def run_audit(
    sig_path=None,
    vec_path=None,
    pipeline_path=None,
    raw: bool = False,
    set_a_path=None,
    families=None,
    case_sensitive: bool = False,
    corpus: Corpus | None = None,
) -> AuditReport:
    """Run the full audit and return a deterministic report.

    ``corpus`` defaults to ``corpus.open_corpus(sig_path, vec_path)``,
    the bundled set when no paths are given. A set-A file naming an id
    the corpus lacks raises ``UnknownId``.

    Each rule is analysed once: its pattern is parsed once
    (``Signature.tree``) and compiled from that parse, and the parse tree
    feeds every structural pass. One pattern table holds the audit's
    rules, sub-rules and atoms, and rules and sub-rules alike compile
    through it, so each distinct source is parsed once and compiled at
    most once, however many rules share it, and each distinct atom has
    one charset, which operator extraction, bound analysis and the ASCII
    folds of case-insensitive rules share. A compile belongs to its
    source, and a rule's Susceptible finding carries the id of the rule
    its bounds were read from. A bound whose probe would repeat a
    character more than ``mutate.MAX_REPEAT_COUNT`` times gets no mutant
    from ``mutate.targeted_repeats``; a note names it. Two
    matrices are built, raw and deployed, over one text index, so a rule
    searches each distinct text once for both. The deployed matrix gives
    one bypass set, which the report lists and the inconsistency
    findings read.

    An audit is per-rule facts, then one cross-rule pass. Once the index
    is dropped, ``rule_facts(n)`` gives rule n's operators and Incomplete
    finding, its Irrelevant finding or its sub-rules, Semi-relevant
    finding, bounds and Susceptible finding, with its notes; the facts
    are merged in rule order, then Redundant, the bypass set,
    Inconsistent and the statistics read across rules. The index's
    searches and the facts run through ``matcher.fan_out``, so they are
    shared among forked workers when rules x index keys reaches twice
    ``matcher.FAN_OUT_CELLS``; the report is the same byte for byte.
    """
    if corpus is None:
        corpus = corpus_mod.open_corpus(sig_path, vec_path)
    pipeline = normalize.load_pipeline(pipeline_path, raw)
    notes = []
    if not raw and pipeline_path is None:
        notes.append(
            "default pipeline and prefilter approximate the IDS pre-processing; "
            "they are reverse engineered from observed bypasses, not vendor source"
        )
    families = families if families is not None else classify.default_families()
    # the Incomplete check reads family members only, so only they are looked for
    tokens = frozenset().union(*(fam.members for fam in families))

    # the rules, sub-rules and atoms of this audit, each parsed once; one
    # compile per source: rules sharing a source share it and its searches
    patterns = structural.PatternTable(corpus.signatures)
    compiled = [patterns.compiled(sig.pattern_source, sig.id, case_sensitive) for sig in corpus.signatures]
    # one index for both matrices, so each rule searches each key once;
    # the per-rule passes do not read it, so it is dropped before them
    # and stays out of the audit's peak memory
    index = matcher.TextIndex(corpus, [(normalize.RAW_PIPELINE, False), (pipeline, True)], case_sensitive)
    raw_matrix = matcher.detection_matrix(
        corpus, normalize.RAW_PIPELINE, case_sensitive=case_sensitive, compiled=compiled, index=index
    )
    deployed = matcher.detection_matrix(
        corpus, pipeline, case_sensitive=case_sensitive, apply_prefilter=True, compiled=compiled, index=index
    )
    cells = len(compiled) * len(index.keys)
    del index
    logical = corpus_mod.logical_subset(corpus)
    logical_mask = matcher._mask(
        [i for i, v in enumerate(corpus.vectors) if v.id in logical], len(corpus.vectors)
    )
    if not corpus.vectors:
        notes.append("WARNING: empty vector corpus, every signature is vacuously irrelevant")

    def rule_facts(n: int) -> tuple[list[AuditFinding], list[str]]:
        """The findings of rule n that no other rule bears on, and its notes."""
        sig = corpus.signatures[n]
        findings, notes = [], []
        finding = classify.classify_incomplete(structural.extract_operators(sig, tokens, patterns), families)
        if finding:
            findings.append(finding)

        row = raw_matrix.row_bits(sig.id)
        logical_row = row & logical_mask
        if not logical_row:  # dead rules are not probed or expanded further
            detected_ids = frozenset(corpus.vectors[i].id for i in matcher.bit_indices(row))
            findings.append(classify.classify_irrelevant(sig.id, detected_ids, logical))
            return findings, notes

        try:
            subs = structural.expand_subrules(sig, patterns)
            # the raw row, in this case mode, already holds every logical
            # payload a sub-rule can match
            logical_hits = [corpus.vectors[i].payload for i in matcher.bit_indices(logical_row)]
            finding = classify.classify_semirelevant(
                subs, logical_hits, case_sensitive=case_sensitive, patterns=patterns
            )
            if finding:
                findings.append(finding)
        except IndeterminateExpansion:
            notes.append(f"{sig.id}: sub-rule expansion hit caps, semi-relevance not classified")

        bounds = structural.bounded_specials(sig, patterns)
        for bound in filter(mutate._past_cap, bounds):
            notes.append(
                f"{sig.id}: bound {bound.char_class} at {bound.position} not probed, "
                f"exceeding it takes more than the probe cap of {mutate.MAX_REPEAT_COUNT} repeats"
            )
        if bounds:
            seeds = [corpus.vectors[i] for i in matcher.bit_indices(row)]
            finding = classify.probe_susceptible(compiled[n], seeds, bounds)
            if finding:
                findings.append(finding)
        return findings, notes

    findings: list[AuditFinding] = []
    for rule_findings, rule_notes in matcher.fan_out(rule_facts, len(corpus.signatures), cells):
        findings += rule_findings
        notes += rule_notes
    irrelevant_ids = {f.signature_id for f in findings if f.label is Label.IRRELEVANT}

    for finding in classify.classify_redundant(raw_matrix):
        if finding.signature_id not in irrelevant_ids:
            findings.append(finding)

    bypassed = matcher.full_pipeline_bypass(deployed)
    findings.extend(classify.classify_inconsistent(corpus, pipeline, raw_matrix, bypassed))
    findings.sort(key=AuditFinding.sort_key)

    profile = stats.contribution(raw_matrix)

    set_a = corpus_mod.set_a_ids(set_a_path, raw_matrix.signature_ids)
    overlap = None
    if set_a:
        a, b = stats.partition(raw_matrix, ids=list(set_a))
        overlap = stats.overlap(raw_matrix, a, b)

    bypass_ids = tuple(sorted(bypassed))

    category_counts = {label.value: 0 for label in Label}
    for f in findings:
        category_counts[f.label.value] += 1

    return AuditReport(
        version=VERSION,
        corpus_fingerprint=corpus.fingerprint,
        pipeline_fingerprint=pipeline.fingerprint,
        capability_fingerprint=normalize.RAW_PIPELINE.fingerprint,
        findings=tuple(findings),
        profile=profile,
        overlap=overlap,
        set_a=set_a,
        bypass_ids=bypass_ids,
        category_counts=category_counts,
        notes=tuple(notes),
    )
