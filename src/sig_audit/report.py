"""End-to-end audit runs and report rendering.

``run_audit`` wires a corpus, a pipeline, the detection matrix,
all six classifiers and the coverage analytics into one deterministic
report. Capability figures (contribution, overlap, the definitional
classifiers) are computed on raw payloads; the deployed pipeline only
drives the bypass set and the inconsistency findings, and both views are
reported side by side rather than folded into one number.
"""

from __future__ import annotations

from collections import namedtuple

from . import __version__ as VERSION
from . import classify, corpus as corpus_mod, matcher, mutate, normalize, stats, structural
from .classify import AuditFinding, Label
from .corpus import Corpus
from .errors import AuditError, IndeterminateExpansion, ParseError, dump_json, load_json


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
        return dump_json(self.to_dict()) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        doc = load_json(text, "invalid report JSON")
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
        return f"detects {ev['detected_count']} vectors, none logical"  # Label.IRRELEVANT

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


# A rule's facts (operators, sub-rules, semi-relevance, bounds, probing)
# in ``matcher.fan_out`` cells: 0.48-0.69 ms a rule in one process on
# bundled, wide_rules-0 and wide_vectors-0, at 1.3 us a cell.
FACTS_CELLS = 450
# What a worker forked for the rules repeats of the caller's cached work
# (the sub-rules and atoms that rules of another share compiled, and the
# pages its first writes copy), in cells. Measured on a 2-CPU Linux VM as
# the time two processes take over half the time one takes, less the
# fork's own cost: 18-53 ms on wide_vectors-0 and wide_rules-0, so about
# 31 ms, 24,000 cells. A worker thus takes at least 29,200 cells of rules.
# Those figures predate the pinning of each child to its own CPU; pinned,
# the same VM measured 35-42 ms. The value is kept: a new one changes W,
# which is a change of its own to measure.
FACTS_SETUP_CELLS = 24_000


def run_audit(
    corpus: Corpus | None = None,
    pipeline: normalize.Pipeline | None = None,
    set_a=None,
    families=None,
    case_sensitive: bool = False,
) -> AuditReport:
    """Run the full audit and return a deterministic report.

    ``corpus`` defaults to the bundled set. ``pipeline`` defaults to the
    stock pipeline, and only then does the report note that it is
    reverse engineered. ``set_a`` is the generic set's ids; by default
    the bundled list, when the corpus holds all of it. An id listed
    twice raises ``DuplicateId``, and an id the corpus lacks
    ``UnknownId``, both before any rule compiles. ``families`` defaults
    to ``classify.default_families()``; a family name listed twice raises
    ``AuditError``, also before any rule compiles. The audit reads no
    file but the bundled data: the command line turns its flags into
    these inputs.

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
    matrices are built, raw and deployed, from rows searched in one text
    index, so a rule searches each distinct text once for both. The
    deployed matrix gives one bypass set, which the report lists and the
    inconsistency findings read, with the ids the index's deployed view
    skipped at its prefilter, so no payload is transformed twice.

    An audit is per-rule items, then one cross-rule pass. Once the rules
    compile and the caller has built the masks of their literals (in
    ``TextIndex.costs``), item n searches rule n's candidate keys, packs
    its raw and deployed rows, and reads off the raw row
    ``rule_facts(n, row)``: its operators and Incomplete finding, its
    Irrelevant finding or its sub-rules, Semi-relevant finding, bounds
    and Susceptible finding, with its notes. The items run through one
    ``matcher.fan_out``, each costing its candidate keys plus
    ``FACTS_CELLS``, so they are shared among forked workers when that
    reaches twice ``matcher.FAN_OUT_CELLS`` plus ``FACTS_SETUP_CELLS``
    for each worker. The caller drops the index,
    wraps the rows the items return as the raw and the deployed matrix
    (``matcher.detection_matrix`` with ``rows``, which searches
    nothing), and merges the facts in rule order; then Redundant, the
    bypass set, Inconsistent and the statistics read across rules. The
    findings are sorted once, by ``AuditFinding.sort_key``. The report is
    the same byte for byte however the items are shared.
    """
    if corpus is None:
        corpus = corpus_mod.bundled_corpus()
    set_a = corpus_mod.set_a_ids(set_a, [sig.id for sig in corpus.signatures])
    notes = []
    if pipeline is None:
        pipeline = normalize.default_pipeline()
        notes.append(
            "default pipeline and prefilter approximate the IDS pre-processing; "
            "they are reverse engineered from observed bypasses, not vendor source"
        )
    families = families if families is not None else classify.default_families()
    names = [fam.name for fam in families]
    for name in names:  # a name listed twice would make Incomplete evidence ambiguous
        if names.count(name) > 1:
            raise AuditError(f"family {name!r} is listed twice")
    # the Incomplete check reads family members only, so only they are looked for
    tokens = frozenset().union(*(fam.members for fam in families))

    # the rules, sub-rules and atoms of this audit, each parsed once; one
    # compile per source, which rules sharing a source share
    patterns = structural.PatternTable(corpus.signatures)
    compiled = [patterns.compiled(sig.pattern_source, sig.id, case_sensitive) for sig in corpus.signatures]
    # one index for both matrices, so each rule searches each key once
    index = matcher.TextIndex(corpus, [(normalize.RAW_PIPELINE, False), (pipeline, True)], case_sensitive)
    logical = corpus_mod.logical_subset(corpus)
    logical_mask = matcher._mask(
        [i for i, v in enumerate(corpus.vectors) if v.id in logical], len(corpus.vectors)
    )
    if not corpus.vectors:
        notes.append("WARNING: empty vector corpus, every signature is vacuously irrelevant")

    def rule_facts(n: int, row: int) -> tuple[list[AuditFinding], list[str]]:
        """The findings of rule n, whose raw row is ``row``, that no other
        rule bears on, and its notes."""
        sig = corpus.signatures[n]
        findings, notes = [], []
        finding = classify.classify_incomplete(structural.extract_operators(sig, tokens, patterns), families)
        if finding:
            findings.append(finding)

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

    def rule_item(n: int):
        """Rule n's rows in both views and the facts read off its raw row."""
        rows = index.rule_rows(compiled[n])
        return rows, rule_facts(n, rows[0])

    # one item per rule, weighted by its candidate keys plus its facts
    costs = [cost + FACTS_CELLS for cost in index.costs(compiled)]
    items = matcher.fan_out(rule_item, costs, FACTS_SETUP_CELLS)
    skipped = index.skipped[1]
    del index
    raw_matrix = matcher.detection_matrix(corpus, normalize.RAW_PIPELINE, rows=[rows[0] for rows, _ in items])
    deployed = matcher.detection_matrix(corpus, pipeline, rows=[rows[1] for rows, _ in items])
    findings: list[AuditFinding] = []
    for _, (rule_findings, rule_notes) in items:
        findings += rule_findings
        notes += rule_notes
    irrelevant_ids = {f.signature_id for f in findings if f.label is Label.IRRELEVANT}

    for finding in classify.classify_redundant(raw_matrix):
        if finding.signature_id not in irrelevant_ids:
            findings.append(finding)

    bypassed = matcher.full_pipeline_bypass(deployed)
    findings.extend(classify.classify_inconsistent(raw_matrix, bypassed, skipped))
    findings.sort(key=AuditFinding.sort_key)

    profile = stats.contribution(raw_matrix)

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
