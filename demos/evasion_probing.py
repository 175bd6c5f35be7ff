#!/usr/bin/env python3
"""Tamper schemes, normalization, and bounded-quantifier probing.

Shows which evasions a pre-processing pipeline can undo, which ones only
a better rule can handle, and how a finite quantifier cap becomes a
bypass.
"""

from sig_audit import bundled_corpus, generate, probe_susceptible
from sig_audit.matcher import compile_signature, detection_matrix, matches
from sig_audit.mutate import MutationConfig
from sig_audit.normalize import RAW_PIPELINE, apply, default_pipeline
from sig_audit.structural import bounded_specials

pipeline = default_pipeline()
rule = compile_signature(
    bundled_corpus().signature("S_19")  # union ... select
)

print("mutants of 'union select' and whether the rule survives them")
for mutant, scheme in generate("union select", MutationConfig(budget=12)):
    normalized = apply(pipeline, mutant)
    verdict = "caught" if matches(rule, normalized) else "ESCAPES"
    fixable = "pipeline-fixable" if scheme.normalizable else "rule-level only"
    print(f"  {mutant!r:34} -> {normalized!r:22} {verdict:8} ({scheme.name}, {fixable})")
print()

# a finite cap on a freely repeatable character is a bypass in waiting
corpus = bundled_corpus()
sig = corpus.signature("S_68")  # waitfor delay rule with \s? caps
print(f"rule {sig.id}: {sig.pattern_source}")
for bound in bounded_specials(sig):
    print(f"  bounded atom {bound.char_class!r} at offset {bound.position}, "
          f"max {bound.max_occurrences}")

matrix = detection_matrix(corpus, RAW_PIPELINE)
detected = [v for v in corpus.vectors if v.id in matrix.detected_ids(sig.id)]
finding = probe_susceptible(compile_signature(sig), detected, bounded_specials(sig))
witness = finding.evidence["witnesses"][0]
print(f"  seed   {witness['seed_payload']!r} is detected")
print(f"  mutant {witness['mutant']!r} escapes ({witness['scheme']})")
