"""Structural audit toolkit for regex-based intrusion detection signatures.

Loads signature sets and attack-vector corpora, models the IDS
pre-processing stage, builds detection matrices, and classifies weak
signatures into six categories: incomplete, irrelevant, semi-relevant,
susceptible, redundant and inconsistent.
"""

# The one version string: the report and the package metadata read it.
__version__ = "1.0.0"

from .classify import (
    AuditFinding,
    Label,
    RelatedOperatorFamily,
    classify_incomplete,
    classify_inconsistent,
    classify_irrelevant,
    classify_redundant,
    classify_semirelevant,
    default_families,
    probe_susceptible,
)
from .corpus import (
    AttackVector,
    Corpus,
    Dialect,
    Intent,
    Signature,
    bundled_corpus,
    bundled_set_a,
    filter_by_dialect,
    load_corpus,
    load_signatures,
    load_vectors,
    logical_subset,
)
from .matcher import (
    CompiledSignature,
    DetectionMatrix,
    compile_signature,
    detection_matrix,
    full_pipeline_bypass,
    matches,
)
from .mutate import MutationConfig, MutationScheme, generate, targeted_repeats
from .normalize import Pipeline, RAW_PIPELINE, apply, default_pipeline, prefilter_pass
from .report import AuditReport, render, run_audit
from .stats import ContributionProfile, OverlapStats, contribution, overlap, partition
from .structural import (
    QuantifierBound,
    SubRuleSet,
    TokenizedSignature,
    bounded_specials,
    expand_subrules,
    extract_operators,
)

