"""Structural audit toolkit for regex-based intrusion detection signatures.

Loads signature sets and attack-vector corpora, models the IDS
pre-processing stage, builds detection matrices, and classifies weak
signatures into six categories: incomplete, irrelevant, semi-relevant,
susceptible, redundant and inconsistent.

The names below load on first use: ``import sig_audit`` imports no
submodule, and ``sig_audit.run_audit`` imports ``report`` (and what it
needs) the first time it is read.
"""

import sys

# The one version string: the report and the package metadata read it.
__version__ = "1.0.0"

_NAMES = {
    "classify": (
        "AuditFinding Label RelatedOperatorFamily classify_incomplete classify_inconsistent "
        "classify_irrelevant classify_redundant classify_semirelevant default_families probe_susceptible"
    ),
    "corpus": (
        "AttackVector Corpus Dialect Intent Signature bundled_corpus bundled_set_a filter_by_dialect "
        "load_corpus load_signatures load_vectors logical_subset"
    ),
    "matcher": "CompiledSignature DetectionMatrix compile_signature detection_matrix full_pipeline_bypass matches",
    "mutate": "MutationConfig MutationScheme generate targeted_repeats",
    "normalize": "Pipeline RAW_PIPELINE apply apply_all default_pipeline prefilter_pass",
    "report": "AuditReport render run_audit",
    "stats": "ContributionProfile OverlapStats contribution overlap partition",
    "structural": (
        "QuantifierBound SubRuleSet TokenizedSignature bounded_specials expand_subrules extract_operators"
    ),
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    value = getattr(sys.modules[qualified], name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
