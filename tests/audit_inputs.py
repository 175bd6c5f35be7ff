"""The classifiers' inputs, built from a corpus the way ``run_audit`` builds them.

The classifiers take the matrices, bypass set and payloads they read;
these helpers build them for tests that start from a corpus alone.
"""

from sig_audit import classify, normalize
from sig_audit.corpus import logical_subset
from sig_audit.matcher import detection_matrix, full_pipeline_bypass


def bypass(corpus, pipeline, case_sensitive=False) -> frozenset[str]:
    """The bypass set of ``corpus`` under ``pipeline``, from its deployed matrix."""
    return full_pipeline_bypass(detection_matrix(corpus, pipeline, case_sensitive, apply_prefilter=True))


def inconsistent(corpus, pipeline, case_sensitive=False):
    raw = detection_matrix(corpus, normalize.RAW_PIPELINE, case_sensitive)
    return classify.classify_inconsistent(corpus, pipeline, raw, bypass(corpus, pipeline, case_sensitive))


def logical_payloads(corpus) -> list[str]:
    """Every logical payload of ``corpus``, in corpus order."""
    logical = logical_subset(corpus)
    return [v.payload for v in corpus.vectors if v.id in logical]
