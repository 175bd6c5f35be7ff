import os

import pytest

from sig_audit import mutate, normalize
from sig_audit.corpus import bundled_corpus, bundled_set_a
from sig_audit.matcher import detection_matrix


@pytest.fixture(scope="session")
def corpus():
    return bundled_corpus()


@pytest.fixture(scope="session")
def set_a_ids():
    return bundled_set_a()


@pytest.fixture(scope="session")
def raw_matrix(corpus):
    return detection_matrix(corpus, normalize.RAW_PIPELINE)


@pytest.fixture(scope="session")
def default_pipeline():
    return normalize.default_pipeline()


@pytest.fixture
def probe_cap_guard(monkeypatch):
    """``mutate._bounded_repeat`` raising before it builds a run past
    ``mutate.MAX_REPEAT_COUNT``."""
    real = mutate._bounded_repeat

    def guarded(payload, char, count):
        if count > mutate.MAX_REPEAT_COUNT:  # never build the run
            raise AssertionError(f"a mutant of {count} repeats was asked for")
        return real(payload, char, count)

    monkeypatch.setattr(mutate, "_bounded_repeat", guarded)


@pytest.fixture
def one_process(monkeypatch):
    """``matcher.fan_out`` sees one CPU, so a test counting an audit's
    calls counts them all in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
