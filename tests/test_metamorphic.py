"""Metamorphic relations of the whole audit: two audits of related
corpora, compared as parsed JSON, where only the named parts may differ.
No oracle is needed, so a relation can run on a corpus of any size.

- Permuting the rules changes only the corpus fingerprint.
- Permuting the vectors changes only the corpus fingerprint and the
  Susceptible witnesses: probe seeds are taken in corpus order."""

import json
import random

import pytest
from oracles import random_corpus, with_unions

from sig_audit import normalize
from sig_audit.corpus import Corpus, bundled_corpus
from sig_audit.report import render, run_audit

SEEDS = (1, 2, 3)


def report(corpus, pipeline=None) -> dict:
    """The audit's JSON document without its corpus fingerprint, which
    hashes the files in order."""
    doc = json.loads(render(run_audit(corpus, pipeline)))
    del doc["corpus_fingerprint"]
    for finding in doc["findings"]:
        del finding["corpus_fingerprint"]
    return doc


def shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return tuple(items)


def without_witnesses(doc) -> tuple[dict, dict]:
    """``doc`` with each Susceptible finding's witnesses taken out, and
    those witnesses by signature id."""
    doc = json.loads(json.dumps(doc))
    witnesses = {}
    for finding in doc["findings"]:
        if finding["label"] == "Susceptible":
            witnesses[finding["signature"]] = finding["evidence"].pop("witnesses")
    return doc, witnesses


def rules_permuted(corpus, seed):
    return Corpus(shuffled(corpus.signatures, seed), corpus.vectors)


def vectors_permuted(corpus, seed):
    return Corpus(corpus.signatures, shuffled(corpus.vectors, seed))


def changed_witnesses(base, permuted) -> set[str]:
    """The Susceptible findings whose witnesses differ, once everything
    else is checked to be equal."""
    base, base_witnesses = without_witnesses(base)
    permuted, permuted_witnesses = without_witnesses(permuted)
    assert permuted == base
    return {sid for sid, found in base_witnesses.items() if permuted_witnesses[sid] != found}


@pytest.fixture(scope="module")
def bundled():
    corpus = bundled_corpus()
    return corpus, report(corpus)


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_bundled_rules_changes_only_the_fingerprint(bundled, seed):
    corpus, base = bundled
    assert report(rules_permuted(corpus, seed)) == base


# measured: which bundled Susceptible findings take other witnesses
BUNDLED_WITNESS_CHANGES = {
    1: {"S_21", "S_68"},
    2: {"S_21", "S_63", "S_68"},
    3: {"S_21", "S_63", "S_68"},
}


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_bundled_vectors_changes_only_susceptible_witnesses(bundled, seed):
    corpus, base = bundled
    assert changed_witnesses(base, report(vectors_permuted(corpus, seed))) == BUNDLED_WITNESS_CHANGES[seed]


def _random_corpora():
    """Eight random corpora, four of three rules or more with three
    pairwise unions of their rules."""
    rng = random.Random(15)
    plain, unions = 0, 0
    while plain + unions < 8:
        corpus = random_corpus(rng)
        if plain < 4:
            plain += 1
            yield corpus
        elif len(corpus.signatures) >= 3:
            unions += 1
            yield with_unions(corpus, 3, rng)


RANDOM = list(_random_corpora())
RANDOM_IDS = [f"{len(c.signatures)}x{len(c.vectors)}" for c in RANDOM]


@pytest.mark.parametrize("corpus", RANDOM, ids=RANDOM_IDS)
def test_permuting_random_rules_changes_only_the_fingerprint(corpus):
    pipeline = normalize.default_pipeline()
    base = report(corpus, pipeline)
    for seed in SEEDS:
        assert report(rules_permuted(corpus, seed), pipeline) == base


@pytest.mark.parametrize("corpus", RANDOM, ids=RANDOM_IDS)
def test_permuting_random_vectors_changes_only_susceptible_witnesses(corpus):
    pipeline = normalize.default_pipeline()
    base = report(corpus, pipeline)
    for seed in SEEDS:
        changed_witnesses(base, report(vectors_permuted(corpus, seed), pipeline))
