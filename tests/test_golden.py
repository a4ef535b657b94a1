"""Byte-level regression pins for three fixed input sets.

Each full digest covers, for each term in input order, the JSON of its
word combination and the JSONL of its trace from a plain ``reduce_to_mzv``;
each words digest covers the combination JSON alone, so a change of the
trace layout leaves it standing.  corpus200 pins the convergent path; the
divergent small terms pin formal mode, where the boundary guard is waived;
the depth-4 corpus pins deep revisits of the same shapes and parking, a
parked term contributing the JSON of its ParkedTermsError.terms instead.
A change that alters any of them on purpose must say so and update the
digest.
"""

import hashlib
import json

import pytest

from zetalattice.corpus import random_corpus
from zetalattice.engine import reduce_to_mzv
from zetalattice.errors import ParkedTermsError
from zetalattice.terms import combination_to_json

CORPUS200_DIGEST = "40326a40a52e46bf106edf35b7f1b2fd0b4239bb0f3742db3aa7eb0a2404d35e"
DIVERGENT_SMALL_DIGEST = (
    "8ba9a4407c53d81f4a6b147cf7e09bd6438e71dd5abced29a76664087e430b4f"
)
CORPUS200_WORDS_DIGEST = (
    "52c89e0a1c441b1aa7b325805244f3a1da173b7da695eaa3942b094b74571f8e"
)
DIVERGENT_SMALL_WORDS_DIGEST = (
    "7c7c9fb59eab8eecb8ae3ff7284c7dfee968be898cfef2f3e789618fb931abf5"
)
DEEP4_DIGEST = "bcb1a0be9597586b53404da1fa553ef30057e8a7fb414a17b8a907aab6c1bac6"


def corpus_digests(terms) -> tuple[str, str]:
    """(words digest, full digest) of ``terms`` in order."""
    words, full = hashlib.sha256(), hashlib.sha256()
    for t in terms:
        res = reduce_to_mzv(t)
        line = json.dumps(combination_to_json(res.combination), sort_keys=True)
        words.update(line.encode() + b"\n")
        full.update(line.encode() + b"\n")
        full.update(res.trace.to_json_lines().encode())
    return words.hexdigest(), full.hexdigest()


@pytest.fixture(scope="module")
def corpus200_digests(corpus200):
    return corpus_digests(corpus200)


@pytest.fixture(scope="module")
def divergent_small_digests(divergent_small):
    return corpus_digests(divergent_small)


def test_corpus200_combinations_are_pinned(corpus200_digests):
    assert corpus200_digests[0] == CORPUS200_WORDS_DIGEST


def test_corpus200_combinations_and_traces_are_pinned(corpus200_digests):
    assert corpus200_digests[1] == CORPUS200_DIGEST


def test_formal_combinations_of_divergent_small_terms_are_pinned(
    divergent_small_digests,
):
    assert divergent_small_digests[0] == DIVERGENT_SMALL_WORDS_DIGEST


def test_formal_reductions_of_divergent_small_terms_are_pinned(
    divergent_small_digests,
):
    assert divergent_small_digests[1] == DIVERGENT_SMALL_DIGEST


def test_deep4_reductions_and_parked_terms_are_pinned():
    terms = random_corpus(seed=11, count=60, max_depth=4, max_weight=7)
    digest, parked = hashlib.sha256(), 0
    for t in terms:
        try:
            res = reduce_to_mzv(t)
        except ParkedTermsError as e:
            parked += 1
            digest.update(json.dumps(e.terms, sort_keys=True).encode() + b"\n")
            continue
        line = json.dumps(combination_to_json(res.combination), sort_keys=True)
        digest.update(line.encode() + b"\n")
        digest.update(res.trace.to_json_lines().encode())
    assert parked == 6
    assert digest.hexdigest() == DEEP4_DIGEST
