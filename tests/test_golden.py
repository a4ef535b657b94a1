"""Byte-level regression pin for the seeded reference corpus.

The digest covers, for each term of corpus200 in input order, the JSON of its
word combination and the JSONL of its trace from a plain ``reduce_to_mzv``.
A change that alters either on purpose must say so and update the digest.
"""

import hashlib
import json

from zetalattice.engine import reduce_to_mzv
from zetalattice.terms import combination_to_json

CORPUS200_DIGEST = "75340dc71dbb3b96e08d0473cdb33e3e43db923d3c8b774ceb0eda9d0b9ab59a"


def corpus_digest(terms) -> str:
    h = hashlib.sha256()
    for t in terms:
        res = reduce_to_mzv(t)
        h.update(json.dumps(combination_to_json(res.combination), sort_keys=True).encode())
        h.update(b"\n")
        h.update(res.trace.to_json_lines().encode())
    return h.hexdigest()


def test_corpus200_combinations_and_traces_are_pinned(corpus200):
    assert corpus_digest(corpus200) == CORPUS200_DIGEST
