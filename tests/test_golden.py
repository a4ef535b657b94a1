"""Byte-level regression pins for two fixed input sets.

Each digest covers, for each term in input order, the JSON of its word
combination and the JSONL of its trace from a plain ``reduce_to_mzv``.
corpus200 pins the convergent path; the divergent small terms pin formal
mode, where the boundary guard is waived.  A change that alters either on
purpose must say so and update the digest.
"""

import hashlib
import itertools
import json

from zetalattice.engine import reduce_to_mzv
from zetalattice.errors import ZetaLatticeError
from zetalattice.terms import combination_to_json, converges, term

CORPUS200_DIGEST = "75340dc71dbb3b96e08d0473cdb33e3e43db923d3c8b774ceb0eda9d0b9ab59a"
DIVERGENT_SMALL_DIGEST = (
    "d8d3e21076ce77c8ad7c04e74c91f39aa82c562983e8c00a540c49a34c4b7ad5"
)


def corpus_digest(terms) -> str:
    h = hashlib.sha256()
    for t in terms:
        res = reduce_to_mzv(t)
        h.update(json.dumps(combination_to_json(res.combination), sort_keys=True).encode())
        h.update(b"\n")
        h.update(res.trace.to_json_lines().encode())
    return h.hexdigest()


def small_terms():
    """Every valid term of width <= 4 and depth <= 3 with distinct rows and
    exponents in {1, 2}, by width, then depth, then rows, then exponents."""
    for width in range(1, 5):
        intervals = [(a, b) for a in range(1, width + 1) for b in range(a, width + 1)]
        for depth in range(1, 4):
            for rows in itertools.combinations(intervals, depth):
                for exps in itertools.product((1, 2), repeat=width):
                    try:
                        yield term(rows, exps)
                    except ZetaLatticeError:
                        pass


def test_corpus200_combinations_and_traces_are_pinned(corpus200):
    assert corpus_digest(corpus200) == CORPUS200_DIGEST


def test_formal_reductions_of_divergent_small_terms_are_pinned():
    divergent = [t for t in small_terms() if not converges(t)]
    assert len(divergent) == 654
    assert corpus_digest(divergent) == DIVERGENT_SMALL_DIGEST
