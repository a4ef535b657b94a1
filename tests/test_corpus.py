import itertools

import pytest

from zetalattice.corpus import random_corpus
from zetalattice.terms import converges, term_key


def test_corpus_is_deterministic():
    a = random_corpus(seed=7, count=40)
    b = random_corpus(seed=7, count=40)
    assert a == b
    c = random_corpus(seed=8, count=40)
    assert a != c


def test_corpus_terms_are_convergent_distinct_and_bounded(corpus200):
    keys = {term_key(t) for t in corpus200}
    assert len(keys) == len(corpus200) == 200
    for t in corpus200:
        assert converges(t)
        assert t.depth <= 3
        assert 2 <= t.weight <= 6
        assert t.coefficient == 1


def relabelling_class(t):
    """The kernel of ``t`` up to a relabelling of its rows: the least, over
    every row order, of its sorted (column vector, exponent) pairs."""
    columns = list(zip(t.pattern.cover, t.exponents))
    return min(
        tuple(sorted((tuple(m >> r & 1 for r in order), k) for m, k in columns))
        for order in itertools.permutations(range(t.depth))
    )


def test_corpus_repeats_kernels_up_to_row_relabelling(corpus200):
    # the dedup's term_key depends on row order (see corpus's docstring)
    classes = {relabelling_class(t) for t in corpus200}
    assert len(classes) == 129
    assert relabelling_class(corpus200[1]) == relabelling_class(corpus200[83])
    assert corpus200[1].pattern != corpus200[83].pattern


def test_corpus_stalls_when_the_universe_is_exhausted():
    # weight cap 3 admits only a handful of distinct convergent shapes
    with pytest.raises(RuntimeError, match="stalled"):
        random_corpus(seed=1, count=50, max_weight=3)
