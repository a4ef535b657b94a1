import itertools

import pytest

from zetalattice.corpus import random_corpus
from zetalattice.errors import ZetaLatticeError
from zetalattice.numeric import eval_mzv
from zetalattice.terms import converges, term

CORPUS_SEED = 20260815


@pytest.fixture(scope="session")
def corpus200():
    return random_corpus(seed=CORPUS_SEED, count=200)


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


@pytest.fixture(scope="session")
def divergent_small():
    """The divergent small terms, in small_terms order: formal mode's inputs."""
    divergent = [t for t in small_terms() if not converges(t)]
    assert len(divergent) == 654
    return divergent


@pytest.fixture(scope="session")
def mzv_value():
    cache = {}

    def value(comb):
        total = 0.0
        for w, c in comb.items():
            if w not in cache:
                cache[w] = eval_mzv(w).value
            total += float(c) * cache[w]
        return total

    return value
