"""Deterministic pseudo-random corpora of convergent terms.

Sampling happens on fully expanded matrices (all exponents 1): pick a depth,
pick a width up to the weight cap, then draw interval rows of length >= 2.
That makes each row convergent on its own, but sets of rows can still pool
too little column mass (three rows can cover three columns between them),
so candidates failing the subset convergence test are discarded.
Canonicalization merges duplicate columns, so general exponent patterns
appear naturally.  Results are deduplicated by term_key and returned in
generation order; a fixed seed fixes the corpus exactly.

term_key depends on the order of the rows, so a relabelling of another
term's rows survives the dedup.  The default corpus of 200 terms holds 129
kernels up to row relabelling, so 71 of its terms repeat one: terms 1 and
83 (0-based), rows (1,1),(1,3),(3,3) with exponents 2,1,3 and rows
(1,3),(2,2),(3,3) with exponents 1,3,2, are one kernel, and their series
read 0.15199 and 0.15212 at the cutoff N = 200.  The corpus stays as it
is, because every pinned digest and benchmark number rests on it.
"""

from __future__ import annotations

import random

from .errors import PatternError
from .terms import Term, canonical_term, converges, term, term_key


def random_corpus(
    seed: int = 20260815,
    count: int = 200,
    max_depth: int = 3,
    max_weight: int = 6,
) -> list[Term]:
    rng = random.Random(seed)
    out: list[Term] = []
    seen = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count:
            raise RuntimeError(
                f"corpus generation stalled after {attempts} attempts; "
                f"only {len(out)} of {count} matrices found"
            )
        d = rng.randint(1, max_depth)
        w = rng.randint(max(2, d), max_weight)
        rows = []
        for _ in range(d):
            a = rng.randint(1, w - 1)
            b = rng.randint(a + 1, w)
            rows.append((a, b))
        try:
            t = canonical_term(term(rows, [1] * w))
        except PatternError:
            continue
        if not converges(t):
            continue
        key = term_key(t)
        if key in seen:
            continue
        seen.add(key)
        out.append(t)
    return out
