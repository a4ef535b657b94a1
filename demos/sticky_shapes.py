"""Shapes whose splits leave a constant behind.

Merging two disjoint rows splits a lattice into three parts, but the split is
a statement about infinite sums; on truncated boxes it leaves a boundary.
Usually the boundary tends to zero and the move is free.  On some depth-3
shapes it tends to a nonzero constant: exactly zeta(2) times the series of
the rows and columns the pair never touched.  The engine detects this from
the exponent bookkeeping alone, applies the split anyway, and books that
constant as the split's fourth output: the boundary term, which the pool
reduces like any other term.  The move log keeps it, so the claim is
replayable and checkable after the fact; this demo prints each boundary
term found there and the words it reduces to.
"""

from zetalattice import (
    check_reduction,
    reduce_to_mzv,
    render_combination,
    term,
    trace_replay,
)

# the long-row shape: one row spanning everything over two disjoint short rows
t = term([(1, 1), (1, 2), (2, 3)], [2, 1, 2])
print("input:", t)

res = reduce_to_mzv(t, verify=True)
print("result:", render_combination(res.combination))
print()

for rec in res.trace.records:
    if len(rec.outputs) == 4:
        boundary = rec.outputs[3]
        print("compensated split found in the log:")
        print("  move     :", rec.move, "on", rec.input)
        print("  boundary :", boundary)
        words = reduce_to_mzv(boundary).combination
        print("  reduces to", render_combination(words))
print()

assert trace_replay(t, res.trace) == res.combination
rep = check_reduction(t, res.combination, tol=1e-2)
print(f"numeric check: series {rep.series_value:.6f} vs words "
      f"{rep.words_value:.6f} (diff {rep.difference:.1e})")
assert rep.passed
