"""The classic double series, end to end.

S = sum over n, m >= 1 of 1 / (n * m * (n+m)) is the smallest lattice zeta
series that is not a multiple zeta value by inspection: its two rows overlap
in the middle column.  This script reduces it, prints every rewrite the
engine recorded, and then checks the answer three independent ways.
"""

from zetalattice import (
    check_reduction,
    eval_term,
    integral_eval,
    reduce_to_mzv,
    render_combination,
    term,
    trace_replay,
)

t = term([(1, 2), (2, 3)], [1, 1, 1])
print("input:", t)
print("weight", t.weight, "depth", t.depth)
print()

res = reduce_to_mzv(t, verify=True)  # every step re-checked exactly as it runs
print("rewrites recorded:")
for rec in res.trace.records:
    outs = ", ".join(str(o) for o in rec.outputs) or "-"
    extra = ""
    if rec.move == "emit":
        extra = f"  word {rec.params['word']} coeff {rec.input.coefficient}"
    print(f"  {rec.move:<12} {rec.input}  ->  {outs}{extra}")
print()

print("result:", render_combination(res.combination))

# check 1: replay the log from scratch and compare
assert trace_replay(t, res.trace) == res.combination
print("replay of the move log rebuilds the same combination")

# check 2: numeric, series vs words
rep = check_reduction(t, res.combination, tol=1e-3, N=2000)
print(f"series {rep.series_value:.10f}  vs words {rep.words_value:.10f}"
      f"  (diff {rep.difference:.2e})")
assert rep.passed

# check 3: the cube integral gives the same number again
integral = integral_eval(t)
series = eval_term(t, 2000)
print(f"cube integral {integral.value:.10f}  vs series {series.value:.10f}")
print()
print("known closed form: 2 * zeta(3) =", 2 * 1.2020569031595943)
