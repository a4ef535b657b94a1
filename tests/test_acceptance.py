"""End-to-end acceptance battery.

Each test function is one acceptance criterion; `pytest -v` prints one
pass/fail line per criterion.  The corpus reductions (200 terms, fixed seed,
exact per-step verification switched on) are shared across criteria through a
module fixture so the timed budget is charged once.
"""

import itertools
import random
import time
from fractions import Fraction as Rat

import pytest

from zetalattice.engine import reduce_to_mzv
from zetalattice.errors import CheckFailed
from zetalattice.moves import TraceRecord
from zetalattice.numeric import (
    check_reduction,
    eval_mzv,
    eval_term,
    step_check_rational,
)
from zetalattice.periods import (
    forest_expand,
    integral_eval,
    monomial_value,
    simplicial_coefficient,
)
from zetalattice.terms import (
    direct_sum,
    expand,
    from_mzv,
    is_admissible,
    reflect,
    stuffle_words,
    term,
)

TORNHEIM = term([(1, 2), (2, 3)], [1, 1, 1])


def compositions(total):
    for bits in range(1 << (total - 1)):
        parts, run = [], 1
        for i in range(total - 1):
            if bits >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def admissible_words(max_weight):
    out = []
    for w in range(2, max_weight + 1):
        out.extend(word for word in compositions(w) if is_admissible(word))
    return out


@pytest.fixture(scope="module")
def corpus_reductions(corpus200):
    """Reduce the whole corpus with exact per-step checking; charge the time."""
    start = time.perf_counter()
    results = [reduce_to_mzv(t, verify=True) for t in corpus200]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_tornheim_reduction():
    start = time.perf_counter()
    res = reduce_to_mzv(TORNHEIM)
    assert res.combination == {(2, 1): Rat(1), (3,): Rat(1)}
    rep = check_reduction(TORNHEIM, res.combination, tol=1e-3, N=2000)
    assert rep.passed
    assert abs(rep.series_value - 2.4041138064) < 1e-3
    assert time.perf_counter() - start < 5.0


def test_criterion_2_stuffle_recovery(mzv_value):
    words = admissible_words(5)
    pairs = [
        (u, v)
        for u, v in itertools.combinations_with_replacement(words, 2)
        if sum(u) + sum(v) <= 7
    ]
    assert len(pairs) == 26  # the full unordered universe at this weight
    for u, v in pairs:
        got = reduce_to_mzv(direct_sum(from_mzv(u), from_mzv(v))).combination
        assert got == stuffle_words(u, v), (u, v)
    spot = reduce_to_mzv(direct_sum(from_mzv((2,)), from_mzv((2,)))).combination
    assert spot == {(2, 2): Rat(2), (4,): Rat(1)}
    assert abs(mzv_value(spot) - 2.7058) < 1e-3


def test_criterion_3_random_corpus(corpus200, corpus_reductions):
    results, reduce_time = corpus_reductions
    start = time.perf_counter()
    for t, res in zip(corpus200, results):
        assert res.divergent_cancelled, t
        assert all(sum(w) == t.weight for w in res.combination), t
        tol = 1e-3 if t.depth <= 2 else 1e-2
        rep = check_reduction(t, res.combination, tol=tol)
        assert rep.passed, (t, rep.difference, tol)
    series_time = time.perf_counter() - start
    total = reduce_time + series_time
    assert total < 300.0, (
        f"corpus battery took {total:.0f}s: reduction {reduce_time:.0f}s, "
        f"series {series_time:.0f}s"
    )


def test_criterion_4_exact_step_verification(corpus_reductions):
    results, _ = corpus_reductions
    # the fixture already replayed every record through the exact checks;
    # reaching this point means 100% of them passed
    assert sum(len(r.trace.records) for r in results) > 1000
    rec = next(
        r for r in reduce_to_mzv(TORNHEIM).trace.records if r.move == "pf_step"
    )
    outs = list(rec.outputs)
    outs[0] = outs[0].scaled(-1)
    mutant = TraceRecord(rec.move, rec.input, tuple(outs), rec.params)
    with pytest.raises(CheckFailed):
        step_check_rational(mutant, random.Random(0))


def test_criterion_5_numeric_oracle_calibration():
    assert abs(eval_mzv((2,), 10_000).value - 1.6449340668) < 1e-6
    assert abs(eval_mzv((2, 1)).value - eval_mzv((3,)).value) < 1e-5


def test_criterion_6_reflection_duality(corpus200, corpus_reductions, mzv_value):
    results, _ = corpus_reductions
    for t in corpus200:
        assert reflect(reflect(t)) == t
    for t, res in zip(corpus200[:50], results[:50]):
        mirrored = reduce_to_mzv(reflect(t)).combination
        assert abs(mzv_value(res.combination) - mzv_value(mirrored)) < 1e-2, t


def test_criterion_7_periods_bridge(corpus200):
    rep = integral_eval(term([(1, 1)], [2]))
    assert abs(rep.value - 1.6449) < 1e-4
    for t in corpus200:
        if t.weight > 4:
            continue
        lhs = integral_eval(t)
        rhs = eval_term(t)
        bar = 5 * (lhs.estimated_error + rhs.estimated_error) + 1e-6
        assert abs(lhs.value - rhs.value) < bar, (t, lhs.value, rhs.value)
    rng = random.Random(3)
    pats = []
    for t in corpus200:
        if t.weight <= 5:
            pats.append(expand(t))
        if len(pats) == 50:
            break
    assert len(pats) == 50
    for pat in pats:
        monos = forest_expand(pat)
        for _ in range(20):
            # distinct coordinates keep every pole of the form at bay
            p = [Rat(x, 257) for x in rng.sample(range(1, 256), pat.width)]
            assert simplicial_coefficient(pat, p) == sum(
                monomial_value(m, p) for m in monos
            )


def test_criterion_8_idempotence_and_grading(corpus_reductions):
    for weight in range(1, 10):
        for word in compositions(weight):
            res = reduce_to_mzv(from_mzv(word))
            assert res.combination == {word: Rat(1)}, word
    results, _ = corpus_reductions
    violations = 0
    for res in results:
        for rec in res.trace.records:
            w = rec.input.weight
            if rec.move == "emit":
                violations += sum(rec.params["word"]) != w
            else:
                violations += sum(o.weight != w for o in rec.outputs)
    assert violations == 0
