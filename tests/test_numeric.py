import itertools
import math
import random
from fractions import Fraction as Rat

import pytest

from zetalattice import numeric
from zetalattice.engine import reduce_to_mzv
from zetalattice.errors import CheckFailed, DivergentSeries, DivergentWord
from zetalattice.moves import TraceRecord
from zetalattice.numeric import (
    _partial_sums,
    check_comp_words,
    check_record,
    check_reduction,
    eval_mzv,
    eval_term,
    step_check_lattice,
    step_check_rational,
)
from zetalattice.terms import Term, from_mzv, kernel_at, term

ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90


# ---------------------------------------------------------------------------
# series evaluation


def test_eval_mzv_hits_closed_forms():
    assert abs(eval_mzv((2,), 10_000).value - ZETA2) < 1e-6
    assert abs(eval_mzv((4,), 10_000).value - ZETA4) < 1e-8
    # depth two: zeta(2,2) = pi^4/120, and Euler's zeta(2,1) = zeta(3)
    assert abs(eval_mzv((2, 2)).value - math.pi**4 / 120) < 1e-6
    assert abs(eval_mzv((2, 1)).value - eval_mzv((3,)).value) < 1e-5


def test_eval_error_estimate_is_honest():
    rep = eval_mzv((2,), 10_000)
    assert abs(rep.value - ZETA2) < 5 * rep.estimated_error + 1e-12


def test_eval_term_matches_its_word():
    rep = eval_term(from_mzv((2, 1)))
    assert abs(rep.value - 1.2020569031595943) < 1e-5


def test_eval_term_depth_three_default_cutoff():
    t = term([(1, 2), (2, 3), (3, 4)], [1, 1, 1, 1])
    rep = eval_term(t)
    assert rep.cutoff == 600 and rep.extrapolated
    res = reduce_to_mzv(t)
    words = sum(float(c) * eval_mzv(w).value for w, c in res.combination.items())
    assert abs(rep.value - words) < 1e-2


@pytest.mark.parametrize(
    "t, N",
    [
        (term([(1, 1)], [3]), 7),
        (term([(1, 2), (2, 3)], [1, 1, 1]), 7),
        # every row leaves two of the four columns uncovered
        (term([(1, 2), (2, 3), (3, 4)], [1, 1, 1, 1]), 7),
        # summing row (1,3) would meet coinciding shifts where n1 = n3
        (term([(1, 2), (1, 3), (2, 3)], [1, 4, 2]), 7),
        (term([(1, 2), (1, 3), (2, 3)], [1, 4, 2], "-7/3"), 7),
        (term([(1, 1), (1, 4), (2, 3), (3, 5)], [2, 1, 1, 1, 1]), 5),
        (term([(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 1, 1, 3], "5/2"), 5),
    ],
)
def test_partial_sum_matches_the_exact_box_sum(t, N):
    ns = [n for n in (1, 2, 3, 5, 7) if n <= N]
    for n, exact, got in zip(ns, exact_box_sums(t, ns), _partial_sums(t, ns)):
        assert abs(got - float(exact)) <= 1e-10 * abs(float(exact)), n


def exact_box_sums(t, ns):
    """The exact sum of the kernel over [1, n]^depth for each n in ns."""
    sums = [Rat(0)] * len(ns)
    for point in itertools.product(range(1, max(ns) + 1), repeat=t.depth):
        value = kernel_at(t, [Rat(v) for v in point])
        for k, n in enumerate(ns):
            if max(point) <= n:
                sums[k] += value
    return sums


@pytest.mark.parametrize(
    "t",
    [
        term([(1, 1)], [3]),
        term([(1, 2), (2, 3)], [1, 1, 1]),
        term([(1, 2), (1, 3), (2, 3)], [1, 4, 2], "-7/3"),
        term([(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 1, 1, 3], "5/2"),
    ],
)
def test_partial_sums_span_several_slabs(t, monkeypatch):
    # three points per slab: every box of depth >= 2 spans several slabs, and
    # the smaller cutoffs skip the slabs that start past them
    monkeypatch.setattr(numeric, "_CHUNK", 3)
    ns = [2, 3, 5, 7]
    for n, exact, got in zip(ns, exact_box_sums(t, ns), _partial_sums(t, ns)):
        assert abs(got - float(exact)) <= 1e-10 * abs(float(exact)), n


def test_divergent_inputs_are_refused():
    with pytest.raises(DivergentSeries):
        eval_term(term([(1, 1)], [1]))
    # pooled mass can be too small even when every row alone looks fine
    with pytest.raises(DivergentSeries):
        eval_term(term([(1, 2), (1, 3), (2, 3)], [1, 1, 1]))
    with pytest.raises(DivergentWord):
        eval_mzv((1, 2))


# ---------------------------------------------------------------------------
# whole-reduction check


def test_check_reduction_passes_a_true_identity():
    t = from_mzv((2, 1))
    rep = check_reduction(t, {(3,): Rat(1)})
    assert rep.passed
    assert rep.difference <= rep.tol


def test_check_reduction_fails_a_false_identity():
    t = from_mzv((2, 1))
    rep = check_reduction(t, {(3,): Rat(2)})
    assert not rep.passed


def test_check_reduction_refuses_divergent_words():
    with pytest.raises(CheckFailed):
        check_reduction(from_mzv((2, 1)), {(1, 2): Rat(1)})


# ---------------------------------------------------------------------------
# per-step checks catch tampering


def tornheim_trace():
    t = term([(1, 2), (2, 3)], [1, 1, 1])
    return t, reduce_to_mzv(t).trace


def test_rational_check_catches_a_sign_flip():
    _, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "pf_step")
    bad = TraceRecord(
        rec.move,
        rec.input,
        tuple(o.scaled(-1) for o in rec.outputs),
        rec.params,
    )
    with pytest.raises(CheckFailed):
        step_check_rational(bad, random.Random(0))


def test_rational_check_catches_a_coefficient_error():
    _, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "pf_step")
    outs = list(rec.outputs)
    outs[0] = outs[0].scaled(Rat(3, 2))
    bad = TraceRecord(rec.move, rec.input, tuple(outs), rec.params)
    with pytest.raises(CheckFailed):
        step_check_rational(bad, random.Random(0))


def test_lattice_check_catches_a_wrong_split_output():
    _, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "forward_hp")
    outs = list(rec.outputs)
    exps = list(outs[0].exponents)
    exps[0] += 1
    from zetalattice.terms import Term

    outs[0] = Term(outs[0].pattern, tuple(exps), outs[0].coefficient)
    bad = TraceRecord(rec.move, rec.input, tuple(outs), rec.params)
    with pytest.raises(CheckFailed):
        step_check_lattice(bad)


SPLITS_BOTH_WAYS = term([(1, 1), (1, 2), (2, 3)], [2, 1, 2])


def test_lattice_check_catches_a_doubled_output():
    trace = reduce_to_mzv(SPLITS_BOTH_WAYS).trace
    for move in ("forward_hp", "inverse_hp"):
        rec = next(r for r in trace.records if r.move == move)
        for i in range(3):
            outs = list(rec.outputs)
            outs[i] = outs[i].scaled(2)
            bad = TraceRecord(rec.move, rec.input, tuple(outs), rec.params)
            with pytest.raises(CheckFailed):
                step_check_lattice(bad)


def test_lattice_check_refuses_malformed_splits_typed():
    trace = reduce_to_mzv(SPLITS_BOTH_WAYS).trace
    for move in ("forward_hp", "inverse_hp"):
        rec = next(r for r in trace.records if r.move == move)
        for outs in (rec.outputs[::-1], rec.outputs[:2], rec.outputs + rec.outputs[:1]):
            bad = TraceRecord(rec.move, rec.input, outs, rec.params)
            with pytest.raises(CheckFailed, match=move):
                step_check_lattice(bad)


def test_emit_check_catches_a_wrong_word():
    _, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "emit")
    bad = TraceRecord(
        rec.move,
        rec.input,
        rec.outputs,
        dict(rec.params, word=[sum(rec.params["word"]) + 1]),
    )
    with pytest.raises(CheckFailed):
        check_record(bad, rng=random.Random(0))


def test_comp_word_check_catches_tampering():
    t = term([(1, 1), (1, 2), (2, 3)], [2, 1, 2])
    trace = reduce_to_mzv(t).trace
    rec = next(r for r in trace.records if r.params.get("comp_words"))
    check_comp_words(rec)  # genuine record passes
    words = [list(pair) for pair in rec.params["comp_words"]]
    words[0] = [words[0][0], str(Rat(words[0][1]) + 1)]
    bad = TraceRecord(rec.move, rec.input, rec.outputs, dict(rec.params, comp_words=words))
    with pytest.raises(CheckFailed):
        check_comp_words(bad)


def test_comp_word_check_refuses_sound_splits():
    # a split whose boundary vanishes must not carry compensation words
    _, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "forward_hp")
    bad = TraceRecord(
        rec.move, rec.input, rec.outputs, dict(rec.params, comp_words=[[[2], "1"]])
    )
    with pytest.raises(CheckFailed):
        check_comp_words(bad)


# ---------------------------------------------------------------------------
# the integer checks against a Fraction reference built on kernel_at


def reference_rational(rec, rng, points=10):
    d = rec.input.depth
    for _ in range(points):
        z = [Rat(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(d)]
        rhs = sum((kernel_at(o, z) for o in rec.outputs), start=Rat(0))
        if kernel_at(rec.input, z) != rhs:
            raise CheckFailed(f"kernel identity fails at {z}")


def reference_lattice(rec, bound=6):
    if rec.move == "forward_hp":
        src, outs = rec.input, list(rec.outputs)
    else:
        o1, o2, o3 = rec.outputs
        src, outs = o1, [rec.input, o2.scaled(-1), o3.scaled(-1)]
    a, b = rec.params["a"], rec.params["b"]
    images = [set(), set(), set()]
    for x in itertools.product(range(1, bound + 1), repeat=src.depth):
        n, m = x[a], x[b]
        y = list(x)
        if n > m:
            idx, y[a], y[b] = 0, m, n - m
        elif n < m:
            idx, y[a], y[b] = 1, n, m - n
        else:
            idx = 2
            del y[b]
        if tuple(y) in images[idx]:
            raise CheckFailed(f"repeated image {y}")
        images[idx].add(tuple(y))
        if kernel_at(src, [Rat(v) for v in x]) != kernel_at(outs[idx], [Rat(v) for v in y]):
            raise CheckFailed(f"kernel mismatch at {x}")


def verdict(check, rec, *args, malformed=()):
    try:
        check(rec, *args)
    except (CheckFailed, *malformed):
        return "rejected"
    return "passed"


def mutants(rec):
    outs = list(rec.outputs)
    for i, o in enumerate(outs):
        exps = list(o.exponents)
        exps[0] += 1
        yield [*outs[:i], Term(o.pattern, tuple(exps), o.coefficient), *outs[i + 1:]], rec.input
    yield [outs[0].scaled(-1), *outs[1:]], rec.input
    yield [outs[0].scaled(2), *outs[1:]], rec.input
    yield outs, rec.input.scaled(3)
    yield outs[::-1], rec.input


@pytest.fixture(scope="module")
def corpus_records(corpus200):
    """Every record the checker sees while reducing the first 20 corpus
    terms, compensated sub-reductions included."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "check_record", lambda rec, **kw: seen.append(rec))
        for t in corpus200[:20]:
            reduce_to_mzv(t, verify=True)
    return seen


def test_integer_checks_match_the_fraction_reference(corpus_records):
    moves = {r.move for r in corpus_records}
    assert {"pf_step", "insert_aux", "forward_hp", "inverse_hp"} <= moves
    for rec in corpus_records:
        if rec.move == "emit":
            continue
        if rec.move in ("forward_hp", "inverse_hp"):
            new, ref, args = step_check_lattice, reference_lattice, ()
        else:
            new, ref = step_check_rational, reference_rational
        variants = [(list(rec.outputs), rec.input), *mutants(rec)]
        for k, (outs, inp) in enumerate(variants):
            bad = TraceRecord(rec.move, inp, tuple(outs), rec.params)
            if new is step_check_rational:
                args = (random.Random(k),)
            # the reference has no shape guard: a split of the wrong depth
            # fails inside kernel_at or at a point index
            want = verdict(ref, bad, *args, malformed=(ValueError, IndexError))
            assert verdict(new, bad, *args) == want, (k, rec)
