import decimal
import itertools
import math
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction as Rat

import numpy as np
import pytest

from zetalattice import moves, numeric, terms
from zetalattice.corpus import random_corpus
from zetalattice.engine import reduce_to_mzv
from zetalattice.errors import CheckFailed, DivergentSeries, DivergentWord, ParseError
from zetalattice.moves import TraceRecord, inverse_hp
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


@pytest.mark.parametrize("word", [(2.9,), (2.0,), ("2",)])
def test_eval_mzv_refuses_non_integral_parts(word):
    # int() would evaluate zeta(2) for (2.9,)
    with pytest.raises(ParseError, match="must be integers"):
        eval_mzv(word, 1000)


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
    "t, value",
    [
        (term([(1, 1)], [2]), ZETA2),
        (term([(1, 3)], [2, 2, 2]), math.pi**6 / 945),
    ],
    ids=["zeta2", "zeta6"],
)
def test_depth_one_is_zeta_of_the_mass_without_a_cutoff_table(t, value):
    # the summed row is the only row: its sum to infinity is zeta(K) at every
    # cutoff, from a table that does not grow with the 10^6 default cutoff
    tracemalloc.start()
    try:
        rep = eval_term(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cutoff == 1_000_000
    assert peak < 1 << 20
    assert abs(rep.value - value) <= 1e-14 * value


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
        # the summed row (5,6) meets shifts n1+n2+n3 and 0, whose difference
        # spans three axes, and columns 3 and 4 lie outside it, with forms
        # over three and four axes
        (
            term([(1, 5), (2, 5), (3, 5), (4, 4), (5, 6)], [1, 1, 1, 2, 1, 2], "-3/4"),
            3,
        ),
    ],
)
def test_partial_sum_matches_the_exact_box_sum(t, N):
    ns = [n for n in (1, 2, 3, 5, 7) if n <= N]
    for n, exact, got in zip(ns, exact_partial_sums(t, ns), _partial_sums(t, ns)):
        assert abs(got - exact) <= 1e-10 * abs(exact), n


# zeta(j) to 30 digits: the references below are rationals plus rational
# multiples of these
ZETA_DIGITS = {
    2: "1.64493406684822643647241516665",
    3: "1.20205690315959428539973816151",
    4: "1.08232323371113819151600369654",
    5: "1.03692775514336992633136548646",
    6: "1.01734306198444913971451792979",
    7: "1.00834927738192282683979754985",
    8: "1.00407735619794433937868523851",
}


def solve_exact(rows, rhs):
    """Gauss-Jordan elimination over Fraction for a square regular system."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    n = len(m)
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[c])]
    return [row[-1] for row in m]


def harmonic(j, s):
    return sum((Rat(1, i**j) for i in range(1, s + 1)), start=Rat(0))


def exact_partial_sums(t, ns):
    """The sum of the kernel over [1, n]^(depth-1) x [1, inf) for each n in
    ns, the row with the latest start running to infinity.  At each point x
    of the other rows, the kernel is a rational function of that row's y with
    a pole at -s for each distinct shift s; its partial-fraction coefficients
    A_sj are solved exactly from samples of kernel_at at y = 1..(degree), and
    sum_{y>=1} (s + y)^(-j) = zeta(j) - H_j(s) for j >= 2.  The simple poles'
    coefficients must cancel.  Rational and zeta parts are combined in
    40-digit decimals."""
    d = t.depth
    rows = t.pattern.rows
    r = max(range(d), key=lambda i: rows[i][0])
    others = [i for i in range(d) if i != r]
    mine = range(rows[r][0], rows[r][1] + 1)
    rational = [Rat(0)] * len(ns)
    zetas = [dict() for _ in ns]
    for x in itertools.product(range(1, max(ns) + 1), repeat=d - 1):
        mass: dict[int, int] = {}  # shift -> exponent of its columns
        for c, k in zip(mine, t.exponents[rows[r][0] - 1 : rows[r][1]]):
            s = sum(v for i, v in zip(others, x) if rows[i][0] <= c <= rows[i][1])
            mass[s] = mass.get(s, 0) + k
        unknowns = [(s, j) for s, K in mass.items() for j in range(1, K + 1)]
        samples = range(1, len(unknowns) + 1)
        A = solve_exact(
            [[Rat(1, (s + y) ** j) for s, j in unknowns] for y in samples],
            [kernel_at(t, [Rat(v) for v in (*x[:r], y, *x[r:])]) for y in samples],
        )
        assert sum(a for (_, j), a in zip(unknowns, A) if j == 1) == 0
        for k, n in enumerate(ns):
            if max(x, default=1) <= n:
                for (s, j), a in zip(unknowns, A):
                    rational[k] -= a * harmonic(j, s)
                    if j >= 2:
                        zetas[k][j] = zetas[k].get(j, Rat(0)) + a
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        frac = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
        return [
            float(frac(q) + sum(frac(a) * Decimal(ZETA_DIGITS[j]) for j, a in z.items()))
            for q, z in zip(rational, zetas)
        ]


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
    for n, exact, got in zip(ns, exact_partial_sums(t, ns), _partial_sums(t, ns)):
        assert abs(got - exact) <= 1e-10 * abs(exact), n


def grid_partial_sums(t, ns):
    """The former sweep, kept as a reference: every value the summand reads
    is built on the slab as an integer grid (the shifts, their differences
    and the forms outside the summed row) and tail[j][sigma_g] is gathered
    from it.  The same floating-point operations on the same operands as
    _partial_sums, apart from products by 1.0, which are exact."""
    d = t.depth
    r = max(range(d), key=lambda i: t.pattern.rows[i][0])
    others = [i for i in range(d) if i != r]
    shifts = {}
    rest = []
    for mask, k in zip(t.pattern.cover, t.exponents):
        if not k:
            continue
        if mask >> r & 1:
            shift = mask & ~(1 << r)
            shifts[shift] = shifts.get(shift, 0) + k
        else:
            rest.append((mask, k))
    Ks = list(shifts.values())
    N = max(ns)
    tail = numeric._tails(max(Ks), N * max(bin(s).count("1") for s in shifts))
    step = max(1, numeric._CHUNK // N ** max(d - 2, 0))
    unit = (1,) * (d - 1)
    pieces = [[] for _ in ns]
    for lo in range(0, N if d > 1 else 1, step):
        hi = min(lo + step, N)
        x = {}
        for p, i in enumerate(others):
            axis = np.arange(lo + 1, hi + 1) if p == 0 else np.arange(1, N + 1)
            x[i] = axis.reshape(unit[:p] + (-1,) + unit[p + 1 :])
        sigma = [
            sum((x[i] for i in others if s >> i & 1), np.zeros(unit, dtype=int))
            for s in shifts
        ]
        q = {
            (g, h): 1.0 / (sigma[h] - sigma[g])
            for g, h in itertools.combinations(range(len(Ks)), 2)
        }
        ysum = np.zeros(tuple(hi - lo if p == 0 else N for p in range(d - 1)))
        for g, (sg, Kg) in enumerate(zip(sigma, Ks)):
            sign, lead, coef = 1, 1.0, None
            for h, Kh in enumerate(Ks):
                if h == g:
                    continue
                qh, s = (q[g, h], 1) if g < h else (q[h, g], -1)
                sign *= s**Kh
                lead = lead * numeric._power(qh, Kh)
                series = [1.0]
                for m in range(1, Kg):
                    power = qh if m == 1 else power * qh
                    series.append(power * (math.comb(Kh + m - 1, m) * (-s) ** m))
                coef = series if coef is None else numeric._series_product(coef, series)
            inner = tail[Kg][sg]
            if coef is not None:
                for m in range(1, Kg):
                    inner = inner + coef[m] * tail[Kg - m][sg]
            if sign > 0:
                ysum += lead * inner
            else:
                ysum -= lead * inner
        if rest:
            den = 1.0
            for mask, k in rest:
                form = sum(x[i] for i in others if mask >> i & 1).astype(float)
                den = den * numeric._power(form, k)
            ysum /= den
        for cut, n in enumerate(ns):
            if lo >= n:
                continue
            box = tuple(slice(0, n - lo if p == 0 else n) for p in range(d - 1))
            pieces[cut].append(float(ysum[box].sum()))
    return [float(t.coefficient) * math.fsum(part) for part in pieces]


def ladder(N):
    """The cutoffs of eval_term's extrapolation at N >= 16."""
    return [N // 8, N // 4, N // 2, N] if N >= 128 else [N // 4, N // 2, N]


def test_form_tables_are_bit_identical_to_the_grid_on_corpus200(corpus200):
    # exact float equality: both sides make the same roundings on the same
    # numpy, so no tolerance and no stored digest is needed
    deep = [t for t in corpus200 if t.depth >= 2]
    assert len(deep) == 195
    for t in deep:
        ns = ladder(numeric.default_cutoff(t.depth))
        assert _partial_sums(t, ns) == grid_partial_sums(t, ns), t


def test_form_tables_are_bit_identical_to_the_grid_at_depth_four():
    deep4 = random_corpus(seed=11, count=60, max_depth=4, max_weight=7)
    depth4 = [t for t in deep4 if t.depth == 4]
    assert len(depth4) == 19
    for t in depth4:
        ns = ladder(numeric.default_cutoff(4))
        assert _partial_sums(t, ns) == grid_partial_sums(t, ns), t


@pytest.mark.parametrize(
    "t",
    [
        term([(1, 2), (1, 3), (2, 3)], [1, 4, 2], "-7/3"),
        term([(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 1, 1, 3], "5/2"),
        term([(1, 5), (2, 5), (3, 5), (4, 4), (5, 6)], [1, 1, 1, 2, 1, 2], "-3/4"),
    ],
)
def test_form_tables_are_bit_identical_to_the_grid_across_slabs(t, monkeypatch):
    # three points per slab: every table view starts at its slab's offset
    monkeypatch.setattr(numeric, "_CHUNK", 3)
    ns = [2, 3, 5, 7]
    assert _partial_sums(t, ns) == grid_partial_sums(t, ns)


def test_divergent_inputs_are_refused():
    with pytest.raises(DivergentSeries):
        eval_term(term([(1, 1)], [1]))
    # pooled mass can be too small even when every row alone looks fine
    with pytest.raises(DivergentSeries):
        eval_term(term([(1, 2), (1, 3), (2, 3)], [1, 1, 1]))
    with pytest.raises(DivergentWord):
        eval_mzv((1, 2))


def test_a_high_power_costs_linear_time():
    # zeta(4000) is 1 in double precision; its tail tables take one product
    # per exponent, where a fresh power per exponent took 8 million
    start = time.perf_counter()
    assert eval_term(term([(1, 1)], [4000])).value == 1.0
    assert time.perf_counter() - start < 1


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


def test_check_reduction_refuses_word_coefficients_outside_the_float_range():
    # float() overflows; then a float whose product with zeta(3) overflows
    for c in (Rat(10**400), Rat(15 * 10**307)):
        with pytest.raises(ParseError, match="float range"):
            check_reduction(from_mzv((2, 1)), {(3,): c})


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
        # forward_split counts the outputs for both split checks, so the
        # boundary check needs no lattice check ahead of it
        padded = rec.outputs * 2
        for n in (0, 1, 2, 5):
            bad = TraceRecord(rec.move, rec.input, padded[:n], rec.params)
            for check in (step_check_lattice, check_comp_words):
                with pytest.raises(CheckFailed, match="expected 3 or 4"):
                    check(bad)


DEPTH_FOUR = term([(1, 2), (2, 2), (3, 4), (4, 4)], [1, 2, 1, 2])


def depth_four_splits():
    """The depth-4 split records of DEPTH_FOUR's reduction, and the inverse
    split that undoes the first of them: the corpus records stop at depth
    3."""
    records = [
        r
        for r in reduce_to_mzv(DEPTH_FOUR).trace.records
        if r.move == "forward_hp" and r.input.depth == 4
    ]
    assert records
    first = records[0].outputs[0]
    a, b = records[0].params["a"], records[0].params["b"]
    inverse = TraceRecord("inverse_hp", first, inverse_hp(first, a, b), {"a": a, "b": b})
    return [*records, inverse]


def test_a_corrupted_case_table_fails_the_split_check(monkeypatch):
    rec = depth_four_splits()[0]
    n_gt_m, n_lt_m, n_eq_m = moves.SPLIT_CASES
    numeric._check_split_cases.cache_clear()
    step_check_lattice(rec)
    # parts 1 and 2 swapped still partition the pairs (n, m), but their
    # substitutions no longer give the outputs
    monkeypatch.setattr(moves, "SPLIT_CASES", (n_lt_m, n_gt_m, n_eq_m))
    numeric._check_split_cases.cache_clear()
    with pytest.raises(CheckFailed, match="part 0"):
        step_check_lattice(rec)
    for cases in (
        (n_gt_m, n_gt_m, n_eq_m),  # n > m twice, n < m never
        (n_gt_m, n_lt_m),  # n = m never
        (n_gt_m, n_lt_m, n_eq_m, n_eq_m),  # n = m twice
        (n_gt_m, n_lt_m, ("uv", "uv")),  # n = m at 2u: the odd ones never
    ):
        monkeypatch.setattr(moves, "SPLIT_CASES", cases)
        with pytest.raises(CheckFailed, match="do not partition"):
            step_check_lattice(rec)


def test_a_split_of_rows_that_do_not_touch_is_a_failed_check():
    rec = depth_four_splits()[0]
    assert (rec.params["a"], rec.params["b"]) == (0, 2)
    # rows (1,2) and (4,4) are apart; rows (1,2) and (2,2) share column 2
    for params in ({"a": 0, "b": 3}, {"a": 0, "b": 1}, {"a": 2, "b": 0}):
        bad = TraceRecord(rec.move, rec.input, rec.outputs, params)
        with pytest.raises(CheckFailed, match="do not touch"):
            step_check_lattice(bad)
        with pytest.raises(CheckFailed):
            check_record(bad, rng=random.Random(0))


def test_a_record_of_an_unknown_move_is_a_failed_check():
    _, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "pf_step")
    bad = TraceRecord("insert_aux", rec.input, rec.outputs, {"pos": 1})
    with pytest.raises(CheckFailed, match="insert_aux"):
        check_record(bad, rng=random.Random(0))


def one_pf_step_per_kind(records):
    """The first circuit pf_step and the first merge pf_step of ``records``,
    told apart by their params: a merge's hold its ``pair`` only."""
    kinds = {}
    for rec in records:
        if rec.move == "pf_step":
            kinds.setdefault("pair" in rec.params, rec)
    assert set(kinds) == {False, True}
    return list(kinds.values())


def test_a_rational_record_that_changes_the_depth_is_a_failed_check():
    _, trace = tornheim_trace()
    deeper = term([(1, 3), (2, 3), (3, 3)], [1, 1, 1])
    for rec in one_pf_step_per_kind(trace.records):
        bad = TraceRecord(rec.move, rec.input, (deeper,), rec.params)
        with pytest.raises(CheckFailed, match="changes its depth"):
            check_record(bad, rng=random.Random(0))


def test_a_split_without_its_row_a_is_a_failed_check():
    trace = reduce_to_mzv(SPLITS_BOTH_WAYS).trace
    for move in ("forward_hp", "inverse_hp"):
        rec = next(r for r in trace.records if r.move == move)
        bad = TraceRecord(rec.move, rec.input, rec.outputs, {"b": rec.params["b"]})
        for check in (step_check_lattice, check_comp_words):
            with pytest.raises(CheckFailed, match="not two rows"):
                check(bad)
        with pytest.raises(CheckFailed):
            check_record(bad, rng=random.Random(0))


def test_a_split_of_rows_outside_its_term_is_a_failed_check():
    trace = reduce_to_mzv(SPLITS_BOTH_WAYS).trace
    for move in ("forward_hp", "inverse_hp"):
        rec = next(r for r in trace.records if r.move == move)
        a, b = rec.params["a"], rec.params["b"]
        for params in ({"a": 7, "b": b}, {"a": -1, "b": b}, {"a": b, "b": b},
                       {"a": str(a), "b": b}, {"a": a, "b": b == 1}):
            bad = TraceRecord(rec.move, rec.input, rec.outputs, params)
            for check in (step_check_lattice, check_comp_words):
                with pytest.raises(CheckFailed, match="not two rows"):
                    check(bad)
            with pytest.raises(CheckFailed):
                check_record(bad, rng=random.Random(0))


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
    # an emit has no outputs, and its input must be a chain: both are
    # refused as failed checks, not as errors of to_mzv
    t, _ = tornheim_trace()
    for bad in (
        TraceRecord(rec.move, rec.input, (from_mzv((3,)),), rec.params),
        TraceRecord(rec.move, t, (), rec.params),
    ):
        with pytest.raises(CheckFailed):
            check_record(bad, rng=random.Random(0))


def boundary_mutants(rec):
    """``rec``, a compensated split, with its fourth output tampered with:
    sign, scale, an exponent, and the split's own third output in its
    place (same depth and weight)."""
    *split, boundary = rec.outputs
    exps = list(boundary.exponents)
    exps[0] += 1
    for bad in (
        boundary.scaled(-1),
        boundary.scaled(2),
        Term(boundary.pattern, tuple(exps), boundary.coefficient),
        split[2],
    ):
        yield TraceRecord(rec.move, rec.input, (*split, bad), rec.params)


def compensated_records(corpus200):
    """Every four-output split of reducing SPLITS_BOTH_WAYS and corpus200[19],
    forward and inverse."""
    records = [
        r
        for t in (SPLITS_BOTH_WAYS, corpus200[19])
        for r in reduce_to_mzv(t).trace.records
        if len(r.outputs) == 4
    ]
    assert {r.move for r in records} == {"forward_hp", "inverse_hp"}
    return records


def test_comp_word_check_catches_tampering(corpus200):
    records = compensated_records(corpus200)
    for rec in records:
        check_comp_words(rec)  # genuine record passes
        for bad in boundary_mutants(rec):
            with pytest.raises(CheckFailed, match="boundary term"):
                check_comp_words(bad)


def test_comp_word_check_refuses_sound_splits():
    # a split whose boundary vanishes must not carry a boundary term
    t, trace = tornheim_trace()
    rec = next(r for r in trace.records if r.move == "forward_hp")
    extra = from_mzv((3,)).scaled(-rec.input.coefficient)
    bad = TraceRecord(rec.move, rec.input, (*rec.outputs, extra), rec.params)
    step_check_lattice(bad)  # the split and the extra term's depth pass
    with pytest.raises(CheckFailed, match="no constant boundary"):
        check_comp_words(bad)
    with pytest.raises(CheckFailed):
        check_record(bad, rng=random.Random(0))


def test_a_dropped_boundary_term_is_refused(corpus200):
    # the three split parts of a compensated split still pass the lattice
    # check: only the boundary check sees the missing fourth output
    for rec in compensated_records(corpus200):
        bad = TraceRecord(rec.move, rec.input, rec.outputs[:3], rec.params)
        step_check_lattice(bad)
        with pytest.raises(CheckFailed, match="boundary term"):
            check_record(bad, rng=random.Random(0))


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
    """The three-output split check on Fractions; a fourth output is not
    its business."""
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
    terms, the reductions of boundary terms included."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "check_record", lambda rec, **kw: seen.append(rec))
        for t in corpus200[:20]:
            reduce_to_mzv(t, verify=True)
    return seen


def test_integer_checks_match_the_fraction_reference(corpus_records):
    moves = {r.move for r in corpus_records}
    assert moves == {"emit", "pf_step", "forward_hp", "inverse_hp"}
    one_pf_step_per_kind(corpus_records)
    compensated = {r.move for r in corpus_records if len(r.outputs) == 4}
    assert compensated == {"forward_hp", "inverse_hp"}
    deeper = depth_four_splits()
    assert {(r.move, r.input.depth) for r in deeper} == {
        ("forward_hp", 4), ("inverse_hp", 4)
    }
    for rec in [*corpus_records, *deeper]:
        if rec.move == "emit":
            continue
        split = rec.move in ("forward_hp", "inverse_hp")
        if split:
            new, ref, args = step_check_lattice, reference_lattice, ()
        else:
            new, ref = step_check_rational, reference_rational
        variants = [(list(rec.outputs), rec.input), *mutants(rec)]
        for k, (outs, inp) in enumerate(variants):
            bad = TraceRecord(rec.move, inp, tuple(outs), rec.params)
            if new is step_check_rational:
                args = (random.Random(k),)
            # the reference sees the three split outputs only, and has no
            # shape guard: a split of the wrong depth fails inside kernel_at
            # or at a point index
            three = TraceRecord(rec.move, inp, tuple(outs[:3]), rec.params)
            want = verdict(
                ref, three if split else bad, *args, malformed=(ValueError, IndexError)
            )
            assert verdict(new, bad, *args) == want, (k, rec)
        if len(rec.outputs) == 4:
            for bad in boundary_mutants(rec):
                assert verdict(check_record, bad, random.Random(0)) == "rejected"

# ---------------------------------------------------------------------------
# check_record proves each relation once


@pytest.fixture
def cold_table(monkeypatch):
    """An empty table of checked relations for this test, and counters of
    the exact checks that check_record runs."""
    monkeypatch.setattr(numeric, "_checked", {})
    monkeypatch.setattr(terms, "_interned", {})
    names = ("step_check_rational", "step_check_lattice", "check_comp_words")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        check = getattr(numeric, name)

        def counted(*args, _check=check, _name=name):
            calls[_name] += 1
            return _check(*args)

        monkeypatch.setattr(numeric, name, counted)
    return calls


def one_record_per_kind():
    """The first record of each move, of each split with and without a
    boundary term, and of a circuit's and a merge's pf_step, in the
    reduction of SPLITS_BOTH_WAYS."""
    kinds = {}
    for rec in reduce_to_mzv(SPLITS_BOTH_WAYS).trace.records:
        merge = "pair" in rec.params
        kinds.setdefault((rec.move, len(rec.outputs), merge), rec)
    assert {move for move, _, _ in kinds} == {
        "emit", "pf_step", "forward_hp", "inverse_hp"
    }
    assert {n for move, n, _ in kinds if move == "forward_hp"} == {3, 4}
    assert {m for move, _, m in kinds if move == "pf_step"} == {False, True}
    return list(kinds.values())


def test_a_warm_table_still_rejects_every_tampered_record(corpus_records, cold_table):
    rng = random.Random(0)
    for rec in corpus_records:
        check_record(rec, rng)
    warm = len(numeric._checked)
    assert 0 < warm < len(corpus_records)
    one_pf_step_per_kind(corpus_records)
    for rec in corpus_records:
        if rec.move == "emit":
            continue
        variants = list(mutants(rec))
        for k, (outs, inp) in enumerate(variants):
            bad = TraceRecord(rec.move, inp, tuple(outs), rec.params)
            cold = verdict(numeric._check, bad, random.Random(k))
            assert verdict(check_record, bad, random.Random(k)) == cold, (k, rec)
            # only the last variant, the outputs reversed, can be the same
            # relation: a partial fraction's sum does not depend on its order
            assert cold == "rejected" or k == len(variants) - 1, (k, rec)
        if len(rec.outputs) == 4:
            for bad in boundary_mutants(rec):
                with pytest.raises(CheckFailed, match="boundary term"):
                    check_record(bad, rng)


def test_a_failing_record_fails_every_time(cold_table):
    for rec in one_record_per_kind():
        if rec.move == "emit":
            word = [sum(rec.params["word"]) + 1]
            bad = TraceRecord(rec.move, rec.input, (), dict(rec.params, word=word))
        else:
            outs = (rec.outputs[0].scaled(-1), *rec.outputs[1:])
            bad = TraceRecord(rec.move, rec.input, outs, rec.params)
        for _ in range(2):
            with pytest.raises(CheckFailed):
                check_record(bad, random.Random(0))
    assert numeric._checked == {}


def scaled_record(rec: TraceRecord, lam: Rat) -> TraceRecord:
    """``rec`` with its input and its outputs times ``lam``: the same
    relation."""
    outs = tuple(o.scaled(lam) for o in rec.outputs)
    return TraceRecord(rec.move, rec.input.scaled(lam), outs, dict(rec.params))


def test_a_scaled_record_is_not_checked_again(cold_table):
    for rec in one_record_per_kind():
        check_record(rec, random.Random(0))
        before = dict(cold_table)
        for lam in (Rat(3, 7), Rat(-2)):
            check_record(scaled_record(rec, lam), random.Random(0))
        assert cold_table == before, rec.move
    assert sum(cold_table.values()) > 0


def test_the_same_split_at_other_rows_is_checked_afresh(cold_table):
    for rec in one_record_per_kind():
        if rec.move not in ("forward_hp", "inverse_hp"):
            continue
        check_record(rec, random.Random(0))
        before = cold_table["step_check_lattice"]
        a, b = rec.params["a"], rec.params["b"]
        swapped = TraceRecord(rec.move, rec.input, rec.outputs, {"a": b, "b": a})
        with pytest.raises(CheckFailed):
            check_record(swapped, random.Random(0))
        assert cold_table["step_check_lattice"] == before + 1


def test_params_of_another_type_are_checked_afresh(cold_table):
    # 1.0 == 1 and both hash alike, but a float is not a row: the cached
    # pass of the int rows must not answer for it
    rec = next(r for r in one_record_per_kind() if r.move == "forward_hp")
    check_record(rec, random.Random(0))
    floats = {name: float(v) for name, v in rec.params.items()}
    bad = TraceRecord(rec.move, rec.input, rec.outputs, floats)
    with pytest.raises(CheckFailed, match="not two rows"):
        check_record(bad, random.Random(0))


def test_a_record_without_a_key_is_checked_every_time(cold_table):
    # a zero input coefficient (no ZeroDivisionError), or a param with no
    # hashable form
    records = one_record_per_kind()
    odd = [scaled_record(rec, Rat(0)) for rec in records]
    odd += [
        TraceRecord(rec.move, rec.input, rec.outputs, dict(rec.params, note={}))
        for rec in records
    ]
    for rec in odd:
        for _ in range(2):
            check_record(rec, random.Random(0))
    assert numeric._checked == {}
    splits = sum(rec.move in ("forward_hp", "inverse_hp") for rec in odd)
    assert cold_table["step_check_lattice"] == 2 * splits
    assert cold_table["step_check_rational"] == 2 * (len(odd) - splits)


def test_the_table_is_bounded(cold_table, monkeypatch):
    monkeypatch.setattr(numeric, "CHECKED_BOUND", 3)
    r0, r1, r2, r3 = one_record_per_kind()[:4]
    checks = lambda: sum(cold_table.values())
    for rec in (r0, r1, r2, r0, r3):
        check_record(rec, random.Random(0))
    assert len(numeric._checked) == 3
    # r0 was used again, so r1 is the least recently used and went first
    calls = checks()
    check_record(r0, random.Random(0))
    assert checks() == calls
    check_record(r1, random.Random(0))
    assert checks() > calls
