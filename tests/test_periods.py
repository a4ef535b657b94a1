import itertools
import math
import random
import tracemalloc
from fractions import Fraction as Rat

import numpy as np
import pytest

from zetalattice.errors import CycleDetected, DivergentSeries, ParseError
from zetalattice.numeric import _CHUNK, eval_term
from zetalattice.periods import (
    DEFAULT_NODE_COUNTS,
    TABLE_ENTRY_LIMIT,
    _multisets,
    _one_minus,
    _ts_value,
    forest_expand,
    integral_eval,
    monomial_value,
    simplicial_coefficient,
    tanh_sinh_nodes,
)
from zetalattice.terms import Pattern, expand, term


def rational_point(rng, w):
    # distinct coordinates, so no denominator of the forms can vanish
    return [Rat(x, 257) for x in rng.sample(range(1, 256), w)]


# ---------------------------------------------------------------------------
# cube integrals


def test_integral_recovers_zeta2():
    rep = integral_eval(term([(1, 1)], [2]))
    assert abs(rep.value - math.pi**2 / 6) < 1e-4


def test_integral_reports_its_real_rule_and_no_estimate_it_lacks():
    zeta2 = term([(1, 1)], [2])
    for nodes, used in ((3, 7), (7, 7), (8, 9)):
        rep = integral_eval(zeta2, nodes)
        assert rep.cutoff == used == len(tanh_sinh_nodes(nodes)[0])
        if used == 7:
            # the coarse rule is the same 7-point rule: nothing to compare
            assert rep.estimated_error == math.inf
        else:
            assert abs(rep.value - math.pi**2 / 6) < rep.estimated_error < 0.1


def test_integral_agrees_with_the_series():
    for rows, exps in [
        ([(1, 2)], [1, 1]),
        ([(1, 1)], [3]),
        ([(1, 2), (2, 3)], [1, 1, 1]),
        ([(1, 1), (2, 2)], [2, 2]),
    ]:
        t = term(rows, exps)
        lhs = integral_eval(t)
        rhs = eval_term(t)
        gap = abs(lhs.value - rhs.value)
        bar = 5 * (lhs.estimated_error + rhs.estimated_error) + 1e-6
        assert gap < bar, (t, gap, bar)


def prefix_loop_ts_value(W, rows, measure_exponents, count):
    """The former tensor rule, kept as a reference: a Python loop over the
    nodes of all but the last two variables, an n x n block for those two."""
    x, wts, omx = tanh_sinh_nodes(count)
    n = len(x)
    lx = np.log1p(-omx)
    xm = [x ** float(m) for m in measure_exponents]

    if W == 1:
        vals = np.ones(n)
        for a, b in rows:
            vals = vals / (-np.expm1(lx))
        return float(np.sum(wts * xm[0] * vals))

    X = lx[:, None]
    Y = lx[None, :]
    WXY = wts[:, None] * wts[None, :]
    MX = xm[W - 2][:, None]
    MY = xm[W - 1][None, :]
    pieces = []
    for prefix in itertools.product(range(n), repeat=W - 2):
        wpre = 1.0
        mpre = 1.0
        for c, idx in enumerate(prefix):
            wpre *= wts[idx]
            mpre *= xm[c][idx]
        block = np.ones((n, n))
        for a, b in rows:
            S = 0.0
            for c in range(a, b + 1):
                if c - 1 < W - 2:
                    S += lx[prefix[c - 1]]
            if a <= W - 1 <= b:
                S = S + X
            if a <= W <= b:
                S = S + Y
            block = block / (-np.expm1(S))
        pieces.append(wpre * mpre * float(np.sum(WXY * MX * MY * block)))
    return math.fsum(pieces)


def outer_sum_ts_value(pattern, rule):
    """The former contracted rule, kept as a reference: the same multiset
    axes, blocks and contraction as _ts_value, but every row table built as
    -expm1 over the outer sum of its axes' log sums."""
    x, wts, omx = rule
    n = len(x)
    lx = np.log1p(-omx)
    sizes = {}
    for mask in pattern.cover:
        sizes[mask] = sizes.get(mask, 0) + 1
    masks, logs, weights = [], [], []
    for mask, g in sizes.items():
        vec = wts * x ** float(bin(mask).count("1") - 1)
        while g:
            size = max(
                [k for k in range(2, g + 1) if math.comb(n + k - 1, k) <= _CHUNK],
                default=1,
            )
            s, w = _multisets(lx, vec, size)
            masks.append(mask)
            logs.append(s)
            weights.append(w)
            g -= size

    def table(parts, numerator=1.0):
        S = parts[0].copy()
        for p in parts[1:]:
            S = np.add.outer(S, p)
        np.expm1(S, out=S)
        return np.divide(-numerator, S, out=S)

    rows = [
        [i for i, mask in enumerate(masks) if mask >> j & 1]
        for j in range(pattern.depth)
    ]
    walked = sorted((r for r in rows if r[0] == 0), key=len, reverse=True)
    fixed = [r for r in rows if r[0] != 0]
    widest = walked[0][1:]
    M = np.zeros([len(logs[i]) for i in widest])
    block = max(1, _CHUNK // M.size)
    for lo in range(0, len(logs[0]), block):
        s0 = logs[0][lo : lo + block]
        w0 = weights[0][lo : lo + block].reshape((-1,) + (1,) * M.ndim)
        product = table([s0] + [logs[i] for i in widest], w0)
        for r in walked[1:]:
            T = table([s0] + [logs[i] for i in r[1:]])
            product *= T.reshape(T.shape + (1,) * (product.ndim - T.ndim))
        M += product.sum(axis=0)

    letters = [chr(ord("a") + i) for i in range(len(masks))]
    subscripts = ",".join(
        letters[1:] + ["".join(letters[i] for i in r) for r in fixed + [widest]]
    ) + "->"
    tables = [table([logs[i] for i in r]) for r in fixed]
    return float(np.einsum(subscripts, *weights[1:], *tables, M, optimize="greedy"))


def test_product_tables_match_the_outer_sum_rule_on_the_corpus(corpus200):
    # every term of corpus200 that the benchmark integrates, at its default
    # node count: building 1 - P from products moves values only by rounding
    small = [t for t in corpus200 if t.weight <= 4]
    assert len(small) == 31
    for t in small:
        pattern = expand(t)
        rule = tanh_sinh_nodes(DEFAULT_NODE_COUNTS[t.weight])
        want = outer_sum_ts_value(pattern, rule)
        got = _ts_value(pattern, rule)
        assert abs(got - want) <= 1e-13 * abs(want), (t, got, want)


def test_product_built_one_minus_p_is_accurate_at_the_faces():
    # at the nodes nearest 1, where 1 - P is a few ulps of 1, the product
    # form agrees with -expm1 of the summed logs to a few ulps
    x, _, omx = tanh_sinh_nodes(49)
    lx = np.log1p(-omx[-6:])
    axis = (np.exp(lx), -np.expm1(lx))
    assert axis[1].max() < 1e-7 and axis[1].min() < 1e-14
    for k in (2, 3, 4):
        got = _one_minus([axis] * k)
        S = lx
        for _ in range(k - 1):
            S = np.add.outer(S, lx)
        want = -np.expm1(S)
        assert got.shape == want.shape == (6,) * k
        assert (np.abs(got - want) <= 4 * np.finfo(float).eps * want).all()


@pytest.mark.parametrize(
    "width, rows",
    [
        (1, ((1, 1),)),
        (2, ((1, 2),)),
        (2, ((1, 1), (1, 2))),
        (3, ((1, 2), (2, 3))),
        (3, ((2, 2), (1, 3))),
        (4, ((1, 1), (1, 3), (2, 4))),  # a row (1,1) inside a wider pattern
        (4, ((1, 2), (3, 4))),  # disjoint rows
        (4, ((1, 4), (2, 4))),
        (5, ((1, 5), (2, 3), (4, 5))),  # a full-width row
        (5, ((1, 2), (2, 4), (3, 5))),
        # columns of equal cover share one axis over multisets of nodes
        (3, ((1, 3),)),  # a group of 3
        (4, ((1, 4),)),  # a group of 4
        (4, ((1, 2), (1, 4))),  # two groups of 2
        (3, ((1, 3), (2, 2))),  # columns 1 and 3: a group that is not contiguous
        (5, ((1, 5), (2, 4))),  # groups of 2 (columns 1, 5) and 3 (columns 2-4)
    ],
)
def test_contracted_rule_matches_the_prefix_loop(width, rows):
    coverage = [sum(a <= c <= b for a, b in rows) for c in range(1, width + 1)]
    measure_exponents = [k - 1 for k in coverage]
    for count in (7, 9, 21):
        want = prefix_loop_ts_value(width, rows, measure_exponents, count)
        got = _ts_value(Pattern(width, rows), tanh_sinh_nodes(count))
        assert abs(got - want) <= 1e-13 * abs(want), (count, got, want)


def test_a_split_group_matches_the_prefix_loop():
    # at 49 nodes the C(52, 4) multisets of one group of 4 columns pass
    # _CHUNK, so the group is summed as a multiset axis of 3 and one of 1
    assert math.comb(52, 4) > _CHUNK >= math.comb(51, 3)
    want = prefix_loop_ts_value(4, ((1, 4),), [0, 0, 0, 0], 49)
    got = _ts_value(Pattern(4, ((1, 4),)), tanh_sinh_nodes(49))
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_zeta4_integral_stays_below_a_full_tensor():
    # one group of 4 columns at the default 49 nodes: blocks of the multiset
    # axis, never the 49^4 points of the full tensor
    tracemalloc.start()
    try:
        rep = integral_eval(term([(1, 1)], [4]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cutoff == 49
    assert abs(rep.value - math.pi**4 / 90) < 1e-10
    assert peak < 8e6, peak


def test_integral_tables_stay_below_a_full_tensor():
    # one n^(W-1) table is 0.9 MB at 49 nodes; the full 49^4 tensor is 46 MB
    tracemalloc.start()
    try:
        rep = integral_eval(term([(1, 4), (2, 4)], [1, 1, 1, 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cutoff == 49
    assert peak < 8e6, peak


def test_integral_refuses_divergent_terms():
    with pytest.raises(DivergentSeries):
        integral_eval(term([(1, 2), (1, 3), (2, 3)], [1, 1, 1]))


def test_integral_refuses_oversized_tables_before_tabulating():
    # weight 9 at the default 21 nodes: tables of up to 21^8 entries
    t = term([(1, 8)], [1, 1, 1, 1, 1, 1, 1, 2])
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="weight 9 at 21 nodes"):
            integral_eval(t)
        with pytest.raises(ParseError, match="weight 2 at"):
            integral_eval(term([(1, 1)], [2]), TABLE_ENTRY_LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_integral_refuses_on_the_node_count_its_rule_uses():
    # nodes 1-7 all run the 7-point rule, whose weight-9 tables need 7^8
    # entries, and 2048 nodes run 2049, whose weight-3 tables need 2049^2:
    # each is refused, naming that count, before anything is tabulated
    t = term([(k, 9) for k in range(1, 9)], [1] * 9)
    assert t.weight == 9
    tracemalloc.start()
    try:
        for nodes in range(1, 8):
            with pytest.raises(ParseError, match="7-node rule .* 7\\^8 entries"):
                integral_eval(t, nodes)
        with pytest.raises(ParseError, match="2049-node rule .* 2049\\^2 entries"):
            integral_eval(term([(1, 1)], [3]), 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_integrand_is_finite_inside_the_cube():
    # the absorbed integrand is prod x_c^(m_c) / prod (1 - P_j); inside the
    # open cube every P_j < 1, so it is finite there when no m_c is negative
    for rows, exps in [([(1, 2), (2, 3)], [1, 1, 1]), ([(1, 1), (1, 2)], [3, 2])]:
        pattern = expand(term(rows, exps))
        assert len(pattern.cover) == pattern.width == sum(exps)
        # the measure exponent of a column is its coverage minus one
        assert all(bin(mask).count("1") - 1 >= 0 for mask in pattern.cover)


def test_tanh_sinh_rule_is_symmetric_and_positive():
    xs, ws, _ = tanh_sinh_nodes(21)
    assert (ws > 0).all()
    assert abs(xs[0] + xs[-1] - 1.0) < 1e-12  # nodes mirror around 1/2
    # the rule integrates a smooth function on (0,1) to high accuracy
    est = float((ws * xs**2).sum())
    assert abs(est - 1 / 3) < 1e-6


# ---------------------------------------------------------------------------
# dlog expansion of the simplicial form


def test_forest_monomial_counts():
    assert len(forest_expand(Pattern(3, ((1, 2), (2, 3))))) == 1
    assert len(forest_expand(Pattern(2, ((1, 2), (2, 2))))) == 2
    assert len(forest_expand(Pattern(3, ((1, 1), (2, 3), (3, 3))))) == 2


def test_forest_expansion_is_an_exact_identity():
    rng = random.Random(11)
    pats = [
        Pattern(3, ((1, 2), (2, 3))),
        Pattern(2, ((1, 2), (2, 2))),
        Pattern(3, ((1, 1), (2, 3), (3, 3))),
        Pattern(4, ((1, 2), (2, 3), (3, 4))),
        Pattern(4, ((1, 1), (2, 2), (3, 4))),
    ]
    for pat in pats:
        monos = forest_expand(pat)
        for _ in range(5):
            p = rational_point(rng, pat.width)
            assert simplicial_coefficient(pat, p) == sum(
                monomial_value(m, p) for m in monos
            )


def test_forest_expand_refuses_dependent_rows():
    with pytest.raises(CycleDetected):
        forest_expand(Pattern(2, ((1, 1), (2, 2), (1, 2))))
