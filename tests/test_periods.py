import itertools
import math
import random
import tracemalloc
from fractions import Fraction as Rat

import numpy as np
import pytest

from zetalattice.errors import CycleDetected, DivergentSeries, ParseError
from zetalattice.numeric import eval_term
from zetalattice.periods import (
    TABLE_ENTRY_LIMIT,
    CubicalIntegrand,
    _ts_value,
    cubical_integrand,
    forest_expand,
    integral_eval,
    monomial_value,
    simplicial_coefficient,
    tanh_sinh_nodes,
)
from zetalattice.terms import Pattern, term


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


def prefix_loop_ts_value(ci, count):
    """The former tensor rule, kept as a reference: a Python loop over the
    nodes of all but the last two variables, an n x n block for those two."""
    W = ci.width
    x, wts, omx = tanh_sinh_nodes(count)
    n = len(x)
    lx = np.log1p(-omx)
    xm = [x ** float(m) for m in ci.measure_exponents]

    if W == 1:
        vals = np.ones(n)
        for a, b in ci.rows:
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
        for a, b in ci.rows:
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
    ],
)
def test_contracted_rule_matches_the_prefix_loop(width, rows):
    coverage = [sum(a <= c <= b for a, b in rows) for c in range(1, width + 1)]
    ci = CubicalIntegrand(width, rows, tuple(k - 1 for k in coverage), Rat(1))
    for count in (7, 9, 21):
        want = prefix_loop_ts_value(ci, count)
        got = _ts_value(ci, tanh_sinh_nodes(count))
        assert abs(got - want) <= 1e-13 * abs(want), (count, got, want)


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


def test_integrand_is_finite_inside_the_cube():
    # the absorbed integrand is prod x_c^(m_c) / prod (1 - P_j); inside the
    # open cube every P_j < 1, so it is finite there when no m_c is negative
    for rows, exps in [([(1, 2), (2, 3)], [1, 1, 1]), ([(1, 1), (1, 2)], [3, 2])]:
        ci = cubical_integrand(term(rows, exps))
        assert len(ci.measure_exponents) == ci.width == sum(exps)
        assert all(m >= 0 for m in ci.measure_exponents)


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
