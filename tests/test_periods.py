import math
import random
from fractions import Fraction as Rat

import pytest

from zetalattice.errors import CycleDetected, DivergentSeries
from zetalattice.numeric import eval_term
from zetalattice.periods import (
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


def test_integral_refuses_divergent_terms():
    with pytest.raises(DivergentSeries):
        integral_eval(term([(1, 2), (1, 3), (2, 3)], [1, 1, 1]))


def test_integrand_is_finite_inside_the_cube():
    ci = cubical_integrand(term([(1, 2), (2, 3)], [1, 1, 1]))
    v = ci.evaluate([0.3, 0.5, 0.7])
    assert math.isfinite(v) and v > 0


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
