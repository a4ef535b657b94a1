from fractions import Fraction as Rat

import pytest

import zetalattice as zl
from zetalattice.engine import _aux_column
from zetalattice.errors import IntervalBroken, RowsDontShareStart, RowsNotAdjacent
from zetalattice.linalg import find_circuit
from zetalattice.moves import forward_hp, inverse_hp, pf_step
from zetalattice.terms import Term, canonical_term, kernel_at, term

POINTS = [
    [Rat(3, 7), Rat(5, 11)],
    [Rat(1, 2), Rat(9, 13)],
    [Rat(8, 5), Rat(2, 3)],
]


# ---------------------------------------------------------------------------
# partial fractions: exact kernel identity


def test_pf_step_preserves_the_kernel_exactly():
    t = term([(1, 2), (2, 3)], [1, 1, 1])
    cir = find_circuit(t.pattern.columns())
    assert cir is not None and set(cir.members) == {0, 1, 2}
    outs = pf_step(t, cir, pivot=2)
    for p in POINTS:
        assert sum(kernel_at(o, p) for o in outs) == kernel_at(t, p)
    assert all(o.weight == t.weight for o in outs)


def test_pf_step_drops_an_exhausted_column():
    # both non-pivot members carry exponent 1, so both branches lose a column
    t = term([(1, 2), (2, 3)], [1, 1, 2])
    cir = find_circuit(t.pattern.columns())
    outs = pf_step(t, cir, pivot=2)
    assert sorted(o.width for o in outs) == [2, 2]
    for p in POINTS:
        assert sum(kernel_at(o, p) for o in outs) == kernel_at(t, p)


def test_pf_step_guards():
    from zetalattice.errors import ExponentUnderflow, InvalidPivot

    t = term([(1, 2), (2, 3)], [1, 1, 1])
    cir = find_circuit(t.pattern.columns())
    with pytest.raises(InvalidPivot):
        pf_step(t, cir, pivot=17)
    # an exponent-0 column (aux) is a legal pivot but never a legal donor
    from zetalattice.terms import Pattern

    aux = Term(Pattern(3, ((1, 2), (2, 3))), (0, 1, 1), Rat(1))
    with pytest.raises(ExponentUnderflow):
        pf_step(aux, cir, pivot=2)


# ---------------------------------------------------------------------------
# forward split: exact partition of the truncated lattice


def box_sum(t: Term, region) -> Rat:
    total = Rat(0)
    for point in region:
        total += kernel_at(t, [Rat(x) for x in point])
    return total


def test_forward_hp_partitions_the_box_exactly():
    B = 7
    t = term([(1, 1), (2, 2)], [2, 3])
    o1, o2, o3 = forward_hp(t, 0, 1)
    lhs = box_sum(t, [(x, y) for x in range(1, B + 1) for y in range(1, B + 1)])
    # n_a > n_b maps to (u, v) = (n_b, n_a - n_b); n_a < n_b symmetrically;
    # the diagonal keeps one variable
    s1 = box_sum(o1, [(u, v) for u in range(1, B + 1) for v in range(1, B - u + 1)])
    s2 = box_sum(o2, [(u, v) for u in range(1, B + 1) for v in range(1, B - u + 1)])
    s3 = box_sum(o3, [(u,) for u in range(1, B + 1)])
    assert lhs == s1 + s2 + s3


def test_forward_hp_layout_and_guards():
    t = term([(1, 1), (2, 2)], [2, 2])
    o1, o2, o3 = forward_hp(t, 0, 1)
    assert o1.pattern.rows == ((1, 2), (1, 1))
    assert o2.pattern.rows == ((1, 2), (2, 2))
    assert o3.pattern.rows == ((1, 2),)
    with pytest.raises(RowsNotAdjacent):
        forward_hp(term([(1, 1), (3, 3), (2, 2)], [2, 2, 2]), 0, 1)
    with pytest.raises(RowsNotAdjacent):
        forward_hp(t, 0, 0)


# ---------------------------------------------------------------------------
# inverse split: exact inverse of the forward one


def test_inverse_hp_is_inverted_by_forward_hp():
    t = term([(1, 2), (1, 1), (3, 3)], [1, 1, 2])
    o1, o2, o3 = inverse_hp(t, 0, 1)
    assert o1.coefficient == t.coefficient
    assert o2.coefficient == -t.coefficient
    assert o3.coefficient == -t.coefficient
    back, b2, b3 = forward_hp(o1, 0, 1)
    assert back == t
    assert b2 == o2.scaled(-1)
    assert b3 == o3.scaled(-1)


def test_inverse_hp_requires_shared_start():
    with pytest.raises(RowsDontShareStart):
        inverse_hp(term([(1, 2), (2, 3)], [1, 1, 1]), 0, 1)
    with pytest.raises(RowsDontShareStart):
        inverse_hp(term([(1, 2), (2, 3)], [1, 1, 1]), 0, 0)
    # row b must end strictly before row a
    with pytest.raises(RowsDontShareStart):
        inverse_hp(term([(1, 1), (1, 2)], [2, 1]), 0, 1)


# ---------------------------------------------------------------------------
# a merge's auxiliary column


def test_aux_column_keeps_kernel_and_marks_cover():
    t = term([(1, 1), (2, 2)], [2, 2])
    c1 = canonical_term(forward_hp(t, 0, 1)[0])  # rows (1,1),(1,2)
    aux_t = _aux_column(c1, 1, 2)
    pos = 1  # inserted before column i = 1
    assert aux_t.exponents[pos - 1] == 0
    assert aux_t.width == c1.width + 1
    # kernel unchanged: the new column carries exponent zero
    for p in POINTS:
        assert kernel_at(aux_t, p) == kernel_at(c1, p)
    # covered exactly by the extended row
    cover = {r for r in range(aux_t.depth) if aux_t.pattern.cover[pos - 1] >> r & 1}
    ends = {aux_t.pattern.rows[r][1] for r in cover}
    assert len(cover) == 1 and max(ends) == aux_t.width


def test_aux_column_leaves_left_rows_alone():
    t = term([(1, 1), (2, 3), (2, 2)], [2, 1, 1])
    aux_t = _aux_column(t, 2, 3)
    assert aux_t.exponents[1] == 0
    assert aux_t.pattern.rows[0] == (1, 1)
    assert aux_t.pattern.rows[1] == (2, 4)
    assert aux_t.pattern.rows[2] == (3, 3)
    for p in [[Rat(2, 5), Rat(1, 3), Rat(4, 7)]]:
        assert kernel_at(aux_t, p) == kernel_at(t, p)


def test_aux_column_rejects_wrong_shapes():
    with pytest.raises(IntervalBroken):
        _aux_column(term([(1, 2), (2, 3)], [1, 1, 1]), 1, 2)


def test_aux_circuit_runs_through_the_aux_column():
    t = term([(1, 1), (2, 2)], [2, 2])
    c1 = canonical_term(forward_hp(t, 0, 1)[0])
    aux_t = _aux_column(c1, 1, 2)
    pos = 1  # inserted before column i = 1
    cir = find_circuit(aux_t.pattern.columns(), must_contain=pos - 1)
    assert (pos - 1) in cir.members
    cols = aux_t.pattern.columns()
    for r in range(aux_t.depth):
        assert sum(cir.coefficient_of(m) * cols[m][r] for m in cir.members) == 0
