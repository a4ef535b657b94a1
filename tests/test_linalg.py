from fractions import Fraction

import pytest

from zetalattice.linalg import CircuitDependency, find_circuit, rank


def test_rank_counts_independent_columns():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 3
    assert rank([]) == 0


def test_independent_columns_have_no_circuit():
    assert find_circuit([(1, 0, 0), (1, 1, 0), (1, 1, 1)]) is None


def test_circuit_is_minimal_and_normalized():
    # c3 = c1 + c2, and c4 is independent filler
    cols = [(1, 0), (0, 1), (1, 1), (2, 3)]
    cir = find_circuit(cols)
    assert cir is not None
    assert set(cir.members) == {0, 1, 2}
    # normalized: coefficient of the smallest member is +1
    assert cir.coefficient_of(min(cir.members)) == 1
    for r in range(2):
        assert (
            sum(
                cir.coefficient_of(m) * cols[m][r]
                for m in cir.members
            )
            == 0
        )


def test_circuit_prefers_earliest_dependency():
    # two duplicated columns: the circuit on {0, 1} comes before {2, 3}
    cols = [(1, 1), (1, 1), (0, 1), (0, 1)]
    cir = find_circuit(cols)
    assert set(cir.members) == {0, 1}


def test_circuit_coefficients_are_exact_fractions():
    cols = [(2, 0), (0, 3), (1, 1)]
    cir = find_circuit(cols)
    assert set(cir.members) == {0, 1, 2}
    combo = {m: cir.coefficient_of(m) for m in cir.members}
    assert combo[0] == 1
    assert combo[1] == Fraction(2, 3)
    assert combo[2] == -2


def test_circuit_through_a_required_column():
    cols = [(1, 0), (0, 1), (1, 1), (5, 0)]
    cir = find_circuit(cols, must_contain=3)
    assert cir is not None and 3 in cir.members
    for r in range(2):
        assert (
            sum(cir.coefficient_of(m) * cols[m][r] for m in cir.members) == 0
        )
    assert find_circuit([(1, 0), (0, 1)], must_contain=1) is None


def test_missing_member_raises():
    cir = CircuitDependency((0, 2), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        cir.coefficient_of(1)
