import random
from fractions import Fraction

import pytest

from zetalattice import engine
from zetalattice.corpus import random_corpus
from zetalattice.errors import ParkedTermsError, RankDeficient, ZeroColumn
from zetalattice.linalg import CircuitDependency, find_circuit
from zetalattice.terms import Pattern, validate_pattern


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


def test_missing_member_raises():
    cir = CircuitDependency((0, 2), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        cir.coefficient_of(1)


# ---------------------------------------------------------------------------
# integer elimination against elimination over Fraction


def reference_circuit(columns, must_contain=None):
    """Gaussian elimination over Fraction: the circuit find_circuit must
    return, as (members, coefficients) or None, and the rank of the columns
    (meaningful without ``must_contain``)."""
    basis = []  # (reduced vector, its expansion over the input columns)

    def reduce(j, col):
        v, rep = [Fraction(x) for x in col], {j: Fraction(1)}
        for bv, brep in basis:
            p = next(i for i, x in enumerate(bv) if x)
            f = v[p] / bv[p]
            if f:
                v = [x - f * y for x, y in zip(v, bv)]
                for k, c in brep.items():
                    rep[k] = rep.get(k, 0) - f * c
        if any(v):
            basis.append((v, rep))
            return None
        members = tuple(sorted(k for k, c in rep.items() if c))
        return members, tuple(rep[m] / rep[members[0]] for m in members)

    circuit = None
    for j, col in enumerate(columns):
        if j == must_contain:
            continue
        if not any(col):
            if must_contain is None and circuit is None:
                circuit = ((j,), (Fraction(1),))
            continue
        rep = reduce(j, col)
        if must_contain is None and circuit is None:
            circuit = rep
    if must_contain is not None:
        target = columns[must_contain]
        if any(target):
            circuit = reduce(must_contain, target)
        else:
            circuit = ((must_contain,), (Fraction(1),))
    return circuit, len(basis)


def random_columns(rng):
    dim, width = rng.randint(1, 5), rng.randint(1, 7)
    kind = rng.choice(("01", "small", "fraction"))

    def entry():
        if kind == "01":
            return rng.randint(0, 1)
        if kind == "small":
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    cols = [tuple(entry() for _ in range(dim)) for _ in range(width)]
    if rng.random() < 0.2:
        cols[rng.randrange(width)] = (0,) * dim
    return cols


def pair(circuit):
    return circuit and (circuit.members, circuit.coefficients)


def test_integer_elimination_matches_fraction_elimination():
    rng = random.Random(20261018)
    for _ in range(500):
        cols = random_columns(rng)
        want, want_rank = reference_circuit(cols)
        assert pair(find_circuit(cols)) == want, cols
        assert (find_circuit(cols) is None) == (want_rank == len(cols)), cols


def test_the_first_circuit_of_an_aux_term_runs_through_the_aux_column(
    monkeypatch, corpus200, divergent_small
):
    """The merge pivots on the aux column i - 1 of the aux term it builds;
    the plain scan finds the circuit through that column on every merge."""
    aux_terms = set()
    aux_column = engine._aux_column

    def recorded(t, i, j):
        aux_t = aux_column(t, i, j)
        aux_terms.add((aux_t.pattern, i))
        return aux_t

    monkeypatch.setattr(engine, "_aux_column", recorded)
    engine._expansion.cache_clear()  # expand every shape, so every merge runs
    deep4 = random_corpus(seed=11, count=60, max_depth=4, max_weight=7)
    for t in [*corpus200, *deep4, *divergent_small]:
        try:
            engine.reduce_to_mzv(t)
        except ParkedTermsError:
            pass
    assert len(aux_terms) > 30  # distinct aux patterns
    for pattern, i in aux_terms:
        cols = pattern.columns()
        want, _ = reference_circuit(cols, must_contain=i - 1)
        assert pair(find_circuit(cols)) == want, (pattern, i)


def test_validate_pattern_refuses_exactly_the_rank_deficient_patterns():
    rng = random.Random(20261020)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        width, depth = rng.randint(1, 5), rng.randint(1, 5)
        points = range(1, width + 1)
        rows = [tuple(sorted(rng.choices(points, k=2))) for _ in range(depth)]
        _, rank = reference_circuit(Pattern(width, tuple(rows)).columns())
        try:
            validate_pattern(rows, width)
            refused = False
        except ZeroColumn:
            continue
        except RankDeficient:
            refused = True
        assert refused == (rank < depth), rows
        seen[refused] += 1
    assert min(seen.values()) > 100, seen
