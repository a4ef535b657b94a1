import gc
from fractions import Fraction as Rat

import pytest

import zetalattice as zl
from zetalattice.engine import reduce_to_mzv
from zetalattice.errors import (
    IntervalBroken,
    MalformedInterval,
    NotChain,
    RankDeficient,
    ZeroColumn,
)
from zetalattice.terms import (
    TERM_KEY_BOUND,
    Pattern,
    Term,
    _term_key,
    canonical_term,
    converges,
    direct_sum,
    expand,
    from_mzv,
    is_chain,
    kernel_at,
    parse_term,
    reflect,
    stuffle_words,
    subset_masses,
    term,
    term_key,
    term_to_json,
    to_mzv,
)


# ---------------------------------------------------------------------------
# pattern validation


def test_validate_rejects_zero_column():
    with pytest.raises(ZeroColumn):
        zl.validate_pattern([(1, 1), (1, 2)], 3)


def test_validate_rejects_bad_interval():
    with pytest.raises(MalformedInterval):
        zl.validate_pattern([(2, 1)], 2)
    with pytest.raises(MalformedInterval):
        zl.validate_pattern([(0, 1)], 1)


def test_validate_rejects_dependent_rows():
    # rows x, y, x+y: the third column set is forced dependent
    with pytest.raises(RankDeficient):
        zl.validate_pattern([(1, 1), (2, 2), (1, 2)], 2)
    # equal rows are always dependent
    with pytest.raises(RankDeficient):
        zl.validate_pattern([(1, 2), (1, 2)], 2)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_merges_duplicate_columns():
    t = term([(1, 2)], [1, 1])
    ct = canonical_term(t)
    assert ct.width == 1
    assert ct.exponents == (2,)
    assert kernel_at(t, [Rat(3, 7)]) == kernel_at(ct, [Rat(3, 7)])


def test_canonical_sorts_rows_and_is_stable():
    t = term([(2, 3), (1, 2)], [1, 1, 1])
    ct = canonical_term(t)
    assert ct.pattern.rows == ((1, 2), (2, 3))
    assert canonical_term(ct) == ct


def test_term_key_ignores_presentation():
    a = term([(1, 2), (2, 3)], [1, 1, 1])
    b = term([(2, 3), (1, 2)], [1, 1, 1])
    assert term_key(canonical_term(a)) == term_key(canonical_term(b))


def test_interned_keeps_one_copy_and_is_bounded(monkeypatch):
    monkeypatch.setattr(zl.terms, "_interned", {})
    monkeypatch.setattr(zl.terms, "INTERN_BOUND", 2)
    interned = zl.terms.interned
    a, b = tuple([1, 2]), tuple([1, 2])
    assert a is not b
    assert interned(a) is a and interned(b) is a
    interned(Pattern(2, ((1, 2),)))
    # full: the next new value clears the table, and b is stored afresh
    interned((3,))
    assert zl.terms._interned == {(3,): (3,)}
    assert interned(b) is b


def test_cover_lists_the_rows_of_each_column():
    pat = Pattern(5, ((2, 4), (1, 3), (4, 5), (3, 3)))
    assert pat.cover == (0b0010, 0b0011, 0b1011, 0b0101, 0b0100)
    for c, column in enumerate(pat.columns(), start=1):
        assert list(column) == [int(a <= c <= b) for a, b in pat.rows]
    assert len(pat.columns()) == pat.width


def bubble_canonical(t):
    """The former canonical form: sort rows, then repeatedly pull the first
    later copy of a column's cover next to it and merge adjacent copies."""
    rows = sorted(t.pattern.rows)
    cover = [
        frozenset(i for i, (a, b) in enumerate(rows) if a <= c <= b)
        for c in range(1, t.width + 1)
    ]
    exps = list(t.exponents)
    cols = list(range(t.width))
    merged = True
    while merged:
        merged = False
        for p in range(len(cols)):
            for q in range(p + 1, len(cols)):
                if cover[cols[p]] != cover[cols[q]]:
                    continue
                if q == p + 1:
                    exps[cols[p]] += exps[cols[q]]
                    del cols[q]
                else:
                    cols.insert(p + 1, cols.pop(q))
                merged = True
                break
            if merged:
                break
    new_exps = tuple(exps[c] for c in cols)
    if any(k < 1 for k in new_exps):
        raise IntervalBroken("zero-exponent column")
    new_rows = []
    for i in range(len(rows)):
        pos = [j + 1 for j, c in enumerate(cols) if i in cover[c]]
        if not pos or pos != list(range(pos[0], pos[-1] + 1)):
            raise IntervalBroken(f"row {i} lost contiguity")
        new_rows.append((pos[0], pos[-1]))
    return Term(Pattern(len(cols), tuple(new_rows)), new_exps, t.coefficient)


@pytest.fixture(scope="module")
def record_terms(corpus200):
    """Inputs and raw outputs of every record of the first 20 corpus
    reductions."""
    terms = []
    for t in corpus200[:20]:
        for rec in reduce_to_mzv(t).trace.records:
            terms += [rec.input, *rec.outputs]
    return terms


def outcome(canon, t):
    try:
        return canon(t)
    except IntervalBroken:
        return "IntervalBroken"


# Both ways canonical_term breaks, which no record term reaches: a column
# of exponent 0 with a cover of its own, and a row that covers no column.
# (Merging columns of equal cover cannot split a row interval: every row
# covering both copies covers what lies between.)
BROKEN = [
    Term(Pattern(2, ((1, 1), (1, 2))), (1, 0), Rat(1)),
    Term(Pattern(2, ((1, 2), (2, 1))), (1, 1), Rat(1)),
]


def test_canonical_term_matches_the_bubble_merge(record_terms):
    with pytest.raises(IntervalBroken, match="zero-exponent"):
        canonical_term(BROKEN[0])
    with pytest.raises(IntervalBroken, match="lost contiguity"):
        canonical_term(BROKEN[1])
    broken = 0
    for t in record_terms + BROKEN:
        got = outcome(canonical_term, t)
        assert got == outcome(bubble_canonical, t), t
        broken += got == "IntervalBroken"
    assert 0 < broken < len(record_terms)


def test_term_key_needs_no_canonical_form(record_terms):
    for t in record_terms:
        ct = outcome(canonical_term, t)
        if ct != "IntervalBroken":
            assert term_key(t) == term_key(ct), t


def test_the_term_key_table_is_exact_and_bounded(record_terms):
    for t in record_terms:
        term_key(t)
    for t in record_terms:
        assert term_key(t) == _term_key.__wrapped__(t.pattern, t.exponents), t
    info = _term_key.cache_info()
    assert info.maxsize == TERM_KEY_BOUND
    assert 0 < info.currsize <= info.maxsize


def test_term_key_ignores_zero_exponent_columns():
    # term_key is the kernel's identity, and L^0 = 1: a column of exponent 0
    # changes no kernel, whether or not it shares a cover
    aux = [
        BROKEN[0],
        Term(Pattern(3, ((2, 2), (1, 3))), (0, 2, 2), Rat(1)),
        Term(Pattern(3, ((1, 3), (2, 3))), (1, 0, 2), Rat(1)),
    ]
    # the last one without its zero column, rows in the same order
    assert term_key(aux[2]) == term_key(term([(1, 2), (2, 2)], [1, 2]))
    for t in aux:
        depth, pairs = term_key(t)
        assert depth == t.depth
        assert len(pairs) < t.width and all(k > 0 for _, k in pairs)
        assert sum(k for _, k in pairs) == t.weight


def test_expand_unfolds_exponents_to_unit_columns():
    t = term([(1, 1), (1, 2)], [2, 1])
    pat = expand(t)
    assert pat.width == 3
    # expanded matrix keeps rows as intervals
    for a, b in pat.rows:
        assert 1 <= a <= b <= 3


# ---------------------------------------------------------------------------
# convergence: the subset test, not just per-row mass


def test_single_zeta_convergence_boundary():
    assert not converges(term([(1, 1)], [1]))
    assert converges(term([(1, 1)], [2]))


def test_row_mass_two_is_enough_at_depth_two():
    # at depth <= 2 every row having expanded mass >= 2 already suffices
    for rows, ks in [
        ([(1, 2), (2, 3)], [1, 1, 1]),
        ([(1, 2), (1, 3)], [1, 1, 1]),
        ([(1, 2), (2, 4)], [1, 1, 1, 1]),
    ]:
        assert converges(term(rows, ks))


def test_subset_masses_lists_every_row_set():
    t = term([(1, 2), (2, 3)], [1, 2, 3])
    assert list(subset_masses(t)) == [(1, 1, 3), (2, 1, 5), (3, 2, 6)]
    assert len(list(subset_masses(term([(1, 3), (2, 3), (3, 3)], [1, 1, 2])))) == 7


def test_three_overlapping_rows_can_pool_too_little_mass():
    # every row covers two columns of unit mass, yet the union of all three
    # rows covers only three columns: the full sum still diverges (the
    # per-row test alone would wrongly accept this one)
    t = term([(1, 2), (1, 3), (2, 3)], [1, 1, 1])
    assert not converges(t)
    # one more unit anywhere fixes it
    assert converges(term([(1, 2), (1, 3), (2, 3)], [1, 1, 2]))
    assert converges(term([(1, 2), (1, 3), (2, 3)], [2, 1, 1]))


def test_divergence_from_a_middle_row():
    # x, x+y, x+z with all the mass on x: the y and z directions are each
    # harmonically flat
    assert not converges(term([(1, 3), (2, 2), (3, 3)], [3, 1, 1]))


# ---------------------------------------------------------------------------
# chains, words, round trips


def test_staircase_is_a_chain_and_reads_reversed():
    t = from_mzv((3, 1, 2))
    assert t.pattern.rows == ((1, 3), (2, 3), (3, 3))
    assert is_chain(t)
    word, coeff = to_mzv(t)
    assert word == (3, 1, 2)
    assert coeff == 1


def test_nested_chain_need_not_be_a_staircase():
    # rows (1,3) > (2,3) > (2,2): nested, so a chain, but not the staircase
    t = term([(1, 3), (2, 3), (2, 2)], [1, 1, 1])
    assert is_chain(t)
    assert t.pattern.rows != ((1, 3), (2, 3), (3, 3))
    word, coeff = to_mzv(t)
    # column mass sorted by covering count: innermost row count first
    assert word == (1, 1, 1)
    assert coeff == 1


def test_chain_word_collects_column_mass_by_cover_depth():
    t = term([(1, 3), (2, 3), (2, 2)], [4, 1, 1])
    word, _ = to_mzv(t)
    assert word == (1, 1, 4)


def test_disjoint_rows_are_not_a_chain():
    t = term([(1, 1), (2, 2)], [2, 2])
    assert not is_chain(t)
    with pytest.raises(NotChain):
        to_mzv(t)


def test_from_mzv_round_trips_all_small_words():
    words = [(2,), (3,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (4, 1, 2)]
    for w in words:
        t = from_mzv(w)
        got, coeff = to_mzv(t)
        assert (got, coeff) == (w, 1)


# ---------------------------------------------------------------------------
# reflection and direct sums


def test_reflect_is_an_exact_involution():
    t = term([(1, 2), (2, 3)], [1, 2, 1], Rat(3, 5))
    assert reflect(reflect(t)) == t


def test_reflect_reverses_column_order():
    t = term([(1, 2), (2, 3)], [1, 2, 3])
    r = reflect(t)
    assert sorted(r.exponents) == sorted(t.exponents)
    assert r.exponents == (3, 2, 1)


def test_direct_sum_kernel_factors():
    a = term([(1, 1)], [2])
    b = term([(1, 2), (2, 3)], [1, 1, 1])
    s = direct_sum(a, b)
    assert s.depth == a.depth + b.depth
    assert s.weight == a.weight + b.weight
    pa = [Rat(2, 3)]
    pb = [Rat(5, 7), Rat(1, 4)]
    assert kernel_at(s, pa + pb) == kernel_at(a, pa) * kernel_at(b, pb)


# ---------------------------------------------------------------------------
# quasi-shuffle product


def test_stuffle_of_two_single_letters():
    assert stuffle_words((2,), (2,)) == {(2, 2): 2, (4,): 1}
    assert stuffle_words((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}


def test_stuffle_weight_is_additive():
    comb = stuffle_words((2, 1), (3, 1))
    assert all(sum(w) == 7 for w in comb)
    # total multiplicity: binomial interleavings plus collision terms
    assert sum(comb.values()) == 13


def test_stuffle_is_commutative():
    assert stuffle_words((2, 1), (3,)) == stuffle_words((3,), (2, 1))


def test_stuffle_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        stuffle_words((2,), (2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# JSON round trips


def test_term_json_round_trip():
    t = term([(1, 2), (2, 3)], [1, 2, 1], Rat(-7, 3))
    back = parse_term(term_to_json(t))
    assert back == t


def test_parse_term_accepts_string_form():
    import json

    t = term([(1, 1)], [2])
    s = json.dumps(term_to_json(t))
    assert parse_term(s) == t

