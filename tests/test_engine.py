from fractions import Fraction as Rat

import pytest

from zetalattice.engine import (
    _comp_subterm,
    first_mismatch,
    merge_step,
    reduce_to_mzv,
    split_defect_vanishes,
    trace_replay,
)
from zetalattice.errors import (
    CheckFailed,
    ParkedTermsError,
    ParseError,
    TermBudgetExceeded,
)
from zetalattice.terms import direct_sum, from_mzv, parse_term, term, term_to_json

TORNHEIM = term([(1, 2), (2, 3)], [1, 1, 1])


def test_tornheim_reduces_exactly():
    res = reduce_to_mzv(TORNHEIM, verify=True)
    assert res.combination == {(2, 1): Rat(1), (3,): Rat(1)}
    assert res.input_convergent and res.divergent_cancelled
    assert trace_replay(TORNHEIM, res.trace) == res.combination


def test_zeta2_squared_is_its_own_stuffle():
    t = direct_sum(from_mzv((2,)), from_mzv((2,)))
    res = reduce_to_mzv(t, verify=True)
    assert res.combination == {(2, 2): Rat(2), (4,): Rat(1)}


def test_combination_is_weight_homogeneous():
    t = term([(1, 2), (2, 2), (3, 3)], [1, 2, 2])
    res = reduce_to_mzv(t)
    assert all(sum(w) == t.weight for w in res.combination)
    assert res.divergent_cancelled


def test_reduction_is_deterministic_bytes():
    a = reduce_to_mzv(TORNHEIM)
    b = reduce_to_mzv(TORNHEIM)
    assert a.trace.to_json_lines() == b.trace.to_json_lines()
    assert a.combination == b.combination


def test_budget_is_enforced():
    with pytest.raises(TermBudgetExceeded):
        reduce_to_mzv(TORNHEIM, max_terms=2)
    with pytest.raises(ParseError):
        reduce_to_mzv(TORNHEIM, max_terms=0)


def test_replay_detects_a_dropped_record():
    res = reduce_to_mzv(TORNHEIM)
    broken = res.trace
    first_emit = next(i for i, r in enumerate(broken.records) if r.move == "emit")
    del broken.records[first_emit]
    with pytest.raises(CheckFailed):
        trace_replay(TORNHEIM, broken)


def test_inadmissible_staircase_is_emitted_formally():
    t = from_mzv((1, 2))
    res = reduce_to_mzv(t)
    assert res.combination == {(1, 2): Rat(1)}
    assert not res.input_convergent
    assert not res.divergent_cancelled


def test_divergent_inputs_reduce_formally_and_replay():
    # no split has a vanishing boundary here: the staircase repair runs with
    # the guard waived
    t = term([(1, 1), (2, 2)], [1, 1])
    res = reduce_to_mzv(t, verify=True)
    assert res.combination == {(1, 1): Rat(2), (2,): Rat(1)}
    assert not res.input_convergent
    assert trace_replay(t, res.trace) == res.combination
    # jointly divergent rows: an unguarded inverse split comes first, and
    # the divergent words cancel
    t = term([(1, 2), (1, 3), (2, 3)], [1, 1, 1])
    res = reduce_to_mzv(t, verify=True)
    assert res.combination == {(2, 1): Rat(-1)}
    assert res.trace.records[0].move == "inverse_hp"
    assert not res.input_convergent and res.divergent_cancelled
    assert trace_replay(t, res.trace) == res.combination
    # several unguarded inverse splits: the first candidate in split order,
    # shared start then shorter end, is taken
    t = term([(1, 1), (1, 2), (1, 3), (2, 4)], [1, 1, 1, 1])
    res = reduce_to_mzv(t)
    first = res.trace.records[0]
    assert (first.move, first.params) == ("inverse_hp", {"a": 1, "b": 0})
    assert res.combination == {(1, 1, 1, 1): Rat(1), (2, 2): Rat(2), (4,): Rat(1)}
    assert trace_replay(t, res.trace) == res.combination
    # with the guard waived, a merge is only ever the staircase repair
    for rec in res.trace.records:
        if rec.move != "forward_hp" or "comp_words" in rec.params:
            continue
        a, b = rec.params["a"], rec.params["b"]
        if not split_defect_vanishes(rec.input, a, b):
            assert first_mismatch(rec.input) == (a + 1, b + 1)


# ---------------------------------------------------------------------------
# structural predicates


def test_first_mismatch_spots_non_staircases():
    # a square triangular term passes iff every row m covers m..depth
    assert first_mismatch(term([(1, 3), (2, 3), (3, 3)], [1, 1, 1])) is None
    assert first_mismatch(term([(1, 2), (2, 3), (3, 3)], [1, 1, 1])) == (1, 3)
    # not square, or not triangular: no staircase repair applies
    assert first_mismatch(term([(1, 2), (2, 3)], [1, 1, 1])) is None
    assert first_mismatch(term([(1, 2), (1, 1)], [1, 1])) is None


# ---------------------------------------------------------------------------
# boundary soundness of harmonic splits

S = [(1, 3), (2, 2), (3, 3)]  # long top row over two disjoint short ones


def test_split_defect_vanishes_is_sharp_on_the_hard_shape():
    # pair mass exactly 2 leaves a constant boundary: not sound
    assert not split_defect_vanishes(term(S, [3, 1, 1]), 1, 2)
    # one extra exponent unit on either pair column restores soundness
    assert split_defect_vanishes(term(S, [3, 2, 1]), 1, 2)
    assert split_defect_vanishes(term(S, [3, 1, 2]), 1, 2)
    # merging rows of a convergent term is always sound
    assert split_defect_vanishes(TORNHEIM, 0, 1)


def test_comp_subterm_extracts_the_constant_boundary():
    sub = _comp_subterm(term(S, [3, 1, 1]), 1, 2)
    assert sub is not None
    assert sub.pattern.rows == ((1, 1),)
    assert sub.exponents == (3,)
    # leftover kernel must itself converge
    assert _comp_subterm(term(S, [1, 1, 1]), 1, 2) is None
    # pair rows must be disjoint
    assert _comp_subterm(term(S, [3, 1, 1]), 0, 1) is None


def test_compensated_reduction_of_a_sticky_shape():
    # this input funnels through a split whose boundary does not vanish;
    # the engine must add the compensation words and still verify per step
    t = term([(1, 1), (1, 2), (2, 3)], [2, 1, 2])
    res = reduce_to_mzv(t, verify=True)
    assert res.combination == {
        (2, 1, 2): Rat(-1),
        (2, 2, 1): Rat(-2),
        (3, 2): Rat(1),
        (4, 1): Rat(-1),
        (5,): Rat(2),
    }
    assert any(
        r.params.get("comp_words") for r in res.trace.records
    ), "expected at least one compensated split in the trace"
    assert trace_replay(t, res.trace) == res.combination


def test_merge_step_outputs_share_the_input_weight():
    recs = []
    t = term([(1, 1), (2, 2)], [2, 2])
    expr = merge_step(t, 0, 1, recs.append, None)
    assert all(u.weight == t.weight for u in expr.terms())
    assert recs and recs[0].move == "forward_hp"


def test_parked_terms_are_reported_as_term_json():
    # a depth-4 shape whose split boundaries never cancel
    t = term([(1, 1), (1, 4), (2, 3), (3, 5)], [2, 1, 1, 1, 1])
    with pytest.raises(ParkedTermsError, match="never cancelled") as err:
        reduce_to_mzv(t)
    assert isinstance(err.value, CheckFailed)
    assert err.value.terms
    for obj in err.value.terms:
        assert term_to_json(parse_term(obj)) == obj
