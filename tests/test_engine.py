import functools
import itertools
import random
import re
from fractions import Fraction as Rat

import pytest

from zetalattice import engine, numeric, terms
from zetalattice.corpus import random_corpus
from zetalattice.engine import (
    ReductionTrace,
    first_mismatch,
    reduce_to_mzv,
    trace_replay,
)
from zetalattice.errors import (
    CheckFailed,
    ParkedTermsError,
    ParseError,
    TermBudgetExceeded,
)
from zetalattice.moves import TraceRecord, forward_split, split_boundary
from zetalattice.terms import (
    Term,
    canonical_term,
    converges,
    direct_sum,
    from_mzv,
    parse_term,
    term,
    term_key,
    term_to_json,
)

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


def test_mixed_weights_are_refused_before_any_move():
    before = engine._expansion.cache_info()
    with pytest.raises(ParseError, match="mixed weights"):
        reduce_to_mzv([from_mzv((3,)), from_mzv((4,))])
    assert engine._expansion.cache_info() == before


def test_a_source_term_of_coefficient_zero_has_no_weight_to_refuse():
    res = reduce_to_mzv([from_mzv((3,)), from_mzv((4,)).scaled(0)])
    alone = reduce_to_mzv(from_mzv((3,)))
    assert res.combination == alone.combination == {(3,): Rat(1)}
    assert res.trace.to_json_lines() == alone.trace.to_json_lines()


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
    dropped = broken.records.pop(first_emit)
    with pytest.raises(CheckFailed, match="left 1 unconsumed terms") as err:
        trace_replay(TORNHEIM, broken)
    # the error names the leftover shape's key with its coefficient
    left = f"{dropped.input.coefficient} * {term_key(dropped.input)}"
    assert left in str(err.value)
    # and at most three of them
    words = [from_mzv((k,)) for k in range(2, 7)]
    with pytest.raises(CheckFailed, match="left 5 unconsumed terms") as err:
        trace_replay(words, ReductionTrace())
    assert str(err.value).count(" * ") == 3
    # an emit's outputs are booked like any record's: a forged one is left
    records = reduce_to_mzv(TORNHEIM).trace.records
    i = next(i for i, r in enumerate(records) if r.move == "emit")
    rec = records[i]
    records[i] = TraceRecord(rec.move, rec.input, (from_mzv((3,)),), rec.params)
    with pytest.raises(CheckFailed, match="left 1 unconsumed terms"):
        trace_replay(TORNHEIM, ReductionTrace(records))


def test_a_warm_term_key_table_cannot_hide_a_broken_trace():
    res = reduce_to_mzv(STICKY)
    # a clean replay first, so that every shape of the trace is in the table
    assert trace_replay(STICKY, res.trace) == res.combination
    records = res.trace.records

    def with_output(i, bad):
        rec = records[i]
        changed = TraceRecord(rec.move, rec.input, (bad, *rec.outputs[1:]), rec.params)
        return ReductionTrace([*records[:i], changed, *records[i + 1 :]])

    for i, rec in enumerate(records):
        if not rec.outputs:
            continue
        o = rec.outputs[0]
        plus_one = o.with_coefficient(o.coefficient + 1)
        exps = (o.exponents[0] + 1, *o.exponents[1:])
        for bad in (plus_one, Term(o.pattern, exps, o.coefficient)):
            with pytest.raises(CheckFailed):
                trace_replay(STICKY, with_output(i, bad))

    # every record changes what the ledger holds, so dropping any one of
    # them leaves it unbalanced
    for i in range(len(records)):
        with pytest.raises(CheckFailed):
            trace_replay(STICKY, ReductionTrace(records[:i] + records[i + 1 :]))


def test_a_raw_aux_term_cancels_against_its_canonical_twin():
    # no record holds a zero-exponent column, but the ledger's key ignores
    # one: (2,2),(1,3) with exponents 0,2,2 has the kernel of (1,2),(2,2)
    aux = Term(terms.Pattern(3, ((2, 2), (1, 3))), (0, 2, 2), Rat(1))
    twin = canonical_term(aux)
    assert 0 in aux.exponents and 0 not in twin.exponents
    # two table entries, one key
    assert (aux.pattern, aux.exponents) != (twin.pattern, twin.exponents)
    assert term_key(aux) == term_key(twin)
    assert trace_replay([aux, twin.scaled(-1)], ReductionTrace()) == {}


def test_inadmissible_staircase_is_emitted_formally():
    t = from_mzv((1, 2))
    res = reduce_to_mzv(t)
    assert res.combination == {(1, 2): Rat(1)}
    assert not res.input_convergent
    assert not res.divergent_cancelled


def test_a_divergent_source_of_coefficient_zero_is_not_convergent():
    # the zero term leaves the pool at once; convergence is read off the
    # source, which may be a one-shot iterable
    zero = term([(1, 1)], [1], coefficient=0)
    for source in (zero, [zero], iter([zero]), [zero, TORNHEIM.scaled(0)]):
        res = reduce_to_mzv(source)
        assert res.combination == {} and not res.trace.records
        assert not res.input_convergent
    assert reduce_to_mzv(TORNHEIM.scaled(0)).input_convergent
    assert not reduce_to_mzv(iter([zero, TORNHEIM])).input_convergent


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
        if rec.move != "forward_hp" or len(rec.outputs) == 4:
            continue
        a, b = rec.params["a"], rec.params["b"]
        if split_boundary(rec.input, a, b) != ():
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


def test_the_staircase_repair_may_lead_both_guarded_stages():
    """guarded_moves reads the staircase repair ahead of every candidate in
    both guarded stages.  That changes no choice: the repair (i, j) is a
    merge candidate too (its twin), and no candidate ahead of the twin can
    have a constant boundary, which needs pair mass exactly 2.

    Proof: a square triangular term has distinct starts, so it has no
    inverse splits.  (i, j) is the first mismatch in column-major order, so
    row i covers columns i..j-1 and its only merge partner is row j, the
    twin; merges are ordered by their row a, so every merge ahead of the
    twin starts at a row a < i.  Row a covers column j, or (a, j) would be
    an earlier mismatch, so it covers the distinct columns a, i and j, each
    of exponent at least 1: its pair's mass is at least 3.  Checked here on
    every square triangular term of depth at most 5, exponents 1 to 3."""
    ahead = 0
    for d in range(2, 6):
        for ends in itertools.product(*(range(m, d + 1) for m in range(1, d + 1))):
            rows = list(zip(range(1, d + 1), ends))
            for exps in itertools.product((1, 2, 3), repeat=d):
                t = term(rows, exps)
                place = first_mismatch(t)
                if place is None:
                    continue
                lead = (place[0] - 1, place[1] - 1, t, None)
                candidates = list(engine._split_candidates(t))
                assert lead in candidates
                assert all(outs is None for *_, outs in candidates)
                cover = t.pattern.cover
                for a, b, _, _ in candidates[: candidates.index(lead)]:
                    pair = (1 << a) | (1 << b)
                    assert sum(k for m, k in zip(cover, exps) if m & pair) >= 3
                    ahead += 1
    assert ahead


# ---------------------------------------------------------------------------
# boundary soundness of harmonic splits

S = [(1, 3), (2, 2), (3, 3)]  # long top row over two disjoint short ones


def test_split_defect_vanishes_is_sharp_on_the_hard_shape():
    # pair mass exactly 2 leaves a constant boundary: it does not vanish
    assert split_boundary(term(S, [3, 1, 1]), 1, 2) not in (None, ())
    # one extra exponent unit on either pair column makes it vanish
    assert split_boundary(term(S, [3, 2, 1]), 1, 2) == ()
    assert split_boundary(term(S, [3, 1, 2]), 1, 2) == ()
    # merging rows of a convergent term is always sound
    assert split_boundary(TORNHEIM, 0, 1) == ()


def test_comp_subterm_extracts_the_constant_boundary():
    src = term(S, [3, 1, 1])
    (boundary,) = split_boundary(src, 1, 2)
    # -(zeta(2) (+) the leftover kernel), the kernel being row (1, 1) with
    # exponent 3, at the weight of the source
    assert boundary == direct_sum(from_mzv((2,)), term([(1, 1)], [3])).scaled(-1)
    assert boundary.pattern.rows == ((1, 1), (2, 2))
    assert boundary.exponents == (2, 3)
    assert boundary.weight == src.weight
    # leftover kernel must itself converge
    assert split_boundary(term(S, [1, 1, 1]), 1, 2) is None
    # the boundary of an overlapping pair of mass 5 vanishes
    assert split_boundary(term(S, [3, 1, 1]), 0, 1) == ()
    # pair rows of mass 2 must be disjoint to leave a constant, also when
    # a convergent leftover kernel, here row (3, 3), remains
    assert split_boundary(term([(1, 1), (1, 2)], [1, 1]), 0, 1) is None
    assert split_boundary(term([(1, 1), (1, 2), (3, 3)], [1, 1, 2]), 0, 1) is None


STICKY = term([(1, 1), (1, 2), (2, 3)], [2, 1, 2])


def test_compensated_reduction_of_a_sticky_shape():
    # this input funnels through a split whose boundary does not vanish;
    # the engine must book the boundary term and still verify per step
    t = STICKY
    res = reduce_to_mzv(t, verify=True)
    assert res.combination == {
        (2, 1, 2): Rat(-1),
        (2, 2, 1): Rat(-2),
        (3, 2): Rat(1),
        (4, 1): Rat(-1),
        (5,): Rat(2),
    }
    comp = [r for r in res.trace.records if len(r.outputs) == 4]
    assert comp, "expected at least one compensated split in the trace"
    for rec in comp:
        # the fourth output is zeta(2) times the leftover kernel, as a term
        # of the input's weight, and no record but an emit carries words
        src, _, boundary = forward_split(rec)
        assert boundary == split_boundary(src, rec.params["a"], rec.params["b"])
        assert boundary[0].weight == rec.input.weight
        assert set(rec.params) == {"a", "b"}
    assert trace_replay(t, res.trace) == res.combination


def test_reduce_to_mzv_never_calls_itself(monkeypatch, corpus200):
    entries = []
    inner = engine.reduce_to_mzv

    def counted(*args, **kwargs):
        entries.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "reduce_to_mzv", counted)
    compensated = []
    for t in corpus200:
        records = inner(t).trace.records
        if any(len(r.outputs) == 4 for r in records):
            compensated.append(t)
    assert len(compensated) == 87
    for verify in (False, True):
        for t in [STICKY, *compensated]:
            entries.clear()
            engine.reduce_to_mzv(t, verify=verify)
            assert entries == [t]


def test_an_emit_record_holds_its_word_only():
    # the word's coefficient is the emitted term's own, so replay and the
    # checks read it from the input, at whatever coefficient it is applied
    scaled = TORNHEIM.scaled(Rat(-3, 4))
    trace = reduce_to_mzv(scaled).trace
    emits = [r for r in trace.records if r.move == "emit"]
    assert emits and all(list(r.params) == ["word"] for r in emits)
    assert trace_replay(scaled, trace) == {(2, 1): Rat(-3, 4), (3,): Rat(-3, 4)}


def test_replay_reads_an_emit_word_off_its_chain():
    zeta3 = from_mzv((3,))
    forged = ReductionTrace([TraceRecord("emit", zeta3, (), {"word": [2]})])
    with pytest.raises(CheckFailed, match="disagrees with its chain"):
        trace_replay(zeta3, forged)
    honest = ReductionTrace([TraceRecord("emit", zeta3, (), {"word": [3]})])
    assert trace_replay(zeta3, honest) == {(3,): 1}


def test_an_emit_without_a_word_is_a_failed_check():
    rec = TraceRecord("emit", from_mzv((3,)), (), {})
    with pytest.raises(CheckFailed, match="disagrees with its chain"):
        numeric.check_record(rec, random.Random(0))
    with pytest.raises(CheckFailed, match="disagrees with its chain"):
        trace_replay(from_mzv((3,)), ReductionTrace([rec]))
    # nested rows whose zero-exponent column leaves the word's first entry 0
    t = Term(terms.Pattern(2, ((1, 2), (2, 2))), (2, 0), Rat(1))
    rec = TraceRecord("emit", t, (), {"word": [0, 2]})
    with pytest.raises(CheckFailed, match="disagrees with its chain"):
        numeric.check_record(rec, random.Random(0))
    with pytest.raises(CheckFailed, match="disagrees with its chain"):
        trace_replay(t, ReductionTrace([rec]))


def test_merge_step_outputs_share_the_input_weight():
    t = term([(1, 1), (2, 2)], [2, 2])
    recs, outs = engine._merge(t, 0, 1, ())
    assert outs and all(u.weight == t.weight for u in outs)
    assert [r.move for r in recs] == ["forward_hp", "pf_step"]


def test_a_merge_is_one_split_and_one_pf_step(corpus200):
    deep4 = random_corpus(seed=11, count=60, max_depth=4, max_weight=7)
    merges = 0
    for t in [*corpus200, *deep4]:
        try:
            records = reduce_to_mzv(t).trace.records
        except ParkedTermsError:
            continue
        for rec in records:
            for u in (rec.input, *rec.outputs):
                assert 0 not in u.exponents, rec
        # the engine splits forward only in a merge, and a merge's pf_step
        # alone holds a pair
        for split, pf in zip(records, records[1:]):
            assert (split.move == "forward_hp") == ("pair" in pf.params), pf
            if split.move != "forward_hp":
                continue
            merges += 1
            assert pf.move == "pf_step"
            rows = split.input.pattern.rows
            a, b = split.params["a"], split.params["b"]
            assert pf.params == {"pair": [rows[a][0], rows[b][0]]}
            assert pf.input == canonical_term(split.outputs[0])
            assert pf.outputs
            assert all(o.width == split.input.width for o in pf.outputs)
        assert "pair" not in records[0].params
        assert records[-1].move != "forward_hp"
    assert merges > 1000


def test_parked_terms_are_reported_as_term_json():
    # a depth-4 shape whose split boundaries never cancel
    t = term([(1, 1), (1, 4), (2, 3), (3, 5)], [2, 1, 1, 1, 1])
    with pytest.raises(ParkedTermsError, match="never cancelled") as err:
        reduce_to_mzv(t)
    assert isinstance(err.value, CheckFailed)
    assert err.value.terms
    for obj in err.value.terms:
        assert term_to_json(parse_term(obj)) == obj


# ---------------------------------------------------------------------------
# one expansion per shape per process

# deep4 terms (corpus.random_corpus(seed=11, count=60, max_depth=4,
# max_weight=7)) whose reductions pop some shapes many times
LOOPING = term([(1, 2), (2, 4), (3, 4), (4, 5)], [1, 1, 1, 1, 1])
REVISITING = term([(1, 1), (1, 2), (2, 3)], [3, 1, 1])
PARKING = term([(1, 3), (1, 5), (2, 3), (3, 4)], [1, 1, 2, 1, 1])


@pytest.fixture
def cold_expansions(monkeypatch):
    """An empty expansion table for this test, and counters of the searches
    that expanding a shape makes."""
    engine._expansion.cache_clear()
    monkeypatch.setattr(terms, "_interned", {})
    calls = {"find_circuit": 0, "guarded_moves": 0}
    for name in calls:
        inner = getattr(engine, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return calls


def test_each_shape_is_expanded_once_per_process(cold_expansions):
    calls = cold_expansions
    first = reduce_to_mzv(LOOPING)
    info = engine._expansion.cache_info()
    shapes = info.misses
    # one lookup per pop, and some shapes are popped more than once
    assert info.hits + info.misses == first.trace.terms_processed > shapes
    assert 0 < calls["find_circuit"] <= shapes
    assert 0 < calls["guarded_moves"] <= shapes
    # the table outlives the call: a second call searches nothing
    calls.update(find_circuit=0, guarded_moves=0)
    second = reduce_to_mzv(LOOPING)
    assert calls == {"find_circuit": 0, "guarded_moves": 0}
    assert second.trace.to_json_lines() == first.trace.to_json_lines()
    assert second.combination == first.combination


def test_results_do_not_alias_the_table(cold_expansions):
    first = reduce_to_mzv(REVISITING)
    want = first.trace.to_json_lines()
    emits = 0
    for rec in first.trace.records:
        for v in rec.params.values():
            if isinstance(v, list):
                v.append(99)
        rec.params["a"] = -1
        if rec.move == "emit":
            emits += 1
            rec.params["word"] = [0]
        rec.move = "tampered"
        rec.outputs = ()
    assert emits
    assert reduce_to_mzv(REVISITING).trace.to_json_lines() == want


def test_formal_and_convergent_reductions_keep_separate_entries(cold_expansions):
    # a divergent shape that parks inside PARKING's convergent reduction;
    # reduced on its own it is formal, and a stage (c) move applies
    with pytest.raises(ParkedTermsError) as err:
        reduce_to_mzv(PARKING)
    shape = parse_term(err.value.terms[0])
    assert not converges(shape)
    assert next(engine.guarded_moves(shape, False), None) is None
    assert next(engine.guarded_moves(shape, True), None) is not None
    key = (shape.pattern, shape.exponents)
    hits = engine._expansion.cache_info().hits
    assert engine._expansion(*key, False) is None
    res = reduce_to_mzv(shape)
    assert not res.input_convergent
    assert engine._expansion(*key, True) is not None
    assert engine._expansion.cache_info().hits == hits + 2
    engine._expansion.cache_clear()
    assert reduce_to_mzv(shape).trace.to_json_lines() == res.trace.to_json_lines()


def test_a_failed_call_leaves_the_table_usable(cold_expansions):
    want = {t: reduce_to_mzv(t).trace.to_json_lines() for t in (TORNHEIM, LOOPING)}
    engine._expansion.cache_clear()
    for _ in range(2):
        with pytest.raises(TermBudgetExceeded, match="budget of 40"):
            reduce_to_mzv(LOOPING, max_terms=40)
        with pytest.raises(ParkedTermsError) as err:
            reduce_to_mzv(PARKING)
        assert len(err.value.terms) == 2
    for t, lines in want.items():
        assert reduce_to_mzv(t).trace.to_json_lines() == lines


def test_the_expansion_table_is_bounded(cold_expansions, monkeypatch):
    want = reduce_to_mzv(LOOPING).trace.to_json_lines()
    info = engine._expansion.cache_info()
    assert info.maxsize == engine.EXPANSION_BOUND
    assert 0 < info.currsize <= info.maxsize
    small = functools.lru_cache(maxsize=3)(engine._expansion.__wrapped__)
    monkeypatch.setattr(engine, "_expansion", small)
    # evicting all but three shapes changes no byte of the trace
    assert reduce_to_mzv(LOOPING).trace.to_json_lines() == want
    assert small.cache_info().currsize == 3


def test_verify_checks_every_replayed_record(monkeypatch):
    checked = []
    check = numeric.check_record

    def counted_check(rec, rng):
        checked.append(rec)
        check(rec, rng)

    monkeypatch.setattr(numeric, "check_record", counted_check)
    res = reduce_to_mzv(REVISITING, verify=True)
    assert len(checked) == len(res.trace.records) == 37
    # some records replay an earlier shape at another coefficient
    first, scaled = {}, 0
    for rec in res.trace.records:
        shape = (rec.move, rec.input.pattern.rows, rec.input.exponents)
        scaled += first.setdefault(shape, rec.input.coefficient) != rec.input.coefficient
    assert scaled


def test_verify_checks_every_record_with_a_warm_table(cold_expansions, monkeypatch):
    reduce_to_mzv(REVISITING)
    checked = []
    check = numeric.check_record

    def counted_check(rec, rng):
        checked.append(rec)
        check(rec, rng)

    monkeypatch.setattr(numeric, "check_record", counted_check)
    cold_expansions.update(find_circuit=0, guarded_moves=0)
    res = reduce_to_mzv(REVISITING, verify=True)
    assert cold_expansions == {"find_circuit": 0, "guarded_moves": 0}
    assert checked == res.trace.records
    assert len(checked) == 37


def test_budget_counts_every_revisit():
    # the smallest budget that reduces REVISITING is its 29 pops, replayed
    # shapes included
    res = reduce_to_mzv(REVISITING, max_terms=29)
    assert res.combination == {(3, 1, 1): Rat(1), (3, 2): Rat(1)}
    assert res.trace.terms_processed == 29
    with pytest.raises(TermBudgetExceeded):
        reduce_to_mzv(REVISITING, max_terms=28)


# the parked deep4 term of test_parked_terms_are_reported_as_term_json
PARKED_DEEP4 = term([(1, 1), (1, 4), (2, 3), (3, 5)], [2, 1, 1, 1, 1])


def test_failed_reductions_build_no_records(monkeypatch):
    calls = {"_applied": 0, "check_record": 0}
    for module, name in ((engine, "_applied"), (numeric, "check_record")):
        inner = getattr(module, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    with pytest.raises(ParkedTermsError):
        reduce_to_mzv(PARKED_DEEP4)
    with pytest.raises(TermBudgetExceeded):
        reduce_to_mzv(REVISITING, max_terms=28)
    assert calls == {"_applied": 0, "check_record": 0}
    # the step checks come after the parked check too
    with pytest.raises(ParkedTermsError):
        reduce_to_mzv(PARKED_DEEP4, verify=True)
    assert calls == {"_applied": 0, "check_record": 0}
    # a reduction that finishes builds its records through _applied
    res = reduce_to_mzv(REVISITING, verify=True)
    assert calls["check_record"] == len(res.trace.records) == 37
    assert calls["_applied"] == res.trace.terms_processed == 29


def test_one_pop_shares_one_fraction_per_coefficient():
    res = reduce_to_mzv(REVISITING.scaled(Rat(-7, 3)))
    for rec in res.trace.records:
        seen = {}
        for u in (rec.input, *rec.outputs):
            assert seen.setdefault(u.coefficient, u.coefficient) is u.coefficient


@pytest.mark.parametrize(
    "t, smallest",
    [
        # four compensated splits, whose boundary terms the pool reduces
        (term([(1, 2), (2, 4), (3, 4), (4, 5)], [1, 1, 1, 1, 1]), 153),
        # three compensated shapes, one of them replayed: four boundary terms
        (term([(1, 3), (2, 4), (3, 3), (4, 4)], [1, 1, 2, 2]), 90),
    ],
    ids=["chain4", "replayed"],
)
def test_budget_counts_the_pops_of_boundary_terms(t, smallest):
    assert reduce_to_mzv(t, max_terms=smallest).trace.terms_processed == smallest
    with pytest.raises(TermBudgetExceeded):
        reduce_to_mzv(t, max_terms=smallest - 1)


def test_every_corpus_term_reduces_at_its_own_pop_count(corpus200):
    # the budget caps terms_processed: a budget of exactly the pops a
    # reduction makes gives the default run's answer, and one less fails
    # (a budget of 0, one less than a lone emit's, is refused as input)
    for t in corpus200:
        res = reduce_to_mzv(t)
        n = res.trace.terms_processed
        capped = reduce_to_mzv(t, max_terms=n)
        assert capped.combination == res.combination, t
        assert capped.trace.to_json_lines() == res.trace.to_json_lines(), t
        with pytest.raises(TermBudgetExceeded if n > 1 else ParseError):
            reduce_to_mzv(t, max_terms=n - 1)


def test_parked_set_is_pinned():
    with pytest.raises(ParkedTermsError) as err:
        reduce_to_mzv(PARKING)
    assert err.value.terms == [
        {"rows": [[1, 4], [2, 3], [3, 3], [4, 4]], "exponents": [3, 1, 1, 1],
         "coefficient": "1"},
        {"rows": [[1, 4], [2, 3], [3, 3], [3, 4]], "exponents": [3, 1, 1, 1],
         "coefficient": "-1"},
    ]


# ---------------------------------------------------------------------------
# integer coefficients


def test_every_expansion_has_integer_coefficients(
    corpus200, divergent_small, monkeypatch
):
    # an interval matrix is totally unimodular: at coefficient 1 every move
    # of every shape these inputs expand has integer coefficients
    expansions = {}
    expand = engine._expansion

    def recorded(pattern, exponents, formal):
        expansions[pattern, exponents, formal] = expand(pattern, exponents, formal)
        return expansions[pattern, exponents, formal]

    monkeypatch.setattr(engine, "_expansion", recorded)
    deep4 = random_corpus(seed=11, count=60, max_depth=4, max_weight=7)
    for t in [*corpus200, *deep4, *divergent_small]:
        try:
            reduce_to_mzv(t)
        except ParkedTermsError:
            pass
    assert len(expansions) > 1500
    for exp in filter(None, expansions.values()):
        for _, _, ints, *terms_ in exp.records:
            assert [u.coefficient for u in terms_] == list(ints)
            assert all(u.coefficient.denominator == 1 for u in terms_)
        for ct, n in zip(exp.outputs, exp.ints):
            assert ct.coefficient.denominator == 1 and ct.coefficient == n


def test_a_non_integer_move_is_a_failed_check_naming_the_shape(monkeypatch):
    pf_step = engine.pf_step

    def halved(*args):
        return [o.scaled(Rat(1, 2)) for o in pf_step(*args)]

    monkeypatch.setattr(engine, "pf_step", halved)
    engine._expansion.cache_clear()
    try:
        shape = re.escape(str(canonical_term(TORNHEIM)))
        want = f"expansion of {shape} has the coefficient -?1/2"
        with pytest.raises(CheckFailed, match=want):
            reduce_to_mzv(TORNHEIM)
    finally:
        engine._expansion.cache_clear()


def scaled_record(rec: TraceRecord, c: Rat) -> TraceRecord:
    return TraceRecord(
        rec.move,
        rec.input.scaled(c),
        tuple(o.scaled(c) for o in rec.outputs),
        rec.params,
    )


@pytest.mark.parametrize("c", [Rat(-7, 3), Rat(1, 2)], ids=str)
@pytest.mark.parametrize(
    "t", [TORNHEIM, REVISITING, LOOPING], ids=["tornheim", "revisiting", "looping"]
)
def test_a_scaled_source_scales_every_record(t, c):
    base = reduce_to_mzv(t)
    res = reduce_to_mzv(t.scaled(c))
    assert res.combination == {w: c * v for w, v in base.combination.items()}
    assert res.trace.records == [scaled_record(r, c) for r in base.trace.records]
    assert res.trace.terms_processed == base.trace.terms_processed
    assert res.trace.max_live == base.trace.max_live
    assert trace_replay(t.scaled(c), res.trace) == res.combination


def test_a_scaled_source_parks_scaled_terms():
    with pytest.raises(ParkedTermsError) as base:
        reduce_to_mzv(PARKING)
    with pytest.raises(ParkedTermsError) as scaled:
        reduce_to_mzv(PARKING.scaled(Rat(-7, 3)))
    want = [term_to_json(parse_term(o).scaled(Rat(-7, 3))) for o in base.value.terms]
    assert scaled.value.terms == want
    assert "-7/3 * rows" in str(scaled.value)


def test_a_source_of_several_terms_is_reduced_linearly():
    half, third = Rat(1, 2), Rat(-1, 3)
    source = [REVISITING.scaled(half), LOOPING.scaled(third)]
    res = reduce_to_mzv(source)
    want = {}
    for t, c in ((REVISITING, half), (LOOPING, third)):
        for w, v in reduce_to_mzv(t).combination.items():
            terms.comb_add(want, w, c * v)
    assert res.combination == want
    assert trace_replay(source, res.trace) == want


def test_a_source_that_cancels_reduces_to_nothing():
    for t in (TORNHEIM, REVISITING.scaled(Rat(1, 2))):
        res = reduce_to_mzv([t, t.scaled(-1)])
        assert res.combination == {} and res.trace.records == []
        assert res.trace.terms_processed == 0
        assert trace_replay([t, t.scaled(-1)], res.trace) == {}


def test_a_cancelled_source_term_leaves_a_stale_queue_entry():
    # whichever of the two keys is smaller, one of the orders pops the
    # cancelled key's entry before the live one and must skip it
    for a, b in ((REVISITING, LOOPING), (LOOPING, REVISITING)):
        alone = reduce_to_mzv(b)
        res = reduce_to_mzv([a, b, a.scaled(-1)])
        assert res.combination == alone.combination
        assert res.trace.to_json_lines() == alone.trace.to_json_lines()
        assert res.trace.terms_processed == alone.trace.terms_processed


def test_combination_values_are_shared_fractions(monkeypatch):
    monkeypatch.setattr(terms, "_interned", {})
    sources = (TORNHEIM, REVISITING, LOOPING)
    results = [reduce_to_mzv(t) for t in sources]
    combinations = [res.combination for res in results]
    combinations += [trace_replay(t, res.trace) for t, res in zip(sources, results)]
    values = [v for comb in combinations for v in comb.values()]
    assert all(type(v) is Rat for v in values)
    # one object per value, across reductions and replays
    assert len({id(v) for v in values}) == len(set(values)) < len(values)
    assert results[0].combination[(3,)] is results[1].combination[(3, 2)]
