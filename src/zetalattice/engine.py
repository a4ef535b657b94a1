"""The reduction driver: rewrite lattice zeta terms into multiple zeta words.

Every popped term goes through a fixed priority of moves:

1. canonicalize and merge like terms (eager, at every insertion);
2. nested row supports (a *chain*): read the word off and emit;
3. dependent distinct columns: one partial-fraction step, pivot at the
   maximal circuit position (strictly lowers the exponent vector
   lexicographically);
4. otherwise the first harmonic split that guarded_moves yields.  Its
   candidates are the staircase repair of a square triangular term (merge
   the rows of its first mismatch, column-major), inverse splits of rows
   sharing a start, and merges of adjacent rows.  moves.split_boundary
   classifies each once, the staircase repair leading, and the splits come
   in three stages:

   a. every split whose truncation boundary provably vanishes (see below);
   b. every split whose boundary tends to an exact *constant* -- the pair
      carries exponent mass exactly two and the leftover kernel on the
      untouched rows and columns converges.  It is applied anyway, and the
      constant, zeta(2) times the leftover kernel, is booked as a fourth
      output of the split: the direct sum of the two, a term of the input's
      weight that the pool reduces like any other;
   c. for divergent inputs only, where the reduction is formal (regularized
      bookkeeping): the inverse splits and the staircase repair, with the
      guard waived.

   The repair may lead (b) too: no candidate ahead of its twin has pair
   mass 2, which a constant needs (see guarded_moves).

Partial fractions, a merge's loop included, are exact at every lattice cutoff.
A harmonic split is exact on the full lattice but misclassifies the corner
n_a + n_b > B of the box [1, B]^d, so splitting a *divergent* intermediate
can shift a finite amount of value out of the books even though every
emitted divergent word cancels in the end.  moves.split_boundary decides,
by integer scale counting, whether that corner sum tends to zero or to a
constant; stage (a) admits a split only when it tends to zero.  Emitting
is always safe: all chain shapes with the same word have identical box
sums (gap coordinates), so cancelled words cancel their truncation defects
too.

The pool is two dicts from term_key to the canonical term first held under
that key and an int m, a key in at most one: ``pending``, popped smallest
key first, and ``parked``, where a convergent input's term with no guarded
split waits for a sibling branch to cancel it.  The term's coefficient is
m / D, where D is the lcm of the denominators of the source coefficients
(1 for an integer source), and the pool counts in these ints alone; the
held term supplies the shape and keeps its presentation.  A source term or
move output merges into the entry held under its key in either dict, and a
nonzero sum goes to pending.  Pending keys wait on a heap, one entry each
while they stay pending; a key that cancels leaves its entry behind, and a
pop skips entries whose key is no longer pending.  If any parked term
survives to the end the reduction aborts rather than emit an unsound
answer.  A divergent input's term with no split at all raises
ProgressViolation.

A merge of two adjacent rows writes two records.  The first is its
harmonic split, forward_hp; the second and third parts keep their shape.
The first part has two rows sharing a start, and undoing it naively would
just invert the split, so a private loop (_merge) gives it a fresh
exponent-0 column and pivots partial fractions there until each term is
back to the input's width.  The second record is one pf_step from the
canonical first part to the loop's net outputs, params
``{"pair": [i, j]}``: the loop's intermediates are never recorded, and no
record holds a zero-exponent column.  A global term budget guards the
whole reduction: every pop and every pass of a merge's loop.  Words come
only from emits, and reduce_to_mzv never calls itself.

Every move is linear in the coefficient of the term it rewrites: its
choice, its parameters and the shapes of its outputs depend on the shape
alone (pattern and exponents), and every output coefficient is the input
coefficient times a number fixed by the shape.  That number is an integer.
An interval matrix is totally unimodular, so every circuit of its columns
has coefficients +-1 and a partial-fraction step's outputs carry +-1; so
do a harmonic split's parts, a compensated split's boundary term (zeta(2)
times a kernel) among them.  An emit's params hold its word only: the
word's coefficient is the emitted term's own.
So a shape's expansion at coefficient 1 is a pure function of the shape
(pattern, exponents, and whether the reduction is formal: stage (c) exists
only then): the trace records, the canonical outputs with their term_key,
the emitted word and the passes of a merge's inner loop, or None when the
term parks.  Its coefficients are kept as ints, and filling the memo
raises CheckFailed, naming the shape, if one is not an integer.  _expansion
memoises it for the whole process, the last EXPANSION_BOUND shapes kept,
with one interned copy of each term, pattern, exponent tuple, coefficient
and term key it stores.  Every pop, in this call or any later one, applies
its shape's expansion times its own m / D: the pool adds m times each
output's int, and the pop keeps only the memo's stored records and its m.
The trace is built once the pop loop has finished and no term is left
parked, in pop order, through _applied: its records are fresh, share
nothing mutable with the memo and hold the Fraction m * n / D for an int n
of the memo (one Fraction per pop and n), or the memo's own terms when
m / D is 1.  A reduction that parks, runs out of budget or raises
ProgressViolation builds no record.  So the trace, the combination and
every counter are those of expanding the shape afresh.  The combination is
summed in ints and divided by D once, at the end.  With ``verify=True``
every record goes to numeric.check_record as soon as it is built, in trace
order; an applied record is an exact rational multiple of the stored one,
and check_record proves each such relation once per process.  So the
parked check comes before every step check: a reduction that parks raises
ParkedTermsError even where a step check would fail, which only an engine
bug can cause.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import numeric
from .errors import (
    IntervalBroken,
    InvalidPivot,
    ParkedTermsError,
    ParseError,
    ProgressViolation,
    TermBudgetExceeded,
    CheckFailed,
)
from .linalg import find_circuit
from .moves import TraceRecord, forward_hp, inverse_hp, pf_step, split_boundary
from .terms import (
    MZVCombination,
    Pattern,
    Rat,
    Term,
    Word,
    canonical_term,
    chain_word,
    comb_add,
    converges,
    interned,
    is_admissible,
    term_key,
    term_to_json,
)

Place = tuple[int, int]  # (row, column), both 1-based


# ---------------------------------------------------------------------------
# trace bookkeeping


@dataclass
class ReductionTrace:
    records: list[TraceRecord] = field(default_factory=list)
    terms_processed: int = 0
    max_live: int = 0

    def to_json_lines(self) -> str:
        return "".join(
            json.dumps(
                {
                    "move": r.move,
                    "input": term_to_json(r.input),
                    "outputs": [term_to_json(o) for o in r.outputs],
                    "params": r.params,
                },
                sort_keys=True,
            )
            + "\n"
            for r in self.records
        )


@dataclass
class ReductionResult:
    combination: MZVCombination
    trace: ReductionTrace
    input_convergent: bool
    divergent_cancelled: bool


# ---------------------------------------------------------------------------
# structural predicates on canonical terms


def _split_candidates(t: Term):
    """Every split of ``t`` in priority order, as (a, b, the term whose
    truncation boundary the split cuts, inverse_hp outputs or None for a
    merge): inverse splits of rows sharing a start first, a the longer row,
    ordered by (shared start, shorter end, longer end); then merges of
    adjacent rows, row a ending right before row b starts, ordered by the
    row intervals."""
    rows = t.pattern.rows
    order = sorted(range(t.depth), key=rows.__getitem__)
    for i, b in enumerate(order):
        for a in order[i + 1 :]:
            if rows[a][0] != rows[b][0]:
                break
            if rows[a] != rows[b]:  # equal rows cannot be split
                outs = inverse_hp(t, a, b)
                yield a, b, outs[0], outs
    starts = t.pattern.row_starts()
    for a in order:
        if starts.count(rows[a][0]) > 1:
            continue  # first split part would carry three equal starts
        for b in order:
            if rows[a][1] + 1 == rows[b][0]:
                yield a, b, t, None


def first_mismatch(t: Term) -> Optional[Place]:
    """First place (row i, column j), scanned column-major, where a square
    triangular term (row m starts at column m) differs from the staircase
    (row m covering m..d).  None for the staircase itself and for any term
    that is not square and triangular."""
    d = t.depth
    if t.width != d or t.pattern.row_starts() != list(range(1, d + 1)):
        return None
    for j in range(1, d + 1):
        for i in range(1, j):
            if not t.pattern.cover[j - 1] >> (i - 1) & 1:
                return (i, j)
    return None


def guarded_moves(t: Term, formal: bool):
    """Every split the boundary guard admits on ``t``, lazily and in priority
    order, as (a, b, inverse_hp outputs or None for a merge, what the
    split's boundary adds: () or its boundary term, see
    moves.split_boundary).  Each of the staircase repair and the candidates
    is classified once, in that order, and the splits whose boundary
    vanishes come first, then those whose boundary tends to a constant;
    then, only when ``formal``, the inverse splits and the staircase repair
    with the guard waived.  The staircase repair (i, j) may lead both: a
    square triangular term has distinct starts, so it has no inverse
    splits, and a merge ordered before its twin starts at a row a < i,
    which covers columns a, i and j, so the pair's mass is at least 3 and
    its boundary never a constant."""
    place = first_mismatch(t)
    leads = [] if place is None else [(place[0] - 1, place[1] - 1, t, None)]
    candidates = list(_split_candidates(t))
    constant = []
    for a, b, src, outs in leads + candidates:
        boundary = split_boundary(src, a, b)
        if boundary == ():
            yield a, b, outs, boundary
        elif boundary:
            constant.append((a, b, outs, boundary))
    yield from constant
    if formal:
        inverse = [c for c in candidates if c[3] is not None]
        for a, b, _, outs in inverse + leads:
            yield a, b, outs, ()


# ---------------------------------------------------------------------------
# the merge step


def _aux_column(t: Term, i: int, j: int) -> Term:
    """``t``, the canonical first part of a merge's split, with a column of
    exponent 0 inserted immediately before column i, so at position i.  The
    column is covered exactly by the rows straddling the insertion point
    (start < i <= end) and by the longer of the two rows that start at i,
    which ends at some r >= j while the other ends at j-1; rows lying
    entirely left of column i are untouched, and the kernel is unchanged."""
    at_i = [r for r, (s, _) in enumerate(t.pattern.rows) if s == i]
    ends = sorted((t.pattern.rows[r][1], r) for r in at_i)
    if len(at_i) != 2 or ends[0][0] != j - 1 or ends[1][0] < j:
        raise IntervalBroken(
            f"rows starting at {i} end at {[e for e, _ in ends]}; "
            f"expected {j - 1} and one at or after {j}"
        )
    extended = ends[1][1]
    rows = []
    for r, (s, e) in enumerate(t.pattern.rows):
        if r == extended:
            rows.append((i, e + 1))
            continue
        rows.append((s + 1 if s >= i else s, e + 1 if e >= i else e))
    exps = list(t.exponents)
    exps.insert(i - 1, 0)
    return Term(Pattern(t.width + 1, tuple(rows)), tuple(exps), t.coefficient)


def _merge(
    t: Term, a: int, b: int, boundary: tuple[Term, ...]
) -> tuple[list[TraceRecord], list[Term], int]:
    """Atomic merge of two adjacent rows a = [i, j-1] and b = [j, k], as its
    two records, its raw outputs (unmerged) and the passes of its loop.

    The forward harmonic split comes first, with its ``boundary`` (see
    moves.split_boundary) appended to its outputs.  Its first part has two
    rows starting at i, and inverting it naively would undo the split.  So
    that part, made canonical, gets a fresh exponent-0 column (_aux_column)
    and partial fractions pivoted there until every term is back to the
    width of ``t``.  A merge runs only on a term with no circuit, and the
    split is an invertible change of variables, so the columns of that part
    are independent and the fresh column adds the aux term's only circuit:
    the first one find_circuit meets.  The fresh column stays the pivot
    throughout: exponents are the only thing the loop changes, so the
    circuit found once stays valid and each pass moves one exponent unit
    onto the pivot, ending the loop after at most weight-many passes.  A
    generic pivot choice here can invert the insertion and loop forever.
    The loop's net outputs, in the order it makes them, are one pf_step
    record from the canonical first part, with params ``{"pair": [i, j]}``.
    """
    i = t.pattern.rows[a][0]
    j = t.pattern.rows[b][0]
    out1, *rest = forward_hp(t, a, b)
    rest += boundary
    split = TraceRecord("forward_hp", t, (out1, *rest), {"a": a, "b": b})

    c1 = canonical_term(out1)
    aux_t = _aux_column(c1, i, j)
    circuit = find_circuit(aux_t.pattern.columns())
    if circuit is None:
        raise InvalidPivot(f"no circuit through the aux column of {aux_t}")
    net: list[Term] = []
    work = [aux_t]
    passes = 0
    while work:
        passes += 1
        for raw in pf_step(work.pop(), circuit, i - 1):
            # wider than t: no column has vanished yet
            (work if raw.width > t.width else net).append(raw)
    merged = TraceRecord("pf_step", c1, tuple(net), {"pair": [i, j]})
    return [split, merged], rest + net, passes


# ---------------------------------------------------------------------------
# the driver


def _source_terms(source: Union[Term, Iterable[Term]]) -> Iterable[Term]:
    """The terms of a reduction source: one term or any iterable of terms."""
    return (source,) if isinstance(source, Term) else source


@dataclass(slots=True)
class _Expansion:
    """What the driver does with one popped shape at coefficient 1: the
    trace records (see _stored), the canonical outputs with their term_keys
    and their coefficients as ints, the emitted word and the budget ticks of
    a merge's inner loop.  Nothing in it is mutable, and its terms and keys
    are interned."""

    records: tuple
    outputs: tuple
    keys: tuple
    ints: tuple
    word: Optional[Word]
    ticks: int


def _shared(t: Term) -> Term:
    """The interned copy of ``t``, with its pattern, exponents and
    coefficient interned too."""
    parts = interned(t.pattern), interned(t.exponents), interned(t.coefficient)
    return interned(Term(*parts))


def _integer(c: Rat, shape: Term) -> int:
    """``c``, a coefficient of the expansion of ``shape`` at coefficient 1,
    as an int; CheckFailed naming the shape when it is no integer."""
    if c.denominator != 1:
        raise CheckFailed(f"the expansion of {shape} has the coefficient {c}")
    return c.numerator


def _stored(rec: TraceRecord, shape: Term) -> tuple:
    """``rec``, a record of the expansion of ``shape``, as one flat tuple:
    the move, the params as (name, value) pairs with lists made tuples (the
    engine's params hold ints, strings and flat lists of them), the
    coefficients of the input and the outputs as ints, then the input and
    the outputs; terms and params interned."""
    params = tuple(
        (name, tuple(v) if type(v) is list else v) for name, v in rec.params.items()
    )
    terms = (rec.input, *rec.outputs)
    ints = tuple(_integer(u.coefficient, shape) for u in terms)
    return (rec.move, interned(params), ints, *map(_shared, terms))


def _applied(records: tuple, m: int, d: int) -> Iterable[TraceRecord]:
    """New TraceRecords, one by one, from the stored ``records`` of one pop
    times m / d: each term's coefficient is m * n / d for its int n (the
    params depend on the shape alone), one Fraction per distinct n shared by
    every term that carries it, and no mutable object is shared with the
    memo."""
    shared: dict = {}  # n -> Rat(m * n, d)
    for move, params, ints, *terms in records:
        params = {name: list(v) if type(v) is tuple else v for name, v in params}
        if m != d:
            for n in ints:
                if n not in shared:
                    shared[n] = Rat(m * n, d)
            terms = [
                Term(u.pattern, u.exponents, shared[n]) for u, n in zip(terms, ints)
            ]
        yield TraceRecord(move, terms[0], tuple(terms[1:]), params)


def _keyed(outs: Iterable[Term]) -> list[tuple[Term, tuple]]:
    """The nonzero terms of ``outs``, a move's raw outputs or a reduction
    source, canonical and paired with their term_key."""
    keyed = []
    for raw in outs:
        if raw.coefficient != 0:
            ct = canonical_term(raw)
            keyed.append((ct, term_key(ct)))
    return keyed


# Measured with tracemalloc, as the memory that clearing the table and the
# interned values frees after a cold pass: filled to the bound from the
# 3,318 shapes that random_corpus(seed=11, count=400, max_depth=4,
# max_weight=7) expands, the table held 2.5 MB.  One deep4 pass stores 850
# shapes in 1.0 MB, one verified corpus200 pass 442 in 0.45 MB.  The ints
# kept next to the terms cost about a seventh of that.
EXPANSION_BOUND = 2048  # shapes kept


@functools.lru_cache(maxsize=EXPANSION_BOUND)
def _expansion(
    pattern: Pattern, exponents: tuple[int, ...], formal: bool
) -> Optional[_Expansion]:
    """Choose and make the move for a popped canonical term of this shape at
    coefficient 1 (see the module docstring for the priority), without
    touching the driver's state; None when the term parks."""
    t = Term(pattern, exponents, Rat(1))
    records: list[TraceRecord] = []
    outputs: list[tuple[Term, tuple]] = []
    ticks = 0
    word = chain_word(t)
    if word is not None:
        records.append(TraceRecord("emit", t, (), {"word": list(word)}))
    elif (circuit := find_circuit(t.pattern.columns())) is not None:
        params = {
            "members": list(circuit.members),
            "coefficients": [str(c) for c in circuit.coefficients],
            "pivot": max(circuit.members),
        }
        outs = tuple(pf_step(t, circuit, params["pivot"]))
        records.append(TraceRecord("pf_step", t, outs, params))
        outputs = _keyed(outs)
    else:
        move = next(guarded_moves(t, formal), None)
        if move is None:
            if formal:
                raise ProgressViolation(f"no applicable move for {t}")
            return None
        a, b, outs, boundary = move
        if outs is not None:
            # t is the first output of the forward split of outs[0], whose
            # boundary therefore enters t with the opposite sign
            outs = (*outs, *(u.scaled(-1) for u in boundary))
            records.append(TraceRecord("inverse_hp", t, outs, {"a": a, "b": b}))
        else:
            records, outs, ticks = _merge(t, a, b, boundary)
        outputs = _keyed(outs)
    return _Expansion(
        tuple(_stored(rec, t) for rec in records),
        tuple(_shared(ct) for ct, _ in outputs),
        tuple(key for _, key in outputs),  # term_key interns its values
        tuple(_integer(ct.coefficient, t) for ct, _ in outputs),
        None if word is None else interned(word),
        ticks,
    )


def reduce_to_mzv(
    source: Union[Term, Iterable[Term]],
    max_terms: int = 100_000,
    verify: bool = False,
    seed: int = 0,
) -> ReductionResult:
    """Rewrite ``source`` into a rational combination of multiple zeta words
    of the same weight.  A shape expanded before, by this call or an earlier
    one, is applied from the process-wide expansion memo (see the module
    docstring) with the trace, combination and counters of expanding it
    afresh.  The input counts as convergent when every source term
    converges, terms of coefficient 0 included; the others must share one
    weight.  The trace records are built after the last pop, and only when
    no term is left parked: a reduction that raises ParkedTermsError,
    TermBudgetExceeded or ProgressViolation builds none.  With
    ``verify=True`` each record goes to numeric.check_record as soon as it is
    built, in trace order, which runs the exact per-step checks once per
    relation: a record that is a rational multiple of one already proven
    passes without a new check.  A reduction that parks therefore raises
    ParkedTermsError before any step check.  The combination's values are
    interned Fractions (see terms.interned), one object per value."""
    if max_terms < 1:
        raise ParseError(f"term budget must be at least 1, got {max_terms}")
    source = list(_source_terms(source))  # may be a one-shot iterable
    input_convergent = all(converges(t) for t in source)
    weights = {t.weight for t in source if t.coefficient != 0}
    if len(weights) > 1:
        raise ParseError(f"source terms of mixed weights {sorted(weights)}")

    # the pool of the module docstring, in multiples of 1/d; add merges a
    # term into it
    d = math.lcm(*(Rat(t.coefficient).denominator for t in source))
    pending: dict = {}
    parked: dict = {}
    queue: list = []  # a heap of keys: every pending one, maybe stale ones

    def add(ct: Term, key, m: int) -> None:
        held = pending.pop(key, None)
        queued = held is not None
        if not queued:
            held = parked.pop(key, None)
        if held is not None:
            ct, m = held[0], held[1] + m
        if m:
            pending[key] = ct, m
            if not queued:
                heapq.heappush(queue, key)

    for ct, key in _keyed(source):
        add(ct, key, int(Rat(ct.coefficient) * d))
    trace = ReductionTrace()
    rng = random.Random(seed)  # draws the points of verify's rational checks
    used = 0  # the budget spent: one per pop, one per pass of a merge's loop

    def charge(ticks: int) -> None:
        nonlocal used
        used += ticks
        if used > max_terms:
            raise TermBudgetExceeded(
                f"reduction exceeded the term budget of {max_terms}"
            )

    combo: dict = {}  # word -> multiple of 1/d
    steps: list = []  # (stored records, m) of every pop that expands
    while pending:
        key = heapq.heappop(queue)
        if key not in pending:
            continue  # its term cancelled after it was queued
        trace.max_live = max(trace.max_live, len(pending) + len(parked))
        t, m = pending.pop(key)
        trace.terms_processed += 1
        charge(1)
        assert t.weight in weights

        exp = _expansion(t.pattern, t.exponents, not input_convergent)
        if exp is None:
            parked[key] = t, m
            continue
        # Every move is linear in the coefficient, so a visit is the
        # expansion at coefficient 1 times m / d.
        charge(exp.ticks)
        steps.append((exp.records, m))
        for ct, out_key, n in zip(exp.outputs, exp.keys, exp.ints):
            add(ct, out_key, m * n)
        if exp.word is not None:
            comb_add(combo, exp.word, m)

    if parked:
        held = [t.with_coefficient(Rat(m, d)) for t, m in parked.values()]
        shapes = "; ".join(str(u) for u in held[:3])
        raise ParkedTermsError(
            f"{len(parked)} term(s) with non-vanishing split boundaries were "
            f"never cancelled: {shapes}",
            [term_to_json(u) for u in held],
        )

    # the trace, built only now that the reduction has finished
    for records, m in steps:
        for rec in _applied(records, m, d):
            trace.records.append(rec)
            if verify:
                numeric.check_record(rec, rng=rng)

    for word in combo:
        assert sum(word) in weights, (word, weights)
    divergent_words = [w for w in combo if not is_admissible(w)]
    divergent_cancelled = not divergent_words
    if input_convergent and not divergent_cancelled:
        raise CheckFailed(
            f"convergent input left divergent words {divergent_words}"
        )
    combination = {w: interned(Rat(c, d)) for w, c in combo.items()}
    return ReductionResult(combination, trace, input_convergent, divergent_cancelled)


# ---------------------------------------------------------------------------
# trace replay


def trace_replay(
    source: Union[Term, Iterable[Term]], trace: ReductionTrace
) -> MZVCombination:
    """Re-apply a recorded trace to the input expression.  Every record
    subtracts its input and adds its outputs in a ledger keyed by term_key,
    which needs no canonical form and is computed once per shape and
    process, so a replay pays one table lookup and one rational addition
    per term.  An emit adds its input's coefficient to its word,
    which numeric.emit_word checks against the input's chain, read once per
    shape: a word the chain does not read, or none, raises CheckFailed.
    The ledger adds Fractions, not the engine's ints: replay checks the
    trace, so it accepts any rational one and assumes no integrality.
    Returns the rebuilt word combination, its values interned Fractions as
    reduce_to_mzv's are, once the ledger is empty; otherwise the
    CheckFailed names up to three leftover keys with their coefficients."""
    state: dict = {}
    for t in _source_terms(source):
        comb_add(state, term_key(t), t.coefficient)

    combo: MZVCombination = {}
    for rec in trace.records:
        comb_add(state, term_key(rec.input), -rec.input.coefficient)
        if rec.move == "emit":
            comb_add(combo, numeric.emit_word(rec), rec.input.coefficient)
        for o in rec.outputs:
            comb_add(state, term_key(o), o.coefficient)
    if state:
        left = "; ".join(f"{c} * {k}" for k, c in itertools.islice(state.items(), 3))
        raise CheckFailed(f"replay left {len(state)} unconsumed terms: {left}")
    return {w: interned(Rat(c)) for w, c in combo.items()}
