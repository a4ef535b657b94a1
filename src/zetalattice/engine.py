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
   sharing a start, and merges of adjacent rows, in three stages:

   a. every split whose truncation boundary provably vanishes (see below),
      the staircase repair leading;
   b. every split whose boundary tends to an exact *constant* -- the pair
      carries exponent mass exactly two and the leftover kernel on the
      untouched rows and columns converges.  It is applied anyway, and the
      constant, zeta(2) times the leftover kernel, is booked as a fourth
      output of the split: the direct sum of the two, a term of the input's
      weight that the pool reduces like any other;
   c. for divergent inputs only, where the reduction is formal (regularized
      bookkeeping): the inverse splits and the staircase repair, with the
      guard waived.

Partial fractions and auxiliary columns are exact at every lattice cutoff.
A harmonic split is exact on the full lattice but misclassifies the corner
n_a + n_b > B of the box [1, B]^d, so splitting a *divergent* intermediate
can shift a finite amount of value out of the books even though every
emitted divergent word cancels in the end.  moves.split_defect_vanishes
decides, by integer scale counting, whether that corner sum tends to zero;
stage (a) admits a split only when it does.  Emitting is always safe: all
chain shapes with the same word have identical box sums (gap coordinates),
so cancelled words cancel their truncation defects too.

A convergent input whose term has no guarded split is *parked* until a
sibling branch cancels it; if any parked term survives to the end the
reduction aborts rather than emit an unsound answer.  A divergent input's
term with no split at all raises ProgressViolation.

The merge step splits two adjacent rows harmonically; the second and third
parts keep their shape, while the first part (two rows sharing a start --
undoing it naively would just invert the split) gets a fresh exponent-0
column, a partial fraction pivoted there, and full renormalization.  A
global term budget guards the whole loop: every pop and every pass of a
merge's inner loop.  Words come only from emits, and reduce_to_mzv never
calls itself.

Every move is linear in the coefficient of the term it rewrites: its
choice, its parameters and the shapes of its outputs depend on the shape
alone (pattern and exponents), and every output coefficient and emitted
coefficient is the input coefficient times a rational fixed by the shape.
So a shape's expansion at coefficient 1 is a pure function of the shape
(pattern, exponents, and whether the reduction is formal: stage (c) exists
only then): the trace records, the canonical outputs with their term_key,
the emitted word, the passes of a merge's inner loop, or the fact that the
term parks.  _expansion memoises it for the whole process, the last
EXPANSION_BOUND shapes kept, with one interned copy of each term, pattern,
exponent tuple, coefficient and term key it stores.  Every pop, in this
call or any later one, applies its shape's expansion times its own
coefficient lam through _applied, as fresh records that share nothing
mutable with the memo, so the trace, the combination and every counter are
those of expanding the shape afresh.  With ``verify=True`` every applied
record still goes to numeric.check_record; an applied record is an exact
rational multiple of the stored one, and check_record proves each such
relation once per process.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from . import numeric
from .errors import (
    ParkedTermsError,
    ParseError,
    ProgressViolation,
    TermBudgetExceeded,
    CheckFailed,
)
from .linalg import find_circuit
from .moves import (
    TraceRecord,
    aux_circuit,
    boundary_term,
    forward_hp,
    insert_aux_column,
    inverse_hp,
    pf_step,
    split_defect_vanishes,
)
from .terms import (
    Expression,
    MZVCombination,
    Pattern,
    Rat,
    Term,
    Word,
    canonical_term,
    comb_add,
    converges,
    interned,
    is_admissible,
    is_chain,
    term_key,
    term_to_json,
    to_mzv,
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


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise TermBudgetExceeded(
                f"reduction exceeded the term budget of {self.cap}"
            )


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
    order, as (a, b, inverse_hp outputs or None for a merge, boundary_term of
    the forward split or None): first every split whose boundary vanishes,
    led by the staircase repair (a triangular term has distinct starts, so it
    never has inverse splits to overtake); then every split whose boundary
    tends to zeta(2) times the convergent leftover kernel; then, only when
    ``formal``, the inverse splits and the staircase repair with the guard
    waived."""
    place = first_mismatch(t)
    leads = [] if place is None else [(place[0] - 1, place[1] - 1, t, None)]
    for a, b, src, outs in itertools.chain(leads, _split_candidates(t)):
        if split_defect_vanishes(src, a, b):
            yield a, b, outs, None
    for a, b, src, outs in _split_candidates(t):
        boundary = boundary_term(src, a, b)
        if boundary is not None:
            yield a, b, outs, boundary
    if formal:
        inverse = (c for c in _split_candidates(t) if c[3] is not None)
        for a, b, _, outs in itertools.chain(inverse, leads):
            yield a, b, outs, None


# ---------------------------------------------------------------------------
# the merge step


def merge_step(
    t: Term,
    a: int,
    b: int,
    recorder: Callable,
    boundary: Optional[Term] = None,
) -> Expression:
    """Atomic merge of two adjacent rows a = [i, j-1] and b = [j, k]: one
    forward harmonic split, then the first part (which has two rows starting
    at i -- inverting it naively would undo the split) gets a fresh
    exponent-0 column and a partial fraction pivoted there until the extra
    column is gone.  The fresh column stays the pivot throughout: exponents
    are the only thing the loop changes, so the circuit found once stays
    valid and each pass moves one exponent unit onto the pivot, ending the
    loop after at most weight-many passes.  A generic pivot choice here can
    invert the insertion and loop forever.  A compensated merge books its
    ``boundary`` (see boundary_term) as the split's fourth output."""
    i = t.pattern.rows[a][0]
    j = t.pattern.rows[b][0]
    out1, *rest = forward_hp(t, a, b)
    if boundary is not None:
        rest.append(boundary)
    recorder(TraceRecord("forward_hp", t, (out1, *rest), {"a": a, "b": b}))
    result = Expression(rest)

    c1 = canonical_term(out1)
    aux_t, aux_pos = insert_aux_column(c1, i, j)
    recorder(
        TraceRecord("insert_aux", c1, (aux_t,), {"pair": [i, j], "aux": aux_pos})
    )
    circuit = aux_circuit(aux_t, aux_pos)
    params = {
        "members": list(circuit.members),
        "coefficients": [str(c) for c in circuit.coefficients],
        "pivot": aux_pos - 1,
    }
    work = [aux_t]
    while work:
        src = work.pop()
        outs = pf_step(src, circuit, aux_pos - 1)
        recorder(TraceRecord("pf_step", src, tuple(outs), dict(params)))
        for raw in outs:
            if raw.width > t.width:
                # member exponent still positive: no column vanished yet
                work.append(raw)
                continue
            result.add(raw)
    return result


# ---------------------------------------------------------------------------
# the driver


def _source_terms(source: Union[Term, Expression, Iterable[Term]]) -> Iterable[Term]:
    """The terms of a reduction source: one term, an Expression, or any
    iterable of terms."""
    return (source,) if isinstance(source, Term) else source


@dataclass(slots=True)
class _Expansion:
    """What the driver does with one popped shape at coefficient 1: the
    trace records (see _stored), the canonical outputs and their term_keys,
    the emitted word, the budget ticks of a merge's inner loop, or the fact
    that the term parks.  Nothing in it is mutable, and its terms and keys
    are interned."""

    records: tuple = ()
    outputs: tuple = ()
    keys: tuple = ()
    word: Optional[Word] = None
    ticks: int = 0
    parks: bool = False


def _shared(t: Term) -> Term:
    """The interned copy of ``t``, with its pattern, exponents and
    coefficient interned too."""
    parts = interned(t.pattern), interned(t.exponents), interned(t.coefficient)
    return interned(Term(*parts))


def _stored(rec: TraceRecord) -> tuple:
    """``rec`` as one flat tuple: the move, the params as (name, value)
    pairs with lists made tuples (the engine's params hold ints, strings
    and flat lists of them), the input, then the outputs; terms and params
    interned."""
    params = tuple(
        (name, tuple(v) if type(v) is list else v) for name, v in rec.params.items()
    )
    return (rec.move, interned(params), *map(_shared, (rec.input, *rec.outputs)))


def _applied(stored: tuple, lam: Rat) -> TraceRecord:
    """A new TraceRecord from a stored one times ``lam``: the input, the
    outputs and an emitted coefficient scaled, sharing no mutable object
    with the memo."""
    move, params, *terms = stored
    params = {name: list(v) if type(v) is tuple else v for name, v in params}
    if lam != 1:
        terms = [Term(u.pattern, u.exponents, u.coefficient * lam) for u in terms]
        if "coeff" in params:
            params["coeff"] = str(Rat(params["coeff"]) * lam)
    return TraceRecord(move, terms[0], tuple(terms[1:]), params)


def _keyed(outs: Iterable[Term]) -> list[tuple[Term, tuple]]:
    """The nonzero raw outputs of a move, canonical and paired with their
    term_key."""
    keyed = []
    for raw in outs:
        if raw.coefficient != 0:
            ct = canonical_term(raw)
            keyed.append((ct, term_key(ct)))
    return keyed


# Measured with tracemalloc: filled to the bound from the 2,877 shapes of
# random_corpus(seed=11, count=400, max_depth=4, max_weight=7), the table
# and the values interned for it held 3.3 MB.  One deep4 pass stores 850
# shapes in 1.4 MB, one verified corpus200 pass 442 in 0.5 MB.
EXPANSION_BOUND = 2048  # shapes kept


@functools.lru_cache(maxsize=EXPANSION_BOUND)
def _expansion(
    pattern: Pattern, exponents: tuple[int, ...], formal: bool
) -> _Expansion:
    """Choose and make the move for a popped canonical term of this shape at
    coefficient 1 (see the module docstring for the priority), without
    touching the driver's state."""
    t = Term(pattern, exponents, Rat(1))
    records: list[TraceRecord] = []
    outputs: list[tuple[Term, tuple]] = []
    word = None
    ticks = 0
    if is_chain(t):
        word, coeff = to_mzv(t)
        records.append(
            TraceRecord("emit", t, (), {"word": list(word), "coeff": str(coeff)})
        )
    elif (circuit := find_circuit(t.pattern.columns())) is not None:
        pivot = max(circuit.members)
        outs = pf_step(t, circuit, pivot)
        params = {
            "members": list(circuit.members),
            "coefficients": [str(c) for c in circuit.coefficients],
            "pivot": pivot,
        }
        records.append(TraceRecord("pf_step", t, tuple(outs), params))
        outputs = _keyed(outs)
    else:
        move = next(guarded_moves(t, formal), None)
        if move is None:
            if formal:
                raise ProgressViolation(f"no applicable move for {t}")
            return _Expansion(parks=True)
        a, b, outs, boundary = move
        if outs is not None:
            if boundary is not None:
                # t is the first output of the forward split of outs[0], whose
                # boundary therefore enters t with the opposite sign
                outs = (*outs, boundary.scaled(-1))
            records.append(TraceRecord("inverse_hp", t, outs, {"a": a, "b": b}))
            outputs = _keyed(outs)
        else:
            outputs = merge_step(t, a, b, records.append, boundary).keyed_terms()
            # one tick per pass of the merge's inner loop: its pf_step records
            ticks = sum(rec.move == "pf_step" for rec in records)
    return _Expansion(
        tuple(map(_stored, records)),
        tuple(_shared(ct) for ct, _ in outputs),
        tuple(key for _, key in outputs),  # term_key interns its values
        None if word is None else interned(word),
        ticks,
    )


def reduce_to_mzv(
    source: Union[Term, Expression, Iterable[Term]],
    max_terms: int = 100_000,
    verify: bool = False,
    seed: int = 0,
) -> ReductionResult:
    """Rewrite ``source`` into a rational combination of multiple zeta words
    of the same weight.  A shape expanded before, by this call or an earlier
    one, is applied from the process-wide expansion memo (see the module
    docstring) with the trace, combination and counters of expanding it
    afresh.  The input counts as convergent when every source term
    converges, terms of coefficient 0 included.  With ``verify=True`` every
    recorded move goes to numeric.check_record as it happens, which runs the
    exact per-step checks once per relation: a record that is a rational
    multiple of one already proven passes without a new check."""
    if max_terms < 1:
        raise ParseError(f"term budget must be at least 1, got {max_terms}")
    source = list(_source_terms(source))  # may be a one-shot iterable
    input_convergent = all(converges(t) for t in source)
    pending = Expression(source)
    if not pending:
        return ReductionResult({}, ReductionTrace(), input_convergent, True)
    input_weight = pending.weight

    trace = ReductionTrace()
    budget = _Budget(max_terms)
    checker = None
    if verify:
        rng = random.Random(seed)
        checker = lambda rec: numeric.check_record(rec, rng=rng)

    # Terms with no vanishing-boundary move wait here for a sibling branch
    # to cancel them; every insertion into the pool settles against this
    # ledger first.
    parked: dict = {}
    combo: MZVCombination = {}
    while pending:
        trace.max_live = max(trace.max_live, len(pending) + len(parked))
        t = pending.pop_smallest()
        trace.terms_processed += 1
        budget.tick()
        assert t.weight == input_weight

        exp = _expansion(t.pattern, t.exponents, not input_convergent)
        if exp.parks:
            parked[term_key(t)] = t
            continue
        # Every move is linear in the coefficient, so a visit is the
        # expansion at coefficient 1 times lam.
        lam = t.coefficient
        budget.tick(exp.ticks)
        for stored in exp.records:
            rec = _applied(stored, lam)
            trace.records.append(rec)
            if checker is not None:
                checker(rec)
        for ct, key in zip(exp.outputs, exp.keys):
            if lam != 1:
                ct = Term(ct.pattern, ct.exponents, ct.coefficient * lam)
            if key in parked:
                c = parked.pop(key).coefficient + ct.coefficient
                if c != 0:
                    pending.add_canonical(ct.with_coefficient(c), key)
            else:
                pending.add_canonical(ct, key)
        if exp.word is not None:
            comb_add(combo, exp.word, t.coefficient)

    if parked:
        shapes = "; ".join(str(u) for u in list(parked.values())[:3])
        raise ParkedTermsError(
            f"{len(parked)} term(s) with non-vanishing split boundaries were "
            f"never cancelled: {shapes}",
            [term_to_json(u) for u in parked.values()],
        )

    for word in combo:
        assert sum(word) == input_weight, (word, input_weight)
    divergent_words = [w for w in combo if not is_admissible(w)]
    divergent_cancelled = not divergent_words
    if input_convergent and not divergent_cancelled:
        raise CheckFailed(
            f"convergent input left divergent words {divergent_words}"
        )
    return ReductionResult(combo, trace, input_convergent, divergent_cancelled)


# ---------------------------------------------------------------------------
# trace replay


def trace_replay(
    source: Union[Term, Expression, Iterable[Term]], trace: ReductionTrace
) -> MZVCombination:
    """Re-apply a recorded trace to the input expression.  Every record
    subtracts its input and adds its outputs in a ledger keyed by term_key,
    which needs no canonical form (raw aux terms carry a zero-exponent column
    even when dropping it would break a row interval) and is computed once
    per shape and process, so a replay pays one table lookup and one rational
    addition per term.  At the end the ledger must be empty; otherwise the
    CheckFailed names up to three leftover keys with their coefficients.
    Returns the rebuilt word combination."""
    state: dict = {}

    def bump(term: Term, add: bool) -> None:
        k = term_key(term)
        c = term.coefficient
        old = state.pop(k, None)
        if old is not None:
            c = old + c if add else old - c
        elif not add:
            c = -c
        if c:
            state[k] = c

    for t in _source_terms(source):
        bump(t, True)

    combo: MZVCombination = {}
    for rec in trace.records:
        bump(rec.input, False)
        if rec.move == "emit":
            comb_add(combo, tuple(rec.params["word"]), Rat(rec.params["coeff"]))
        else:
            for o in rec.outputs:
                bump(o, True)
    if state:
        left = "; ".join(f"{c} * {k}" for k, c in itertools.islice(state.items(), 3))
        raise CheckFailed(f"replay left {len(state)} unconsumed terms: {left}")
    return combo
