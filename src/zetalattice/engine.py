"""The reduction driver: rewrite lattice zeta terms into multiple zeta words.

Every popped term goes through a fixed priority of moves:

1. canonicalize and merge like terms (eager, at every insertion);
2. nested row supports (a *chain*): read the word off and emit;
3. dependent distinct columns: one partial-fraction step, pivot at the
   maximal circuit position (strictly lowers the exponent vector
   lexicographically);
4. duplicated row starts: one inverse harmonic split, on the first candidate
   pair whose truncation boundary provably vanishes (see below);
5. a square triangular term that is not yet the staircase of a word: repair
   its first mismatch (column-major order) by the guarded merge step;
6. otherwise merge any adjacent pair of rows whose boundary vanishes;
7. otherwise, a split whose boundary tends to an exact *constant* -- the
   pair carries exponent mass exactly two and the leftover kernel on the
   untouched rows and columns converges -- is applied anyway, and the
   constant (zeta(2) times the leftover kernel, an exact stuffle
   combination of admissible words) is emitted alongside.

Partial fractions and auxiliary columns are exact at every lattice cutoff.
A harmonic split is exact on the full lattice but misclassifies the corner
n_a + n_b > B of the box [1, B]^d, so splitting a *divergent* intermediate
can shift a finite amount of value out of the books even though every
emitted divergent word cancels in the end.  split_defect_vanishes decides,
by integer scale counting, whether that corner sum tends to zero; moves 4-6
only fire when it does.  Emitting is always safe: all chain shapes with the
same word have identical box sums (gap coordinates), so cancelled words
cancel their truncation defects too.

A convergent input whose term has no vanishing-boundary move is *parked*
until a sibling branch cancels it; if any parked term survives to the end
the reduction aborts rather than emit an unsound answer.  For divergent
inputs the reduction is formal (regularized bookkeeping), parking is
skipped, and the old unguarded priority applies as a fallback.

The merge step splits two adjacent rows harmonically; the second and third
parts keep their shape, while the first part (two rows sharing a start --
undoing it naively would just invert the split) gets a fresh exponent-0
column, a partial fraction pivoted there, and full renormalization.  A
global term budget guards the whole loop.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .errors import (
    ParkedTermsError,
    ProgressViolation,
    TermBudgetExceeded,
    CheckFailed,
    ZetaLatticeError,
)
from .linalg import find_circuit
from .moves import (
    TraceRecord,
    forward_hp,
    insert_aux_column,
    aux_circuit,
    inverse_hp,
    pf_step,
)
from .terms import (
    Expression,
    MZVCombination,
    Rat,
    Term,
    canonical_term,
    comb_add,
    converges,
    is_admissible,
    is_chain,
    stuffle_words,
    subset_masses,
    term as build_term,
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

    def tick(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise TermBudgetExceeded(
                f"reduction exceeded the term budget of {self.cap}"
            )


# ---------------------------------------------------------------------------
# structural predicates on canonical terms


def _same_start_pairs(t: Term) -> list[tuple[int, int]]:
    """All inverse-split candidates (a, b), a the longer row, ordered by
    (shared start, shorter end, longer end)."""
    by_start: dict[int, list[tuple[int, int]]] = {}
    for idx, (s, e) in enumerate(t.pattern.rows):
        by_start.setdefault(s, []).append((e, idx))
    out = []
    for s in sorted(by_start):
        grp = sorted(by_start[s])
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                if grp[i][0] == grp[j][0]:
                    continue  # equal rows cannot be split
                out.append((grp[j][1], grp[i][1]))
    return out


def _adjacent_pairs(t: Term) -> list[tuple[int, int]]:
    """All merge candidates (a, b): row a ends right before row b starts,
    ordered by the row intervals."""
    rows = t.pattern.rows
    found = [
        (a, b)
        for a in range(len(rows))
        for b in range(len(rows))
        if a != b and rows[a][1] + 1 == rows[b][0]
    ]
    return sorted(found, key=lambda p: (rows[p[0]], rows[p[1]]))


def _split_candidates(t: Term):
    """Every split the guarded moves may apply to ``t``, in priority order,
    as (a, b, the term whose truncation boundary the split cuts, inverse_hp
    outputs or None for a merge): inverse splits of rows sharing a start
    first, then merges of adjacent rows."""
    for a, b in _same_start_pairs(t):
        outs = inverse_hp(t, a, b)
        yield a, b, outs[0], outs
    starts = t.pattern.row_starts()
    for a, b in _adjacent_pairs(t):
        if starts.count(starts[a]) > 1:
            continue  # first split part would carry three equal starts
        yield a, b, t, None


def _mismatch_pair(t: Term) -> Optional[tuple[int, int]]:
    """The rows (a, b), 0-based, that the staircase repair merges: those of
    the first mismatch of a square triangular term.  None for any other
    term and for the staircase itself."""
    triangular = t.width == t.depth and sorted(t.pattern.row_starts()) == list(
        range(1, t.depth + 1)
    )
    place = first_mismatch(t) if triangular else None
    return None if place is None else (place[0] - 1, place[1] - 1)


def first_mismatch(t: Term) -> Optional[Place]:
    """First place (row i, column j), scanned column-major, where a square
    triangular term differs from the staircase (row m covering m..d).
    None iff the term already is the staircase."""
    d = t.depth
    assert t.width == d, "first_mismatch needs a square term"
    rows = t.pattern.rows
    assert [s for s, _ in rows] == list(range(1, d + 1)), "term must be triangular"
    for j in range(1, d + 1):
        for i in range(1, j):
            if not t.pattern.cover[j - 1] >> (i - 1) & 1:
                return (i, j)
    return None


def _comp_subterm(src: Term, a: int, b: int) -> Optional[Term]:
    """The convergent leftover kernel whose value, times zeta(2), is the
    exact limit of the truncation boundary of a harmonic split of the
    disjoint rows a and b of ``src`` (0-based).  None when the boundary has
    no such clean constant.

    In the corner n_a + n_b > B both split variables run at scale B; every
    column form touching row a or b freezes to that scale and the kernel
    factors into (1 / n_a n_b) times the sub-kernel on the remaining rows
    and the columns touching neither.  Sum over the corner: zeta(2) times
    the sub-kernel value.  This factoring is exact in the limit when

      * the pair's own exponent mass is minimal, K({a, b}) = 2;
      * every larger subset containing both rows has K(T) > |T| (the rest
        of the corner integrand decays);
      * subsets containing exactly one have K(T) >= |T| (one-sided strips
        vanish as usual);
      * the leftover kernel is a valid convergent term: in particular every
        remaining row must keep a column of its own.
    """
    (sa, ea), (sb, eb) = src.pattern.rows[a], src.pattern.rows[b]
    if not (ea < sb or eb < sa):
        return None
    pair = (1 << a) | (1 << b)
    for mask, size, mass in subset_masses(src):
        if mask & pair == pair:
            if (size == 2 and mass != 2) or (size > 2 and mass <= size):
                return None
        elif mask & pair and mass < size:
            return None
    kept = [(m, k) for m, k in zip(src.pattern.cover, src.exponents) if not m & pair]
    sub_rows = []
    for r in range(src.depth):
        if r in (a, b):
            continue
        mine = [i for i, (m, _) in enumerate(kept, start=1) if m >> r & 1]
        if not mine:
            return None
        sub_rows.append((mine[0], mine[-1]))
    sub_exps = [k for _, k in kept]
    try:
        sub = build_term(sub_rows, sub_exps)
    except ZetaLatticeError:
        return None
    if not converges(sub):
        return None
    return sub


def split_defect_vanishes(t: Term, a: int, b: int) -> bool:
    """Whether the truncation boundary of a harmonic split of rows a and b
    (0-based indices into ``t``) vanishes as the box cutoff B grows.

    Splitting inside [1, B]^d misclassifies exactly the corner
    n_a + n_b > B.  Scale counting there: put each variable at B^theta with
    theta_a or theta_b equal to 1 (their sum must reach B); the pair then
    contributes 2*min(theta_a, theta_b) degrees of freedom, because the
    larger variable is pinned to a window as wide as the smaller one, every
    other row contributes theta_r, and the kernel decays with every covered
    column form at the scale of its largest covering row.  Maximizing the
    net exponent over the vertices theta in {0,1}^d (the objective is
    piecewise linear and concave, so vertices suffice) and asking for a
    negative value gives, in subset form with K(T) the total exponent of the
    columns covered by the row set T:

        K(T) >  |T|   for every T containing both split rows,
        K(T) >= |T|   for every T containing exactly one of them.

    Integer data makes failure mean "exponent >= 0", so a polylog factor on
    a passing pair can never flip the verdict.  A convergent source passes
    automatically (its K(T) > |T| for all T); the test has teeth only on
    divergent intermediates."""
    pair = (1 << a) | (1 << b)
    for mask, size, mass in subset_masses(t):
        if not mask & pair:
            continue
        need = size + 1 if mask & pair == pair else size
        if mass < need:
            return False
    return True


def _comp_words(
    sub: Term, inverse: bool, coefficient: Rat, **reduce_args
) -> MZVCombination:
    """The boundary constant of a compensated split as exact words: zeta(2)
    stuffled with the reduction of the leftover kernel ``sub``, times the
    split term's coefficient, negated for a forward split (an inverse split
    books the corner with the opposite orientation)."""
    scale = coefficient if inverse else -coefficient
    words: MZVCombination = {}
    for w, c in reduce_to_mzv(sub, **reduce_args).combination.items():
        for sw, m in stuffle_words((2,), w).items():
            comb_add(words, sw, scale * c * m)
    return words


# ---------------------------------------------------------------------------
# the merge step


def merge_step(
    t: Term,
    a: int,
    b: int,
    recorder: Optional[Callable] = None,
    budget: Optional[_Budget] = None,
    comp_words: Optional[list] = None,
) -> Expression:
    """Atomic merge of two adjacent rows a = [i, j-1] and b = [j, k]: one
    forward harmonic split, then the first part (which has two rows starting
    at i -- inverting it naively would undo the split) gets a fresh
    exponent-0 column and a partial fraction pivoted there until the extra
    column is gone.  The fresh column stays the pivot throughout: exponents
    are the only thing the loop changes, so the circuit found once stays
    valid and each pass moves one exponent unit onto the pivot, ending the
    loop after at most weight-many passes.  A generic pivot choice here can
    invert the insertion and loop forever."""
    i = t.pattern.rows[a][0]
    j = t.pattern.rows[b][0]
    out1, out2, out3 = forward_hp(t, a, b)
    if recorder is not None:
        hp_params: dict = {"a": a, "b": b}
        if comp_words is not None:
            hp_params["comp_words"] = comp_words
        recorder(TraceRecord("forward_hp", t, (out1, out2, out3), hp_params))
    result = Expression()
    result.add(out2)
    result.add(out3)

    c1 = canonical_term(out1)
    aux_t, aux_pos = insert_aux_column(c1, i, j)
    if recorder is not None:
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
        if budget is not None:
            budget.tick()
        src = work.pop()
        outs = pf_step(src, circuit, aux_pos - 1)
        if recorder is not None:
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


def reduce_to_mzv(
    source: Union[Term, Expression, Iterable[Term]],
    max_terms: int = 100_000,
    verify: bool = False,
    seed: int = 0,
) -> ReductionResult:
    """Rewrite ``source`` into a rational combination of multiple zeta words
    of the same weight.  With ``verify=True`` every recorded move is replayed
    through the exact per-step checks as it happens."""
    pending = Expression(_source_terms(source))
    if not pending:
        return ReductionResult({}, ReductionTrace(), True, True)
    input_weight = pending.weight
    input_convergent = all(converges(t) for t in pending)

    trace = ReductionTrace()
    budget = _Budget(max_terms)
    checker = None
    if verify:
        from . import numeric  # local import keeps layering one-way

        rng = random.Random(seed)
        checker = lambda rec: numeric.check_record(rec, rng=rng)

    def recorder(rec: TraceRecord) -> None:
        trace.records.append(rec)
        if checker is not None:
            checker(rec)

    # Terms with no vanishing-boundary move wait here for a sibling branch
    # to cancel them; every insertion into the pool settles against this
    # ledger first.
    parked: dict = {}

    def settle(terms: Iterable[Term]) -> None:
        for raw in terms:
            if raw.coefficient == 0:
                continue
            key = term_key(raw)
            if key in parked:
                c = parked.pop(key).coefficient + raw.coefficient
                if c != 0:
                    pending.add(raw.with_coefficient(c))
            else:
                pending.add(raw)

    combo: MZVCombination = {}
    while pending:
        trace.max_live = max(trace.max_live, len(pending) + len(parked))
        t = pending.pop_smallest()
        trace.terms_processed += 1
        budget.tick()
        assert t.weight == input_weight

        if is_chain(t):
            word, coeff = to_mzv(t)
            recorder(
                TraceRecord(
                    "emit", t, (), {"word": list(word), "coeff": str(coeff)}
                )
            )
            comb_add(combo, word, coeff)
            continue

        circuit = find_circuit(t.pattern.columns())
        if circuit is not None:
            pivot = max(circuit.members)
            outs = pf_step(t, circuit, pivot)
            recorder(
                TraceRecord(
                    "pf_step",
                    t,
                    tuple(outs),
                    {
                        "members": list(circuit.members),
                        "coefficients": [str(c) for c in circuit.coefficients],
                        "pivot": pivot,
                    },
                )
            )
            settle(outs)
            continue

        # Moves 4-7 share one candidate order.  The first split whose
        # boundary vanishes wins; failing that, the first one whose boundary
        # tends to an exact constant is applied anyway and the constant is
        # emitted, sign fixed by the split direction (an inverse split books
        # the corner with the opposite orientation).  The staircase repair
        # leads the vanishing pass only; a triangular term has distinct
        # starts, so it never has inverse-split candidates to overtake.
        lead = _mismatch_pair(t)
        leads = [] if lead is None else [(*lead, t, None)]
        split = None
        for a, b, src, outs in itertools.chain(leads, _split_candidates(t)):
            if split_defect_vanishes(src, a, b):
                split = (a, b, outs, None)
                break
        else:
            for a, b, src, outs in _split_candidates(t):
                sub = _comp_subterm(src, a, b)
                if sub is not None:
                    split = (a, b, outs, sub)
                    break
        if split is not None:
            a, b, outs, sub = split
            words: MZVCombination = {}
            wparams = None
            if sub is not None:
                words = _comp_words(
                    sub,
                    inverse=outs is not None,
                    coefficient=t.coefficient,
                    max_terms=max_terms,
                    verify=verify,
                    seed=seed,
                )
                wparams = [[list(w), str(c)] for w, c in sorted(words.items())]
            if outs is not None:
                params: dict = {"a": a, "b": b}
                if wparams is not None:
                    params["comp_words"] = wparams
                recorder(TraceRecord("inverse_hp", t, tuple(outs), params))
                settle(outs)
            else:
                settle(
                    merge_step(
                        t, a, b, recorder, budget, comp_words=wparams
                    ).terms()
                )
            for w, c in words.items():
                comb_add(combo, w, c)
            continue

        if input_convergent:
            parked[term_key(t)] = t
            continue

        # formal mode: regularized bookkeeping, no boundary guard
        pairs = _same_start_pairs(t)
        if pairs:
            a, b = pairs[0]
            outs = inverse_hp(t, a, b)
            recorder(TraceRecord("inverse_hp", t, tuple(outs), {"a": a, "b": b}))
            settle(outs)
            continue
        if lead is not None:
            settle(merge_step(t, *lead, recorder, budget).terms())
            continue
        raise ProgressViolation(f"no applicable move for {t}")

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
    even when dropping it would break a row interval); at the end the ledger
    must be empty.  Returns the rebuilt word combination."""
    state: dict = {}

    def bump(term: Term, sign: int) -> None:
        k = term_key(term)
        c = state.get(k, Rat(0)) + sign * term.coefficient
        if c == 0:
            state.pop(k, None)
        else:
            state[k] = c

    for t in _source_terms(source):
        bump(t, 1)

    combo: MZVCombination = {}
    for rec in trace.records:
        bump(rec.input, -1)
        if rec.move == "emit":
            comb_add(combo, tuple(rec.params["word"]), Rat(rec.params["coeff"]))
        else:
            for o in rec.outputs:
                bump(o, 1)
            for wl, cs in rec.params.get("comp_words", ()):
                comb_add(combo, tuple(wl), Rat(cs))
    if state:
        raise CheckFailed(f"replay left {len(state)} unconsumed terms")
    return combo
