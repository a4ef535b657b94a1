"""Value-preserving rewrites on lattice zeta terms.

Three families of moves, each an exact identity of kernels or of lattice sums:

* ``pf_step`` — partial fractions.  A vanishing rational combination of
  column forms  sum_t alpha_t * L_t == 0  lets one solve for the pivot form
  and trade one exponent unit from every other circuit column onto the pivot:

      1/prod L^k  =  sum over t != pivot of (-alpha_t/alpha_pivot)
                     * 1/(L_t^(k_t - 1) * L_pivot^(k_pivot + 1) * rest).

* ``forward_hp`` / ``inverse_hp`` — the harmonic (stuffle) split.  Two rows
  with touching supports [i,j], [j+1,k] carry independent variables n, m; the
  lattice splits into n>m, n<m, n=m, and the substitutions (n,m) = (u+v,u),
  (u,u+v), (u,u) turn each part into a new term whose two special rows are
  {[i,k],[i,j]}, {[i,k],[j+1,k]}, {[i,k]} with exponents unchanged.
  ``inverse_hp`` solves the same identity for its first right-hand term.

* ``insert_aux_column`` — bookkeeping only: a fresh column with exponent 0
  (kernel unchanged) placed so that a circuit through it exists; the engine
  immediately pivots a pf_step at it.

Moves return *raw* outputs: the row list order of the input is preserved
(position a holds the merged row, position b the difference row), so trace
records can replay exact per-lattice-point identities.  Canonicalization is
the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    ExponentUnderflow,
    IntervalBroken,
    InvalidPivot,
    RowsDontShareStart,
    RowsNotAdjacent,
)
from .linalg import CircuitDependency, find_circuit
from .terms import Pattern, Rat, Term


@dataclass
class TraceRecord:
    """One applied move: raw input, raw outputs, and enough parameters to
    replay the move and to check it independently."""

    move: str  # "pf_step" | "forward_hp" | "inverse_hp" | "insert_aux" | "emit"
    input: Term
    outputs: tuple[Term, ...]
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# partial fractions


def _drop_column(pat: Pattern, exps: list[int], pos: int):
    """Remove 1-based column ``pos`` (exponent must already be 0)."""
    rows = []
    for a, b in pat.rows:
        if a <= pos <= b:
            if a == b:
                raise IntervalBroken(f"dropping column {pos} empties a row")
            rows.append((a, b - 1))
        elif pos < a:
            rows.append((a - 1, b - 1))
        else:
            rows.append((a, b))
    new_exps = exps[: pos - 1] + exps[pos:]
    return Pattern(pat.width - 1, tuple(rows)), new_exps


def pf_step(t: Term, circuit: CircuitDependency, pivot: int) -> list[Term]:
    """Apply the partial-fraction identity for ``circuit`` with the given
    pivot (0-based column position).  Columns whose exponent reaches 0 are
    dropped.  The pivot may carry exponent 0 (an auxiliary column)."""
    if pivot not in circuit.members:
        raise InvalidPivot(f"pivot {pivot} not in circuit {circuit.members}")
    alpha_p = circuit.coefficient_of(pivot)
    if alpha_p == 0:
        raise InvalidPivot(f"pivot {pivot} has zero circuit coefficient")
    for m in circuit.members:
        if m != pivot and t.exponents[m] < 1:
            raise ExponentUnderflow(
                f"circuit member {m} has exponent {t.exponents[m]}"
            )
    out = []
    for m, alpha_m in zip(circuit.members, circuit.coefficients):
        if m == pivot:
            continue
        exps = list(t.exponents)
        exps[m] -= 1
        exps[pivot] += 1
        coeff = t.coefficient * (-alpha_m / alpha_p)
        if exps[m] == 0:
            pat, exps = _drop_column(t.pattern, exps, m + 1)
        else:
            pat = t.pattern
        out.append(Term(pat, tuple(exps), coeff))
    return out


# ---------------------------------------------------------------------------
# harmonic product


def _with_rows(t: Term, a: int, b: int, ra, rb, sign=Rat(1)) -> Term:
    """``t`` with row a replaced by ``ra`` and row b by ``rb`` (dropped when
    ``rb`` is None), coefficient times ``sign``; exponents unchanged."""
    rows = list(t.pattern.rows)
    rows[a] = ra
    if rb is None:
        del rows[b]
    else:
        rows[b] = rb
    return Term(Pattern(t.width, tuple(rows)), t.exponents, t.coefficient * sign)


def forward_hp(t: Term, a: int, b: int) -> tuple[Term, Term, Term]:
    """Split rows a = [i,j] and b = [j+1,k] over n>m, n<m, n=m.

    Raw output layout (used by the lattice checks): in every output, position
    a holds the merged row [i,k] with the small variable u; in outputs 1 and 2
    position b holds the difference row with variable v; output 3 drops row b.
    """
    if a == b:
        raise RowsNotAdjacent("need two distinct rows")
    i, j = t.pattern.rows[a]
    j1, k = t.pattern.rows[b]
    if j1 != j + 1:
        raise RowsNotAdjacent(
            f"rows ({i},{j}) and ({j1},{k}) do not touch end-to-start"
        )
    return (
        _with_rows(t, a, b, (i, k), (i, j)),
        _with_rows(t, a, b, (i, k), (j1, k)),
        _with_rows(t, a, b, (i, k), None),
    )


def inverse_hp(t: Term, a: int, b: int) -> tuple[Term, Term, Term]:
    """Resolve two rows sharing a start: a = [c,k], b = [c,j] with j < k.

    Returns (out1, out2, out3) with signs (+, -, -) folded into the
    coefficients:  t = out1 - out2 - out3  where out1 = {[c,j],[j+1,k]},
    out2 = {[c,k],[j+1,k]}, out3 = {[c,k]} (row b dropped).  In every output
    the replaced rows sit at positions a and b, so forward_hp(out1, a, b)
    reproduces (t, out2, out3) exactly.
    """
    if a == b:
        raise RowsDontShareStart("need two distinct rows")
    c, k = t.pattern.rows[a]
    c2, j = t.pattern.rows[b]
    if c != c2:
        raise RowsDontShareStart(
            f"rows ({c},{k}) and ({c2},{j}) have different starts"
        )
    if not j < k:
        raise RowsDontShareStart("rowB must end strictly before rowA")
    return (
        _with_rows(t, a, b, (c, j), (j + 1, k)),
        _with_rows(t, a, b, (c, k), (j + 1, k), Rat(-1)),
        _with_rows(t, a, b, (c, k), None, Rat(-1)),
    )


def forward_split(rec: TraceRecord) -> tuple[Term, list[Term], Optional[Term]]:
    """A harmonic-split record as (the term split forward, its three
    forward_hp outputs, its boundary term or None).  Outputs 1-3 of a record
    are the split; a compensated split books the constant that its
    truncation boundary tends to as a fourth output (see
    engine.boundary_term).  A record books its input as the sum of its
    outputs, so an inverse_hp record t = o1 + o2 + o3 (+ o4) is the forward
    split o1 = t - o2 - o3 (- o4)."""
    outs = list(rec.outputs)
    boundary = outs.pop() if len(outs) > 3 else None
    if rec.move == "forward_hp":
        return rec.input, outs, boundary
    o1, *rest = outs
    if boundary is not None:
        boundary = boundary.scaled(-1)
    return o1, [rec.input, *(o.scaled(-1) for o in rest)], boundary


# ---------------------------------------------------------------------------
# auxiliary column


def insert_aux_column(t: Term, i: int, j: int) -> tuple[Term, int]:
    """Insert, immediately before column i, a column with exponent 0 covered
    exactly by the rows straddling the insertion point (start < i <= end) and
    by the longer of the two rows that start at i (the 'extended' row).  Rows
    lying entirely left of column i are untouched.  The kernel is unchanged.

    Expects the first output of forward_hp: exactly two rows start at i,
    ending at j-1 and at r >= j.  Returns (term, aux position, both 1-based).
    """
    at_i = [r for r, (s, _) in enumerate(t.pattern.rows) if s == i]
    if len(at_i) != 2:
        raise IntervalBroken(f"expected exactly two rows starting at {i}")
    ends = sorted((t.pattern.rows[r][1], r) for r in at_i)
    if ends[0][0] != j - 1 or ends[1][0] < j:
        raise IntervalBroken(
            f"rows at start {i} end at {ends[0][0]},{ends[1][0]}; "
            f"expected {j - 1} and >= {j}"
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
    out = Term(Pattern(t.width + 1, tuple(rows)), tuple(exps), t.coefficient)
    straddling = t.pattern.cover[i - 1] & ~sum(1 << r for r in at_i)
    expected = straddling | 1 << extended
    if out.pattern.cover[i - 1] != expected:
        raise IntervalBroken(
            f"aux column covered by row mask {out.pattern.cover[i - 1]:b}, "
            f"expected {expected:b}"
        )
    return out, i


def aux_circuit(t: Term, aux_pos: int) -> CircuitDependency:
    """The deterministic circuit through the auxiliary column (1-based
    position).  Always exists: the other columns span the full row space."""
    circuit = find_circuit(t.pattern.columns(), must_contain=aux_pos - 1)
    if circuit is None:
        raise InvalidPivot(f"no circuit through auxiliary column {aux_pos}")
    return circuit
