"""Value-preserving rewrites on lattice zeta terms.

Two families of moves, each an exact identity of kernels or of lattice sums:

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

A harmonic split is exact on the full lattice but not inside a box cutoff:
``split_defect_vanishes`` decides whether its truncation boundary vanishes,
and ``boundary_term`` gives the constant it tends to otherwise, when there
is one.

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
    ZetaLatticeError,
)
from .linalg import CircuitDependency
from .terms import (
    Pattern,
    Rat,
    Term,
    converges,
    direct_sum,
    from_mzv,
    subset_masses,
    term as build_term,
)


@dataclass
class TraceRecord:
    """One applied move: raw input, raw outputs, and enough parameters to
    replay the move and to check it independently."""

    move: str
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
    truncation boundary tends to as a fourth output (see boundary_term).  A
    record books its input as the sum of its outputs, so an inverse_hp
    record t = o1 + o2 + o3 (+ o4) is the forward split o1 = t - o2 - o3
    (- o4)."""
    outs = list(rec.outputs)
    boundary = outs.pop() if len(outs) > 3 else None
    if rec.move == "forward_hp":
        return rec.input, outs, boundary
    o1, *rest = outs
    if boundary is not None:
        boundary = boundary.scaled(-1)
    return o1, [rec.input, *(o.scaled(-1) for o in rest)], boundary


# ---------------------------------------------------------------------------
# split boundaries


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


def boundary_term(src: Term, a: int, b: int) -> Optional[Term]:
    """The constant truncation boundary of a harmonic split of the disjoint
    rows a and b of ``src`` (0-based) as a term, oriented as the fourth
    output of forward_hp(src, a, b): minus src's coefficient times the
    direct sum of zeta(2) and the leftover kernel (see _comp_subterm), of
    the weight of ``src``.  None when the boundary has no such constant."""
    sub = _comp_subterm(src, a, b)
    if sub is None:
        return None
    return direct_sum(from_mzv((2,)), sub).scaled(-src.coefficient)


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
