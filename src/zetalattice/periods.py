"""Integral representations of lattice zeta series and their dlog forms.

Using 1/L = integral of x^(L-1) over [0,1] once per column of the fully
expanded matrix turns a term's series into an integral over the unit cube:

    coefficient * integral of  prod_rows P_j/(1 - P_j) * prod_cols x_c^(m_c)

where P_j is the product of the x variables covered by row j and the measure
exponent m_c (coverage count minus one) is nonnegative, so the integrand is
finite inside the cube.  ``integral_eval`` computes this with the tanh-sinh
rule in every variable, contracted with ``np.einsum`` as a product of row
tables: each factor 1/(1 - P_j) is tabulated on its own row's variables, one
node of the first variable at a time, so with n nodes and W variables no table
holds more than n^(W-1) entries.  It is a second, structurally different
numeric oracle next to the direct partial sums.

The same data also carries a rational differential form

    prod_rows t_b / (t_{a-1} - t_b) * prod_c dt_c / t_c      (t_0 = 1)

which ``forest_expand`` rewrites as an integer combination of wedge products
of dlog(t_i - t_j) factors, one factor per variable, with t_{w+1} = 0 closing
the open ends.  Rows are edges (a-1, b) of a graph on {0..w}; independence of
the rows makes that graph a forest, and orienting every tree away from its
minimal vertex fixes the bookkeeping: an edge pointing label-upward keeps its
dt_(child) part directly, an edge pointing label-downward is split through
t_i/(t_i - t_j) = 1 + t_j/(t_i - t_j), and expanding the binary choices gives
one monomial per subset of downward edges.  Exactly one differential
assignment survives in each monomial (edges choose their child vertex; a
forest has no alternating cycle, so the matching is unique), which determines
every sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CycleDetected, DivergentSeries, ParseError
from .numeric import TABLE_ENTRY_LIMIT, EvalReport, finite_float, refuse_table
from .terms import Pattern, Rat, Term, converges, expand

DEFAULT_NODE_COUNTS = {2: 81, 3: 61, 4: 49, 5: 35}


# ---------------------------------------------------------------------------
# tanh-sinh quadrature on [0, 1]


def tanh_sinh_nodes(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights, and exact 1-x complements for the substitution
    x = (1 + tanh(pi/2 * sinh(kh)))/2, k = -K..K with count = 2K+1."""
    K = max(3, count // 2)
    h = math.asinh(2.0 / math.pi * math.atanh(1.0 - 1e-14)) / K
    ts = h * np.arange(-K, K + 1, dtype=float)
    s = 0.5 * math.pi * np.sinh(ts)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    one_minus = 1.0 / (1.0 + np.exp(2.0 * s))
    wts = h * (0.25 * math.pi) * np.cosh(ts) / np.cosh(s) ** 2
    return x, wts, one_minus


def _ts_value(
    pattern: Pattern, rule: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> float:
    """Tanh-sinh integral of the integrand of a fully expanded pattern,
    coefficient excluded, with the nodes of ``rule`` (from
    ``tanh_sinh_nodes``) in every variable; each variable's measure exponent
    is its coverage minus one, read from ``pattern.cover``.  Each row
    factor 1/(1 - P) is tabulated on the row's own variables, 1 - P computed
    as -expm1(sum of log x) so it stays accurate at the P -> 1 faces.  The
    tables are contracted with the per-variable weights by np.einsum one node
    of the first variable at a time, so no table has more than n^(W-1)
    entries; rows that miss the first variable are tabulated once."""
    x, wts, omx = rule
    lx = np.log1p(-omx)
    vec = [wts * x ** float(bin(mask).count("1") - 1) for mask in pattern.cover]

    def row_table(log_start, count: int) -> np.ndarray:
        # 1/(1 - P) over `count` more variables, log P summed left to right
        S = log_start
        for _ in range(count):
            S = np.add.outer(S, lx)
        return 1.0 / -np.expm1(S)

    def axes(first: int, last: int) -> str:
        # einsum letters of the variables first..last (1-based, like rows)
        return "".join(chr(ord("a") + c - 1) for c in range(first, last + 1))

    fixed = [(row_table(0.0, b - a + 1), axes(a, b)) for a, b in pattern.rows if a > 1]
    walked = [b for a, b in pattern.rows if a == 1]
    subscripts = ",".join(
        [axes(c, c) for c in range(2, pattern.width + 1)]
        + [sub for _, sub in fixed]
        + [axes(2, b) for b in walked]
    ) + "->"
    tables = vec[1:] + [table for table, _ in fixed]
    path = None
    pieces = []
    for i in range(len(x)):
        operands = tables + [row_table(lx[i], b - 1) for b in walked]
        if path is None:
            path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
        inner = np.einsum(subscripts, *operands, optimize=path)
        pieces.append(vec[0][i] * float(inner))
    return math.fsum(pieces)


def integral_eval(t: Term, nodes: Optional[int] = None) -> EvalReport:
    """Evaluate a convergent term through its cube integral.  The error
    estimate compares against the same rule at half the node count; the
    reported cutoff is the node count the rule actually used.  Below 8 nodes
    both rules are the same 7-point rule, so there is no estimate and the
    error is reported as infinite.  Raises ParseError, before expanding or
    tabulating anything, when n nodes at weight W would need a table of
    n^(W-1) entries above TABLE_ENTRY_LIMIT, and when the coefficient or the
    value is outside the float range."""
    if nodes is not None and nodes < 1:
        raise ParseError(f"node count must be at least 1, got {nodes}")
    if not converges(t):
        raise DivergentSeries(
            f"{t} diverges: some set of rows carries no more exponent mass "
            "than its own size"
        )
    W = t.weight  # the width of the expanded pattern
    if nodes is None:
        nodes = DEFAULT_NODE_COUNTS.get(W, 21)
    # at most 23 factors: any node count from 2 on is past the limit by then
    refuse_table(
        nodes ** min(W - 1, TABLE_ENTRY_LIMIT.bit_length()),
        f"a cube integral of weight {W} at {nodes} nodes needs a table of "
        f"{nodes}^{W - 1} entries",
    )
    c = finite_float(t.coefficient, "the coefficient of the term")
    pattern = expand(t)
    rule = tanh_sinh_nodes(nodes)
    coarse_rule = tanh_sinh_nodes(max(7, (nodes // 2) | 1))
    used = len(rule[0])
    fine = _ts_value(pattern, rule)
    value = finite_float(c * fine, "the value of the integral")
    if len(coarse_rule[0]) == used:
        return EvalReport(value, used, True, float("inf"))
    coarse = _ts_value(pattern, coarse_rule)
    err = abs(c) * abs(fine - coarse) + 1e-12 * (1.0 + abs(value))
    return EvalReport(value, used, True, err)


# ---------------------------------------------------------------------------
# forest expansion into dlog monomials


@dataclass(frozen=True)
class FormMonomial:
    """coefficient * wedge of dlog(t_i - t_j) factors, listed in sorted
    order; labels run over 0..w+1 with t_0 = 1 and t_{w+1} = 0."""

    coefficient: Rat
    factors: tuple[tuple[int, int], ...]


def forest_expand(pattern: Pattern) -> list[FormMonomial]:
    """Expand the simplicial form of a pattern (one factor per row, one
    dt/t per column) into dlog monomials.  One monomial per subset of the
    label-downward edges; raises CycleDetected when the rows are dependent."""
    w = pattern.width
    edges = [(a - 1, b) for a, b in pattern.rows]
    adj: list[list[int]] = [[] for _ in range(w + 1)]  # edge indices
    for e, (i, j) in enumerate(edges):
        adj[i].append(e)
        adj[j].append(e)

    # orient every tree away from its minimal vertex: child[e] is the vertex
    # edge e points to.  An edge that reaches a vertex some other path has
    # reached closes a cycle, parallel rows included.
    child: list[Optional[int]] = [None] * len(edges)
    seen = [False] * (w + 1)
    for base in range(w + 1):
        if seen[base]:
            continue
        seen[base] = True
        stack = [base]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                if child[e] is not None:
                    continue  # the edge that reached u
                i, j = edges[e]
                v = i + j - u
                if seen[v]:
                    raise CycleDetected(f"rows form a cycle through edge ({i},{j})")
                seen[v] = True
                child[e] = v
                stack.append(v)

    # oriented label-upward (i -> j): keep the child differential as -dt_j;
    # oriented label-downward: split 1 + t_j/(t_i - t_j)
    right = [e for e, (_, j) in enumerate(edges) if child[e] == j]
    wrong = [e for e, (_, j) in enumerate(edges) if child[e] != j]

    out = []
    for r in range(len(wrong) + 1):
        for chosen in itertools.combinations(wrong, r):
            picked = right + list(chosen)
            factors = [edges[e] for e in picked]
            diffs = [child[e] for e in picked]
            assert len(set(diffs)) == len(diffs) and 0 not in diffs
            free = [v for v in range(1, w + 1) if v not in diffs]
            factors += [(v, w + 1) for v in free]
            diffs += free
            order = sorted(range(w), key=lambda p: factors[p])
            perm = [diffs[p] for p in order]
            inversions = sum(
                1
                for p in range(w)
                for q in range(p + 1, w)
                if perm[p] > perm[q]
            )
            sign = Rat(-1) ** (len(right) + (len(wrong) - r) + inversions)
            out.append(
                FormMonomial(sign, tuple(factors[p] for p in order))
            )
    return out


# ---------------------------------------------------------------------------
# exact evaluation of forms at rational points (test utilities)


def _tval(v: int, ts: Sequence[Rat]) -> Rat:
    w = len(ts)
    if v == 0:
        return Rat(1)
    if v == w + 1:
        return Rat(0)
    return Rat(ts[v - 1])


def omega_gradient(i: int, j: int, ts: Sequence[Rat]) -> list[Rat]:
    """Row of d/dt_c log(t_i - t_j) over the live variables t_1..t_w."""
    w = len(ts)
    denom = _tval(i, ts) - _tval(j, ts)
    row = [Rat(0)] * w
    if 1 <= i <= w:
        row[i - 1] += 1 / denom
    if 1 <= j <= w:
        row[j - 1] -= 1 / denom
    return row


def _det(rows: list[list[Rat]]) -> Rat:
    n = len(rows)
    m = [list(r) for r in rows]
    det = Rat(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Rat(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    return det


def monomial_value(mono: FormMonomial, ts: Sequence[Rat]) -> Rat:
    """Coefficient of dt_1 ^ ... ^ dt_w in the monomial at the point."""
    rows = [omega_gradient(i, j, ts) for i, j in mono.factors]
    return mono.coefficient * _det(rows)


def simplicial_coefficient(pattern: Pattern, ts: Sequence[Rat]) -> Rat:
    """Coefficient of dt_1 ^ ... ^ dt_w in the unexpanded simplicial form."""
    val = Rat(1)
    for a, b in pattern.rows:
        val *= _tval(b, ts) / (_tval(a - 1, ts) - _tval(b, ts))
    for c in range(1, pattern.width + 1):
        val /= _tval(c, ts)
    return val
