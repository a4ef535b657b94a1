"""Integral representations of lattice zeta series and their dlog forms.

Using 1/L = integral of x^(L-1) over [0,1] once per column of the fully
expanded matrix turns a term's series into an integral over the unit cube:

    coefficient * integral of  prod_rows P_j/(1 - P_j) * prod_cols x_c^(m_c)

where P_j is the product of the x variables covered by row j and the measure
exponent m_c (coverage count minus one) is nonnegative, so the integrand is
finite inside the cube.  ``integral_eval`` computes this with the tanh-sinh
rule in every variable, contracted with ``np.einsum`` as a product of row
tables.  Columns of equal cover enter the integrand symmetrically, so each
group of them is summed over multisets of nodes rather than over all tuples,
and each factor 1/(1 - P_j) is tabulated on the axes of its own row's groups.
The rows through the first column are tabulated in blocks of at most _CHUNK
entries along its group's axis, the others once, so with n nodes and W
variables no table holds more than max(_CHUNK, n^(W-1)) entries.  It is a
second, structurally different numeric oracle next to the direct partial
sums.

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
from .numeric import (
    _CHUNK,
    TABLE_ENTRY_LIMIT,
    EvalReport,
    finite_float,
    refuse_table,
)
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


def _multisets(
    lx: np.ndarray, v: np.ndarray, g: int
) -> tuple[np.ndarray, np.ndarray]:
    """One point per multiset of g node indices, in lexicographic order of
    the sorted indices: the sum of their log x, and the number of orderings
    of the multiset times the product of their weights ``v``."""
    n = len(lx)
    last = np.arange(n)
    s, w = lx, v
    orderings = run = np.ones(n)
    for size in range(2, g + 1):
        # extend each multiset by every index from its last one on
        counts = n - last
        parent = np.repeat(np.arange(len(last)), counts)
        first = np.cumsum(counts) - counts
        new = last[parent] + np.arange(len(parent)) - first[parent]
        run = np.where(new == last[parent], run[parent] + 1.0, 1.0)
        orderings = orderings[parent] * size / run  # size! / prod(mult!)
        s = s[parent] + lx[new]
        w = w[parent] * v[new]
        last = new
    return s, orderings * w


def _ts_value(
    pattern: Pattern, rule: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> float:
    """Tanh-sinh integral of the integrand of a fully expanded pattern,
    coefficient excluded, with the nodes of ``rule`` (from
    ``tanh_sinh_nodes``) in every variable; each variable's measure exponent
    is its coverage minus one, read from ``pattern.cover``.

    Columns of equal cover lie in the same rows and carry the same weight, so
    the summand is symmetric in their node indices: a group of g such columns
    gets one axis over the multisets of g nodes (see _multisets), and a group
    whose axis would pass _CHUNK points is split into smaller ones.  Each row
    factor 1/(1 - P) is tabulated on the axes of its groups, 1 - P computed
    as -expm1(sum of log x) so it stays accurate at the P -> 1 faces.  The
    rows through column 1 are walked in blocks along the axis of its group,
    at most _CHUNK entries a block (one point, if that is more), and summed
    against that axis's weights into one table over their other axes; the
    other rows are tabulated once, and np.einsum contracts them with that
    table and the axis weights.  Every table misses column 1 or is a block,
    so none holds more than max(_CHUNK, n^(W-1)) entries."""
    x, wts, omx = rule
    n = len(x)
    lx = np.log1p(-omx)
    sizes: dict[int, int] = {}  # cover mask -> columns, column 1's first
    for mask in pattern.cover:
        sizes[mask] = sizes.get(mask, 0) + 1
    masks, logs, weights = [], [], []  # per axis
    for mask, g in sizes.items():
        vec = wts * x ** float(bin(mask).count("1") - 1)
        while g:
            size = max(
                [k for k in range(2, g + 1) if math.comb(n + k - 1, k) <= _CHUNK],
                default=1,
            )
            s, w = _multisets(lx, vec, size)
            masks.append(mask)
            logs.append(s)
            weights.append(w)
            g -= size

    def table(parts: list[np.ndarray], numerator=1.0) -> np.ndarray:
        # numerator/(1 - P) over the outer sum of the log sums in `parts`
        S = parts[0].copy()
        for p in parts[1:]:
            S = np.add.outer(S, p)
        np.expm1(S, out=S)
        return np.divide(-numerator, S, out=S)

    # The axes of each row, ascending.  A row through column 1 covers
    # columns 1..b, whose groups are the first axes, so the rows on axis 0
    # are nested and the widest one has every axis the others have.
    rows = [
        [i for i, mask in enumerate(masks) if mask >> j & 1]
        for j in range(pattern.depth)
    ]
    walked = sorted((r for r in rows if r[0] == 0), key=len, reverse=True)
    fixed = [r for r in rows if r[0] != 0]
    widest = walked[0][1:]
    M = np.zeros([len(logs[i]) for i in widest])
    block = max(1, _CHUNK // M.size)
    for lo in range(0, len(logs[0]), block):
        s0 = logs[0][lo : lo + block]
        w0 = weights[0][lo : lo + block].reshape((-1,) + (1,) * M.ndim)
        product = table([s0] + [logs[i] for i in widest], w0)
        for r in walked[1:]:
            T = table([s0] + [logs[i] for i in r[1:]])
            product *= T.reshape(T.shape + (1,) * (product.ndim - T.ndim))
        M += product.sum(axis=0)

    letters = [chr(ord("a") + i) for i in range(len(masks))]
    subscripts = ",".join(
        letters[1:] + ["".join(letters[i] for i in r) for r in fixed + [widest]]
    ) + "->"
    tables = [table([logs[i] for i in r]) for r in fixed]
    return float(np.einsum(subscripts, *weights[1:], *tables, M, optimize="greedy"))


def integral_eval(t: Term, nodes: Optional[int] = None) -> EvalReport:
    """Evaluate a convergent term through its cube integral.  The error
    estimate compares against the same rule at half the node count; the
    reported cutoff is the node count the rule actually used.  Below 8 nodes
    both rules are the same 7-point rule, so there is no estimate and the
    error is reported as infinite.  Raises ParseError, before expanding or
    tabulating anything, when n^(W-1), the bound on its tables at n nodes
    and weight W, is above TABLE_ENTRY_LIMIT, and when the coefficient or
    the value is outside the float range."""
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
