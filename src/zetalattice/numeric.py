"""Floating-point evaluation and independent verification.

Two kinds of checks live here, at different levels of trust:

* whole-value checks: partial sums of a term's lattice series over the box
  [1, N]^depth, extrapolated in the cutoff, against the evaluated word
  combination the engine produced.  One row variable is summed over [1, N] in
  closed form (partial fractions in that variable, then cumulative
  generalized-harmonic tables), so a partial sum costs O(N^(depth-1)).  The
  other rows span a broadcast integer grid swept in slabs, and one sweep of
  the largest box gives the partial sums at every extrapolation cutoff: the
  smaller boxes are slices of the same slabs.  Approximate, tolerance-based.
* per-step checks: every recorded rewrite is re-verified on its own, either as
  an exact rational-function identity sampled at random positive points
  (partial fractions, auxiliary columns) or as an explicit bijection between
  truncated lattices with exact kernel matching (harmonic splits).

The extrapolation model is value + (a + b*log N + c*log^2 N)/N fitted at
N/8, N/4, N/2, N, which covers the full leading tail of these series
through depth 3 and leaves an O(log^3 N / N^2) residual.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CheckFailed, DivergentSeries, DivergentWord, ParseError
from .moves import TraceRecord, forward_split
from .terms import (
    MZVCombination,
    Rat,
    Term,
    Word,
    converges,
    is_admissible,
    to_mzv,
)

DEPTH_CUTOFFS = {1: 1_000_000, 2: 3000, 3: 600}
_CHUNK = 1 << 16
LATTICE_BOUND = 6  # a harmonic split is checked on the box [1, 6]^depth
RATIONAL_POINTS = 10  # random integer points per rational identity


def default_cutoff(depth: int) -> int:
    return DEPTH_CUTOFFS.get(depth, 25)


@dataclass
class EvalReport:
    value: float
    cutoff: int
    extrapolated: bool
    estimated_error: float

    def to_json(self) -> dict:
        """JSON has no infinity: a missing error estimate is null."""
        return {
            "value": self.value,
            "cutoff": self.cutoff,
            "extrapolated": self.extrapolated,
            "estimated_error": (
                self.estimated_error if math.isfinite(self.estimated_error) else None
            ),
        }


def _extrapolate(ns: Sequence[int], vals: Sequence[float]) -> tuple[float, float]:
    """Fit value + (a + b*log n + c*log^2 n)/n through four partial sums
    (three nodes drop the log^2 term).  The error estimate compares against
    the next-lower model solved on the tail nodes."""
    basis = [
        lambda n: 1.0,
        lambda n: 1.0 / n,
        lambda n: math.log(n) / n,
        lambda n: math.log(n) ** 2 / n,
    ][: len(ns)]
    A = np.array([[f(n) for f in basis] for n in ns])
    full = float(np.linalg.solve(A, np.array(vals, dtype=float))[0])
    A2 = np.array([[f(n) for f in basis[:-1]] for n in ns[1:]])
    rough = float(np.linalg.solve(A2, np.array(vals[1:], dtype=float))[0])
    err = abs(full - rough) + 1e-12 * (1.0 + abs(full))
    return full, err


# ---------------------------------------------------------------------------
# term evaluation: the box [1, N]^depth with one row summed in closed form
#
# Fix the other rows at x.  Every column covering the summed row y has the
# form sigma_g(x) + y, where the shift sigma_g sums the other rows covering
# it; grouping those columns by shift, the y-factor of the kernel is
# prod_g (sigma_g + y)^(-K_g).  Partial fractions in y rewrite it as
# sum_{g,j} A_gj (sigma_g + y)^(-j), and
# sum_{y=1}^{N} (sigma + y)^(-j) = H_j(sigma + N) - H_j(sigma) is read from
# cumulative tables of H_j(m) = sum_{i<=m} i^(-j).
#
# The summed row is one with the latest start.  Every other row covering one
# of its columns c starts no later, so it covers c iff it ends at or after c:
# the shift row sets shrink as c grows, two shifts always differ by at least
# one n_i >= 1, and the partial fractions never meet a repeated pole.


def _partial_sums(t: Term, ns: Sequence[int]) -> list[float]:
    """coefficient * sum over n in [1, M]^depth of the kernel, for every
    cutoff M in ns, from one sweep of the largest box in O(N^(depth-1))
    work.  The other rows are the axes of a broadcast integer grid, cut into
    slabs of about _CHUNK points along the first axis; the shifts, the
    partial-fraction coefficients and the factors of the columns outside the
    summed row are computed once per slab, and the box of each smaller cutoff
    is a slice of that slab."""
    d = t.depth
    r = max(range(d), key=lambda i: t.pattern.rows[i][0])
    others = [i for i in range(d) if i != r]
    shifts: dict[int, int] = {}  # shift row mask -> exponent, columns in r
    rest = []  # (covering row mask, exponent), columns outside r
    for mask, k in zip(t.pattern.cover, t.exponents):
        if mask >> r & 1:
            shift = mask & ~(1 << r)
            shifts[shift] = shifts.get(shift, 0) + k
        else:
            rest.append((mask, k))
    Ks = list(shifts.values())

    N = max(ns)
    top = N * (1 + max(bin(s).count("1") for s in shifts))
    inv = 1.0 / np.arange(1.0, top + 1.0)
    H = {
        j: np.concatenate(([0.0], np.cumsum(inv**j)))
        for j in range(1, max(Ks) + 1)
    }

    step = max(1, _CHUNK // N ** max(d - 2, 0))
    unit = (1,) * (d - 1)
    pieces: list[list[float]] = [[] for _ in ns]
    for lo in range(0, N if d > 1 else 1, step):  # depth 1: one slab, no axes
        hi = min(lo + step, N)
        # x[i]: the values of row i, laid along its own axis of the slab
        x = {}
        for p, i in enumerate(others):
            axis = np.arange(lo + 1, hi + 1) if p == 0 else np.arange(1, N + 1)
            x[i] = axis.reshape(unit[:p] + (-1,) + unit[p + 1 :])
        sigma = [
            sum((x[i] for i in others if s >> i & 1), np.zeros(unit, dtype=int))
            for s in shifts
        ]
        coefs = []
        for g, (sg, Kg) in enumerate(zip(sigma, Ks)):
            # coef[m] = A_{g,Kg-m} = [u^m] prod_{h!=g} (sigma_h - sigma_g + u)^(-K_h)
            coef = [np.ones(unit)] + [np.zeros(unit)] * (Kg - 1)
            for h, (sh, Kh) in enumerate(zip(sigma, Ks)):
                if h == g:
                    continue
                q = 1.0 / (sh - sg)
                series = [
                    math.comb(Kh + m - 1, m) * (-q) ** m * q**Kh
                    for m in range(Kg)
                ]
                coef = [
                    sum(coef[a] * series[m - a] for a in range(m + 1))
                    for m in range(Kg)
                ]
            coefs.append(coef)
        factor = np.ones(tuple(hi - lo if p == 0 else N for p in range(d - 1)))
        for mask, k in rest:
            form = sum(x[i] for i in others if mask >> i & 1)
            factor = factor * np.power(form.astype(float), float(-k))
        for cut, n in enumerate(ns):
            if lo >= n:
                continue  # the slab starts past this cutoff
            box = tuple(slice(0, n - lo if p == 0 else n) for p in range(d - 1))
            ysum = np.zeros(factor[box].shape)
            for sg, Kg, coef in zip(sigma, Ks, coefs):
                sb = sg[box]
                for m, A in enumerate(coef):
                    ysum += A[box] * (H[Kg - m][sb + n] - H[Kg - m][sb])
            pieces[cut].append(float((ysum * factor[box]).sum()))
    return [float(t.coefficient) * math.fsum(part) for part in pieces]


def _cutoff_ladder(partials: Callable[[list[int]], list[float]], N: int) -> EvalReport:
    """The raw partial sum at N when N < 16, with no error estimate; else
    the extrapolation through the partial sums at N/8 (from N = 128 on),
    N/4, N/2 and N.  ``partials`` maps a list of cutoffs to their sums."""
    if N < 16:
        return EvalReport(partials([N])[0], N, False, float("inf"))
    ns = [N // 8, N // 4, N // 2, N] if N >= 128 else [N // 4, N // 2, N]
    value, err = _extrapolate(ns, partials(ns))
    return EvalReport(value, N, True, err)


def eval_term(t: Term, N: Optional[int] = None) -> EvalReport:
    """Extrapolated numeric value of a convergent term's lattice series."""
    if N is not None and N < 1:
        raise ParseError(f"cutoff N must be at least 1, got {N}")
    if not converges(t):
        raise DivergentSeries(
            f"{t} diverges: some set of rows carries no more exponent "
            "mass than its own size"
        )
    if N is None:
        N = default_cutoff(t.depth)
    return _cutoff_ladder(lambda ns: _partial_sums(t, ns), N)


# ---------------------------------------------------------------------------
# word evaluation: nested cumulative sums, O(N * depth)


def _word_partials(word: Word, cutoffs: Sequence[int]) -> list[float]:
    N = max(cutoffs)
    n = np.arange(1.0, N + 1.0)
    cum = None
    for k in reversed(word):
        f = n ** float(-k)
        if cum is not None:
            shifted = np.empty_like(cum)
            shifted[0] = 0.0
            shifted[1:] = cum[:-1]
            f = f * shifted
        cum = np.cumsum(f)
    return [float(cum[c - 1]) for c in cutoffs]


def eval_mzv(word: Sequence[int], N: int = 100_000) -> EvalReport:
    """Extrapolated numeric zeta(word); the first part must be >= 2."""
    w = tuple(int(k) for k in word)
    if not w or any(k < 1 for k in w):
        raise ParseError(f"not a composition: {word!r}")
    if not is_admissible(w):
        raise DivergentWord(f"zeta{w} diverges (first part < 2)")
    if N < 1:
        raise ParseError(f"cutoff N must be at least 1, got {N}")
    return _cutoff_ladder(lambda ns: _word_partials(w, ns), N)


@functools.lru_cache(maxsize=4096)
def _word_value(word: Word, N: int) -> float:
    """eval_mzv(word, N).value, memoised: a corpus's combinations share few
    distinct words."""
    return eval_mzv(word, N).value


# ---------------------------------------------------------------------------
# whole-reduction check


@dataclass
class CheckReport:
    passed: bool
    series_value: float
    words_value: float
    difference: float
    tol: float
    series: EvalReport

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "series_value": self.series_value,
            "words_value": self.words_value,
            "difference": self.difference,
            "tol": self.tol,
        }


def check_reduction(
    t: Term,
    combination: MZVCombination,
    tol: float = 1e-3,
    N: Optional[int] = None,
    word_N: int = 100_000,
) -> CheckReport:
    """Compare the term's own series against the claimed word combination."""
    bad = [w for w, c in combination.items() if c != 0 and not is_admissible(w)]
    if bad:
        raise CheckFailed(f"combination contains divergent words {bad}")
    series = eval_term(t, N)
    words_value = 0.0
    for w in sorted(combination):
        words_value += float(combination[w]) * _word_value(w, word_N)
    diff = abs(series.value - words_value)
    return CheckReport(diff <= tol, series.value, words_value, diff, tol, series)


# ---------------------------------------------------------------------------
# per-step checks


def _column_forms(t: Term) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(covering rows, exponent) for each column of nonzero exponent: the
    kernel's denominator is the product of (sum of those rows)^exponent."""
    return tuple(
        (tuple(i for i in range(t.depth) if mask >> i & 1), k)
        for mask, k in zip(t.pattern.cover, t.exponents)
        if k
    )


def _denominator(forms, x: Sequence[int]) -> int:
    """prod_c L_c(x)^k_c at an integer point: the kernel there is
    coefficient / this."""
    den = 1
    for rows, k in forms:
        s = 0
        for i in rows:
            s += x[i]
        den *= s**k
    return den


def step_check_rational(rec: TraceRecord, rng) -> None:
    """Exact identity kernel(input) == sum of kernel(output) at random
    positive integer points of [1, 2^30]^depth.  A rational-function identity
    that holds on the positive integers holds everywhere, and a false one of
    degree D survives one point with probability at most D / 2^30
    (Schwartz-Zippel).  Valid for moves that keep the summation variables in
    place: partial fractions and auxiliary-column insertion."""
    if rec.move == "emit":
        word, coeff = to_mzv(rec.input)
        if list(word) != list(rec.params["word"]) or coeff != Rat(
            rec.params["coeff"]
        ):
            raise CheckFailed(f"emit record disagrees with its chain: {rec}")
        return
    if rec.move not in ("pf_step", "insert_aux"):
        raise ValueError(f"no rational check for move {rec.move!r}")
    d = rec.input.depth
    terms = [rec.input, *rec.outputs]
    forms = [_column_forms(t) for t in terms]
    for _ in range(RATIONAL_POINTS):
        z = [rng.randint(1, 1 << 30) for _ in range(d)]
        lhs, *outs = (
            Rat(t.coefficient.numerator, t.coefficient.denominator * _denominator(f, z))
            for t, f in zip(terms, forms)
        )
        rhs = sum(outs, start=Rat(0))
        if lhs != rhs:
            raise CheckFailed(
                f"{rec.move}: kernel identity fails at {z}: {lhs} != {rhs}"
            )


@functools.lru_cache(maxsize=None)
def _checked_split_map(a: int, b: int, d: int, bound: int) -> None:
    """Check once per (a, b, depth, bound) that the three case substitutions
    of _split_map biject [1,B]^d onto the three output boxes; raises
    CheckFailed otherwise (a failure is not cached and raises again)."""
    images: list[set] = [set(), set(), set()]
    for _, idx, y in _split_map(a, b, d, bound):
        if y in images[idx]:
            raise CheckFailed(f"lattice map repeats image point {y}")
        images[idx].add(y)
    full = itertools.product(range(1, bound + 1), repeat=d)
    split_box = {y for y in full if y[a] + y[b] <= bound}
    merged_box = set(itertools.product(range(1, bound + 1), repeat=d - 1))
    for idx, want in ((0, split_box), (1, split_box), (2, merged_box)):
        if images[idx] != want:
            raise CheckFailed(
                f"split ({a}, {b}): case {idx} covers {len(images[idx])} "
                f"points, expected {len(want)}"
            )


def _split_map(a: int, b: int, d: int, bound: int):
    """Yield (x, case, y) over x in [1,B]^d: the harmonic split of rows a, b
    sends x to y in the box of output `case` (n > m, n < m, n = m)."""
    for x in itertools.product(range(1, bound + 1), repeat=d):
        n, m = x[a], x[b]
        y = list(x)
        if n > m:
            idx = 0
            y[a], y[b] = m, n - m
        elif n < m:
            idx = 1
            y[a], y[b] = n, m - n
        else:
            idx = 2
            y[a] = n
            del y[b]
        yield x, idx, tuple(y)


def step_check_lattice(rec: TraceRecord) -> None:
    """Exact check of a harmonic split on the truncated lattice [1,B]^d,
    B = LATTICE_BOUND: the three case substitutions must biject onto the
    three output lattices with exact kernel equality point by point, compared
    as cross-multiplied integers.  Inverse splits are checked through their
    forward reformulation (first output as the split term)."""
    if rec.move not in ("forward_hp", "inverse_hp"):
        raise ValueError(f"no lattice check for move {rec.move!r}")
    if len(rec.outputs) != 3:
        raise CheckFailed(
            f"{rec.move} of {rec.input} has {len(rec.outputs)} outputs, expected 3"
        )
    src, outs = forward_split(rec)
    a, b = rec.params["a"], rec.params["b"]
    d = src.depth
    depths = tuple(o.depth for o in outs)
    if depths != (d, d, d - 1):
        raise CheckFailed(
            f"{rec.move} of {rec.input}: split of a depth-{d} term has "
            f"depths {depths}, expected {(d, d, d - 1)}"
        )
    _checked_split_map(a, b, d, LATTICE_BOUND)
    cs = src.coefficient
    src_forms = _column_forms(src)
    cases = [
        (
            cs.numerator * o.coefficient.denominator,
            o.coefficient.numerator * cs.denominator,
            _column_forms(o),
        )
        for o in outs
    ]
    # cs / D_src(x) == co / D_out(y), cross-multiplied into integers
    for x, idx, y in _split_map(a, b, d, LATTICE_BOUND):
        left, right, forms = cases[idx]
        if left * _denominator(forms, y) != right * _denominator(src_forms, x):
            lhs = Rat(cs.numerator, cs.denominator * _denominator(src_forms, x))
            co = outs[idx].coefficient
            rhs = Rat(co.numerator, co.denominator * _denominator(forms, y))
            raise CheckFailed(
                f"{rec.move}: kernel mismatch at {x} -> case {idx}, {y}: "
                f"{lhs} != {rhs}"
            )


def check_comp_words(rec: TraceRecord) -> None:
    """Re-derive the boundary-constant words attached to a harmonic split
    and compare them, as exact rationals, with what the record claims.

    The constant of a compensated split is zeta(2) times the value of the
    leftover kernel on the rows and columns the split pair does not touch,
    negatively oriented for a forward split of the record input, positively
    for an inverse split (whose forward source is the first output)."""
    from .engine import _comp_subterm, _comp_words
    from .terms import comb_add

    src, _ = forward_split(rec)
    sub = _comp_subterm(src, rec.params["a"], rec.params["b"])
    if sub is None:
        raise CheckFailed(
            f"compensated split of {rec.input} has no constant boundary"
        )
    words = _comp_words(
        sub, inverse=rec.move == "inverse_hp", coefficient=rec.input.coefficient
    )
    recorded: MZVCombination = {}
    for wl, cs in rec.params["comp_words"]:
        comb_add(recorded, tuple(wl), Rat(cs))
    if recorded != words:
        raise CheckFailed(
            f"compensation words of {rec.input} do not re-derive: "
            f"recorded {recorded}, expected {words}"
        )


def check_record(rec: TraceRecord, rng) -> None:
    """Dispatch one trace record to its appropriate exact check; ``rng``
    draws the sample points of the rational checks."""
    if rec.move in ("pf_step", "insert_aux", "emit"):
        step_check_rational(rec, rng)
    elif rec.move in ("forward_hp", "inverse_hp"):
        step_check_lattice(rec)
        if rec.params.get("comp_words") is not None:
            check_comp_words(rec)
    else:
        raise ValueError(f"unknown move {rec.move!r}")
