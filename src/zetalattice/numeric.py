"""Floating-point evaluation and independent verification.

Two kinds of checks live here, at different levels of trust:

* whole-value checks: partial sums of a term's lattice series, extrapolated
  in the cutoff N, against the evaluated word combination the engine
  produced.  One row variable, one with the latest start, is summed over
  [1, inf) in closed form (partial fractions in that variable, then tails of
  zeta(j) read from reverse cumulative tables); the other rows span the box
  [1, N]^(depth-1), swept in slabs, so a partial sum costs O(N^(depth-1))
  and depth 1 is zeta(K) outright.  Every value the summand is built from
  is a function of one row-sum form (a sum of some of those rows), so it is
  a 1D table indexed by the form's value, built once per sweep, and each
  slab reads it through a strided view.  The summand does not depend on N, so one sweep of the largest box
  gives the partial sums at every extrapolation cutoff as slices of the
  same slabs.  Approximate, tolerance-based.
* per-step checks: every recorded rewrite is re-verified on its own, either as
  an exact rational-function identity sampled at random positive points
  (partial fractions) or as an explicit bijection between
  truncated lattices with exact kernel matching (harmonic splits); an emit
  must have no outputs and its chain input's word.  Every check is linear
  in the record's coefficients, and no param holds one, so check_record
  proves each relation once: it keeps the last CHECKED_BOUND relations that
  passed, each keyed exactly by the record divided by its input
  coefficient, and a rational multiple of one of them passes without a new
  check.  Each
  relation still meets its full check once, so the Schwartz-Zippel bound
  per relation, (D / 2^30)^10 for a false identity of degree D, is
  unchanged.  A rational record whose input and m outputs all have weight
  W clears its denominators to a polynomial identity of degree D <= m * W.

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
from .moves import TraceRecord, boundary_term, forward_split
from .terms import (
    MZVCombination,
    Rat,
    Term,
    Word,
    chain_word,
    converges,
    interned,
    is_admissible,
)

DEPTH_CUTOFFS = {1: 1_000_000, 2: 3000, 3: 600}
_CHUNK = 1 << 16
LATTICE_BOUND = 6  # a harmonic split is checked on the box [1, 6]^depth
RATIONAL_POINTS = 10  # random integer points per rational identity
# Largest table a numeric oracle may build, in entries: 32 MiB of float64.
# A cube integral of weight 6 at its default 21 nodes needs 4,084,101
# entries; a series at its default cutoff at most 390,625 points per slab
# through depth 6 (depth 7 would need 25^5).
TABLE_ENTRY_LIMIT = 1 << 22


def default_cutoff(depth: int) -> int:
    return DEPTH_CUTOFFS.get(depth, 25)


def refuse_table(entries: int, needs: str) -> None:
    """Raise ParseError, ``needs`` saying what needs the table, when it has
    more than TABLE_ENTRY_LIMIT entries; called before anything is built."""
    if entries > TABLE_ENTRY_LIMIT:
        raise ParseError(f"{needs}, more than {TABLE_ENTRY_LIMIT}")


def finite_float(x, what: str) -> float:
    """float(x), or ParseError naming ``what`` when it is outside the float
    range: float() overflows, or a product overflowed to inf."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{what} is outside the float range")
    return value


@dataclass
class EvalReport:
    """A series value extrapolated in ``cutoff``: for a term, the box
    [1, cutoff]^(depth-1) of the rows other than the one summed to infinity;
    for a word, the bound on its summation variables."""

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
# term evaluation: the other rows in the box [1, N]^(depth-1), one row summed
# to infinity in closed form
#
# Fix the other rows at x.  Every column covering the summed row y has the
# form sigma_g(x) + y, where the shift sigma_g sums the other rows covering
# it; grouping those columns by shift, the y-factor of the kernel is
# prod_g (sigma_g + y)^(-K_g).  Partial fractions in y rewrite it as
# sum_{g,j} A_gj (sigma_g + y)^(-j), and for j >= 2
# sum_{y>=1} (sigma + y)^(-j) = T_j(sigma) = sum_{i>sigma} i^(-j).  The
# summed row alone carries mass sum_g K_g >= 2, so the simple poles' residues
# cancel, sum_g A_g1 = 0, and the j = 1 part is -sum_g A_g1 H_1(sigma_g).
#
# The summed row is one with the latest start.  Every other row covering one
# of its columns c starts no later, so it covers c iff it ends at or after c:
# the shift row sets shrink as c grows, two shifts always differ by at least
# one n_i >= 1, and the partial fractions never meet a repeated pole.
#
# A row-sum form is the sum of the rows in a mask.  Each shift sigma_g is
# one, so is the difference of two shifts (the sets are nested: it is +-1
# times the form of the rows in one and not the other), and so is each
# column outside the summed row.  Every value the summand reads is a
# function of one form: tail[j][sigma_g], the reciprocals q_gh, their powers
# and series coefficients, and the powers of the outside columns.  Each is
# a 1D table indexed by the form's value: tail[j] from 0, the others from
# the form's smallest value, the number of its rows, so no entry divides
# by 0.  A slab reads a table through a read-only strided view
# (_form_view): the form's value grows by one along each axis of its rows,
# so the view has a stride of one entry there and length 1 on every other
# axis, and it starts at the value of the slab's first point.  The
# floating-point operations are those of building each value on an integer
# grid of the slab, on the same operands in the same order, save products
# by 1.0, which are exact: the partial sums are bit-identical to that
# sweep (tests/test_numeric.py keeps it as grid_partial_sums).

_TAIL_TABLE_MIN = 64  # from L = 64 on, the remainder in _tails errs by < 1e-17


def _tails(K: int, top: int) -> dict[int, np.ndarray]:
    """tail[j][s] for s = 0..top: T_j(s) = sum_{i>s} i^(-j) for 2 <= j <= K,
    and -H_1(s) for j = 1.  T_j is a reverse cumulative sum up to
    L >= top plus the Euler-Maclaurin remainder sum_{i>L} i^(-j)."""
    L = max(top, _TAIL_TABLE_MIN)
    inv = 1.0 / np.arange(1.0, L + 1.0)
    tail = {1: -np.concatenate(([0.0], np.cumsum(inv[:top])))}
    power = inv  # inv^j, carried: the same products, in order, as _power
    for j in range(2, K + 1):
        power = power * inv
        rest = L ** (1.0 - j) / (j - 1) - L ** (-j) / 2.0
        rest += j * L ** (-j - 1.0) / 12.0
        rest -= j * (j + 1) * (j + 2) * L ** (-j - 3.0) / 720.0
        rest += j * (j + 1) * (j + 2) * (j + 3) * (j + 4) * L ** (-j - 5.0) / 30240.0
        rev = np.cumsum(power[::-1])[::-1]  # rev[s] = sum_{s<i<=L} i^(-j)
        tail[j] = np.concatenate((rev, [0.0]))[: top + 1] + rest
    return tail


def _power(a: np.ndarray, k: int) -> np.ndarray:
    """a**k for an integer k >= 1 as k - 1 products, which numpy's power
    does not use for k >= 3."""
    out = a
    for _ in range(k - 1):
        out = out * a
    return out


def _times(a: Optional[np.ndarray], b: np.ndarray) -> np.ndarray:
    """a * b, an ``a`` of None standing for the empty product: then b itself,
    which is what 1.0 * b rounds to, with no pass over b."""
    return b if a is None else a * b


def _series_product(a: list, b: list) -> list:
    """The product of two power series with constant term 1, truncated to
    len(a) coefficients."""
    return [1.0] + [
        sum((a[i] * b[m - i] for i in range(1, m)), a[m] + b[m])
        for m in range(1, len(a))
    ]


def _form_view(table: np.ndarray, start: int, axes, shape) -> np.ndarray:
    """table[start + sum of a_p over p in ``axes``] at every point a of a
    slab of ``shape``, as a read-only strided view: a stride of one entry
    along each axis in ``axes``, length 1 on every other axis."""
    return np.lib.stride_tricks.as_strided(
        table[start:],
        tuple(n if p in axes else 1 for p, n in enumerate(shape)),
        tuple(table.strides[0] if p in axes else 0 for p in range(len(shape))),
        writeable=False,
    )


def _partial_sums(t: Term, ns: Sequence[int]) -> list[float]:
    """coefficient * the sum of the kernel over [1, M]^(depth-1) x [1, inf),
    the summed row (one with the latest start) running to infinity, for every
    cutoff M in ns, from one sweep of the largest box in O(N^(depth-1))
    work.  The other rows are the axes of the box, cut into slabs of about
    _CHUNK points along the first axis; each slab reads the tables of the
    row-sum forms through strided views.  The summand does not depend on the
    cutoff: each slab is evaluated once, and the box of each cutoff is a
    slice of it.  At depth 1 there are no other rows and the sum is
    coefficient * zeta(K) at every cutoff."""
    d = t.depth
    r = max(range(d), key=lambda i: t.pattern.rows[i][0])
    others = [i for i in range(d) if i != r]
    shifts: dict[int, int] = {}  # shift row mask -> exponent, columns in r
    rest = []  # (covering row mask, exponent), columns outside r
    for mask, k in zip(t.pattern.cover, t.exponents):
        if not k:
            continue  # L^0 = 1
        if mask >> r & 1:
            shift = mask & ~(1 << r)
            shifts[shift] = shifts.get(shift, 0) + k
        else:
            rest.append((mask, k))
    Ks = list(shifts.values())

    N = max(ns)
    K, top = max(Ks), N * max(bin(s).count("1") for s in shifts)
    L = max(top, _TAIL_TABLE_MIN)  # as in _tails
    needs = f"a depth-{d} series at cutoff {N} needs"
    refuse_table(K * (L + 1), f"{needs} tail tables of {K} x {L + 1} entries")
    step = max(1, _CHUNK // N ** max(d - 2, 0))
    if d > 1:
        slab = f"{min(step, N)} x {N}^{d - 2}"
        refuse_table(min(step, N) * N ** (d - 2), f"{needs} slabs of {slab} points")
    tail = _tails(K, top)

    def axes(mask: int) -> tuple[int, ...]:
        """The slab axes of the rows in ``mask``."""
        return tuple(p for p, i in enumerate(others) if mask >> i & 1)

    def values(mask: int) -> np.ndarray:
        """The values of the form of the rows in ``mask`` over the box, from
        its smallest, the number of those rows, up."""
        low = len(axes(mask))
        return np.arange(low, low * N + 1)

    masks = list(shifts)
    # partners[g]: for each h != g in order, s^K_h for the sign s with
    # q_gh = s * qh, the axes of the form of sigma_h - sigma_g, and the
    # tables over that form of qh^K_h and of the series coefficients
    # C(K_h+m-1, m) (-q_gh)^m for m = 1..K_g-1
    partners: list[list[tuple]] = [[] for _ in Ks]
    for g, h in itertools.combinations(range(len(Ks)), 2):
        diff = masks[g] ^ masks[h]
        # q[g, h] = 1 / (sigma_h - sigma_g) for g < h; q_hg = -q_gh
        q = 1.0 / (values(diff) if masks[h] & diff else -values(diff))
        for a, b, s in ((g, h, 1), (h, g, -1)):
            series = []
            for m in range(1, Ks[a]):
                power = q if m == 1 else power * q
                series.append(power * (math.comb(Ks[b] + m - 1, m) * (-s) ** m))
            partners[a].append((s ** Ks[b], axes(diff), _power(q, Ks[b]), series))
    dens = [(axes(mask), _power(values(mask).astype(float), k)) for mask, k in rest]
    pieces: list[list[float]] = [[] for _ in ns]
    for lo in range(0, N if d > 1 else 1, step):  # depth 1: one slab, no axes
        hi = min(lo + step, N)
        shape = tuple(hi - lo if p == 0 else N for p in range(d - 1))

        def view(table: np.ndarray, ax) -> np.ndarray:
            """A form's table, from its smallest value, over the slab."""
            return _form_view(table, lo if 0 in ax else 0, ax, shape)

        ysum = np.zeros(shape)
        for g, Kg in enumerate(Ks):
            # A_{g,Kg-m} = [u^m] prod_{h!=g} (sigma_h - sigma_g + u)^(-K_h)
            #            = sign * lead * coef[m], where
            # lead = prod |q_gh|^K_h and (1 + q_gh u)^(-K_h) has the
            # coefficients C(K_h+m-1, m) (-q_gh)^m
            sign, lead, coef = 1, None, None  # None: the product 1, the series 1
            for flip, ax, qpower, coefficients in partners[g]:
                sign *= flip
                lead = _times(lead, view(qpower, ax))
                series = [1.0, *(view(c, ax) for c in coefficients)]
                coef = series if coef is None else _series_product(coef, series)
            # tail[j] at sigma_g, whose smallest value is its number of rows
            ax = axes(masks[g])
            inner = view(tail[Kg][len(ax) :], ax)
            if coef is not None:
                for m in range(1, Kg):
                    inner = inner + coef[m] * view(tail[Kg - m][len(ax) :], ax)
            if sign > 0:
                ysum += _times(lead, inner)
            else:
                ysum -= _times(lead, inner)
        if rest:
            den = None
            for ax, power in dens:
                den = _times(den, view(power, ax))
            ysum /= den
        for cut, n in enumerate(ns):
            if lo >= n:
                continue  # the slab starts past this cutoff
            box = tuple(slice(0, n - lo if p == 0 else n) for p in range(d - 1))
            pieces[cut].append(float(ysum[box].sum()))
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
    """Extrapolated numeric value of a convergent term's lattice series.
    Raises ParseError when a table would exceed TABLE_ENTRY_LIMIT, or the
    coefficient or the value is outside the float range."""
    if N is not None and N < 1:
        raise ParseError(f"cutoff N must be at least 1, got {N}")
    if not converges(t):
        raise DivergentSeries(
            f"{t} diverges: some set of rows carries no more exponent "
            "mass than its own size"
        )
    if N is None:
        N = default_cutoff(t.depth)
    finite_float(t.coefficient, "the coefficient of the term")
    report = _cutoff_ladder(lambda ns: _partial_sums(t, ns), N)
    finite_float(report.value, "the value of the series")
    return report


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
    refuse_table(N, f"zeta{w} at cutoff {N} needs a table of {N} entries")
    return _cutoff_ladder(lambda ns: _word_partials(w, ns), N)


@functools.lru_cache(maxsize=4096)
def _word_value(word: Word) -> float:
    """eval_mzv(word).value at its default cutoff, memoised: a corpus's
    combinations share few distinct words."""
    return eval_mzv(word).value


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
) -> CheckReport:
    """Compare the term's own series, at cutoff ``N``, against the claimed
    word combination, each word at eval_mzv's default cutoff.
    The tolerance must be finite and non-negative, and every coefficient
    and value within the float range."""
    if not 0 <= tol < math.inf:
        raise ParseError(f"tolerance must be finite and non-negative, got {tol}")
    bad = [w for w, c in combination.items() if c != 0 and not is_admissible(w)]
    if bad:
        raise CheckFailed(f"combination contains divergent words {bad}")
    series = eval_term(t, N)
    words_value = 0.0
    for w in sorted(combination):
        c = finite_float(combination[w], f"the coefficient of zeta{w}")
        words_value += c * _word_value(w)
    finite_float(words_value, "the value of the words")
    diff = finite_float(abs(series.value - words_value), "the difference")
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


def emit_word(rec: TraceRecord) -> Word:
    """The word an emit record adds to the result, once its input is found
    to be a chain that reads that word (chain_word, once per shape).  Raises
    CheckFailed when it is not, or when the record has no ``word`` param."""
    word = chain_word(rec.input)
    if word is None or rec.params.get("word") != list(word):
        raise CheckFailed(f"emit record disagrees with its chain: {rec}")
    return word


def step_check_rational(rec: TraceRecord, rng) -> None:
    """Exact identity kernel(input) == sum of kernel(output) at random
    positive integer points of [1, 2^30]^depth.  A rational-function identity
    that holds on the positive integers holds everywhere, and a false one of
    degree D survives one point with probability at most D / 2^30
    (Schwartz-Zippel).  Multiplied through by every denominator, none of
    which vanishes at a positive point, the identity is a polynomial one of
    degree D at most the sum of its terms' weights less the smallest: m * W
    when the input and its m outputs all have weight W.  Valid for moves
    that keep the summation variables in place: partial fractions, a
    merge's loop among them.  An emit must have no outputs, and its input
    must be a chain that reads its word."""
    if rec.move == "emit":
        emit_word(rec)
        if rec.outputs:
            raise CheckFailed(f"emit record has outputs: {rec}")
        return
    if rec.move != "pf_step":
        raise ValueError(f"no rational check for move {rec.move!r}")
    d = rec.input.depth
    if any(o.depth != d for o in rec.outputs):
        raise CheckFailed(f"{rec.move} of {rec.input} changes its depth: {rec}")
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


def _split_rows(rec: TraceRecord, src: Term) -> tuple[int, int]:
    """Params a, b of a split record: two distinct integer rows of ``src``."""
    a, b = rec.params.get("a"), rec.params.get("b")
    if type(a) is type(b) is int and a != b and {a, b} <= set(range(src.depth)):
        return a, b
    raise CheckFailed(f"{rec.move} of {rec.input}: a={a!r}, b={b!r} are not two rows")


def step_check_lattice(rec: TraceRecord) -> None:
    """Exact check of a harmonic split on the truncated lattice [1,B]^d,
    B = LATTICE_BOUND: the three case substitutions must biject onto the
    three output lattices with exact kernel equality point by point, compared
    as cross-multiplied integers.  Inverse splits are checked through their
    forward reformulation (first output as the split term).  A fourth
    output, the boundary term, is only checked to have the depth of a
    boundary term here; check_comp_words checks the term itself."""
    if rec.move not in ("forward_hp", "inverse_hp"):
        raise ValueError(f"no lattice check for move {rec.move!r}")
    if len(rec.outputs) not in (3, 4):
        raise CheckFailed(
            f"{rec.move} of {rec.input} has {len(rec.outputs)} outputs, "
            "expected 3 or 4"
        )
    src, outs, boundary = forward_split(rec)
    a, b = _split_rows(rec, src)
    d = src.depth
    depths = tuple(o.depth for o in (*outs, boundary) if o is not None)
    want = (d, d, d - 1, d - 1)[: len(depths)]
    if depths != want:
        raise CheckFailed(
            f"{rec.move} of {rec.input}: split of a depth-{d} term has "
            f"depths {depths}, expected {want}"
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
    """Check the boundary of a harmonic split: its fourth output, None when
    it has three, must be the boundary term rebuilt from the split's shape,
    zeta(2) times the leftover kernel on the rows and columns the split pair
    does not touch, oriented as in forward_split.  A split whose boundary
    vanishes has no fourth output to carry, and a split whose boundary tends
    to a constant may not drop it."""
    src, _, boundary = forward_split(rec)
    want = boundary_term(src, *_split_rows(rec, src))
    if boundary == want:
        return
    if want is None:
        raise CheckFailed(
            f"compensated split of {rec.input} has no constant boundary"
        )
    raise CheckFailed(
        f"boundary term of the split of {rec.input} is "
        f"{'missing' if boundary is None else boundary}, expected {want}"
    )


# ---------------------------------------------------------------------------
# relations already checked

CHECKED_BOUND = 4096  # relations kept, as many as _word_value's memo

# The key of every record that passed, least recently used first, mapped
# to itself: a hit moves the stored copy to the end, not the one just built.
# The tuples inside a stored key (rows, exponents, params) are interned: a
# corpus200 pass builds 4,094 of them, of only 187 distinct values, so its
# 542 relations take about 0.13 MB instead of 0.20 MB.
_checked: dict = {}


def _over(c: Rat, un: int, ud: int) -> tuple[int, int]:
    """c / (un / ud) in lowest terms, with a positive denominator."""
    n, d = c.numerator * ud, c.denominator * un
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g


def _relation_key(rec: TraceRecord) -> Optional[tuple]:
    """``rec`` divided by its input coefficient, exactly, as one flat tuple:
    the move, the params as (name, value, name, value, ...), which hold no
    coefficient and so need no scaling, the input's shape, then the shape
    and the scaled coefficient of each output in order, the coefficient as
    numerator and denominator > 0 in lowest terms.  None when the input
    coefficient is 0, or a param is not an int, a str or a flat list of
    them, as every param the engine writes is."""
    unit = rec.input.coefficient
    if unit == 0:
        return None
    un, ud = unit.numerator, unit.denominator
    params = []
    for name, v in rec.params.items():
        if type(v) is list and all(type(x) in (int, str) for x in v):
            v = tuple(v)
        elif type(v) not in (int, str):
            return None
        params += (name, v)
    p = rec.input.pattern
    key = [rec.move, tuple(params), p.width, p.rows, rec.input.exponents]
    for o in rec.outputs:
        p = o.pattern
        key += (p.width, p.rows, o.exponents, *_over(o.coefficient, un, ud))
    return tuple(key)


def _check(rec: TraceRecord, rng) -> None:
    """Every exact check of one record, with no table."""
    if rec.move in ("pf_step", "emit"):
        step_check_rational(rec, rng)
    elif rec.move in ("forward_hp", "inverse_hp"):
        step_check_lattice(rec)
        check_comp_words(rec)
    else:
        raise ValueError(f"unknown move {rec.move!r}")


def check_record(rec: TraceRecord, rng) -> None:
    """Dispatch one trace record to its exact checks, once per relation;
    ``rng`` draws the sample points of the rational checks.

    Every check is homogeneous of degree 1 in the record's coefficients:
    the rational identity c_in / D_in = sum c_o / D_o, the cross-multiplied
    lattice equality and the boundary term (it scales with the coefficient
    of the term split); an emit's check reads its shape and word alone.  So
    a record that is an exact rational multiple of one that passed passes
    too.  A table keyed by the record divided by its input coefficient
    (_relation_key; exact, not a digest, so no collision can pass a false
    record) holds the last CHECKED_BOUND relations that passed, the least
    recently used leaving first; a record found there is not checked again.
    A failing record raises and is never stored, and a record whose input
    coefficient is 0 (or whose params have no exact key) is always checked.
    Each relation still meets its check once, so a false rational identity
    of degree D still survives with probability at most (D / 2^30)^10."""
    key = _relation_key(rec)
    if key is None:
        _check(rec, rng)
        return
    stored = _checked.pop(key, None)
    if stored is not None:
        _checked[stored] = stored  # now the most recently used
        return
    _check(rec, rng)
    if len(_checked) >= CHECKED_BOUND:
        del _checked[next(iter(_checked))]
    stored = tuple(interned(x) if type(x) is tuple else x for x in key)
    _checked[stored] = stored
