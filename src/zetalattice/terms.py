"""Lattice zeta terms: interval 0/1 matrices with column exponents.

A *pattern* is a d x w matrix of 0/1 entries whose every row is a contiguous
run of 1s (an interval [a, b] inside [1, w]), whose every column is covered by
at least one row, and whose rows are linearly independent over the rationals.
Attaching one summation variable n_i > 0 to each row, every column c gives a
positive linear form

    L_c(n) = sum of n_i over the rows covering c,

and a *term* is a rational multiple of the lattice sum

    coefficient * sum over n in N^d of  prod_c L_c(n) ** (-k_c),

with one positive integer exponent k_c per column.  The weight (sum of all
exponents) equals the width of the fully expanded matrix; the depth is the
number of rows.  Nested row supports make the sum a multiple zeta value; the
engine in ``engine.py`` rewrites every term into those.

Words here follow the convention that the first entry is the exponent of the
*largest* summation variable, so zeta(2,1) = sum over m > n >= 1 of
1/(m^2 n) and a word is admissible (convergent) iff its first part is >= 2.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    MalformedInterval,
    NotChain,
    ParseError,
    RankDeficient,
    ZeroColumn,
    IntervalBroken,
)
from . import linalg

Rat = Fraction
Word = tuple[int, ...]
MZVCombination = dict[Word, Rat]


# ---------------------------------------------------------------------------
# patterns


@dataclass(frozen=True)
class Pattern:
    """Row intervals over a fixed number of columns.  Rows are (start, end),
    1-based inclusive, in no particular order until canonicalized."""

    width: int
    rows: tuple[tuple[int, int], ...]

    @property
    def depth(self) -> int:
        return len(self.rows)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass's own hash, hash((width, rows)), computed once per
        pattern: every Term hash and term_key lookup hashes its pattern."""
        return hash((self.width, self.rows))

    @cached_property
    def cover(self) -> tuple[int, ...]:
        """Bit r of cover[c - 1] is set iff row r (0-based) covers the
        1-based column c: L_c sums the variables of those rows.  Computed
        once per pattern; every reader of column covers reads this tuple."""
        masks = [0] * self.width
        for r, (a, b) in enumerate(self.rows):
            for c in range(a - 1, b):
                masks[c] |= 1 << r
        return tuple(masks)

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(mask >> r & 1 for r in range(self.depth)) for mask in self.cover]

    def row_starts(self) -> list[int]:
        return [a for a, _ in self.rows]


def integers(values: Iterable, error: type[Exception], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  Anything operator.index refuses (a
    float, even 2.0, a str, a Fraction) raises ``error`` naming ``what``,
    where int() would truncate or parse it."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"{what} must be integers: {values!r}") from None


def word_parts(word: Iterable) -> Word:
    """``word`` as a tuple of ints, each at least 1 (see integers); the
    empty word passes.  ParseError otherwise."""
    w = integers(word, ParseError, "word parts")
    if any(k < 1 for k in w):
        raise ParseError(f"not a composition: {word!r}")
    return w


def validate_pattern(rows: Sequence[Sequence[int]], width: int) -> Pattern:
    """Full well-formedness check; raises MalformedInterval / ZeroColumn /
    RankDeficient.  Returns the pattern with rows in the given order."""
    if width < 1:
        raise MalformedInterval(f"width must be >= 1, got {width}")
    if not rows:
        raise MalformedInterval("a pattern needs at least one row")
    rr = []
    for r in rows:
        if len(r) != 2:
            raise MalformedInterval(f"row {r!r} is not a (start, end) pair")
        a, b = integers(r, MalformedInterval, "row ends")
        if not (1 <= a <= b <= width):
            raise MalformedInterval(f"row ({a},{b}) out of bounds for width {width}")
        rr.append((a, b))
    pat = Pattern(width, tuple(rr))
    for c, mask in enumerate(pat.cover, start=1):
        if not mask:
            raise ZeroColumn(c)
    # independent rows: the 0/1 indicators of their intervals have no circuit
    indicators = [[int(a <= c <= b) for c in range(1, width + 1)] for a, b in rr]
    if linalg.find_circuit(indicators) is not None:
        raise RankDeficient(f"rows {rr} are linearly dependent")
    return pat


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True, slots=True)
class Term:
    pattern: Pattern
    exponents: tuple[int, ...]
    coefficient: Rat

    @property
    def depth(self) -> int:
        return self.pattern.depth

    @property
    def width(self) -> int:
        return self.pattern.width

    @property
    def weight(self) -> int:
        return sum(self.exponents)

    def with_coefficient(self, c: Rat) -> "Term":
        return replace(self, coefficient=Rat(c))

    def scaled(self, c: Rat) -> "Term":
        return replace(self, coefficient=self.coefficient * Rat(c))

    def __str__(self) -> str:
        rows = ",".join(f"({a},{b})" for a, b in self.pattern.rows)
        return f"Term[{self.coefficient} * rows {rows}; k={list(self.exponents)}]"


def term(
    rows: Sequence[Sequence[int]],
    exponents: Sequence[int],
    coefficient: Union[Rat, int, str] = 1,
) -> Term:
    """Validating constructor; the width is the number of exponents."""
    pat = validate_pattern(rows, len(exponents))
    exps = integers(exponents, MalformedInterval, "exponents")
    if any(k < 1 for k in exps):
        raise MalformedInterval(f"exponents must be positive, got {exps}")
    return Term(pat, exps, _as_rat(coefficient))


def _as_rat(x) -> Rat:
    """``x`` as a Rat.  ParseError when a string is no rational, or when the
    numerator or denominator has more digits than str() may write
    (sys.get_int_max_str_digits()); a decimal exponent beyond that count is
    refused before its power of ten is built."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        exp = isinstance(x, str) and re.search(r"e([-+]?[\d_]+)\s*$", x, re.I)
        if exp and abs(int(exp[1])) > limit:
            raise ValueError(f"exponent beyond {limit}")
        r = Rat(x)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {x!r}: {e}") from None
    big = max(abs(r.numerator), r.denominator)
    # a number below 8^limit has at most limit digits: 10^limit is rarely built
    if big.bit_length() > 3 * limit and big >= 10**limit:
        raise ParseError(f"a coefficient may have at most {limit} digits")
    return r


# ---------------------------------------------------------------------------
# canonical form

# Two columns are mergeable iff they are covered by the same set of rows; any
# row straddling the gap between two such copies would have to cover both, so
# pulling every later copy next to the first one keeps every row contiguous.


def merged_columns(pattern: Pattern, exponents: Sequence[int]) -> dict[int, int]:
    """The total exponent of each column cover (bitmask over the rows), the
    covers in order of first appearance: columns of equal cover merge."""
    merged: dict[int, int] = {}
    for mask, k in zip(pattern.cover, exponents):
        merged[mask] = merged.get(mask, 0) + k
    return merged


def canonical_term(t: Term) -> Term:
    """Sort rows by (start, end) and merge the columns of equal cover: in
    one pass, columns are grouped by cover in order of first appearance and
    each group's exponents summed.  The surviving column order is the
    interval-structure witness.  Raises IntervalBroken when a group's
    exponent is zero or a row stops being contiguous."""
    pat = Pattern(t.width, tuple(sorted(t.pattern.rows)))
    merged = merged_columns(pat, t.exponents)
    new_exps = tuple(merged.values())
    if any(k < 1 for k in new_exps):
        raise IntervalBroken("zero-exponent column survived canonicalization")
    new_rows = []
    for i in range(pat.depth):
        pos = [j for j, mask in enumerate(merged, start=1) if mask >> i & 1]
        if not pos or pos[-1] - pos[0] + 1 != len(pos):
            raise IntervalBroken(
                f"row {i} {pat.rows[i]} covers no contiguous run of columns"
            )
        new_rows.append((pos[0], pos[-1]))
    return Term(Pattern(len(new_exps), tuple(new_rows)), new_exps, t.coefficient)


def term_key(t: Term):
    """Identity of a term's kernel, coefficient excluded: the sorted
    (column vector over rows sorted by (start, end), total exponent) pairs,
    equal vectors merged and zero-exponent columns ignored (L^0 = 1).  Needs
    no canonical form, and equals term_key(canonical_term(t)) if that exists.

    The key depends on the shape alone, so it is computed once per shape and
    process: a table of the last TERM_KEY_BOUND shapes, keyed exactly by
    (pattern, exponents), serves the engine's pool, its parking ledger and
    trace_replay.  The keys are interned (see interned), so the engine's
    expansion table stores the same objects."""
    return _term_key(t.pattern, t.exponents)


# Measured with tracemalloc: one deep4 pass fills the table with 1,986
# shapes in 0.7 MB, one verified corpus200 pass with 959 in 0.24 MB.  It
# must hold a whole pass: a least-recently-used table that a pass cycles
# through misses on every lookup.
TERM_KEY_BOUND = 4096  # shapes kept


@lru_cache(maxsize=TERM_KEY_BOUND)
def _term_key(pattern: Pattern, exponents: tuple[int, ...]) -> tuple:
    rows = pattern.rows
    order = sorted(range(pattern.depth), key=rows.__getitem__)
    merged = merged_columns(pattern, exponents)
    pairs = sorted(
        (tuple(mask >> r & 1 for r in order), k) for mask, k in merged.items() if k
    )
    return interned((pattern.depth, tuple(map(interned, pairs))))


# ---------------------------------------------------------------------------
# one shared copy of each value that long-lived tables keep

INTERN_BOUND = 8192  # values kept; one deep4 pass interns 5,069

# Each value handed to interned(), mapped to itself.  Cleared whole when
# full: a clear costs sharing, never correctness.
_interned: dict = {}


def interned(x):
    """The stored copy of a value equal to ``x``, stored now if there is
    none, so that the process-wide tables (the engine's expansions,
    numeric's checked relations, the term_key table) keep one object per
    distinct value instead of one per use.  Only for immutable values whose
    equal copies are interchangeable: tuples, Patterns, Terms and Fractions,
    never a plain number, which could stand in for an equal Fraction (1 and
    Fraction(1) are equal and hash alike).  So the engine, which counts in
    ints, makes each int a Fraction before it interns it."""
    if len(_interned) >= INTERN_BOUND:
        _interned.clear()
    return _interned.setdefault(x, x)


# ---------------------------------------------------------------------------
# elementary operations


def expand(t: Term) -> Pattern:
    """The fully expanded 0/1 matrix: column c repeated k_c times.  Width
    equals the weight; rows stay intervals."""
    new_rows = []
    offsets = [0]
    for k in t.exponents:
        offsets.append(offsets[-1] + k)
    for a, b in t.pattern.rows:
        new_rows.append((offsets[a - 1] + 1, offsets[b]))
    return Pattern(t.weight, tuple(new_rows))


def subset_masses(t: Term) -> Iterator[tuple[int, int, int]]:
    """Yield (mask, |S|, K(S)) for every nonempty set S of rows, where bit r
    of mask marks row r (0-based) and K(S) is the total exponent of the
    columns covered by S.  Convergence and the engine's split-boundary tests
    all read this scan; it is lazy, so a test that fails early stops early."""
    cover = t.pattern.cover
    for mask in range(1, 1 << t.depth):
        mass = sum(k for m, k in zip(cover, t.exponents) if m & mask)
        yield mask, bin(mask).count("1"), mass


def converges(t: Term) -> bool:
    """True iff the lattice sum is finite: for every nonempty set S of rows,
    the total exponent of the columns covered by S must exceed |S|.

    Sending the S-variables to ~R with the rest bounded, the kernel decays as
    R^-K(S) over ~R^|S| lattice points, so K(S) > |S| is necessary; summing
    the dyadic sectors shows it is sufficient.  Single rows give the familiar
    "at least two units per expanded row" test, which settles depth <= 2 but
    misses joint blowup of several rows: rows (1,2),(1,3),(2,3) with unit
    exponents pass every row test yet diverge like log B on the diagonal."""
    return all(mass > size for _, size, mass in subset_masses(t))


def reflect(t: Term) -> Term:
    """Reverse the column order: row (a, b) -> (w+1-b, w+1-a), exponents
    reversed.  The value is unchanged (the product over columns is
    order-insensitive)."""
    w = t.width
    rows = tuple((w + 1 - b, w + 1 - a) for a, b in t.pattern.rows)
    return canonical_term(
        Term(Pattern(w, rows), tuple(reversed(t.exponents)), t.coefficient)
    )


def direct_sum(t1: Term, t2: Term) -> Term:
    """Block-diagonal join; the series factorizes, so the value is the
    product and the coefficients multiply."""
    w1 = t1.width
    rows = list(t1.pattern.rows) + [(a + w1, b + w1) for a, b in t2.pattern.rows]
    pat = Pattern(w1 + t2.width, tuple(rows))
    return canonical_term(
        Term(pat, t1.exponents + t2.exponents, t1.coefficient * t2.coefficient)
    )


def kernel_at(t: Term, point: Sequence[Rat]) -> Rat:
    """Exact kernel value coefficient * prod_c L_c(z)^(-k_c) at a rational
    point z (one value per row, in the term's row order).  Nothing in the
    package calls it: it is the plain Fraction reference that the tests of
    the moves and of numeric's integer step checks compare against, and it
    stays public as such."""
    if len(point) != t.depth:
        raise ValueError(f"point has {len(point)} entries for depth {t.depth}")
    val = Rat(t.coefficient)
    for mask, k in zip(t.pattern.cover, t.exponents):
        form = sum(
            (point[i] for i in range(t.depth) if mask >> i & 1), start=Rat(0)
        )
        val /= form**k
    return val


# ---------------------------------------------------------------------------
# chains <-> multiple zeta words


def is_chain(t: Term) -> bool:
    """True iff the row supports are totally (and strictly) ordered by
    inclusion.  Ordering the rows outermost first, the form of a column
    covered by exactly j rows is the sum of the j outermost variables, so the
    distinct forms are the prefix sums of the variables and the term is a
    nested zeta sum read off by to_mzv."""
    return _nested(t.pattern)


def _nested(pattern: Pattern) -> bool:
    rows = sorted(pattern.rows, key=lambda r: (r[0], -r[1]))
    for i in range(len(rows) - 1):
        (a0, b0), (a1, b1) = rows[i], rows[i + 1]
        if not (a0 <= a1 and b1 <= b0) or (a0, b0) == (a1, b1):
            return False
    return True


def to_mzv(t: Term) -> tuple[Word, Rat]:
    """Read the multiple zeta word off a chain term.  A column covered by
    exactly j rows carries the j-th prefix sum (outermost first); the prefix
    sums increase strictly, and the word lists the exponent of the largest
    form first, so the entry at position i collects the exponents of the
    columns covered by exactly d+1-i rows.  On a staircase this is the
    reversed exponent tuple."""
    word = chain_word(t)
    if word is None:
        raise NotChain(str(t))
    return word, t.coefficient


def chain_word(t: Term) -> Optional[Word]:
    """The word to_mzv reads off ``t``, or None when ``t`` is not a chain or
    reads no word (zero-exponent columns leave an entry of the word at 0).
    It depends on the shape alone, so it is read once per shape and process:
    a table of the last TERM_KEY_BOUND shapes, keyed exactly by (pattern,
    exponents) as term_key's is, serves the engine's emits, the emit check
    and trace_replay."""
    return _chain_word(t.pattern, t.exponents)


@lru_cache(maxsize=TERM_KEY_BOUND)
def _chain_word(pattern: Pattern, exponents: tuple[int, ...]) -> Optional[Word]:
    if not _nested(pattern):
        return None
    d = pattern.depth
    word = [0] * d
    for mask, k in zip(pattern.cover, exponents):
        word[d - bin(mask).count("1")] += k
    return tuple(word) if min(word) >= 1 else None


def from_mzv(word: Sequence[int]) -> Term:
    """The staircase term whose value is zeta(word): row m covers columns
    m..d, column exponents (k_d, ..., k_1)."""
    w = word_parts(word)
    if not w:
        raise ParseError(f"not a composition: {word!r}")
    d = len(w)
    rows = [(m, d) for m in range(1, d + 1)]
    return term(rows, tuple(reversed(w)))


def is_admissible(word: Word) -> bool:
    return bool(word) and word[0] >= 2


# ---------------------------------------------------------------------------
# word combinations and the quasi-shuffle (stuffle) product


def comb_add(dst: dict, key, coeff: Rat) -> None:
    """Add ``coeff`` at ``key``, in place, dropping the entry when the sum
    is 0; a key that stays keeps its place in the order of ``dst``."""
    c = dst.get(key)
    c = coeff if c is None else c + coeff
    if c:
        dst[key] = c
    else:
        dst.pop(key, None)


def stuffle_words(u: Sequence[int], v: Sequence[int]) -> MZVCombination:
    """Quasi-shuffle product of two words (empty word = unit):
    u * v = u1.(u' * v) + v1.(u * v') + (u1+v1).(u' * v')."""
    return _stuffle(word_parts(u), word_parts(v), {})


def _stuffle(a: Word, b: Word, memo: dict) -> MZVCombination:
    # Module-level with an explicit memo: a self-referencing closure would
    # leave a reference cycle behind on every call.
    if not a:
        return {b: Rat(1)}
    if not b:
        return {a: Rat(1)}
    key = (a, b)
    if key in memo:
        return memo[key]
    out: MZVCombination = {}
    for head, tail in (
        (a[0], _stuffle(a[1:], b, memo)),
        (b[0], _stuffle(a, b[1:], memo)),
        (a[0] + b[0], _stuffle(a[1:], b[1:], memo)),
    ):
        for w, c in tail.items():
            comb_add(out, (head,) + w, c)
    memo[key] = out
    return out


def render_combination(comb: MZVCombination) -> str:
    """Compact human rendering, e.g. 'ζ(2,1) + ζ(3)'."""
    if not comb:
        return "0"
    bits = []
    for word in sorted(comb):
        c = comb[word]
        z = "ζ(" + ",".join(str(k) for k in word) + ")"
        if c == 1:
            s = z
        elif c == -1:
            s = "-" + z
        else:
            s = f"{c}*{z}"
        bits.append(s)
    out = bits[0]
    for s in bits[1:]:
        out += " - " + s[1:] if s.startswith("-") else " + " + s
    return out


# ---------------------------------------------------------------------------
# JSON round-trips (the documented external formats)


def term_to_json(t: Term) -> dict:
    return {
        "rows": [[a, b] for a, b in t.pattern.rows],
        "exponents": list(t.exponents),
        "coefficient": str(t.coefficient),
    }


def _json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_term(source: Union[str, dict]) -> Term:
    """Parse the documented term JSON; raises ParseError on anything bad."""
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except ValueError as e:  # JSONDecodeError, or an over-long integer
            raise ParseError(f"bad JSON: {e}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ParseError("term JSON must be an object")
    try:
        rows = obj["rows"]
        exps = obj["exponents"]
    except (KeyError, TypeError):
        raise ParseError("term JSON needs 'rows' and 'exponents'") from None
    coeff = obj.get("coefficient", "1")
    # Python would truncate 2.7 to 2 and read 0.1 as its binary fraction
    if not (
        isinstance(rows, list)
        and all(isinstance(r, list) and all(map(_json_int, r)) for r in rows)
        and isinstance(exps, list)
        and all(map(_json_int, exps))
    ):
        raise ParseError("rows and exponents must hold JSON integers only")
    if not (isinstance(coeff, str) or _json_int(coeff)):
        raise ParseError(f"coefficient must be a string or an integer: {coeff!r}")
    try:
        return term(rows, exps, coeff)
    except (MalformedInterval, ZeroColumn, RankDeficient, ParseError):
        raise
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad term JSON: {e}") from None


def combination_to_json(comb: MZVCombination) -> dict:
    return {
        "mzv": [
            {"word": list(w), "coeff": str(comb[w])} for w in sorted(comb)
        ]
    }


def parse_word(text: str) -> Word:
    """Parse '2,1' (or '2 1') into a word."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ParseError("empty word")
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad word {text!r}") from None
    return word_parts(word)
