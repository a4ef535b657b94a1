"""Exact linear algebra over the rationals.

Everything in the engine that decides "are these columns dependent, and how?"
funnels through this module.  Columns are short tuples of ints or Fractions
(depth <= 8 at desk scale).  Elimination runs fraction-free on Python ints:
a column with rational entries is first scaled to integers by the lcm of its
denominators, each reduced row is divided, together with its expansion over
the input columns, by the gcd of all its entries, and ``_normalize`` turns
the integer combination back into the rational circuit.  The circuit of a
first dependent column is unique up to scale and the greedy basis does not
depend on the arithmetic, so the answers equal those of elimination over
``fractions.Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


def _integer_column(col) -> tuple[tuple[int, ...], int]:
    """The column scaled to integers, and the scale: the lcm of the
    denominators of its entries."""
    scale = math.lcm(*(x.denominator for x in col))
    return tuple(int(x * scale) for x in col), scale


@dataclass(frozen=True)
class CircuitDependency:
    """A minimal dependent set of columns with its (unique up to scale)
    vanishing combination: sum over members of coefficient * column == 0.

    ``members`` are 0-based positions into the column list handed to
    find_circuit; coefficients are normalized so the smallest member has
    coefficient +1.
    """

    members: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    def coefficient_of(self, position: int) -> Fraction:
        return self.coefficients[self.members.index(position)]


class _Echelon:
    """Incremental echelon basis over the integers that tracks, for every
    stored vector, its pivot and its expansion over the original columns
    that were fed in."""

    def __init__(self):
        self.rows: list[tuple[list[int], dict[int, int], int]] = []

    def insert(self, index: int, vec: Sequence[int]) -> Optional[dict[int, int]]:
        """Reduce ``vec`` against the basis.  If independent, store it and
        return None; if dependent, return a vanishing integer combination
        {original column index: coefficient} (includes ``index`` itself)."""
        v = list(vec)
        rep = {index: 1}
        for bvec, brep, p in self.rows:
            f = v[p]
            if f == 0:
                continue
            g = bvec[p]
            v = [g * x - f * y for x, y in zip(v, bvec)]
            rep = {
                k: g * rep.get(k, 0) - f * brep.get(k, 0)
                for k in rep.keys() | brep.keys()
            }
            rep = {k: c for k, c in rep.items() if c}
            d = math.gcd(*v, *rep.values())
            v = [x // d for x in v]
            rep = {k: c // d for k, c in rep.items()}
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return rep
        self.rows.append((v, rep, pivot))
        return None


def rank(columns: Sequence[Sequence]) -> int:
    """Rank of the column list over the rationals."""
    ech = _Echelon()
    r = 0
    for j, col in enumerate(columns):
        v, _ = _integer_column(col)
        if any(v) and ech.insert(j, v) is None:
            r += 1
    return r


def _normalize(rep: dict[int, int], scales: list[int]) -> CircuitDependency:
    """The circuit of an integer combination of scaled columns: member j of
    the input columns carries rep[j] times its scale."""
    members = tuple(sorted(rep))
    coeffs = [Fraction(rep[m] * scales[m]) for m in members]
    return CircuitDependency(members, tuple(c / coeffs[0] for c in coeffs))


def find_circuit(
    columns: Sequence[Sequence], must_contain: Optional[int] = None
) -> Optional[CircuitDependency]:
    """Find a minimal dependent set among ``columns``.

    Without ``must_contain``: scan left to right and return the circuit formed
    by the first column that falls in the span of the earlier ones (its
    support over the earlier pivot columns is automatically minimal).  With
    ``must_contain``: return a circuit through that column, or None when the
    column is independent from all the others.  Deterministic either way.
    """
    scaled = [_integer_column(c) for c in columns]
    cols = [v for v, _ in scaled]
    scales = [s for _, s in scaled]
    ech = _Echelon()
    if must_contain is not None:
        if not 0 <= must_contain < len(cols):
            raise IndexError(f"must_contain={must_contain} out of range")
        for j, v in enumerate(cols):
            if j == must_contain or not any(v):
                continue
            ech.insert(j, v)  # dependent columns among the rest are skipped
        target = cols[must_contain]
        if not any(target):
            return _normalize({must_contain: 1}, scales)
        rep = ech.insert(must_contain, target)
        return None if rep is None else _normalize(rep, scales)
    for j, v in enumerate(cols):
        if not any(v):
            return _normalize({j: 1}, scales)
        rep = ech.insert(j, v)
        if rep is not None:
            return _normalize(rep, scales)
    return None
