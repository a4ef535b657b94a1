"""Exact linear algebra over the rationals.

Everything in the engine that decides "are these columns dependent, and how?"
funnels through this module.  Columns are short integer/Fraction tuples (depth
<= 8 at desk scale), so plain Gaussian elimination over ``fractions.Fraction``
is exact and fast enough; no fraction-free tricks are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


Vector = tuple[Fraction, ...]


def _as_vec(col) -> Vector:
    return tuple(Fraction(x) for x in col)


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
    """Incremental echelon basis that tracks, for every stored vector, its
    expansion over the original columns that were fed in."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[Vector, dict[int, Fraction]]] = []

    def _reduce(self, vec: Vector, rep: dict[int, Fraction]):
        v = list(vec)
        for bvec, brep in self.rows:
            p = _pivot_index(bvec)
            if v[p] != 0:
                f = v[p] / bvec[p]
                for i in range(self.dim):
                    v[i] -= f * bvec[i]
                for k, c in brep.items():
                    rep[k] = rep.get(k, Fraction(0)) - f * c
        return tuple(v), {k: c for k, c in rep.items() if c != 0}

    def insert(self, index: int, vec: Vector) -> Optional[dict[int, Fraction]]:
        """Reduce ``vec`` against the basis.  If independent, store it and
        return None; if dependent, return the vanishing combination
        {original column index: coefficient} (includes ``index`` itself)."""
        red, rep = self._reduce(vec, {index: Fraction(1)})
        if all(x == 0 for x in red):
            return rep
        self.rows.append((red, rep))
        return None


def _pivot_index(vec: Vector) -> int:
    for i, x in enumerate(vec):
        if x != 0:
            return i
    raise ValueError("zero vector has no pivot")


def rank(columns: Sequence[Sequence]) -> int:
    """Rank of the column list over the rationals."""
    cols = [_as_vec(c) for c in columns]
    if not cols:
        return 0
    ech = _Echelon(len(cols[0]))
    r = 0
    for j, v in enumerate(cols):
        if any(x != 0 for x in v) and ech.insert(j, v) is None:
            r += 1
    return r


def _normalize(rep: dict[int, Fraction]) -> CircuitDependency:
    members = tuple(sorted(rep))
    lead = rep[members[0]]
    coeffs = tuple(rep[m] / lead for m in members)
    return CircuitDependency(members, coeffs)


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
    cols = [_as_vec(c) for c in columns]
    if not cols:
        return None
    dim = len(cols[0])
    if must_contain is not None:
        if not 0 <= must_contain < len(cols):
            raise IndexError(f"must_contain={must_contain} out of range")
        ech = _Echelon(dim)
        for j, v in enumerate(cols):
            if j == must_contain or all(x == 0 for x in v):
                continue
            ech.insert(j, v)  # dependent columns among the rest are skipped
        target = cols[must_contain]
        if all(x == 0 for x in target):
            return _normalize({must_contain: Fraction(1)})
        rep = ech.insert(must_contain, target)
        return None if rep is None else _normalize(rep)
    ech = _Echelon(dim)
    for j, v in enumerate(cols):
        if all(x == 0 for x in v):
            return _normalize({j: Fraction(1)})
        rep = ech.insert(j, v)
        if rep is not None:
            return _normalize(rep)
    return None
