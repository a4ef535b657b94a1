"""Exact linear algebra over the rationals: the first circuit of a column list.

Everything in the engine that decides "are these columns dependent, and how?"
funnels through find_circuit.  Columns are short tuples of ints or Fractions
(depth <= 8 at desk scale).  Elimination runs fraction-free on Python ints:
a column with rational entries is first scaled to integers by the lcm of its
denominators, each reduced vector is divided, together with its expansion
over the input columns, by the gcd of all its entries, and the integer
combination is turned back into the rational circuit at the end.  The
circuit of a first dependent column is unique up to scale, so the answer
equals that of elimination over ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


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


def find_circuit(columns: Sequence[Sequence]) -> Optional[CircuitDependency]:
    """Scan left to right and return the circuit formed by the first column
    that falls in the span of the earlier ones (its support over the earlier
    pivot columns is automatically minimal; a zero column is a circuit on
    its own), or None when the columns are independent.

    The echelon basis keeps, for every stored vector, its pivot and its
    integer expansion {input column: coefficient} over the columns fed in.
    """
    basis: list[tuple[list[int], dict[int, int], int]] = []
    scales: list[int] = []
    for j, col in enumerate(columns):
        scales.append(math.lcm(*(x.denominator for x in col)))
        v = [int(x * scales[j]) for x in col]
        rep = {j: 1}
        for bvec, brep, p in basis:
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
        if pivot is not None:
            basis.append((v, rep, pivot))
            continue
        # member m of the input columns carries rep[m] times its scale
        members = tuple(sorted(rep))
        coeffs = [Fraction(rep[m] * scales[m]) for m in members]
        return CircuitDependency(members, tuple(c / coeffs[0] for c in coeffs))
    return None
