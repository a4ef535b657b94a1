"""The benchmark's workloads: how each builds its inputs, the pipeline each
term goes through, and the checks each output must pass.

Every pipeline calls the package through module attributes
(``engine.reduce_to_mzv``, ``numeric.check_reduction``, ...), so that the
traced run can wrap those attributes and time each layer from outside.

The checks rest on oracles built apart from the engine: trace replay, the
series of the input term against the evaluated words, the cube integral
against the series, and, for products, a quasi-shuffle product computed
here rather than by ``terms.stuffle_words``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from zetalattice import corpus, engine, numeric, periods
from zetalattice.terms import direct_sum, from_mzv, is_admissible, term

# The warm-up term of every workload: sum 1/(n m (n+m)) = 2 zeta(3).
WARMUP = term([(1, 2), (2, 3)], [1, 1, 1])

# Depth-4 terms are checked against the series at this cutoff instead of
# default_cutoff(4) = 25, where the extrapolation error is of order one.
DEEP_CUTOFF = 200


@dataclass
class Case:
    term: object
    factors: Optional[tuple] = None  # (u, v) for a product term


@dataclass
class Outcome:
    combination: dict
    replayed: dict
    trace: object
    series: Optional[object] = None  # EvalReport of the term's own series
    integral: Optional[object] = None  # EvalReport of the cube integral


# ---------------------------------------------------------------------------
# inputs


def _compositions(total):
    for bits in range(1 << (total - 1)):
        parts, run = [], 1
        for i in range(total - 1):
            if bits >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def product_pairs():
    """Unordered pairs of admissible words of total weight <= 7, plus the
    weight-8 pairs of total depth <= 4."""
    words = [
        w for n in range(2, 8) for w in _compositions(n) if is_admissible(w)
    ]
    return [
        (u, v)
        for u, v in itertools.combinations_with_replacement(words, 2)
        if sum(u) + sum(v) <= 7 or (sum(u) + sum(v) == 8 and len(u) + len(v) <= 4)
    ]


def corpus200_cases():
    return [Case(t) for t in corpus.random_corpus(seed=20260815, count=200)]


def products_cases():
    return [
        Case(direct_sum(from_mzv(u), from_mzv(v)), (u, v))
        for u, v in product_pairs()
    ]


def deep4_cases():
    return [
        Case(t)
        for t in corpus.random_corpus(seed=11, count=60, max_depth=4, max_weight=7)
    ]


# ---------------------------------------------------------------------------
# pipelines: one term through the workload's whole battery


def battery(case: Case, seed: int) -> Outcome:
    """Criteria 3, 4 and 7: verified reduction, replay, series check, and the
    cube integral for weight <= 4."""
    t = case.term
    res = engine.reduce_to_mzv(t, verify=True, seed=seed)
    replayed = engine.trace_replay(t, res.trace)
    rep = numeric.check_reduction(t, res.combination)
    integral = periods.integral_eval(t) if t.weight <= 4 else None
    return Outcome(res.combination, replayed, res.trace, rep.series, integral)


def verified_reduction(case: Case, seed: int) -> Outcome:
    t = case.term
    res = engine.reduce_to_mzv(t, verify=True, seed=seed)
    replayed = engine.trace_replay(t, res.trace)
    return Outcome(res.combination, replayed, res.trace)


def cli_check(case: Case, seed: int) -> Outcome:
    """What ``zetalattice check`` does: no per-step checks."""
    t = case.term
    res = engine.reduce_to_mzv(t, seed=seed)
    replayed = engine.trace_replay(t, res.trace)
    rep = numeric.check_reduction(t, res.combination)
    return Outcome(res.combination, replayed, res.trace, rep.series)


# ---------------------------------------------------------------------------
# oracles


def quasi_shuffle(u, v):
    """u * v = u1.(u' * v) + v1.(u * v') + (u1+v1).(u' * v'), written out as
    a list of words with multiplicity and then collected."""

    def expand(a, b):
        if not a:
            return [b]
        if not b:
            return [a]
        return (
            [(a[0],) + w for w in expand(a[1:], b)]
            + [(b[0],) + w for w in expand(a, b[1:])]
            + [(a[0] + b[0],) + w for w in expand(a[1:], b[1:])]
        )

    out: dict = {}
    for w in expand(tuple(u), tuple(v)):
        out[w] = out.get(w, 0) + 1
    return {w: Fraction(c) for w, c in out.items()}


class Checker:
    """Checks outcomes of one workload; memoizes word values and the deep
    series evaluations, which do not depend on the combination."""

    def __init__(self, oracle: str):
        self.oracle = oracle
        # Held unwrapped, so the checks make no spans in a traced pass.
        self._eval_mzv = numeric.eval_mzv
        self._eval_term = numeric.eval_term
        self._zeta: dict = {}
        self._deep: dict = {}

    def words_value(self, combination) -> float:
        total = 0.0
        for w in sorted(combination):
            if w not in self._zeta:
                self._zeta[w] = self._eval_mzv(w).value
            total += float(combination[w]) * self._zeta[w]
        return total

    def structure(self, case: Case, out: Outcome) -> list[str]:
        """Replay rebuilds the combination; every word is admissible and has
        the input's weight."""
        problems = []
        if out.replayed != out.combination:
            problems.append("trace replay does not rebuild the combination")
        for w, c in out.combination.items():
            if c == 0 or not is_admissible(w) or sum(w) != case.term.weight:
                problems.append(f"word {w} (coefficient {c}) is not admissible "
                                f"of weight {case.term.weight}")
        return problems

    def series(self, case: Case, out: Outcome):
        """The series report the words are compared with, and the tolerance."""
        t = case.term
        if t.depth >= 4:
            if t not in self._deep:
                self._deep[t] = self._eval_term(t, DEEP_CUTOFF)
            series = self._deep[t]
            return series, 1e-2 + series.estimated_error
        return out.series, 1e-3 if t.depth <= 2 else 1e-2

    def resolution(self, case: Case, out: Outcome) -> float:
        """A change of the words' value by more than this is always seen: the
        quasi-shuffle is exact, the series check allows its tolerance on each
        side."""
        if self.oracle == "quasi_shuffle":
            return 0.0
        return 2 * self.series(case, out)[1]

    def value(self, case: Case, out: Outcome, combination) -> list[str]:
        """The workload's independent oracle for ``combination``."""
        if self.oracle == "quasi_shuffle":
            want = quasi_shuffle(*case.factors)
            if combination != want:
                return [f"combination differs from the quasi-shuffle {want}"]
            return []
        series, tol = self.series(case, out)
        diff = abs(series.value - self.words_value(combination))
        problems = []
        if not diff <= tol:
            problems.append(f"series - words = {diff:.3g} > {tol:.3g} "
                            f"at N = {series.cutoff}")
        if out.integral is not None:
            bar = 5 * (out.integral.estimated_error + out.series.estimated_error)
            gap = abs(out.integral.value - out.series.value)
            if not gap < bar + 1e-6:
                problems.append(f"integral - series = {gap:.3g} > {bar:.3g}")
        return problems

    def check(self, case: Case, out: Outcome) -> list[str]:
        return self.structure(case, out) + self.value(case, out, out.combination)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], list]
    pipeline: Callable[[Case, int], Outcome]
    oracle: str  # "series" or "quasi_shuffle"
    cli_terms: int = 0  # leading terms also sent through `zetalattice check`


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus200", corpus200_cases, battery, "series", cli_terms=20),
        Workload("products", products_cases, verified_reduction, "quasi_shuffle"),
        Workload("deep4", deep4_cases, cli_check, "series"),
    )
}
