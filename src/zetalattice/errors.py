"""Exception hierarchy for the lattice-zeta engine.

Validation errors (pattern shape), rewrite-move errors (bad preconditions),
engine guards (budget / progress), and numeric-check failures all derive from
one base so the CLI can map them onto exit codes in a single place.
"""


class ZetaLatticeError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# pattern / term validation


class PatternError(ZetaLatticeError, ValueError):
    """A matrix fails the interval-matrix well-formedness rules."""


class MalformedInterval(PatternError):
    """A row is not a contiguous 1-run inside [1, width]."""


class ZeroColumn(PatternError):
    """Some column is covered by no row.  Carries the 1-based position."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"column {position} is covered by no row")


class RankDeficient(PatternError):
    """The rows are linearly dependent over the rationals."""


class NotChain(ZetaLatticeError):
    """to_mzv was called on a term whose row supports are not nested, or
    whose zero-exponent columns leave an entry of its word at 0."""


class ParseError(ZetaLatticeError, ValueError):
    """Malformed JSON / word syntax on an external interface, a summation
    cutoff or node count below 1, a number the program cannot hold as
    written (a coefficient with more digits than sys.get_int_max_str_digits()
    allows, or a coefficient or numeric value outside the float range), or
    a numeric oracle whose cutoff or node count asks for a table above
    numeric.TABLE_ENTRY_LIMIT: a cube integral, the series of a term or of
    a word; and a reduction source of mixed weights."""


# ---------------------------------------------------------------------------
# rewrite moves


class InvalidPivot(ZetaLatticeError):
    """Partial-fraction pivot is outside the circuit or has coefficient 0."""


class ExponentUnderflow(ZetaLatticeError):
    """A non-pivot circuit member carries exponent 0 and cannot be lowered."""


class RowsNotAdjacent(ZetaLatticeError):
    """forward_hp needs two rows [i,j], [j+1,k] with touching supports."""


class RowsDontShareStart(ZetaLatticeError):
    """inverse_hp needs two rows with the same start column."""


class IntervalBroken(ZetaLatticeError):
    """A rewrite produced a row that is no longer contiguous (must not occur)."""


# ---------------------------------------------------------------------------
# reduction engine guards


class ProgressViolation(ZetaLatticeError):
    """The reduction found no applicable move for a term."""


class TermBudgetExceeded(ZetaLatticeError):
    """The reduction worklist processed more terms than the configured cap."""


# ---------------------------------------------------------------------------
# numerics


class DivergentSeries(ZetaLatticeError):
    """eval/integral was asked for a series that fails the convergence test."""


class DivergentWord(ZetaLatticeError):
    """eval_mzv was asked for a non-admissible word (first part < 2)."""


class CheckFailed(ZetaLatticeError):
    """A verification check (tolerance or exact step replay) did not pass."""


class ParkedTermsError(CheckFailed):
    """The reduction ended with parked terms that no sibling cancelled.
    ``terms`` holds every parked term as term JSON."""

    def __init__(self, message, terms):
        self.terms = terms
        super().__init__(message)


class CycleDetected(ZetaLatticeError):
    """The row graph of a claimed interval matrix contains a cycle."""
