"""Exact reduction of lattice zeta series on interval 0/1 matrices.

A term is a rational multiple of the series sum over positive integer row
variables of the product of covered-column linear forms raised to negative
integer exponents.  ``reduce_to_mzv`` rewrites any such term into a rational
combination of multiple zeta values and logs every rewrite; ``numeric`` and
``periods`` provide two independent ways to check the result, and every
logged rewrite can be re-verified exactly on its own.
"""

from .errors import (
    CheckFailed,
    CycleDetected,
    DivergentSeries,
    DivergentWord,
    ExponentUnderflow,
    IntervalBroken,
    InvalidPivot,
    MalformedInterval,
    NotChain,
    ParkedTermsError,
    ParseError,
    PatternError,
    ProgressViolation,
    RankDeficient,
    RowsDontShareStart,
    RowsNotAdjacent,
    TermBudgetExceeded,
    ZeroColumn,
    ZetaLatticeError,
)
from .linalg import CircuitDependency, find_circuit, rank
from .terms import (
    MZVCombination,
    Pattern,
    Rat,
    Term,
    Word,
    canonical_term,
    comb_add,
    combination_to_json,
    converges,
    direct_sum,
    expand,
    from_mzv,
    is_admissible,
    is_chain,
    kernel_at,
    parse_term,
    parse_word,
    reflect,
    render_combination,
    stuffle_words,
    term,
    term_key,
    term_to_json,
    to_mzv,
    validate_pattern,
)
from .moves import (
    TraceRecord,
    forward_hp,
    inverse_hp,
    pf_step,
    split_defect_vanishes,
)
from .engine import (
    ReductionResult,
    ReductionTrace,
    first_mismatch,
    reduce_to_mzv,
    trace_replay,
)
from .numeric import (
    CheckReport,
    EvalReport,
    check_record,
    check_reduction,
    eval_mzv,
    eval_term,
    step_check_lattice,
    step_check_rational,
)
from .periods import (
    FormMonomial,
    forest_expand,
    integral_eval,
    monomial_value,
    simplicial_coefficient,
    tanh_sinh_nodes,
)
from .corpus import random_corpus

__version__ = "0.1.0"

__all__ = [
    "CheckFailed", "CycleDetected", "DivergentSeries", "DivergentWord",
    "ExponentUnderflow", "IntervalBroken", "InvalidPivot", "MalformedInterval",
    "NotChain", "ParkedTermsError", "ParseError", "PatternError",
    "ProgressViolation", "RankDeficient", "RowsDontShareStart",
    "RowsNotAdjacent", "TermBudgetExceeded", "ZeroColumn", "ZetaLatticeError",
    "CircuitDependency", "find_circuit", "rank",
    "MZVCombination", "Pattern", "Rat", "Term", "Word", "canonical_term",
    "comb_add",
    "combination_to_json", "converges", "direct_sum", "expand", "from_mzv",
    "is_admissible", "is_chain", "kernel_at", "parse_term", "parse_word",
    "reflect", "render_combination", "stuffle_words", "term", "term_key",
    "term_to_json", "to_mzv", "validate_pattern",
    "TraceRecord", "forward_hp", "inverse_hp", "pf_step",
    "split_defect_vanishes",
    "ReductionResult", "ReductionTrace", "first_mismatch", "reduce_to_mzv",
    "trace_replay",
    "CheckReport", "EvalReport", "check_record", "check_reduction",
    "eval_mzv", "eval_term", "step_check_lattice", "step_check_rational",
    "FormMonomial", "forest_expand", "integral_eval", "monomial_value",
    "simplicial_coefficient", "tanh_sinh_nodes",
    "random_corpus",
    "__version__",
]
