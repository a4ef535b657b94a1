"""Command-line interface.

Terms are given as JSON objects {"rows": [[a,b],...], "exponents": [...],
"coefficient": "p/q"}; words as comma-separated positive integers.  Every
argument expecting a term accepts the JSON inline, ``@path`` to read a file,
or ``-`` to read stdin.  All output is deterministic JSON (keys sorted, runs
with the same seed are byte-identical).

Exit codes: 0 success, 1 a requested check failed, 2 malformed or
unusable input, 3 the reduction exceeded its term budget, found no
applicable move, or ended with parked terms that no sibling cancelled.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .errors import (
    CheckFailed,
    DivergentSeries,
    DivergentWord,
    ParkedTermsError,
    ParseError,
    PatternError,
    ProgressViolation,
    TermBudgetExceeded,
)
from . import engine, numeric, periods
from .corpus import random_corpus
from .terms import (
    Pattern,
    Rat,
    combination_to_json,
    converges,
    canonical_term,
    expand,
    from_mzv,
    parse_term,
    parse_word,
    reflect,
    render_combination,
    stuffle_words,
    term_to_json,
    to_mzv,
    is_chain,
)


def _read_term(source: str):
    if source == "-":
        return parse_term(sys.stdin.read())
    if source.startswith("@"):
        try:
            text = Path(source[1:]).read_text()
        except OSError as e:
            raise ParseError(f"cannot read {source[1:]!r}: {e}") from None
        return parse_term(text)
    return parse_term(source)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _reduce(args):
    """The term of ``args``, read and reduced, with the reduction's trace
    written to ``--trace`` when given: the part reduce and check share.  The
    trace file is emptied before the reduction, so an unwritable path is
    refused before any work, and a reduction that fails leaves it empty."""
    t = _read_term(args.term)
    _write_trace(args.trace, "")
    res = engine.reduce_to_mzv(
        t, max_terms=args.max_terms, verify=args.verify, seed=args.seed
    )
    _write_trace(args.trace, res.trace.to_json_lines())
    return t, res


def _write_trace(path, text: str) -> None:
    if path:
        try:
            Path(path).write_text(text)
        except OSError as e:
            raise ParseError(f"cannot write {path!r}: {e}") from None


def _checked_forest(pattern: Pattern, seed: int) -> list:
    """forest_expand(pattern), checked as an exact identity at one point of
    ``width`` distinct coordinates in (0, 1), drawn from ``seed``: away from
    the poles of the simplicial form, where two coordinates meet.  Raises
    CheckFailed naming the point when the two sides differ."""
    monomials = periods.forest_expand(pattern)
    q = max(61, pattern.width + 1)
    point = [Rat(x, q) for x in random.Random(seed).sample(range(1, q), pattern.width)]
    rhs = sum((periods.monomial_value(m, point) for m in monomials), start=Rat(0))
    if periods.simplicial_coefficient(pattern, point) != rhs:
        raise CheckFailed(
            f"forest expansion of rows {list(pattern.rows)} disagrees at {point}"
        )
    return monomials


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    t = _read_term(args.term)
    ct = canonical_term(t)
    _emit(
        {
            "ok": True,
            "depth": ct.depth,
            "width": ct.width,
            "weight": ct.weight,
            "canonical": term_to_json(ct),
            "chain": is_chain(ct),
        }
    )
    return 0


def cmd_converges(args) -> int:
    t = _read_term(args.term)
    _emit({"converges": converges(t)})
    return 0


def cmd_reduce(args) -> int:
    t, res = _reduce(args)
    out = {
        "input": term_to_json(canonical_term(t)),
        "input_convergent": res.input_convergent,
        "divergent_cancelled": res.divergent_cancelled,
        "terms_processed": res.trace.terms_processed,
        "records": len(res.trace.records),
        "pretty": render_combination(res.combination),
    }
    out.update(combination_to_json(res.combination))
    _emit(out)
    return 0


def cmd_eval(args) -> int:
    t = _read_term(args.term)
    _emit(numeric.eval_term(t, args.N).to_json())
    return 0


def cmd_check(args) -> int:
    t, res = _reduce(args)
    report = numeric.check_reduction(t, res.combination, tol=args.tol, N=args.N)
    out = report.to_json()
    out.update(combination_to_json(res.combination))
    out["pretty"] = render_combination(res.combination)
    _emit(out)
    return 0 if report.passed else 1


def cmd_mzv(args) -> int:
    word = parse_word(args.word)
    _emit(numeric.eval_mzv(word, args.N).to_json())
    return 0


def cmd_stuffle(args) -> int:
    u = parse_word(args.word1)
    v = parse_word(args.word2)
    comb = stuffle_words(u, v)
    out = combination_to_json(comb)
    out["pretty"] = render_combination(comb)
    _emit(out)
    return 0


def cmd_reflect(args) -> int:
    t = _read_term(args.term)
    _emit(term_to_json(reflect(t)))
    return 0


def cmd_integral(args) -> int:
    t = _read_term(args.term)
    _emit(periods.integral_eval(t, args.nodes).to_json())
    return 0


def cmd_forest(args) -> int:
    monomials = _checked_forest(expand(_read_term(args.term)), args.seed)
    _emit(
        {
            "count": len(monomials),
            "monomials": [
                {
                    "coefficient": str(m.coefficient),
                    "factors": [[i, j] for i, j in m.factors],
                }
                for m in monomials
            ],
            "identity_checked": True,
        }
    )
    return 0


def cmd_selftest(args) -> int:
    checks = 0

    def ok(cond: bool, what: str) -> None:
        nonlocal checks
        if not cond:
            raise CheckFailed(f"selftest: {what}")
        checks += 1

    tornheim = parse_term('{"rows": [[1,2],[2,3]], "exponents": [1,1,1]}')
    res = engine.reduce_to_mzv(tornheim, verify=True, seed=args.seed)
    ok(
        res.combination == {(2, 1): Rat(1), (3,): Rat(1)},
        "double-row ladder must give zeta(2,1) + zeta(3)",
    )
    ok(
        engine.trace_replay(tornheim, res.trace) == res.combination,
        "trace replay must rebuild the ladder result",
    )

    square = parse_term('{"rows": [[1,1],[2,2]], "exponents": [2,2]}')
    res2 = engine.reduce_to_mzv(square, verify=True, seed=args.seed)
    ok(
        res2.combination == {(2, 2): Rat(2), (4,): Rat(1)},
        "zeta(2)^2 must give 2*zeta(2,2) + zeta(4)",
    )

    ok(
        stuffle_words((2,), (2,)) == {(2, 2): Rat(2), (4,): Rat(1)},
        "quasi-shuffle of (2) with itself",
    )

    rep = numeric.eval_mzv((2,), 20000)
    ok(abs(rep.value - 1.6449340668482264) < 1e-7, "zeta(2) numeric value")

    for word in ((2,), (3,), (2, 1), (2, 2), (3, 1), (2, 1, 1)):
        t = from_mzv(word)
        got, coeff = to_mzv(t)
        ok(got == word and coeff == 1, f"word round-trip {word}")
        r = engine.reduce_to_mzv(t)
        ok(
            r.combination == {word: Rat(1)},
            f"staircase of {word} must reduce to itself",
        )

    for rows, exps in (
        ([[1, 2], [2, 3]], [1, 1, 1]),
        ([[1, 1], [1, 2]], [2, 1]),
        ([[1, 3], [2, 3], [3, 3]], [1, 1, 1]),
    ):
        t = canonical_term(parse_term(json.dumps({"rows": rows, "exponents": exps})))
        _checked_forest(expand(t), args.seed)
        checks += 1

    small = random_corpus(seed=args.seed or 7, count=8, max_depth=2, max_weight=5)
    for t in small:
        r = engine.reduce_to_mzv(t)
        rep = numeric.check_reduction(t, r.combination, tol=1e-3)
        ok(rep.passed, f"corpus check for {t}")

    _emit({"passed": True, "checks": checks})
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetalattice",
        description="Reduce lattice zeta series on interval 0/1 matrices "
        "to multiple zeta values, with independent checking.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, term_arg=True):
        sp = sub.add_parser(name, help=help_)
        if term_arg:
            sp.add_argument("term", help="term JSON, @file, or - for stdin")
        sp.set_defaults(func=fn)
        return sp

    add("validate", cmd_validate, "parse and canonicalize a term")
    add("converges", cmd_converges, "series convergence of a term")

    for name, fn, help_ in (
        ("reduce", cmd_reduce, "rewrite a term into zeta words"),
        ("check", cmd_check, "reduce, then compare numerics on both sides"),
    ):
        sp = add(name, fn, help_)
        sp.add_argument("--max-terms", type=int, default=100_000,
                        help="the most terms a reduction may pop (exit 3 "
                        "past it); reduce reports its pops as terms_processed")
        sp.add_argument("--verify", action="store_true",
                        help="run exact per-step checks while reducing")
        sp.add_argument("--trace", metavar="FILE",
                        help="write the move log as JSON lines (emptied "
                        "before reducing; left empty if the reduction fails)")
        sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-3)

    sp = add("eval", cmd_eval, "numeric value of a convergent term")
    sp.add_argument(
        "--N",
        type=int,
        default=None,
        help="cutoff of the box of all rows but the one summed to infinity",
    )

    sp = add("mzv", cmd_mzv, "numeric value of an admissible zeta word", False)
    sp.add_argument("word", help="comma-separated positive integers, e.g. 2,1")
    sp.add_argument("--N", type=int, default=100_000)

    sp = add("stuffle", cmd_stuffle, "quasi-shuffle product of two words", False)
    sp.add_argument("word1")
    sp.add_argument("word2")

    add("reflect", cmd_reflect, "reverse the column order of a term")

    sp = add("integral", cmd_integral, "evaluate through the cube integral")
    sp.add_argument("--nodes", type=int, default=None, help="quadrature nodes per axis")

    sp = add("forest", cmd_forest, "dlog-monomial expansion of a term's form")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("selftest", cmd_selftest, "run the built-in end-to-end battery", False)
    sp.add_argument("--seed", type=int, default=0)

    return p


# Every error class the CLI reports, with its exit code; anything else is a
# bug and keeps its traceback.
_EXIT_CODES = {
    ParseError: 2,
    PatternError: 2,
    DivergentSeries: 2,
    DivergentWord: 2,
    ParkedTermsError: 3,  # a CheckFailed, but no check was requested
    CheckFailed: 1,
    TermBudgetExceeded: 3,
    ProgressViolation: 3,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(
            json.dumps({"error": str(e), "kind": type(e).__name__}, sort_keys=True),
            file=sys.stderr,
        )
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    raise SystemExit(main())
