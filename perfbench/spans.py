"""Spans recorded from outside the package, and the per-layer metrics made
from them.

A ``Tracer`` replaces public functions of the package's modules by wrappers
for the length of a ``with tracer.installed():`` block.  Calls between the
package's own functions go through module globals, so a wrapped function is
seen wherever it is called from: the engine's per-step checks, the series
and word evaluations inside ``check_reduction``, the reductions inside a
compensation check, and the CLI's calls into the library.  Each call becomes
one span: name, start, end, parent span, the term it belongs to, and the
error it raised, if any.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly on one thread, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time

from zetalattice import cli, engine, numeric, periods
from zetalattice.numeric import default_cutoff

# (module, attribute): every public function the per-layer metrics read.
WRAPPED = (
    (engine, "reduce_to_mzv"),
    (engine, "trace_replay"),
    (numeric, "step_check_rational"),
    (numeric, "step_check_lattice"),
    (numeric, "check_comp_words"),
    (numeric, "eval_term"),
    (numeric, "eval_mzv"),
    (periods, "integral_eval"),
    (cli, "main"),
)

MOVES = ("emit", "pf_step", "forward_hp", "inverse_hp", "insert_aux")

PARKED = "never cancelled"  # engine.reduce_to_mzv's message for parked terms


class Span:
    __slots__ = ("name", "start", "end", "parent", "term", "args", "error")

    def __init__(self, name, parent, term, args):
        self.name = name
        self.parent = parent
        self.term = term
        self.args = args
        self.error = None
        self.start = time.process_time()
        self.end = None

    def to_json(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "term": self.term,
            "error": self.error,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.term = None  # id of the workload term being run
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, parent, self.term, (args, kwargs))
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                span.error = f"{type(e).__name__}: {e}"
                raise
            finally:
                span.end = time.process_time()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in WRAPPED]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self._wrap(f"{mod.__name__.split('.')[-1]}.{attr}", fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps(s.to_json(i)) + "\n")


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    the best of five rounds.  A pass-to-pass difference would measure the
    overhead too, but on a shared machine two passes differ by more than the
    spans cost."""
    noop = lambda: None
    wrapped = Tracer()._wrap("calibration", noop)
    best = []
    for fn in (noop, wrapped):
        rounds = []
        for _ in range(5):
            start = time.process_time()
            for _ in range(calls):
                fn()
            rounds.append(time.process_time() - start)
        best.append(min(rounds))
    return (best[1] - best[0]) / calls


# ---------------------------------------------------------------------------
# per-layer metrics


def _arg(span: Span, pos: int, name: str, default):
    args, kwargs = span.args
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _lattice_points(span: Span) -> int:
    rec = span.args[0][0]
    src = rec.input if rec.move == "forward_hp" else rec.outputs[0]
    return _arg(span, 1, "bound", 6) ** src.depth


def _series_points(span: Span) -> int:
    t = span.args[0][0]
    N = _arg(span, 1, "N", None) or default_cutoff(t.depth)
    if N < 16:
        ns = [N]
    elif N >= 128:
        ns = [N // 8, N // 4, N // 2, N]
    else:
        ns = [N // 4, N // 2, N]
    return sum(n ** (t.depth - 1) for n in ns)


def _quadrature_points(span: Span) -> int:
    t = span.args[0][0]
    nodes = _arg(span, 1, "nodes", None)
    if nodes is None:
        nodes = periods.DEFAULT_NODE_COUNTS.get(t.weight, 21)
    axis = lambda count: len(periods.tanh_sinh_nodes(count)[0])
    return axis(nodes) ** t.weight + axis(max(7, (nodes // 2) | 1)) ** t.weight


def trace_counts(trace) -> dict:
    """The engine's counters for one finished reduction."""
    counts = {
        "engine.terms_processed": trace.terms_processed,
        "engine.max_live": trace.max_live,
        "engine.records": len(trace.records),
        "engine.comp_splits": sum(
            r.params.get("comp_words") is not None for r in trace.records
        ),
    }
    for move in MOVES:
        counts[f"engine.records.{move}"] = sum(r.move == move for r in trace.records)
    return counts


def layer_metrics(spans: list[Span], counts: list[dict]) -> dict:
    """Per-layer figures from the spans of one traced pass and the
    ``trace_counts`` of the reductions that finished.  Spans under a
    ``cli.main`` span count towards ``cli.main_s`` only, so the library
    layers cover the pass."""
    child_time = [0.0] * len(spans)
    under_cli = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            under_cli[i] = under_cli[s.parent] or spans[s.parent].name == "cli.main"
    self_time = [s.end - s.start - child_time[i] for i, s in enumerate(spans)]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.name == "cli.main" or not under_cli[i]:
            by_name.setdefault(s.name, []).append(i)

    def seconds(name, keep=lambda s: True):
        return sum((self_time[i] for i in by_name.get(name, ()) if keep(spans[i])), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, work):
        return sum(work(spans[i]) for i in by_name.get(name, ()))

    parked = lambda s: s.error is not None and PARKED in s.error
    top_parked = [
        i for i in by_name.get("engine.reduce_to_mzv", ())
        if parked(spans[i]) and spans[i].parent is None
    ]
    out = {
        "engine.reduce_s": seconds("engine.reduce_to_mzv"),
        "engine.reduce_calls": calls("engine.reduce_to_mzv"),
        "engine.parked_s": seconds("engine.reduce_to_mzv", parked),
        "engine.parked_terms": len(top_parked),
    }
    for name in counts[0] if counts else ():
        values = [c[name] for c in counts]
        out[name] = max(values) if name == "engine.max_live" else sum(values)
    out["engine.trace_replay_s"] = seconds("engine.trace_replay")
    for kind in ("rational", "lattice"):
        out[f"numeric.step_check_{kind}_s"] = seconds(f"numeric.step_check_{kind}")
        out[f"numeric.step_check_{kind}_calls"] = calls(f"numeric.step_check_{kind}")
    out["numeric.lattice_points"] = total("numeric.step_check_lattice", _lattice_points)
    out["numeric.check_comp_words_s"] = seconds("numeric.check_comp_words")
    for d in (1, 2, 3, 4):
        out[f"numeric.eval_term_s.d{d}"] = seconds(
            "numeric.eval_term", lambda s: min(s.args[0][0].depth, 4) == d
        )
    out["numeric.series_points"] = total("numeric.eval_term", _series_points)
    out["numeric.eval_mzv_s"] = seconds("numeric.eval_mzv")
    out["numeric.eval_mzv_calls"] = calls("numeric.eval_mzv")
    out["numeric.eval_mzv_distinct"] = len(
        {tuple(spans[i].args[0][0]) for i in by_name.get("numeric.eval_mzv", ())}
    )
    out["periods.integral_eval_s"] = seconds("periods.integral_eval")
    out["periods.integral_calls"] = calls("periods.integral_eval")
    out["periods.quadrature_points"] = total("periods.integral_eval", _quadrature_points)
    out["cli.main_s"] = seconds("cli.main")
    return out
