"""Benchmark of the zetalattice reduction pipeline.

    python3 perfbench/run.py --workload corpus200 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
workload's inputs are built with the package's own constructors, and each
term goes through the workload's pipeline in one process on one thread,
with BLAS threads pinned to 1.  The seed fixes the order of the terms, the
seed of the per-step checks and which outputs the self-test corrupts.

Every time the benchmark reports is CPU time of its own process
(``time.process_time``).  The pipeline is single-threaded and does no I/O,
so on an unshared core this equals wall time; on a shared machine it leaves
out the time the process waited while something else ran on its core.  A
run repeats whole passes over the workload's terms while the timed time,
with one more pass of average length, stays within ``--seconds`` (always at
least one pass), so every run attempts whole multiples of the same terms.
Every output is checked (see ``workloads.Checker``).  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it makes one traced
pass and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is the result as JSON; result files and span dumps
go to ``perfbench/out/``.  Metric names and units come from BENCHMARK.json.
"""

import time

_START = time.process_time()

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median
TAIL_WINDOW = 3  # ranks averaged on each side of the tail percentile's rank
CORRUPTED = 5  # outputs per run that the self-test corrupts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="only set up, then print the set-up seconds")
    return p.parse_args(argv)


def setup(name: str, seed: int):
    """Import the package, build the inputs and push one warm-up term
    through the pipeline.  Returns the workload, its cases, the seconds spent
    building inputs and the set-up seconds since the interpreter started
    this script."""
    if not (SRC / "zetalattice" / "__init__.py").is_file():
        raise SystemExit(f"no zetalattice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (its import is part of set-up)
    import zetalattice

    if Path(zetalattice.__file__).resolve().parent != SRC / "zetalattice":
        raise SystemExit(f"imported zetalattice from {zetalattice.__file__}")
    from workloads import WARMUP, WORKLOADS, Case

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    start = time.process_time()
    cases = workload.build()
    inputs_s = time.process_time() - start
    workload.pipeline(Case(WARMUP), seed)
    return workload, cases, inputs_s, time.process_time() - _START


def probe_setups(args) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass over every term.  Each output is checked and stripped of its
    trace right after its timed call, outside the timed region, so the run
    holds no more than the program would for one term at a time.  ``seconds``
    holds each term's CPU time, ``cpu`` their sum and ``wall`` the wall time
    of the whole pass, checks included (kept in the result file only)."""

    def __init__(self, workload, cases, order, seed, checker, tracer=None):
        from spans import trace_counts
        from zetalattice.errors import ZetaLatticeError

        n = len(cases)
        self.outcomes = [None] * n
        self.seconds = [0.0] * n
        self.counts = []  # trace_counts of every reduction that finished
        self.errors = {}
        self.problems = []
        wall = time.perf_counter()
        for i in order:
            if tracer is not None:
                tracer.term = i
            start = time.process_time()
            try:
                out = workload.pipeline(cases[i], seed)
            except ZetaLatticeError as e:
                out = None
                self.errors[i] = f"{type(e).__name__}: {e}"
            self.seconds[i] = time.process_time() - start
            if out is not None:
                self.counts.append(trace_counts(out.trace))
                out.trace = None
                for msg in checker.check(cases[i], out):
                    self.problems.append(f"term {i} {cases[i].term}: {msg}")
                self.outcomes[i] = out
        self.cpu = sum(self.seconds)
        self.wall = time.perf_counter() - wall


def compare_passes(passes) -> list[str]:
    """Every pass gives each term the same combination and the same failure."""
    first = passes[0]
    problems = []
    for p in passes[1:]:
        if p.errors.keys() != first.errors.keys():
            problems.append("passes fail on different terms")
        for i, (a, b) in enumerate(zip(first.outcomes, p.outcomes)):
            if a and b and a.combination != b.combination:
                problems.append(f"term {i}: combination differs between passes")
    return problems


def corrupt(p, cases, checker, rng) -> dict:
    """Add one to one coefficient of a few outputs.  The replay check must
    report every such output, and so must the workload's oracle whenever the
    change moves the words' value by more than the oracle's resolution; a
    numeric oracle cannot see smaller changes."""
    from dataclasses import replace

    ok = [i for i, out in enumerate(p.outcomes) if out is not None]
    tally = {"made": 0, "replay_caught": 0, "oracle_caught": 0,
             "below_resolution": 0, "misses": []}
    for i in rng.sample(ok, min(CORRUPTED, len(ok))):
        out = p.outcomes[i]
        word = rng.choice(sorted(out.combination))
        bad = dict(out.combination)
        bad[word] += 1
        tally["made"] += 1
        if checker.structure(cases[i], replace(out, combination=bad)):
            tally["replay_caught"] += 1
        else:
            tally["misses"].append(f"term {i}: replay check misses +1 on {word}")
        if checker.value(cases[i], out, bad):
            tally["oracle_caught"] += 1
        elif checker.words_value({word: 1}) <= checker.resolution(cases[i], out):
            tally["below_resolution"] += 1
        else:
            tally["misses"].append(f"term {i}: {checker.oracle} oracle misses +1 on {word}")
    return tally


def cli_mismatches(cases, outcomes, tracer) -> list[str]:
    """`zetalattice check <term> --verify`, in process, on ``cases``: the
    same words, series value and verdict as the library pass."""
    from zetalattice import cli
    from zetalattice.terms import combination_to_json, term_to_json

    problems = []
    for i in range(len(cases)):
        tracer.term = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["check", json.dumps(term_to_json(cases[i].term)), "--verify"])
        out = outcomes[i]
        if out is None or code not in (0, 1):
            problems.append(f"term {i}: the library pass failed or the CLI exited {code}")
            continue
        got = json.loads(buf.getvalue())
        if (
            got["mzv"] != combination_to_json(out.combination)["mzv"]
            or got["series_value"] != out.series.value
            or (code == 0) != got["passed"]
        ):
            problems.append(f"term {i}: CLI check disagrees with the library: {got}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def tail_quantile(n: int) -> float:
    """The highest whole percentile with at least ten terms above it."""
    return math.floor(100 * (n - 10) / n) / 100


def per_term_ms(passes) -> list:
    """Each term's median time over the passes, in term order; None for a
    term that failed."""
    return [
        None if i in passes[0].errors
        else 1000 * statistics.median(p.seconds[i] for p in passes)
        for i in range(len(passes[0].seconds))
    ]


def tail_ms(ms: list) -> float:
    """The tail percentile of the sorted per-term times: the mean of the
    times at its nearest rank and the ``TAIL_WINDOW`` ranks on each side.
    One term's time on a shared machine moves by a tenth and more from run
    to run; the terms next to it in rank move independently, so their mean
    moves less.  Ten terms rank above the percentile and at most six fail
    (``deep4``), so the window holds finished terms only; were it to reach a
    failed term, the value would be infinite and the run would stop."""
    rank = math.ceil(tail_quantile(len(ms)) * len(ms)) - 1
    return statistics.fmean(ms[rank - TAIL_WINDOW : rank + TAIL_WINDOW + 1])


def end_to_end(passes, setup_times) -> dict:
    # A failed term ranks above every term that finished.
    ms = sorted(math.inf if t is None else t for t in per_term_ms(passes))
    return {
        "setup_s": statistics.median(setup_times),
        "terms_per_s": sum(len(p.seconds) for p in passes) / sum(p.cpu for p in passes),
        "term_p50_ms": statistics.median(ms),
        "term_tail_ms": tail_ms(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(values: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    if sorted(values) != sorted(names):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json"
        )
    for name, v in values.items():
        if not math.isfinite(v):
            raise SystemExit(f"metric {name} is {v}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, cases, inputs_s, setup_s = setup(args.workload, args.seed)
    if args.probe:
        print(setup_s)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from spans import Tracer, layer_metrics, span_cost
    from workloads import Checker

    rng = random.Random(args.seed)
    order = list(range(len(cases)))
    rng.shuffle(order)
    checker = Checker(workload.oracle)
    problems = []

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = Pass(workload, cases, order, args.seed, checker, tracer)
            problems += cli_mismatches(cases[: workload.cli_terms], traced.outcomes, tracer)
        passes = [traced]
    else:
        passes = [Pass(workload, cases, order, args.seed, checker)]
        while sum(p.cpu for p in passes) * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(Pass(workload, cases, order, args.seed, checker))

    problems += [msg for p in passes for msg in p.problems] + compare_passes(passes)
    corrupted = corrupt(passes[-1], cases, checker, rng)
    problems += corrupted["misses"]

    if args.trace:
        values = layer_metrics(tracer.spans, traced.counts)
        values.update({
            "corpus.inputs_s": inputs_s,
            "trace.spans": len(tracer.spans),
            "trace.traced_pass_s": traced.cpu,
            "trace.overhead_s": len(tracer.spans) * span_cost(),
        })
        metrics = report(values, spec["per_layer"])
    else:
        setup_times = [setup_s] + probe_setups(args)
        metrics = report(end_to_end(passes, setup_times), spec["end_to_end"])

    for msg in problems:
        print("CHECK FAILED:", msg, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(p.seconds) for p in passes),
        "failed": sum(len(p.errors) for p in passes),
        "metrics": metrics,
    }
    failures = sorted({msg for p in passes for msg in p.errors.values()})
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        **result,
        "passes": len(passes),
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_wall_s": [p.wall for p in passes],
        "tail_quantile": tail_quantile(len(cases)),
        "term_ms": per_term_ms(passes),
        "failures": failures,
        "corrupted": corrupted,
        "problems": problems,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        },
    }, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    print(f"{workload.name}: {len(passes)} pass(es) over {len(cases)} terms, "
          f"{result['failed']} failed, {len(problems)} check problem(s)",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
