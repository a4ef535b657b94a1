import json
import subprocess
import sys
import time
import tracemalloc

from zetalattice import cli, engine

TORNHEIM = '{"rows": [[1,2],[2,3]], "exponents": [1,1,1]}'


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "zetalattice", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc


def test_validate_and_converges():
    out = json.loads(run_cli("validate", TORNHEIM).stdout)
    assert out["ok"] and out["weight"] == 3 and out["depth"] == 2
    assert json.loads(run_cli("converges", TORNHEIM).stdout)["converges"] is True
    div = '{"rows": [[1,2],[1,3],[2,3]], "exponents": [1,1,1]}'
    assert json.loads(run_cli("converges", div).stdout)["converges"] is False


def test_reduce_writes_words_and_a_replayable_trace(tmp_path):
    trace = tmp_path / "moves.jsonl"
    out = json.loads(
        run_cli("reduce", TORNHEIM, "--verify", "--trace", str(trace)).stdout
    )
    assert out["mzv"] == [
        {"coeff": "1", "word": [2, 1]},
        {"coeff": "1", "word": [3]},
    ]
    lines = trace.read_text().splitlines()
    assert len(lines) == out["records"]
    for line in lines:
        rec = json.loads(line)
        assert rec["move"] in {"pf_step", "forward_hp", "inverse_hp", "emit"}


def test_reduce_output_is_byte_identical():
    a = run_cli("reduce", TORNHEIM).stdout
    b = run_cli("reduce", TORNHEIM).stdout
    assert a == b


def test_a_divergent_term_of_coefficient_zero_reduces_as_divergent(capsys):
    zero = '{"rows": [[1,1]], "exponents": [1], "coefficient": "0"}'
    assert cli.main(["reduce", zero]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mzv"] == [] and out["input_convergent"] is False
    # check refuses the same term as divergent
    assert cli.main(["check", zero]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "DivergentSeries"


def test_an_oversized_integral_exits_2(capsys):
    # weight 9 at the default 21 nodes: refused before any table is built
    big = '{"rows": [[1,8]], "exponents": [1,1,1,1,1,1,1,2]}'
    assert cli.main(["integral", big]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ParseError" and "21 nodes" in err["error"]


def test_check_command_and_exit_codes():
    assert json.loads(run_cli("check", TORNHEIM).stdout)["passed"] is True
    # an absurd tolerance turns the same comparison into a failure, exit 1
    run_cli("check", TORNHEIM, "--tol", "1e-15", expect=1)


def test_parse_errors_exit_2():
    run_cli("validate", "{not json", expect=2)
    run_cli("validate", '{"rows": [[1,2]], "exponents": [1]}', expect=2)
    run_cli("mzv", "1,2", expect=2)
    run_cli("eval", '{"rows": [[1,1]], "exponents": [1]}', expect=2)


def test_non_positive_cutoffs_exit_2():
    zeta2 = '{"rows": [[1,1]], "exponents": [2]}'
    for args in (
        ("mzv", "2", "--N", "0"),
        ("eval", zeta2, "--N", "-5"),
        ("check", TORNHEIM, "--N", "0"),
        ("integral", zeta2, "--nodes", "0"),
        ("reduce", TORNHEIM, "--max-terms", "0"),
        # a tolerance must be finite and non-negative
        ("check", TORNHEIM, "--tol", "nan"),
        ("check", TORNHEIM, "--tol", "inf"),
        ("check", TORNHEIM, "--tol", "-1"),
    ):
        err = json.loads(run_cli(*args, expect=2).stderr)
        assert err["kind"] == "ParseError", args


def test_non_integer_term_json_exits_2(capsys):
    # Python would truncate 2.7 and True to integers and read 0.1 as the
    # binary fraction 3602879701896397/36028797018963968
    zeta2 = {"rows": [[1, 1]], "exponents": [2]}
    for obj in (
        {"rows": [[1, 2.7]], "exponents": [1.5, 2.2]},
        {"rows": [[1, True]], "exponents": [2]},
        {"rows": [[1, 1]], "exponents": ["2"]},
        {"rows": [[1, 1]], "exponents": [2.0]},
        {**zeta2, "coefficient": 0.1},
        {**zeta2, "coefficient": True},
    ):
        assert cli.main(["validate", json.dumps(obj)]) == 2, obj
        assert json.loads(capsys.readouterr().err)["kind"] == "ParseError", obj
    for coeff in (-4, "1/3"):
        assert cli.main(["validate", json.dumps({**zeta2, "coefficient": coeff})]) == 0


def test_numbers_python_cannot_hold_exit_2(capsys):
    # a JSON integer past sys.get_int_max_str_digits() (4,300 digits), and
    # coefficients whose numerator or denominator would pass it; the last
    # would build a power of ten of a billion digits
    zeta2 = '{"rows": [[1, 1]], "exponents": [2], "coefficient": %s}'
    for coeff in ("1" + "0" * 5000, '"1e5000"', '"1e-4300"', '"1e999999999"'):
        start = time.perf_counter()
        assert cli.main(["reduce", zeta2 % coeff]) == 2, coeff
        assert time.perf_counter() - start < 1, coeff
        assert json.loads(capsys.readouterr().err)["kind"] == "ParseError"


def test_a_refused_coefficient_is_named_once(capsys):
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    zeta2 = '{"rows": [[1, 1]], "exponents": [2], "coefficient": "1e5000"}'
    assert cli.main(["reduce", zeta2]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": f"bad rational '1e5000': exponent beyond {limit}",
        "kind": "ParseError",
    }


def test_an_unwritable_trace_exits_2(tmp_path, capsys, monkeypatch):
    # the trace file is opened first: no reduction runs for a refused path
    def no_reduction(*args, **kwargs):
        raise AssertionError("reduced before opening the trace file")

    monkeypatch.setattr(engine, "reduce_to_mzv", no_reduction)
    for path in (tmp_path, tmp_path / "missing" / "x.jsonl"):
        assert cli.main(["reduce", TORNHEIM, "--trace", str(path)]) == 2, path
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ParseError", path
        assert err["error"].startswith(f"cannot write {str(path)!r}: "), path


def test_a_failed_reduction_leaves_an_empty_trace(tmp_path, capsys):
    path = tmp_path / "moves.jsonl"
    path.write_text("stale\n")
    assert cli.main(["reduce", TORNHEIM, "--max-terms", "2", "--trace", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "TermBudgetExceeded"
    assert path.read_text() == ""


def test_values_outside_the_float_range_exit_2(capsys):
    # 1e400 has no float; 1.5e308 has one, but the value overflows to inf
    for coeff in ("1e400", "1.5e308"):
        t = json.dumps({"rows": [[1, 1]], "exponents": [2], "coefficient": coeff})
        for command in ("eval", "check", "integral"):
            assert cli.main([command, t]) == 2, (command, coeff)
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "ParseError", (command, coeff)
            assert "float range" in err["error"], (command, coeff)


def test_oversized_numeric_tables_exit_2_before_allocating(capsys):
    chain4 = '{"rows": [[1,2],[2,3],[3,4],[4,5]], "exponents": [1,1,1,1,1]}'
    for args in (
        ("mzv", "2", "--N", "1000000000"),  # 10^9 floats
        ("eval", chain4, "--N", "10000"),  # a slab of 10^8 points
        ("eval", TORNHEIM, "--N", "1000000000"),  # tail tables of 10^9
        # weight 10^7: 10^7 columns and a table of 21^(10^7 - 1) entries
        ("integral", '{"rows": [[1,1]], "exponents": [10000000]}'),
    ):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli.main(list(args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, args
        assert time.perf_counter() - start < 2, args
        assert peak < 1e6, (args, peak)
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ParseError" and "more than 4194304" in err["error"]


def test_budget_exhaustion_exits_3():
    run_cli("reduce", TORNHEIM, "--max-terms", "1", expect=3)


def test_parked_terms_exit_3(capsys):
    # a deep4 term whose split boundaries never cancel: the reduction found
    # no applicable move, and no check was requested
    parks = '{"rows": [[1,1],[1,4],[2,3],[3,5]], "exponents": [2,1,1,1,1]}'
    for command in ("reduce", "check"):
        assert cli.main([command, parks]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "ParkedTermsError"


def test_eval_and_mzv_agree():
    v1 = json.loads(run_cli("eval", TORNHEIM).stdout)["value"]
    v2 = json.loads(run_cli("mzv", "3", "--N", "20000").stdout)["value"]
    assert abs(v1 - 2 * v2) < 1e-3


def test_stuffle_product():
    out = json.loads(run_cli("stuffle", "2", "2").stdout)
    assert out["mzv"] == [{"coeff": "2", "word": [2, 2]}, {"coeff": "1", "word": [4]}]


def test_reflect_preserves_the_value():
    out = json.loads(run_cli("reflect", TORNHEIM).stdout)
    assert out["rows"] == [[1, 2], [2, 3]]  # self-mirrored shape
    asym = '{"rows": [[1,1],[2,3]], "exponents": [2,1,1]}'
    out = json.loads(run_cli("reflect", asym).stdout)
    # mirroring merges the two columns under the long row
    assert out["rows"] == [[1, 1], [2, 2]]
    assert out["exponents"] == [2, 2]


def test_integral_forest_selftest():
    zeta2 = '{"rows": [[1,1]], "exponents": [2]}'
    out = json.loads(run_cli("integral", zeta2).stdout)
    assert abs(out["value"] - 1.6449340668) < 1e-4
    # seed 126 once drew two equal coordinates, a pole of the form
    for seed in ("0", "126"):
        out = json.loads(run_cli("forest", TORNHEIM, "--seed", seed).stdout)
        assert out["identity_checked"] is True
        out = json.loads(run_cli("selftest", "--seed", seed).stdout)
        assert out["passed"] is True and out["checks"] >= 20


def test_missing_error_estimates_print_as_strict_json(capsys):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    zeta2 = '{"rows": [[1,1]], "exponents": [2]}'
    # an unextrapolated sum (N < 16) and a 7-node rule have no error estimate
    for args in (("eval", zeta2, "--N", "5"), ("integral", zeta2, "--nodes", "3")):
        assert cli.main(list(args)) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["estimated_error"] is None, args
