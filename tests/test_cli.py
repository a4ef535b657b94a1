import json
import subprocess
import sys

from zetalattice import cli

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
        assert rec["move"] in {"pf_step", "forward_hp", "inverse_hp", "insert_aux", "emit"}


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


def test_budget_exhaustion_exits_3():
    run_cli("reduce", TORNHEIM, "--max-terms", "1", expect=3)


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
