import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from symineq.cli import main
from symineq.exact import make_vector
from symineq.inequality import Statement, Violation, check_main, report_from_record

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "symineq", *args],
                          capture_output=True, text=True)


# ---- golden transcripts ----

def test_check_json_golden():
    result = run_cli("check", "--values", "1,2,3", "--k", "2", "--format", "json")
    assert result.returncode == 0
    assert result.stdout.encode() == (GOLDEN / "check_values_123_k2.json").read_bytes()


def test_check_all_k_golden():
    result = run_cli("check", "--values", "5,5,5,5", "--all-k")
    assert result.returncode == 0
    assert result.stdout.encode() == (GOLDEN / "check_values_5555_all_k.txt").read_bytes()


def test_fuzz_golden():
    result = run_cli("fuzz", "--n", "2..8", "--trials", "1000", "--seed", "42")
    assert result.returncode == 0
    assert result.stdout.encode() == \
        (GOLDEN / "fuzz_n2_8_trials1000_seed42.txt").read_bytes()
    assert "violations: 0" in result.stdout


def test_fuzz_runs_are_byte_identical():
    args = ("fuzz", "--n", "2..6", "--trials", "300", "--seed", "42")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# ---- report content ----

def test_json_reports_roundtrip_through_records():
    result = run_cli("check", "--values", "4,5/2,1/2", "--all-k", "--format", "json")
    records = json.loads(result.stdout)
    v = make_vector([4, Fraction(5, 2), Fraction(1, 2)])
    assert [report_from_record(r) for r in records] == \
        [check_main(v, k) for k in (1, 2, 3)]


def test_exact_commands_emit_no_float_decimals():
    for args in (("check", "--values", "1/3,0.5,7", "--all-k"),
                 ("lemma", "--which", "reciprocal", "--values", "1/3,0.5,7"),
                 ("lemma", "--which", "pairwise", "--values", "1/3,0.5,7"),
                 ("identity", "--k", "2", "--values", "1/3,0.5,7")):
        result = run_cli(*args)
        assert result.returncode == 0
        assert re.search(r"[0-9]\.[0-9]", result.stdout) is None


def test_values_accept_mixed_separators_and_forms():
    result = run_cli("check", "--values", "1, 2/4 0.5", "--k", "1")
    assert result.returncode == 0
    assert "v=(1, 1/2, 1/2)" in result.stdout


def test_lemma_lines_frozen():
    reciprocal = run_cli("lemma", "--which", "reciprocal", "--values", "1,2,3")
    assert reciprocal.stdout == ("ReciprocalLemma n=3 k=2 v=(1, 2, 3): "
                                 "lhs=47/30 rhs=11/6 slack=4/15 strict\n")
    pairwise = run_cli("lemma", "--which", "pairwise", "--values", "1,2,3")
    assert pairwise.stdout == ("PairwiseLemma n=3 k=2 v=(1, 2, 3): "
                               "lhs=157/60 rhs=11/4 slack=2/15 strict\n")


def test_identity_line_carries_scale():
    result = run_cli("identity", "--k", "2", "--values", "1,2,3")
    assert result.stdout == ("ProofIdentity n=3 k=2 v=(1, 2, 3) scale=6: "
                             "lhs=47/180 rhs=47/180 slack=0 equality\n")


def test_boundary_rows_are_annotated_interior_rows_are_not():
    lines = run_cli("check", "--values", "1,2,3,4", "--all-k").stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("[identity (always equality)]")
    assert lines[3].endswith("[identity (always equality)]")
    assert "identity" not in lines[1]
    assert "identity" not in lines[2]


def test_file_input_skips_comments_and_blanks(tmp_path):
    corpus = tmp_path / "vectors.txt"
    corpus.write_text("# corpus\n1, 2, 3\n\n4 5/2 0.5  # trailing note\n2 2\n")
    result = run_cli("check", "--file", str(corpus), "--k", "2")
    lines = result.stdout.splitlines()
    assert result.returncode == 0
    assert len(lines) == 3
    assert "v=(1, 2, 3)" in lines[0]
    assert "v=(4, 5/2, 1/2)" in lines[1]
    assert "equality" in lines[2]

    as_json = run_cli("check", "--file", str(corpus), "--k", "2", "--format", "json")
    assert [r["n"] for r in json.loads(as_json.stdout)] == [3, 3, 2]


def test_fuzz_json_schema():
    result = run_cli("fuzz", "--n", "3..4", "--trials", "20", "--seed", "1",
                     "--format", "json")
    record = json.loads(result.stdout)
    assert list(record) == ["n_range", "k_policy", "trials", "checks", "violations",
                            "min_slack", "witness", "witness_k", "seed", "distribution"]
    assert record["trials"] == 20
    assert record["violations"] == 0
    assert all(isinstance(e, str) for e in record["witness"])


def test_fuzz_near_uniform_flags():
    result = run_cli("fuzz", "--n", "3..4", "--trials", "30", "--seed", "2",
                     "--distribution", "near-uniform", "--epsilon", "1/100",
                     "--exclude-boundary")
    assert result.returncode == 0
    assert "distribution=near-uniform(eps=1/100)" in result.stdout
    assert "k=interior" in result.stdout


def test_fuzz_single_k_header_and_record(capsys):
    args = ["fuzz", "--n", "3..5", "--k", "2", "--trials", "5"]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("fuzz: n=3..5 k=2 trials=5 ")
    assert main(args + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["k_policy"] == "2"


def test_maximize_text_and_json():
    text = run_cli("maximize", "--n", "4", "--k", "2")
    assert text.returncode == 0
    assert "converged: true" in text.stdout
    assert "exact ratio <= 1: true" in text.stdout

    as_json = run_cli("maximize", "--n", "4", "--k", "2", "--format", "json")
    record = json.loads(as_json.stdout)
    assert record["exact_ratio_le_1"] is True
    assert record["converged"] is True
    assert len(record["argmax"]) == 4
    assert abs(sum(record["argmax"]) - 1) < 1e-9


# ---- exit codes and errors ----

def test_usage_errors_exit_1():
    cases = [
        ("check", "--values", "1,2x,3", "--k", "1"),          # malformed scalar
        ("check", "--values", "1,0,3", "--k", "1"),           # nonpositive entry
        ("check", "--values", "1,2,3"),                       # no k selector
        ("check", "--k", "1"),                                # no input source
        ("check", "--values", "1,2,3", "--k", "9"),           # k out of range
        ("check", "--file", "/nonexistent.txt", "--k", "1"),  # unreadable file
        ("identity", "--k", "3", "--values", "1,2,3"),        # identity needs k < n
        ("lemma", "--which", "reciprocal", "--values", "7"),  # lemma needs n >= 2
        ("fuzz", "--n", "8..2"),                              # empty range
        ("fuzz", "--n", "2..4", "--k", "9"),                  # no admissible n
        ("maximize", "--n", "4", "--k", "4"),                 # boundary k
        ("maximize", "--n", "5", "--k", "2", "--step", "nan"),
        ("maximize", "--n", "5", "--k", "2", "--step", "inf"),
        ("maximize", "--n", "5", "--k", "2", "--tolerance", "inf"),
        ("frobnicate",),                                      # unknown command
    ]
    for args in cases:
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert result.stderr.startswith("symineq: error:"), (args, result.stderr)
        assert result.stderr.count("\n") == 1, (args, result.stderr)
        assert result.stdout == "", args


def test_oversized_and_undecodable_inputs_end_in_one_error_line(tmp_path):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"1 2 \xff\n")
    # ten 6-digit rationals: the exact lhs at k=5 has about 6,300 digits,
    # past the interpreter's 4,300-digit int/str limit
    wide = ("123457/654321 234567/765432 345679/876543 456781/987654 "
            "567891/198765 678901/219876 789013/321987 890123/432198 "
            "901235/543219 112347/654329")
    cases = [
        ("check", "--file", str(not_utf8), "--k", "1"),
        ("check", "--values", "7" * 5000 + ",2", "--k", "1"),
        ("check", "--values", wide, "--k", "5"),
        ("check", "--values", wide, "--k", "5", "--format", "json"),
        ("fuzz", "--n", "9" * 5000),
        ("fuzz", "--n", "1.." + "9" * 5000),
    ]
    results = [run_cli(*args) for args in cases]
    for args, result in zip(cases, results):
        assert result.returncode == 1, args[:2]
        assert result.stderr.startswith("symineq: error:"), result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        assert "Traceback" not in result.stderr
    assert str(not_utf8) in results[0].stderr


value_text = st.lists(st.text(alphabet="0123456789/.-,x ", min_size=1, max_size=6),
                      max_size=8).map(" ".join)


@given(st.sampled_from(["check", "lemma", "identity"]), value_text,
       st.integers(min_value=0, max_value=4))
def test_random_values_end_in_a_report_or_one_error_line(command, text, k):
    argv = [command, f"--values={text}"]
    if command == "lemma":
        argv += ["--which", "pairwise" if k % 2 else "reciprocal"]
    else:
        argv += ["--k", str(k)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping here fails the test
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("symineq: error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def run_in_process(argv):
    """(exit code, stderr) of main(argv); argparse's usage exits count as
    exit codes, any other exception escapes and fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_report_or_one_error_line(code, err):
    assert code in (0, 1), err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("symineq: error:"), err
        assert err.count("\n") == 1, err


# file contents: scalar-like text, raw bytes (often not UTF-8), digit runs on
# both sides of the interpreter's 4300-digit limit, and blank lines
file_piece = st.one_of(
    st.integers(min_value=1, max_value=99).map(lambda i: str(i).encode()),
    st.tuples(st.integers(min_value=1, max_value=99), st.integers(min_value=1, max_value=99))
    .map(lambda pq: b"%d/%d" % pq),
    st.text(alphabet="0123456789/.-+#", min_size=1, max_size=5).map(str.encode),
    st.binary(min_size=1, max_size=3),
    st.integers(min_value=4290, max_value=4310).map(lambda m: b"7" * m),
)
file_line = st.lists(st.tuples(file_piece, st.sampled_from([b" ", b",", b"\t", b""])),
                     max_size=4).map(lambda parts: b"".join(p + sep for p, sep in parts))
file_bytes = st.lists(file_line, max_size=4).map(b"\n".join)


@given(file_bytes, st.sampled_from([
    ["check", "--all-k"], ["check", "--k", "0"], ["check", "--k", "2"],
    ["lemma", "--which", "reciprocal"], ["lemma", "--which", "pairwise"],
    ["identity", "--k", "1"], ["identity", "--k", "3"]]), st.sampled_from(["text", "json"]))
@settings(deadline=None)
def test_random_files_end_in_a_report_or_one_error_line(contents, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vectors.txt")
        with open(path, "wb") as fh:
            fh.write(contents)
        argv = [command[0], "--file", path, "--format", fmt, *command[1:]]
        assert_report_or_one_error_line(*run_in_process(argv))


def _small_ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(str)


junk = st.text(alphabet="0123456789.-+/eainf x", max_size=5)


def _value(valid):
    # one value in ten is malformed; the others are small, to keep each example cheap
    return st.sampled_from([valid] * 9 + [junk]).flatmap(lambda strategy: strategy)


def _argv(command, required, optional, budget_flag, budget):
    """command, its options with values in any order, then the work budget
    (--trials or --max-iter) last, so that it always bounds the work."""
    options = st.fixed_dictionaries(required, optional=optional).flatmap(
        lambda chosen: st.permutations(list(chosen.items())))
    return st.tuples(options, _value(budget)).map(lambda case: [
        command,
        *(tok for flag, value in case[0] for tok in ([flag] if value is None else [flag, value])),
        f"{budget_flag}={case[1]}"])


float_text = st.one_of(st.floats(min_value=-1e3, max_value=1e3).map(repr),
                   st.sampled_from(["0", "nan", "inf", "1e300", "1e-300", "5e-324"]))
fuzz_argv = _argv("fuzz", {}, {
    "--n": _value(st.one_of(_small_ints(0, 7), st.tuples(_small_ints(0, 7), _small_ints(0, 7))
                            .map("..".join))),
    "--k": _value(_small_ints(0, 7)),
    "--exclude-boundary": st.none(),
    "--seed": _value(st.integers().map(str)),
    "--distribution": _value(st.sampled_from(["integers", "rationals", "near-uniform"])),
    "--max-value": _value(_small_ints(-1, 1000)),
    "--epsilon": _value(st.text(alphabet="0123456789/.", min_size=1, max_size=6)),
    "--format": _value(st.sampled_from(["text", "json"])),
    "--max-n": _value(_small_ints(-1, 20)),
}, "--trials", _small_ints(-1, 20))
maximize_argv = _argv("maximize", {
    "--n": _value(_small_ints(2, 8)),
    "--k": _value(_small_ints(1, 7)),
}, {
    "--seed": _value(st.integers().map(str)),
    "--tolerance": _value(float_text),
    "--step": _value(float_text),
    "--format": _value(st.sampled_from(["text", "json"])),
    "--max-n": _value(_small_ints(-1, 20)),
}, "--max-iter", _small_ints(-1, 30))


@given(st.one_of(fuzz_argv, maximize_argv))
@settings(deadline=None)
def test_random_fuzz_and_maximize_argv_end_in_a_report_or_one_error_line(argv):
    assert_report_or_one_error_line(*run_in_process(argv))


def test_file_errors_report_line_and_column(tmp_path):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("1 2\n3 oops 4\n")
    result = run_cli("check", "--file", str(corpus), "--k", "1")
    assert result.returncode == 1
    assert f"{corpus}:2:3:" in result.stderr


def test_n_cap_blocks_and_override_unblocks():
    values = ",".join(["1"] * 21)
    blocked = run_cli("check", "--values", values, "--k", "1")
    assert blocked.returncode == 1
    assert "exceeds the cap" in blocked.stderr
    allowed = run_cli("check", "--values", values, "--k", "1", "--max-n", "21")
    assert allowed.returncode == 0
    assert "n=21" in allowed.stdout


def test_witnessed_violation_exits_2(monkeypatch, capsys):
    def inverted(v, k):
        # deliberately inverted comparator standing in for a falsified bound
        raise Violation(Statement.MAIN_THEOREM, v, k, Fraction(3), Fraction(2))

    monkeypatch.setattr("symineq.cli.check_main", inverted)
    code = main(["check", "--values", "1,2,3", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "violation" in captured.err
    assert "slack=-1" in captured.err


def test_violation_keeps_earlier_report_lines(monkeypatch, capsys, tmp_path):
    corpus = tmp_path / "two.txt"
    corpus.write_text("1 2 3\n4 5 6\n")

    def second_inverted(v, k):
        if v[0] == 4:
            raise Violation(Statement.MAIN_THEOREM, v, k, Fraction(3), Fraction(2))
        return check_main(v, k)

    monkeypatch.setattr("symineq.cli.check_main", second_inverted)
    code = main(["check", "--file", str(corpus), "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ("MainTheorem n=3 k=2 v=(1, 2, 3): lhs=157/60 rhs=11/4"
                            " slack=2/15 strict\n")
    assert "slack=-1" in captured.err


def test_fuzz_with_violations_exits_2(monkeypatch, capsys):
    def inverted(v, k):
        raise Violation(Statement.MAIN_THEOREM, v, k, Fraction(3), Fraction(2))

    monkeypatch.setattr("symineq.search.check_main", inverted)
    code = main(["fuzz", "--n", "3..3", "--trials", "5", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "violations: 15" in captured.out  # 5 trials x 3 values of k
    assert "min slack: -1" in captured.out


# ---- dependencies ----

def test_import_leaves_numpy_out():
    # the package has no runtime dependencies; this keeps numpy from creeping back
    probe = "import sys, symineq, symineq.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.stdout == "False\n", result.stderr
