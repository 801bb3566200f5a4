import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import symineq
from symineq.cli import main
from symineq.exact import make_vector
from symineq.inequality import Statement, Violation, check_main, report_to_record
from symineq.symfun import products_by_sum

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
README = ROOT / "README.md"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SPANS = ROOT / "perfbench" / "spans.py"
BENCH_PAIRS = ROOT / "scripts" / "bench_pairs.py"
CODE_LINES = ROOT / "scripts" / "code_lines.py"


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


def test_benchmark_outputs_match_their_recorded_digests():
    # the benchmark counts a run whose output digest differs from
    # perfbench/expected.json as failed: 32 sweep blocks and 5 fuzz runs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.record() == workloads.load_expected()


def test_benchmark_tracer_wraps_every_span_target(capsys):
    # the tracer looks each target up in its home module, so every target
    # module must be imported with symineq.cli and keep its function names
    import symineq.cli
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = [(sys.modules[module], name, getattr(sys.modules[module], name))
                 for module, name, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, name) is not fn for module, name, fn in originals)
        assert symineq.cli.main(["check", "--values", "1,2,3", "--k", "2"]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is fn for module, name, fn in originals)
    assert tracer.summary()["inequality.lhs_main.calls"] == 1
    assert capsys.readouterr().out.startswith("MainTheorem n=3 k=2")


def test_benchmark_smoke_and_self_test_pass():
    # the benchmark traces spans by function name and gates on the CLI's
    # output: every workload at a tiny size, traced and untraced, and its
    # correctness gates against deliberately bad outputs
    pytest.importorskip("numpy")  # the benchmark records its version
    for mode in ("--smoke", "--self-test"):
        result = subprocess.run([sys.executable, "perfbench/run.py", mode],
                                cwd=ROOT, capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "FAIL" not in result.stdout


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_refuses_a_malformed_seed_range(monkeypatch, capsys, tmp_path):
    # a bad range is a usage error (exit 2) before any run, not a traceback
    bench_pairs = load_bench_pairs()
    assert bench_pairs.seed_range("11-20") == range(11, 21)
    assert bench_pairs.seed_range("7") == range(7, 8)
    for seeds in ("10-5", "1..3", "", "5-", "a-b"):
        monkeypatch.setattr(sys, "argv", [
            "bench_pairs.py", "--parent", str(tmp_path), "--change", str(tmp_path),
            "--workload", "sweep", "--seeds", seeds, "--out", str(tmp_path / "out.json")])
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main()
        assert exit_info.value.code == 2, seeds
        assert "error: argument --seeds: " in capsys.readouterr().err, seeds
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("change, claim_met", [
    ([0.85] * 10, True),                   # won 10/10 by more than the IQR
    ([0.85] * 9 + [1.3], True),            # won 9/10
    ([0.85] * 8 + [1.3] * 2, False),       # won 8/10
    ([0.99] * 10, False),                  # won 10/10, within the IQR
])
def test_bench_pairs_states_whether_a_claim_is_met(change, claim_met):
    # the parent's runs spread over 0.95..1.05, an interquartile range of 0.1
    parent = [0.95, 1.05] * 5
    pairs = [{side: {"metrics": {"wall_s": wall, "checks_per_s": 1 / wall},
                     "failed": 0, "attempted": 1}
              for side, wall in (("parent", p), ("change", c))}
             for p, c in zip(parent, change)]
    summary = load_bench_pairs().summarize(
        pairs, {"wall_s": "lower", "checks_per_s": "higher"})
    assert summary["wall_s"]["claim_met"] is claim_met
    assert summary["checks_per_s"]["claim_met"] is claim_met
    # each metric's relative change of the medians, change / parent - 1
    for metric, of in (("wall_s", lambda wall: wall), ("checks_per_s", lambda wall: 1 / wall)):
        medians = [statistics.median(map(of, side)) for side in (parent, change)]
        assert summary[metric]["rel_change"] == pytest.approx(medians[1] / medians[0] - 1)


def test_bench_pairs_prints_one_line_per_metric():
    summary = {
        "op_p50_s": {"change_wins": 33, "pairs": 36, "claim_met": True,
                     "rel_change": -0.0702},
        "peak_rss_mb": {"change_wins": 0, "pairs": 36, "claim_met": False,
                        "rel_change": None},
        "runs": {"parent": {"failed": 0, "attempted": 36},
                 "change": {"failed": 0, "attempted": 36}},
    }
    assert load_bench_pairs().summary_lines("maximize/trace0", summary) == [
        "maximize/trace0 op_p50_s: rel_change=-7.02% wins=33/36 claim_met=True",
        "maximize/trace0 peak_rss_mb: rel_change=n/a wins=0/36 claim_met=False",
    ]


# code lines 4, 8, 10-11, 12 and 15; doc lines 1-2, 4, 7, 9 and 16
CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""
    text = """a string,
    not a docstring"""
    return x


class C:
    """A class docstring."""
'''


def test_code_lines_counts_code_and_doc_lines(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    assert code_lines.count_lines(CODE_LINES_FIXTURE) == (6, 6)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    code_lines.main([str(tmp_path / "pkg")])
    assert capsys.readouterr().out == ("a.py code=6 doc=6\n"
                                       "b.py code=1 doc=1\n"
                                       "total code=7 doc=7\n")


def readme_examples():
    """(argv, stdout) of every `$ symineq ...` example in README.md: the
    command line, then its output up to the next blank line."""
    examples = []
    for block in README.read_text().split("```")[1::2]:
        for example in block.split("\n\n"):
            command, _, output = example.strip("\n").partition("\n")
            if command.startswith("$ symineq "):
                examples.append((shlex.split(command)[2:], output + "\n"))
    return examples


def test_readme_examples_match_the_cli():
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == \
        ["check", "check", "lemma", "identity", "fuzz", "maximize"]
    for argv, stdout in examples:
        result = run_cli(*argv)
        assert result.returncode == 0, argv
        assert result.stdout.encode() == stdout.encode(), argv


def test_fuzz_runs_are_byte_identical():
    args = ("fuzz", "--n", "2..6", "--trials", "300", "--seed", "42")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# six-digit numerators and denominators, one entry tiny and one huge
WIDE_RATIONALS = ("123457/999983,987654/100003,555557/777781,31/999999,999999/31,"
                  "271828/314159,141421/173205")
# sha256 of the stdout of each run. The fuzz and `check --all-k` digests were
# recorded while they still ran the dynamic program once per k: one pass for
# every k must not move a byte under any k policy, format or distribution.
# The pairwise and identity digests were recorded while the pairwise lemma
# still added Fractions pair by pair and the identity reduced both sides.
# The maximize digests are the benchmark's three runs, recorded while the
# records were still dataclasses.
PINNED_OUTPUTS = [
    ("fuzz --n 2..8 --trials 200 --seed 42 --format json",
     "74effbc9d27a3edfd067d37f6e7aafa2afab342270f676b09749f3f0aa10832e"),
    ("fuzz --n 3..9 --trials 100 --seed 7 --exclude-boundary",
     "111986eea14f24303a651ef3ac5414108b4c73c5bca730f99da3fc2a53e84090"),
    ("fuzz --n 3..9 --trials 100 --seed 7 --exclude-boundary --format json",
     "2c92874e73da69c5f36ffce51d2109532b7d79b3c0120dd1cbb2ca36c083a554"),
    ("fuzz --n 2..9 --trials 100 --seed 5 --k 2",
     "fd251db458abdd8c8b27e69cc5713200bb890690c1980b53f0d4fa385af1b434"),
    ("fuzz --n 2..8 --trials 100 --seed 3 --distribution rationals",
     "bf38fb5e5cf73feb12c562f4c740ec9f349694c826af78028c19871b862b2b53"),
    ("fuzz --n 3..8 --trials 100 --seed 3 --distribution rationals --exclude-boundary"
     " --format json",
     "135e8eb6b2b6a59ac6b07eb1519faef52c97cccf5cfef72ba46cda996afab908"),
    ("check --values 1,2,3,7/2,9 --all-k",
     "38015416b8d67566659d7883baba319c0f3380d0fb616744fb14321588293a69"),
    ("check --values 12/7,3/11,99/100,1,2,3,4,5 --all-k --format json",
     "ac16f151f3cb858e30c8f0b713cfa315a15451d7d0b13a11f206c5b179f47811"),
    ("lemma --which pairwise --values " + WIDE_RATIONALS + ",1000000/999999",
     "39cf394070a63ad3281f864e753ac9637faa3d05b33a082720f2d81850d4211e"),
    ("lemma --which pairwise --values " + WIDE_RATIONALS + ",1000000/999999 --format json",
     "7d1366530b00163047b1b76a9454c51d6c07a7f4e7716907234c062373af8efc"),
    ("identity --k 3 --values " + WIDE_RATIONALS,
     "dbcee511e927edfe9b896f565dbbaa8da2b44395ca07db6b315ee52cb309923c"),
    ("identity --k 3 --values " + WIDE_RATIONALS + " --format json",
     "fd7547956ab80f5fa59b63d8fd2a8c91ae912aec1fb0c4f27b2f7d2347738cbb"),
    ("maximize --n 13 --k 6 --seed 0",
     "4c62bd1fd77c1f14d286397d5c27b715a1fe743fb39d3219f3e9750aee35475b"),
    ("maximize --n 13 --k 6 --seed 1",
     "709a63b05af8fe962350678f491793f0c27ad3b155871d98dddbb445f37eba09"),
    ("maximize --n 13 --k 6 --seed 2",
     "10434ec2a5b8d62b58b647b14c554232be757676d644a1a2b7cb55c8228f6013"),
]


def test_fuzz_and_all_k_outputs_pinned():
    for argv, digest in PINNED_OUTPUTS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv.split())
        assert (code, err.getvalue()) == (0, ""), argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


# ---- report content ----

def test_json_reports_roundtrip_through_records():
    result = run_cli("check", "--values", "4,5/2,1/2", "--all-k", "--format", "json")
    records = json.loads(result.stdout)
    v = make_vector([4, Fraction(5, 2), Fraction(1, 2)])
    assert records == [report_to_record(check_main(v, k)) for k in (1, 2, 3)]


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


@pytest.mark.parametrize("command", ["check", "identity"])
def test_single_k_commands_run_one_pruned_pass_per_vector(command, monkeypatch, capsys,
                                                          tmp_path):
    # check --k and identity --k hold one row per vector: each vector, the
    # same values twice included, gets one pass pruned to K, never the pass
    # that builds every row
    built = []

    def counted(ints, ks):
        built.append(tuple(ks))
        return products_by_sum(ints, ks)

    monkeypatch.setattr("symineq.inequality.products_by_sum", counted)
    corpus = tmp_path / "vectors.txt"
    corpus.write_text("1 2/3 5 7\n1 2/3 5 7\n4 1 3 3 9\n")
    assert main([command, "--values", "1,2/3,5,7", "--k", "2"]) == 0
    assert built == [(2,)]
    assert main([command, "--file", str(corpus), "--k", "3", "--format", "json"]) == 0
    assert built == [(2,), (3,), (3,), (3,)]
    assert len(capsys.readouterr().out.splitlines()) > 1


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
    # a single-value option given only `--`, which argparse drops from its value
    no_value = [
        (("check", "--values=--", "--k", "1"), "--values"),
        (("lemma", "--which", "pairwise", "--values=--"), "--values"),
        (("identity", "--k", "1", "--values=--"), "--values"),
        (("check", "--file=--", "--k", "1"), "--file"),
        (("fuzz", "--n=--"), "--n"),
        (("fuzz", "--epsilon=--"), "--epsilon"),
        (("check", "--values", "1,2", "--k=--"), "--k"),
        (("maximize", "--n", "5", "--k", "2", "--step=--"), "--step"),
        (("check", "--values", "1,2", "--k", "1", "--format=--"), "--format"),
    ]
    for args, flag in [(args, None) for args in cases] + no_value:
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert result.stderr.startswith("symineq: error:"), (args, result.stderr)
        assert result.stderr.count("\n") == 1, (args, result.stderr)
        assert result.stdout == "", args
        if flag is not None:
            assert result.stderr == \
                f"symineq: error: argument {flag}: expected one argument\n", args


@pytest.mark.parametrize("command, flag, value", [
    (("check", "--k", "1"), "--values", "-1/2"),
    (("check", "--k", "1"), "--values", "-1,2"),
    (("check", "--k", "1"), "--values", "-1"),
    (("check", "--k", "1"), "--values", "-.5"),
    (("identity", "--k", "1"), "--values", "-2 3"),
    (("lemma", "--which", "pairwise"), "--values", "-1/2,3"),
    (("fuzz", "--distribution", "near-uniform"), "--epsilon", "-1/2"),
    (("fuzz",), "--n", "-3..5"),
])
def test_a_value_that_starts_with_a_minus_and_a_digit_is_read_as_with_an_equals_sign(
        command, flag, value, capsys):
    # argparse alone reads only -N and -N.N as values; any other argument
    # that starts with - and a digit is a value too, so it is refused by the
    # rule it breaks, as its --flag=value form is, and not for a missing one
    results = []
    for argv in ([*command, flag, value], [*command, f"{flag}={value}"]):
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (1, "")
    assert err.startswith("symineq: error:") and "expected one argument" not in err


def test_oversized_and_undecodable_inputs_end_in_one_error_line(tmp_path):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"1 2 \xff\n")
    # a line break in a file name is escaped, not printed
    bad_token = tmp_path / "bad\nname.txt"
    bad_token.write_text("1 2\n3 oops 4\n")
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
        # the float rhs underflows at the start point
        ("maximize", "--n", "150", "--k", "149", "--max-n", "150"),
        ("check", "--file", str(tmp_path / "no\nsuch"), "--k", "1"),
        ("check", "--file", str(bad_token), "--k", "1"),
        # echoed values: argparse, the library's k check, argparse again
        ("check", "--values", "1,2", "--k", "9" * 5000),
        ("check", "--values", "1,2", "--k", "9" * 4000),
        ("fuzz", "--trials", "9" * 5000),
    ]
    results = [run_cli(*args) for args in cases]
    for args, result in zip(cases, results):
        assert result.returncode == 1, args[:2]
        assert result.stderr.startswith("symineq: error:"), result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        assert "Traceback" not in result.stderr
    assert str(not_utf8) in results[0].stderr
    assert "no\\nsuch: [Errno 2]" in results[-5].stderr
    assert "bad\\nname.txt:2:3: malformed scalar 'oops'" in results[-4].stderr
    for result, start in zip(results[-3:], ("argument --k: invalid int value: '999",
                                            "k must satisfy 0 < k <= n, got k=999",
                                            "argument --trials: invalid int value: '999")):
        assert result.stderr.startswith("symineq: error: " + start), result.stderr[:80]
        assert len(result.stderr.encode()) <= 300
        assert "characters left out)\n" in result.stderr


def test_a_value_past_the_render_limit_is_refused_in_both_formats():
    # JSON does not echo the vector, so it printed a report where text
    # output refused to render the entry; the parser now refuses it
    nines = "9" * 4000
    results = [run_cli("check", "--values", f"{nines}.{nines},3", "--k", "1", "--format", fmt)
               for fmt in ("text", "json")]
    for result in results:
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == results[0].stderr
    assert results[0].stderr.startswith(
        "symineq: error: --values:1: scalar literal of 8001 characters: exact value of about")
    assert results[0].stderr.count("\n") == 1


def test_closed_stdout_ends_in_one_error_line(tmp_path):
    many = tmp_path / "many.txt"
    many.write_text("1 2 3\n" * 20000)
    # the second vector is too short for k=2: with the reader gone before the
    # first line, its refusal follows output that the pipe never took
    late_error = tmp_path / "late_error.txt"
    late_error.write_text("1 2 3\n1\n")
    cases = [(["--file", str(many), "--k", "2"], 1), (["--file", str(many), "--all-k"], 1),
             (["--file", str(late_error), "--k", "2"], 0)]
    for argv, lines_read in cases:
        for unbuffered in ("", "1"):
            proc = subprocess.Popen([sys.executable, "-m", "symineq", "check", *argv],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                    env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
            for _ in range(lines_read):
                proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 1, (argv, err)
            assert err.startswith("symineq: error:"), (argv, err)
            assert err.count("\n") == 1, (argv, err)
            if lines_read:
                assert "cannot write to stdout: [Errno 32] Broken pipe" in err


def test_interrupt_ends_in_one_error_line(tmp_path):
    many = tmp_path / "many.txt"
    many.write_text((" ".join(map(str, range(1, 17))) + "\n") * 20000)
    # A shell starts a background job with SIGINT ignored, and Python raises
    # KeyboardInterrupt only when SIGINT is at its default on start-up; so
    # the child restores the default, whatever this process inherited.
    proc = subprocess.Popen([sys.executable, "-m", "symineq", "check", "--file", str(many),
                             "--all-k"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    # the first output byte comes after the first vector is checked, inside main
    assert proc.stdout.read(1)
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    assert err == b"symineq: error: interrupted\n", err


value_text = st.lists(st.text(alphabet="0123456789/.-,x ", min_size=1, max_size=6),
                      max_size=8).map(" ".join)


@given(st.sampled_from(["check", "lemma", "identity"]), value_text,
       st.integers(min_value=0, max_value=4))
@example(command="check", text="--", k=1)
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
    """(exit code, stderr) of main(argv); usage errors return 1 like every
    refusal, and any exception escapes and fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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


def test_file_lines_are_parsed_as_they_are_checked(tmp_path):
    # a malformed line ends the run after the reports of the lines before
    # it, as a refused check does; JSON mode prints nothing on any error
    corpus = tmp_path / "third_bad.txt"
    corpus.write_text("1 2 3\n# a note\n4,5,6\n7 2x 1\n8 9\n")
    text = run_cli("check", "--file", str(corpus), "--k", "2")
    assert text.returncode == 1
    assert text.stdout == ("MainTheorem n=3 k=2 v=(1, 2, 3): lhs=157/60 rhs=11/4"
                           " slack=2/15 strict\n"
                           "MainTheorem n=3 k=2 v=(4, 5, 6): lhs=3638/495 rhs=37/5"
                           " slack=5/99 strict\n")
    assert text.stderr == f"symineq: error: {corpus}:4:3: malformed scalar '2x'\n"
    as_json = run_cli("check", "--file", str(corpus), "--k", "2", "--format", "json")
    assert (as_json.returncode, as_json.stdout, as_json.stderr) == (1, "", text.stderr)
    # a file is read and decoded whole, and must hold a vector, before any output
    comments = tmp_path / "comments.txt"
    comments.write_text("# only a note\n\n , \n")
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"1 2 3\n4 5 \xff\n")
    for path, message in ((comments, "no vectors found"), (not_utf8, "not UTF-8 text")):
        result = run_cli("lemma", "--which", "pairwise", "--file", str(path))
        assert (result.returncode, result.stdout) == (1, ""), path
        assert result.stderr.startswith(f"symineq: error: {path}: {message}"), result.stderr
        assert result.stderr.count("\n") == 1


def test_file_with_a_leading_byte_order_mark_is_read(tmp_path):
    # as Notepad saves UTF-8; a mark anywhere else is still a malformed scalar
    marked = tmp_path / "bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf1,2,3\n")
    result = run_cli("check", "--file", str(marked), "--k", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == run_cli("check", "--values", "1,2,3", "--k", "2").stdout
    marked.write_bytes(b"\xef\xbb\xbf1,2,3\n\xef\xbb\xbf4,5\n")
    result = run_cli("check", "--file", str(marked), "--k", "2")
    assert result.returncode == 1
    assert result.stderr == f"symineq: error: {marked}:2:1: malformed scalar '\\ufeff4'\n"


def test_unknown_distribution_names_the_three_kinds():
    # the kind is checked once, by Distribution, not also by argparse
    result = run_cli("fuzz", "--distribution", "bogus")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("symineq: error:")
    assert result.stderr.count("\n") == 1
    for kind in ("integers", "rationals", "near-uniform"):
        assert kind in result.stderr, kind


def test_n_cap_blocks_and_override_unblocks():
    values = ",".join(["1"] * 21)
    blocked = run_cli("check", "--values", values, "--k", "1")
    assert blocked.returncode == 1
    assert "exceeds the cap" in blocked.stderr
    allowed = run_cli("check", "--values", values, "--k", "1", "--max-n", "21")
    assert allowed.returncode == 0
    assert "n=21" in allowed.stdout


@pytest.mark.parametrize("argv", [
    ("check", "--k", "2", "--values", "1,2"),
    ("lemma", "--which", "pairwise", "--values", "1,2"),
    ("identity", "--k", "1", "--values", "1,2"),
    ("fuzz", "--n", "2..3", "--trials", "1"),
    ("maximize", "--n", "3", "--k", "2"),
])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_cap_below_one_is_refused(argv, cap, capsys):
    # no vector fits under such a cap, so it is refused as a cap, not
    # reported as a vector that exceeds it
    code = main([*argv, "--max-n", cap])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"symineq: error: --max-n must be at least 1, got {cap}\n"


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


def test_violation_past_the_digit_limit_still_exits_2(monkeypatch, capsys):
    # a witnessed violation whose sides are too long to print is reported,
    # not refused: each unprintable value is named by its digit count
    def inverted(v, k):
        raise Violation(Statement.MAIN_THEOREM, v, k, Fraction(10**4400 + 1, 3), Fraction(2))

    monkeypatch.setattr("symineq.cli.check_main", inverted)
    code = main(["check", "--values", "1,2,3", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("symineq: exact violation witnessed:")
    assert captured.err.count("\n") == 1
    assert "lhs=(exact value of about 4401 digits is past the" in captured.err
    assert " rhs=2 " in captured.err


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


def test_all_k_violation_keeps_the_lines_of_earlier_k(monkeypatch, capsys):
    lhs_main, rhs_main = symineq.inequality.lhs_main, symineq.inequality.rhs_main

    def second_k_inverted(v, k):
        lhs = lhs_main(v, k)  # keeps the row rhs_main reads
        return rhs_main(v, k) + 1 if k == 2 else lhs

    monkeypatch.setattr("symineq.inequality.lhs_main", second_k_inverted)
    code = main(["check", "--values", "1,2,3", "--all-k"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ("MainTheorem n=3 k=1 v=(1, 2, 3): lhs=3 rhs=3 slack=0 equality"
                            " [identity (always equality)]\n")
    assert "MainTheorem violated at n=3 k=2:" in captured.err
    assert "slack=-1" in captured.err


def test_fuzz_with_violations_exits_2(monkeypatch, capsys):
    # deliberately inverted sides standing in for a falsified bound, and no
    # proof of a slack above the minimum, whose certificate term and floor
    # would clear the checks their true sides prove positive
    monkeypatch.setattr("symineq.search.lhs_main", lambda v, k: Fraction(3))
    monkeypatch.setattr("symineq.search.rhs_main", lambda v, k: Fraction(2))
    monkeypatch.setattr("symineq.search.main_slack_exceeds", lambda v, k, bound: False)
    code = main(["fuzz", "--n", "3..3", "--trials", "5", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "violations: 15" in captured.out  # 5 trials x 3 values of k
    assert "min slack: -1" in captured.out


# ---- dependencies and public names ----

def test_import_leaves_numpy_out():
    # the package has no runtime dependencies; this keeps numpy from creeping
    # back, and dataclasses (which loads inspect) with it, and json, which only
    # a --format json run imports. Only what the import itself loads counts: a
    # site hook may load inspect before it.
    probe = ("import sys; before = set(sys.modules); import symineq, symineq.cli; "
             "print([m in set(sys.modules) - before for m in "
             "('numpy', 'dataclasses', 'inspect', 'json')])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.stdout == "[False, False, False, False]\n", result.stderr


def test_public_names_are_pinned():
    # the package exports what callers outside the tests use; the
    # brute-force oracles live in the tests
    assert sorted(symineq.__all__) == [
        "Distribution", "FuzzReport", "InequalityReport", "InputError", "PositiveVector",
        "SearchResult", "Statement", "Violation", "__version__", "check_main",
        "check_pairwise_lemma", "check_proof_identity", "check_reciprocal_lemma",
        "elementary_symmetric", "fuzz", "lhs_main", "make_vector", "maximize_ratio",
        "parse_scalar", "proof_identity", "render_scalar", "report_to_record", "rhs_main"]
    for name in symineq.__all__:
        assert hasattr(symineq, name), name


def test_record_reprs_and_equality_pinned():
    # sha256 of the reprs, recorded while the records were dataclasses; a
    # record is a tuple now, and must still print, compare and hash alike
    def records():
        v = make_vector([1, Fraction(5, 2), 3])
        return [v, check_main(v, 2), symineq.check_reciprocal_lemma(v),
                symineq.check_pairwise_lemma(v), symineq.check_proof_identity(v, 2),
                symineq.fuzz((3, 6), "interior", 20,
                             symineq.Distribution("rationals", bound=9), seed=1),
                symineq.Distribution("integers"),
                symineq.Distribution("near-uniform", epsilon=Fraction(1, 7))]

    first, second = records(), records()
    text = "\n".join(map(repr, first))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "39407ad75c1b81509e2a5a77da628434bb367bf1aa02cd985432f5cd23c723a7"), text
    first.append(symineq.maximize_ratio(4, 2, max_iterations=3))
    second.append(symineq.maximize_ratio(4, 2, max_iterations=3))
    for a, b in zip(first, second):
        assert type(a) is type(b) and a == b and hash(a) == hash(b), a
    for record, field in zip(first[1:], ("slack", "lhs", "rhs", "is_equality",
                                         "witness", "kind", "epsilon", "ratio")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
