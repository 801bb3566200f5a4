"""Command-line front end.

Subcommands: check (main bound), lemma (reciprocal or pairwise), identity
(the rearrangement identity behind the induction step), fuzz (seeded random
trials, with every violation and the minimum slack exact), maximize (float
ascent of the ratio with exact re-certification).

The vector commands (check, lemma, identity) are one pipeline. Each vector,
from --values or from one line of --file, goes through one parser just
before it is checked, and each report is rendered once, as its
`report_to_record`. A line that fails to parse or fails its check ends the
run after the reports of the lines before it; JSON mode prints nothing on
any error.

Exit codes: 0 all statements held, 1 usage or input error, 2 an exact
violation was witnessed. Every exit 1 is one `symineq: error:` line on
stderr, whether argparse refused the command line or the library raised
`InputError` for an argument outside a statement's domain. The front end
checks only what the library cannot know: file I/O, flag syntax, where in
the input a parse failed, and the n cap. An error line keeps the start of a
long message; a closed stdout and an interrupt are errors too.

The harnesses return only what they computed; the header of a fuzz or
maximize run prints the arguments as this module parsed them. Output is
plain text or JSON; both are deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterator, Optional, Sequence

from symineq.exact import InputError, PositiveVector, make_vector, parse_scalar, render_scalar
from symineq.inequality import (
    Statement,
    Violation,
    check_main,
    check_pairwise_lemma,
    check_proof_identity,
    check_reciprocal_lemma,
    report_to_record,
)
from symineq.search import Distribution, fuzz, maximize_ratio

# Cap unless overridden: wide rationals give the lhs DP about C(n, k) distinct
# subset sums, and the proof identity enumerates subsets outright.
DEFAULT_MAX_N = 20

_TOKEN_RE = re.compile(r"[^\s,]+")
_RANGE_RE = re.compile(r"(?P<lo>[0-9]+)(?:\.\.(?P<hi>[0-9]+))?\Z")
# every character that str.splitlines breaks at, to its escape sequence
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
# An error message keeps this many characters; its start names the flag or
# the input location, and an echoed value may run to thousands of digits.
_MESSAGE_CHARS = 200


def _error_line(message: str) -> str:
    """The one stderr line of a refusal. A line break in the message, as a
    file name may hold, is printed as its escape sequence, and a message
    past _MESSAGE_CHARS characters is cut to its start."""
    text = message.translate(_LINE_BREAKS)
    if len(text) > _MESSAGE_CHARS:
        text = f"{text[:_MESSAGE_CHARS]}... ({len(text) - _MESSAGE_CHARS} characters left out)"
    return f"symineq: error: {text}\n"


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage text and exits with status 2 on bad usage;
    # this front end reserves 2 for witnessed violations, so a usage error
    # is an InputError like every other refusal: one error line, status 1.
    def error(self, message):
        raise InputError(message)

    # argparse reads only -N and -N.N as values, so `--values -1/2` would end
    # in "expected one argument". No flag here starts with - and a digit, so
    # every argument that does, or with -. and a digit, is a value.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    # argparse drops a `--` from an option's value strings, so CPython 3.11
    # stores `--values=--` as an empty list that no type or choice checks;
    # a single-value option given only `--` has no value.
    def _get_values(self, action, arg_strings):
        if action.nargs is None and action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


# ---- input parsing ----

def _located(where: str, parse: Callable, arg):
    """parse(arg), with `where` put before the message of an InputError."""
    try:
        return parse(arg)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_vector(where: str, text: str) -> PositiveVector:
    """One vector from text whose entries are split on commas or whitespace.
    A scalar error is located at `where:column`, a vector error at `where`."""
    entries = [_located(f"{where}:{match.start() + 1}", parse_scalar, match.group())
               for match in _TOKEN_RE.finditer(text)]
    return _located(where, make_vector, entries)


def _input_vectors(args) -> Iterator[PositiveVector]:
    """Yield each input vector just before it is checked: --values, or one
    vector per line of --file, where blank lines and text after '#' are
    ignored. The file is read and decoded whole first, so an unreadable,
    non-UTF-8 or vector-less file is refused before any output; a leading
    byte order mark, which some editors write, is dropped."""
    if args.values is not None:
        yield _parse_vector("--values", args.values)
        return
    path = args.file
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    bodies = [(lineno, body) for lineno, line in enumerate(lines, start=1)
              if _TOKEN_RE.search(body := line.split("#", 1)[0])]
    if not bodies:
        raise InputError(f"{path}: no vectors found")
    for lineno, body in bodies:
        yield _parse_vector(f"{path}:{lineno}", body)


def _enforce_cap(n: int, max_n: int) -> None:
    if max_n < 1:
        raise InputError(f"--max-n must be at least 1, got {max_n}")
    if n > max_n:
        raise InputError(
            f"n={n} exceeds the cap of {max_n}; pass --max-n {n} to override")


# ---- rendering ----

def _report_line(v: PositiveVector, record: dict) -> str:
    """The text line of a report, from its `report_to_record` strings."""
    statement = record["statement"]
    head = (f"{statement} n={record['n']} k={record['k']}"
            f" v=({', '.join(map(render_scalar, v))})")
    if statement == Statement.PROOF_IDENTITY.value:
        # the identity is evaluated on the unit-sum rescaling of v
        head += f" scale={render_scalar(v.total())}"
    verdict = "equality" if record["is_equality"] else "strict"
    line = (f"{head}: lhs={record['lhs']} rhs={record['rhs']}"
            f" slack={record['slack']} {verdict}")
    if statement == Statement.MAIN_THEOREM.value and record["k"] in (1, record["n"]):
        line += " [identity (always equality)]"
    return line


def _print_json(value) -> None:
    import json  # here, so a text run does not import it
    print(json.dumps(value, indent=2))


# ---- subcommand runners ----

def _run_vectors(args) -> int:
    """Report on each input vector; args.reports(args, v) yields its
    reports, and each report is rendered once, as its `report_to_record`.
    A vector is parsed just before it is checked, so a line of a file that
    fails to parse or fails its check ends the run after the reports of the
    lines before it. Text lines are printed as they are made; JSON is one
    array, printed at the end, so JSON mode prints nothing on any error."""
    records = []
    for v in _input_vectors(args):
        _enforce_cap(len(v), args.max_n)
        for report in args.reports(args, v):
            record = report_to_record(report)
            if args.format == "json":
                records.append(record)
            else:
                print(_report_line(v, record))
    if args.format == "json":
        _print_json(records)
    return 0


def _check_reports(args, v: PositiveVector):
    for k in range(1, len(v) + 1) if args.all_k else (args.k,):
        yield check_main(v, k)


def _lemma_reports(args, v: PositiveVector):
    checker = (check_reciprocal_lemma if args.which == "reciprocal"
               else check_pairwise_lemma)
    yield checker(v)


def _identity_reports(args, v: PositiveVector):
    yield check_proof_identity(v, args.k)


def _parse_n_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.fullmatch(text)
    if match is None:
        raise InputError(f"bad n range {text!r}; expected N or LO..HI")
    # the scalar parser refuses digit runs past the interpreter's int/str limit
    lo, hi = (_located("--n", parse_scalar, bound).numerator
              for bound in (match["lo"], match["hi"] or match["lo"]))
    return lo, hi


def _run_fuzz(args) -> int:
    n_range = _parse_n_range(args.n)
    _enforce_cap(n_range[1], args.max_n)
    distribution = Distribution(kind=args.distribution, bound=args.max_value,
                                epsilon=_located("--epsilon", parse_scalar, args.epsilon))
    report = fuzz(n_range, args.k_policy, args.trials, distribution, args.seed)
    record = {
        "n_range": "{}..{}".format(*n_range),
        "k_policy": str(args.k_policy),
        "trials": args.trials,
        "checks": report.checks,
        "violations": report.violations,
        "min_slack": render_scalar(report.min_slack),
        "witness": [render_scalar(a) for a in report.witness],
        "witness_k": report.witness_k,
        "seed": args.seed,
        "distribution": distribution.describe(),
    }
    if args.format == "json":
        _print_json(record)
    else:
        print(f"fuzz: n={record['n_range']} k={record['k_policy']} trials={args.trials}"
              f" distribution={record['distribution']} seed={args.seed}\n"
              f"trials: {args.trials}\n"
              f"checks: {report.checks}\n"
              f"violations: {report.violations}\n"
              f"min slack: {record['min_slack']}"
              f" (n={len(report.witness)} k={report.witness_k}"
              f" v=({', '.join(record['witness'])}))")
    return 0 if report.violations == 0 else 2


def _run_maximize(args) -> int:
    _enforce_cap(args.n, args.max_n)
    result = maximize_ratio(args.n, args.k, seed=args.seed, step_size=args.step,
                            convergence_tolerance=args.tolerance,
                            max_iterations=args.max_iter)
    if args.format == "json":
        _print_json({
            "n": args.n,
            "k": args.k,
            "seed": args.seed,
            "step_size": args.step,
            "tolerance": args.tolerance,
            "max_iterations": args.max_iter,
            "converged": result.converged,
            "iterations": result.iterations,
            "ratio": result.ratio,
            "exact_ratio_le_1": True,
            "argmax": list(result.argmax),
        })
    else:
        print(f"maximize: n={args.n} k={args.k} seed={args.seed}"
              f" step={args.step!r} tol={args.tolerance!r} max_iter={args.max_iter}\n"
              f"converged: {'true' if result.converged else 'false'}\n"
              f"iterations: {result.iterations}\n"
              f"ratio: {result.ratio!r}\n"
              f"exact ratio <= 1: true\n"
              f"argmax: ({', '.join(repr(xi) for xi in result.argmax)})")
    return 0


# ---- parser construction ----

def _add_common(sub, vectors: bool = True) -> None:
    if vectors:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--values", help="one vector inline, e.g. 1,2,3 or '1/2 0.3 7'")
        group.add_argument("--file", help="path to a file with one vector per line")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")
    sub.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, metavar="N",
                     help=f"refuse vectors longer than N (default: {DEFAULT_MAX_N})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symineq",
                     description="Exact verification of subset-product bounds "
                                 "on positive vectors.")
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="check the main bound")
    _add_common(check)
    kgroup = check.add_mutually_exclusive_group(required=True)
    kgroup.add_argument("--k", type=int, help="subset size to check")
    kgroup.add_argument("--all-k", action="store_true",
                        help="check every k from 1 to n")
    check.set_defaults(func=_run_vectors, reports=_check_reports)

    lemma = subs.add_parser("lemma", help="check a supporting lemma")
    lemma.add_argument("--which", choices=("reciprocal", "pairwise"), required=True,
                       help="reciprocal: harmonic-type bound; pairwise: k=2 form")
    _add_common(lemma)
    lemma.set_defaults(func=_run_vectors, reports=_lemma_reports)

    identity = subs.add_parser(
        "identity", help="verify the subset rearrangement identity")
    identity.add_argument("--k", type=int, required=True,
                          help="subset size, 1 <= k < n")
    _add_common(identity)
    identity.set_defaults(func=_run_vectors, reports=_identity_reports)

    fz = subs.add_parser("fuzz", help="random trials through the exact checker")
    fz.add_argument("--n", default="2..8", metavar="LO..HI",
                    help="range of vector lengths (default: 2..8)")
    fzk = fz.add_mutually_exclusive_group()
    # both write k_policy: a single k, "interior", or "all" when neither is given
    fzk.add_argument("--k", dest="k_policy", type=int, metavar="K", default=argparse.SUPPRESS,
                     help="check only this subset size")
    fzk.add_argument("--exclude-boundary", dest="k_policy", action="store_const",
                     const="interior", default="all", help="check only 1 < k < n")
    fz.add_argument("--trials", type=int, default=100,
                    help="number of random vectors (default: 100)")
    fz.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    fz.add_argument("--distribution", default="integers",
                    help="input distribution: integers, rationals or near-uniform"
                         " (default: integers)")
    fz.add_argument("--max-value", type=int, default=100, metavar="M",
                    help="numerator/denominator bound (default: 100)")
    fz.add_argument("--epsilon", default="1/1000", metavar="EPS",
                    help="near-uniform perturbation size (default: 1/1000)")
    _add_common(fz, vectors=False)
    fz.set_defaults(func=_run_fuzz)

    mx = subs.add_parser("maximize",
                         help="ascend the lhs/rhs ratio, re-certify exactly")
    mx.add_argument("--n", type=int, required=True, help="vector length")
    mx.add_argument("--k", type=int, required=True, help="subset size, 1 < k < n")
    mx.add_argument("--seed", type=int, default=0,
                    help="seed for the start point (default: 0)")
    mx.add_argument("--tolerance", type=float, default=1e-10,
                    help="projected-gradient convergence tolerance (default: 1e-10)")
    mx.add_argument("--max-iter", type=int, default=1000,
                    help="ascent step budget (default: 1000)")
    mx.add_argument("--step", type=float, default=0.25,
                    help="initial step size for backtracking (default: 0.25)")
    _add_common(mx, vectors=False)
    mx.set_defaults(func=_run_maximize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except InputError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 1
    except Violation as exc:
        print(f"symineq: exact violation witnessed: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        sys.stderr.write(_error_line(f"cannot write to stdout: {exc}"))
        return 1
    except KeyboardInterrupt:
        sys.stderr.write(_error_line("interrupted"))
        return 1
    finally:
        # Whatever the outcome, output that the closed stdout did not take
        # goes to devnull, so that the interpreter's flush at exit, which
        # would print "Exception ignored" and exit 120, has nothing to fail.
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
