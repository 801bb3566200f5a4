"""Command-line front end.

Subcommands: check (main bound), lemma (reciprocal or pairwise), identity
(the rearrangement identity behind the induction step), fuzz (seeded random
trials through the exact checker), maximize (float ascent of the ratio with
exact re-certification).

Exit codes: 0 all statements held, 1 usage or input error, 2 an exact
violation was witnessed. Every exit 1 is one `symineq: error:` line on
stderr, whether argparse refused the command line or the library raised
`InputError` for an argument outside a statement's domain. The front end
checks only what the library cannot know: file I/O, flag syntax, where in
the input a parse failed, and the n cap. Output is plain text or JSON; both
are deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from symineq.exact import InputError, PositiveVector, make_vector, parse_scalar, render_scalar
from symineq.inequality import (
    InequalityReport,
    Statement,
    Violation,
    check_main,
    check_pairwise_lemma,
    check_proof_identity,
    check_reciprocal_lemma,
    report_to_record,
)
from symineq.search import (
    Distribution,
    FuzzReport,
    KPolicy,
    SearchConfig,
    SearchResult,
    fuzz,
    maximize_ratio,
)

# Cap unless overridden: wide rationals give the lhs DP about C(n, k) distinct
# subset sums, and the proof identity enumerates subsets outright.
DEFAULT_MAX_N = 20

_TOKEN_RE = re.compile(r"[^\s,]+")
_RANGE_RE = re.compile(r"(?P<lo>[0-9]+)(?:\.\.(?P<hi>[0-9]+))?\Z")
# every character that str.splitlines breaks at, to its escape sequence
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _error_line(message: str) -> str:
    """The one stderr line of a refusal; a line break in the message, as a
    file name may hold, is printed as its escape sequence."""
    return f"symineq: error: {message.translate(_LINE_BREAKS)}\n"


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage text and exits with status 2 on bad usage;
    # this front end reserves 2 for witnessed violations and refuses every
    # input with one error line and status 1.
    def error(self, message):
        self.exit(1, _error_line(message))


# ---- input parsing ----

def _located(where: str, parse: Callable, arg):
    """parse(arg), with `where` put before the message of an InputError."""
    try:
        return parse(arg)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_values(text: str) -> PositiveVector:
    return _located("--values", lambda tokens: make_vector(map(parse_scalar, tokens)),
                    _TOKEN_RE.findall(text))


def _read_vector_file(path: str) -> list[PositiveVector]:
    """One vector per line; entries split on commas or whitespace; blank
    lines and text after '#' are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    vectors = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0]
        entries = [_located(f"{path}:{lineno}:{match.start() + 1}", parse_scalar, match.group())
                   for match in _TOKEN_RE.finditer(body)]
        if entries:
            vectors.append(_located(f"{path}:{lineno}", make_vector, entries))
    if not vectors:
        raise InputError(f"{path}: no vectors found")
    return vectors


def _input_vectors(args) -> list[PositiveVector]:
    if args.values is not None:
        return [_parse_values(args.values)]
    return _read_vector_file(args.file)


def _enforce_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise InputError(
            f"n={n} exceeds the cap of {max_n}; pass --max-n {n} to override")


# ---- rendering ----

def _format_vector(v: PositiveVector) -> str:
    return "(" + ", ".join(render_scalar(a) for a in v) + ")"


def _report_line(v: PositiveVector, report: InequalityReport,
                 scale: Optional[Fraction] = None) -> str:
    head = f"{report.statement.value} n={report.n} k={report.k} v={_format_vector(v)}"
    if scale is not None:
        head += f" scale={render_scalar(scale)}"
    verdict = "equality" if report.is_equality else "strict"
    line = (f"{head}: lhs={render_scalar(report.lhs)}"
            f" rhs={render_scalar(report.rhs)}"
            f" slack={render_scalar(report.slack)} {verdict}")
    if report.statement is Statement.MAIN_THEOREM and report.k in (1, report.n):
        line += " [identity (always equality)]"
    return line


# ---- subcommand runners ----

def _run_vectors(args) -> int:
    """Report on each input vector; args.reports(args, v) yields its
    (report, scale-or-None) pairs. Text lines are printed as they are made,
    so a violation or a bad vector on line N of a file keeps the lines
    before it; JSON is one array, printed at the end."""
    records = []
    for v in _input_vectors(args):
        _enforce_cap(len(v), args.max_n)
        for report, scale in args.reports(args, v):
            if args.format == "json":
                records.append(report_to_record(report))
            else:
                print(_report_line(v, report, scale))
    if args.format == "json":
        print(json.dumps(records, indent=2))
    return 0


def _check_reports(args, v: PositiveVector):
    for k in range(1, len(v) + 1) if args.all_k else (args.k,):
        yield check_main(v, k), None


def _lemma_reports(args, v: PositiveVector):
    checker = (check_reciprocal_lemma if args.which == "reciprocal"
               else check_pairwise_lemma)
    yield checker(v), None


def _identity_reports(args, v: PositiveVector):
    yield check_proof_identity(v, args.k), v.total()


def _parse_n_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.fullmatch(text)
    if match is None:
        raise InputError(f"bad n range {text!r}; expected N or LO..HI")
    # the scalar parser refuses digit runs past the interpreter's int/str limit
    lo, hi = (_located("--n", parse_scalar, bound).numerator
              for bound in (match["lo"], match["hi"] or match["lo"]))
    return lo, hi


def _fuzz_text(report: FuzzReport) -> str:
    lo, hi = report.n_range
    lines = [
        f"fuzz: n={lo}..{hi} k={report.k_policy} trials={report.trials}"
        f" distribution={report.distribution} seed={report.seed}",
        f"trials: {report.trials}",
        f"checks: {report.checks}",
        f"violations: {report.violations}",
        f"min slack: {render_scalar(report.min_slack)}"
        f" (n={len(report.witness)} k={report.witness_k}"
        f" v=({', '.join(render_scalar(a) for a in report.witness)}))",
    ]
    return "\n".join(lines)


def _fuzz_record(report: FuzzReport) -> dict:
    lo, hi = report.n_range
    return {
        "n_range": f"{lo}..{hi}",
        "k_policy": report.k_policy,
        "trials": report.trials,
        "checks": report.checks,
        "violations": report.violations,
        "min_slack": render_scalar(report.min_slack),
        "witness": [render_scalar(a) for a in report.witness],
        "witness_k": report.witness_k,
        "seed": report.seed,
        "distribution": report.distribution,
    }


def _run_fuzz(args) -> int:
    n_range = _parse_n_range(args.n)
    _enforce_cap(n_range[1], args.max_n)
    if args.k is not None:
        k_policy: KPolicy = args.k
    elif args.exclude_boundary:
        k_policy = "interior"
    else:
        k_policy = "all"
    distribution = Distribution(kind=args.distribution, bound=args.max_value,
                                epsilon=_located("--epsilon", parse_scalar, args.epsilon))
    report = fuzz(n_range, k_policy, args.trials, distribution, args.seed)
    if args.format == "json":
        print(json.dumps(_fuzz_record(report), indent=2))
    else:
        print(_fuzz_text(report))
    return 0 if report.violations == 0 else 2


def _maximize_text(config: SearchConfig, result: SearchResult) -> str:
    lines = [
        f"maximize: n={config.n} k={config.k} seed={config.seed}"
        f" step={config.step_size!r} tol={config.convergence_tolerance!r}"
        f" max_iter={config.max_iterations}",
        f"converged: {'true' if result.converged else 'false'}",
        f"iterations: {result.iterations}",
        f"ratio: {result.ratio!r}",
        f"exact ratio <= 1: true",
        f"argmax: ({', '.join(repr(xi) for xi in result.argmax)})",
    ]
    return "\n".join(lines)


def _maximize_record(config: SearchConfig, result: SearchResult) -> dict:
    return {
        "n": config.n,
        "k": config.k,
        "seed": config.seed,
        "step_size": config.step_size,
        "tolerance": config.convergence_tolerance,
        "max_iterations": config.max_iterations,
        "converged": result.converged,
        "iterations": result.iterations,
        "ratio": result.ratio,
        "exact_ratio_le_1": True,
        "argmax": list(result.argmax),
    }


def _run_maximize(args) -> int:
    _enforce_cap(args.n, args.max_n)
    config = SearchConfig(n=args.n, k=args.k, max_iterations=args.max_iter,
                          step_size=args.step, convergence_tolerance=args.tolerance,
                          seed=args.seed)
    result = maximize_ratio(config)
    if args.format == "json":
        print(json.dumps(_maximize_record(config, result), indent=2))
    else:
        print(_maximize_text(config, result))
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

    check = subs.add_parser("check", parents=(), help="check the main bound")
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
    fzk.add_argument("--k", type=int, help="check only this subset size")
    fzk.add_argument("--exclude-boundary", action="store_true",
                     help="check only 1 < k < n")
    fz.add_argument("--trials", type=int, default=100,
                    help="number of random vectors (default: 100)")
    fz.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    fz.add_argument("--distribution", choices=("integers", "rationals", "near-uniform"),
                    default="integers", help="input distribution (default: integers)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 1
    except Violation as exc:
        print(f"symineq: exact violation witnessed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
