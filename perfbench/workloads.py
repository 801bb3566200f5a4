"""Seeded inputs, operations and correctness gates of the three workloads.

Each workload is one closed-loop caller: the next operation starts only
after the previous one has finished, one process at a time. Operations are
grouped into passes, a fixed operation list that a run repeats whole.

sweep     One operation is one vector of small rationals, checked in process
          through every exact statement. A pass is a block of 27 vectors,
          three for each n in 2..10, so every pass has the same shape. A
          run cycles through a catalog of SWEEP_BLOCKS blocks in an order
          the seed picks, each with a digest of its rendered records stored
          in expected.json.
fuzz      One operation is one `symineq fuzz` process over a single n, with
          the fixed fuzz seed FUZZ_SEED and 2**(16 - n) trials, so that each
          does about the same work. A pass runs n = 12..16 once each, which
          covers the range `--n 12..16` samples from; the seed orders the
          pass. The stdout of each is checked against a digest stored in
          expected.json.
maximize  One operation is one `symineq maximize --n 13 --k 6` process; a
          pass runs each of the fixed start seeds MAXIMIZE_SEEDS, in an order
          the seed picks. Results are checked against tolerances.

The operation lists are fixed and the seed only orders them, so that runs
with different seeds measure the same work: a run of 30 s covers the sweep
catalog at least once, and the seed picks which blocks come round again.
fuzz and maximize hold only a few
multi-second operations a run: with seeded start points (29 to 43 ascent
iterations at n=13), maximize medians spread by about 20% over five seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

from symineq import cli, exact, inequality

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"

SWEEP_BLOCKS = 32
SWEEP_NS = range(2, 11)
SWEEP_PER_N = 3
SWEEP_MAX_ENTRY = 12
IDENTITY_MAX_N = 8  # the identity enumerates (k+1)-subsets of k-subsets

FUZZ_NS = range(12, 17)
FUZZ_SEED = 42

MAXIMIZE_N, MAXIMIZE_K = 13, 6
MAXIMIZE_SEEDS = (0, 1, 2)

ORDERS = 16  # distinct seeded orders of a fixed pass; a run cycles through them
RATIO_TOL = 1e-9
ARGMAX_TOL = 1e-4

NAMES = ("sweep", "fuzz", "maximize")


class OpResult(NamedTuple):
    ok: bool
    output: str
    checks: int  # exact statement checks completed
    rss_kb: int  # peak resident set of the operation's process, 0 in process
    seconds: float | None = None  # reference seconds of a child process (host.py)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_env() -> dict:
    """Environment for CLI processes: the working tree's src, nothing installed."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv: tuple[str, ...], host=None) -> tuple[int, str, int, float | None]:
    """Run the symineq CLI in this process, or with a host.HostReference in a
    child process. Returns the exit code, stdout+stderr, the child's peak RSS
    in kB (0 in process) and its time in reference seconds (None in process)."""
    if host is None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse exits on usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation, not a crash
                traceback.print_exc()
                code = 1
        return code, buf.getvalue(), 0, None
    code, out, rss_kb, seconds = host.run([sys.executable, "-m", "symineq", *argv],
                                          ROOT, cli_env())
    return code, out.decode(errors="replace"), rss_kb, seconds


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _scalar_text(rng: random.Random) -> str:
    p = rng.randint(1, SWEEP_MAX_ENTRY)
    q = rng.randint(1, SWEEP_MAX_ENTRY)
    return str(p) if q == 1 else f"{p}/{q}"


def sweep_block(block: int) -> list[str]:
    """The vectors of one catalog block, as comma-separated scalar text."""
    rng = random.Random(block)
    return [",".join(_scalar_text(rng) for _ in range(n))
            for n in SWEEP_NS for _ in range(SWEEP_PER_N)]


def sweep_vector(text: str) -> list[dict]:
    """Every exact statement on one vector, rendered as records."""
    v = exact.make_vector([exact.parse_scalar(t) for t in text.split(",")])
    n = len(v)
    reports = [inequality.check_main(v, k) for k in range(1, n + 1)]
    if n <= IDENTITY_MAX_N:
        reports += [inequality.check_proof_identity(v, k) for k in range(1, n)]
    reports.append(inequality.check_reciprocal_lemma(v))
    reports.append(inequality.check_pairwise_lemma(v))
    return [inequality.report_to_record(r) for r in reports]


def render_records(records: list[dict]) -> str:
    return json.dumps(records, separators=(",", ":"))


class Sweep:
    name = "sweep"
    via_cli = False

    def __init__(self, seed: int, expected: dict, tiny: bool = False):
        order = random.Random(seed).sample(range(SWEEP_BLOCKS), SWEEP_BLOCKS)
        self.keys = [str(b) for b in order[:1 if tiny else None]]
        self.passes = [sweep_block(int(b)) for b in self.keys]
        self.expected = expected["sweep"]

    def run_op(self, text: str, host=None) -> OpResult:
        try:
            records = sweep_vector(text)
        except Exception:  # counted as a failure; the run goes on
            return OpResult(False, traceback.format_exc(), 0, 0)
        return OpResult(True, render_records(records), len(records), 0)

    def failed(self, index: int, results: list[OpResult]) -> int:
        """A block fails whole when an operation raised or its digest differs."""
        key = self.keys[index]
        good = (all(r.ok for r in results)
                and digest("\n".join(r.output for r in results)) == self.expected.get(key))
        return 0 if good else len(results)


# --------------------------------------------------------------------------
# fuzz
# --------------------------------------------------------------------------

def fuzz_list() -> list[tuple[str, ...]]:
    """One run per n. A trial at n checks about 2**n subsets, so n gets
    2**(16 - n) trials: every operation does about the same work, and the
    median and tail of a run's few operations pool all of them."""
    return [("fuzz", "--n", f"{n}..{n}", "--exclude-boundary",
             "--trials", str(2 ** (FUZZ_NS[-1] - n)), "--seed", str(FUZZ_SEED))
            for n in FUZZ_NS]


def orders(seed: int, ops: list) -> list[list]:
    rng = random.Random(seed)
    return [rng.sample(ops, len(ops)) for _ in range(ORDERS)]


_CHECKS_RE = re.compile(r"^checks: ([0-9]+)$", re.M)


class _CliWorkload:
    via_cli = True

    def failed(self, index: int, results: list[OpResult]) -> int:
        return sum(not r.ok for r in results)


class Fuzz(_CliWorkload):
    name = "fuzz"

    def __init__(self, seed: int, expected: dict, tiny: bool = False):
        self.passes = orders(seed, fuzz_list()[:1] if tiny else fuzz_list())
        self.expected = expected["fuzz"]

    def run_op(self, argv: tuple[str, ...], host=None) -> OpResult:
        code, out, rss, seconds = run_cli(argv, host)
        ok = (code == 0 and "Traceback" not in out
              and digest(out) == self.expected.get(" ".join(argv)))
        match = _CHECKS_RE.search(out)
        return OpResult(ok, out, int(match.group(1)) if match else 0, rss, seconds)


# --------------------------------------------------------------------------
# maximize
# --------------------------------------------------------------------------

def maximize_ok(out: str) -> bool:
    """Converged, certified, ratio within RATIO_TOL of 1, argmax near 1/n."""
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    try:
        ratio = float(fields["ratio"])
        argmax = [float(x) for x in fields["argmax"].strip("()").split(",")]
    except (KeyError, ValueError):
        return False
    return (fields.get("converged") == "true"
            and fields.get("exact ratio <= 1") == "true"
            and ratio >= 1 - RATIO_TOL
            and max(abs(x - 1 / len(argmax)) for x in argmax) <= ARGMAX_TOL)


class Maximize(_CliWorkload):
    name = "maximize"

    def __init__(self, seed: int, expected: dict, tiny: bool = False):
        n, k = (6, 3) if tiny else (MAXIMIZE_N, MAXIMIZE_K)
        seeds = MAXIMIZE_SEEDS[:1] if tiny else MAXIMIZE_SEEDS
        self.passes = orders(seed, [("maximize", "--n", str(n), "--k", str(k),
                                     "--seed", str(s)) for s in seeds])

    def run_op(self, argv: tuple[str, ...], host=None) -> OpResult:
        code, out, rss, seconds = run_cli(argv, host)
        ok = code == 0 and "Traceback" not in out and maximize_ok(out)
        return OpResult(ok, out, 1 if ok else 0, rss, seconds)


def record() -> dict:
    """Expected digests of every sweep block and fuzz run, from the working tree."""
    sweep = {str(b): digest("\n".join(render_records(sweep_vector(t)) for t in sweep_block(b)))
             for b in range(SWEEP_BLOCKS)}
    fuzz = {}
    for argv in fuzz_list():
        code, out, _, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"cannot record {' '.join(argv)}: exit {code}\n{out}")
        fuzz[" ".join(argv)] = digest(out)
    return {"sweep": sweep, "fuzz": fuzz}


def build(name: str, seed: int, tiny: bool = False, expected: dict | None = None):
    """The workload's inputs for this seed; what a run's set-up builds."""
    cls = {"sweep": Sweep, "fuzz": Fuzz, "maximize": Maximize}[name]
    return cls(seed, load_expected() if expected is None else expected, tiny)
