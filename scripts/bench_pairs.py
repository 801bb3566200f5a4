"""Alternating parent/change pairs of the perfbench benchmark, summarized.

Runs `python3 perfbench/run.py --workload W --seed S --trace T` in two
checkouts (each run from its own root, on its own ./src), one pair per seed,
alternating which side goes first. Each side's result line and the summary
(median and quartiles per metric, and how many pairs the change won) are
merged into the output file under "<workload>/trace<T>":

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload fuzz --seeds 11-20 --out BENCH_3.json

A pair is won when the change's value is better in the direction
BENCHMARK.json gives the metric; ties count for neither side. Each metric's
`claim_met` says whether a gain on it could be claimed: the change won at
least nine tenths of the pairs, and its median is better than the parent's
by more than the parent's interquartile range. Its `rel_change` is the
change's median over the parent's, less 1 (None when the parent's median
is 0). The summary also totals each side's failed and attempted operations
("runs"). After writing the file the script prints each metric's
`rel_change`, wins/pairs and `claim_met` to stderr, one line per metric,
and exits 1 if any run was not correct.

Each side runs with its own fresh bytecode cache (PYTHONPYCACHEPREFIX, a new
temporary directory per side per invocation, inherited by the CLI processes
the benchmark starts), written even under PYTHONDONTWRITEBYTECODE. So both
sides compile once and then reuse their cache, and a `__pycache__` left in
either checkout is never read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_side(root: Path, workload: str, seed: int, trace: int, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {root} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    meta = next(json.loads(line[len("meta: "):]) for line in proc.stdout.splitlines()
                if line.startswith("meta: "))
    result = json.loads(proc.stdout.rstrip("\n").rpartition("\n")[2])
    return {"commit": meta["commit"], "src_sha256": meta["src_sha256"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def seed_range(text: str) -> range:
    """LO-HI (or one seed) as the seeds LO..HI; argparse reports a bad one."""
    lo, dash, hi = text.partition("-")
    try:
        seeds = range(int(lo), int(hi if dash else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO-HI, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for metric in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][metric] for p in pairs]
        change = [p["change"]["metrics"][metric] for p in pairs]
        sign = 1 if better.get(metric, "lower") == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        gain = sign * (p_q["median"] - c_q["median"])
        out[metric] = {"parent": p_q, "change": c_q, "change_wins": wins,
                       "pairs": len(pairs),
                       "claim_met": 10 * wins >= 9 * len(pairs)
                       and gain > p_q["q3"] - p_q["q1"],
                       "rel_change": c_q["median"] / p_q["median"] - 1
                       if p_q["median"] else None}
    out["runs"] = {side: {key: sum(p[side][key] for p in pairs)
                          for key in ("failed", "attempted")}
                   for side in ("parent", "change")}
    return out


def summary_lines(key: str, summary: dict) -> list[str]:
    """One line per metric of a summary: its relative change of the medians,
    the pairs the change won and whether a gain on it could be claimed."""
    lines = []
    for metric, s in summary.items():
        if metric == "runs":
            continue
        rel = "n/a" if s["rel_change"] is None else f"{s['rel_change']:+.2%}"
        lines.append(f"{key} {metric}: rel_change={rel} "
                     f"wins={s['change_wins']}/{s['pairs']} claim_met={s['claim_met']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", choices=("sweep", "fuzz", "maximize"), required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="LO-HI")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    better = {m["name"]: m["better"] for m in spec[kind]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    with tempfile.TemporaryDirectory() as parent_cache, \
            tempfile.TemporaryDirectory() as change_cache:
        envs = {}
        for side, cache in (("parent", parent_cache), ("change", change_cache)):
            envs[side] = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
            envs[side].pop("PYTHONDONTWRITEBYTECODE", None)
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], args.workload, seed, args.trace,
                                      envs[side])
            pairs.append(pair)
            print(f"{args.workload} seed {seed}: " + ", ".join(
                f"{side} wall_s={pair[side]['metrics'].get('wall_s')}" for side in sides),
                file=sys.stderr)

    key, summary = f"{args.workload}/trace{args.trace}", summarize(pairs, better)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[key] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--trace {args.trace}",
        "seeds": list(args.seeds), "pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in summary_lines(key, summary):
        print(line, file=sys.stderr)
    wrong = [f"{side} seed {p['seed']}" for p in pairs for side in sides
             if not p[side]["correct"]]
    if wrong:
        print("bench_pairs: not correct: " + ", ".join(wrong), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
