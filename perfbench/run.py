"""Benchmark of symineq: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src, never from
an installed copy:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke       # every workload tiny, every metric present
    python3 perfbench/run.py --self-test   # the correctness gates count bad outputs
    python3 perfbench/run.py --record      # re-record expected digests from ./src

With `--trace 0` a run reports the end-to-end metrics of BENCHMARK.json:
set-up is timed in fresh interpreters, then the workload runs untraced for
`--seconds`, pinned to one CPU. Its times are in reference seconds, which
cancel the host's swings in speed (host.py). With `--trace 1` it reports the
per-layer metrics instead: the workload runs in process untraced for half of
`--seconds`, then the same passes again with every public function wrapped
in a span (spans.py). The spans are written to perfbench/out/. Per-layer
times are wall seconds, and they and the counts are per pass; `*.max_*` are
maxima over the run. The last line of stdout is the result as JSON; the
lines above it give the environment and a table of every metric with its
unit and sample count. layers.json states which end-to-end metric each
layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYERS_PATH = BENCH_DIR / "layers.json"

SETUP_REPEATS = 9  # set-up probes per run, after one warm-up probe
STARTUP_REPEATS = 3

SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')")


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for 'end_to_end' and 'per_layer'."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "symineq").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": commit, "src_sha256": tree.hexdigest()[:16]}


# --------------------------------------------------------------------------
# Measuring
# --------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.op_times: list[float] = []
        self.pass_times: list[float] = []
        self.checks = 0
        self.failed = 0
        self.rss_kb: list[int] = []
        self.stdout_bytes = 0


def measure(wl, seconds: float, passes: int | None = None,
            ref: host.HostReference | None = None) -> Tally:
    """Run whole passes in a closed loop: `passes` of them, or else as many as
    end nearest to `seconds` (at least one). With a host.HostReference, CLI
    operations run in child processes and every time is in reference seconds;
    without, everything runs in this process and times are wall seconds."""
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while (index < passes if passes is not None else index == 0 or
           time.perf_counter() - start + tally.pass_times[-1] / 2 < seconds):
        slot = index % len(wl.passes)
        results, op_times = [], []
        for op in wl.passes[slot]:
            op_start = time.perf_counter()
            result = wl.run_op(op, ref)
            elapsed = time.perf_counter() - op_start
            if result.seconds is not None:
                elapsed = result.seconds
            elif ref:
                elapsed *= ref.scale()
            results.append(result)
            op_times.append(elapsed)
        tally.pass_times.append(sum(op_times))
        tally.op_times += op_times
        failed = wl.failed(slot, results)
        if failed and not tally.failed:
            bad = next((r for r in results if not r.ok), results[0])
            print(f"perfbench: {wl.name} pass {slot} failed:\n{bad.output[-2000:]}",
                  file=sys.stderr)
        tally.failed += failed
        tally.checks += sum(r.checks for r in results)
        tally.rss_kb += [r.rss_kb for r in results]
        if wl.via_cli:
            tally.stdout_bytes += sum(len(r.output.encode()) for r in results)
        index += 1
    return tally


def timed_process(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workloads, name: str, seed: int, seconds: float, tiny: bool):
    """Set-up in fresh interpreters, then the workload untraced."""
    env = workloads.cli_env()
    probe = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), name,
             str(seed), "1" if tiny else "0"]
    host.pin_to_one_cpu()
    ref = host.HostReference()
    setup = []
    for _ in range(1 + SETUP_REPEATS):
        code, out, _, probe_s = ref.run(probe, ROOT, env)
        if code != 0:
            fail(f"set-up failed:\n{out.decode(errors='replace')[-2000:]}")
        setup.append(probe_s)
    del setup[0]  # the first probe writes bytecode and warms the file cache
    wl = workloads.build(name, seed, tiny)
    tally = measure(wl, seconds, ref=ref)
    if wl.via_cli:
        rss_kb, processes = max(tally.rss_kb), len(tally.rss_kb)
    else:
        rss_kb, processes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1
    ops, busy = tally.op_times, sum(tally.op_times)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(tally.pass_times), len(tally.pass_times)),
        "op_p50_s": (statistics.median(ops), len(ops)),
        "op_p99_s": (percentile(ops, 99), len(ops)),
        "checks_per_s": (tally.checks / busy, tally.checks),
        "peak_rss_mb": (rss_kb / 1024, processes),
    }
    print(f"host: reference kernel median {statistics.median(ref.samples) * 1e3:.3f} ms "
          f"over {len(ref.samples)} runs; REF_S is {host.REF_S * 1e3:.3f} ms")
    return metrics, len(tally.op_times), tally.failed


def startup(workloads, repeats: int) -> dict[str, tuple[float, int]]:
    """Interpreter start, and symineq and numpy import times from -X importtime."""
    env = workloads.cli_env()
    interpreter = [timed_process([sys.executable, "-c", "pass"], env)
                   for _ in range(repeats)]
    imports, numpy_imports = [], []
    for _ in range(repeats):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symineq"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+[0-9]+ \|\s+([0-9]+) \|\s*(\S+)$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
        imports.append(cumulative["symineq"])
        numpy_imports.append(cumulative.get("numpy", 0.0))
    return {"startup.interpreter_s": (statistics.median(interpreter), repeats),
            "startup.import_s": (statistics.median(imports), repeats),
            "startup.numpy_import_s": (statistics.median(numpy_imports), repeats)}


def per_layer(workloads, name: str, seed: int, seconds: float, tiny: bool, meta: dict):
    """Untraced then traced runs of the same passes, both in process."""
    import spans

    metrics = startup(workloads, 1 if tiny else STARTUP_REPEATS)
    wl = workloads.build(name, seed, tiny)
    base = measure(wl, seconds / 2)
    passes = len(base.pass_times)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure(wl, 0, passes=passes)
    finally:
        tracer.uninstall()
    totals = tracer.summary()
    traced_wall = sum(traced.pass_times)
    attributed = totals.pop("attributed_s")
    for key, value in totals.items():
        metrics[key] = (value if key in spans.MAXIMA else value / passes, passes)
    metrics["cli.stdout_bytes"] = (traced.stdout_bytes / passes, passes)
    metrics["trace.overhead_s"] = ((traced_wall - sum(base.pass_times)) / passes, passes)
    metrics["trace.unattributed_s"] = ((traced_wall - attributed) / passes, passes)
    metrics["trace.attributed_pct"] = (100 * attributed / traced_wall, passes)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz", meta)
    attempted = len(base.op_times) + len(traced.op_times)
    return metrics, attempted, base.failed + traced.failed


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def run_one(workloads, name: str, seed: int, seconds: float, trace: int, tiny: bool) -> None:
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    meta = environment(name, seed, seconds, trace)
    print("meta: " + json.dumps(meta))
    if trace:
        metrics, attempted, failed = per_layer(workloads, name, seed, seconds, tiny, meta)
    else:
        metrics, attempted, failed = end_to_end(workloads, name, seed, seconds, tiny)
    if set(metrics) != set(spec):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(spec) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(spec))}")
    width = max(map(len, spec))
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<8} samples")
    for key in spec:
        value, samples = metrics[key]
        print(f"{key:<{width}}  {value:>14.6g}  {spec[key]:<8} {samples}")
    print(f"{'fail_rate':<{width}}  {failed / attempted:>14.6g}  {'ratio':<8} {attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key][0], "unit": spec[key]} for key in spec},
    }))


def run_child(argv: list[str]) -> tuple[int, str, dict | None]:
    """Run this script in a fresh process; return its exit code, stdout and result."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout, result


def run_all(workloads, seed: int, seconds: float, trace: int) -> int:
    results = {}
    for name in workloads.NAMES:
        code, out, result = run_child(["--workload", name, "--seed", str(seed),
                                       "--seconds", str(seconds), "--trace", str(trace)])
        print(out.rstrip("\n").rpartition("\n")[0] if result else out, flush=True)
        if code != 0 or result is None:
            fail(f"workload {name} exited with {code}")
        results[name] = result
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"results-seed{seed}-trace{trace}.json"
    meta = environment("all", seed, seconds, trace)
    path.write_text(json.dumps({"meta": meta, "results": results}, indent=1) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def smoke(workloads) -> int:
    """Every workload at a tiny size, traced and not: all metrics, right units."""
    spec = load_spec()
    with open(LAYERS_PATH, encoding="utf-8") as fh:
        layers = json.load(fh)
    predicted = [m for group in layers.values() for m in group["metrics"]]
    ok = sorted(predicted) == sorted(spec["per_layer"])
    print(f"{'PASS' if ok else 'FAIL'} layers.json predicts every per-layer metric once")
    for name in workloads.NAMES:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            code, out, result = run_child(["--workload", name, "--seed", "0",
                                           "--seconds", "0", "--trace", str(trace), "--tiny"])
            units = {k: m["unit"] for k, m in result["metrics"].items()} if result else {}
            good = code == 0 and result is not None and result["correct"] and units == spec[kind]
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {name} trace={trace}: "
                  f"{len(units)}/{len(spec[kind])} metrics with units")
            if not good:
                print(out)
    return 0 if ok else 1


def self_test(workloads) -> int:
    """A corrupted expected digest and an out-of-tolerance maximize raise fail_rate."""
    expected = workloads.load_expected()
    ref = host.HostReference()
    checks = []
    for name in ("sweep", "fuzz"):
        wl = workloads.build(name, 0, tiny=True, expected=expected)
        clean = measure(wl, 0, passes=1, ref=ref)
        corrupted = {**expected, name: {key: "0" * 16 for key in expected[name]}}
        wl = workloads.build(name, 0, tiny=True, expected=corrupted)
        bad = measure(wl, 0, passes=1, ref=ref)
        checks.append((f"{name}: recorded digests pass", clean.failed == 0))
        checks.append((f"{name}: corrupted digest fails every op",
                       bad.failed == len(bad.op_times) > 0))
    wl = workloads.build("maximize", 0, tiny=True, expected=expected)
    clean = measure(wl, 0, passes=1, ref=ref)
    checks.append(("maximize: converged result passes", clean.failed == 0))
    wl.passes = [[("maximize", "--n", "6", "--k", "3", "--seed", "1", "--max-iter", "1")]]
    bad = measure(wl, 0, passes=1, ref=ref)
    checks.append(("maximize: unconverged result fails", bad.failed == 1))
    off = ("converged: true\nratio: 1.0\nexact ratio <= 1: true\n"
           "argmax: (0.2502, 0.2498, 0.25, 0.25)\n")
    checks.append(("maximize: argmax 2e-4 off 1/n fails", not workloads.maximize_ok(off)))
    short = "converged: true\nratio: 0.999999\nexact ratio <= 1: true\nargmax: (0.5, 0.5)\n"
    checks.append(("maximize: ratio below 1 - 1e-9 fails", not workloads.maximize_ok(short)))
    for label, good in checks:
        print(f"{'PASS' if good else 'FAIL'} {label}")
    return 0 if all(good for _, good in checks) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "fuzz", "maximize", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="run every workload at a tiny size and check every metric")
    mode.add_argument("--self-test", action="store_true",
                      help="check that the correctness gates count bad outputs")
    mode.add_argument("--record", action="store_true",
                      help="re-record the expected digests from ./src")
    args = parser.parse_args()

    if not (SRC / "symineq" / "__init__.py").is_file():
        fail(f"no symineq package under {SRC}")
    if not SPEC_PATH.is_file():
        fail(f"missing {SPEC_PATH}")
    sys.path.insert(0, str(SRC))
    import symineq

    if Path(symineq.__file__).resolve().parent != (SRC / "symineq").resolve():
        fail(f"symineq imported from {symineq.__file__}, not from {SRC}")
    import workloads

    if args.record:
        workloads.EXPECTED_PATH.write_text(json.dumps(workloads.record(), indent=1,
                                                      sort_keys=True) + "\n")
        print(f"recorded {workloads.EXPECTED_PATH.relative_to(ROOT)}")
        return 0
    if args.smoke:
        return smoke(workloads)
    if args.self_test:
        return self_test(workloads)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(workloads, args.seed, args.seconds, args.trace)
    run_one(workloads, args.workload, args.seed, args.seconds, args.trace, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
