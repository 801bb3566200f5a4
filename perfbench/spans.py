"""In-memory spans around the public functions of each symineq module.

Callers inside the package bind functions with `from ... import`, so a
function is wrapped in every symineq module namespace that holds it, which
is where its callers look it up. Each span records its name, its parent
span, start and end; self time is a span's duration minus its children's.
Counters (subsets visited, bit and digit sizes) are taken at the same
boundaries, from the arguments and results.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from math import comb
from pathlib import Path


def _lhs_note(c, args, result):
    v, k = args
    c["inequality.lhs_main.subsets"] += comb(len(v), k)
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    c["inequality.lhs_main.max_bits"] = max(c["inequality.lhs_main.max_bits"], bits)


def _identity_note(c, args, result):
    v, k = args
    n = len(v)
    c["inequality.proof_identity.subsets"] += comb(n, k) + (k + 1) * comb(n, k + 1)


def _render_note(c, args, result):
    digits = max(len(part.lstrip("-")) for part in result.split("/"))
    c["exact.render_scalar.max_digits"] = max(c["exact.render_scalar.max_digits"], digits)


def _fuzz_note(c, args, result):
    c["search.fuzz.checks"] += result.checks


def _maximize_note(c, args, result):
    c["search.maximize.iterations"] += result.iterations


# (module, function, span name, counter hook). Span names are the layer
# metric prefixes; two functions may share one (the lemmas, the identity).
TARGETS = [
    ("symineq.exact", "parse_scalar", "exact.parse_scalar", None),
    ("symineq.exact", "make_vector", "exact.make_vector", None),
    ("symineq.exact", "render_scalar", "exact.render_scalar", _render_note),
    ("symineq.symfun", "elementary_symmetric", "symfun.elementary_symmetric", None),
    ("symineq.inequality", "lhs_main", "inequality.lhs_main", _lhs_note),
    ("symineq.inequality", "rhs_main", "inequality.rhs_main", None),
    ("symineq.inequality", "check_main", "inequality.check_main", None),
    ("symineq.inequality", "proof_identity", "inequality.proof_identity", _identity_note),
    ("symineq.inequality", "check_proof_identity", "inequality.proof_identity", None),
    ("symineq.inequality", "check_reciprocal_lemma", "inequality.lemmas", None),
    ("symineq.inequality", "check_pairwise_lemma", "inequality.lemmas", None),
    ("symineq.inequality", "report_to_record", "inequality.report_to_record", None),
    ("symineq.search", "fuzz", "search.fuzz", _fuzz_note),
    ("symineq.search", "ratio_float", "search.ratio_float", None),
    ("symineq.search", "finite_difference_gradient", "search.gradient", None),
    ("symineq.search", "project_simplex", "search.project_simplex", None),
    ("symineq.search", "maximize_ratio", "search.maximize", _maximize_note),
    ("symineq.cli", "main", "cli.main", None),
]

# Calls are counted on one function per layer metric, not on its wrappers.
CALLS = {
    "exact.parse_scalar": "parse_scalar",
    "exact.make_vector": "make_vector",
    "exact.render_scalar": "render_scalar",
    "symfun.elementary_symmetric": "elementary_symmetric",
    "inequality.lhs_main": "lhs_main",
    "inequality.proof_identity": "proof_identity",
    "search.ratio_float": "ratio_float",
    "search.project_simplex": "project_simplex",
}
WAITING = ("inequality.check_main", "search.fuzz", "cli.main")
# Counters that are maxima over the run; every other summary value is a total.
MAXIMA = ("exact.render_scalar.max_digits", "inequality.lhs_main.max_bits")
RECERT_PARENT = "search.maximize"
RECERT_CHILDREN = ("inequality.lhs_main", "inequality.rhs_main")


class Tracer:
    """Wraps the TARGETS while installed; spans live in flat lists."""

    def __init__(self):
        self.names: list[str] = []
        self.funcs: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, func_name, fn, note):
        names, funcs, parents = self.names, self.funcs, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        counters, clock = self.counters, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            funcs.append(func_name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                note(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "symineq" or key.startswith("symineq.")]
        for module_name, func_name, name, note in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(name, func_name, original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Totals over all spans: self time, waiting on children, calls, counters."""
        count = len(self.starts)
        child = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: defaultdict[str, float] = defaultdict(float)
        layers = {name for _, _, name, _ in TARGETS}
        for name in layers:
            out[f"{name}.self_s"] = 0.0
        for name in WAITING:
            out[f"{name}.children_s"] = 0.0
        for name in CALLS:
            out[f"{name}.calls"] = 0
        out["search.recert_s"] = 0.0
        for i in range(count):
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            out[f"{name}.self_s"] += duration - child[i]
            if name in WAITING:
                out[f"{name}.children_s"] += child[i]
            if CALLS.get(name) == self.funcs[i]:
                out[f"{name}.calls"] += 1
            parent = self.parents[i]
            if name in RECERT_CHILDREN and parent >= 0 and self.names[parent] == RECERT_PARENT:
                out["search.recert_s"] += duration
        for key in ("exact.render_scalar.max_digits", "inequality.lhs_main.subsets",
                    "inequality.lhs_main.max_bits", "inequality.proof_identity.subsets",
                    "search.fuzz.checks", "search.maximize.iterations"):
            out[key] = self.counters[key]
        out["attributed_s"] = sum(out[f"{name}.self_s"] for name in layers)
        return dict(out)

    def write(self, path: Path, meta: dict) -> None:
        """Spans as gzip'd TSV, one per line, after a JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# " + json.dumps({"meta": meta, "counters": dict(self.counters)}) + "\n")
            fh.write("span\tparent\tname\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.names[i]}\t{self.funcs[i]}"
                         f"\t{self.starts[i]!r}\t{self.ends[i]!r}\n")
