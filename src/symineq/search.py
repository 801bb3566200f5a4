"""Float-side exploration of the main bound.

- `fuzz`: seeded random trials of the main bound over a `Distribution`.
- `maximize_ratio`: projected gradient ascent of the float ratio lhs/rhs
  over the unit simplex toward the uniform point, its final point
  re-certified exactly.
- `ratio_float`, `finite_difference_gradient`, `project_simplex` and
  `left_sum`: the ascent's objective, gradient, projection and float sums.

A float decides nothing here: every violation, fuzz's reported minimum and
maximize's verdict are exact, and seeded runs are byte-identical. Both
harnesses take their settings as plain arguments and return only what they
computed, as named tuples (`FuzzReport`, `SearchResult`); describing a
run's inputs is the caller's job. Bad arguments raise `InputError`.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from collections import deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from symineq.exact import InputError, PositiveVector, make_vector, render_scalar
from symineq.inequality import lhs_main, main_slack_exceeds, main_verdict, rhs_main
from symineq.symfun import moved_terms, subset_terms, symmetric_row

# Coordinates never drop below this during projection: the bound's domain is
# strictly positive vectors, and float subset sums must stay away from 0.
SIMPLEX_FLOOR = 1e-9
GRADIENT_STEP = 1e-6  # the central-difference step of the ascent's gradient

KPolicy = Union[int, str]  # a single k, "all", or "interior" (boundary excluded)


# --------------------------------------------------------------------------
# Fuzzing
# --------------------------------------------------------------------------

class Distribution(namedtuple("Distribution", "kind bound epsilon")):
    """A named, seed-deterministic input distribution.

    integers     entries are uniform integers in 1..bound
    rationals    entries are p/q with p, q uniform in 1..bound
    near-uniform entries are 1 + d*epsilon with offsets d in {-1, 0, +1},
                 resampled if all offsets coincide (which would give a
                 uniform vector); a single-entry vector stays at 1
    """

    __slots__ = ()

    def __new__(cls, kind: str, bound: int = 100, epsilon: Fraction = Fraction(1, 1000)):
        if kind not in ("integers", "rationals", "near-uniform"):
            raise InputError(f"unknown distribution {kind!r}; expected integers, rationals"
                             " or near-uniform")
        if bound < 1:
            raise InputError("bound must be >= 1")
        if not 0 < epsilon < 1:
            raise InputError("epsilon must lie in (0, 1)")
        return super().__new__(cls, kind, bound, epsilon)

    def describe(self) -> str:
        if self.kind == "integers":
            return f"integers(1..{self.bound})"
        if self.kind == "rationals":
            return f"rationals(p/q, p,q in 1..{self.bound})"
        return f"near-uniform(eps={render_scalar(self.epsilon)})"

    def sample(self, rng: random.Random, n: int) -> PositiveVector:
        if self.kind == "integers":
            return make_vector([rng.randint(1, self.bound) for _ in range(n)])
        if self.kind == "rationals":
            return make_vector(
                [Fraction(rng.randint(1, self.bound), rng.randint(1, self.bound))
                 for _ in range(n)]
            )
        if n == 1:
            return make_vector([Fraction(1)])
        while True:
            offsets = [rng.randint(-1, 1) for _ in range(n)]
            if any(d != offsets[0] for d in offsets):
                return make_vector([1 + d * self.epsilon for d in offsets])


class FuzzReport(NamedTuple):
    """What a fuzz run found; its inputs are the caller's to report."""

    checks: int
    violations: int
    min_slack: Fraction
    witness: tuple[Fraction, ...]
    witness_k: int


def fuzz(n_range: tuple[int, int], k_policy: KPolicy, trials: int,
         distribution: Distribution, seed: int) -> FuzzReport:
    """Run seeded random trials of the main bound, every verdict exact.

    Each trial draws n uniformly from the sub-range of n_range that admits
    the k policy, samples one vector, and checks every selected k. The
    first check of the run, and each check whose slack `main_slack_exceeds`
    cannot prove above the minimum slack so far, is reduced to
    rhs_main - lhs_main. That proof tries one subset's exact certificate
    term, then, after a positive term that falls short, the floored row sum,
    also exact, which needs a subset-sum pass. Any other check can neither
    be a violation nor replace the minimum, and it is only counted. The
    minimum slack and its witness are tracked with a deterministic tie-break
    (slack, then witness entries lexicographically, then k), so identical
    seeds reproduce the report bit for bit. A negative slack counts as a
    violation and the run goes on, so a violation surfaces as a negative
    min_slack with its exact witness attached.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise InputError(f"bad n range {lo}..{hi}; need 1 <= LO <= HI")
    if trials < 1:
        raise InputError("trials must be >= 1")
    # the smallest admissible n, and the ks to check at each n
    if isinstance(k_policy, int):
        if k_policy < 1:
            raise InputError("k must be >= 1")
        lo, ks_at = max(lo, k_policy), lambda n: (k_policy,)
    elif k_policy == "interior":
        lo, ks_at = max(lo, 3), lambda n: range(2, n)
    elif k_policy == "all":
        ks_at = lambda n: range(1, n + 1)
    else:
        raise InputError(f"unknown k policy {k_policy!r}")
    if lo > hi:
        raise InputError(f"no n in {n_range[0]}..{hi} admits k={k_policy}")

    rng = random.Random(seed)
    checks = 0
    violations = 0
    best: Optional[tuple[Fraction, PositiveVector, int]] = None

    for _ in range(trials):
        n = rng.randint(lo, hi)
        v = distribution.sample(rng, n)
        for k in ks_at(n):
            checks += 1
            # a slack proved above the minimum is neither a violation nor a
            # new minimum, so it is never reduced
            if best is not None and main_slack_exceeds(v, k, best[0]):
                continue
            slack = rhs_main(v, k) - lhs_main(v, k)
            if slack < 0:
                violations += 1
            candidate = (slack, v, k)
            if best is None or candidate < best:
                best = candidate

    assert best is not None  # trials >= 1 and every trial checks >= 1 k
    return FuzzReport(checks=checks, violations=violations,
                      min_slack=best[0], witness=tuple(best[1]), witness_k=best[2])


# --------------------------------------------------------------------------
# Ratio maximization on the simplex
# --------------------------------------------------------------------------

class SearchResult(NamedTuple):
    argmax: tuple[float, ...]
    ratio: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]


def left_sum(xs: Iterable[float]) -> float:
    """((0.0 + x_0) + x_1) + ...: the left fold of reduce(add, xs, 0.0), in C
    by `itertools.accumulate`.

    Every float sum of the ascent is this fold, never `sum()`, which
    compensates float sums from Python 3.12 on: the seeded ascent's output
    bytes depend on the order of every addition.
    """
    return deque(accumulate(xs, initial=0.0), maxlen=1)[0]


# One point: the gradient at the point ratio_float saw last reuses its terms.
@lru_cache(maxsize=1)
def _subset_terms_at(point: bytes, k: int) -> tuple[list, list]:
    """subset_terms of the floats whose exact bits are `point`."""
    return subset_terms(array("d", point).tolist(), k)


def ratio_float(x: Sequence[float], k: int) -> float:
    """The float objective: lhs/rhs of the main bound at a positive point.

    Its lhs terms are added one by one in lexicographic order; NaN as _ratio.
    """
    return _ratio(_subset_terms_at(array("d", x).tobytes(), k)[1], x, k)


def _ratio(terms: list, x: Sequence[float], k: int) -> float:
    """The left fold of x's k-subset terms over the float rhs of the main
    bound, (n/k) * e_k / e_1, with e_k and e_1 = sum(x) from one row; NaN
    where that rhs is subnormal or 0: it has lost the bits that would rank
    two points."""
    row = symmetric_row(x, k)
    rhs = (len(x) / k) * row[k] / row[1]
    return left_sum(terms) / rhs if rhs >= sys.float_info.min else math.nan


def project_simplex(x: Sequence[float]) -> list[float]:
    """Euclidean projection onto {y : y_i >= SIMPLEX_FLOOR, sum(y) = 1}.

    Sort-based exact projection of the floor-shifted point onto the scaled
    simplex of mass 1 - n*SIMPLEX_FLOOR (Duchi et al., ICML 2008): theta
    comes from the last j, in descending order, with u_j + (mass - css_j)/j > 0.
    """
    mass = 1.0 - len(x) * SIMPLEX_FLOOR
    z = [xi - SIMPLEX_FLOOR for xi in x]
    # j = 1 always qualifies in exact arithmetic; rounding loses it only on
    # non-finite or huge entries, where NaN marks the result unusable (the
    # ascent rejects a NaN objective and halves its step).
    theta = math.nan
    css = 0.0
    for j, u in enumerate(sorted(z, reverse=True), start=1):
        css += u
        if u + (mass - css) / j > 0:
            theta = (mass - css) / j
    return [max(zi + theta, 0.0) + SIMPLEX_FLOOR for zi in z]


def finite_difference_gradient(x: Sequence[float], k: int) -> list[float]:
    """Central finite-difference gradient of ratio_float at x.

    Each moved point recomputes only the terms of the k-subsets that hold
    x_i (`moved_terms`) and keeps x's other terms; `_ratio` then forms its
    ratio as ratio_float does. So each side is ratio_float's value, bit for
    bit.
    """
    levels, terms = _subset_terms_at(array("d", x).tobytes(), k)
    g = []
    for i, xi in enumerate(x):
        hi = min(GRADIENT_STEP, 0.5 * xi)  # keep the perturbed point positive
        xs, sides = list(x), []
        for xs[i] in (xi + hi, xi - hi):
            sides.append(_ratio(moved_terms(levels, terms, xs, i), xs, k))
        g.append((sides[0] - sides[1]) / (2.0 * hi))
    return g


def maximize_ratio(n: int, k: int, *, seed: int = 0, step_size: float = 0.25,
                   convergence_tolerance: float = 1e-10, max_iterations: int = 1000,
                   start: Optional[Sequence[float]] = None) -> SearchResult:
    """Projected gradient ascent of the ratio over the unit simplex.

    The start point is `start` projected onto the simplex, or, without
    one, a point drawn from `seed`.

    Finite-difference gradients are projected onto the sum-zero tangent
    space; steps use backtracking that only ever accepts improvements, so
    the recorded trace is nondecreasing. Convergence means the projected
    gradient fell below the tolerance or no float-resolvable ascent step
    remains. The final point is rationalized coordinate-by-coordinate
    (exact binary value of each float) and re-certified exactly by
    `main_verdict`, which proves the slack positive by one subset's term
    and reduces the sides only at a uniform point; an exact ratio above 1
    would falsify the bound and raises Violation.
    """
    if not 1 < k < n:
        raise InputError(f"maximization needs 1 < k < n, got k={k} n={n}")
    if not all(math.isfinite(t) and t > 0
               for t in (step_size, convergence_tolerance)):
        raise InputError("step_size and convergence_tolerance must be finite and positive")
    if max_iterations < 1:
        raise InputError("max_iterations must be >= 1")

    if start is not None:
        if len(start) != n:
            raise InputError(f"start point has length {len(start)}, expected {n}")
        if not all(math.isfinite(t) and t > 0 for t in (*start, left_sum(start))):
            raise InputError("start point and its sum must be finite and strictly positive")
        x = project_simplex(start)
    else:
        rng = random.Random(seed)
        raw = [0.1 + 0.9 * rng.random() for _ in range(n)]
        total = left_sum(raw)
        x = project_simplex([r / total for r in raw])

    f = ratio_float(x, k)
    if not f > 0:
        raise InputError(f"the float ratio underflows at the start point for n={n} k={k}")
    trace = [f]
    converged = False

    for _ in range(max_iterations):
        g = finite_difference_gradient(x, k)
        mean = left_sum(g) / n
        g = [gi - mean for gi in g]
        norm = math.sqrt(left_sum([gi * gi for gi in g]))
        if not math.isfinite(norm):  # no direction to climb; not convergence
            break
        if norm <= convergence_tolerance:
            converged = True
            break
        step = step_size
        while step * norm > 1e-18:  # halve until the move is below float resolution
            candidate = project_simplex([xi + step * gi for xi, gi in zip(x, g)])
            fc = ratio_float(candidate, k)
            if fc > f:
                x, f = candidate, fc
                trace.append(f)
                break
            step *= 0.5
        else:  # no step was accepted
            converged = True
            break

    main_verdict(make_vector([Fraction(xi) for xi in x]), k)

    return SearchResult(
        argmax=tuple(x),
        ratio=f,
        iterations=len(trace) - 1,
        converged=converged,
        trace=tuple(trace),
    )
