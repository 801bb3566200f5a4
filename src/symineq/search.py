"""Float-side exploration of the main bound.

Two harnesses live here: seeded randomized fuzzing, where every candidate is
evaluated through the exact checker (floats never decide a verdict), and
ratio maximization over the unit simplex, which demonstrates tightness by
ascending the (float) ratio of the two sides toward the uniform point and
then re-certifying the final iterate exactly.

This is the only module that touches floating point. The float objective
shares `elementary_symmetric` with the exact checkers and has the prefix
kernel `subset_prefixes` to itself (`symineq.symfun`); the ascent works on
plain lists. Bad arguments to either harness raise `InputError`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from symineq.exact import InputError, PositiveVector, make_vector, render_scalar
from symineq.inequality import Statement, Violation, check_main, lhs_main, rhs_main
from symineq.symfun import elementary_symmetric, subset_prefixes

# Coordinates never drop below this during projection: the bound's domain is
# strictly positive vectors, and float subset sums must stay away from 0.
SIMPLEX_FLOOR = 1e-9

KPolicy = Union[int, str]  # a single k, "all", or "interior" (boundary excluded)


def ratio(v: PositiveVector, k: int) -> Fraction:
    """lhs/rhs of the main bound, exact. Lies in (0, 1]; scale-invariant."""
    return lhs_main(v, k) / rhs_main(v, k)


# --------------------------------------------------------------------------
# Fuzzing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """A named, seed-deterministic input distribution.

    integers     entries are uniform integers in 1..bound
    rationals    entries are p/q with p, q uniform in 1..bound
    near-uniform entries are 1 + d*epsilon with offsets d in {-1, 0, +1},
                 resampled if all offsets coincide (which would give a
                 uniform vector); a single-entry vector stays at 1
    """

    kind: str
    bound: int = 100
    epsilon: Fraction = Fraction(1, 1000)

    def __post_init__(self):
        if self.kind not in ("integers", "rationals", "near-uniform"):
            raise InputError(f"unknown distribution {self.kind!r}")
        if self.bound < 1:
            raise InputError("bound must be >= 1")
        if not 0 < self.epsilon < 1:
            raise InputError("epsilon must lie in (0, 1)")

    def describe(self) -> str:
        if self.kind == "integers":
            return f"integers(1..{self.bound})"
        if self.kind == "rationals":
            return f"rationals(p/q, p,q in 1..{self.bound})"
        return f"near-uniform(eps={render_scalar(self.epsilon)})"

    def sample(self, rng: random.Random, n: int) -> PositiveVector:
        if self.kind == "integers":
            return make_vector([Fraction(rng.randint(1, self.bound)) for _ in range(n)])
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


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    checks: int
    violations: int
    min_slack: Fraction
    witness: tuple[Fraction, ...]
    witness_k: int
    seed: int
    distribution: str
    n_range: tuple[int, int]
    k_policy: str


def fuzz(n_range: tuple[int, int], k_policy: KPolicy, trials: int,
         distribution: Distribution, seed: int) -> FuzzReport:
    """Run seeded random trials through the exact main-bound checker.

    Each trial draws n uniformly from the sub-range of n_range that admits
    the k policy, samples one vector, and checks every selected k. The
    minimum slack and its witness are tracked with a deterministic
    tie-break (slack, then witness entries lexicographically, then k), so
    identical seeds reproduce the report bit for bit. A violation would
    surface as a negative min_slack with its exact witness attached.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise InputError(f"bad n range {lo}..{hi}; need 1 <= LO <= HI")
    if trials < 1:
        raise InputError("trials must be >= 1")
    if isinstance(k_policy, int):
        if k_policy < 1:
            raise InputError("k must be >= 1")
        lo = max(lo, k_policy)
    elif k_policy == "interior":
        lo = max(lo, 3)
    elif k_policy != "all":
        raise InputError(f"unknown k policy {k_policy!r}")
    if lo > hi:
        raise InputError(f"no n in {n_range[0]}..{hi} admits k={k_policy}")

    rng = random.Random(seed)
    checks = 0
    violations = 0
    best: Optional[tuple[Fraction, tuple[Fraction, ...], int]] = None

    for _ in range(trials):
        n = rng.randint(lo, hi)
        v = distribution.sample(rng, n)
        if isinstance(k_policy, int):
            ks: Sequence[int] = (k_policy,)
        elif k_policy == "all":
            ks = range(1, n + 1)
        else:
            ks = range(2, n)
        for k in ks:
            checks += 1
            try:
                slack = check_main(v, k).slack
            except Violation as exc:
                violations += 1
                slack = exc.rhs - exc.lhs
            candidate = (slack, v.entries, k)
            if best is None or candidate < best:
                best = candidate

    assert best is not None  # trials >= 1 and every trial checks >= 1 k
    return FuzzReport(
        trials=trials, checks=checks, violations=violations,
        min_slack=best[0], witness=best[1], witness_k=best[2],
        seed=seed, distribution=distribution.describe(),
        n_range=n_range, k_policy=str(k_policy),
    )


# --------------------------------------------------------------------------
# Ratio maximization on the simplex
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    n: int
    k: int
    max_iterations: int = 1000
    step_size: float = 0.25
    convergence_tolerance: float = 1e-10
    seed: int = 0
    start: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class SearchResult:
    argmax: tuple[float, ...]
    ratio: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    exact_ratio: Fraction


def ratio_float(x: Sequence[float], k: int) -> float:
    """The float objective: lhs/rhs of the main bound at a positive point.

    The lhs terms are added one by one in lexicographic subset order, not
    by sum(), which compensates float sums from Python 3.12 on: that order
    is what the seeded ascent's output bytes depend on.
    """
    products, sums, starts = subset_prefixes(x, k)
    lhs = 0.0
    for p, t, s in zip(products, sums, starts):
        for a in x[s:]:
            lhs += p * a / (t + a)
    rhs = (len(x) / k) * elementary_symmetric(x, k) / sum(x)
    return lhs / rhs


def project_simplex(x: Sequence[float], floor: float = SIMPLEX_FLOOR) -> list[float]:
    """Euclidean projection onto {y : y_i >= floor, sum(y) = 1}.

    Sort-based exact projection of the floor-shifted point onto the scaled
    simplex of mass 1 - n*floor (Duchi et al., ICML 2008): theta comes from
    the last j, in descending order, with u_j + (mass - css_j)/j > 0.
    """
    mass = 1.0 - len(x) * floor
    z = [xi - floor for xi in x]
    # j = 1 always qualifies in exact arithmetic; rounding loses it only on
    # non-finite or huge entries, where NaN marks the result unusable (the
    # ascent rejects a NaN objective and halves its step).
    theta = math.nan
    css = 0.0
    for j, u in enumerate(sorted(z, reverse=True), start=1):
        css += u
        if u + (mass - css) / j > 0:
            theta = (mass - css) / j
    return [max(zi + theta, 0.0) + floor for zi in z]


def finite_difference_gradient(x: Sequence[float], k: int, h: float = 1e-6) -> list[float]:
    """Central finite-difference gradient of ratio_float at x."""
    g = []
    for i, xi in enumerate(x):
        hi = min(h, 0.5 * xi)  # keep the perturbed point positive
        xp = list(x)
        xp[i] = xi + hi
        xm = list(x)
        xm[i] = xi - hi
        g.append((ratio_float(xp, k) - ratio_float(xm, k)) / (2.0 * hi))
    return g


def maximize_ratio(config: SearchConfig) -> SearchResult:
    """Projected gradient ascent of the ratio over the unit simplex.

    Finite-difference gradients are projected onto the sum-zero tangent
    space; steps use backtracking that only ever accepts improvements, so
    the recorded trace is nondecreasing. Convergence means the projected
    gradient fell below the tolerance or no float-resolvable ascent step
    remains. The final point is rationalized coordinate-by-coordinate
    (exact binary value of each float) and re-certified exactly; an exact
    ratio above 1 would falsify the bound and raises Violation.
    """
    n, k = config.n, config.k
    if not 1 < k < n:
        raise InputError(f"maximization needs 1 < k < n, got k={k} n={n}")
    if not all(math.isfinite(t) and t > 0
               for t in (config.step_size, config.convergence_tolerance)):
        raise InputError("step_size and convergence_tolerance must be finite and positive")
    if config.max_iterations < 1:
        raise InputError("max_iterations must be >= 1")

    if config.start is not None:
        if len(config.start) != n:
            raise InputError(f"start point has length {len(config.start)}, expected {n}")
        if any(not xi > 0 for xi in config.start):
            raise InputError("start point must be strictly positive")
        x = project_simplex(config.start)
    else:
        rng = random.Random(config.seed)
        raw = [0.1 + 0.9 * rng.random() for _ in range(n)]
        total = sum(raw)
        x = project_simplex([r / total for r in raw])

    f = ratio_float(x, k)
    trace = [f]
    iterations = 0
    converged = False

    for _ in range(config.max_iterations):
        g = finite_difference_gradient(x, k)
        mean = sum(g) / n
        g = [gi - mean for gi in g]
        norm = math.sqrt(sum(gi * gi for gi in g))
        if norm <= config.convergence_tolerance:
            converged = True
            break
        step = config.step_size
        accepted = False
        while step * norm > 1e-18:  # halve until the move is below float resolution
            candidate = project_simplex([xi + step * gi for xi, gi in zip(x, g)])
            fc = ratio_float(candidate, k)
            if fc > f:
                x, f = candidate, fc
                trace.append(f)
                iterations += 1
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break

    exact_point = make_vector([Fraction(xi) for xi in x])
    exact_lhs = lhs_main(exact_point, k)
    exact_rhs = rhs_main(exact_point, k)
    if exact_lhs > exact_rhs:
        raise Violation(Statement.MAIN_THEOREM, exact_point, k, exact_lhs, exact_rhs)

    return SearchResult(
        argmax=tuple(x),
        ratio=f,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
        exact_ratio=exact_lhs / exact_rhs,
    )
