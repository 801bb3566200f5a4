import hashlib
import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from symineq.exact import InputError, make_vector
from symineq.inequality import Statement, Violation, lhs_main, main_verdict, rhs_main
from symineq.search import (
    GRADIENT_STEP,
    SIMPLEX_FLOOR,
    Distribution,
    finite_difference_gradient,
    fuzz,
    maximize_ratio,
    project_simplex,
    ratio_float,
)
from symineq.symfun import (
    _coordinate_plan,
    _prefix_plan,
    elementary_symmetric,
    moved_terms,
    subset_terms,
)

entry = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)
vectors = st.lists(entry, min_size=1, max_size=7).map(make_vector)


# ---- exact ratio ----

def ratio(v, k):
    # lhs/rhs of the main bound, exact
    return lhs_main(v, k) / rhs_main(v, k)


def exact_ratio(result, k):
    # the exact ratio at a maximize result's argmax, each float read exactly
    return ratio(make_vector([Fraction(x) for x in result.argmax]), k)


def test_ratio_worked_vector_frozen():
    assert ratio(make_vector([1, 2, 3]), 2) == Fraction(157, 165)


@given(vectors, st.data())
def test_ratio_in_unit_interval(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    r = ratio(v, k)
    assert 0 < r <= 1


@given(vectors, entry, st.data())
def test_ratio_scale_invariant(v, scale, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    scaled = make_vector([scale * a for a in v])
    assert ratio(scaled, k) == ratio(v, k)


@given(st.tuples(st.integers(min_value=1, max_value=7), entry), st.data())
def test_ratio_is_one_exactly_at_uniform(t, data):
    n, c = t
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert ratio(make_vector([c] * n), k) == 1


# ---- distributions ----

def test_distribution_describe_strings_frozen():
    assert Distribution("integers", bound=100).describe() == "integers(1..100)"
    assert Distribution("rationals", bound=7).describe() == "rationals(p/q, p,q in 1..7)"
    assert Distribution("near-uniform", epsilon=Fraction(1, 1000)).describe() == \
        "near-uniform(eps=1/1000)"


def test_distribution_validation():
    with pytest.raises(InputError):
        Distribution("gaussian")
    with pytest.raises(InputError):
        Distribution("integers", bound=0)
    with pytest.raises(InputError):
        Distribution("near-uniform", epsilon=Fraction(1))
    with pytest.raises(InputError):
        Distribution("near-uniform", epsilon=Fraction(0))


def test_integer_samples_are_bounded_integers():
    rng = random.Random(0)
    dist = Distribution("integers", bound=9)
    for _ in range(50):
        v = dist.sample(rng, 5)
        assert all(a.denominator == 1 and 1 <= a <= 9 for a in v)


def test_rational_samples_have_bounded_terms():
    rng = random.Random(0)
    dist = Distribution("rationals", bound=9)
    for _ in range(50):
        v = dist.sample(rng, 4)
        # canonical form may shrink them, never grow them
        assert all(1 <= a.numerator <= 9 and 1 <= a.denominator <= 9 for a in v)


def test_near_uniform_samples_perturb_but_never_collapse():
    rng = random.Random(0)
    eps = Fraction(1, 1000)
    dist = Distribution("near-uniform", epsilon=eps)
    allowed = {1 - eps, Fraction(1), 1 + eps}
    for _ in range(100):
        v = dist.sample(rng, 4)
        assert set(v) <= allowed
        assert len(set(v)) > 1
    assert dist.sample(rng, 1) == (Fraction(1),)


def test_sampling_is_seed_deterministic():
    dist = Distribution("rationals", bound=30)
    a = [dist.sample(random.Random(7), 5) for _ in range(3)]
    b = [dist.sample(random.Random(7), 5) for _ in range(3)]
    assert a[0] == b[0]
    # consecutive draws from one stream differ
    one = random.Random(7)
    assert dist.sample(one, 5) != dist.sample(one, 5)


# ---- fuzzing ----

def test_fuzz_same_seed_same_report():
    dist = Distribution("integers", bound=50)
    a = fuzz((2, 6), "all", 200, dist, seed=11)
    b = fuzz((2, 6), "all", 200, dist, seed=11)
    assert a == b


def test_fuzz_counts_and_boundary_minimum():
    report = fuzz((2, 5), "all", 100, Distribution("integers", bound=20), seed=3)
    assert report.violations == 0
    # every trial checks each k once, so k=1 contributes slack 0 each time
    assert report.min_slack == 0
    assert report.witness_k in (1, len(report.witness))
    assert report.checks >= 2 * 100


def test_fuzz_single_k_policy():
    report = fuzz((3, 6), 2, 50, Distribution("integers", bound=10), seed=5)
    assert report.checks == 50
    assert report.witness_k == 2


def test_fuzz_interior_policy_on_near_uniform_is_strictly_positive():
    # never uniform, never boundary k: slack must stay strictly positive
    report = fuzz((3, 5), "interior", 200,
                  Distribution("near-uniform", epsilon=Fraction(1, 1000)), seed=9)
    assert report.violations == 0
    assert report.min_slack > 0


def test_fuzz_forced_uniform_single_trial():
    # bound 1 forces the all-ones vector; its slack is 0 at every k
    report = fuzz((4, 4), "all", 1, Distribution("integers", bound=1), seed=0)
    assert report.checks == 4
    assert report.min_slack == 0
    assert report.witness == (Fraction(1),) * 4


def test_fuzz_deep_vectors_hold():
    # n = 11 and 12 sit above the acceptance sweep; every k still holds
    report = fuzz((11, 12), "all", 60, Distribution("integers", bound=10), seed=6)
    assert report.violations == 0
    assert report.min_slack == 0


def test_fuzz_near_uniform_small_slack():
    report = fuzz((3, 3), 2, 100,
                  Distribution("near-uniform", epsilon=Fraction(1, 1000)), seed=1)
    assert 0 < report.min_slack < Fraction(1, 100000)


def test_fuzz_policy_validation():
    dist = Distribution("integers")
    with pytest.raises(InputError):
        fuzz((0, 4), "all", 10, dist, seed=0)
    with pytest.raises(InputError):
        fuzz((4, 2), "all", 10, dist, seed=0)
    with pytest.raises(InputError):
        fuzz((2, 4), 0, 10, dist, seed=0)
    with pytest.raises(InputError):
        fuzz((2, 4), 5, 10, dist, seed=0)  # no n in range admits k=5
    with pytest.raises(InputError):
        fuzz((2, 2), "interior", 10, dist, seed=0)  # interior needs n >= 3
    with pytest.raises(InputError):
        fuzz((2, 4), "weird", 10, dist, seed=0)
    with pytest.raises(InputError):
        fuzz((2, 4), "all", 0, dist, seed=0)


def test_fuzz_counts_violations_and_keeps_negative_min_slack(monkeypatch):
    # deliberately inverted sides standing in for a falsified bound, and no
    # proof of a slack above the minimum, whose certificate term and floor
    # would clear the checks their true sides prove positive
    monkeypatch.setattr("symineq.search.lhs_main", lambda v, k: Fraction(2))
    monkeypatch.setattr("symineq.search.rhs_main", lambda v, k: Fraction(1))
    monkeypatch.setattr("symineq.search.main_slack_exceeds", lambda v, k, bound: False)
    report = fuzz((3, 3), 2, 25, Distribution("integers", bound=5), seed=0)
    assert report.violations == 25
    assert report.min_slack == -1
    assert len(report.witness) == 3


# ---- simplex projection ----

@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=8))
def test_projection_lands_on_floored_simplex(xs):
    y = project_simplex(xs)
    assert abs(sum(y) - 1.0) < 1e-9
    assert min(y) >= SIMPLEX_FLOOR - 1e-15


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=8))
def test_projection_is_idempotent(xs):
    y = project_simplex(xs)
    z = project_simplex(y)
    assert max(abs(a - b) for a, b in zip(z, y)) < 1e-9


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False), min_size=2, max_size=8),
       st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False), min_size=2, max_size=8))
def test_projection_is_distance_minimizing(xs, ys):
    # variational oracle: no feasible point may be closer to the input
    n = min(len(xs), len(ys))
    p = xs[:n]
    feasible = project_simplex(ys[:n])
    proj = project_simplex(p)
    assert math.dist(proj, p) <= math.dist(feasible, p) + 1e-9


def test_projection_fixes_interior_simplex_points():
    x = [0.2, 0.3, 0.5]
    assert max(abs(a - b) for a, b in zip(project_simplex(x), x)) < 1e-12


# ---- float objective ----

@given(st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=6),
       st.data())
def test_ratio_float_tracks_exact_ratio(ints, data):
    k = data.draw(st.integers(min_value=1, max_value=len(ints)))
    exact = ratio(make_vector(ints), k)
    approx = ratio_float([float(i) for i in ints], k)
    assert abs(approx - float(exact)) < 1e-9


def ratio_float_oracle(x, k):
    # the plain lexicographic fold: each k-subset's product and sum folded
    # left to right from its first entry, the terms added one by one in
    # lexicographic order; ratio_float must give the same float, bit for bit
    lhs = 0.0
    for s in combinations(x, k):
        prod = tot = s[0]
        for a in s[1:]:
            prod *= a
            tot += a
        lhs += prod / tot
    rhs = (len(x) / k) * elementary_symmetric(x, k) / reduce(add, x, 0.0)
    return lhs / rhs


# entries from the simplex floor up to 1e3, drawn from a pool so that they repeat
float_pool = st.lists(st.floats(min_value=SIMPLEX_FLOOR, max_value=1e3),
                      min_size=1, max_size=12)


@given(float_pool, st.data())
@settings(deadline=None)
def test_ratio_float_is_the_oracle_fold_bit_for_bit(pool, data):
    picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                               min_size=1, max_size=12))
    x = [pool[i] for i in picks]
    k = data.draw(st.integers(min_value=1, max_value=len(x)))
    assert ratio_float(x, k) == ratio_float_oracle(x, k)  # exact, no tolerance


def gradient_oracle(x, k):
    # one whole ratio_float per moved point; finite_difference_gradient must
    # give the same floats, bit for bit
    g = []
    for i, xi in enumerate(x):
        hi = min(GRADIENT_STEP, 0.5 * xi)  # keep the perturbed point positive
        xp = list(x)
        xp[i] = xi + hi
        xm = list(x)
        xm[i] = xi - hi
        g.append((ratio_float(xp, k) - ratio_float(xm, k)) / (2.0 * hi))
    return g


@st.composite
def pooled_points(draw):
    pool = draw(float_pool)
    x = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return x, draw(st.integers(min_value=1, max_value=len(x)))


@given(pooled_points())
@example(([1 / 6] * 6, 3))  # the uniform point
@example(([SIMPLEX_FLOOR, SIMPLEX_FLOOR, 0.3, 0.7 - 2 * SIMPLEX_FLOOR], 2))  # hi = 0.5 * xi
@example(([0.1, 0.2, 0.3, 0.15, 0.25], 4))  # k = n - 1
@example(([0.5, 0.25] * 129, 1))  # n > 256: indices past CPython's cached small ints
@settings(deadline=None)
def test_gradient_is_the_oracle_bit_for_bit(point):
    x, k = point
    # hex, so that a 0.0 in place of a -0.0 fails too
    assert [g.hex() for g in finite_difference_gradient(x, k)] == \
        [g.hex() for g in gradient_oracle(x, k)]


def test_ratio_float_builds_no_coordinate_tables():
    # the per-coordinate tables serve the gradient only
    _coordinate_plan.cache_clear()
    ratio_float([0.5, 0.25, 0.125, 0.125], 2)
    assert _coordinate_plan.cache_info().currsize == 0
    finite_difference_gradient([0.5, 0.25, 0.125, 0.125], 2)
    assert _coordinate_plan.cache_info().currsize == 1


def test_coordinate_tables_list_exactly_the_subsets_that_hold_i():
    # a listed position that does not hold i recomputes an unchanged float,
    # which the bit-for-bit tests cannot see
    for n in range(1, 9):
        for k in range(1, n + 1):
            plan, held = _prefix_plan(n, k), _coordinate_plan(n, k)
            assert len(held) == n and all(len(rows) == k for rows in held)
            subsets = [()]
            for j, (parents, indices) in enumerate(plan, start=1):
                subsets = [subsets[q] + (a,) for q, a in zip(parents, indices)]
                assert subsets == [S for S in combinations(range(n), j)
                                   if S[-1] < n - k + j]
                shared = {}  # position -> the one triple every coordinate holds
                for i in range(n):
                    triples = held[i][j - 1]
                    assert [m for m, _, _ in triples] == \
                        [m for m, S in enumerate(subsets) if i in S]
                    for triple in triples:
                        m, q, a = triple
                        assert (q, a) == (parents[m], indices[m])
                        assert shared.setdefault(m, triple) is triple
            assert subsets == list(combinations(range(n), k))


@pytest.mark.parametrize("n,k", [(13, 6), (12, 11), (14, 2), (16, 8)])
def test_moved_terms_are_the_moved_points_terms_past_n_10(n, k):
    # the benchmark's (13, 6) and others past the n <= 10 that Hypothesis
    # draws; entry 0 sits at the simplex floor, where the step is half of it
    rng = random.Random(100 * n + k)
    x = project_simplex([rng.random() for _ in range(n)])
    x[0] = SIMPLEX_FLOOR
    levels, terms = subset_terms(x, k)
    for i, xi in enumerate(x):
        hi = min(GRADIENT_STEP, 0.5 * xi)
        xs = list(x)
        for xs[i] in (xi + hi, xi - hi):
            assert [t.hex() for t in moved_terms(levels, terms, xs, i)] == \
                [t.hex() for t in subset_terms(xs, k)[1]], (i, xs[i])
    assert [g.hex() for g in finite_difference_gradient(x, k)] == \
        [g.hex() for g in gradient_oracle(x, k)]


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 4)])
def test_gradient_vanishes_at_uniform(n, k):
    g = finite_difference_gradient([1.0 / n] * n, k)
    mean = sum(g) / n
    assert math.hypot(*(gi - mean for gi in g)) <= 1e-6


# ---- maximization ----

def test_maximize_same_config_same_result():
    assert maximize_ratio(4, 2, seed=3) == maximize_ratio(4, 2, seed=3)


# sha256 of repr(maximize_ratio(**config)), recorded before the float
# objective moved onto the prefix-shared subset kernel: the ascent's floats,
# trace and exact ratio must not move by a bit. The repr was recorded with a
# last field exact_ratio, the exact ratio at the argmax; `pinned_repr` puts
# it back.
PINNED_RESULTS = [
    (dict(n=8, k=4, seed=0),
     "df32a0b7f3955d3e76d4c0790dfbb72eac06743121ec5503a901edd9f642c935"),
    (dict(n=8, k=4, seed=1),
     "1ca570fabfd939dba5e4f70ffe93467a04cf3c8bbf5839538fde437afe251c4e"),
    (dict(n=8, k=4, seed=2),
     "b285682e14d14e536519f42ff4e2b55df3ced6ff2281e35afc66336bd167257b"),
    (dict(n=5, k=3, start=(0.6, 0.1, 0.1, 0.1, 0.1)),
     "ed23dd266c2caac8ca02d5ddf40f2c2519c2f65d4be17fbea0033e28a5b231e1"),
    (dict(n=6, k=2, seed=7),
     "e5615fd4f4ab94f75e2f350c1bc2d436d12444f45593f5c88c32d50895d51bb4"),
    (dict(n=7, k=5, seed=3),
     "a92893edc24b67dd153a799d39a8170438829eeed63492c85867b48560dc4116"),
    # recorded before the gradient rebuilt only the subsets that hold x_i:
    # every 8-subset but one holds each i; shallow levels; floor-branch steps
    (dict(n=9, k=8, seed=0),
     "bdd82343523437fd6e50d05b8b0df4c27f78e8beace8180b301160912dfa17dc"),
    (dict(n=10, k=2, seed=1),
     "c2b289742d0adfa809cd3159a1ce462f1981cd57ed4203617a23b48057c0385a"),
    (dict(n=6, k=3, start=(1e-9, 1e-9, 1.0, 1.0, 1.0, 1.0)),
     "67380a198322557cf59a589f12f05bc6b6079e546e62b3b8afc5059d241fe60c"),
]


def pinned_repr(result, k):
    return f"{repr(result)[:-1]}, exact_ratio={exact_ratio(result, k)!r})"


@pytest.mark.parametrize("config,digest", PINNED_RESULTS)
def test_maximize_results_pinned(config, digest):
    result = maximize_ratio(**config)
    assert hashlib.sha256(pinned_repr(result, config["k"]).encode()).hexdigest() == digest


def test_maximize_results_pinned_when_sum_compensates(monkeypatch):
    # Python 3.12's sum() compensates float sums; math.fsum stands in for it
    # on any version, so a float sum() left in the ascent or in the float
    # kernels it calls changes a digest
    monkeypatch.setattr("symineq.search.sum", math.fsum, raising=False)
    monkeypatch.setattr("symineq.symfun.sum", math.fsum, raising=False)
    for config, digest in PINNED_RESULTS:
        result = maximize_ratio(**config)
        assert hashlib.sha256(pinned_repr(result, config["k"]).encode()).hexdigest() == \
            digest, config


def test_maximize_result_repr_holds_no_huge_integer():
    # an exact ratio at the argmax has a denominator of 22,072 bits at
    # (11, 5), past the 4300-digit int-to-str limit; the result holds none
    result = maximize_ratio(12, 6, seed=0, max_iterations=2)
    assert repr(result).startswith("SearchResult(argmax=(")


def test_maximize_reaches_uniform():
    # a step of 1e20 must backtrack to a useful size, not stop at a halving budget
    for n, step_size in ((4, 0.25), (5, 1e20)):
        result = maximize_ratio(n, 2, seed=0, step_size=step_size)
        assert result.converged
        assert result.iterations > 0
        assert result.ratio >= 1 - 1e-9
        assert result.ratio <= 1 + 1e-12
        assert max(abs(x - 1 / n) for x in result.argmax) <= 1e-4
        assert exact_ratio(result, 2) <= 1


def test_maximize_trace_is_monotone_and_consistent():
    result = maximize_ratio(5, 3, seed=2)
    assert all(b >= a for a, b in zip(result.trace, result.trace[1:]))
    assert result.trace[-1] == result.ratio
    assert result.iterations == len(result.trace) - 1


def test_maximize_uniform_start_needs_no_steps():
    result = maximize_ratio(3, 2, start=(1 / 3, 1 / 3, 1 / 3))
    assert result.converged
    assert result.iterations == 0
    assert abs(result.ratio - 1) <= 1e-12


def test_maximize_from_lopsided_start():
    result = maximize_ratio(5, 3, start=(0.6, 0.1, 0.1, 0.1, 0.1))
    assert all(b >= a for a, b in zip(result.trace, result.trace[1:]))
    assert result.converged
    assert max(abs(x - 0.2) for x in result.argmax) <= 1e-4
    assert exact_ratio(result, 3) <= 1


def test_maximize_argmax_stays_on_simplex():
    result = maximize_ratio(6, 4, seed=1)
    assert abs(sum(result.argmax) - 1) < 1e-9
    assert min(result.argmax) >= SIMPLEX_FLOOR - 1e-15


def test_maximize_exact_recheck_matches_argmax(monkeypatch):
    # the re-certified point is the argmax, each float read exactly
    certified = []

    def recorded(v, k):
        certified.append((v, k))
        return main_verdict(v, k)

    monkeypatch.setattr("symineq.search.main_verdict", recorded)
    result = maximize_ratio(4, 2, seed=5)
    point = make_vector([Fraction(x) for x in result.argmax])
    assert certified == [(point, 2)]
    assert ratio(point, 2) <= 1


def test_maximize_raises_the_violation_the_verdict_finds(monkeypatch):
    def violated(v, k):
        raise Violation(Statement.MAIN_THEOREM, v, k, Fraction(2), Fraction(1))

    monkeypatch.setattr("symineq.search.main_verdict", violated)
    with pytest.raises(Violation):
        maximize_ratio(4, 2, seed=5)


def test_maximize_budget_exhaustion_is_not_convergence():
    result = maximize_ratio(5, 3, max_iterations=1, start=(0.6, 0.1, 0.1, 0.1, 0.1))
    assert result.iterations == 1
    assert not result.converged
    assert exact_ratio(result, 3) <= 1


def test_maximize_rejects_a_candidate_whose_float_rhs_underflows(monkeypatch):
    # at n = 141, k = 140 the float rhs of the long line-search candidates
    # falls below the normal range; they score NaN and are rejected, as a
    # worse one would be
    scores = []

    def recorded(x, k):
        scores.append(ratio_float(x, k))
        return scores[-1]

    monkeypatch.setattr("symineq.search.ratio_float", recorded)
    result = maximize_ratio(141, 140, max_iterations=1, step_size=1e3)
    assert any(math.isnan(f) for f in scores)
    assert result.iterations == 1
    assert exact_ratio(result, 140) <= 1


def test_maximize_nan_gradient_is_not_convergence(monkeypatch):
    monkeypatch.setattr("symineq.search.finite_difference_gradient",
                        lambda x, k: [math.nan] * len(x))
    result = maximize_ratio(5, 3)
    assert not result.converged
    assert result.iterations == 0
    assert exact_ratio(result, 3) <= 1  # re-certified all the same


def test_maximize_config_validation():
    with pytest.raises(InputError):
        maximize_ratio(4, 1)
    with pytest.raises(InputError):
        maximize_ratio(4, 4)
    with pytest.raises(InputError):
        maximize_ratio(4, 2, step_size=0.0)
    with pytest.raises(InputError):
        maximize_ratio(4, 2, convergence_tolerance=-1.0)
    with pytest.raises(InputError):
        maximize_ratio(4, 2, max_iterations=0)
    with pytest.raises(InputError):
        maximize_ratio(4, 2, start=(0.5, 0.5))
    with pytest.raises(InputError):
        maximize_ratio(4, 2, start=(0.5, 0.5, -0.5, 0.5))
    with pytest.raises(InputError):
        maximize_ratio(3, 2, start=(math.inf, 1.0, 1.0))
    with pytest.raises(InputError):
        maximize_ratio(3, 2, start=(1e308, 1e308, 1e308))  # the sum overflows
    with pytest.raises(InputError, match="n=150 k=149"):
        maximize_ratio(150, 149)  # the float rhs underflows at the start
    with pytest.raises(InputError, match="n=146 k=145"):
        maximize_ratio(146, 145, max_iterations=3)  # ... to a subnormal
