import fractions
import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from symineq.cli import main
from symineq.exact import InputError, make_vector, parse_scalar
from symineq.inequality import (
    _COMMON_DENOMINATOR_MAX,
    InequalityReport,
    Statement,
    Violation,
    _certificate,
    _integer_form,
    _sum_over_sums,
    _superset_groups,
    check_main,
    check_pairwise_lemma,
    check_proof_identity,
    check_reciprocal_lemma,
    lhs_main,
    main_slack_floor,
    main_verdict,
    proof_identity,
    report_to_record,
    rhs_main,
)
from symineq.search import Distribution, FuzzReport, fuzz
from symineq.symfun import elementary_symmetric, products_by_sum, symmetric_row

entry = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)
vectors = st.lists(entry, min_size=1, max_size=7).map(make_vector)
vectors2 = st.lists(entry, min_size=2, max_size=7).map(make_vector)
# few distinct subset sums, so the lhs dynamic program merges many subsets
colliding_vectors = st.lists(
    st.one_of(st.integers(min_value=1, max_value=3).map(Fraction),
              st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)),
    min_size=1, max_size=12).map(make_vector)
six_digits = st.integers(min_value=10 ** 5, max_value=10 ** 6 - 1)
wide_entry = st.builds(Fraction, six_digits, six_digits)
wide_vectors = st.lists(wide_entry, min_size=1, max_size=8).map(make_vector)
wide_vectors2 = st.lists(wide_entry, min_size=2, max_size=8).map(make_vector)
uniform_vectors = st.tuples(st.integers(min_value=1, max_value=8), entry).map(
    lambda t: make_vector([t[1]] * t[0]))
# c + d/q with offsets d in {-1, 0, +1} and q >= 1000: uniform but for a
# few entries, so the slack is tiny or, with every d equal, 0
near_uniform_vectors = st.tuples(
    st.lists(st.integers(min_value=-1, max_value=1), min_size=1, max_size=8),
    entry, st.integers(min_value=1000, max_value=10 ** 9)).map(
    lambda t: make_vector([t[1] + Fraction(d, t[2]) for d in t[0]]))


def lhs_oracle(v, k):
    # independent route: explicit subsets, stdlib prod/sum
    return sum(math.prod(v[i] for i in s) / sum(v[i] for i in s)
               for s in combinations(range(len(v)), k))


def identity_oracle(v, k):
    # the identity's left sum in Fractions on the unit-sum rescaling w = v / sum(v)
    total = sum(v)
    w = [a / total for a in v]
    return k * sum(math.prod(w[i] for i in s) * (1 - sum(w[i] for i in s))
                   / sum(w[i] for i in s) for s in combinations(range(len(w)), k))


def pairwise_oracle(v):
    # the k = 2 bound by its double sum in Fractions, pair by pair
    n = len(v)
    lhs = Fraction(0)
    pair_products = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            lhs += v[i] * v[j] / (v[i] + v[j])
            pair_products += v[i] * v[j]
    rhs = Fraction(n) * pair_products / (2 * v.total())
    return InequalityReport(n=n, k=2, statement=Statement.PAIRWISE_LEMMA, lhs=lhs,
                            rhs=rhs, slack=rhs - lhs, is_equality=lhs == rhs)


def identity_groups_oracle(ints, k):
    # sum(T) -> the total of prod(T) * b_a over the k-subsets T and the
    # entries a outside T, by index, so repeated values stay apart
    grouped = {}
    for T in combinations(range(len(ints)), k):
        s = sum(ints[i] for i in T)
        for a in range(len(ints)):
            if a not in T:
                grouped[s] = grouped.get(s, 0) + math.prod(ints[i] for i in T) * ints[a]
    return grouped


def reciprocal_oracle(v):
    # (sum_j (n-1)/(sum(v) - a_j), sum_i 1/a_i), term by term in Fractions
    n = len(v)
    total = v.total()
    return sum((n - 1) / (total - a) for a in v), sum(1 / a for a in v)


def forbid(patch, *kernels):
    # make each kernel raise wherever a symineq module holds it
    def unreachable(*args):
        raise AssertionError("a forbidden kernel was reached")

    for module in [m for name, m in sys.modules.items()
                   if name == "symineq" or name.startswith("symineq.")]:
        for attr, value in list(vars(module).items()):
            if any(value is kernel for kernel in kernels):
                patch.setattr(module, attr, unreachable)


def rhs_oracle(v, k):
    ek = sum(math.prod(v[i] for i in s) for s in combinations(range(len(v)), k))
    return Fraction(len(v), k) * ek / sum(v)


# ---- main bound ----

def test_main_worked_vector_frozen():
    report = check_main(make_vector([1, 2, 3]), 2)
    assert report.lhs == Fraction(157, 60)
    assert report.rhs == Fraction(11, 4)
    assert report.slack == Fraction(2, 15)
    assert report.is_equality is False
    assert report.statement is Statement.MAIN_THEOREM
    assert report.n == 3 and report.k == 2


def test_main_single_entry():
    report = check_main(make_vector([5]), 1)
    assert report.lhs == 1 and report.rhs == 1 and report.is_equality


@given(vectors, st.data())
def test_sides_match_oracles(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    assert lhs_main(v, k) == lhs_oracle(v, k)
    assert rhs_main(v, k) == rhs_oracle(v, k)


@settings(deadline=None)  # the oracle enumerates up to 4095 subsets per example
@given(st.one_of(colliding_vectors, wide_vectors))
def test_lhs_matches_oracle_on_colliding_sums_and_wide_rationals(v):
    for k in range(1, len(v) + 1):
        assert lhs_main(v, k) == lhs_oracle(v, k)


def sums_oracle(by_sum, scale):
    return sum(Fraction(p, s) for s, p in by_sum.items()) / scale


def six_digit_row(size):
    # six-digit sums and numerators, as many as the row size asks for
    return {10 ** 5 + 7 * i: 999_983 - 11 * i for i in range(size)}


@settings(deadline=None)  # the oracle adds up to 200 Fractions of six-digit sums
@given(st.dictionaries(st.integers(min_value=1, max_value=10 ** 6 - 1),
                       st.integers(min_value=1, max_value=10 ** 18),
                       min_size=1, max_size=200),
       st.integers(min_value=1, max_value=10 ** 12))
@example(six_digit_row(_COMMON_DENOMINATOR_MAX), 1)
@example(six_digit_row(_COMMON_DENOMINATOR_MAX), 999_999)
@example(six_digit_row(_COMMON_DENOMINATOR_MAX + 1), 999_999)
@example({999_983: 123_457, 999_979: 654_321, 6: 1}, 720)
def test_sum_over_sums_is_its_fraction_sum_on_both_sides_of_the_size_rule(by_sum, scale):
    num, den = _sum_over_sums(by_sum)
    assert Fraction(num, den * scale) == sums_oracle(by_sum, scale)


def fuzz_oracle(n_range, k_policy, trials, distribution, seed):
    # fuzz's report from the same draws, each (v, k) scored by the
    # brute-force sides; min keeps the first of equal candidates, as fuzz does
    lo, hi = n_range
    if isinstance(k_policy, int):
        lo, ks_at = max(lo, k_policy), lambda n: [k_policy]
    elif k_policy == "interior":
        lo, ks_at = max(lo, 3), lambda n: range(2, n)
    else:
        ks_at = lambda n: range(1, n + 1)
    rng = random.Random(seed)
    scored = []
    for _ in range(trials):
        n = rng.randint(lo, hi)
        v = distribution.sample(rng, n)
        scored += [(rhs_oracle(v, k) - lhs_oracle(v, k), tuple(v), k) for k in ks_at(n)]
    slack, witness, k = min(scored)
    return FuzzReport(checks=len(scored), violations=sum(c[0] < 0 for c in scored),
                      min_slack=slack, witness=witness, witness_k=k)


distributions = st.one_of(
    st.builds(Distribution, st.sampled_from(["integers", "rationals"]),
              st.integers(min_value=1, max_value=100)),
    # wide rationals: six-digit p and q
    st.builds(Distribution, st.just("rationals"), st.just(10 ** 6)),
    st.builds(Distribution, st.just("near-uniform"),
              epsilon=st.integers(min_value=2, max_value=10 ** 6).map(lambda q: Fraction(1, q))))


@settings(deadline=None)  # the oracle enumerates up to 6 * 1023 subsets
@given(distributions, st.integers(min_value=3, max_value=10), st.data())
def test_fuzz_report_equals_its_brute_force_oracle(distribution, hi, data):
    lo = data.draw(st.integers(min_value=1, max_value=hi))
    k_policy = data.draw(st.one_of(st.sampled_from(["interior", "all"]),
                                   st.integers(min_value=1, max_value=hi)))
    trials = data.draw(st.integers(min_value=1, max_value=6))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    args = (lo, hi), k_policy, trials, distribution, seed
    assert fuzz(*args) == fuzz_oracle(*args)


@settings(deadline=None)  # the oracle enumerates up to 255 subsets of wide entries
@given(st.one_of(vectors, wide_vectors, near_uniform_vectors), st.data())
def test_main_slack_floor_is_positive_and_below_the_exact_slack(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    floor = main_slack_floor(v, k)
    assert floor is None or 0 < floor < rhs_oracle(v, k) - lhs_oracle(v, k)


def counting_lhs_main(monkeypatch):
    # the (v, k) of every check fuzz reduces exactly
    reduced = []

    def counted(v, k):
        reduced.append((v, k))
        return lhs_main(v, k)
    monkeypatch.setattr("symineq.search.lhs_main", counted)
    return reduced


def test_fuzz_reduces_every_slack_below_float_resolution(monkeypatch):
    # at eps = 10^-40 the interior slacks are about 10^-80 of the sides
    # (c(n, k) * eps^2), far below a float's resolution, so no floor is
    # proved positive and every check is reduced exactly
    reduced = counting_lhs_main(monkeypatch)
    args = ((3, 9), "interior", 30,
            Distribution("near-uniform", epsilon=Fraction(1, 10 ** 40)), 4)
    report = fuzz(*args)
    assert len(reduced) == report.checks
    assert report == fuzz_oracle(*args)
    assert 0 < report.min_slack < Fraction(1, 10 ** 70)


@pytest.mark.parametrize("kind", ["integers", "rationals"])
def test_fuzz_past_the_float_range_reduces_every_check(kind, monkeypatch):
    # entries up to 10^400 (fuzz --max-value 10**400): a row term P(s)/s
    # overflows a float, so no floor is found and every check is reduced
    # exactly, with the report of the oracle
    reduced = counting_lhs_main(monkeypatch)
    args = (3, 6), "interior", 4, Distribution(kind, bound=10 ** 400), 8
    report = fuzz(*args)
    for v, k in reduced:
        with pytest.raises(OverflowError):
            [p / s for s, p in _integer_form(v).row(k).items()]
        assert main_slack_floor(v, k) is None
    assert len(reduced) == report.checks
    assert report == fuzz_oracle(*args)


def test_fuzz_on_rationals_reduces_few_checks(monkeypatch):
    # the slacks of ordinary rationals are far above float resolution, so
    # after the first check almost every floor clears its check
    reduced = counting_lhs_main(monkeypatch)
    report = fuzz((12, 16), "interior", 20, Distribution("rationals"), 0)
    assert report.checks == 245
    assert len(reduced) <= report.checks // 10


@pytest.mark.parametrize("c", [Fraction(1), Fraction(7, 3)])
def test_lhs_uniform_closed_form_far_past_enumeration(c):
    # C(60, 30) is about 1.2e17 subsets: only the subset-sum DP finishes
    n, k = 60, 30
    assert lhs_main(make_vector([c] * n), k) == Fraction(math.comb(n, k)) * c ** (k - 1) / k


@given(vectors, st.data())
def test_main_slack_nonnegative(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    report = check_main(v, k)
    assert report.slack >= 0
    assert report.slack == report.rhs - report.lhs
    assert report.is_equality == (report.slack == 0)


@given(vectors)
def test_boundary_k_is_an_identity(v):
    n = len(v)
    assert lhs_main(v, 1) == n == rhs_main(v, 1)
    prod = math.prod(v)
    assert lhs_main(v, n) == prod / v.total() == rhs_main(v, n)
    assert check_main(v, 1).is_equality
    assert check_main(v, n).is_equality


@given(uniform_vectors, st.data())
def test_uniform_vectors_give_equality_at_every_k(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    report = check_main(v, k)
    assert report.is_equality
    # closed form: both sides are C(n,k) * c^(k-1) / k
    c = v[0]
    assert report.lhs == Fraction(math.comb(len(v), k)) * c ** (k - 1) / k


@given(vectors2, st.data())
def test_nonuniform_interior_k_is_strict(v, data):
    if all(a == v[0] for a in v) or len(v) < 3:
        return
    k = data.draw(st.integers(min_value=2, max_value=len(v) - 1))
    assert check_main(v, k).slack > 0


@given(vectors, entry, st.data())
def test_sides_are_homogeneous_of_degree_k_minus_1(v, scale, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    scaled = make_vector([scale * a for a in v])
    assert lhs_main(scaled, k) == scale ** (k - 1) * lhs_main(v, k)
    assert rhs_main(scaled, k) == scale ** (k - 1) * rhs_main(v, k)


@pytest.mark.parametrize("k", [0, 4, -1])
def test_main_rejects_bad_k(k):
    with pytest.raises(InputError):
        check_main(make_vector([1, 2, 3]), k)


# ---- one integer form and one row per vector ----

@settings(deadline=None)  # the oracles enumerate up to 5 * C(8, 4) subset entries
@given(st.lists(st.one_of(vectors2, uniform_vectors.filter(lambda v: len(v) >= 2),
                          near_uniform_vectors.filter(lambda v: len(v) >= 2)),
                min_size=2, max_size=2))
def test_interleaved_vectors_each_match_their_oracles(pair):
    # v, w, v again, then a copy of v equal to it but a distinct object:
    # the memo serves each call the form and rows of its own vector
    v, w = pair
    for u in (v, w, v, make_vector(list(v))):
        n = len(u)
        for k in range(1, n + 1):
            lhs, rhs = lhs_oracle(u, k), rhs_oracle(u, k)
            report = check_main(u, k)
            assert (report.lhs, report.rhs) == (lhs, rhs)
            assert report.is_equality == (lhs == rhs)
            assert rhs_main(u, k) == rhs
        for k in range(1, n):
            expected = identity_oracle(u, k)
            assert proof_identity(u, k) == (expected, expected)
        assert check_pairwise_lemma(u) == pairwise_oracle(u)
        report = check_reciprocal_lemma(u)
        assert (report.lhs, report.rhs) == reciprocal_oracle(u)


def counting(built):
    # products_by_sum, recording the ks of each pass in built
    def counted(ints, ks):
        built.append(tuple(ks))
        return products_by_sum(ints, ks)

    return counted


def test_one_vector_runs_two_passes_and_the_memo_lets_it_go(monkeypatch):
    built = []
    monkeypatch.setattr("symineq.inequality.products_by_sum", counting(built))
    v, w = make_vector([1, Fraction(2, 3), 5, 7]), make_vector([2, 3])
    held = sys.getrefcount(v)
    for k in (1, 2, 3):
        check_main(v, k)
        check_proof_identity(v, k)
        # the first k: one pass pruned to it; a second k: one pass that
        # builds every row, so k = 3 and its identity run none
        assert built == [(1,), (1, 2, 3, 4)][:min(k, 2)]
    assert rhs_main(v, 2) == rhs_oracle(v, 2)
    assert rhs_main(v, 4) == rhs_oracle(v, 4)
    assert built == [(1,), (1, 2, 3, 4)]
    assert sys.getrefcount(v) == held + 1  # the memo's reference
    # the next vector replaces v; a lone rhs_main reads the form's e row
    # and builds no row, and the identity keeps the one it builds
    assert rhs_main(w, 2) == rhs_oracle(w, 2)
    assert sys.getrefcount(v) == held
    assert _integer_form(w).v is w and _integer_form(w).rows == {}
    assert built == [(1,), (1, 2, 3, 4)]
    proof_identity(w, 1)
    assert built[-1] == (1,) and list(_integer_form(w).rows) == [1]


@pytest.mark.parametrize("flags, ks_at", [
    ((), lambda n: range(1, n + 1)),
    (("--exclude-boundary",), lambda n: range(2, n)),
    (("--k", "3"), lambda n: (3,)),
])
def test_fuzz_runs_a_pass_pruned_to_the_first_k_then_one_for_every_row(
        flags, ks_at, monkeypatch, capsys):
    # a vector's first k gets a pass pruned to it, a second k one pass for
    # every row, and rhs_main builds none; a single k holds one pruned row
    built = []
    monkeypatch.setattr("symineq.inequality.products_by_sum", counting(built))
    assert main(["fuzz", "--n", "3..6", "--trials", "12", "--seed", "5", *flags]) == 0
    rng, expected = random.Random(5), []
    for _ in range(12):
        n = rng.randint(3, 6)
        Distribution("integers").sample(rng, n)
        ks = ks_at(n)
        expected += [(ks[0],)] + ([tuple(range(1, n + 1))] if len(ks) > 1 else [])
    assert built == expected
    assert "violations: 0" in capsys.readouterr().out


def test_check_prints_the_first_k_before_the_pass_for_every_row(monkeypatch, capsys):
    # --all-k prints its k = 1 line from the pruned pass, then one pass
    # serves k = 2..n; --k K runs the one pass pruned to K
    built, printed = [], []
    count = counting(built)

    def counted(ints, ks):
        printed.append(capsys.readouterr().out)  # the lines printed before this pass
        return count(ints, ks)

    monkeypatch.setattr("symineq.inequality.products_by_sum", counted)
    assert main(["check", "--values", "1,2/3,5,7", "--all-k"]) == 0
    assert built == [(1,), (1, 2, 3, 4)]
    assert printed == ["", "MainTheorem n=4 k=1 v=(1, 2/3, 5, 7): lhs=4 rhs=4 slack=0"
                           " equality [identity (always equality)]\n"]
    assert [line.split()[2] for line in capsys.readouterr().out.splitlines()] == [
        "k=2", "k=3", "k=4"]
    assert main(["check", "--values", "1,2/3,5,7", "--k", "3"]) == 0
    assert built == [(1,), (1, 2, 3, 4), (3,)]


request_vectors = st.one_of(vectors, wide_vectors,
                            colliding_vectors.filter(lambda v: len(v) <= 9))


@settings(deadline=None)  # the oracles enumerate up to 18 * C(9, 5) subsets
@given(request_vectors, st.data())
def test_one_vectors_requests_in_any_order_match_their_oracles_in_two_passes(v, data):
    # every k of 1..n, some more than once, in a drawn order, each through a
    # drawn reader; a fresh object, so no earlier form serves it
    n, u = len(v), make_vector(list(v))
    repeats = data.draw(st.lists(st.integers(min_value=1, max_value=n), max_size=n))
    ks = data.draw(st.permutations(list(range(1, n + 1)) + repeats))
    readers = ("check_main", "lhs_main", "rhs_main", "proof_identity")
    requests = [(data.draw(st.sampled_from(readers[:3] if k == n else readers)), k)
                for k in ks]
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("symineq.inequality.products_by_sum", counting(built))
        for reader, k in requests:
            if reader == "check_main":
                report = check_main(u, k)
                assert (report.lhs, report.rhs) == (lhs_oracle(u, k), rhs_oracle(u, k))
                assert report.is_equality == (report.lhs == report.rhs)
            elif reader == "lhs_main":
                assert lhs_main(u, k) == lhs_oracle(u, k)
            elif reader == "rhs_main":
                assert rhs_main(u, k) == rhs_oracle(u, k)
            else:
                expected = identity_oracle(u, k)
                assert proof_identity(u, k) == (expected, expected)
    # rhs_main builds no row; the first k read gets a pruned pass, and any
    # other k one pass over every k
    read = [k for reader, k in requests if reader != "rhs_main"]
    expected = [(read[0],)] if read else []
    if any(k != read[0] for k in read):
        expected.append(tuple(range(1, n + 1)))
    assert built == expected
    assert len(built) <= 2


@settings(deadline=None)  # the oracle enumerates up to 2^8 subsets of 6-digit rationals
@given(st.one_of(vectors, wide_vectors))
@example(make_vector([Fraction(3, 7)]))
def test_rhs_main_reads_no_kept_row(v):
    # rhs_main reads e_k from the form's own e row: with every row kept by
    # check_main and each one tampered, and no pass allowed, it still
    # equals its oracle at every k
    n = len(v)
    for k in range(1, n + 1):
        check_main(v, k)
    rows = _integer_form(v).rows
    kept = dict(rows)
    assert sorted(kept) == list(range(1, n + 1))
    for k, row in kept.items():
        rows[k] = {s: p + 1 for s, p in row.items()}  # read, it would show
    try:
        with pytest.MonkeyPatch.context() as patch:
            forbid(patch, products_by_sum)
            for k in range(1, n + 1):
                assert rhs_main(v, k) == rhs_oracle(v, k)
    finally:
        rows.update(kept)


@settings(deadline=None)  # the oracle enumerates up to 2^8 subsets of 6-digit integers
@given(st.one_of(vectors, wide_vectors))
def test_the_forms_two_e_kernels_agree(v):
    # symmetric_row builds the form's e row and products_by_sum its rows by
    # subset sum: once check_main has read every k, each row's values add
    # up to its e_k, and the e row is the brute-force one
    n = len(v)
    for k in range(1, n + 1):
        check_main(v, k)
    form = _integer_form(v)
    assert sorted(form.rows) == list(range(1, n + 1))
    for j in range(1, n + 1):
        assert form.e[j] == sum(form.rows[j].values()), j
    assert form.e == [sum(map(math.prod, combinations(form.ints, j))) for j in range(n + 1)]


def test_a_list_is_never_kept_in_the_memo():
    # a list may change between two calls, so its form is made anew each time
    entries = [Fraction(1), Fraction(2), Fraction(3)]
    assert lhs_main(entries, 2) == lhs_oracle(make_vector(entries), 2)
    entries[0] = Fraction(5)
    assert lhs_main(entries, 2) == lhs_oracle(make_vector(entries), 2)


# ---- the proof's certificate ----

certificate_vectors = st.one_of(vectors, uniform_vectors, near_uniform_vectors,
                                colliding_vectors)


def certificate_oracle(ints, k):
    # G(s) from its definition, subset by subset and grouped by sum:
    # prod(T) * (sum(T) * sum(1/T) - k^2), in Fractions
    grouped = {}
    for T in combinations(ints, k):
        gap = math.prod(T) * (sum(T) * sum(Fraction(1, a) for a in T) - k * k)
        grouped[sum(T)] = grouped.get(sum(T), 0) + gap
    return grouped


@settings(deadline=None)  # the oracle enumerates up to 924 subsets per example
@given(certificate_vectors, st.data())
def test_certificate_is_its_brute_force_group_total(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    ints = _integer_form(v).ints
    certificate = _certificate(ints, k)
    assert certificate == certificate_oracle(ints, k)
    assert all(type(g) is int and g >= 0 for g in certificate.values())


@given(certificate_vectors, st.data())
def test_certificate_sums_to_the_exact_slack(v, data):
    # rhs - lhs = sum_s (B - s) * G(s)/s / (k^2 * B * L^(k-1))
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    form = _integer_form(v)
    total = form.total
    weighted = sum(Fraction((total - s) * g, s) for s, g in _certificate(form.ints, k).items())
    assert weighted / (k * k * total * form.scale ** (k - 1)) == check_main(v, k).slack


@given(st.one_of(certificate_vectors, wide_vectors), st.data())
def test_verdict_is_the_sign_of_the_exact_slack(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    slack = check_main(v, k).slack
    assert main_verdict(v, k) == (1 if slack > 0 else 0)
    assert (main_verdict(v, k) >= 0) == (slack >= 0)


def test_verdict_frozen():
    assert main_verdict(make_vector([1, 2, 3]), 2) == 1
    assert main_verdict(make_vector([2, 2, 2]), 2) == 0
    assert main_verdict(make_vector([1, 2, 3]), 3) == 0
    assert main_verdict(make_vector([Fraction(1, 3)]), 1) == 0
    with pytest.raises(InputError):
        main_verdict(make_vector([1, 2, 3]), 4)


def test_verdict_falls_back_on_the_exact_sides_if_a_gap_is_negative(monkeypatch):
    # AM-HM makes every G(s) >= 0; a negative one is a bug, and the verdict
    # is then read off the reduced sides. Without the fallback, the nonzero
    # gap at s = 1 < B would read as a strict slack at the uniform point.
    monkeypatch.setattr("symineq.inequality._certificate", lambda ints, k: {1: -1})
    assert main_verdict(make_vector([1, 2, 3]), 2) == 1
    assert main_verdict(make_vector([2, 2, 2]), 2) == 0
    monkeypatch.setattr("symineq.inequality.lhs_main", lambda v, k: Fraction(10))
    with pytest.raises(Violation) as raised:
        main_verdict(make_vector([1, 2, 3]), 2)
    assert (raised.value.lhs, raised.value.rhs) == (10, rhs_main(make_vector([1, 2, 3]), 2))


# ---- reciprocal bound ----

def test_reciprocal_worked_vector_frozen():
    report = check_reciprocal_lemma(make_vector([1, 2, 3]))
    assert report.lhs == Fraction(47, 30)
    assert report.rhs == Fraction(11, 6)
    assert report.slack == Fraction(4, 15)
    assert report.k == 2
    assert report.statement is Statement.RECIPROCAL_LEMMA


def test_reciprocal_second_frozen_vector():
    assert check_reciprocal_lemma(make_vector([1, 1, 2])).slack == Fraction(1, 6)


@given(vectors2)
def test_reciprocal_matches_direct_oracle(v):
    averages_side, reciprocal_side = reciprocal_oracle(v)
    report = check_reciprocal_lemma(v)
    assert report.lhs == averages_side
    assert report.rhs == reciprocal_side
    assert report.slack >= 0


@given(st.tuples(entry, entry).map(make_vector))
def test_reciprocal_is_always_equality_for_two_entries(v):
    # (n-1)/(total - a_j) with n = 2 is 1/a_{other}: both sides coincide
    assert check_reciprocal_lemma(v).is_equality


@given(st.tuples(st.integers(min_value=2, max_value=8), entry).map(
    lambda t: make_vector([t[1]] * t[0])))
def test_reciprocal_is_equality_at_uniform(v):
    assert check_reciprocal_lemma(v).is_equality


def test_reciprocal_needs_two_entries():
    with pytest.raises(InputError):
        check_reciprocal_lemma(make_vector([3]))


# ---- pairwise bound ----

@given(vectors2)
def test_pairwise_agrees_with_main_at_k2_field_for_field(v):
    direct = check_pairwise_lemma(v)
    via_main = check_main(v, 2)
    assert direct.statement is Statement.PAIRWISE_LEMMA
    assert direct.n == via_main.n
    assert direct.k == via_main.k == 2
    assert direct.lhs == via_main.lhs
    assert direct.rhs == via_main.rhs
    assert direct.slack == via_main.slack
    assert direct.is_equality == via_main.is_equality


# entries from a small pool drawn with repeats: small rationals and
# p/q with p, q up to 10^6
pairwise_pool = st.lists(
    st.one_of(entry, st.builds(Fraction, st.integers(min_value=1, max_value=10 ** 6),
                               st.integers(min_value=1, max_value=10 ** 6))),
    min_size=1, max_size=12, unique=True)
pairwise_vectors = pairwise_pool.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=12)).map(make_vector)


@given(pairwise_vectors)
def test_pairwise_is_its_fraction_double_sum(v):
    assert check_pairwise_lemma(v) == pairwise_oracle(v)


@given(pairwise_vectors)
def test_pairwise_needs_no_dynamic_program_and_no_ek(v):
    # the lemma cross-checks the main bound at k = 2, so it must not reach
    # the kernels check_main uses, nor the row and the e_2 check_main read
    # for this very vector: it may share only the integer form (b, L, B)
    check_main(v, 2)
    form = _integer_form(v)
    kept, ek = form.rows[2], form.e[2]
    form.rows[2] = {s: p + 1 for s, p in kept.items()}  # read, it would show
    form.e[2] = ek + 1
    try:
        with pytest.MonkeyPatch.context() as patch:
            forbid(patch, products_by_sum, symmetric_row, elementary_symmetric)
            assert check_pairwise_lemma(v) == pairwise_oracle(v)
    finally:
        form.rows[2], form.e[2] = kept, ek


def test_pairwise_does_no_fraction_arithmetic_per_pair():
    # the pairs are summed as ints: the Fraction work (calls into
    # fractions.py, less the numerator/denominator reads of the integer
    # form) is a few operations per vector, fewer than its 40 entries
    v = make_vector([Fraction(10 ** 6 - 7 * i, 999_983 + i) for i in range(40)])
    calls = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_filename == fractions.__file__
                and frame.f_code.co_name not in ("numerator", "denominator")):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        report = check_pairwise_lemma(v)
    finally:
        sys.setprofile(None)
    assert report == pairwise_oracle(v)
    assert len(calls) < len(v), calls


def test_pairwise_worked_vector_frozen():
    report = check_pairwise_lemma(make_vector([1, 2, 3]))
    assert report.lhs == Fraction(157, 60)
    assert report.rhs == Fraction(11, 4)


def test_pairwise_two_entries_is_the_top_boundary():
    # n = 2 makes k = 2 the k = n identity: both sides are a*b/(a+b)
    report = check_pairwise_lemma(make_vector([1, 2]))
    assert report.lhs == report.rhs == Fraction(2, 3)
    assert report.is_equality


def test_pairwise_needs_two_entries():
    with pytest.raises(InputError):
        check_pairwise_lemma(make_vector([3]))


# ---- the proof identity ----

def test_identity_worked_vector_frozen():
    left, right = proof_identity(make_vector([1, 2, 3]), 2)
    assert left == right == Fraction(47, 180)


def test_identity_two_entry_uniform_frozen():
    left, right = proof_identity(make_vector([Fraction(1, 2), Fraction(1, 2)]), 1)
    assert left == right == 1


@settings(deadline=None)  # the oracle sums up to 70 subsets of 6-digit rationals
@given(st.one_of(vectors2, wide_vectors2))
def test_identity_sides_agree(v):
    # both sides must equal the oracle, so a scale factor they share shows
    for k in range(1, len(v)):
        expected = identity_oracle(v, k)
        assert proof_identity(v, k) == (expected, expected)


@settings(deadline=None)  # the oracle visits up to 5 * C(9, 4) subset entries
@given(st.one_of(vectors2, wide_vectors2,
                 colliding_vectors.filter(lambda v: 2 <= len(v) <= 9)), st.data())
def test_identity_groupings_agree_sum_by_sum(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v) - 1))
    form = _integer_form(v)
    expected = identity_groups_oracle(form.ints, k)
    # the k-subset side is row k weighted by B - s
    assert {s: p * (form.total - s) for s, p in form.row(k).items()} == expected
    assert _superset_groups(form.ints, k) == expected


@given(vectors2, st.data())
def test_identity_reduces_agreeing_groupings_once(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v) - 1))
    reduced = []

    def counted(by_sum):
        reduced.append(by_sum)
        return _sum_over_sums(by_sum)

    # copies of v, distinct objects, so each starts on a fresh integer form
    fresh, checked = make_vector(list(v)), make_vector(list(v))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("symineq.inequality._sum_over_sums", counted)
        # the identity alone reduces row k, and only it
        left, right = proof_identity(fresh, k)
        assert reduced == [_integer_form(fresh).rows[k]]
        # after check_main, the identity reads the reduction lhs_main made
        main = check_main(checked, k)
        identity = check_proof_identity(checked, k)
        assert len(reduced) == 2 and reduced[1] is _integer_form(checked).rows[k]
    assert left == right == identity.lhs == identity.rhs == identity_oracle(v, k)
    assert main.lhs == lhs_oracle(v, k)


@settings(deadline=None)  # the oracles enumerate up to C(8, 4) subsets per k
@given(st.one_of(vectors2, wide_vectors2,
                 near_uniform_vectors.filter(lambda v: len(v) >= 2)))
def test_identity_and_lhs_match_their_oracles_in_either_order(v):
    # each order on a fresh copy of v: the identity alone, the identity
    # after lhs_main, and lhs_main after the identity
    for k in range(1, len(v)):
        lhs, identity = lhs_oracle(v, k), identity_oracle(v, k)
        assert proof_identity(make_vector(list(v)), k) == (identity, identity)
        u = make_vector(list(v))
        assert lhs_main(u, k) == lhs
        assert proof_identity(u, k) == (identity, identity)
        u = make_vector(list(v))
        assert proof_identity(u, k) == (identity, identity)
        assert lhs_main(u, k) == lhs
    # the form keeps the reduced row's pair, and lets it go with the memo
    [pair] = _integer_form(u).sums.values()
    held = sys.getrefcount(pair)
    del u
    lhs_main(make_vector([2, 3]), 1)
    assert sys.getrefcount(pair) == held - 1


@settings(deadline=None)  # the oracle sums up to C(8, 4) subsets of 6-digit rationals
@given(st.one_of(vectors2, wide_vectors2).filter(lambda v: len(v) >= 3), st.data())
def test_agreeing_identity_reads_no_e_row(v, data):
    # the identity takes E = e_k(b) from the row it compares, not from the
    # form's e row, so with e_k corrupted after check_main it is unchanged
    # (k >= 2: the identity does read e_1 = B, the total of b)
    k = data.draw(st.integers(min_value=2, max_value=len(v) - 1))
    check_main(v, k)
    form = _integer_form(v)
    ek = form.e[k]
    form.e[k] = ek + 1  # read, it would show
    try:
        with pytest.MonkeyPatch.context() as patch:
            forbid(patch, symmetric_row, elementary_symmetric)
            expected = identity_oracle(v, k)
            assert proof_identity(v, k) == (expected, expected)
    finally:
        form.e[k] = ek


def test_identity_reduces_each_side_of_disagreeing_groupings(monkeypatch):
    # the k-subset side off by one in a single group: each side keeps the
    # value of its own grouping, and the check witnesses the difference
    def off_by_one(ints, ks):
        [row] = products_by_sum(ints, ks)
        first = min(row)
        return [{**row, first: row[first] + 1}]

    v = make_vector([1, Fraction(2, 3), 5, 7])
    k = 2
    form = _integer_form(v)
    total = form.total
    right_groups = identity_groups_oracle(form.ints, k)
    left_groups = dict(right_groups)
    first = min(left_groups)
    left_groups[first] += total - first

    def reduced(groups):
        return k * sum(Fraction(p, s) for s, p in groups.items()) / total ** k

    monkeypatch.setattr("symineq.inequality.products_by_sum", off_by_one)
    left, right = proof_identity(v, k)
    assert left != right
    assert (left, right) == (reduced(left_groups), reduced(right_groups))
    assert right == identity_oracle(v, k)
    with pytest.raises(Violation) as raised:
        check_proof_identity(v, k)
    assert (raised.value.lhs, raised.value.rhs) == (left, right)


@given(uniform_vectors, st.data())
def test_identity_uniform_closed_form(v, data):
    if len(v) < 2:
        return
    n = len(v)
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    left, right = proof_identity(v, k)
    # at the unit-sum uniform point both sides are C(n,k) * (n-k) / n^k
    assert left == right == Fraction(math.comb(n, k) * (n - k), n ** k)


@given(vectors2, entry, st.data())
def test_identity_is_scale_invariant(v, scale, data):
    # the identity is evaluated on the unit-sum rescaling, so scaling v
    # cannot change either side
    k = data.draw(st.integers(min_value=1, max_value=len(v) - 1))
    scaled = make_vector([scale * a for a in v])
    assert proof_identity(scaled, k) == proof_identity(v, k)


def test_identity_rejects_boundary_k():
    v = make_vector([1, 2, 3])
    with pytest.raises(InputError):
        proof_identity(v, 0)
    with pytest.raises(InputError):
        proof_identity(v, 3)


@given(vectors2, st.data())
def test_check_identity_reports_equality(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v) - 1))
    report = check_proof_identity(v, k)
    assert report.is_equality
    assert report.slack == 0
    assert report.statement is Statement.PROOF_IDENTITY


# ---- reports, records, violations ----

def test_record_field_order_is_stable():
    record = report_to_record(check_main(make_vector([1, 2, 3]), 2))
    assert list(record) == ["n", "k", "statement", "lhs", "rhs", "slack", "is_equality"]
    assert record["lhs"] == "157/60"
    assert record["rhs"] == "11/4"
    assert record["slack"] == "2/15"
    assert record["is_equality"] is False


@given(vectors, st.data())
def test_record_roundtrip(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    report = check_main(v, k)
    record = report_to_record(report)
    assert [parse_scalar(record[side]) for side in ("lhs", "rhs", "slack")] == \
        [report.lhs, report.rhs, report.slack]
    assert (record["n"], record["k"], record["statement"], record["is_equality"]) == \
        (report.n, report.k, report.statement.value, report.is_equality)


def test_violation_carries_witness_and_message():
    v = make_vector([1, 2])
    err = Violation(Statement.MAIN_THEOREM, v, 1, Fraction(3), Fraction(5, 2))
    assert err.statement is Statement.MAIN_THEOREM
    assert err.v is v and err.k == 1
    assert err.lhs == 3 and err.rhs == Fraction(5, 2)
    text = str(err)
    assert "MainTheorem" in text and "n=2" in text and "k=1" in text
    assert "slack=-1/2" in text


def test_violation_names_an_entry_past_the_digit_limit_by_its_digit_count():
    # the message renders the vector entry by entry, so one entry too long
    # to print cannot keep a witnessed violation from being constructed
    v = make_vector([Fraction(10 ** 4400 + 1, 3), 1])
    err = Violation(Statement.MAIN_THEOREM, v, 1, Fraction(3), Fraction(2))
    assert err.v is v
    assert str(err).endswith(
        "slack=-1 v=PositiveVector((exact value of about 4401 digits is past the "
        f"{sys.get_int_max_str_digits()}-digit limit for rendering), 1)")
    short = Violation(Statement.MAIN_THEOREM, make_vector([1, Fraction(2, 3)]), 1,
                      Fraction(3), Fraction(2))
    assert str(short).endswith(f" v={make_vector([1, Fraction(2, 3)])!r}")


def test_reports_render_exact_strings():
    record = report_to_record(check_main(make_vector([4, Fraction(5, 2), Fraction(1, 2)]), 2))
    assert record["lhs"] == "1123/468"
    assert parse_scalar(record["lhs"]) == Fraction(1123, 468)
