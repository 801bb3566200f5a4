import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from symineq.exact import InputError, make_vector, parse_scalar
from symineq.inequality import (
    EqualityClass,
    InequalityReport,
    Statement,
    Violation,
    check_main,
    check_pairwise_lemma,
    check_proof_identity,
    check_reciprocal_lemma,
    classify_equality,
    lhs_main,
    proof_identity,
    report_from_record,
    report_to_record,
    rhs_main,
)

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


def lhs_oracle(v, k):
    # independent route: explicit subsets, stdlib prod/sum
    return sum(math.prod(v[i] for i in s) / sum(v[i] for i in s)
               for s in combinations(range(len(v)), k))


def identity_oracle(v, k):
    # the identity's left sum in Fractions on the unit-sum rescaling w = v / sum(v)
    total = sum(v.entries)
    w = [a / total for a in v]
    return k * sum(math.prod(w[i] for i in s) * (1 - sum(w[i] for i in s))
                   / sum(w[i] for i in s) for s in combinations(range(len(w)), k))


def rhs_oracle(v, k):
    ek = sum(math.prod(v[i] for i in s) for s in combinations(range(len(v)), k))
    return Fraction(len(v), k) * ek / sum(v.entries)


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
    prod = math.prod(v.entries)
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
    n = len(v)
    total = v.total()
    averages_side = sum((n - 1) / (total - a) for a in v)
    reciprocal_side = sum(1 / a for a in v)
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


# ---- equality classification ----

@given(vectors, st.data())
def test_classification_agrees_with_slack(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    cls = classify_equality(v, k)
    report = check_main(v, k)
    if cls is EqualityClass.STRICT:
        assert not report.is_equality
    else:
        assert report.is_equality
    if k in (1, len(v)):
        assert cls is EqualityClass.BOUNDARY_ALWAYS_EQUAL


def test_classification_cases():
    assert classify_equality(make_vector([1, 2, 3]), 1) is EqualityClass.BOUNDARY_ALWAYS_EQUAL
    assert classify_equality(make_vector([1, 2, 3]), 3) is EqualityClass.BOUNDARY_ALWAYS_EQUAL
    assert classify_equality(make_vector([4, 4, 4]), 2) is EqualityClass.UNIFORM_EQUAL
    assert classify_equality(make_vector([1, 2, 3]), 2) is EqualityClass.STRICT


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
    assert report_from_record(report_to_record(report)) == report


def test_violation_carries_witness_and_message():
    v = make_vector([1, 2])
    err = Violation(Statement.MAIN_THEOREM, v, 1, Fraction(3), Fraction(5, 2))
    assert err.statement is Statement.MAIN_THEOREM
    assert err.v is v and err.k == 1
    assert err.lhs == 3 and err.rhs == Fraction(5, 2)
    text = str(err)
    assert "MainTheorem" in text and "n=2" in text and "k=1" in text
    assert "slack=-1/2" in text


def test_reports_render_exact_strings():
    record = report_to_record(check_main(make_vector([4, Fraction(5, 2), Fraction(1, 2)]), 2))
    assert record["lhs"] == "1123/468"
    assert parse_scalar(record["lhs"]) == Fraction(1123, 468)
