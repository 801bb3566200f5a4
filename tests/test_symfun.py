import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from symineq.exact import InputError, make_vector
from symineq.symfun import (
    elementary_symmetric,
    iterate_k_subsets,
    products_by_sum,
    subset_product,
    subset_prefixes,
    subset_sum,
)

entry = st.fractions(min_value=Fraction(1, 100), max_value=100)
vectors = st.lists(entry, min_size=1, max_size=8).map(make_vector)


def ek_brute(v, k):
    # independent oracle: literal sum over explicit k-subsets
    return sum(math.prod(v[i] for i in s) for s in combinations(range(len(v)), k))


# ---- subset enumeration ----

def test_subsets_lexicographic_order_frozen():
    assert list(iterate_k_subsets(4, 2)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(iterate_k_subsets(3, 3)) == [(0, 1, 2)]
    assert list(iterate_k_subsets(3, 1)) == [(0,), (1,), (2,)]


@given(st.integers(min_value=1, max_value=10), st.data())
def test_subset_count_and_order(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    subsets = list(iterate_k_subsets(n, k))
    assert len(subsets) == math.comb(n, k)
    assert subsets == sorted(subsets)
    assert len(set(subsets)) == len(subsets)
    for s in subsets:
        assert len(s) == k
        assert all(0 <= i < n for i in s)
        assert list(s) == sorted(s)


@pytest.mark.parametrize("n,k", [(3, 0), (3, 4), (0, 1), (5, -1)])
def test_subset_enumeration_rejects_bad_sizes(n, k):
    with pytest.raises(InputError):
        iterate_k_subsets(n, k)


# ---- subset sum / product ----

def test_subset_sum_and_product_known_values():
    v = make_vector([1, 2, 3, 4])
    assert subset_sum(v, (0, 2)) == Fraction(4)
    assert subset_product(v, (0, 2)) == Fraction(3)
    assert subset_sum(v, (1, 2, 3)) == Fraction(9)
    assert subset_product(v, (1, 2, 3)) == Fraction(24)


def test_subset_ops_reject_bad_indices():
    v = make_vector([1, 2, 3])
    with pytest.raises(InputError):
        subset_sum(v, (0, 0))
    with pytest.raises(InputError):
        subset_product(v, (2, 1))
    with pytest.raises(InputError):
        subset_sum(v, (0, 3))
    with pytest.raises(InputError):
        subset_product(v, ())


@given(vectors, st.data())
def test_subset_ops_match_direct_arithmetic(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    s = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=len(v) - 1),
                min_size=k, max_size=k))))
    assert subset_sum(v, s) == sum(v[i] for i in s)
    assert subset_product(v, s) == math.prod(v[i] for i in s)


@given(vectors, st.data())
def test_subset_prefixes_match_subset_ops(v, data):
    # the shared kernel against the brute-force oracles, subset by subset:
    # every prefix, completed by each entry from its start on, in order
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    products, sums, starts = subset_prefixes(v.entries, k)
    completed = [(p * a, t + a)
                 for p, t, s in zip(products, sums, starts) for a in v.entries[s:]]
    expected = [(subset_product(v, s), subset_sum(v, s))
                for s in iterate_k_subsets(len(v), k)]
    assert completed == expected


def test_subset_prefixes_frozen():
    # the 2-subsets of (2, 3, 5, 7) that begin 3-subsets, then k = 1 and k = n
    assert subset_prefixes([2, 3, 5, 7], 3) == ([6, 10, 15], [5, 7, 8], (2, 3, 3))
    assert subset_prefixes([2, 3, 5], 1) == ([1], [0], (0,))
    assert subset_prefixes([2, 3, 5], 3) == ([6], [5], (2,))
    with pytest.raises(InputError):
        subset_prefixes([1, 2], 3)


# ---- elementary symmetric polynomials ----

def test_e1_is_sum_and_en_is_product():
    v = make_vector([Fraction(1, 2), 3, Fraction(7, 5)])
    assert elementary_symmetric(v, 1) == v.total()
    assert elementary_symmetric(v, 3) == Fraction(1, 2) * 3 * Fraction(7, 5)


def test_ek_frozen_values():
    v = make_vector([1, 2, 3, 4])
    assert elementary_symmetric(v, 1) == 10
    assert elementary_symmetric(v, 2) == 35
    assert elementary_symmetric(v, 3) == 50
    assert elementary_symmetric(v, 4) == 24


def test_ek_of_all_ones_is_binomial():
    # Pascal-row oracle: e_k(1,...,1) counts the k-subsets
    v = make_vector([1] * 12)
    for k in range(1, 13):
        assert elementary_symmetric(v, k) == math.comb(12, k)
    assert elementary_symmetric(v, 5) == 792


def test_ek_rejects_bad_k():
    v = make_vector([1, 2, 3])
    with pytest.raises(InputError):
        elementary_symmetric(v, 0)
    with pytest.raises(InputError):
        elementary_symmetric(v, 4)


@given(vectors, st.data())
def test_ek_matches_bruteforce_oracle(v, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    assert elementary_symmetric(v, k) == ek_brute(v, k)


@given(vectors, st.randoms(use_true_random=False), st.data())
def test_ek_is_symmetric_under_permutation(v, rng, data):
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    shuffled = list(v)
    rng.shuffle(shuffled)
    assert elementary_symmetric(make_vector(shuffled), k) == elementary_symmetric(v, k)


@given(vectors, st.data())
def test_ek_split_recurrence(v, data):
    # e_k(v, a) = e_k(v) + a * e_{k-1}(v): the DP row update, checked
    # against fresh top-level evaluations
    a = data.draw(entry)
    k = data.draw(st.integers(min_value=2, max_value=len(v) + 1))
    extended = make_vector(list(v) + [a])
    expected = a * elementary_symmetric(v, k - 1)
    if k <= len(v):
        expected += elementary_symmetric(v, k)
    assert elementary_symmetric(extended, k) == expected


# ---- products grouped by subset sum ----

@given(vectors, st.data())
def test_products_by_sum_regroups_ek_of_scaled_integers(v, data):
    # the DP rows against e_k and against a brute-force grouping by sum
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    scale = math.lcm(*(a.denominator for a in v))
    ints = [int(a * scale) for a in v]
    row = products_by_sum(ints, k)
    assert sum(row.values()) == elementary_symmetric(ints, k)
    expected = {}
    for s in combinations(ints, k):
        expected[sum(s)] = expected.get(sum(s), 0) + math.prod(s)
    assert row == expected


def test_products_by_sum_frozen():
    # 2-subsets of (1, 2, 3, 4): sums 3, 4, 5, 5, 6, 7
    assert products_by_sum([1, 2, 3, 4], 2) == {3: 2, 4: 3, 5: 4 + 6, 6: 8, 7: 12}
    assert products_by_sum([5], 1) == {5: 5}
    with pytest.raises(InputError):
        products_by_sum([1, 2], 3)
