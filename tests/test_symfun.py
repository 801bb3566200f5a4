import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from symineq.exact import InputError, make_vector
from symineq.symfun import (
    elementary_symmetric,
    products_by_sum,
    subset_terms,
    symmetric_row,
)

entry = st.fractions(min_value=Fraction(1, 100), max_value=100)
vectors = st.lists(entry, min_size=1, max_size=8).map(make_vector)


def ek_brute(v, k):
    # independent oracle: literal sum over explicit k-subsets
    return sum(math.prod(v[i] for i in s) for s in combinations(range(len(v)), k))


# ---- shared subset prefixes ----

@given(vectors, st.data())
def test_subset_prefixes_match_subset_ops(v, data):
    # the shared kernel against brute-force enumeration, subset by subset,
    # in lexicographic order: each level's prefixes, then the k-subset terms
    n, k = len(v), data.draw(st.integers(min_value=1, max_value=len(v)))
    levels, terms = subset_terms(v, k)
    for j, level in enumerate(levels):
        prefixes = [[v[i] for i in S] for S in combinations(range(n), j)
                    if not S or S[-1] < n - k + j]
        assert level == ([math.prod(S) for S in prefixes], [sum(S) for S in prefixes])
    assert len(levels) == k
    assert terms == [math.prod(S) / sum(S) for S in combinations(v, k)]


def test_subset_prefixes_frozen():
    # every level of (2, 3, 5, 7) up to the 2-subsets that begin 3-subsets,
    # and the 3-subsets' terms; then k = 1 and k = n
    assert subset_terms([2, 3, 5, 7], 3) == \
        ([([1], [0]), ([2, 3], [2, 3]), ([6, 10, 15], [5, 7, 8])], [3.0, 3.5, 5.0, 7.0])
    assert subset_terms([2, 3, 5], 1) == ([([1], [0])], [1.0, 1.0, 1.0])
    assert subset_terms([2, 3, 5], 3) == ([([1], [0]), ([2], [2]), ([6], [5])], [3.0])
    with pytest.raises(InputError):
        subset_terms([1, 2], 3)


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


# ---- the e_0..e_k row ----

@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=10), st.data())
def test_row_is_every_ek_and_its_e1_the_sum_of_ints(x, data):
    k = data.draw(st.integers(min_value=1, max_value=len(x)))
    row = symmetric_row(x, k)
    assert row == [ek_brute(x, j) for j in range(k + 1)]
    assert row[1] == sum(x)


@given(st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=12),
       st.data())
def test_row_e1_is_the_left_fold_of_floats(pool, data):
    # the float ratio reads sum(x) from e_1 of its row: from the int seeds 1
    # and 0 (exact under IEEE), e_1 adds the entries as reduce(add, x, 0.0)
    x = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))  # repeats
    k = data.draw(st.integers(min_value=1, max_value=len(x)))
    assert float.hex(symmetric_row(x, k)[1]) == float.hex(reduce(add, x, 0.0))


# ---- products grouped by subset sum ----

def by_sum_brute(ints, k):
    # independent oracle: explicit k-subsets, grouped by their sum
    grouped = {}
    for s in combinations(ints, k):
        grouped[sum(s)] = grouped.get(sum(s), 0) + math.prod(s)
    return grouped


def cleared(v):
    # the entries times the lcm of their denominators, as ints
    scale = math.lcm(*(a.denominator for a in v))
    return [int(a * scale) for a in v]


@given(vectors, st.data())
def test_products_by_sum_regroups_ek_of_scaled_integers(v, data):
    # the DP rows against e_k and against a brute-force grouping by sum
    k = data.draw(st.integers(min_value=1, max_value=len(v)))
    ints = cleared(v)
    [row] = products_by_sum(ints, (k,))
    assert sum(row.values()) == elementary_symmetric(ints, k)
    assert row == by_sum_brute(ints, k)


# few distinct subset sums, so many subsets merge; or wide rationals with
# their denominators cleared, so almost none do
colliding_ints = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=12)
six_digits = st.integers(min_value=10 ** 5, max_value=10 ** 6 - 1)
wide_ints = st.lists(st.builds(Fraction, six_digits, six_digits), min_size=1,
                     max_size=8).map(cleared)


@settings(deadline=None)  # the oracle enumerates up to 4095 subsets per example
@given(st.one_of(colliding_ints, wide_ints), st.data())
def test_one_pass_serves_every_k_like_a_pass_per_k(ints, data):
    # one pass for any ks (unsorted, repeated) against the pruned single-k
    # pass and the brute-force grouping, row by row
    ks = data.draw(st.one_of(
        st.just(range(1, len(ints) + 1)),
        st.lists(st.integers(min_value=1, max_value=len(ints)), min_size=1, max_size=6)))
    rows = products_by_sum(ints, ks)
    assert len(rows) == len(ks)
    for k, row in zip(ks, rows):
        assert row == products_by_sum(ints, (k,))[0] == by_sum_brute(ints, k)


def test_products_by_sum_frozen():
    # 2-subsets of (1, 2, 3, 4): sums 3, 4, 5, 5, 6, 7
    pairs = {3: 2, 4: 3, 5: 4 + 6, 6: 8, 7: 12}
    assert products_by_sum([1, 2, 3, 4], (2,)) == [pairs]
    assert products_by_sum([1, 2, 3, 4], (2, 1)) == [pairs, {1: 1, 2: 2, 3: 3, 4: 4}]
    assert products_by_sum([5], (1,)) == [{5: 5}]
    assert products_by_sum([1, 2], ()) == []
    with pytest.raises(InputError):
        products_by_sum([1, 2], (3,))
    with pytest.raises(InputError):
        products_by_sum([1, 2], (1, 0))
