"""Combinatorial kernels: k-subset enumeration, subset sums/products, and
elementary symmetric polynomials.

Subsets are canonical strictly-increasing index tuples, emitted in
lexicographic order (the deterministic contract every checker and golden
transcript relies on). There are three kernels. `subset_terms` yields each
k-subset's (product, sum) and `elementary_symmetric` is a row dynamic
program; both are generic over the number type, so the exact checkers,
which pass the integers of a vector with its denominators cleared, and the
float objective share them. `products_by_sum` is the same row recurrence
on integers with every row keyed by subset sum, which the exact left side
of the main bound is built on. Brute-force enumeration through
`iterate_k_subsets` and the subset ops stays available as their independent
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from symineq.exact import PositiveVector

SubsetIndex = tuple[int, ...]


def check_k(k: int, n: int) -> None:
    """Raise ValueError unless 0 < k <= n."""
    if not 0 < k <= n:
        raise ValueError(f"k must satisfy 0 < k <= n, got k={k} n={n}")


def iterate_k_subsets(n: int, k: int) -> Iterator[SubsetIndex]:
    """Yield all C(n, k) k-subsets of range(n) in lexicographic order."""
    check_k(k, n)
    return iter(combinations(range(n), k))


def subset_terms(entries: Sequence, k: int) -> Iterator[tuple]:
    """Yield (product, sum) of every k-subset of entries, in lexicographic order.

    Both are seeded from the subset's first entry, not from 1 and 0: that
    saves an operation per subset and gives the same floats.
    """
    check_k(k, len(entries))
    for s in combinations(entries, k):
        prod = tot = s[0]
        for a in s[1:]:
            prod *= a
            tot += a
        yield prod, tot


def _validate_subset(v: PositiveVector, s: SubsetIndex) -> None:
    if not 1 <= len(s) <= len(v):
        raise ValueError(f"subset cardinality must be in 1..{len(v)}, got {len(s)}")
    prev = -1
    for i in s:
        if not prev < i < len(v):
            raise ValueError(f"invalid subset index {i} for n={len(v)}")
        prev = i


def subset_sum(v: PositiveVector, s: SubsetIndex) -> Fraction:
    """Exact sum of the entries of v selected by s."""
    _validate_subset(v, s)
    return sum((v[i] for i in s), Fraction(0))


def subset_product(v: PositiveVector, s: SubsetIndex) -> Fraction:
    """Exact product of the entries of v selected by s."""
    _validate_subset(v, s)
    out = Fraction(1)
    for i in s:
        out *= v[i]
    return out


def elementary_symmetric(v: Sequence, k: int):
    """e_k(v): the sum over all k-subsets of their entry products.

    Computed by the O(n*k) row recurrence
    e_k(a_1..a_m) = e_k(a_1..a_{m-1}) + a_m * e_{k-1}(a_1..a_{m-1}),
    updating in place with j descending so each a_m is used once. The result
    has the entries' number type: the int seeds 1 and 0 give way to it.
    """
    check_k(k, len(v))
    row = [1] + [0] * k
    for m, a in enumerate(v, start=1):
        for j in range(min(m, k), 0, -1):
            row[j] += a * row[j - 1]
    return row[k]


def products_by_sum(ints: Sequence[int], k: int) -> dict[int, int]:
    """Map each k-subset sum s to the total product of the k-subsets summing to s.

    The `elementary_symmetric` row recurrence with every row keyed by subset
    sum: rows[j][s] is the total of prod(S) over the j-subsets S of the
    entries seen so far with sum(S) = s, so summing the returned values gives
    e_k. Subsets that share a sum are merged, so the cost follows the number
    of distinct sums, not C(n, k). After entry m only rows j >= k - (n - m)
    can still reach row k; the others are dropped.
    """
    n = len(ints)
    check_k(k, n)
    rows = [{0: 1}] + [{} for _ in range(k)]
    for m, b in enumerate(ints, start=1):
        need = k - (n - m)  # the lowest row that can still reach row k
        for j in range(min(m, k), max(need, 1) - 1, -1):
            dst = rows[j]
            for s, p in rows[j - 1].items():
                s += b
                dst[s] = dst.get(s, 0) + p * b
        if need > 0:
            rows[need - 1] = {}  # it fed row `need` for the last time
    return rows[k]
