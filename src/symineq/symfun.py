"""Combinatorial kernels: elementary symmetric polynomials, products grouped
by subset sum, and shared subset prefixes.

Subsets are canonical strictly-increasing index tuples, taken in
lexicographic order: the seeded float objective's bytes rely on it, no
exact result does. There are three kernels. `elementary_symmetric` is
a row dynamic program, generic over the number type, so the exact checkers,
which pass the integers of a vector with its denominators cleared, and the
float objective share it. `products_by_sum` is the same recurrence on
integers with every row keyed by subset sum; the exact left side of the
main bound and the k-subset side of the proof identity are built on it.
One pass of it serves every requested k, since row j of the pass is the
answer for k = j, so a check of many k's on one vector runs it once.
`subset_prefixes` builds the products and sums of the (k-1)-subsets level
by level, so a prefix that many k-subsets share is folded once, and serves
the float objective only: it gives every product and sum bit for bit as a
left-to-right fold over the subset would. Their brute-force oracles, which
enumerate every subset, live in the tests. Every argument check raises
`InputError`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from symineq.exact import InputError


def check_k(k: int, n: int) -> None:
    """Raise InputError unless 0 < k <= n."""
    if not 0 < k <= n:
        raise InputError(f"k must satisfy 0 < k <= n, got k={k} n={n}")


# Bounded. The float objective needs one plan per (n, k): a maximize run
# uses one, and a process that runs many searches keeps the 32 most recent.
# At n = 20 the plans of all k together hold about 33 MB, the largest
# (k = 11) about 6 MB.
@lru_cache(maxsize=32)
def _prefix_plan(n: int, k: int) -> tuple[tuple, tuple[int, ...]]:
    """The index plan of `subset_prefixes` for n entries and subset size k.

    Level j lists the j-subsets, in lexicographic order, that k - j larger
    indices can still complete: for each, the position of its (j-1)-subset
    in the level before and the index it adds. The last level's starts are
    one past each (k-1)-subset's largest index. The plan is O(C(n, k-1)).
    """
    levels = []
    starts: tuple[int, ...] = (0,)
    for j in range(1, k):
        limit = n - k + j  # indices below this leave k - j entries to come
        parents = tuple(q for q, s in enumerate(starts) for _ in range(s, limit))
        indices = tuple(i for s in starts for i in range(s, limit))
        levels.append((parents, indices))
        starts = tuple(i + 1 for i in indices)
    return tuple(levels), starts


def subset_prefixes(entries: Sequence, k: int) -> tuple[list, list, tuple[int, ...]]:
    """(products, sums, starts) of the (k-1)-subsets that begin k-subsets.

    Prefix q completed by each entry a of entries[starts[q]:], in turn, is a
    k-subset with product products[q] * a and sum sums[q] + a; taken over q
    in order, these are all k-subsets in lexicographic order. Each level is
    built from the one before, seeded from 1 and 0, so the products and sums
    match a left-to-right fold over each subset exactly, floats included
    (1 * a == a and 0 + a == a), while a shared prefix is folded once.
    """
    check_k(k, len(entries))
    levels, starts = _prefix_plan(len(entries), k)
    products, sums = [1], [0]
    for parents, indices in levels:
        added = [entries[i] for i in indices]
        products = [products[q] * a for q, a in zip(parents, added)]
        sums = [sums[q] + a for q, a in zip(parents, added)]
    return products, sums, starts


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


def products_by_sum(ints: Sequence[int], ks: Sequence[int]) -> list[dict[int, int]]:
    """For each k in ks, map each k-subset sum s to the total product of the
    k-subsets summing to s.

    The `elementary_symmetric` row recurrence with every row keyed by subset
    sum: rows[j][s] is the total of prod(S) over the j-subsets S of the
    entries seen so far with sum(S) = s, so summing row k's values gives
    e_k. Subsets that share a sum are merged, so the cost follows the number
    of distinct sums, not C(n, k). One pass builds the rows up to max(ks)
    and serves every k in ks; after entry m only rows j >= min(ks) - (n - m)
    can still reach a requested row, and the others are dropped. The
    single-k case is ks = (k,).
    """
    n = len(ints)
    for k in ks:
        check_k(k, n)
    low, top = min(ks, default=0), max(ks, default=0)
    rows = [{0: 1}] + [{} for _ in range(top)]
    for m, b in enumerate(ints, start=1):
        need = low - (n - m)  # the lowest row that can still reach row `low`
        for j in range(min(m, top), max(need, 1) - 1, -1):
            dst = rows[j]
            for s, p in rows[j - 1].items():
                s += b
                dst[s] = dst.get(s, 0) + p * b
        if need > 0:
            rows[need - 1] = {}  # it fed row `need` for the last time
    return [rows[k] for k in ks]
