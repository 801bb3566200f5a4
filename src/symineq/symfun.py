"""Combinatorial kernels: elementary symmetric polynomials, products grouped
by subset sum, and subset terms over shared prefixes.

- `symmetric_row`: the row e_0..e_k of any number type, the one e_k kernel
  of both the float objective and the exact checks.
- `elementary_symmetric`: e_k alone. Nothing in `src/` calls it; it stays
  only as a span target of the benchmark's tracer, until that span moves.
- `products_by_sum`: the exact subset products totalled by subset sum, for
  the main bound's left side; `products_and_cofactors_by_sum` adds each
  sum's total of e_{k-1}, for the certificate of `inequality.main_verdict`.
- `subset_terms`, `moved_terms`: the float objective's terms prod(S)/sum(S)
  at a point, and at that point with one entry moved.
- `check_k`: the rule 0 < k <= n.

Subsets are canonical strictly-increasing index tuples in lexicographic
order; the seeded float objective's bytes rely on it, no exact result does.
The brute-force oracles live in the tests. Every argument check raises
`InputError`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Sequence

from symineq.exact import InputError


def check_k(k: int, n: int) -> None:
    """Raise InputError unless 0 < k <= n."""
    if not 0 < k <= n:
        raise InputError(f"k must satisfy 0 < k <= n, got k={k} n={n}")


# Bounded. Only the float objective reaches it, one (n, k) per search; 32
# plans cover every 1 < k < n of n = 3..9 (28). At n = 20 the plans of all k
# hold 59 MiB, k = 10 9.8 MiB; the gradient's tables add 57 MiB there.
@lru_cache(maxsize=32)
def _prefix_plan(n: int, k: int) -> tuple:
    """The index plan of `subset_terms` for n entries and subset size k.

    Level j lists the j-subsets, in lexicographic order, that k - j larger
    indices can still complete: for each, the position of its (j-1)-subset
    in the level before and the index it adds. Level k lists the k-subsets.
    The plan is O(C(n, k)).
    """
    levels = []
    lows: tuple[int, ...] = (0,)  # the lowest index each subset can add
    for j in range(1, k + 1):
        limit = n - k + j  # indices below this leave k - j entries to come
        parents = tuple(q for q, low in enumerate(lows) for _ in range(low, limit))
        indices = tuple(i for low in lows for i in range(low, limit))
        levels.append((parents, indices))
        lows = tuple(i + 1 for i in indices)
    return tuple(levels)


@lru_cache(maxsize=2)
def _coordinate_plan(n: int, k: int) -> tuple:
    """Per coordinate i and plan level, the (position, parent, index)
    triples of the subsets that hold i, in plan order: each subset's place in
    its level, and its parent and added index from `_prefix_plan`.

    A level's triples are built once and shared by every coordinate that
    holds them, so a level of L subsets of j entries costs L triples and
    j * L references, and `moved_terms` reads each subset's parent and
    index with no plan lookup. The tables take 0.37 MiB at (13, 6), 3.4 MiB
    at (16, 8), 14 MiB at (18, 9) and 57 MiB at (20, 10).
    """
    plan, held = _prefix_plan(n, k), []
    shared = [tuple(zip(range(len(parents)), parents, indices))
              for parents, indices in plan]
    for i in range(n):
        rows, below = [], [False]  # whether each subset of the level below holds i
        for (parents, indices), triples in zip(plan, shared):
            below = [a == i or below[q] for q, a in zip(parents, indices)]
            rows.append(tuple(compress(triples, below)))
        held.append(tuple(rows))
    return tuple(held)


def subset_terms(entries: Sequence, k: int) -> tuple[list, list]:
    """(levels, terms): the (products, sums) of plan levels 0..k-1, from
    ([1], [0]) on, and the k-subsets' terms prod(S)/sum(S), in plan order,
    which is lexicographic.

    Each level is built from the one before, seeded from 1 and 0, so the
    products and sums match a left-to-right fold over each subset exactly,
    floats included (1 * a == a and 0 + a == a), while a shared prefix is
    folded once; each term is completed from its (k-1)-prefix the same way.
    """
    check_k(k, len(entries))
    plan = _prefix_plan(len(entries), k)
    levels = [([1], [0])]
    for parents, indices in plan[:-1]:  # the recurrence over a whole level
        products, sums = levels[-1]
        added = [entries[i] for i in indices]
        levels.append(([products[q] * a for q, a in zip(parents, added)],
                       [sums[q] + a for q, a in zip(parents, added)]))
    (parents, indices), (products, sums) = plan[-1], levels[-1]
    terms = [products[q] * a / (sums[q] + a)
             for q, a in zip(parents, [entries[i] for i in indices])]
    return levels, terms


def moved_terms(levels: list, terms: list, entries: Sequence, i: int) -> list:
    """The k-subset terms of entries, which differ from x at i only, given
    x's levels and terms (`subset_terms(x, k)`).

    Each level is copied from x's and rebuilt in place, by the operations of
    `subset_terms`, at the positions of i's triples (`_coordinate_plan`),
    which carry each subset's parent and added index; so are the terms.
    """
    held = _coordinate_plan(len(entries), len(levels))[i]
    products, sums = levels[0]
    for (base_products, base_sums), triples in zip(levels[1:], held):
        below_products, below_sums = products, sums
        products, sums = base_products.copy(), base_sums.copy()
        for m, q, index in triples:  # the recurrence in place, at i's subsets
            a = entries[index]
            products[m] = below_products[q] * a
            sums[m] = below_sums[q] + a
    terms = terms.copy()
    for m, q, index in held[-1]:
        a = entries[index]
        terms[m] = products[q] * a / (sums[q] + a)
    return terms


def symmetric_row(v: Sequence, k: int) -> list:
    """The row (e_0, ..., e_k) of v, from that of no entries, [1, 0, ..., 0].

    The O(n*k) row recurrence
    e_j(a_1..a_m) = e_j(a_1..a_{m-1}) + a_m * e_{j-1}(a_1..a_{m-1}),
    with j descending so each a_m is used once. The row has the entries'
    number type: the int seeds 1 and 0 give way to it, so e_1 is
    0 + a_1 + a_2 + ..., the left fold of v, floats included.
    """
    row = [1] + [0] * k
    for m, a in enumerate(v):
        for j in range(min(m + 1, k), 0, -1):
            row[j] += a * row[j - 1]
    return row


def elementary_symmetric(v: Sequence, k: int):
    """e_k(v): the sum over all k-subsets of their entry products."""
    check_k(k, len(v))
    return symmetric_row(v, k)[k]


def products_by_sum(ints: Sequence[int], ks: Sequence[int]) -> list[dict[int, int]]:
    """For each k in ks, map each k-subset sum s to the total product of the
    k-subsets summing to s.

    The `symmetric_row` recurrence with every row keyed by subset sum:
    rows[j][s] is the total of prod(S) over the j-subsets S of the entries
    seen so far with sum(S) = s, so summing row k's values gives e_k.
    Subsets that share a sum are merged, so the cost follows the number of
    distinct sums, not C(n, k). One pass builds the rows up to max(ks)
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


def products_and_cofactors_by_sum(ints: Sequence[int], k: int) -> dict[int, tuple[int, int]]:
    """Map each k-subset sum s to (P(s), E(s)): the totals of prod(T) and of
    e_{k-1}(T) over the k-subsets T with sum(T) = s.

    The second form of `products_by_sum`, for one k. Adding b to a subset T'
    gives prod(T' + b) = b * prod(T') and e_j(T' + b) = e_j(T') + b * e_{j-1}(T'),
    where e_j(T') is prod(T') for j = |T'|; so each row carries (P, E) with
    P += b * P' and E += b * E' + P', seeded with (1, 0) for the empty subset.
    It is a loop of its own so that `products_by_sum`, behind every exact
    check of the main bound, keeps one product per sum.
    """
    n = len(ints)
    check_k(k, n)
    rows = [{0: (1, 0)}] + [{} for _ in range(k)]
    for m, b in enumerate(ints, start=1):
        need = k - (n - m)  # the lowest row that can still reach row k
        for j in range(min(m, k), max(need, 1) - 1, -1):
            dst = rows[j]
            for s, (p, e) in rows[j - 1].items():
                s += b
                q, r = dst.get(s, (0, 0))
                dst[s] = (q + p * b, r + e * b + p)
        if need > 0:
            rows[need - 1] = {}  # it fed row `need` for the last time
    return rows[k]
