"""Exact evaluation of the subset-product inequality family.

The main bound: for positive a_1..a_n and any k-subset S, write prod(a_S)
for the product and sum(a_S) for the sum over S. Then

    sum_{|S|=k} prod(a_S)/sum(a_S)  <=  (n/k) * e_k(a) / (a_1+...+a_n)

What each public function decides:

- `lhs_main`, `rhs_main`: the bound's two sides; `check_main` reports them
  with the slack rhs - lhs and whether it is an equality.
- `main_slack_term`: an exact lower bound on that slack, one subset's term
  of the proof's certificate, read with no subset-sum pass.
- `main_slack_floor`: an exact lower bound on that slack, row k's sum with
  each quotient floored.
- `main_slack_exceeds`: whether that slack is proved above a given value,
  by the term and then, after a positive term, the floor.
- `main_verdict`: the sign of that slack: 1 once it is proved above 0,
  else read off `check_main`.
- `check_reciprocal_lemma`, `check_pairwise_lemma`: the supporting bounds.
- `proof_identity`, `check_proof_identity`: the rearrangement identity
  behind the proof.
- `report_to_record`: a report's flat record of canonical strings.

Every verdict and bound is exact, with no float anywhere. Each check reads
the vector's integer form (`_IntegerForm`). A negative slack raises
`Violation` with its exact witness, never returned in a report; an argument
outside a statement's domain raises `InputError`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations, repeat
from operator import floordiv, lshift, mul
from typing import NamedTuple, Sequence

from symineq.exact import InputError, PositiveVector, _shown, render_scalar
from symineq.symfun import check_k, products_by_sum, symmetric_row


class Statement(Enum):
    MAIN_THEOREM = "MainTheorem"
    RECIPROCAL_LEMMA = "ReciprocalLemma"
    PAIRWISE_LEMMA = "PairwiseLemma"
    PROOF_IDENTITY = "ProofIdentity"


class Violation(Exception):
    """An exact check came out the wrong way; carries the witness for forensics."""

    def __init__(self, statement: Statement, v: PositiveVector, k: int,
                 lhs: Fraction, rhs: Fraction):
        self.statement = statement
        self.v = v
        self.k = k
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"{statement.value} violated at n={len(v)} k={k}: "
            f"lhs={_shown(lhs)} rhs={_shown(rhs)} slack={_shown(rhs - lhs)} v={v!r}"
        )


class InequalityReport(NamedTuple):
    n: int
    k: int
    statement: Statement
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    is_equality: bool


def report_to_record(report: InequalityReport) -> dict:
    """Flat record with canonical fraction strings, for the CLI renderers."""
    return {
        "n": report.n,
        "k": report.k,
        "statement": report.statement.value,
        "lhs": render_scalar(report.lhs),
        "rhs": render_scalar(report.rhs),
        "slack": render_scalar(report.slack),
        "is_equality": report.is_equality,
    }


def _report(statement: Statement, v: PositiveVector, k: int,
            lhs: Fraction, rhs: Fraction) -> InequalityReport:
    # a Fraction's denominator is positive, so its numerator carries the sign
    slack = rhs - lhs
    if slack.numerator < 0:
        raise Violation(statement, v, k, lhs, rhs)
    return InequalityReport(
        n=len(v), k=k, statement=statement,
        lhs=lhs, rhs=rhs, slack=slack, is_equality=slack.numerator == 0,
    )


# --------------------------------------------------------------------------
# Main bound
# --------------------------------------------------------------------------

class _IntegerForm(NamedTuple):
    """A vector v with its denominators cleared: L is their lcm, b = v*L in
    integers, e the row (e_0, ..., e_n) of b (`symmetric_row`) and B = sum(b)
    its e_1. `rows` holds the `products_by_sum` rows built for v so far, by
    k (`row`), and `sums` the reductions of those rows asked for (`row_sum`)."""
    v: PositiveVector
    ints: tuple[int, ...]
    scale: int
    e: list[int]
    rows: dict[int, dict[int, int]]
    sums: dict[int, tuple[int, int]]

    @property
    def total(self) -> int:
        return self.e[1]

    def row(self, k: int) -> dict[int, int]:
        """Row k of `products_by_sum` on b: each k-subset sum s maps to the
        total of prod(b_S) over the k-subsets with sum s. Row n is the one
        n-subset, {B: e_n}, read from the e row with no pass. A vector runs
        at most two passes for the rows below n: the first of them asked of
        the form comes from a pass pruned to its k, so a single-k check
        holds one row, and a later request for one the form does not hold
        runs one pass over every k, after which the form keeps every row
        (those it held stay)."""
        if k not in self.rows:
            n = len(self.ints)
            check_k(k, n)
            if k == n:
                self.rows[k] = {self.total: self.e[n]}
            else:
                ks = range(1, n + 1) if any(j < n for j in self.rows) else (k,)
                for j, built in zip(ks, products_by_sum(self.ints, ks)):
                    self.rows.setdefault(j, built)
        return self.rows[k]

    def row_sum(self, k: int) -> tuple[int, int]:
        """(N, D) with N/D = sum_s P(s)/s over row k (`_sum_over_sums`),
        unreduced: each k is reduced once, and `lhs_main` and the proof
        identity both read it."""
        if k not in self.sums:
            self.sums[k] = _sum_over_sums(self.row(k))
        return self.sums[k]


# A memo of one entry: the integer form of the last vector asked for, so the
# checks of one vector clear its denominators, build its e row and run their
# passes once. It is keyed by the vector object (`is`): hashing a tuple of
# Fractions costs more than the form itself. The entry holds the vector, so
# its id cannot be reused while the entry stands, and a new vector replaces
# the entry whole. Only a tuple is kept, since a list could change between
# two calls. Threads that race each get a whole entry, and at worst build a
# form or a pass twice.
_memo = _IntegerForm(None, (), 1, [1, 0], {}, {})


def _integer_form(v: PositiveVector) -> _IntegerForm:
    """The integer form of v, from the memo when v was the last vector asked for."""
    global _memo
    form = _memo
    if form.v is not v:
        scale = math.lcm(*(a.denominator for a in v))
        ints = tuple([a.numerator * (scale // a.denominator) for a in v])
        form = _IntegerForm(v, ints, scale, symmetric_row(ints, len(ints)), {}, {})
        if isinstance(v, tuple):
            _memo = form
    return form


# A row of at most this many sums is added over one common denominator.
# The lcm of the sums grows with each one, so on a wide row that costs more
# than the tree. On the reductions of the benchmark's sweep catalog and
# integer fuzz (one run, x86_64, CPython 3.11) it took 0.54-0.85 of the
# tree's time at 2-64 sums (1.3 at a single sum, a few microseconds in all),
# 0.89-1.13 at 65-128 and 1.11-1.42 at 129-512.
_COMMON_DENOMINATOR_MAX = 64


def _sum_over_sums(by_sum: dict[int, int]) -> tuple[int, int]:
    """(num, den) with num/den = sum_s N(s)/s, for by_sum mapping each
    subset sum s to N(s); the pair is not reduced, and each caller builds
    its Fraction.

    The method follows the number of sums. Up to `_COMMON_DENOMINATOR_MAX`
    of them, D = lcm of the sums and the numerator sum_s N(s)*(D/s) are
    built in C, with no Python step per term. A larger row cancels each
    term by one small gcd, then adds the terms as a balanced tree of
    unreduced (numerator, denominator) pairs, so the operands grow evenly.
    Either way the only large gcd is the one in the Fraction its caller
    builds.
    """
    if len(by_sum) <= _COMMON_DENOMINATOR_MAX:
        # reduce, not lcm(*by_sum): building that argument tuple raised the
        # peak RSS of 600 sweep passes by about 0.5 MB (x86_64, CPython 3.11)
        den = reduce(math.lcm, by_sum)
        return sum(map(mul, by_sum.values(), map(floordiv, repeat(den), by_sum))), den
    terms = []
    for s, p in by_sum.items():
        # the entries are multiples of L / q_i, so s and N(s) share the
        # factors of L that no denominator in the subsets uses
        g = math.gcd(p, s)
        terms.append((p // g, s // g))
    while len(terms) > 1:
        merged = [(n1 * d2 + n2 * d1, d1 * d2)
                  for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def lhs_main(v: PositiveVector, k: int) -> Fraction:
    """Sum over all k-subsets S of prod(a_S) / sum(a_S), exactly.

    A subset enters only through its product and its sum, so subsets that
    share a sum are added before the one division. On the integer form
    b = a*L, lhs = sum_s P(s)/s / L^(k-1), where P(s) is the total of
    prod(b_S) over the k-subsets with sum(b_S) = s (the form's row k).
    """
    form = _integer_form(v)
    num, den = form.row_sum(k)
    return Fraction(num, den * form.scale ** (k - 1))


def rhs_main(v: PositiveVector, k: int) -> Fraction:
    """(n/k) * e_k(v) / sum(v) = n * e_k(b) / (k * L^(k-1) * B) on b = a*L,
    with e_k(b) and B = e_1(b) read from the form's e row. It reads no row
    of the dynamic program, so no earlier call changes what it returns.
    """
    n = len(v)
    check_k(k, n)
    form = _integer_form(v)
    return Fraction(n * form.e[k], k * form.scale ** (k - 1) * form.total)


def main_slack_floor(v: PositiveVector, k: int) -> tuple[int, int]:
    """(N, D), unreduced with D > 0: N/D is strictly below the main slack
    rhs_main(v, k) - lhs_main(v, k), and within 2**-64 * lhs_main(v, k) of
    it. It reads the form's row k and e row and reduces nothing; N may be
    negative.

    On the integer form, L^(k-1) * slack = Y - X with Y = n*e_k(b)/(k*B)
    and X = sum_s P(s)/s over the m sums s of row k. Each quotient is
    floored to a multiple of 2**-w, T = sum_s floor(P(s) * 2**w / s), and
    floor(x) > x - 1 gives 2**w * X < T + m. So

        slack > (n*e_k * 2**w - k*B * (T + m)) / (k*B * L^(k-1) * 2**w).

    As X >= e_k / max(s), w is picked from bit lengths so that
    2**w * X > 2**64 * m, which keeps the loss below 2**-64 * lhs. On a wide
    row w is negative, and each quotient is a small floor(P(s) / (s*2**-w)).
    """
    form = _integer_form(v)
    row, e_k = form.row(k), form.e[k]
    m = len(row)
    w = 65 + m.bit_length() + max(row).bit_length() - e_k.bit_length()
    up, down = max(w, 0), max(-w, 0)
    floors = sum(map(floordiv, map(lshift, row.values(), repeat(up)),
                     map(lshift, row, repeat(down))))
    kb = k * form.total
    return (((len(form.ints) * e_k) << up) - ((kb * (floors + m)) << down),
            (kb * form.scale ** (k - 1)) << up)


def check_main(v: PositiveVector, k: int) -> InequalityReport:
    """Evaluate both sides of the main bound and report the exact slack.

    n = 1 is allowed: both sides are 1 and the slack is 0. k = 1 and k = n
    are always equalities on any vector (both sides coincide algebraically);
    for 1 < k < n equality holds exactly when all entries are equal.
    """
    return _report(Statement.MAIN_THEOREM, v, k, lhs_main(v, k), rhs_main(v, k))


def main_slack_term(v: PositiveVector, k: int) -> tuple[int, int]:
    """(N, D), unreduced with D > 0: N/D is an exact lower bound on the main
    slack rhs_main(v, k) - lhs_main(v, k), the certificate term of one
    k-subset. It costs O(k) integer operations on the form and no pass.

    On the integer form b = v*L with B = sum(b), the proof writes the slack
    as a sum over the k-subsets T:

        rhs - lhs = sum_T (B - s_T) * G_T / (s_T * k^2 * B * L^(k-1)),
        G_T = s_T * e_{k-1}(T) - k^2 * prod(T) = prod(T) * (s_T * sum(1/T) - k^2),

    with s_T = sum(T). AM-HM gives s_T * sum(1/T) >= k^2, so G_T >= 0, and
    B - s_T > 0 for k < n, since the n - k entries outside T are positive.
    So every term is >= 0 and the term of any one T is at most the slack.
    T here is the smallest entry of b with its k - 1 largest, a subset that
    spans the entries' range. At k = 1 (G_T = 0) and at k = n (s_T = B) the
    term is 0, as the slack is.
    """
    check_k(k, len(v))
    form = _integer_form(v)
    ints = sorted(form.ints)
    subset = ints[:1] + ints[len(ints) - k + 1:]
    prod, s, square, total = math.prod(subset), sum(subset), k * k, form.total
    gap = s * sum(prod // t for t in subset) - square * prod
    return (total - s) * gap, s * square * total * form.scale ** (k - 1)


def main_slack_exceeds(v: PositiveVector, k: int, bound: Fraction) -> bool:
    """Whether the main slack rhs_main(v, k) - lhs_main(v, k) is proved
    strictly above bound, with neither side reduced, by exact lower bounds
    compared with bound in integers: one subset's term (`main_slack_term`),
    with no pass, then, only after a positive term that falls short, the
    floored row sum (`main_slack_floor`), which reads row k. A zero term
    means k in {1, n} or a uniform vector, where the slack is 0 and the
    floor lies below it. False means not proved, not that slack <= bound.
    """
    p, q = bound.numerator, bound.denominator
    num, den = main_slack_term(v, k)
    if num and num * q <= p * den:
        num, den = main_slack_floor(v, k)
    return num * q > p * den


def main_verdict(v: PositiveVector, k: int) -> int:
    """The sign of check_main(v, k).slack: 1, or 0 at equality.

    A slack proved above 0 (`main_slack_exceeds`) is 1 with neither side
    reduced; one subset's term proves it on every vector that is not
    uniform, at 1 < k < n, with no pass. Otherwise the verdict is read off
    `check_main`, which reduces both sides and raises Violation if the exact
    lhs exceeds rhs.
    """
    if main_slack_exceeds(v, k, Fraction(0)):
        return 1
    return 0 if check_main(v, k).is_equality else 1


# --------------------------------------------------------------------------
# Supporting bounds
# --------------------------------------------------------------------------

def check_reciprocal_lemma(v: PositiveVector) -> InequalityReport:
    """Sum of reciprocals >= sum of reciprocals of the (n-1)-wise averages.

    The large side is sum(1/a_i), so the report is oriented with
    lhs = sum_j (n-1)/(sum(v) - a_j) and rhs = sum(1/a_i), keeping
    slack = rhs - lhs >= 0 like every other report. k is stored as n-1,
    the cardinality of the averaged subsets.
    """
    n = len(v)
    if n < 2:
        raise InputError(f"the reciprocal lemma needs n >= 2, got n={n}")
    # On the integer form b = v*L with B = sum(b): (n-1)/(sum(v) - a_j) is
    # (n-1)*L/(B - b_j) and 1/a_i is L/b_i. Equal denominators are grouped.
    form = _integer_form(v)
    ints, scale, total = form.ints, form.scale, form.total
    averages: dict[int, int] = {}
    reciprocals: dict[int, int] = {}
    for b in ints:
        averages[total - b] = averages.get(total - b, 0) + (n - 1) * scale
        reciprocals[b] = reciprocals.get(b, 0) + scale
    return _report(Statement.RECIPROCAL_LEMMA, v, n - 1,
                   Fraction(*_sum_over_sums(averages)),
                   Fraction(*_sum_over_sums(reciprocals)))


def check_pairwise_lemma(v: PositiveVector) -> InequalityReport:
    """The k = 2 bound by its direct double-sum formula.

    sum_{i<j} a_i*a_j/(a_i+a_j) <= n/(2*sum(v)) * sum_{i<j} a_i*a_j,
    written as literal loops so it stays an independent cross-check of
    check_main(v, 2); the two must agree field-for-field. On the integer
    form b = v*L with B = sum(b), lhs = sum_{i<j} b_i*b_j/(b_i+b_j) / L and
    rhs = n * sum_{i<j} b_i*b_j / (2*B*L); the loops group the pair
    products by b_i + b_j and total them as ints.
    """
    n = len(v)
    if n < 2:
        raise InputError(f"the pairwise lemma needs n >= 2, got n={n}")
    form = _integer_form(v)
    ints, scale, total = form.ints, form.scale, form.total
    by_sum: dict[int, int] = {}
    pair_products = 0
    for i in range(n):
        for j in range(i + 1, n):
            p, s = ints[i] * ints[j], ints[i] + ints[j]
            by_sum[s] = by_sum.get(s, 0) + p
            pair_products += p
    num, den = _sum_over_sums(by_sum)
    rhs = Fraction(n * pair_products, 2 * total * scale)
    return _report(Statement.PAIRWISE_LEMMA, v, 2, Fraction(num, den * scale), rhs)


# --------------------------------------------------------------------------
# Proof identity
# --------------------------------------------------------------------------

def _superset_groups(b: Sequence[int], k: int) -> dict[int, int]:
    """The (k+1)-subset side of the proof identity on the integers b: each
    k-subset sum s maps to the total of prod(b_S) over the (k+1)-subsets S
    and their entries a with sum(b_S) - a = s."""
    groups: dict[int, int] = {}
    for s in combinations(b, k + 1):
        prod, tot = math.prod(s), sum(s)
        for a in s:
            groups[tot - a] = groups.get(tot - a, 0) + prod
    return groups


def proof_identity(v: PositiveVector, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the rearrangement identity, grouped independently.

    On the unit-sum rescaling w = v / sum(v):

      left  = k * sum_{|S|=k}   prod(w_S) * (1 - sum(w_S)) / sum(w_S)
      right = k * sum_{|S|=k+1} sum_{|T|=k, T subset S} prod(w_S) / sum(w_T)

    With b the integer form of v and B = sum(b), w = b/B, so
    left  = k * sum_T prod(b_T) * (B - sum(b_T)) / sum(b_T) / B^k and
    right = k * sum_{S, T} prod(b_S) / sum(b_T) / B^k. Each side groups its
    numerators by s = sum(b_T). Left's groups are P(s) * (B - s) over row k
    of the `products_by_sum` dynamic program (`_IntegerForm.row`), so
    left = k * (B*N - E*D) / (D * B^k), from row k's one reduction
    N/D = sum_s P(s)/s (`_IntegerForm.row_sum`, which `lhs_main` shares)
    and E = sum_s P(s), the row's own total, not the form's e_k. Right
    enumerates the (k+1)-subsets and their k-sub-subsets, S less one entry
    (`_superset_groups`), so the identity checks the dynamic program against
    brute force. The groupings agree sum by sum, since the S that hold a
    k-subset T add up to prod(b_T) * (B - sum(b_T)). When they do, right is
    left; otherwise right is reduced on its own grouping, so a side that is
    off keeps its own value.
    """
    n = len(v)
    if not 0 < k < n:
        raise InputError(f"the identity needs 0 < k < n, got k={k} n={n}")
    form = _integer_form(v)
    row, right, total = form.row(k), _superset_groups(form.ints, k), form.total
    num, den = form.row_sum(k)
    scale = total ** k
    left = Fraction(k * (total * num - sum(row.values()) * den), den * scale)
    # compared without building the left grouping, so the kept row stands in
    # its place and the identity holds no more than the two groupings would
    if len(right) == len(row) and all(right.get(s) == p * (total - s)
                                      for s, p in row.items()):
        return left, left
    num, den = _sum_over_sums(right)
    return left, Fraction(k * num, den * scale)


def check_proof_identity(v: PositiveVector, k: int) -> InequalityReport:
    """Wrap proof_identity in a report; unequal sides are a Violation."""
    left, right = proof_identity(v, k)
    if left != right:
        raise Violation(Statement.PROOF_IDENTITY, v, k, left, right)
    return _report(Statement.PROOF_IDENTITY, v, k, left, right)

