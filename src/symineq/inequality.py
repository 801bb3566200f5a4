"""Exact evaluation of the subset-product inequality family.

The main bound: for positive a_1..a_n and any k-subset S, write prod(a_S)
for the product and sum(a_S) for the sum over S. Then

    sum_{|S|=k} prod(a_S)/sum(a_S)  <=  (n/k) * e_k(a) / (a_1+...+a_n)

with equality for k = 1 and k = n identically, and exactly at uniform
vectors for 1 < k < n; a report's `is_equality` flag is that locus, read
off the exact slack. Supporting checks: the reciprocal bound
(sum 1/a_i >= sum of reciprocals of the (n-1)-wise averages), the pairwise
product bound (the k = 2 case written as a direct double sum), and the
rearrangement identity behind the proof. Every verdict is exact: the one
float computation, fuzz's slack floor below, carries a proved error bound
and only ever lets a check it proves positive go unreduced. A negative
slack is raised as `Violation`, never returned in a report (an
`InequalityReport`, a named tuple).

Every check works on the integer form of v: the denominators are cleared
(b = v*L, L their lcm), the sums run on ints, and each side builds one
Fraction at the end from an unreduced (numerator, denominator) pair
(`_sum_over_sums`: a grouping of up to 64 distinct sums is put over their
lcm in C, a larger one is added as a balanced tree of per-term-reduced
pairs). The form also holds the row e_0..e_n of b, from the e_k recurrence
(`symfun.symmetric_row`); its e_1 is B = sum(b). A memo of one entry keeps
the form of the last vector asked for, keyed by the vector object, so the
checks of one vector build it once. The main bound's left side is a
subset-sum dynamic program (`symfun.products_by_sum`), not an enumeration;
its brute-force oracle lives in the tests. Its rows are kept with the
form, at most two passes per vector (`_IntegerForm.row`), and so is the
pair each row is reduced to, once per vector and k
(`_IntegerForm.row_sum`). `lhs_main` reads row k's pair and `rhs_main`
reads e_k(b) from the e row, so neither side depends on what was asked
before it. These two are the only statement of the bound's sides, and the
form the only caller of the dynamic program. `main_slack_floor` reads the
same row and e row in floats, with a proved error bound, so that fuzz can
skip the reduction of a slack it shows positive. The k-subset side of the
proof identity is the form's row k, while the other side keeps its own
enumeration of the (k+1)-subsets, so the identity cross-checks the one
against the other: the two groupings of numerators by subset sum are
compared sum by sum, and when they agree both sides take their value from
row k's one reduction, which `lhs_main` shares. `main_verdict` reads only
the sign of the main slack, from the proof's certificate: by AM-HM each
k-subset sum s carries an integer G(s) >= 0, and the slack is 0 exactly
when they all are (below the total), so the sign needs no Fraction and no
gcd. The reciprocal lemma groups its terms by denominator. The pairwise
lemma is a literal double loop over the pairs of the integer form, grouped
by pair sum; it reads neither a row of the dynamic program nor e_2, only
B, so it stays an independent cross-check of the main bound at k = 2. An
argument outside a statement's domain (k outside 1..n, or n < 2 for the
lemmas) raises `InputError`.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations, repeat
from operator import floordiv, mul, truediv
from typing import NamedTuple, Optional, Sequence

from symineq.exact import InputError, PositiveVector, render_scalar
from symineq.symfun import (
    check_k,
    products_and_cofactors_by_sum,
    products_by_sum,
    symmetric_row,
)


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
        # each entry as in PositiveVector's repr, which refuses a long one
        entries = ", ".join(_shown(a) for a in v)
        super().__init__(
            f"{statement.value} violated at n={len(v)} k={k}: "
            f"lhs={_shown(lhs)} rhs={_shown(rhs)} slack={_shown(rhs - lhs)} "
            f"v=PositiveVector({entries})"
        )


def _shown(x: Fraction) -> str:
    """render_scalar(x), or, for a value past the digit limit, its digit count
    in render_scalar's words: a witnessed violation is never refused."""
    try:
        return render_scalar(x)
    except InputError as exc:
        return f"({exc})"


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
        total of prod(b_S) over the k-subsets with sum s. A vector runs at
        most two passes: the first row asked of the form comes from a pass
        pruned to its k, so a single-k check holds one row, and a later
        request for a row the form does not hold runs one pass over every
        k, after which the form keeps every row (those it held stay)."""
        if k not in self.rows:
            n = len(self.ints)
            check_k(k, n)
            ks = range(1, n + 1) if self.rows else (k,)
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


# 1/u for the unit roundoff u = 2**-53 of a double
_INVERSE_ROUNDOFF = 2 ** sys.float_info.mant_dig


def main_slack_floor(v: PositiveVector, k: int) -> Optional[float]:
    """A positive float proved to lie strictly below the main slack
    rhs_main(v, k) - lhs_main(v, k), or None where the bound below cannot
    show the slack positive. It reads the form's row k and e row and
    reduces nothing.

    On the integer form, L^(k-1) * slack = Y - X with Y = n*e_k(b)/(k*B)
    and X = sum_s x_s, x_s = P(s)/s over the m sums s of row k. In floats,
    R = fl(Y) and each t_s = fl(x_s) are int / int divisions, which CPython
    rounds correctly, and S = fsum(t_s) is the correctly rounded sum or,
    where the C library double-rounds, one ulp off it. Let u = 2**-53 and
    tiny = 2**-1022, the least normal float. A correctly rounded t_s is off
    by at most u*t_s when normal and tiny*u below that, so
    X <= (1+u)*sum t_s + m*tiny*u. With R >= tiny and S >= m*tiny (so S is
    normal): Y >= R/(1+u) >= R*(1-u), sum t_s <= S + ulp(S) <= S*(1+2u) and
    m*tiny*u <= S*u, so X <= S*((1+u)*(1+2u) + u) <= S*(1+5u). Hence

        slack >= (R*(1-u) - S*(1+5u)) / L^(k-1),

    a rational evaluated exactly from the integer ratios of R and S and
    rounded once, by one int / int division. The rounded quotient is within
    half a float step of that bound, so the float one step towards -inf is
    strictly below it. None also when a division or the sum overflows, or
    R or S is below its least value above.
    """
    form = _integer_form(v)
    row = form.row(k)
    try:
        lhs = math.fsum(map(truediv, row.values(), row))
        rhs = len(form.ints) * form.e[k] / (k * form.total)
        if lhs < len(row) * sys.float_info.min or rhs < sys.float_info.min:
            return None
        (rn, rd), (ln, ld) = rhs.as_integer_ratio(), lhs.as_integer_ratio()
        num = rn * ld * (_INVERSE_ROUNDOFF - 1) - ln * rd * (_INVERSE_ROUNDOFF + 5)
        den = rd * ld * _INVERSE_ROUNDOFF * form.scale ** (k - 1)
        floor = math.nextafter(num / den, -math.inf)
    except OverflowError:
        return None
    return floor if floor > 0 else None


def check_main(v: PositiveVector, k: int) -> InequalityReport:
    """Evaluate both sides of the main bound and report the exact slack.

    n = 1 is allowed: both sides are 1 and the slack is 0. k = 1 and k = n
    are always equalities on any vector (both sides coincide algebraically);
    for 1 < k < n equality holds exactly when all entries are equal.
    """
    return _report(Statement.MAIN_THEOREM, v, k, lhs_main(v, k), rhs_main(v, k))


def _certificate(ints: Sequence[int], k: int) -> dict[int, int]:
    """G(s) = s*E(s) - k^2*P(s) for each k-subset sum s of the integers
    (`products_and_cofactors_by_sum`): the group total of
    G_T = sum(T)*e_{k-1}(T) - k^2*prod(T) = prod(T)*(sum(T)*sum(1/T) - k^2),
    which AM-HM makes >= 0 on every k-subset T."""
    square = k * k
    return {s: s * e - square * p
            for s, (p, e) in products_and_cofactors_by_sum(ints, k).items()}


def main_verdict(v: PositiveVector, k: int) -> int:
    """The sign of check_main(v, k).slack: 1, or 0 at equality.

    On the integer form b = v*L with B = sum(b), the proof gives
    rhs - lhs = sum_s (B - s) * G(s)/s / (k^2 * B * L^(k-1)) (`_certificate`),
    every G(s) an integer >= 0; so the slack is 0 exactly when G(s) = 0 at
    every s < B, and no side is reduced. A negative G(s) would be a bug: the
    verdict then falls back on `check_main`, which raises Violation if the
    exact lhs exceeds rhs.
    """
    form = _integer_form(v)
    total, certificate = form.total, _certificate(form.ints, k)
    if min(certificate.values()) < 0:
        return 0 if check_main(v, k).is_equality else 1
    return 1 if any(g for s, g in certificate.items() if s < total) else 0


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
    numerators by sum(b_T): left is row k of the `products_by_sum` dynamic
    program, the form's (`_IntegerForm.row`), each group times B - sum(b_T);
    right enumerates (k+1)-subsets and their k-sub-subsets, S less one entry
    (`_superset_groups`). The groupings agree sum by sum, since the S that
    hold a k-subset T add up to prod(b_T) * (B - sum(b_T)). When they do,
    both sides are k * (B*N - E*D) / (D * B^k), from row k's one reduction
    N/D = sum_s P(s)/s (`_IntegerForm.row_sum`, which `lhs_main` shares)
    and E = sum_s P(s), the row's own total, not the form's e_k; otherwise
    each side is reduced on its own, so a side that is off keeps its own
    value.
    """
    n = len(v)
    if not 0 < k < n:
        raise InputError(f"the identity needs 0 < k < n, got k={k} n={n}")
    form = _integer_form(v)
    row, right, total = form.row(k), _superset_groups(form.ints, k), form.total
    scale = total ** k
    # compared without building the left grouping, so the kept row stands in
    # its place and the identity holds no more than the two groupings would
    if len(right) == len(row) and all(right.get(s) == p * (total - s)
                                      for s, p in row.items()):
        # sum_s P(s)*(B - s)/s = B*N/D - E over row k's reduction N/D, which
        # lhs_main shares, with E = sum_s P(s) read off the row itself
        num, den = form.row_sum(k)
        side = Fraction(k * (total * num - sum(row.values()) * den), den * scale)
        return side, side
    left = {s: p * (total - s) for s, p in row.items()}
    (ln, ld), (rn, rd) = _sum_over_sums(left), _sum_over_sums(right)
    return Fraction(k * ln, ld * scale), Fraction(k * rn, rd * scale)


def check_proof_identity(v: PositiveVector, k: int) -> InequalityReport:
    """Wrap proof_identity in a report; unequal sides are a Violation."""
    left, right = proof_identity(v, k)
    if left != right:
        raise Violation(Statement.PROOF_IDENTITY, v, k, left, right)
    return _report(Statement.PROOF_IDENTITY, v, k, left, right)

