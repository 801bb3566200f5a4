"""Exact evaluation of the subset-product inequality family.

The main bound: for positive a_1..a_n and any k-subset S, write prod(a_S)
for the product and sum(a_S) for the sum over S. Then

    sum_{|S|=k} prod(a_S)/sum(a_S)  <=  (n/k) * e_k(a) / (a_1+...+a_n)

with equality for k = 1 and k = n identically, and exactly at uniform
vectors for 1 < k < n. Supporting checks: the reciprocal bound
(sum 1/a_i >= sum of reciprocals of the (n-1)-wise averages), the pairwise
product bound (the k = 2 case written as a direct double sum), and the
rearrangement identity behind the proof. All arithmetic is exact; a
negative slack is raised as `Violation`, never returned in a report.

Both sides of the main bound and of the identity work on the integer form
of v: the denominators are cleared once (b = v*L, L their lcm), the sums
run on ints, and each side builds one Fraction at the end. The left side is
a subset-sum dynamic program (`symfun.products_by_sum`), not an
enumeration; its brute-force oracle lives in the tests. The k-subset side of
the proof identity is the same dynamic program, while the other side keeps
its own enumeration of the (k+1)-subsets, so the identity cross-checks the
one against the other. The reciprocal lemma uses the same integer form; the
pairwise lemma stays a literal double loop, the cross-check of the main
bound at k = 2. An argument outside a statement's domain (k outside 1..n,
or n < 2 for the lemmas) raises `InputError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from symineq.exact import InputError, PositiveVector, render_scalar
from symineq.symfun import check_k, elementary_symmetric, products_by_sum


class Statement(Enum):
    MAIN_THEOREM = "MainTheorem"
    RECIPROCAL_LEMMA = "ReciprocalLemma"
    PAIRWISE_LEMMA = "PairwiseLemma"
    PROOF_IDENTITY = "ProofIdentity"


class EqualityClass(Enum):
    BOUNDARY_ALWAYS_EQUAL = "BoundaryAlwaysEqual"
    UNIFORM_EQUAL = "UniformEqual"
    STRICT = "Strict"


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
            f"lhs={render_scalar(lhs)} rhs={render_scalar(rhs)} "
            f"slack={render_scalar(rhs - lhs)} v={v!r}"
        )


@dataclass(frozen=True)
class InequalityReport:
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


def report_from_record(record: dict) -> InequalityReport:
    from symineq.exact import parse_scalar

    return InequalityReport(
        n=int(record["n"]),
        k=int(record["k"]),
        statement=Statement(record["statement"]),
        lhs=parse_scalar(record["lhs"]),
        rhs=parse_scalar(record["rhs"]),
        slack=parse_scalar(record["slack"]),
        is_equality=bool(record["is_equality"]),
    )


def _report(statement: Statement, v: PositiveVector, k: int,
            lhs: Fraction, rhs: Fraction) -> InequalityReport:
    slack = rhs - lhs
    if slack < 0:
        raise Violation(statement, v, k, lhs, rhs)
    return InequalityReport(
        n=len(v), k=k, statement=statement,
        lhs=lhs, rhs=rhs, slack=slack, is_equality=slack == 0,
    )


# --------------------------------------------------------------------------
# Main bound
# --------------------------------------------------------------------------

def _integer_form(v: PositiveVector) -> tuple[list[int], int]:
    """(b, L): L is the lcm of the denominators of v and b = v*L, in integers."""
    scale = math.lcm(*(a.denominator for a in v))
    return [a.numerator * (scale // a.denominator) for a in v], scale


def _sum_over_sums(by_sum: dict[int, int], scale: int) -> Fraction:
    """sum_s N(s)/s / scale, for by_sum mapping each subset sum s to N(s).

    Each term is cancelled by one small gcd, then the terms are added as a
    balanced tree of unreduced (numerator, denominator) pairs, so the
    operands grow evenly and the only large gcd is the one in the Fraction
    built at the end.
    """
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
    num, den = terms[0]
    return Fraction(num, den * scale)


def lhs_main(v: PositiveVector, k: int) -> Fraction:
    """Sum over all k-subsets of subset_product / subset_sum, exactly.

    A subset enters only through its product and its sum, so subsets that
    share a sum are added before the one division. On the integer form
    b = a*L, lhs = sum_s P(s)/s / L^(k-1), where P(s) is the total of
    prod(b_S) over the k-subsets with sum(b_S) = s (`products_by_sum`).
    """
    ints, scale = _integer_form(v)
    return _sum_over_sums(products_by_sum(ints, k), scale ** (k - 1))


def rhs_main(v: PositiveVector, k: int) -> Fraction:
    """(n/k) * e_k(v) / sum(v) = n * e_k(b) / (k * L^(k-1) * sum(b)) on b = a*L."""
    ints, scale = _integer_form(v)
    return Fraction(len(v) * elementary_symmetric(ints, k),
                    k * scale ** (k - 1) * sum(ints))


def check_main(v: PositiveVector, k: int) -> InequalityReport:
    """Evaluate both sides of the main bound and report the exact slack.

    n = 1 is allowed: both sides are 1 and the slack is 0. k = 1 and k = n
    are always equalities on any vector (both sides coincide algebraically);
    for 1 < k < n equality holds exactly when all entries are equal.
    """
    return _report(Statement.MAIN_THEOREM, v, k, lhs_main(v, k), rhs_main(v, k))


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
    ints, scale = _integer_form(v)
    total = sum(ints)
    averages: dict[int, int] = {}
    reciprocals: dict[int, int] = {}
    for b in ints:
        averages[total - b] = averages.get(total - b, 0) + (n - 1) * scale
        reciprocals[b] = reciprocals.get(b, 0) + scale
    return _report(Statement.RECIPROCAL_LEMMA, v, n - 1,
                   _sum_over_sums(averages, 1), _sum_over_sums(reciprocals, 1))


def check_pairwise_lemma(v: PositiveVector) -> InequalityReport:
    """The k = 2 bound by its direct double-sum formula.

    sum_{i<j} a_i*a_j/(a_i+a_j) <= n/(2*sum(v)) * sum_{i<j} a_i*a_j,
    written as literal loops so it stays an independent cross-check of
    check_main(v, 2); the two must agree field-for-field.
    """
    n = len(v)
    if n < 2:
        raise InputError(f"the pairwise lemma needs n >= 2, got n={n}")
    a = v.entries
    lhs = Fraction(0)
    pair_products = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            lhs += a[i] * a[j] / (a[i] + a[j])
            pair_products += a[i] * a[j]
    rhs = Fraction(n) * pair_products / (2 * v.total())
    return _report(Statement.PAIRWISE_LEMMA, v, 2, lhs, rhs)


# --------------------------------------------------------------------------
# Proof identity and equality classification
# --------------------------------------------------------------------------

def proof_identity(v: PositiveVector, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the rearrangement identity, computed independently.

    On the unit-sum rescaling w = v / sum(v):

      left  = k * sum_{|S|=k}   prod(w_S) * (1 - sum(w_S)) / sum(w_S)
      right = k * sum_{|S|=k+1} sum_{|T|=k, T subset S} prod(w_S) / sum(w_T)

    With b the integer form of v and B = sum(b), w = b/B, so
    left  = k * sum_T prod(b_T) * (B - sum(b_T)) / sum(b_T) / B^k and
    right = k * sum_{S, T} prod(b_S) / sum(b_T) / B^k. Each side groups its
    numerators by sum(b_T). left is the `products_by_sum` dynamic program,
    right enumerates (k+1)-subsets and their k-sub-subsets (S less one
    entry); the contract is left == right exactly.
    """
    n = len(v)
    if not 0 < k < n:
        raise InputError(f"the identity needs 0 < k < n, got k={k} n={n}")
    b, _ = _integer_form(v)
    total = sum(b)
    left = {s: p * (total - s) for s, p in products_by_sum(b, k).items()}

    right: dict[int, int] = {}
    for s in combinations(b, k + 1):
        prod, tot = math.prod(s), sum(s)
        for a in s:
            right[tot - a] = right.get(tot - a, 0) + prod

    scale = total ** k
    return k * _sum_over_sums(left, scale), k * _sum_over_sums(right, scale)


def check_proof_identity(v: PositiveVector, k: int) -> InequalityReport:
    """Wrap proof_identity in a report; unequal sides are a Violation."""
    left, right = proof_identity(v, k)
    if left != right:
        raise Violation(Statement.PROOF_IDENTITY, v, k, left, right)
    return _report(Statement.PROOF_IDENTITY, v, k, left, right)


def classify_equality(v: PositiveVector, k: int) -> EqualityClass:
    """Where this (v, k) sits on the equality locus of the main bound.

    Boundary k (1 or n) is an identity for every vector; interior k is an
    equality exactly for uniform vectors. Agrees with check_main's
    is_equality flag in every case.
    """
    check_k(k, len(v))
    if k == 1 or k == len(v):
        return EqualityClass.BOUNDARY_ALWAYS_EQUAL
    if all(a == v[0] for a in v):
        return EqualityClass.UNIFORM_EQUAL
    return EqualityClass.STRICT
