"""Acceptance suite: eight criteria, one printed PASS/FAIL line each.

Every criterion is checked at its stated tolerance; exact statements use
zero tolerance. Lines print to the terminal even under capture so a full
run reads as a checklist.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from symineq.exact import make_vector
from symineq.inequality import (
    Violation,
    check_main,
    check_pairwise_lemma,
    check_reciprocal_lemma,
    lhs_main,
    proof_identity,
    rhs_main,
)
from symineq.search import maximize_ratio
from symineq.symfun import elementary_symmetric

import random

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"{verdict} criterion {number}: {detail}", flush=True)
        assert ok, f"criterion {number}: {detail}"
    return _announce


def rational_vector(rng, n, bound):
    return make_vector(
        [Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(n)])


def test_criterion_1_main_bound_exhaustive(announce):
    rng = random.Random(1001)
    started = time.perf_counter()
    checks = 0
    violations = 0
    for n in range(2, 11):
        for k in range(1, n + 1):
            for _ in range(1000):
                v = rational_vector(rng, n, 12)
                try:
                    assert check_main(v, k).slack >= 0
                except Violation:
                    violations += 1
                checks += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 120
    announce(1, ok, f"main bound, n in 2..10, all k, {checks} checks, "
                    f"{violations} violations, {elapsed:.1f}s")


def test_criterion_2_boundary_identities(announce):
    rng = random.Random(1002)
    exact_zero = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        v = rational_vector(rng, n, 20)
        if check_main(v, 1).slack == 0 and check_main(v, n).slack == 0:
            exact_zero += 1
    ok = exact_zero == 1000
    announce(2, ok, f"boundary k in {{1, n}}: slack exactly 0 on "
                    f"{exact_zero}/1000 random vectors")


def test_criterion_3_equality_locus(announce):
    uniform_ok = 0
    uniform_total = 0
    for n in range(1, 9):
        for c in (Fraction(1), Fraction(5), Fraction(1, 3), Fraction(7, 2)):
            v = make_vector([c] * n)
            for k in range(1, n + 1):
                uniform_total += 1
                if check_main(v, k).slack == 0:
                    uniform_ok += 1
    strict_ok = 0
    strict_total = 0
    for n in range(3, 9):
        for k in range(2, n):
            for eps in (Fraction(1, 1000), Fraction(-1, 1000), Fraction(1), Fraction(-1)):
                entries = [Fraction(2)] * n
                entries[0] += eps
                strict_total += 1
                if check_main(make_vector(entries), k).slack > 0:
                    strict_ok += 1
    ok = uniform_ok == uniform_total and strict_ok == strict_total
    announce(3, ok, f"equality locus: uniform slack 0 in {uniform_ok}/{uniform_total} "
                    f"cases, perturbed slack > 0 in {strict_ok}/{strict_total} cases")


def test_criterion_4_proof_identity(announce):
    rng = random.Random(1004)
    agreements = 0
    total = 0
    for n in range(2, 9):
        for k in range(1, n):
            for _ in range(200):
                v = rational_vector(rng, n, 9)
                left, right = proof_identity(v, k)
                total += 1
                if left == right:
                    agreements += 1
    ok = agreements == total
    announce(4, ok, f"rearrangement identity: left == right exactly in "
                    f"{agreements}/{total} evaluations (n <= 8, all k < n)")


def test_criterion_5_oracle_equivalence(announce):
    rng = random.Random(1005)
    agreements = 0
    total = 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            for _ in range(100):
                v = rational_vector(rng, n, 6)
                # every subset in integers: the entries times the lcm L of
                # their denominators, with one division by L^k
                scale = math.lcm(*(a.denominator for a in v))
                ints = [a.numerator * (scale // a.denominator) for a in v]
                brute = Fraction(sum(map(math.prod, combinations(ints, k))), scale ** k)
                total += 1
                if elementary_symmetric(v, k) == brute:
                    agreements += 1
    ok = agreements == total
    announce(5, ok, f"e_k dynamic program vs brute-force enumeration: "
                    f"{agreements}/{total} exact matches (n <= 12, all k)")


def test_criterion_6_lemma_suite(announce):
    rng = random.Random(1006)
    reciprocal_held = 0
    reciprocal_total = 0
    for n in range(2, 11):
        for _ in range(200):
            reciprocal_total += 1
            if check_reciprocal_lemma(rational_vector(rng, n, 20)).slack >= 0:
                reciprocal_held += 1
    worked = check_reciprocal_lemma(make_vector([1, 2, 3]))
    worked_ok = worked.rhs == Fraction(11, 6) and worked.lhs == Fraction(47, 30)
    pairwise_agree = 0
    for _ in range(500):
        v = rational_vector(rng, rng.randint(2, 10), 20)
        direct = check_pairwise_lemma(v)
        via_main = check_main(v, 2)
        if (direct.lhs, direct.rhs, direct.slack, direct.is_equality, direct.n,
                direct.k) == (via_main.lhs, via_main.rhs, via_main.slack,
                              via_main.is_equality, via_main.n, via_main.k):
            pairwise_agree += 1
    ok = reciprocal_held == reciprocal_total and worked_ok and pairwise_agree == 500
    announce(6, ok, f"lemmas: reciprocal held {reciprocal_held}/{reciprocal_total}, "
                    f"worked vector sides 11/6 and 47/30: {worked_ok}, "
                    f"pairwise == main(k=2) on {pairwise_agree}/500 vectors")


def test_criterion_7_tightness(announce):
    outcomes = []
    ok = True
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 4)):
        started = time.perf_counter()
        result = maximize_ratio(n, k, seed=0)
        elapsed = time.perf_counter() - started
        distance = max(abs(x - 1 / n) for x in result.argmax)
        point = make_vector([Fraction(x) for x in result.argmax])
        good = (result.ratio >= 1 - 1e-9 and distance <= 1e-4
                and elapsed < 10
                and lhs_main(point, k) / rhs_main(point, k) <= 1)
        ok = ok and good
        outcomes.append(f"({n},{k}) ratio={result.ratio:.12f} "
                        f"dist={distance:.2e} {elapsed:.2f}s")
    announce(7, ok, "tightness: " + "; ".join(outcomes))


def test_criterion_8_determinism(announce):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "symineq", *args],
                              capture_output=True)

    fuzz_args = ("fuzz", "--n", "2..8", "--trials", "1000", "--seed", "42")
    repeat_ok = run(*fuzz_args).stdout == run(*fuzz_args).stdout
    golden_runs = (
        (("check", "--values", "1,2,3", "--k", "2", "--format", "json"),
         "check_values_123_k2.json"),
        (("check", "--values", "5,5,5,5", "--all-k"),
         "check_values_5555_all_k.txt"),
        (fuzz_args, "fuzz_n2_8_trials1000_seed42.txt"),
    )
    golden_ok = all(run(*args).stdout == (GOLDEN / fixture).read_bytes()
                    for args, fixture in golden_runs)
    ok = repeat_ok and golden_ok
    announce(8, ok, f"seeded fuzz byte-identical: {repeat_ok}, "
                    f"three golden transcripts match: {golden_ok}")
