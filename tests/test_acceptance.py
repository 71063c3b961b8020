"""Acceptance suite: one test per criterion, one printed verdict line each.

All tolerances are exact (valuations are integers; identities are exact
equalities of canonical rational functions).

Criteria 1-3 assert the stated [n]-profiles for every grid case.  A small,
fully characterised set of composite-n cases genuinely misses the profile
at proper divisor indices: exact computation shows those valuations are
zero (for example the (d=5, r=1, n=9) sum has Phi_3-valuation 0 at both
truncations), and at every proper divisor m the sum is divisible by
Phi_m exactly when lemma 3's short sum at index m is.  The check
pipeline's oracle agrees, and it is an independent evaluation: it walks
the sum's terms at a root of unity in F_p and never sees the summed
numerator.  Criterion 8 compares the two routes on the whole d = 5 grid.
The assertions are kept as stated and fail honestly rather
than being weakened; every deviation is listed in the failure message.  The
cyclotomic-power part at index n passes in every single case, at or above
its target.
"""

import json
import math
import os
import random
import subprocess
import sys

from qcongruence.exactalg import (
    ONE,
    Poly,
    RatFunc,
    cyclotomic,
    divisors,
    phi_valuation,
    poly_gcd,
)
from qcongruence.qobjects import qsum
from qcongruence.hypergeom import (
    Truncation,
    Variant,
    andrews_lhs,
    andrews_rhs,
    draw_andrews_params,
    draw_km_params,
    draw_watson_exponents,
    gasper_terminating_sum,
    multi_km_sum,
    proof_decomposition,
    sample_until_valid,
    theorem_sum,
    truncated_sum,
    truncated_terms,
    watson_pair,
)
from qcongruence.congruence import (
    CheckStatus,
    Conjecture,
    check_conjecture,
    check_theorem,
    enumerate_cases,
    legacy_check,
    oracle_check,
    q_integer_modulus,
    validate_case,
    van_hamme_check,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def verdict(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: {len(failures)} deviation(s): {failures}"


def two_smallest_grid(variant: Variant) -> list:
    cases = []
    for d in (5, 7):
        for r in range(-d + 2, d - 3, 2):
            if math.gcd(d, r) != 1:
                continue
            first = d - r if variant is Variant.THM1 else (d - r) // 2
            for n in (first, first + d):
                for trunc in (Truncation.UPPER, Truncation.FULL):
                    cases.append(validate_case(d, r, n, variant, trunc))
    return cases


def test_criterion_1_theorem1_grid():
    failures = []
    for case in two_smallest_grid(Variant.THM1):
        rep = check_theorem(case)
        if rep.status is not CheckStatus.PASS:
            failures.append((case.describe(), rep.valuations.achieved))
    verdict(1, "theorem-1 grid at [n]*Phi_n^2", failures)


def test_criterion_2_theorem2_grid():
    failures = []
    for case in two_smallest_grid(Variant.THM2):
        rep = check_theorem(case)
        if rep.status is not CheckStatus.PASS:
            failures.append((case.describe(), rep.valuations.achieved))
    verdict(2, "theorem-2 grid at [n]*Phi_n", failures)


def test_criterion_3_conjecture_evidence():
    failures = []
    # conj1 (r = 1) and conj2 (r = -1): full sums, two smallest n per case
    for which, r in ((Conjecture.CONJ1, 1), (Conjecture.CONJ2, -1)):
        first1 = 5 - r
        for n in (first1, first1 + 5):
            case = validate_case(5, r, n, Variant.THM1, Truncation.FULL)
            rep = check_conjecture(case, which)
            if rep.status is not CheckStatus.PASS:
                failures.append((rep.description, rep.valuations.achieved))
        first2 = (5 - r) // 2
        for n in (first2, first2 + 5):
            case = validate_case(5, r, n, Variant.THM2, Truncation.FULL)
            rep = check_conjecture(case, which)
            if rep.status is not CheckStatus.PASS:
                failures.append((rep.description, rep.valuations.achieved))
    # conj3: both truncations, reported separately
    for r in (-3, -1, 1):
        first = (5 - r) // 2
        for n in (first, first + 5):
            for trunc in (Truncation.UPPER, Truncation.FULL):
                case = validate_case(5, r, n, Variant.THM2, trunc)
                rep = check_conjecture(case, Conjecture.CONJ3)
                if rep.status is not CheckStatus.PASS:
                    failures.append((rep.description, rep.valuations.achieved))
    verdict(3, "conjecture evidence for d = 5", failures)


def test_divisor_indices_follow_lemma3():
    # at a proper divisor m of n the sum splits into blocks of m terms, and
    # Phi_m divides it exactly when it divides lemma 3's sum up to the solved
    # index j0, d*j0 = -r (mod m), which is the rule from A below; on the
    # d <= 7, n <= 20 sweeps, both families and both truncations
    checks = 0
    for variant in Variant:
        for case in enumerate_cases(variant, 7, 20, (-7, 7)):
            total = theorem_sum(case)
            for m in divisors(case.n)[1:-1]:
                j0, A, s = _solved_short_sum(case.d, case.r, m)
                divides = phi_valuation(total, m) >= 1
                block = truncated_sum(case.d, case.r, j0)
                assert divides == (phi_valuation(block, m) >= 1), (case.describe(), m)
                assert divides == (A % 2 == 1 or case.d * s + 3 <= m), (case.describe(), m)
                checks += 1
    assert checks == 160


def test_divisor_index_residue_rule():
    # the conjectured residue rule for lemma 3's short sum at its solved
    # index j0: with u the least residue of r * m^-1 (mod d), Phi_m divides
    # S(d, r, j0) exactly when u is odd or u = d - 1.  Checked exactly on
    # d in {5, 7}, 2 <= m <= 20 with gcd(m, d) = 1, and odd r in
    # [-d - 8, d - 4] with gcd(d, r) = 1.
    holds, fails = 0, {}
    for d in (5, 7):
        for r in range(-d - 8, d - 3, 2):
            if math.gcd(d, r) != 1:
                continue
            for m in range(2, 21):
                if math.gcd(m, d) != 1:
                    continue
                j0 = (-r * pow(d, -1, m)) % m
                u = (r * pow(m, -1, d)) % d
                v = truncated_sum(d, r, j0).valuation(m)
                if (v >= 1) == (u % 2 == 1 or u == d - 1):
                    holds += 1
                else:
                    fails[d, r, m] = v
    assert holds + len(fails) == 258
    # for r >= -d - 2 the rule holds, but for three cases of extra
    # vanishing with m < d
    above = {k: v for k, v in fails.items() if k[1] >= -k[0] - 2}
    assert above == {(5, -7, 4): 1, (7, -9, 3): 1, (7, -5, 4): 1}
    # below that bound it fails both ways, so the rule needs a lower bound on r
    below = {k: v for k, v in fails.items()
             if k[1] < -k[0] - 2 and not (k[2] < k[0] and v >= 1)}
    assert len(below) == 9
    assert below[5, -9, 2] == 0     # u = 3 is odd, yet no Phi_2
    assert below[5, -13, 6] == 1    # u = 2 is even and not d - 1, yet Phi_6


def test_short_sum_divisibility_is_periodic_in_r_mod_2m():
    # at a primitive m-th root, gcd(m, d) = 1, every factor of S(d, r, j0)
    # and j0 itself depend on r mod m, the q-power does not move when
    # r -> r + 2m, and no (q^d; q^d)_k with k <= j0 < m vanishes: so whether
    # Phi_m divides the short sum depends on r only through r mod 2m
    verdicts, sums = {}, 0
    for d in (5, 7, 9):
        for m in range(2, 13):
            if math.gcd(m, d) != 1:
                continue
            for r in range(-6 * m - d, d - 3):
                if r % 2 == 0 or math.gcd(d, r) != 1:
                    continue
                j0 = (-r * pow(d, -1, m)) % m
                divides = truncated_sum(d, r, j0).valuation(m) >= 1
                assert verdicts.setdefault((d, m, r % (2 * m)), divides) == divides, (d, m, r)
                sums += 1
    assert (sums, len(verdicts)) == (544, 179)
    assert set(verdicts.values()) == {True, False}


def _solved_short_sum(d, r, m):
    """(j0, A, s) of lemma 3's short sum at index m: d*j0 = -r (mod m),
    A = (r + d*j0)/m and s = m - 1 - j0."""
    j0 = (-r * pow(d, -1, m)) % m
    return j0, (r + d * j0) // m, m - 1 - j0


def test_divisor_index_rule_from_a():
    # Phi_m divides S(d, r, j0) exactly when A is odd (proven: the terms
    # reflect, next test) or d*s + 3 <= m (conjectured threshold); three r
    # per odd class of r mod 2m up to d = 9, m = 16, then one per class on
    # the rest of d <= 11, m <= 20
    sums = 0
    for d in (3, 5, 7, 9, 11):
        for m in range(2, 21):
            if math.gcd(m, d) != 1:
                continue
            rs = range(-4 * m - 1, 2 * m, 2) if d <= 9 and m <= 16 else range(1, 2 * m, 2)
            for r in rs:
                j0, A, s = _solved_short_sum(d, r, m)
                divides = truncated_sum(d, r, j0).valuation(m) >= 1
                assert divides == (A % 2 == 1 or d * s + 3 <= m), (d, r, m)
                sums += 1
    assert sums == 1680


def test_short_sum_terms_reflect_at_a_root_of_unity():
    # t_(j0-k) = (-1)^A t_k at a primitive m-th root, for every k <= j0: so
    # the short sum is (-1)^A times itself, and vanishes there when A is odd
    pairs = 0
    for d in (3, 5, 7, 9):
        for m in range(2, 13):
            if math.gcd(m, d) != 1:
                continue
            for r in range(-2 * m - 1, 2 * m, 2):
                j0, A, _ = _solved_short_sum(d, r, m)
                terms = truncated_terms(d, r, j0)
                for k in range(j0 + 1):
                    mirror = terms[j0 - k].copy()
                    mirror.sign *= (-1) ** (A + 1)
                    assert phi_valuation(qsum([terms[k], mirror]), m) >= 1, (d, r, m, k)
                    pairs += 1
    assert pairs == 2384


def test_criterion_4_d3_regression():
    failures = []
    # the r = 1 family genuinely fails mod Phi_n^2 at d = 3
    excluded = [legacy_check(3, 1, n, 2).status for n in (2, 5, 8)]
    if not any(s is CheckStatus.FAIL for s in excluded):
        failures.append("no d=3, r=1 case failed the Phi_n^2 profile")
    # while the r = -1 family holds at its stated powers
    for n, power in ((4, 2), (7, 2), (2, 3), (5, 3)):
        rep = legacy_check(3, -1, n, power)
        if rep.status is not CheckStatus.PASS:
            failures.append((rep.description, rep.valuations.achieved))
    verdict(4, "d = 3 exclusion and inclusion", failures)


def test_criterion_5_identity_suite():
    failures = []
    rng = random.Random(20260808)
    for trial in range(20):
        m = 2 + trial % 2
        p, ok, _ = sample_until_valid(
            rng, lambda rg: draw_andrews_params(rg, m, n_max=4),
            lambda pp: andrews_lhs(pp) == andrews_rhs(pp))
        if not ok:
            failures.append(("andrews", p))
    for trial in range(20):
        t, ok, _ = sample_until_valid(
            rng, lambda rg: draw_watson_exponents(rg, n_max=4),
            lambda tt: watson_pair(*tt)[0] == watson_pair(*tt)[1])
        if not ok:
            failures.append(("watson", t))
    for trial in range(20):
        p, ok, _ = sample_until_valid(
            rng, lambda rg: draw_km_params(rg, 1 + trial % 3),
            lambda pp: gasper_terminating_sum(pp).is_zero)
        if not ok:
            failures.append(("gasper-km", p))
    for trial in range(10):
        p, ok, _ = sample_until_valid(
            rng, lambda rg: draw_km_params(rg, 2 + trial % 2),
            lambda pp: multi_km_sum(pp).is_zero)
        if not ok:
            failures.append(("multi-km", p))
    verdict(5, "randomized identity suite", failures)


def test_criterion_6_proof_decomposition():
    failures = []
    case1 = validate_case(5, 1, 9, Variant.THM1, Truncation.UPPER)
    pre, multi = proof_decomposition(case1)
    if pre.to_ratfunc() * multi.to_ratfunc() != theorem_sum(case1):
        failures.append("thm1 product mismatch")
    if not (phi_valuation(pre, 9) >= 1 and phi_valuation(multi, 9) >= 2):
        failures.append(("thm1 split", phi_valuation(pre, 9), phi_valuation(multi, 9)))
    case2 = validate_case(5, 1, 7, Variant.THM2, Truncation.UPPER)
    pre2, multi2 = proof_decomposition(case2)
    if pre2.to_ratfunc() * multi2.to_ratfunc() != theorem_sum(case2):
        failures.append("thm2 product mismatch")
    if not phi_valuation(pre2, 7) >= 2:
        failures.append(("thm2 prefactor", phi_valuation(pre2, 7)))
    verdict(6, "prefactor/multisum decomposition", failures)


def test_criterion_7_van_hamme():
    failures = []
    for p in (5, 7, 11, 13):
        rep = van_hamme_check(p)
        if rep.status is not CheckStatus.PASS:
            failures.append((p, rep.valuations.achieved))
    verdict(7, "p-adic truncation check mod p^4", failures)


def test_criterion_8_oracle_equivalence():
    failures = []
    cases = [c for c in
             enumerate_cases(Variant.THM1, 5, 14, (-5, 1))
             + enumerate_cases(Variant.THM2, 5, 14, (-5, 1))]
    assert cases
    for case in cases:
        power = 2 if case.variant is Variant.THM1 else 1
        mod = q_integer_modulus(case.n, power)
        s = theorem_sum(case)
        from qcongruence.congruence import check_congruence
        valuation_verdict = check_congruence(s, mod).status
        oracle_verdict = oracle_check(truncated_terms(case.d, case.r, case.upper_bound), mod)
        if valuation_verdict != oracle_verdict:
            failures.append((case.describe(), valuation_verdict, oracle_verdict))
    verdict(8, "valuation verdicts equal F_p oracle verdicts", failures)


def test_criterion_9_algebra_invariants():
    failures = []
    for n in range(1, 61):
        prod = ONE
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        if prod != Poly((-1,) + (0,) * (n - 1) + (1,)):
            failures.append(("cyclotomic product", n))
    rng = random.Random(9)
    def rand_poly():
        return Poly(rng.randint(-9, 9) for _ in range(rng.randint(1, 7)))
    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        g = poly_gcd(a, b)
        if not g.is_zero:
            if a.div_exact(g) * g != a or b.div_exact(g) * g != b:
                failures.append(("gcd divides", a.coeffs, b.coeffs))
        if not (a.is_zero or b.is_zero or c.is_zero):
            lhs = poly_gcd(a * c, b * c)
            rhs = (poly_gcd(a, b) * c).primitive_part()
            if rhs.lead < 0:
                rhs = -rhs
            if lhs != rhs:
                failures.append(("gcd multiplicative", a.coeffs, b.coeffs, c.coeffs))
        if not a.is_zero and not b.is_zero:
            for m in (2, 3, 6):
                va = phi_valuation(RatFunc(a), m)
                vb = phi_valuation(RatFunc(b), m)
                if phi_valuation(RatFunc(a) * RatFunc(b), m) != va + vb:
                    failures.append(("valuation additivity", a.coeffs, b.coeffs, m))
        if not a.is_zero:
            for m in (2, 5):
                v = phi_valuation(RatFunc(a), m)
                reduced = RatFunc(a) / RatFunc(cyclotomic(m)) ** v
                if phi_valuation(reduced, m) != 0:
                    failures.append(("valuation strip", a.coeffs, m))
    verdict(9, "exact-algebra invariants", failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    env = dict(os.environ, PYTHONPATH=SRC)
    base = [sys.executable, "-m", "qcongruence", "sweep", "--theorem", "thm2",
            "--d-max", "5", "--n-max", "9", "--r-min", "-3", "--r-max", "1",
            "--seed", "17"]
    out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    subprocess.run(base + ["--jobs", "1", "--output", str(out1)],
                   capture_output=True, env=env)
    subprocess.run(base + ["--jobs", "4", "--output", str(out2)],
                   capture_output=True, env=env)
    if out1.read_bytes() != out2.read_bytes():
        failures.append("sweep output differs across --jobs")
    rerun = tmp_path / "three.jsonl"
    subprocess.run(base + ["--jobs", "1", "--output", str(rerun)],
                   capture_output=True, env=env)
    if out1.read_bytes() != rerun.read_bytes():
        failures.append("sweep output differs across reruns")
    verdict(10, "byte-identical reports across runs and jobs", failures)
