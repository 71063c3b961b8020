"""Modulus profiles, case checkers, oracle agreement, enumeration."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import qcongruence
from qcongruence import congruence, exactalg, hypergeom, qobjects
from qcongruence.congruence import _binomial_series, _fp_root, _term_changes, _walk_terms
from qcongruence.exactalg import _MR_BASES, INFINITE, Poly, RatFunc, cyclotomic
from qcongruence.hypergeom import (InvalidCase, TheoremCase, Truncation, Variant,
                                   _multisum_terms, draw_andrews_params, sample_until_valid,
                                   theorem_sum, truncated_terms)
from qcongruence.qobjects import QProduct, qsum, rising_factorial
from qcongruence.congruence import (
    CONJECTURE_R,
    CheckStatus,
    Conjecture,
    Lemma3Truncation,
    Modulus,
    check_congruence,
    check_conjecture,
    check_lemma3,
    check_lemma4,
    check_mod_square,
    check_theorem,
    enumerate_cases,
    legacy_check,
    oracle_check,
    phi_modulus,
    q_integer_modulus,
    validate_case,
    van_hamme_check,
)


# ---------------------------------------------------------------------------
# the package's names


def test_package_exports_the_union_of_module_names():
    modules = (exactalg, qobjects, hypergeom, congruence)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names) == 63     # no name in two modules
    assert sorted(qcongruence.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(qcongruence, name) is getattr(module, name), name


# ---------------------------------------------------------------------------
# moduli


def test_modulus_expansion():
    assert q_integer_modulus(9, 2).parts == {3: 1, 9: 3}
    assert q_integer_modulus(12, 1).parts == {2: 1, 3: 1, 4: 1, 6: 1, 12: 2}
    assert phi_modulus(7, 4).parts == {7: 4}
    with pytest.raises(ValueError):
        Modulus({3: 0})


# ---------------------------------------------------------------------------
# check_congruence


def test_zero_passes_with_infinite_valuations():
    rep = check_congruence(RatFunc(0), q_integer_modulus(9, 2))
    assert rep.status is CheckStatus.PASS
    assert all(v == INFINITE for v in rep.valuations.achieved.values())


def test_constructed_pass_and_fail():
    mod = q_integer_modulus(9, 2)
    good = RatFunc(cyclotomic(9) ** 3 * cyclotomic(3))
    assert check_congruence(good, mod).status is CheckStatus.PASS
    bad = RatFunc(cyclotomic(9) ** 2)
    rep = check_congruence(bad, mod)
    assert rep.status is CheckStatus.FAIL
    assert rep.valuations.achieved == {3: 0, 9: 2}


def test_denominator_error_distinct_from_fail():
    f = RatFunc(Poly((1,)), cyclotomic(9))
    rep = check_congruence(f, q_integer_modulus(9, 2))
    assert rep.status is CheckStatus.ERROR
    assert "not invertible" in rep.detail


# ---------------------------------------------------------------------------
# validate_case


def test_validate_case_examples():
    case = validate_case(5, 1, 9, Variant.THM1, Truncation.UPPER)
    assert case.upper_bound == 7
    with pytest.raises(InvalidCase) as exc:
        validate_case(5, 3, 9, Variant.THM1, Truncation.UPPER)
    assert any("r <= d - 4" in v for v in exc.value.violations)
    with pytest.raises(InvalidCase):
        validate_case(5, 1, 8, Variant.THM1, Truncation.UPPER)


# ---------------------------------------------------------------------------
# theorem checks (cases whose full profile verifiably holds)


@pytest.mark.parametrize("d,r,n", [(5, 1, 4), (5, -3, 8), (7, 3, 4)])
def test_theorem1_verified_cases(d, r, n):
    for trunc in (Truncation.UPPER, Truncation.FULL):
        rep = check_theorem(validate_case(d, r, n, Variant.THM1, trunc))
        assert rep.status is CheckStatus.PASS, rep.valuations


def test_theorem1_eq_old2_first_case():
    # d=7, r=-1, n=8: the n = 1 (mod d) family, first case
    rep = check_theorem(validate_case(7, -1, 8, Variant.THM1, Truncation.UPPER))
    assert rep.status is CheckStatus.PASS


@pytest.mark.parametrize("d,r,n", [(5, 1, 2), (5, 1, 7), (5, -3, 4)])
def test_theorem2_verified_cases(d, r, n):
    for trunc in (Truncation.UPPER, Truncation.FULL):
        rep = check_theorem(validate_case(d, r, n, Variant.THM2, trunc))
        assert rep.status is CheckStatus.PASS, rep.valuations


def test_theorem_profile_fail_is_reported_not_error():
    # Verified counterexample to the stated [n]-part: the (5,1,9) sum has
    # zero valuation at Phi_3 (see the decisions ledger); the engine must
    # report an honest FAIL at index 3 while index 9 meets its target.
    rep = check_theorem(validate_case(5, 1, 9, Variant.THM1, Truncation.UPPER))
    assert rep.status is CheckStatus.FAIL
    assert rep.valuations.achieved[3] == 0
    assert rep.valuations.achieved[9] >= 3


@pytest.mark.parametrize("d,r,n,variant", [(5, 1, 4, Variant.THM1), (5, 1, 9, Variant.THM1),
                                           (5, 1, 7, Variant.THM2), (5, -3, 4, Variant.THM2)])
def test_theorem_power_is_the_pipeline_at_that_power(d, r, n, variant):
    # check_theorem(case, power=k) is check_sum of the theorem sum against
    # [n]*Phi_n**k; without a power it is the family's stated one
    for trunc in (Truncation.UPPER, Truncation.FULL):
        case = validate_case(d, r, n, variant, trunc)
        for k in range(4):
            want = congruence.check_sum(theorem_sum(case), (d, r, case.upper_bound),
                                        q_integer_modulus(n, k), case.describe(), True)
            assert check_theorem(case, oracle=True, power=k) == want
        stated = 2 if variant is Variant.THM1 else 1
        assert check_theorem(case) == check_theorem(case, power=stated)


# ---------------------------------------------------------------------------
# conjecture checks


def test_conjecture1_first_case():
    rep = check_conjecture(
        validate_case(5, 1, 9, Variant.THM1, Truncation.FULL), Conjecture.CONJ1
    )
    assert rep.modulus.parts == {9: 3}
    assert rep.status is CheckStatus.PASS


def test_conjecture1_second_case_n2():
    rep = check_conjecture(
        validate_case(5, 1, 2, Variant.THM2, Truncation.FULL), Conjecture.CONJ1
    )
    assert rep.modulus.parts == {2: 4}
    assert rep.status is CheckStatus.PASS


def test_conjecture3_small():
    rep = check_conjecture(
        validate_case(5, 1, 7, Variant.THM2, Truncation.UPPER), Conjecture.CONJ3
    )
    assert rep.modulus.parts == {7: 4}
    assert rep.status is CheckStatus.PASS


def test_first_family_conjecture_is_thm1_at_n():
    # on the first family the Phi_n^3 that conj1 (r = 1) and conj2 (r = -1)
    # ask for is thm1's own requirement at n ([n] * Phi_n^2 holds Phi_n
    # three times), and both checks read the same valuation there
    checked = 0
    for which, r in CONJECTURE_R.items():
        for case in enumerate_cases(Variant.THM1, 7, 20, (r, r)):
            conj, thm = check_conjecture(case, which), check_theorem(case)
            assert conj.modulus.parts[case.n] == thm.modulus.parts[case.n] == 3
            assert conj.valuations.achieved[case.n] == thm.valuations.achieved[case.n], \
                case.describe()
            checked += 1
    assert checked == 24


def test_conjecture_preconditions():
    case = validate_case(5, -1, 6, Variant.THM1, Truncation.FULL)
    with pytest.raises(InvalidCase):
        check_conjecture(case, Conjecture.CONJ1)
    with pytest.raises(InvalidCase):
        check_conjecture(case, Conjecture.CONJ3)
    case = validate_case(5, 1, 9, Variant.THM1, Truncation.FULL)
    with pytest.raises(InvalidCase, match="conj2 requires r = -1"):
        check_conjecture(case, Conjecture.CONJ2)


# ---------------------------------------------------------------------------
# lemma 3 / lemma 4


def test_lemma3_solved_truncation():
    # m with 5m = -1 (mod 9) is m = 7
    rep = check_lemma3(5, 1, 9, Lemma3Truncation.M_SOLVED)
    assert rep.term_count == 8
    # verified counterexample to the stated claim: valuation 0 at index 3
    # (see the decisions ledger); the checker reports it honestly
    assert rep.status is CheckStatus.FAIL
    assert rep.valuations.achieved == {3: 0, 9: 3}
    rep4 = check_lemma3(5, 1, 4, Lemma3Truncation.M_SOLVED)
    assert rep4.status is CheckStatus.PASS


def test_lemma3_rejects_common_factor():
    with pytest.raises(InvalidCase) as exc:
        check_lemma3(5, 1, 5)
    assert any("gcd(d, n)" in v for v in exc.value.violations)


def test_lemma3_prime_n_full():
    assert check_lemma3(5, 1, 7, Lemma3Truncation.FULL).status is CheckStatus.PASS
    assert check_lemma3(4, 1, 7, Lemma3Truncation.M_SOLVED).status is CheckStatus.PASS


def test_lemma4_examples():
    assert check_lemma4(5, 1, 7) is True       # progression 3, 8, 13, 18
    assert check_lemma4(3, -1, 2) is True      # single value 1
    with pytest.raises(InvalidCase):
        check_lemma4(5, 1, 8)


def test_lemma4_takes_the_second_familys_hypotheses_from_d_3():
    # lemma 4 shares the second family's hypothesis list, with d >= 3 in
    # place of the theorems' d >= 5
    with pytest.raises(InvalidCase) as exc:
        check_lemma4(1, -3, 2)
    assert exc.value.violations == ["d must be an odd integer >= 3"]
    with pytest.raises(InvalidCase) as exc:
        TheoremCase(3, -1, 2, Variant.THM2)
    assert exc.value.violations == ["d must be an odd integer >= 5"]


def test_lemma4_exhaustive_small():
    import math
    for d in (3, 5, 7, 9):
        for r in range(-d, d - 3, 2):
            if math.gcd(d, r) != 1 or r % 2 == 0:
                continue
            n = (d - r) // 2
            while n <= 50:
                assert check_lemma4(d, r, n) is True, (d, r, n)
                n += d


# ---------------------------------------------------------------------------
# mod-square spot checks


@pytest.mark.parametrize("alpha,r,n,d,k", [
    (1, 1, 7, 5, 0),
    (1, 1, 7, 5, 3),
    (2, -1, 9, 5, 2),
])
def test_mod_square(alpha, r, n, d, k):
    rep = check_mod_square(alpha, r, n, d, k)
    assert rep.status is CheckStatus.PASS


# ---------------------------------------------------------------------------
# van hamme


def test_van_hamme_p5_exact_value():
    # frozen: sum for p = 5 is 10335/8192 and the difference from 5 has
    # 5-adic valuation exactly 4 (30625 = 5^4 * 49)
    half = Fraction(1, 2)
    total = sum(
        (6 * k + 1) * rising_factorial(half, k) ** 3
        / (Fraction(__import__("math").factorial(k)) ** 3 * 4**k)
        for k in range(3)
    )
    assert total == Fraction(10335, 8192)
    rep = van_hamme_check(5)
    assert rep.status is CheckStatus.PASS
    assert rep.valuations.achieved[5] == 4


@pytest.mark.parametrize("p", [7, 11, 13])
def test_van_hamme_more_primes(p):
    assert van_hamme_check(p).status is CheckStatus.PASS


def van_hamme_reference(p):
    # the sum over exact rationals, as the congruence is written
    half = Fraction(1, 2)
    total = sum(
        (6 * k + 1) * rising_factorial(half, k) ** 3
        / (Fraction(math.factorial(k)) ** 3 * 4**k)
        for k in range((p - 1) // 2 + 1)
    )
    return exactalg.rational_p_valuation(total - p * (-1) ** ((p - 1) // 2), p)


@pytest.mark.parametrize("p", [p for p in range(5, 300) if exactalg._is_prime(p)])
def test_van_hamme_integer_sum_matches_rational_reference(p):
    rep = van_hamme_check(p)
    assert rep.valuations.achieved[p] == van_hamme_reference(p)
    assert rep.term_count == (p - 1) // 2 + 1


def test_van_hamme_large_prime():
    # the integer walk makes p = 10007 well under a second; summing
    # reduced Fractions took minutes
    rep = van_hamme_check(10007)
    assert rep.status is CheckStatus.PASS
    assert rep.valuations.achieved[10007] == 4


def test_van_hamme_rejects_small_or_composite():
    with pytest.raises(InvalidCase):
        van_hamme_check(3)
    with pytest.raises(InvalidCase):
        van_hamme_check(15)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_thm1_matches_congruence_solution():
    cases = enumerate_cases(Variant.THM1, 5, 20, (-3, 1))
    triples = sorted({(c.d, c.r, c.n) for c in cases})
    assert triples == [
        (5, -3, 8), (5, -3, 13), (5, -3, 18),
        (5, -1, 6), (5, -1, 11), (5, -1, 16),
        (5, 1, 4), (5, 1, 9), (5, 1, 14), (5, 1, 19),
    ]
    assert len(cases) == 2 * len(triples)  # both truncations
    assert cases == sorted(cases, key=lambda c: (c.d, c.r, c.n, c.truncation.value == "full"))


def test_enumerate_empty_below_smallest_n():
    assert enumerate_cases(Variant.THM1, 5, 3, (1, 1)) == []


def test_enumerate_thm2():
    triples = sorted({(c.d, c.r, c.n) for c in enumerate_cases(Variant.THM2, 5, 10, (1, 1))})
    assert triples == [(5, 1, 2), (5, 1, 7)]


# ---------------------------------------------------------------------------
# oracle agreement (criterion 8 exercises the full d=5 grid; spot-check here)


@pytest.mark.parametrize("d,r,n,variant", [
    (5, 1, 4, Variant.THM1),
    (5, 1, 9, Variant.THM1),   # FAIL case: oracle must agree on the verdict
    (5, -1, 3, Variant.THM2),
])
def test_oracle_matches_valuation_verdict(d, r, n, variant):
    case = validate_case(d, r, n, variant, Truncation.UPPER)
    rep = check_theorem(case, oracle=True)
    assert rep.oracle_status == rep.status


def test_oracle_error_detection():
    # (q^3 - 1) / (q^9 - 1) = 1 / Phi_9
    f = [_binomial_quotient({3: 1}, {9: 1})]
    assert oracle_check(f, q_integer_modulus(9, 2)) is CheckStatus.ERROR


# ---------------------------------------------------------------------------
# legacy d = 3 families


def test_legacy_d3_exclusion():
    rep = legacy_check(3, 1, 5, 2)
    assert rep.status is CheckStatus.FAIL


def test_legacy_d3_r_minus_one_families_hold():
    assert legacy_check(3, -1, 4, 2).status is CheckStatus.PASS
    assert legacy_check(3, -1, 5, 3).status is CheckStatus.PASS


def _binomial_quotient(top: dict, bottom: dict, sign: int = 1) -> QProduct:
    """sign * prod (q^a - 1)^top[a] / prod (q^b - 1)^bottom[b], as one QProduct."""
    t = QProduct()
    t.sign = sign
    for a, m in top.items():
        t.factors[a] = m
    for b, m in bottom.items():
        t.factors[b] = t.factors.get(b, 0) - m
    return t


ORACLE_ROUTES = [
    # (terms, modulus, verdict)
    # the theorem sums' terms, k = 0..M for M = 3 (n = 4) and M = 7 (n = 9)
    (lambda: truncated_terms(5, 1, 3), q_integer_modulus(4, 2), CheckStatus.PASS),
    (lambda: truncated_terms(5, 1, 7), q_integer_modulus(9, 2), CheckStatus.FAIL),
    # (q^6 - 1)^2 / (q^3 - 1): Phi_3 to the first power after cancellation
    (lambda: [_binomial_quotient({6: 2}, {3: 1})], phi_modulus(3, 1), CheckStatus.PASS),
    (lambda: [_binomial_quotient({6: 2}, {3: 1})], phi_modulus(3, 2), CheckStatus.FAIL),
    # a pole at a required index is an ERROR, and wins over the FAIL at index 2
    (lambda: [_binomial_quotient({}, {3: 1})], Modulus({2: 1, 3: 1}), CheckStatus.ERROR),
    (lambda: [_binomial_quotient({1: 1}, {3: 1}), _binomial_quotient({}, {6: 1})],
     q_integer_modulus(6), CheckStatus.ERROR),
    # terms that cancel leave zero over a denominator with poles: PASS
    (lambda: [_binomial_quotient({2: 1}, {4: 1}), _binomial_quotient({2: 1}, {4: 1}, -1)],
     q_integer_modulus(4), CheckStatus.PASS),
]


@pytest.mark.parametrize("make_terms,mod,verdict", ORACLE_ROUTES)
def test_oracle_factored_route_agrees_with_canonical(make_terms, mod, verdict):
    # named when the oracle also read a FactoredFraction and its RatFunc;
    # kept so the test ids stay, it now checks the terms against the count
    terms = make_terms()
    assert oracle_check(terms, mod) is verdict
    assert check_congruence(qsum(terms), mod).status is verdict


# ---------------------------------------------------------------------------
# the F_p route of the oracle


def _prime_factors(n):
    return [l for l in range(2, n + 1) if n % l == 0 and all(l % k for k in range(2, l))]


def test_fp_field_choice():
    for m in range(1, 61):
        p, zeta = _fp_root(m)
        assert p > 2 ** 61 and (p - 1) % m == 0
        # a witness-free primality check: Fermat to many bases, and no small factor
        assert all(pow(b, p - 1, p) == 1 for b in range(2, 60))
        assert all(p % k for k in range(2, 10 ** 4))
        assert pow(zeta, m, p) == 1
        assert all(pow(zeta, m // l, p) != 1 for l in _prime_factors(m))
        assert _fp_root(m) == (p, zeta)
        # smallest such prime: no candidate below it passes the bases' test
        for below in range(p - m, 2 ** 61, -m):
            assert any(pow(b, below - 1, below) != 1 for b in _MR_BASES) \
                or any(below % b == 0 for b in _MR_BASES)


def _terms(raw):
    terms = []
    for sign, qexp, factors, twin in raw:
        t = QProduct()
        t.sign = sign
        t.qexp = qexp
        t.factors = {a: m for a, m in factors.items() if m}
        terms.append(t)
        if twin:
            neg = t.copy()
            neg.sign = -sign
            terms.append(neg)
    return terms


@given(st.lists(
    st.tuples(st.sampled_from([-1, 1]), st.integers(-4, 4),
              st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=4),
              st.booleans()),
    max_size=5,
), st.integers(1, 3))
def test_oracle_terms_agree_with_values_and_valuations(raw, power):
    # poles, negated twins and zero sums, as in the qsum valuation property;
    # named when the oracle also read values, kept so the test id stays
    terms = _terms(raw)
    value = qsum(terms)
    for m in range(1, 13):
        mod = phi_modulus(m, power)
        assert oracle_check(terms, mod) is check_congruence(value, mod).status


def _series_times(f, g, p):
    return [sum(f[i] * g[n - i] for i in range(n + 1)) % p for n in range(len(f))]


def _series_inverse(f, p):
    inv_f0 = pow(f[0], -1, p)
    g = [inv_f0]
    for n in range(1, len(f)):
        g.append(-inv_f0 * sum(f[k] * g[n - k] for k in range(1, n + 1)) % p)
    return g


def reference_walk(terms, m, need, zeta, p):
    """(low, s) of ``_walk_terms`` from scratch: each live term is the plain
    product of its truncated binomial series, with no carry and no log, and
    its order counts the factors (q^a - 1) with m | a, zeta having order m."""
    live = [t for t in terms if not t.is_zero]
    orders = [sum(e for a, e in t.factors.items() if a % m == 0) for t in live]
    low = min(orders, default=need)
    prec = need - low
    if prec <= 0:
        return low, []
    total = [0] * prec
    for t, v in zip(live, orders):
        unit = [1] + [0] * (prec - 1)
        for a, e in {**t.factors, 0: t.qexp}.items():
            f = _binomial_series(a, pow(zeta, a, p), zeta, pow(zeta, -1, p), p, prec,
                                 [0] + [pow(j, -1, p) for j in range(1, prec + 1)])
            f, k = (f if e > 0 else _series_inverse(f, p)), abs(e)
            while k:                    # unit * f**k by squaring
                if k & 1:
                    unit = _series_times(unit, f, p)
                f, k = _series_times(f, f, p), k >> 1
        for j in range(prec - (v - low)):
            total[v - low + j] += t.sign * unit[j]
    return low, [c % p for c in total]


def test_walk_terms_matches_plain_products():
    # every index of every thm1/thm2 case with d <= 7, n <= 20, at the stated
    # power and one and two above it: precisions 1 to 4
    cases = [c for v in Variant for c in enumerate_cases(v, 7, 20, (-7, 7))]
    assert {c.variant for c in cases} == set(Variant)
    precisions = set()
    for c in cases:
        terms = truncated_terms(c.d, c.r, c.upper_bound)
        steps = _term_changes(terms)
        for extra in range(3):
            mod = q_integer_modulus(c.n, (2 if c.variant is Variant.THM1 else 1) + extra)
            for m, need in mod.parts.items():
                p, zeta = _fp_root(m)
                low, series = _walk_terms(steps, zeta, need, p)
                assert (low, [s % p for s in series]) == reference_walk(terms, m, need, zeta, p)
                precisions.add(need - low)
    assert {1, 2, 3, 4} <= precisions


def test_walk_terms_at_a_point_that_is_no_root():
    # away from every root of the factors no term vanishes: the walk at
    # precision 1 is the exact value of the sum at that point, mod p
    p = 2 ** 61 - 1
    rng = random.Random(20261020)
    params, andrews, _ = sample_until_valid(
        rng, lambda rg: draw_andrews_params(rg, 3, n_max=4),
        lambda pp: list(_multisum_terms(pp.a, pp.pairs, pp.N, 1)))
    assert params.N > 0 and len(andrews) > 1
    for terms in (truncated_terms(5, 1, 7), truncated_terms(7, -3, 9),
                  truncated_terms(9, 5, 6), andrews):
        point = rng.randrange(2, p)
        assert all(pow(point, a, p) != 1 for t in terms for a in t.factors)
        exact = sum((t.evaluate(point) for t in terms), Fraction(0))
        assert exact.denominator % p
        low, series = _walk_terms(_term_changes(terms), point, 1, p)
        assert (low, [c % p for c in series]) == \
            (0, [exact.numerator * pow(exact.denominator, -1, p) % p])


def _criterion_8_grid():
    cases = (enumerate_cases(Variant.THM1, 5, 14, (-5, 1))
             + enumerate_cases(Variant.THM2, 5, 14, (-5, 1)))
    return [(truncated_terms(c.d, c.r, c.upper_bound),
             q_integer_modulus(c.n, 2 if c.variant is Variant.THM1 else 1),
             c) for c in cases]


def test_oracle_shares_no_code_with_the_engine(monkeypatch):
    # criterion 8 compares the verdicts on the whole grid; this slice only
    # shows that the oracle reaches them with the engine patched out
    grid = _criterion_8_grid()[::5]
    expected = [check_congruence(theorem_sum(case), mod).status for _, mod, case in grid]
    assert {CheckStatus.PASS, CheckStatus.FAIL} <= set(expected)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called into the engine")

    for owner, name in [(qobjects, "qsum"), (qobjects, "_nest"), (hypergeom, "qsum"),
                        (congruence, "qsum"),
                        (exactalg.Poly, "divmod_monic"), (exactalg, "_poly_phi_valuation"),
                        (exactalg, "cyclotomic"), (congruence, "cyclotomic"),
                        (exactalg, "_binomial_count"), (exactalg, "_divide_out"),
                        (exactalg.Poly, "_divmod"), (exactalg.Poly, "div_exact"),
                        (exactalg, "_peel"), (exactalg, "_phi_exponents"),
                        (exactalg, "_least_floor"), (qobjects, "_phi_exponents"),
                        (qobjects, "_least_floor"), (exactalg, "_mul_packed"),
                        (exactalg, "_unpack"), (qobjects, "_mul_packed"),
                        (exactalg.FactoredFraction, "to_ratfunc"), (exactalg, "poly_gcd")]:
        monkeypatch.setattr(owner, name, forbidden)
    assert [oracle_check(terms, mod) for terms, mod, _ in grid] == expected
