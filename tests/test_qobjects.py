"""q-shifted factorials, factored products, and the summation kernel."""

import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from qcongruence import exactalg
from qcongruence.exactalg import ONE, Poly, RatFunc, _expand_factors, poly_gcd
from qcongruence.exactalg import INFINITE, phi_valuation
from qcongruence.exactalg import _binomial_count, _poly_phi_valuation, divisors
from qcongruence.congruence import enumerate_cases
from qcongruence.qobjects import (
    QPochSpec,
    QProduct,
    VanishingDenominator,
    _nest,
    q_poch_product,
    q_pochhammer,
    qsum,
    rising_factorial,
)
from qcongruence.hypergeom import (
    Variant,
    andrews_lhs,
    andrews_rhs,
    draw_andrews_params,
    draw_km_params,
    draw_watson_exponents,
    gasper_terminating_sum,
    multi_km_sum,
    sample_until_valid,
    theorem_sum,
    truncated_sum,
    truncated_terms,
    watson_pair,
)


def expand(*binomials):
    out = Poly((1,))
    for e in binomials:
        out = out * Poly((-(1), *([0] * (e - 1)), 1))  # q^e - 1
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        QPochSpec(1, 0, 3)
    with pytest.raises(ValueError):
        QPochSpec(1, 2, -1)


def test_pochhammer_examples():
    # (q; q^5)_2 = (1-q)(1-q^6)
    got = q_pochhammer(QPochSpec(1, 5, 2))
    assert got == RatFunc(Poly((1, -1)) * Poly((1, 0, 0, 0, 0, 0, -1)))
    # (q^-1; q^5)_1 = -(1-q)/q
    got = q_pochhammer(QPochSpec(-1, 5, 1))
    assert got == RatFunc(Poly((-1, 1)), Poly((0, 1)))
    # empty product
    assert q_pochhammer(QPochSpec(7, 3, 0)) == RatFunc(1)


def test_pochhammer_vanishing():
    assert q_pochhammer(QPochSpec(0, 1, 1)).is_zero
    assert q_pochhammer(QPochSpec(-4, 2, 4)).is_zero  # hits exponent 0


def test_poch_product_examples():
    got = q_poch_product([(QPochSpec(1, 5, 1), 5), (QPochSpec(5, 5, 1), -5)])
    ref = RatFunc(Poly((1, -1)) ** 5, Poly((1, 0, 0, 0, 0, -1)) ** 5)
    assert got == ref
    assert q_poch_product([]) == RatFunc(1)
    with pytest.raises(VanishingDenominator, match=r"\(q\^0; q\^1\)_1\^-1"):
        q_poch_product([(QPochSpec(0, 1, 1), -1)])


def test_poch_product_zero_times_positive_power():
    got = q_poch_product([(QPochSpec(0, 1, 2), 1), (QPochSpec(1, 1, 1), -1)])
    assert got.is_zero


@given(
    st.integers(-6, 6), st.integers(1, 4),
    st.integers(0, 5), st.integers(0, 5),
)
def test_pochhammer_splitting(e, d, k1, k2):
    whole = q_pochhammer(QPochSpec(e, d, k1 + k2))
    split = q_pochhammer(QPochSpec(e, d, k1)) * q_pochhammer(QPochSpec(e + k1 * d, d, k2))
    assert whole == split


@given(
    st.integers(-6, 6), st.integers(1, 4), st.integers(0, 5),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3)),
)
def test_pochhammer_numeric_substitution(e, d, k, t):
    if t in (0, 1, -1):
        t += Fraction(1, 7)
    direct = Fraction(1)
    for a in QPochSpec(e, d, k).factor_exponents():
        direct *= 1 - Fraction(t) ** a
    value = q_pochhammer(QPochSpec(e, d, k))
    assert value.evaluate(t) == direct


def test_rising_factorial():
    assert rising_factorial(Fraction(1, 2), 0) == 1
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    with pytest.raises(ValueError):
        rising_factorial(1, -1)


@given(st.fractions(min_value=Fraction(-4), max_value=Fraction(4)), st.integers(0, 8))
def test_rising_factorial_recurrence(a, k):
    assert rising_factorial(a, k) * (a + k) == rising_factorial(a, k + 1)


# ---------------------------------------------------------------------------
# the summation kernel


def qp(sign=1, qexp=0, **factors):
    t = QProduct()
    t.sign = sign
    t.qexp = qexp
    t.factors = {int(a[1:]): m for a, m in factors.items()}
    return t


def test_qsum_empty_and_cancellation():
    assert qsum([]).is_zero
    t1 = qp(sign=1, f3=-1)
    t2 = qp(sign=-1, f3=-1)
    assert qsum([t1, t2]).is_zero


def test_qsum_matches_generic_ratfunc_arithmetic():
    # 1/(q^2-1) + q^3/(q^3-1) - (q-1), assembled both ways
    terms = []
    t = QProduct().mul_one_minus_q(2, -1)
    t.sign = -t.sign  # 1/(q^2-1) = -1/(1-q^2)
    terms.append(t)
    t = QProduct().mul_one_minus_q(3, -1).mul_qpow(3)
    t.sign = -t.sign
    terms.append(t)
    t = QProduct().mul_one_minus_q(1, 1)
    terms.append(t)
    got = qsum(terms)
    ref = (
        RatFunc(ONE, Poly((-1, 0, 1)))
        + RatFunc(Poly.monomial(3), Poly((-1, 0, 0, 1)))
        + RatFunc(Poly((1, -1)))
    )
    assert got == ref
    assert poly_gcd(got.to_ratfunc().num, got.to_ratfunc().den) == ONE


@given(st.lists(
    st.tuples(st.sampled_from([-1, 1]), st.integers(-4, 4),
              st.integers(1, 5), st.integers(-2, 2)),
    max_size=5,
))
def test_qsum_agrees_with_numeric_substitution(raw):
    terms = []
    for sign, qexp, a, mult in raw:
        t = QProduct()
        t.sign = sign
        t.qexp = qexp
        if mult:
            t.factors[a] = mult
        terms.append(t)
    value = qsum(terms)
    t = Fraction(5, 3)
    direct = sum((term.evaluate(t) for term in terms), Fraction(0))
    assert value.evaluate(t) == direct
    if not value.is_zero:
        assert poly_gcd(value.to_ratfunc().num, value.to_ratfunc().den) == ONE
        assert value.to_ratfunc().den.lead > 0


@given(st.lists(
    st.tuples(st.sampled_from([-1, 1]), st.integers(-4, 4),
              st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=4),
              st.booleans()),
    max_size=5,
))
def test_qsum_valuations_match_canonical_form(raw):
    # poles (negative multiplicities), terms that cancel (a negated twin),
    # and zero sums (empty, or every term twinned)
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
    value = qsum(terms)
    canonical = value.to_ratfunc()
    # the reference: the general (PRS gcd) reduction of the unreduced value
    reference = RatFunc(value.num, Poly(_expand_factors(value.factors)).shifted(value.qshift))
    assert (canonical.num, canonical.den) == (reference.num, reference.den)
    assert value.is_zero == canonical.is_zero
    for m in range(1, 13):
        assert value.valuation(m) == phi_valuation(canonical, m)
        assert phi_valuation(value, m) == value.valuation(m)
    if all(twin for *_, twin in raw):
        assert value.valuation(5) is INFINITE


# the strategy of test_qsum_valuations_match_canonical_form: poles, negated
# twins and zero sums
qproduct_lists = st.lists(
    st.tuples(st.sampled_from([-1, 1]), st.integers(-4, 4),
              st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=4),
              st.booleans()),
    max_size=5,
)


def build_terms(raw):
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


def reference_qsum(terms):
    """(num, factors, qshift) of the sum, every term expanded on its own
    over the least common denominator by plain Poly products."""
    live = [t for t in terms if not t.is_zero]
    den = {}
    for t in live:
        for a, m in t.factors.items():
            if m < 0:
                den[a] = max(den.get(a, 0), -m)
    qden = -min([0] + [t.qexp for t in live])
    num = Poly()
    for t in live:
        p = Poly((t.sign,)).shifted(t.qexp + qden)
        for a in set(den) | set(t.factors):
            p = p * expand(a) ** (den.get(a, 0) + t.factors.get(a, 0))
        num = num + p
    return num, den, qden


def assert_matches_reference(value, terms):
    num, den, qden = reference_qsum(terms)
    assert (value.num, value.factors, value.qshift) == (num, den, qden)


@given(qproduct_lists, st.lists(st.integers(0, 6), max_size=2))
@example([], [])
@example([(1, 0, {}, False)], [])
@example([(-1, 3, {4: -2, 6: 1}, False)], [0])
@example([(1, 0, {1: 2, 3: -1}, False), (1, -2, {2: 1, 5: -2}, False),
          (-1, 1, {7: 3}, False), (1, 4, {4: -1, 9: 1}, False)], [])
@example([(1, 0, {5: 2, 2: 1}, False), (-1, 1, {2: 1}, False), (1, 0, {2: 2}, False)], [])
@example([(1, 0, {3: 2, 1: 1}, False), (1, 2, {1: 2}, False),
          (-1, 0, {3: 1, 1: 1}, False), (1, 1, {1: 1}, False)], [])
@example([(1, 0, {2: 3}, False), (-1, 1, {2: 1}, False), (1, 0, {2: 2}, False),
          (1, 3, {}, False)], [])
@example([(1, 0, {1: 1, 4: 2}, False), (-1, 1, {2: 1, 4: 1}, False)], [1])
@example([(1, -1, {2: 2, 5: -1}, False)], [])
def test_qsum_matches_per_term_expansion(raw, zeros):
    # poles, negated twins, zero terms (inserted at the drawn positions),
    # one term, no terms, and neighbours that share no factor; and for the
    # carried prefix minimum, a factor only in the first term, a factor
    # that leaves and comes back, a multiplicity that falls and rises, and
    # a zero term between live ones
    terms = build_terms(raw)
    for i in zeros:
        zero = QProduct().mul_one_minus_q(0)
        zero.factors = {3: -2}
        terms.insert(min(i, len(terms)), zero)
    assert_matches_reference(qsum(terms), terms)


def nonzero(e):
    return {a: m for a, m in e.items() if m}


def add_maps(x, y):
    out = dict(x)
    for a, m in y.items():
        out[a] = out.get(a, 0) + m
    return nonzero(out)


@given(qproduct_lists, st.lists(st.integers(0, 6), max_size=2))
@example([(1, 0, {1: 2, 3: -1}, False), (1, -2, {2: 1, 5: -2}, False),
          (-1, 1, {7: 3}, False), (1, 4, {4: -1, 9: 1}, False)], [1])
@example([(1, 0, {3: 2, 1: 1}, False), (1, 2, {1: 2}, False),
          (-1, 0, {3: 1, 1: 1}, False), (1, 1, {1: 1}, False)], [])
def test_nest_steps_rebuild_each_row(raw, zeros):
    # the schedule alone, on exponent maps: every map it multiplies by is
    # non-negative (nothing is divided), and term k's share of the sum, the
    # final map times the tail maps of the steps after it, the cofactor
    # maps up to it and its own map, is its row e_k
    terms = build_terms(raw)
    for i in zeros:
        terms.insert(min(i, len(terms)), QProduct().mul_one_minus_q(0))
    den, qden, rows, steps, final = _nest(terms)
    live = [t for t in terms if not t.is_zero]
    assert qden == -min([0] + [t.qexp for t in live])
    assert [(sign, shift, nonzero(e)) for sign, shift, e in rows] == [
        (t.sign, t.qexp + qden, add_maps(den, t.factors)) for t in live]
    assert len(steps) == len(rows)
    carried, shares = {}, []
    for sign, shift, tail, cofactor, own in steps:
        assert min([0, *tail.values(), *cofactor.values(), *own.values()]) == 0
        shares = [add_maps(share, tail) for share in shares]
        carried = add_maps(carried, cofactor)
        shares.append(add_maps(carried, own))
    assert min([0, *final.values()]) == 0
    assert [(sign, shift) for sign, shift, *_ in reversed(steps)] == [
        (sign, shift) for sign, shift, _ in rows]
    assert [add_maps(share, final) for share in reversed(shares)] == [
        nonzero(e) for *_, e in rows]


def test_qsum_coefficients_past_64_bits():
    # coefficients near C(100, 50) ~ 2**96; sign, shift and denominator vary
    terms = []
    for i in range(12):
        t = QProduct().mul_one_minus_q(1 + i % 3, 100).mul_qpow(i - 4)
        t.mul_one_minus_q(5, -(i % 4))
        if i % 5 == 2:
            t.sign = -t.sign
        terms.append(t)
    value = qsum(terms)
    assert max(map(abs, value.num.coeffs)).bit_length() > 64
    assert_matches_reference(value, terms)


@pytest.mark.parametrize("copies", [1, 7, 64, 300])
def test_qsum_slots_hold_the_sum_of_many_equal_terms(copies):
    # (1 - q)^6 alone fits 8-bit slots, but from 7 copies on its sum does not
    terms = [QProduct().mul_one_minus_q(1, 6) for _ in range(copies)]
    assert_matches_reference(qsum(terms), terms)


@pytest.mark.parametrize("d,r", [(3, 1), (3, -3), (3, -9), (5, 1), (5, -5),
                                 (5, -1), (7, 1), (7, -7), (7, -3)])
def test_truncated_sum_matches_per_term_expansion(d, r):
    # r = -d*j gives zero terms from k = j + 1 on; the terms themselves are
    # pinned against a from-scratch build in test_ratio_walk.py
    for upper in range(7):
        terms = truncated_terms(d, r, upper)
        assert_matches_reference(truncated_sum(d, r, upper), terms)


ARITHMETIC = [
    pytest.param(operator.add, id="+"),
    pytest.param(operator.sub, id="-"),
    pytest.param(operator.mul, id="*"),
]


Q_INV = RatFunc(1, Poly((0, 1)))


@pytest.mark.parametrize("op", [
    pytest.param(op.values[0], id=f"Poly {op.id} RatFunc") for op in ARITHMETIC
])
def test_poly_with_other_operand_defers_to_it(op):
    p = Poly((1, 1))
    got = op(p, Q_INV)
    assert type(got) is RatFunc
    assert got == op(RatFunc(p), Q_INV)


# ---------------------------------------------------------------------------
# floors: the Phi_d multiplicities that a sum's terms prove


# term lists times a shared (q^a - 1)^k, so that floors reach the size at
# which a count starts from them
shared_power_lists = st.tuples(qproduct_lists, st.integers(1, 12), st.integers(0, 12))


def build_shared(case):
    raw, a, k = case
    terms = build_terms(raw)
    for t in terms:
        t.mul_one_minus_q(a, k)
    return terms


def assert_true_floor(value):
    """Every floor is at most the plain count, and every valuation is the
    plain count's."""
    for d, v in value._floor.items():
        assert _poly_phi_valuation(value.num, d) >= v, (d, v)
    for m in range(1, 13):
        assert value.valuation(m) == (_poly_phi_valuation(value.num, m)
                                      - value.den_multiplicity(m))


@given(shared_power_lists)
@example(([(1, 0, {}, False)], 4, 12))
@example(([(1, 0, {}, False), (-1, 3, {2: 1}, False)], 6, 12))
def test_qsum_floor_is_a_lower_bound_and_counts_from_it_match(case):
    value = qsum(build_shared(case))
    if value.is_zero:
        return
    assert_true_floor(value)
    cs = value.num.coeffs
    for m in range(1, 13):
        assert _binomial_count(cs, m, value.binomial_floor(m)) == _binomial_count(cs, m, 0)


@given(st.sampled_from([-1, 1]), st.integers(-4, 4),
       st.dictionaries(st.integers(1, 12), st.integers(-3, 12), max_size=4))
def test_qsum_floor_of_one_term_is_exact(sign, qexp, factors):
    t = QProduct()
    t.sign, t.qexp = sign, qexp
    t.factors = {a: m for a, m in factors.items() if m}
    value = qsum([t])
    for d in range(1, 13):
        assert value._floor.get(d, 0) == _poly_phi_valuation(value.num, d)


def test_theorem_counts_from_the_floor_match_counts_from_zero():
    # both theorem families, d <= 7, n <= 14, every index up to 2n with a
    # non-zero floor; most counts end at the floor itself
    at_floor = 0
    for variant in Variant:
        for case in enumerate_cases(variant, 7, 14, (-7, 7)):
            value = theorem_sum(case)
            for m in range(1, 2 * case.n + 1):
                floor = value.binomial_floor(m)
                if floor:
                    got = _binomial_count(value.num.coeffs, m, floor)
                    assert got == _binomial_count(value.num.coeffs, m, 0), (case, m)
                    at_floor += got[0] == floor
    assert at_floor > 300


# per identity evaluator: a draw, and the sums it builds from the draw
IDENTITY_SUMS = [
    (lambda rg: draw_andrews_params(rg, 3), lambda p: [andrews_lhs(p), andrews_rhs(p)]),
    (draw_watson_exponents, lambda t: list(watson_pair(*t))),
    (lambda rg: draw_km_params(rg, 2), lambda p: [gasper_terminating_sum(p)]),
    (lambda rg: draw_km_params(rg, 2), lambda p: [multi_km_sum(p)]),
]


def test_floor_never_falls_from_a_divisor_to_a_multiple():
    # binomial_floor(m) reads the floor at m alone, which is the least
    # floor over the divisors of m only while no divisor's floor is below it
    sums = [theorem_sum(case) for variant in Variant
            for case in enumerate_cases(variant, 7, 20, (-7, 7))]
    rng = random.Random(2718)
    for draw, build in IDENTITY_SUMS:
        for _ in range(20):
            sums += sample_until_valid(rng, draw, build)[1]
    assert sum(bool(value._floor) for value in sums) > 150
    for value in sums:
        for m, v in value._floor.items():
            for d in divisors(m):
                assert value._floor.get(d, 0) >= v, (value, d, m)


def test_count_from_a_floor_finishes_by_division():
    # (q^2 - 1)^8 (1 + q): the floor at 2 is 8 and so is the (q^2 - 1)-count,
    # but Phi_2 divides once more
    terms = [QProduct().mul_one_minus_q(2, 8), QProduct().mul_one_minus_q(2, 8).mul_qpow(1)]
    value = qsum(terms)
    assert value.binomial_floor(2) == 8
    assert _binomial_count(value.num.coeffs, 2, 8)[0] == 8
    with mock.patch.object(exactalg, "_divide_out", wraps=exactalg._divide_out) as spy:
        assert value.valuation(2) == 9
    assert spy.called
