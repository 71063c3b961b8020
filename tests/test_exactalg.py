"""Exact polynomial / rational function arithmetic and valuations."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from qcongruence.exactalg import (
    ExactDivisionError,
    FactoredFraction,
    INFINITE,
    ONE,
    Poly,
    Q,
    RatFunc,
    ZERO,
    cyclotomic,
    divisors,
    phi_valuation,
    poly_gcd,
    q_integer,
    ratfunc_normalize,
    rational_p_valuation,
)
from qcongruence import exactalg
from qcongruence.exactalg import (
    _MR_BASES,
    _MR_LIMIT,
    _binomial_count,
    _binomial_exponents,
    _binomial_steps,
    _divide_out,
    _expand_factors,
    _is_prime,
    _phi_exponents,
    _poly_phi_valuation,
    _slot_bits,
    _unpack,
)


def P(*coeffs):
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# oracles used by the tests (independent of the implementation under test)


def frac_divmod(num, den):
    """Long division of Fraction coefficient lists (constant term first)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for i in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[i] / den[-1]
        if c:
            k = i - (len(den) - 1)
            quot[k] = c
            for j, dj in enumerate(den):
                rem[k + j] -= c * dj
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def euclid_gcd_monic(a, b):
    """Monic gcd over Q via the plain Euclidean algorithm."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while any(b):
        _, r = frac_divmod(a, b)
        a, b = b, r
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def as_monic(p: Poly):
    if p.is_zero:
        return []
    lead = Fraction(p.lead)
    return [Fraction(c) / lead for c in p.coeffs]


def mobius(n):
    out, m = 1, n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def cyclotomic_mobius_oracle(n):
    """Phi_n via prod (q^d - 1)^mu(n/d), computed over Fractions."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for d in divisors(n):
        binom = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
        mu = mobius(n // d)
        if mu == 1:
            num = _frac_mul(num, binom)
        elif mu == -1:
            den = _frac_mul(den, binom)
    quot, rem = frac_divmod(num, den)
    assert not rem
    return quot


def _frac_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


small_polys = st.builds(Poly, st.lists(st.integers(-9, 9), max_size=7))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


# ---------------------------------------------------------------------------
# Poly basics


def test_poly_trims_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).is_zero
    assert P().degree == -1


def test_poly_arithmetic():
    a = P(1, 2, 3)
    b = P(0, -2)
    assert a + b == P(1, 0, 3)
    assert a - a == ZERO
    assert a * b == P(0, -2, -4, -6)
    assert (Q + 1) ** 2 == P(1, 2, 1)
    assert a * 0 == ZERO


def test_poly_division():
    num = P(-1, 0, 1)
    assert num.div_exact(P(-1, 1)) == P(1, 1)
    quot, rem = P(1, 1, 1).divmod_monic(P(0, 1))
    assert quot == P(1, 1) and rem == ONE
    # a non-monic divisor, exact and not: (2q + 1)(3q^2 - q + 5), and
    # 4q^2 + 3 = (2q + 1)(2q - 1) + 4
    assert P(5, 9, 1, 6).div_exact(P(1, 2)) == P(5, -1, 3)
    assert P(3, 0, 4)._divmod(P(1, 2)) == (P(-1, 2), P(4))
    with pytest.raises(ExactDivisionError):
        P(3, 0, 4).div_exact(P(1, 2))
    with pytest.raises(ExactDivisionError):
        P(1, 1).div_exact(P(0, 2))


def test_poly_evaluate():
    assert P(1, 2, 1).evaluate(Fraction(1, 2)) == Fraction(9, 4)
    assert P(1, 2, 1).evaluate(3) == 16


# ---------------------------------------------------------------------------
# gcd


def test_gcd_common_factor_by_construction():
    a = P(-1, 1) * P(1, 1)
    assert poly_gcd(a, P(-1, 1)) == P(-1, 1)


def test_gcd_coprime_linears():
    assert poly_gcd(P(1, 1), P(2, 1)) == ONE


def test_gcd_frozen_euclidean_oracle():
    # oracle: monic Euclid over Q gives (q^2 - 1) for (q^6-1, q^4-1)
    a = P(-1, 0, 0, 0, 0, 0, 1)
    b = P(-1, 0, 0, 0, 1)
    assert euclid_gcd_monic(a.coeffs, b.coeffs) == [Fraction(-1), 0, Fraction(1)]
    assert poly_gcd(a, b) == P(-1, 0, 1)


def test_gcd_conventions():
    assert poly_gcd(ZERO, ZERO) == ZERO
    assert poly_gcd(ZERO, P(0, -2)) == P(0, 1)
    assert poly_gcd(P(4), P(6)) == ONE  # primitive output


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert a.div_exact(g) * g == a
    assert b.div_exact(g) * g == b
    assert g == euclid_oracle_as_poly(a, b)


def euclid_oracle_as_poly(a, b):
    monic = euclid_gcd_monic(a.coeffs, b.coeffs)
    if not monic:
        return ZERO
    from math import lcm
    scale = lcm(*(c.denominator for c in monic))
    ints = Poly(int(c * scale) for c in monic)
    return ints.primitive_part()


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_multiplicative(a, b, c):
    lhs = poly_gcd(a * c, b * c)
    rhs = poly_gcd(a, b) * c
    rhs = rhs.primitive_part()
    if rhs.lead < 0:
        rhs = -rhs
    assert lhs == rhs


def test_gcd_heuristic_path_matches_prs():
    # degrees above the heuristic threshold, constructed common factor
    common = (Q ** 3 + Q + 1) ** 9
    a = common * P(1, 5, 1)
    b = common * P(-2, 0, 3)
    g = poly_gcd(a, b)
    assert a.div_exact(g) * g == a
    assert b.div_exact(g) * g == b
    assert g == euclid_oracle_as_poly(a, b)


# ---------------------------------------------------------------------------
# cyclotomics and q-integers


def test_cyclotomic_base_cases():
    assert cyclotomic(1) == P(-1, 1)
    assert cyclotomic(2) == P(1, 1)
    assert cyclotomic(6) == P(1, -1, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_6_against_division_oracle():
    # (q^6 - 1) / ((q-1)(q+1)(q^2+q+1)) over Fractions
    den = _frac_mul(_frac_mul([-1, 1], [1, 1]), [1, 1, 1])
    quot, rem = frac_divmod([-1, 0, 0, 0, 0, 0, 1], den)
    assert not rem
    assert [int(c) for c in quot] == list(cyclotomic(6).coeffs)


def test_cyclotomic_105_has_coefficient_minus_two():
    p = cyclotomic(105)
    oracle = cyclotomic_mobius_oracle(105)
    assert [Fraction(c) for c in p.coeffs] == oracle
    assert p.coeffs[7] == -2 and p.coeffs[41] == -2


def test_cyclotomic_product_identity_up_to_60():
    for n in range(1, 61):
        prod = ONE
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == Poly((-1,) + (0,) * (n - 1) + (1,)), n


def test_q_integer():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(4) == P(1, 1, 1, 1)
    assert q_integer(6) == cyclotomic(2) * cyclotomic(3) * cyclotomic(6)
    with pytest.raises(ValueError):
        q_integer(-1)


# ---------------------------------------------------------------------------
# RatFunc


def test_normalize_examples():
    assert ratfunc_normalize(P(-1, 0, 1), P(-1, 1)) == RatFunc(P(1, 1))
    assert ratfunc_normalize(ZERO, Poly.monomial(5)) == RatFunc(0)
    assert ratfunc_normalize(P(-1, 1), P(1, -1)) == RatFunc(-1)
    with pytest.raises(ZeroDivisionError):
        ratfunc_normalize(ONE, ZERO)


def test_normalize_reduces_integer_content():
    f = ratfunc_normalize(P(-2, 0, 2), P(2, 2))
    assert f.num == P(-1, 1) and f.den == ONE


@given(small_polys, nonzero_polys, nonzero_polys)
def test_field_properties(a, d1, d2):
    f = RatFunc(a, d1)
    g = RatFunc(d2, d1)
    assert (f + g) - g == f
    if not g.is_zero:
        assert (f * g) / g == f


@given(small_polys, nonzero_polys, small_polys, nonzero_polys, nonzero_polys)
def test_product_is_the_constructors_reduction(a, b, c, d, g):
    # g and b may cancel across the two factors, which only the cross pairs see
    x, y = RatFunc(a * g, b), RatFunc(c * b, d * g)
    want = RatFunc(x.num * y.num, x.den * y.den)
    for got in (x * y, y * x):
        assert (got.num, got.den) == (want.num, want.den)


@given(small_polys, nonzero_polys, small_polys, st.integers(-5, 5))
@example(Poly((1, 1)), Poly((-1, 0, 1)), Poly((1,)), 0)
@example(Poly((3,)), Poly((1,)), Poly((-3,)), 0)
def test_sum_with_a_polynomial_needs_no_gcd(a, b, p, c):
    # x + p with den(x) or den(p) = 1 is (num + p*den)/den, canonical as it
    # stands; the constructor's reduction of it is the reference
    x, y = RatFunc(a, b), RatFunc(p)
    with mock.patch.object(exactalg, "poly_gcd", side_effect=AssertionError("gcd")):
        got = [x + y, y + x, x + c, c + x, y + c]
    want = ([RatFunc(x.num + p * x.den, x.den)] * 2
            + [RatFunc(x.num + c * x.den, x.den)] * 2 + [RatFunc(p + c)])
    assert [(f.num, f.den) for f in got] == [(f.num, f.den) for f in want]


def test_ratfunc_integer_powers():
    f = RatFunc(P(1, 1), P(-1, 0, 1))
    assert f ** 0 == RatFunc(1)
    assert f ** -2 * f ** 2 == RatFunc(1)
    assert f ** -1 == RatFunc(P(-1, 0, 1), P(1, 1))
    with pytest.raises(ZeroDivisionError):
        RatFunc(0).inverse()


def test_ratfunc_evaluate_pole():
    f = RatFunc(ONE, P(-1, 1))
    assert f.evaluate(Fraction(1, 2)) == -2
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


def test_repr_evaluates_back_to_the_value():
    # a failing example's repr can be pasted back into a test
    names = {"Poly": Poly, "RatFunc": RatFunc}
    for x in [ZERO, ONE, Q + 2, P(0, -3, 0, 1), RatFunc(0), RatFunc(Q + 2),
              RatFunc(P(1, 1), P(-1, 0, 1)), RatFunc(P(-2, 0, 2), P(3, 0, 0, 5))]:
        assert eval(repr(x), names) == x


@given(small_polys, nonzero_polys)
def test_canonical_form_invariants(num, den):
    f = RatFunc(num, den)
    assert f.den.lead > 0
    if f.is_zero:
        assert f.den == ONE
    else:
        assert poly_gcd(f.num, f.den) == ONE
        g = Fraction(f.num.content) / Fraction(f.den.content)
        assert g.numerator == f.num.content  # contents are coprime


# ---------------------------------------------------------------------------
# valuations


def test_phi_valuation_examples():
    assert phi_valuation(q_integer(6), 3) == 1
    assert phi_valuation(P(1, 1) ** 2, 2) == 2
    assert phi_valuation(RatFunc(ONE, P(-1, 1)), 1) == -1
    assert phi_valuation(RatFunc(0), 7) == INFINITE


def test_valuation_strips_to_zero():
    f = RatFunc(cyclotomic(9) ** 3 * P(1, 1), P(3, 1))
    v = phi_valuation(f, 9)
    assert v == 3
    reduced = f / RatFunc(cyclotomic(9) ** 3)
    assert phi_valuation(reduced, 9) == 0


@given(nonzero_polys, nonzero_polys, st.integers(1, 12))
def test_valuation_additive(a, b, m):
    f, g = RatFunc(a), RatFunc(b)
    assert phi_valuation(f * g, m) == phi_valuation(f, m) + phi_valuation(g, m)


def divmod_count(p, m):
    """Multiplicity of Phi_m in p by repeated division by Phi_m itself."""
    phi, count = cyclotomic(m), 0
    while True:
        quot, rem = p.divmod_monic(phi)
        if not rem.is_zero:
            return count
        p, count = quot, count + 1


def binomial(a):
    return Poly((-1,) + (0,) * (a - 1) + (1,))  # q^a - 1


@given(nonzero_polys, st.integers(1, 12),
       st.lists(st.tuples(st.integers(1, 24), st.integers(0, 3)), max_size=3),
       st.lists(st.integers(1, 12), max_size=3))
def test_peeled_valuation_matches_repeated_division(g, m, cyclotomics, binomials):
    p = g
    for e, k in cyclotomics:
        p = p * cyclotomic(e) ** k
    for a in binomials:
        p = p * binomial(a)
    assert _poly_phi_valuation(p, m) == divmod_count(p, m)


@given(st.integers(1, 12), st.integers(0, 2),
       st.lists(st.integers(-3, 3), min_size=1, max_size=24))
def test_peeled_valuation_below_twice_the_index(m, j, coeffs):
    # deg p < 2m: the quotient by q^m - 1 is shorter than the remainder
    phi = cyclotomic(m)
    j = min(j, (2 * m - 1) // phi.degree)
    p = Poly(coeffs[:2 * m - j * phi.degree]) * phi ** j
    if not p.is_zero:
        assert _poly_phi_valuation(p, m) == divmod_count(p, m)


@given(st.integers(2, 12), st.integers(1, 3), nonzero_polys)
def test_peeled_valuation_finishes_by_division(m, j, g):
    # g(1) != 0, so q^m - 1 does not divide p and the first remainder is
    # non-zero, yet Phi_m divides it: the count ends in repeated division
    if g.evaluate(1) == 0:
        g = g + 1
    p = g * cyclotomic(m) ** j
    with mock.patch.object(exactalg, "_divide_out", wraps=exactalg._divide_out) as spy:
        assert _poly_phi_valuation(p, m) == j + divmod_count(g, m)
    assert spy.called


@given(nonzero_polys, st.integers(1, 12), st.integers(0, 16), st.integers(0, 16))
@example(P(1), 2, 8, 8)     # (q^2 - 1)^8: one class is empty from the floor on
@example(P(2, 1), 1, 12, 12)
def test_binomial_count_from_any_floor(g, m, k, floor):
    # p = g (q^m - 1)^k: every floor up to k gives the same count and the
    # same remainder, which is that of p / (q^m - 1)^j by q^m - 1
    p, floor = g * binomial(m) ** k, min(floor, k)
    j, rem = _binomial_count(p.coeffs, m, floor)
    assert j == k + _binomial_count(g.coeffs, m, 0)[0]
    quot = p.div_exact(binomial(m) ** j)
    assert Poly(rem) == quot.divmod_monic(binomial(m))[1] != ZERO
    assert _poly_phi_valuation(p, m, floor) == divmod_count(p, m)


def test_binomial_count_rejects_a_zero_or_a_floor_past_the_degree():
    # a floor is trusted, not checked, but (q^m - 1)^floor of a degree above
    # the polynomial's is an error, and so is a zero polynomial, whether it
    # is counted by prefix sums or by repeated division: never an endless loop
    p = binomial(2) ** 8
    with pytest.raises(ValueError):
        _binomial_count(p.coeffs, 2, 9)
    with pytest.raises(ValueError):
        _binomial_count((), 3, 0)
    with pytest.raises(ValueError):
        _divide_out(ZERO, cyclotomic(2))


# ---------------------------------------------------------------------------
# packed polynomials: P held as the int P(2**B)


def pack(coeffs, B):
    return sum(c << (i * B) for i, c in enumerate(coeffs))


@st.composite
def packable(draw):
    """(coefficients, B) with every |coefficient| < 2**(B - 1)."""
    B = draw(st.sampled_from([8, 16, 24, 64, 72]))
    top = (1 << (B - 1)) - 1
    extremes = st.sampled_from([top, -top, 0])
    coeffs = draw(st.lists(st.one_of(extremes, st.integers(-top, top)), max_size=40))
    return coeffs, B


@given(packable())
@example(([], 8))
@example(([0, 0], 8))
@example(([127, 0, -127, 0, 0], 8))
@example(([0, 0, -1], 16))
@example(([-(2 ** 71 - 1), 0, 2 ** 71 - 1] * 3, 72))
def test_unpack_inverts_pack(case):
    # extreme digits, inner and trailing zeros, the empty list
    coeffs, B = case
    want = list(coeffs)
    while want and not want[-1]:
        want.pop()
    assert _unpack(pack(coeffs, B), B) == want


@given(st.dictionaries(st.integers(1, 9), st.integers(0, 6), max_size=4))
def test_expand_factors_matches_poly_products(factors):
    want = ONE
    for a, m in factors.items():
        want = want * binomial(a) ** m
    assert Poly(_expand_factors(factors)) == want


def test_slot_bits_is_the_least_byte_multiple_above_the_bound():
    # a sign bit on top of the bound, and no spare bit
    for b in range(257):
        assert _slot_bits(b) == next(B for B in range(8, 272, 8) if B >= b + 1)


# ---------------------------------------------------------------------------
# canonical form by binomial steps


def nonzero(exponents):
    return {c: v for c, v in exponents.items() if v}


@given(st.dictionaries(st.integers(1, 30), st.integers(-4, 4), max_size=6))
def test_binomial_exponents_invert_phi_exponents(phi):
    # prod (q^d - 1)^k[d] = prod Phi_c^phi[c], read both ways
    k = _binomial_exponents(phi)
    assert nonzero(_phi_exponents(k)) == nonzero(phi)
    assert _binomial_exponents(_phi_exponents(k)) == k


@given(st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4))
def test_binomial_steps_build_cyclotomic_products(phi):
    want = ONE
    for c, v in phi.items():
        want = want * Poly(int(x) for x in cyclotomic_mobius_oracle(c)) ** v
    assert Poly(_binomial_steps([1], _binomial_exponents(phi))) == want


@given(nonzero_polys, st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=3),
       st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=3))
def test_binomial_steps_invert_a_product_of_binomials(g, down, up):
    # g (q^d - 1)^k over the binomials in `down`, then g back, also when
    # the same step multiplies by the binomials in `up`
    p = g
    for d, k in down.items():
        p = p * binomial(d) ** k
    assert Poly(_binomial_steps(g.coeffs, down)) == p
    assert Poly(_binomial_steps(p.coeffs, {d: -k for d, k in down.items()})) == g
    powers = {d: up.get(d, 0) - down.get(d, 0) for d in up.keys() | down.keys()}
    want = g
    for d, k in up.items():
        want = want * binomial(d) ** k
    assert Poly(_binomial_steps(p.coeffs, powers)) == want


@given(small_polys, st.integers(1, 12), st.integers(1, 3), st.data())
def test_binomial_steps_reject_a_non_multiple(h, d, k, data):
    # p = h (q^d - 1)^k + r, 0 != deg r < d: q^d - 1 leaves the remainder r
    r = data.draw(small_polys.filter(lambda r: not r.is_zero and r.degree < d))
    p = h * binomial(d) ** k + r
    with pytest.raises(ExactDivisionError):
        _binomial_steps(p.coeffs, {d: -k})


@st.composite
def factored_fractions(draw):
    """num / (q^s prod (q^a - 1)^m) with num = g prod Phi_c^j[c] prod
    (q^b - 1)^k[b]; half the time it carries as its floor the Phi_d counts
    of those binomials, which num provably holds and which, like every
    floor that qsum proves, never fall from d to a multiple of d."""
    g = draw(nonzero_polys)
    j = draw(st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=3))
    k = draw(st.dictionaries(st.integers(1, 12), st.integers(0, 2), max_size=2))
    factors = draw(st.dictionaries(st.integers(1, 12), st.integers(1, 3),
                                   min_size=1, max_size=3))
    num = g
    for c, v in j.items():
        num = num * cyclotomic(c) ** v
    for b, v in k.items():
        num = num * binomial(b) ** v
    floor = _phi_exponents(k) if draw(st.booleans()) else {}
    return FactoredFraction(num, factors, draw(st.integers(0, 3)), floor)


def general_reduction(value):
    return RatFunc(value.num, Poly(_expand_factors(value.factors)).shifted(value.qshift))


@given(factored_fractions())
def test_canonical_form_matches_the_general_reduction(value):
    got, want = value.to_ratfunc(), general_reduction(value)
    assert (got.num, got.den) == (want.num, want.den)


@given(factored_fractions(), st.data())
def test_canonical_form_off_by_one_is_caught(value, data):
    # a shared multiplicity v_c one too high divides the numerator or the
    # denominator by a Phi_c it does not hold, which raises; one too low
    # leaves Phi_c in both, where the general reduction has none
    c = data.draw(st.sampled_from(sorted({c for a in value.factors for c in divisors(a)})))
    real, want = exactalg._binomial_exponents, general_reduction(value)
    with mock.patch.object(exactalg, "_binomial_exponents",
                           lambda phi: real({**phi, c: phi[c] + 1})):
        with pytest.raises(ExactDivisionError):
            value.to_ratfunc()
    with mock.patch.object(exactalg, "_binomial_exponents",
                           lambda phi: real({**phi, c: phi[c] - 1})):
        got = value.to_ratfunc()
    assert (got.num, got.den) == (want.num * cyclotomic(c), want.den * cyclotomic(c))


def test_infinite_valuation_ordering():
    assert INFINITE >= 4
    assert INFINITE > 10**9
    assert not (INFINITE < 0)
    assert INFINITE == INFINITE


def test_is_prime_agrees_with_trial_division():
    for n in range(10 ** 5):
        assert _is_prime(n) == (n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))), n


def test_is_prime_refuses_numbers_its_bases_do_not_decide():
    # psi_12, the least strong pseudoprime to every base 2..37, is composite
    psi12 = 399165290221 * 798330580441
    assert psi12 == _MR_LIMIT
    d, s = psi12 - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, psi12)
        assert x == 1 or any(pow(x, 2 ** i, psi12) == psi12 - 1 for i in range(s))
    for n in (psi12, psi12 + 2):
        with pytest.raises(ValueError, match="not decided"):
            _is_prime(n)
        with pytest.raises(ValueError, match="not decided"):
            rational_p_valuation(1, n)
    assert _is_prime(2 ** 61 - 1)


def test_rational_p_valuation():
    assert rational_p_valuation(5, 5) == 1
    assert rational_p_valuation(Fraction(1, 25), 5) == -2
    assert rational_p_valuation(7, 3) == 0
    assert rational_p_valuation(0, 5) == INFINITE
    with pytest.raises(ValueError, match=r"^p = 4 is not prime$"):
        rational_p_valuation(3, 4)
    with pytest.raises(ValueError, match=r"^p = 1 is not prime$"):
        rational_p_valuation(3, 1)
