"""Truncated sums, hypergeometric identities, and the proof decomposition."""

import json
import os
import random
from fractions import Fraction

import pytest

from qcongruence.exactalg import (
    Poly, RatFunc, _expand_factors, divisors, phi_valuation, q_integer,
)
from qcongruence.qobjects import QPochSpec, q_poch_product, qsum
from qcongruence.hypergeom import (
    AndrewsParams,
    InvalidCase,
    KarlssonMintonParams,
    TheoremCase,
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
    theorem_term,
    truncated_sum,
    truncated_terms,
    watson_pair,
)
from qcongruence.hypergeom import _case_violations, _solved_index, _vwp_series
from qcongruence import exactalg


# ---------------------------------------------------------------------------
# cases


def test_case_validation():
    case = TheoremCase(5, 1, 9, Variant.THM1, Truncation.UPPER)
    assert case.upper_bound == 7 and case.depth == 3
    assert TheoremCase(5, 1, 9, Variant.THM1, Truncation.FULL).upper_bound == 8
    assert TheoremCase(5, 1, 7, Variant.THM2, Truncation.UPPER).upper_bound == 4
    with pytest.raises(InvalidCase) as exc:
        TheoremCase(5, 3, 9, Variant.THM1)
    assert any("r <= d - 4" in v for v in exc.value.violations)
    with pytest.raises(InvalidCase):
        TheoremCase(5, 1, 8, Variant.THM1)
    with pytest.raises(InvalidCase):
        TheoremCase(4, 1, 5, Variant.THM1)
    # smallest THM2 case: n = (d - r)/2
    assert TheoremCase(5, 1, 2, Variant.THM2).upper_bound == 1


def test_solved_index_is_every_stated_truncation():
    # lemma 3's m, the one m in [0, n) with d*m = -r (mod n), is thm1's
    # (dn - n - r)/d, thm2's (dn - 2n - r)/d, and lemma 4's count (the
    # second family's hypotheses with d >= 3)
    cases = 0
    for d in range(-3, 16):
        for r in range(-30, 16):
            for n in range(-3, 60):
                for variant, d_min in ((Variant.THM1, 5), (Variant.THM2, 5), (Variant.THM2, 3)):
                    if _case_violations(d, r, n, variant, d_min):
                        continue
                    m = _solved_index(d, r, n)
                    assert [x for x in range(n) if (d * x + r) % n == 0] == [m]
                    stated = d * n - n - r if variant is Variant.THM1 else d * n - 2 * n - r
                    assert stated == d * m, (d, r, n, variant)
                    if d_min == 5:
                        assert TheoremCase(d, r, n, variant).upper_bound == m
                    cases += 1
    assert cases == 1670
    assert _solved_index(5, 1, 1) == 0      # lemma 3 at n = 1


# ---------------------------------------------------------------------------
# terms and sums


def test_term_k0_is_q_integer_of_r():
    case = TheoremCase(5, 1, 9, Variant.THM1)
    assert theorem_term(case, 0) == RatFunc(1)
    # [r] for negative r: [-3] = -(1+q+q^2)/q^3
    case = TheoremCase(5, -3, 8, Variant.THM1)
    assert theorem_term(case, 0) == RatFunc(-q_integer(3), Poly.monomial(3))


def test_term_k1_matches_definition():
    case = TheoremCase(5, 1, 9, Variant.THM1)
    got = theorem_term(case, 1)
    ref = (
        RatFunc(q_integer(11))
        * q_poch_product([(QPochSpec(1, 5, 1), 5), (QPochSpec(5, 5, 1), -5)])
        * RatFunc(Poly.monomial(5))
    )
    assert got == ref


def test_term_negative_r():
    case = TheoremCase(5, -1, 6, Variant.THM1)
    got = theorem_term(case, 1)
    ref = (
        RatFunc(q_integer(9))
        * q_poch_product([(QPochSpec(-1, 5, 1), 5), (QPochSpec(5, 5, 1), -5)])
        * RatFunc(Poly.monomial(10))
    )
    assert got == ref


def test_term_range_check():
    case = TheoremCase(5, 1, 9, Variant.THM1)
    with pytest.raises(ValueError):
        theorem_term(case, 8)


def test_single_term_sum_is_q_integer_of_r():
    assert truncated_sum(5, 1, 0) == RatFunc(1)
    assert truncated_sum(7, 3, 0) == RatFunc(q_integer(3))


def test_truncated_sum_numeric_oracle():
    # independent Fraction evaluation at q = 3/2
    d, r, upper = 5, -1, 4
    t = Fraction(3, 2)
    def qint(x):
        return (1 - t**x) / (1 - t)
    direct = Fraction(0)
    for k in range(upper + 1):
        term = qint(2 * d * k + r)
        for i in range(k):
            term *= ((1 - t ** (r + d * i)) / (1 - t ** (d + d * i))) ** d
        direct += term * t ** (d * (d - r - 2) * k // 2)
    assert truncated_sum(d, r, upper).evaluate(t) == direct


def test_theorem_sum_valuations():
    S = theorem_sum(TheoremCase(5, 1, 9, Variant.THM1, Truncation.UPPER))
    assert phi_valuation(S, 9) >= 3
    S = theorem_sum(TheoremCase(5, 1, 7, Variant.THM2, Truncation.UPPER))
    assert phi_valuation(S, 7) >= 2


def test_sum_shape_rejected_for_odd_power():
    with pytest.raises(ValueError):
        truncated_sum(3, 2, 4)  # d(d - r - 2) odd


# ---------------------------------------------------------------------------
# identities: multiseries transformation


def test_andrews_n0_both_sides_one():
    p = AndrewsParams(a=3, pairs=((1, 2), (4, -1)), N=0)
    assert andrews_lhs(p) == RatFunc(1)
    assert andrews_rhs(p) == RatFunc(1)


def test_andrews_fixed_m3_case():
    p = AndrewsParams(a=8, pairs=((6, -10), (7, -12), (3, -4)), N=3)
    lhs, rhs = andrews_lhs(p), andrews_rhs(p)
    assert lhs == rhs
    assert not lhs.is_zero


def test_andrews_randomized():
    rng = random.Random(20260808)
    for m in (2, 3):
        for _ in range(10):
            p, ok, _ = sample_until_valid(
                rng,
                lambda rg: draw_andrews_params(rg, m, n_max=4),
                lambda pp: andrews_lhs(pp) == andrews_rhs(pp),
            )
            assert ok, p


def test_andrews_requires_two_pairs():
    with pytest.raises(ValueError):
        AndrewsParams(a=1, pairs=((2, 3),), N=1)


def _poch_num(x, t, k):
    out = Fraction(1)
    for j in range(k):
        out *= 1 - x * t**j
    return out


def _andrews_lhs_numeric(p, t):
    """Both formulas written out from first principles over Fractions."""
    a = t**p.a
    bc = [(t**b, t**c) for b, c in p.pairs]
    m = len(bc)
    z = a**m * t ** (m + p.N)
    for b, c in bc:
        z /= b * c
    total = Fraction(0)
    for k in range(p.N + 1):
        term = (1 - a * t ** (2 * k)) / (1 - a)
        term *= _poch_num(a, t, k) / _poch_num(t, t, k)
        for b, c in bc:
            term *= _poch_num(b, t, k) * _poch_num(c, t, k)
            term /= _poch_num(a * t / b, t, k) * _poch_num(a * t / c, t, k)
        term *= _poch_num(t**-p.N, t, k) / _poch_num(a * t ** (p.N + 1), t, k)
        total += term * z**k
    return total


def _andrews_rhs_numeric(p, t):
    a = t**p.a
    bc = [(t**b, t**c) for b, c in p.pairs]
    m = len(bc)
    bm, cm = bc[-1]
    pre = _poch_num(a * t, t, p.N) * _poch_num(a * t / (bm * cm), t, p.N)
    pre /= _poch_num(a * t / bm, t, p.N) * _poch_num(a * t / cm, t, p.N)
    total = Fraction(0)
    from itertools import product
    for js in product(range(p.N + 1), repeat=m - 1):
        if sum(js) > p.N:
            continue
        term = Fraction(1)
        partial = 0
        for i, j in enumerate(js):
            b, c = bc[i]
            term *= _poch_num(a * t / (b * c), t, j) / _poch_num(t, t, j)
            partial += j
            bn, cn = bc[i + 1]
            term *= _poch_num(bn, t, partial) * _poch_num(cn, t, partial)
            term /= _poch_num(a * t / b, t, partial) * _poch_num(a * t / c, t, partial)
            if i < m - 2:
                term *= (a * t / (bn * cn)) ** partial
        term *= _poch_num(t**-p.N, t, partial)
        term /= _poch_num(bm * cm * t**-p.N / a, t, partial)
        total += term * t**partial
    return pre * total


def test_andrews_sides_against_first_principles_numeric():
    t = Fraction(4, 3)
    for p in (
        AndrewsParams(a=8, pairs=((6, -10), (7, -12), (3, -4)), N=3),
        AndrewsParams(a=3, pairs=((8, 7), (-7, -9)), N=2),
    ):
        assert andrews_lhs(p).evaluate(t) == _andrews_lhs_numeric(p, t)
        assert andrews_rhs(p).evaluate(t) == _andrews_rhs_numeric(p, t)


# ---------------------------------------------------------------------------
# identities: the m = 2 transformation


def test_watson_n0():
    assert watson_pair(2, 3, -1, 4, 5, 0) == (RatFunc(1), RatFunc(1))


def test_watson_randomized():
    rng = random.Random(7)
    for _ in range(10):
        t, ok, _ = sample_until_valid(
            rng,
            lambda rg: draw_watson_exponents(rg, N=2),
            lambda tt: watson_pair(*tt)[0] == watson_pair(*tt)[1],
        )
        assert ok, t


def test_watson_consistent_with_andrews_m2():
    rng = random.Random(99)
    for _ in range(5):
        (a, b, c, d, e, N), _, _ = sample_until_valid(
            rng,
            lambda rg: draw_watson_exponents(rg, N=2),
            lambda tt: watson_pair(*tt),
        )
        p = AndrewsParams(a=a, pairs=((b, c), (d, e)), N=N)
        lhs, rhs = watson_pair(a, b, c, d, e, N)
        assert andrews_lhs(p) == lhs
        assert andrews_rhs(p) == rhs


IDENTITY_POOL = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected",
                             "identity_fuzz.jsonl")


def stored_identity_sides():
    """Both sides of one stored identity trial per (kind, m) that compares
    two sums: the first with N <= 4 whose sides are neither 0 nor free of
    (q^a - 1) factors.  The gasper-km and multi-km trials are zero tests
    of one sum, which have no sides."""
    sides = {}
    with open(IDENTITY_POOL) as fh:
        for entry in map(json.loads, fh):
            kind = entry["argv"][1]
            if kind not in ("andrews", "watson") or entry["N"] > 4 or entry["spec"] in sides:
                continue
            params = json.loads(entry["stdout"])["params"]
            if kind == "andrews":
                p = AndrewsParams(params["a"], tuple(map(tuple, params["pairs"])), params["N"])
                pair = andrews_lhs(p), andrews_rhs(p)
            else:
                pair = watson_pair(*(params[k] for k in ("a", "b", "c", "d", "e", "N")))
            if all(side.factors and side for side in pair):
                sides[entry["spec"]] = pair
    assert sorted(sides) == ["andrews-m2", "andrews-m3", "andrews-m4", "watson-m2"]
    return [side for pair in sides.values() for side in pair]


def test_stored_identity_sides_match_the_general_reduction():
    # the floors here are the ones qsum proves from real terms, and some of
    # them prove a whole shared multiplicity, so that count is skipped
    shortcuts = 0
    for value in stored_identity_sides():
        got = value.to_ratfunc()
        want = RatFunc(value.num, Poly(_expand_factors(value.factors)).shifted(value.qshift))
        assert (got.num, got.den) == (want.num, want.den)
        shared = {c for a in value.factors for c in divisors(a)}
        shortcuts += sum(value._floor.get(c, 0) >= value.den_multiplicity(c) for c in shared)
    assert shortcuts > 0


# ---------------------------------------------------------------------------
# identities: Karlsson-Minton type


def test_gasper_minimal_zero():
    p = KarlssonMintonParams(a=3, e=(2,), nondeg=(0,), N=1)
    assert gasper_terminating_sum(p).is_zero


def test_gasper_two_pair_zero():
    p = KarlssonMintonParams(a=4, e=(2, -3), nondeg=(1, 0), N=2)
    assert gasper_terminating_sum(p).is_zero


def test_gasper_boundary_rejected():
    p = KarlssonMintonParams(a=4, e=(2, -3), nondeg=(1, 1), N=2)
    with pytest.raises(ValueError):
        gasper_terminating_sum(p)


def test_gasper_randomized():
    rng = random.Random(512)
    for m in (1, 2):
        for _ in range(8):
            p, ok, _ = sample_until_valid(
                rng,
                lambda rg: draw_km_params(rg, m),
                lambda pp: gasper_terminating_sum(pp).is_zero,
            )
            assert ok, p


def test_multi_km_minimal_zero():
    p = KarlssonMintonParams(a=5, e=(2, -1), nondeg=(0, 0), N=1)
    assert multi_km_sum(p).is_zero


def test_multi_km_m3_zero():
    p = KarlssonMintonParams(a=5, e=(5, 3, 0), nondeg=(0, 0, 1), N=2)
    assert multi_km_sum(p).is_zero


def test_multi_km_randomized():
    rng = random.Random(1)
    for _ in range(6):
        p, ok, _ = sample_until_valid(
            rng,
            lambda rg: draw_km_params(rg, 3),
            lambda pp: multi_km_sum(pp).is_zero,
        )
        assert ok, p


def test_multi_km_requires_two_pairs():
    with pytest.raises(ValueError):
        multi_km_sum(KarlssonMintonParams(a=3, e=(2,), nondeg=(0,), N=1))


def test_multi_km_theorem_specialization():
    # the base-q^d specialization used to kill the transformed sum for
    # d=5, r=1, n=9: a = q^r, e_1 = q^((d+r)/2), e_i = q^(r-(m+i-2)n),
    # n_1 = (dn-d+n+r)/(2d), n_i = (n+r-d)/d, n_m = 0, N = (dn-n-r)/d
    from qcongruence.hypergeom import _multisum_terms
    d, r, n, m = 5, 1, 9, 3
    eps = [(d + r) // 2] + [r - (m + i - 2) * n for i in range(2, m)] + [r - (2 * m - 2) * n]
    shifts = [(d * n - d + n + r) // (2 * d)] + [(n + r - d) // d] * (m - 2) + [0]
    N = (d * n - n - r) // d
    assert N > sum(shifts)
    pairs = tuple(
        (r + d * (shifts[i] + 1) - eps[i], eps[(i + 1) % m]) for i in range(m)
    )
    value = qsum(_multisum_terms(r, pairs, N, d))
    assert value.is_zero


# ---------------------------------------------------------------------------
# proof decomposition


def test_decomposition_reconstructs_sum_thm1():
    case = TheoremCase(5, 1, 9, Variant.THM1, Truncation.UPPER)
    pre, multi = proof_decomposition(case)
    assert pre.to_ratfunc() * multi.to_ratfunc() == theorem_sum(case)
    assert phi_valuation(pre, 9) >= 1
    assert phi_valuation(multi, 9) >= 2


def test_decomposition_reconstructs_sum_thm2():
    case = TheoremCase(5, 1, 7, Variant.THM2, Truncation.UPPER)
    pre, multi = proof_decomposition(case)
    assert pre.to_ratfunc() * multi.to_ratfunc() == theorem_sum(case)
    assert phi_valuation(pre, 7) >= 2


def test_decomposition_negative_r():
    case = TheoremCase(5, -1, 6, Variant.THM1, Truncation.UPPER)
    pre, multi = proof_decomposition(case)
    assert pre.to_ratfunc() * multi.to_ratfunc() == theorem_sum(case)


def test_decomposition_requires_upper():
    case = TheoremCase(5, 1, 9, Variant.THM1, Truncation.FULL)
    with pytest.raises(ValueError):
        proof_decomposition(case)


def test_decomposition_depth_four():
    # d = 7 exercises a three-fold transformed sum (364 compositions)
    case = TheoremCase(7, 3, 9, Variant.THM2, Truncation.UPPER)
    pre, multi = proof_decomposition(case)
    assert pre.to_ratfunc() * multi.to_ratfunc() == theorem_sum(case)
    assert phi_valuation(pre, 9) >= 2


def test_theorem_sum_equals_vwp_form():
    # the single-series form of the theorem sum in base q^d
    case = TheoremCase(5, 1, 9, Variant.THM1, Truncation.UPPER)
    d, r, n, m = case.d, case.r, case.n, case.depth
    bc = [r] * (d - 1) + [(d + r) // 2, d + (d - 1) * n]
    value = RatFunc(q_integer(r)) * _vwp_series(r, bc, case.upper_bound, base=d)
    assert value == theorem_sum(case)


def test_product_with_one_needs_no_general_gcd(monkeypatch):
    # x * 1 reduces the cross pairs (num, 1) and (1, den), which need no
    # gcd; reducing the whole product ran the PRS gcd on a coprime pair of
    # degree 580
    x = theorem_sum(TheoremCase(5, 1, 9, Variant.THM1)).to_ratfunc()

    def forbidden(*_):
        raise AssertionError("_gcd_prs called")

    monkeypatch.setattr(exactalg, "_gcd_prs", forbidden)
    for product in (RatFunc(1) * x, x * RatFunc(1)):
        assert (product.num, product.den) == (x.num, x.den)


# ---------------------------------------------------------------------------
# tail terms


def test_tail_terms_valuation_at_least_d():
    for (d, r, n) in [(5, 1, 4), (5, 1, 9), (5, -1, 6), (5, -3, 8)]:
        case = TheoremCase(d, r, n, Variant.THM1, Truncation.FULL)
        upper = TheoremCase(d, r, n, Variant.THM1, Truncation.UPPER).upper_bound
        for k in range(upper + 1, n):
            assert phi_valuation(theorem_term(case, k), n) >= d, (d, r, n, k)


def test_full_minus_upper_valuation():
    # one qsum over the full case's terms and the upper case's negated
    for (d, r, n) in [(5, 1, 4), (5, 1, 9), (5, -1, 6)]:
        full = TheoremCase(d, r, n, Variant.THM1, Truncation.FULL).upper_bound
        upper = TheoremCase(d, r, n, Variant.THM1, Truncation.UPPER).upper_bound
        negated = truncated_terms(d, r, upper)
        for t in negated:
            t.sign = -t.sign
        diff = qsum(truncated_terms(d, r, full) + negated)
        assert diff == qsum(truncated_terms(d, r, full)[upper + 1:]), (d, r, n)
        assert phi_valuation(diff, n) >= d, (d, r, n)
