"""Terms built by walking the term ratio equal terms built from scratch.

The reference builders below multiply in every q-Pochhammer symbol of term
k from k = 0, the way the series are written.  The evaluators in
``hypergeom``, ``theorem_term`` and ``congruence.check_mod_square`` step
each term from its neighbour instead, and the transformed side's
prefactor is the last term of such a walk.  Both must give
every term the same (sign, qexp, factors, is_zero), zero terms included,
and raise VanishingDenominator on the same draws: the identity records
count the draws that raised."""

import random

import pytest

from qcongruence import congruence, hypergeom, qobjects
from qcongruence.congruence import check_mod_square
from qcongruence.hypergeom import (
    AndrewsParams,
    KarlssonMintonParams,
    TheoremCase,
    Truncation,
    Variant,
    _multisum_terms,
    _prefactor_product,
    _vwp_series,
    andrews_lhs,
    andrews_rhs,
    draw_andrews_params,
    draw_km_params,
    draw_watson_exponents,
    gasper_terminating_sum,
    multi_km_sum,
    proof_decomposition,
    theorem_term,
    truncated_sum,
    truncated_terms,
    watson_pair,
)
from qcongruence.qobjects import QPochSpec, QProduct, VanishingDenominator

DRAWS = 300


def key(t):
    return (t.sign, t.qexp, t.factors, t.is_zero)


def keys(sums):
    return [[key(t) for t in terms] for terms in sums]


# ---------------------------------------------------------------------------
# reference builders: every Pochhammer symbol of every term from k = 0


def ref_theorem_terms(d, r, upper):
    terms = []
    for k in range(upper + 1):
        t = QProduct()
        t.mul_one_minus_q(2 * d * k + r, 1)
        t.mul_one_minus_q(1, -1)
        t.mul_pochhammer(QPochSpec(r, d, k), d)
        t.mul_pochhammer(QPochSpec(d, d, k), -d)
        t.mul_qpow(d * (d - r - 2) * k // 2)
        terms.append(t)
    return terms


def ref_mod_square_terms(alpha, r, n, d, k):
    lhs = QProduct().mul_pochhammer(QPochSpec(r - alpha * n, d, k))
    lhs.mul_pochhammer(QPochSpec(r + alpha * n, d, k))
    rhs = QProduct().mul_pochhammer(QPochSpec(r, d, k), 2)
    rhs.sign = -rhs.sign
    return [lhs, rhs]


def ref_vwp_terms(alpha, bc, N, base=1):
    m = len(bc) // 2
    w = m * alpha + base * (m + N) - sum(bc)
    terms = []
    for k in range(N + 1):
        t = QProduct()
        t.mul_one_minus_q(alpha + 2 * base * k, 1)
        t.mul_one_minus_q(alpha, -1)
        t.mul_pochhammer(QPochSpec(alpha, base, k))
        t.mul_pochhammer(QPochSpec(base, base, k), -1)
        for e in bc:
            t.mul_pochhammer(QPochSpec(e, base, k))
            t.mul_pochhammer(QPochSpec(alpha + base - e, base, k), -1)
        t.mul_pochhammer(QPochSpec(-base * N, base, k))
        t.mul_pochhammer(QPochSpec(alpha + base * (N + 1), base, k), -1)
        t.mul_qpow(w * k)
        terms.append(t)
    return terms


def compositions_at_most(parts, total):
    if parts == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in compositions_at_most(parts - 1, total - head):
            yield (head,) + rest


def ref_multisum_terms(alpha, pairs, N, base, pre=None):
    m = len(pairs)
    bm, cm = pairs[-1]
    terms = []
    for js in compositions_at_most(m - 1, N):
        t = QProduct()
        partial = 0
        for i, j in enumerate(js):
            b, c = pairs[i]
            t.mul_pochhammer(QPochSpec(alpha + base - b - c, base, j))
            t.mul_pochhammer(QPochSpec(base, base, j), -1)
            partial += j
            bn, cn = pairs[i + 1]
            t.mul_pochhammer(QPochSpec(bn, base, partial))
            t.mul_pochhammer(QPochSpec(cn, base, partial))
            t.mul_pochhammer(QPochSpec(alpha + base - b, base, partial), -1)
            t.mul_pochhammer(QPochSpec(alpha + base - c, base, partial), -1)
            if i < m - 2:
                t.mul_qpow((alpha + base - bn - cn) * partial)
        t.mul_pochhammer(QPochSpec(-base * N, base, partial))
        t.mul_pochhammer(QPochSpec(bm + cm - base * N - alpha, base, partial), -1)
        t.mul_qpow(base * partial)
        if pre is not None:
            t.mul(pre)
        terms.append(t)
    return terms


def ref_prefactor_product(alpha, pairs, N, base):
    bm, cm = pairs[-1]
    t = QProduct()
    t.mul_pochhammer(QPochSpec(alpha + base, base, N))
    t.mul_pochhammer(QPochSpec(alpha + base - bm - cm, base, N))
    t.mul_pochhammer(QPochSpec(alpha + base - bm, base, N), -1)
    t.mul_pochhammer(QPochSpec(alpha + base - cm, base, N), -1)
    return t


def ref_watson_rhs_terms(a, b, c, d, e, N):
    pre = ref_prefactor_product(a, [(b, c), (d, e)], N, 1)
    terms = []
    for j in range(N + 1):
        t = QProduct()
        for x in (a + 1 - b - c, d, e, -N):
            t.mul_pochhammer(QPochSpec(x, 1, j))
        for x in (1, a + 1 - b, a + 1 - c, d + e - N - a):
            t.mul_pochhammer(QPochSpec(x, 1, j), -1)
        t.mul_qpow(j)
        terms.append(t.mul(pre))
    return terms


def km_pairs(p):
    m = len(p.e)
    return tuple((p.a + p.nondeg[i] + 1 - p.e[i], p.e[(i + 1) % m]) for i in range(m))


def ref_andrews(p):
    lhs = ref_vwp_terms(p.a, [e for pair in p.pairs for e in pair], p.N)
    pre = ref_prefactor_product(p.a, p.pairs, p.N, 1)
    return [lhs, ref_multisum_terms(p.a, p.pairs, p.N, 1, pre)]


# per identity kind: a draw at a given m, the evaluation the cli makes, the
# reference term lists in the order that evaluation sums them, and the m drawn
KINDS = {
    "andrews": (lambda rng, m: draw_andrews_params(rng, m, n_max=5),
                lambda p: (andrews_lhs(p), andrews_rhs(p)), ref_andrews, (2, 3, 4)),
    "watson": (lambda rng, _m: draw_watson_exponents(rng, n_max=5),
               lambda t: watson_pair(*t),
               lambda t: [ref_vwp_terms(t[0], t[1:5], t[5]), ref_watson_rhs_terms(*t)], (2,)),
    "gasper-km": (draw_km_params, gasper_terminating_sum,
                  lambda p: [ref_vwp_terms(p.a, [x for pair in km_pairs(p) for x in pair], p.N)],
                  (1, 2, 3)),
    "multi-km": (draw_km_params, multi_km_sum,
                 lambda p: [ref_multisum_terms(p.a, km_pairs(p), p.N, 1)], (2, 3, 4)),
}


def capture_sums(monkeypatch):
    """Make hypergeom.qsum record the term lists it is given."""
    sums = []
    monkeypatch.setattr(hypergeom, "qsum", lambda terms: sums.append(list(terms)))
    return sums


def built(build):
    """What ``build`` returns, or None when it raises VanishingDenominator."""
    try:
        return build()
    except VanishingDenominator:
        return None


def raises(walk):
    try:
        walk()
    except VanishingDenominator:
        return True
    return False


# ---------------------------------------------------------------------------
# the tests


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_walked_identity_terms_equal_terms_from_scratch(kind, monkeypatch):
    draw, evaluate, reference, ms = KINDS[kind]
    sums = capture_sums(monkeypatch)
    rng = random.Random(f"ratio walk/{kind}")
    raised = 0
    for i in range(DRAWS):
        params = draw(rng, ms[i % len(ms)])
        want = built(lambda: reference(params))
        sums.clear()
        if raises(lambda: evaluate(params)):
            assert want is None, params
            raised += 1
            continue
        assert want is not None, params
        assert keys(sums) == keys(want), params
    assert 0 < raised < DRAWS


@pytest.mark.parametrize("d", [3, 5, 7])
def test_walked_theorem_terms_equal_terms_from_scratch(d):
    zero_terms = 0
    for r in range(-5 * d, d, 2):          # odd r, so the q-power is integral
        walked = truncated_terms(d, r, 9)
        assert [key(t) for t in walked] == [key(t) for t in ref_theorem_terms(d, r, 9)]
        zero_terms += sum(t.is_zero for t in walked)
    # r = -d*j zeroes term j + 1 onwards, and [2dk + r] zeroes term -r/(2d)
    assert zero_terms > 0


@pytest.mark.parametrize("base", [1, 2, 3, 5])
def test_walked_series_in_base_q_power_equal_terms_from_scratch(base, monkeypatch):
    sums = capture_sums(monkeypatch)
    rng = random.Random(f"ratio walk/base {base}")
    span = hypergeom.EXPONENT_SPAN
    raised = 0
    for i in range(DRAWS):
        m, N = 2 + i % 3, rng.randint(0, 4)
        alpha = rng.randint(-span, span)
        pairs = tuple((rng.randint(-span, span), rng.randint(-span, span)) for _ in range(m))
        bc = [e for pair in pairs for e in pair]
        for reference, walk in (
            (lambda: ref_multisum_terms(alpha, pairs, N, base),
             lambda: sums.append(list(_multisum_terms(alpha, pairs, N, base)))),
            (lambda: ref_vwp_terms(alpha, bc, N, base),
             lambda: _vwp_series(alpha, bc, N, base)),
            (lambda: [ref_prefactor_product(alpha, pairs, N, base)],
             lambda: sums.append([_prefactor_product(alpha, pairs, N, base)])),
        ):
            want = built(reference)
            sums.clear()
            assert raises(walk) == (want is None), (alpha, pairs, N)
            if want is None:
                raised += 1
            else:
                assert keys(sums) == keys([want]), (alpha, pairs, N)
    assert 0 < raised < 3 * DRAWS


@pytest.mark.parametrize("d,r,n,variant", [
    (5, 1, 9, Variant.THM1), (5, -3, 8, Variant.THM1), (7, 1, 13, Variant.THM1),
    (5, 1, 7, Variant.THM2), (7, -1, 11, Variant.THM2),
])
def test_walked_proof_decomposition_equals_terms_from_scratch(d, r, n, variant, monkeypatch):
    # the multisum in base q**d, with m = (d + 1)/2 = 3 and 4 pairs
    case = TheoremCase(d, r, n, variant)
    sums = capture_sums(monkeypatch)
    proof_decomposition(case)              # sums the multisum, then the prefactor
    pairs = hypergeom._decomposition_pairs(case)
    assert len(pairs) == case.depth
    pre = QProduct().mul_one_minus_q(r, 1).mul_one_minus_q(1, -1)
    pre.mul(ref_prefactor_product(r, pairs, case.upper_bound, d))
    assert keys(sums) == keys([ref_multisum_terms(r, pairs, case.upper_bound, d), [pre]])


@pytest.mark.parametrize("d,r,n,variant,truncation", [
    (5, 1, 9, Variant.THM1, Truncation.UPPER), (5, -3, 8, Variant.THM1, Truncation.FULL),
    (7, 1, 13, Variant.THM1, Truncation.UPPER), (5, 1, 7, Variant.THM2, Truncation.FULL),
    (7, -1, 11, Variant.THM2, Truncation.UPPER),
])
def test_theorem_term_equals_term_from_scratch(d, r, n, variant, truncation):
    case = TheoremCase(d, r, n, variant, truncation)
    M = case.upper_bound
    want = ref_theorem_terms(d, r, M)
    assert [theorem_term(case, k) for k in range(M + 1)] == [t.to_ratfunc() for t in want]


def test_walked_mod_square_terms_equal_terms_from_scratch(monkeypatch):
    # alpha = 0 makes both sides equal, r = 0 zeroes every term from k = 1
    real_qsum = congruence.qsum
    sums = []
    monkeypatch.setattr(congruence, "qsum",
                        lambda terms: sums.append(list(terms)) or real_qsum(terms))
    k_max, zero_terms = 4, 0
    for alpha in range(-1, 3):
        for r in range(-4, 5):
            for n in (1, 2, 3, 5):
                for d in (1, 2, 3):
                    sums.clear()
                    check_mod_square(alpha, r, n, d, k_max)
                    want = [ref_mod_square_terms(alpha, r, n, d, k) for k in range(k_max + 1)]
                    assert keys(sums) == keys(want), (alpha, r, n, d)
                    zero_terms += sum(t.is_zero for pair in sums for t in pair)
    assert zero_terms > 0


def test_no_series_rebuilds_a_pochhammer_symbol(monkeypatch):
    # every term, and the transformed side's prefactor, comes from its
    # neighbour; only q_pochhammer and q_poch_product build a product whole
    case = TheoremCase(5, 1, 9, Variant.THM1)
    andrews = AndrewsParams(20, ((1, 2), (3, 5), (-2, 7)), 3)
    series = [
        lambda: truncated_sum(5, 1, 6),
        lambda: theorem_term(case, case.upper_bound),
        lambda: check_mod_square(1, 1, 7, 5, 3).valuations,
        lambda: andrews_lhs(andrews),
        lambda: andrews_rhs(andrews),
        lambda: proof_decomposition(TheoremCase(5, 1, 4, Variant.THM1)),
        lambda: gasper_terminating_sum(KarlssonMintonParams(7, (3, -5), (1, 0), 3)),
    ]
    want = [build() for build in series]

    def forbidden(*_):
        raise AssertionError("mul_pochhammer called")

    monkeypatch.setattr(qobjects.QProduct, "mul_pochhammer", forbidden)
    assert [build() for build in series] == want
