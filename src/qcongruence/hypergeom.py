"""Exact evaluation of the truncated sums and hypergeometric identities.

All series parameters are integer exponents of q (a = q**alpha and so on),
so every value is a rational function in q.  The evaluators return the
unreduced ``FactoredFraction`` that ``qsum`` builds: valuations and zero
tests read it directly, and only ``==`` or ``to_ratfunc`` reduce it, to a
``RatFunc``, which reduces only in its constructor.  A sum or difference
of such values is one ``qsum`` over both term lists.
Very-well-poised parameter pairs (q*sqrt(a), -q*sqrt(a)) / (sqrt(a),
-sqrt(a)) are never split into square roots: the paired quotient collapses
to (1 - a*q**(2k)) / (1 - a), which keeps all exponents integral.

The evaluators share one summation kernel (``qobjects.qsum``) and build
their terms from the term ratio (Gasper & Rahman, *Basic Hypergeometric
Series*, 1.2): term k+1 is a copy of term k's carried q-Pochhammer part
times one binomial (1 - q**(e + base*k))**(+-1) per parameter and its
q-power step (``_ratio_walk``), so a term costs O(P) binomial updates for
P Pochhammer symbols, never a rebuild from k = 0.  The routes are
independent:

* ``truncated_terms``  - the theorem sums, with the [2dk + r] factor put on
                         each copy,
* ``_vwp_series``      - single very-well-poised terminating series
                         (the shape shared by the multiseries transform's
                         left side and the Karlsson-Minton summation),
                         with the well-poised factor put on each copy,
* ``_multisum_terms``  - the (m-1)-fold sum on the transformed side, as a
                         depth-first walk over the compositions.

Every q-Pochhammer product in this module comes from ``_ratio_walk``:
``theorem_term`` is term k of ``truncated_terms``, and the transformed
side's prefactor (``_prefactor_product``) is the last term of its walk.
``congruence.check_mod_square`` walks both of its sides the same way, so
no series in the package rebuilds a q-Pochhammer symbol from k = 0.
``watson_pair`` is Watson's 8phi7 -> 4phi3 transformation, the m = 2 case
of the multiseries transformation, so ``andrews_lhs``/``andrews_rhs``.

``proof_decomposition`` rewrites a theorem sum as prefactor * multisum via
the multiseries transformation specialised in base q**d, which is the
factorisation the congruence proofs rest on.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from enum import Enum
from typing import Iterator, Sequence

from .exactalg import FactoredFraction, RatFunc
from .qobjects import QProduct, VanishingDenominator, qsum

__all__ = [
    "AndrewsParams",
    "InvalidCase",
    "KarlssonMintonParams",
    "TheoremCase",
    "Truncation",
    "Variant",
    "andrews_lhs",
    "andrews_rhs",
    "draw_andrews_params",
    "draw_km_params",
    "draw_watson_exponents",
    "gasper_terminating_sum",
    "multi_km_sum",
    "proof_decomposition",
    "sample_until_valid",
    "theorem_sum",
    "theorem_term",
    "truncated_sum",
    "truncated_terms",
    "watson_pair",
]


class Variant(Enum):
    THM1 = "thm1"
    THM2 = "thm2"


class Truncation(Enum):
    UPPER = "upper"
    FULL = "full"
    M_SOLVED = "upper"   # alias of UPPER: lemma 3's solved truncation

    def order(self, d: int, r: int, n: int) -> int:
        """The truncation order M: n - 1 for the full sum, else lemma 3's
        solved index."""
        return n - 1 if self is Truncation.FULL else _solved_index(d, r, n)


class InvalidCase(ValueError):
    """A parameter tuple violating stated hypotheses, all named."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _case_violations(d: int, r: int, n: int, variant: Variant,
                     d_min: int = 5) -> list[str]:
    bad = []
    if d < d_min or d % 2 == 0:
        bad.append(f"d must be an odd integer >= {d_min}")
    if r % 2 == 0:
        bad.append("r must be odd")
    if r > d - 4:
        bad.append("r <= d - 4 violated")
    if math.gcd(d, r) != 1:
        bad.append("gcd(d, r) = 1 violated")
    if n <= 1:
        bad.append("n > 1 violated")
    if d >= 1:
        if variant is Variant.THM1:
            if n % d != (-r) % d:
                bad.append("n = -r (mod d) violated")
            if n < d - r:
                bad.append("n >= d - r violated")
        else:
            if (2 * n) % d != (-r) % d:
                bad.append("2n = -r (mod d) violated")
            if 2 * n < d - r:
                bad.append("n >= (d - r)/2 violated")
    return bad


def _solved_index(d: int, r: int, n: int) -> int:
    """Lemma 3's m: the unique m in [0, n) with d*m = -r (mod n), for
    gcd(d, n) = 1 (0 when n = 1).  On the theorem cases it is both
    families' upper truncation, (dn - n - r)/d and (dn - 2n - r)/d."""
    return (-r * pow(d, -1, n)) % n


class TheoremCase(namedtuple("TheoremCase", "d r n variant truncation")):
    """A validated (d, r, n) parameter tuple with its truncation choice.

    Hypotheses: d, r odd, d >= 5, r <= d - 4, gcd(d, r) = 1, and
    n = -r (mod d) with n >= d - r   (THM1), or
    2n = -r (mod d) with n >= (d - r)/2  (THM2).
    The second congruence is the meaning of "n = -r/2 (mod d)": 2 is
    invertible mod d because d is odd.
    """

    __slots__ = ()

    def __new__(cls, d: int, r: int, n: int, variant: Variant,
                truncation: Truncation = Truncation.UPPER) -> "TheoremCase":
        bad = _case_violations(d, r, n, variant)
        if bad:
            raise InvalidCase(bad)
        return super().__new__(cls, d, r, n, variant, truncation)

    @property
    def upper_bound(self) -> int:
        """The truncation order M of the sum (``Truncation.order``)."""
        return self.truncation.order(self.d, self.r, self.n)

    @property
    def depth(self) -> int:
        """Number of parameter pairs m = (d + 1)/2 in the multiseries form."""
        return (self.d + 1) // 2

    def describe(self) -> str:
        return (
            f"{self.variant.value}(d={self.d}, r={self.r}, n={self.n}, "
            f"{self.truncation.value}, M={self.upper_bound})"
        )


# ---------------------------------------------------------------------------
# terms by their term ratio


def _ratio_walk(start: QProduct, ratio: Sequence[tuple[int, int]], base: int,
                qpow: int, steps: int) -> Iterator[QProduct]:
    """Terms 0..steps of the series whose term 0 is ``start`` (which the
    walk takes over) and whose term k+1 is term k times q**qpow and
    (1 - q**(e + base*k))**power for each (e, power) of ``ratio``.

    Each term is yielded as a fresh copy that the caller may multiply
    further.  A term that is zero is still yielded and still stepped from,
    so every binomial of every term is multiplied in, and a vanishing
    denominator raises ``VanishingDenominator`` exactly where building the
    terms one by one would.
    """
    t = start
    for k in range(steps + 1):
        if k:
            for e, power in ratio:
                t.mul_one_minus_q(e + base * (k - 1), power)
            t.mul_qpow(qpow)
        yield t.copy()


# ---------------------------------------------------------------------------
# the truncated sums


def _check_sum_shape(d: int, r: int) -> list[str]:
    """The rules of a truncated sum's shape that (d, r) break."""
    if d < 1:
        return ["d must be a positive integer"]
    if (d * (d - r - 2)) % 2:
        return ["d(d - r - 2) must be even for an integral q-power"]
    return []


def theorem_term(case: TheoremCase, k: int) -> RatFunc:
    """The exact k-th summand of the theorem sum, 0 <= k <= M."""
    if not 0 <= k <= case.upper_bound:
        raise ValueError(f"k = {k} outside 0..{case.upper_bound}")
    return truncated_terms(case.d, case.r, k)[k].to_ratfunc()


def truncated_terms(d: int, r: int, upper: int) -> list[QProduct]:
    """The summands of ``truncated_sum(d, r, upper)``, k = 0..upper."""
    bad = _check_sum_shape(d, r)
    if bad:
        raise InvalidCase(bad)
    if upper < 0:
        raise ValueError("upper bound must be non-negative")
    walk = _ratio_walk(QProduct(), [(r, d), (d, -d)], d, d * (d - r - 2) // 2, upper)
    return [t.mul_one_minus_q(2 * d * k + r, 1).mul_one_minus_q(1, -1)
            for k, t in enumerate(walk)]


def truncated_sum(d: int, r: int, upper: int) -> FactoredFraction:
    """sum_{k=0}^{upper} [2dk+r] (q^r;q^d)_k^d / (q^d;q^d)_k^d q^(d(d-r-2)k/2).

    The raw sum builder: no theorem hypotheses are imposed beyond the
    q-power being integral, so excluded families (for example d = 3) can
    still be evaluated for regression checks.
    """
    return qsum(truncated_terms(d, r, upper))


def theorem_sum(case: TheoremCase) -> FactoredFraction:
    """The truncated sum of the case, summed to its truncation order."""
    return truncated_sum(case.d, case.r, case.upper_bound)


# ---------------------------------------------------------------------------
# terminating very-well-poised series (single sum)


def _vwp_series(alpha: int, bc: Sequence[int], N: int, base: int = 1) -> FactoredFraction:
    """Terminating very-well-poised series with paired parameters.

    ``bc`` lists the 2m free parameter exponents; each e is paired with
    a*q/e in the denominator.  The argument power per step comes out as
    w = m*alpha + base*(m + N) - sum(bc), which specialises to q**(N-nu)
    for the Karlsson-Minton parameterisation.
    """
    if len(bc) % 2:
        raise ValueError("parameter exponents must come in pairs")
    if N < 0:
        raise ValueError("termination order must be non-negative")
    m = len(bc) // 2
    w = m * alpha + base * (m + N) - sum(bc)
    ratio = [(alpha, 1), (base, -1), (-base * N, 1), (alpha + base * (N + 1), -1)]
    for e in bc:
        ratio += [(e, 1), (alpha + base - e, -1)]
    # the well-poised factor (1 - a*q**(2*base*k)) / (1 - a) goes on each
    # copy: carried, a factor that vanishes at one k would zero the rest
    return qsum(t.mul_one_minus_q(alpha + 2 * base * k, 1).mul_one_minus_q(alpha, -1)
                for k, t in enumerate(_ratio_walk(QProduct(), ratio, base, w, N)))


# ---------------------------------------------------------------------------
# the multiseries transformation


class AndrewsParams(namedtuple("AndrewsParams", "a pairs N")):
    """Parameters of the multiseries transformation: a = q**a_exp and the
    m >= 2 pairs (b_i, c_i) = (q**b, q**c), terminating at order N."""

    __slots__ = ()

    def __new__(cls, a: int, pairs: tuple[tuple[int, int], ...], N: int) -> "AndrewsParams":
        if len(pairs) < 2:
            raise ValueError("at least two parameter pairs are required")
        if N < 0:
            raise ValueError("termination order must be non-negative")
        return super().__new__(cls, a, pairs, N)


def andrews_lhs(p: AndrewsParams) -> FactoredFraction:
    """Left side: the single terminating very-well-poised series."""
    bc = [e for pair in p.pairs for e in pair]
    return _vwp_series(p.a, bc, p.N)


def _prefactor_product(alpha: int, pairs: Sequence[tuple[int, int]], N: int, base: int) -> QProduct:
    """The transformed side's prefactor, (aQ, aQ/(b_m c_m); Q)_N /
    (aQ/b_m, aQ/c_m; Q)_N with a = q**alpha and Q = q**base: the last term
    of its ratio walk."""
    bm, cm = pairs[-1]
    a = alpha + base
    *_, t = _ratio_walk(QProduct(), [(a, 1), (a - bm - cm, 1), (a - bm, -1), (a - cm, -1)],
                        base, 0, N)
    return t


def _multisum_terms(
    alpha: int, pairs: Sequence[tuple[int, int]], N: int, base: int,
    start: QProduct | None = None,
) -> Iterator[QProduct]:
    """Terms of the (m-1)-fold sum on the transformed side, each times
    ``start`` (the walk takes it over; empty by default).

    Level i sums j_i, and its factors of length P_i = j_1 + ... + j_i run
    in base q**base; the last level's P_i is J, which also carries the
    (q**(-N); q)_J factor.  The walk is depth-first in the order of
    (j_1, ..., j_{m-1}), and level i carries the term of (j_1, ..., j_i,
    0, ..., 0): one more j_i raises every P_l with l >= i by one, so the
    step multiplies j_i's own binomials and one binomial per factor of
    every level from i on.  Enumeration stops at J = N: beyond that the
    (q**(-N); q)_J factor vanishes identically.
    """
    m = len(pairs)
    bm, cm = pairs[-1]
    # per level: the (exponent, power) of each factor of length P_i, and
    # the q-power that P_i adds per unit
    levels = []
    for i in range(m - 1):
        (b, c), (bn, cn) = pairs[i], pairs[i + 1]
        levels.append(([(bn, 1), (cn, 1), (alpha + base - b, -1), (alpha + base - c, -1)],
                       alpha + base - bn - cn))
    last = levels[-1][0] + [(-base * N, 1), (bm + cm - base * N - alpha, -1)]
    levels[-1] = (last, base)

    def walk(i: int, t: QProduct, P: int) -> Iterator[QProduct]:
        b, c = pairs[i]
        ratio = [(alpha + base - b - c, 1), (base, -1)]
        ratio += [(e + base * P, power) for factors, _ in levels[i:] for e, power in factors]
        terms = _ratio_walk(t, ratio, base, sum(w for _, w in levels[i:]), N - P)
        if i == m - 2:
            yield from terms
        else:
            for j, u in enumerate(terms):
                yield from walk(i + 1, u, P + j)

    return walk(0, QProduct() if start is None else start, 0)


def andrews_rhs(p: AndrewsParams) -> FactoredFraction:
    """Right side: prefactor times the (m-1)-fold sum."""
    pre = _prefactor_product(p.a, p.pairs, p.N, 1)
    return qsum(_multisum_terms(p.a, p.pairs, p.N, 1, pre))


def watson_pair(a: int, b: int, c: int, d: int, e: int,
                N: int) -> tuple[FactoredFraction, FactoredFraction]:
    """Both sides of Watson's 8phi7 -> 4phi3 transformation: the multiseries
    transformation on the m = 2 pairs (b, c), (d, e); they must be equal."""
    p = AndrewsParams(a, ((b, c), (d, e)), N)
    return andrews_lhs(p), andrews_rhs(p)


# ---------------------------------------------------------------------------
# Karlsson-Minton type summations


class KarlssonMintonParams(namedtuple("KarlssonMintonParams", "a e nondeg N")):
    """Parameters of the very-well-poised Karlsson-Minton summation:
    a = q**a_exp, e_j = q**(e[j]), integer shifts nondeg[j] >= 0, and
    termination order N.  Only the terminating form is summed: the full
    form's two extra parameters are fixed there at b = q**-N and
    d = q**(1 - N), so they are not fields (the non-terminating series is
    out of scope)."""

    __slots__ = ()

    def __new__(cls, a: int, e: tuple[int, ...], nondeg: tuple[int, ...],
                N: int) -> "KarlssonMintonParams":
        if len(e) != len(nondeg) or not e:
            raise ValueError("e and nondeg must be non-empty and equally long")
        if any(v < 0 for v in nondeg):
            raise ValueError("shifts must be non-negative")
        if N < 1:
            raise ValueError("N must be a positive integer")
        return super().__new__(cls, a, e, nondeg, N)

    @property
    def nu(self) -> int:
        return sum(self.nondeg)


def gasper_terminating_sum(p: KarlssonMintonParams) -> FactoredFraction:
    """The terminating very-well-poised Karlsson-Minton sum; identically 0
    whenever N > nu = sum of the shifts."""
    if p.N <= p.nu:
        raise ValueError(f"requires N > nu, got N = {p.N}, nu = {p.nu}")
    bc = [x for eps, nd in zip(p.e, p.nondeg) for x in (eps, p.a + nd + 1 - eps)]
    return _vwp_series(p.a, bc, p.N)


def multi_km_sum(p: KarlssonMintonParams) -> FactoredFraction:
    """The vanishing (m-1)-fold sum: the multiseries transform specialised
    by b_i = a*q**(n_i+1)/e_i, c_i = e_{i+1} (indices wrapping around)."""
    m = len(p.e)
    if m < 2:
        raise ValueError("at least two parameter pairs are required")
    if p.N <= p.nu:
        raise ValueError(f"requires N > nu, got N = {p.N}, nu = {p.nu}")
    pairs = tuple(
        (p.a + p.nondeg[i] + 1 - p.e[i], p.e[(i + 1) % m]) for i in range(m)
    )
    return qsum(_multisum_terms(p.a, pairs, p.N, 1))


# ---------------------------------------------------------------------------
# proof decomposition of the theorem sums


def _decomposition_pairs(case: TheoremCase) -> tuple[tuple[int, int], ...]:
    d, r, n, m = case.d, case.r, case.n, case.depth
    half = (d + r) // 2
    if case.variant is Variant.THM1:
        return ((r, r),) * (m - 1) + ((half, d + (d - 1) * n),)
    return ((half, r),) + ((r, r),) * (m - 2) + ((r, d + (d - 2) * n),)


def proof_decomposition(case: TheoremCase) -> tuple[FactoredFraction, FactoredFraction]:
    """Rewrite the theorem sum (at its upper truncation) as
    prefactor * multisum; the product equals theorem_sum(case) exactly.

    The prefactor carries [r] and the two length-M factorial quotients in
    base q**d; the multisum is the (m-1)-fold transformed sum whose
    vanishing-order analysis yields the congruence.  Both stay unreduced.
    """
    if case.truncation is not Truncation.UPPER:
        raise ValueError("decomposition is defined for the upper truncation")
    d, r = case.d, case.r
    N = case.upper_bound
    pairs = _decomposition_pairs(case)
    pre = QProduct()
    pre.mul_one_minus_q(r, 1)
    pre.mul_one_minus_q(1, -1)
    pre.mul(_prefactor_product(r, pairs, N, d))
    multisum = qsum(_multisum_terms(r, pairs, N, d))
    return qsum([pre]), multisum


# ---------------------------------------------------------------------------
# randomized parameter draws for identity fuzzing

EXPONENT_SPAN = 12  # |exponent| bound for randomized draws
MAX_RESAMPLES = 500  # degenerate draws that sample_until_valid discards


def draw_andrews_params(rng: random.Random, m: int, N: int | None = None,
                        n_max: int = 4) -> AndrewsParams:
    order = rng.randint(0, n_max) if N is None else N
    a = rng.randint(-EXPONENT_SPAN, EXPONENT_SPAN)
    pairs = tuple(
        (rng.randint(-EXPONENT_SPAN, EXPONENT_SPAN), rng.randint(-EXPONENT_SPAN, EXPONENT_SPAN))
        for _ in range(m)
    )
    return AndrewsParams(a=a, pairs=pairs, N=order)


def draw_watson_exponents(rng: random.Random, N: int | None = None,
                          n_max: int = 4) -> tuple[int, int, int, int, int, int]:
    """The m = 2 draw of ``draw_andrews_params`` as (a, b, c, d, e, N)."""
    p = draw_andrews_params(rng, 2, N, n_max)
    return (p.a, *p.pairs[0], *p.pairs[1], p.N)


def draw_km_params(rng: random.Random, m: int, N: int | None = None) -> KarlssonMintonParams:
    if N is None:
        nondeg = tuple(rng.randint(0, 2) for _ in range(m))
        order = sum(nondeg) + rng.randint(1, 3)
    else:
        nondeg = []
        budget = N - 1
        for _ in range(m):
            v = rng.randint(0, budget) if budget > 0 else 0
            nondeg.append(v)
            budget -= v
        nondeg = tuple(nondeg)
        order = N
    a = rng.randint(-EXPONENT_SPAN, EXPONENT_SPAN)
    eps = tuple(rng.randint(-EXPONENT_SPAN, EXPONENT_SPAN) for _ in range(m))
    return KarlssonMintonParams(a=a, e=eps, nondeg=nondeg, N=order)


def sample_until_valid(rng: random.Random, draw, check):
    """Run ``check(draw(rng))`` until no degeneracy error occurs.

    Returns (params, result, resamples); degenerate draws (vanishing
    denominators) are discarded and counted, and the ``MAX_RESAMPLES``-th
    is raised.
    """
    resamples = 0
    while True:
        params = draw(rng)
        try:
            return params, check(params), resamples
        except VanishingDenominator:
            resamples += 1
            if resamples >= MAX_RESAMPLES:
                raise
