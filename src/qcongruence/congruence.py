"""Congruence certification: valuation profiles for moduli built from
q-integers and cyclotomic powers, case checkers, the p-adic check, and an
oracle that reads orders at a root of unity in F_p by a term walk that
reads off its point which factors vanish.

A modulus like [n] * Phi_n(q)**k is a finite valuation profile: since
[n] factors as the product of Phi_m over the divisors m > 1 of n, the
requirement is valuation k+1 at index n and valuation 1 at every other
divisor index.  ``check_congruence`` compares achieved valuations of an
exact sum (a ``FactoredFraction`` as ``qsum`` leaves it, or any rational
function) against such a profile; a denominator that is not invertible at
a required index is an ERROR, distinct from FAIL.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum
from itertools import accumulate
from typing import Sequence, Union

from .exactalg import (
    INFINITE,
    FactoredFraction,
    Poly,
    RatFunc,
    ValuationReport,
    Valuation,
    _is_prime,
    cyclotomic,
    divisors,
    phi_valuation,
    rational_p_valuation,
)
from .qobjects import QProduct, qsum
from .hypergeom import (
    InvalidCase,
    TheoremCase,
    Truncation,
    Variant,
    _case_violations,
    _ratio_walk,
    _solved_index,
    theorem_sum,
    truncated_sum,
    truncated_terms,
)

__all__ = [
    "CONJECTURE_R",
    "CheckReport",
    "CheckStatus",
    "Conjecture",
    "Lemma3Truncation",
    "Modulus",
    "check_congruence",
    "check_conjecture",
    "check_lemma3",
    "check_lemma4",
    "check_mod_square",
    "check_sum",
    "check_theorem",
    "enumerate_cases",
    "legacy_check",
    "oracle_check",
    "phi_modulus",
    "q_integer_modulus",
    "validate_case",
    "van_hamme_check",
]


class CheckStatus(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    ERROR = "ERROR"


class Conjecture(Enum):
    CONJ1 = "conj1"
    CONJ2 = "conj2"
    CONJ3 = "conj3"


# the r that conj1 and conj2 fix; conj3 takes any r of the second family
CONJECTURE_R = {Conjecture.CONJ1: 1, Conjecture.CONJ2: -1}

Lemma3Truncation = Truncation
# a validated parameter tuple, or InvalidCase naming every violated hypothesis
validate_case = TheoremCase


class Modulus(namedtuple("Modulus", "parts")):
    """Required minimum valuations, keyed by cyclotomic index."""

    __slots__ = ()

    def __new__(cls, parts: dict[int, int]) -> "Modulus":
        if any(v < 1 for v in parts.values()):
            raise ValueError("all requirements must be >= 1")
        return super().__new__(cls, parts)


def q_integer_modulus(n: int, phi_power: int = 0) -> Modulus:
    """Profile of [n] * Phi_n(q)**phi_power."""
    if n < 2:
        raise ValueError("q-integer modulus needs n >= 2")
    parts = {m: 1 for m in divisors(n) if m > 1}
    parts[n] += phi_power
    return Modulus(parts)


def phi_modulus(n: int, power: int) -> Modulus:
    """Profile of Phi_n(q)**power."""
    return Modulus({n: power})


class CheckReport(namedtuple("CheckReport", "description modulus valuations status "
                             "term_count detail oracle_status", defaults=(0, None, None))):
    """Outcome of one congruence check: PASS iff every required valuation
    was achieved and no error occurred.

    Fields: description, modulus (a Modulus), valuations (a
    ValuationReport), status (a CheckStatus), term_count, detail (a
    message, or None) and oracle_status (a CheckStatus, or None when the
    oracle did not run)."""

    __slots__ = ()

    @classmethod
    def verdict(cls, description: str, modulus: Modulus,
                achieved: dict[int, Valuation], term_count: int) -> "CheckReport":
        """PASS or FAIL as the achieved valuations meet the modulus or not."""
        valuations = ValuationReport.compare(achieved, modulus.parts)
        status = CheckStatus.PASS if valuations.passed else CheckStatus.FAIL
        return cls(description, modulus, valuations, status, term_count)


def check_congruence(
    f: Union[FactoredFraction, RatFunc, Poly, int],
    mod: Modulus,
    description: str = "",
    term_count: int = 0,
) -> CheckReport:
    """Compare achieved valuations of f against the modulus profile.

    f = 0 passes trivially with infinite valuations.  A negative achieved
    valuation means the denominator of f in lowest terms is not invertible
    at that cyclotomic, which makes the congruence meaningless: ERROR, not
    FAIL.
    """
    achieved = {m: phi_valuation(f, m) for m in sorted(mod.parts)}
    report = CheckReport.verdict(description, mod, achieved, term_count)
    poles = [m for m, v in achieved.items() if v < 0]
    if poles:
        report = report._replace(
            status=CheckStatus.ERROR,
            detail=f"denominator not invertible at cyclotomic index {poles[-1]}")
    return report


def check_sum(total: FactoredFraction, shape: tuple[int, int, int],
              mod: Modulus, description: str, oracle: bool = False) -> CheckReport:
    """The check pipeline shared by every truncated-sum checker: compare
    ``total``, which is ``truncated_sum(*shape)``, against the modulus
    profile and, when asked, add the verdict of the oracle's walk over the
    same sum's terms, ``truncated_terms(*shape)``, at a root of unity in F_p."""
    report = check_congruence(total, mod, description, shape[2] + 1)
    if oracle:
        # built anew, not by _replace: each _replace call leaves one spare
        # 7-tuple in CPython's tuple free list, up to 2000 of them
        report = CheckReport(*report[:-1], oracle_check(truncated_terms(*shape), mod))
    return report


def _shape(case: TheoremCase) -> tuple[int, int, int]:
    return case.d, case.r, case.upper_bound


def check_theorem(case: TheoremCase, oracle: bool = False,
                  power: int | None = None) -> CheckReport:
    """Check the case's sum against [n]*Phi_n**power; by default the stated
    power, 2 for the first family and 1 for the second."""
    if power is None:
        power = 2 if case.variant is Variant.THM1 else 1
    mod = q_integer_modulus(case.n, power)
    return check_sum(theorem_sum(case), _shape(case), mod, case.describe(), oracle)


def check_conjecture(case: TheoremCase, which: Conjecture,
                     oracle: bool = False) -> CheckReport:
    """Evidence check at the conjectured (stronger) modulus.

    conj1 (r = 1) and conj2 (r = -1) claim Phi_n**3 on the first-family
    cases and Phi_n**4 on the second; conj3 claims [n]*Phi_n**3 on the
    second family.  Reports are evidence, not assertions.
    """
    if which in CONJECTURE_R and case.r != CONJECTURE_R[which]:
        raise InvalidCase([f"{which.value} requires r = {CONJECTURE_R[which]}"])
    if which is Conjecture.CONJ3 and case.variant is not Variant.THM2:
        raise InvalidCase(["conj3 applies to the second family (2n = -r mod d)"])
    if which is Conjecture.CONJ3:
        mod = q_integer_modulus(case.n, 3)
    else:
        mod = phi_modulus(case.n, 3 if case.variant is Variant.THM1 else 4)
    return check_sum(theorem_sum(case), _shape(case), mod,
                     f"{which.value} {case.describe()}", oracle)


def legacy_check(d: int, r: int, n: int, phi_power: int) -> CheckReport:
    """Check the full sum (k = 0..n-1) for any odd d >= 3 against a bare
    Phi_n**power profile; used for the d = 3 regression families."""
    return check_sum(truncated_sum(d, r, n - 1), (d, r, n - 1),
                     phi_modulus(n, phi_power),
                     f"legacy(d={d}, r={r}, n={n}) mod Phi_{n}^{phi_power}")


def check_lemma3(d: int, r: int, n: int,
                 truncation: Truncation = Truncation.M_SOLVED,
                 oracle: bool = False) -> CheckReport:
    """Check the truncated sum against the bare [n] profile.

    The solved truncation is lemma 3's m (``Truncation.order``); the
    alternative is the full range n-1.
    """
    bad = []
    if d < 1:
        bad.append("d must be a positive integer")
    if n < 1:
        bad.append("n must be a positive integer")
    if d >= 1 and n >= 1 and math.gcd(d, n) != 1:
        bad.append("gcd(d, n) = 1 violated")
    if d >= 1 and (d * (d - r - 2)) % 2:
        bad.append("d(d - r - 2) must be even for an integral q-power")
    if bad:
        raise InvalidCase(bad)
    upper = truncation.order(d, r, n)
    mod = q_integer_modulus(n, 0) if n > 1 else Modulus({})
    return check_sum(truncated_sum(d, r, upper), (d, r, upper), mod,
                     f"lemma3(d={d}, r={r}, n={n}, m={upper})", oracle)


def check_lemma4(d: int, r: int, n: int) -> bool:
    """No multiples of n occur in the progression
    (d+r)/2, (d+r)/2 + d, ..., (d+r)/2 + dn - 2n - r - d.

    Hypotheses (all named on rejection): the second family's, with
    d >= 3 in place of d >= 5.
    """
    bad = _case_violations(d, r, n, Variant.THM2, d_min=3)
    if bad:
        raise InvalidCase(bad)
    start = (d + r) // 2
    return all((start + d * i) % n for i in range(_solved_index(d, r, n)))


def check_mod_square(alpha: int, r: int, n: int, d: int, k_max: int) -> CheckReport:
    """(q^(r-an), q^(r+an); q^d)_k = (q^r; q^d)_k^2  (mod Phi_n**2),
    verified for every k up to k_max; both sides are walked by their term
    ratios in base q**d, the right side negated on each copy."""
    bad = []
    if k_max < 0:
        bad.append("k_max must be non-negative")
    if d < 1:
        bad.append("d must be a positive integer")
    if n < 1:
        bad.append("n must be a positive integer")
    if bad:
        raise InvalidCase(bad)
    lhs = _ratio_walk(QProduct(), [(r - alpha * n, 1), (r + alpha * n, 1)], d, 0, k_max)
    rhs = _ratio_walk(QProduct(), [(r, 2)], d, 0, k_max)
    worst: Valuation = INFINITE
    for a, b in zip(lhs, rhs):
        b.sign = -b.sign
        worst = min(worst, phi_valuation(qsum([a, b]), n))
    return CheckReport.verdict(
        f"modsquare(alpha={alpha}, r={r}, n={n}, d={d}, k_max={k_max})",
        phi_modulus(n, 2), {n: worst}, k_max + 1)


def van_hamme_check(p: int) -> CheckReport:
    """sum_{k=0}^{K} (6k+1) (1/2)_k^3 / (k!^3 4^k) = p*(-1)^K  (mod p^4),
    K = (p-1)/2, for primes p > 3, over the integers.

    (1/2)_k^3 / (k!^3 4^k) = C(2k, k)^3 / 256^k, so the sum is N / 256^K
    with N = sum_k (6k+1) C(2k, k)^3 256^(K-k), summed by Horner's rule as
    C(2k, k) walks its term ratio 2(2k+1)/(k+1).  256^K is prime to p, so
    the valuation of N - p(-1)^K 256^K is the achieved one."""
    if p <= 3 or not _is_prime(p):
        raise InvalidCase([f"p = {p} must be a prime greater than 3"])
    K = (p - 1) // 2
    total, central = 0, 1                   # N so far, C(2k, k)
    for k in range(K + 1):
        total = total * 256 + (6 * k + 1) * central ** 3
        central = central * 2 * (2 * k + 1) // (k + 1)
    v = rational_p_valuation(total - p * (-1) ** K * 256 ** K, p)
    return CheckReport.verdict(f"vanhamme(p={p})", Modulus({p: 4}), {p: v}, K + 1)


def enumerate_cases(
    variant: Variant,
    d_max: int,
    n_max: int,
    r_range: tuple[int, int],
) -> list[TheoremCase]:
    """Every (d, r, n) with 0 <= d <= d_max, r in the inclusive range and
    0 <= n <= n_max that ``_case_violations`` finds nothing wrong with,
    both truncations each, ordered by (d, r, n, truncation): exactly the
    cases of the grid that ``TheoremCase`` accepts."""
    r_min, r_max = r_range
    return [TheoremCase(d, r, n, variant, trunc)
            for d in range(d_max + 1)
            for r in range(r_min, r_max + 1)
            for n in range(n_max + 1)
            if not _case_violations(d, r, n, variant)
            for trunc in (Truncation.UPPER, Truncation.FULL)]


# ---------------------------------------------------------------------------
# the oracle: orders at a root of unity in F_p

@functools.lru_cache(maxsize=None)
def _fp_root(m: int) -> tuple[int, int]:
    """(p, zeta): the smallest prime p = 1 (mod m) above 2**61, and an
    element zeta of exact order m in F_p."""
    p = ((2 ** 61 - 1) // m + 1) * m + 1
    while not _is_prime(p):
        p += m
    primes = [l for l in range(2, m + 1) if m % l == 0 and _is_prime(l)]
    g = 2
    while True:
        zeta = pow(g, (p - 1) // m, p)
        if all(pow(zeta, m // l, p) != 1 for l in primes):
            return p, zeta
        g += 1


def _binomial_series(a: int, power: int, point: int, inv_point: int, p: int, prec: int,
                     inv: list[int]) -> list[int]:
    """(q**a - 1) at q = point + eps, mod eps**prec, from power = point**a, and
    divided by eps when power = 1; a = 0 stands for q; inv[j] is 1/j mod p."""
    if a == 0:
        return ([point, 1] + [0] * prec)[:prec]
    drop = int(power == 1)
    coeffs, c = [], power                   # c = C(a, j) point**(a - j)
    for j in range(prec + drop):
        if j:
            c = c * (a - j + 1) % p * inv[j] % p * inv_point % p
        coeffs.append(c)
    coeffs[0] -= 1
    return coeffs[drop:]


def _series_log(g: list[int], inv: list[int], p: int) -> list[int]:
    """log g to the precision of g, for g(0) = 1, from n g_n =
    sum_(k=1..n) k l_k g_(n-k); ``inv[n]`` is 1/n mod p."""
    log = [0]
    for n in range(1, len(g)):
        acc = n * g[n] - sum(k * log[k] * g[n - k] for k in range(1, n))
        log.append(acc % p * inv[n] % p)
    return log


def _series_exp(log: list[int], inv: list[int], p: int) -> list[int]:
    """exp log to the precision of log, for log(0) = 0, by the same
    recurrence read the other way."""
    g = [1]
    for n in range(1, len(log)):
        g.append(sum(k * log[k] * g[n - k] for k in range(1, n + 1)) % p * inv[n] % p)
    return g


def _term_changes(terms: Sequence[QProduct]) -> list[tuple[int, list[tuple[int, int]]]]:
    """(sign, changes) per live term: the (a, delta) that take the previous
    live term's exponents to this one's, a = 0 standing for the power of q."""
    steps, have = [], {}
    for t in terms:
        if t.is_zero:
            continue
        want = {**t.factors, 0: t.qexp}
        steps.append((t.sign, [(a, want.get(a, 0) - have.get(a, 0))
                               for a in want.keys() | have.keys()
                               if want.get(a, 0) != have.get(a, 0)]))
        have = want
    return steps


def _walk_terms(steps: list[tuple[int, list[tuple[int, int]]]], point: int, need: int,
                p: int) -> tuple[int, list[int]]:
    """(low, s): the sum of the terms that ``_term_changes`` gave ``steps``,
    at q = point + eps in F_p, is eps**low * s, mod eps**need.

    A factor (q**a - 1) vanishes once at eps = 0 where a != 0 and
    point**a = 1, read off the point, so each term is eps**v times a unit,
    v carried through the changes, and low is exact.  Each factor f, that
    root divided out, is f0 * exp(log(f / f0)) with f0 = f(0), so the walk
    carries the unit as a scalar u and a log series L: a change (a, delta)
    multiplies u by f0**delta and adds delta * log(f / f0) to L, and the
    unit is u * exp(L); the precision is far below p, so all is exact in F_p.
    """
    powers = {a: pow(point, a, p) for a in {a for _, ch in steps for a, _ in ch}}
    orders = list(accumulate(sum(e for a, e in ch if a and powers[a] == 1) for _, ch in steps))
    low = min(orders, default=need)
    prec = need - low
    if prec <= 0:
        return low, []
    inv = [0] + [pow(n, -1, p) for n in range(1, prec + 1)]
    inv_point = pow(point, -1, p)
    logs = {}                               # a: (f0, 1 / f0, log(f / f0))
    for a, power in powers.items():
        f = _binomial_series(a, power, point, inv_point, p, prec, inv)
        inv_f0 = pow(f[0], -1, p)
        logs[a] = f[0], inv_f0, _series_log([c * inv_f0 % p for c in f], inv, p)
    total = [0] * prec
    u, log = 1, [0] * prec
    for (sign, changes), v in zip(steps, orders):
        for a, delta in changes:
            f0, inv_f0, log_a = logs[a]
            u = u * pow(f0 if delta > 0 else inv_f0, abs(delta), p) % p
            log = [(x + delta * y) % p for x, y in zip(log, log_a)]
        unit = [u * c % p for c in _series_exp(log, inv, p)] if prec > 1 else [u]
        for j in range(prec - (v - low)):
            total[v - low + j] += sign * unit[j]
    return low, total


def oracle_check(terms: Sequence[QProduct], mod: Modulus) -> CheckStatus:
    """Verdict from the order of the sum of ``terms`` at a root of unity in
    F_p, a route that shares no code with the summation or the valuation
    count.

    For each required index m, the terms, diffed once (``_term_changes``),
    are walked (``_walk_terms``) at q = zeta + eps, zeta of exact order m
    in F_p (``_fp_root``) and so a simple root of Phi_m; the walker reads
    off zeta which factors (q**a - 1) vanish.  The first non-zero
    coefficient of the series gives the order; a negative order is a pole
    (ERROR, which wins), one below the requirement a FAIL.

    Every denominator here is a product of cyclotomic factors and a power
    of q, so its order at zeta is exactly its Phi_m-valuation, and the
    order of the sum is never below the valuation over Z.  A FAIL or an
    ERROR is therefore exact; a PASS is a cross-check that is wrong only
    when the Phi_m-free part of the numerator also vanishes at zeta mod p,
    which has probability about deg/p with p > 2**61.
    """
    steps = _term_changes(terms)
    status = CheckStatus.PASS
    for m, need in sorted(mod.parts.items()):
        p, zeta = _fp_root(m)
        low, series = _walk_terms(steps, zeta, need, p)
        order = next((low + j for j, c in enumerate(series) if c % p), need)
        if order < 0:
            return CheckStatus.ERROR
        if order < need:
            status = CheckStatus.FAIL
    return status
