"""Congruence certification: valuation profiles for moduli built from
q-integers and cyclotomic powers, case checkers, and the p-adic check.

A modulus like [n] * Phi_n(q)**k is a finite valuation profile: since
[n] factors as the product of Phi_m over the divisors m > 1 of n, the
requirement is valuation k+1 at index n and valuation 1 at every other
divisor index.  ``check_congruence`` compares achieved valuations of an
exact sum (a ``FactoredFraction`` as ``qsum`` leaves it, or any rational
function) against such a profile; a denominator that is not invertible at
a required index is an ERROR, distinct from FAIL.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Union

from .exactalg import (
    INFINITE,
    FactoredFraction,
    Poly,
    RatFunc,
    ValuationReport,
    Valuation,
    cyclotomic,
    divisors,
    phi_valuation,
    rational_p_valuation,
)
from .qobjects import QPochSpec, QProduct, qsum, rising_factorial
from .hypergeom import (
    InvalidCase,
    TheoremCase,
    Truncation,
    Variant,
    theorem_sum,
    truncated_sum,
)

__all__ = [
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


Lemma3Truncation = Truncation
# a validated parameter tuple, or InvalidCase naming every violated hypothesis
validate_case = TheoremCase


@dataclass(frozen=True)
class Modulus:
    """Required minimum valuations, keyed by cyclotomic index."""

    parts: dict[int, int]

    def __post_init__(self) -> None:
        if any(v < 1 for v in self.parts.values()):
            raise ValueError("all requirements must be >= 1")

    def polynomial(self) -> Poly:
        """The modulus as an explicit polynomial (product of Phi powers)."""
        p = Poly((1,))
        for m in sorted(self.parts):
            p = p * cyclotomic(m) ** self.parts[m]
        return p

    def describe(self) -> str:
        return " * ".join(f"Phi_{m}^{k}" if k > 1 else f"Phi_{m}"
                          for m, k in sorted(self.parts.items()))


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


@dataclass
class CheckReport:
    """Outcome of one congruence check: PASS iff every required valuation
    was achieved and no error occurred."""

    description: str
    modulus: Modulus
    valuations: ValuationReport | None
    status: CheckStatus
    term_count: int = 0
    elapsed_ms: float = 0.0
    detail: str | None = None
    oracle_status: CheckStatus | None = None

    @property
    def passed(self) -> bool:
        return self.status is CheckStatus.PASS

    @classmethod
    def verdict(cls, description: str, modulus: Modulus,
                valuations: ValuationReport, term_count: int) -> "CheckReport":
        """PASS or FAIL as the valuations meet their requirements or not."""
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
    report = CheckReport.verdict(description, mod,
                                 ValuationReport.compare(achieved, mod.parts), term_count)
    poles = [m for m, v in achieved.items() if isinstance(v, int) and v < 0]
    if poles:
        report.status = CheckStatus.ERROR
        report.detail = f"denominator not invertible at cyclotomic index {poles[-1]}"
    return report


def _elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def check_sum(total: Callable[[], FactoredFraction], mod: Modulus, description: str,
              term_count: int, oracle: bool = False) -> CheckReport:
    """The check pipeline shared by every truncated-sum checker: compute
    ``total()``, compare it against the modulus profile, time both steps,
    and add the brute-force oracle verdict when asked."""
    start = time.perf_counter()
    s = total()
    report = check_congruence(s, mod, description, term_count)
    report.elapsed_ms = _elapsed_ms(start)
    if oracle:
        report.oracle_status = oracle_check(s, mod)
    return report


def check_theorem(case: TheoremCase, oracle: bool = False) -> CheckReport:
    """Check the case's sum against its stated modulus profile:
    [n]*Phi_n**2 for the first family, [n]*Phi_n for the second."""
    power = 2 if case.variant is Variant.THM1 else 1
    return check_sum(lambda: theorem_sum(case), q_integer_modulus(case.n, power),
                     case.describe(), case.upper_bound + 1, oracle)


def check_conjecture(case: TheoremCase, which: Conjecture,
                     oracle: bool = False) -> CheckReport:
    """Evidence check at the conjectured (stronger) modulus.

    conj1 (r = 1) and conj2 (r = -1) claim Phi_n**3 on the first-family
    cases and Phi_n**4 on the second; conj3 claims [n]*Phi_n**3 on the
    second family.  Reports are evidence, not assertions.
    """
    if which is Conjecture.CONJ1 and case.r != 1:
        raise InvalidCase(["conj1 requires r = 1"])
    if which is Conjecture.CONJ2 and case.r != -1:
        raise InvalidCase(["conj2 requires r = -1"])
    if which is Conjecture.CONJ3 and case.variant is not Variant.THM2:
        raise InvalidCase(["conj3 applies to the second family (2n = -r mod d)"])
    if which is Conjecture.CONJ3:
        mod = q_integer_modulus(case.n, 3)
    else:
        mod = phi_modulus(case.n, 3 if case.variant is Variant.THM1 else 4)
    return check_sum(lambda: theorem_sum(case), mod, f"{which.value} {case.describe()}",
                     case.upper_bound + 1, oracle)


def legacy_check(d: int, r: int, n: int, phi_power: int) -> CheckReport:
    """Check the full sum (k = 0..n-1) for any odd d >= 3 against a bare
    Phi_n**power profile; used for the d = 3 regression families."""
    return check_sum(lambda: truncated_sum(d, r, n - 1), phi_modulus(n, phi_power),
                     f"legacy(d={d}, r={r}, n={n}) mod Phi_{n}^{phi_power}", n)


def check_lemma3(d: int, r: int, n: int,
                 truncation: Truncation = Truncation.M_SOLVED,
                 oracle: bool = False) -> CheckReport:
    """Check the truncated sum against the bare [n] profile.

    The solved truncation is the unique m in [0, n-1] with d*m = -r
    (mod n); the alternative is the full range n-1.
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
    m_solved = (-r * pow(d, -1, n)) % n if n > 1 else 0
    upper = m_solved if truncation is Truncation.M_SOLVED else max(n - 1, 0)
    mod = q_integer_modulus(n, 0) if n > 1 else Modulus({})
    return check_sum(lambda: truncated_sum(d, r, upper), mod,
                     f"lemma3(d={d}, r={r}, n={n}, m={upper})", upper + 1, oracle)


def check_lemma4(d: int, r: int, n: int) -> bool:
    """No multiples of n occur in the progression
    (d+r)/2, (d+r)/2 + d, ..., (d+r)/2 + dn - 2n - r - d.

    Hypotheses (all named on rejection): d >= 3 odd, r odd, r <= d - 4,
    gcd(d, r) = 1, n >= (d - r)/2 and 2n = -r (mod d).
    """
    bad = []
    if d < 3 or d % 2 == 0:
        bad.append("d must be an odd integer >= 3")
    if r % 2 == 0:
        bad.append("r must be odd")
    if r > d - 4:
        bad.append("r <= d - 4 violated")
    if math.gcd(d, r) != 1:
        bad.append("gcd(d, r) = 1 violated")
    if 2 * n < d - r:
        bad.append("n >= (d - r)/2 violated")
    if d >= 1 and (2 * n) % d != (-r) % d:
        bad.append("2n = -r (mod d) violated")
    if bad:
        raise InvalidCase(bad)
    count = (d * n - 2 * n - r) // d
    start = (d + r) // 2
    return all((start + d * i) % n for i in range(count))


def check_mod_square(alpha: int, r: int, n: int, d: int, k_max: int) -> CheckReport:
    """(q^(r-an), q^(r+an); q^d)_k = (q^r; q^d)_k^2  (mod Phi_n**2),
    verified for every k up to k_max."""
    if k_max < 0:
        raise InvalidCase(["k_max must be non-negative"])
    if d < 1:
        raise InvalidCase(["d must be a positive integer"])
    start = time.perf_counter()
    mod = phi_modulus(n, 2)
    worst: Valuation = INFINITE
    for k in range(k_max + 1):
        lhs = QProduct().mul_pochhammer(QPochSpec(r - alpha * n, d, k))
        lhs.mul_pochhammer(QPochSpec(r + alpha * n, d, k))
        rhs = QProduct().mul_pochhammer(QPochSpec(r, d, k), 2)
        rhs.sign = -rhs.sign
        v = phi_valuation(qsum([lhs, rhs]), n)
        if v < worst:
            worst = v
    report = CheckReport.verdict(
        f"modsquare(alpha={alpha}, r={r}, n={n}, d={d}, k_max={k_max})",
        mod, ValuationReport.compare({n: worst}, mod.parts), k_max + 1)
    report.elapsed_ms = _elapsed_ms(start)
    return report


def van_hamme_check(p: int) -> CheckReport:
    """sum_{k=0}^{(p-1)/2} (6k+1) (1/2)_k^3 / (k!^3 4^k) = p*(-1)^((p-1)/2)
    (mod p^4), over exact rationals, for primes p > 3."""
    if p <= 3 or any(p % k == 0 for k in range(2, int(math.isqrt(p)) + 1)):
        raise InvalidCase([f"p = {p} must be a prime greater than 3"])
    start = time.perf_counter()
    half = Fraction(1, 2)
    total = Fraction(0)
    fact = Fraction(1)
    for k in range((p - 1) // 2 + 1):
        if k:
            fact *= k
        total += (6 * k + 1) * rising_factorial(half, k) ** 3 / (fact ** 3 * Fraction(4) ** k)
    target = p * (-1) ** ((p - 1) // 2)
    v = rational_p_valuation(total - target, p)
    mod = Modulus({p: 4})
    report = CheckReport.verdict(f"vanhamme(p={p})", mod,
                                 ValuationReport.compare({p: v}, mod.parts), (p - 1) // 2 + 1)
    report.elapsed_ms = _elapsed_ms(start)
    return report


def enumerate_cases(
    variant: Variant,
    d_max: int,
    n_max: int,
    r_range: tuple[int, int],
) -> list[TheoremCase]:
    """All validated cases with 5 <= d <= d_max, r in the inclusive range,
    n <= n_max, both truncations, ordered by (d, r, n, truncation)."""
    r_min, r_max = r_range
    out: list[TheoremCase] = []
    for d in range(5, d_max + 1, 2):
        for r in range(r_min, r_max + 1):
            if r % 2 == 0 or r > d - 4 or math.gcd(d, r) != 1:
                continue
            if variant is Variant.THM1:
                n = d - r
            else:
                n = (d - r) // 2
            while n <= n_max:
                for trunc in (Truncation.UPPER, Truncation.FULL):
                    out.append(TheoremCase(d, r, n, variant, trunc))
                n += d
    return out


def oracle_check(f: Union[FactoredFraction, RatFunc, Poly, int], mod: Modulus) -> CheckStatus:
    """Brute-force verdict by exact divisibility, without counting
    valuations.

    For a ``FactoredFraction`` with e_m factors Phi_m in its denominator,
    one division per required index m decides whether Phi_m**(k_m + e_m)
    divides the numerator; where it does not, dividing the short remainder
    R of that division by Phi_m**e_m tells a pole (ERROR, which wins over
    FAIL) from a shortfall (FAIL): Phi_m**e_m divides Phi_m**(k_m + e_m),
    so it divides the numerator exactly when it divides R.  Any other f
    is made canonical: a required Phi_m dividing the denominator is an
    ERROR, and one division of the numerator by the full modulus product
    decides PASS or FAIL.  Either way the oracle divides the numerator
    that ``qsum`` expanded, so it checks the valuation count, not the
    summation itself.
    """
    if isinstance(f, FactoredFraction):
        if f.is_zero:
            return CheckStatus.PASS
        status = CheckStatus.PASS
        for m, need in sorted(mod.parts.items()):
            phi, e = cyclotomic(m), f.den_multiplicity(m)
            rem = f.num.divmod_monic(phi ** (need + e))[1]
            if rem.is_zero:
                continue
            if e and not rem.divmod_monic(phi ** e)[1].is_zero:
                return CheckStatus.ERROR
            status = CheckStatus.FAIL
        return status
    if isinstance(f, (Poly, int)):
        f = RatFunc(f)
    if f.is_zero:
        return CheckStatus.PASS
    for m in sorted(mod.parts):
        quot, rem = f.den.divmod_monic(cyclotomic(m))
        if rem.is_zero:
            return CheckStatus.ERROR
    product = mod.polynomial()
    quot, rem = f.num.divmod_monic(product)
    return CheckStatus.PASS if rem.is_zero else CheckStatus.FAIL
