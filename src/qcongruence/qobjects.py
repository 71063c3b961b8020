"""q-shifted factorials, their products and powers, and the exact summation
kernel used by every series evaluator in the package.

Every q-expression handled here is a product of factors (1 - q**e) with
integer e, times an integer power of q and a sign.  ``QProduct`` keeps that
structure explicit: folding each factor through

    1 - q**e  =  -(q**e - 1)            for e > 0,
    1 - q**e  =  (q**|e| - 1) / q**|e|  for e < 0,

leaves sign * q**qexp * prod (q**a - 1)**mult with every a >= 1.  Sums of
such terms are placed over a common factored denominator, nested from the
last term, each term's numerator a copy of a carried product that only
gains binomials, times the few it lacks, and returned unreduced, as a
``FactoredFraction``: cyclotomic valuations are read off the expanded
numerator and the factor map, so the theorem checks never reduce their
large numerators.  The canonical form, when a caller asks for it, comes
from cancelling cyclotomic factors only; no general polynomial gcd is ever
needed.

``qsum`` holds every polynomial of a sum packed into one int, its value at
q = 2**B (Kronecker substitution): multiplying by q**a - 1 is one shift and
one subtraction, nothing is ever divided, and only the finished numerator
is cut back into coefficients.  B is derived from the terms so that no
numerator coefficient reaches 2**(B - 1); nothing sets it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import accumulate
from typing import Iterable, Sequence, Union

# fractions is imported only inside the functions that build a Fraction; no
# command calls them, so no command process loads it

from .exactalg import (
    FactoredFraction,
    Poly,
    RatFunc,
    _mul_packed,
    _phi_exponents,
    _slot_bits,
    _unpack,
)

__all__ = [
    "QPochSpec",
    "QProduct",
    "VanishingDenominator",
    "q_pochhammer",
    "q_poch_product",
    "qsum",
    "rising_factorial",
]


class VanishingDenominator(ZeroDivisionError):
    """An identically-zero factor was raised to a negative power."""


class QPochSpec(namedtuple("QPochSpec", "base_exponent step length")):
    """The q-shifted factorial (q**e; q**d)_k with e = base_exponent,
    d = step, k = length.  The base exponent may be negative."""

    __slots__ = ()

    def __new__(cls, base_exponent: int, step: int, length: int) -> "QPochSpec":
        if step < 1:
            raise ValueError("step must be a positive integer")
        if length < 0:
            raise ValueError("length must be non-negative")
        return super().__new__(cls, base_exponent, step, length)

    def factor_exponents(self) -> range:
        return range(
            self.base_exponent,
            self.base_exponent + self.step * self.length,
            self.step,
        )

    def __str__(self) -> str:
        return f"(q^{self.base_exponent}; q^{self.step})_{self.length}"


class QProduct:
    """sign * q**qexp * prod (q**a - 1)**mult over a >= 1, or zero.

    Mutable builder; callers assemble a product factor by factor and then
    either expand it (``to_ratfunc``) or hand it to ``qsum``.
    """

    __slots__ = ("sign", "qexp", "factors", "is_zero")

    def __init__(self) -> None:
        self.sign = 1
        self.qexp = 0
        self.factors: dict[int, int] = {}
        self.is_zero = False

    def copy(self) -> "QProduct":
        out = QProduct()
        out.sign = self.sign
        out.qexp = self.qexp
        out.factors = dict(self.factors)
        out.is_zero = self.is_zero
        return out

    def mul_one_minus_q(self, e: int, power: int = 1) -> "QProduct":
        """Multiply by (1 - q**e)**power."""
        if power == 0:
            return self
        if e == 0:
            if power < 0:
                raise VanishingDenominator(f"vanishing denominator: (1 - q^0)^{power}")
            self.is_zero = True
            return self
        _add(self.factors, abs(e), power)
        if e > 0:
            if power % 2:
                self.sign = -self.sign
        else:
            self.qexp += e * power
        return self

    def mul_qpow(self, w: int) -> "QProduct":
        self.qexp += w
        return self

    def mul_pochhammer(self, spec: QPochSpec, power: int = 1) -> "QProduct":
        exponents = spec.factor_exponents()
        if power < 0 and 0 in exponents:
            raise VanishingDenominator(f"vanishing denominator: {spec}^{power}")
        for e in exponents:
            self.mul_one_minus_q(e, power)
        return self

    def mul(self, other: "QProduct") -> "QProduct":
        self.sign *= other.sign
        self.qexp += other.qexp
        for a, m in other.factors.items():
            _add(self.factors, a, m)
        self.is_zero = self.is_zero or other.is_zero
        return self

    def evaluate(self, t) -> Fraction:
        """Exact numeric value at q = t (for cross-checks)."""
        from fractions import Fraction
        if self.is_zero:
            return Fraction(0)
        t = Fraction(t)
        out = Fraction(self.sign) * t**self.qexp
        for a, m in self.factors.items():
            base = t**a - 1
            if base == 0 and m < 0:
                raise ZeroDivisionError(f"(q^{a} - 1) vanishes at q = {t}")
            out *= base**m
        return out

    def to_ratfunc(self) -> RatFunc:
        return qsum([self]).to_ratfunc()

    def __repr__(self) -> str:
        if self.is_zero:
            return "QProduct(0)"
        body = " * ".join(f"(q^{a} - 1)^{m}" for a, m in sorted(self.factors.items()))
        return f"QProduct({'-' if self.sign < 0 else ''}q^{self.qexp} {body})"


def _add(x: dict[int, int], a: int, m: int) -> None:
    """x[a] += m in place; an entry that reaches 0 is deleted."""
    if m := m + x.get(a, 0):
        x[a] = m
    else:
        x.pop(a, None)


def _meet(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """The elementwise minimum of two positive exponent maps, on their shared keys."""
    return {a: min(m, y[a]) for a, m in x.items() if a in y}


def _less(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """x - y on the keys of x, without its zero entries."""
    return {a: d for a, m in x.items() if (d := m - y.get(a, 0))}


def _nest(products: Iterable[QProduct]) -> tuple:
    """The nesting schedule of a sum of QProduct terms, as exponent maps:
    (den, qden, rows, steps, final); zero terms and zero entries are dropped.

    All terms are placed over the least common factored denominator
    P(den) * q**qden, so row k is (sign, shift, e_k): term k contributes
    sign * q**shift * P(e_k), P(e) = prod (q**a - 1)**e[a].  The sum is
    nested from the last term.  With C_k the elementwise minimum (``_meet``)
    of e_i over the tail i >= k, U holds the tail's sum divided by P(C_k); a
    step to k multiplies U by P(C_(k+1) - C_k) and adds P(w_k), w_k = e_k -
    C_k.  The cofactor is carried as P(b_k), b_k the elementwise minimum of
    w_i over the prefix i <= k.  As b_(k+1) <= b_k <= w_k, the carried
    P(b_k) only gains binomials on the way to the first term, and term k is
    P(b_k) * P(w_k - b_k): nothing is divided out, and a hypergeometric
    series costs about one binomial per factor of its term ratio.

    ``steps`` has one entry per row, the last term first: (sign, shift,
    C_(k+1) - C_k, b_k - b_(k+1), w_k - b_k), with C_n = b_n = {}; every map
    is positive (``_less``).  The sum is P(final) * U after the first term's
    step, final = C_0.  Any ring that holds P(e) can run the steps.
    """
    terms = [t for t in products if not t.is_zero]
    den: dict[int, int] = {}
    for t in terms:
        for a, m in t.factors.items():
            if m < 0 and -m > den.get(a, 0):
                den[a] = -m
    qden = -min([0, *(t.qexp for t in terms)])

    rows = []
    for t in terms:
        exps = dict(den)
        for a, m in t.factors.items():
            _add(exps, a, m)
        rows.append((t.sign, t.qexp + qden, exps))

    commons = [*accumulate(reversed([e for *_, e in rows]), _meet)][::-1] + [{}]  # C_k
    owns = [_less(e, common) for (*_, e), common in zip(rows, commons)]          # w_k
    bases = [*accumulate(owns, _meet), {}]                                       # b_k
    steps = [(sign, shift, _less(outer, common), _less(b, inner), _less(w, b))
             for (sign, shift, _), common, outer, w, b, inner
             in zip(rows, commons, commons[1:], owns, bases, bases[1:])]
    steps.reverse()
    return den, qden, rows, steps, commons[0]


def qsum(products: Iterable[QProduct]) -> FactoredFraction:
    """Exact sum of QProduct terms, unreduced: ``_nest``'s schedule run on
    packed ints, with the common denominator as the factor map and, as the
    floor, the least Phi_d multiplicity of the rows P(e_k) for each d.

    Every polynomial on the way is one int, its value at q = 2**B (see
    ``exactalg._unpack``): a binomial step is a shift and a subtraction, a
    term is added at its shift, and only the numerator is unpacked, once.
    The 1-norm of P(e) is at most 2**|e|, |e| = sum(e.values()), so with E
    the largest |e_k| and n terms every coefficient of the numerator is
    below n * 2**E < 2**(B - 1) for B = E + n.bit_length() + 1 (rounded up
    to whole bytes).  Evaluation at 2**B is a ring homomorphism and nothing
    before the numerator is unpacked, so U and P(b_k) need no bound.
    """
    den, qden, rows, steps, final = _nest(products)
    B = _slot_bits(max((sum(e.values()) for *_, e in rows), default=0)
                   + len(rows).bit_length())
    acc, base = 0, 1                      # U, P(b_k)
    for sign, shift, tail, cofactor, own in steps:
        acc = _mul_packed(acc, tail, B)
        base = _mul_packed(base, cofactor, B)
        term = _mul_packed(base, own, B) << shift * B
        acc = acc + term if sign > 0 else acc - term
    acc = _mul_packed(acc, final, B)
    floor = reduce(_meet, (_phi_exponents(e) for *_, e in rows)) if rows else {}
    return FactoredFraction(Poly(_unpack(acc, B)), den, qden, floor)


# ---------------------------------------------------------------------------
# public q-objects


def q_pochhammer(spec: QPochSpec) -> RatFunc:
    """(q**e; q**d)_k as a canonical rational function.

    Negative base exponents put pure powers of q into the denominator,
    e.g. (q**-1; q**5)_1 = -(1 - q)/q.
    """
    return QProduct().mul_pochhammer(spec).to_ratfunc()


def q_poch_product(
    specs: Sequence[tuple[QPochSpec, int]],
) -> RatFunc:
    """Product of q-shifted factorials raised to integer powers.

    Raising an identically-zero factorial to a negative power raises
    VanishingDenominator naming the offending spec.
    """
    acc = QProduct()
    for spec, power in specs:
        acc.mul_pochhammer(spec, power)
    return acc.to_ratfunc()


def rising_factorial(a: Union[Fraction, int], k: int) -> Fraction:
    """Classical rising factorial a (a+1) ... (a+k-1) over exact rationals."""
    from fractions import Fraction
    if k < 0:
        raise ValueError("length must be non-negative")
    out = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        out *= a + i
    return out
