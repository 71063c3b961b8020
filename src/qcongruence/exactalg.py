"""Exact arithmetic over Z[q]: dense polynomials, canonical rational
functions, cyclotomic polynomials and their valuations.

Conventions used everywhere in this package:

* ``Poly`` stores dense integer coefficients, constant term first, with no
  trailing zeros; the zero polynomial is the empty tuple.  Coefficients are
  Python ints, so nothing ever overflows or rounds.
* ``RatFunc`` is the canonical value type for q-expressions (it absorbs
  negative powers of q).  It is always canonical: gcd(num, den) = 1, the
  denominator is non-zero with positive leading coefficient, and zero is
  represented as 0/1.
* ``FactoredFraction`` is a sum as the summation kernel leaves it: an
  expanded numerator over q**qshift * prod (q**a - 1)**mult, with a floor
  for each Phi_d, which its one constructor takes and ``qsum``, the one
  caller, proves from the numerator's terms: Phi_d divides q**a - 1
  exactly once when d | a, and the valuation of a sum is at least the
  least valuation of its terms.  Cyclotomic
  valuations are read off it without reducing: whole q**m - 1 factors are
  counted first, from the numerator's Taylor coefficients at q**m = 1,
  starting at the floor (the least floor over d | m).  ``==`` and
  ``to_ratfunc`` build the canonical form from the same valuation counts,
  with no general polynomial gcd, by (q**d - 1) steps alone: shifts and
  subtractions, and exact divisions by prefix sums.
* A valuation is an int, or ``INFINITE`` (``math.inf``) for the zero
  function: it compares above every int, equals itself and is never an int.
* Inside the summation kernel a polynomial P is packed into one int, P(2**B)
  for a slot width B of whole bytes (``_mul_packed``, ``_unpack``).
  Evaluation at 2**B is a ring homomorphism, so products by q**a - 1 (a
  shift and a subtraction) and sums of packed ints are the packed results,
  however large the coefficients grow on the way; the kernel only ever
  multiplies.  Only a polynomial that is unpacked needs every
  |coefficient| < 2**(B - 1); its caller picks B from the 1-norm bound
  ||prod (q**a - 1)**e[a]||_1 <= 2**sum(e.values()).
* Values are immutable after construction and may be shared freely between
  threads.  The only shared state is four memo tables: ``divisors`` and
  ``cyclotomic`` here, ``congruence._fp_root`` and ``cli.build_parser``.
  Each insert is idempotent (recomputing a key gives an equivalent value),
  so concurrent reads are safe.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence, Union

# fractions is imported only inside the functions that build a Fraction; no
# command calls them, so no command process loads it

__all__ = [
    "ExactDivisionError",
    "FactoredFraction",
    "INFINITE",
    "Poly",
    "RatFunc",
    "ValuationReport",
    "ZERO",
    "ONE",
    "Q",
    "cyclotomic",
    "divisors",
    "phi_valuation",
    "poly_gcd",
    "q_integer",
    "ratfunc_normalize",
    "rational_p_valuation",
]


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact is not."""


# ---------------------------------------------------------------------------
# Polynomials


class Poly:
    """Dense univariate polynomial over Z; coeffs[i] multiplies q**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("monomial exponent must be non-negative")
        return Poly((0,) * exponent + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly((other,))
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        if not isinstance(other, (Poly, int)):
            return NotImplemented
        a, b = self.coeffs, _as_poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        return self + (-other) if isinstance(other, (Poly, int)) else NotImplemented

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        # iterate the operand with fewer non-zero entries on the outside
        if sum(1 for c in a if c) > sum(1 for c in b if c):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power; use RatFunc")
        return _power(self, n, ONE)

    def shifted(self, k: int) -> "Poly":
        """Multiply by q**k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero or k == 0:
            return self
        return Poly((0,) * k + self.coeffs)

    def split_monomial(self) -> tuple[int, "Poly"]:
        """Write self = q**s * p with p(0) != 0; returns (s, p)."""
        if self.is_zero:
            return 0, self
        s = 0
        while self.coeffs[s] == 0:
            s += 1
        return s, Poly(self.coeffs[s:])

    @property
    def content(self) -> int:
        """Non-negative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> "Poly":
        """Divide out the content, preserving the sign of the leading term."""
        c = self.content
        if c in (0, 1):
            return self
        return Poly(x // c for x in self.coeffs)

    def evaluate(self, x):
        """Horner evaluation; works for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _divmod(self, div: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder by a non-zero divisor; raises
        ExactDivisionError when a leading coefficient of the running
        remainder is not a multiple of the divisor's (never for a monic
        divisor)."""
        dd, lead = div.degree, div.lead
        if self.degree < dd:
            return ZERO, self
        rem = list(self.coeffs)
        quot = [0] * (self.degree - dd + 1)
        body = [(j, c) for j, c in enumerate(div.coeffs[:-1]) if c]
        for i in range(self.degree, dd - 1, -1):
            c = rem[i]
            if c:
                if lead != 1:
                    if c % lead:
                        raise ExactDivisionError("leading coefficient does not divide")
                    c //= lead
                k = i - dd
                quot[k] = c
                rem[i] = 0
                for j, dj in body:
                    rem[k + j] -= c * dj
        return Poly(quot), Poly(rem[:dd])

    def divmod_monic(self, div: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder by a monic divisor (always exact over Z)."""
        if div.lead != 1:
            raise ValueError("divisor must be monic")
        return self._divmod(div)

    def div_exact(self, div: "Poly") -> "Poly":
        """Exact division in Z[q]; raises ExactDivisionError otherwise."""
        if div.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return ZERO
        q, r = self.divmod_monic(div) if div.lead == 1 else self._divmod(div)
        if r:
            raise ExactDivisionError("division left a remainder")
        return q

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


ZERO = Poly()
ONE = Poly((1,))
Q = Poly((0, 1))


def _as_poly(x: Union[Poly, int]) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly((x,))
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def _power(base, n: int, one):
    """base**n, n >= 0, by square-and-multiply; ``one`` is the unit of
    base's ring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# GCD


def _positive_primitive(p: Poly) -> Poly:
    p = p.primitive_part()
    return -p if p.lead < 0 else p


def _pseudo_rem(f: Poly, g: Poly) -> Poly:
    """Fraction-free remainder of f by g (differs from rem by a power of lc(g))."""
    dg, lg = g.degree, g.lead
    r = f
    while not r.is_zero and r.degree >= dg:
        r = r * lg - g * Poly.monomial(r.degree - dg, r.lead)
    return r


def _gcd_prs(f: Poly, g: Poly) -> Poly:
    # primitive remainder sequence: content is stripped after every step,
    # which keeps coefficient growth polynomial instead of exponential
    if f.degree < g.degree:
        f, g = g, f
    while not g.is_zero:
        r = _pseudo_rem(f, g)
        f, g = g, r.primitive_part()
    return f


def poly_gcd(a: Union[Poly, int], b: Union[Poly, int]) -> Poly:
    """Primitive gcd in Z[q] with positive leading coefficient.

    The result has integer content 1 and divides both inputs exactly;
    gcd(0, 0) = 0 by convention.
    """
    a, b = _as_poly(a), _as_poly(b)
    if a.is_zero and b.is_zero:
        return ZERO
    if a.is_zero:
        return _positive_primitive(b)
    if b.is_zero:
        return _positive_primitive(a)
    sa, pa = a.split_monomial()
    sb, pb = b.split_monomial()
    shift = min(sa, sb)
    pa, pb = pa.primitive_part(), pb.primitive_part()
    if pa.degree == 0 or pb.degree == 0:
        return ONE.shifted(shift)
    return _positive_primitive(_gcd_prs(pa, pb)).shifted(shift)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and q-integers


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """Sorted positive divisors of n (n >= 1)."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """n-th cyclotomic polynomial, prod (q**d - 1)**k[d] over d | n, by
    binomial steps (``_binomial_exponents`` of {n: 1}, ``_binomial_steps``);
    roots of unity are never materialised."""
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    return Poly(_binomial_steps([1], _binomial_exponents({n: 1})))


def q_integer(n: int) -> Poly:
    """[n] = 1 + q + ... + q**(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q-integer index must be non-negative")
    return Poly((1,) * n)


# ---------------------------------------------------------------------------
# Rational functions


class RatFunc:
    """Canonical fraction num/den of two integer polynomials in q.

    The constructor is the one place that reduces: ``+`` hands it the
    combined fraction (none when a denominator is 1), and ``*`` the two
    cross pairs (num1/den2, num2/den1), whose product is then canonical; as
    the canonical form is unique, nothing is reduced anywhere else."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[Poly, int], den: Union[Poly, int] = ONE):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0 or g.coeffs[0] != 1:
            num, den = num.div_exact(g), den.div_exact(g)
        c = math.gcd(num.content, den.content)
        if c > 1:
            num = Poly(x // c for x in num.coeffs)
            den = Poly(x // c for x in den.coeffs)
        if den.lead < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @classmethod
    def _from_canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """Trusted constructor for values already in canonical form."""
        obj = object.__new__(cls)
        obj.num, obj.den = num, den
        return obj

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Poly, FactoredFraction)):
            other = _as_ratfunc(other)
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc._from_canonical(-self.num, self.den)

    def __add__(self, other: Union["RatFunc", Poly, int]) -> "RatFunc":
        other = _as_ratfunc(other)
        if self.den == ONE:
            self, other = other, self
        if other.den == ONE:    # a factor common to num + p*den and den divides num
            return RatFunc._from_canonical(self.num + other.num * self.den, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: Union["RatFunc", Poly, int]) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: Union["RatFunc", Poly, int]) -> "RatFunc":
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other: Union["RatFunc", Poly, int]) -> "RatFunc":
        # the constructor reduces the two cross pairs; their product is then
        # canonical by Gauss's lemma (Knuth, TAOCP vol. 2, 4.5.1), zero
        # included, since a zero factor has denominator 1
        other = _as_ratfunc(other)
        a, b = RatFunc(self.num, other.den), RatFunc(other.num, self.den)
        return RatFunc._from_canonical(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        if den.lead < 0:
            num, den = -num, -den
        return RatFunc._from_canonical(num, den)

    def __truediv__(self, other: Union["RatFunc", Poly, int]) -> "RatFunc":
        return self * _as_ratfunc(other).inverse()

    def __pow__(self, n: int) -> "RatFunc":
        return _power(self if n >= 0 else self.inverse(), abs(n), RATFUNC_ONE)

    def evaluate(self, t) -> Fraction:
        """Exact value at q = t; raises ZeroDivisionError on a pole."""
        from fractions import Fraction
        dv = self.den.evaluate(Fraction(t))
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {t}")
        return Fraction(self.num.evaluate(Fraction(t))) / dv

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


RATFUNC_ZERO = RatFunc._from_canonical(ZERO, ONE)
RATFUNC_ONE = RatFunc._from_canonical(ONE, ONE)


def _as_ratfunc(x: Union[RatFunc, "FactoredFraction", Poly, int]) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, FactoredFraction):
        return x.to_ratfunc()
    return RatFunc._from_canonical(_as_poly(x), ONE)    # p/1 is canonical


ratfunc_normalize = RatFunc


# ---------------------------------------------------------------------------
# Valuations


# the valuation of zero: above every integer, equal only to itself, never an int
INFINITE = math.inf

Valuation = Union[int, float]


def _divide_out(p: Poly, phi: Poly) -> int:
    """Multiplicity of the monic factor phi in p, by repeated division;
    raises ValueError for p = 0, which every phi divides."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no finite multiplicity")
    count = 0
    while True:
        quot, rem = p.divmod_monic(phi)
        if not rem.is_zero:
            return count
        p, count = quot, count + 1


def _poly_phi_valuation(p: Poly, m: int, floor: int = 0) -> int:
    """Multiplicity of Phi_m in p (p != 0), given that (q**m - 1)**floor
    divides p.

    Whole (q**m - 1) factors are counted first (``_binomial_count``); Phi_m
    divides q**m - 1 exactly once, so each counts 1.  The remainder R of
    the cofactor decides the rest: Phi_m divides the cofactor exactly when
    it divides R.  Only then, which no valuation of the capped thm1/thm2
    sweep grids reaches, is p itself divided by Phi_m until a remainder
    shows.
    """
    j, rem = _binomial_count(p.coeffs, m, floor)
    phi = cyclotomic(m)
    if Poly(rem).divmod_monic(phi)[1]:
        return j
    return _divide_out(p, phi)


def phi_valuation(f: Union[RatFunc, "FactoredFraction", Poly, int], m: int) -> Valuation:
    """Exponent of the m-th cyclotomic polynomial in f.

    Negative when the factor lives in the denominator; INFINITE
    (``math.inf``) for f = 0, a distinct outcome that is never an int.
    """
    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    if isinstance(f, FactoredFraction):
        return f.valuation(m)
    f = _as_ratfunc(f)
    if f.is_zero:
        return INFINITE
    return _poly_phi_valuation(f.num, m) - _poly_phi_valuation(f.den, m)


# ---------------------------------------------------------------------------
# Counting q**m - 1 factors.  Write p = sum_c q**c N_c(q**m), 0 <= c < m: the
# (q**m - 1)-count of p is the least order at y = 1 of the N_c(y), the first j
# at which some N_c has a non-zero Taylor coefficient
# T_c(j) = sum_i binomial(i, j) N_c[i], and the T_c(j) at that j are the
# remainder of p / (q**m - 1)**j by q**m - 1.  Each class is a coefficient
# list cs[c::m].

def _peel(classes: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """One division of every class by y - 1: the prefix sums of each class.
    The last one is the class's value at y = 1, its remainder; when that is
    0, the others are its quotient, negated."""
    sums = [list(accumulate(x)) for x in classes]
    return sums, [x.pop() if x else 0 for x in sums]


def _binomial_count(cs: tuple[int, ...], m: int, floor: int) -> tuple[int, list[int]]:
    """(j, R) for a non-zero coefficient list that (q**m - 1)**floor
    divides: j is its (q**m - 1)-count and R the T_c(j), c = 0 .. m - 1.

    Peeling y - 1 off every class, one prefix sum each, reads the T_c in
    order from T_c(0).  A floor f > 0 starts the count there instead: with
    B_c[k] = binomial(f + k, f) N_c[f + k] and
    binomial(i, f) binomial(i - f, s) = binomial(f + s, f) binomial(i, f + s),
    the order-s coefficients of B_c are binomial(f + s, f) T_c(f + s), so
    peeling the B_c reads the T_c from T_c(f).  The floor is trusted: the
    orders below it are never read.
    """
    classes = [cs[c::m] for c in range(m)]
    if floor:
        size = len(classes[0]) - floor
        weights = list(accumulate(range(1, size), lambda w, k: w * (floor + k) // k,
                                  initial=1))
        classes = [list(map(operator.mul, weights, x[floor:])) for x in classes]
    s = 0
    while classes[0]:  # the longest class
        sums, rem = _peel(classes)
        if any(rem):
            scale = (-1) ** s * math.comb(floor + s, floor)
            return floor + s, [r // scale for r in rem]
        classes, s = sums, s + 1
    raise ValueError("the polynomial is zero or the floor is past its degree")


# ---------------------------------------------------------------------------
# Packed polynomials: P as the int P(2**B), coefficient i a signed digit in
# the B-bit slot i; |coefficient| < 2**(B - 1) makes the digits unique.


def _slot_bits(bound_bits: int) -> int:
    """The slot width B for coefficients below 2**bound_bits in absolute
    value: a sign bit on top, rounded up to whole bytes.  ``_unpack`` needs
    only |c| < 2**(B - 1), and both callers' bounds are strict: ``qsum``'s
    n * 2**E < 2**(E + n.bit_length()), and ``_expand_factors``' 1-norm
    2**sum(mult), as a product of (q**a - 1) factors has two non-zero
    coefficients (the empty one is 1, and B >= 8)."""
    return -(-(bound_bits + 1) // 8) * 8


def _mul_packed(x: int, factors: dict[int, int], B: int) -> int:
    """x * prod (q**a - 1)**mult on B-bit slots: a shift and a subtraction
    per binomial."""
    for a, m in factors.items():
        k = a * B
        for _ in range(m):
            x = (x << k) - x
    return x


def _unpack(x: int, B: int) -> list[int]:
    """The coefficients of the packed polynomial x, every one of them below
    2**(B - 1) in absolute value, with no trailing zeros.

    Adding 2**(B - 1) to every slot makes each digit non-negative, so one
    ``to_bytes`` cuts them all out at once.  With t the top non-zero slot,
    2**(B*t - 1) < |x| < 2**(B*(t + 1) - 1), as every digit is below
    2**(B - 1): so n = t + 1 slots are cut, and the last one is not zero."""
    if not x:
        return []
    w = B // 8
    n = abs(x).bit_length() // B + 1
    half = 1 << (B - 1)
    offset = int.from_bytes(half.to_bytes(w, "little") * n, "little")
    data = (x + offset).to_bytes(n * w, "little")
    return [int.from_bytes(data[i:i + w], "little") - half for i in range(0, n * w, w)]


def _expand_factors(factors: dict[int, int]) -> list[int]:
    """Coefficients of prod (q**a - 1)**mult, all mult >= 0.  The 1-norm
    of q**a - 1 is 2, so no coefficient reaches 2**sum(mult)."""
    B = _slot_bits(sum(factors.values()))
    return _unpack(_mul_packed(1, factors, B), B)


def _binomial_steps(cs: Sequence[int], powers: dict[int, int]) -> list[int]:
    """cs * prod (q**d - 1)**powers[d], powers of either sign; raises
    ExactDivisionError when that is no polynomial.  The positive powers
    multiply first, a shift and a subtraction each; then each k < 0 takes
    -k ``_peel``s of the classes cs[c::d], divisions by y - 1, y = q**d,
    each of which negates the quotient."""
    cs = list(cs)
    for d, k in powers.items():
        for _ in range(k):
            cs = list(map(operator.sub, [0] * d + cs, cs + [0] * d))
    for d, k in powers.items():
        if k < 0:
            classes = [cs[c::d] for c in range(d)]
            for _ in range(-k):
                classes, rem = _peel(classes)
                if any(rem):
                    raise ExactDivisionError(f"q**{d} - 1 does not divide")
            cs = [0] * (len(cs) + d * k)
            for c, x in enumerate(classes):
                cs[c::d] = x if k % 2 == 0 else [-y for y in x]
    return cs


# ---------------------------------------------------------------------------
# Factored fractions


def _phi_exponents(factors: dict[int, int]) -> dict[int, int]:
    """The exponent of each Phi_d in prod (q**a - 1)**mult: Phi_d divides
    q**a - 1 exactly once when d | a."""
    out: dict[int, int] = {}
    for a, mult in factors.items():
        for d in divisors(a):
            out[d] = out.get(d, 0) + mult
    return out


def _binomial_exponents(phi: dict[int, int]) -> dict[int, int]:
    """The k with prod (q**d - 1)**k[d] = prod Phi_c**phi[c], inverting
    ``_phi_exponents``: phi[c] is the sum of k[a] over the multiples a of c,
    so k follows from the largest index down, over the divisors of phi's."""
    k: dict[int, int] = {}
    for c in sorted({d for c in phi for d in divisors(c)}, reverse=True):
        k[c] = phi.get(c, 0) - sum(v for a, v in k.items() if a % c == 0)
    return {d: v for d, v in k.items() if v}


class FactoredFraction:
    """num / (q**qshift * prod (q**a - 1)**mult), with every a, mult >= 1.

    The numerator is expanded and the denominator is kept as its factor
    map, unreduced.  Phi_m divides q**a - 1 exactly once when m | a, and
    never divides q, so the denominator's Phi_m multiplicity is the sum of
    mult over the a that m divides; the valuation at m needs only the
    numerator's, which ``_poly_phi_valuation`` counts.

    ``floor`` maps d to a proven lower bound on the numerator's Phi_d
    multiplicity (an index it leaves out has bound 0).  It is trusted,
    never checked, so ``qsum`` is the one caller of the constructor in
    the package.  ``qsum`` takes it from its terms: a term
    sign * q**s * prod (q**a - 1)**e[a] holds Phi_d exactly
    sum_{d | a} e[a] times, because Phi_d divides q**a - 1 exactly once
    when d | a; and the valuation of a sum is at least the least valuation
    of its terms.  The floor at m also bounds the numerator's count of
    whole q**m - 1 factors, where that count starts.  q**m - 1 is the
    product of the Phi_d, d | m, each once, so the least floor over d | m
    bounds the count.  Every (q**a - 1) that Phi_m divides is also divided
    by each Phi_d, d | m, so each term's Phi_d count is at least its Phi_m
    count, and the least of them over the terms keeps that order: the
    floor never falls from d to a multiple of d, and the least floor over
    d | m is the floor at m.

    ``qsum`` is the one place that puts terms over a common factored
    denominator; a fraction has no arithmetic of its own.  ``to_ratfunc``
    reduces to the canonical RatFunc by the same counts: it cancels each
    Phi_c as often as both numerator and denominator hold it, by binomial
    steps.  ``==`` and arithmetic with a RatFunc go through it.
    """

    __slots__ = ("num", "factors", "qshift", "_floor")

    def __init__(self, num: Poly, factors: dict[int, int], qshift: int,
                 floor: dict[int, int]):
        self.num = num
        self.factors = factors
        self.qshift = qshift
        self._floor = floor

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def den_multiplicity(self, m: int) -> int:
        """Exponent of Phi_m in the (unreduced) denominator."""
        return sum(mult for a, mult in self.factors.items() if a % m == 0)

    def valuation(self, m: int) -> Valuation:
        """Exponent of Phi_m in the value; INFINITE for zero."""
        if self.num.is_zero:
            return INFINITE
        return (_poly_phi_valuation(self.num, m, self._floor.get(m, 0))
                - self.den_multiplicity(m))

    def to_ratfunc(self) -> RatFunc:
        """The canonical RatFunc.  The denominator holds Phi_c e_c times;
        v_c is the lesser of e_c and the numerator's count (e_c outright when
        the floor proves that much).  prod Phi_c**v_c = prod (q**d - 1)**k_d,
        so binomial steps divide the numerator by it and build the reduced
        denominator, monic and coprime to it; then q's common power goes."""
        if self.num.is_zero:
            return RATFUNC_ZERO
        shared = {}
        for c, e in _phi_exponents(self.factors).items():
            floor = self._floor.get(c, 0)
            shared[c] = e if floor >= e else min(e, _poly_phi_valuation(self.num, c, floor))
        k = _binomial_exponents(shared)
        num = Poly(_binomial_steps(self.num.coeffs, {d: -v for d, v in k.items()}))
        den = Poly(_binomial_steps([1], {d: self.factors.get(d, 0) - k.get(d, 0)
                                         for d in self.factors.keys() | k.keys()}))
        qstrip = min(num.split_monomial()[0], self.qshift)
        return RatFunc._from_canonical(Poly(num.coeffs[qstrip:]),
                                       den.shifted(self.qshift - qstrip))

    def evaluate(self, t) -> Fraction:
        """Exact value at q = t; raises ZeroDivisionError on a pole."""
        return self.to_ratfunc().evaluate(t)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FactoredFraction, RatFunc, Poly, int)):
            return self.to_ratfunc() == _as_ratfunc(other)
        return NotImplemented

    def __repr__(self) -> str:
        parts = [f"q^{self.qshift}"] if self.qshift else []
        parts += [f"(q^{a} - 1)^{m}" for a, m in sorted(self.factors.items())]
        den = " * ".join(parts)
        return f"FactoredFraction({self.num!r} / ({den or 1}))"


# Miller-Rabin to the first twelve primes proves primality below psi_12, the least strong
# pseudoprime to them all, 399165290221 * 798330580441 (Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n below ``_MR_LIMIT``; raises ValueError
    above it, where the bases prove nothing."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided: bases 2..37 prove it "
                         f"only below psi_12 = {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational_p_valuation(x: Union[Fraction, int], p: int) -> Valuation:
    """Standard p-adic valuation of an exact rational (an int or a
    Fraction: both have a numerator and a denominator); INFINITE for x = 0."""
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if x == 0:
        return INFINITE

    def vp(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vp(x.numerator) - vp(x.denominator)


class ValuationReport(namedtuple("ValuationReport", "achieved")):
    """The achieved cyclotomic valuations of one congruence check, keyed by
    cyclotomic index; what they must meet is the check's modulus."""

    __slots__ = ()
