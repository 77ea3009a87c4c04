"""Exact coefficient fields, optionally carrying a rank-1 valuation.

Five kinds are supported:

  * PrimeField(p)                       -- F_p
  * GaloisField(p, modulus, symbol)     -- F_{p^m}, m <= 4, presented by an
                                           explicit irreducible polynomial
  * RationalField()                     -- Q, no valuation
  * RationalField(padic=p)              -- Q with the p-adic valuation
  * FunctionField(p, r, symbol)         -- F_p(x) with the valuation in which
                                           |x| = r for a base constant
                                           r in Q, 0 < r < 1

Valued kinds expose lognorm(a) on the additive log scale of lognorm.py with
lognorm(a) = -v(a) in standard additive-valuation notation: elements of the
valuation ring have lognorm <= 0 and lognorm(x) = -1 in the function field.

For the function field the valuation is the order of vanishing at x = 0, the
unique rank-1 valuation with |x| = r < 1 on F_p[x]; on the monomials x^k it
takes the value r^k.  On that scale one log-unit corresponds to one factor
of 1/r, so lognorm(x^-k) = +k grows without bound.

Every kind answers one cleared(elements): a common denominator d (1 over F_p
and F_{p^m}, the lcm over Q, the monic lcm over F_p(x)) and the raw numerator
of every d*a.  Monic products and characteristic polynomials work on these,
in the ring numerators() describes, and divide by d once.

All elements are immutable values; every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import IncompatibleFieldError, UnsupportedOperationError
from .lognorm import LogNorm, MINUS_INF


# ---------------------------------------------------------------------------
# dense univariate arithmetic over F_p (coefficient tuples, ascending degree)

def _utrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _uadd(a, b, p):
    n = max(len(a), len(b))
    return _utrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _uneg(a, p):
    return tuple((-c) % p for c in a)


def _umul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _utrim(out)


def _udivmod(a, b, p, quotient=True):
    """Quotient and remainder of a by b over F_p, or the remainder alone if
    not quotient; b must be trimmed and nonzero."""
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    binv = pow(b[-1], p - 2, p)
    rem, nb, quo = list(_utrim(a)), len(b) - 1, []
    # each step pops the leading coefficient and cancels it below; the
    # first factor is nonzero, so the quotient comes out trimmed
    while len(rem) > nb:
        factor = (rem.pop() * binv) % p
        if quotient:
            quo.append(factor)
        if factor:
            shift = len(rem) - nb
            for i in range(nb):
                rem[shift + i] = (rem[shift + i] - factor * b[i]) % p
    return (tuple(quo[::-1]), _utrim(rem)) if quotient else _utrim(rem)


def _ugcd(a, b, p):
    while b:
        a, b = b, _udivmod(a, b, p, quotient=False)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _uord(a):
    """Order of vanishing at 0 (index of the lowest nonzero coefficient)."""
    for i, c in enumerate(a):
        if c != 0:
            return i
    raise ValueError("zero polynomial has no vanishing order")


def _needs_parens(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and i > 0 and ch in "+-":
            return True
    return False


def _joined(part):
    """A term's text as it follows another: ' + ', or its leading '-' folded
    into ' - '."""
    return " - " + part[1:] if part.startswith("-") else " + " + part


def _join_signed(parts):
    """Terms joined by ' + ', a leading '-' folded into ' - '; "0" if none."""
    if not parts:
        return "0"
    return parts[0] + "".join(map(_joined, parts[1:]))


def _head(c, monomial):
    """A term's text before its monomial, for a coefficient printed as c:
    c, parenthesised when compound, and '*' when a monomial follows, where
    the coefficients 1 and -1 print as '' and '-'."""
    if not monomial:
        return "(%s)" % c if _needs_parens(c) else c
    if c == "1" or c == "-1":
        return c[:-1]
    return ("(%s)*" if _needs_parens(c) else "%s*") % c


def _ustr(a, symbol):
    """Canonical string, descending degree, e.g. 'x^2 + 2*x + 1'.  Every
    coefficient is a residue in 1..p-1, so no term takes a sign."""
    return " + ".join(
        str(c) if d == 0 else
        ("" if c == 1 else "%d*" % c) + (symbol if d == 1 else "%s^%d" % (symbol, d))
        for d, c in reversed(list(enumerate(a))) if c) or "0"


def _is_irreducible(coeffs, p):
    """Rabin's irreducibility test over F_p (SIAM J. Comput. 1980).

    coeffs is ascending with a nonzero leading coefficient.  f of degree m is
    irreducible iff f divides x^(p^m) - x and gcd(x^(p^(m/r)) - x, f) = 1 for
    every prime r dividing m.
    """
    m = len(coeffs) - 1
    if m < 1:
        return False

    def mulmod(a, b):
        return _udivmod(_umul(a, b, p), coeffs, p, quotient=False)

    x = _udivmod((0, 1), coeffs, p, quotient=False)
    # frobenius[k] = x^(p^k) mod f
    frobenius = [x]
    for _ in range(m):
        frobenius.append(power(frobenius[-1], p, None, mulmod))
    minus_x = _uneg(x, p)
    if _uadd(frobenius[m], minus_x, p):
        return False
    for r in range(2, m + 1):
        if m % r == 0 and _is_prime(r):
            if len(_ugcd(coeffs, _uadd(frobenius[m // r], minus_x, p), p)) > 1:
                return False
    return True


# The least strong pseudoprime to all prime bases up to 41 (Sorenson and
# Webster, Math. Comp. 2017): below it Miller-Rabin with these bases is exact.
# Bases up to 37 alone are exact only below 3.2e23.
PRIME_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Deterministic Miller-Rabin; an n that is not an int (bools and floats
    included) or at or above PRIME_BOUND raises ValueError."""
    if type(n) is not int:
        raise ValueError("characteristic %r is not an integer" % (n,))
    if n >= PRIME_BOUND:
        raise ValueError("%d is at or above the primality bound %d"
                         % (n, PRIME_BOUND))
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
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


def power(x, k, one, mul=operator.mul):
    """x^k by square-and-multiply for an integer k >= 0.

    one() builds the unit and is called only for k = 0 (callers with k > 0
    may pass None); mul(a, b) multiplies.  The loop starts from x and squares
    no further than the top bit of k.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("powers take non-negative integer exponents")
    if k == 0:
        return one()
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    out = x
    k >>= 1
    while k:
        x = mul(x, x)
        if k & 1:
            out = mul(out, x)
        k >>= 1
    return out


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of one of the supported fields; arithmetic delegates to it."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _check(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise IncompatibleFieldError(
                "mixed coefficient fields: %s vs %s" % (self.field, other.field))
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        return power(self, k, self.field.one)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, self.field._inv(self.value))

    def is_zero(self):
        return self.value == self.field._zero.value

    def is_one(self):
        return self.value == self.field._one.value

    def sort_key(self):
        return self.field._sort_key(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field._format(self.value)

    def __repr__(self):
        return "<%s in %s>" % (self, self.field)


class Field:
    """Common surface of the supported exact coefficient fields; two are
    equal when their classes and the _key tuples their __init__ sets agree."""

    kind = None
    characteristic = 0
    has_valuation = False

    def __init__(self):
        # Elements are immutable, so the constants are built once per field;
        # subclasses call this last, once coerce has what it needs.
        self._zero = self.coerce(0)
        self._one = self.coerce(1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def coerce(self, v):
        raise NotImplementedError

    def __call__(self, v):
        return self.coerce(v)

    def lognorm(self, element):
        """The log-norm of element: its integer _order, -inf for zero."""
        if not self.has_valuation:
            raise UnsupportedOperationError("field %s carries no valuation" % self)
        v = self._order(element.value)
        return MINUS_INF if v is None else LogNorm(v)

    def is_finite(self):
        return False

    def elements(self):
        raise UnsupportedOperationError("field %s is not finite" % self)

    def size(self):
        raise UnsupportedOperationError("field %s is not finite" % self)

    def random_element(self, rng):
        raise NotImplementedError

    def symbol_constant(self, name):
        """Resolve an identifier to a field constant, or None."""
        return None

    def cleared(self, elements):
        """(d, numerators): a common denominator d of the elements and the
        raw numerator of every d*a, both in the ring numerators() describes.
        Here d = 1 and the numerators are the raw values; Q and F_p(x) clear
        their denominators."""
        return self._one.value, [a.value for a in elements]

    def numerators(self):
        """(zero, one, add, mul, neg, over) of the ring cleared() clears
        into: its zero and one, its sum, product and negation, and
        over(n, d), the element n / d for a product d of the denominators
        cleared() returns."""
        return (self._zero.value, self._one.value, self._add, self._mul, self._neg,
                lambda n, d: FieldElement(self, n))

    def unscaler(self, d):
        """(c, j) -> c / d^j for a nonzero d, each d^-j taken once."""
        inverse, powers = d.inverse(), {}

        def unscale(c, j):
            if j not in powers:
                powers[j] = inverse ** j
            return c * powers[j]
        return unscale

    def _format(self, value):
        raise NotImplementedError

    def _sort_key(self, value):
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other._key == self._key

    def __hash__(self):
        return hash((self.kind,) + self._key)


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self._key = (p,)
        super().__init__()

    def coerce(self, v):
        if isinstance(v, int):
            return FieldElement(self, v % self.p)
        if isinstance(v, FieldElement):
            if v.field != self:
                raise IncompatibleFieldError("cannot coerce from %s" % v.field)
            return v
        raise TypeError("cannot coerce %r into %s" % (v, self))

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def is_finite(self):
        return True

    def size(self):
        return self.p

    def elements(self):
        return [FieldElement(self, i) for i in range(self.p)]

    def random_element(self, rng):
        return FieldElement(self, rng.randrange(self.p))

    def _format(self, value):
        return str(value)

    def _sort_key(self, value):
        return (value,)

    def __repr__(self):
        return "F_%d" % self.p


class GaloisField(Field):
    """F_{p^m} presented by an explicit irreducible monic polynomial.

    The modulus is given by its coefficient tuple in ascending degree,
    including the leading 1; irreducibility is verified at construction by
    Rabin's test.  The degree is capped at m <= 4.  Element values are
    the trimmed ascending coefficient tuples of their reduced representatives
    in s = `symbol`, zero being (), the form of the _u* helpers above.
    """

    kind = "galois"
    MAX_DEGREE = 4

    def __init__(self, p, modulus, symbol="t"):
        if not _is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        modulus = _utrim(tuple(c % p for c in modulus))
        m = len(modulus) - 1
        if m < 2:
            raise ValueError("extension degree must be at least 2; use PrimeField")
        if m > self.MAX_DEGREE:
            raise ValueError("extension degree %d exceeds the supported cap %d"
                             % (m, self.MAX_DEGREE))
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus %s is reducible over F_%d"
                             % (_ustr(modulus, symbol), p))
        self.p = p
        self.characteristic = p
        self.modulus = modulus
        self.degree = m
        self.symbol = symbol
        self._key = (p, modulus, symbol)
        super().__init__()

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field == self:
                return v
            if isinstance(v.field, PrimeField) and v.field.p == self.p:
                return FieldElement(self, _utrim((v.value,)))
            raise IncompatibleFieldError("cannot coerce from %s" % v.field)
        if isinstance(v, int):
            return FieldElement(self, _utrim((v % self.p,)))
        if isinstance(v, (tuple, list)):
            if len(v) != self.degree:
                raise ValueError("coordinate vector must have length %d" % self.degree)
            return FieldElement(self, _utrim(c % self.p for c in v))
        raise TypeError("cannot coerce %r into %s" % (v, self))

    def generator(self):
        return FieldElement(self, (0, 1))

    def _add(self, a, b):
        return _uadd(a, b, self.p)

    def _neg(self, a):
        return _uneg(a, self.p)

    def _mul(self, a, b):
        return _udivmod(_umul(a, b, self.p), self.modulus, self.p, quotient=False)

    def _inv(self, a):
        # a^(q-2) = a^-1 in the multiplicative group of order q - 1
        return power(a, self.p ** self.degree - 2, None, self._mul)

    def is_finite(self):
        return True

    def size(self):
        return self.p ** self.degree

    def elements(self):
        # coordinate 0 varies fastest
        return [FieldElement(self, _utrim(coords[::-1]))
                for coords in itertools.product(range(self.p), repeat=self.degree)]

    def random_element(self, rng):
        return FieldElement(self, _utrim(rng.randrange(self.p) for _ in range(self.degree)))

    def symbol_constant(self, name):
        if name == self.symbol:
            return self.generator()
        return None

    def _format(self, value):
        return _ustr(value, self.symbol)

    def _sort_key(self, value):
        # lexicographic order on trimmed tuples is the order on their
        # zero-padded coordinate vectors: 0 is the least coordinate
        return value

    def __repr__(self):
        return "F_%d[%s]/(%s)" % (self.p, self.symbol, _ustr(self.modulus, self.symbol))


class RationalField(Field):
    """Q, optionally valued p-adically: lognorm(a) = -v_p(a)."""

    kind = "rationals"

    def __init__(self, padic=None):
        if padic is not None and not _is_prime(padic):
            raise ValueError("p-adic valuation needs a prime, got %r" % (padic,))
        self.padic = padic
        self.has_valuation = padic is not None
        self._key = (padic,)
        super().__init__()

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise IncompatibleFieldError("cannot coerce from %s" % v.field)
            return v
        if isinstance(v, (int, Fraction)):
            return FieldElement(self, Fraction(v))
        raise TypeError("cannot coerce %r into %s" % (v, self))

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _order(self, a):
        """-v_p(a) for a raw value a of the p-adic kind; None for zero."""
        if not a:
            return None
        p, v = self.padic, 0
        num, den = a.numerator, a.denominator
        while num % p == 0:
            num //= p
            v -= 1
        while den % p == 0:
            den //= p
            v += 1
        return v

    def cleared(self, elements):
        """d, the lcm of the denominators, and the integers d*a."""
        d = math.lcm(*(a.value.denominator for a in elements))
        return d, [a.value.numerator * (d // a.value.denominator) for a in elements]

    def numerators(self):
        return (0, 1, operator.add, operator.mul, operator.neg,
                lambda n, d: FieldElement(self, Fraction(n, d)))

    # the numerators are ints, whose -v_p _order reads as it reads a Fraction
    _numerator_order = _order

    def random_element(self, rng):
        return FieldElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def _format(self, value):
        return str(value)

    def _sort_key(self, value):
        return (value.numerator, value.denominator)

    def __repr__(self):
        return "Q" if self.padic is None else "Q(%d-adic)" % self.padic


class _RatFunc:
    # internal canonical value of FunctionField elements: (num, den) coefficient
    # tuples over F_p, den monic, gcd(num, den) = 1, zero = ((), (1,))
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (isinstance(other, _RatFunc)
                and other.num == self.num and other.den == self.den)

    def __hash__(self):
        return hash((self.num, self.den))


class FunctionField(Field):
    """F_p(x), valued by the order of vanishing at x = 0.

    The valuation is normalised so that |x| = r for the base constant
    r in Q with 0 < r < 1; on the additive log scale used everywhere this
    reads lognorm(x) = -1 and lognorm(x^-k) = +k.  The constant r itself
    only fixes the multiplicative scale and takes no part in arithmetic.
    """

    kind = "function"
    has_valuation = True

    def __init__(self, p, r=Fraction(1, 2), symbol="x"):
        if not _is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        r = Fraction(r)
        if not (0 < r < 1):
            raise ValueError("base constant r must satisfy 0 < r < 1")
        self.p = p
        self.characteristic = p
        self.r = r
        self.symbol = symbol
        self._key = (p, r, symbol)
        super().__init__()

    def _make(self, num, den):
        # num and den are coefficient tuples already reduced mod p
        p = self.p
        num, den = _utrim(num), _utrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return FieldElement(self, _RatFunc((), (1,)))
        if den == (1,):
            # already a polynomial: the gcd is 1 and the denominator monic
            return FieldElement(self, _RatFunc(num, den))
        g = _ugcd(num, den, p)
        if len(g) > 1:
            num, _ = _udivmod(num, g, p)
            den, _ = _udivmod(den, g, p)
        lead = pow(den[-1], p - 2, p)
        num = tuple((c * lead) % p for c in num)
        den = tuple((c * lead) % p for c in den)
        return FieldElement(self, _RatFunc(num, den))

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise IncompatibleFieldError("cannot coerce from %s" % v.field)
            return v
        if isinstance(v, int):
            return self._make((v % self.p,), (1,))
        raise TypeError("cannot coerce %r into %s" % (v, self))

    def variable(self):
        return self._make((0, 1), (1,))

    # Polynomials (denominator 1) add and multiply to polynomials, already
    # canonical: _uadd and _umul trim, so a cancelled sum is ((), (1,)).

    def _add(self, a, b):
        p = self.p
        if a.den == b.den == (1,):
            return _RatFunc(_uadd(a.num, b.num, p), (1,))
        num = _uadd(_umul(a.num, b.den, p), _umul(b.num, a.den, p), p)
        return self._make(num, _umul(a.den, b.den, p)).value

    def _neg(self, a):
        return _RatFunc(_uneg(a.num, self.p), a.den)

    def _mul(self, a, b):
        p = self.p
        if a.den == b.den == (1,):
            return _RatFunc(_umul(a.num, b.num, p), (1,))
        return self._make(_umul(a.num, b.num, p), _umul(a.den, b.den, p)).value

    def cleared(self, elements):
        """d, the monic lcm of the denominators, and the numerators of every
        d*a as coefficient tuples, scaled with one exact division of d per
        distinct denominator and no gcd."""
        p, d = self.p, (1,)
        denominators = {a.value.den for a in elements}
        for den in denominators:
            d = _umul(d, _udivmod(den, _ugcd(d, den, p), p)[0], p)
        if d == (1,):
            return d, [a.value.num for a in elements]
        quotients = {den: _udivmod(d, den, p)[0] for den in denominators}
        return d, [_umul(a.value.num, quotients[a.value.den], p) for a in elements]

    def numerators(self):
        p = self.p
        return ((), (1,), lambda a, b: _uadd(a, b, p), lambda a, b: _umul(a, b, p),
                lambda a: _uneg(a, p), self._make)

    def _numerator_order(self, a):
        """lognorm of a numerator a, an F_p[x] tuple, -ord_x(a); None for zero."""
        return -_uord(a) if a else None

    def unscaler(self, d):
        """(c, j) -> c / d^j for a monic polynomial d and polynomials c.

        For d = x^v that is a shift: k = min(ord c, j*v) factors x leave the
        numerator and x^(j*v - k), coprime to what is left, is the
        denominator, so no gcd runs.  Any other d takes Field.unscaler.
        """
        v = _uord(d.value.num)
        if d.value.num[v:] != (1,):
            return super().unscaler(d)

        def unscale(c, j):
            num = c.value.num
            if not num:
                return c
            k = min(_uord(num), j * v)
            return FieldElement(self, _RatFunc(num[k:], (0,) * (j * v - k) + (1,)))
        return unscale

    def _inv(self, a):
        return self._make(a.den, a.num).value

    def _order(self, a):
        """lognorm of a raw value a, ord(den) - ord(num); None for zero."""
        return _uord(a.den) - _uord(a.num) if a.num else None

    def random_element(self, rng):
        num = tuple(rng.randrange(self.p) for _ in range(rng.randint(1, 3)))
        den = ()
        while not den:
            den = _utrim(tuple(rng.randrange(self.p) for _ in range(rng.randint(1, 3))))
        return self._make(num, den)

    def symbol_constant(self, name):
        if name == self.symbol:
            return self.variable()
        return None

    def _format(self, value):
        num = _ustr(value.num, self.symbol)
        if value.den == (1,):
            return num
        return "(%s)/(%s)" % (num, _ustr(value.den, self.symbol))

    def _sort_key(self, value):
        return (value.num, value.den)

    def __repr__(self):
        return "F_%d(%s)" % (self.p, self.symbol)


# ---------------------------------------------------------------------------
# canonical embeddings between fields


def canonical_embedding(src, dst):
    """The canonical coefficient embedding src -> dst.

    Raises IncompatibleFieldError when there is none, and when a valued
    source would embed with a different valuation normalisation.
    """
    if src == dst:
        return lambda a: a
    if isinstance(src, PrimeField):
        if isinstance(dst, GaloisField) and dst.p == src.p:
            return lambda a: dst.coerce(a)
    if isinstance(src, RationalField) and isinstance(dst, RationalField):
        if src.padic is None:
            return lambda a: dst.coerce(a.value)
        raise IncompatibleFieldError(
            "incompatible valuation normalizations: %s into %s" % (src, dst))
    if isinstance(src, FunctionField) and isinstance(dst, FunctionField):
        raise IncompatibleFieldError(
            "incompatible valuation normalizations: %s into %s" % (src, dst))
    raise IncompatibleFieldError("no canonical embedding %s -> %s" % (src, dst))
