"""Sparse multivariate polynomials over an exact coefficient domain.

A Poly stores an ordered variable list and a map from exponent vectors to
nonzero coefficients.  The coefficient domain is either one of the fields of
fields.py or a finite free algebra over one of them; coefficients only need
exact ring arithmetic, equality and hashing.  Arithmetic between polynomials
with different variable lists merges the lists by name, so generators written
over partial variable sets compose freely.

Canonical text form: terms sorted graded-lexicographically (total degree
first, then the exponent vector), largest first, e.g.

    u_1^2 - u_2^2 - 2
    (t + 1)*u^2 + 2*u*v + x

Compound coefficients are parenthesised; the same grammar is accepted back
by parse_poly.  render is the one renderer: Poly.to_string and
canonical_string render one polynomial, a record renders all of its
polynomials in one call, and the memo that formats each distinct
coefficient once lives for that call only.
"""

from __future__ import annotations

import re
from itertools import chain, compress, repeat, takewhile
from math import comb
from operator import add, and_, lshift, mul, neg, rshift

from .errors import (EnumerationBoundError, IncompatibleFieldError,
                     UnsupportedOperationError)
from .fields import (Field, FieldElement, FunctionField, PrimeField,
                     RationalField, _RatFunc, _head, _joined, power)
from .linalg import berkowitz
from .lognorm import lognorm_max


class Poly:
    __slots__ = ("domain", "variables", "terms")

    def __init__(self, domain, variables, terms, *, clean=False):
        """terms maps exponent vectors to coefficients; zeros are dropped.

        With clean=True the caller vouches that every key is a tuple of the
        right length and every coefficient nonzero, as the ring operations
        below know of the maps they build, and the map is kept unchecked.
        """
        self.domain = domain
        self.variables = tuple(variables)
        if not clean:
            n = len(self.variables)
            if any(len(exps) != n for exps in terms):
                raise ValueError("exponent vector length mismatch")
            terms = {tuple(exps): coeff for exps, coeff in terms.items()
                     if not coeff.is_zero()}
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, variables=()):
        return cls(domain, variables, {})

    @classmethod
    def constant(cls, domain, c, variables=()):
        c = domain.coerce(c)
        variables = tuple(variables)
        return cls(domain, variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, domain, name):
        return cls(domain, (name,), {(1,): domain.one()})

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.domain.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def dense_coefficients(self):
        """[c_0, ..., c_d] of a univariate polynomial of degree d, zeros
        included; [] for zero.  ValueError unless there is one variable."""
        if len(self.variables) != 1:
            raise ValueError("dense coefficients need a univariate polynomial")
        coeffs = [self.domain.zero()] * (self.total_degree() + 1)
        for (e,), c in self.terms.items():
            coeffs[e] = c
        return coeffs

    def support(self):
        """Names of the variables that actually occur."""
        used = set()
        for exps in self.terms:
            for v, e in zip(self.variables, exps):
                if e:
                    used.add(v)
        return used

    def with_variables(self, variables):
        """The same polynomial over a larger (or reordered) variable list."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        missing = self.support() - set(variables)
        if missing:
            raise ValueError("variables %s cannot be dropped" % sorted(missing))
        pos = {v: i for i, v in enumerate(variables)}
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(variables)
            for v, e in zip(self.variables, exps):
                if e:
                    new[pos[v]] = e
            key = tuple(new)
            terms[key] = terms[key] + coeff if key in terms else coeff
        # terms collide, and their sum may vanish, only under a repeated name
        return Poly(self.domain, variables, terms,
                    clean=len(terms) == len(self.terms))

    def _merged(self, other):
        _check_domains(self.domain, other.domain)
        if self.variables == other.variables:
            return self.variables, self, other
        merged = _first_seen((self.variables, other.variables))
        return merged, self.with_variables(merged), other.with_variables(merged)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.domain, other, self.variables)
        variables, a, b = self._merged(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            if exps in terms:
                total = terms[exps] + coeff
                if total.is_zero():
                    del terms[exps]
                else:
                    terms[exps] = total
            else:
                terms[exps] = coeff
        return Poly(self.domain, variables, terms, clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.domain, self.variables,
                    {exps: -c for exps, c in self.terms.items()}, clean=True)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.domain, other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            try:
                return self.scale(other)
            except TypeError:
                return NotImplemented
        variables, a, b = self._merged(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                prod = c1 * c2
                terms[key] = terms[key] + prod if key in terms else prod
        return Poly(self.domain, variables, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.domain.coerce(c)
        # a field has no zero divisors: nonzero times nonzero stays nonzero
        return Poly(self.domain, self.variables,
                    {exps: coeff * c for exps, coeff in self.terms.items()},
                    clean=isinstance(c, FieldElement) and not c.is_zero())

    def __pow__(self, k):
        return power(self, k, lambda: Poly.constant(
            self.domain, self.domain.one(), self.variables))

    def map_coefficients(self, domain, f):
        """The polynomial over `domain` with f applied to every coefficient."""
        return Poly(domain, self.variables,
                    {exps: f(c) for exps, c in self.terms.items()})

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings):
        """Simultaneous substitution of polynomials for variables.

        Bound names not occurring in the polynomial are ignored; unbound
        variables stay in place.
        """
        acc = Poly.zero(self.domain)
        for exps, coeff in self.terms.items():
            term = Poly.constant(self.domain, coeff)
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                factor = bindings.get(v)
                if factor is None:
                    factor = Poly.variable(self.domain, v)
                term = term * factor ** e
            acc = acc + term
        return acc

    def evaluate(self, assignment):
        """Value at a full point; every occurring variable must be assigned."""
        total = self.domain.zero()
        for exps, coeff in self.terms.items():
            val = coeff
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if v not in assignment:
                    raise ValueError("no value for variable %r" % v)
                val = val * assignment[v] ** e
            total = total + val
        return total

    # -- canonical form -----------------------------------------------------

    def canonical_key(self):
        items = []
        for exps, coeff in self.terms.items():
            mono = frozenset((v, e) for v, e in zip(self.variables, exps) if e)
            items.append((mono, coeff))
        return (self.domain, frozenset(items))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not (self.terms and other.terms):  # a zero equals the zeros alone
            return not (self.terms or other.terms) and self.domain == other.domain
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def to_string(self, order=None):
        return render([self], order)[0]

    def canonical_string(self):
        return self.to_string(order=sorted(self.support()))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "Poly(%s)" % self


def render(polys, order=None):
    """The canonical text of each polynomial, over `order` if given, else
    over its own variables.  Terms run down (total degree, exponents); each
    monomial is named from its nonzero exponents, and each distinct
    coefficient is formatted once per call, as its head joined after
    another term, sign folded in.  The heads are memoized by domain,
    constant-term flag and raw value, for this call only; the first term of
    a polynomial drops its join."""
    heads, texts = {}, []
    order = tuple(order) if order is not None else None
    for f in polys:
        if order is not None:
            f = f.with_variables(order)
        variables, terms = f.variables, f.terms
        if not terms:
            texts.append("0")
            continue
        memo = heads.setdefault((f.domain, False), {})
        parts = []
        for degree, exps in sorted(zip(map(sum, terms), terms), reverse=True):
            c = terms[exps]
            # a field element's raw value; an algebra element keys itself
            key = c.value if c.__class__ is FieldElement else c
            if not degree:  # the last term
                memo = heads.setdefault((f.domain, True), {})
            head = memo.get(key)
            if head is None:
                head = memo[key] = _joined(_head(str(c), degree))
            parts.append(head)
            if degree:
                parts.append("*".join([v if e == 1 else "%s^%d" % (v, e) for v, e
                                       in compress(zip(variables, exps), exps)]))
        head = parts[0]
        parts[0] = head[3:] if head[1] == "+" else "-" + head[3:]
        texts.append("".join(parts))
    return texts


def _check_domains(d1, d2):
    if d1 is not d2 and d1 != d2:
        raise IncompatibleFieldError("mixed coefficient domains: %s vs %s" % (d1, d2))


def _first_seen(lists):
    """The names of the lists in order of first occurrence."""
    return tuple(dict.fromkeys(chain.from_iterable(lists)))


# ---------------------------------------------------------------------------
# The packed kernel over F_p and F_p(x).
#
# Polynomials whose coefficients all lie in one F_p, or are all polynomials
# in x (denominator 1) over one F_p(x): the form of every entry Berkowitz
# meets once charpoly has cleared denominators.  An exponent vector is
# packed into one int with a field of `width` bits per variable (Monagan and
# Pearce, CASC 2007), so a monomial product is one int addition.  A
# numerator c_0 + c_1 x + ... with 0 <= c_i < p is packed into the int
# sum c_i 256^(i*size), a slot of `size` bytes per coefficient (Kronecker
# substitution; Harvey, J. Symb. Comput. 2009), so a coefficient product is
# one int multiplication; an F_p value c is the numerator (c,).  A
# polynomial is keyed once, into a _Keyed: its numerators in canonical
# slots, the fewest whole bytes that hold p - 1 (one byte for p < 257), and
# re-strided into wider slots only when a product needs them, once per
# width.  The raw products are summed per packed monomial and reduced mod p
# once, straight back into canonical slots, so a value stays keyed from one
# product to the next.  Nothing carries across a field or a slot: no
# exponent of a product exceeds the total degrees of its factors added,
# below 2^width, and a product a * b puts at most min(|a|, |b|) term
# products on one monomial, each adding at most (shorter numerator length)
# * (p - 1)^2 to a slot, so a sum stays below 256^size.
#
# charpoly keys its entries (_setup, _key), runs linalg's Berkowitz loop on
# them with its keyed dot, a sum of products reduced once (_accumulate,
# _reduced), and lets only its results leave the kernel (_to_polys).

_POLYNOMIAL = (1,)
_KERNEL_FIELDS = (PrimeField, FunctionField)


class _Keyed:
    """A polynomial in the kernel: its terms as (packed exponent vector,
    numerator packed in canonical slots of `size` bytes), the most slots a
    numerator has, and its variable list; `strided` holds its terms at
    every slot size asked for so far."""

    __slots__ = ("terms", "length", "order", "size", "strided")

    def __init__(self, terms, length, order, size):
        self.terms = terms
        self.length = length
        self.order = order
        self.size = size
        self.strided = {size: terms}

    def at(self, wider):
        """The terms with numerators in slots of `wider` bytes; a numerator
        of one slot is the same int in any slot."""
        terms = self.strided.get(wider)
        if terms is None:
            terms, length, size = self.terms, self.length, self.size
            if length > 1:
                terms = []
                for key, v in self.terms:
                    raw = v.to_bytes(length * size, "little")
                    spread = bytearray(length * wider)
                    for b in range(size):
                        spread[b::wider] = raw[b::size]
                    terms.append((key, int.from_bytes(spread, "little")))
            self.strided[wider] = terms
        return terms


def _setup(polys, domain, factor):
    """(width, union, position, unit) for keying polys, whose products in
    the kernel have no exponent above `factor` times their largest total
    degree: the bits of an exponent field, the union of the variable lists,
    each name's offset and the bytes of a canonical slot.  None unless every
    coefficient lies in one F_p or is a polynomial in x over one F_p(x); a
    polynomial over another domain raises first."""
    if type(domain) not in _KERNEL_FIELDS:
        return None
    for f in polys:
        _check_domains(domain, f.domain)
    if type(domain) is FunctionField and any(
            c.value.den != _POLYNOMIAL for f in polys for c in f.terms.values()):
        return None
    degree = max((f.total_degree() for f in polys), default=0)
    width = max(factor * degree, 1).bit_length()
    union = _first_seen(dict.fromkeys(f.variables for f in polys))
    return (width, union, {name: i * width for i, name in enumerate(union)},
            _bytes(domain.p - 1))


def _key(f, position, size, p=0):
    """f keyed over the exponent fields at `position`, its numerators in
    slots of `size` bytes, negated mod p when p is given."""
    shifts = [position[name] for name in f.variables]
    terms, length = [], 0
    for exps, c in f.terms.items():
        num = c.value
        num = (num,) if type(num) is int else num.num
        if p:
            num = [-x % p for x in num]
        terms.append((sum(map(lshift, exps, shifts)), _pack(num, 8 * size)))
        length = max(length, len(num))
    return _Keyed(terms, length, f.variables, size)


def _bytes(bound):
    """Whole bytes for a slot that holds `bound`, at least one."""
    return max(-(-bound.bit_length() // 8), 1)


def _pack(num, slot):
    packed = 0
    for c in reversed(num):
        packed = (packed << slot) | c
    return packed


def _accumulate(pairs):
    """The raw sum of the products of the packed factor pairs per packed
    exponent vector."""
    sums = {}
    get = sums.get
    for terms_a, terms_b in pairs:
        for ka, na in terms_a:
            for kb, nb in terms_b:
                k = ka + kb
                sums[k] = get(k, 0) + na * nb
    return sums


# c * m mod p for every byte value c, per p whose products fit a one-byte
# slot ((p - 1)^2 < 256, so p < 17) and per multiplier m = 256^b mod p of a
# slot's byte b
_RESIDUES = {p: {m: bytes(c * m % p for c in range(256))
                 for m in {pow(256, b, p) for b in range(p)}}
             for p in (2, 3, 5, 7, 11, 13)}


def _reduced(sums, p, size):
    """Raw sums in slots of `size` bytes reduced mod p into canonical slots,
    cancelled terms dropped: the terms and the most slots a numerator has.
    A sum of one slot takes one %.  Otherwise, for p < 17, a slot's residue
    is the sum over its bytes b of byte * 256^b mod p, read with one
    translate per b for all slots of a sum; the size * (p - 1) at most add
    up without a carry and one more translate reduces them.  Over F_2 only
    the lowest byte counts, and in one-byte slots its lowest bit, read with
    one mask.  Larger p are reduced slot by slot."""
    items, terms, unit = sums.items(), [], _bytes(p - 1)
    slots = -(-max(sums.values(), default=0).bit_length() // (8 * size))
    n = slots * size
    if slots == 1:
        # every sum fills one slot: numerators of length 1
        for k, total in items:
            v = total % p
            if v:
                terms.append((k, v))
    elif p == 2 and size == 1:
        mask = int.from_bytes(b"\1" * slots, "little")
        for k, total in items:
            v = total & mask
            if v:
                terms.append((k, v))
    elif p in _RESIDUES and size * (p - 1) < 256:
        tables = _RESIDUES[p]
        lanes = [(b, tables[pow(256, b, p)]) for b in range(size) if pow(256, b, p)]
        table = tables[1]
        for k, total in items:
            raw = total.to_bytes(n, "little")
            if len(lanes) == 1:
                v = int.from_bytes(raw[::size].translate(table), "little")
            else:
                lane = sum(int.from_bytes(raw[b::size].translate(t), "little")
                           for b, t in lanes)
                v = int.from_bytes(lane.to_bytes(slots, "little").translate(table),
                                   "little")
            if v:
                terms.append((k, v))
    else:
        for k, total in items:
            raw = total.to_bytes(n, "little")
            v = int.from_bytes(b"".join(
                (int.from_bytes(raw[i:i + size], "little") % p).to_bytes(unit, "little")
                for i in range(0, n, size)), "little")
            if v:
                terms.append((k, v))
    return terms, -(-max((v for _, v in terms), default=0).bit_length() // (8 * unit))


def _to_polys(results, domain, union, width):
    """The polynomials of the (terms, order) results, terms in canonical
    slots keyed over `union` and each polynomial over its `order`: the
    shifts of an order are found once, and each key's exponents read once
    per order."""
    prime = type(domain) is PrimeField
    unit, mask, layouts, out = _bytes(domain.p - 1), (1 << width) - 1, {}, []
    for terms, order in results:
        if order not in layouts:
            layouts[order] = [union.index(name) * width for name in order], {}
        shifts, decoded = layouts[order]
        poly = {}
        for k, v in terms:
            exps = decoded.get(k)
            if exps is None:
                exps = decoded[k] = tuple(map(and_, map(rshift, repeat(k), shifts),
                                              repeat(mask)))
            if prime:
                poly[exps] = FieldElement(domain, v)
                continue
            raw = v.to_bytes(-(-v.bit_length() // (8 * unit)) * unit, "little")
            num = tuple(raw) if unit == 1 else tuple(
                int.from_bytes(raw[i:i + unit], "little") for i in range(0, len(raw), unit))
            poly[exps] = FieldElement(domain, _RatFunc(num, _POLYNOMIAL))
        out.append(Poly(domain, order, poly, clean=True))
    return out


class PolyRing:
    """Coefficient-domain handle for matrices, algebra coordinates and
    monic polynomials whose entries are polynomials.

    Its charpoly runs the packed kernel when it applies; linalg's loops
    serve otherwise, and for every algebra product, on Poly arithmetic."""

    def __init__(self, domain):
        self.domain = domain

    def zero(self):
        return Poly.zero(self.domain)

    def one(self):
        return Poly.constant(self.domain, self.domain.one())

    def charpoly(self, matrix):
        """Coefficients [1, c_1, ..., c_n] of det(z*I - M) by linalg.berkowitz
        on keyed entries with the keyed dot, each over the variables it gives
        them; None unless every entry is a polynomial over this F_p, or in x
        over this F_p(x).  Each entry is keyed once, and once more negated
        where the iteration negates it, but the last row, read only negated,
        is keyed negated only; only the n + 1 results leave the kernel."""
        entries = [f for row in matrix for f in row]
        # no exponent of a Krylov or Toeplitz product exceeds n times the
        # largest entry degree
        setup = _setup(entries, self.domain, len(matrix))
        if setup is None:
            return None
        width, union, position, unit = setup
        p = self.domain.p
        square = (p - 1) ** 2

        def merge(a, b):
            # the variable list of a sum or product of operands over a and b
            return a if a == b else _first_seen((a, b))

        def dot(xs, ys):
            order, bound, pairs = None, 0, []
            for x, y in zip(xs, ys):
                pair = merge(x.order, y.order)
                order = pair if order is None else merge(order, pair)
                if x.terms and y.terms:
                    bound += min(len(x.terms), len(y.terms)) * min(x.length, y.length)
                    pairs.append((x, y))
            size = _bytes(bound * square)
            terms, length = _reduced(_accumulate(
                [(x.at(size), y.at(size)) for x, y in pairs]), p, size)
            return _Keyed(terms, length, order, unit)

        last = len(matrix) - 1
        # each entry the iteration negates (on or below the diagonal) keyed
        # negated too; the last row, which it only negates, keyed negated only
        keyed = [[_key(f, position, unit, p if r == last else 0) for f in row]
                 for r, row in enumerate(matrix)]
        negated = {x: x if r == last else _key(f, position, unit, p) for r, (row, line)
                   in enumerate(zip(matrix, keyed)) for f, x in zip(row[:r + 1], line)}
        vec = berkowitz(keyed, _Keyed([(0, 1)], 1, (), unit), negated.__getitem__, dot)
        return _to_polys(((f.terms, f.order) for f in vec), self.domain, union, width)

    def cleared(self, elements):
        """(1, the elements): polynomials over a field need no clearing."""
        return self.one(), list(elements)

    def numerators(self):
        return self.zero(), self.one(), add, mul, neg, lambda n, d: n

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.domain == self.domain

    def __hash__(self):
        return hash(("polyring", self.domain))

    def __repr__(self):
        return "PolyRing(%s)" % (self.domain,)


# ---------------------------------------------------------------------------
# Gauss norms


def gauss_norm(p, radii):
    """Sup-norm of a polynomial on the polydisc with the given log-radii.

    radii aligns with p.variables; the value is the maximum over terms of
    lognorm(coefficient) + sum_i exponent_i * radius_i, and -inf for the zero
    polynomial.
    """
    field = p.domain
    if not getattr(field, "has_valuation", False):
        raise UnsupportedOperationError("Gauss norm needs a valued coefficient field")
    radii = list(radii)
    if len(radii) != len(p.variables):
        raise ValueError("need one radius per variable (%d expected, %d given)"
                         % (len(p.variables), len(radii)))
    values = []
    for exps, coeff in p.terms.items():
        v = field.lognorm(coeff)
        for e, radius in zip(exps, radii):
            if e:
                v = v + radius * e
        values.append(v)
    return lognorm_max(values)


# ---------------------------------------------------------------------------
# parsing of the canonical polynomial grammar
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ['^' integer]
#   atom   := integer | identifier | '(' expr ')' | '-' atom
#
# Identifiers are presentation variables when declared, otherwise they are
# resolved by the coefficient domain (field symbols, basis labels).  A term
# accumulates an exponent list, a base scalar and an extension element, and
# multiplies polynomials only for parenthesised sums; the symbol of a
# monogenic extension is raised by FreeExtension.generator_power.  Division
# needs a constant, invertible divisor.  A power whose estimated degree, term
# count or coefficient bit length (see _check_power) exceeds its bound raises
# EnumerationBoundError before any multiplication; a base scalar's power is
# estimated over the base, where it is taken.  Parentheses and unary
# minus signs nest at most PARSE_DEPTH_BOUND deep; deeper input raises.

POWER_DEGREE_BOUND = 1000
POWER_TERM_BOUND = 10 ** 4
POWER_BIT_BOUND = 10 ** 4
PARSE_DEPTH_BOUND = 100

# a token: an operator or ASCII name, an ASCII integer not run into a word, or
# another word or character (\w is isalnum() or _; \s, matched by none, is
# isspace())
_TOKEN = re.compile(r"([-+*/^()]|[A-Za-z_][\w']*)|([0-9]+)(?![\w'])|(\w[\w']*|\S)")
_VAR, _SCALAR, _ELEMENT, _SUM = range(4)  # the kinds of a factor


def _tokens(text):
    """The ints, identifiers and operator characters of text."""
    toks = []
    for name, num, word in _TOKEN.findall(text):
        if name or num:
            toks.append(name or int(num))
        elif word.isdigit():
            toks.append(int(word))
        else:  # a word's leading isdigit() characters are an int, as in 2x
            digits = "".join(takewhile(str.isdigit, word))
            toks += [int(digits)] if digits else []
            c = word[len(digits)]
            if not (c.isalpha() or c == "_"):
                raise ValueError("unexpected character %r in polynomial %r" % (c, text))
            toks.append(word[len(digits):])
    return toks


def parse_poly(text, domain, variables=()):
    """Parse the canonical polynomial grammar into a Poly over `domain`."""
    variables = tuple(variables)
    toks = _tokens(text) + [None]
    index = dict(zip(variables, range(len(variables))))
    zero, one = (0,) * len(variables), domain.one()
    base = domain if isinstance(domain, Field) else domain.base
    monogenic = base is not domain and domain.minimal_polynomial is not None
    generator = domain.generator() if monogenic and domain.rank > 1 else None
    pos = depth = 0

    def early():
        return ValueError("polynomial %r ends early at position %d" % (text, len(text)))

    def as_poly(kind, value):  # the factor as the power bounds and a sign see it
        if kind is _VAR:
            value = {zero[:value] + (1,) + zero[value + 1:]: one}
        elif kind is not _SUM:
            value = {zero: domain.coerce(value)}
        return Poly(domain, variables, value, clean=kind is _VAR or kind is _SUM)

    def inverse(kind, value):  # the base scalar 1/value of a constant divisor
        if kind is _SUM and not any(map(any, value)):
            kind, value = _ELEMENT, next(iter(value.values()), None)
        if kind is _VAR or kind is _SUM:
            raise ValueError("division by a non-constant polynomial")
        if value is None or value.is_zero():
            raise ValueError("division by zero in polynomial %r" % text)
        value = value if type(value) is FieldElement else value.scalar_part()
        if value is None:
            raise UnsupportedOperationError(
                "division is only defined by invertible constants")
        return value.inverse()

    def atom():
        nonlocal pos, depth
        tok = toks[pos]
        pos += 1
        if type(tok) is int:
            return _SCALAR, base.coerce(tok)
        if tok == "(" or tok == "-":
            depth += 1
            if depth > PARSE_DEPTH_BOUND:
                raise ValueError("polynomial nests parentheses and signs deeper than %d"
                                 % PARSE_DEPTH_BOUND)
            inner = (-as_poly(*atom())).terms if tok == "-" else expr()
            if tok == "(" and toks[pos] != ")":
                raise early() if toks[pos] is None else ValueError("unbalanced parentheses")
            pos += tok == "("  # past the closing parenthesis
            depth -= 1
            return _SUM, inner
        if tok is None:
            raise early()
        if tok in "+*/^)":
            raise ValueError("unexpected token %r" % (tok,))
        if tok in index:
            return _VAR, index[tok]
        # a base symbol, x over F_p(x), stays a base scalar over an extension
        value = generator if generator is not None and tok == domain.symbol else (
            domain.symbol_constant(tok) if base is domain or tok in domain.basis_names
            else base.symbol_constant(tok))
        if value is None:
            raise ValueError("unknown identifier %r" % tok)
        return (_SCALAR if type(value) is FieldElement else _ELEMENT), value

    def term(acc, negate):  # adds the term, negated when asked, to acc
        nonlocal pos
        exps = s = c = prod = None
        op = "*"
        while op in ("*", "/"):
            kind, value = atom()
            k = 1
            if toks[pos] == "^":
                k = toks[pos + 1]
                if type(k) is not int:
                    raise early() if k is None else ValueError(
                        "exponent must be a non-negative integer")
                pos += 2
                _check_power(Poly.constant(base, value) if kind is _SCALAR
                             else as_poly(kind, value), k)
                if value is generator:
                    value = domain.generator_power(k)
                elif kind is _SUM:
                    value = (as_poly(kind, value) ** k).terms
                elif kind is not _VAR:
                    value = value ** k
            if op == "/" and (kind is not _VAR or k):  # u^0 is 1
                kind, value = _SCALAR, inverse(kind, value)
            if kind is _VAR:
                exps = exps or list(zero)
                exps[value] += k
            elif kind is _SCALAR:
                s = value if s is None else s * value
            elif kind is _SUM:
                prod = value if prod is None else (
                    as_poly(_SUM, prod) * as_poly(_SUM, value)).terms
            else:
                c = value if c is None else c * value
            op = toks[pos]
            pos += 1
        pos -= 1  # back to the token that ended the term
        if s is not None:  # over a field, s is the coefficient and c is None
            c = s if base is domain else (domain.coerce(s) if c is None else c.scale(s))
        key = zero if exps is None else tuple(exps)
        if prod is None:
            prod, key, c = {key: one if c is None else c}, zero, None
        for e, v in prod.items():
            v = v if c is None else v * c
            v = -v if negate else v
            e = e if key is zero else tuple(map(add, e, key))
            total = acc[e] + v if e in acc else v
            if not total.is_zero():
                acc[e] = total
            elif e in acc:
                del acc[e]

    def expr():
        nonlocal pos
        acc, negate = {}, toks[pos] == "-"
        pos += negate
        term(acc, negate)
        while toks[pos] == "+" or toks[pos] == "-":
            pos += 1
            term(acc, toks[pos - 1] == "-")
        return acc

    terms = expr()
    atom = term = expr = None  # frees the closures without the cycle collector
    if toks[pos] is not None:
        raise ValueError("trailing input in polynomial %r" % text)
    return Poly(domain, variables, terms, clean=True)


def _check_power(base, k):
    """Raise EnumerationBoundError unless the estimated degree, term count and
    coefficient bit length of base^k are within their bounds.

    The degree is k times the total degree d plus k times the largest
    numerator plus denominator degree of an F_p(x) coefficient.  The term
    count is the smaller of C(k + m - 1, m - 1), the number of products of k
    of the m terms, and C(n + k*d, n), the number of monomials of degree at
    most k*d in the n variables that occur.  The bit length of a coefficient
    over Q (plain or p-adic) is k times the largest numerator plus
    denominator bit length.
    """
    degree = max(base.total_degree(), 0)
    x_degree = _coefficient_size(base, FunctionField,
                                 lambda v: max(len(v.num) - 1, 0) + len(v.den) - 1)
    _bound_power(k, "degree", k * (degree + x_degree), POWER_DEGREE_BOUND)
    m = len(base.terms)
    if m > 1:  # a power of one term is one term
        n = len(base.support())
        terms = min(comb(k + m - 1, m - 1), comb(n + k * degree, n))
        _bound_power(k, "term count", terms, POWER_TERM_BOUND)
    bits = _coefficient_size(
        base, RationalField,
        lambda v: v.numerator.bit_length() + v.denominator.bit_length())
    _bound_power(k, "coefficient bit length", k * bits, POWER_BIT_BOUND)


def _bound_power(k, what, estimate, bound):
    if estimate > bound:
        raise EnumerationBoundError("power ^%d has estimated %s %d, above the bound %d"
                                    % (k, what, estimate, bound))


def _coefficient_size(base, kind, size):
    """The largest size of the raw value of a coefficient of base whose field
    is of type kind, 0 over other fields.  Over an algebra the coordinates
    count, plus the largest structure constant, which each product may add."""
    domain = base.domain
    field = domain if isinstance(domain, Field) else domain.base
    if not isinstance(field, kind) or not base.terms:
        return 0
    if field is domain:
        return max(size(c.value) for c in base.terms.values())
    structure = max((size(c.value) for row in domain.sparse_structure
                     for cell in row for _, c in cell if c is not None), default=0)
    return max(size(x.value) for c in base.terms.values()
               for x in c.coords) + structure
