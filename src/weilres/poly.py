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
by parse_poly.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from operator import and_, is_, lshift, rshift

from .errors import (EnumerationBoundError, IncompatibleFieldError,
                     UnsupportedOperationError)
from .fields import (Field, FieldElement, FunctionField, PrimeField,
                     RationalField, _RatFunc, _join_signed, _term_string, power)
from .linalg import _algebra_product, _krylov, _sums_of_products
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
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def sorted_terms(self, order=None):
        variables = tuple(order) if order is not None else self.variables
        aligned = self.with_variables(variables) if variables != self.variables else self
        keyed = sorted(aligned.terms.items(),
                       key=lambda item: (sum(item[0]), item[0]), reverse=True)
        return variables, keyed

    def to_string(self, order=None):
        variables, keyed = self.sorted_terms(order)
        return _join_signed([_term_string(variables, exps, coeff)
                             for exps, coeff in keyed])

    def canonical_string(self):
        return self.to_string(order=sorted(self.support()))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "Poly(%s)" % self


def _check_domains(d1, d2):
    if d1 is not d2 and d1 != d2:
        raise IncompatibleFieldError("mixed coefficient domains: %s vs %s" % (d1, d2))


def _first_seen(lists):
    """The names of the lists in order of first occurrence."""
    names, seen = [], set()
    for names_in in lists:
        for name in names_in:
            if name not in seen:
                seen.add(name)
                names.append(name)
    return tuple(names)


# ---------------------------------------------------------------------------
# The packed kernel over F_p and F_p(x).
#
# Sums of products of polynomials whose coefficients all lie in one F_p, or
# are all polynomials in x (denominator 1) over one F_p(x): the form of every
# entry Berkowitz meets once charpoly has cleared denominators, and of the
# coordinates of an algebra product over such a base.  An exponent vector is
# packed into one int with a field of `width` bits per variable (Monagan and
# Pearce, CASC 2007), so a monomial product is one int addition.  A
# numerator c_0 + c_1 x + ... with 0 <= c_i < p is packed into the int
# sum c_i 2^(i*slot) (Kronecker substitution; Harvey, J. Symb. Comput.
# 2009), so a coefficient product is one int multiplication; an F_p value c
# is the numerator (c,) of length 1.  The raw products are summed per packed
# monomial and reduced mod p once, at the end.  Nothing carries across a
# field or a slot: no exponent of a product exceeds the total degrees of its
# factors added, below 2^width, and each product of two terms adds at most
# (shorter numerator length) * (p - 1)^2 to a slot, times the coefficient sum
# of the structure constant that weights it in an algebra product, so a sum
# stays below 2^slot.  An operand is keyed once: a list of (packed exponent
# vector, numerator) pairs with its longest numerator length; its numerators
# are Kronecker-packed per slot width.

_POLYNOMIAL = (1,)
_KERNEL_FIELDS = (PrimeField, FunctionField)
# Keying costs an algebra product about as much as the generic loop spends on
# 32 term products (ranks 2 to 8 over F_3, timed with timeit on a 2-vCPU VM
# under Python 3.11): below that bound on sum |a_i| * sum |b_j| the generic
# loop is faster.
_PACKED_PRODUCTS = 32


def _packed_sums(groups):
    """For every group of pairs (a, b), the sum of the products a * b by the
    packed kernel, over the variables of its operands in order of first
    occurrence as the generic products and sums give them; None unless every
    coefficient lies in one F_p or is a polynomial in x over one F_p(x).
    Each distinct operand is packed once."""
    domain = groups[0][0][0].domain
    if type(domain) not in _KERNEL_FIELDS:
        return None
    operands = {id(f): f for group in groups for pair in group for f in pair}
    degree = {}
    for key, f in operands.items():
        degree[key] = _polynomial_degree(f, domain)
        if degree[key] is None:
            return None
    width = max([degree[id(a)] + degree[id(b)] for group in groups for a, b in group]
                + [1]).bit_length()
    lists = dict.fromkeys(f.variables for f in operands.values())
    # operands on one variable list give every sum that list
    orders = ([next(iter(lists))] * len(groups) if len(lists) == 1 else
              [_first_seen(f.variables for pair in group for f in pair)
               for group in groups])
    union = _first_seen(orders)
    position = {name: i * width for i, name in enumerate(union)}
    keyed = {key: _keyed(f, position) for key, f in operands.items()}
    p = domain.p
    slot = _slot_width([_group_bound((keyed[id(a)], keyed[id(b)]) for a, b in group)
                        for group in groups], p)
    packed = {key: _kronecker(terms, slot) for key, (terms, _) in keyed.items()}
    layouts = {order: _layout(union, order, width) for order in orders}
    return [_to_poly(_reduced(_accumulate(
        [(packed[id(a)], packed[id(b)]) for a, b in group]), p, slot)[0],
        domain, order, layouts[order])
        for group, order in zip(groups, orders)]


def _packed_krylov(row, sub, col):
    """[R C, R M C, ..., R M^(k-1) C] for the row R, the k x k matrix M = sub
    and the column C by the packed kernel, each over the variables the
    generic products and sums give it; None as for _packed_sums.  Exponents
    are packed once; M^j C stays keyed from one power to the next, and R
    and M are Kronecker-packed again only when the slot width grows."""
    if not col:
        return []
    domain = col[0].domain
    if type(domain) not in _KERNEL_FIELDS:
        return None
    stacked = (tuple(row),) + tuple(tuple(line) for line in sub)
    bounds = []
    for group in (row, [f for line in sub for f in line], col):
        degrees = [_polynomial_degree(f, domain) for f in group]
        if None in degrees:
            return None
        bounds.append(max(degrees + [0]))
    k, p = len(col), domain.p
    width = max(bounds[0] + bounds[2] + (k - 1) * bounds[1], 1).bit_length()
    lists = dict.fromkeys(f.variables for line in stacked + (col,) for f in line)
    union = _first_seen(lists)
    position = {name: i * width for i, name in enumerate(union)}
    keyed = [[_keyed(f, position) for f in line] for line in stacked]
    v = [_keyed(f, position) for f in col]
    # operands on one variable list give every result that list
    shared = len(lists) == 1
    orders = [f.variables for f in col]
    out, slot, layouts = [], None, {}
    for j in range(k):
        lines = stacked[:1] if j == k - 1 else stacked
        wanted = _slot_width([_group_bound(zip(line, v))
                              for line in keyed[:len(lines)]], p)
        if wanted != slot:
            slot = wanted
            packed = [[_kronecker(terms, slot) for terms, _ in line] for line in keyed]
        packed_v = [_kronecker(terms, slot) for terms, _ in v]
        sums = [_reduced(_accumulate(list(zip(line, packed_v))), p, slot)
                for line in packed[:len(lines)]]
        if not shared:
            orders = [_first_seen(names for f, order in zip(line, orders)
                                  for names in (f.variables, order)) for line in lines]
        order = orders[0]
        if order not in layouts:
            layouts[order] = _layout(union, order, width)
        out.append(_to_poly(sums[0][0], domain, order, layouts[order]))
        v, orders = sums[1:], orders[1:]
    return out


def _packed_algebra_product(a, b, table):
    """The coordinates sum_(i,j) c_ijk a_i b_j of the product of the
    coordinate vectors a and b of a free algebra by the packed kernel, each
    over the variables the generic loop gives it; table[i][j] holds the
    nonzero structure constants of e_i e_j as (k, c_ijk) pairs, c_ijk None
    where it is 1.  None as for _packed_sums, and when a structure constant
    has a denominator.  Each product a_i b_j is summed once and added into
    every coordinate k with the packed c_ijk as its weight; each coordinate
    is reduced mod p once."""
    domain = a[0].domain
    if type(domain) not in _KERNEL_FIELDS:
        return None
    # a square keys its coordinates once
    square = all(map(is_, a, b))
    live = [f for f in (a if square else a + b) if f.terms]
    degrees = [_polynomial_degree(f, domain) for f in live]
    if None in degrees:
        return None
    # no exponent of a product exceeds twice the largest total degree
    width = max(2 * max(degrees, default=0), 1).bit_length()
    lists = dict.fromkeys(f.variables for f in live)
    union = _first_seen(lists)
    position = {name: i * width for i, name in enumerate(union)}
    ka = [_keyed(f, position) if f.terms else None for f in a]
    kb = ka if square else [_keyed(f, position) if f.terms else None for f in b]
    n, p = len(table), domain.p
    # per coordinate: its slot bound and the variable lists of the products
    # reaching it, which are all `union` when the operands share one list
    shared = len(lists) == 1
    bounds, reach, pairs = [0] * n, [[] for _ in range(n)], []
    for i, row in enumerate(table):
        if ka[i] is None:
            continue
        ta, la = ka[i]
        for j, cell in enumerate(row):
            if kb[j] is None or not cell:
                continue
            tb, lb = kb[j]
            bound = len(ta) * len(tb) * min(la, lb)
            weights = []
            for k, c in cell:
                w = _POLYNOMIAL if c is None else _numerator(c.value)
                if w is None:
                    return None
                bounds[k] += bound * sum(w)
                weights.append((k, w))
                if not shared:
                    reach[k] += (a[i].variables, b[j].variables)
            pairs.append((i, j, weights))
    slot = _slot_width(bounds, p)
    pa = [None if f is None else _kronecker(f[0], slot) for f in ka]
    pb = pa if square else [None if f is None else _kronecker(f[0], slot) for f in kb]
    sums = [{} for _ in range(n)]
    for i, j, weights in pairs:
        product = _accumulate([(pa[i], pb[j])]).items()
        for k, w in weights:
            total = sums[k]
            get = total.get
            w = w[0] if len(w) == 1 else _pack(w, slot)
            for key, s in product:
                total[key] = get(key, 0) + w * s
    layouts = {}
    out = []
    for total, bound, names in zip(sums, bounds, reach):
        if not bound:
            out.append(Poly.zero(domain))
            continue
        order = union if shared else _first_seen(names)
        if order not in layouts:
            layouts[order] = _layout(union, order, width)
        out.append(_to_poly(_reduced(total, p, slot)[0], domain, order, layouts[order]))
    return tuple(out)


def _terms(coords):
    return sum(len(f.terms) for f in coords)


def _numerator(value):
    """The coefficients c_0, c_1, ... of an F_p or F_p(x) value, None when
    it has a denominator; an F_p value c is (c,)."""
    if type(value) is int:
        return (value,)
    return value.num if value.den == _POLYNOMIAL else None


def _polynomial_degree(f, domain):
    """The total degree of f, or None when a coefficient of f has a
    denominator; raises when f is over another domain."""
    _check_domains(domain, f.domain)
    if type(domain) is FunctionField:
        for c in f.terms.values():
            if c.value.den != _POLYNOMIAL:
                return None
    return f.total_degree()


def _keyed(f, position):
    """f keyed: [(packed exponent vector, numerator)] and the longest
    numerator length."""
    shifts = [position[name] for name in f.variables]
    terms, length = [], 0
    for exps, c in f.terms.items():
        key = sum(map(lshift, exps, shifts))
        num = c.value
        num = (num,) if type(num) is int else num.num
        terms.append((key, num))
        length = max(length, len(num))
    return terms, length


def _group_bound(pairs):
    """At most how many times (p - 1)^2 the products of the keyed factor
    pairs add to one slot."""
    return sum(len(a) * len(b) * min(la, lb) for (a, la), (b, lb) in pairs)


def _slot_width(bounds, p):
    """Bits for a slot of a sum of at most max(bounds) times (p - 1)^2,
    rounded up to whole bytes."""
    return -(-(max(bounds, default=0) * (p - 1) ** 2).bit_length() // 8) * 8


def _pack(num, slot):
    packed = 0
    for c in reversed(num):
        packed = (packed << slot) | c
    return packed


def _kronecker(terms, slot):
    return [(key, _pack(num, slot)) for key, num in terms]


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


# residue mod p of every byte value, for the p a one-byte slot admits: it
# holds (p - 1)^2 at least, so p < 17
_RESIDUES = {p: bytes(c % p for c in range(256)) for p in (2, 3, 5, 7, 11, 13)}


def _reduced(sums, p, slot):
    """Raw sums keyed again: every slot reduced mod p, numerators trimmed,
    cancelled terms dropped.  Slots are whole bytes; where a slot's residue
    is that of its lowest byte (one-byte slots, and p = 2, which divides
    256), all slots of a sum are read with one to_bytes and one translate."""
    size = slot >> 3
    table = _RESIDUES.get(p) if size == 1 or p == 2 else None
    mask = (1 << slot) - 1
    terms, length = [], 0
    for k, total in sums.items():
        if total <= mask:
            # the sum fills one slot: a numerator of length 1
            num = (total % p,) if total % p else ()
        elif table is not None:
            raw = total.to_bytes(-(-total.bit_length() // slot) * size, "little")
            num = tuple(raw[::size].translate(table).rstrip(b"\0"))
        else:
            num = []
            while total:
                num.append((total & mask) % p)
                total >>= slot
            while num and not num[-1]:
                num.pop()
            num = tuple(num)
        if num:
            terms.append((k, num))
            length = max(length, len(num))
    return terms, length


def _layout(union, order, width):
    """How exponent vectors over `order` are read off keys packed over
    `union`: their shifts, the field mask and the vectors read so far."""
    return [union.index(name) * width for name in order], (1 << width) - 1, {}


def _to_poly(terms, domain, order, layout):
    """The polynomial over `order` of packed terms, read by `layout`."""
    shifts, mask, decoded = layout
    prime = type(domain) is PrimeField
    out = {}
    for k, num in terms:
        exps = decoded.get(k)
        if exps is None:
            exps = decoded[k] = tuple(map(and_, map(rshift, repeat(k), shifts),
                                          repeat(mask)))
        out[exps] = FieldElement(domain,
                                 num[0] if prime else _RatFunc(num, _POLYNOMIAL))
    return Poly(domain, order, out, clean=True)


class PolyRing:
    """Coefficient-domain handle for matrices and algebra coordinates whose
    entries are polynomials.

    Its sums_of_products, krylov and algebra_product run the packed kernel
    when it applies, and the generic products and sums otherwise."""

    def __init__(self, domain):
        self.domain = domain

    def zero(self):
        return Poly.zero(self.domain)

    def one(self):
        return Poly.constant(self.domain, self.domain.one())

    def sums_of_products(self, groups):
        out = _packed_sums(groups)
        return _sums_of_products(groups) if out is None else out

    def krylov(self, row, sub, col):
        out = _packed_krylov(row, sub, col)
        return _krylov(row, sub, col) if out is None else out

    def algebra_product(self, a, b, table):
        out = None
        if _terms(a) * _terms(b) >= _PACKED_PRODUCTS:
            out = _packed_algebra_product(a, b, table)
        return _algebra_product(a, b, table, self.zero()) if out is None else out

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
#   atom   := integer | identifier | '(' expr ')'
#
# Identifiers are presentation variables when declared, otherwise they are
# resolved by the coefficient domain (field symbols such as x or t, basis
# labels of an extension).  Division requires a constant, invertible divisor.
# A power whose estimated degree, term count or coefficient bit length (see
# _check_power) exceeds its bound raises EnumerationBoundError before any
# multiplication.  Parentheses and unary minus signs nest at most
# PARSE_DEPTH_BOUND deep, far under Python's recursion limit; deeper input
# raises ValueError.

POWER_DEGREE_BOUND = 1000
POWER_TERM_BOUND = 10 ** 4
POWER_BIT_BOUND = 10 ** 4
PARSE_DEPTH_BOUND = 100


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
                continue
            if ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
                continue
            raise ValueError("unexpected character %r in polynomial %r" % (ch, text))
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            raise ValueError("polynomial %r ends early at position %d"
                             % (self.text, len(self.text)))
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def parse_poly(text, domain, variables=()):
    """Parse the canonical polynomial grammar into a Poly over `domain`."""
    variables = tuple(variables)
    toks = _Tokens(text)
    poly = _parse_expr(toks, domain, variables)
    if toks.peek() is not None:
        raise ValueError("trailing input in polynomial %r" % text)
    if variables:
        extra = tuple(v for v in poly.variables if v not in variables)
        poly = poly.with_variables(variables + extra)
    return poly


def _parse_expr(toks, domain, variables):
    negate = False
    if toks.peek() == "-":
        toks.next()
        negate = True
    acc = _parse_term(toks, domain, variables)
    if negate:
        acc = -acc
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        term = _parse_term(toks, domain, variables)
        acc = acc + term if op == "+" else acc - term
    return acc


def _parse_term(toks, domain, variables):
    acc = _parse_factor(toks, domain, variables)
    while toks.peek() in ("*", "/"):
        op, _ = toks.next()
        rhs = _parse_factor(toks, domain, variables)
        if op == "*":
            acc = acc * rhs
        else:
            if not rhs.is_constant():
                raise ValueError("division by a non-constant polynomial")
            if rhs.is_zero():
                raise ValueError("division by zero in polynomial %r" % toks.text)
            c = rhs.constant_value()
            if hasattr(c, "inverse"):
                acc = acc.scale(c.inverse())
            elif getattr(c, "scalar_part", lambda: None)() is not None:
                # algebra elements divide by their base-scalar multiples of 1
                inv = c.extension.scalar(c.scalar_part().inverse())
                acc = acc.scale(inv)
            else:
                raise UnsupportedOperationError(
                    "division is only defined by invertible constants")
    return acc


def _parse_factor(toks, domain, variables):
    base = _parse_atom(toks, domain, variables)
    if toks.peek() == "^":
        toks.next()
        kind, val = toks.next()
        if kind != "int":
            raise ValueError("exponent must be a non-negative integer")
        _check_power(base, val)
        return base ** val
    return base


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
    m, n = max(len(base.terms), 1), len(base.support())
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


def _parse_atom(toks, domain, variables):
    kind, val = toks.next()
    if kind == "int":
        return Poly.constant(domain, val, variables)
    if kind == "name":
        if val in variables:
            return Poly.variable(domain, val).with_variables(variables)
        sym = domain.symbol_constant(val)
        if sym is None:
            raise ValueError("unknown identifier %r" % val)
        return Poly.constant(domain, sym, variables)
    if kind not in ("(", "-"):
        raise ValueError("unexpected token %r" % (val,))
    toks.depth += 1
    if toks.depth > PARSE_DEPTH_BOUND:
        raise ValueError("polynomial nests parentheses and signs deeper than %d"
                         % PARSE_DEPTH_BOUND)
    if kind == "(":
        inner = _parse_expr(toks, domain, variables)
        closing = toks.next()
        if closing[0] != ")":
            raise ValueError("unbalanced parentheses")
    else:
        inner = -_parse_atom(toks, domain, variables)
    toks.depth -= 1
    return inner
