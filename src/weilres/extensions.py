"""Finite free algebra extensions with a distinguished basis.

A FreeExtension B over a base field A is given by its rank n, basis labels
e_1 ... e_n, the structure constants c_ijk with e_i e_j = sum_k c_ijk e_k and
the coordinate vector of 1.  The constants are held once, as a sparse table:
cell (i, j) lists the (k, c_ijk) with c_ijk nonzero, c_ijk as None where it
is 1.  Every builder writes that table directly; structure_table converts a
dense n*n*n array, the document format, where it enters.  Commutativity, the
unit law and associativity are verified exactly at construction (derived
constructions such as tensor products inherit associativity and skip the
recheck).

Elements carry coordinate vectors whose entries are either base scalars or
polynomials over the base.  One product, table_product, serves both: Poly
operators for symbolic elements like x_1 e_1 + ... + x_n e_n, raw values
over raw_structure for scalars and for restriction's expansion.

Characteristic polynomials run the Berkowitz iteration on the matrix of b
with its coordinates and the structure constants cleared.  When the minimal
polynomial is m(t) = g(t^q), q = p^k > 1 in characteristic p, the extension
A is the tower B[t]/(t^q - s) over B = base[s]/(g), and by the transitivity
of the norm chi_{A/K}(b)(z) = chi_{B/K}(b^q)(z^q), with b^q = sum_l b_l^q s^l
by Frobenius: the iteration runs at rank n/q over B.
"""

from __future__ import annotations

import itertools
import math

from .errors import IncompatibleFieldError, UnsupportedOperationError
from .fields import (FieldElement, _join_signed, _needs_parens, _term_string,
                     canonical_embedding, power)
from .lognorm import LogNorm
from .linalg import (berkowitz, berkowitz_charpoly, mat_identity, mat_is_zero,
                     mat_mul)
from .poly import Poly, PolyRing, _first_seen

RANK_CAP = 16


class FreeExtension:
    """B = base e_1 + ... + base e_n with the multiplication of its table,
    kept as sparse_structure; equality and hashing compare the table."""

    def __init__(self, base, basis_names, table, unit, validate=True,
                 minimal_polynomial=None, symbol=None):
        self.base = base
        self.basis_names = tuple(basis_names)
        self.rank = len(self.basis_names)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        check_rank(self.rank)
        # sparse_structure[i][j]: the nonzero constants of e_i e_j as (k, c)
        # pairs, c None where it is 1, so products skip zeros and scaling
        self.sparse_structure = table
        self.unit = tuple(map(base.coerce, unit))
        self.minimal_polynomial = minimal_polynomial
        self.symbol = symbol
        self._hash = self._raw_table = self._cleared_table = self._tower = None
        if len(table) != self.rank or any(len(row) != self.rank for row in table):
            raise ValueError("structure constants must form an n*n*n array")
        if len(self.unit) != self.rank:
            raise ValueError("unit vector must have length n")
        if validate:
            self._validate()

    # -- construction-time checks -------------------------------------------

    def _validate(self):
        """Commutativity, the unit law and associativity on every basis
        triple (i >= j, all k), on raw_structure with the base field's own
        _add and _mul."""
        n, field = self.rank, self.base
        add, mul = field._add, field._mul
        zero, one = field._zero.value, field._one.value
        table = self.raw_structure()
        for i in range(n):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError("structure constants are not commutative at (%d, %d)"
                                     % (i, j))

        def times(x, j):
            # x e_j = sum_i x_i e_i e_j for raw (i, x_i) pairs, None as 1
            out = [zero] * n
            for i, xi in x:
                xi = one if xi is None else xi
                for k, c in table[j][i]:
                    out[k] = add(out[k], xi if c is None else mul(xi, c))
            return out

        unit = [(i, c.value) for i, c in enumerate(self.unit) if not c.is_zero()]
        for j in range(n):
            if times(unit, j) != [one if k == j else zero for k in range(n)]:
                raise ValueError("unit law fails on basis vector %d" % j)
        # triple[i][j][k] = (e_i e_j) e_k for i >= j, each computed once
        triple = [[[times(table[i][j], k) for k in range(n)]
                   for j in range(i + 1)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1):
                for k in range(n):
                    # e_i (e_j e_k) is (e_j e_k) e_i
                    if triple[i][j][k] != triple[max(j, k)][min(j, k)][i]:
                        raise ValueError(
                            "associativity fails on basis triple (%d, %d, %d)" % (i, j, k))

    # -- elements ------------------------------------------------------------

    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.rank:
            raise ValueError("coordinate vector must have length %d" % self.rank)
        if any(isinstance(c, Poly) for c in coords):
            return AlgebraElement(self, self._poly_coords(coords))
        return AlgebraElement(self, tuple(self.base.coerce(c) for c in coords))

    def _poly_coords(self, coords):
        """The coordinates as polynomials over the base, scalars lifted."""
        lifted = []
        for c in coords:
            if isinstance(c, Poly):
                if c.domain is not self.base and c.domain != self.base:
                    raise IncompatibleFieldError("coordinate over a different base")
                lifted.append(c)
            else:
                lifted.append(Poly.constant(self.base, self.base.coerce(c)))
        return tuple(lifted)

    def basis_element(self, j):
        zero = self.base.zero()
        return AlgebraElement(self, tuple(
            self.base.one() if i == j else zero for i in range(self.rank)))

    def unit_element(self):
        return AlgebraElement(self, self.unit)

    def zero_element(self):
        zero = self.base.zero()
        return AlgebraElement(self, (zero,) * self.rank)

    def scalar(self, c):
        c = self.base.coerce(c)
        return AlgebraElement(self, tuple(u * c for u in self.unit))

    def generator(self):
        if self.minimal_polynomial is None or self.rank < 2:
            raise UnsupportedOperationError("extension is not monogenic")
        return self.basis_element(1)

    def generator_power(self, k):
        """s^k for the generator s: a cell of the table for k <= 2n - 2."""
        n = self.rank
        if k > 2 * n - 2:
            return power(self.generator(), k, None)
        coords = [self.base.zero()] * n
        for j, c in self.sparse_structure[min(k, n - 1)][max(k - n + 1, 0)]:
            coords[j] = self.base.one() if c is None else c
        return AlgebraElement(self, coords)

    # -- domain protocol (extensions serve as Poly coefficient domains) ------

    def zero(self):
        return self.zero_element()

    def one(self):
        return self.unit_element()

    def coerce(self, v):
        if isinstance(v, AlgebraElement):
            if v.extension != self:
                raise IncompatibleFieldError("element of a different extension")
            return v
        if isinstance(v, FieldElement):
            return self.scalar(v)
        if isinstance(v, int):
            return self.scalar(self.base.coerce(v))
        raise TypeError("cannot coerce %r into %s" % (v, self))

    def symbol_constant(self, name):
        """A basis label names its basis element (a monogenic extension's
        only identifier label is its symbol); other names go to the base."""
        if name in self.basis_names:
            return self.basis_element(self.basis_names.index(name))
        base_sym = self.base.symbol_constant(name)
        if base_sym is not None:
            return self.scalar(base_sym)
        return None

    def random_element(self, rng):
        return AlgebraElement(self, tuple(
            self.base.random_element(rng) for _ in range(self.rank)))

    def elements(self):
        """All elements with scalar coordinates; the base must be finite."""
        return [AlgebraElement(self, scalars)
                for scalars in itertools.product(self.base.elements(), repeat=self.rank)]

    def size(self):
        return self.base.size() ** self.rank

    def is_finite(self):
        return self.base.is_finite()

    @property
    def has_valuation(self):
        return getattr(self.base, "has_valuation", False)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FreeExtension) and other.base == self.base
            and other.basis_names == self.basis_names
            and other.sparse_structure == self.sparse_structure
            and other.unit == self.unit)

    def __hash__(self):
        # the extension never changes, so its table is hashed once
        if self._hash is None:
            self._hash = hash(("ext", self.base, self.basis_names,
                               self.sparse_structure, self.unit))
        return self._hash

    def raw_structure(self):
        """sparse_structure with each constant c as c.value, None where it is
        1, for table_product on raw values; computed once, like the hash."""
        if self._raw_table is None:
            self._raw_table = [[[(k, c if c is None else c.value) for k, c in cell]
                                for cell in row] for row in self.sparse_structure]
        return self._raw_table

    def cleared_structure(self):
        """(e, table, raw): base.cleared's common denominator e of the
        structure constants, as a base scalar, and sparse_structure with each
        constant c as the numerator e*c (None where that is 1), a base scalar
        in table and raw in raw, so the matrix of e*b takes no gcd."""
        if self._cleared_table is None:
            base, table = self.base, self.sparse_structure
            _, one, _, _, _, over = base.numerators()
            # each distinct cell once: a monogenic table repeats the cell of s^k
            cells = list({id(cell): cell for row in table for cell in row}.values())
            e, scaled = base.cleared([base.one() if c is None else c
                                      for cell in cells for _, c in cell])
            # e*c for every constant c, in the order cleared took them
            scaled = [None if n == one else n for n in scaled]
            raw, e = _refilled(table, cells, scaled), over(e, one)
            if not e.is_one():
                table = _refilled(table, cells, [n if n is None else over(n, one)
                                                 for n in scaled])
            self._cleared_table = e, table, raw
        return self._cleared_table

    def tower(self):
        """(q, B, powers) for the largest q = p^k, p the characteristic of
        the base, with m(t) = g(t^q) for the minimal polynomial m: then
        B = base[s]/(g), A = B[t]/(t^q - s), and powers[l] is the cell of
        s^l in B for l < n.  q = 1, with no B, in characteristic 0, for
        written-out tables and tensor products, and where p does not divide
        every exponent of m.  Computed once, like the hash."""
        if self._tower is None:
            self._tower = 1, None, None
            p, m = self.base.characteristic, self.minimal_polynomial
            if p and m is not None:
                q, exponents = 1, math.gcd(*(e for (e,) in m.terms))
                while exponents % (q * p) == 0:
                    q *= p
                if q > 1:
                    g = Poly(self.base, m.variables,
                             {(e // q,): c for (e,), c in m.terms.items()}, clean=True)
                    self._tower = q, from_minimal_polynomial(self.base, g), \
                        _reduced_powers(self.base, g.dense_coefficients(), self.rank)
        return self._tower

    def __repr__(self):
        if self.minimal_polynomial is not None:
            return "%s[%s]/(%s)" % (self.base, self.symbol,
                                    self.minimal_polynomial.to_string())
        return "free rank-%d algebra over %s" % (self.rank, self.base)


def _refilled(table, cells, constants):
    """table with the constants of its distinct cells, in order, replaced."""
    constants = iter(constants)
    new = {id(cell): tuple([(k, next(constants)) for k, _ in cell]) for cell in cells}
    return tuple([tuple(map(new.__getitem__, map(id, row))) for row in table])


def check_rank(n):
    """Raise ValueError when a rank-n algebra is over RANK_CAP."""
    if n > RANK_CAP:
        raise ValueError("rank %d exceeds the cap %d" % (n, RANK_CAP))


class AlgebraElement:
    __slots__ = ("extension", "coords")

    def __init__(self, extension, coords):
        self.extension = extension
        self.coords = tuple(coords)

    @property
    def ring(self):
        """Coefficient ring of the coordinates: the base field or a PolyRing."""
        if any(isinstance(c, Poly) for c in self.coords):
            return PolyRing(self.extension.base)
        return self.extension.base

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            other = self.extension.coerce(other)
        if other.extension is not self.extension and other.extension != self.extension:
            raise IncompatibleFieldError("elements of different extensions")
        a, b = self.coords, other.coords
        if any(isinstance(c, Poly) for c in a + b):
            a = self.extension._poly_coords(a)
            b = self.extension._poly_coords(b)
        return a, b

    def __add__(self, other):
        a, b = self._check(other)
        return AlgebraElement(self.extension, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.extension, tuple(-c for c in self.coords))

    def __sub__(self, other):
        a, b = self._check(other)
        return AlgebraElement(self.extension, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._check(other)
        ext, base = self.extension, self.extension.base
        # _check lifts both operands to polynomials when either has one
        if isinstance(a[0], Poly):
            return AlgebraElement(ext, table_product(
                ext.sparse_structure, Poly.zero(base), Poly.__add__, Poly.__mul__, a, b))
        raw = table_product(ext.raw_structure(), base._zero.value, base._add, base._mul,
                            [x.value for x in a], [y.value for y in b])
        return AlgebraElement(ext, [FieldElement(base, v) for v in raw])

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, self.extension.unit_element)

    def scale(self, c):
        # a Poly coordinate times a base scalar is its scaling
        c = self.extension.base.coerce(c)
        return AlgebraElement(self.extension, tuple(x * c for x in self.coords))

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def scalar_part(self):
        unit = self.extension.unit
        pivot = next(i for i, u in enumerate(unit) if not u.is_zero())
        c = self.coords[pivot] * unit[pivot].inverse()
        for x, u in zip(self.coords, unit):
            if x != u * c:
                return None
        return c

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.extension != self.extension:
            return False
        a, b = self._check(other)
        return a == b

    def __hash__(self):
        return hash((self.extension, self.coords))

    def __str__(self):
        parts = []
        for c, name in zip(self.coords, self.extension.basis_names):
            if c.is_zero():
                continue
            cs = str(c)
            if name == "1":
                parts.append("(%s)" % cs if _needs_parens(cs) else cs)
            elif cs == "1":
                parts.append(name)
            elif cs == "-1":
                parts.append("-" + name)
            else:
                parts.append(("(%s)" % cs if _needs_parens(cs) or "*" in cs
                              or "/" in cs else cs) + "*" + name)
        return _join_signed(parts)

    def __repr__(self):
        return "<%s in %s>" % (self, self.extension)


def table_product(table, zero, add, mul, a, b):
    """The coordinates of a * b for coordinate vectors a and b over a ring
    given by its zero, add and mul, table[i][j] holding the nonzero
    structure constants of e_i e_j as (k, c), c None where it is 1; zeros of
    a and b are skipped, and zero fills what no product reaches."""
    out = [None] * len(table)
    live = [(j, y) for j, y in enumerate(b) if y != zero]
    for x, row in zip(a, table):
        if x != zero:
            for j, y in live:
                xy = mul(x, y)
                for k, c in row[j]:
                    term = xy if c is None else mul(xy, c)
                    out[k] = term if out[k] is None else add(out[k], term)
    return [zero if v is None else v for v in out]


# ---------------------------------------------------------------------------
# construction paths


def structure_table(base, structure):
    """The table of FreeExtension for a dense n*n*n array of structure
    constants over base: cell (i, j) holds the (k, c_ijk) with c_ijk nonzero,
    c_ijk as None where it is 1."""
    n = len(structure)
    if any(len(row) != n or any(len(cell) != n for cell in row) for row in structure):
        raise ValueError("structure constants must form an n*n*n array")

    def lift(c):
        # most constants arrive as elements of base already
        return c if type(c) is FieldElement and c.field is base else base.coerce(c)

    return tuple(tuple(tuple((k, None if c.is_one() else c)
                             for k, c in enumerate(map(lift, cell)) if not c.is_zero())
                       for cell in row) for row in structure)


def from_minimal_polynomial(base, m, symbol=None):
    """Extension base[s]/(m(s)) with basis 1, s, ..., s^(n-1).

    m must be a monic univariate Poly over base; the structure constants are
    obtained by reduction of s^(i+j) modulo m.
    """
    coeffs = m.dense_coefficients()
    if symbol is None:
        symbol = m.variables[0]
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("minimal polynomial must have degree at least 1")
    if not coeffs[n].is_one():
        raise ValueError("minimal polynomial must be monic")
    check_rank(n)
    powers = _reduced_powers(base, coeffs, 2 * n - 1)
    table = tuple(tuple(powers[i:i + n]) for i in range(n))
    names = tuple("1" if k == 0 else (symbol if k == 1 else "%s^%d" % (symbol, k))
                  for k in range(n))
    unit = (base.one(),) + (base.zero(),) * (n - 1)
    return FreeExtension(base, names, table, unit, validate=False,
                         minimal_polynomial=m, symbol=symbol)


def _reduced_powers(base, coeffs, count):
    """The cells of s^k for k < count modulo the monic m with dense
    coefficients coeffs, from raw values: s^(k+1) = s * s^k with
    s^n = -c_0 - c_1 s - ... - c_(n-1) s^(n-1)."""
    n = len(coeffs) - 1
    add, mul = base._add, base._mul
    low = [base._neg(c.value) for c in coeffs[:n]]
    zero, one = base.zero().value, base.one().value
    powers = []
    cur = [one] + [zero] * (n - 1)
    for k in range(count):
        powers.append(tuple((i, None if v == one else FieldElement(base, v))
                            for i, v in enumerate(cur) if v != zero))
        top = cur[n - 1]
        cur = [zero] + cur[:n - 1]
        if top != zero:
            cur = [add(v, mul(c, top)) for v, c in zip(cur, low)]
    return powers


def tensor_product(b1, b2):
    """Tensor product over the common base, basis e_i (x) f_j in lex order:
    (e_i f_j)(e_k f_l) has the constant c_ikm c'_jlr at e_m f_r."""
    if b1.base != b2.base:
        raise IncompatibleFieldError("tensor factors over different bases")
    n2 = b2.rank
    names = tuple("(%s*%s)" % (a, b) for a in b1.basis_names for b in b2.basis_names)

    def times(c1, c2):
        # nonzero constants have a nonzero product, which may be 1 (2*2 in F_3)
        if c1 is None or c2 is None:
            return c2 if c1 is None else c1
        c = c1 * c2
        return None if c.is_one() else c

    table = tuple(
        tuple(tuple((m * n2 + r, times(c1, c2)) for m, c1 in cell1 for r, c2 in cell2)
              for cell1 in row1 for cell2 in row2)
        for row1 in b1.sparse_structure for row2 in b2.sparse_structure)
    unit = tuple(u1 * u2 for u1 in b1.unit for u2 in b2.unit)
    return FreeExtension(b1.base, names, table, unit, validate=False)


def extend_scalars(ext, target):
    """Base change of the extension along the canonical embedding into target."""
    emb = canonical_embedding(ext.base, target)
    table = tuple(tuple(tuple((k, c if c is None else emb(c)) for k, c in cell)
                        for cell in row) for row in ext.sparse_structure)
    unit = tuple(emb(c) for c in ext.unit)
    mp = None
    if ext.minimal_polynomial is not None:
        mp = ext.minimal_polynomial.map_coefficients(target, emb)
    return FreeExtension(target, ext.basis_names, table, unit, validate=False,
                         minimal_polynomial=mp, symbol=ext.symbol)


# ---------------------------------------------------------------------------
# multiplication operators and characteristic polynomials


def mult_matrix(b, table=None):
    """Matrix of multiplication by b: column j holds the coordinates of b*e_j,
    whose k-th is the sum of the b_i c_ijk, taken in the order of i, so
    scalings and sums are all it needs.  Given the table of
    cleared_structure, whose constants are e*c_ijk, it is the matrix of e*b,
    and over numerator coordinates its entries are numerators, built with
    no gcd."""
    ext = b.extension
    n = ext.rank
    b = ext.element(b.coords)
    rows = [[None] * n for _ in range(n)]
    for x, table_row in zip(b.coords, table or ext.sparse_structure):
        if x.is_zero():
            continue
        for j, cell in enumerate(table_row):
            for k, c in cell:
                term = x if c is None else x * c
                rows[k][j] = term if rows[k][j] is None else rows[k][j] + term
    zero = b.ring.zero()
    return tuple(tuple(zero if e is None else e for e in row) for row in rows)


class MonicPoly:
    """z^n + c_1 z^(n-1) + ... + c_n with exact coefficients.

    The coefficients may be base scalars or polynomials (for symbolic
    characteristic polynomials); `ring` is the matching coefficient handle.
    """

    __slots__ = ("ring", "coefficients")

    def __init__(self, ring, coefficients):
        self.ring = ring
        self.coefficients = tuple(coefficients)
        if not self.coefficients:
            raise ValueError("a monic polynomial has degree at least 1")

    @property
    def degree(self):
        return len(self.coefficients)

    def coefficient(self, i):
        """c_i for 1 <= i <= n."""
        return self.coefficients[i - 1]

    def __mul__(self, other):
        if not isinstance(other, MonicPoly):
            return NotImplemented
        d, numerators = self.cleared_product(other)
        *_, over = self.ring.numerators()
        return MonicPoly(self.ring, [over(c, d) for c in numerators])

    def cleared_product(self, other):
        """(d, [C_1, ..., C_(n+m)]) in the ring numerators() describes, C_k / d
        the c_k of self * other: each side cleared by a common denominator,
        the numerators convolve with no gcd.  Zero numerators, 0 or (), are
        skipped; a Poly is always true, so over a PolyRing none is."""
        if other.ring != self.ring:
            raise IncompatibleFieldError("monic polynomials over different rings")
        zero, _, add, mul, _, _ = self.ring.numerators()
        da, a = self.ring.cleared(self.coefficients)
        db, b = self.ring.cleared(other.coefficients)
        b = [db] + b
        out = [zero] * (len(a) + len(b))
        for i, x in enumerate([da] + a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return mul(da, db), out[1:]

    def __eq__(self, other):
        if not isinstance(other, MonicPoly):
            return NotImplemented
        return self.ring == other.ring and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.ring, self.coefficients))

    def to_string(self, var="z"):
        n = self.degree
        return _join_signed([_term_string((var,), (n,), 1)] + [
            _term_string((var,), (n - i,), c)
            for i, c in enumerate(self.coefficients, start=1) if not c.is_zero()])

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "MonicPoly(%s)" % self


def charpoly(b):
    """Characteristic polynomial of multiplication by b, z^n + c_1 z^(n-1) + ...

    Computed with a division-free iteration so polynomial coordinates are
    allowed; Cayley-Hamilton holds exactly for the result.
    """
    ext, base = b.extension, b.extension.base
    if b.ring is not base or ext.tower()[0] > 1:
        return _unscaled_charpoly(*_cleared(b))
    # scalar coordinates: Berkowitz on raw numerators, each c_j wrapped once
    zero, one, add, mul, neg, over = base.numerators()
    d, numerators = base.cleared(b.coords)
    e, _, raw = ext.cleared_structure()

    def dot(xs, ys):
        acc = zero
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y)) if acc else mul(x, y)
        return acc

    # column j of the matrix of e*d*b is d*b times e_j
    columns = [table_product(raw, zero, add, mul, numerators, [zero] * j + [one])
               for j in range(ext.rank)]
    vec = berkowitz(tuple(zip(*columns)), one, neg, dot)[1:]
    return _unscaled(over(d, one) * e, base, [over(c, one) for c in vec])


def generic_charpoly(r, variables):
    """charpoly(r * (x_1 e_1 + ... + x_n e_n)) for r with scalar coordinates
    and x_1, ..., x_n named by `variables`.  Coordinate i of e*d*r times that
    sum is sum_l m_il x_l on row i of m = mult_matrix(d*r, table), d clearing
    r and (e, table) the cleared structure, so its coefficients are
    numerators and no gcd runs before c_j is unscaled by (d*e)^j."""
    if any(isinstance(c, Poly) for c in r.coords):
        raise UnsupportedOperationError("radius elements need scalar coordinates")
    ext = r.extension
    d, r = _cleared(r)
    e, table, _ = ext.cleared_structure()
    units = [tuple(int(k == l) for k in range(ext.rank)) for l in range(ext.rank)]
    forms = AlgebraElement(ext, tuple(Poly(ext.base, variables, dict(zip(units, row)))
                                      for row in mult_matrix(r, table)))
    return _unscaled_charpoly(d * e, forms)


def _unscaled_charpoly(d, b):
    """The characteristic polynomial of b / d for b with numerator
    coordinates: c_j(b / d) = c_j(e*b) / (d*e)^j, e clearing the structure
    constants, with c_j(e*b) from Berkowitz on the matrix of e*b, or from the
    tower when the extension has one."""
    ring, ext = b.ring, b.extension
    e, table, _ = ext.cleared_structure()
    q, inner, powers = ext.tower()
    if q == 1:
        vec = berkowitz_charpoly(mult_matrix(b, table), ring)[1:]
    else:
        vec = _tower_charpoly(b if e.is_one() else b.scale(e), q, inner, powers)
    return _unscaled(d * e, ring, vec)


def _unscaled(d, ring, vec):
    """The MonicPoly over ring with coefficients c_j / d^j for vec = [c_j]."""
    if d.is_one():
        return MonicPoly(ring, vec)
    unscale = d.field.unscaler(d)
    return MonicPoly(ring, [_map_values(c, lambda v: unscale(v, j))
                            for j, c in enumerate(vec, start=1)])


def _tower_charpoly(b, q, inner, powers):
    """[c_1, ..., c_n] of b in A = B[t]/(t^q - s), B = inner, through the
    transitivity of the norm (Lang, Algebra, VI 5; Bourbaki, Algebra, III 9):
    over B every b has characteristic polynomial (z - b)^q = z^q - b^q, so
    chi_A(b)(z) = chi_B(b^q)(z^q), c_(qi)(b) = c_i(b^q) and every other c_j
    is 0.  Frobenius gives b^q = sum_l b_l^q s^l, with s^l the cells of
    powers, so Berkowitz runs at rank n/q.  Polynomial coefficients are
    laid over the variable lists plain Berkowitz gives them."""
    ext = b.extension
    b = ext.element(b.coords)
    zero = b.ring.zero()
    coords = [None] * inner.rank
    for x, cell in zip(b.coords, powers):
        if x.is_zero():
            continue
        # x^q: a scalar's power, or a Poly's with its exponents times q
        y = Poly(x.domain, x.variables, {tuple(e * q for e in exps): c ** q
                                         for exps, c in x.terms.items()}, clean=True) \
            if isinstance(x, Poly) else x ** q
        for k, c in cell:
            term = y if c is None else y * c
            coords[k] = term if coords[k] is None else coords[k] + term
    vec = [zero] * ext.rank
    vec[q - 1::q] = charpoly(AlgebraElement(
        inner, tuple(zero if c is None else c for c in coords))).coefficients
    if isinstance(zero, Poly):
        vec = [c.with_variables(v) for c, v in zip(vec, _variable_lists(b))]
    return vec


def _variable_lists(b):
    """The variable list of each c_j of berkowitz_charpoly(mult_matrix(b)),
    b with Poly coordinates: its iteration run on the entries' lists alone,
    a sum or product over its operands' lists merged in order of first
    occurrence, as Poly arithmetic and the packed kernel merge them."""
    ext = b.extension
    n = ext.rank
    rows = [[()] * n for _ in range(n)]
    for x, table_row in zip(b.coords, ext.sparse_structure):
        if not x.is_zero():
            for j, cell in enumerate(table_row):
                for k, _ in cell:
                    rows[k][j] = _first_seen((rows[k][j], x.variables))
    lists = {names for row in rows for names in row}
    if len(lists) == 1:
        # every sum and product is over the one list
        return [lists.pop()] * n
    return berkowitz(rows, (), lambda names: names, lambda xs, ys: _first_seen(
        itertools.chain.from_iterable(zip(xs, ys))))[1:]


def _cleared(b):
    """(d, d*b) with d a base scalar clearing the coordinates of b, base.cleared's
    d, so those of d*b are numerators (integers over Q, polynomials in x over
    F_p(x)).  Over finite fields d is 1 and b is returned as it is."""
    ext = b.extension
    base = ext.base
    _, one, _, _, _, over = base.numerators()
    d, scaled = base.cleared([c for x in b.coords for c in (
        x.terms.values() if isinstance(x, Poly) else (x,))])
    d = over(d, one)
    if d.is_one():
        return d, b
    # the scaled values, in the order cleared took them
    scaled = iter([over(n, one) for n in scaled])
    return d, AlgebraElement(ext, tuple(_map_values(x, lambda _: next(scaled))
                                        for x in b.coords))


def _map_values(c, f):
    """A base scalar, or a Poly over the base, with f applied to its values;
    f keeps nonzero values nonzero."""
    if isinstance(c, Poly):
        return Poly(c.domain, c.variables,
                    {e: f(v) for e, v in c.terms.items()}, clean=True)
    return f(c)


def is_integral(b):
    """Whether every characteristic-polynomial coefficient has lognorm <= 0."""
    base = b.extension.base
    if not getattr(base, "has_valuation", False):
        raise UnsupportedOperationError("integrality needs a valued base field")
    if any(isinstance(c, Poly) for c in b.coords):
        raise UnsupportedOperationError("integrality is defined for scalar coordinates")
    zero = LogNorm(0)
    return all(base.lognorm(c) <= zero for c in charpoly(b).coefficients)


def is_nilpotent(b):
    """Whether M_b^n = 0 (equivalently the characteristic polynomial is z^n).

    M_b is nilpotent exactly when d*M_b is for a nonzero d, so the power is
    taken of the matrix of e*d*b, d and e clearing the coordinates and the
    structure constants, with no gcd over F_p(x)."""
    if any(isinstance(c, Poly) for c in b.coords):
        raise UnsupportedOperationError("nilpotency is decided for scalar coordinates")
    m = mult_matrix(_cleared(b)[1], b.extension.cleared_structure()[1])
    n = b.extension.rank
    return mat_is_zero(power(m, n, lambda: mat_identity(n, b.ring), mat_mul))
