"""Restriction of polynomially presented spaces along a free extension.

The construction: expand each original variable u along the basis as
u = u_1 e_1 + ... + u_n e_n, push every generator through the expansion,
decompose the image into basis coordinates, and present the restricted space
by the ideal of all coordinate polynomials.  A brute-force point oracle over
small finite fields ties the construction back to its defining universal
property: base points of the restriction correspond exactly to points of the
original presentation over the extension.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .errors import EnumerationBoundError, IncompatibleFieldError
from .extensions import (AlgebraElement, FreeExtension, MonicPoly,
                         extend_scalars, generator_step, generic_charpoly,
                         table_product)
from .fields import Field, FieldElement, canonical_embedding, power
from .lognorm import LogNorm
from .poly import Poly, render
from .spectral import spectral_value

POINT_FIELD_CAP = 100
POINT_VARIABLE_CAP = 6
# q^d, the number of assignments an exhaustive search over d variables tries
POINT_ASSIGNMENT_BUDGET = 10 ** 5


class Presentation:
    """A polynomially presented space: base ring, variables, generators.

    The base is a coefficient field or a free extension of one; optional
    per-variable log-radii give the variables disc semantics (they are
    bookkeeping for the disc constructions, not constraints the point oracle
    enforces).
    """

    def __init__(self, base, variables, generators, radii=None, provenance=""):
        self.base = base
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("generators must be Poly values")
            if g.domain != base:
                raise IncompatibleFieldError("generator over a different base")
            if g.variables != self.variables and not g.support() <= set(self.variables):
                raise ValueError("generator uses undeclared variables %s"
                                 % sorted(g.support() - set(self.variables)))
            gens.append(g.with_variables(self.variables))
        self.generators = tuple(gens)
        if radii is not None:
            radii = tuple(LogNorm(r) if not isinstance(r, LogNorm) else r
                          for r in radii)
            if len(radii) != len(self.variables):
                raise ValueError("need one radius per variable")
        self.radii = radii
        self.provenance = provenance

    def generator_strings(self):
        return tuple(render(self.generators))

    def canonical_generator_set(self):
        return frozenset(g.canonical_string() for g in self.generators)

    def __repr__(self):
        return "Presentation(%s; V(%s) over %s)" % (
            ", ".join(self.variables), ", ".join(self.generator_strings()), self.base)


class RestrictionResult:
    """Outcome of restricting a presentation along a free extension."""

    def __init__(self, presentation, coordinate_map, coefficient_index,
                 original, extension, metadata=None):
        self.presentation = presentation
        self.coordinate_map = dict(coordinate_map)
        self.coefficient_index = tuple(tuple(row) for row in coefficient_index)
        self.original = original
        self.extension = extension
        self.metadata = dict(metadata or {})

    def verify(self):
        """Re-expand the original generators and compare with the stored index."""
        for f, row in zip(self.original.generators, self.coefficient_index):
            again = expand_element(f, self.extension, self.original.variables)
            if tuple(again) != tuple(row):
                return False
        return True

    def __repr__(self):
        return "RestrictionResult(%r)" % (self.presentation,)


def block_names(variable, rank):
    """Names of the coordinate block of an original variable, 1-based."""
    return tuple("%s_%d" % (variable, j + 1) for j in range(rank))


def expand_element(f, ext, variables=None, powers=None):
    """Coordinates of f after substituting u -> u_1 e_1 + ... + u_n e_n.

    Returns a vector of rank-many polynomials over the base in the block
    variables of every variable in `variables` (default: the variables of f).
    G^e, for G = u_1 e_1 + ... + u_n e_n, is the sum of the u^alpha times
    multinomial(e; alpha) * e^alpha over the alpha of _multinomial_terms, so
    a term c * u^a * v^b of f is the sum of the u^alpha v^beta times both
    multinomials times c * e^(alpha + beta).  Distinct choices, and distinct
    terms of f, give distinct monomials, so each output term is written
    once.  The scalar work runs on the raw values of the base.  Over a
    written-out table c * e^gamma is taken once per gamma, as
    c * e^(gamma - alpha) times e^alpha by table_product on raw_structure.
    Over a minimal polynomial e_i = s^i, so e^gamma = s^w for the weighted
    degree w = sum_i i*gamma_i: c * s^w is read off the term's ladder
    c, c*s, c*s^2, ..., each rung one generator_step.  powers, when given,
    memoizes the terms of G^e by e for every call along the same ext.
    """
    if f.domain != ext:
        raise IncompatibleFieldError("polynomial is not defined over the extension")
    variables = tuple(variables) if variables is not None else f.variables
    base, n, m = ext.base, ext.rank, ext.minimal_polynomial
    all_blocks = tuple(name for v in variables for name in block_names(v, n))
    if len(set(all_blocks)) != len(all_blocks):
        raise ValueError("coordinate block names collide; rename the variables")
    position = {v: i for i, v in enumerate(variables)}
    add, mul = base._add, base._mul
    zero, one = base._zero.value, base._one.value
    if m is None:
        times = functools.partial(table_product, ext.raw_structure(), zero, add, mul)
    else:
        step = generator_step(base, m.dense_coefficients())

    basis = {}
    if powers is None:
        powers = {}

    def power_terms(e):  # (alpha, multinomial(e; alpha), e^alpha or its weight)
        if e not in powers:
            powers[e] = listed = []
            for alpha, k in _multinomial_terms(e, n, base.characteristic):
                if m is not None:
                    x = sum(map(int.__mul__, range(n), alpha))
                else:
                    x = None
                    for i, a in enumerate(alpha):
                        if a:
                            if (i, a) not in basis:
                                basis[i, a] = power([one if j == i else zero
                                                     for j in range(n)], a, None, times)
                            x = basis[i, a] if x is None else times(basis[i, a], x)
                listed.append((alpha, base.coerce(k).value, x))
        return powers[e]

    out = [{} for _ in range(n)]
    zeros = (0,) * n
    start = zeros if m is None else 0
    for exps, coeff in f.terms.items():
        degrees = [0] * len(variables)
        for v, e in zip(f.variables, exps):
            if e:
                degrees[position[v]] = e
        # (key, gamma or its weight, multinomial); values[gamma] = c * e^gamma
        c = [x.value for x in coeff.coords]
        states, values = [((), start, one)], {start: c}
        for e in degrees:
            if not e:
                states = [(key + zeros, g, k) for key, g, k in states]
                continue
            folded = []
            for key, g, k in states:
                for alpha, ka, y in power_terms(e):
                    if m is None:
                        h = tuple(map(int.__add__, g, alpha))
                        if h not in values:
                            values[h] = times(values[g], y)
                    else:
                        h = g + y
                    folded.append((key + alpha, h, mul(k, ka)))
            states = folded
        if m is not None:  # every rung taken, the weights reached kept
            weights, x = {g for _, g, _ in states}, c
            for w in range(1, max(weights) + 1):
                x = step(x)
                if w in weights:
                    values[w] = x
        for key, g, k in states:
            for terms, v in zip(out, values[g]):
                if v != zero:
                    terms[key] = FieldElement(base, v if k == one else mul(v, k))
    return tuple(Poly(base, all_blocks, terms, clean=True) for terms in out)


def _multinomial_terms(e, n, p):
    """Every alpha of length n with |alpha| = e whose multinomial coefficient
    e! / (alpha_1! ... alpha_n!) is nonzero mod p, with that coefficient,
    reduced mod p when p > 0.  In characteristic p each base-p digit of e is
    split over the n slots with no carry: by Lucas's theorem these alpha are
    exactly the ones whose coefficient is nonzero mod p, and it is the
    product of the digits' multinomials."""
    # (p^j, base-p digit j of e); e itself when p = 0
    digits = [(p ** j, e // p ** j % p) for j in range(e.bit_length())
              if e // p ** j] if p else [(1, e)]
    terms = [((0,) * n, 1)]
    for place, digit in digits:
        # (the leading slots, what is left, their multinomial coefficient)
        parts = [((), digit, 1)]
        for _ in range(n - 1):
            parts = [(beta + (b,), left - b, m * comb(left, b))
                     for beta, left, m in parts for b in range(left + 1)]
        terms = [(tuple(a + place * b for a, b in zip(alpha, beta + (left,))),
                  c * m % p if p else m) for alpha, c in terms for beta, left, m in parts]
    return terms


def restrict(p, ext):
    """Present the restriction of p along the extension by its coefficient ideal.

    The variables of the result are the blocks u_1 .. u_n of each original
    variable in order; the generators are all basis coordinates of all original
    generators.
    """
    if not isinstance(ext, FreeExtension):
        raise TypeError("restriction needs a free extension")
    if p.base != ext:
        raise IncompatibleFieldError("presentation is not defined over the extension")
    powers = {}
    return _restriction(p, ext, [expand_element(f, ext, p.variables, powers)
                                 for f in p.generators])


def _restriction(p, ext, coefficient_index):
    """The restriction of p along ext whose generators have the coordinate
    rows of coefficient_index, polynomials over the blocks of p's variables:
    its nonzero coordinates present it."""
    n = ext.rank
    variables = [name for v in p.variables for name in block_names(v, n)]
    generators = [poly for row in coefficient_index for poly in row if not poly.is_zero()]
    result_pres = Presentation(ext.base, variables, generators,
                               provenance="restriction of %s" % (p.provenance or "input"))
    metadata = {}
    if p.radii is not None:
        metadata["original_radii"] = tuple(str(r) for r in p.radii)
    coordinate_map = {v: block_names(v, n) for v in p.variables}
    return RestrictionResult(result_pres, coordinate_map, coefficient_index,
                             original=p, extension=ext, metadata=metadata)


def disc_generators(ext, radius_elements, var_block, y_prefix="y"):
    """Generators y_ij - c_j(r_i * (x_1 e_1 + ... + x_n e_n)) of a disc restriction.

    var_block names the n coordinate variables; for each radius element r_i the
    c_j are the characteristic-polynomial coefficients of r_i times the generic
    element, in the convention z^n + c_1 z^(n-1) + ... + c_n.  Returns the
    generator list together with radius bookkeeping for the y-variables: on the
    integral convention every y_ij has log-radius 0, on the scaled convention
    the j-th y of radius element r carries log-radius j * lognorm-of-r.
    """
    n = ext.rank
    var_block = tuple(var_block)
    if len(var_block) != n:
        raise ValueError("var_block must name %d variables" % n)
    base = ext.base
    at_unit = dict(zip(var_block, ext.unit))
    gens = []
    radius_meta = {}
    for i, r in enumerate(radius_elements, start=1):
        if r.extension != ext:
            raise IncompatibleFieldError("radius element outside the extension")
        chi = generic_charpoly(r, var_block)
        rho = None
        if ext.has_valuation:
            # chi(r) is chi at the unit's coordinates: substituting them is a
            # ring map sending r * generic to r
            rho = spectral_value(MonicPoly(base, [
                _homogeneous_value(c, j, at_unit)
                for j, c in enumerate(chi.coefficients, start=1)]))
        for j in range(1, n + 1):
            y, c = "%s%d_%d" % (y_prefix, i, j), chi.coefficient(j)
            if y in var_block:
                raise ValueError("variable %r names both a y and a block variable" % y)
            terms = {(0,) + exps: -v for exps, v in c.terms.items()}
            terms[(1,) + (0,) * len(c.variables)] = base.one()
            gens.append(Poly(base, (y,) + c.variables, terms, clean=True))
            radius_meta[y] = {
                "integral_lognorm": str(LogNorm(0)),
                "scaled_lognorm": str(rho * j) if rho is not None else None,
            }
    return gens, radius_meta


def _homogeneous_value(f, j, point):
    """The value at point (name -> value) of f, homogeneous of degree j.

    A monomial of degree j avoids every zero coordinate exactly when its
    exponents on the nonzero ones add up to j, so each term is kept or
    dropped on its exponents alone, before any product is taken: at a unit
    e_k only the term of x_k^j is kept."""
    live = [(i, point[v]) for i, v in enumerate(f.variables)
            if not point[v].is_zero()]
    total = f.domain.zero()
    for exps, c in f.terms.items():
        if sum(exps[i] for i, _ in live) == j:
            for i, u in live:
                if exps[i]:
                    c = c * u ** exps[i]
            total = total + c
    return total


def product(r1, r2):
    """Product of two restrictions: disjoint union of blocks and generators.

    Colliding original variables of the second factor are renamed by priming,
    as product_presentation renames them, and their coordinate blocks follow
    the renaming, so the result coincides with the restriction of the
    product presentation; no generator is expanded again.
    """
    if r1.presentation.base != r2.presentation.base:
        raise IncompatibleFieldError("restrictions over different bases")
    if r1.extension != r2.extension:
        raise IncompatibleFieldError("restrictions along different extensions")
    ext, n = r1.extension, r1.extension.rank
    original = product_presentation(r1.original, r2.original)
    variables = [name for v in original.variables for name in block_names(v, n)]
    renamed = original.variables[len(r1.original.variables):]
    rename = {old: new for v, w in zip(r2.original.variables, renamed)
              for old, new in zip(block_names(v, n), block_names(w, n))}
    rows = r1.coefficient_index + tuple(
        [Poly(poly.domain, [rename[v] for v in poly.variables], poly.terms, clean=True)
         for poly in row] for row in r2.coefficient_index)
    return _restriction(original, ext, [[poly.with_variables(variables) for poly in row]
                                        for row in rows])


def product_presentation(p1, p2):
    """Product of two presentations over the same base (variables disjoint)."""
    if p1.base != p2.base:
        raise IncompatibleFieldError("presentations over different bases")
    overlap = set(p1.variables) & set(p2.variables)
    if overlap:
        rename = _disjoint_renaming(p1.variables, p2.variables)
        p2 = rename_presentation(p2, rename)
    variables = p1.variables + p2.variables
    gens = [g.with_variables(variables) for g in p1.generators]
    gens += [g.with_variables(variables) for g in p2.generators]
    radii = None
    if p1.radii is not None and p2.radii is not None:
        radii = p1.radii + p2.radii
    return Presentation(p1.base, variables, gens, radii=radii,
                        provenance="product")


def _disjoint_renaming(taken, names):
    taken = set(taken)
    rename = {}
    for v in names:
        new = v
        while new in taken:
            new += "'"
        rename[v] = new
        taken.add(new)
    return rename


def rename_presentation(p, rename):
    variables = tuple(rename.get(v, v) for v in p.variables)
    gens = [Poly(g.domain, variables, dict(g.terms)) for g in p.generators]
    return Presentation(p.base, variables, gens, radii=p.radii,
                        provenance=p.provenance)


def base_change(p, target):
    """Move a presentation along the canonical embedding into target.

    Three shapes are supported: field to larger field (coefficients mapped),
    field to an extension of it (coefficients become scalars of the algebra),
    and extension-based presentations to the same extension with scalars
    extended into a larger coefficient field.
    """
    if isinstance(p.base, FreeExtension):
        if not isinstance(target, Field):
            raise TypeError("base change of an extension presentation targets a field")
        domain = extend_scalars(p.base, target)
        emb = canonical_embedding(p.base.base, target)

        def f(c):
            return AlgebraElement(domain, tuple(emb(x) for x in c.coords))
    elif isinstance(target, FreeExtension):
        domain = target
        emb = canonical_embedding(p.base, target.base)

        def f(c):
            return target.scalar(emb(c))
    else:
        domain, f = target, canonical_embedding(p.base, target)
    gens = [g.map_coefficients(domain, f) for g in p.generators]
    return Presentation(domain, p.variables, gens, radii=p.radii,
                        provenance=p.provenance)


def points_over(p, domain, text=False):
    """All solutions of the generators with coordinates in a finite domain.

    domain is a finite field (reached from the base by the canonical
    embedding) or a finite free extension; enumeration is exhaustive and the
    output is sorted canonically.  A point is a tuple of domain elements,
    or with text=True of their strings, read off the table's names, so that
    each element is named once per domain rather than once per coordinate.
    Exceeding the configured bounds (at most POINT_VARIABLE_CAP variables,
    POINT_FIELD_CAP elements and POINT_ASSIGNMENT_BUDGET assignments) raises
    EnumerationBoundError before any enumeration rather than truncating; the
    budget counts all q^d assignments.  Inside, points are tuples of indices
    into the domain's _DomainTable, built once per domain and shared by
    equal domains, whose elements are in sort-key order, so the index tuples
    sort as the points do; each sorted tuple is read through the table's
    elements or names at the end.  Each generator is compiled once per call
    into lookups in that table's addition and product tables
    (_CompiledGenerator), the same over a field and a domain with zero
    divisors, and evaluated incrementally along an enumeration of the first
    d - 1 variables.  Per prefix that passes the generators in those
    variables, the values of the last variable come from the value index of
    every generator that can be solved there, and each of them is tested on
    the other generators.
    """
    if len(p.variables) > POINT_VARIABLE_CAP:
        raise EnumerationBoundError(
            "%d variables exceed the enumeration cap of %d"
            % (len(p.variables), POINT_VARIABLE_CAP))
    if not domain.is_finite():
        raise EnumerationBoundError("point enumeration needs a finite domain")
    if domain.size() > POINT_FIELD_CAP:
        raise EnumerationBoundError(
            "domain with %d elements exceeds the enumeration cap of %d"
            % (domain.size(), POINT_FIELD_CAP))
    estimate = domain.size() ** len(p.variables)
    if estimate > POINT_ASSIGNMENT_BUDGET:
        raise EnumerationBoundError(
            "%d^%d = %d assignments exceed the point-enumeration budget of %d"
            % (domain.size(), len(p.variables), estimate, POINT_ASSIGNMENT_BUDGET))
    if domain == p.base:
        pres = p
    elif isinstance(p.base, FreeExtension):
        raise IncompatibleFieldError(
            "presentation over an extension enumerates over that extension")
    else:
        pres = base_change(p, domain)
    table = _domain_table(domain)
    # generators in few leading variables first: once one of them is nonzero
    # it rules out every prefix until one of its variables changes
    oracle = sorted((_CompiledGenerator(g, table) for g in pres.generators),
                    key=lambda c: c.depth)
    if not pres.variables:  # the one empty point; no last variable to solve
        return [()] if all(gen.vanishes(()) for gen in oracle) else []
    last = len(pres.variables) - 1
    early = [gen for gen in oracle if gen.depth < last]
    # the last variable is read off the value index of each generator that
    # can be solved there; the other generators of that depth test the rest
    solved = [gen for gen in oracle if gen.index is not None]
    more = solved[1:]
    tested = [gen for gen in oracle if gen.depth == last and gen.index is None]
    elems = table.elements
    everything = range(len(elems))
    found = []
    for prefix in _assignments(pres.variables[:-1], everything):
        for gen in early:
            if not gen.vanishes(prefix):
                break
        else:
            hits = solved[0].solutions(prefix) if solved else everything
            for gen in more:
                hits = hits & gen.solutions(prefix)
            for i in hits:
                idx = prefix + (i,)
                for gen in tested:
                    if not gen.vanishes(idx):
                        break
                else:
                    found.append(idx)
    found.sort()
    read = (table.names if text else elems).__getitem__
    return [tuple(map(read, idx)) for idx in found]


def _assignments(variables, elems):
    """Every tuple of elems, one entry per variable in order."""
    return itertools.product(elems, repeat=len(variables))


# The tables of the domains points_over has met, by domain equality.  Once
# _TABLE_CAP domains are held, a further domain gets a table per call and
# none is dropped, so a run over at most that many domains builds each once.
_TABLE_CAP = 64
_TABLES = {}


def _domain_table(domain):
    """The _DomainTable of a finite domain, shared by equal domains."""
    table = _TABLES.get(domain)
    if table is None:
        table = _DomainTable(domain)
        if len(_TABLES) < _TABLE_CAP:
            _TABLES[domain] = table
    return table


def _span(add, vectors, p):
    """The index of sum_k d_k * vectors[k] at each I = d_0 d_1 ... in base p."""
    span = None
    for v in vectors:  # span[I * p + a] = span[I] + a * v
        multiples = [0]
        for _ in range(p - 1):
            multiples.append(add[multiples[-1]][v])
        span = multiples if span is None else [
            add[s][t] for s in span for t in multiples]
    return span


class _DomainTable:
    """A finite domain of q elements as the point oracle reads it.

    elements lists them in sort-key order, so index tuples sort as the
    points they stand for, and zero, whose coordinates are the least, is
    index 0; index maps a sort key to its index, and names, built on first
    use, holds str of each element in the same order.  add[i][j] is the
    index of elements[i] + elements[j] and neg[i] that of -elements[i]: the
    base-p digits of index i, most significant first, are the F_p
    coordinates of element i (in turn those of each coordinate of an
    algebra; an F_{p^m} value, a trimmed tuple, sorts as its padded one),
    and add adds them mod p.

    mul[i][j] is the index of elements[i] * elements[j], over a field and a
    domain with zero divisors alike.  It is F_p-bilinear, so it follows from
    the m^2 products u_i u_j of the F_p basis u = elements[q/p], ...,
    elements[1] (q = p^m): the column of u_j, x u_j for every x, is the
    _span of the u_i u_j, and the row of x the _span of the columns read at
    x.  row(e) holds the index of x^e for every x, by square-and-multiply
    over mul, once per exponent.
    """

    __slots__ = ("add", "elements", "index", "mul", "neg", "_names", "_rows")

    def __init__(self, domain):
        elems = sorted(domain.elements(), key=lambda x: x.sort_key())
        self.elements = elems
        self.index = index = {x.sort_key(): i for i, x in enumerate(elems)}
        q = len(elems)
        p = next(k for k in range(2, q + 1) if q % k == 0)  # q = p^m
        # F_p first; each pass appends a low digit a to every index I: the
        # row of I * p + a is that of I, each entry times p followed by a + c
        add = shifted = [list(range(a, p)) + list(range(a)) for a in range(p)]
        while len(add) < q:
            add = [[s * p + t for s in row for t in shifted[a]]
                   for row in add for a in range(p)]
        self.add, self.neg = add, [row.index(0) for row in add]
        basis = [elems[u] for u in range(q // p, 0, -1) if q % u == 0]
        columns = [_span(add, [index[(u * v).sort_key()] for u in basis], p)
                   for v in basis]
        self.mul = [_span(add, row, p) for row in zip(*columns)]
        self._rows, self._names = {}, None

    @property
    def names(self):
        if self._names is None:
            self._names = list(map(str, self.elements))
        return self._names

    def row(self, e):
        """The index of x^e for every element x, e >= 1; once per exponent."""
        row = self._rows.get(e)
        if row is None:
            mul = self.mul
            row = self._rows[e] = power(
                list(range(len(mul))), e, None,
                lambda r, s: [mul[a][b] for a, b in zip(r, s)])
        return row


class _CompiledGenerator:
    """One generator of points_over, compiled from a _DomainTable.

    Points are tuples of element indices.  A term's depth is the last
    position it uses; partial[t] is the constant term plus every term of
    depth < t at the last point evaluated, kept for the first `valid`
    depths, so a new point recomputes only the depths from the first
    position where it differs from that point, and a point that agrees with
    it up to the generator's own depth reuses its verdict.

    Every coefficient, value and partial sum is an element index: a sum is
    add[s][v], a product mul[s][v], zero is 0.  The terms c * x^e in a
    single variable are tabulated over every element as mul[c][row(e)[i]]
    and summed into one table per depth.  A mixed term starts from c and
    multiplies in mul[...][row(e_k)[idx[k]]] for each of its factors at the
    point.  No element is multiplied once the table is built.

    When the generator's depth is the last variable and only a table sits
    there, index[v] holds the indices at which that table is v, and
    solutions() reads it at the negated partial sum.
    """

    __slots__ = ("add", "depth", "index", "levels", "mul", "neg", "partial",
                 "seen", "valid", "verdict")

    def __init__(self, g, table):
        add, mul = table.add, table.mul
        const = 0
        tables, mixed = {}, {}
        for exps, c in g.terms.items():
            used = [(k, e) for k, e in enumerate(exps) if e]
            c = table.index[c.sort_key()]
            if not used:
                const = c
                continue
            depth = used[-1][0]
            if len(used) == 1:
                row = list(map(mul[c].__getitem__, table.row(used[0][1])))
                old = tables.get(depth)
                tables[depth] = row if old is None else [
                    add[a][b] for a, b in zip(old, row)]
            else:
                mixed.setdefault(depth, []).append(
                    (c, [(k, table.row(e)) for k, e in used]))
        self.add, self.mul, self.neg = add, mul, table.neg
        self.depth = max([-1, *tables, *mixed])
        self.levels = [(tables.get(t), mixed.get(t, ()))
                       for t in range(self.depth + 1)]
        self.partial = [const] * (self.depth + 2)
        self.seen, self.valid = (), 0
        self.verdict = const == 0
        self.index = None
        top = tables.get(self.depth)
        if self.depth == len(g.variables) - 1 and top is not None \
                and self.depth not in mixed:
            index = [[] for _ in top]  # one list per element
            for i, s in enumerate(top):
                index[s].append(i)
            self.index = list(map(frozenset, index))

    def _advance(self, idx, stop):
        """Bring partial[1 .. stop] up to the point idx; False when they
        already were."""
        seen, t = self.seen, 0
        top = min(stop, self.valid)
        while t < top and idx[t] == seen[t]:
            t += 1
        if t == stop:
            return False
        partial, add, mul = self.partial, self.add, self.mul
        for t in range(t, stop):
            table, mixed = self.levels[t]
            s = partial[t]
            if table is not None:
                s = add[s][table[idx[t]]]
            for v, factors in mixed:
                for k, row in factors:
                    v = mul[v][row[idx[k]]]
                s = add[s][v]
            partial[t + 1] = s
        self.seen, self.valid = idx, stop
        return True

    def vanishes(self, idx):
        """Whether the generator is zero at the point with these indices."""
        if self._advance(idx, self.depth + 1):
            self.verdict = self.partial[self.depth + 1] == 0
        return self.verdict

    def solutions(self, prefix):
        """The indices i of the last variable at which the generator is zero
        at prefix + (i,); needs `index`."""
        self._advance(prefix, self.depth)
        return self.index[self.neg[self.partial[self.depth]]]


def psi_apply(result, point):
    """Map a base point of the restriction to the corresponding point of the
    original presentation over the extension (and verify it is one)."""
    pres = result.presentation
    if len(point) != len(pres.variables):
        raise ValueError("point has wrong length")
    assignment = dict(zip(pres.variables, point))
    for g in pres.generators:
        if not g.evaluate(assignment).is_zero():
            raise ValueError("input is not a point of the restriction")
    ext = result.extension
    image = {}
    for v in result.original.variables:
        coords = tuple(assignment[name] for name in result.coordinate_map[v])
        image[v] = AlgebraElement(ext, coords)
    for f in result.original.generators:
        if not f.evaluate(image).is_zero():
            raise ValueError("expanded point fails the original generators")
    return tuple(image[v] for v in result.original.variables)
