import itertools
from fractions import Fraction

import pytest

from weilres import (FunctionField, Poly, PrimeField, RationalField,
                     base_change, from_minimal_polynomial, lognorm_max,
                     parse_poly)
from weilres.extensions import AlgebraElement, MonicPoly, mult_matrix
from weilres.fields import Field, _needs_parens, _udivmod, power
from weilres.errors import UnsupportedOperationError
from weilres.linalg import berkowitz_charpoly, mat_identity, mat_is_zero, mat_mul
from weilres.poly import PARSE_DEPTH_BOUND, _check_power
from weilres.restriction import block_names


@pytest.fixture
def f2():
    return PrimeField(2)


@pytest.fixture
def f3():
    return PrimeField(3)


@pytest.fixture
def rationals():
    return RationalField()


@pytest.fixture
def q2():
    return RationalField(padic=2)


@pytest.fixture
def q3():
    return RationalField(padic=3)


@pytest.fixture
def k2():
    return FunctionField(2, Fraction(1, 2))


@pytest.fixture
def k3():
    return FunctionField(3, Fraction(1, 2))


@pytest.fixture
def f4_ext(f2):
    return from_minimal_polynomial(f2, parse_poly("w^2 + w + 1", f2, ("w",)), "w")


@pytest.fixture
def f9_ext(f3):
    return from_minimal_polynomial(f3, parse_poly("t^2 + 1", f3, ("t",)), "t")


@pytest.fixture
def sqrt2_2adic(q2):
    return from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)), "t")


def naive_expand_element(f, ext, variables=None):
    """Reference for restriction.expand_element: each term's coefficient,
    as constant polynomial coordinates, times every power of the generic
    element u_1 e_1 + ... + u_n e_n it needs, each taken by square-and-multiply
    with algebra products, the terms summed as algebra elements."""
    variables = tuple(variables) if variables is not None else f.variables
    base, n = ext.base, ext.rank
    all_blocks = tuple(name for v in variables for name in block_names(v, n))
    images = {v: AlgebraElement(ext, tuple(
        Poly.variable(base, name).with_variables(all_blocks)
        for name in block_names(v, n))) for v in variables}
    acc = AlgebraElement(ext, tuple(Poly.zero(base, all_blocks) for _ in range(n)))
    for exps, coeff in f.terms.items():
        term = AlgebraElement(ext, tuple(
            Poly.constant(base, c, all_blocks) for c in coeff.coords))
        for v, e in zip(f.variables, exps):
            if e:
                term = term * images[v] ** e
        acc = acc + term
    return tuple(c.with_variables(all_blocks) for c in acc.coords)


def reference_to_string(poly, order=None):
    """Reference for poly.render: Poly.to_string before render, the terms
    sorted by a (total degree, exponents) key, each printed by the former
    fields._term_string rules and joined by the former += loop of
    fields._join_signed."""
    variables = tuple(order) if order is not None else poly.variables
    aligned = poly.with_variables(variables)
    keyed = sorted(aligned.terms.items(),
                   key=lambda item: (sum(item[0]), item[0]), reverse=True)
    parts = [_reference_term_string(variables, exps, coeff) for exps, coeff in keyed]
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def _reference_term_string(variables, exps, coeff):
    mono = "*".join(
        v if e == 1 else "%s^%d" % (v, e)
        for v, e in zip(variables, exps) if e)
    c = str(coeff)
    if not mono:
        return "(%s)" % c if _needs_parens(c) else c
    if c == "1":
        return mono
    if c == "-1":
        return "-" + mono
    if _needs_parens(c):
        c = "(%s)" % c
    return c + "*" + mono


def generic_sum_of_products(pairs):
    """Reference for the packed kernel: sum a_i * b_i term by term with
    FieldElement products and sums, over the variables of the operands in
    order of first occurrence; the constructor drops the zeros."""
    variables = []
    for pair in pairs:
        for f in pair:
            variables += [v for v in f.variables if v not in variables]
    domain = pairs[0][0].domain
    terms = {}
    for a, b in pairs:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exps = [0] * len(variables)
                for f, es in ((a, e1), (b, e2)):
                    for v, e in zip(f.variables, es):
                        exps[variables.index(v)] += e
                key = tuple(exps)
                terms[key] = terms.get(key, domain.zero()) + c1 * c2
    return Poly(domain, variables, terms)


class GenericPolyRing:
    """A PolyRing without the packed kernel: over it berkowitz_charpoly runs
    its generic iteration on Poly arithmetic, the chain whose values and
    variable lists PolyRing.charpoly must give."""

    def __init__(self, domain):
        self.domain = domain

    def zero(self):
        return Poly.zero(self.domain)

    def one(self):
        return Poly.constant(self.domain, self.domain.one())


def generic_algebra_product(a, b, table, zero):
    """Reference for AlgebraElement products with polynomial or scalar
    coordinates: one Poly or FieldElement product per pair of nonzero
    coordinates, times each c_ijk of table[i][j] (None where it is 1) and
    summed per coordinate k by the operators of the coordinates; zero where
    no product lands."""
    out = [None] * len(table)
    for x, row in zip(a, table):
        if x.is_zero():
            continue
        for y, cell in zip(b, row):
            if y.is_zero():
                continue
            prod = x * y
            for k, c in cell:
                term = prod if c is None else prod * c
                out[k] = term if out[k] is None else out[k] + term
    return tuple(zero if c is None else c for c in out)


def generic_monic_product(p, q):
    """Reference for MonicPoly.__mul__: the convolution of [1, c_1, ...]
    with [1, d_1, ...] by FieldElement products and sums, term by term."""
    one = p.ring.one()
    a = [one] + list(p.coefficients)
    b = [one] + list(q.coefficients)
    out = [p.ring.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return MonicPoly(p.ring, out[1:])


def reference_spectral_value(p):
    """Reference for spectral_value: the LogNorm maximum of lognorm(c_i) / i."""
    return lognorm_max(p.ring.lognorm(c) / i
                       for i, c in enumerate(p.coefficients, start=1))


def field_element_charpoly(b):
    """Reference for charpoly of b with scalar coordinates: [c_1, ..., c_n]
    by berkowitz_charpoly on the FieldElement matrix of b itself, nothing
    cleared, so the iteration takes linalg's generic dot on FieldElements."""
    return berkowitz_charpoly(mult_matrix(b), b.extension.base)[1:]


def uncleared_is_nilpotent(b):
    """Reference for is_nilpotent: the n-th power of the multiplication
    matrix of b itself, denominators and all, compared with zero."""
    n = b.extension.rank
    return mat_is_zero(power(mult_matrix(b), n, None, dense_mat_mul))


def dense_mat_mul(a, b):
    """Reference for linalg.mat_mul: every entry the full dot product, the
    products with a zero operand included."""
    n, k, m = len(a), len(b), len(b[0])
    bt = tuple(zip(*b))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * bt[j][0]
            for l in range(1, k):
                acc = acc + a[i][l] * bt[j][l]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def quotient_building_ugcd(a, b, p):
    """Reference for fields._ugcd: Euclid by full division steps, each
    quotient built and thrown away, the last nonzero remainder made monic."""
    while b:
        _, r = _udivmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def dense_structure(ext):
    """The n*n*n array of the structure constants c_ijk of ext, zeros
    included, read off its sparse table."""
    n, base = ext.rank, ext.base
    out = [[[base.zero()] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(ext.sparse_structure):
        for j, cell in enumerate(row):
            for k, c in cell:
                out[i][j][k] = base.one() if c is None else c
    return out


def dense_power_table(base, m):
    """Reference for the table of from_minimal_polynomial(base, m): the
    dense array whose cell (i, j) is s^(i+j) reduced mod the monic m, each
    power s times the last with FieldElement arithmetic."""
    coeffs = m.dense_coefficients()
    n = len(coeffs) - 1
    zero = base.zero()
    powers, cur = [], [base.one()] + [zero] * (n - 1)
    for _ in range(2 * n - 1):
        powers.append(cur)
        top = cur[-1]
        cur = [v - c * top for v, c in zip([zero] + cur[:-1], coeffs)]
    return [[powers[i + j] for j in range(n)] for i in range(n)]


def dense_tensor_structure(b1, b2):
    """Reference for the table of tensor_product(b1, b2): the dense loop
    over every index of both factors' arrays, zeros skipped, summing
    c_ikm c'_jlr into cell ((i, j), (k, l)) at (m, r)."""
    s1, s2 = dense_structure(b1), dense_structure(b2)
    n1, n2 = b1.rank, b2.rank
    size = n1 * n2
    structure = [[[b1.base.zero()] * size for _ in range(size)] for _ in range(size)]
    for i in range(n1):
        for k in range(n1):
            for j in range(n2):
                for l in range(n2):
                    cell = structure[i * n2 + j][k * n2 + l]
                    for m in range(n1):
                        if s1[i][k][m].is_zero():
                            continue
                        for r in range(n2):
                            if not s2[j][l][r].is_zero():
                                cell[m * n2 + r] += s1[i][k][m] * s2[j][l][r]
    return structure


def reference_validate(ext):
    """Reference for FreeExtension._validate: the same checks in the same
    order by generic_algebra_product of basis coordinate vectors, with
    FieldElement arithmetic throughout; raises ValueError with the same
    messages."""
    n = ext.rank
    structure = dense_structure(ext)
    for i in range(n):
        for j in range(i):
            if structure[i][j] != structure[j][i]:
                raise ValueError("structure constants are not commutative at (%d, %d)"
                                 % (i, j))

    def times(a, b):
        return generic_algebra_product(a, b, ext.sparse_structure, ext.base.zero())

    basis = [ext.basis_element(j).coords for j in range(n)]
    for j in range(n):
        if times(ext.unit, basis[j]) != basis[j]:
            raise ValueError("unit law fails on basis vector %d" % j)
    for i in range(n):
        for j in range(i + 1):
            e_ij = times(basis[i], basis[j])
            for k in range(n):
                if times(e_ij, basis[k]) != times(basis[i], times(basis[j], basis[k])):
                    raise ValueError(
                        "associativity fails on basis triple (%d, %d, %d)" % (i, j, k))


def charpoly_matrix_value(mp, matrix, ring):
    """chi(M) for a monic polynomial chi and a square matrix M over ring, by
    Horner's rule: acc <- acc*M + c*I."""
    n = len(matrix)
    acc = mat_identity(n, ring)
    for c in mp.coefficients:
        acc = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                    for i, row in enumerate(mat_mul(acc, matrix)))
    return acc


def naive_charpoly_coeffs(matrix, ring):
    """Independent oracle: cofactor expansion of det(z*I - M) over ring[z],
    its products taken by generic_sum_of_products.

    Returns the coefficient list [1, c_1, ..., c_n] as polynomials over the
    underlying domain (constants when the matrix entries are scalars).
    """
    n = len(matrix)
    dom = ring.domain if hasattr(ring, "domain") else ring
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = _lift_entry(-matrix[i][j], dom)
            if i == j:
                poly = poly + Poly.variable(dom, "_z")
            row.append(poly)
        entries.append(row)
    det = _naive_det(entries)
    return [_z_coefficient(det, k, dom) for k in range(n, -1, -1)]


def _lift_entry(entry, dom):
    if isinstance(entry, Poly):
        return entry
    return Poly.constant(dom, entry)


def _naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = generic_sum_of_products([(rows[0][j], _naive_det(minor))])
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def _z_coefficient(det, k, dom):
    if "_z" not in det.variables:
        return det if k == 0 else Poly.zero(dom, det.variables)
    z_index = det.variables.index("_z")
    terms = {}
    for exps, c in det.terms.items():
        if exps[z_index] != k:
            continue
        reduced = tuple(e for i, e in enumerate(exps) if i != z_index)
        terms[reduced] = c
    reduced_vars = tuple(v for v in det.variables if v != "_z")
    return Poly(dom, reduced_vars, terms)


def dense_points(pres, domain):
    """Independent oracle for points_over: every assignment over the domain's
    elements, each generator evaluated from scratch by Poly.evaluate, sorted
    by the elements' sort keys.  The bounds are not checked."""
    if pres.base != domain:
        pres = base_change(pres, domain)
    points = []
    for values in itertools.product(domain.elements(), repeat=len(pres.variables)):
        assignment = dict(zip(pres.variables, values))
        if all(g.evaluate(assignment).is_zero() for g in pres.generators):
            points.append(values)
    points.sort(key=lambda pt: tuple(x.sort_key() for x in pt))
    return points


# ---------------------------------------------------------------------------
# Reference for poly.parse_poly: the recursive-descent parser that builds
# every atom as a Poly and every term by Poly products and powers, over a
# per-character scan.


class ReferenceTokens:
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


def reference_parse_poly(text, domain, variables=()):
    variables = tuple(variables)
    toks = ReferenceTokens(text)
    poly = _reference_expr(toks, domain, variables)
    if toks.peek() is not None:
        raise ValueError("trailing input in polynomial %r" % text)
    if variables:
        extra = tuple(v for v in poly.variables if v not in variables)
        poly = poly.with_variables(variables + extra)
    return poly


def _reference_expr(toks, domain, variables):
    negate = False
    if toks.peek() == "-":
        toks.next()
        negate = True
    acc = _reference_term(toks, domain, variables)
    if negate:
        acc = -acc
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        term = _reference_term(toks, domain, variables)
        acc = acc + term if op == "+" else acc - term
    return acc


def _reference_term(toks, domain, variables):
    acc = _reference_factor(toks, domain, variables)
    while toks.peek() in ("*", "/"):
        op, _ = toks.next()
        rhs = _reference_factor(toks, domain, variables)
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
                inv = c.extension.scalar(c.scalar_part().inverse())
                acc = acc.scale(inv)
            else:
                raise UnsupportedOperationError(
                    "division is only defined by invertible constants")
    return acc


def _reference_factor(toks, domain, variables):
    first = toks.toks[toks.pos] if toks.pos < len(toks.toks) else None
    base = _reference_atom(toks, domain, variables)
    if toks.peek() == "^":
        toks.next()
        kind, val = toks.next()
        if kind != "int":
            raise ValueError("exponent must be a non-negative integer")
        scalar = _reference_base_scalar(first, domain, variables)
        _check_power(base if scalar is None else Poly.constant(domain.base, scalar), val)
        return base ** val
    return base


def _reference_base_scalar(tok, domain, variables):
    """The base scalar an integer or base-field symbol token stands for over
    an extension, whose power is bounded over the base; None otherwise."""
    if isinstance(domain, Field) or tok is None:
        return None
    kind, val = tok
    if kind == "int":
        return domain.base.coerce(val)
    if kind == "name" and val not in variables and val not in domain.basis_names \
            and val != domain.symbol:
        return domain.base.symbol_constant(val)
    return None


def _reference_atom(toks, domain, variables):
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
        inner = _reference_expr(toks, domain, variables)
        closing = toks.next()
        if closing[0] != ")":
            raise ValueError("unbalanced parentheses")
    else:
        inner = -_reference_atom(toks, domain, variables)
    toks.depth -= 1
    return inner
