"""Property tests of the exact kernel's fast paths against plain references.

The sparse AlgebraElement product is checked against the dense sum over all
structure constants, the Poly operations that skip the constructor's zero
filter against that filter, the raw zero and one tests against equality with
the coerced constants, the function field's polynomial shortcuts against its
gcd path, the fraction-free characteristic polynomial over F_p(x) against
Berkowitz on the unscaled matrix and the cofactor oracle, the one
square-and-multiply loop against repeated products, univariate division
against its defining identity, the remainder-only gcd against Euclid by full
divisions, and the matrix product that skips zero operands against the dense
loop.  The compiled point oracle, on element indices summed by the
domain's addition table, is checked against the plain enumeration over F_p,
F_{p^m} and algebras over both, with sums of many terms.  The packed F_p and F_p(x) kernel behind
PolyRing.charpoly is checked against the generic Berkowitz iteration on Poly
arithmetic, term by term over the same variable lists, and against the
cofactor oracle: over F_2(x) in slots of one byte (read with one mask) and
two, over F_3(x), F_7(x) and F_13(x) in slots whose bytes are read with
residue tables, over F_1009(x) in canonical slots of two bytes, on zero
matrices and rows, with a coefficient with a denominator against its
fallback and with mixed domains against the domain check.  The
AlgebraElement product of polynomial coordinates, over F_p and F_p(x), on
monogenic and written-out tables, with constants and coordinates with
denominators, is checked against the generic loop, and that of scalar
coordinates, taken on raw values over the extension's cached raw table,
against the same loop on FieldElements over F_p, F_{p^m}, Q, Q_p and F_p(x).  The unscaling c / d^j, a
shift for d = x^v and one cached d^-j otherwise, is checked against the gcd
path, the shift to run no gcd and the default to take one power of d^-1 per
exponent j, the columns of
mult_matrix against the products b*e_j, chi(r) read off chi(r * generic)
by selecting terms against Poly.evaluate at the unit, and chi(r * generic)
built from the cleared rows of mult_matrix(r) against charpoly of the
algebra product.  Over Q and Q_2 the cleared characteristic polynomial is
checked against the cofactor oracle on the uncleared matrix, and `cleared`
against the lcm of the denominators over Q and the least monic clearing
polynomial over F_p(x).
The validation of structure tables on raw values is checked against a
reference on the generic loop over random valid and altered tables.  The
disc log-radii read off the symbolic characteristic polynomial are checked
against spectral_radius.  The F_{p^m} inverse, a^(q-2), is checked to
invert every unit.  Canonical polynomial text parses back to the same
polynomial over every field kind.  F_{p^m} values stay trimmed tuples whose
order is that of their zero-padded coordinate vectors, the shared term
printer writes F_p polynomials as the former dedicated printer did, dense
coefficient lists rebuild their polynomial, and fields are equal exactly
when their constructions are.  Runs are derandomized so every run tries the
same examples.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import (FunctionField, GaloisField, IncompatibleFieldError, Poly,
                     PolyRing, PrimeField, RationalField,
                     from_minimal_polynomial, parse_poly)
from weilres import fields
from weilres.extensions import (AlgebraElement, FreeExtension, charpoly,
                                generic_charpoly, mult_matrix, structure_table,
                                tensor_product)
from weilres.fields import (FieldElement, _RatFunc, _uadd, _udivmod, _ugcd,
                            _umul, _ustr, _utrim, power)
from weilres.linalg import berkowitz_charpoly, mat_identity, mat_mul
from weilres.restriction import (Presentation, _assignments, _homogeneous_value,
                                 disc_generators, points_over)
from weilres.spectral import spectral_radius

from conftest import (GenericPolyRing, dense_mat_mul, dense_points,
                      dense_structure, generic_algebra_product, generic_sum_of_products,
                      naive_charpoly_coeffs, quotient_building_ugcd,
                      reference_validate)

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


def _monogenic(base, text, symbol="t"):
    return from_minimal_polynomial(base, parse_poly(text, base, (symbol,)), symbol)


def _extensions():
    f2, f3, q = PrimeField(2), PrimeField(3), RationalField()
    f4 = _monogenic(f2, "w^2 + w + 1", "w")
    dual2 = _monogenic(f2, "t^2")
    f9 = _monogenic(f3, "t^2 + 1")
    cubic3 = _monogenic(f3, "t^3 + 2*t + 1")
    sqrt2 = _monogenic(q, "t^2 - 2")
    gauss = _monogenic(q, "s^2 + 1", "s")
    return [
        f4, dual2, _monogenic(f2, "t^4 + t + 1"), f9, cubic3,
        _monogenic(f3, "t^3"), sqrt2, _monogenic(q, "t^3 - t - 1"),
        tensor_product(f4, dual2), tensor_product(f9, f9),
        tensor_product(cubic3, _monogenic(f3, "s^2 - 1", "s")),
        tensor_product(sqrt2, gauss),
    ]


EXTENSIONS = _extensions()
VARIABLE_LISTS = [("u", "v"), ("v", "u"), ("u",)]


def _scalar(base, n, d):
    return base.coerce(Fraction(n, d) if isinstance(base, RationalField) else n)


@st.composite
def scalars(draw, base):
    return _scalar(base, draw(st.integers(-4, 4)), draw(st.integers(1, 3)))


def random_elements(domain):
    return st.integers(0, 2 ** 16).map(
        lambda seed: domain.random_element(random.Random(seed)))


@st.composite
def polys(draw, base, coefficients=scalars):
    variables = draw(st.sampled_from(VARIABLE_LISTS))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in variables)
        terms[exps] = draw(coefficients(base))
    return Poly(base, variables, terms)


@st.composite
def element_pairs(draw):
    ext = draw(st.sampled_from(EXTENSIONS))
    coord = polys(ext.base) if draw(st.booleans()) else scalars(ext.base)
    # zero coordinates are common so the skipped branches run too
    coord = st.one_of(coord, st.just(ext.base.zero()))
    pair = []
    for _ in range(2):
        pair.append(ext.element([draw(coord) for _ in range(ext.rank)]))
    return ext, pair[0], pair[1]


def dense_product(ext, a, b):
    """sum over all i, j, k of a_i b_j c_ijk e_k, zeros included."""
    n, structure = ext.rank, dense_structure(ext)
    if any(isinstance(c, Poly) for c in a + b):
        a = ext.element(a).coords
        b = ext.element(b).coords
        out = [Poly.zero(ext.base) for _ in range(n)]
    else:
        out = [ext.base.zero() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] = out[k] + a[i] * b[j] * structure[i][j][k]
    return tuple(out)


@SETTINGS
@given(element_pairs())
def test_sparse_product_matches_dense_reference(case):
    ext, x, y = case
    product = x * y
    assert isinstance(product, AlgebraElement)
    assert product.coords == dense_product(ext, x.coords, y.coords)
    assert (y * x).coords == product.coords


# F_2[t]/(t^2) has zero divisors, so products of nonzero coefficients vanish
POLY_DOMAINS = [PrimeField(3), RationalField(), FunctionField(2), EXTENSIONS[1]]


@SETTINGS
@given(st.sampled_from(POLY_DOMAINS), st.data())
def test_poly_operations_keep_no_zero_coefficients(domain, data):
    p = data.draw(polys(domain, random_elements))
    q = data.draw(polys(domain, random_elements))
    c = data.draw(random_elements(domain))
    results = [p + q, p - q, p + (-p), -p, p * q, p.scale(c),
               p.with_variables(("w", "v", "u"))]
    for r in results:
        assert not any(coeff.is_zero() for coeff in r.terms.values())
        assert r == Poly(domain, r.variables, dict(r.terms))
    assert (p + (-p)).is_zero()
    # under a repeated name, re-alignment merges terms and their sum may vanish
    twice = Poly(domain, ("u", "u"), {(1, 0): c, (0, 1): -c})
    assert twice.with_variables(("u",)).is_zero()
    assert (p - q) + q == p
    assert p.scale(c) == p * Poly.constant(domain, c)


FIELDS = [
    PrimeField(5),
    GaloisField(3, (1, 0, 1), "t"),
    RationalField(),
    RationalField(padic=3),
    FunctionField(3, Fraction(1, 2)),
]


@SETTINGS
@given(st.sampled_from(FIELDS), st.integers(0, 2 ** 32))
def test_raw_zero_and_one_tests_agree_with_equality(field, seed):
    rng = random.Random(seed)
    a = field.random_element(rng)
    zero, one = field.coerce(0), field.coerce(1)
    candidates = [a, a - a, a * a, zero, one, -one, one + one, one + one + one]
    if not a.is_zero():
        candidates.append(a * a.inverse())
    for x in candidates:
        assert x.is_zero() == (x == zero)
        assert x.is_one() == (x == one)
    assert field.zero() is field.zero() and field.zero() == zero
    assert field.one() is field.one() and field.one() == one


@st.composite
def function_field_elements(draw, k):
    """Elements of F_p(x) whose denominators carry powers of x and more."""
    a = draw(random_elements(k))
    return a / k.variable() ** draw(st.integers(0, 3))


@SETTINGS
@given(st.sampled_from([2, 3, 5]), st.data())
def test_function_field_polynomial_shortcut_matches_gcd_path(p, data):
    k = FunctionField(p, Fraction(1, 2))
    coeff = st.integers(0, p - 1)
    num = tuple(data.draw(st.lists(coeff, min_size=1, max_size=4)))
    den = tuple(data.draw(st.lists(coeff, min_size=1, max_size=3))) + (1,)
    shortcut = k._make(num, (1,))
    # num*den/den reaches the same value through the gcd and the divisions,
    # and num*c/c through the normalisation of a constant denominator
    assert k._make(_umul(num, den, p), den) == shortcut
    c = data.draw(st.integers(1, p - 1))
    assert k._make(_umul(num, (c,), p), (c,)) == shortcut
    assert shortcut.is_zero() == (not any(num))
    # sums and products of polynomials skip _make; they must equal its
    # result, and a sum that cancels must be the canonical zero
    other = k._make(tuple(data.draw(st.lists(coeff, max_size=4))), (1,))
    a, b = shortcut.value, other.value
    assert k._add(a, b) == k._make(_uadd(a.num, b.num, p), (1,)).value
    assert k._mul(a, b) == k._make(_umul(a.num, b.num, p), (1,)).value
    for value in (k._add(a, b), k._mul(a, b)):
        assert value.den == (1,) and value.num == _utrim(value.num)
    # with a denominator on either side the gcd path still runs
    r = data.draw(function_field_elements(k)).value
    for x, y in ((a, r), (r, a), (r, r)):
        assert k._add(x, y) == k._make(
            _uadd(_umul(x.num, y.den, p), _umul(y.num, x.den, p), p),
            _umul(x.den, y.den, p)).value
        assert k._mul(x, y) == k._make(_umul(x.num, y.num, p),
                                       _umul(x.den, y.den, p)).value
    zero = k.zero().value
    assert k._add(a, k._neg(a)) == zero and k._add(zero, zero) == zero
    assert k._mul(a, zero) == zero
    assert (shortcut - shortcut).value == _RatFunc((), (1,))


def _function_fields():
    cases = []
    for p in (2, 3):
        k = FunctionField(p, Fraction(1, 2))
        cases += [_monogenic(k, "t^2 + t/x + 1"), _monogenic(k, "t^3 - x"),
                  _monogenic(k, "t^4 + t/(x + 1) + x")]
    return cases


FUNCTION_EXTENSIONS = _function_fields()


@st.composite
def function_charpoly_cases(draw):
    ext = draw(st.sampled_from(FUNCTION_EXTENSIONS))
    k = ext.base
    if draw(st.booleans()):
        coord = function_field_elements(k)
    else:
        coord = polys(k, function_field_elements)
    return ext.element([draw(coord) for _ in range(ext.rank)])


@SETTINGS
@given(function_charpoly_cases())
def test_fraction_free_charpoly_matches_plain_berkowitz(b):
    chi = charpoly(b)
    matrix = mult_matrix(b)
    assert chi.ring == b.ring
    assert list(chi.coefficients) == berkowitz_charpoly(matrix, b.ring)[1:]
    if b.extension.rank <= 3:
        lifted = [c if isinstance(c, Poly) else Poly.constant(b.extension.base, c)
                  for c in chi.coefficients]
        assert lifted == naive_charpoly_coeffs(matrix, b.ring)[1:]


def _rational_extensions():
    q, q2 = RationalField(), RationalField(padic=2)
    return [_monogenic(q, "t^2 - 2"), _monogenic(q, "t^3 - t/2 + 1/3"),
            _monogenic(q2, "t^2 - 2"), _monogenic(q2, "t^3 + t^2/4 - 3/2"),
            tensor_product(_monogenic(q, "t^2 - 1/2"), _monogenic(q, "s^2 + 1", "s"))]


RATIONAL_EXTENSIONS = _rational_extensions()


@SETTINGS
@given(st.sampled_from(RATIONAL_EXTENSIONS), st.booleans(), st.data())
def test_cleared_charpoly_over_q_matches_the_uncleared_oracle(ext, symbolic, data):
    """Over Q and Q_2, charpoly clears the denominators of the coordinates
    and of the structure constants and divides c_j by d^j; the cofactor
    oracle expands the multiplication matrix of b itself."""
    coord = polys(ext.base) if symbolic else scalars(ext.base)
    b = ext.element([data.draw(coord) for _ in range(ext.rank)])
    chi = charpoly(b)
    assert chi.ring == b.ring
    lifted = [c if isinstance(c, Poly) else Poly.constant(ext.base, c)
              for c in chi.coefficients]
    assert lifted == naive_charpoly_coeffs(mult_matrix(b), b.ring)[1:]


@SETTINGS
@given(st.sampled_from([2, 3]), st.data())
def test_cleared_clears_every_denominator(p, data):
    k = FunctionField(p, Fraction(1, 2))
    elements = data.draw(st.lists(function_field_elements(k), max_size=5))
    d, numerators = k.cleared(elements)
    assert d == _utrim(d) and d[-1] == 1
    product = (1,)
    for a, num in zip(elements, numerators, strict=True):
        scaled = (k._make(d, (1,)) * a).value
        assert scaled.den == (1,)
        assert num == scaled.num
        product = _umul(product, a.value.den, p)
    assert _udivmod(product, d, p)[1] == ()
    # the least such d: the denominators factor into degrees <= 2, and
    # dividing out any such factor of d leaves some denominator uncleared
    for low in itertools.product(range(p), repeat=2):
        for q in (low[:1] + (1,), low + (1,)):
            quotient, rest = _udivmod(d, q, p)
            if not rest:
                assert any(_udivmod(quotient, a.value.den, p)[1]
                           for a in elements)
    assert k.cleared([]) == ((1,), [])


@SETTINGS
@given(st.sampled_from([None, 2, 3]),
       st.lists(st.fractions(max_denominator=60), max_size=5))
def test_cleared_over_q_takes_the_lcm(padic, values):
    q = RationalField(padic=padic)
    d, numerators = q.cleared([q.coerce(v) for v in values])
    assert d == math.lcm(*(v.denominator for v in values))
    assert all(type(n) is int and n == v * d
               for n, v in zip(numerators, values, strict=True))
    assert q.cleared([]) == (1, [])


def _reversed_basis(ext):
    """ext on its basis in reverse order, so its unit is the last vector."""
    structure = [[list(reversed(cell)) for cell in reversed(row)]
                 for row in reversed(dense_structure(ext))]
    return FreeExtension(ext.base, tuple(reversed(ext.basis_names)),
                         structure_table(ext.base, structure), tuple(reversed(ext.unit)))


# the raw extension's unit is not e_1, so evaluating chi at the unit's
# coordinates does more than read off constant terms
DISC_EXTENSIONS = FUNCTION_EXTENSIONS + [_reversed_basis(FUNCTION_EXTENSIONS[4])]


@SETTINGS
@given(st.sampled_from(DISC_EXTENSIONS), st.data())
def test_disc_lognorms_are_spectral_radii(ext, data):
    coord = st.one_of(function_field_elements(ext.base), st.just(ext.base.zero()))
    radius = [ext.element([data.draw(coord) for _ in range(ext.rank)])
              for _ in range(data.draw(st.integers(1, 2)))]
    block = tuple("x_%d" % (j + 1) for j in range(ext.rank))
    _, meta = disc_generators(ext, radius, block)
    for i, r in enumerate(radius, start=1):
        rho = spectral_radius(r)
        for j in range(1, ext.rank + 1):
            assert meta["y%d_%d" % (i, j)]["scaled_lognorm"] == str(rho * j)


@SETTINGS
@given(st.sampled_from([2, 3]), st.data())
def test_unscale_matches_make(p, data):
    """c / d^j, a shift when d is a power of x and the product by the cached
    d^-j otherwise, is _make(c, d^j).  d is a product of powers of x, of the
    other linear factors and of an irreducible quadratic; the numerator
    carries powers of the same factors, so the shift meets orders below and
    above j*v and the product cancels common factors."""
    k = FunctionField(p, Fraction(1, 2))
    quadratic = (1, 1, 1) if p == 2 else (1, 0, 1)
    pieces = [(0, 1)] + [(a, 1) for a in range(1, p)] + [quadratic]
    mul = lambda a, b: _umul(a, b, p)
    digit = st.integers(0, p - 1)
    d, num = (1,), _utrim(data.draw(st.lists(digit, min_size=1, max_size=4)))
    for f in pieces:
        d = mul(d, power(f, data.draw(st.integers(0, 3)), lambda: (1,), mul))
        num = mul(num, power(f, data.draw(st.integers(0, 4)), lambda: (1,), mul))
    j = data.draw(st.integers(1, 3))
    unscale = k.unscaler(k._make(d, (1,)))
    assert unscale(k._make(num, (1,)), j) == k._make(num, power(d, j, None, mul))


def test_unscale_by_a_power_of_x_runs_no_gcd(monkeypatch):
    """d = x^v unscales by a shift of the numerator: no gcd, and the same
    value as _make, for numerator orders below, at and above j*v."""
    k, calls = FunctionField(3, Fraction(1, 2)), []
    monkeypatch.setattr(fields, "_ugcd", lambda *a: calls.append(a) or _ugcd(*a))
    unscale = k.unscaler(k._make((0, 0, 1), (1,)))
    numerators = [(0,) * n + (2, 1) for n in range(8)]
    got = {(num, j): unscale(k._make(num, (1,)), j)
           for num in numerators for j in (1, 2, 3)}
    assert calls == []
    for (num, j), value in got.items():
        assert value == k._make(num, (0,) * (2 * j) + (1,))
    assert unscale(k.zero(), 2) == k.zero()


@pytest.mark.parametrize("base, d", [
    (FunctionField(2, Fraction(1, 2)), ((1, 1, 0, 1, 1, 0, 1), (1,))),
    (FunctionField(3, Fraction(1, 2)), ((0, 1, 0, 1), (1,))),
    (RationalField(), Fraction(12))], ids=["f2x", "f3x", "q"])
def test_default_unscale_takes_one_power_per_exponent(monkeypatch, base, d):
    """Any other d is unscaled by d^-j, taken once per exponent j however
    many coefficients share it: (x + 1)^3*(x^2 + x + 1) over F_2(x),
    x*(x^2 + 1) over F_3(x) and 12 over Q."""
    d = base._make(*d) if isinstance(base, FunctionField) else base.coerce(d)
    exponents = []
    pow_ = FieldElement.__pow__
    monkeypatch.setattr(FieldElement, "__pow__",
                        lambda a, j: exponents.append(j) or pow_(a, j))
    unscale = base.unscaler(d)
    rng = random.Random(0)
    coefficients = [base.random_element(rng) for _ in range(20)]
    got = [(c, j, unscale(c, j)) for j in (1, 2, 3, 2, 1) for c in coefficients]
    assert sorted(exponents) == [1, 2, 3]
    for c, j, value in got:
        assert value == c / pow_(d, j)


def _sheared_basis(ext):
    """ext on the basis e_1 + e_2, e_2, ..., e_n, whose unit has two nonzero
    coordinates."""
    def coordinates(x):
        return [x[0], x[1] - x[0]] + list(x[2:])

    basis = [ext.basis_element(0) + ext.basis_element(1)] + [
        ext.basis_element(i) for i in range(1, ext.rank)]
    structure = [[coordinates((a * b).coords) for b in basis] for a in basis]
    return FreeExtension(ext.base, tuple("f_%d" % (i + 1) for i in range(ext.rank)),
                         structure_table(ext.base, structure), coordinates(ext.unit))


# units e_1, e_n and one that is no basis vector
SELECTION_EXTENSIONS = DISC_EXTENSIONS + [_sheared_basis(FUNCTION_EXTENSIONS[1])]


@SETTINGS
@given(st.sampled_from(SELECTION_EXTENSIONS), st.data())
def test_unit_value_by_selection_matches_evaluate(ext, data):
    """chi(r) read off the coefficients of chi(r * generic) by selecting the
    terms that avoid the unit's zero coordinates is their value there."""
    coord = st.one_of(function_field_elements(ext.base), st.just(ext.base.zero()))
    r = ext.element([data.draw(coord) for _ in range(ext.rank)])
    block = tuple("x_%d" % (j + 1) for j in range(ext.rank))
    generic = AlgebraElement(ext, tuple(
        Poly.variable(ext.base, v).with_variables(block) for v in block))
    at_unit = dict(zip(block, ext.unit))
    chi = charpoly(r * generic)
    for j, c in enumerate(chi.coefficients, start=1):
        assert _homogeneous_value(c, j, at_unit) == c.evaluate(at_unit)


@SETTINGS
@given(st.sampled_from(SELECTION_EXTENSIONS + [EXTENSIONS[4], EXTENSIONS[6]]),
       st.data())
def test_generic_charpoly_matches_the_algebra_product(ext, data):
    """chi(r * generic) from the cleared rows of mult_matrix(r) is charpoly
    of the algebra product r * generic, over the same variables; over
    F_p(x)[t]/(t^2 + t/x + 1) the structure constants need a second
    clearing, and over F_3 and Q there is none."""
    k = ext.base
    scalar = function_field_elements(k) if isinstance(k, FunctionField) else scalars(k)
    r = ext.element([data.draw(st.one_of(scalar, st.just(k.zero())))
                     for _ in range(ext.rank)])
    block = tuple("x_%d" % (j + 1) for j in range(ext.rank))
    generic = AlgebraElement(ext, tuple(
        Poly.variable(k, v).with_variables(block) for v in block))
    want = charpoly(r * generic)
    got = generic_charpoly(r, block)
    assert got.ring == want.ring
    for g, w in zip(got.coefficients, want.coefficients, strict=True):
        assert _same(g, w)


@SETTINGS
@given(function_charpoly_cases())
def test_mult_matrix_columns_are_basis_products(b):
    """Column j of mult_matrix(b) is b*e_j, over the same variables."""
    ext = b.extension
    matrix = mult_matrix(b)
    for j in range(ext.rank):
        want = (b * ext.basis_element(j)).coords
        for i in range(ext.rank):
            got = matrix[i][j]
            assert got == want[i]
            if isinstance(got, Poly) and not got.is_zero():
                assert got.variables == want[i].variables


@st.composite
def linear_polys(draw, base, variables):
    # degree <= 1 keeps the ninth powers small
    terms = {}
    for i in range(len(variables) + 1):
        exps = tuple(int(j == i) for j in range(len(variables)))
        terms[exps] = draw(scalars(base))
    return Poly(base, variables, terms)


@st.composite
def power_cases(draw):
    """(x, one, mul): a value, a builder of the unit, its multiplication."""
    kind = draw(st.sampled_from(["field", "poly", "algebra", "algebra_poly",
                                 "matrix"]))
    if kind == "field":
        field = draw(st.sampled_from(FIELDS))
        return draw(random_elements(field)), field.one, operator.mul
    if kind == "poly":
        base = draw(st.sampled_from([PrimeField(3), RationalField()]))
        x = draw(linear_polys(base, ("u", "v")))
        return x, lambda: Poly.constant(base, base.one(), x.variables), operator.mul
    ext = draw(st.sampled_from(EXTENSIONS))
    if kind == "algebra":
        x = ext.element([draw(scalars(ext.base)) for _ in range(ext.rank)])
        return x, ext.unit_element, operator.mul
    if kind == "algebra_poly":
        x = ext.element([draw(linear_polys(ext.base, ("u",)))
                         for _ in range(ext.rank)])
        return x, ext.unit_element, operator.mul
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    m = tuple(tuple(draw(random_elements(field)) for _ in range(n))
              for _ in range(n))
    return m, lambda: mat_identity(n, field), mat_mul


@SETTINGS
@given(power_cases())
def test_power_matches_repeated_products(case):
    x, one, mul = case
    pow_ = (lambda k: power(x, k, one, mul)) if mul is mat_mul else x.__pow__
    expected = one()
    for k in range(10):
        assert pow_(k) == expected, k
        expected = mul(expected, x)
    for bad in (-1, 1.5, "2"):
        with pytest.raises(ValueError):
            pow_(bad)


@SETTINGS
@given(st.sampled_from([2, 3, 7]), st.data())
def test_univariate_division_identity(p, data):
    coeff = st.integers(0, p - 1)
    a = tuple(data.draw(st.lists(coeff, max_size=7)))
    b = tuple(data.draw(st.lists(coeff, max_size=4))) + (
        data.draw(st.integers(1, p - 1)),)
    q, r = _udivmod(a, b, p)
    assert _uadd(_umul(q, b, p), r, p) == _utrim(a)
    assert len(r) < len(b)
    assert q == _utrim(q) and r == _utrim(r)


@SETTINGS
@given(st.sampled_from([2, 3, 5]), st.data())
def test_remainder_only_gcd_matches_quotient_building_euclid(p, data):
    # a common factor makes most gcds nontrivial; zero operands occur too
    coeff = st.integers(0, p - 1)
    a, b, c = (_utrim(data.draw(st.lists(coeff, max_size=n))) for n in (5, 4, 3))
    for x, y in ((a, b), (_umul(a, c, p), _umul(b, c, p)), (a, ()), ((), b)):
        assert _ugcd(x, y, p) == quotient_building_ugcd(x, y, p)


MATRIX_RINGS = [FunctionField(2), FunctionField(3), RationalField(), PrimeField(5),
                PolyRing(PrimeField(3))]


@st.composite
def matrix_pairs(draw):
    """A product a * b over one of MATRIX_RINGS, shapes 1 to 4, about half
    the entries zero, so that whole rows, columns and dot products vanish."""
    ring = draw(st.sampled_from(MATRIX_RINGS))
    if isinstance(ring, PolyRing):
        entry = polys(ring.domain)
    elif isinstance(ring, FunctionField):
        entry = function_field_elements(ring)
    else:
        entry = scalars(ring)
    entry = st.one_of(entry, st.just(ring.zero()))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return tuple(tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))
                 for rows, cols in ((n, k), (k, m)))


@SETTINGS
@given(matrix_pairs())
def test_sparse_mat_mul_matches_dense_loop(pair):
    a, b = pair
    got, want = mat_mul(a, b), dense_mat_mul(a, b)
    assert got == want
    assert all(type(x) is type(y) for r, s in zip(got, want) for x, y in zip(r, s))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3),
                                   GaloisField(2, (1, 1, 1), "w")])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_assignments_enumerate_every_point_once(field, d):
    variables = ("a", "b", "c")[:d]
    elems = field.elements()
    found = list(_assignments(variables, elems))
    assert all(len(a) == d and set(a) <= set(elems) for a in found)
    assert len(set(found)) == len(found) == field.size() ** d


# (base of the presentation, domain enumerated): F_p, F_{p^m} with m = 2, 3
# and 4 over odd and even p, a field extension as a FreeExtension, one of
# rank 2 over F_4 (coordinates of coordinates), a ring with zero divisors,
# and a base presentation lifted to F_9 by base_change; between them they
# take addition tables of one base-p digit and of several, over p = 2, 3, 5
POINT_DOMAINS = [(f, f) for f in (
    PrimeField(2), PrimeField(3), PrimeField(5), GaloisField(2, (1, 1, 1), "w"),
    GaloisField(3, (1, 0, 1), "t"), GaloisField(5, (2, 0, 1), "t"),
    GaloisField(3, (1, 2, 0, 1), "t"), GaloisField(2, (1, 1, 0, 0, 1), "t"),
    EXTENSIONS[3], EXTENSIONS[1],
    _monogenic(GaloisField(2, (1, 1, 1), "w"), "s^2 + s + w", "s"))] + [
    (PrimeField(3), GaloisField(3, (1, 0, 1), "t"))]


@st.composite
def point_generators(draw, base, variables):
    """Generators over base: none, constants (zero among them), and sums of
    terms in a drawn subset of the variables, so that mixed terms occur and
    some generators skip the last variable.  Half the time every generator
    is shifted to vanish at one drawn point, so that solution sets are
    seldom empty."""
    elements = base.elements()
    anchor = None
    if draw(st.booleans()):
        anchor = {v: draw(st.sampled_from(elements)) for v in variables}
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        used = [k for k in range(len(variables)) if draw(st.booleans())]
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = [0] * len(variables)
            for k in used:
                exps[k] = draw(st.integers(0, 3))
            terms[tuple(exps)] = draw(st.sampled_from(elements))
        g = Poly(base, variables, terms)
        gens.append(g if anchor is None else g - g.evaluate(anchor))
    return gens


@settings(SETTINGS, max_examples=200)
@given(st.sampled_from(POINT_DOMAINS), st.integers(0, 3), st.data())
def test_points_over_matches_dense_enumeration(domains, d, data):
    base, domain = domains
    variables = ("a", "b", "c")[:d]
    pres = Presentation(base, variables,
                        data.draw(point_generators(base, variables)))
    assert points_over(pres, domain) == dense_points(pres, domain)


# F_8 (p = 2), F_49 (odd p, m = 2) and F_97 (m = 1)
SLOT_FIELDS = {"F_8": GaloisField(2, (1, 1, 0, 1), "t"),
               "F_49": GaloisField(7, (1, 0, 1), "t"), "F_97": PrimeField(97)}


@pytest.mark.parametrize("name,k", [("F_8", 1), ("F_8", 2), ("F_8", 29), ("F_8", 30),
                                    ("F_49", 3), ("F_49", 30), ("F_97", 1), ("F_97", 30)])
def test_point_oracle_slots_hold_every_sum(name, k):
    """sum_{e=1}^k (p-1)*u^e + (p-1)*u*v sums k + 1 terms whose coordinates
    are all p - 1 at u = 1: up to 31 values, each coordinate far past p when
    added as integers, so any sum that lost its reduction mod p, digit by
    digit, would give wrong points."""
    field = SLOT_FIELDS[name]
    top = field.coerce(field.characteristic - 1)
    terms = {(e, 0): top for e in range(1, k + 1)}
    terms[(1, 1)] = top
    pres = Presentation(field, ("u", "v"), [Poly(field, ("u", "v"), terms)])
    got = points_over(pres, field)
    assert got == dense_points(pres, field)
    assert (field.one(), -field.coerce(k)) in got
    constant = Presentation(field, ("u", "v"), [Poly.constant(field, top, ("u", "v"))])
    assert points_over(constant, field) == [] == dense_points(constant, field)


# F_97 (m = 1), F_16 (p = 2), F_27 and F_49 (odd p, m = 3 and 2) and F_25
# as a rank-2 algebra over F_5: negation tables of one digit and of several,
# the identity among them (p = 2)
SOLVE_DOMAINS = {"F_97": PrimeField(97), "F_16": GaloisField(2, (1, 1, 0, 0, 1), "t"),
                 "F_27": GaloisField(3, (1, 2, 0, 1), "t"),
                 "F_49": GaloisField(7, (1, 0, 1), "t"),
                 "F_5[t]/(t^2 + 2)": _monogenic(PrimeField(5), "t^2 + 2")}
# generators in a and b, b the last variable; Q is the size of the domain,
# so that b^Q - b is zero at every element and its table is identically zero
SOLVE_CASES = {
    "two solved": ["b^2 - a^2", "b^3 - a^3"],
    "solved and mixed": ["b^2 - a", "a*b - 1"],
    "skips the last": ["a^2 - 1", "b^2 - a"],
    "only skips the last": ["a^3 - a"],
    "zero table": ["b^Q - b + a^2 - 1"],
    "zero table and solved": ["b^Q - b + a - 1", "b^2 - a"],
}


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
@pytest.mark.parametrize("name", sorted(SOLVE_DOMAINS))
def test_point_oracle_solves_the_last_variable(name, case):
    """The last variable read off the value index at the negated partial
    sum (and the rest tested point by point) gives the points of the plain
    enumeration."""
    domain = SOLVE_DOMAINS[name]
    texts = [t.replace("Q", str(domain.size())) for t in SOLVE_CASES[case]]
    pres = Presentation(domain, ("a", "b"),
                        [parse_poly(t, domain, ("a", "b")) for t in texts])
    got = points_over(pres, domain)
    assert got and got == dense_points(pres, domain)


@pytest.mark.parametrize("name", sorted(SOLVE_DOMAINS))
def test_point_oracle_with_one_variable_and_none(name):
    domain = SOLVE_DOMAINS[name]
    q = domain.size()
    for texts in (["b^2 - 1"], ["b^2 - 1", "b^3 - b"], ["b^%d - b" % q],
                  ["b^%d - b" % q, "1"], ["0"], []):
        pres = Presentation(domain, ("b",), [parse_poly(t, domain, ("b",)) for t in texts])
        assert points_over(pres, domain) == dense_points(pres, domain)
    # no variables: the empty point, unless a constant generator is nonzero
    for c, want in ((0, [()]), (1, [])):
        pres = Presentation(domain, (), [Poly.constant(domain, domain.coerce(c), ())])
        assert points_over(pres, domain) == dense_points(pres, domain) == want
    assert points_over(Presentation(domain, (), []), domain) == [()]


ROUND_TRIP_DOMAINS = [
    PrimeField(5), GaloisField(3, (2, 1, 1), "t"), RationalField(),
    RationalField(padic=2), FunctionField(3), EXTENSIONS[6],
    _monogenic(FunctionField(2), "t^2 + x*t + 1"),
]


@SETTINGS
@given(st.sampled_from(ROUND_TRIP_DOMAINS), st.data())
def test_canonical_text_parses_back(domain, data):
    f = data.draw(polys(domain, random_elements))
    assert parse_poly(f.to_string(), domain, f.variables) == f


GALOIS_FIELDS = [
    GaloisField(2, (1, 1, 1)), GaloisField(2, (1, 1, 0, 1)),
    GaloisField(3, (1, 0, 1)), GaloisField(2, (1, 1, 0, 0, 1)),
    GaloisField(3, (1, 2, 0, 1)),
]


def _padded(a):
    return a.value + (0,) * (a.field.degree - len(a.value))


@SETTINGS
@given(st.sampled_from(GALOIS_FIELDS), st.data())
def test_galois_values_stay_trimmed(field, data):
    p, m = field.p, field.degree
    coords = st.lists(st.integers(-p, 2 * p), min_size=m, max_size=m)
    a, b = field.coerce(data.draw(coords)), field.coerce(data.draw(coords))
    n = data.draw(st.integers(-p, 2 * p))
    values = [a, b, a + b, a - b, -a, a * b, a - a, field.coerce(n),
              field.coerce(PrimeField(p).coerce(n)), field.generator(),
              field.random_element(random.Random(n))]
    if not a.is_zero():
        values.append(a.inverse())
        assert (a * a.inverse()).is_one()
    for x in values:
        assert x.value == _utrim(x.value) and len(x.value) <= m
    # coordinate-wise on the zero-padded vectors, as elements were stored before
    assert _padded(a + b) == tuple((x + y) % p for x, y in zip(_padded(a), _padded(b)))
    assert _padded(-a) == tuple((-x) % p for x in _padded(a))
    c = data.draw(coords)
    assert _padded(field.coerce(c)) == tuple(x % p for x in c)


@pytest.mark.parametrize("field", [GaloisField(2, (1, 1, 0, 1)),
                                   GaloisField(3, (1, 0, 1))])
def test_galois_sort_key_is_zero_padded_order(field):
    elements = field.elements()
    assert len({a.value for a in elements}) == field.size()
    for a in elements:
        assert a.value == _utrim(a.value)
        for b in elements:
            assert (a.sort_key() < b.sort_key()) == (_padded(a) < _padded(b))


def _ustr_reference(a, symbol):
    """The term rules of fields._ustr before it called the shared printer."""
    if not a:
        return "0"
    parts = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        elif d == 1:
            parts.append(symbol if c == 1 else "%d*%s" % (c, symbol))
        else:
            parts.append("%s^%d" % (symbol, d) if c == 1 else "%d*%s^%d" % (c, symbol, d))
    return " + ".join(parts)


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from(["x", "t", "s_1"]), st.data())
def test_ustr_matches_its_former_term_rules(p, symbol, data):
    a = _utrim(data.draw(st.lists(st.integers(0, p - 1), max_size=6)))
    assert _ustr(a, symbol) == _ustr_reference(a, symbol)


@SETTINGS
@given(st.sampled_from(ROUND_TRIP_DOMAINS), st.data())
def test_dense_coefficients_round_trip(domain, data):
    f = data.draw(polys(domain, random_elements))
    if len(f.variables) != 1:
        with pytest.raises(ValueError):
            f.dense_coefficients()
        return
    coeffs = f.dense_coefficients()
    assert len(coeffs) == f.total_degree() + 1
    assert Poly(domain, f.variables, {(e,): c for e, c in enumerate(coeffs)}) == f


FIELD_CONSTRUCTIONS = [
    lambda: PrimeField(3), lambda: PrimeField(5),
    lambda: GaloisField(3, (1, 0, 1), "t"), lambda: GaloisField(3, (1, 0, 1), "s"),
    lambda: GaloisField(3, (2, 1, 1), "t"), lambda: RationalField(),
    lambda: RationalField(padic=3), lambda: RationalField(padic=5),
    lambda: FunctionField(3), lambda: FunctionField(3, Fraction(1, 3)),
    lambda: FunctionField(3, symbol="y"), lambda: FunctionField(5),
]


def test_field_identity():
    for i, make in enumerate(FIELD_CONSTRUCTIONS):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        for j, other in enumerate(FIELD_CONSTRUCTIONS):
            assert (a == other()) == (i == j), (a, other())
    assert GaloisField(3, (4, 3, 1), "t") == GaloisField(3, (1, 0, 1), "t")
    assert PrimeField(3) != RationalField(padic=3) != FunctionField(3) != PrimeField(3)


# F_1009(x) needs canonical slots of two bytes; over F_7(x) and F_13(x) the
# bytes of a wide slot have residue tables of their own; () gives constants
FUNCTION_KERNEL_FIELDS = [FunctionField(2), FunctionField(3), FunctionField(7),
                          FunctionField(13), FunctionField(1009)]
KERNEL_FIELDS = FUNCTION_KERNEL_FIELDS + [PrimeField(2), PrimeField(3), PrimeField(1009)]
KERNEL_VARIABLES = [(), ("u",), ("u", "v"), ("v", "u"), ("w", "u")]


@st.composite
def kernel_polys(draw, k, variable_lists=KERNEL_VARIABLES, max_terms=3):
    """Polynomials over F_p, or polynomials in x over F_p(x) with numerators
    of x-degree up to 8.  A full coefficient has every digit p - 1: sums of
    such products over one monomial fill a slot up to the kernel's bound,
    and one variable to its largest exponent fills an exponent field."""
    variables = draw(st.sampled_from(variable_lists))
    full = draw(st.booleans())
    digit = st.just(k.p - 1) if full else st.integers(0, k.p - 1)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 3)) for _ in variables)
        if isinstance(k, PrimeField):
            terms[exps] = k.coerce(draw(digit))
        else:
            terms[exps] = k._make(tuple(draw(st.lists(digit, min_size=1, max_size=9))),
                                  (1,))
    return Poly(k, variables, terms)


@st.composite
def kernel_matrices(draw, fields=KERNEL_FIELDS, max_rank=4):
    """Square matrices of rank 1 to max_rank over one F_p or F_p(x), about a
    third of the entries zero, over no variables or over some; in most cases
    one row is then zeroed or replaced by the negative of another, so that
    whole dot products vanish or cancel."""
    k = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_rank))
    entry = st.one_of(kernel_polys(k), kernel_polys(k),
                      st.sampled_from([Poly.zero(k), Poly.zero(k, ("v",))]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "zero row", "negated row"]))
    if change == "zero row":
        rows[i] = [Poly.zero(k)] * n
    elif change == "negated row":
        rows[i] = [-f for f in rows[j]]
    return tuple(tuple(row) for row in rows)


def _same(got, want):
    return got.variables == want.variables and got.terms == want.terms


def _check_packed_charpoly(matrix):
    """PolyRing.charpoly against the generic iteration, term by term over
    the same variable lists, and at rank 3 or less against the cofactor
    oracle; berkowitz_charpoly hands the matrix to it."""
    domain = matrix[0][0].domain
    got = PolyRing(domain).charpoly(matrix)
    assert got is not None
    want = berkowitz_charpoly(matrix, GenericPolyRing(domain))
    for g, w in zip(got, want, strict=True):
        assert _same(g, w)
    through = berkowitz_charpoly(matrix, PolyRing(domain))
    assert all(_same(g, w) for g, w in zip(through, want, strict=True))
    if len(matrix) <= 3:
        assert got == naive_charpoly_coeffs(matrix, GenericPolyRing(domain))


@settings(SETTINGS, max_examples=200)
@given(kernel_matrices())
def test_packed_kernel_matches_generic_products(matrix):
    _check_packed_charpoly(matrix)


@pytest.mark.parametrize("k", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_charpoly_of_zero_matrices(k, n):
    """Every dot product has a zero operand: slots of one byte, no terms,
    and the variable lists of the zero entries still merged."""
    for zero in (Poly.zero(k), Poly.zero(k, ("u", "v"))):
        matrix = tuple((zero,) * n for _ in range(n))
        _check_packed_charpoly(matrix)
        got = PolyRing(k).charpoly(matrix)
        assert got[0] == Poly.constant(k, k.one()) and all(c.is_zero() for c in got[1:])


@settings(SETTINGS, max_examples=8)
@given(st.data())
def test_two_byte_slots_over_f2(data):
    """Over F_2(x), rank 3 with nine terms a full entry and numerators of
    length 16: R C at the last step sums 2 * 9 * 16 products on a slot and
    needs two bytes, a slot's residue is its lowest byte's lowest bit;
    entries with one term keep one-byte slots, read with one mask."""
    k = FunctionField(2)
    digits = st.lists(st.integers(0, 1), min_size=15, max_size=15)

    def entry(terms):
        return Poly(k, ("u", "v"), {(a, b): k._make(tuple(data.draw(digits)) + (1,), (1,))
                                    for a in range(terms) for b in range(terms)})

    for terms in (3, 1):
        _check_packed_charpoly(tuple(tuple(entry(terms) for _ in range(3))
                                     for _ in range(3)))


@SETTINGS
@given(kernel_matrices(FUNCTION_KERNEL_FIELDS, max_rank=3), st.data())
def test_denominator_takes_the_generic_path(matrix, data):
    k = matrix[0][0].domain
    over_x = Poly(k, ("u",), {(1,): k._make((1,), (0, 1))})
    n = len(matrix)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows = [list(row) for row in matrix]
    rows[i][j] = rows[i][j] + over_x
    matrix = tuple(tuple(row) for row in rows)
    assert PolyRing(k).charpoly(matrix) is None
    got = berkowitz_charpoly(matrix, PolyRing(k))
    want = berkowitz_charpoly(matrix, GenericPolyRing(k))
    assert all(_same(g, w) for g, w in zip(got, want, strict=True))
    assert _same(rows[0][0] * over_x,
                 generic_sum_of_products([(rows[0][0], over_x)]))


def test_packed_kernel_keeps_the_domain_check():
    k = FunctionField(2)
    a = Poly.variable(k, "u")
    b = Poly.variable(FunctionField(3), "u")
    over_x = Poly(k, ("u",), {(1,): k._make((1,), (0, 1))})
    with pytest.raises(IncompatibleFieldError):
        a * b
    # a foreign entry raises before any entry's denominator declines the kernel
    for matrix in (((a, b), (a, a)), ((b,),), ((over_x, a), (b, a))):
        with pytest.raises(IncompatibleFieldError):
            PolyRing(k).charpoly(matrix)
        with pytest.raises(IncompatibleFieldError):
            berkowitz_charpoly(matrix, PolyRing(k))


def _algebra_tables():
    f2, f3 = PrimeField(2), PrimeField(3)
    k2, k3 = FunctionField(2), FunctionField(3)
    f4 = _monogenic(f2, "w^2 + w + 1", "w")
    f8 = _monogenic(f2, "t^3 + t + 1")
    cubic3 = _monogenic(f3, "t^3 + 2*t + 1")
    return [
        # monogenic tables
        f4, f8, _monogenic(f2, "t^5 + t^2 + 1"), cubic3, _monogenic(f3, "t^2"),
        _monogenic(k2, "t^2 + x*t + 1"), _monogenic(k3, "t^3 + (2*x^2 + x + 2)*t + 2*x"),
        # written-out tables; over the reversed basis the unit is the last vector
        tensor_product(f4, f8), tensor_product(cubic3, _monogenic(f3, "s^2 + 2", "s")),
        _reversed_basis(cubic3), _reversed_basis(_monogenic(k2, "t^3 + x^2*t + x")),
    ]


ALGEBRA_TABLES = _algebra_tables()


@st.composite
def algebra_product_cases(draw):
    """Two coordinate vectors of polynomials over the base of a monogenic or
    written-out table over F_p or with polynomial constants over F_p(x), their
    coordinates over different variable lists, some of them zero."""
    ext = draw(st.sampled_from(ALGEBRA_TABLES))
    k = ext.base
    lists = [("u",), ("u", "v"), ("v", "u"), ("w",)]
    coord = st.one_of(kernel_polys(k, lists, max_terms=4), st.just(Poly.zero(k)),
                      st.just(Poly.zero(k, ("v",))))
    a, b = ([draw(coord) for _ in range(ext.rank)] for _ in range(2))
    return ext, tuple(a), tuple(b)


@settings(SETTINGS, max_examples=200)
@given(algebra_product_cases())
def test_algebra_element_product_matches_generic_loop(case):
    ext, a, b = case
    table, zero = ext.sparse_structure, Poly.zero(ext.base)
    for x, y in ((a, b), (a, a)):
        want = generic_algebra_product(x, y, table, zero)
        product = ext.element(x) * ext.element(y)
        for g, w in zip(product.coords, want, strict=True):
            assert _same(g, w)


def test_algebra_element_product_with_denominators_matches_generic_loop():
    k = FunctionField(2)
    over_x = _monogenic(k, "t^2 + t/x + 1")
    u = (Poly.variable(k, "u"), Poly.variable(k, "v"))
    ext = _monogenic(k, "t^2 + x*t + 1")
    v = (Poly(k, ("u",), {(1,): k._make((1,), (0, 1))}), u[1])
    for e, x in ((over_x, u), (ext, v)):
        want = generic_algebra_product(x, u, e.sparse_structure, Poly.zero(k))
        got = (e.element(x) * e.element(u)).coords
        assert all(_same(g, w) for g, w in zip(got, want, strict=True))


def _scalar_tables():
    f5, f9 = PrimeField(5), GaloisField(3, (1, 0, 1), "w")
    q, q3, k3 = RationalField(), RationalField(padic=3), FunctionField(3)
    cubic5 = _monogenic(f5, "t^3 + 2*t + 3")
    over_f9 = _monogenic(f9, "s^2 + w*s + 1", "s")
    over_q = _monogenic(q, "t^3 - 2*t + 1/2")
    over_q3 = _monogenic(q3, "t^2 + 3*t - 6/5")
    over_k3 = _monogenic(k3, "t^2 + x*t + 1/x")
    return [
        # monogenic tables
        cubic5, over_f9, over_q, over_q3, over_k3,
        # written-out tables, with products of constants, a unit moved to
        # the last vector and a unit of two nonzero coordinates
        tensor_product(cubic5, _monogenic(f5, "s^2 + 4*s + 2", "s")),
        tensor_product(over_q, _monogenic(q, "s^2 - 1/3", "s")),
        _reversed_basis(over_f9), _sheared_basis(over_q3), _sheared_basis(over_k3),
    ]


SCALAR_TABLES = _scalar_tables()


@SETTINGS
@given(st.sampled_from(SCALAR_TABLES), st.data())
def test_scalar_algebra_product_matches_generic_loop(ext, data):
    """Scalar coordinates multiply on raw values through table_product; the
    reference runs FieldElement operators over the table."""
    coord = st.one_of(random_elements(ext.base), st.just(ext.base.zero()))
    a, b = (tuple(data.draw(coord) for _ in range(ext.rank)) for _ in range(2))
    zero = ext.base.zero()
    for x, y in ((a, b), (a, a), (b, (zero,) * ext.rank)):
        want = generic_algebra_product(x, y, ext.sparse_structure, zero)
        got = (ext.element(x) * ext.element(y)).coords
        assert all(type(g) is FieldElement and g.field == ext.base and g == w
                   for g, w in zip(got, want, strict=True))


def test_raw_table_is_converted_once():
    for ext in SCALAR_TABLES:
        raw = ext.raw_structure()
        assert ext.raw_structure() is raw
        assert raw == [[[(k, c if c is None else c.value) for k, c in cell]
                        for cell in row] for row in ext.sparse_structure]


VALIDATION_FIELDS = [PrimeField(2), PrimeField(3), GaloisField(2, (1, 1, 1), "w"),
                     RationalField(), FunctionField(2)]


@st.composite
def structure_tables(draw):
    """The table of base[t]/(m) for a random monic m of degree 1 to 4, on a
    permuted basis (so the unit moves), then in most cases with one change:
    c_ijk and c_jik together, one of them alone, or one unit coordinate.
    In half the cases a changed c_ijk has e_i and e_j off the unit where the
    rank allows, so the unit law holds and the later checks decide."""
    field = draw(st.sampled_from(VALIDATION_FIELDS))
    n = draw(st.integers(1, 4))
    element = random_elements(field)
    terms = {(i,): draw(element) for i in range(n)}
    terms[(n,)] = field.one()
    ext = from_minimal_polynomial(field, Poly(field, ("t",), terms), "t")
    perm = draw(st.permutations(range(n)))
    structure = dense_structure(ext)
    table = [[[structure[perm[i]][perm[j]][perm[k]] for k in range(n)]
              for j in range(n)] for i in range(n)]
    unit = [ext.unit[perm[k]] for k in range(n)]
    change = draw(st.sampled_from(["none", "pair", "one", "unit"]))
    delta = draw(element.filter(lambda c: not c.is_zero()))
    indices = list(range(n))
    if draw(st.booleans()):
        indices = [x for x in indices if x != perm.index(0)] or indices
    i, j = (draw(st.sampled_from(indices)) for _ in range(2))
    k = draw(st.integers(0, n - 1))
    if change in ("pair", "one"):
        table[i][j][k] = table[i][j][k] + delta
        if change == "pair" and i != j:
            table[j][i][k] = table[j][i][k] + delta
    elif change == "unit":
        unit[k] = unit[k] + delta
    return field, table, unit


def _refusal(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(SETTINGS, max_examples=300)
@given(structure_tables())
def test_raw_validation_matches_reference(case):
    field, table, unit = case
    names = tuple("e%d" % (i + 1) for i in range(len(unit)))
    ext = FreeExtension(field, names, structure_table(field, table), unit,
                        validate=False)
    assert _refusal(ext._validate) == _refusal(lambda: reference_validate(ext))


@pytest.mark.parametrize("field", [
    GaloisField(2, (1, 1, 1)), GaloisField(2, (1, 1, 0, 1)),
    GaloisField(3, (1, 0, 1)), GaloisField(2, (1, 1, 0, 0, 1)),
    GaloisField(3, (1, 2, 0, 1))], ids=["F_4", "F_8", "F_9", "F_16", "F_27"])
def test_galois_inverse_matches_fermat(field):
    q = field.size()
    units = [a for a in field.elements() if not a.is_zero()]
    assert len(units) == q - 1
    for a in units:
        inv = a.inverse()
        assert inv.value == power(a.value, q - 2, None, field._mul)
        assert (a * inv).is_one()


F_1009_4 = GaloisField(1009, (1, 1, 0, 0, 1), "s")


@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_galois_inverse_matches_fermat_over_f1009(seed):
    a = F_1009_4.random_element(random.Random(seed))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert inv.value == power(a.value, F_1009_4.size() - 2, None, F_1009_4._mul)
    assert (a * inv).is_one() and inv.value == _utrim(inv.value)
