"""Property tests of the valued-field scalar paths that clear denominators.

MonicPoly products run on the numerators each ring's `cleared` gives: the
integers over Q, the x-numerators over F_p(x), the raw values over finite
fields and the polynomials themselves over a PolyRing.  They are checked
against the FieldElement or Poly convolution in conftest.py on every field
kind and on polynomials over each, with their variable lists, and the
orders of the cleared product, read with no coefficient normalised, against
the log-norms of the product's coefficients.  The spectral value compared
by integer orders is checked against the LogNorm maximum of lognorm(c_i) / i,
scalar characteristic polynomials, run on raw numerators, against Berkowitz
on the FieldElement matrix, and the nilpotency certificate on the cleared
multiplication matrix against the power of the matrix itself; the cleared
table with raw numerators is built on the first scalar charpoly.  Runs are
derandomized so every run tries the same examples.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import (FreeExtension, FunctionField, GaloisField, LogNorm, Poly,
                     PolyRing, PrimeField, RationalField, from_minimal_polynomial,
                     parse_poly, structure_table)
from weilres.errors import IncompatibleFieldError, UnsupportedOperationError
from weilres import extensions
from weilres.extensions import (MonicPoly, charpoly, generic_charpoly, is_nilpotent,
                                tensor_product)
from weilres.lognorm import MINUS_INF
from weilres.spectral import (non_quasicompact_witness, spectral_value,
                              spectral_value_product_check)

from conftest import (dense_structure, field_element_charpoly,
                      generic_monic_product, reference_spectral_value,
                      uncleared_is_nilpotent)

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)

VALUED_FIELDS = [RationalField(padic=2), RationalField(padic=3),
                 FunctionField(2), FunctionField(3)]
PRODUCT_FIELDS = VALUED_FIELDS + [RationalField(), PrimeField(2), PrimeField(3),
                                  GaloisField(3, (1, 0, 1))]


@st.composite
def denominators(draw, field):
    """A nonzero element: 1, a pure power of x (of p over Q), a linear power
    or an arbitrary element."""
    kind = draw(st.sampled_from(["one", "power", "linear", "random"]))
    if kind == "one":
        return field.one()
    if isinstance(field, FunctionField):
        k = draw(st.integers(1, 3))
        base = field.variable() if kind == "power" else field.variable() + field.one()
        if kind != "random":
            return base ** k
    elif isinstance(field, RationalField):
        if kind != "random":
            return field.coerce((field.padic or 2) ** draw(st.integers(1, 3))
                                if kind == "power" else draw(st.integers(1, 12)))
    den = field.zero()
    while den.is_zero():
        den = field.random_element(random.Random(draw(st.integers(0, 2 ** 16))))
    return den


@st.composite
def monic_polys(draw, field, max_degree=4):
    """Monic polynomials whose coefficients are often zero, and share one
    denominator when `shared` is drawn."""
    degree = draw(st.integers(1, max_degree))
    shared = draw(denominators(field)) if draw(st.booleans()) else None
    coefficients = []
    for _ in range(degree):
        if draw(st.integers(0, 3)) == 0:
            coefficients.append(field.zero())
            continue
        num = field.random_element(random.Random(draw(st.integers(0, 2 ** 16))))
        den = shared if shared is not None else draw(denominators(field))
        coefficients.append(num / den)
    return MonicPoly(field, coefficients)


def _assert_same(got, want):
    assert got == want
    assert [type(c.value) for c in got.coefficients] == \
        [type(c.value) for c in want.coefficients]
    assert hash(got) == hash(want)
    assert got.to_string() == want.to_string()


@SETTINGS
@given(st.sampled_from(PRODUCT_FIELDS), st.data())
def test_monic_product_matches_generic_convolution(field, data):
    p = data.draw(monic_polys(field))
    q = data.draw(monic_polys(field))
    _assert_same(p * q, generic_monic_product(p, q))


@st.composite
def polynomial_monic_polys(draw, field, max_degree=3):
    """Monic polynomials whose coefficients are polynomials over field, on
    differing variable lists, zeros over variables among them."""
    coefficients = []
    for _ in range(draw(st.integers(1, max_degree))):
        variables = draw(st.sampled_from([(), ("u",), ("u", "v"), ("v", "u")]))
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        terms = {tuple(rng.randint(0, 2) for _ in variables): field.random_element(rng)
                 for _ in range(draw(st.integers(0, 3)))}
        coefficients.append(Poly(field, variables, terms))
    return MonicPoly(PolyRing(field), coefficients)


@SETTINGS
@given(st.sampled_from(PRODUCT_FIELDS), st.data())
def test_monic_product_over_polynomials_matches_generic_convolution(field, data):
    p = data.draw(polynomial_monic_polys(field))
    q = data.draw(polynomial_monic_polys(field))
    got, want = p * q, generic_monic_product(p, q)
    assert got == want and hash(got) == hash(want)
    assert [c.variables for c in got.coefficients] == \
        [c.variables for c in want.coefficients]
    assert got.to_string() == want.to_string()


def test_monic_product_edge_cases():
    for field in PRODUCT_FIELDS:
        zero, one = field.zero(), field.one()
        cases = [
            (MonicPoly(field, [zero]), MonicPoly(field, [zero])),
            (MonicPoly(field, [one]), MonicPoly(field, [-one])),
            (MonicPoly(field, [zero, zero, zero]), MonicPoly(field, [one, zero])),
        ]
        if field.has_valuation or isinstance(field, RationalField):
            x = (field.variable() if isinstance(field, FunctionField)
                 else field.coerce(field.padic or 5))
            # equal pure power denominators, and a product that cancels them
            cases.append((MonicPoly(field, [one / x, zero, one / x ** 2]),
                          MonicPoly(field, [-one / x, one / x ** 3])))
        for p, q in cases:
            _assert_same(p * q, generic_monic_product(p, q))


@SETTINGS
@given(st.sampled_from(VALUED_FIELDS), st.data())
def test_spectral_value_matches_lognorm_maximum(field, data):
    p = data.draw(monic_polys(field, max_degree=6))
    q = data.draw(monic_polys(field))
    for poly in (p, q, generic_monic_product(p, q)):
        got, want = spectral_value(poly), reference_spectral_value(poly)
        assert got == want and str(got) == str(want)


def test_spectral_value_examples():
    q2, k3 = RationalField(padic=2), FunctionField(3)
    zero, half, x = q2.zero(), q2.coerce(Fraction(1, 2)), k3.variable()
    cases = [
        (MonicPoly(q2, [zero, zero, zero]), "-inf"),
        (MonicPoly(k3, [k3.zero()] * 4), "-inf"),
        (MonicPoly(q2, [zero, -half]), "1/2"),
        # a tie, v/1 == 2v/2: the first coefficient already has the maximum
        (MonicPoly(q2, [half, half * half, zero]), "1"),
        (MonicPoly(k3, [x.inverse() ** 2, x.inverse() ** 4]), "2"),
        # negative orders only: the maximum of -1/1, -4/2 and -3/3
        (MonicPoly(k3, [x, x ** 4, x ** 3]), "-1"),
        (MonicPoly(q2, [q2.coerce(4), q2.coerce(2)]), "-1/2"),
    ]
    for poly, text in cases:
        assert str(spectral_value(poly)) == text
        assert str(reference_spectral_value(poly)) == text


def _self_tensor(p):
    """t^p - x over F_p(x), its self-tensor and y - tbar = 1 (x) t - t (x) 1."""
    k = FunctionField(p, Fraction(1, 2))
    ext = from_minimal_polynomial(k, parse_poly("t^%d - x" % p, k, ("t",)), "t")
    big = tensor_product(ext, ext)
    return ext, big, big.basis_element(1) - big.basis_element(ext.rank)


def test_witness_nilpotency_matches_uncleared_power():
    for p in (2, 3):
        ext, big, _ = _self_tensor(p)
        x = ext.base.variable()
        for k in range(1, 9):
            cert = non_quasicompact_witness(ext, LogNorm(k - 1))
            assert cert.k == k
            assert is_nilpotent(cert.element)
            assert uncleared_is_nilpotent(cert.element)
            unit = big.unit_element().scale(x.inverse() ** k)
            assert not is_nilpotent(unit)
            assert not uncleared_is_nilpotent(unit)


@settings(SETTINGS, max_examples=40)
@given(st.integers(0, 2 ** 16), st.booleans())
def test_is_nilpotent_matches_uncleared_power(seed, multiple):
    """Random elements of the self-tensor of t^2 - x, and random multiples
    of y - tbar, which are nilpotent, both with denominators."""
    ext, big, diff = _self_tensor(2)
    b = big.random_element(random.Random(seed))
    if multiple:
        b = b * diff
    assert is_nilpotent(b) == uncleared_is_nilpotent(b)
    if multiple:
        assert is_nilpotent(b)


def _product_lognorms(p, q):
    """lognorm(C_k / d) for the cleared product (d, C_k) of p and q, read as
    order(C_k) - order(d) off the numerators."""
    d, numerators = p.cleared_product(q)
    order = p.ring._numerator_order
    return [MINUS_INF if order(c) is None else LogNorm(order(c) - order(d))
            for c in numerators]


def _check_cleared_product(p, q):
    want = generic_monic_product(p, q)
    d, numerators = p.cleared_product(q)
    over = p.ring.numerators()[5]
    assert [over(c, d) for c in numerators] == list(want.coefficients)
    if p.ring.has_valuation:
        assert _product_lognorms(p, q) == [p.ring.lognorm(c) for c in want.coefficients]
        assert spectral_value_product_check(p, q)
        assert spectral_value(p * q) == reference_spectral_value(want)


@SETTINGS
@given(st.sampled_from(VALUED_FIELDS + [RationalField()]), st.data())
def test_cleared_product_orders_give_the_spectral_value_of_the_product(field, data):
    p = data.draw(monic_polys(field))
    q = data.draw(monic_polys(field))
    _check_cleared_product(p, q)


def test_cleared_product_cancellation_and_degree_one_factors():
    for field in VALUED_FIELDS + [RationalField()]:
        zero, one = field.zero(), field.one()
        x = (field.variable() if isinstance(field, FunctionField)
             else field.coerce(field.padic or 5))
        a = one / x + x * x
        cases = [
            # (z + a)(z - a) = z^2 - a^2: the middle coefficient cancels to 0
            (MonicPoly(field, [a]), MonicPoly(field, [-a])),
            (MonicPoly(field, [zero]), MonicPoly(field, [one / x ** 2])),
            (MonicPoly(field, [one / x, zero, one / x ** 3]), MonicPoly(field, [-one / x])),
            # (z^2 + a z + a^2)(z - a) = z^3 - a^3: two coefficients cancel
            (MonicPoly(field, [a, a * a]), MonicPoly(field, [-a])),
            (MonicPoly(field, [zero, zero]), MonicPoly(field, [zero])),
        ]
        for p, q in cases:
            _check_cleared_product(p, q)
        assert (MonicPoly(field, [a]) * MonicPoly(field, [-a])).coefficients[0].is_zero()


def test_product_check_raises_on_mismatched_rings_before_the_valuation():
    q2, k3, q = RationalField(padic=2), FunctionField(3), RationalField()
    one = MonicPoly(q2, [q2.one()])
    for other in (MonicPoly(k3, [k3.one()]), MonicPoly(q, [q.one()]),
                  MonicPoly(PrimeField(2), [PrimeField(2).one()])):
        for p, r in ((one, other), (other, one)):
            with pytest.raises(IncompatibleFieldError):
                spectral_value_product_check(p, r)
            with pytest.raises(IncompatibleFieldError):
                p * r
    # one ring without a valuation: the product is defined, sigma is not
    for ring in (q, PrimeField(3), PolyRing(q2)):
        p = MonicPoly(ring, [ring.one()])
        with pytest.raises(UnsupportedOperationError):
            spectral_value_product_check(p, p)


F4 = GaloisField(2, (1, 1, 1), "w")
CHARPOLY_CASES = [
    (PrimeField(3), ["t^3 + 2*t + 1", "t^3 + 1"]),
    (F4, ["t^2 + w*t + 1", "t^4 + w*t^2 + 1"]),
    (RationalField(), ["t^3 - t/2 + 1/3"]),
    (RationalField(padic=2), ["t^2 - 2", "t^3 + t^2/4 - 3/2"]),
    (FunctionField(2), ["t^4 - x", "t^3 + t/x + 1", "t^4 + t^2/x + x"]),
    (FunctionField(3), ["t^3 - x", "t^2 + x*t + 1/x"]),
]


def _charpoly_extensions():
    """Monogenic extensions, towers (t^3 + 1 over F_3, t^4 + w*t^2 + 1 over
    F_4, t^4 - x, t^4 + t^2/x + x and t^3 - x) among them, each written out
    as a dense table, and the tensor products of the small ones; several
    with denominators in their structure constants."""
    out = []
    for field, texts in CHARPOLY_CASES:
        monogenic = [from_minimal_polynomial(field, parse_poly(text, field, ("t",)), "t")
                     for text in texts]
        out += monogenic
        out += [FreeExtension(field, ["e%d" % (i + 1) for i in range(ext.rank)],
                              structure_table(field, dense_structure(ext)), ext.unit)
                for ext in monogenic]
        small = [ext for ext in monogenic if ext.rank <= 3]
        out += [tensor_product(a, b) for a in small for b in small[:1]]
    return out


CHARPOLY_EXTENSIONS = _charpoly_extensions()


def test_charpoly_cases_cover_every_table_kind():
    towers = [ext for ext in CHARPOLY_EXTENSIONS if ext.tower()[0] > 1]
    written = [ext for ext in CHARPOLY_EXTENSIONS if ext.minimal_polynomial is None]
    assert {ext.base for ext in towers} >= {PrimeField(3), F4, FunctionField(2),
                                            FunctionField(3)}
    assert any(ext.basis_names[0].startswith("(") for ext in written)
    assert all(any(not ext.cleared_structure()[0].is_one()
                   for ext in CHARPOLY_EXTENSIONS if ext.base == field)
               for field in (RationalField(), RationalField(padic=2),
                             FunctionField(2), FunctionField(3)))


@settings(SETTINGS, max_examples=150)
@given(st.sampled_from(CHARPOLY_EXTENSIONS), st.integers(0, 2 ** 16),
       st.integers(0, 4))
def test_scalar_charpoly_matches_field_element_berkowitz(ext, seed, zeros):
    """charpoly on raw numerators against Berkowitz on the FieldElement
    matrix, coefficient by coefficient, the zero element and elements with
    zero coordinates included."""
    rng = random.Random(seed)
    coords = [ext.base.random_element(rng) for _ in range(ext.rank)]
    for i in rng.sample(range(ext.rank), min(zeros, ext.rank)):
        coords[i] = ext.base.zero()
    for b in (ext.element(coords), ext.zero_element()):
        got, want = charpoly(b).coefficients, field_element_charpoly(b)
        assert list(got) == want
        assert [type(c.value) for c in got] == [type(c.value) for c in want]
        assert [str(c) for c in got] == [str(c) for c in want]


def test_raw_cleared_table_waits_for_a_scalar_charpoly(monkeypatch):
    """generic_charpoly, disc's charpoly, reads the cleared table alone; the
    cleared table with raw numerators is built on the first scalar charpoly,
    once, and serves every later one."""
    k2 = FunctionField(2)
    ext = from_minimal_polynomial(k2, parse_poly("t^4 + t/x + 1", k2, ("t",)), "t")
    built = [0]
    real = extensions._refilled

    def counted(*args):
        built[0] += 1
        return real(*args)

    monkeypatch.setattr(extensions, "_refilled", counted)
    generic_charpoly(ext.basis_element(1), ("x_1", "x_2", "x_3", "x_4"))
    assert built == [1]
    b = ext.element([k2.one() / k2.variable(), 0, 1, 0])
    chi = charpoly(b)
    assert built == [2]
    raw = ext.cleared_raw_structure()
    assert charpoly(b) == chi and ext.cleared_raw_structure() is raw
    assert built == [2]
    assert list(chi.coefficients) == field_element_charpoly(b)
