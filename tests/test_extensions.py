import random
from fractions import Fraction

import pytest

from weilres import (FreeExtension, IncompatibleFieldError, Poly,
                     UnsupportedOperationError, charpoly, extend_scalars,
                     from_minimal_polynomial, is_integral, is_nilpotent,
                     mult_matrix, parse_poly, structure_table, tensor_product)
from weilres.linalg import mat_is_zero, mat_mul

from conftest import (charpoly_matrix_value, naive_charpoly_coeffs,
                      reference_validate)


# -- construction ------------------------------------------------------------

def test_minimal_polynomial_inseparable_over_function_field(k2):
    m = parse_poly("t^2 - x", k2, ("t",))
    ext = from_minimal_polynomial(k2, m, "t")
    t = ext.basis_element(1)
    assert ext.rank == 2
    assert (t * t).coords == (k2.variable(), k2(0))


def test_minimal_polynomial_degree_one(rationals):
    m = parse_poly("t - 5", rationals, ("t",))
    ext = from_minimal_polynomial(rationals, m, "t")
    assert ext.rank == 1
    assert ext.unit_element() * ext.unit_element() == ext.unit_element()


def test_minimal_polynomial_f9(f3):
    ext = from_minimal_polynomial(f3, parse_poly("t^2 + 1", f3, ("t",)), "t")
    t = ext.basis_element(1)
    assert t * t == ext.scalar(f3(-1))


def test_non_monic_rejected(rationals):
    with pytest.raises(ValueError):
        from_minimal_polynomial(rationals, parse_poly("2*t^2 - 1", rationals, ("t",)))


def test_structure_constant_validation(f3):
    # a deliberately non-associative table gets rejected
    bad = [[[f3(1), f3(0)], [f3(0), f3(1)]],
           [[f3(0), f3(1)], [f3(1), f3(1)]]]
    FreeExtension(f3, ("1", "t"), structure_table(f3, bad), (f3(1), f3(0)))  # t^2 = 1 + t: fine
    worse = [[[f3(1), f3(0)], [f3(0), f3(1)]],
             [[f3(0), f3(1)], [f3(2), f3(2)]]]
    # x^2 = 2 + 2t over F_3 with x*1 = x is still associative; break the unit
    with pytest.raises(ValueError):
        FreeExtension(f3, ("1", "t"), structure_table(f3, worse), (f3(0), f3(1)))


def _refused(field, table, unit, message):
    """The table is refused with message, on construction and by the
    generic-product reference."""
    names = tuple("e%d" % (i + 1) for i in range(len(unit)))
    table = structure_table(field, table)
    with pytest.raises(ValueError, match=message):
        FreeExtension(field, names, table, unit)
    ext = FreeExtension(field, names, table, unit, validate=False)
    with pytest.raises(ValueError, match=message):
        reference_validate(ext)


def test_non_commutative_table_rejected(f3):
    # e_2 e_1 = e_2 but e_1 e_2 = 0
    _refused(f3, [[[f3(1), f3(0)], [f3(0), f3(0)]],
                  [[f3(0), f3(1)], [f3(0), f3(0)]]], (f3(1), f3(0)),
             r"not commutative at \(1, 0\)")


def test_unit_law_failure_rejected(f2):
    # the table of F_4 = F_2[w]/(w^2 + w + 1) with w declared the unit
    _refused(f2, [[[f2(1), f2(0)], [f2(0), f2(1)]],
                  [[f2(0), f2(1)], [f2(1), f2(1)]]], (f2(0), f2(1)),
             "unit law fails on basis vector 0")


def test_commutative_non_associative_table_rejected(f3):
    # basis 1, x, y with x^2 = y, x*y = 0 and y^2 = 1: commutative with unit
    # e_1, but (x*x)*y = 1 while x*(x*y) = 0
    o, i = f3(0), f3(1)
    one, x, y, zero = [i, o, o], [o, i, o], [o, o, i], [o, o, o]
    _refused(f3, [[one, x, y], [x, y, zero], [y, zero, one]], (i, o, o),
             r"associativity fails on basis triple \(1, 1, 2\)")


def test_raw_basis_labels_resolve(f3, k2):
    ext = FreeExtension(f3, ("a", "b"), structure_table(
        f3, [[[f3(1), f3(0)], [f3(0), f3(1)]],
             [[f3(0), f3(1)], [f3(2), f3(0)]]]), (f3(1), f3(0)))
    assert (parse_poly("u - b", ext, ("u",))
            == Poly.variable(ext, "u") - Poly.constant(ext, ext.basis_element(1)))
    assert parse_poly("a*b + b^2", ext).constant_value() == ext.element([2, 1])
    # an extension's label wins over its base's symbol: here e_2 is named x
    # over F_2(x), with e_2^2 = x
    x = k2.symbol_constant("x")
    zero, one = k2.zero(), k2.one()
    sq = FreeExtension(k2, ("1", "x"), structure_table(
        k2, [[[one, zero], [zero, one]], [[zero, one], [x, zero]]]), (one, zero))
    assert parse_poly("x", sq).constant_value() == sq.basis_element(1)
    assert parse_poly("x^2", sq).constant_value() == sq.scalar(x)


def test_rank_cap(f2):
    with pytest.raises(ValueError):
        FreeExtension(f2, tuple("e%d" % i for i in range(17)),
                      structure_table(f2, [[[f2(0)] * 17] * 17] * 17), [f2(0)] * 17)


# -- multiplication matrices and characteristic polynomials -------------------

def test_mult_matrix_unit_is_identity(sqrt2_2adic):
    ext = sqrt2_2adic
    m = mult_matrix(ext.unit_element())
    assert m == ((ext.base.one(), ext.base.zero()),
                 (ext.base.zero(), ext.base.one()))


def test_mult_matrix_generator(rationals):
    d = rationals(7)
    ext = from_minimal_polynomial(rationals, parse_poly("t^2 - 7", rationals, ("t",)))
    t = ext.basis_element(1)
    m = mult_matrix(t)
    assert m == ((rationals(0), d), (rationals(1), rationals(0)))


def test_mult_matrix_symbolic(rationals):
    ext = from_minimal_polynomial(rationals, parse_poly("t^2 - 7", rationals, ("t",)))
    b = ext.element((Poly.variable(rationals, "x1"), Poly.variable(rationals, "x2")))
    m = mult_matrix(b)
    assert all(isinstance(entry, Poly) for row in m for entry in row)
    x1 = Poly.variable(rationals, "x1")
    x2 = Poly.variable(rationals, "x2")
    assert m[0][0] == x1
    assert m[0][1] == x2.scale(7)
    assert m[1][0] == x2
    assert m[1][1] == x1


def test_charpoly_scalar_is_power(rationals):
    ext = from_minimal_polynomial(rationals, parse_poly("t^3 - 2", rationals, ("t",)))
    a = rationals(Fraction(5, 3))
    chi = charpoly(ext.scalar(a))
    # (z - a)^3 = z^3 - 3a z^2 + 3a^2 z - a^3
    assert chi.coefficients == (-3 * a, 3 * a * a, -(a ** 3))


def test_charpoly_quadratic_symbolic(rationals):
    ext = from_minimal_polynomial(rationals, parse_poly("t^2 - 7", rationals, ("t",)))
    x1 = Poly.variable(rationals, "x1")
    x2 = Poly.variable(rationals, "x2")
    chi = charpoly(ext.element((x1, x2)))
    assert chi.coefficient(1) == x1.scale(-2)
    assert chi.coefficient(2) == x1 ** 2 - (x2 ** 2).scale(7)


def test_charpoly_against_cofactor_oracle(rationals, f3):
    rng = random.Random(3)
    for field in (rationals, f3):
        ext = from_minimal_polynomial(
            field, parse_poly("t^3 + t + 1", field, ("t",)))
        for _ in range(20):
            b = ext.random_element(rng)
            chi = charpoly(b)
            oracle = naive_charpoly_coeffs(mult_matrix(b), b.ring)
            got = [Poly.constant(field, c) for c in chi.coefficients]
            assert got == oracle[1:]


def test_charpoly_oracle_rank_four(f3, k2):
    rng = random.Random(9)
    quartic = from_minimal_polynomial(f3, parse_poly("t^4 + t + 2", f3, ("t",)))
    for _ in range(10):
        b = quartic.random_element(rng)
        oracle = naive_charpoly_coeffs(mult_matrix(b), b.ring)
        assert [Poly.constant(f3, c)
                for c in charpoly(b).coefficients] == oracle[1:]
    insep = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    big = tensor_product(insep, insep)
    for _ in range(5):
        b = big.random_element(rng)
        oracle = naive_charpoly_coeffs(mult_matrix(b), b.ring)
        assert [Poly.constant(k2, c)
                for c in charpoly(b).coefficients] == oracle[1:]


def test_charpoly_oracle_symbolic(rationals):
    ext = from_minimal_polynomial(rationals, parse_poly("t^2 - 7", rationals, ("t",)))
    b = ext.element((Poly.variable(rationals, "x1"), Poly.variable(rationals, "x2")))
    chi = charpoly(b)
    oracle = naive_charpoly_coeffs(mult_matrix(b), b.ring)
    assert list(chi.coefficients) == oracle[1:]


def test_cayley_hamilton_random(q2, f3):
    rng = random.Random(11)
    for field in (q2, f3):
        ext = from_minimal_polynomial(field, parse_poly("t^2 + t + 1"
                                                        if field is f3 else "t^2 - 2",
                                                        field, ("t",)))
        for _ in range(50):
            b = ext.random_element(rng)
            m = mult_matrix(b)
            assert mat_is_zero(charpoly_matrix_value(charpoly(b), m, b.ring))
    # polynomial coordinates
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    for _ in range(50):
        coords = []
        for _ in range(2):
            terms = {(rng.randint(0, 2),): q2.random_element(rng)}
            coords.append(Poly(q2, ("s",), terms))
        b = ext.element(tuple(coords))
        m = mult_matrix(b)
        assert mat_is_zero(charpoly_matrix_value(charpoly(b), m, b.ring))


def test_mult_matrix_is_ring_homomorphism(f9_ext):
    rng = random.Random(23)
    ext = f9_ext

    def mat_add(a, b):
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    for _ in range(100):
        b1 = ext.random_element(rng)
        b2 = ext.random_element(rng)
        assert mult_matrix(b1 * b2) == mat_mul(mult_matrix(b1), mult_matrix(b2))
        assert mult_matrix(b1 + b2) == mat_add(mult_matrix(b1), mult_matrix(b2))


def test_charpoly_coefficient_scaling_law(q2, k3):
    rng = random.Random(29)
    for field, mod in ((q2, "t^2 - 2"), (k3, "t^3 - x")):
        ext = from_minimal_polynomial(field, parse_poly(mod, field, ("t",)))
        for _ in range(100):
            a = field.random_element(rng)
            b = ext.random_element(rng)
            left = charpoly(b.scale(a))
            right = charpoly(b)
            for i in range(1, ext.rank + 1):
                assert left.coefficient(i) == (a ** i) * right.coefficient(i)


# -- integrality ---------------------------------------------------------------

def test_integrality_golden(sqrt2_2adic):
    ext = sqrt2_2adic
    t = ext.basis_element(1)
    assert is_integral(t)
    assert not is_integral(t.scale(Fraction(1, 2)))
    assert is_integral(ext.unit_element())


def test_integrality_needs_valuation(rationals):
    ext = from_minimal_polynomial(rationals, parse_poly("t^2 - 2", rationals, ("t",)))
    with pytest.raises(UnsupportedOperationError):
        is_integral(ext.basis_element(1))


def test_integrality_rejects_polynomial_coords(q2):
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    b = ext.element((Poly.variable(q2, "s"), Poly.zero(q2, ("s",))))
    with pytest.raises(UnsupportedOperationError):
        is_integral(b)


def test_integral_elements_form_a_ring(q2):
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    rng = random.Random(31)
    found = 0
    while found < 100:
        b1 = ext.random_element(rng)
        b2 = ext.random_element(rng)
        if not (is_integral(b1) and is_integral(b2)):
            continue
        found += 1
        assert is_integral(b1 * b2)
        assert is_integral(b1 + b2)


# -- tensor products -----------------------------------------------------------

def test_tensor_with_rank_one_is_identity_like(f9_ext, f3):
    triv = from_minimal_polynomial(f3, parse_poly("t - 1", f3, ("t",)), "s")
    prod = tensor_product(f9_ext, triv)
    assert prod.rank == 2
    y = prod.basis_element(1)
    assert (y * y) == prod.scalar(f3(-1))


def test_tensor_self_square_nilpotent(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    big = tensor_product(ext, ext)
    assert big.rank == 4
    y = big.basis_element(1)      # 1 (x) t
    tbar = big.basis_element(2)   # t (x) 1
    diff = y - tbar
    assert (diff * diff).is_zero()
    assert is_nilpotent(diff)
    assert all(c.is_zero() for c in charpoly(diff).coefficients)


def test_tensor_f9_f9_splits(f9_ext, f3):
    big = tensor_product(f9_ext, f9_ext)
    assert big.rank == 4
    unit = big.unit_element()
    idempotents = [e for e in big.elements()
                   if e * e == e and not e.is_zero() and e != unit]
    assert idempotents, "the split algebra has nontrivial idempotents"
    e = idempotents[0]
    f = unit - e
    assert (e * f).is_zero()
    assert f * f == f


def test_equal_extensions_built_apart_hash_equal(f3):
    # the hash is computed once per extension; equal extensions must still
    # agree on it, so that their elements meet as keys of one set
    def build():
        f9 = from_minimal_polynomial(f3, parse_poly("t^2 + 1", f3, ("t",)), "t")
        return f9, tensor_product(f9, f9)

    (a, big_a), (b, big_b) = build(), build()
    for x, y in ((a, b), (big_a, big_b)):
        assert x is not y and x == y and hash(x) == hash(y)
        keys = set(x.elements())
        assert all(e in keys for e in y.elements())
        assert len(keys | set(y.elements())) == x.size()


def test_tensor_base_mismatch(f9_ext, f4_ext):
    with pytest.raises(IncompatibleFieldError):
        tensor_product(f9_ext, f4_ext)


# -- nilpotency ----------------------------------------------------------------

def test_nilpotency_basics(f9_ext):
    assert is_nilpotent(f9_ext.zero_element())
    assert not is_nilpotent(f9_ext.unit_element())


def test_equality_across_scalar_and_poly_coordinates(f3, f9_ext):
    scalar = f9_ext.element([1, 0])
    lifted = f9_ext.element([Poly.constant(f3, 1), Poly.zero(f3)])
    assert scalar == lifted and lifted == scalar
    assert scalar != f9_ext.element([Poly.zero(f3), Poly.constant(f3, 1)])


def test_extend_scalars(f3, f9_ext):
    from weilres import GaloisField
    f9_field = GaloisField(3, (1, 0, 1), "t")
    lifted = extend_scalars(f9_ext, f9_field)
    assert lifted.base == f9_field
    t = lifted.basis_element(1)
    assert t * t == lifted.scalar(f9_field(-1))


def test_element_strings(sqrt2_2adic):
    ext = sqrt2_2adic
    b = ext.element((Fraction(1, 2), Fraction(-3, 1)))
    assert str(b) == "1/2 - 3*t"
    assert str(ext.element((0, -1))) == "-t"
    assert str(ext.zero_element()) == "0"


def test_monic_poly_strings(rationals, k2, f3):
    # recorded before MonicPoly.to_string shared Poly's term and join code
    from weilres import GaloisField
    from weilres.extensions import MonicPoly
    from weilres.poly import PolyRing
    q = rationals
    x = k2.variable()
    f9 = GaloisField(3, (1, 0, 1))
    t = f9.symbol_constant("t")
    ring = PolyRing(f3)
    goldens = [
        (MonicPoly(q, [q(-1), q(0), q(Fraction(-3, 2)), q(2)]),
         "z^4 - z^3 - 3/2*z + 2"),
        (MonicPoly(q, [q(-1)]), "z - 1"),
        (MonicPoly(q, [q(0), q(Fraction(1, 3))]), "z^2 + 1/3"),
        (MonicPoly(k2, [x + k2(1), k2(0), x / (x + k2(1))]),
         "z^3 + (x + 1)*z^2 + (x)/(x + 1)"),
        (MonicPoly(f9, [t + f9(1), f9(2), t]), "z^3 + (t + 1)*z^2 + 2*z + t"),
        (MonicPoly(ring, [parse_poly("u - 1", f3, ("u",)),
                          -parse_poly("u", f3, ("u",)),
                          parse_poly("2*u*v + 1", f3, ("u", "v")),
                          Poly.constant(f3, 2)]),
         "z^4 + (u + 2)*z^3 + 2*u*z^2 + (2*u*v + 1)*z + 2"),
        (MonicPoly(PolyRing(q), [parse_poly("-u/2", q, ("u",)),
                                 parse_poly("-1", q, ("u",))]),
         "z^2 - 1/2*u*z - 1"),
    ]
    for mp, text in goldens:
        assert mp.to_string() == text
        assert mp.to_string("y") == text.replace("z", "y")
