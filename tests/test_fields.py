import itertools
import random
from fractions import Fraction

import pytest

from weilres import (FunctionField, GaloisField, IncompatibleFieldError,
                     LogNorm, MINUS_INF, Poly, PrimeField, RationalField,
                     UnsupportedOperationError, canonical_embedding,
                     from_minimal_polynomial, parse_poly)
from weilres.fields import PRIME_BOUND, _RatFunc, _is_irreducible, _is_prime, _umul


def test_prime_field_arithmetic(f3):
    a, b = f3(2), f3(2)
    assert a + b == f3(1)
    assert a * b == f3(1)
    assert (-a) == f3(1)
    assert a.inverse() * a == f3.one()
    assert len(f3.elements()) == 3


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_primality_is_exact_below_the_bound():
    small = [n for n in range(200) if _is_prime(n)]
    assert small == [n for n in range(2, 200)
                     if all(n % d for d in range(2, n))]
    assert _is_prime(2 ** 61 - 1)                     # Mersenne prime
    assert not _is_prime(561)                         # Carmichael number
    assert not _is_prime(3215031751)    # strong pseudoprime to 2, 3, 5, 7
    # strong pseudoprime to every prime base up to 37, so base 41 is needed
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        PrimeField(PRIME_BOUND)


@pytest.mark.parametrize("bad", [3.0, True, "3", Fraction(3)])
def test_characteristic_must_be_an_int(bad):
    for build in (PrimeField, FunctionField, lambda p: RationalField(padic=p),
                  lambda p: GaloisField(p, (1, 0, 1))):
        with pytest.raises(ValueError, match="not an integer"):
            build(bad)


def test_mixed_fields_raise(f2, f3):
    with pytest.raises(IncompatibleFieldError):
        f2(1) + f3(1)


def test_galois_field_construction_checks():
    # (t+1)^2 = t^2 + 2t + 1 is reducible over F_3
    with pytest.raises(ValueError):
        GaloisField(3, (1, 2, 1))
    # t^2 + 1 is irreducible over F_3
    f9 = GaloisField(3, (1, 0, 1))
    assert f9.size() == 9
    # degree cap
    with pytest.raises(ValueError):
        GaloisField(2, (1, 1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        GaloisField(2, (1, 1))


def _reducible_monics(p, m):
    """Reference: all products of two monic polynomials over F_p of positive
    degrees summing to m."""
    def monics(d):
        return [t + (1,) for t in itertools.product(range(p), repeat=d)]
    return {_umul(a, b, p) for d in range(1, m // 2 + 1)
            for a in monics(d) for b in monics(m - d)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rabin_irreducibility_matches_brute_force(p):
    # from degree 5 on, a product of irreducible factors of degrees 2 and 3
    # passes the gcd conditions and only the divisibility condition fails it
    for m in range(1, 6 if p <= 3 else 5):
        reducible = _reducible_monics(p, m)
        for tail in itertools.product(range(p), repeat=m):
            f = tail + (1,)
            assert _is_irreducible(f, p) == (f not in reducible), f


def test_galois_field_arithmetic():
    f9 = GaloisField(3, (1, 0, 1), "t")
    t = f9.generator()
    assert t * t == f9(-1)
    assert t ** 9 == t            # Frobenius fixed point of F_9
    assert (t + 1) * (t + 1).inverse() == f9.one()
    assert len(set(f9.elements())) == 9
    assert str(t + f9(2)) == "t + 2"


def test_galois_kind_has_no_valuation():
    f9 = GaloisField(3, (1, 0, 1))
    with pytest.raises(UnsupportedOperationError):
        f9.lognorm(f9.one())


def test_padic_lognorm_examples(q2):
    assert q2.lognorm(q2(Fraction(1, 2))) == LogNorm(1)
    assert q2.lognorm(q2(4)) == LogNorm(-2)
    assert q2.lognorm(q2(3)) == LogNorm(0)
    assert q2.lognorm(q2(0)) == MINUS_INF
    assert q2.lognorm(q2.one()) == LogNorm(0)


def test_function_field_lognorm_examples(k2):
    x = k2.variable()
    assert k2.lognorm(x) == LogNorm(-1)
    for k in (1, 2, 5):
        assert k2.lognorm(x.inverse() ** k) == LogNorm(k)
    assert k2.lognorm(k2.one()) == LogNorm(0)
    assert k2.lognorm(k2(0)) == MINUS_INF


def test_function_field_r_constraint():
    with pytest.raises(ValueError):
        FunctionField(2, Fraction(3, 2))
    with pytest.raises(ValueError):
        FunctionField(4)


def test_function_field_arithmetic(k2):
    x = k2.variable()
    a = (x + 1) / x
    assert a * x == x + 1
    assert (a - a).is_zero()
    assert str(a) == "(x + 1)/(x)" and str(a - a) == "0"
    assert a.inverse() * a == k2.one()


@pytest.mark.parametrize("field_name", ["q2", "k3"])
def test_valuation_axioms_random(field_name, request):
    field = request.getfixturevalue(field_name)
    rng = random.Random(7)
    for _ in range(200):
        a = field.random_element(rng)
        b = field.random_element(rng)
        la, lb = field.lognorm(a), field.lognorm(b)
        assert field.lognorm(a * b) == la + lb
        assert field.lognorm(a + b) <= max(la, lb)
    assert field.lognorm(field.one()) == LogNorm(0)


def test_embeddings(f3, q2, k2):
    f9 = GaloisField(3, (1, 0, 1))
    emb = canonical_embedding(f3, f9)
    assert emb(f3(2)) == f9(2)
    with pytest.raises(IncompatibleFieldError):
        canonical_embedding(f3, PrimeField(5))
    plain = RationalField()
    into_valued = canonical_embedding(plain, q2)
    assert into_valued(plain(Fraction(1, 3))).value == Fraction(1, 3)
    with pytest.raises(IncompatibleFieldError):
        canonical_embedding(q2, RationalField(padic=3))
    with pytest.raises(IncompatibleFieldError):
        canonical_embedding(k2, FunctionField(2, Fraction(1, 3)))


def test_element_hash_and_sort_keys(k2, q2):
    x = k2.variable()
    assert hash(x) == hash(k2.variable())
    assert sorted([q2(3), q2(1)], key=lambda e: e.sort_key()) == [q2(1), q2(3)]


def test_function_field_sort_key_orders_numerators_then_denominators(k2):
    # keys are the (numerator, denominator) ascending coefficient tuples,
    # compared lexicographically: 1/x = (1,)/(0, 1), 1 = (1,)/(1,) and
    # 1/(x + 1) = (1,)/(1, 1) share a numerator and order by denominator
    x, one, zero = k2.variable(), k2.one(), k2.zero()
    elements = [x + 1, one, x.inverse(), x, zero, (x + 1).inverse()]
    assert sorted(elements, key=lambda e: e.sort_key()) == [
        zero, x, x.inverse(), one, (x + 1).inverse(), x + 1]


def test_elements_equal_integers_by_coercion(f3, q2, k2):
    assert f3(4) == 1 and f3(2) == -1 and f3(2) != 1
    assert q2(3) == 3 and q2(Fraction(1, 2)) != 0
    assert k2.variable() ** 0 == 3 and k2.variable() != 0


def _quadratic_over_q():
    q = RationalField()
    return from_minimal_polynomial(q, parse_poly("t^2 + 1", q, ("t",)), "t")


@pytest.mark.parametrize("domain, value", [
    (lambda: PrimeField(3), Fraction(1, 2)),
    (RationalField, "1/2"),
    (lambda: FunctionField(2), _RatFunc((1, 1), (1, 1))),
    (_quadratic_over_q, Poly.variable(RationalField(), "u")),
], ids=["Fraction into F_p", "str into Q", "raw value into F_p(x)",
        "Poly into an extension"])
def test_coerce_takes_integers_and_elements_only(domain, value):
    # a raw F_p(x) value would be stored unreduced: (x + 1)/(x + 1) != 1
    with pytest.raises(TypeError):
        domain().coerce(value)


def test_algebra_elements_take_integer_operands():
    ext = _quadratic_over_q()
    one, t = ext.unit_element(), ext.basis_element(1)
    assert t + 1 == 1 + t == t + one
    assert 2 * t == t * 2 == t + t
    assert (t + 1) * (t - 1) == -2 * one


def test_algebra_elements_scale_by_base_scalars_only():
    ext = _quadratic_over_q()
    with pytest.raises(TypeError):
        ext.unit_element().scale(Poly.variable(ext.base, "u"))
