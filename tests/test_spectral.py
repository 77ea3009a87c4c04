import random
from fractions import Fraction

import pytest

from weilres import (EnumerationBoundError, LogNorm, MINUS_INF, MonicPoly,
                     UnsupportedOperationError, charpoly,
                     coordinate_norm_spread, from_minimal_polynomial,
                     is_integral, is_nilpotent, non_quasicompact_witness,
                     parse_poly, power_norm_bound, spectral_radius,
                     spectral_value, spectral_value_product_check,
                     tensor_product)
from weilres.verify import random_monic


def test_spectral_value_pure_power(q2):
    p = MonicPoly(q2, (q2.zero(), q2.zero(), q2.zero()))
    assert spectral_value(p) == MINUS_INF


def test_spectral_value_half(q2):
    p = MonicPoly(q2, (q2.zero(), q2(Fraction(-1, 2))))
    assert spectral_value(p) == LogNorm(Fraction(1, 2))


def test_spectral_value_needs_valuation(rationals):
    p = MonicPoly(rationals, (rationals(1),))
    with pytest.raises(UnsupportedOperationError):
        spectral_value(p)


def test_product_check_golden(q2):
    p = MonicPoly(q2, (q2(-2),))
    q = MonicPoly(q2, (q2(Fraction(-1, 2)),))
    pq = p * q
    assert pq.coefficients == (q2(Fraction(-5, 2)), q2(1))
    assert spectral_value(pq) == LogNorm(1)
    assert spectral_value_product_check(p, q)


def test_product_check_trivial(q2):
    z = MonicPoly(q2, (q2.zero(),))
    assert spectral_value_product_check(z, z)


def test_product_check_random_function_field(k3):
    rng = random.Random(17)
    for _ in range(100):
        p = random_monic(rng, k3)
        q = random_monic(rng, k3)
        assert spectral_value_product_check(p, q)


def test_spectral_radius_examples(q2, k2):
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    assert spectral_radius(ext.basis_element(1)) == LogNorm(Fraction(-1, 2))
    assert spectral_radius(ext.unit_element()) == LogNorm(0)
    insep = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    big = tensor_product(insep, insep)
    nil = big.basis_element(1) - big.basis_element(2)
    assert spectral_radius(nil) == MINUS_INF
    assert all(c.is_zero() for c in charpoly(nil).coefficients)


def test_spectral_radius_submultiplicative(q2):
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    rng = random.Random(19)
    for _ in range(100):
        b1 = ext.random_element(rng)
        b2 = ext.random_element(rng)
        assert spectral_radius(b1 * b2) <= spectral_radius(b1) + spectral_radius(b2)


def test_integral_iff_spectral_radius_at_most_one(q2, q3):
    rng = random.Random(37)
    for field, mod in ((q2, "t^2 - 2"), (q3, "t^2 - 3")):
        ext = from_minimal_polynomial(field, parse_poly(mod, field, ("t",)))
        for _ in range(100):
            b = ext.random_element(rng)
            assert is_integral(b) == (spectral_radius(b) <= LogNorm(0))


def test_power_norm_bound_converges_from_above(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    rng = random.Random(43)
    checked = 0
    for _ in range(50):
        b = ext.random_element(rng)
        rho = spectral_radius(b)
        bound = power_norm_bound(b, 8)
        if rho.is_minus_inf:
            assert bound.is_minus_inf
            continue
        checked += 1
        assert rho <= bound
        spread = coordinate_norm_spread(b)
        assert bound - rho <= spread / 8
    assert checked >= 40


def test_witness_golden(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    cert = non_quasicompact_witness(ext, LogNorm(3))
    assert cert.k == 4
    assert cert.nilpotency_order == 2
    assert (cert.element * cert.element).is_zero()
    assert is_nilpotent(cert.element)
    assert spectral_radius(cert.element) == MINUS_INF
    assert cert.scale_lognorm == LogNorm(4)
    record = cert.as_record()
    assert record["k"] == 4 and record["threshold"] == "3"


def test_witness_threshold_minus_inf(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    cert = non_quasicompact_witness(ext, MINUS_INF)
    assert cert.k == 1


def test_witness_fractional_threshold(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    assert non_quasicompact_witness(ext, LogNorm(Fraction(7, 2))).k == 4
    assert non_quasicompact_witness(ext, LogNorm(4)).k == 5


@pytest.mark.parametrize("threshold", [0, Fraction(1, 2), Fraction(-1, 2), -3])
def test_witness_scale_at_least_one(k2, threshold):
    """The least k >= 1 above a threshold below 1 is k = 1."""
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    assert non_quasicompact_witness(ext, LogNorm(threshold)).k == 1


def test_witness_scale_is_bounded_before_it_is_built(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    with pytest.raises(EnumerationBoundError):
        non_quasicompact_witness(ext, LogNorm(1000))
    assert non_quasicompact_witness(ext, LogNorm(7)).k == 8


def test_witness_char3_variant(k3):
    ext = from_minimal_polynomial(k3, parse_poly("t^3 - x", k3, ("t",)), "t")
    cert = non_quasicompact_witness(ext, LogNorm(3))
    b = cert.element
    assert cert.k == 4
    assert cert.nilpotency_order == 3
    assert not (b * b).is_zero()
    assert (b * b * b).is_zero()
    assert spectral_radius(b) == MINUS_INF


def test_witness_rejects_separable(k2):
    sep = from_minimal_polynomial(k2, parse_poly("t^2 + t + x", k2, ("t",)), "t")
    with pytest.raises(UnsupportedOperationError) as err:
        non_quasicompact_witness(sep, LogNorm(3))
    assert "separable" in str(err.value)


def test_witness_rejects_wrong_base(q2):
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    with pytest.raises(UnsupportedOperationError):
        non_quasicompact_witness(ext, LogNorm(3))


def test_witness_rejects_wrong_degree(k2):
    # degree 4 over characteristic 2 is not the monogenic degree-p shape
    quartic = from_minimal_polynomial(k2, parse_poly("t^4 - x", k2, ("t",)), "t")
    with pytest.raises(UnsupportedOperationError):
        non_quasicompact_witness(quartic, LogNorm(3))
