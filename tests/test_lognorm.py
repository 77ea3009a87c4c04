from fractions import Fraction

import pytest

from weilres import LogNorm, MINUS_INF, lognorm_max


def test_total_order():
    assert MINUS_INF < LogNorm(-1000)
    assert LogNorm(-1) < LogNorm(0) < LogNorm(Fraction(1, 2)) < LogNorm(1)
    assert not (MINUS_INF < MINUS_INF)
    assert MINUS_INF <= MINUS_INF
    assert LogNorm(3) >= LogNorm(3)


def test_comparisons_keep_their_former_definitions():
    """The six comparisons against their definitions from the values alone:
    -inf below every finite value, <= as == or <, > and >= as the swapped
    < and <=, != as not ==."""
    values = [MINUS_INF, LogNorm(-3), LogNorm(Fraction(-1, 2)), LogNorm(0),
              LogNorm(Fraction(1, 3)), LogNorm(Fraction(2, 6)), LogNorm(7)]

    def less(a, b):
        if a.value is None:
            return b.value is not None
        return b.value is not None and a.value < b.value

    def less_equal(a, b):
        return a.value == b.value or less(a, b)

    for a in values:
        for b in values:
            assert (a == b) is (a.value == b.value)
            assert (a != b) is (a.value != b.value)
            assert (a < b) is less(a, b)
            assert (a <= b) is less_equal(a, b)
            assert (a > b) is less(b, a)
            assert (a >= b) is less_equal(b, a)


def test_addition_absorbs_minus_inf():
    assert (MINUS_INF + LogNorm(5)) == MINUS_INF
    assert (LogNorm(5) + MINUS_INF) == MINUS_INF
    assert (LogNorm(Fraction(1, 3)) + LogNorm(Fraction(2, 3))) == LogNorm(1)


def test_integer_roots_are_exact_division():
    assert LogNorm(1) / 2 == LogNorm(Fraction(1, 2))
    assert LogNorm(Fraction(-3, 2)) / 3 == LogNorm(Fraction(-1, 2))
    assert MINUS_INF / 7 == MINUS_INF
    with pytest.raises(ValueError):
        LogNorm(1) / 0


def test_scaling_and_subtraction():
    assert LogNorm(Fraction(1, 2)) * 4 == LogNorm(2)
    assert LogNorm(3) - LogNorm(1) == LogNorm(2)
    assert MINUS_INF - LogNorm(1) == MINUS_INF


def test_max_and_parse():
    assert lognorm_max([]) == MINUS_INF
    assert lognorm_max([MINUS_INF, LogNorm(-2), LogNorm(1)]) == LogNorm(1)
    assert LogNorm.parse("-inf") == MINUS_INF
    assert LogNorm.parse("7/2") == LogNorm(Fraction(7, 2))
    assert str(MINUS_INF) == "-inf"
    assert str(LogNorm(Fraction(-1, 2))) == "-1/2"
