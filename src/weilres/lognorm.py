"""Multiplicative norm values on an additive logarithmic scale.

A norm value is recorded as an exact rational (or the symbol -inf for the
norm of zero).  The convention throughout the package: larger LogNorm means
larger norm, the unit has LogNorm 0, so on the additive scale

    lognorm(a*b) = lognorm(a) + lognorm(b)
    lognorm(a+b) <= max(lognorm(a), lognorm(b))
    lognorm(0)   = -inf, lognorm(1) = 0.

i-th roots on the multiplicative scale become exact division by i, so no
real arithmetic ever enters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class LogNorm:
    __slots__ = ("value",)

    def __init__(self, value):
        # value: a Fraction or int for a finite log-norm, or None for -inf;
        # operands of the comparisons and sums below are LogNorms
        self.value = None if value is None else Fraction(value)

    @property
    def is_minus_inf(self):
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, LogNorm):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("LogNorm", self.value))

    def __lt__(self, other):
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __add__(self, other):
        if self.value is None or other.value is None:
            return MINUS_INF
        return LogNorm(self.value + other.value)

    def __sub__(self, other):
        if other.value is None:
            raise ValueError("cannot subtract -inf")
        if self.value is None:
            return MINUS_INF
        return LogNorm(self.value - other.value)

    def __mul__(self, k):
        # integer scaling: k-th power on the multiplicative scale
        if not isinstance(k, int):
            return NotImplemented
        if self.value is None:
            if k == 0:
                raise ValueError("0 * -inf is undefined")
            return MINUS_INF
        return LogNorm(self.value * k)

    __rmul__ = __mul__

    def __truediv__(self, k):
        # i-th root on the multiplicative scale
        if not isinstance(k, int) or k <= 0:
            raise ValueError("log-norms divide by positive integers only")
        if self.value is None:
            return MINUS_INF
        return LogNorm(self.value / k)

    def __repr__(self):
        return "LogNorm(%s)" % str(self)

    def __str__(self):
        return "-inf" if self.value is None else str(self.value)

    @staticmethod
    def parse(text):
        text = text.strip()
        if text == "-inf":
            return MINUS_INF
        return LogNorm(Fraction(text))


MINUS_INF = LogNorm(None)


def lognorm_max(values):
    """Maximum of an iterable of LogNorms; -inf on an empty iterable."""
    best = MINUS_INF
    for v in values:
        if best < v:
            best = v
    return best
