"""Spectral values of monic polynomials and spectral radii of algebra elements.

The spectral value of z^n + c_1 z^(n-1) + ... + c_n over a valued field is
max_i |c_i|^(1/i), computed exactly on the log scale as max_i lognorm(c_i)/i.
The spectral radius of an element of a finite free extension is the spectral
value of its characteristic polynomial; that identity is taken as the
computational definition, with the power-norm limit kept only as a one-sided
convergence check in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EnumerationBoundError, UnsupportedOperationError
from .extensions import charpoly, is_nilpotent, tensor_product
from .fields import FunctionField
from .lognorm import LogNorm, MINUS_INF, lognorm_max
from .poly import POWER_DEGREE_BOUND, Poly


def spectral_value(p):
    """max over i of lognorm(c_i) / i; -inf exactly when all c_i vanish."""
    ring = p.ring
    if not getattr(ring, "has_valuation", False):
        raise UnsupportedOperationError("spectral values need a valued coefficient field")
    return _max_ratio(ring._order(c.value) for c in p.coefficients)


def _max_ratio(orders):
    """The LogNorm max over i of v_i / i for integer orders v_i (None for
    zero), compared by cross-multiplication; -inf when all are None."""
    best, at = None, 1
    for i, v in enumerate(orders, start=1):
        if v is not None and (best is None or v * at > best * i):
            best, at = v, i
    return MINUS_INF if best is None else LogNorm(Fraction(best, at))


def spectral_value_product_check(p, q):
    """Whether sigma(p*q) = max(sigma(p), sigma(q)); contractually always
    true.  sigma(p*q) is read off the cleared product (d, C_k), nothing
    normalised: lognorm(C_k / d) = order(C_k) - order(d)."""
    # different rings are refused before a ring without a valuation
    d, numerators = p.cleared_product(q)
    rhs = max(spectral_value(p), spectral_value(q))
    order = p.ring._numerator_order
    shift = order(d)
    return _max_ratio(v if v is None else v - shift for v in map(order, numerators)) == rhs


def spectral_radius(b):
    """Spectral value of the characteristic polynomial of b."""
    if any(isinstance(c, Poly) for c in b.coords):
        raise UnsupportedOperationError("spectral radius needs scalar coordinates")
    base = b.extension.base
    if not getattr(base, "has_valuation", False):
        raise UnsupportedOperationError("spectral radius needs a valued base field")
    return spectral_value(charpoly(b))


def coordinate_norm(b):
    """Max log-norm of the coordinates of b (a norm on the free module)."""
    base = b.extension.base
    return lognorm_max(base.lognorm(c) for c in b.coords)


def power_norm_bound(b, m):
    """coordinate_norm(b^m) / m, an upper bound for the spectral radius when
    the structure constants are integral."""
    return coordinate_norm(b ** m) / m


def coordinate_norm_spread(b):
    """max over 0 <= j < rank of coordinate_norm(b^j) - j * spectral_radius(b).

    For integral structure constants the power-norm bound converges from above
    with coordinate_norm(b^m)/m - spectral_radius(b) <= spread/m exactly (the
    coordinates of powers obey the characteristic-polynomial recurrence).
    Undefined (raises) for nilpotent b, whose spectral radius is -inf.
    """
    rho = spectral_radius(b)
    if rho.is_minus_inf:
        raise ValueError("spread is undefined for nilpotent elements")
    n = b.extension.rank
    best = LogNorm(0)  # j = 0 contributes lognorm(1) - 0 = 0
    power = b.extension.unit_element()
    for j in range(1, n):
        power = power * b
        c = coordinate_norm(power)
        if c.is_minus_inf:
            continue
        d = c - rho * j
        if best < d:
            best = d
    return best


class WitnessCertificate:
    """Certificate that a disc restriction admits no finite exhaustion level."""

    def __init__(self, k, element, nilpotency_order, scale_lognorm, threshold):
        self.k = k
        self.element = element
        self.nilpotency_order = nilpotency_order
        self.scale_lognorm = scale_lognorm
        self.threshold = threshold

    def as_record(self):
        return {
            "k": self.k,
            "element": str(self.element),
            "nilpotency_order": self.nilpotency_order,
            "lognorm_xk": str(self.scale_lognorm),
            "threshold": str(self.threshold),
        }


def non_quasicompact_witness(ext, threshold):
    """Unbounded-norm nilpotents in the self-tensor of an inseparable extension.

    ext must be K[t]/(t^p - a) over a valued rational function field K of
    characteristic p with a topologically nilpotent: then y - t(x)1 is
    nilpotent in the self-tensor while the scaling factors x^-k have
    unbounded norm.  Returns the least k >= 1 with lognorm(x^-k) > threshold
    together with the element x^-k (y - t(x)1) and its exact certificates.
    Separable extensions are rejected: along them the restriction of a disc
    is a finite product of discs, hence admits a single exhaustion level.
    A k above POWER_DEGREE_BOUND raises EnumerationBoundError before x^-k
    is built.
    """
    base = ext.base
    if not isinstance(base, FunctionField):
        raise UnsupportedOperationError("witness construction needs a valued "
                                        "rational function field base")
    p = base.characteristic
    mp = ext.minimal_polynomial
    if mp is None:
        raise UnsupportedOperationError("witness construction needs a monogenic extension")
    if ext.rank != p:
        raise UnsupportedOperationError(
            "extension degree %d differs from the characteristic %d" % (ext.rank, p))
    # t^p - a: the tower t^p = s over base[s]/(s - a), a topologically
    # nilpotent (lognorm < 0)
    a = -mp.dense_coefficients()[0]
    if ext.tower()[0] != p or a.is_zero() or base.lognorm(a) >= LogNorm(0):
        raise UnsupportedOperationError(
            "extension is separable: the restriction of a disc along a separable "
            "extension is quasi-compact, so no unbounded witness exists")
    threshold = threshold if isinstance(threshold, LogNorm) else LogNorm(threshold)
    if threshold.is_minus_inf:
        k = 1
    else:
        # least integer k >= 1 with k > threshold
        k = max(1, math.floor(threshold.value) + 1)
    if k > POWER_DEGREE_BOUND:
        # k is the degree of x^-k, the quantity that bound caps for powers
        raise EnumerationBoundError(
            "witness scale x^-k needs degree k above the bound %d"
            % POWER_DEGREE_BOUND)
    x = base.variable()
    scale = (x.inverse()) ** k
    big = tensor_product(ext, ext)
    # y = 1 (x) t  and  tbar = t (x) 1  in the lex basis e_i (x) e_j
    y = big.basis_element(1)
    tbar = big.basis_element(ext.rank)
    b = (y - tbar).scale(scale)
    order = _nilpotency_order(b)
    if order is None:
        raise UnsupportedOperationError("element is not nilpotent; "
                                        "extension is not of the required shape")
    rho = spectral_radius(b)
    if not rho.is_minus_inf:
        raise UnsupportedOperationError("spectral radius does not vanish; "
                                        "extension is not of the required shape")
    if not is_nilpotent(b):
        raise UnsupportedOperationError("matrix power certificate failed")
    scale_lognorm = base.lognorm(scale)
    assert scale_lognorm == LogNorm(k)
    return WitnessCertificate(k, b, order, scale_lognorm, threshold)


def _nilpotency_order(b):
    power = b.extension.unit_element()
    for e in range(1, b.extension.rank + 2):
        power = power * b
        if power.is_zero():
            return e
    return None
