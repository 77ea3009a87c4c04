"""poly.render, the one renderer of polynomial records, against the renderer
it replaced (conftest.reference_to_string), poly for poly; and
MonicPoly.to_string against the same term rules."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import (FunctionField, GaloisField, Poly, PrimeField, RationalField,
                     from_minimal_polynomial, parse_poly)
from weilres.extensions import MonicPoly
from weilres.fields import FieldElement, _join_signed
from weilres.poly import PolyRing, render

from conftest import reference_to_string

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

F3, Q = PrimeField(3), RationalField()
F4 = GaloisField(2, (1, 1, 1), "w")
F5 = PrimeField(5)
F9 = GaloisField(3, (1, 0, 1), "t")
K3 = FunctionField(3, Fraction(1, 2))
DOMAINS = [
    PrimeField(2), F5, F4, F9, Q, RationalField(padic=3), K3,
    from_minimal_polynomial(F3, parse_poly("t^2 + 1", F3, ("t",)), "t"),
    from_minimal_polynomial(Q, parse_poly("t^2 - 2", Q, ("t",)), "t"),
    from_minimal_polynomial(K3, parse_poly("t^3 - x", K3, ("t",)), "t"),
]
VARIABLES = [(), ("u",), ("u", "v"), ("v", "u", "w")]


def coefficients(domain):
    """1 and -1, whose heads drop the coefficient, 2, and random elements:
    negative and fractional over Q, parenthesised sums over F_9, F_3(x) and
    the extensions."""
    one = domain.one()
    return st.one_of(st.sampled_from([one, -one, one + one]),
                     st.integers(0, 2 ** 16).map(
                         lambda seed: domain.random_element(random.Random(seed))))


@st.composite
def polys(draw, domain, coefficients=coefficients):
    """Up to 6 terms, constant terms and the zero polynomial among them;
    coefficients repeat, so the memo of heads is hit."""
    variables = draw(st.sampled_from(VARIABLES))
    pool = draw(st.lists(coefficients(domain), min_size=1, max_size=3))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 3)) for _ in variables)
        terms[exps] = draw(st.sampled_from(pool))
    return Poly(domain, variables, terms)


@SETTINGS
@given(st.sampled_from(DOMAINS), st.data())
def test_render_matches_reference(domain, data):
    fs = data.draw(st.lists(polys(domain), max_size=4))
    assert render(fs) == [reference_to_string(f) for f in fs]


@SETTINGS
@given(st.sampled_from(DOMAINS), st.data())
def test_render_over_an_order_matches_reference(domain, data):
    fs = data.draw(st.lists(polys(domain), min_size=1, max_size=4))
    order = tuple(data.draw(st.permutations(["u", "v", "w", "z"])))
    assert render(fs, order) == [reference_to_string(f, order) for f in fs]
    assert render(iter(fs), iter(order)) == render(fs, order)
    for f in fs:
        assert f.to_string(order) == reference_to_string(f, order)
        assert f.canonical_string() == reference_to_string(f, sorted(f.support()))


# raw values shared across domains: (1,) is 1 in F_4 and in F_9, (0, 1) is
# w in one and t in the other, (1, 1) w + 1 and t + 1; F_5 and Q share ints
SHARED = {F4: [(1,), (0, 1), (1, 1)], F9: [(1,), (0, 1), (1, 1)],
          F5: [1, 2, 4], Q: [Fraction(1), Fraction(2), Fraction(4)]}


def shared_raw_values(domain):
    return st.sampled_from([FieldElement(domain, v) for v in SHARED[domain]])


@SETTINGS
@given(st.data())
def test_render_keys_heads_by_domain(data):
    fs = [data.draw(polys(data.draw(st.sampled_from([F5, F4, F9, Q])), shared_raw_values))
          for _ in range(data.draw(st.integers(2, 8)))]
    assert render(fs) == [reference_to_string(f) for f in fs]


def test_render_heads():
    u, v = Poly.variable(Q, "u"), Poly.variable(Q, "v")
    s = Poly.variable(F9, "u") * (F9.generator() + 1)
    fs = [Poly.zero(Q, ("u",)), Poly.constant(Q, Fraction(-3, 2)),
          -u * v + u - 1, Fraction(-3, 2) * u ** 2 - v + Fraction(1, 2),
          s - F9.generator() - 1]
    assert render(fs) == ["0", "-3/2", "-u*v + u - 1", "-3/2*u^2 - v + 1/2",
                          "(t + 1)*u + (2*t + 2)"]
    assert render([]) == []


@SETTINGS
@given(st.lists(st.sampled_from(["u", "-u", "2*v", "-3/2*v", "(x + 1)", "-(x)"]),
                max_size=6))
def test_join_signed_matches_former_loop(parts):
    want = "0"
    if parts:
        want = parts[0]
        for part in parts[1:]:
            want += " - " + part[1:] if part.startswith("-") else " + " + part
    assert _join_signed(parts) == want


@SETTINGS
@given(st.sampled_from(DOMAINS), st.booleans(), st.data())
def test_monic_to_string_matches_reference(domain, symbolic, data):
    """z^n + c_1 z^(n-1) + ... + c_n prints as the polynomial in z of its
    leading 1 and nonzero coefficients; coefficients are scalars, zero among
    them, or polynomials, as in symbolic characteristic polynomials."""
    ring = PolyRing(domain) if symbolic else domain
    draw = polys(domain) if symbolic else st.one_of(
        st.just(domain.zero()), coefficients(domain))
    cs = data.draw(st.lists(draw, min_size=1, max_size=5))
    n = len(cs)
    terms = {(n - i,): c for i, c in enumerate(cs, start=1) if not c.is_zero()}
    terms[(n,)] = ring.one()
    want = reference_to_string(Poly(ring, ("z",), terms))
    assert MonicPoly(ring, cs).to_string() == want
