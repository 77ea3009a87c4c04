"""Characteristic polynomials through the inseparable tower.

When the minimal polynomial is m(t) = g(t^q) with q = p^k over a base of
characteristic p, charpoly and generic_charpoly read c_(qi)(b) = c_i(b^q)
off B = base[s]/(g), with b^q = sum_l b_l^q s^l, and set every other c_j to
0.  The result is checked against plain Berkowitz on the n x n matrix of b,
coefficient by coefficient and over the same variable lists, over F_2, F_4,
F_2(x) and F_3(x), for q = p and p^2, for g of degree 1 to 3 (reducible ones,
whose B has zero divisors, and B of rank 1), with scalar, polynomial and
zero coordinates.  At rank 16, where plain Berkowitz on the generic element
does not finish, generic_charpoly at a seeded point is checked against plain
Berkowitz on the matrix of the concrete element.  The matrix that
characteristic polynomials are computed from takes no gcd once the
coordinates and the structure constants are cleared.  Runs are derandomized
so every run tries the same examples.
"""

import pathlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import weilres.extensions
import weilres.fields
from weilres import (FunctionField, GaloisField, Poly, PrimeField,
                     RationalField, from_minimal_polynomial, parse_poly)
from weilres.documents import load_document_text
from weilres.extensions import (AlgebraElement, charpoly, generic_charpoly,
                                mult_matrix, tensor_product)
from weilres.linalg import berkowitz_charpoly

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)

F2, F3 = PrimeField(2), PrimeField(3)
F4 = GaloisField(2, (1, 1, 1), "w")
F2X, F3X = FunctionField(2, Fraction(1, 2)), FunctionField(3, Fraction(1, 3))

# g(s) by base, degree 1 to 3: irreducible and reducible (s, s^2 + s and
# s^2 - x^2 = (s - x)^2 over F_2(x), s^2 - 1 over F_3(x)); one with
# denominators in its coefficients
MODULI = {
    F2: ["s", "s + 1", "s^2 + s + 1", "s^2 + s", "s^3 + s + 1"],
    F4: ["s + w", "s^2 + s + w", "s^2 + w^2", "s^3 + w"],
    F2X: ["s + x", "s^2 + x*s + 1", "s^2 + s/x + x", "s^2 + x^2", "s^3 + x"],
    F3X: ["s - x", "s^2 - x", "s^2 - 1", "s^3 + x*s + 1/x"],
}
VARIABLE_LISTS = [("u", "v"), ("v", "u"), ("u",)]


def _tower(base, g_text, q):
    """base[t]/(g(t^q)) for g written in s."""
    g = parse_poly(g_text, base, ("s",))
    m = Poly(base, ("t",), {(e * q,): c for (e,), c in g.terms.items()})
    return from_minimal_polynomial(base, m, "t")


def _cases():
    cases = []
    for base, moduli in MODULI.items():
        p = base.characteristic
        for q in (p, p * p):
            cases += [(base, g, q) for g in moduli
                      if q * parse_poly(g, base, ("s",)).total_degree() <= 12]
    return cases


CASES = _cases()


def _scalar(base, seed):
    return base.random_element(random.Random(seed))


@st.composite
def tower_elements(draw):
    """An element with a few nonzero coordinates (none for r = 0): scalars,
    polynomials of one or two terms over one of VARIABLE_LISTS, or both."""
    base, g, q = draw(st.sampled_from(CASES))
    ext = _tower(base, g, q)
    n = ext.rank
    live = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 3), unique=True))
    kind = draw(st.sampled_from(["scalar", "poly", "mixed"]))
    coords = [base.zero()] * n
    if kind != "scalar":
        # a zero polynomial keeps its variables, so the element stays symbolic
        coords[0] = Poly.zero(base, draw(st.sampled_from(VARIABLE_LISTS)))
    for i in live:
        seed = draw(st.integers(0, 2 ** 16))
        if kind == "scalar" or (kind == "mixed" and draw(st.booleans())):
            coords[i] = _scalar(base, seed)
            continue
        variables = draw(st.sampled_from(VARIABLE_LISTS))
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            exps = tuple(draw(st.integers(0, 1)) for _ in variables)
            terms[exps] = _scalar(base, draw(st.integers(0, 2 ** 16)))
        coords[i] = Poly(base, variables, terms)
    return AlgebraElement(ext, coords)


def _same(got, want):
    if isinstance(want, Poly):
        return (isinstance(got, Poly) and got.variables == want.variables
                and got.terms == want.terms)
    return got == want


@SETTINGS
@given(tower_elements())
def test_tower_charpoly_matches_plain_berkowitz(b):
    assert b.extension.tower()[0] > 1
    chi = charpoly(b)
    want = berkowitz_charpoly(mult_matrix(b), b.ring)[1:]
    assert chi.ring == b.ring
    assert all(_same(g, w) for g, w in zip(chi.coefficients, want, strict=True))


@settings(SETTINGS, max_examples=40)
@given(st.sampled_from([case for case in CASES
                        if case[2] * parse_poly(case[1], case[0], ("s",)).total_degree() <= 4]),
       st.booleans(), st.data())
def test_tower_generic_charpoly_matches_plain_berkowitz(case, zero, data):
    """chi(r * generic), r = 0 included, over the variables Berkowitz on the
    matrix of the algebra product gives each coefficient."""
    ext = _tower(*case)
    base = ext.base
    r = ext.zero_element() if zero else ext.element(
        [_scalar(base, data.draw(st.integers(0, 2 ** 16))) for _ in range(ext.rank)])
    block = tuple("x_%d" % (j + 1) for j in range(ext.rank))
    generic = AlgebraElement(ext, tuple(
        Poly.variable(base, v).with_variables(block) for v in block))
    product = r * generic
    want = berkowitz_charpoly(mult_matrix(product), product.ring)[1:]
    for got in (generic_charpoly(r, block), charpoly(product)):
        assert all(_same(g, w) for g, w in zip(got.coefficients, want, strict=True))


def test_tower_is_found_once_from_the_minimal_polynomial():
    cases = [(F2X, "t^12 - x", 4, 3), (F3X, "t^9 - x", 9, 1), (F2, "t^2", 2, 1),
             (F3, "t^6 + t^3 + 2", 3, 2), (F2X, "t^4 + t/x + 1", 1, None),
             (F2, "t^6 + t^4 + t", 1, None), (F4, "t^4 + w*t^2 + 1", 2, 2),
             (RationalField(), "t^4 - 2", 1, None)]
    for base, text, q, rank in cases:
        ext = from_minimal_polynomial(base, parse_poly(text, base, ("t",)), "t")
        tower = ext.tower()
        assert tower[0] == q and ext.tower() is tower
        assert (tower[1] is None) if rank is None else (tower[1].rank == rank)
    f4 = from_minimal_polynomial(F2, parse_poly("t^2 + t + 1", F2, ("t",)), "t")
    dual = from_minimal_polynomial(F2, parse_poly("t^2", F2, ("t",)), "t")
    assert tensor_product(f4, dual).tower()[0] == 1


GUARD = pathlib.Path(__file__).parent / "disc_radical_rank16.json"


def test_rank16_generic_charpoly_at_a_point_matches_plain_berkowitz():
    """generic_charpoly of (1 + x*t)/x^2 over F_2(x)[t]/(t^16 - x), the
    radius of the guard document, at seeded values of x_1 ... x_16 is the
    plain Berkowitz characteristic polynomial of the concrete element."""
    doc = load_document_text(GUARD.read_text())
    ext = doc.extension
    (r,) = doc.radius_elements
    assert ext.rank == 16 and ext.tower()[0] == 16
    block = tuple("x_%d" % (j + 1) for j in range(16))
    chi = generic_charpoly(r, block)
    # polynomials in x of degree < 4, so the plain iteration takes seconds
    rng, k = random.Random(16), ext.base
    point = [sum((k.variable() ** e for e in range(4) if rng.randrange(2)), k.zero())
             for _ in block]
    want = berkowitz_charpoly(mult_matrix(r * ext.element(point)), k)[1:]
    values = dict(zip(block, point))
    assert [c.evaluate(values) for c in chi.coefficients] == want


def _gcds_inside(monkeypatch, names, compute):
    """(value of compute(), calls of each extensions function in names, gcds
    run inside any of them)."""
    inside, calls, built = [False], [0], dict.fromkeys(names, 0)
    real_ugcd = weilres.fields._ugcd

    def counted_ugcd(*args):
        calls[0] += inside[0]
        return real_ugcd(*args)

    def flagged(name, real):
        def run(*args, **kwargs):
            inside[0] = True
            built[name] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] = False
        return run

    monkeypatch.setattr(weilres.fields, "_ugcd", counted_ugcd)
    for name in names:
        monkeypatch.setattr(weilres.extensions, name,
                            flagged(name, getattr(weilres.extensions, name)))
    value = compute()
    monkeypatch.undo()
    return value, built, calls[0]


def test_cleared_matrix_takes_no_gcd(monkeypatch):
    """With the coordinates and the structure constants cleared, the matrix
    of charpoly, its columns built by table_product on raw numerators, and
    Berkowitz on it take no gcd, whether the constants have denominators or
    not (6 gcds for t^4 + t/x + 1 before the constants were cleared once per
    extension); charpoly is plain Berkowitz's.  So does mult_matrix on the
    cleared FieldElement table, for the scalar r and for the linear forms of
    generic_charpoly."""
    x, one = F2X.variable(), F2X.one()
    block = tuple("x_%d" % (j + 1) for j in range(4))
    for text in ("t^4 + t/x + 1", "t^4 + x*t + 1"):
        ext = from_minimal_polynomial(F2X, parse_poly(text, F2X, ("t",)), "t")
        b = ext.element([one / x, one / (x + one), x, x * x])
        want = berkowitz_charpoly(mult_matrix(b), F2X)[1:]
        chi, built, gcds = _gcds_inside(monkeypatch, ("table_product", "berkowitz"),
                                        lambda: charpoly(b))
        assert built == {"table_product": ext.rank, "berkowitz": 1}
        assert gcds == 0
        assert list(chi.coefficients) == want
        generic = AlgebraElement(ext, tuple(
            Poly.variable(F2X, v).with_variables(block) for v in block))
        product = b * generic
        want = berkowitz_charpoly(mult_matrix(product), product.ring)[1:]
        chi, built, gcds = _gcds_inside(monkeypatch, ("mult_matrix",),
                                        lambda: generic_charpoly(b, block))
        assert built == {"mult_matrix": 2}
        assert gcds == 0
        assert all(_same(g, w) for g, w in zip(chi.coefficients, want, strict=True))
