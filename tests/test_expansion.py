"""The expansion of restrict by the multinomial theorem, and the disc
generators written over (y,) + block.

expand_element writes each power of the generic element down term by term,
with only the exponent vectors whose multinomial coefficient is nonzero mod
p (Lucas's theorem, digit by digit in base p).  It is checked against the
square-and-multiply expansion by algebra products (conftest's
naive_expand_element) over F_2, F_3, F_5, F_4 as a Galois field, Q, Q_2,
F_2(x) and F_3(x), on monogenic bases of rank 1 to 4 and one written-out
tensor product, with 1 to 3 variables, exponents up to 2p^2 + p, constant
terms, the zero polynomial and coefficients with zero coordinates: the
variable lists, the term maps and the text must agree.  It is checked
against the same reference over dense written-out tensor tables of rank 4 to
6 on a permuted basis over F_2, F_3 and Q, with terms in 2 or 3 variables,
and one two-variable term is expanded with no Poly sum or product and no
AlgebraElement product.  The enumerator of
those exponent vectors is checked against every composition with its
multinomial coefficient reduced mod p.  disc_generators is checked against
y - c_j by Poly subtraction, with zero c_j among them.  Runs are
derandomized so every run tries the same examples.
"""

import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import (AlgebraElement, FreeExtension, FunctionField, GaloisField,
                     Poly, PrimeField, RationalField, expand_element,
                     from_minimal_polynomial, parse_poly)
from weilres.extensions import generic_charpoly, structure_table, tensor_product
from weilres.restriction import _multinomial_terms, disc_generators

from conftest import dense_structure, naive_expand_element

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=30)

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5),
          GaloisField(2, (1, 1, 1), "w"), RationalField(),
          RationalField(padic=2), FunctionField(2, Fraction(1, 2)),
          FunctionField(3, Fraction(1, 2))]


def _monogenic(base, coefficients, symbol="t"):
    """base[t]/(t^n + c_(n-1) t^(n-1) + ... + c_0) for the c_i given."""
    n = len(coefficients)
    terms = {(i,): c for i, c in enumerate(coefficients)}
    terms[(n,)] = base.one()
    return from_minimal_polynomial(base, Poly(base, (symbol,), terms), symbol)


def _random_scalar(base, rng, structure=False):
    """A random scalar; small over Q, and over F_p(x) one of 0, 1, x, x + 1
    for a structure constant, so powers of basis elements stay short."""
    if isinstance(base, RationalField):
        return base.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if structure and isinstance(base, FunctionField):
        x = base.symbol_constant("x")
        return rng.choice([base.zero(), base.one(), x, x + 1])
    return base.random_element(rng)


def expansion_case(base, rng):
    """(f, ext, variables) for expand_element: a monogenic base of rank 1 to
    4 or, one time in six, a tensor product of two of rank 2; 1 to 3
    variables, of which f may use fewer; 0 to 3 terms, one variable of each
    taking an exponent up to 2p^2 + p (up to 5 over Q), now and then one
    whose base-p digits include p - 1, the others at most 2 in all;
    constant terms, unit coefficients and zero coordinates now and then."""
    if rng.randrange(6) == 0:
        ext = tensor_product(*[
            _monogenic(base, [_random_scalar(base, rng, structure=True)
                              for _ in range(2)], s) for s in "ts"])
    else:
        ext = _monogenic(base, [_random_scalar(base, rng, structure=True)
                                for _ in range(rng.randint(1, 4))])
    p = base.characteristic
    variables = ("u", "v", "z")[:rng.randint(1, 3)]
    used = variables[:rng.randint(1, len(variables))]
    terms = {}
    for _ in range(rng.choice([0, 1, 2, 2, 3, 3])):
        if not p:
            large = rng.randint(0, 5)
        elif rng.randrange(3):
            large = rng.randint(0, 2 * p * p + p)
        else:
            large = rng.choice([p - 1, p * p - 1, 2 * p * p + p - 1])
        top = rng.randrange(len(used))
        small = 2 if len(used) == 2 else 1
        exps = tuple(large if k == top else rng.randint(0, small)
                     for k in range(len(used)))
        if rng.randrange(5) == 0:
            exps = (0,) * len(used)
        if rng.randrange(5) == 0:
            coords = ext.unit
        else:
            coords = [_random_scalar(base, rng) if rng.randrange(3) else base.zero()
                      for _ in range(ext.rank)]
        terms[exps] = ext.element(coords)
    return Poly(ext, used, terms), ext, rng.choice([None, variables])


@pytest.mark.parametrize("base", FIELDS, ids=str)
@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_expansion_matches_square_and_multiply(base, seed):
    f, ext, variables = expansion_case(base, random.Random(seed))
    got = expand_element(f, ext, variables)
    want = naive_expand_element(f, ext, variables)
    assert [c.variables for c in got] == [c.variables for c in want]
    assert [c.terms for c in got] == [c.terms for c in want]
    assert [c.to_string() for c in got] == [c.to_string() for c in want]


def test_expansion_of_a_dense_fourth_power_over_f2():
    """Over F_2, G^4 is the sum of the u_i^4 e_i^4: no cross terms."""
    f2 = PrimeField(2)
    ext = _monogenic(f2, [f2.one(), f2.one(), f2.zero()])
    coords = expand_element(parse_poly("u^4", ext, ("u",)), ext)
    assert all(sum(1 for e in exps if e) == 1
               for c in coords for exps in c.terms)
    assert coords == naive_expand_element(parse_poly("u^4", ext, ("u",)), ext)


def tensor_case(base, rng):
    """(f, ext): a tensor product of two monogenic algebras of rank 4 to 6,
    written out as a dense table on a permuted basis (so the unit moves),
    and 1 to 3 terms in 2 or 3 variables, one exponent of each up to
    p^2 + p (up to 5 over Q) and the others at most 2; coefficients with
    zero coordinates now and then."""
    n1, n2 = rng.choice([(2, 2), (2, 3), (3, 2), (1, 5)])
    ext = tensor_product(*[
        _monogenic(base, [_random_scalar(base, rng, structure=True)
                          for _ in range(k)], s) for k, s in ((n1, "t"), (n2, "s"))])
    n = ext.rank
    perm = list(range(n))
    rng.shuffle(perm)
    dense = dense_structure(ext)
    table = [[[dense[perm[i]][perm[j]][perm[k]] for k in range(n)]
              for j in range(n)] for i in range(n)]
    ext = FreeExtension(base, ["e%d" % (i + 1) for i in range(n)],
                        structure_table(base, table), [ext.unit[k] for k in perm])
    p = base.characteristic
    variables = ("u", "v", "z")[:rng.randint(2, 3)]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        top = rng.randrange(len(variables))
        exps = tuple(rng.randint(0, p * p + p if p else 5) if k == top
                     else rng.randint(0, 2) for k in range(len(variables)))
        terms[exps] = ext.element([_random_scalar(base, rng) if rng.randrange(4)
                                   else base.zero() for _ in range(n)])
    return Poly(ext, variables, terms), ext


def _check_tensor_case(base, seed):
    f, ext = tensor_case(base, random.Random(seed))
    got = expand_element(f, ext)
    want = naive_expand_element(f, ext)
    assert [c.variables for c in got] == [c.variables for c in want]
    assert [c.terms for c in got] == [c.terms for c in want]


@pytest.mark.parametrize("base", [PrimeField(2), PrimeField(3)], ids=str)
@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_expansion_over_written_out_tensor_tables(base, seed):
    _check_tensor_case(base, seed)


# over Q every multinomial counts, so the reference expansion is the
# slowest; fewer examples keep the test to seconds
@settings(SETTINGS, max_examples=8)
@given(st.integers(0, 2 ** 32))
def test_expansion_over_written_out_tensor_tables_over_q(seed):
    _check_tensor_case(RationalField(), seed)


def test_expansion_takes_no_polynomial_or_algebra_product(monkeypatch):
    """A two-variable term over a written-out table is written term by term
    on raw values: no Poly sum or product and no AlgebraElement product."""
    f3 = PrimeField(3)
    ext = tensor_product(_monogenic(f3, [f3.one(), f3.zero()], "s"),
                         _monogenic(f3, [f3.one(), f3.coerce(2), f3.zero()]))
    f = Poly(ext, ("u", "v"), {(5, 4): ext.element([0, 1, 0, 0, 0, 2])})
    want = naive_expand_element(f, ext)

    def refused(*args):
        raise AssertionError("expand_element took a polynomial or algebra product")

    for cls, name in ((Poly, "__mul__"), (Poly, "__add__"), (AlgebraElement, "__mul__")):
        monkeypatch.setattr(cls, name, refused)
    got = expand_element(f, ext)
    monkeypatch.undo()
    assert [c.terms for c in got] == [c.terms for c in want]
    assert sum(len(c.terms) for c in got) > 100


def brute_force_terms(e, n, p):
    """Every composition of e into n parts with its multinomial coefficient,
    reduced mod p when p > 0, the zeros dropped."""
    out = {}
    for alpha in itertools.product(range(e + 1), repeat=n):
        if sum(alpha) == e:
            c = factorial(e) // prod(factorial(a) for a in alpha)
            c = c % p if p else c
            if c:
                out[alpha] = c
    return out


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_multinomial_terms_match_brute_force(p):
    for n in range(1, 5):
        for e in range(13):
            terms = _multinomial_terms(e, n, p)
            assert len(terms) == len(dict(terms)), (e, n, p)
            assert dict(terms) == brute_force_terms(e, n, p), (e, n, p)


# -- disc generators over (y,) + block ----------------------------------------

def _disc_cases():
    f2, f3, q = PrimeField(2), PrimeField(3), RationalField()
    k2 = FunctionField(2, Fraction(1, 2))
    cases = []
    for base, coefficients in ((q, [-7, 0]), (f3, [1, 2, 0]), (f2, [0, 0, 0, 0]),
                               (k2, [k2.symbol_constant("x"), 0, 0])):
        ext = _monogenic(base, [base.coerce(c) for c in coefficients])
        # zero gives zero c_j, the nilpotent t (of t^4 = 0) some zero c_j,
        # and c_j is homogeneous of degree j in the block, so never another
        # constant
        t = ext.basis_element(1) if ext.rank > 1 else ext.unit_element()
        cases += [(ext, [ext.zero_element()]), (ext, [ext.unit_element(), t])]
    return cases


@pytest.mark.parametrize("ext, radii", _disc_cases())
def test_disc_generators_match_poly_subtraction(ext, radii):
    block = tuple("x_%d" % (j + 1) for j in range(ext.rank))
    gens, _ = disc_generators(ext, radii, block)
    want = []
    for i, r in enumerate(radii, start=1):
        chi = generic_charpoly(r, block)
        want += [Poly.variable(ext.base, "y%d_%d" % (i, j)) - chi.coefficient(j)
                 for j in range(1, ext.rank + 1)]
    assert [g.variables for g in gens] == [g.variables for g in want]
    assert [g.terms for g in gens] == [g.terms for g in want]
    assert [g.to_string() for g in gens] == [g.to_string() for g in want]


def test_disc_generators_refuse_a_block_variable_named_like_a_y():
    q = RationalField()
    ext = _monogenic(q, [q.coerce(-7), q.zero()])
    with pytest.raises(ValueError, match="y1_2"):
        disc_generators(ext, [ext.unit_element()], ("x_1", "y1_2"))
