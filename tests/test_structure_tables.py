"""The builders of extension tables against dense references.

A FreeExtension holds its structure constants once, as a sparse table, and
each builder writes that table directly.  from_minimal_polynomial is checked
against the dense table of reduced powers s^(i+j) (conftest's
dense_power_table), tensor_product against the dense six-index loop
(dense_tensor_structure), with factors whose constants multiply to 1, and
extend_scalars against the embedded dense array, each reference converted
by structure_table.  Extensions must be equal and hash alike, so a constant
1 is held as None in every table.  Fields: F_2, F_3, F_4 as a Galois field,
Q, Q_2, F_2(x) and F_3(x); the base changes F_2 -> F_4, F_3 -> F_9,
Q -> Q_2 and each field to itself.  Runs are derandomized so every run tries
the same examples.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import (FreeExtension, FunctionField, GaloisField, Poly,
                     PrimeField, RationalField, extend_scalars,
                     from_minimal_polynomial, parse_poly, structure_table,
                     tensor_product)
from weilres.fields import canonical_embedding

from conftest import dense_power_table, dense_structure, dense_tensor_structure

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=30)

F4 = GaloisField(2, (1, 1, 1), "w")
FIELDS = [PrimeField(2), PrimeField(3), F4, RationalField(),
          RationalField(padic=2), FunctionField(2, Fraction(1, 2)),
          FunctionField(3, Fraction(1, 2))]


def _scalar(base, rng):
    """A random scalar, often 0 or 1; small over Q, where 2 and 1/2 and -1
    and -1 multiply to 1."""
    if rng.randrange(3) == 0:
        return rng.choice([base.zero(), base.one()])
    if isinstance(base, RationalField):
        return base.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if isinstance(base, FunctionField):
        x = base.symbol_constant("x")
        return rng.choice([x, x + 1, base.one() / x])
    return base.random_element(rng)


def _minimal_polynomial(base, rng, symbol="t", rank=None):
    n = rank or rng.randint(1, 4)
    terms = {(i,): _scalar(base, rng) for i in range(n)}
    terms[(n,)] = base.one()
    return Poly(base, (symbol,), terms)


def _extension(base, table, unit, like):
    return FreeExtension(base, like.basis_names, structure_table(base, table),
                         unit, validate=False)


def _same(ext, want):
    assert ext.sparse_structure == want.sparse_structure
    assert ext == want and hash(ext) == hash(want)
    ext._validate()


@pytest.mark.parametrize("base", FIELDS, ids=str)
@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_power_table_matches_dense_reference(base, seed):
    m = _minimal_polynomial(base, random.Random(seed))
    ext = from_minimal_polynomial(base, m, "t")
    _same(ext, _extension(base, dense_power_table(base, m), ext.unit, ext))
    assert ext.unit == tuple(base.one() if k == 0 else base.zero()
                             for k in range(ext.rank))


def _factor(base, rng, symbol):
    """A monogenic algebra of rank 1 to 3 or, one time in four, a tensor
    product of two of rank 1 or 2."""
    if rng.randrange(4) == 0:
        return tensor_product(*[from_minimal_polynomial(
            base, _minimal_polynomial(base, rng, s, rng.randint(1, 2)), s)
            for s in (symbol + "a", symbol + "b")])
    m = _minimal_polynomial(base, rng, symbol, rng.randint(1, 3))
    return from_minimal_polynomial(base, m, symbol)


@pytest.mark.parametrize("base", FIELDS, ids=str)
@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_tensor_table_matches_dense_reference(base, seed):
    rng = random.Random(seed)
    b1, b2 = _factor(base, rng, "s"), _factor(base, rng, "t")
    ext = tensor_product(b1, b2)
    _same(ext, _extension(base, dense_tensor_structure(b1, b2), ext.unit, ext))


@pytest.mark.parametrize("base, m1, m2", [
    (PrimeField(3), "s^2 - 2", "t^2 - 2"),
    (RationalField(), "s^2 - 2", "t^2 - 1/2"),
    (RationalField(padic=2), "s^2 + 1", "t^2 + 1"),
    (FunctionField(2, Fraction(1, 2)), "s^2 - x", "t^2 - 1/x"),
], ids=["F_3", "Q", "Q_2", "F_2(x)"])
def test_tensor_constants_multiplying_to_one(base, m1, m2):
    """s^2 = c and t^2 = 1/c: (st)^2 = 1 is held as None, as the dense
    reference's constant 1 is."""
    b1, b2 = (from_minimal_polynomial(base, parse_poly(m, base, (m[0],)), m[0])
              for m in (m1, m2))
    ext = tensor_product(b1, b2)
    want = _extension(base, dense_tensor_structure(b1, b2), ext.unit, ext)
    _same(ext, want)
    # cell ((s, t), (s, t)) holds s^2 t^2 = c * (1/c)
    assert ext.sparse_structure[3][3] == ((0, None),)


EMBEDDINGS = [(PrimeField(2), F4), (PrimeField(3), GaloisField(3, (1, 0, 1))),
              (RationalField(), RationalField(padic=2))] + [
    (base, base) for base in FIELDS]


@pytest.mark.parametrize("base, target", EMBEDDINGS, ids=str)
@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_extend_scalars_matches_dense_reference(base, target, seed):
    ext = _factor(base, random.Random(seed), "t")
    emb = canonical_embedding(base, target)
    got = extend_scalars(ext, target)
    table = [[[emb(c) for c in cell] for cell in row] for row in dense_structure(ext)]
    _same(got, _extension(target, table, [emb(c) for c in ext.unit], ext))
    assert got.minimal_polynomial == (
        None if ext.minimal_polynomial is None
        else ext.minimal_polynomial.map_coefficients(target, emb))
