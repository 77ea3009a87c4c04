"""parse_poly against the reference parser of conftest.

The parser reads tokens with one regular expression and accumulates each
term as exponents, a base scalar and an extension element, multiplying
polynomials only for parenthesised sums and reading the powers of a
monogenic extension's symbol from its table.  The reference builds every
atom as a Poly and every term by Poly products and powers over a
per-character scan.  On grammar strings and arbitrary Unicode text, over
F_p, F_{p^m}, Q, Q_p, F_p(x), monogenic extensions (one with zero divisors)
and written-out tables over F_3 and F_2(x), where the base symbol x is read
as a base scalar, both return equal polynomials over the same variables or
raise the same exception with the same message; both bound the power of a
base scalar over the base field.  Runs are derandomized so
every run tries the same examples.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilres import (EnumerationBoundError, FunctionField, GaloisField, Poly,
                     PrimeField, RationalField, UnsupportedOperationError,
                     parse_poly, tensor_product)
from weilres.extensions import AlgebraElement, FreeExtension, structure_table
from weilres.fields import power
from weilres.poly import PARSE_DEPTH_BOUND, _tokens

from conftest import ReferenceTokens, dense_structure, reference_parse_poly
from test_kernel_properties import _monogenic

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)

F2, F3 = PrimeField(2), PrimeField(3)
K2 = FunctionField(2, symbol="x")
_TENSOR = tensor_product(_monogenic(F3, "s^2 + 1", "s"), _monogenic(F3, "r^2 + r + 2", "r"))
_K2_TABLE = _monogenic(K2, "t^2 + x*t + 1/x")
# each domain with the identifiers its grammar strings draw on
DOMAINS = {
    "F_2": (F2, ["x"]),
    "F_7": (PrimeField(7), []),
    "F_4": (GaloisField(2, (1, 1, 1), "a"), ["a"]),
    "F_27": (GaloisField(3, (1, 2, 0, 1), "s"), ["s"]),
    "Q": (RationalField(), []),
    "Q_2": (RationalField(padic=2), []),
    "F_2(x)": (K2, ["x"]),
    "F_3(x)": (FunctionField(3, symbol="x"), ["x"]),
    "F_3[t]/(t^3 + 2t + 1)": (_monogenic(F3, "t^3 + 2*t + 1"), ["t"]),
    "F_2(x)[t]/(t^2 - x)": (_monogenic(K2, "t^2 - x"), ["t", "x"]),
    "Q[t]/(t^3 - 2)": (_monogenic(RationalField(), "t^3 - 2"), ["t"]),
    "F_3[t]/(t^2)": (_monogenic(F3, "t^2"), ["t"]),
    "F_3[s]/(s + 1)": (_monogenic(F3, "s + 1", "s"), ["s"]),
    "written-out rank 4 over F_3": (FreeExtension(
        F3, ["e1", "e2", "e3", "e4"], structure_table(F3, dense_structure(_TENSOR)),
        _TENSOR.unit), ["e1", "e2", "e4"]),
    # no generator: its labels and the base symbol x are read as names
    "written-out rank 2 over F_2(x)": (FreeExtension(
        K2, ["f1", "f2"], structure_table(K2, dense_structure(_K2_TABLE)),
        _K2_TABLE.unit), ["f1", "f2", "x"]),
}
VARIABLES = [(), ("u",), ("u", "v"), ("u", "v", "w"), ("v", "u", "v")]


@st.composite
def grammar_strings(draw, symbols, depth=0):
    """Texts of the grammar, mostly well formed: atoms with powers (some
    beyond the bounds), sums, products, quotients, signs and parentheses."""
    shape = draw(st.integers(0, 9)) if depth < 4 else 0
    if shape <= 3:
        atom = draw(st.sampled_from(["u", "v", "w", "0", "1", "2", "12", "zz"]
                                    + symbols * 3 or ["u"]))
        if draw(st.integers(0, 2)) == 0:
            atom += "^%d" % draw(st.sampled_from([0, 1, 2, 3, 5, 7, 30, 1200]))
        return atom
    if shape == 4:
        inner = "(%s)" % draw(grammar_strings(symbols, depth + 1))
        if draw(st.booleans()):
            inner += "^%d" % draw(st.integers(0, 4))
        return inner
    if shape == 5:
        return "-" + draw(grammar_strings(symbols, depth + 1))
    if shape == 6:  # a product of atoms, where one variable may recur
        return "*".join(draw(st.lists(grammar_strings(symbols, 4), min_size=2, max_size=4)))
    op = draw(st.sampled_from(["+", "-", "*", "*", "/", " + ", " - ", " * "]))
    return (draw(grammar_strings(symbols, depth + 1)) + op
            + draw(grammar_strings(symbols, depth + 1)))


@st.composite
def documents(draw):
    name = draw(st.sampled_from(sorted(DOMAINS)))
    domain, symbols = DOMAINS[name]
    variables = draw(st.sampled_from(VARIABLES))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        text = draw(st.text(max_size=12))
    else:
        text = draw(grammar_strings(symbols))
        if kind == 1:  # a stray character at a drawn position
            i = draw(st.integers(0, len(text)))
            stray = draw(st.sampled_from(list("+-*/^()'_ \x1c\t½²٣é") + ["2x", "u'"]))
            text = text[:i] + stray + text[i:]
    return text, domain, variables


def outcome(parse, text, domain, variables):
    try:
        poly = parse(text, domain, variables)
    except Exception as exc:  # every failure must match, whatever its type
        return type(exc), str(exc)
    return poly, poly.variables


@SETTINGS
@given(documents())
@example(("u*½ + 1", F3, ("u",)))
@example(("u²", F3, ("u",)))
@example(("u^٣", F3, ("u",)))
@example(("u\x1c+\x1c1", F3, ("u",)))
@example(("2x + u", F3, ("u",)))
@example(("u*v*u^2/u^0", F3, ("u", "v")))
@example(("-u^2 - 2*u*v - 1 + v", PrimeField(7), ("u", "v")))
@example(("(t^5 + 2*t)*u^2 + t^3*v", DOMAINS["F_3[t]/(t^3 + 2t + 1)"][0], ("u", "v")))
@example(("((x + 1)*t^3 + (x + 1))/x^2", DOMAINS["F_2(x)[t]/(t^2 - x)"][0], ()))
@example(("t^1001", DOMAINS["F_3[t]/(t^3 + 2t + 1)"][0], ()))
@example(("x^600*t + 2^700", DOMAINS["F_2(x)[t]/(t^2 - x)"][0], ()))
@example(("(x)^600*t", DOMAINS["F_2(x)[t]/(t^2 - x)"][0], ()))
@example(("x^1001", DOMAINS["F_2(x)[t]/(t^2 - x)"][0], ()))
def test_parser_matches_the_reference(case):
    text, domain, variables = case
    assert outcome(parse_poly, text, domain, variables) == outcome(
        reference_parse_poly, text, domain, variables)


@SETTINGS
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16))
@example("u*½ + 1")
@example("²x")
@example("3²")
@example("٣٣x")
@example("x'2 + 2'")
def test_tokens_match_the_reference_scan(text):
    try:
        expected = [value for _, value in ReferenceTokens(text).toks]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _tokens(text)
        assert str(raised.value) == str(exc)
    else:
        assert _tokens(text) == expected


@pytest.mark.parametrize("text, error, message", [
    ("(" * (PARSE_DEPTH_BOUND + 1) + "u" + ")" * (PARSE_DEPTH_BOUND + 1), ValueError,
     "polynomial nests parentheses and signs deeper than %d" % PARSE_DEPTH_BOUND),
    ("u*" + "-" * (PARSE_DEPTH_BOUND + 1) + "u", ValueError,
     "polynomial nests parentheses and signs deeper than %d" % PARSE_DEPTH_BOUND),
    ("u^1001", EnumerationBoundError,
     "power ^1001 has estimated degree 1001, above the bound 1000"),
    ("(u + v + 1)^200", EnumerationBoundError,
     "power ^200 has estimated term count 20301, above the bound 10000"),
    ("u/0", ValueError, "division by zero in polynomial 'u/0'"),
    ("u/(2*v)", ValueError, "division by a non-constant polynomial"),
    ("u/t", UnsupportedOperationError, "division is only defined by invertible constants"),
    ("u + y", ValueError, "unknown identifier 'y'"),
    ("u v", ValueError, "trailing input in polynomial 'u v'"),
    ("(u + 1", ValueError, "polynomial '(u + 1' ends early at position 6"),
    ("(u + 1 u", ValueError, "unbalanced parentheses"),
    ("u^", ValueError, "polynomial 'u^' ends early at position 2"),
    ("u^v", ValueError, "exponent must be a non-negative integer"),
    ("u + *", ValueError, "unexpected token '*'"),
])
def test_refusals_keep_their_messages(text, error, message):
    domain = DOMAINS["F_3[t]/(t^3 + 2t + 1)"][0]
    for parse in (parse_poly, reference_parse_poly):
        with pytest.raises(error) as raised:
            parse(text, domain, ("u", "v"))
        assert str(raised.value) == message


def test_base_scalar_power_is_bounded_over_the_base():
    # the power of x is taken in F_2(x): its degree is 600 whatever the
    # extension's structure constants add to the powers of its elements
    ext = _monogenic(K2, "t^10 - x")
    split = parse_poly("u - x^300*x^300*t", ext, ("u",))
    assert parse_poly("u - x^600*t", ext, ("u",)) == split
    for domain in (K2, ext):
        with pytest.raises(EnumerationBoundError, match="estimated degree 1001,"):
            parse_poly("x^1001", domain)
    # a parenthesised scalar is an element, bounded with the constants
    with pytest.raises(EnumerationBoundError, match="estimated degree 1200,"):
        parse_poly("(x)^600*t", ext)


def test_generator_powers_are_read_from_the_table():
    for name in ("F_3[t]/(t^3 + 2t + 1)", "F_2(x)[t]/(t^2 - x)", "F_3[t]/(t^2)"):
        ext = DOMAINS[name][0]
        t = ext.generator()
        for k in range(3 * ext.rank):
            assert ext.generator_power(k) == power(t, k, ext.unit_element)


def test_terms_multiply_no_polynomials(monkeypatch):
    """A product of variables, integers and table powers of the symbol is
    accumulated term by term: no Poly and no algebra element product."""
    ext = DOMAINS["F_3[t]/(t^3 + 2t + 1)"][0]
    text = "2*t^4*u^2*v + t^2*u - 3*u*v^2*2 + 1"
    expected = reference_parse_poly(text, ext, ("u", "v"))

    def refused(*args):
        raise AssertionError("product taken")

    for cls in (Poly, AlgebraElement):
        monkeypatch.setattr(cls, "__mul__", refused)
        monkeypatch.setattr(cls, "__rmul__", refused)
    assert parse_poly(text, ext, ("u", "v")) == expected
