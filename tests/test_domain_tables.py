"""The point oracle's per-domain tables against element arithmetic.

points_over compiles every generator from the _DomainTable of its domain
into lookups in its addition and product tables, over a field and a domain
with zero divisors alike.  Here the table is checked on its own: the
elements in sort-key order, and add, neg, mul and the power rows row(e)
equal to element addition, negation, multiplication and powers by sort-key
index, over every field of the oracle's property test, F_97, F_81 as a
GaloisField and as a FreeExtension, rings with zero divisors and an algebra
over a GaloisField.  The points over the zero-divisor domains F_2[t]/(t^2)
and F_3[t]/(t^4) agree with the plain enumeration.  The points read through
the table's names (text=True) are the strings of the element points.  The
cache is shared by equal domains, bounded, and once warm lets points_over
compile and run new generators without a single element product; a cold
table of q = p^m elements takes at most m^2.  Runs are derandomized so
every run tries the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import GaloisField, PrimeField, parse_poly
from weilres import restriction
from weilres.extensions import AlgebraElement
from weilres.fields import Field, FieldElement
from weilres.restriction import Presentation, _domain_table, points_over

from conftest import dense_points
from test_kernel_properties import POINT_DOMAINS, _monogenic, point_generators

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

F3 = PrimeField(3)
NON_FIELDS = {"F_2[t]/(t^2)": _monogenic(PrimeField(2), "t^2"),
              "F_3[t]/(t^4)": _monogenic(F3, "t^4")}
FIELDS = {repr(domain): domain for _, domain in POINT_DOMAINS
          if domain != NON_FIELDS["F_2[t]/(t^2)"]}
FIELDS.update({"F_97": PrimeField(97),
               "F_81 (GaloisField)": GaloisField(3, (2, 1, 0, 0, 1), "s"),
               "F_81 (FreeExtension)": _monogenic(F3, "t^4 + t + 2")})


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty table cache for the test, the module's own left alone."""
    tables = {}
    monkeypatch.setattr(restriction, "_TABLES", tables)
    return tables


F4 = GaloisField(2, (1, 1, 1), "w")
# F_p (p = 2 and 97), F_{p^m} over p = 2, 7 and 3, rings with zero divisors
# of rank 2 and 4, and a rank-3 algebra over F_4, q = 64, whose index
# digits are the F_2 coordinates of each F_4 coordinate in turn
ADDITIVE_DOMAINS = {
    "F_2": PrimeField(2), "F_97": PrimeField(97),
    "F_8": GaloisField(2, (1, 1, 0, 1), "t"), "F_49": GaloisField(7, (1, 0, 1), "t"),
    "F_81": GaloisField(3, (2, 1, 0, 0, 1), "s"),
    "F_3[t]/(t^2)": _monogenic(F3, "t^2"), "F_3[t]/(t^4)": NON_FIELDS["F_3[t]/(t^4)"],
    "F_4[s]/(s^3 + s + 1)": _monogenic(F4, "s^3 + s + 1", "s")}


@pytest.mark.parametrize("name", sorted(ADDITIVE_DOMAINS))
@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_add_and_neg_match_element_arithmetic(name, data):
    """add[i] and neg[i] for a drawn index i, over every j, are the sort-key
    indices of the element sums and of the negation."""
    domain = ADDITIVE_DOMAINS[name]
    table = _domain_table(domain)
    elems = table.elements
    q = domain.size()
    assert len(elems) == len(table.add) == len(table.neg) == q
    i = data.draw(st.integers(0, q - 1))
    x = elems[i]
    assert table.add[i] == [table.index[(x + y).sort_key()] for y in elems]
    assert table.neg[i] == table.index[(-x).sort_key()]
    assert table.add[i][table.neg[i]] == 0


# every domain above: the fields, the rings with zero divisors and the
# additive domains
MUL_DOMAINS = {**FIELDS, **NON_FIELDS, **ADDITIVE_DOMAINS}


@pytest.mark.parametrize("name", sorted(MUL_DOMAINS))
@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_mul_and_row_match_element_arithmetic(name, data):
    """mul[i] for a drawn index i, over every j, is the sort-key indices of
    the element products, and row(e) for a drawn e those of the powers."""
    table = _domain_table(MUL_DOMAINS[name])
    elems, index = table.elements, table.index
    keys = [x.sort_key() for x in elems]
    assert keys == sorted(keys) and elems[0].is_zero()
    assert index == {k: i for i, k in enumerate(keys)}
    q = len(elems)
    assert len(table.mul) == q
    i = data.draw(st.integers(0, q - 1))
    x = elems[i]
    assert table.mul[i] == [index[(x * y).sort_key()] for y in elems]
    e = data.draw(st.integers(1, 2 * q))
    assert table.row(e) == [index[(y ** e).sort_key()] for y in elems]


@settings(SETTINGS, max_examples=40)
@given(st.sampled_from(sorted(NON_FIELDS)), st.integers(0, 2), st.data())
def test_points_over_zero_divisor_domains_match_dense_enumeration(name, d, data):
    domain = NON_FIELDS[name]
    variables = ("a", "b")[:d]
    pres = Presentation(domain, variables,
                        data.draw(point_generators(domain, variables)))
    assert points_over(pres, domain) == dense_points(pres, domain)


# every domain of the oracle's property test, and F_3[t]/(t^2), a ring
# with zero divisors
TEXT_DOMAINS = POINT_DOMAINS + [(_monogenic(F3, "t^2"),) * 2]


@settings(SETTINGS, max_examples=80)
@given(st.sampled_from(TEXT_DOMAINS), st.integers(0, 3), st.data())
def test_text_points_are_the_names_of_the_points(domains, d, data):
    base, domain = domains
    variables = ("a", "b", "c")[:d]
    pres = Presentation(base, variables,
                        data.draw(point_generators(base, variables)))
    assert (points_over(pres, domain, text=True)
            == [tuple(map(str, pt)) for pt in points_over(pres, domain)])


@pytest.mark.parametrize("domains", TEXT_DOMAINS, ids=repr)
def test_names_are_built_once_per_table(domains, fresh_cache):
    base, domain = domains
    names = _domain_table(domain).names
    assert _domain_table(domain).names is names
    assert names == [str(x) for x in _domain_table(domain).elements]
    # the zero-variable presentation has one point, the empty one
    pres = Presentation(base, (), [])
    assert points_over(pres, domain, text=True) == points_over(pres, domain) == [()]


def test_equal_domains_share_one_table(fresh_cache):
    f9 = GaloisField(3, (1, 0, 1), "t")
    table = _domain_table(f9)
    assert _domain_table(GaloisField(3, (1, 0, 1), "t")) is table
    ext = _monogenic(F3, "t^2 + 1")
    assert _domain_table(_monogenic(F3, "t^2 + 1")) is _domain_table(ext)
    # F_9 by another modulus has the same size and sort keys, not the same
    # elements
    other = _domain_table(GaloisField(3, (2, 2, 1), "t"))
    assert other is not table and other.elements != table.elements
    assert len(fresh_cache) == 3


def test_cache_stays_within_its_bound(fresh_cache):
    cap = restriction._TABLE_CAP
    domains = [GaloisField(2, (1, 1, 1), "w%d" % i) for i in range(cap + 5)]
    tables = [_domain_table(d) for d in domains]
    assert len(fresh_cache) == cap
    # the first tables stay; a domain met after the cache is full gets a
    # table per call, with the same contents
    assert all(_domain_table(d) is t for d, t in zip(domains[:cap], tables))
    late = domains[-1]
    again = _domain_table(late)
    assert again is not tables[-1] and again.elements == tables[-1].elements
    assert len(fresh_cache) == cap


# F_9 and F_97 as fields, F_9 as a rank-2 algebra over F_3 and F_3[t]/(t^4),
# a ring with zero divisors; each generator has a mixed term, and all vanish
# at (1, 1)
WARM_DOMAINS = {"F_9": GaloisField(3, (1, 0, 1), "t"), "F_97": PrimeField(97),
                "F_3[t]/(t^2 + 1)": _monogenic(F3, "t^2 + 1"),
                "F_3[t]/(t^4)": NON_FIELDS["F_3[t]/(t^4)"]}


@pytest.mark.parametrize("name", sorted(WARM_DOMAINS))
def test_no_element_products_with_a_warm_table(name, fresh_cache, monkeypatch):
    domain = WARM_DOMAINS[name]
    variables = ("a", "b")
    pres = Presentation(domain, variables, [
        parse_poly(text, domain, variables)
        for text in ("a^2*b - a*b^3 + b^2 - 1", "a*b^2 + a^3 - 2")])
    # a new exponent and a new mixed product: their rows come from the table
    more = Presentation(domain, variables,
                        [parse_poly("a^5*b^4 + 2*a^4 - 3", domain, variables)])
    first = points_over(pres, domain)
    calls = []

    def counted(op):
        def wrapper(*args):
            calls.append(op.__qualname__)
            return op(*args)
        return wrapper

    for cls in (FieldElement, AlgebraElement):
        for name_ in ("__mul__", "__pow__"):
            monkeypatch.setattr(cls, name_, counted(getattr(cls, name_)))
    again = points_over(pres, domain)
    later = points_over(more, domain)
    monkeypatch.undo()
    assert calls == []
    assert again == first == dense_points(pres, domain)
    assert later == dense_points(more, domain)
    assert first and later


@pytest.mark.parametrize("name", sorted(MUL_DOMAINS))
def test_cold_table_takes_at_most_m_squared_products(name, monkeypatch):
    # mul follows from the products u_i * u_j of the m basis elements, q =
    # p^m: at most m^2 products of domain elements, whatever q
    domain = MUL_DOMAINS[name]
    base = domain
    while not isinstance(base, Field):
        base = base.base
    q, p, m = domain.size(), base.characteristic, 1
    while p ** m < q:
        m += 1
    calls = []
    cls = type(domain.one())
    mul = cls.__mul__

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    monkeypatch.setattr(cls, "__mul__", counted)
    table = restriction._DomainTable(domain)
    monkeypatch.undo()
    assert p ** m == q and len(table.mul) == q
    assert 0 < len(calls) <= m * m
