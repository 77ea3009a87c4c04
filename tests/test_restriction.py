import random
from fractions import Fraction

import pytest

from weilres import (EnumerationBoundError, GaloisField, IncompatibleFieldError,
                     LogNorm, Poly, Presentation, PrimeField,
                     UnsupportedOperationError, base_change, disc_generators,
                     expand_element, from_minimal_polynomial, parse_poly,
                     points_over, product, product_presentation, psi_apply,
                     restrict)
from weilres import restriction
from weilres.documents import canonical_json, restriction_record
from weilres.extensions import generic_charpoly, tensor_product
from weilres.restriction import block_names
from weilres.verify import random_poly


@pytest.fixture
def qi(rationals):
    return from_minimal_polynomial(rationals,
                                   parse_poly("t^2 + 1", rationals, ("t",)), "t")


# -- expansion ----------------------------------------------------------------

def test_expand_circle(qi, rationals):
    f = parse_poly("u^2 - 5", qi, ("u",))
    coords = expand_element(f, qi)
    assert coords[0] == parse_poly("u_1^2 - u_2^2 - 5", rationals, ("u_1", "u_2"))
    assert coords[1] == parse_poly("2*u_1*u_2", rationals, ("u_1", "u_2"))


def test_expand_constant(qi, rationals):
    c = Poly.constant(qi, qi.scalar(rationals(7)), ("u",))
    coords = expand_element(c, qi)
    assert coords[0] == Poly.constant(rationals, rationals(7),
                                      block_names("u", 2))
    assert coords[1].is_zero()


def test_expand_cube_root_f4(f4_ext, f2):
    f = parse_poly("u^2 + u + 1", f4_ext, ("u",))
    coords = expand_element(f, f4_ext)
    assert coords[0] == parse_poly("u_1^2 + u_2^2 + u_1 + 1", f2, ("u_1", "u_2"))
    assert coords[1] == parse_poly("u_2^2 + u_2", f2, ("u_1", "u_2"))


# -- restriction ---------------------------------------------------------------

def test_restrict_affine_line(f4_ext, f2):
    pres = Presentation(f4_ext, ("u",), [])
    result = restrict(pres, f4_ext)
    assert result.presentation.variables == ("u_1", "u_2")
    assert result.presentation.generators == ()
    assert len(points_over(result.presentation, f2)) == 4


def test_restrict_circle(qi, rationals):
    pres = Presentation(qi, ("u",), [parse_poly("u^2 - 5", qi, ("u",))])
    result = restrict(pres, qi)
    gens = result.presentation.generator_strings()
    assert gens == ("u_1^2 - u_2^2 - 5", "2*u_1*u_2")
    assert result.verify()


def test_restrict_forwards_radii_metadata(qi):
    pres = Presentation(qi, ("u",), [parse_poly("u^2 - 5", qi, ("u",))],
                        radii=[LogNorm(0)])
    result = restrict(pres, qi)
    assert result.metadata["original_radii"] == ("0",)


def test_variable_count_is_rank_times_original(f9_ext):
    pres = Presentation(f9_ext, ("u", "v"),
                        [parse_poly("u*v - 1", f9_ext, ("u", "v"))])
    result = restrict(pres, f9_ext)
    assert len(result.presentation.variables) == 4
    assert result.coordinate_map == {"u": ("u_1", "u_2"), "v": ("v_1", "v_2")}
    assert result.verify()


# -- disc generators -----------------------------------------------------------

def test_disc_generators_quadratic(rationals):
    ext = from_minimal_polynomial(rationals,
                                  parse_poly("t^2 - 7", rationals, ("t",)))
    gens, meta = disc_generators(ext, [ext.unit_element()], ("x_1", "x_2"))
    expected_1 = parse_poly("y1_1 + 2*x_1", rationals, ("y1_1", "x_1"))
    expected_2 = parse_poly("y1_2 - x_1^2 + 7*x_2^2", rationals,
                            ("y1_2", "x_1", "x_2"))
    assert gens[0] == expected_1
    assert gens[1] == expected_2
    assert meta["y1_1"]["integral_lognorm"] == "0"


def test_disc_generators_zero_radius(rationals):
    ext = from_minimal_polynomial(rationals,
                                  parse_poly("t^2 - 7", rationals, ("t",)))
    gens, _ = disc_generators(ext, [ext.zero_element()], ("x_1", "x_2"))
    assert [g.to_string() for g in gens] == ["y1_1", "y1_2"]


def test_disc_generators_rank_one(rationals):
    ext = from_minimal_polynomial(rationals,
                                  parse_poly("t - 1", rationals, ("t",)), "s")
    r = ext.scalar(rationals(Fraction(2, 3)))
    gens, _ = disc_generators(ext, [r], ("x_1",))
    # chi of (2/3)x_1 is z - (2/3)x_1, so the generator is y + (2/3)x_1
    assert gens[0] == parse_poly("y1_1 + 2/3*x_1", rationals, ("y1_1", "x_1"))


def test_disc_generator_scaling_corollary(q2):
    ext = from_minimal_polynomial(q2, parse_poly("t^2 - 2", q2, ("t",)))
    a = q2(Fraction(3, 4))
    r = ext.basis_element(1)
    gens_r, _ = disc_generators(ext, [r], ("x_1", "x_2"))
    gens_ar, _ = disc_generators(ext, [r.scale(a)], ("x_1", "x_2"))
    y1 = Poly.variable(q2, "y1_1")
    y2 = Poly.variable(q2, "y1_2")
    c1 = y1 - gens_r[0]
    c2 = y2 - gens_r[1]
    assert y1 - gens_ar[0] == c1.scale(a)
    assert y2 - gens_ar[1] == c2.scale(a * a)


def test_disc_generators_reject_foreign_radius(qi, f4_ext):
    with pytest.raises((IncompatibleFieldError, TypeError)):
        disc_generators(qi, [f4_ext.unit_element()], ("x_1", "x_2"))


def test_radius_elements_need_scalar_coordinates(qi, rationals):
    # the generic forms are linear in x_1, ..., x_n over the base; a
    # polynomial coordinate would be read as one of their coefficients
    r = qi.element((Poly.variable(rationals, "u"), rationals(1)))
    with pytest.raises(UnsupportedOperationError, match="scalar coordinates"):
        generic_charpoly(r, ("x_1", "x_2"))
    with pytest.raises(UnsupportedOperationError, match="scalar coordinates"):
        disc_generators(qi, [r], ("x_1", "x_2"))


def test_disc_generators_scaled_radius_metadata(k2):
    ext = from_minimal_polynomial(k2, parse_poly("t^2 - x", k2, ("t",)), "t")
    x = k2.variable()
    gens, meta = disc_generators(ext, [ext.scalar(x)], ("x_1", "x_2"))
    # rho(x) = -1, so the j-th y carries log-radius -j
    assert meta["y1_1"]["scaled_lognorm"] == "-1"
    assert meta["y1_2"]["scaled_lognorm"] == "-2"


# -- products and base change ----------------------------------------------------

def test_product_with_point_is_identity(f4_ext):
    p = Presentation(f4_ext, ("u",), [parse_poly("u^2 + u", f4_ext, ("u",))])
    point = Presentation(f4_ext, (), [])
    left = product(restrict(p, f4_ext), restrict(point, f4_ext))
    assert (left.presentation.canonical_generator_set()
            == restrict(p, f4_ext).presentation.canonical_generator_set())
    assert left.presentation.variables == restrict(p, f4_ext).presentation.variables


def test_product_renames_collisions(f4_ext):
    p1 = Presentation(f4_ext, ("u",), [parse_poly("u^2 + u", f4_ext, ("u",))])
    p2 = Presentation(f4_ext, ("u",), [parse_poly("u^2 + 1", f4_ext, ("u",))])
    combined = product(restrict(p1, f4_ext), restrict(p2, f4_ext))
    assert combined.presentation.variables == ("u_1", "u_2", "u'_1", "u'_2")
    direct = restrict(product_presentation(p1, p2), f4_ext)
    assert (combined.presentation.canonical_generator_set()
            == direct.presentation.canonical_generator_set())


def _random_presentation(rng, ext):
    """A presentation over ext on a few variables drawn from a small pool
    (primed names included, so renamings collide again), perhaps none, with
    random generators and, in some cases, radii."""
    pool = ["u", "v", "u'", "w"]
    variables = rng.sample(pool, rng.randint(0, 3))
    gens = [random_poly(rng, ext, variables) for _ in range(rng.randint(0, 2))]
    radii = [LogNorm(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
             for _ in variables] if rng.random() < 0.5 else None
    return Presentation(ext, variables, gens, radii=radii, provenance=rng.choice(["", "p"]))


def test_product_is_the_restriction_of_the_product(f4_ext, qi, monkeypatch):
    """product joins the two restrictions, expanding nothing again, into
    the record restrict gives the product presentation."""
    f3 = PrimeField(3)
    cubic = from_minimal_polynomial(f3, parse_poly("t^3 + 2*t + 1", f3, ("t",)), "t")
    tensor = tensor_product(f4_ext, f4_ext)
    rng = random.Random(5)
    cases = []
    for trial in range(80):
        ext = (f4_ext, qi, cubic, tensor)[trial % 4]
        p1, p2, p3 = (_random_presentation(rng, ext) for _ in range(3))
        r1, r2, r3 = (restrict(p, ext) for p in (p1, p2, p3))
        both = product_presentation(p1, p2)
        cases.append((r1, r2, r3, restrict(both, ext),
                       restrict(product_presentation(both, p3), ext)))

    def refused(*args, **kwargs):
        raise AssertionError("product expanded a generator")

    monkeypatch.setattr(restriction, "expand_element", refused)
    for r1, r2, r3, want, want3 in cases:
        got = product(r1, r2)
        assert canonical_json(restriction_record(got)) == canonical_json(
            restriction_record(want))
        assert got.original.provenance == "product"
        assert got.original.radii == want.original.radii
        got3 = product(got, r3)
        assert canonical_json(restriction_record(got3)) == canonical_json(
            restriction_record(want3))


def test_product_presentation_concatenates_radii(f4_ext):
    p1 = Presentation(f4_ext, ("u",), [], radii=[LogNorm(1)])
    p2 = Presentation(f4_ext, ("u", "v"), [], radii=[LogNorm(-2), LogNorm(3)])
    both = product_presentation(p1, p2)
    assert both.variables == ("u", "u'", "v")
    assert both.radii == (LogNorm(1), LogNorm(-2), LogNorm(3))
    # one factor without radii leaves the product without them
    assert product_presentation(p1, Presentation(f4_ext, ("v",), [])).radii is None


def test_base_change_identity(f3):
    p = Presentation(f3, ("u",), [parse_poly("u^2 - 2", f3, ("u",))])
    q = base_change(p, f3)
    assert q.generator_strings() == p.generator_strings()


def test_base_change_to_larger_field(f3):
    f9 = GaloisField(3, (1, 0, 1), "t")
    p = Presentation(f3, ("u",), [parse_poly("u^2 - 2", f3, ("u",))])
    q = base_change(p, f9)
    assert q.base == f9
    assert len(points_over(q, f9)) == 2


def test_base_change_to_extension(f3, f9_ext):
    p = Presentation(f3, ("u",), [parse_poly("u^2 - 2", f3, ("u",))])
    q = base_change(p, f9_ext)
    assert q.base is f9_ext
    assert len(points_over(q, f9_ext)) == 2


def test_base_change_rejects_unrelated(f3, f2):
    p = Presentation(f3, ("u",), [parse_poly("u^2 - 2", f3, ("u",))])
    with pytest.raises(IncompatibleFieldError):
        base_change(p, f2)


# -- the point oracle -------------------------------------------------------------

def test_points_cube_roots(f4_ext, f2):
    pres = Presentation(f4_ext, ("u",), [parse_poly("u^2 + u + 1", f4_ext, ("u",))])
    up = points_over(pres, f4_ext)
    assert len(up) == 2
    result = restrict(pres, f4_ext)
    down = points_over(result.presentation, f2)
    assert [[str(c) for c in pt] for pt in down] == [["0", "1"], ["1", "1"]]
    image = psi_apply(result, down[0])
    assert str(image[0]) == "w"


def test_points_affine_space_count(f3):
    pres = Presentation(f3, ("u", "v"), [])
    assert len(points_over(pres, f3)) == 9


def test_psi_zero_point_of_affine_line(f4_ext, f2):
    line = Presentation(f4_ext, ("u",), [])
    result = restrict(line, f4_ext)
    image = psi_apply(result, (f2(0), f2(0)))
    assert image[0].is_zero()


def test_points_over_extension_domain_from_base(f3, f9_ext):
    # a base presentation counted over the extension via the canonical lift
    pres = Presentation(f3, ("u",), [parse_poly("u^2 - 2", f3, ("u",))])
    pts = points_over(pres, f9_ext)
    assert len(pts) == 2


def test_points_sorted_deterministically(f3):
    pres = Presentation(f3, ("u",), [parse_poly("u^3 - u", f3, ("u",))])
    pts = points_over(pres, f3)
    assert [[str(c) for c in p] for p in pts] == [["0"], ["1"], ["2"]]


def test_points_over_enumerates_once_without_evaluate(monkeypatch, f3):
    # the oracle runs its compiled generators over one enumeration of the
    # q^(d-1) prefixes, reading or testing the last variable per prefix;
    # Poly.evaluate stays for psi_apply and verify only
    import weilres.restriction

    enumerate_ = weilres.restriction._assignments
    calls, yields = [], []

    def counted(variables, elems):
        calls.append(tuple(variables))
        for assignment in enumerate_(variables, elems):
            yields.append(assignment)
            yield assignment

    def no_evaluate(self, assignment):
        raise AssertionError("Poly.evaluate called")

    monkeypatch.setattr(weilres.restriction, "_assignments", counted)
    monkeypatch.setattr(Poly, "evaluate", no_evaluate)
    f9 = GaloisField(3, (1, 0, 1), "t")
    variables = ("a", "b", "c")
    pres = Presentation(f3, variables, [
        parse_poly("a^2 + b*c - 1", f3, variables), parse_poly("a - c^2", f3, variables)])
    pts = points_over(pres, f9)
    assert calls == [variables[:-1]] and len(yields) == 9 ** 2
    assert pts and all((a ** 2 + b * c - 1).is_zero() and (a - c ** 2).is_zero()
                       for a, b, c in pts)


def test_enumeration_bounds():
    f101 = PrimeField(101)
    pres = Presentation(f101, ("u",), [])
    with pytest.raises(EnumerationBoundError):
        points_over(pres, f101)
    f2 = PrimeField(2)
    pres7 = Presentation(f2, tuple("u%d" % i for i in range(7)), [])
    with pytest.raises(EnumerationBoundError):
        points_over(pres7, f2)


def test_assignment_budget_checked_before_enumeration(monkeypatch):
    # 6 variables and 81 elements pass both caps, but 81^6 assignments do not
    import weilres.restriction

    def no_enumeration(variables, elems):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(weilres.restriction, "_assignments", no_enumeration)
    f81 = GaloisField(3, (2, 1, 0, 0, 1), "s")
    pres = Presentation(f81, tuple("u%d" % i for i in range(6)), [])
    with pytest.raises(EnumerationBoundError, match="budget"):
        points_over(pres, f81)


def test_psi_apply_rejects_non_points(f4_ext, f2):
    pres = Presentation(f4_ext, ("u",), [parse_poly("u^2 + u + 1", f4_ext, ("u",))])
    result = restrict(pres, f4_ext)
    with pytest.raises(ValueError):
        psi_apply(result, (f2(0), f2(0)))


def test_presentation_validation(f3):
    with pytest.raises(ValueError):
        Presentation(f3, ("u",), [parse_poly("u + v", f3, ("u", "v"))])
    with pytest.raises(ValueError):
        Presentation(f3, ("u", "u"), [])
    with pytest.raises(ValueError):
        Presentation(f3, ("u",), [], radii=[LogNorm(0), LogNorm(0)])
    with pytest.raises(IncompatibleFieldError):
        Presentation(f3, ("u",), [parse_poly("u", PrimeField(5), ("u",))])


def test_closed_immersion_preserved(f9_ext):
    g1 = [parse_poly("u^2 - 2", f9_ext, ("u", "v"))]
    g2 = g1 + [parse_poly("v^2 + u", f9_ext, ("u", "v"))]
    s1 = restrict(Presentation(f9_ext, ("u", "v"), g1),
                  f9_ext).presentation.canonical_generator_set()
    s2 = restrict(Presentation(f9_ext, ("u", "v"), g2),
                  f9_ext).presentation.canonical_generator_set()
    assert s1 <= s2


def test_expand_rejects_foreign_polynomials(qi, f4_ext):
    f = parse_poly("u^2 + u", f4_ext, ("u",))
    with pytest.raises(IncompatibleFieldError):
        expand_element(f, qi)


def test_restrict_rejects_wrong_extension(qi, f4_ext):
    pres = Presentation(f4_ext, ("u",), [parse_poly("u^2 + u", f4_ext, ("u",))])
    with pytest.raises(IncompatibleFieldError):
        restrict(pres, qi)


def test_adjunction_counts_random(f9_ext, f3):
    rng = random.Random(5)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 3),)] = f9_ext.random_element(rng)
        gen = Poly(f9_ext, ("u",), terms)
        pres = Presentation(f9_ext, ("u",), [gen] if not gen.is_zero() else [])
        result = restrict(pres, f9_ext)
        down = points_over(result.presentation, f3)
        up = points_over(pres, f9_ext)
        assert len(down) == len(up)
        images = {tuple(psi_apply(result, pt)) for pt in down}
        assert len(images) == len(down)
        assert images <= {tuple(p) for p in up}
