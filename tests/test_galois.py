import random

import pytest

from weilres import (GaloisField, GroupAction, IncompatibleFieldError, Poly,
                     Presentation, PrimeField, TamenessError,
                     UnsupportedOperationError, action_point_map, base_change,
                     cyclic_frobenius_action, diagonal_section, extend_scalars,
                     fixed_points, from_minimal_polynomial, parse_poly,
                     points_over, restrict, validate_action, verify_descent)


@pytest.fixture
def conic(f3):
    return Presentation(f3, ("u",), [parse_poly("u^2 - 2", f3, ("u",))])


@pytest.fixture
def frobenius(f9_ext):
    return cyclic_frobenius_action(f9_ext)


@pytest.fixture
def restricted_conic(conic, f9_ext):
    return restrict(base_change(conic, f9_ext), f9_ext)


def trivial_action(ext):
    base = ext.base
    ident = [[base.one() if i == j else base.zero() for j in range(ext.rank)]
             for i in range(ext.rank)]
    return GroupAction(("id",), ((0,),), [ident], base)


# -- validation ----------------------------------------------------------------

def test_trivial_action_validates(f9_ext):
    ok, diagnostics = validate_action(trivial_action(f9_ext), f9_ext)
    assert ok and not diagnostics


def test_frobenius_matrix_is_diag_1_minus1(frobenius, f3):
    assert frobenius.order == 2
    assert frobenius.matrices[1] == ((f3(1), f3(0)), (f3(0), f3(-1)))


def test_frobenius_action_validates(frobenius, f9_ext):
    ok, diagnostics = validate_action(frobenius, f9_ext)
    assert ok and not diagnostics


def test_corrupted_action_reports_diagnostics(f9_ext, f3):
    bad = GroupAction(("id", "frob"), ((0, 1), (1, 0)),
                      [[[f3(1), f3(0)], [f3(0), f3(1)]],
                       [[f3(1), f3(1)], [f3(0), f3(2)]]], f3)
    ok, diagnostics = validate_action(bad, f9_ext)
    assert not ok
    assert diagnostics


# -- the relations of the action -------------------------------------------------

def _relation_rows(fp, variables, base):
    """Coefficient rows of the linear relations over variables."""
    unit = [tuple(int(i == j) for i in range(len(variables)))
            for j in range(len(variables))]
    rows = []
    for rel in fp.linear_relations:
        aligned = rel.with_variables(variables)
        assert set(aligned.terms) <= set(unit)
        rows.append([aligned.terms.get(e, base.zero()) for e in unit])
    return rows


def test_linear_part_is_matrix_minus_identity(restricted_conic, frobenius, f3):
    fp = fixed_points(frobenius, restricted_conic)
    matrix = frobenius.matrices[1]
    # frob = diag(1, -1): the row of u_1 vanishes and is skipped
    assert _relation_rows(fp, ("u_1", "u_2"), f3) == [
        [f3(0), matrix[1][1] - f3(1)]]


def test_relations_sit_at_each_block(f2):
    ext = from_minimal_polynomial(f2, parse_poly("t^3 + t + 1", f2, ("t",)), "t")
    act = cyclic_frobenius_action(ext)
    x = Presentation(f2, ("u", "v"), [parse_poly("u^2 + u*v + 1", f2, ("u", "v"))])
    result = restrict(base_change(x, ext), ext)
    fp = fixed_points(act, result)
    variables = result.presentation.variables
    assert variables == ("u_1", "u_2", "u_3", "v_1", "v_2", "v_3")
    zero = [f2(0)] * 3
    expected = []
    for block in range(2):
        for i, row in enumerate(act.matrices[1]):
            shifted = [c - f2(int(i == j)) for j, c in enumerate(row)]
            if shifted != zero:
                expected.append(zero * block + shifted + zero * (1 - block))
    assert expected and _relation_rows(fp, variables, f2) == expected


def test_fixed_points_rejects_non_base_defined(f9_ext, f3):
    gen = parse_poly("u^2 - t", f9_ext, ("u",))   # coefficient involves t
    pres = Presentation(f9_ext, ("u",), [gen])
    result = restrict(pres, f9_ext)
    with pytest.raises(UnsupportedOperationError, match="not defined over the base"):
        fixed_points(cyclic_frobenius_action(f9_ext), result)
    # an invalid action is reported before the generators are looked at
    bad = GroupAction(("id", "frob"), ((0, 1), (1, 0)),
                      [[[f3(1), f3(0)], [f3(0), f3(1)]],
                       [[f3(1), f3(1)], [f3(0), f3(2)]]], f3)
    with pytest.raises(ValueError, match="invalid action"):
        fixed_points(bad, result)


def test_induced_identity_is_identity(restricted_conic, frobenius, f3):
    # the identity moves no point; frob = diag(1, -1) sends (u_1, u_2) to (u_1, -u_2)
    ident = action_point_map(frobenius, restricted_conic, 0, f3)
    frob = action_point_map(frobenius, restricted_conic, 1, f3)
    assert restricted_conic.presentation.variables == ("u_1", "u_2")
    for a in range(3):
        for b in range(3):
            assert ident((f3(a), f3(b))) == (f3(a), f3(b))
            assert frob((f3(a), f3(b))) == (f3(a), -f3(b))


def test_point_level_stability(restricted_conic, frobenius, f3):
    f9 = GaloisField(3, (1, 0, 1), "t")
    for field in (f3, f9):
        pts = points_over(restricted_conic.presentation, field)
        pt_set = {tuple(p) for p in pts}
        for g in range(frobenius.order):
            move = action_point_map(frobenius, restricted_conic, g, field)
            for pt in pts:
                assert tuple(move(pt)) in pt_set


# -- fixed points -----------------------------------------------------------------

def test_fixed_points_trivial_group(restricted_conic, f9_ext):
    fp = fixed_points(trivial_action(f9_ext), restricted_conic)
    assert fp.presentation.variables == restricted_conic.presentation.variables
    assert (fp.presentation.canonical_generator_set()
            == restricted_conic.presentation.canonical_generator_set())
    assert not fp.eliminated
    assert fp.linear_relations == ()
    assert fp.unreduced.generators == restricted_conic.presentation.generators


def test_fixed_points_golden(restricted_conic, frobenius, f3):
    fp = fixed_points(frobenius, restricted_conic)
    assert fp.presentation.variables == ("u_1",)
    assert fp.presentation.generator_strings() == ("u_1^2 + 1",)
    assert str(fp.eliminated["u_2"]) == "0"
    assert [r.to_string() for r in fp.linear_relations] == ["u_2"]
    # the unreduced shape keeps both block variables and all generators
    assert fp.unreduced.variables == ("u_1", "u_2")
    assert "u_2" in fp.unreduced.generator_strings()
    for field in (f3, GaloisField(3, (1, 0, 1), "t")):
        assert (len(points_over(fp.presentation, field))
                == len(points_over(fp.unreduced, field)))


def test_fixed_points_wild_rejected(f4_ext):
    act = cyclic_frobenius_action(f4_ext)
    x = Presentation(f4_ext.base, ("u",),
                     [parse_poly("u^2 + u", f4_ext.base, ("u",))])
    result = restrict(base_change(x, f4_ext), f4_ext)
    with pytest.raises(TamenessError):
        fixed_points(act, result)


# -- descent -----------------------------------------------------------------------

def test_descent_golden(conic, f9_ext, frobenius, f3):
    fields = [f3, GaloisField(3, (1, 0, 1), "t"), GaloisField(3, (1, 2, 0, 1), "t")]
    rows = verify_descent(conic, f9_ext, frobenius, fields)
    assert [r["count_left"] for r in rows] == [0, 2, 0]
    assert all(r["count_left"] == r["count_right"] for r in rows)
    assert all(r["bijection_ok"] for r in rows)


def test_descent_affine_line(f3, f9_ext, frobenius):
    line = Presentation(f3, ("u",), [])
    fields = [f3, GaloisField(3, (1, 0, 1), "t"), GaloisField(3, (1, 2, 0, 1), "t")]
    rows = verify_descent(line, f9_ext, frobenius, fields)
    assert [r["count_left"] for r in rows] == [3, 9, 27]
    assert all(r["bijection_ok"] for r in rows)


def test_descent_cubic(f3, f9_ext, frobenius):
    cubic = Presentation(f3, ("u",), [parse_poly("u^3 - u", f3, ("u",))])
    rows = verify_descent(cubic, f9_ext, frobenius, [f3])
    assert rows[0]["count_left"] == rows[0]["count_right"] == 3
    assert rows[0]["bijection_ok"]


def test_descent_two_variable_circle(f3, f9_ext, frobenius):
    circle = Presentation(f3, ("u", "v"),
                          [parse_poly("u^2 + v^2 - 1", f3, ("u", "v"))])
    fields = [f3, GaloisField(3, (1, 0, 1), "t")]
    rows = verify_descent(circle, f9_ext, frobenius, fields)
    assert rows[0]["count_left"] == rows[0]["count_right"] == 4
    assert all(r["count_left"] == r["count_right"] and r["bijection_ok"]
               for r in rows)


def test_descent_random_tame(f3):
    rng = random.Random(61)
    ext = from_minimal_polynomial(f3, parse_poly("t^2 + t + 2", f3, ("t",)), "t")
    act = cyclic_frobenius_action(ext)
    for _ in range(5):
        terms = {(rng.randint(0, 3),): f3.random_element(rng)
                 for _ in range(rng.randint(1, 3))}
        gen = Poly(f3, ("u",), terms)
        x = Presentation(f3, ("u",), [gen] if not gen.is_zero() else [])
        rows = verify_descent(x, ext, act, [f3, GaloisField(3, (2, 1, 1), "t")])
        assert all(r["count_left"] == r["count_right"] and r["bijection_ok"]
                   for r in rows)


def test_no_embedding_raises_at_every_caller(f3, f9_ext, frobenius, conic,
                                             restricted_conic):
    f5 = PrimeField(5)
    ext5 = from_minimal_polynomial(f5, parse_poly("t^2 + 2", f5, ("t",)), "t")
    calls = [
        lambda: extend_scalars(f9_ext, f5),
        lambda: base_change(base_change(conic, f9_ext), f5),  # extension -> field
        lambda: base_change(conic, ext5),                     # field -> extension
        lambda: base_change(conic, f5),                       # field -> field
        lambda: action_point_map(frobenius, restricted_conic, 1, f5),
        lambda: diagonal_section(conic, f9_ext, f5),
    ]
    for call in calls:
        with pytest.raises(IncompatibleFieldError, match="no canonical embedding"):
            call()


def test_descent_enumerates_reduced_points_once_per_field(
        conic, f9_ext, frobenius, f3, monkeypatch):
    import weilres.galois
    reduced_calls = []

    def counting(p, domain):
        if p.provenance == "fixed points":
            reduced_calls.append(domain)
        return points_over(p, domain)

    monkeypatch.setattr(weilres.galois, "points_over", counting)
    fields = [f3, GaloisField(3, (1, 0, 1), "t"), GaloisField(3, (1, 2, 0, 1), "t")]
    rows = verify_descent(conic, f9_ext, frobenius, fields)
    assert reduced_calls == fields
    assert rows == [
        {"field": repr(f), "count_left": n, "count_right": n, "bijection_ok": True}
        for f, n in zip(fields, [0, 2, 0])]
