import random

import pytest

from weilres import (GaloisField, GroupAction, IncompatibleFieldError, Poly,
                     Presentation, PrimeField, TamenessError,
                     UnsupportedOperationError, action_point_map, base_change,
                     cyclic_frobenius_action, diagonal_section, extend_scalars,
                     fixed_points, from_minimal_polynomial, induced_action,
                     parse_poly, points_over, restrict, validate_action,
                     verify_descent)


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


# -- the induced action ----------------------------------------------------------

def test_induced_identity_is_identity(restricted_conic, frobenius, f3):
    subs = induced_action(frobenius, restricted_conic)
    u1 = Poly.variable(f3, "u_1")
    u2 = Poly.variable(f3, "u_2")
    assert subs[0]["u_1"] == u1
    assert subs[0]["u_2"] == u2
    assert subs[1]["u_1"] == u1
    assert subs[1]["u_2"] == -u2


def test_induced_action_is_group_action(restricted_conic, frobenius):
    subs = induced_action(frobenius, restricted_conic)
    for i in range(frobenius.order):
        for j in range(frobenius.order):
            composed = {v: subs[i][v].substitute(subs[j])
                        for v in subs[i]}
            assert composed == subs[frobenius.table[i][j]]


def test_linear_part_is_matrix_minus_identity(restricted_conic, frobenius, f3):
    subs = induced_action(frobenius, restricted_conic)
    matrix = frobenius.matrices[1]
    block = restricted_conic.coordinate_map["u"]
    for i, v in enumerate(block):
        rel = subs[1][v] - Poly.variable(f3, v)
        aligned = rel.with_variables(block)
        for j, w in enumerate(block):
            exps = tuple(1 if k == j else 0 for k in range(len(block)))
            coeff = aligned.terms.get(exps, f3.zero())
            expected = matrix[i][j] - (f3.one() if i == j else f3.zero())
            assert coeff == expected


def test_induced_action_rejects_non_base_defined(f9_ext):
    gen = parse_poly("u^2 - t", f9_ext, ("u",))   # coefficient involves t
    pres = Presentation(f9_ext, ("u",), [gen])
    result = restrict(pres, f9_ext)
    act = cyclic_frobenius_action(f9_ext)
    with pytest.raises(UnsupportedOperationError):
        induced_action(act, result)


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
