"""Reproducible verification suites behind the CLI `verify` command.

Every suite runs exact checks (tolerance zero) driven by an explicit seed and
returns a machine-readable report; each row names the identity it checks.
The acceptance tests call the same functions, so the CLI and the test suite
cannot drift apart.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import TamenessError, UnsupportedOperationError
from .extensions import (FreeExtension, from_minimal_polynomial,
                         is_nilpotent, tensor_product, MonicPoly)
from .fields import (FunctionField, GaloisField, PrimeField, RationalField,
                     _is_irreducible)
from .galois import (action_point_map, cyclic_frobenius_action, fixed_points,
                     verify_descent)
from .lognorm import LogNorm, MINUS_INF
from .poly import Poly, _first_seen, parse_poly
from .restriction import (Presentation, base_change, disc_generators,
                          points_over, product, product_presentation, psi_apply,
                          restrict)
from .spectral import (coordinate_norm_spread, non_quasicompact_witness,
                       power_norm_bound, spectral_radius, spectral_value,
                       spectral_value_product_check)


class Report:
    def __init__(self, suite, seed=None):
        self.suite = suite
        self.seed = seed
        self.rows = []

    def add(self, identity, ok, detail="", data=None):
        row = {
            "identity": identity,
            "status": "pass" if ok else "fail",
            "detail": detail,
        }
        if data is not None:
            row["data"] = data
        self.rows.append(row)
        return ok

    @property
    def ok(self):
        return all(row["status"] == "pass" for row in self.rows)

    def as_record(self):
        record = {
            "suite": self.suite,
            "status": "pass" if self.ok else "fail",
            "rows": self.rows,
        }
        if self.seed is not None:
            record["seed"] = self.seed
        return record


# ---------------------------------------------------------------------------
# seeded random generators shared by suites and tests


def random_monic(rng, field):
    return MonicPoly(field, tuple(field.random_element(rng)
                                  for _ in range(rng.randint(1, 4))))


def random_poly(rng, domain, variables):
    variables = tuple(variables)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, 3)):
            if variables:
                exps[rng.randrange(len(variables))] += 1
        coeff = domain.random_element(rng)
        key = tuple(exps)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Poly(domain, variables, terms)


def random_irreducible_coeffs(rng, p, degree):
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(degree)) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs


def random_field_extension(rng, q, n):
    base = PrimeField(q)
    coeffs = random_irreducible_coeffs(rng, q, n)
    m = Poly(base, ("t",), {(i,): base.coerce(c)
                            for i, c in enumerate(coeffs) if c != 0})
    return base, from_minimal_polynomial(base, m, "t")


# ---------------------------------------------------------------------------


def golden_cube_root_presentation():
    """V(u^2 + u + 1) over the quartic-free presentation of F_4."""
    base = PrimeField(2)
    m = parse_poly("w^2 + w + 1", base, ("w",))
    ext = from_minimal_polynomial(base, m, "w")
    gen = parse_poly("u^2 + u + 1", ext, ("u",))
    return base, ext, Presentation(ext, ("u",), [gen], provenance="cube roots of 1")


def suite_adjunction(seed=1):
    report = Report("adjunction", seed)
    rng = random.Random(seed)

    base, ext, pres = golden_cube_root_presentation()
    result = restrict(pres, ext)
    down = points_over(result.presentation, base)
    up = points_over(pres, ext)
    report.add("adjunction_golden_count",
               len(down) == 2 and len(up) == 2,
               "restriction has %d points over F_2, original has %d over F_4"
               % (len(down), len(up)))
    up_set = {tuple(p) for p in up}
    images = [tuple(psi_apply(result, pt)) for pt in down]
    report.add("adjunction_golden_bijection",
               len(set(images)) == len(down)
               and all(img in up_set for img in images),
               "expansion map is injective into the original point set")

    for q, n in ((2, 2), (2, 3), (3, 2)):
        all_ok = True
        for trial in range(10):
            base, ext = random_field_extension(rng, q, n)
            d = rng.randint(1, 2)
            variables = ("u", "v")[:d]
            gens = [random_poly(rng, ext, variables)
                    for _ in range(rng.randint(1, 2))]
            gens = [g for g in gens if not g.is_zero()] or \
                [Poly.zero(ext, variables)]
            pres = Presentation(ext, variables, gens)
            result = restrict(pres, ext)
            down = points_over(result.presentation, base)
            up = points_over(pres, ext)
            if len(down) != len(up):
                all_ok = False
                break
            up_set = {tuple(p) for p in up}
            images = {tuple(psi_apply(result, pt)) for pt in down}
            if len(images) != len(down) or not images <= up_set:
                all_ok = False
                break
        report.add("adjunction_point_bijection_q%d_n%d" % (q, n), all_ok,
                   "10 random systems, counts equal and expansion bijective")
    return report


def suite_products(seed=1):
    report = Report("products", seed)
    rng = random.Random(seed)
    base = PrimeField(2)
    m = parse_poly("w^2 + w + 1", base, ("w",))
    ext = from_minimal_polynomial(base, m, "w")

    all_ok = True
    for trial in range(20):
        v2 = "u" if trial % 2 == 0 else "v"
        p1 = Presentation(ext, ("u",), [random_poly(rng, ext, ("u",))])
        p2 = Presentation(ext, (v2,), [random_poly(rng, ext, (v2,))])
        left = product(restrict(p1, ext), restrict(p2, ext))
        right = restrict(product_presentation(p1, p2), ext)
        if (left.presentation.canonical_generator_set()
                != right.presentation.canonical_generator_set()):
            all_ok = False
            break
    report.add("product_compatibility", all_ok,
               "20 random pairs: restriction of the product equals the "
               "product of restrictions as canonical generator sets")

    galois4 = GaloisField(2, (1, 1, 1), "w")
    all_ok = True
    for trial in range(10):
        pres = Presentation(ext, ("u",), [random_poly(rng, ext, ("u",))])
        n1 = len(points_over(restrict(pres, ext).presentation, galois4))
        moved = base_change(pres, galois4)
        n2 = len(points_over(restrict(moved, moved.base).presentation, galois4))
        if n1 != n2:
            all_ok = False
            break
    report.add("base_change_compatibility", all_ok,
               "10 random systems: restriction point counts commute with "
               "base change to the rank-2 coefficient extension")

    all_ok = True
    for trial in range(10):
        g1 = [random_poly(rng, ext, ("u", "v"))]
        g2 = g1 + [random_poly(rng, ext, ("u", "v"))]
        s1 = restrict(Presentation(ext, ("u", "v"), g1), ext) \
            .presentation.canonical_generator_set()
        s2 = restrict(Presentation(ext, ("u", "v"), g2), ext) \
            .presentation.canonical_generator_set()
        if not s1 <= s2:
            all_ok = False
            break
    report.add("closed_immersion_compatibility", all_ok,
               "larger generator sets restrict to larger coefficient sets")

    one = ext.unit_element()
    single_u, _ = disc_generators(ext, [one], ("u_1", "u_2"), y_prefix="yu")
    single_v, _ = disc_generators(ext, [one], ("v_1", "v_2"), y_prefix="yv")
    du = Presentation(base, _first_seen(g.variables for g in single_u), single_u)
    dv = Presentation(base, _first_seen(g.variables for g in single_v), single_v)
    both = product_presentation(du, dv)
    combined = Presentation(base, both.variables, list(single_u) + list(single_v))
    report.add("polydisc_product_compatibility",
               both.canonical_generator_set() == combined.canonical_generator_set(),
               "two one-variable disc restrictions multiply to the "
               "two-variable disc restriction")
    return report


def golden_descent_inputs():
    base = PrimeField(3)
    m = parse_poly("t^2 + 1", base, ("t",))
    ext = from_minimal_polynomial(base, m, "t")
    act = cyclic_frobenius_action(ext)
    x = Presentation(base, ("u",), [parse_poly("u^2 - 2", base, ("u",))],
                     provenance="conic")
    fields = [base,
              GaloisField(3, (1, 0, 1), "t"),
              GaloisField(3, (1, 2, 0, 1), "t")]
    return base, ext, act, x, fields


def suite_descent(seed=1, doc=None):
    report = Report("descent", seed)
    rng = random.Random(seed)

    base, ext, act, x, fields = golden_descent_inputs()
    rows = verify_descent(x, ext, act, fields)
    counts = tuple(r["count_left"] for r in rows)
    report.add("galois_fixed_point_descent_golden",
               counts == (0, 2, 0)
               and all(r["count_left"] == r["count_right"] for r in rows)
               and all(r["bijection_ok"] for r in rows),
               "fixed points of the restricted conic count %s over "
               "(F_3, F_9, F_27)" % (counts,))

    lifted = base_change(x, ext)
    result = restrict(lifted, ext)
    fp = fixed_points(act, result)
    report.add("fixed_point_reduction_golden",
               fp.presentation.canonical_generator_set()
               == frozenset({"u_1^2 + 1"})
               and str(fp.eliminated.get("u_2", "")) == "0",
               "relations force u_2 = 0 and leave u_1^2 - 2")

    stable = True
    for field in fields[:2]:
        pts = points_over(result.presentation, field)
        pt_set = {tuple(p) for p in pts}
        for g_index in range(act.order):
            move = action_point_map(act, result, g_index, field)
            for pt in pts:
                if tuple(move(pt)) not in pt_set:
                    stable = False
                    break
    report.add("restriction_generators_action_stable", stable,
               "the induced action permutes the restriction's points over "
               "every test field")

    triples = [(3, 2), (5, 2), (7, 2), (2, 3), (3, 4)]
    all_ok = True
    for q, n in triples:
        tbase, text_ = random_field_extension(rng, q, n)
        tact = cyclic_frobenius_action(text_)
        gen = random_poly(rng, tbase, ("u",))
        if gen.is_zero():
            gen = parse_poly("u^3 - u", tbase, ("u",))
        tx = Presentation(tbase, ("u",), [gen])
        tfields = [tbase]
        if q ** n <= 100:
            coeffs = [c.value for c in text_.minimal_polynomial.dense_coefficients()]
            tfields.append(GaloisField(q, coeffs, text_.symbol))
        rows = verify_descent(tx, text_, tact, tfields)
        if not all(r["count_left"] == r["count_right"] and r["bijection_ok"]
                   for r in rows):
            all_ok = False
            break
    report.add("galois_fixed_point_descent_random", all_ok,
               "5 random tame triples with exact count equality and bijection")

    wild_base = PrimeField(2)
    wild_m = parse_poly("t^2 + t + 1", wild_base, ("t",))
    wild_ext = from_minimal_polynomial(wild_base, wild_m, "t")
    wild_act = cyclic_frobenius_action(wild_ext)
    wild_x = Presentation(wild_base, ("u",),
                          [parse_poly("u^2 + u", wild_base, ("u",))])
    try:
        verify_descent(wild_x, wild_ext, wild_act, [wild_base])
        rejected = False
    except TamenessError:
        rejected = True
    report.add("wild_inputs_rejected", rejected,
               "group order 2 over characteristic 2 raises the tameness error")

    if doc is not None and doc.extension is not None and doc.action is not None:
        for name, pres in sorted(doc.presentations.items()):
            if isinstance(pres.base, FreeExtension):
                continue
            rows = verify_descent(pres, doc.extension, doc.action,
                                  doc.test_fields or [doc.field])
            report.add("galois_fixed_point_descent_document_%s" % name,
                       all(r["count_left"] == r["count_right"]
                           and r["bijection_ok"] for r in rows),
                       "document presentation %r: counts %s" %
                       (name, tuple(r["count_left"] for r in rows)))
    return report


def suite_example26(threshold=None, field=None):
    report = Report("example26")
    threshold = threshold if threshold is not None else LogNorm(3)

    k2 = field if isinstance(field, FunctionField) and field.characteristic == 2 \
        else FunctionField(2, Fraction(1, 2))
    m2 = parse_poly("t^2 - x", k2, ("t",))
    ext2 = from_minimal_polynomial(k2, m2, "t")
    cert = non_quasicompact_witness(ext2, threshold)
    report.add("witness_scale_index",
               threshold.is_minus_inf or LogNorm(cert.k) > threshold,
               "least admissible scale index k = %d for threshold %s"
               % (cert.k, threshold),
               data=cert.as_record())
    if not threshold.is_minus_inf:
        report.add("witness_scale_index_minimal",
                   cert.k == 1 or not LogNorm(cert.k - 1) > threshold,
                   "k - 1 does not exceed the threshold")
    b = cert.element
    report.add("witness_element_squares_to_zero",
               (b * b).is_zero() and cert.nilpotency_order == 2,
               "b_k^2 = 0 exactly in the self-tensor")
    report.add("witness_element_nilpotent_matrix_power", is_nilpotent(b),
               "multiplication matrix power vanishes exactly")
    report.add("witness_spectral_radius_vanishes",
               spectral_radius(b) == MINUS_INF,
               "characteristic polynomial of b_k is a pure power")
    report.add("witness_scale_norm_unbounded",
               cert.scale_lognorm == LogNorm(cert.k)
               and k2.lognorm(k2.variable().inverse() ** (cert.k + 1))
               == LogNorm(cert.k + 1),
               "lognorm(x^-k) = k grows without bound")

    k3 = FunctionField(3, Fraction(1, 2))
    m3 = parse_poly("t^3 - x", k3, ("t",))
    ext3 = from_minimal_polynomial(k3, m3, "t")
    cert3 = non_quasicompact_witness(ext3, threshold)
    b3 = cert3.element
    report.add("witness_variant_char3",
               cert3.nilpotency_order == 3 and (b3 * b3 * b3).is_zero()
               and not (b3 * b3).is_zero()
               and spectral_radius(b3) == MINUS_INF,
               "cube of the witness element vanishes, square does not")

    sep = parse_poly("t^2 + t + x", k2, ("t",))
    sep_ext = from_minimal_polynomial(k2, sep, "t")
    try:
        non_quasicompact_witness(sep_ext, threshold)
        rejected = False
    except UnsupportedOperationError:
        rejected = True
    report.add("witness_separable_rejected", rejected,
               "separable extensions admit no unbounded witness and are rejected")
    return report


def suite_sigma(seed=1):
    report = Report("sigma", seed)
    rng = random.Random(seed)

    q2 = RationalField(padic=2)
    pure = MonicPoly(q2, (q2.zero(), q2.zero(), q2.zero()))
    report.add("sigma_pure_power", spectral_value(pure) == MINUS_INF,
               "sigma(z^3) = 0 on the multiplicative scale")
    half = MonicPoly(q2, (q2.zero(), q2.coerce(Fraction(-1, 2))))
    report.add("sigma_half_example", spectral_value(half) == LogNorm(Fraction(1, 2)),
               "sigma(z^2 - 1/2) = +1/2 log-units 2-adically")
    p = MonicPoly(q2, (q2.coerce(-2),))
    q = MonicPoly(q2, (q2.coerce(Fraction(-1, 2)),))
    report.add("sigma_product_example",
               spectral_value_product_check(p, q)
               and spectral_value(p * q) == LogNorm(1),
               "sigma((z - 2)(z - 1/2)) = max of the factors' values")

    for field, tag in ((q2, "padic"), (FunctionField(3, Fraction(1, 2)), "function")):
        all_ok = True
        for _ in range(200):
            a = random_monic(rng, field)
            b = random_monic(rng, field)
            if not spectral_value_product_check(a, b):
                all_ok = False
                break
        report.add("spectral_value_multiplicativity_%s" % tag, all_ok,
                   "sigma(pq) = max(sigma(p), sigma(q)) on 200 random pairs")
    return report


def suite_rho(seed=1):
    """The spectral-radius identity: charpoly route vs one-sided power bound."""
    report = Report("rho", seed)
    rng = random.Random(seed)

    k = FunctionField(2, Fraction(1, 2))
    m = parse_poly("t^2 - x", k, ("t",))
    ext = from_minimal_polynomial(k, m, "t")

    big = tensor_product(ext, ext)
    nil = big.basis_element(1) - big.basis_element(2)
    report.add("rho_nilpotent_vanishes", spectral_radius(nil) == MINUS_INF,
               "nilpotents have spectral radius 0")
    report.add("rho_unit_is_one", spectral_radius(ext.unit_element()) == LogNorm(0),
               "the unit has spectral radius 1")
    q2 = RationalField(padic=2)
    m2 = parse_poly("t^2 - 2", q2, ("t",))
    ext2 = from_minimal_polynomial(q2, m2, "t")
    report.add("rho_sqrt2_is_half_unit",
               spectral_radius(ext2.basis_element(1)) == LogNorm(Fraction(-1, 2)),
               "rho(t) = -1/2 log-units for t^2 = 2, 2-adically")

    all_ok = True
    for _ in range(50):
        b = ext.random_element(rng)
        rho = spectral_radius(b)
        bound = power_norm_bound(b, 8)
        if rho.is_minus_inf:
            if not bound.is_minus_inf:
                all_ok = False
                break
            continue
        if bound < rho:
            all_ok = False
            break
        spread = coordinate_norm_spread(b)
        if bound - rho > spread / 8:
            all_ok = False
            break
    report.add("rho_equals_sigma_of_charpoly_power_bound", all_ok,
               "coordinate norms of b^8 bound the spectral radius from above "
               "within spread/8, 50 random elements")
    return report


SUITES = {
    "adjunction": lambda doc: suite_adjunction(doc.seed),
    "products": lambda doc: suite_products(doc.seed),
    "descent": lambda doc: suite_descent(doc.seed, doc),
    "example26": lambda doc: suite_example26(doc.threshold, doc.field),
    "sigma": lambda doc: suite_sigma(doc.seed),
    "rho": lambda doc: suite_rho(doc.seed),
}
