import random

import pytest

from weilres import Poly, PrimeField
from weilres.verify import (random_poly, suite_adjunction, suite_descent,
                            suite_example26, suite_products, suite_rho,
                            suite_sigma)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("suite", [suite_adjunction, suite_products,
                                   suite_descent, suite_sigma, suite_rho])
def test_suites_hold_for_other_seeds(suite, seed):
    report = suite(seed)
    failures = [row for row in report.rows if row["status"] != "pass"]
    assert report.ok, failures


def test_example26_suite_rows_are_named():
    report = suite_example26()
    assert report.ok
    assert all(row["identity"] and row["detail"] for row in report.rows)
    record = report.as_record()
    assert record["status"] == "pass"
    assert record["suite"] == "example26"


def _reference_random_poly(rng, domain, variables):
    """Reference for random_poly on a nonempty variable list: every exponent
    step draws its variable's index, so the seeded suites keep their
    draws."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(len(variables))] += 1
        coeff = domain.random_element(rng)
        key = tuple(exps)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Poly(domain, variables, terms)


@pytest.mark.parametrize("variables", [(), ("u",), ("u", "v", "w")])
def test_random_poly_draws(variables):
    domain = PrimeField(7)
    for seed in range(20):
        rng = random.Random(seed)
        got = random_poly(rng, domain, variables)
        assert got.variables == variables
        if not variables:  # constants, where the index draw used to fail
            assert got.is_constant()
        else:
            reference = random.Random(seed)
            assert got == _reference_random_poly(reference, domain, variables)
            assert rng.getstate() == reference.getstate()
