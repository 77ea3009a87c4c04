import random

from weilres import PrimeField, RationalField
from weilres.fields import power
from weilres.linalg import (berkowitz_charpoly, eliminate_linear, mat_identity,
                            mat_is_zero, mat_mul)


def rows_of(field, *rows):
    return [[field(c) for c in row] for row in rows]


def check_solution(field, rows, solved, nvars):
    """Every original relation must vanish after substituting the solved
    variables; solved expressions must involve only free variables."""
    free = [j for j in range(nvars) if j not in solved]
    rng = random.Random(1)
    for _ in range(20):
        assignment = [None] * nvars
        for j in free:
            assignment[j] = field.random_element(rng)
        for col, expr in solved.items():
            total = field.zero()
            for j, c in enumerate(expr):
                if j in solved and not c.is_zero():
                    raise AssertionError("expression uses a solved variable")
                if assignment[j] is not None:
                    total = total + c * assignment[j]
            assignment[col] = total
        for row in rows:
            total = field.zero()
            for c, v in zip(row, assignment):
                total = total + c * v
            assert total.is_zero()


def test_eliminate_dependent_rows():
    f = RationalField()
    rows = rows_of(f, [1, -1, 0], [0, 1, -1], [1, 0, -1])  # rank 2
    solved = eliminate_linear(rows, 3, f)
    assert len(solved) == 2
    check_solution(f, rows, solved, 3)


def test_eliminate_full_rank():
    f = PrimeField(5)
    rows = rows_of(f, [1, 2], [3, 2])   # det = -4, a unit mod 5
    solved = eliminate_linear(rows, 2, f)
    assert set(solved) == {0, 1}
    check_solution(f, rows, solved, 2)


def test_eliminate_zero_rows_ignored():
    f = RationalField()
    rows = rows_of(f, [0, 0], [2, 4])
    solved = eliminate_linear(rows, 2, f)
    assert list(solved) == [1]
    check_solution(f, rows, solved, 2)


def test_eliminate_random_systems():
    f = PrimeField(7)
    rng = random.Random(8)
    for _ in range(50):
        nvars = rng.randint(1, 5)
        rows = [[f(rng.randrange(7)) for _ in range(nvars)]
                for _ in range(rng.randint(1, 6))]
        solved = eliminate_linear(rows, nvars, f)
        check_solution(f, rows, solved, nvars)


def test_matrix_power_and_charpoly_basics():
    f = PrimeField(5)
    m = tuple(tuple(f(c) for c in row) for row in ((0, 1), (0, 0)))
    assert mat_is_zero(power(m, 2, None, mat_mul))
    vec = berkowitz_charpoly(m, f)
    assert vec == [f(1), f(0), f(0)]
    ident = mat_identity(2, f)
    assert mat_mul(ident, m) == m
