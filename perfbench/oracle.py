"""Independent spot checks of restrict and disc outputs.

Nothing here imports weilres: the checks re-derive the answer with their own
arithmetic (F_p, F_p(x), an algebra given by structure constants, and a
cofactor-expansion determinant) and read the program's output only as text.
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*)|(.))")


# ---------------------------------------------------------------------------
# expression text -> evaluator


def compile_expr(text, ring):
    """Compile polynomial text into a function of an environment (name ->
    ring value).  Grammar: sums of products of powers of integers, names and
    parenthesised expressions, with division by any nonzero value."""
    tokens = []
    for number, name, op in _TOKEN.findall(text):
        if number:
            tokens.append(("int", int(number)))
        elif name:
            tokens.append(("name", name))
        elif op.strip():
            tokens.append((op, op))
    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def take():
        pos[0] += 1
        return tokens[pos[0] - 1]

    def expr():
        negate = peek() == "-" and take()
        acc = term()
        if negate:
            acc = _neg(ring, acc)
        while peek() in ("+", "-"):
            op, _ = take()
            rhs = term()
            acc = _bin(ring.add if op == "+" else ring.sub, acc, rhs)
        return acc

    def term():
        acc = factor()
        while peek() in ("*", "/"):
            op, _ = take()
            rhs = factor()
            acc = _bin(ring.mul if op == "*" else ring.div, acc, rhs)
        return acc

    def factor():
        base = atom()
        if peek() == "^":
            take()
            kind, k = take()
            if kind != "int":
                raise ValueError("bad exponent in %r" % text)
            return lambda env, f=base, k=k: ring.pow(f(env), k)
        return base

    def atom():
        kind, value = take()
        if kind == "int":
            const = ring.const(value)
            return lambda env: const
        if kind == "name":
            return lambda env: env[value]
        if kind == "(":
            inner = expr()
            if take()[0] != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            return inner
        if kind == "-":
            return _neg(ring, atom())
        raise ValueError("unexpected %r in %r" % (value, text))

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing input in %r" % text)
    return out


def _bin(op, f, g):
    return lambda env: op(f(env), g(env))


def _neg(ring, f):
    return lambda env: ring.sub(ring.const(0), f(env))


# ---------------------------------------------------------------------------
# rings


class PrimeRing:
    def __init__(self, p):
        self.p = p

    def const(self, c):
        return c % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return a * pow(b, self.p - 2, self.p) % self.p

    def pow(self, a, k):
        return pow(a, k, self.p)


def _utrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return tuple(a)


def _uadd(a, b, p):
    n = max(len(a), len(b))
    return _utrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _uscale(a, c, p):
    return _utrim([x * c % p for x in a])


def _umul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _utrim([c % p for c in out])


def _udivmod(a, b, p):
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and a:
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = list(_utrim(a))
    return _utrim(q), tuple(a)


class RationalFunctions:
    """F_p(x) with elements (num, den), reduced, den monic: equal values are
    equal tuples."""

    def __init__(self, p):
        self.p = p

    def make(self, num, den):
        p = self.p
        num, den = _utrim(list(num)), _utrim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (1,))
        a, b = num, den
        while b:
            a, b = b, _udivmod(a, b, p)[1]
        if len(a) > 1:
            num, den = _udivmod(num, a, p)[0], _udivmod(den, a, p)[0]
        lead = pow(den[-1], p - 2, p)
        return _uscale(num, lead, p), _uscale(den, lead, p)

    def const(self, c):
        return self.make((c % self.p,), (1,))

    def poly(self, coeffs):
        return self.make(coeffs, (1,))

    def add(self, a, b):
        p = self.p
        return self.make(_uadd(_umul(a[0], b[1], p), _umul(b[0], a[1], p), p),
                         _umul(a[1], b[1], p))

    def sub(self, a, b):
        return self.add(a, (_uscale(b[0], self.p - 1, self.p), b[1]))

    def mul(self, a, b):
        return self.make(_umul(a[0], b[0], self.p), _umul(a[1], b[1], self.p))

    def div(self, a, b):
        if not b[0]:
            raise ZeroDivisionError("division by zero in F_p(x)")
        return self.mul(a, (b[1], b[0]))

    def pow(self, a, k):
        out = self.const(1)
        for _ in range(k):
            out = self.mul(out, a)
        return out


# ---------------------------------------------------------------------------
# restrict: the restriction's points over F_p are the original's over B


def _algebra_mul(x, y, table, p):
    n = len(x)
    out = [0] * n
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    c = x[i] * y[j]
                    for k, s in enumerate(table[i][j]):
                        if s:
                            out[k] += c * s
    return [v % p for v in out]


def check_restrict(spec, record):
    """Compare the points of the output presentation over F_p with the
    points of the original generators over the algebra, coordinate by
    coordinate.  Returns an error message or None."""
    p, table, unit = spec["p"], spec["table"], spec["unit"]
    n, variables = len(unit), spec["variables"]
    pres = record["presentation"]
    blocks = [record["coordinate_map"][v] for v in variables]
    if pres["variables"] != [name for block in blocks for name in block]:
        return "unexpected variables %s" % pres["variables"]
    field = PrimeRing(p)
    restricted = [compile_expr(g, field) for g in pres["generators"]]
    expected, found = set(), set()
    for point in itertools.product(range(p), repeat=n * len(variables)):
        values = [list(point[i * n:(i + 1) * n]) for i in range(len(variables))]
        if all(not any(_evaluate(gen, values, table, unit, p))
               for gen in spec["generators"]):
            expected.add(point)
        env = dict(zip(pres["variables"], point))
        if all(f(env) == 0 for f in restricted):
            found.add(point)
    if expected != found:
        return ("restriction has %d points over F_%d, the original %d over the "
                "extension" % (len(found), p, len(expected)))
    return None


def _evaluate(gen, values, table, unit, p):
    total = [0] * len(unit)
    for exps, coeff in gen:
        term = list(coeff)
        for value, e in zip(values, exps):
            for _ in range(e):
                term = _algebra_mul(term, value, table, p)
        total = [(a + b) % p for a, b in zip(total, term)]
    return total


# ---------------------------------------------------------------------------
# disc: coefficients against a cofactor-expansion determinant


def _determinant(matrix, ring):
    """Cofactor expansion along the first row, memoised on column sets."""
    n = len(matrix)
    memo = {}

    def minor(row, cols):
        if row == n:
            return ring.const(1)
        key = (row, cols)
        if key not in memo:
            acc, sign = ring.const(0), 1
            for k, c in enumerate(cols):
                entry = matrix[row][c]
                if entry[0]:
                    rest = minor(row + 1, cols[:k] + cols[k + 1:])
                    prod = ring.mul(entry, rest)
                    acc = ring.add(acc, prod) if sign > 0 else ring.sub(acc, prod)
                sign = -sign
            memo[key] = acc
        return memo[key]

    return minor(0, tuple(range(n)))


def _extension_mul(a, b, modulus, ring):
    """Product in F_p(x)[t]/(t^n + sum modulus[k] t^k)."""
    n = len(a)
    prod = [ring.const(0)] * (2 * n - 1)
    for i in range(n):
        if a[i][0]:
            for j in range(n):
                if b[j][0]:
                    prod[i + j] = ring.add(prod[i + j], ring.mul(a[i], b[j]))
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        if c[0]:
            for k in range(n):
                prod[d - n + k] = ring.sub(prod[d - n + k], ring.mul(c, modulus[k]))
    return prod[:n]


def check_disc(spec, record, rng):
    """At a random base point x_k in F_p[x], compare every output coefficient
    c_j with det(zI - M) at n + 1 distinct z, M the multiplication matrix of
    r * (x_1 + x_2 t + ... + x_n t^(n-1)).  Returns an error message or None."""
    p, n = spec["p"], spec["rank"]
    ring = RationalFunctions(p)
    modulus = [ring.poly(c) for c in spec["modulus"]]
    block = record["variable_block"]
    point = [ring.poly([rng.randrange(p), rng.randrange(p)]) for _ in range(n)]
    env = dict(zip(block, point))
    env["x"] = ring.poly((0, 1))
    gens = record["generators"]
    if len(gens) != n * len(spec["radius"]):
        return "expected %d generators, got %d" % (n * len(spec["radius"]), len(gens))
    for i, (coords, shift) in enumerate(spec["radius"], start=1):
        scale = ring.make((1,), (0,) * shift + (1,))
        r = [ring.mul(ring.poly(c), scale) for c in coords]
        b = _extension_mul(r, point, modulus, ring)
        columns = []
        for k in range(n):
            basis = [ring.const(int(j == k)) for j in range(n)]
            columns.append(_extension_mul(b, basis, modulus, ring))
        names = ["y%d_%d" % (i, j) for j in range(1, n + 1)]
        local = dict(env, **{name: ring.const(0) for name in names})
        coeffs = []
        for j, name in enumerate(names):
            text = gens[(i - 1) * n + j]
            # the generator reads y_ij - c_j; at y_ij = 0 it is -c_j
            coeffs.append(ring.sub(ring.const(0), compile_expr(text, ring)(local)))
        for a in range(n + 1):
            z = ring.poly((0,) * a + (1,))
            matrix = [[ring.sub(z if r_ == c_ else ring.const(0), columns[c_][r_])
                       for c_ in range(n)] for r_ in range(n)]
            want = _determinant(matrix, ring)
            got = ring.pow(z, n)
            for j, c in enumerate(coeffs, start=1):
                got = ring.add(got, ring.mul(c, ring.pow(z, n - j)))
            if got != want:
                return ("radius element %d: charpoly coefficients disagree with "
                        "the determinant at z = x^%d" % (i, a))
    return None
