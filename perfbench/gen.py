"""Seeded document generators for the weilres benchmark.

Builds each request's JSON document with plain `random`; nothing here imports
weilres, so the program under test sees only the generated text.

Every workload draws from a fixed pool of documents split into strata
(input shapes: field, rank, degree, variable count, ...).  A document is
identified by its key `<workload>/<stratum>/<index>` and generated from that
key alone, so the reference digests in `reference.json` cover every document
any seed can select.  A run is a list of passes, each holding the same number
of documents from every stratum; the run seed picks which pool members run
and their order.  That keeps the work mix of a run steady while the inputs
change with the seed.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple

VERSION = "weilres/1"

# One request: the CLI arguments before --input, the document text, and the
# structural description the independent spot checks use (None if unchecked).
Request = namedtuple("Request", "key argv text spec")


# ---------------------------------------------------------------------------
# arithmetic over F_p on coefficient lists (ascending degree), for building
# structure constants and irreducible moduli


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, m, p):
    """Remainder of a modulo a monic m."""
    a = _trim(a)
    n = len(m) - 1
    while len(a) > n:
        c = a[-1]
        shift = len(a) - 1 - n
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
        a = _trim(a)
    return a


def _is_irreducible(m, p):
    """Brute-force irreducibility of a monic polynomial of degree <= 4."""
    n = len(m) - 1
    for d in range(1, n // 2 + 1):
        for tail in range(p ** d):
            f = [(tail // p ** i) % p for i in range(d)] + [1]
            if not _pmod(m, f, p):
                return False
    return True


def _poly_text(coeffs, symbol):
    """Ascending coefficient list as canonical text, highest degree first."""
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
            continue
        mono = symbol if d == 1 else "%s^%d" % (symbol, d)
        parts.append(mono if c == 1 else "%d*%s" % (c, mono))
    return " + ".join(parts) if parts else "0"


def _mat_inverse(a, p):
    """Inverse of a square matrix over F_p by Gauss-Jordan, or None."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


# ---------------------------------------------------------------------------
# restrict_prime: restriction along F_p[t]/(m) or a written-out table


def _monogenic_table(m, p):
    """Structure constants of F_p[t]/(m) in the basis 1, t, ..., t^(n-1)."""
    n = len(m) - 1
    powers = []
    for k in range(2 * n - 1):
        c = _pmod([0] * k + [1], m, p)
        powers.append(c + [0] * (n - len(c)))
    return [[powers[i + j] for j in range(n)] for i in range(n)]


def _tensor_table(f, g, p):
    """Structure constants of F_p[s]/(f) (x) F_p[t]/(g), basis s^a t^b."""
    tf, tg = _monogenic_table(f, p), _monogenic_table(g, p)
    n1, n2 = len(f) - 1, len(g) - 1
    n = n1 * n2
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n1):
        for b in range(n2):
            for c in range(n1):
                for d in range(n2):
                    cell = table[a * n2 + b][c * n2 + d]
                    for x, u in enumerate(tf[a][c]):
                        for y, v in enumerate(tg[b][d]):
                            if u and v:
                                cell[x * n2 + y] = (cell[x * n2 + y] + u * v) % p
    return table


def _change_basis(table, unit, a, p):
    """Structure constants and unit in the basis v_k = sum_i a[k][i] e_i."""
    n = len(table)
    inv = _mat_inverse(a, p)

    def to_new(old):
        return [sum(old[i] * inv[i][k] for i in range(n)) % p for k in range(n)]

    def product(x, y):
        out = [0] * n
        for i in range(n):
            if x[i]:
                for j in range(n):
                    if y[j]:
                        for k, c in enumerate(table[i][j]):
                            out[k] = (out[k] + x[i] * y[j] * c) % p
        return out

    new = [[to_new(product(a[i], a[j])) for j in range(n)] for i in range(n)]
    return new, to_new(unit)


def _random_monic(rng, p, n, sparse):
    """Monic of degree n: the trinomial t^n + a*t + b, or one with every
    coefficient nonzero; the coefficients are random nonzero residues."""
    if sparse:
        return [rng.randrange(1, p), rng.randrange(1, p)] + [0] * (n - 2) + [1]
    return [rng.randrange(1, p) for _ in range(n)] + [1]


def _random_coords(rng, p, n, nonzero):
    coords = [0] * n
    for k in rng.sample(range(n), nonzero):
        coords[k] = rng.randrange(1, p)
    return coords


def _monomial_text(variables, exps):
    return "*".join(v if e == 1 else "%s^%d" % (v, e)
                    for v, e in zip(variables, exps) if e)


def _generator(variables, degree, coefficient):
    """A term of full degree, split evenly over the variables, and one of
    degree - 1 in the last variable: [(exponents, coefficient), ...]."""
    top = [degree // len(variables)] * len(variables)
    top[0] += degree % len(variables)
    low = [0] * (len(variables) - 1) + [degree - 1]
    return [(tuple(top), coefficient()), (tuple(low), coefficient())]


def _restrict_request(key, p, table, unit, extension, variables, gens, text):
    texts = []
    for gen in gens:
        parts = []
        for exps, coeff in gen:
            c = "(%s)" % text(coeff)
            mono = _monomial_text(variables, exps)
            parts.append(c + "*" + mono if mono else c)
        texts.append(" + ".join(parts))
    doc = {
        "version": VERSION,
        "field": {"kind": "prime", "p": p},
        "extension": extension,
        "presentations": {"X": {"over": "extension", "variables": variables,
                                "generators": texts}},
    }
    spec = {"p": p, "table": table, "unit": unit, "variables": variables,
            "generators": gens}
    return Request(key, ["restrict", "X"], json.dumps(doc, sort_keys=True), spec)


def _restrict_monogenic(key, rng, p, n, degree, nvars, ngens, sparse):
    m = _random_monic(rng, p, n, sparse)
    variables = ["u", "v"][:nvars]
    gens = [_generator(variables, degree, lambda: _random_coords(rng, p, n, 2))
            for _ in range(ngens)]
    extension = {"minimal_polynomial": _poly_text(m, "t"), "symbol": "t"}
    return _restrict_request(key, p, _monogenic_table(m, p),
                             [1] + [0] * (n - 1), extension, variables, gens,
                             lambda c: _poly_text(c, "t"))


def _restrict_table(key, rng, p, n1, n2, degree, nvars):
    """A written-out tensor product of two monogenic algebras in a random
    basis: a dense structure tensor, validated when the document loads.  A
    table has no symbol for its basis, so coefficients are base scalars."""
    f = _random_monic(rng, p, n1, True)
    g = _random_monic(rng, p, n2, False)
    n = n1 * n2
    while True:
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _mat_inverse(a, p) is not None:
            break
    table, unit = _change_basis(_tensor_table(f, g, p), [1] + [0] * (n - 1),
                                a, p)
    variables = ["u", "v"][:nvars]
    gen = _generator(variables, degree, lambda: rng.randrange(1, p))
    gens = [[(e, [c * u % p for u in unit]) for e, c in gen]]
    extension = {"basis": ["e%d" % (k + 1) for k in range(n)],
                 "structure_constants": table, "unit": unit}
    pivot = next(k for k, u in enumerate(unit) if u)
    inverse = pow(unit[pivot], p - 2, p)
    return _restrict_request(key, p, table, unit, extension, variables, gens,
                             lambda c: str(c[pivot] * inverse % p))


# ---------------------------------------------------------------------------
# disc_function: disc generators over F_p(x)


# minimal polynomials t^n + sum m_k t^k over F_p(x) by form: the text and
# the lower coefficients m_k as polynomials in x (ascending)
def _disc_modulus(form, n, p):
    low = [()] * n
    if form == "radical":
        low[0] = (0, p - 1)
        return "t^%d - x" % n, low
    if form == "xt":
        low[0], low[1] = (1,), (0, 1)
        return "t^%d + x*t + 1" % n, low
    low[0], low[1] = (0, 1), (1,)
    return "t^%d + t + x" % n, low


def _disc_request(key, rng, p, form, n, nradius, dense, shift):
    """disc over F_p(x)[t]/(m) for nradius radius elements, the i-th divided
    by x^(shift + i) so that their log-norms vary.  A dense radius element
    has two coordinates a + b*x, a sparse one a single constant coordinate.
    t^n - x is inseparable when p divides n."""
    minimal_polynomial, modulus = _disc_modulus(form, n, p)
    radius = []
    for i in range(nradius):
        coords = [[] for _ in range(n)]
        for k in rng.sample(range(n), 2 if dense else 1):
            coords[k] = [rng.randrange(1, p) for _ in range(2 if dense else 1)]
        parts = []
        for k in range(n - 1, -1, -1):
            if coords[k]:
                c = "(%s)" % _poly_text(coords[k], "x")
                mono = "" if k == 0 else ("t" if k == 1 else "t^%d" % k)
                parts.append(c + "*" + mono if mono else c)
        text = " + ".join(parts)
        if shift + i:
            text = "(%s)/x^%d" % (text, shift + i)
        radius.append((text, coords, shift + i))
    doc = {
        "version": VERSION,
        "field": {"kind": "function", "p": p,
                  "r": rng.choice(("1/2", "1/3", "2/3")), "symbol": "x"},
        "extension": {"minimal_polynomial": minimal_polynomial, "symbol": "t"},
        "options": {"radius_elements": [text for text, _, _ in radius]},
    }
    spec = {"p": p, "modulus": modulus, "rank": n,
            "radius": [(coords, shift) for _, coords, shift in radius]}
    return Request(key, ["disc"], json.dumps(doc, sort_keys=True), spec)


# ---------------------------------------------------------------------------
# points_oracle: exhaustive point enumeration over F_q


def _points_field(rng, q):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        if p == q:
            return {"kind": "prime", "p": p}, p, None
    for p in (2, 3, 5, 7):
        m = 1
        while p ** m < q:
            m += 1
        if p ** m == q:
            while True:
                mod = [rng.randrange(p) for _ in range(m)] + [1]
                if mod[0] and _is_irreducible(mod, p):
                    break
            return ({"kind": "galois", "p": p, "modulus": _poly_text(mod, "a"),
                     "symbol": "a"}, p, m)
    raise ValueError("no field of size %d" % q)


def _points_coeff(rng, p, m):
    if m is None:
        return str(rng.randrange(1, p))
    coords = [rng.randrange(p) for _ in range(m)]
    if not any(coords):
        coords[0] = 1
    return "(%s)" % _poly_text(coords, "a")


def _points_request(key, rng, q, d, many):
    field, p, m = _points_field(rng, q)
    variables = ["z%d" % (i + 1) for i in range(d)]
    gens = []
    if many:
        # one hypersurface: about q^(d-1) solutions
        terms = [_points_coeff(rng, p, m) + "*" + variables[0] + "^2"]
        for v in variables[1:]:
            terms.append(_points_coeff(rng, p, m) + "*" + v)
        terms.append(_points_coeff(rng, p, m))
        gens.append(" + ".join(terms))
    else:
        # a triangular system of d equations: few solutions
        for i, v in enumerate(variables):
            terms = [v + "^%d" % rng.choice((2, 3))]
            if i + 1 < d:
                terms.append(_points_coeff(rng, p, m) + "*" + variables[i + 1])
            terms.append(_points_coeff(rng, p, m))
            gens.append(" + ".join(terms))
    doc = {
        "version": VERSION,
        "field": field,
        "presentations": {"P": {"variables": variables, "generators": gens}},
    }
    return Request(key, ["points", "P", "--field", "base"],
                   json.dumps(doc, sort_keys=True), None)


# ---------------------------------------------------------------------------
# verify_suites: the six verification suites


def _verify_request(key, rng, suite):
    if suite == "example26":
        doc = {"version": VERSION,
               "field": {"kind": "function", "p": 2, "r": "1/2", "symbol": "x"},
               "options": {"threshold": str(rng.randrange(1, 8))}}
    else:
        doc = {"version": VERSION, "field": {"kind": "prime", "p": 2},
               "options": {"seed": rng.randrange(1, 10 ** 6)}}
    return Request(key, ["verify", "--suite", suite],
                   json.dumps(doc, sort_keys=True), None)


# ---------------------------------------------------------------------------
# workloads: strata of (name, documents a pass, pool size, builder)


# restrict along F_p[t]/(m): (p, rank, degree, variables, generators,
# trinomial modulus, documents a pass); cost grows fast with rank * degree and
# with p.  Small documents are the bulk of a run, so the median tracks
# per-request overhead; the large ones make the top fifth, so the 90th
# percentile tracks the big kernels.
RESTRICT_MONOGENIC = (
    (2, 2, 5, 2, 2, False, 2), (3, 2, 4, 2, 1, True, 2),
    (2, 3, 4, 2, 2, True, 2), (3, 3, 4, 2, 1, False, 2),
    (2, 4, 5, 1, 2, True, 2), (3, 4, 3, 2, 1, True, 2),
    (2, 5, 4, 2, 1, False, 1), (3, 5, 3, 1, 2, False, 1),
    (2, 6, 3, 2, 1, True, 1), (3, 6, 2, 2, 1, True, 1),
    (2, 8, 3, 1, 1, False, 1), (2, 10, 2, 2, 1, True, 1),
    (3, 7, 2, 1, 1, False, 1), (2, 12, 2, 1, 1, False, 1),
    (3, 9, 2, 1, 1, True, 1), (2, 14, 2, 1, 1, True, 1),
    (2, 16, 2, 1, 1, True, 1),
)
# restrict along a written-out tensor product: (p, n1, n2, degree,
# variables, documents a pass)
RESTRICT_TABLE = (
    (3, 2, 2, 3, 2, 2), (2, 2, 3, 3, 1, 1), (3, 3, 2, 2, 1, 1),
    (2, 2, 4, 2, 2, 1), (2, 3, 3, 2, 1, 1),
)
# points over F_q: (q, variables); q^variables assignments each
POINTS = (
    (2, 5), (3, 5), (5, 4), (7, 3), (11, 3), (13, 3), (5, 5), (97, 2),
    (4, 4), (8, 3), (9, 3), (25, 2), (27, 2), (49, 2), (4, 5),
)
# disc over F_p(x)[t]/(m): (p, form of m, rank, radius elements, dense
# radius elements, power of x dividing the first, documents a pass)
DISC = (
    (2, "radical", 2, 2, True, 1, 1), (3, "radical", 3, 2, True, 0, 1),
    (2, "radical", 4, 2, True, 2, 1), (3, "radical", 4, 1, True, 1, 1),
    (2, "xt", 3, 1, True, 2, 1), (3, "tx", 2, 2, True, 0, 1),
    (3, "xt", 4, 1, True, 1, 1), (2, "radical", 5, 1, True, 0, 1),
    (2, "radical", 6, 1, False, 2, 1), (3, "radical", 6, 1, False, 1, 1),
    (2, "tx", 5, 1, False, 0, 1), (2, "radical", 7, 1, False, 1, 2),
    (2, "radical", 8, 1, False, 0, 1),
)
SUITES = ("adjunction", "products", "descent", "example26", "sigma", "rho")


# passes a run holds: a round of every document of the run takes 6 to 7.5
# seconds on an unloaded core of the VM the benchmark was tuned on, so a
# 25-second run holds two to four rounds even when the host is slow.
PASSES = {"restrict_prime": 3, "disc_function": 4, "points_oracle": 3,
          "verify_suites": 2}


def _pool(per_pass, workload):
    """Pool size of a stratum: one document more than a run takes, so that
    runs differ by at most one document a stratum.  Documents of one shape
    differ in cost by up to threefold; with pools of 20, the draw alone moved
    the latency percentiles by about 8% between seeds (simulated from
    per-document costs), and with one spare by 2 to 7%."""
    return per_pass * PASSES[workload] + 1


def _bind(fn, *args):
    return lambda key, rng: fn(key, rng, *args)


WORKLOADS = {
    "restrict_prime": [
        ("p%d_rank%d_deg%d_vars%d_gens%d_%s" % (
            p, n, d, v, g, "sparse" if s else "dense"), k,
            _pool(k, "restrict_prime"),
            _bind(_restrict_monogenic, p, n, d, v, g, s))
        for p, n, d, v, g, s, k in RESTRICT_MONOGENIC
    ] + [
        ("p%d_table%dx%d_deg%d_vars%d" % (p, n1, n2, d, v), k,
         _pool(k, "restrict_prime"),
         _bind(_restrict_table, p, n1, n2, d, v))
        for p, n1, n2, d, v, k in RESTRICT_TABLE
    ],
    "disc_function": [
        ("p%d_%s%d_radius%d_%s_shift%d" % (
            p, form, n, r, "dense" if d else "sparse", x), k,
            _pool(k, "disc_function"),
            _bind(_disc_request, p, form, n, r, d, x))
        for p, form, n, r, d, x, k in DISC
    ],
    "points_oracle": [
        ("q%d_vars%d_%s" % (q, d, "many" if many else "few"), 1,
         _pool(1, "points_oracle"),
         _bind(_points_request, q, d, many))
        for q, d in POINTS for many in (True, False)
    ],
    # the whole pool, reordered and regrouped by the run seed: the adjunction
    # suite's cost varies threefold with its seed, so any subset moved the
    # 90th percentile by about 15% between run seeds
    "verify_suites": [(suite, 4, 8, _bind(_verify_request, suite))
                      for suite in SUITES],
}


def build(workload, stratum, index):
    """The pool document `<workload>/<stratum>/<index>`."""
    for name, _, pool, builder in WORKLOADS[workload]:
        if name == stratum:
            if not 0 <= index < pool:
                raise IndexError("no document %d in stratum %s" % (index, name))
            key = "%s/%s/%d" % (workload, name, index)
            return builder(key, random.Random(key))
    raise KeyError("no stratum %r in workload %r" % (stratum, workload))


def pool(workload):
    """Every document of the workload's pool, in key order."""
    return [build(workload, name, i)
            for name, _, size, _ in WORKLOADS[workload] for i in range(size)]


def requests(workload, seed):
    """The passes of one run.  Every pass holds the same number of documents
    from each stratum; passes draw distinct pool documents, and the seed
    picks them and their order."""
    rng = random.Random("%s:%d" % (workload, seed))
    passes = [[] for _ in range(PASSES[workload])]
    for name, per_pass, size, _ in WORKLOADS[workload]:
        picks = rng.sample(range(size), per_pass * len(passes))
        for j, chunk in enumerate(passes):
            chunk.extend(build(workload, name, i)
                         for i in picks[j * per_pass:(j + 1) * per_pass])
    for chunk in passes:
        rng.shuffle(chunk)
    return passes
