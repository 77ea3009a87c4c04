"""Exact matrix helpers over an arbitrary commutative coefficient ring.

Matrices are tuples of row tuples; the ring is any handle providing zero()
and one() (a Field, a FreeExtension or a PolyRing).  The characteristic
polynomial uses the Berkowitz iteration, which is division-free and therefore
valid when the entries are polynomials.  The iteration is written once, in
berkowitz, over a unit, a negation and a dot product, and runs on three kinds
of entry: extensions.charpoly runs it for scalar coordinates on the raw
numerators of the cleared matrix (ints over Q and Q_p, F_p[x] coefficient
tuples over F_p(x), raw values over finite fields) with the operations of
the base's numerators(); PolyRing.charpoly (over F_p and F_p(x)) on
polynomial entries keyed into its packed kernel with the kernel's keyed dot;
and berkowitz_charpoly on the remaining polynomial entries as ring elements,
with _dot.  The module holds matrices only: the product of algebra elements
is extensions.table_product.
"""

from __future__ import annotations


def mat_identity(n, ring):
    one, zero = ring.one(), ring.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """a * b, skipping every product with a zero operand; an entry that
    has no other product is its first one, a zero of the entries' ring."""
    bt = tuple(zip(*b))
    live_columns = [[(l, y) for l, y in enumerate(col) if not y.is_zero()]
                    for col in bt]
    out = []
    for row in a:
        live = [not x.is_zero() for x in row]
        out_row = []
        for col, pairs in zip(bt, live_columns):
            acc = None
            for l, y in pairs:
                if live[l]:
                    acc = row[l] * y if acc is None else acc + row[l] * y
            out_row.append(row[0] * col[0] if acc is None else acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_vec(a, v):
    return tuple(_dot(row, v) for row in a)


def _dot(row, v):
    acc = row[0] * v[0]
    for x, y in zip(row[1:], v[1:]):
        acc = acc + x * y
    return acc


def mat_is_zero(a):
    return all(entry.is_zero() for row in a for entry in row)


def berkowitz_charpoly(matrix, ring):
    """Coefficients [1, c_1, ..., c_n] of det(z*I - M) = z^n + c_1 z^(n-1) + ...

    Division-free: only ring additions and multiplications are used, so the
    entries may live in a polynomial ring.
    """
    # PolyRing keeps the whole iteration in its packed kernel where every
    # entry allows it (its charpoly returns None otherwise)
    kernel = getattr(ring, "charpoly", None)
    vec = None if kernel is None else kernel(matrix)
    return berkowitz(matrix, ring.one(), lambda x: -x, _dot) if vec is None else vec


def berkowitz(matrix, one, negate, dot):
    """[1, c_1, ..., c_n] for the square matrix by Berkowitz's iteration
    (Inform. Process. Lett. 18, 1984), given the unit `one`, negate(x) = -x
    and dot(xs, ys), the sum of the x*y over two equally long nonempty
    sequences.  Each entry on or below the diagonal is negated once."""
    vec = [one]
    for r, line in enumerate(matrix):
        # -R, negated once: its entries are smaller than the R M^j C
        row, sub = [negate(x) for x in line[:r]], [above[:r] for above in matrix[:r]]
        # Toeplitz column: 1, -a, -R C, -R M C, -R M^2 C, ...
        toep, v = [one, negate(line[r])], [above[r] for above in matrix[:r]]
        for j in range(r):
            if j:
                v = [dot(s, v) for s in sub]
            toep.append(dot(row, v))
        vec = [dot(*zip(*[(toep[i - j], vec[j])
                          for j in range(max(0, i - r - 1), min(i, r) + 1)]))
               for i in range(r + 2)]
    return vec


def eliminate_linear(rows, nvars, field):
    """Gauss-Jordan elimination of homogeneous linear forms over a field.

    rows: coefficient vectors (length nvars) of linear relations.  Pivots are
    chosen column by column from the right, so variables late in the order are
    eliminated first.  Returns a dict {pivot column: coefficient vector of the
    solved expression over the free columns}, i.e. x_pivot = sum c_j x_j.
    """
    work = [list(r) for r in rows if any(not c.is_zero() for c in r)]
    pivots = {}
    for col in range(nvars - 1, -1, -1):
        pivot_row = None
        for row in work:
            if not row[col].is_zero() and all(
                    row[c].is_zero() for c in pivots if c != col):
                pivot_row = row
                break
        if pivot_row is None:
            continue
        inv = pivot_row[col].inverse()
        for j in range(nvars):
            pivot_row[j] = pivot_row[j] * inv
        for row in work:
            if row is pivot_row or row[col].is_zero():
                continue
            factor = row[col]
            for j in range(nvars):
                row[j] = row[j] - factor * pivot_row[j]
        pivots[col] = pivot_row
    solved = {}
    for col, row in pivots.items():
        expr = [-row[j] if j != col else field.zero() for j in range(nvars)]
        solved[col] = expr
    return solved
