"""Finite group actions on extensions and fixed points of restrictions.

A GroupAction stores the abstract group (elements with the identity first
and a composition table) and, per element, the matrix of its action on the
extension's basis.  The induced action on a restriction transforms each
coordinate block by that matrix; fixed points are cut out by the linear
generators (g.v) - v, which are solved exactly and eliminated.

Descent is verified at the point level: over every test field the fixed-point
presentation of the restriction of a base-defined space has exactly the
points of the original space, matched by the diagonal section.
"""

from __future__ import annotations

from math import gcd

from .errors import (IncompatibleFieldError, TamenessError,
                     UnsupportedOperationError)
from .extensions import AlgebraElement, extend_scalars
from .fields import canonical_embedding
from .linalg import eliminate_linear, mat_identity, mat_mul, mat_vec
from .poly import Poly
from .restriction import Presentation, base_change, points_over, restrict


class GroupAction:
    def __init__(self, elements, table, matrices, base):
        self.elements = tuple(elements)
        self.table = tuple(tuple(row) for row in table)
        self.base = base
        self.matrices = tuple(
            tuple(tuple(base.coerce(c) for c in row) for row in m)
            for m in matrices)
        k = len(self.elements)
        if not k:
            raise ValueError("a group action needs at least one element")
        if len(self.table) != k or any(len(row) != k for row in self.table):
            raise ValueError("composition table must be %d x %d" % (k, k))
        if any(type(c) is not int or not 0 <= c < k
               for row in self.table for c in row):
            raise ValueError("composition table entries must be element "
                             "indices 0 .. %d" % (k - 1))
        if len(self.matrices) != k:
            raise ValueError("need one matrix per group element")

    @property
    def order(self):
        return len(self.elements)

    def generating_indices(self):
        """A generating set of the group, greedily closed from the table."""
        closure = {0}
        gens = []
        for i in range(1, self.order):
            if i in closure:
                continue
            gens.append(i)
            frontier = set(closure) | {i}
            while frontier:
                new = set()
                for a in frontier:
                    for b in list(closure) + [a]:
                        for c in (self.table[a][b], self.table[b][a]):
                            if c not in closure and c not in frontier and c not in new:
                                new.add(c)
                closure |= frontier
                frontier = new
        return gens

    def __repr__(self):
        return "GroupAction(%s)" % (", ".join(self.elements),)


def validate_action(action, ext):
    """Exact verification that the matrices define ring automorphisms
    composing according to the table; returns (ok, diagnostics)."""
    diagnostics = []
    base = ext.base
    n = ext.rank
    if action.base != base:
        return False, ["action matrices are not over the extension's base field"]
    if any(len(m) != n or any(len(row) != n for row in m) for m in action.matrices):
        return False, ["matrix size does not match the rank"]
    ident = mat_identity(n, base)
    if action.matrices[0] != ident:
        diagnostics.append("identity element does not act as the identity matrix")
    for g, matrix in enumerate(action.matrices):
        if mat_vec(matrix, ext.unit) != ext.unit:
            diagnostics.append("element %s does not fix the unit" % action.elements[g])
            break
    for g, matrix in enumerate(action.matrices):
        images = [AlgebraElement(ext, tuple(matrix[i][j] for i in range(n)))
                  for j in range(n)]
        done = False
        for i in range(n):
            for j in range(i + 1):
                lhs = images[i] * images[j]
                rhs_coords = mat_vec(matrix, (ext.basis_element(i)
                                              * ext.basis_element(j)).coords)
                if lhs.coords != tuple(rhs_coords):
                    diagnostics.append(
                        "element %s is not multiplicative on basis pair (%d, %d)"
                        % (action.elements[g], i, j))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for i in range(action.order):
        for j in range(action.order):
            expect = action.matrices[action.table[i][j]]
            got = mat_mul(action.matrices[i], action.matrices[j])
            if got != expect:
                diagnostics.append(
                    "matrices of %s and %s do not compose per the table"
                    % (action.elements[i], action.elements[j]))
                break
        else:
            continue
        break
    return not diagnostics, diagnostics


def cyclic_frobenius_action(ext):
    """The cyclic action generated by the q-power map on a monogenic extension
    of a finite base field with q elements."""
    base = ext.base
    if not base.is_finite():
        raise UnsupportedOperationError("Frobenius action needs a finite base field")
    q = base.size()
    n = ext.rank
    gen = ext.basis_element(1) if n >= 2 else ext.unit_element()
    frob_gen = gen ** q
    # column j = image of basis j = (t^j)^q = (t^q)^j
    cols = []
    acc = ext.unit_element()
    for j in range(n):
        cols.append(acc.coords)
        acc = acc * frob_gen
    frob = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    matrices = [mat_identity(n, base)]
    cur = frob
    for _ in range(n - 1):
        matrices.append(cur)
        cur = mat_mul(cur, frob)
    if cur != mat_identity(n, base):
        raise UnsupportedOperationError("q-power map does not have order %d" % n)
    names = tuple("frob^%d" % i if i > 1 else ("frob" if i == 1 else "id")
                  for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupAction(names, table, matrices, base)


def action_point_map(action, result, g_index, field):
    """The transform of restriction points induced by one group element,
    over the base field or a canonical extension of it."""
    emb = canonical_embedding(result.extension.base, field)
    matrix = [[emb(c) for c in row] for row in action.matrices[g_index]]
    variables = result.presentation.variables
    index = {name: i for i, name in enumerate(variables)}
    blocks = [result.coordinate_map[v] for v in result.original.variables]

    def apply(point):
        out = list(point)
        for block in blocks:
            vals = [point[index[name]] for name in block]
            for i, name in enumerate(block):
                acc = field.zero()
                for j, v in enumerate(vals):
                    acc = acc + matrix[i][j] * v
                out[index[name]] = acc
        return tuple(out)

    return apply


class FixedPointPresentation:
    """Fixed locus of the induced action with its linear relations solved."""

    def __init__(self, presentation, linear_relations, eliminated, unreduced):
        self.presentation = presentation
        self.linear_relations = tuple(linear_relations)
        self.eliminated = dict(eliminated)
        self.unreduced = unreduced

    def __repr__(self):
        return "FixedPointPresentation(%r)" % (self.presentation,)


def _linear_form(base, variables, row):
    """The linear polynomial sum_j row[j] * variables[j] over base."""
    n = len(variables)
    return Poly(base, variables, {
        tuple(int(i == j) for i in range(n)): c
        for j, c in enumerate(row) if not c.is_zero()}, clean=True)


def fixed_points(action, result):
    """Append the linear generators (g.v) - v for group generators g and solve.

    Group element g moves each coordinate block by its matrix M_g, so the
    relations of a block are the nonzero rows of M_g - I at the block's
    columns.  Tameness is enforced: in positive characteristic the group order
    must be coprime to the characteristic (the linear solving can silently
    lose relations in the wild case).  Only presentations whose generators are
    defined over the base field are accepted; anything else would need an
    explicit equivariance datum.
    """
    base = result.extension.base
    char = base.characteristic
    if char > 0 and gcd(action.order, char) != 1:
        raise TamenessError(
            "group order %d shares a factor with the characteristic %d"
            % (action.order, char))
    ok, diagnostics = validate_action(action, result.extension)
    if not ok:
        raise ValueError("invalid action: %s" % "; ".join(diagnostics))
    if any(c.scalar_part() is None for f in result.original.generators
           for c in f.terms.values()):
        raise UnsupportedOperationError(
            "generators are not defined over the base field; "
            "the induced action is not determined")
    variables = result.presentation.variables
    index = {v: k for k, v in enumerate(variables)}
    one, zero = base.one(), base.zero()
    rows = []
    for g in action.generating_indices():
        shifted = [[c - one if i == j else c for j, c in enumerate(m_row)]
                   for i, m_row in enumerate(action.matrices[g])]
        shifted = [r for r in shifted if any(not c.is_zero() for c in r)]
        for v in result.original.variables:
            columns = [index[name] for name in result.coordinate_map[v]]
            for m_row in shifted:
                row = [zero] * len(variables)
                for k, c in zip(columns, m_row):
                    row[k] = c
                rows.append(row)
    relations = [_linear_form(base, variables, row) for row in rows]
    unreduced = Presentation(
        base, variables,
        list(result.presentation.generators) + relations,
        provenance="fixed points (unreduced)")
    solved = eliminate_linear(rows, len(variables), base)
    free_columns = [k for k in range(len(variables)) if k not in solved]
    free = tuple(variables[k] for k in free_columns)
    eliminated = {variables[col]: _linear_form(
                      base, free, [expr[k] for k in free_columns])
                  for col, expr in solved.items()}
    reduced_gens = []
    seen = set()
    for g in result.presentation.generators:
        sub = g.substitute(eliminated)
        if sub.is_zero():
            continue
        sub = sub.with_variables(free)
        key = sub.canonical_string()
        if key not in seen:
            seen.add(key)
            reduced_gens.append(sub)
    reduced = Presentation(base, free, reduced_gens, provenance="fixed points")
    return FixedPointPresentation(reduced, relations, eliminated, unreduced)


def diagonal_section(x, ext, field):
    """The map sending a point of x to the corresponding fixed restriction point:
    each coordinate u becomes the block coordinates of u * 1 in the basis."""
    emb = canonical_embedding(ext.base, field)
    unit = [emb(c) for c in ext.unit]

    def section(point):
        out = []
        for u in point:
            out.extend(u * c for c in unit)
        return tuple(out)

    return section


def verify_descent(x, ext, act, fields):
    """Compare the fixed points of the restriction of x base-changed to the
    extension with x itself over every test field.

    Returns a report: one row per field with both point counts and whether the
    diagonal section is an exact bijection compatible with the expansion map.
    """
    if x.base != ext.base:
        raise IncompatibleFieldError("x must be defined over the extension's base")
    lifted = base_change(x, ext)
    result = restrict(lifted, ext)
    fp = fixed_points(act, result)
    variables = result.presentation.variables
    rows = []
    for field in fields:
        left = points_over(fp.presentation, field)
        right = points_over(x, field)
        bijection_ok = len(left) == len(right)
        section = diagonal_section(x, ext, field)
        ext_f = extend_scalars(ext, field)
        lifted_f = base_change(x, ext_f)
        images = set()
        left_set = set(_lift_points(fp, field, left))
        for pt in right:
            s = section(pt)
            if s not in left_set:
                bijection_ok = False
                break
            images.add(s)
            # expansion composed with the section returns the original point
            assignment = dict(zip(variables, s))
            expanded = tuple(
                AlgebraElement(ext_f, tuple(assignment[name]
                                            for name in result.coordinate_map[v]))
                for v in result.original.variables)
            diag = tuple(ext_f.scalar(u) for u in pt)
            if expanded != diag:
                bijection_ok = False
                break
            for f in lifted_f.generators:
                if not f.evaluate(dict(zip(lifted_f.variables, expanded))).is_zero():
                    bijection_ok = False
                    break
        if bijection_ok and len(images) != len(right):
            bijection_ok = False
        rows.append({
            "field": repr(field),
            "count_left": len(left),
            "count_right": len(right),
            "bijection_ok": bijection_ok,
        })
    return rows


def _lift_points(fp, field, points):
    """Points of the reduced fixed presentation over field, lifted back to
    full block coordinates through the eliminated variables."""
    emb = canonical_embedding(fp.presentation.base, field)
    exprs = {v: e.map_coefficients(field, emb) for v, e in fp.eliminated.items()}
    out = []
    for pt in points:
        assignment = dict(zip(fp.presentation.variables, pt))
        out.append(tuple(assignment[v] if v in assignment
                         else exprs[v].evaluate(assignment)
                         for v in fp.unreduced.variables))
    return out
