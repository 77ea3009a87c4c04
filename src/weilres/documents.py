"""The CLI document format: one JSON shape for every input and output.

A document declares a coefficient field, optionally an extension and a group
action over it, named presentations and an options record.  Every record is
schema-checked before any computation and unknown keys are rejected, so a
typo fails loudly instead of silently configuring nothing.  Polynomials and
scalars appear as canonical strings in the grammar of poly.parse_poly; names
(basis labels, variables, symbols) must be identifiers of that grammar,
distinct within their list, and a JSON boolean is never read as an integer.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from .errors import DocumentError, EnumerationBoundError
from .extensions import (RANK_CAP, FreeExtension, check_rank,
                         from_minimal_polynomial, structure_table)
from .fields import (FunctionField, GaloisField, PrimeField, RationalField,
                     _ustr)
from .galois import GroupAction
from .lognorm import LogNorm
from .poly import _tokens, parse_poly, render
from .restriction import Presentation

VERSION = "weilres/1"


def canonical_json(obj):
    """Deterministic serialisation, the bytes of json.dumps(obj, indent=2,
    sort_keys=True) plus a newline: str keys in sorted order, two-space
    indent, items separated by "," and a newline, ": " after each key, ASCII
    with \\uXXXX escapes.  Laid out by hand (json's indent runs its
    pure-Python encoder); objects are dicts, lists and tuples over str, int,
    bool and None, and anything else, a float or a non-str key among them,
    raises TypeError."""
    out = []
    _lay(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _lay(obj, pad, out):
    """Append the layout of obj to out; pad is a newline and the indent of
    the line obj starts on."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, deeper = pad + "  ", pad + "    "
        try:  # nonempty lists of strings, such as the points, one join a row
            if set(map(type, obj)) <= {list, tuple} and all(obj):
                rows = map(("," + deeper).join, map(map, repeat(_quote), obj))
                sep = inner + "]," + inner + "[" + deeper
                text = "[" + deeper + sep.join(rows) + inner + "]"
            else:  # a list of strings, such as a point, in one join
                text = ("," + inner).join(map(_quote, obj))
        except TypeError:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _lay(item, inner, out)
                sep = "," + inner
            out.append(pad + "]")
        else:
            out.append("[" + inner + text + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner  # _quote refuses a key that is not a str
        for key in sorted(obj):
            out.append(sep + _quote(key) + ": ")
            _lay(obj[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError("%s is not canonical JSON" % type(obj).__name__)


def _object(record, path):
    if not isinstance(record, dict):
        raise DocumentError("%s: expected an object" % path)
    return record


def _check_keys(record, required, optional, path):
    unknown = set(_object(record, path)) - set(required) - set(optional)
    if unknown:
        raise DocumentError("%s: unknown keys %s" % (path, sorted(unknown)))
    missing = set(required) - set(record)
    if missing:
        raise DocumentError("%s: missing keys %s" % (path, sorted(missing)))


def _array(record, key, path, label=None):
    """record[key], which must be a JSON array: a string is not read as a
    list of its characters.  The message starts with the record's path, like
    every other document error, and names the value by label (path.key
    unless given)."""
    value = record[key]
    if not isinstance(value, list):
        raise DocumentError("%s: %s must be an array"
                            % (path, label or "%s.%s" % (path, key)))
    return value


def _name(value, path, label):
    """value, which must be a string that the polynomial grammar reads as one
    identifier: basis labels, variables and field symbols are written into
    and read back from polynomial text."""
    try:
        if type(value) is str and _tokens(value) == [value] and value not in "+-*/^()":
            return value
    except ValueError:
        pass
    raise DocumentError("%s: %s must be an identifier" % (path, label))


def _names(record, key, path):
    """record[key], an array of distinct identifiers."""
    names, seen = _array(record, key, path), set()
    for i, name in enumerate(names):
        label = "%s.%s[%d]" % (path, key, i)
        if _name(name, path, label) in seen:
            raise DocumentError("%s: %s repeats the name %s" % (path, label, name))
        seen.add(name)
    return names


def _scalars(record, key, field, path, depth=1, label=None):
    """record[key] read as scalars nested depth arrays deep; every level must
    be a JSON array (a unit vector is one level, the action's matrices and a
    raw extension's structure constants are three)."""
    label = label or "%s.%s" % (path, key)
    value = _array(record, key, path, label)
    if depth == 1:
        return [_scalar(field, c, path) for c in value]
    return [_scalars(value, i, field, path, depth - 1, "%s[%d]" % (label, i))
            for i in range(len(value))]


def _text(value, path, label):
    """value, which must be a JSON string: polynomials and the provenance
    are text, and a number or an array is not read as its str()."""
    if isinstance(value, str):
        return value
    raise DocumentError("%s: %s must be a string" % (path, label))


def _exact(value, path, label):
    """value, which must be a string or a JSON integer: a float would load as
    its binary value, and a boolean is no integer."""
    if isinstance(value, str) or type(value) is int:
        return value
    raise DocumentError("%s: %s must be a string or an integer" % (path, label))


@contextmanager
def _reported(path):
    """Turn any failure inside the block into a DocumentError naming path;
    document errors and resource bounds (exit 3) pass through unchanged."""
    try:
        yield
    except (DocumentError, EnumerationBoundError):
        raise
    except Exception as exc:
        raise DocumentError("%s: %s" % (path, exc))


def _scalar(field, value, path):
    # a JSON true or false is no scalar, though Python's bool is an int
    if type(value) is int:
        return field.coerce(value)
    if isinstance(value, str):
        with _reported("%s: bad scalar %r" % (path, value)):
            return parse_poly(value, field).constant_value()
    raise DocumentError("%s: scalar must be an integer or string" % path)


def parse_field(record, path="field"):
    _check_keys(record, ["kind"], ["p", "modulus", "symbol", "r"], path)
    kind = record["kind"]
    with _reported(path):
        if kind == "prime":
            _check_keys(record, ["kind", "p"], [], path)
            return PrimeField(record["p"])
        if kind == "galois":
            _check_keys(record, ["kind", "p", "modulus"], ["symbol"], path)
            symbol = _name(record.get("symbol", "t"), path, "%s.symbol" % path)
            prime = PrimeField(record["p"])
            modulus = record["modulus"]
            if isinstance(modulus, str):
                coeffs = [c.value for c in
                          parse_poly(modulus, prime, (symbol,)).dense_coefficients()]
            elif isinstance(modulus, list) and all(type(c) is int for c in modulus):
                coeffs = modulus
            else:
                raise DocumentError("%s: %s.modulus must be a string or an array of "
                                    "integers" % (path, path))
            return GaloisField(record["p"], coeffs, symbol)
        if kind == "rationals":
            _check_keys(record, ["kind"], [], path)
            return RationalField()
        if kind == "padic":
            _check_keys(record, ["kind", "p"], [], path)
            return RationalField(padic=record["p"])
        if kind == "function":
            _check_keys(record, ["kind", "p"], ["r", "symbol"], path)
            r = Fraction(_exact(record.get("r", "1/2"), path, "%s.r" % path))
            symbol = _name(record.get("symbol", "x"), path, "%s.symbol" % path)
            return FunctionField(record["p"], r, symbol)
    raise DocumentError("%s: unknown field kind %r" % (path, kind))


def field_record(field):
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": field.p}
    if isinstance(field, GaloisField):
        return {"kind": "galois", "p": field.p,
                "modulus": _ustr(field.modulus, field.symbol),
                "symbol": field.symbol}
    if isinstance(field, RationalField):
        if field.padic is None:
            return {"kind": "rationals"}
        return {"kind": "padic", "p": field.padic}
    if isinstance(field, FunctionField):
        return {"kind": "function", "p": field.p, "r": str(field.r),
                "symbol": field.symbol}
    raise DocumentError("cannot serialise field %r" % (field,))


def parse_extension(record, field, path="extension"):
    if "minimal_polynomial" in _object(record, path):
        _check_keys(record, ["minimal_polynomial"], ["symbol"], path)
        symbol = _name(record.get("symbol", "t"), path, "%s.symbol" % path)
        with _reported(path):
            m = parse_poly(_text(record["minimal_polynomial"], path,
                                 "%s.minimal_polynomial" % path), field, (symbol,))
            return from_minimal_polynomial(field, m, symbol)
    _check_keys(record, ["structure_constants", "unit"], ["rank", "basis"], path)
    with _reported(path):
        if "rank" in record and type(record["rank"]) is not int:
            raise DocumentError("%s: rank must be an integer" % path)
        if "basis" in record:
            basis = _names(record, "basis", path)
        elif "rank" in record:
            if not 0 < record["rank"] <= RANK_CAP:
                raise DocumentError("%s: rank must be 1 .. %d" % (path, RANK_CAP))
            basis = ["e%d" % (i + 1) for i in range(record["rank"])]
        else:
            raise DocumentError("%s: need either basis or rank" % path)
        n = len(basis)
        check_rank(n)
        if record.get("rank", n) != n:
            raise DocumentError("%s: rank disagrees with the basis length" % path)
        structure = _scalars(record, "structure_constants", field, path, 3)
        if len(structure) != n:
            raise DocumentError("%s: structure_constants must be %d^3" % (path, n))
        unit = _scalars(record, "unit", field, path)
        return FreeExtension(field, basis, structure_table(field, structure), unit)


def parse_action(record, field, path="action"):
    _check_keys(record, ["elements", "table", "matrices"], [], path)
    with _reported(path):
        return GroupAction(_array(record, "elements", path),
                           _array(record, "table", path),
                           _scalars(record, "matrices", field, path, 3), field)


def parse_presentation(record, field, extension, path):
    _check_keys(record, ["variables", "generators"],
                ["over", "radii", "provenance"], path)
    over = record.get("over", "base")
    if over == "base":
        domain = field
    elif over == "extension":
        if extension is None:
            raise DocumentError("%s: no extension declared in this document" % path)
        domain = extension
    else:
        raise DocumentError("%s: 'over' must be 'base' or 'extension'" % path)
    variables = tuple(_names(record, "variables", path))
    texts = [_text(text, path, "%s.generators[%d]" % (path, i))
             for i, text in enumerate(_array(record, "generators", path))]
    radii = _array(record, "radii", path) if "radii" in record else None
    provenance = _text(record.get("provenance", path), path,
                       "%s.provenance" % path)
    with _reported(path):
        gens = [parse_poly(text, domain, variables) for text in texts]
        if radii is not None:
            radii = [LogNorm.parse(str(_exact(r, path, "%s.radii[%d]" % (path, i))))
                     for i, r in enumerate(radii)]
        return Presentation(domain, variables, gens, radii=radii,
                            provenance=provenance)


def presentation_record(pres, generators=None):
    """The record of a presentation; generators, when given, are the texts
    of its generators, already rendered."""
    record = {
        "over": "extension" if isinstance(pres.base, FreeExtension) else "base",
        "variables": list(pres.variables),
        "generators": render(pres.generators) if generators is None else generators,
    }
    if pres.radii is not None:
        record["radii"] = [str(r) for r in pres.radii]
    if pres.provenance:
        record["provenance"] = pres.provenance
    return record


class Document:
    def __init__(self, field, extension=None, action=None, presentations=None,
                 options=None):
        self.field = field
        self.extension = extension
        self.action = action
        self.presentations = dict(presentations or {})
        self.options = options or {}

    @property
    def seed(self):
        return self.options.get("seed", 0)

    @property
    def threshold(self):
        return self.options.get("threshold")

    @property
    def test_fields(self):
        return self.options.get("test_fields", [])

    @property
    def radius_elements(self):
        return self.options.get("radius_elements", [])


def load_document(data):
    """Validate and build a Document from parsed JSON data."""
    _check_keys(data, ["version", "field"],
                ["extension", "action", "presentations", "options"], "document")
    if data["version"] != VERSION:
        raise DocumentError("unsupported document version %r (want %r)"
                            % (data["version"], VERSION))
    field = parse_field(data["field"])
    extension = None
    if "extension" in data:
        extension = parse_extension(data["extension"], field)
    action = None
    if "action" in data:
        action = parse_action(data["action"], field)
    presentations = {}
    for name, record in _object(data.get("presentations", {}),
                                "presentations").items():
        presentations[name] = parse_presentation(
            record, field, extension, "presentations.%s" % name)
    options = _parse_options(data.get("options", {}), field, extension)
    return Document(field, extension, action, presentations, options)


def _parse_options(record, field, extension):
    _check_keys(record, [],
                ["seed", "threshold", "test_fields", "radius_elements"],
                "options")
    options = {}
    if "seed" in record:
        if type(record["seed"]) is not int:
            raise DocumentError("options.seed must be an integer")
        options["seed"] = record["seed"]
    if "threshold" in record:
        text = str(_exact(record["threshold"], "options", "options.threshold"))
        with _reported("options.threshold"):
            options["threshold"] = LogNorm.parse(text)
    if "test_fields" in record:
        options["test_fields"] = [
            parse_field(f, "options.test_fields[%d]" % i)
            for i, f in enumerate(_array(record, "test_fields", "options"))]
    if "radius_elements" in record:
        if extension is None:
            raise DocumentError("options.radius_elements need an extension")
        elems = []
        for i, text in enumerate(_array(record, "radius_elements", "options")):
            label = "options.radius_elements[%d]" % i
            text = _text(text, "options", label)
            with _reported(label):
                elems.append(parse_poly(text, extension).constant_value())
        options["radius_elements"] = elems
    return options


def load_document_text(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON: %s" % exc)
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply to parse")
    return load_document(data)


def restriction_record(result):
    # the generators of a restriction are the nonzero polynomials of its
    # coefficient index, so one render of the index gives both
    index = result.coefficient_index
    texts = iter(render([p for row in index for p in row]))
    rows = [[next(texts) for _ in row] for row in index]
    return {
        "base_field": field_record(result.presentation.base),
        "presentation": presentation_record(
            result.presentation, [t for row in rows for t in row if t != "0"]),
        "coordinate_map": {v: list(block)
                           for v, block in result.coordinate_map.items()},
        "coefficient_index": rows,
        # restrict records tuples of strings only
        "metadata": {key: list(values) for key, values in result.metadata.items()},
    }
