"""Command-line surface: document in, canonical JSON out.

Commands: restrict, disc, charpoly, integrality, spectral, fixed-points,
points, verify.  Exit codes: 0 pass, 1 verification failure, 2 input error,
3 resource bound exceeded (a bound of this package, or MemoryError), 4
internal error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .documents import (canonical_json, field_record, load_document_text,
                        presentation_record, restriction_record)
from .errors import DocumentError, EnumerationBoundError, WeilresError
from .extensions import FreeExtension, charpoly
from .lognorm import LogNorm
from .poly import parse_poly
from .restriction import base_change, disc_generators, points_over, restrict
from .galois import fixed_points
from .spectral import spectral_value
from .verify import SUITES

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it as
    it was."""
    parser = argparse.ArgumentParser(
        prog="weilres",
        description="exact restriction of polynomially presented spaces "
                    "along finite free extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="path to the JSON document")
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("restrict", help="restrict a presentation along the extension")
    p.add_argument("presentation")
    common(p)

    p = sub.add_parser("disc", help="disc-restriction generators for the "
                                    "document's radius elements")
    common(p)

    p = sub.add_parser("charpoly", help="characteristic polynomial of an element")
    p.add_argument("element")
    common(p)

    p = sub.add_parser("integrality", help="integrality test for an element")
    p.add_argument("element")
    common(p)

    p = sub.add_parser("spectral", help="spectral radius of an element")
    p.add_argument("element")
    common(p)

    p = sub.add_parser("fixed-points", help="fixed points of the document's "
                                            "action on a restriction")
    p.add_argument("presentation")
    common(p)

    p = sub.add_parser("points", help="enumerate points over a finite field")
    p.add_argument("presentation")
    p.add_argument("--field", default="base",
                   help="'base', 'extension', or a field size from "
                        "options.test_fields")
    common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, help="override the document seed")
    p.add_argument("--threshold", help="override the document threshold")
    common(p)

    return parser


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    return load_document_text(text)


def _emit(record, output):
    text = canonical_json(record)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DocumentError("cannot write %s: %s" % (output, exc))
    else:
        sys.stdout.write(text)


def _need_extension(doc):
    if doc.extension is None:
        raise DocumentError("this command needs an extension in the document")
    return doc.extension


def _get_presentation(doc, name):
    if name not in doc.presentations:
        raise DocumentError("no presentation named %r in the document" % name)
    return doc.presentations[name]


def _parse_element(doc, text):
    ext = _need_extension(doc)
    poly = parse_poly(text, ext)
    return ext, poly.constant_value()


def cmd_restrict(doc, args):
    ext = _need_extension(doc)
    pres = _get_presentation(doc, args.presentation)
    if not isinstance(pres.base, FreeExtension):
        raise DocumentError("presentation %r is defined over the base; "
                            "declare it with 'over': 'extension'" % args.presentation)
    result = restrict(pres, ext)
    return EXIT_PASS, restriction_record(result)


def cmd_disc(doc, args):
    ext = _need_extension(doc)
    elements = doc.radius_elements
    if not elements:
        raise DocumentError("options.radius_elements must list the radius elements")
    block = tuple("x_%d" % (j + 1) for j in range(ext.rank))
    gens, meta = disc_generators(ext, elements, block)
    return EXIT_PASS, {
        "variable_block": list(block),
        "generators": [g.to_string() for g in gens],
        "radius_metadata": meta,
    }


def cmd_charpoly(doc, args):
    ext, element = _parse_element(doc, args.element)
    chi = charpoly(element)
    return EXIT_PASS, {
        "element": str(element),
        "charpoly": chi.to_string(),
    }


def cmd_integrality(doc, args):
    ext, element = _parse_element(doc, args.element)
    chi = charpoly(element)
    # lognorm raises first over a base without a valuation
    lognorms = [ext.base.lognorm(c) for c in chi.coefficients]
    return EXIT_PASS, {
        "element": str(element),
        "charpoly": chi.to_string(),
        "coefficient_lognorms": [str(n) for n in lognorms],
        "integral": all(n <= LogNorm(0) for n in lognorms),
    }


def cmd_spectral(doc, args):
    ext, element = _parse_element(doc, args.element)
    chi = charpoly(element)
    return EXIT_PASS, {
        "element": str(element),
        "charpoly": chi.to_string(),
        "spectral_radius": str(spectral_value(chi)),
    }


def cmd_fixed_points(doc, args):
    ext = _need_extension(doc)
    if doc.action is None:
        raise DocumentError("this command needs an action in the document")
    pres = _get_presentation(doc, args.presentation)
    if not isinstance(pres.base, FreeExtension):
        pres = base_change(pres, ext)
    result = restrict(pres, ext)
    fp = fixed_points(doc.action, result)
    return EXIT_PASS, {
        "presentation": presentation_record(fp.presentation),
        "linear_relations": [r.to_string() for r in fp.linear_relations],
        "eliminated": {v: e.to_string() for v, e in sorted(fp.eliminated.items())},
        "unreduced": presentation_record(fp.unreduced),
    }


def _select_field(doc, selector):
    if selector == "base":
        return doc.field
    if selector == "extension":
        return _need_extension(doc)
    try:
        size = int(selector)
    except ValueError:
        raise DocumentError("--field must be 'base', 'extension' or a size")
    candidates = [doc.field] + list(doc.test_fields)
    for f in candidates:
        if f.is_finite() and f.size() == size:
            return f
    raise DocumentError("no declared field with %d elements" % size)


def cmd_points(doc, args):
    pres = _get_presentation(doc, args.presentation)
    domain = _select_field(doc, args.field)
    pts = points_over(pres, domain, text=True)
    return EXIT_PASS, {
        "field": repr(domain) if isinstance(domain, FreeExtension)
        else field_record(domain),
        "variables": list(pres.variables),
        "count": len(pts),
        "points": pts,
    }


def cmd_verify(doc, args):
    if args.seed is not None:
        doc.options["seed"] = args.seed
    if args.threshold is not None:
        doc.options["threshold"] = LogNorm.parse(args.threshold)
    report = SUITES[args.suite](doc)
    record = report.as_record()
    return (EXIT_PASS if report.ok else EXIT_VERIFY_FAIL), record


COMMANDS = {
    "restrict": cmd_restrict,
    "disc": cmd_disc,
    "charpoly": cmd_charpoly,
    "integrality": cmd_integrality,
    "spectral": cmd_spectral,
    "fixed-points": cmd_fixed_points,
    "points": cmd_points,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load(args.input)
        code, record = COMMANDS[args.command](doc, args)
        _emit(record, args.output)
        return code
    except (EnumerationBoundError, MemoryError) as exc:
        sys.stderr.write("resource bound: %s\n" % (str(exc) or "out of memory"))
        return EXIT_RESOURCE
    except (WeilresError, ValueError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(exc).__name__, " ".join(str(exc).splitlines())))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
